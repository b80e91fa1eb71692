"""The benchmark's own checks: wrappers, trace equivalence, self-time arithmetic, output shape.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qpv.analysis
import qpv.protocol
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]
TINY = {
    "mc_n1": dataclasses.replace(workloads.WORKLOADS["mc_n1"], trials=64, traced_ops=4),
    "mc_n16": dataclasses.replace(workloads.WORKLOADS["mc_n16"], trials=16, traced_ops=4),
    "single_run": dataclasses.replace(workloads.WORKLOADS["single_run"], traced_ops=16),
    "mc_parallel": dataclasses.replace(workloads.WORKLOADS["mc_parallel"], n_values=(1, 2), trials=32,
                                       traced_ops=2),
}


def _lookup_sites():
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _name in spans._targets()]


def test_wrappers_restore_the_original_functions():
    before = _lookup_sites()
    original_judge = qpv.protocol.judge
    recorder = spans.Recorder()
    with pytest.raises(ZeroDivisionError):
        with recorder:
            assert all(owner.__dict__[attr] is not fn for owner, attr, fn in before)
            assert qpv.protocol.judge.__wrapped__ is original_judge
            1 / 0
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)
    with recorder:
        pass
    assert _lookup_sites() == before


@pytest.mark.parametrize("name", list(TINY))
def test_traced_and_untraced_runs_agree(name):
    workload = TINY[name]
    for index in range(workload.cycle):
        plain = workload.op(5, index)
        with spans.Recorder() as recorder:
            traced = workload.op(5, index)
        assert recorder.spans
        assert traced.fingerprint == plain.fingerprint
        assert traced.problems == plain.problems == []


def test_self_time_subtracts_direct_children_only():
    tree = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("a.child", 2.0, 3.0, 1, 0),
        ("b", 5.0, 7.0, 0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 1.0, 2.0])
    overlapping = [("p", 0.0, 10.0, -1, 0), ("c1", 1.0, 4.0, 0, 0), ("c2", 3.0, 6.0, 0, 0), ("c3", 9.0, 12.0, 0, 0)]
    assert spans.self_times(overlapping)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_from_a_synthetic_tree():
    recorder = spans.Recorder()
    recorder.spans[:] = [
        (spans.COMPUTE_VERDICTS, 0.0, 4.0, -1, 0),
        (spans.JUDGE, 0.5, 1.5, 0, 0),
        (spans.JUDGE, 2.0, 3.0, 0, 0),
        (spans.TIMELINE, 5.0, 9.0, -1, 0),
        (spans.QUANTUM_OPS, 6.0, 7.0, 3, 0),
    ]
    metrics = spans.layer_metrics(recorder, trials=2)
    assert metrics["protocol.judge.calls"] == 2
    assert metrics["protocol.judge.s"] == pytest.approx(2.0)
    assert metrics["protocol.compute_verdicts.self_s"] == pytest.approx(2.0)
    assert metrics["protocol.judge_calls_per_trial"] == 1.0
    assert metrics["spacetime.self_s"] == pytest.approx(3.0)
    assert metrics["quantum.ops.s"] == pytest.approx(1.0)


def test_checks_catch_a_late_honest_prover():
    config = qpv.protocol.ProtocolConfig(n=4, prover_delay=0.5)
    verdict, outcome, rendered = workloads.SingleRun._run("honest", config, 1)
    assert workloads.check_run("honest", config, verdict, outcome, rendered, 4)


def test_row_checks_catch_a_miscounted_row():
    spec = qpv.analysis.ExperimentSpec(scenario="honest", n_values=(2,), trials=8)
    result = qpv.analysis.ExperimentResult(spec=spec, rows=[qpv.analysis._make_row(spec, 2, 7)])
    problems, flagged = workloads.check_rows(result, 8)
    assert problems and flagged == 1


def test_guess_gate_is_wide_enough_for_a_correct_program():
    lo, hi = workloads.binomial_interval(4096, 0.5)
    assert lo < 2048 - 6 * 32 < 2048 + 6 * 32 < hi < 2048 + 7 * 32
    assert workloads.binomial_interval(1024, 2.0 ** -16)[0] == 0


def _benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_tiny_run_prints_every_metric_with_its_unit(name, trace, monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, name, TINY[name])
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = _benchmark_spec()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc_n1", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
