"""Tests for the Monte Carlo harness and report serialization."""

import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpv import analysis
from qpv.adversary import AttackConfig, run_attack
from qpv.analysis import (
    SCENARIOS,
    ExperimentResult,
    ExperimentSpec,
    expected_acceptance,
    parse_report,
    render_csv,
    render_json,
    run_experiment,
    run_trial_batch,
    trial_seed,
    write_report,
)
from qpv.protocol import ProtocolConfig


class TestSeedSplitting:
    def test_deterministic(self):
        assert trial_seed(42, "guess", 3, 7) == trial_seed(42, "guess", 3, 7)

    def test_distinct_across_axes(self):
        seeds = {
            trial_seed(42, "guess", 3, 7),
            trial_seed(42, "guess", 3, 8),
            trial_seed(42, "guess", 4, 7),
            trial_seed(42, "honest", 3, 7),
            trial_seed(43, "guess", 3, 7),
        }
        assert len(seeds) == 5


class TestExpectedAcceptance:
    def test_values(self):
        assert expected_acceptance("honest", 5) == 1.0
        assert expected_acceptance("guess", 3) == 0.125
        assert expected_acceptance("swap_and_forward", 2) == 0.0
        assert expected_acceptance("bounded_rounds", 2) == 0.0


class TestMakeRow:
    """The report rules, on rows built from chosen counts."""

    @pytest.mark.parametrize("accepted,passed", [(4849, False), (4850, True), (5150, True), (5151, False)])
    def test_pass_rule_is_three_sigma(self, accepted, passed):
        # guess at n = 1 over 10,000 trials: sigma = 0.005, so 3 sigma is 150 accepts either side of 5000
        row = analysis._make_row(ExperimentSpec(scenario="guess", trials=10_000), 1, accepted)
        assert row.passed is passed

    def test_interval_clipped_to_unit_range(self):
        # one accepted trial: detection 0, sigma 0.5, so detection -+ 3 sigma is [-1.5, 1.5] before clipping
        row = analysis._make_row(ExperimentSpec(scenario="guess", trials=1), 1, 1)
        assert (row.interval_low, row.interval_high) == (0.0, 1.0)


class TestRunExperiment:
    def test_honest_detects_nothing(self):
        spec = ExperimentSpec(scenario="honest", n_values=(1, 4), trials=200, master_seed=3)
        result = run_experiment(spec)
        for row in result.rows:
            assert row.accept_count == 200
            assert row.detection_rate == 0.0
            assert row.passed

    def test_guess_tracks_model(self):
        spec = ExperimentSpec(scenario="guess", n_values=(1, 2), trials=3000, master_seed=11)
        result = run_experiment(spec)
        for row in result.rows:
            expected = 2.0 ** -row.n
            sigma = math.sqrt(expected * (1 - expected) / row.trials)
            assert abs(row.acceptance_rate - expected) <= 3 * sigma
            assert row.passed
            assert row.bound == 1 - expected

    def test_swap_always_rejected(self):
        spec = ExperimentSpec(scenario="swap_and_forward", n_values=(1,), trials=100, master_seed=0)
        result = run_experiment(spec)
        assert result.rows[0].accept_count == 0
        assert result.rows[0].detection_rate == 1.0

    def test_deterministic(self):
        spec = ExperimentSpec(scenario="guess", n_values=(1,), trials=500, master_seed=5)
        assert run_experiment(spec) == run_experiment(spec)

    def test_workers_match_serial(self):
        spec = ExperimentSpec(scenario="guess", n_values=(1,), trials=300, master_seed=9)
        assert run_experiment(spec, workers=1) == run_experiment(spec, workers=2)

    def test_monotone_detection_in_n(self):
        spec = ExperimentSpec(scenario="guess", n_values=(1, 2, 4), trials=3000, master_seed=21)
        rows = run_experiment(spec).rows
        for lo, hi in zip(rows, rows[1:]):
            slack = 3 * (lo.sigma + hi.sigma)
            assert hi.detection_rate >= lo.detection_rate - slack

    def test_counts_independent_of_workers_and_batch_size(self, monkeypatch):
        spec = ExperimentSpec(scenario="guess", n_values=(1, 3), trials=41, master_seed=13)
        counts = set()
        for slots in (1, 5, 4096):
            monkeypatch.setattr(analysis, "_BATCH_SLOTS", slots)
            analysis._stop_workers()  # the workers started next run this batch size too
            for workers in (1, 2, 3):
                counts.add(tuple(row.accept_count for row in run_experiment(spec, workers=workers).rows))
        assert len(counts) == 1

    def test_batch_equals_serial_trials(self):
        seeds = [trial_seed(4, "guess", 2, i) for i in range(60)]
        config = AttackConfig(strategy="guess", protocol=ProtocolConfig(n=2))
        serial = sum(run_attack(config, s).verdict.accepted for s in seeds)
        assert run_trial_batch(config, seeds) == serial

    def test_invalid_spec(self):
        with pytest.raises(ValueError, match="scenario"):
            run_experiment(ExperimentSpec(scenario="nope"))
        with pytest.raises(ValueError, match="trials"):
            run_experiment(ExperimentSpec(trials=0))
        with pytest.raises(ValueError, match="n must be"):
            run_experiment(ExperimentSpec(n_values=(2, 0)), workers=2)
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError, match=f"seed must be .* got {seed}"):
                run_experiment(ExperimentSpec(master_seed=seed), workers=2)
        with pytest.raises(ValueError, match="workers must be >= 0, got -3"):
            run_experiment(ExperimentSpec(trials=10), workers=-3)
        for workers in ("2", 2.5):
            with pytest.raises(ValueError, match="workers must be an int"):
                run_experiment(ExperimentSpec(trials=10), workers=workers)
        # a count that is not an int (a bool neither) is refused before any trial runs
        for field_name, spec in [("trials", ExperimentSpec(scenario="honest", n_values=(1,), trials=2.5)),
                                 ("trials", ExperimentSpec(scenario="honest", n_values=(1,), trials=True)),
                                 ("n", ExperimentSpec(n_values=(1.5,), trials=2)),
                                 ("n", ExperimentSpec(n_values=(1, True), trials=2)),
                                 ("rounds", ExperimentSpec(scenario="bounded_rounds", rounds=1.5, trials=2))]:
            with pytest.raises(ValueError, match=f"{field_name} must be an int, got"):
                run_experiment(spec)
        # a value of the wrong kind is a ValueError naming its field, never a TypeError
        for match, spec in [("delta must be a number", ExperimentSpec(n_values=(1,), delta="0.1")),
                            ("delta must be a number", ExperimentSpec(scenario="honest", n_values=(1,), delta="0.1")),
                            ("rounds must be an int", ExperimentSpec(scenario="honest", n_values=(1,), rounds=1.5)),
                            ("n_values must be a non-empty tuple or list", ExperimentSpec(n_values=5))]:
            with pytest.raises(ValueError, match=match):
                run_experiment(spec)


# Values of each kind a config field can be given; a field takes the kinds it is not due.
_KIND_VALUES = {
    "none": st.none(),
    "bool": st.booleans(),
    "str": st.text(max_size=4),
    "list": st.lists(st.integers(0, 3), max_size=4),
    "float": st.floats(),
    "int": st.integers(-2, 5),
}
_INT = ("none", "bool", "str", "list", "float")
_NUMBER = ("none", "bool", "str", "list")
_CHOICE = ("none", "bool", "list", "float")
_ENTRIES = ("bool", "str", "float", "int")  # None leaves the field unset and a list is its kind
_WRONG_KINDS = [
    (ProtocolConfig, {"n": _INT, "x": _NUMBER, "challenge_states": _ENTRIES, "bell_labels_v1": _ENTRIES,
                      "bell_labels_v2": _ENTRIES, "variant": _CHOICE, "deadline_slack": _NUMBER,
                      "prover_delay": _NUMBER}),
    (AttackConfig, {"strategy": _CHOICE, "delta": _NUMBER, "rounds": _INT, "preshared_pairs": _INT[1:],
                    "preshared_label": _INT, "protocol": _INT}),  # protocol: anything but a ProtocolConfig
    (ExperimentSpec, {"scenario": _CHOICE, "n_values": ("none", "bool", "str", "float", "int"), "trials": _INT,
                      "master_seed": _INT, "x": _NUMBER, "delta": _NUMBER, "rounds": _INT, "variant": _CHOICE}),
]


class TestConfigKinds:
    """Every field of every config class: a value of the wrong kind is a ValueError naming the field."""

    @pytest.mark.parametrize("cls", [ProtocolConfig, AttackConfig, ExperimentSpec])
    def test_defaults_valid(self, cls):
        cls().validate()

    @pytest.mark.parametrize("cls,name,kinds", [pytest.param(cls, name, kinds, id=f"{cls.__name__}.{name}")
                                                for cls, fields in _WRONG_KINDS for name, kinds in fields.items()])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_wrong_kind(self, cls, name, kinds, data):
        config = cls(**{name: data.draw(st.one_of(*(_KIND_VALUES[kind] for kind in kinds)))})
        if cls is ExperimentSpec and name != "scenario":  # honest runs without delta and rounds but reports them
            config.scenario = data.draw(st.sampled_from(SCENARIOS))
        with pytest.raises(ValueError) as info:
            config.validate()
        assert {"master_seed": "seed"}.get(name, name) in str(info.value)  # the seed rule names the CLI's key


class _InlineWorker:
    """Stands in for a worker process and its pipe: answers each job in this process when it is sent."""

    pid = 0

    def __init__(self, log):
        self.log = log

    def send(self, job):
        self.log.append(job[1:])  # (shard, shards)
        self.answer = analysis._answer(*job)

    def recv(self):
        return self.answer

    def is_alive(self):
        return True

    def close(self):
        pass

    terminate = join = close


def _exit_without_counts(*job):
    os._exit(3)


class TestFanOut:
    """Shard count and split, with the worker round trip answered inline so that no process starts."""

    @pytest.fixture
    def started(self, monkeypatch):
        """The jobs sent, as ``(shard, shards)``, and the workers started."""
        jobs, workers = [], []

        def start_worker():
            workers.append(_InlineWorker(jobs))
            return workers[-1], workers[-1]

        monkeypatch.setattr(analysis, "_start_worker", start_worker)
        return jobs, workers

    @pytest.mark.parametrize("workers,trials,cpus,shards", [
        (64, 40, 2, 2),  # capped by the CPU count
        (3, 40, 8, 3),  # by the workers
        (8, 3, 8, 3),  # by the trials
        (8, 1, 8, 1),  # one trial: no process
        (1, 40, 8, 1),
        (0, 40, 8, 1),
    ])
    def test_capped_and_caller_runs_shard_zero(self, monkeypatch, started, workers, trials, cpus, shards):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        spec = ExperimentSpec(scenario="guess", n_values=(1, 3), trials=trials, master_seed=13)
        fanned = run_experiment(spec, workers=workers)
        jobs, workers_started = started
        assert jobs == [(shard, shards) for shard in range(1, shards)]
        assert len(workers_started) == shards - 1
        assert fanned == run_experiment(spec)

    def test_shard_exception_reaches_caller(self, monkeypatch, started):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        counts = analysis._shard_counts
        monkeypatch.setattr(analysis, "_shard_counts",
                            lambda spec, shard, shards: counts(spec, shard, shards) if shard == 0 else 1 // 0)
        with pytest.raises(ZeroDivisionError):
            run_experiment(ExperimentSpec(scenario="guess", n_values=(1,), trials=10), workers=2)
        assert started[0] == [(1, 2)]

    def test_shard_process_that_dies_is_reported(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(analysis, "_answer", _exit_without_counts)
        with pytest.raises(RuntimeError, match="exited without sending its counts"):
            run_experiment(ExperimentSpec(scenario="guess", n_values=(1,), trials=10), workers=2)


def _worker_pids() -> set[int]:
    return {process.pid for process in multiprocessing.active_children()}


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


# Runs a workers=2 grid, writes the pids of its worker processes to argv[1], and exits skipping all cleanup.
_CALLER_WITHOUT_CLEANUP = """
import multiprocessing, os, sys
from qpv.analysis import ExperimentSpec, run_experiment
os.cpu_count = lambda: 2
run_experiment(ExperimentSpec(scenario="guess", n_values=(1,), trials=10), workers=2)
with open(sys.argv[1], "w") as out:
    out.write(" ".join(str(process.pid) for process in multiprocessing.active_children()))
os._exit(0)
"""


class TestWarmWorkers:
    """The life cycle of the warm shard workers, with real processes."""

    HONEST = ExperimentSpec(scenario="honest", n_values=(1, 2), trials=40, master_seed=1)
    SWAP = ExperimentSpec(scenario="swap_and_forward", n_values=(1, 2), trials=40, master_seed=2)
    GUESS = ExperimentSpec(scenario="guess", n_values=(1, 3), trials=400, master_seed=3)

    @pytest.fixture(autouse=True)
    def bounded(self, monkeypatch):
        """Two shards on any host, and at most 60 s, so that a hung pipe fails one test."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

        def expire(signum, frame):
            raise TimeoutError("worker life-cycle test ran for 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    def test_later_grids_reuse_the_worker(self):
        assert run_experiment(self.HONEST, workers=2) == run_experiment(self.HONEST)
        pids = _worker_pids()
        assert run_experiment(self.GUESS, workers=2) == run_experiment(self.GUESS)
        assert len(pids) == 1 and _worker_pids() == pids

    def test_killed_worker_is_replaced(self):
        run_experiment(self.HONEST, workers=2)
        (pid,) = _worker_pids()
        os.kill(pid, signal.SIGKILL)
        while pid in _worker_pids():
            time.sleep(0.01)
        assert run_experiment(self.GUESS, workers=2) == run_experiment(self.GUESS)
        assert len(_worker_pids() - {pid}) == 1

    def test_no_stale_answer_after_the_caller_raises(self, monkeypatch):
        run_experiment(self.HONEST, workers=2)  # started before the patch, the worker runs the real shard
        counts = analysis._shard_counts
        monkeypatch.setattr(analysis, "_shard_counts",
                            lambda spec, shard, shards: 1 // 0 if shard == 0 else counts(spec, shard, shards))
        with pytest.raises(ZeroDivisionError):
            run_experiment(self.HONEST, workers=2)  # the worker still owes its honest counts
        monkeypatch.setattr(analysis, "_shard_counts", counts)
        assert run_experiment(self.SWAP, workers=2) == run_experiment(self.SWAP)

    def test_workers_exit_with_a_caller_that_skips_cleanup(self, tmp_path):
        pids_path, errors = tmp_path / "pids", tmp_path / "stderr"
        src = Path(analysis.__file__).resolve().parents[1]
        with open(errors, "w", encoding="utf-8") as stderr:  # a file, not a pipe a worker could hold open
            subprocess.run([sys.executable, "-c", _CALLER_WITHOUT_CLEANUP, str(pids_path)], check=True,
                           env={**os.environ, "PYTHONPATH": str(src)}, stdout=subprocess.DEVNULL, stderr=stderr,
                           timeout=60)
        pids = [int(pid) for pid in pids_path.read_text().split()]
        assert pids, errors.read_text()
        deadline = time.monotonic() + 5
        try:
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, pids))
        finally:
            for pid in filter(_running, pids):
                os.kill(pid, signal.SIGKILL)

    def test_threads_at_once(self):
        specs = [ExperimentSpec(scenario="guess", n_values=(1, 3), trials=400, master_seed=seed) for seed in range(4)]
        fanned = {}

        def run(spec):
            fanned[spec.master_seed] = [run_experiment(spec, workers=2) for _ in range(3)]

        threads = [threading.Thread(target=run, args=(spec,)) for spec in specs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert fanned == {spec.master_seed: [run_experiment(spec)] * 3 for spec in specs}


class TestReports:
    def _result(self):
        spec = ExperimentSpec(scenario="guess", n_values=(1, 2), trials=400, master_seed=7)
        return run_experiment(spec)

    def test_json_round_trip_exact(self):
        result = self._result()
        assert parse_report(render_json(result), "json") == result

    def test_csv_round_trip_rows(self):
        result = self._result()
        parsed = parse_report(render_csv(result), "csv")
        assert parsed.rows == result.rows
        # CSV carries no master seed (nor x, delta, rounds, variant): they parse back as defaults
        assert result.spec.master_seed == 7 and parsed.spec.master_seed == ExperimentSpec().master_seed

    def test_numpy_ints_in_spec_round_trip(self):
        spec = ExperimentSpec(scenario="guess", n_values=(np.int64(1), np.int32(2)), trials=np.int64(40),
                              master_seed=np.uint64(7), rounds=np.int16(2))
        result = run_experiment(spec)
        assert result.rows == run_experiment(ExperimentSpec(scenario="guess", n_values=(1, 2), trials=40,
                                                            master_seed=7, rounds=2)).rows
        assert parse_report(render_json(result), "json") == result
        assert parse_report(render_csv(result), "csv").rows == result.rows

    def test_floats_use_twelve_significant_digits(self):
        result = self._result()
        text = render_json(result)
        row = result.rows[0]
        assert format(row.sigma, ".12g") in text

    def test_empty_result_is_header_only_csv(self):
        empty = ExperimentResult(spec=ExperimentSpec(n_values=(1,)))
        text = render_csv(empty)
        assert text.count("\n") == 1 and text.startswith("scenario,")

    def test_single_row_has_all_columns(self):
        result = run_experiment(ExperimentSpec(scenario="honest", n_values=(2,), trials=50))
        lines = render_csv(result).strip().splitlines()
        assert len(lines) == 2
        assert len(lines[1].split(",")) == len(lines[0].split(","))

    def test_write_and_parse_file(self, tmp_path):
        result = self._result()
        path = tmp_path / "report.json"
        write_report(result, str(path), "json")
        assert parse_report(path.read_text(), "json") == result

    def test_write_report_identical_bytes(self, tmp_path):
        result = self._result()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report(result, str(a), "csv")
        write_report(self._result(), str(b), "csv")
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            write_report(self._result(), "out.xml", "xml")
