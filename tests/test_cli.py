"""End-to-end tests of the command-line interface."""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qpv import cli, quantum, selftest
from qpv.adversary import STRATEGIES, AttackConfig, run_attack
from qpv.cli import main
from qpv.protocol import REASON_TIMING, REASON_V1, VARIANTS, ProtocolConfig, run_honest


def _swap_label_bits_swapped(shared1, shared2, outcome):
    """A broken ``swap_label``: the right label with its two bits exchanged."""
    label = shared1 ^ shared2 ^ outcome
    return (label & 1) << 1 | label >> 1


class TestRun:
    def test_accepting_run(self, capsys):
        code = main(["run", "--n", "1", "--x", "1", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ACCEPT" in out
        assert "t=2.0" in out

    def test_invalid_n_rejected(self, capsys):
        code = main(["run", "--n", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "n must be" in err

    def test_single_bit_variant(self, capsys):
        code = main(["run", "--variant", "single-bit", "--n", "4", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        for line in out.splitlines():
            if line.startswith("pair "):
                ann = line.split("announcement=")[1].split()[0]
                assert ann in ("0", "1")

    def test_transcript_file(self, tmp_path, capsys):
        path = tmp_path / "transcript.json"
        assert main(["run", "--n", "2", "--seed", "3", "--transcript-json", str(path)]) == 0
        capsys.readouterr()
        records = json.loads(path.read_text())
        assert len(records) == 2

    def test_seed_out_of_range_rejected(self, capsys):
        for seed in ("-1", "1" * 30):
            code = main(["run", "--n", "1", "--seed", seed])
            err = capsys.readouterr().err
            assert code == 2
            assert f"seed must be an int in [0, 2**64), got {seed}" in err

    def test_unknown_flag_is_error(self):
        with pytest.raises(SystemExit) as info:
            main(["run", "--frobnicate"])
        assert info.value.code == 2


class TestAttack:
    def test_swap_timing_rejection(self, capsys):
        code = main(["attack", "--strategy", "swap-and-forward", "--x", "1", "--delta", "0.25", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0  # completed, regardless of verdict
        assert "REJECT (reason: timing)" in out
        assert "earliest_complete_response_time: 2.25" in out

    def test_guess_completes_either_way(self, capsys):
        for seed in ("3", "4"):
            assert main(["attack", "--strategy", "guess", "--n", "1", "--seed", seed]) == 0
        out = capsys.readouterr().out
        assert "verdict:" in out

    def test_delta_validation(self, capsys):
        code = main(["attack", "--strategy", "guess", "--delta", "1.5", "--x", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "delta" in err
        code = main(["attack", "--strategy", "swap-and-forward", "--x", "1000000.3", "--delta", "1e-12"])
        err = capsys.readouterr().err
        assert code == 2
        assert "delta" in err

    def test_unknown_strategy_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["attack", "--strategy", "teleport-everything"])
        assert info.value.code == 2

    def test_bounded_rounds_reports_agreement(self, capsys):
        code = main(["attack", "--strategy", "bounded-rounds", "--rounds", "2", "--delta", "0.1", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "colluder agreement at t=" in out

    def test_diagnostic_flag(self, capsys):
        code = main(["attack", "--strategy", "swap-and-forward", "--delta", "0.2", "--diagnostic", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ACCEPT" in out


class TestConfigFile:
    """Config-file values are checked, not coerced: each bad file exits 2 with an error naming the key."""

    @pytest.mark.parametrize("command,settings,key", [
        ("attack", {"preshared_pairs": "3", "strategy": "swap_and_forward"}, "preshared_pairs"),
        ("attack", {"preshared_pairs": 1.5, "strategy": "swap_and_forward"}, "preshared_pairs"),
        ("run", {"strict_duplicates": "false"}, "strict_duplicates"),
        ("run", {"n": 2.9}, "n must be an int"),
        ("run", {"n": True}, "n must be an int"),
        ("run", {"nn": 2}, "unknown config key(s) 'nn'"),
        ("attack", {"rounds": 1.5, "strategy": "bounded_rounds"}, "rounds"),
        ("attack", {"x": "2"}, "x must be a number"),
        ("attack", {"strategy": []}, "strategy must be a string"),
        ("run", {"variant": None}, "variant must be a string"),
        ("montecarlo", {"n": [1, True]}, "n must be an int"),
        ("montecarlo", {"trials": 10.0}, "trials"),
        ("montecarlo", {"trails": 10}, "unknown config key(s) 'trails'"),
        ("run", {"x": float("inf")}, "x must be"),
        ("run", {"x": 1e308}, "x must be"),
        ("run", {"deadline_slack": float("nan")}, "deadline_slack"),
        ("montecarlo", {"scenario": "honest", "x": 1e308, "delta": 1, "n": [1]}, "x must be"),
        ("attack", {"strategy": "cheat_w_prime"}, "strategy must be one of"),
        ("montecarlo", {"format": "xml", "scenario": "guess", "n": [1, 2, 4], "workers": 1}, "unknown report format"),
    ])
    def test_rejected(self, tmp_path, capsys, monkeypatch, command, settings, key):
        def no_grid(*args, **kwargs):
            raise AssertionError("a rejected config ran the Monte Carlo grid")

        monkeypatch.setattr(cli, "run_experiment", no_grid)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(settings))
        assert main([command, "--config", str(path), "--n", "2"] if command == "attack" else
                    [command, "--config", str(path)]) == 2
        assert key in capsys.readouterr().err

    def test_json_types_accepted(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n": 2, "x": 2, "strict_duplicates": True, "seed": 5}))
        assert main(["run", "--config", str(path)]) == 0
        assert "honest run: n=2 x=2.0" in capsys.readouterr().out


def _spellings(names):
    return st.sampled_from([*names, *(name.replace("_", "-") for name in names)])


_WRONG_TYPE = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(0, 2), max_size=2))
_ODD_FLOAT = st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -0.0])
_PAIR_COUNTS = st.lists(st.integers(1, 4), min_size=1, max_size=3)
_MONTECARLO_N = st.one_of(_PAIR_COUNTS, _PAIR_COUNTS.map(lambda ns: ",".join(map(str, ns))))
# (usual value, odd value) per key; rounds stay small because events grow linearly in them
_VALUES = {
    "n": (st.integers(1, 4), st.integers(-1, 0)),
    "x": (st.floats(0.01, 10.0), _ODD_FLOAT),
    "delta": (st.floats(0.01, 1.0), _ODD_FLOAT),
    "deadline_slack": (st.floats(0.0, 10.0), _ODD_FLOAT),
    "variant": (_spellings(VARIANTS), st.sampled_from(["", "three_bit", "guess"])),
    "strict_duplicates": (st.booleans(), st.integers(0, 1)),
    "seed": (st.integers(0, 2 ** 64 - 1), st.sampled_from([-1, 2 ** 64])),
    "strategy": (_spellings(STRATEGIES), st.sampled_from(["", "honest", "two_bit"])),
    "scenario": (_spellings(["honest", *STRATEGIES]), st.sampled_from(["", "two_bit"])),
    "rounds": (st.integers(1, 3), st.integers(-1, 0)),
    "preshared_pairs": (st.one_of(st.none(), st.integers(0, 16)), st.just(-1)),
    "trials": (st.integers(1, 8), st.integers(-1, 0)),
    "format": (st.sampled_from(["json", "csv"]), st.just("xml")),
}


def _config_files(known, montecarlo):
    """JSON config files for the keys ``known``: usual values; usual values with some odd ones, values
    of the wrong type or an unknown key over them; or not an object. Monte Carlo files always bound
    ``n`` and ``trials``."""
    usual = {key: _MONTECARLO_N if montecarlo and key == "n" else _VALUES[key][0] for key in known if key in _VALUES}
    odd = {key: st.one_of(_VALUES[key][1], _WRONG_TYPE) for key in usual}
    required = {key: usual.pop(key) for key in ("n", "trials")} if montecarlo else {}
    files = st.fixed_dictionaries(required, optional=usual)
    overlays = st.fixed_dictionaries({}, optional={**odd, "unknown": st.integers()})
    return st.one_of(files, st.builds(lambda file, overlay: {**file, **overlay}, files, overlays), _WRONG_TYPE)


class TestConfigFuzz:
    """Any config file ends in exit 0, 1 or 2, never in a traceback (small n, trials and rounds, one worker)."""

    @pytest.mark.parametrize("command,known", [
        ("run", cli._RUN_KEYS), ("attack", cli._ATTACK_KEYS), ("montecarlo", cli._MONTECARLO_KEYS),
    ])
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_code(self, tmp_path, capsys, command, known, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data.draw(_config_files(known, command == "montecarlo"))))
        argv = [command, "--config", str(path)]
        if command == "montecarlo":
            argv += ["--workers", "1", "--out", str(tmp_path / "report")]
        assert main(argv) in (0, 1, 2)
        capsys.readouterr()


class TestMonteCarlo:
    def test_report_written_and_passes(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(["montecarlo", "--scenario", "guess", "--n", "1", "--trials", "400",
                     "--seed", "42", "--workers", "1", "--out", str(out_path)])
        printed = capsys.readouterr().out
        assert code == 0
        assert out_path.exists()
        assert "scenario,n,trials" in printed

    def test_byte_identical_reports(self, tmp_path, capsys):
        args = ["montecarlo", "--scenario", "guess", "--n", "1,2", "--trials", "200",
                "--seed", "7", "--workers", "1", "--format", "csv"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_honest_scenario_zero_detection(self, tmp_path, capsys):
        out_path = tmp_path / "honest.json"
        code = main(["montecarlo", "--scenario", "honest", "--n", "1,2", "--trials", "100",
                     "--seed", "1", "--workers", "1", "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert all(row["detection_rate"] == "0" for row in payload["rows"])

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "mc.json"
        config.write_text(json.dumps({"scenario": "honest", "n": [1], "trials": 50, "seed": 3}))
        out_path = tmp_path / "r.json"
        code = main(["montecarlo", "--config", str(config), "--trials", "60", "--workers", "1",
                     "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        assert json.loads(out_path.read_text())["trials"] == 60

    def test_invalid_n_rejected(self, tmp_path, capsys):
        code = main(["montecarlo", "--n", "1,0", "--trials", "10", "--workers", "2",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "n must be" in capsys.readouterr().err

    @pytest.mark.parametrize("source,workers", [("flag", -3), ("config", -1)])
    def test_negative_workers_rejected(self, tmp_path, capsys, source, workers):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"workers": workers}))
        extra = ["--workers", str(workers)] if source == "flag" else ["--config", str(config)]
        assert main(["montecarlo", "--n", "1", "--trials", "10", "--out", str(tmp_path / "r.json"), *extra]) == 2
        assert f"workers must be >= 0, got {workers}" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_seed_out_of_range_rejected(self, tmp_path, capsys):
        for seed in ("-1", "1" * 30):
            code = main(["montecarlo", "--n", "1", "--trials", "10", "--seed", seed, "--workers", "2",
                         "--out", str(tmp_path / "r.json")])
            assert code == 2
            assert f"seed must be an int in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


class TestSelftest:
    def test_all_suites_pass(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        for suite in ("teleport", "swap", "frame", "reduction"):
            assert f"[PASS] {suite}" in out

    def test_suite_filter(self, capsys):
        assert main(["selftest", "--suite", "swap"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] swap" in out and "teleport" not in out

    def test_fault_injection_detected(self, monkeypatch):
        # negative control: corrupt the live correction table and the
        # selftest must fail
        def broken(shared, outcome):
            return 0

        monkeypatch.setattr(quantum, "pauli_frame_from", broken)
        failures = selftest.check_frame_table()
        assert failures
        assert selftest.run_selftest(["frame"], report=lambda line: None) is False

    def test_frame_fault_reaches_the_verdict(self, monkeypatch):
        # both verifiers' checks call the function the selftest checks
        config = ProtocolConfig(n=4, bell_labels_v1=[1, 2, 3, 1])
        assert run_honest(config, 0)[0].accepted
        monkeypatch.setattr(quantum, "pauli_frame_from", lambda shared, outcome: 0)
        assert selftest.check_frame_table()
        assert selftest.check_reduction()  # V2's check, judged with V1's side unaffected
        assert run_honest(config, 0)[0].reason == REASON_V1

    def test_swap_fault_reported_not_raised(self, monkeypatch):
        monkeypatch.setattr(quantum, "swap_label", _swap_label_bits_swapped)
        lines = []
        assert selftest.run_selftest(["swap"], report=lines.append) is False
        assert lines[0].startswith("[FAIL] swap")

    def test_swap_fault_reaches_the_verdict(self, monkeypatch):
        # the swap colluders correct their responses with the function the selftest checks
        config = AttackConfig(strategy="swap_and_forward", protocol=ProtocolConfig(n=4))
        assert run_attack(config, 0, diagnostic=True).verdict.accepted
        monkeypatch.setattr(quantum, "swap_label", _swap_label_bits_swapped)
        verdict = run_attack(config, 0, diagnostic=True).verdict
        assert not verdict.accepted and verdict.reason != REASON_TIMING
