"""Tests for the Monte Carlo harness and report serialization."""

import math
import multiprocessing
import os

import pytest

from qpv import analysis
from qpv.adversary import AttackConfig, run_attack
from qpv.analysis import (
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
            for workers in (1, 2, 3):
                counts.add(tuple(row.accept_count for row in run_experiment(spec, workers=workers).rows))
        assert len(counts) == 1

    def test_batch_equals_serial_trials(self):
        seeds = [trial_seed(4, "guess", 2, i) for i in range(60)]
        config = AttackConfig(strategy="guess", protocol=ProtocolConfig(n=2))
        serial = sum(run_attack(config, s).verdict.accepted for s in seeds)
        assert run_trial_batch("guess", 2, seeds) == serial

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


class _InlineProcess:
    """Stands in for ``multiprocessing.Process``: runs its target in this process when started."""

    pid = 0

    def __init__(self, target, args, log):
        self.target, self.args = target, args
        log.append(args[2:])  # (shard, shards)

    def start(self):
        self.target(*self.args)

    def terminate(self):
        pass

    def join(self):
        pass


def _exit_without_counts(sender, *args):
    os._exit(3)


class TestFanOut:
    """Shard count and split, with ``multiprocessing.Process`` patched so that no process starts."""

    @pytest.fixture
    def started(self, monkeypatch):
        log = []
        monkeypatch.setattr(multiprocessing, "Process",
                            lambda target, args, daemon: _InlineProcess(target, args, log))
        return log

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
        assert started == [(shard, shards) for shard in range(1, shards)]
        assert fanned == run_experiment(spec)

    def test_shard_exception_reaches_caller(self, monkeypatch, started):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        counts = analysis._shard_counts
        monkeypatch.setattr(analysis, "_shard_counts",
                            lambda spec, shard, shards: counts(spec, shard, shards) if shard == 0 else 1 // 0)
        with pytest.raises(ZeroDivisionError):
            run_experiment(ExperimentSpec(scenario="guess", n_values=(1,), trials=10), workers=2)
        assert started == [(1, 2)]

    def test_shard_process_that_dies_is_reported(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(analysis, "_send_shard", _exit_without_counts)
        with pytest.raises(RuntimeError, match="exited without sending its counts"):
            run_experiment(ExperimentSpec(scenario="guess", n_values=(1,), trials=10), workers=2)


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
