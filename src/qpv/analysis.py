"""Monte Carlo harness: acceptance/detection estimates against the 1 - 2^-n bound.

Trial seeds are derived from the master seed by a documented splitting
function (SHA-256 over "master|scenario|n|trial index"), so no two trials
share generator state and results are identical regardless of scheduling or
worker count. Aggregation is count-based and therefore order-independent.

The statistical pass rule: a scenario row passes when the measured acceptance
rate lies within 3 binomial standard deviations of the modelled acceptance
(1 for honest runs, 2^-n for the guess attack, 0 for the timing-excluded
attacks); sigma is computed at the modelled rate, so deterministic scenarios
require exact agreement.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

from .adversary import AttackConfig, run_attack, run_attack_batch
from .protocol import ProtocolConfig, run_honest, run_honest_batch

SCENARIOS = ("honest", "guess", "swap_and_forward", "bounded_rounds")

_FLOAT_FIELDS = ("acceptance_rate", "detection_rate", "expected_acceptance",
                 "sigma", "interval_low", "interval_high", "bound")


@dataclass
class ExperimentSpec:
    scenario: str = "guess"
    n_values: tuple[int, ...] = (1, 2, 4, 8)
    trials: int = 10_000
    master_seed: int = 0
    x: float = 1.0
    delta: float = 0.1
    rounds: int = 1
    variant: str = "two_bit"
    output_path: str | None = field(default=None, compare=False)

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.n_values:
            raise ValueError("n_values must be non-empty")
        for n in self.n_values:
            _trial_config(self.scenario, n, x=self.x, delta=self.delta, rounds=self.rounds,
                          variant=self.variant).validate()


@dataclass(frozen=True)
class ResultRow:
    """Aggregate for one (scenario, n) point.

    Float fields are derived from the integer counts; serialization writes
    floats with 12 significant digits for display and parses rows back from
    the counts, so a round trip reproduces the row exactly.
    """

    scenario: str
    n: int
    trials: int
    accept_count: int
    acceptance_rate: float
    detection_rate: float
    expected_acceptance: float
    sigma: float
    interval_low: float
    interval_high: float
    bound: float
    passed: bool


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    rows: list[ResultRow] = field(default_factory=list)

    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)


def expected_acceptance(scenario: str, n: int) -> float:
    if scenario == "honest":
        return 1.0
    if scenario == "guess":
        return 2.0 ** -n
    return 0.0  # swap_and_forward / bounded_rounds: always timing-rejected


def trial_seed(master_seed: int, scenario: str, n: int, index: int) -> int:
    """Documented splitting function: SHA-256 of 'master|scenario|n|index'."""
    digest = hashlib.sha256(f"{master_seed}|{scenario}|{n}|{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _trial_config(scenario: str, n: int, *, x: float, delta: float, rounds: int,
                  variant: str) -> ProtocolConfig | AttackConfig:
    protocol = ProtocolConfig(n=n, x=x, variant=variant)
    if scenario == "honest":
        return protocol
    return AttackConfig(strategy=scenario, delta=delta, rounds=rounds, protocol=protocol)


def run_trial(scenario: str, n: int, seed: int, *, x: float = 1.0, delta: float = 0.1,
              rounds: int = 1, variant: str = "two_bit") -> bool:
    """One trial; returns whether the verifiers accepted."""
    config = _trial_config(scenario, n, x=x, delta=delta, rounds=rounds, variant=variant)
    if scenario == "honest":
        verdict, _, _ = run_honest(config, seed, collect_transcripts=False)
        return verdict.accepted
    return run_attack(config, seed, collect_transcripts=False).verdict.accepted


# Cap on register rows per vectorized pass; keeps peak state arrays small.
_BATCH_SLOTS = 4096


def run_trial_batch(scenario: str, n: int, seeds: Sequence[int], *, x: float = 1.0, delta: float = 0.1,
                    rounds: int = 1, variant: str = "two_bit") -> int:
    """Accepted-trial count over ``seeds``, chunked through the batched core."""
    config = _trial_config(scenario, n, x=x, delta=delta, rounds=rounds, variant=variant)
    run_batch = run_honest_batch if scenario == "honest" else run_attack_batch
    chunk = max(1, _BATCH_SLOTS // n)
    accepted = 0
    for start in range(0, len(seeds), chunk):
        accepted += sum(v.accepted for v in run_batch(config, seeds[start:start + chunk]))
    return accepted


def _make_row(spec: ExperimentSpec, n: int, accepted: int) -> ResultRow:
    trials = spec.trials
    rate = accepted / trials
    expected = expected_acceptance(spec.scenario, n)
    sigma = math.sqrt(expected * (1.0 - expected) / trials)
    detection = 1.0 - rate
    return ResultRow(
        scenario=spec.scenario,
        n=n,
        trials=trials,
        accept_count=accepted,
        acceptance_rate=rate,
        detection_rate=detection,
        expected_acceptance=expected,
        sigma=sigma,
        interval_low=max(0.0, detection - 3.0 * sigma),
        interval_high=min(1.0, detection + 3.0 * sigma),
        bound=1.0 - 2.0 ** -n,
        passed=abs(rate - expected) <= 3.0 * sigma + 1e-12,
    )


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentResult:
    """Run the full grid; deterministic given the spec and master seed.

    ``workers`` > 1 fans trials out to a process pool; identical results
    either way because every trial owns a derived seed and only counts are
    aggregated.
    """
    spec.validate()
    result = ExperimentResult(spec=spec)
    for n in spec.n_values:
        seeds = [trial_seed(spec.master_seed, spec.scenario, n, i) for i in range(spec.trials)]
        if workers and workers > 1:
            import multiprocessing

            shards = [seeds[i::workers] for i in range(workers)]
            args = [(spec.scenario, n, shard, spec.x, spec.delta, spec.rounds, spec.variant)
                    for shard in shards if shard]
            with multiprocessing.Pool(processes=workers) as pool:
                accepted = sum(pool.starmap(_batch_worker, args))
        else:
            accepted = run_trial_batch(spec.scenario, n, seeds, x=spec.x, delta=spec.delta,
                                       rounds=spec.rounds, variant=spec.variant)
        result.rows.append(_make_row(spec, n, int(accepted)))
    return result


def _batch_worker(scenario: str, n: int, seeds: Sequence[int], x: float, delta: float,
                  rounds: int, variant: str) -> int:
    return run_trial_batch(scenario, n, seeds, x=x, delta=delta, rounds=rounds, variant=variant)


def _fmt(value: float) -> str:
    return format(value, ".12g")


def render_json(result: ExperimentResult) -> str:
    payload = {
        "scenario": result.spec.scenario,
        "master_seed": result.spec.master_seed,
        "trials": result.spec.trials,
        "x": _fmt(result.spec.x),
        "delta": _fmt(result.spec.delta),
        "rounds": result.spec.rounds,
        "variant": result.spec.variant,
        "rows": [
            {
                "scenario": row.scenario,
                "n": row.n,
                "trials": row.trials,
                "accept_count": row.accept_count,
                **{name: _fmt(getattr(row, name)) for name in _FLOAT_FIELDS},
                "passed": row.passed,
            }
            for row in result.rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


CSV_COLUMNS = ("scenario", "n", "trials", "accept_count", *_FLOAT_FIELDS, "passed")


def render_csv(result: ExperimentResult) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in result.rows:
        writer.writerow([
            row.scenario,
            row.n,
            row.trials,
            row.accept_count,
            *[_fmt(getattr(row, name)) for name in _FLOAT_FIELDS],
            row.passed,
        ])
    return buffer.getvalue()


def write_report(result: ExperimentResult, path: str, fmt: str = "json") -> str:
    """Write the report file; returns the path. Formats: json, csv."""
    if fmt == "json":
        text = render_json(result)
    elif fmt == "csv":
        text = render_csv(result)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _rows_from_counts(spec: ExperimentSpec, counts: Sequence[tuple[int, int]]) -> list[ResultRow]:
    return [_make_row(spec, n, accepted) for n, accepted in counts]


def parse_report(text: str, fmt: str = "json") -> ExperimentResult:
    """Rebuild an ExperimentResult from report text.

    Derived float columns are recomputed from the integer counts, so
    ``parse_report(render(result)) == result`` holds exactly.
    """
    if fmt == "json":
        payload = json.loads(text)
        spec = ExperimentSpec(
            scenario=payload["scenario"],
            n_values=tuple(row["n"] for row in payload["rows"]),
            trials=payload["trials"],
            master_seed=payload["master_seed"],
            x=float(payload["x"]),
            delta=float(payload["delta"]),
            rounds=payload["rounds"],
            variant=payload["variant"],
        )
        counts = [(row["n"], row["accept_count"]) for row in payload["rows"]]
    elif fmt == "csv":
        reader = csv.DictReader(io.StringIO(text))
        records = list(reader)
        if not records:
            return ExperimentResult(spec=ExperimentSpec(n_values=()))
        first = records[0]
        spec = ExperimentSpec(
            scenario=first["scenario"],
            n_values=tuple(int(r["n"]) for r in records),
            trials=int(first["trials"]),
        )
        counts = [(int(r["n"]), int(r["accept_count"])) for r in records]
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    result = ExperimentResult(spec=spec)
    result.rows = _rows_from_counts(spec, counts)
    return result
