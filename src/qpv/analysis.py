"""Monte Carlo harness: acceptance/detection estimates against the 1 - 2^-n bound.

Each trial's seed is its 64-bit Philox key (see ``protocol.TrialCore``),
derived from the master seed by a documented splitting function: one SHA-256
of "master|scenario|n" gives the row key, and trial i's key is the first two
words of ``philox4x32((i & 0xffffffff, i >> 32, 0, 0), row key)``, computed
for all trials of a row in one vectorized pass. Every draw of a trial is a
pure function of its key, so results are identical regardless of
scheduling, worker count or batch size. Aggregation is count-based and
therefore order-independent.

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
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .adversary import SHIPPED_STRATEGIES, AttackConfig, run_attack_batch
from .philox import check_seed, key_words, philox4x32
from .protocol import ProtocolConfig, run_honest_batch

SCENARIOS = ("honest", *SHIPPED_STRATEGIES)
REPORT_FORMATS = ("json", "csv")

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

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.n_values:
            raise ValueError("n_values must be non-empty")
        check_seed(self.master_seed)
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


def trial_keys(master_seed: int, scenario: str, n: int, indices: Sequence[int] | np.ndarray) -> np.ndarray:
    """Philox keys (uint64) of the trials ``indices`` of one (master, scenario, n) row.

    The row key is the first 8 bytes (big-endian) of SHA-256 of
    'master|scenario|n'; trial i's key is words 0 (low) and 1 (high) of
    ``philox4x32((i & 0xffffffff, i >> 32, 0, 0), row key)``.
    """
    digest = hashlib.sha256(f"{master_seed}|{scenario}|{n}".encode()).digest()
    row_key = key_words(np.uint64(int.from_bytes(digest[:8], "big")))[:, None]
    index = np.asarray(indices, dtype=np.uint64)
    counter = np.zeros((4, index.size), dtype=np.uint64)
    counter[:2] = key_words(index)
    low, high, _, _ = philox4x32(counter, row_key)
    return low | (high << np.uint64(32))


def trial_seed(master_seed: int, scenario: str, n: int, index: int) -> int:
    """The key of one trial: ``trial_keys(master_seed, scenario, n, [index])[0]``."""
    return int(trial_keys(master_seed, scenario, n, [index])[0])


def _trial_config(scenario: str, n: int, *, x: float, delta: float, rounds: int,
                  variant: str) -> ProtocolConfig | AttackConfig:
    protocol = ProtocolConfig(n=n, x=x, variant=variant)
    if scenario == "honest":
        return protocol
    return AttackConfig(strategy=scenario, delta=delta, rounds=rounds, protocol=protocol)


# Cap on register rows per vectorized pass; keeps peak state arrays small.
_BATCH_SLOTS = 4096


def run_trial_batch(scenario: str, n: int, seeds: Sequence[int], *, x: float = 1.0, delta: float = 0.1,
                    rounds: int = 1, variant: str = "two_bit") -> int:
    """Accepted-trial count over ``seeds`` (trial keys), chunked through the batched core."""
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

    ``workers`` > 1 splits each n's trials into ``min(workers, trials, CPU
    count)`` strided shards. The caller runs shard 0 itself while one process
    per other shard runs that shard and sends back its counts; an exception
    in a shard process is raised in the caller. Results are identical either
    way, because every trial owns a derived key and only counts are
    aggregated.
    """
    spec.validate()
    shards = max(1, min(workers or 1, spec.trials, os.cpu_count() or 1))
    helpers = []
    try:
        for shard in range(1, shards):
            helpers.append(_start_shard(spec, shard, shards))
        counts = [_shard_counts(spec, 0, shards), *(_received(*helper) for helper in helpers)]
    finally:
        for process, receiver in helpers:
            receiver.close()
            process.terminate()  # a shard that sent its counts is done; this stops one left running by an error
            process.join()
    result = ExperimentResult(spec=spec)
    result.rows = [_make_row(spec, n, int(total)) for n, total in zip(spec.n_values, np.sum(counts, axis=0))]
    return result


def _shard_counts(spec: ExperimentSpec, shard: int, shards: int) -> list[int]:
    """Accepted-trial count per n over trials ``shard``, ``shard + shards``, ... of each row."""
    indices = np.arange(shard, spec.trials, shards)
    return [run_trial_batch(spec.scenario, n, trial_keys(spec.master_seed, spec.scenario, n, indices),
                            x=spec.x, delta=spec.delta, rounds=spec.rounds, variant=spec.variant)
            for n in spec.n_values]


def _start_shard(spec: ExperimentSpec, shard: int, shards: int):
    """A started process running one shard, and the receiving end of the pipe it answers on.

    A process and a pipe, not a ``multiprocessing.Pool``: a pool's start-up and
    teardown take about 10 ms, a sizeable share of a grid that runs in 100 ms.
    """
    import multiprocessing

    receiver, sender = multiprocessing.Pipe(duplex=False)
    process = multiprocessing.Process(target=_send_shard, args=(sender, spec, shard, shards), daemon=True)
    process.start()
    sender.close()
    return process, receiver


def _send_shard(sender, spec: ExperimentSpec, shard: int, shards: int) -> None:
    """Body of a shard process: send the shard's counts, or the exception that stopped it."""
    try:
        sender.send(_shard_counts(spec, shard, shards))
    except Exception as exc:
        sender.send(exc)
    finally:
        sender.close()


def _received(process, receiver) -> list[int]:
    """The counts a shard process sent; raises the exception it sent instead."""
    try:
        counts = receiver.recv()
    except EOFError:
        raise RuntimeError(f"shard process {process.pid} exited without sending its counts") from None
    if isinstance(counts, Exception):
        raise counts
    return counts


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


def check_report_format(fmt: str) -> None:
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}; known: {', '.join(REPORT_FORMATS)}")


def write_report(result: ExperimentResult, path: str, fmt: str = "json") -> str:
    """Write the report file; returns the path. Formats: ``REPORT_FORMATS``."""
    check_report_format(fmt)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_json(result) if fmt == "json" else render_csv(result))
    return path


def parse_report(text: str, fmt: str = "json") -> ExperimentResult:
    """Rebuild an ExperimentResult from report text.

    Derived float columns are recomputed from the integer counts. A JSON
    report round-trips exactly: ``parse_report(render_json(result)) == result``.
    A CSV report keeps only the rows, so its spec gets scenario, n values and
    trials back, and the default ``master_seed``, ``x``, ``delta``, ``rounds``
    and ``variant``.
    """
    check_report_format(fmt)
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
    else:
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
    result = ExperimentResult(spec=spec)
    result.rows = [_make_row(spec, n, accepted) for n, accepted in counts]
    return result
