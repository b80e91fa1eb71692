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
import signal
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .adversary import SHIPPED_STRATEGIES, AttackConfig, run_attack_batch
from .philox import check_seed, key_words, philox4x32
from .protocol import ProtocolConfig, check_choice, check_int, check_number, run_honest_batch

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
    x: float = ProtocolConfig.x
    delta: float = AttackConfig.delta
    rounds: int = AttackConfig.rounds
    variant: str = ProtocolConfig.variant

    def validate(self) -> None:
        check_choice("scenario", self.scenario, SCENARIOS)
        check_int("trials", self.trials, 1)
        if not isinstance(self.n_values, (tuple, list)) or not self.n_values:
            raise ValueError(f"n_values must be a non-empty tuple or list, got {self.n_values!r}")
        check_seed(self.master_seed)
        check_number("delta", self.delta)  # the honest scenario runs without delta and rounds but reports them
        check_int("rounds", self.rounds)
        for n in self.n_values:
            self.trial_config(n).validate()

    def trial_config(self, n: int) -> ProtocolConfig | AttackConfig:
        """The config every trial at ``n`` pairs runs: the scenario's prover with this spec's settings."""
        protocol = ProtocolConfig(n=n, x=self.x, variant=self.variant)
        if self.scenario == "honest":
            return protocol
        return AttackConfig(strategy=self.scenario, delta=self.delta, rounds=self.rounds, protocol=protocol)


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


# Cap on register rows per vectorized pass; keeps peak state arrays small.
_BATCH_SLOTS = 4096


def run_trial_batch(config: ProtocolConfig | AttackConfig, seeds: Sequence[int]) -> int:
    """Accepted-trial count of ``config``'s trials over ``seeds`` (trial keys), chunked through the batched core.

    Each chunk's count is read from the ``accepted`` array of its ``protocol.Verdicts``; no ``Verdict`` is built.
    """
    attack = isinstance(config, AttackConfig)
    run_batch = run_attack_batch if attack else run_honest_batch
    chunk = max(1, _BATCH_SLOTS // (config.protocol if attack else config).n)
    accepted = 0
    for start in range(0, len(seeds), chunk):
        accepted += np.count_nonzero(run_batch(config, seeds[start:start + chunk]).accepted)
    return accepted


def _make_row(spec: ExperimentSpec, n: int, accepted: int) -> ResultRow:
    n, trials = int(n), int(spec.trials)  # numpy ints pass the spec's checks but not json.dumps
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
    count)`` strided shards; 0 means one shard, and a count that is negative
    or not an int is a ValueError. The caller runs shard 0 itself while a
    worker process per other shard runs that shard and sends back its counts;
    an exception in a worker is raised in the caller. Results are identical
    either way, because every trial owns a derived key and only counts are
    aggregated.

    Workers are started by the first grid that needs them and reused by every
    later one. Only a process that runs more than one fanned-out grid gains
    from that: its first grid still forks, so ``qpv montecarlo``, one grid per
    process, costs what it did, while a loop of grids in one process (a
    library caller, the benchmark's ``mc_parallel``) skips the fork on every
    later grid. A worker runs the module as it was when the worker started:
    it does not see state patched afterwards. Fanned-out grids run one at a
    time, whatever the number of calling threads. A worker that dies is
    replaced at the next call; an error or interrupt during a grid stops every
    worker, so that no later grid reads an answer owed to this one.
    """
    spec.validate()
    check_int("workers", workers, 0)
    shards = max(1, min(workers or 1, spec.trials, os.cpu_count() or 1))
    counts = _fanned_out(spec, shards) if shards > 1 else [_shard_counts(spec, 0, 1)]
    result = ExperimentResult(spec=spec)
    result.rows = [_make_row(spec, n, int(total)) for n, total in zip(spec.n_values, np.sum(counts, axis=0))]
    return result


def _shard_counts(spec: ExperimentSpec, shard: int, shards: int) -> list[int]:
    """Accepted-trial count per n over trials ``shard``, ``shard + shards``, ... of each row."""
    indices = np.arange(shard, spec.trials, shards)
    return [run_trial_batch(spec.trial_config(n), trial_keys(spec.master_seed, spec.scenario, n, indices))
            for n in spec.n_values]


# Warm shard workers: (process, the caller's end of its pipe), worker k - 1 serving shard k.
_workers: list = []
_workers_lock = threading.Lock()


def _fanned_out(spec: ExperimentSpec, shards: int) -> list[list[int]]:
    """The counts of every shard: shard 0 run by the caller, each other shard by a warm worker."""
    with _workers_lock:
        try:
            helpers = _ready_workers(shards - 1)
            for shard, (_, caller_end) in enumerate(helpers, 1):
                caller_end.send((spec, shard, shards))
            return [_shard_counts(spec, 0, shards), *(_received(*helper) for helper in helpers)]
        except BaseException:
            _stop_workers()  # a worker may still owe an answer; no later grid may read it
            raise


def _ready_workers(count: int) -> list:
    """The first ``count`` workers, after dead ones are replaced and missing ones started."""
    for worker in [worker for worker in _workers if not worker[0].is_alive()]:
        _workers.remove(worker)
        _stop(worker)
    while len(_workers) < count:
        _workers.append(_start_worker())
    return _workers[:count]


def _start_worker():
    """A started worker process and the caller's end of the pipe it takes jobs and sends answers on."""
    import multiprocessing

    caller_end, worker_end = multiprocessing.Pipe()
    inherited = [caller_end, *(end for _, end in _workers)]
    process = multiprocessing.Process(target=_serve_shards, args=(worker_end, inherited), daemon=True)
    process.start()
    worker_end.close()
    return process, caller_end


def _serve_shards(connection, inherited) -> None:
    """Body of a worker: answer each ``(spec, shard, shards)`` job until the caller's end closes.

    The caller's ends of this and earlier workers' pipes are closed first: a
    worker holding them would never see EOF, and would outlive a caller that
    ends without cleaning up. Interrupts are left to the caller, which stops
    its workers when one reaches it.
    """
    for end in inherited:
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            job = connection.recv()
        except EOFError:
            return
        connection.send(_answer(*job))


def _answer(spec: ExperimentSpec, shard: int, shards: int):
    """What a worker sends back: the shard's counts, or the exception that stopped it."""
    try:
        return _shard_counts(spec, shard, shards)
    except Exception as exc:
        return exc


def _received(process, caller_end) -> list[int]:
    """The counts a worker sent; raises the exception it sent instead."""
    try:
        counts = caller_end.recv()
    except EOFError:
        raise RuntimeError(f"shard process {process.pid} exited without sending its counts") from None
    if isinstance(counts, Exception):
        raise counts
    return counts


def _stop(worker) -> None:
    process, caller_end = worker
    caller_end.close()
    process.terminate()
    process.join()


def _stop_workers() -> None:
    """Terminate and forget every worker; the next fanned-out grid starts fresh ones."""
    while _workers:
        _stop(_workers.pop())


def _fmt(value: float) -> str:
    return format(value, ".12g")


def render_json(result: ExperimentResult) -> str:
    payload = {
        "scenario": result.spec.scenario,
        "master_seed": int(result.spec.master_seed),
        "trials": int(result.spec.trials),
        "x": _fmt(result.spec.x),
        "delta": _fmt(result.spec.delta),
        "rounds": int(result.spec.rounds),
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
