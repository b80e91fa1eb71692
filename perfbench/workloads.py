"""The four benchmark workloads: what each operation runs and how it is checked.

An operation is one grid row (``mc_n1``, ``mc_n16``, ``mc_parallel``) or one
single transcript-producing run (``single_run``). Every master seed and
per-run seed comes from the benchmark seed, so one seed gives one input
sequence. qpv's functions are reached through their module attributes at call
time, so the traced run's wrappers see every call.

The caller must put the repository's ``src/`` on ``sys.path`` first.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import qpv.adversary as adversary
import qpv.analysis as analysis
import qpv.protocol as protocol
import qpv.spacetime as spacetime

X = 1.0
DELTA = 0.1
TIME_TOL = 1e-9  # the tolerance the acceptance tests use for "exactly 2x + delta"
VARIANTS = ("two_bit", "single_bit")

# Per-row false-alarm rate of the guess-row gate. The program's own 3-sigma
# flag fails a correct guess row 0.27 % of the time (about 1.6 % at n = 16 with
# 1024 trials, where one accept already exceeds 3 sigma), so over the hundred
# rows of a run it would fail a correct program most of the time.
GUESS_ALPHA = 1e-9

# single_run repeats every 9th run; 9 is coprime to its 8 configurations, so
# each configuration gets its byte-identity check.
REPEAT_EVERY = 9


def derive_seed(seed: int, *parts: object) -> int:
    """A 63-bit seed that depends only on the benchmark seed and ``parts``."""
    digest = hashlib.sha256("|".join(map(str, (seed, *parts))).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@functools.cache
def binomial_interval(trials: int, p: float, alpha: float = GUESS_ALPHA) -> tuple[int, int]:
    """Smallest and largest accept counts whose two-sided tail exceeds ``alpha``."""
    log_p, log_q = math.log(p), math.log1p(-p)
    head = math.lgamma(trials + 1)
    pmf = [math.exp(head - math.lgamma(k + 1) - math.lgamma(trials - k + 1) + k * log_p + (trials - k) * log_q)
           for k in range(trials + 1)]
    lo, tail = 0, 0.0
    while tail + pmf[lo] <= alpha / 2:
        tail += pmf[lo]
        lo += 1
    hi, tail = trials, 0.0
    while tail + pmf[hi] <= alpha / 2:
        tail += pmf[hi]
        hi -= 1
    return lo, hi


@dataclass
class OpResult:
    """What one benchmark operation did; ``elapsed`` is the timed part only."""

    operations: int
    trials: int
    elapsed: float
    fingerprint: tuple
    problems: list[str] = field(default_factory=list)
    serial_elapsed: float = 0.0  # mc_parallel: the workers=1 run of the same grid
    workers: int = 1
    untimed_trials: int = 0  # single_run: the repeated run of the byte-identity check
    flagged_rows: int = 0  # rows the program's own 3-sigma flag marks as failing


def check_rows(result, trials: int) -> tuple[list[str], int]:
    """Problems with a result's rows, plus how many rows the program's 3-sigma flag fails."""
    problems = []
    for row in result.rows:
        where = f"{row.scenario} n={row.n} seed={result.spec.master_seed}"
        if row.trials != trials:
            problems.append(f"{where}: {row.trials} trials, expected {trials}")
        if row.scenario == "honest":
            if row.accept_count != trials or not row.passed:
                problems.append(f"{where}: honest rows must accept every trial, got {row.accept_count}")
        elif row.scenario == "guess":
            lo, hi = binomial_interval(trials, 2.0 ** -row.n)
            if not lo <= row.accept_count <= hi:
                problems.append(f"{where}: {row.accept_count} accepts outside [{lo}, {hi}]")
        elif row.accept_count != 0 or not row.passed:
            problems.append(f"{where}: timing-excluded attack accepted {row.accept_count} times")
    if analysis.parse_report(analysis.render_json(result)) != result:
        problems.append(f"{result.spec.scenario}: JSON report does not round-trip")
    if analysis.parse_report(analysis.render_csv(result), "csv").rows != result.rows:
        problems.append(f"{result.spec.scenario}: CSV report rows do not round-trip")
    return problems, sum(not row.passed for row in result.rows)


def _spec(scenario: str, n_values: tuple[int, ...], trials: int, master_seed: int) -> analysis.ExperimentSpec:
    return analysis.ExperimentSpec(scenario=scenario, n_values=n_values, trials=trials,
                                   master_seed=master_seed, x=X, delta=DELTA)


def _timed(fn, *args, **kwargs):
    start = perf_counter()
    value = fn(*args, **kwargs)
    return value, perf_counter() - start


@dataclass(frozen=True)
class MonteCarlo:
    """One grid row per operation, cycling through the four scenarios, workers=1."""

    name: str
    n: int
    trials: int
    traced_ops: int = 8
    cycle = len(analysis.SCENARIOS)

    def warm_up(self, seed: int) -> None:
        analysis.run_experiment(_spec("guess", (self.n,), 16, derive_seed(seed, self.name, "warm-up")))

    def op(self, seed: int, index: int) -> OpResult:
        scenario = analysis.SCENARIOS[index % len(analysis.SCENARIOS)]
        spec = _spec(scenario, (self.n,), self.trials, derive_seed(seed, self.name, index))
        result, elapsed = _timed(analysis.run_experiment, spec, workers=1)
        problems, flagged = check_rows(result, self.trials)
        counts = tuple(row.accept_count for row in result.rows)
        return OpResult(len(result.rows), self.trials, elapsed, counts, problems, flagged_rows=flagged)


def parallel_workers() -> int:
    """Every CPU this process may use; at least 2 so the fan-out always runs, at most 8."""
    return min(8, max(2, len(os.sched_getaffinity(0))))


@dataclass(frozen=True)
class Parallel:
    """One scenario's grid per operation, run at workers=1 and at workers=nproc.

    The two runs alternate which goes first, so drift in the machine's load
    does not favour one side. The parallel counts must equal the serial ones.
    """

    name: str
    scenarios: tuple[str, ...]
    n_values: tuple[int, ...]
    trials: int
    traced_ops: int = 4

    @property
    def cycle(self) -> int:
        return len(self.scenarios)

    def warm_up(self, seed: int) -> None:
        spec = _spec("guess", self.n_values, 16, derive_seed(seed, self.name, "warm-up"))
        analysis.run_experiment(spec, workers=parallel_workers())

    def op(self, seed: int, index: int) -> OpResult:
        scenario = self.scenarios[index % len(self.scenarios)]
        spec = _spec(scenario, self.n_values, self.trials, derive_seed(seed, self.name, index))
        workers = parallel_workers()
        if (index // len(self.scenarios)) % 2 == 0:
            serial, serial_elapsed = _timed(analysis.run_experiment, spec, workers=1)
            fanned, elapsed = _timed(analysis.run_experiment, spec, workers=workers)
        else:
            fanned, elapsed = _timed(analysis.run_experiment, spec, workers=workers)
            serial, serial_elapsed = _timed(analysis.run_experiment, spec, workers=1)
        problems, flagged = check_rows(serial, self.trials)
        fanned_problems, fanned_flagged = check_rows(fanned, self.trials)
        problems += fanned_problems
        counts = tuple(row.accept_count for row in serial.rows)
        if tuple(row.accept_count for row in fanned.rows) != counts:
            problems.append(f"{scenario} seed={spec.master_seed}: workers={workers} counts differ from workers=1")
        return OpResult(len(serial.rows) + len(fanned.rows), self.trials * len(self.n_values), elapsed,
                        counts, problems, serial_elapsed, workers, flagged + fanned_flagged)


@dataclass(frozen=True)
class SingleRun:
    """Closed loop, one caller: one transcript-producing run per operation.

    Cycles through the four scenarios and both announcement variants. Every
    ``REPEAT_EVERY``-th run is repeated, untimed, with the same seed and must
    render byte-identical transcripts and event log.
    """

    name: str
    n: int
    traced_ops: int = 800

    @functools.cached_property
    def configs(self) -> list[tuple[str, object]]:
        configs = []
        for variant in VARIANTS:
            for scenario in analysis.SCENARIOS:
                config = protocol.ProtocolConfig(n=self.n, x=X, variant=variant)
                if scenario != "honest":
                    config = adversary.AttackConfig(strategy=scenario, delta=DELTA, protocol=config)
                configs.append((scenario, config))
        return configs

    @property
    def cycle(self) -> int:
        return len(self.configs)

    def warm_up(self, seed: int) -> None:
        for scenario, config in self.configs:
            self._run(scenario, config, derive_seed(seed, self.name, "warm-up"))

    @staticmethod
    def _run(scenario: str, config, seed: int):
        if scenario == "honest":
            verdict, transcripts, events = protocol.run_honest(config, seed)
            outcome = None
        else:
            outcome = adversary.run_attack(config, seed)
            verdict, transcripts, events = outcome.verdict, outcome.transcripts, outcome.events
        rendered = protocol.transcripts_to_json(transcripts) + "\n" + spacetime.format_event_log(events)
        return verdict, outcome, rendered

    def op(self, seed: int, index: int) -> OpResult:
        scenario, config = self.configs[index % len(self.configs)]
        run_seed = derive_seed(seed, self.name, index)
        (verdict, outcome, rendered), elapsed = _timed(self._run, scenario, config, run_seed)
        problems = check_run(scenario, config, verdict, outcome, rendered, self.n)
        repeated = index % REPEAT_EVERY == 0
        if repeated and self._run(scenario, config, run_seed)[2] != rendered:
            problems.append("a repeated run rendered different bytes")
        variant = getattr(config, "protocol", config).variant
        problems = [f"{scenario} {variant} seed={run_seed}: {problem}" for problem in problems]
        digest = hashlib.sha256(rendered.encode()).hexdigest()
        return OpResult(1, 1, elapsed, (verdict.accepted, digest), problems, untimed_trials=int(repeated))


def check_run(scenario: str, config, verdict, outcome, rendered: str, n: int) -> list[str]:
    """The paper's claims for one run: honest accepted, attacks caught on timing at 2x + delta."""
    problems = []
    if len(verdict.pair_passes) != n or not rendered.strip():
        problems.append("incomplete verdict or empty transcript")
    if scenario == "honest":
        if not verdict.accepted:
            problems.append(f"honest run rejected ({verdict.reason})")
        return problems
    complete = outcome.earliest_complete_response_time
    if scenario == "guess":
        if verdict.reason == protocol.REASON_TIMING or complete > protocol.deadline(config.protocol):
            problems.append(f"guess responses late (complete at {complete})")
        if verdict.accepted != all(verdict.pair_passes):
            problems.append("guess verdict disagrees with its pair passes")
        return problems
    if verdict.accepted or verdict.reason != protocol.REASON_TIMING:
        problems.append(f"not rejected on timing ({verdict.reason})")
    if abs(complete - (2 * X + DELTA)) > TIME_TOL:
        problems.append(f"complete response at {complete}, expected 2x + delta")
    if scenario == "bounded_rounds" and (outcome.agreement_time is None
                                         or abs(outcome.agreement_time - (X + 2 * DELTA)) > TIME_TOL):
        problems.append(f"agreement at {outcome.agreement_time}, expected x + 2 delta")
    return problems


WORKLOADS = {
    "mc_n1": MonteCarlo("mc_n1", n=1, trials=4096),
    "mc_n16": MonteCarlo("mc_n16", n=16, trials=1024),
    "single_run": SingleRun("single_run", n=4),
    "mc_parallel": Parallel("mc_parallel", scenarios=("guess", "honest"), n_values=(1, 4, 8), trials=4096),
}
