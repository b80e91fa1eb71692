"""Colluding dishonest-prover strategies.

Two colluders sit on the line between the verifiers: P1 at x - delta and P2
at x + delta. Each intercepts the channel half passing its position at
t = x - delta. The verifiers run exactly the same preparation, teleportation,
checks and deadline as in the honest run; only the prover side differs.

Shipped strategies:

* ``guess``: P1 answers V1 honestly from its intercepted (and collapsed)
  half; P2 cannot know that value by its emission deadline and teleports a
  uniformly guessed eigenstate to V2, so each pair passes with probability
  1/2 and n pairs with 2^-n. All responses arrive on time.
* ``swap_and_forward``: P1 swaps its intercepted half with a pre-shared pair
  so P2 holds the qubit the challenge lands on. The colluders reconstruct
  the exact honest responses, but V1's copy cannot arrive before 2x + delta,
  so the verdict is a timing rejection despite perfect content.
* ``bounded_rounds``: swap-based attack with r free instantaneous local
  measurement rounds; any classical coordination between the colluders still
  costs 2*delta, so they agree on the full response only at x + 2*delta and
  complete delivery at 2x + delta.

``cheat_w_prime`` is a deliberately illegal test strategy: P2 reads V1's
secret BSM outcome at t = x, which must trigger a causality violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import quantum
from .protocol import (ProtocolConfig, TrialCore, PairTranscript, Verdict, Verdicts, _execute, announcement,
                       check_choice, check_int, check_number, completion_time)
from .spacetime import Actor, Event


@dataclass
class AttackConfig:
    """Colluder placement, strategy choice, and pre-shared resources."""

    strategy: str = "guess"
    delta: float = 0.1
    rounds: int = 1  # bounded_rounds parameter
    preshared_pairs: int | None = None  # None = unlimited pre-shared entanglement
    preshared_label: int = 0  # Bell label 2a + b of every pre-shared pair
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)

    def validate(self) -> None:
        if not isinstance(self.protocol, ProtocolConfig):
            raise ValueError(f"protocol must be a ProtocolConfig, got {self.protocol!r}")
        self.protocol.validate()
        check_choice("strategy", self.strategy, tuple(STRATEGIES))
        check_number("delta", self.delta)
        if not (0 < self.delta < self.protocol.x):
            raise ValueError(f"delta must satisfy 0 < delta < x, got delta={self.delta}, x={self.protocol.x}")
        if self.delta < math.ulp(2 * self.protocol.x):  # 2x + delta would round onto 2x
            raise ValueError(f"delta={self.delta} is below the float resolution ulp(2x) at x={self.protocol.x}")
        check_int("rounds", self.rounds, 1)
        if self.preshared_pairs is not None:
            check_int("preshared_pairs", self.preshared_pairs, 0)
        check_int("preshared_label", self.preshared_label, 0, 3)


@dataclass
class AttackOutcome:
    verdict: Verdict
    earliest_complete_response_time: float
    agreement_time: float | None
    transcripts: list[PairTranscript]
    events: list[Event]


class _ColluderPair:
    """Shared scaffolding: the two colluder actors and the interception wiring."""

    def __init__(self, core: TrialCore, config: AttackConfig):
        self.core = core
        self.config = config
        self.p1 = Actor(TrialCore.ACTOR_P1, "P1", core.x - config.delta)
        self.p2 = Actor(TrialCore.ACTOR_P2, "P2", core.x + config.delta)
        self.agreement_time: float | None = None

    def actors(self) -> list[Actor]:
        return [self.p1, self.p2]


class _GuessStrategy(_ColluderPair):
    """P1 answers V1 honestly; P2 guesses the state report for V2.

    P2 teleports its guessed eigenstate over the intercepted half immediately
    and relays its announcement to P1, who forwards it to V1 together with
    P1's true measurement, so both verifiers' responses arrive on time and the
    only probabilistic element is whether the guess matches the true report.
    P1 also sends its response toward V2; it arrives after P2's, and V2 keeps
    the first.
    """

    def install(self) -> None:
        core, tl = self.core, self.core.timeline
        self.report_value = None

        def on_p1_half(message) -> None:
            tl.schedule(core.x, self.p1, "measure", p1_measure, "measure intercepted half in Hadamard basis")

        def p1_measure() -> None:
            bits = core.reg_v1side.hadamard_measure(core.q_p1, core.sample_uniforms(), by=self.p1.id)
            tl.collapse_notice(self.p1, [core.q_p1], "intercepted halves measured")
            self.report_value = tl.new_value(self.p1, "state_report", bits)

        def on_p2_half(message) -> None:
            guesses = core.sample_bits()
            guess_value = tl.new_value(self.p2, "state_report", guesses)
            fresh = core.reg_v2side.append_hadamard_eigenstates(guesses, self.p2.id)
            pp2 = core.reg_v2side.bsm(fresh, core.q_p2, core.sample_uniforms(), by=self.p2.id)
            tl.collapse_notice(self.p2, [core.q_v2], "guessed eigenstates teleported to V2")
            ann_value = tl.new_value(self.p2, "announcement", announcement(pp2, core.config.variant))
            core.send_response(self.p2, [core.v2], guess_value, ann_value)
            tl.send(self.p2, self.p1, "collusion", values=[ann_value], handler=on_relay)

        def on_relay(message) -> None:
            core.send_response(self.p1, [core.v1, core.v2], self.report_value, message.values[0])

        core.schedule_verifier_prep(self.p1, on_p1_half, self.p2, on_p2_half)


class _SwapForwardStrategy(_ColluderPair):
    """Entanglement-swap the V1 channel onto P2, then forward exact responses.

    P1 swaps at t = x - delta and ships the swap outcome to P2 (arrives
    x + delta). The challenge lands on P2's qubit at t = x; P2 measures it and
    teleports the measured eigenstate onward immediately, shipping both local
    outcomes to P1 (arrive x + 2*delta). Each colluder then assembles the
    correction-adjusted report and announcement and forwards them: V2's copy
    arrives at 2x (on time, content exact), V1's earliest copy arrives at
    (x + 2*delta) + (x - delta) = 2x + delta, after the deadline.

    As ``bounded_rounds``, each colluder also logs ``config.rounds`` free
    instantaneous local rounds at t = x, each costing a pre-shared pair per
    channel pair, and P1 marks the agreement on the full response when the
    local outcomes reach it: the free rounds model unlimited local
    processing, and the binding constraint stays the 2*delta classical
    exchange, so the agreement lands exactly at x + 2*delta.
    """

    def __init__(self, core: TrialCore, config: AttackConfig):
        super().__init__(core, config)
        self.bounded = config.strategy == "bounded_rounds"
        self.rounds = config.rounds if self.bounded else 0
        required = core.config.n * (1 + self.rounds)
        if config.preshared_pairs is not None and config.preshared_pairs < required:
            raise ValueError(
                f"insufficient pre-shared pairs: strategy needs {required}, have {config.preshared_pairs}"
            )

    def install(self) -> None:
        core, tl = self.core, self.core.timeline
        lpre = self.config.preshared_label
        self.swap_value = None
        self.local_value = None  # (measurement bits, onward BSM outcomes) at P2

        def presetup() -> None:
            labels = np.full(core.slots, lpre, dtype=np.intp)
            self.q_pre1, self.q_pre2 = core.reg_v1side.append_bell(labels, self.p1.id, self.p2.id)
            label_value = tl.new_value(self.p1, "preshared_label", labels)
            tl.ledger.record(self.p2.id, label_value, 0.0)

        def log_free_rounds(actor: Actor) -> None:
            for k in range(self.rounds):
                tl.schedule(core.x, actor, "local_round", None, f"free instantaneous round {k + 1}")

        def on_p1_half(message) -> None:
            swap = core.reg_v1side.bsm(core.q_p1, self.q_pre1, core.sample_uniforms(), by=self.p1.id)
            tl.collapse_notice(self.p1, [core.q_v1, self.q_pre2], "channel swapped onto far colluder")
            self.swap_value = tl.new_value(self.p1, "swap_outcome", swap)
            tl.send(self.p1, self.p2, "collusion", values=[self.swap_value], handler=on_swap_outcome)
            log_free_rounds(self.p1)

        def on_p2_half(message) -> None:
            tl.schedule(core.x, self.p2, "extract", p2_extract, "measure landed challenge, teleport onward")
            tl.schedule(core.x, self.p2, "share", p2_share_local, "ship local outcomes to near colluder")
            log_free_rounds(self.p2)

        def p2_extract() -> None:
            measured = core.reg_v1side.hadamard_measure(self.q_pre2, core.sample_uniforms(), by=self.p2.id)
            tl.collapse_notice(self.p2, [self.q_pre2], "landed challenge measured")
            fresh = core.reg_v2side.append_hadamard_eigenstates(measured, self.p2.id)
            onward = core.reg_v2side.bsm(fresh, core.q_p2, core.sample_uniforms(), by=self.p2.id)
            tl.collapse_notice(self.p2, [core.q_v2], "measured eigenstates teleported to V2")
            self.local_value = tl.new_value(self.p2, "colluder_local", (measured, onward))

        def corrected(measured, onward, swap) -> tuple[np.ndarray, np.ndarray]:
            # The swap leaves V1's channel with label swap_label(l1, lpre, swap);
            # labels add by XOR, so its shift from l1 is the outer label over a
            # |00> channel. Undo its phase bit on the reports and fold the whole
            # shift into the announcements, which V2 decodes with l2.
            shift = quantum.swap_label(0, lpre, swap)
            return measured ^ (shift >> 1), onward ^ shift

        def on_swap_outcome(message) -> None:
            # P2 now holds everything: send exact responses to V2 (on time)
            # and a copy toward V1 (arriving at 2x + 2*delta).
            measured, onward = self.local_value.payload
            reports, announcements = corrected(measured, onward, message.values[0].payload)
            report_value = tl.new_value(self.p2, "state_report", reports)
            ann_value = tl.new_value(self.p2, "announcement", announcement(announcements, core.config.variant))
            core.send_response(self.p2, [core.v2, core.v1], report_value, ann_value)

        def on_local_outcomes(message) -> None:
            # P1 has both halves of the collusion data; V1's nearest correct
            # copy leaves here and lands at 2x + delta.
            if self.bounded:
                self.agreement_time = tl.now
                tl.schedule(tl.now, self.p1, "agreement",
                            None, "colluders agree on state report and announcement")
            measured, onward = message.values[0].payload
            reports, announcements = corrected(measured, onward, self.swap_value.payload)
            report_value = tl.new_value(self.p1, "state_report", reports)
            ann_value = tl.new_value(self.p1, "announcement", announcement(announcements, core.config.variant))
            core.send_response(self.p1, [core.v1], report_value, ann_value)

        def p2_share_local() -> None:
            tl.send(self.p2, self.p1, "collusion", values=[self.local_value], handler=on_local_outcomes)

        tl.schedule(0.0, self.p1, "presetup", presetup, "distribute pre-shared Bell pairs")
        core.schedule_verifier_prep(self.p1, on_p1_half, self.p2, on_p2_half)


class _CheatReadWPrime(_GuessStrategy):
    """Deliberately illegal: P2 reads V1's secret BSM outcome at t = x."""

    def install(self) -> None:
        super().install()
        core, tl = self.core, self.core.timeline

        def read_secret() -> None:
            tl.read(self.p2, core.w_prime_value)

        tl.schedule(core.x, self.p2, "cheat", read_secret, "attempt to read w' far from its creation site")


STRATEGIES = {
    "guess": _GuessStrategy,
    "swap_and_forward": _SwapForwardStrategy,
    "bounded_rounds": _SwapForwardStrategy,
    "cheat_w_prime": _CheatReadWPrime,  # test-only negative control
}

SHIPPED_STRATEGIES = tuple(name for name, cls in STRATEGIES.items() if cls is not _CheatReadWPrime)


def _verdicts(core: TrialCore, diagnostic: bool) -> Verdicts:
    """Judge the finished run; the diagnostic verdict has infinite deadline slack."""
    if diagnostic:
        core.config = replace(core.config, deadline_slack=math.inf)
    return core.compute_verdicts()


def run_attack(
    config: AttackConfig,
    seed: int | None = None,
    diagnostic: bool = False,
) -> AttackOutcome:
    """Execute one adversary trial; verifiers behave exactly as in run_honest.

    ``diagnostic`` judges with infinite deadline slack (content checks only),
    for demonstrating that correlations alone do not defeat an attack.
    A strategy that tries to use classical values outside its light cone
    aborts the run with CausalityViolationError. ``seed`` is the trial's
    Philox key, as for ``run_honest``.
    """
    config.validate()
    core = TrialCore(config.protocol, seed)
    strategy = STRATEGIES[config.strategy](core, config)
    events = _execute(core, strategy)
    return AttackOutcome(
        verdict=_verdicts(core, diagnostic)[0],
        earliest_complete_response_time=completion_time(core.materials_v1, core.materials_v2),
        agreement_time=strategy.agreement_time,
        transcripts=core.build_transcripts(),
        events=events,
    )


def run_attack_batch(config: AttackConfig, trial_seeds, diagnostic: bool = False) -> Verdicts:
    """Many attack trials in one vectorized pass: ``[t]`` equals ``run_attack(config, trial_seeds[t])``."""
    config.validate()
    core = TrialCore(config.protocol, trial_seeds=trial_seeds)
    _execute(core, STRATEGIES[config.strategy](core, config))
    return _verdicts(core, diagnostic)
