"""Verifier/prover state machines for the position-verification protocol.

Honest choreography (per entangled pair, prover at distance x from both
verifiers, c = 1):

1. t = 0:   V1 and V2 each secretly prepare a Bell pair and send one half
            toward the prover's position.
2. t = x:   V1 teleports the challenge eigenstate over its channel, keeping
            the BSM outcome ``w'`` secret.
3. t = x:   the prover measures its (now corrected) half in the agreed
            Hadamard basis, re-prepares the measured eigenstate, teleports it
            to V2 over the second channel, and simultaneously announces its
            BSM result and the state report to both verifiers.
4. t = 2x:  both verifiers check consistency and timing, then pool their
            verdicts at a zero-cost virtual meeting point.

The prover cannot clone its corrected half, so step 3 re-prepares the
measured Hadamard eigenstate; the physical state report is carried as the
measurement bit, which is lossless for |+>/|-> challenges. The verifiers'
checks and the verdict pooling are shared verbatim with the adversary runs.

Material model: a prover's response is one ``prover_response`` message that
carries its state report and its announcement together, so each verifier
keeps one response, report and announcement with one arrival time: the first
to arrive (deliveries run in time order). Every prover, honest or colluding,
sends through :meth:`TrialCore.send_response`.

Deadline rule: the verdict is computed once, after the run is quiescent. A
verifier's response is usable iff its arrival time is finite and
<= 2x/c + slack. The comparison is exact, with ties accepted and no
tolerance, so a response that meets the deadline only up to float rounding
can land on either side (x = 0.3 with slack = prover delay = 0.7 arrives
after the deadline and is rejected). A caller who needs a margin sets the
slack.
"""

from __future__ import annotations

import json
import math
import numbers
import secrets
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .philox import key_words, philox4x32, seed_keys
from . import quantum
from .quantum import BatchRegister
from .spacetime import Actor, CausalityViolationError, ClassicalValue, Event, Timeline, verify_causality

SPEED_OF_LIGHT = 1.0

VARIANT_TWO_BIT = "two_bit"
VARIANT_SINGLE_BIT = "single_bit"
VARIANTS = (VARIANT_TWO_BIT, VARIANT_SINGLE_BIT)

REASON_OK = "ok"
REASON_TIMING = "timing"
REASON_V1 = "v1_inconsistent"
REASON_V2 = "v2_inconsistent"
REASONS = (REASON_OK, REASON_TIMING, REASON_V1, REASON_V2)  # Verdicts.reason holds an index into this
_OK, _TIMING, _V1, _V2 = range(len(REASONS))

_MISSING = -1

# Draw indices per Philox evaluation; every shipped scenario makes at most 6
# draws, so a run costs one evaluation. A multiple of 4 (words per counter).
_DRAW_BLOCK = 8


@dataclass
class ProtocolConfig:
    """Parameters of one protocol instance."""

    n: int = 4
    x: float = 1.0
    challenge_states: Sequence[int] | None = None
    bell_labels_v1: Sequence[int] | None = None  # one label 2a + b per pair; |00> when unset
    bell_labels_v2: Sequence[int] | None = None
    variant: str = VARIANT_TWO_BIT
    deadline_slack: float = 0.0
    prover_delay: float = 0.0  # fault injection: extra delay on the prover's response

    def validate(self) -> None:
        check_int("n", self.n, 1)
        check_number("x", self.x)
        if not (0 < 2.0 * self.x < math.inf):  # V2 sits at 2x, so 2x must be finite as a float too
            raise ValueError(f"x must be positive with 2x finite, got {self.x}")
        check_choice("variant", self.variant, VARIANTS)
        check_number("deadline_slack", self.deadline_slack)
        if not (self.deadline_slack >= 0):  # also rejects NaN; inf is allowed
            raise ValueError(f"deadline_slack must be >= 0, got {self.deadline_slack}")
        check_number("prover_delay", self.prover_delay)
        if not (self.prover_delay >= 0):
            raise ValueError(f"prover_delay must be >= 0, got {self.prover_delay}")
        for name, high in (("challenge_states", 1), ("bell_labels_v1", 3), ("bell_labels_v2", 3)):
            entries = getattr(self, name)
            if entries is None:
                continue
            if not isinstance(entries, (tuple, list, np.ndarray)) or len(entries) != self.n:
                raise ValueError(f"{name} must be None or a sequence of length n={self.n}, got {entries!r}")
            for entry in entries:
                check_int(f"{name} entry", entry, 0, high)


def check_int(name: str, value, low: int | None = None, high: int | None = None) -> None:
    """ValueError naming ``name`` unless ``value`` is an int (a numpy integer counts, a bool does not)
    in ``low``..``high``; a bound left None is open."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if (low is not None and value < low) or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be {bounds}, got {value}")


def check_number(name: str, value) -> None:
    """ValueError naming ``name`` unless ``value`` is a real number (a bool is not) that converts to a float.

    An int or fraction past the float range is refused: every time in a run is a float.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a number in the float range, got one past it") from None


def check_choice(name: str, value, choices: tuple[str, ...]) -> None:
    """ValueError naming ``name`` unless ``value`` is a str among ``choices``."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def deadline(config: ProtocolConfig) -> float:
    """Latest acceptable arrival time for prover responses: 2x/c + slack."""
    return 2.0 * config.x / SPEED_OF_LIGHT + config.deadline_slack


@dataclass
class PairTranscript:
    """Per-pair record of all classical values and timestamps.

    ``w_prime`` is the outcome 2a + b; ``pp_prime`` is the announcement as
    ``variant`` defines it (see :func:`announcement`), None if none arrived.
    """

    w_prime: int
    pp_prime: int | None
    prover_state_report: int | None
    v2_outcome: int | None
    variant: str
    timestamps: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Outcomes as [a, b] pairs; a one-bit announcement stays a bare bit."""
        pp = self.pp_prime
        if pp is not None and self.variant == VARIANT_TWO_BIT:
            pp = [pp >> 1, pp & 1]
        return {
            "w_prime": [self.w_prime >> 1, self.w_prime & 1],
            "pp_prime": pp,
            "prover_state_report": self.prover_state_report,
            "v2_outcome": self.v2_outcome,
            "timestamps": {k: self.timestamps[k] for k in sorted(self.timestamps)},
        }


def transcripts_to_json(transcripts: Sequence[PairTranscript]) -> str:
    """Stable structured-text serialization: one record per pair."""
    return json.dumps([t.to_dict() for t in transcripts], indent=2)


@dataclass
class Verdict:
    accepted: bool
    reason: str
    pair_passes: list[bool]


@dataclass(eq=False)
class Verdicts(Sequence):
    """The verdicts of a batch of trials as arrays, read as a sequence of :class:`Verdict`.

    ``accepted`` holds one bool per trial, ``reason`` one index into
    :data:`REASONS` per trial and ``passes`` one bool per (trial, pair). A
    ``Verdict`` is built only when one is read, by index or by iteration, and
    a ``Verdicts`` equals the list of the ``Verdict``s it holds.
    """

    accepted: np.ndarray
    reason: np.ndarray
    passes: np.ndarray

    def __len__(self) -> int:
        return len(self.accepted)

    def __getitem__(self, trial: int) -> Verdict:
        return Verdict(bool(self.accepted[trial]), REASONS[self.reason[trial]], self.passes[trial].tolist())

    def __iter__(self):
        for accepted, reason, passes in zip(self.accepted.tolist(), self.reason.tolist(), self.passes.tolist()):
            yield Verdict(accepted, REASONS[reason], passes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Verdicts, list)):
            return NotImplemented
        return list(self) == list(other)


def announcement(outcomes, variant: str):
    """What the prover announces for its BSM outcomes 2a + b: all of them, or one bit.

    Under ``single_bit`` only the phase-flip bit ``a`` is sent: the verifier
    holding label l recovers k = (l >> 1) xor a, which is all the
    Hadamard-basis check needs; the bit-flip half of the correction only
    changes |+>/|-> by an overall phase.
    """
    return outcomes if variant == VARIANT_TWO_BIT else outcomes >> 1


def completion_time(materials_v1: MaterialStore, materials_v2: MaterialStore) -> float:
    """When both verifiers hold a response: the later of their arrival times; inf while either is missing."""
    return max(materials_v1.time, materials_v2.time)


class MaterialStore:
    """The prover response one verifier keeps: report, announcement and arrival time of the first to arrive."""

    def __init__(self, n: int):
        self.report = np.full(n, _MISSING, dtype=np.int64)
        self.announcement = np.full(n, _MISSING, dtype=np.int64)
        self.time = math.inf

    def receive(self, report: np.ndarray, announcement: np.ndarray, time: float) -> bool:
        """Keep this response if none was kept before; returns whether it was kept.

        Deliveries run in time order, so the first response kept is the earliest.
        """
        if self.time < math.inf:
            return False
        self.report = np.asarray(report, dtype=np.int64).copy()
        self.announcement = np.asarray(announcement, dtype=np.int64).copy()
        self.time = time
        return True


def judge(
    config: ProtocolConfig,
    challenges: np.ndarray,
    labels_v1: np.ndarray,
    labels_v2: np.ndarray,
    w_prime: np.ndarray,
    v2_measured: np.ndarray | None,
    materials_v1: MaterialStore,
    materials_v2: MaterialStore,
) -> Verdicts:
    """Pooled verdict of each trial, over both verifiers' knowledge and materials.

    Identical for honest runs and attacks. Every array holds one integer per
    slot, trial-major (``trials * n`` slots). The frame is
    ``quantum.pauli_frame_from(label, outcome)`` and the checks need only its
    first (phase-flip) bit k, so each is an XOR over all slots at once: V1
    checks both report copies against ``psi ^ k(l1, w')``; V2 checks
    ``v2 == report_2 ^ k(l2, ann_2)``, where a one-bit announcement stands
    for the outcome ``2 * ann_2``; the two verifiers' announcements must agree.

    Each verifier holds one response (see :class:`MaterialStore`). It is
    usable iff its arrival time is finite and <= ``deadline(config)`` =
    2x/c + slack: exact, ties accepted, no tolerance, so an arrival that meets
    the deadline only up to rounding can land on either side; a caller who
    needs a margin sets the slack. A missing or late response at either
    verifier (see :func:`completion_time`) fails on timing, which outranks a
    v1 inconsistency (either report copy), which outranks a v2 inconsistency
    (decode failure or mismatching announcements).
    """
    trials = len(challenges) // config.n
    arrival = completion_time(materials_v1, materials_v2)
    if v2_measured is None or not (math.isfinite(arrival) and arrival <= deadline(config)):
        return Verdicts(np.zeros(trials, dtype=bool), np.full(trials, _TIMING, dtype=np.int8),
                        np.zeros((trials, config.n), dtype=bool))

    report_2, ann_2 = materials_v2.report, materials_v2.announcement
    expected = challenges ^ (quantum.pauli_frame_from(labels_v1, w_prime) >> 1)
    v1_bad = (materials_v1.report != expected) | (report_2 != expected)
    outcomes_2 = ann_2 if config.variant == VARIANT_TWO_BIT else ann_2 << 1
    v2_bad = v2_measured != report_2 ^ (quantum.pauli_frame_from(labels_v2, outcomes_2) >> 1)
    v2_bad |= materials_v1.announcement != ann_2
    passes = ~(v1_bad | v2_bad).reshape(trials, config.n)
    accepted = passes.all(axis=1)
    reason = np.where(accepted, np.int8(_OK), np.int8(_V2))
    reason[v1_bad.reshape(trials, config.n).any(axis=1)] = _V1
    return Verdicts(accepted, reason, passes)


class TrialCore:
    """Verifier-side machinery shared by honest runs and adversary runs.

    Owns the timeline, the two channel registers, the verifiers' secret
    choices and received materials, and judges the finished run.

    With ``trial_seeds`` the core simulates many independent trials of the
    same configuration in one pass: the registers gain a trial dimension
    (``slots = trials * n`` rows) while the choreography, messages, and
    ledger run once, since message timing never depends on sampled values.

    Randomness is counter-based. A trial's seed is its 64-bit Philox key,
    and draws are made in event order (challenge sampling first, then each
    quantum measurement as its event executes). The d-th draw gives slot
    (trial t, pair i) the word ``d % 4`` of
    ``philox4x32((i, d // 4, 0, 0), key_t)``: a uniform is that word times
    2**-32, a bit is its top bit. A draw depends on nothing but (key, pair,
    draw index), so a batch row is bit-identical to running that trial
    alone with its key.
    """

    ACTOR_V1 = 0
    ACTOR_V2 = 1
    ACTOR_PROVER = 2
    ACTOR_P1 = 3
    ACTOR_P2 = 4
    ACTOR_POOL = 9

    def __init__(self, config: ProtocolConfig, seed: int | None = None,
                 trial_seeds: Sequence[int] | None = None):
        config.validate()
        self.config = config
        self.n = config.n
        self.x = config.x
        if trial_seeds is None:
            trial_seeds = [secrets.randbits(64) if seed is None else seed]
        self.keys = seed_keys(trial_seeds)
        self.trials = len(self.keys)
        self.slots = self.n * self.trials
        self._draws = 0
        self._block: tuple[np.ndarray, ...] = ()
        self.v1 = Actor(self.ACTOR_V1, "V1", 0.0)
        self.v2 = Actor(self.ACTOR_V2, "V2", 2.0 * config.x)
        self.pool = Actor(self.ACTOR_POOL, "pool", config.x)

        if config.challenge_states is not None:
            fixed = np.asarray(config.challenge_states, dtype=np.int64)
            self.challenges = np.tile(fixed, self.trials)
        else:
            self.challenges = self.sample_bits()
        self.labels_v1 = self.slot_labels(config.bell_labels_v1)
        self.labels_v2 = self.slot_labels(config.bell_labels_v2)

        self.reg_v1side = BatchRegister(self.slots)
        self.reg_v2side = BatchRegister(self.slots)
        self.q_v1 = self.q_p1 = None  # handles, filled at prepare
        self.q_v2 = self.q_p2 = None

        self.w_prime: np.ndarray | None = None  # outcome indices, V1's secret
        self.w_prime_value = None
        self.v2_measured: np.ndarray | None = None
        self.v2_measured_at = math.inf
        self.materials_v1 = MaterialStore(self.slots)
        self.materials_v2 = MaterialStore(self.slots)
        self.timeline: Timeline | None = None
        self.timestamps: dict[str, float] = {}

    # -- per-trial randomness ---------------------------------------------------

    def _next_words(self) -> np.ndarray:
        """The next draw's 32-bit word for every slot, from one Philox evaluation per block."""
        draw = self._draws
        self._draws += 1
        if draw % _DRAW_BLOCK == 0:
            counter = np.zeros((4, _DRAW_BLOCK // 4, self.slots), dtype=np.uint64)
            counter[0] = np.arange(self.slots) % self.n
            counter[1] = (draw // 4 + np.arange(_DRAW_BLOCK // 4))[:, None]
            key = key_words(np.repeat(self.keys, self.n))[:, None, :]
            self._block = philox4x32(counter, key)
        return self._block[draw % 4][draw % _DRAW_BLOCK // 4]

    def sample_uniforms(self) -> np.ndarray:
        """One uniform in [0, 1) per register row: the next draw's word times 2**-32."""
        return self._next_words() * 2.0 ** -32

    def sample_bits(self) -> np.ndarray:
        """One bit per register row: the top bit of the next draw's word."""
        return (self._next_words() >> np.uint64(31)).astype(np.int64)

    def slot_labels(self, labels: Sequence[int] | None) -> np.ndarray:
        """Bell label of every register row; |00> when unset."""
        per_pair = labels if labels is not None else [0] * self.n
        return np.tile(np.array(per_pair, dtype=np.intp), self.trials)

    # -- setup ----------------------------------------------------------------

    def schedule_verifier_prep(self, p1_receiver: Actor, p1_handler, p2_receiver: Actor, p2_handler) -> None:
        """t = 0: both verifiers prepare Bell pairs and launch the second halves."""
        tl = self.timeline

        def v1_prepare() -> None:
            self.q_v1, self.q_p1 = self.reg_v1side.append_bell(self.labels_v1, self.v1.id, self.v1.id)
            tl.new_value(self.v1, "bell_labels_v1", self.labels_v1)
            tl.new_value(self.v1, "challenges", self.challenges)
            tl.send(self.v1, p1_receiver, "channel_half_v1", qubits=[self.q_p1], handler=p1_handler)

        def v2_prepare() -> None:
            self.q_v2, self.q_p2 = self.reg_v2side.append_bell(self.labels_v2, self.v2.id, self.v2.id)
            tl.new_value(self.v2, "bell_labels_v2", self.labels_v2)
            tl.send(self.v2, p2_receiver, "channel_half_v2", qubits=[self.q_p2], handler=p2_handler)

        tl.schedule(0.0, self.v1, "prepare", v1_prepare, "prepare Bell pairs, send halves")
        tl.schedule(0.0, self.v2, "prepare", v2_prepare, "prepare Bell pairs, send halves")
        self.timestamps["halves_sent"] = 0.0

    def schedule_v1_teleport(self) -> None:
        """t = x: V1 teleports the challenge eigenstates, keeping w' secret."""
        tl = self.timeline

        def teleport_challenges() -> None:
            payload = self.reg_v1side.append_hadamard_eigenstates(self.challenges, self.v1.id)
            outcomes = self.reg_v1side.bsm(payload, self.q_v1, self.sample_uniforms(), by=self.v1.id)
            self.w_prime = outcomes
            self.w_prime_value = tl.new_value(self.v1, "w_prime", outcomes)
            tl.collapse_notice(self.v1, [self.q_p1], "challenge teleported onto far halves")
            self.timestamps["challenge_teleported"] = tl.now

        tl.schedule(self.x, self.v1, "teleport", teleport_challenges, "teleport challenges over channel 1")

    # -- prover responses -----------------------------------------------------

    def send_response(self, sender: Actor, verifiers: Sequence[Actor], report_value: ClassicalValue,
                      ann_value: ClassicalValue, emit_time: float | None = None) -> None:
        """Send one ``prover_response`` carrying (report, announcement) from ``sender`` to each verifier, in order."""
        for verifier in verifiers:
            self.timeline.send(sender, verifier, "prover_response", values=[report_value, ann_value],
                               handler=self._receive, emit_time=emit_time)

    def _receive(self, message) -> None:
        """A verifier keeps its first response; V2 measures its halves when that arrives."""
        store = self.materials_v1 if message.receiver is self.v1 else self.materials_v2
        report, ann = (value.payload for value in message.values)
        if store.receive(report, ann, message.arrival_time) and store is self.materials_v2:
            bits = self.reg_v2side.hadamard_measure(self.q_v2, self.sample_uniforms(), by=self.v2.id)
            self.v2_measured = bits
            self.v2_measured_at = self.timeline.now
            self.timeline.new_value(self.v2, "v2_outcomes", bits)
            self.timeline.collapse_notice(self.v2, [self.q_v2], "decoded halves measured in Hadamard basis")

    # -- pooling ----------------------------------------------------------------

    def schedule_pool(self) -> None:
        """t = deadline: the pool event marks the meeting; the verdict waits for quiescence."""
        at = deadline(self.config)
        self.timeline.schedule(at, self.pool, "pool", None, "verifiers exchange outcomes and decide")
        self.timestamps["pooled_at"] = at

    def compute_verdicts(self) -> Verdicts:
        """The verdict of every trial; call once the run is quiescent."""
        return judge(self.config, self.challenges, self.labels_v1, self.labels_v2, self.w_prime,
                     self.v2_measured, self.materials_v1, self.materials_v2)

    # -- transcripts ------------------------------------------------------------

    def build_transcripts(self) -> list[PairTranscript]:
        """Per-pair records; report is V1's copy, announcement is V2's copy."""
        if self.trials != 1:
            raise ValueError("transcripts are only assembled for single-trial runs")
        transcripts = []
        common = dict(self.timestamps)
        for verifier, store in (("v1", self.materials_v1), ("v2", self.materials_v2)):
            common[f"report_{verifier}_arrived"] = common[f"announcement_{verifier}_arrived"] = store.time
        common["v2_measured_at"] = self.v2_measured_at
        for i in range(self.n):
            w = int(self.w_prime[i])
            ann = int(self.materials_v2.announcement[i]) if math.isfinite(self.materials_v2.time) else None
            report = int(self.materials_v1.report[i]) if math.isfinite(self.materials_v1.time) else None
            v2_out = int(self.v2_measured[i]) if self.v2_measured is not None else None
            transcripts.append(PairTranscript(w, ann, report, v2_out, self.config.variant, dict(common)))
        return transcripts


class _HonestProver:
    """Honest prover: measure, re-prepare, teleport onward, announce to both.

    Every prover, honest or colluding, offers ``actors()`` (its actors on the
    timeline), ``install()`` (schedules the verifiers' preparation with its own
    handlers, and any events of its own) and ``agreement_time``.
    """

    agreement_time = None

    def __init__(self, core: TrialCore):
        self.core = core
        self.actor = Actor(TrialCore.ACTOR_PROVER, "P", core.x)
        self._halves = 0

    def actors(self) -> list[Actor]:
        return [self.actor]

    def install(self) -> None:
        self.core.schedule_verifier_prep(self.actor, self.on_half, self.actor, self.on_half)

    def on_half(self, message) -> None:
        self._halves += 1
        if self._halves == 2:
            self.core.timeline.schedule(self.core.timeline.now, self.actor, "respond", self.respond,
                                        "measure, re-prepare, teleport onward, announce")

    def respond(self) -> None:
        core, tl = self.core, self.core.timeline
        reports = core.reg_v1side.hadamard_measure(core.q_p1, core.sample_uniforms(), by=self.actor.id)
        tl.collapse_notice(self.actor, [core.q_p1], "corrected halves measured in Hadamard basis")
        fresh = core.reg_v2side.append_hadamard_eigenstates(reports, self.actor.id)
        pp = core.reg_v2side.bsm(fresh, core.q_p2, core.sample_uniforms(), by=self.actor.id)
        tl.collapse_notice(self.actor, [core.q_v2], "re-prepared eigenstates teleported to V2")
        core.timestamps["prover_measured"] = tl.now

        report_value = tl.new_value(self.actor, "state_report", reports)
        ann_value = tl.new_value(self.actor, "announcement", announcement(pp, core.config.variant))
        emit = tl.now + core.config.prover_delay
        core.timestamps["response_emitted"] = emit
        core.send_response(self.actor, [core.v1, core.v2], report_value, ann_value, emit_time=emit)


def _execute(core: TrialCore, prover) -> list[Event]:
    """Run ``prover`` (see :class:`_HonestProver`) against the verifiers until quiescent.

    Returns the event log; raises CausalityViolationError if any emitted
    value was not yet knowable to its sender.
    """
    core.timeline = Timeline([core.v1, core.v2, core.pool, *prover.actors()])
    prover.install()
    core.schedule_v1_teleport()
    core.schedule_pool()
    events = core.timeline.run_until_quiescent()
    violations = verify_causality(core.timeline)
    if violations:
        raise CausalityViolationError("; ".join(violations))
    return events


def run_honest(
    config: ProtocolConfig,
    seed: int | None = None,
) -> tuple[Verdict, list[PairTranscript], list[Event]]:
    """Execute one honest protocol instance; returns (verdict, transcripts, event log).

    ``seed`` is the trial's Philox key, an int in [0, 2**64) (ValueError
    otherwise); None draws a fresh key from the operating system.
    """
    core = TrialCore(config, seed)
    events = _execute(core, _HonestProver(core))
    return core.compute_verdicts()[0], core.build_transcripts(), events


def run_honest_batch(config: ProtocolConfig, trial_seeds: Sequence[int]) -> Verdicts:
    """Many honest trials in one vectorized pass: ``[t]`` equals ``run_honest(config, trial_seeds[t])``."""
    core = TrialCore(config, trial_seeds=trial_seeds)
    _execute(core, _HonestProver(core))
    return core.compute_verdicts()
