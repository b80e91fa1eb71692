"""Exhaustive equivalence of the array ``judge`` with the per-pair loop it replaced.

``_loop_judge`` below is a frozen copy of the earlier verdict path: a Python
loop over pairs that checks each one through dataclass Pauli frames and
filters arrivals against the deadline plus a 1e-12 tolerance. It is kept only
as the reference for this test, together with the label, outcome and frame
dataclasses it was written against. It times each verifier's report and
announcement separately and takes its duplicate policy (is a missing V1
announcement a failure?) as an argument; ``judge`` keeps one response per
verifier, with one arrival time.

A response carries its report and announcement together, so the reachable
arrival patterns are those where each verifier's report and announcement
share one time. Every per-pair input is enumerated (challenge, both Bell
labels, w', both report copies, both announcement copies, V2's bit) under all
4 usable/late combinations of the two verifiers' arrival times, for both
variants and both reference duplicate policies, as one trial, as four-pair
trials and as one trial per pair.
"""

import dataclasses
import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence

import numpy as np
import pytest

from qpv.protocol import (
    REASON_OK,
    REASON_TIMING,
    REASON_V1,
    REASON_V2,
    VARIANT_SINGLE_BIT,
    VARIANT_TWO_BIT,
    VARIANTS,
    MaterialStore,
    ProtocolConfig,
    Verdict,
    deadline,
    judge,
)

# -- frozen reference ---------------------------------------------------------


def _check_bit(value: int, name: str) -> None:
    if value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")


@dataclass(frozen=True)
class BellLabel:
    """2-bit label (a, b) of a Bell state."""

    a: int
    b: int

    def __post_init__(self) -> None:
        _check_bit(self.a, "a")
        _check_bit(self.b, "b")

    @property
    def index(self) -> int:
        return 2 * self.a + self.b

    @classmethod
    def from_index(cls, index: int) -> "BellLabel":
        if not 0 <= index <= 3:
            raise ValueError(f"Bell label index must be in 0..3, got {index}")
        return cls((index >> 1) & 1, index & 1)


@dataclass(frozen=True)
class BsmOutcome:
    """2-bit result of a Bell state measurement, same (a, b) convention as BellLabel."""

    first: int
    second: int

    def __post_init__(self) -> None:
        _check_bit(self.first, "first")
        _check_bit(self.second, "second")

    @property
    def index(self) -> int:
        return 2 * self.first + self.second

    @classmethod
    def from_index(cls, index: int) -> "BsmOutcome":
        if not 0 <= index <= 3:
            raise ValueError(f"BSM outcome index must be in 0..3, got {index}")
        return cls((index >> 1) & 1, index & 1)


@dataclass(frozen=True)
class PauliFrame:
    """Exponents (k, k') of the correction sigma_z^k sigma_x^k'."""

    k: int
    k_prime: int

    def __post_init__(self) -> None:
        _check_bit(self.k, "k")
        _check_bit(self.k_prime, "k_prime")


_TIME_EPS = 1e-12


def _frame_table(shared: BellLabel, outcome: BsmOutcome) -> PauliFrame:
    b, b_prime = outcome.first, outcome.second
    if (shared.a, shared.b) == (0, 0):
        return PauliFrame(b, b_prime)
    if (shared.a, shared.b) == (0, 1):
        return PauliFrame(b, 1 ^ b_prime)
    if (shared.a, shared.b) == (1, 0):
        return PauliFrame(1 ^ b, b_prime)
    return PauliFrame(1 ^ b, 1 ^ b_prime)


_FRAMES = {(s, o): _frame_table(BellLabel.from_index(s), BsmOutcome.from_index(o))
           for s in range(4) for o in range(4)}


def _pauli_frame_from(shared: BellLabel, outcome: BsmOutcome) -> PauliFrame:
    return _FRAMES[(shared.index, outcome.index)]


def _verify_v1(psi, reported_state, w_prime, shared):
    return reported_state == (psi ^ _pauli_frame_from(shared, w_prime).k)


def _verify_v2(reported_state, announcement, v2_measured, shared, variant):
    if variant == VARIANT_TWO_BIT:
        if not isinstance(announcement, BsmOutcome):
            raise ValueError("two_bit variant requires a full BsmOutcome announcement")
        l = _pauli_frame_from(shared, announcement).k
    elif variant == VARIANT_SINGLE_BIT:
        if isinstance(announcement, BsmOutcome) or announcement not in (0, 1):
            raise ValueError("single_bit variant requires a one-bit announcement")
        l = shared.a ^ announcement
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return v2_measured == (reported_state ^ l)


def _announcement_obj(value, variant):
    return BsmOutcome.from_index(int(value)) if variant == VARIANT_TWO_BIT else int(value)


def _loop_judge(
    config: ProtocolConfig,
    challenges: np.ndarray,
    labels_v1: Sequence[BellLabel],
    labels_v2: Sequence[BellLabel],
    w_prime: Sequence[BsmOutcome],
    v2_measured: np.ndarray | None,
    materials_v1: SimpleNamespace,
    materials_v2: SimpleNamespace,
    strict_duplicates: bool,
    enforce_deadline: bool = True,
) -> Verdict:
    cutoff = deadline(config) + _TIME_EPS

    def usable(time: float) -> bool:
        return math.isfinite(time) and (not enforce_deadline or time <= cutoff)

    r1_ok_time = usable(materials_v1.report_time)
    r2_ok_time = usable(materials_v2.report_time)
    a1_ok_time = usable(materials_v1.announcement_time)
    a2_ok_time = usable(materials_v2.announcement_time)

    timing_fail = v1_fail = v2_fail = False
    pair_passes: list[bool] = []
    for i in range(config.n):
        timing_ok = r1_ok_time and r2_ok_time and a2_ok_time and (v2_measured is not None)
        if strict_duplicates:
            timing_ok = timing_ok and a1_ok_time

        v1_ok = False
        if r1_ok_time and r2_ok_time:
            psi = int(challenges[i])
            v1_ok = _verify_v1(psi, int(materials_v1.report[i]), w_prime[i], labels_v1[i]) and _verify_v1(
                psi, int(materials_v2.report[i]), w_prime[i], labels_v1[i]
            )

        v2_ok = False
        if r2_ok_time and a2_ok_time and v2_measured is not None:
            v2_ok = _verify_v2(
                int(materials_v2.report[i]),
                _announcement_obj(materials_v2.announcement[i], config.variant),
                int(v2_measured[i]),
                labels_v2[i],
                config.variant,
            )

        if a1_ok_time and a2_ok_time:
            dup_ok = int(materials_v1.announcement[i]) == int(materials_v2.announcement[i])
        else:
            dup_ok = not strict_duplicates

        ok = timing_ok and v1_ok and v2_ok and dup_ok
        pair_passes.append(ok)
        timing_fail = timing_fail or not timing_ok
        v1_fail = v1_fail or not v1_ok
        v2_fail = v2_fail or not (v2_ok and dup_ok)

    if not any([timing_fail, v1_fail, v2_fail]):
        return Verdict(True, REASON_OK, pair_passes)
    if timing_fail:
        reason = REASON_TIMING
    elif v1_fail:
        reason = REASON_V1
    else:
        reason = REASON_V2
    return Verdict(False, reason, pair_passes)


# -- enumeration --------------------------------------------------------------

ON_TIME = 2.0  # exactly the deadline at x = 1: ties are accepted
LATE = 2.5
FIELDS = ("psi", "l1", "l2", "w", "report_1", "report_2", "ann_1", "ann_2", "v2")


def _every_pair(variant: str) -> dict[str, np.ndarray]:
    """One slot per distinct per-pair input: 16,384 for two-bit, 4,096 for one-bit."""
    announcements = range(4) if variant == VARIANT_TWO_BIT else range(2)
    ranges = (range(2), range(4), range(4), range(4), range(2), range(2), announcements, announcements, range(2))
    columns = np.array(list(itertools.product(*ranges)), dtype=np.int64).T
    return dict(zip(FIELDS, columns))


class _Case:
    """Every per-pair input of one variant, with the reference's label and outcome objects built once."""

    def __init__(self, variant: str):
        self.cols = _every_pair(variant)
        self.slots = len(self.cols["psi"])
        self.labels_v1 = [BellLabel.from_index(int(i)) for i in self.cols["l1"]]
        self.labels_v2 = [BellLabel.from_index(int(i)) for i in self.cols["l2"]]
        self.w_prime = [BsmOutcome.from_index(int(i)) for i in self.cols["w"]]

    def stores(self, times: tuple[float, float], pick=slice(None)) -> tuple[MaterialStore, MaterialStore]:
        """V1's and V2's stores holding the enumerated responses (slots ``pick``), arriving at ``times``."""
        c = self.cols
        stores = MaterialStore(len(c["psi"][pick])), MaterialStore(len(c["psi"][pick]))
        for store, verifier, time in zip(stores, "12", times):
            store.receive(c["report_" + verifier][pick], c["ann_" + verifier][pick], time)
        return stores

    def reference_stores(self, times: tuple[float, float], pick=slice(None)) -> list[SimpleNamespace]:
        """The same stores as the reference reads them: report and announcement timed apart, here alike."""
        return [SimpleNamespace(report=store.report, report_time=store.time,
                                announcement=store.announcement, announcement_time=store.time)
                for store in self.stores(times, pick)]

    def new(self, config: ProtocolConfig, times, n: int) -> list[Verdict]:
        c = self.cols
        return judge(dataclasses.replace(config, n=n), c["psi"], c["l1"], c["l2"], c["w"], c["v2"], *self.stores(times))

    def old(self, config: ProtocolConfig, times, strict: bool, enforce_deadline: bool = True) -> Verdict:
        return _loop_judge(config, self.cols["psi"], self.labels_v1, self.labels_v2, self.w_prime, self.cols["v2"],
                           *self.reference_stores(times), strict, enforce_deadline=enforce_deadline)

    def old_per_pair(self, config: ProtocolConfig, times, strict: bool) -> list[Verdict]:
        """The reference on each slot alone."""
        one = dataclasses.replace(config, n=1)
        verdicts = []
        for i in range(self.slots):
            pick = slice(i, i + 1)
            verdicts.append(_loop_judge(one, self.cols["psi"][pick], self.labels_v1[pick], self.labels_v2[pick],
                                        self.w_prime[pick], self.cols["v2"][pick],
                                        *self.reference_stores(times, pick), strict))
        return verdicts


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("variant", VARIANTS)
def test_array_judge_equals_loop_judge_on_every_input(variant, strict):
    case = _Case(variant)
    config = ProtocolConfig(n=case.slots, x=1.0, variant=variant)
    for on_time in itertools.product((True, False), repeat=2):
        times = tuple(ON_TIME if ok else LATE for ok in on_time)
        old = case.old(config, times, strict)
        assert case.new(config, times, n=case.slots) == [old]  # one trial of every slot
        assert [p for v in case.new(config, times, n=4) for p in v.pair_passes] == old.pair_passes
        per_pair = case.new(config, times, n=1)  # every slot its own trial
        if old.reason == REASON_TIMING:  # the loop's timing flags do not depend on pair content
            assert per_pair == [Verdict(False, REASON_TIMING, [False])] * case.slots
        else:
            assert per_pair == case.old_per_pair(config, times, strict)


@pytest.mark.parametrize("strict", [False, True])
def test_infinite_slack_equals_loop_judge_without_deadline(strict):
    # the diagnostic verdict: every finite arrival counts, a response that never arrives does not
    case = _Case(VARIANT_SINGLE_BIT)
    config = ProtocolConfig(n=case.slots, x=1.0, variant=VARIANT_SINGLE_BIT)
    unbounded = dataclasses.replace(config, deadline_slack=math.inf)
    for on_time in itertools.product((True, False), repeat=2):
        times = tuple(LATE if ok else math.inf for ok in on_time)
        assert case.new(unbounded, times, n=case.slots) == [case.old(config, times, strict, enforce_deadline=False)]
