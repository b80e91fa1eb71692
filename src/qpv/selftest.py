"""Built-in oracle suites: brute-force cross-checks of the quantum tables.

Each suite compares the live implementation (looked up through the module so
fault injection in tests is visible) against the dense-algebra oracles in
:mod:`qpv.oracles`. The register suites run batched: one
:class:`~qpv.quantum.BatchRegister` row per payload or per channel pair.

* teleport   - all 16 (shared label, BSM outcome) combinations, each as one
               batch of 100 random payloads: the forced-outcome projection
               matches the projection oracle and the frame oracle, and the
               inverse correction restores every payload with fidelity 1.
* swap       - all 64 (label, label, outcome) combinations: the implementation's
               outer-pair label equals the brute-force label; for each label
               pair, one Born-sampled swap leaves the outer pair in that label.
* frame      - all 16 correction-table entries match the oracle table.
* reduction  - the one-bit announcement keeps the phase-flip exponent
               reconstructible on all 16 (shared, outcome) pairs, and the
               one-bit check agrees with the two-bit check everywhere.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from . import oracles, protocol, quantum
from .quantum import BellLabel, BsmOutcome

TOL = 1e-9


def _all_labels() -> list[BellLabel]:
    return [BellLabel.from_index(i) for i in range(4)]


def _all_outcomes() -> list[BsmOutcome]:
    return [BsmOutcome.from_index(i) for i in range(4)]


def check_teleport(num_payloads: int = 100, seed: int = 2024) -> list[str]:
    failures = []
    payloads = np.array(oracles.random_payloads(num_payloads, seed))
    for shared in _all_labels():
        for outcome in _all_outcomes():
            frame = quantum.pauli_frame_from(shared, outcome)
            reg = quantum.BatchRegister(num_payloads)
            q_payload = reg.append_qubit(payloads)
            q_sender, q_receiver = reg.append_bell(np.full(num_payloads, shared.index))
            reg.project_bell(q_payload, q_sender, np.full(num_payloads, outcome.index))
            received = reg.reduced_state(q_receiver)
            reg.apply_frame(q_receiver, 0, frame.k_prime)
            reg.apply_frame(q_receiver, frame.k, 0)
            fidelities = np.abs(np.einsum("pi,pi->p", payloads.conj(), reg.reduced_state(q_receiver))) ** 2
            for idx, payload in enumerate(payloads):
                expected = oracles.teleport_receiver_oracle(payload, shared, outcome)
                if not oracles.equal_up_to_phase(received[idx], expected, TOL):
                    failures.append(f"teleport mismatch vs oracle: shared={shared} outcome={outcome} payload#{idx}")
                    break
                via_frame = oracles.expected_receiver_state(payload, frame.k, frame.k_prime)
                if not oracles.equal_up_to_phase(received[idx], via_frame, TOL):
                    failures.append(f"teleport frame mismatch: shared={shared} outcome={outcome} payload#{idx}")
                    break
                if abs(fidelities[idx] - 1.0) > TOL:
                    failures.append(f"round trip fidelity {float(fidelities[idx])!r}: "
                                    f"shared={shared} outcome={outcome} payload#{idx}")
                    break
    return failures


def check_swap(seed: int = 7) -> list[str]:
    failures = []
    rng = np.random.default_rng(seed)
    for shared1 in _all_labels():
        for shared2 in _all_labels():
            for outcome in _all_outcomes():
                expected = oracles.swap_outer_label_oracle(shared1, shared2, outcome)
                got = quantum.swap_label(shared1, shared2, outcome)
                if got != expected:
                    failures.append(f"swap label mismatch: {shared1} {shared2} {outcome}: {got} != {expected}")
            # sampled path: outcome drawn by Born rule, label must match the
            # collapsed outer state
            reg = quantum.BatchRegister(1)
            outer1, mid1 = reg.append_bell([shared1.index])
            mid2, outer2 = reg.append_bell([shared2.index])
            outcome = BsmOutcome.from_index(int(reg.bsm(mid1, mid2, rng.random(1))[0]))
            label = quantum.swap_label(shared1, shared2, outcome)
            prob = reg.project_bell(outer1, outer2, [label.index])[0]
            if abs(prob - 1.0) > TOL:
                failures.append(f"sampled swap label {label} inconsistent with collapsed outer pair "
                                f"({shared1},{shared2})")
    return failures


def check_frame_table() -> list[str]:
    failures = []
    for shared in _all_labels():
        for outcome in _all_outcomes():
            frame = quantum.pauli_frame_from(shared, outcome)
            expected = oracles.frame_oracle(shared, outcome)
            if (frame.k, frame.k_prime) != expected:
                failures.append(f"frame table mismatch at shared={shared} outcome={outcome}: "
                                f"{(frame.k, frame.k_prime)} != {expected}")
    return failures


def check_reduction() -> list[str]:
    failures = []
    for shared in _all_labels():
        for outcome in _all_outcomes():
            bit = protocol.reduce_announcement(outcome, shared)
            frame = quantum.pauli_frame_from(shared, outcome)
            if (shared.a ^ bit) != frame.k:
                failures.append(f"reduction loses k at shared={shared} outcome={outcome}")
            for reported in (0, 1):
                for measured in (0, 1):
                    full = protocol.verify_v2(reported, outcome, measured, shared, protocol.VARIANT_TWO_BIT)
                    single = protocol.verify_v2(reported, bit, measured, shared, protocol.VARIANT_SINGLE_BIT)
                    if full != single:
                        failures.append(f"variant disagreement at shared={shared} outcome={outcome} "
                                        f"reported={reported} measured={measured}")
    return failures


SUITES: dict[str, Callable[[], list[str]]] = {
    "teleport": check_teleport,
    "swap": check_swap,
    "frame": check_frame_table,
    "reduction": check_reduction,
}


def run_selftest(suites: Iterable[str] | None = None, report: Callable[[str], None] = print) -> bool:
    """Run the requested suites (all by default); returns True when all pass."""
    names = list(suites) if suites is not None else list(SUITES)
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise ValueError(f"unknown selftest suite(s): {unknown}; known: {sorted(SUITES)}")
    all_ok = True
    for name in names:
        failures = SUITES[name]()
        if failures:
            all_ok = False
            report(f"[FAIL] {name}: {len(failures)} failure(s); first: {failures[0]}")
        else:
            report(f"[PASS] {name}")
    return all_ok
