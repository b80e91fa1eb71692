"""Built-in oracle suites: brute-force cross-checks of the label algebra the protocol runs.

Each suite calls the functions the protocol itself calls, looked up through
their modules at call time (so fault injection in tests reaches both), and
compares them against the dense-algebra oracles in :mod:`qpv.oracles`. Labels,
outcomes and frames are ints ``2a + b`` / ``2k + k'``. The register suites
run batched: one :class:`~qpv.quantum.BatchRegister` row per payload.

* teleport   - all 16 (shared label, BSM outcome) combinations, each as one
               batch of 100 random payloads: the forced-outcome projection
               matches the projection oracle and ``pauli_frame_from``'s frame,
               and the inverse correction restores every payload with fidelity 1.
* swap       - all 64 (label, label, outcome) combinations: ``swap_label``
               equals the brute-force label; for each label pair, one
               Born-sampled swap leaves the outer pair in that label.
* frame      - ``pauli_frame_from`` matches the oracle table on all 16 entries.
* reduction  - every (shared label, outcome, report, V2 bit) input is judged
               by ``protocol.judge`` with the two-bit and the one-bit
               ``announcement``: both verdicts equal V2's check under the
               oracle frame.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from . import oracles, protocol, quantum

TOL = 1e-9
_LABELS = range(4)  # every label, outcome or frame 2a + b


def check_teleport(num_payloads: int = 100, seed: int = 2024) -> list[str]:
    failures = []
    payloads = np.array(oracles.random_payloads(num_payloads, seed))
    for shared in _LABELS:
        for outcome in _LABELS:
            frame = quantum.pauli_frame_from(shared, outcome)
            k, k_prime = frame >> 1, frame & 1
            reg = quantum.BatchRegister(num_payloads)
            q_payload = reg.append_qubit(payloads)
            q_sender, q_receiver = reg.append_bell(np.full(num_payloads, shared))
            reg.project_bell(q_payload, q_sender, np.full(num_payloads, outcome))
            received = reg.reduced_state(q_receiver)
            reg.apply_frame(q_receiver, 0, k_prime)
            reg.apply_frame(q_receiver, k, 0)
            fidelities = np.abs(np.einsum("pi,pi->p", payloads.conj(), reg.reduced_state(q_receiver))) ** 2
            for idx, payload in enumerate(payloads):
                expected = oracles.teleport_receiver_oracle(payload, shared, outcome)
                if not oracles.equal_up_to_phase(received[idx], expected, TOL):
                    failures.append(f"teleport mismatch vs oracle: shared={shared} outcome={outcome} payload#{idx}")
                    break
                via_frame = oracles.expected_receiver_state(payload, k, k_prime)
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
    for shared1 in _LABELS:
        for shared2 in _LABELS:
            for outcome in _LABELS:
                expected = oracles.swap_outer_label_oracle(shared1, shared2, outcome)
                got = quantum.swap_label(shared1, shared2, outcome)
                if got != expected:
                    failures.append(f"swap label mismatch: {shared1} {shared2} {outcome}: {got} != {expected}")
            # sampled path: outcome drawn by Born rule, label must match the
            # collapsed outer state
            reg = quantum.BatchRegister(1)
            outer1, mid1 = reg.append_bell([shared1])
            mid2, outer2 = reg.append_bell([shared2])
            outcome = int(reg.bsm(mid1, mid2, rng.random(1))[0])
            label = quantum.swap_label(shared1, shared2, outcome)
            try:
                prob = reg.project_bell(outer1, outer2, [label])[0]
            except quantum.InvalidTargetError:  # the claimed label is impossible
                prob = 0.0
            if abs(prob - 1.0) > TOL:
                failures.append(f"sampled swap label {label} inconsistent with collapsed outer pair "
                                f"({shared1},{shared2})")
    return failures


def check_frame_table() -> list[str]:
    failures = []
    for shared in _LABELS:
        for outcome in _LABELS:
            frame = quantum.pauli_frame_from(shared, outcome)
            expected = oracles.frame_oracle(shared, outcome)
            if (frame >> 1, frame & 1) != expected:
                failures.append(f"frame table mismatch at shared={shared} outcome={outcome}: "
                                f"{(frame >> 1, frame & 1)} != {expected}")
    return failures


def check_reduction() -> list[str]:
    failures = []
    shared, outcome, reported, measured = np.array(list(np.ndindex(4, 4, 2, 2))).T
    k = np.array([oracles.frame_oracle(s, o)[0] for s, o in zip(shared, outcome)])
    honest = measured == reported ^ k
    # V1's side is made trivially consistent (label 0, outcome 0, challenge = report),
    # so a pair passes iff V2's check does.
    zeros = np.zeros_like(shared)
    for variant in protocol.VARIANTS:
        config = protocol.ProtocolConfig(n=len(shared), variant=variant)
        ann = protocol.announcement(outcome, variant)
        materials = protocol.MaterialStore(config.n), protocol.MaterialStore(config.n)
        for store in materials:
            store.receive(reported, ann, protocol.deadline(config))
        (verdict,) = protocol.judge(config, reported, zeros, shared, zeros, measured, *materials)
        for i in np.flatnonzero(np.array(verdict.pair_passes) != honest):
            failures.append(f"{variant} verdict disagrees with the oracle frame at shared={shared[i]} "
                            f"outcome={outcome[i]} reported={reported[i]} measured={measured[i]}")
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
