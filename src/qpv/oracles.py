"""Brute-force oracles for the quantum primitives.

Everything here recomputes expected results by direct dense linear algebra
(kron products and explicit projections) without going through the register
operations in :mod:`qpv.quantum`, so the two routes stay independent. The
selftest command and the test suite compare the implementation against these.
Labels and outcomes are ints ``2a + b``; each oracle unpacks its own bits.
"""

from __future__ import annotations

import numpy as np

from .quantum import SQRT_HALF

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def bell_state(a: int, b: int) -> np.ndarray:
    """(|0>|b> + (-1)^a |1>|1 xor b>)/sqrt(2) as a plain 4-vector."""
    vec = np.zeros(4, dtype=complex)
    vec[0 * 2 + b] = SQRT_HALF
    vec[1 * 2 + (1 - b)] = ((-1.0) ** a) * SQRT_HALF
    return vec


def hadamard_state(bit: int) -> np.ndarray:
    """|+> for bit 0, |-> for bit 1."""
    return np.array([SQRT_HALF, -SQRT_HALF if bit else SQRT_HALF], dtype=complex)


def pauli_matrix(k: int, k_prime: int) -> np.ndarray:
    """sigma_z^k sigma_x^k' as an explicit product: the bit flip acts first."""
    return np.linalg.matrix_power(PAULI_Z, k) @ np.linalg.matrix_power(PAULI_X, k_prime)


def equal_up_to_phase(u: np.ndarray, v: np.ndarray, tol: float = 1e-9) -> bool:
    u = np.asarray(u, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < tol or nv < tol:
        return nu < tol and nv < tol
    return bool(abs(abs(np.vdot(u, v)) / (nu * nv) - 1.0) <= tol)


def bell_projection_norms(two_qubit_state: np.ndarray) -> np.ndarray:
    """Squared overlaps of a 2-qubit state with the four Bell states."""
    state = np.asarray(two_qubit_state, dtype=complex).reshape(4)
    return np.array([abs(np.vdot(bell_state(o >> 1, o & 1), state)) ** 2 for o in range(4)])


def bsm_norms_payload_with_bell_half(payload: np.ndarray, shared_a: int, shared_b: int) -> np.ndarray:
    """Projection norms for a BSM on (payload, first half of a Bell pair).

    Register layout: qubit 0 payload, qubits 1-2 the Bell pair; the BSM acts
    on qubits (0, 1).
    """
    full = np.kron(np.asarray(payload, dtype=complex), bell_state(shared_a, shared_b))
    tensor = full.reshape(2, 2, 2)
    norms = np.zeros(4)
    for o in range(4):
        bra = bell_state(o >> 1, o & 1).conj().reshape(2, 2)
        residual = np.einsum("ps,psr->r", bra, tensor)
        norms[o] = float(np.vdot(residual, residual).real)
    return norms


def teleport_receiver_oracle(payload: np.ndarray, shared: int, outcome: int) -> np.ndarray:
    """Receiver-half state after a forced BSM outcome, by dense projection.

    Layout: qubit 0 payload, qubit 1 sender half, qubit 2 receiver half; the
    pair (1, 2) starts in the shared Bell state and the BSM projects (0, 1).
    Returns the normalized 2-vector left on qubit 2 (defined up to phase).
    """
    full = np.kron(np.asarray(payload, dtype=complex), bell_state(shared >> 1, shared & 1))
    tensor = full.reshape(2, 2, 2)
    bra = bell_state(outcome >> 1, outcome & 1).conj().reshape(2, 2)
    receiver = np.einsum("ps,psr->r", bra, tensor)
    norm = np.linalg.norm(receiver)
    if norm < 1e-12:
        raise ValueError("forced outcome has zero probability")
    return receiver / norm


def expected_receiver_state(payload: np.ndarray, k: int, k_prime: int) -> np.ndarray:
    """sigma_z^k sigma_x^k' |payload>, computed with explicit matrices."""
    return pauli_matrix(k, k_prime) @ np.asarray(payload, dtype=complex)


def swap_outer_label_oracle(shared1: int, shared2: int, outcome: int) -> int:
    """Outer-pair Bell label after an inner BSM, by dense projection.

    Layout: qubits (0, 1) in the first Bell state, (2, 3) in the second;
    the BSM projects the inner pair (1, 2). The collapsed (0, 3) state is
    matched against the four Bell states up to global phase.
    """
    full = np.kron(bell_state(shared1 >> 1, shared1 & 1), bell_state(shared2 >> 1, shared2 & 1))
    tensor = full.reshape(2, 2, 2, 2)
    bra = bell_state(outcome >> 1, outcome & 1).conj().reshape(2, 2)
    outer = np.einsum("mk,amkd->ad", bra, tensor).reshape(4)
    norm = np.linalg.norm(outer)
    if norm < 1e-12:
        raise ValueError("forced outcome has zero probability")
    outer /= norm
    for idx in range(4):
        if equal_up_to_phase(outer, bell_state(idx >> 1, idx & 1)):
            return idx
    raise ValueError("outer pair did not collapse to a Bell state")


# The correction-exponent table, spelled out as data for the selftest's
# comparison against the live implementation.
FRAME_TABLE = {
    (0, 0): lambda b, bp: (b, bp),
    (0, 1): lambda b, bp: (b, 1 ^ bp),
    (1, 0): lambda b, bp: (1 ^ b, bp),
    (1, 1): lambda b, bp: (1 ^ b, 1 ^ bp),
}


def frame_oracle(shared: int, outcome: int) -> tuple[int, int]:
    """Correction exponents (k, k') for a shared label and a BSM outcome, read from ``FRAME_TABLE``."""
    return FRAME_TABLE[(shared >> 1, shared & 1)](outcome >> 1, outcome & 1)


def random_qubit_state(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random single-qubit pure state (normalized Gaussian pair)."""
    vec = rng.normal(size=2) + 1j * rng.normal(size=2)
    return vec / np.linalg.norm(vec)


def random_payloads(count: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [random_qubit_state(rng) for _ in range(count)]


# Dense reference for whole registers: every operator is an explicit matrix, a
# Kronecker product of single-qubit factors with identities on the untouched
# qubits, so no axis is ever moved.

def dense_operator(factors: dict[int, np.ndarray], num_qubits: int) -> np.ndarray:
    """Kronecker product over qubits 0..num_qubits-1 of ``factors[q]`` (identity where absent)."""
    out = np.ones((1, 1), dtype=complex)
    for q in range(num_qubits):
        out = np.kron(out, factors.get(q, np.eye(2)))
    return out


def dense_bra(target: np.ndarray, qubits: tuple[int, ...], num_qubits: int) -> np.ndarray:
    """<target| on ``qubits`` (big-endian within ``target``) tensored with the identity elsewhere.

    A (2**(num_qubits - len(qubits)), 2**num_qubits) matrix: it maps a state
    to the unnormalized state of the other qubits, in ascending order.
    """
    width = len(qubits)
    bra = np.zeros((2 ** (num_qubits - width), 2 ** num_qubits), dtype=complex)
    for i in np.flatnonzero(target):
        rows = {q: np.eye(2)[[(i >> (width - 1 - pos)) & 1]] for pos, q in enumerate(qubits)}
        bra += np.conj(target[i]) * dense_operator(rows, num_qubits)
    return bra


def dense_project(state: np.ndarray, target: np.ndarray, qubits: tuple[int, ...]) -> tuple[float, np.ndarray]:
    """(probability, normalized state of the other qubits) after projecting ``qubits`` of ``state`` onto ``target``.

    The measured qubits are contracted out; the others keep their ascending
    order. The state is returned unnormalized when the probability is 0.
    """
    num_qubits = state.size.bit_length() - 1
    rest = dense_bra(np.asarray(target, dtype=complex), qubits, num_qubits) @ state
    prob = float(np.vdot(rest, rest).real)
    return prob, (rest / np.sqrt(prob) if prob > 0 else rest)
