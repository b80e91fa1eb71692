"""Exact statevector simulation of the quantum primitives used by the protocol.

Conventions, fixed once and used everywhere:

* Basis index = big-endian bit string of qubit indices: qubit 0 is the most
  significant bit, so a 2-qubit amplitude vector is ordered |00>, |01>, |10>, |11>.
* Bell states: ``bell(a, b) = (|0>|b> + (-1)^a |1>|1 xor b>) / sqrt(2)``.
  BSM outcomes use the same (a, b) labelling.
* Pauli corrections ``sigma_z^k sigma_x^k'`` are read right to left: the bit
  flip acts first, the phase flip second.
* State equality and Bell-label identification are defined up to global phase.
* All floating comparisons use absolute tolerance ``ATOL`` (1e-9); exact
  algebra on multiples of 1/sqrt(2) leaves only rounding error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

ATOL = 1e-9
DEFAULT_MAX_QUBITS = 24
SQRT_HALF = 2.0 ** -0.5
_MAX_UNIFORM = 1.0 - 2.0 ** -32  # the largest uniform a 32-bit draw gives


class InvalidTargetError(ValueError):
    """A measurement or gate addressed an illegal qubit combination."""


class NotProductError(ValueError):
    """The qubit is entangled with the rest of the register."""


class OwnershipError(ValueError):
    """An actor touched a qubit it does not own or that is in transit."""


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
        return _BELL_LABELS[index]


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
        return _BSM_OUTCOMES[index]


@dataclass(frozen=True)
class PauliFrame:
    """Exponents (k, k') of the correction sigma_z^k sigma_x^k'."""

    k: int
    k_prime: int

    def __post_init__(self) -> None:
        _check_bit(self.k, "k")
        _check_bit(self.k_prime, "k_prime")


@dataclass(eq=False)
class QubitHandle:
    """Reference to one qubit slot of a register, with ownership bookkeeping.

    At most one owner per slot at any simulated time; ownership changes only
    through physical transit (a message) or explicit protocol bookkeeping.
    """

    index: int
    owner: object = None
    in_transit: bool = False
    register: object = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QubitHandle(index={self.index}, owner={self.owner!r}, in_transit={self.in_transit})"


_BELL_LABELS = tuple(BellLabel((i >> 1) & 1, i & 1) for i in range(4))
_BSM_OUTCOMES = tuple(BsmOutcome((i >> 1) & 1, i & 1) for i in range(4))


def _bell_array(a: int, b: int) -> np.ndarray:
    vec = np.zeros(4, dtype=complex)
    vec[b] = SQRT_HALF
    vec[2 | (1 ^ b)] = ((-1.0) ** a) * SQRT_HALF
    return vec


# Row o = Bell state with label index o; rows are real and orthonormal, so the
# same matrix serves as the change-of-basis for both kets and bras.
BELL_MATRIX = np.stack([_bell_array(o >> 1, o & 1) for o in range(4)]).real

HADAMARD_BASIS = np.array([[SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]])

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PLUS = np.array([SQRT_HALF, SQRT_HALF], dtype=complex)
MINUS = np.array([SQRT_HALF, -SQRT_HALF], dtype=complex)


def hadamard_eigenstate(bit: int) -> np.ndarray:
    """|+> for bit 0, |-> for bit 1."""
    _check_bit(bit, "bit")
    return MINUS.copy() if bit else PLUS.copy()


def frame_matrix(frame: PauliFrame) -> np.ndarray:
    """Single-qubit matrix sigma_z^k sigma_x^k' (bit flip first)."""
    mat = np.eye(2, dtype=complex)
    if frame.k_prime:
        mat = PAULI_X @ mat
    if frame.k:
        mat = PAULI_Z @ mat
    return mat


class StateVector:
    """Pure state of a small qubit register.

    The squared norm is validated to within ``ATOL`` on every construction,
    i.e. after every operation, and the register size is capped (default 24
    qubits) to keep runs desk-scale.
    """

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, amplitudes: Sequence[complex] | np.ndarray, *, check: bool = True):
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0 or amps.size & (amps.size - 1):
            raise ValueError("amplitude vector length must be a power of two")
        n = int(amps.size.bit_length() - 1)
        if n > DEFAULT_MAX_QUBITS:
            raise ValueError(f"register of {n} qubits exceeds the configured maximum {DEFAULT_MAX_QUBITS}")
        if check:
            norm_sq = float(np.vdot(amps, amps).real)
            if abs(norm_sq - 1.0) > ATOL:
                raise ValueError(f"state not normalized: |psi|^2 = {norm_sq!r}")
        object.__setattr__(self, "num_qubits", n)
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("StateVector is immutable")

    def tensor(self, other: "StateVector") -> "StateVector":
        """Append ``other``'s qubits after this register's (higher indices)."""
        return StateVector(np.kron(self.amplitudes, other.amplitudes), check=False)

    def probability_of(self, basis_index: int) -> float:
        return float(abs(self.amplitudes[basis_index]) ** 2)


def _index_of(qubit: "int | QubitHandle") -> int:
    return qubit.index if isinstance(qubit, QubitHandle) else int(qubit)


def _two_qubit_matrixed(state: StateVector, q1: int, q2: int) -> np.ndarray:
    """View of the amplitudes as a (4, rest) matrix with (q1, q2) leading."""
    n = state.num_qubits
    tensor = state.amplitudes.reshape([2] * n)
    tensor = np.moveaxis(tensor, (q1, q2), (0, 1))
    return tensor.reshape(4, -1)


def _restore_two_qubit(mat: np.ndarray, q1: int, q2: int, n: int) -> np.ndarray:
    tensor = mat.reshape([2, 2] + [2] * (n - 2))
    tensor = np.moveaxis(tensor, (0, 1), (q1, q2))
    return np.ascontiguousarray(tensor).reshape(-1)


def _one_qubit_matrixed(state: StateVector, q: int) -> np.ndarray:
    n = state.num_qubits
    tensor = state.amplitudes.reshape([2] * n)
    return np.moveaxis(tensor, q, 0).reshape(2, -1)


def _restore_one_qubit(mat: np.ndarray, q: int, n: int) -> np.ndarray:
    tensor = mat.reshape([2] + [2] * (n - 1))
    tensor = np.moveaxis(tensor, 0, q)
    return np.ascontiguousarray(tensor).reshape(-1)


def make_bell(label: BellLabel) -> StateVector:
    """Two-qubit Bell state (|0>|b> + (-1)^a |1>|1 xor b>)/sqrt(2)."""
    return StateVector(_bell_array(label.a, label.b), check=False)


def apply_single(state: StateVector, qubit: "int | QubitHandle", matrix: np.ndarray) -> StateVector:
    q = _index_of(qubit)
    n = state.num_qubits
    if not 0 <= q < n:
        raise InvalidTargetError(f"qubit {q} not in register of {n}")
    mat = _one_qubit_matrixed(state, q)
    return StateVector(_restore_one_qubit(np.asarray(matrix, dtype=complex) @ mat, q, n), check=False)


def apply_pauli(state: StateVector, qubit: "int | QubitHandle", frame: PauliFrame) -> StateVector:
    """Apply sigma_z^k sigma_x^k' to one qubit (bit flip first, then phase flip)."""
    return apply_single(state, qubit, frame_matrix(frame))


def pauli_frame_from(shared: BellLabel, outcome: BsmOutcome) -> PauliFrame:
    """Correction exponents left on the receiver half: (k, k') = shared xor outcome.

    Componentwise XOR of the shared label (a, b) with the BSM outcome
    (first, second); exact because every state involved is a stabilizer
    state, so the teleported correction is a Pauli product.
    """
    return PauliFrame(shared.a ^ outcome.first, shared.b ^ outcome.second)


def swap_label(shared1: BellLabel, shared2: BellLabel, outcome: BsmOutcome) -> BellLabel:
    """Bell label of the outer pair after a BSM on the two inner halves.

    Componentwise XOR of both channel labels with the outcome; verified
    against the exhaustive brute-force oracle in the test suite.
    """
    return BellLabel(shared1.a ^ shared2.a ^ outcome.first, shared1.b ^ shared2.b ^ outcome.second)


def _pick_outcome(probs: np.ndarray, u: float) -> int:
    total = probs.sum()
    if total <= 0.0:
        raise InvalidTargetError("all projection norms vanished")
    cum = np.cumsum(probs / total)
    idx = int(np.searchsorted(cum, u, side="right"))
    idx = min(idx, len(probs) - 1)
    while probs[idx] <= 0.0:  # never sample a zero-norm projection
        idx -= 1
    return idx


def project_bell(state: StateVector, q1, q2, outcome: BsmOutcome) -> tuple[float, StateVector]:
    """Project (q1, q2) onto one Bell state; returns (probability, post state).

    Raises InvalidTargetError on a zero-probability projection.
    """
    i1, i2 = _index_of(q1), _index_of(q2)
    if i1 == i2:
        raise InvalidTargetError("Bell projection targets must be distinct qubits")
    n = state.num_qubits
    mat = _two_qubit_matrixed(state, i1, i2)
    amp = BELL_MATRIX[outcome.index] @ mat
    prob = float(np.vdot(amp, amp).real)
    if prob <= ATOL:
        raise InvalidTargetError(f"projection onto Bell outcome {outcome} has zero probability")
    collapsed = BELL_MATRIX[outcome.index][:, None] * (amp / np.sqrt(prob))[None, :]
    return prob, StateVector(_restore_two_qubit(collapsed, i1, i2, n), check=False)


def bsm_probabilities(state: StateVector, q1, q2) -> np.ndarray:
    """Born probabilities of the four Bell outcomes on (q1, q2)."""
    i1, i2 = _index_of(q1), _index_of(q2)
    if i1 == i2:
        raise InvalidTargetError("BSM targets must be distinct qubits")
    mat = _two_qubit_matrixed(state, i1, i2)
    amps = BELL_MATRIX @ mat
    return np.einsum("oi,oi->o", amps.conj(), amps).real


def bsm(state: StateVector, q1, q2, rng: np.random.Generator) -> tuple[BsmOutcome, StateVector]:
    """Bell state measurement of (q1, q2).

    The outcome (a, b) is sampled with Born probabilities and labelled with
    the same convention as ``make_bell``; the post state is renormalized with
    the measured pair left in the corresponding Bell state.
    """
    i1, i2 = _index_of(q1), _index_of(q2)
    if i1 == i2:
        raise InvalidTargetError("BSM targets must be distinct qubits")
    n = state.num_qubits
    mat = _two_qubit_matrixed(state, i1, i2)
    amps = BELL_MATRIX @ mat
    probs = np.einsum("oi,oi->o", amps.conj(), amps).real
    idx = _pick_outcome(probs, float(rng.random()))
    collapsed = BELL_MATRIX[idx][:, None] * (amps[idx] / np.sqrt(probs[idx]))[None, :]
    outcome = BsmOutcome.from_index(idx)
    return outcome, StateVector(_restore_two_qubit(collapsed, i1, i2, n), check=False)


def project_hadamard(state: StateVector, qubit, bit: int) -> tuple[float, StateVector]:
    """Project one qubit onto |+> (bit 0) or |-> (bit 1)."""
    _check_bit(bit, "bit")
    q = _index_of(qubit)
    n = state.num_qubits
    mat = _one_qubit_matrixed(state, q)
    amp = HADAMARD_BASIS[bit] @ mat
    prob = float(np.vdot(amp, amp).real)
    if prob <= ATOL:
        raise InvalidTargetError("projection onto the requested Hadamard eigenstate has zero probability")
    collapsed = HADAMARD_BASIS[bit][:, None].astype(complex) * (amp / np.sqrt(prob))[None, :]
    return prob, StateVector(_restore_one_qubit(collapsed, q, n), check=False)


def hadamard_measure(state: StateVector, qubit, rng: np.random.Generator) -> tuple[int, StateVector]:
    """Projective measurement in {|+>, |->}; returns 0 for |+>, 1 for |->."""
    q = _index_of(qubit)
    n = state.num_qubits
    mat = _one_qubit_matrixed(state, q)
    amps = HADAMARD_BASIS @ mat
    probs = np.einsum("oi,oi->o", amps.conj(), amps).real
    bit = _pick_outcome(probs, float(rng.random()))
    collapsed = HADAMARD_BASIS[bit][:, None].astype(complex) * (amps[bit] / np.sqrt(probs[bit]))[None, :]
    return bit, StateVector(_restore_one_qubit(collapsed, q, n), check=False)


def teleport(
    state: StateVector,
    payload,
    sender_half,
    shared: BellLabel,
    rng: np.random.Generator,
) -> tuple[BsmOutcome, PauliFrame, StateVector]:
    """Teleport the payload qubit over a Bell channel prepared as ``shared``.

    Performs a BSM on (payload, sender half) and returns the outcome, the
    correction frame left on the receiver half, and the post-BSM state where
    the receiver half carries sigma_z^k sigma_x^k' |payload> up to global phase.
    """
    outcome, post = bsm(state, payload, sender_half, rng)
    return outcome, pauli_frame_from(shared, outcome), post


def entanglement_swap(
    state: StateVector,
    mid1,
    mid2,
    shared1: BellLabel,
    shared2: BellLabel,
    rng: np.random.Generator,
) -> tuple[BsmOutcome, BellLabel, StateVector]:
    """BSM on the inner halves of two Bell pairs, entangling the outer qubits.

    Returns the measurement outcome, the Bell label of the resulting outer
    pair (valid up to global phase), and the collapsed state.
    """
    outcome, post = bsm(state, mid1, mid2, rng)
    return outcome, swap_label(shared1, shared2, outcome), post


def reduced_qubit_state(state: StateVector, qubit) -> np.ndarray:
    """Pure state of one qubit, if it is unentangled with the rest.

    Raises NotProductError when the Schmidt rank across the cut exceeds one
    beyond tolerance 1e-9.
    """
    q = _index_of(qubit)
    mat = _one_qubit_matrixed(state, q)
    if mat.shape[1] == 1:
        return mat[:, 0].copy()
    left, singulars, _ = np.linalg.svd(mat, full_matrices=False)
    if singulars.size > 1 and singulars[1] > ATOL:
        raise NotProductError(f"qubit {q} is entangled with the remainder (second Schmidt value {singulars[1]:.3e})")
    return left[:, 0] * singulars[0]


def fidelity(state: StateVector, qubit, target: np.ndarray) -> float:
    """|<target | reduced state of qubit>|^2 for a product-state qubit."""
    target = np.asarray(target, dtype=complex)
    norm = float(np.vdot(target, target).real)
    if abs(norm - 1.0) > ATOL:
        raise ValueError("target state must be normalized")
    reduced = reduced_qubit_state(state, qubit)
    return float(abs(np.vdot(target, reduced)) ** 2)


def states_equal(a: np.ndarray, b: np.ndarray, tol: float = ATOL) -> bool:
    """Equality of two pure states up to global phase."""
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    if a.shape != b.shape:
        return False
    return bool(abs(abs(np.vdot(a, b)) - 1.0) <= tol)


def bell_label_of(amplitudes: np.ndarray, tol: float = ATOL) -> BellLabel:
    """Identify a 2-qubit state with one of the four Bell labels, up to phase."""
    vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if vec.size != 4:
        raise ValueError("expected a 2-qubit state")
    overlaps = np.abs(BELL_MATRIX @ vec)
    idx = int(np.argmax(overlaps))
    if abs(overlaps[idx] - 1.0) > tol:
        raise ValueError(f"state is not a Bell state (best overlap {overlaps[idx]:.6f})")
    return BellLabel.from_index(idx)


def random_qubit_state(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random single-qubit pure state (normalized Gaussian pair)."""
    vec = rng.normal(size=2) + 1j * rng.normal(size=2)
    return vec / np.linalg.norm(vec)


class Register:
    """Mutable qubit register handing out QubitHandles, one logical thread per trial.

    A thin stateful wrapper over the functional operations above; quantum
    sampling consumes the trial generator in the order the operations run.
    """

    def __init__(self, rng: np.random.Generator | None = None, max_qubits: int = DEFAULT_MAX_QUBITS):
        self.rng = rng
        self.max_qubits = max_qubits
        self.state: StateVector | None = None
        self.handles: list[QubitHandle] = []

    @property
    def num_qubits(self) -> int:
        return len(self.handles)

    def _grow(self, amplitudes: np.ndarray, count: int, owners: Sequence[object]) -> list[QubitHandle]:
        if self.num_qubits + count > self.max_qubits:
            raise ValueError(f"register would exceed the configured maximum of {self.max_qubits} qubits")
        block = StateVector(amplitudes)
        self.state = block if self.state is None else self.state.tensor(block)
        new = [QubitHandle(index=self.num_qubits + i, owner=owners[i], register=self) for i in range(count)]
        self.handles.extend(new)
        return new

    def add_qubit(self, amplitudes: np.ndarray, owner: object = None) -> QubitHandle:
        return self._grow(np.asarray(amplitudes, dtype=complex), 1, [owner])[0]

    def add_bell(self, label: BellLabel, owner_first: object = None, owner_second: object = None):
        h1, h2 = self._grow(_bell_array(label.a, label.b), 2, [owner_first, owner_second])
        return h1, h2

    def _check_ownership(self, handle: QubitHandle, by: object) -> None:
        if handle.register is not self:
            raise OwnershipError("handle belongs to a different register")
        if handle.in_transit:
            raise OwnershipError(f"qubit {handle.index} is in transit and cannot be operated on")
        if by is not None and handle.owner != by:
            raise OwnershipError(f"qubit {handle.index} is owned by {handle.owner!r}, not {by!r}")

    def bsm(self, h1: QubitHandle, h2: QubitHandle, by: object = None) -> BsmOutcome:
        self._check_ownership(h1, by)
        self._check_ownership(h2, by)
        outcome, self.state = bsm(self.state, h1, h2, self.rng)
        return outcome

    def project_bell(self, h1: QubitHandle, h2: QubitHandle, outcome: BsmOutcome, by: object = None) -> float:
        self._check_ownership(h1, by)
        self._check_ownership(h2, by)
        prob, self.state = project_bell(self.state, h1, h2, outcome)
        return prob

    def hadamard_measure(self, handle: QubitHandle, by: object = None) -> int:
        self._check_ownership(handle, by)
        bit, self.state = hadamard_measure(self.state, handle, self.rng)
        return bit

    def apply_frame(self, handle: QubitHandle, frame: PauliFrame, by: object = None) -> None:
        self._check_ownership(handle, by)
        self.state = apply_pauli(self.state, handle, frame)

    def fidelity(self, handle: QubitHandle, target: np.ndarray) -> float:
        return fidelity(self.state, handle, target)


def _pick_rows(probs: np.ndarray, uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row outcome by inverse CDF, and the renormalized probabilities.

    Like ``_pick_outcome``: probabilities <= ``ATOL`` (rounding residue of
    impossible outcomes) are zeroed first, and a row picks the first outcome
    whose cumulative probability exceeds its uniform, which therefore has
    nonzero probability for every uniform in [0, 1]. Raises
    InvalidTargetError if all of a row's probabilities vanish.
    """
    probs = np.where(probs > ATOL, probs, 0.0)
    cum = np.cumsum(probs, axis=1)
    total = cum[:, -1:]
    if not total.all():
        raise InvalidTargetError("all projection norms vanished")
    # Below 1 by more than rounding, so the last cumulative value always exceeds the target.
    target = np.minimum(np.asarray(uniforms), _MAX_UNIFORM)[:, None] * total
    return np.argmax(cum > target, axis=1), probs / total


class BatchRegister:
    """Vectorized simulation of many independent, identically laid-out registers.

    One row per register; every operation acts on all rows at once with
    per-row parameters and per-row uniform draws supplied by the caller.
    Semantically equivalent to running ``Register`` row by row (covered by an
    equivalence test); used by the protocol engine so a Monte Carlo trial
    costs a fixed number of array operations regardless of the pair count.
    """

    def __init__(self, batch_size: int, max_qubits: int = DEFAULT_MAX_QUBITS):
        self.batch_size = batch_size
        self.max_qubits = max_qubits
        self.states: np.ndarray | None = None  # (batch, 2**num_qubits)
        self.handles: list[QubitHandle] = []
        self._rows = np.arange(batch_size)

    @property
    def num_qubits(self) -> int:
        return len(self.handles)

    def _grow(self, block: np.ndarray, count: int, owners: Sequence[object]) -> list[QubitHandle]:
        if self.num_qubits + count > self.max_qubits:
            raise ValueError(f"register would exceed the configured maximum of {self.max_qubits} qubits")
        norms = np.einsum("bi,bi->b", block.conj(), block).real
        if np.abs(norms - 1.0).max() > ATOL:
            raise ValueError("appended block is not normalized")
        if self.states is None:
            self.states = np.ascontiguousarray(block, dtype=complex)
        else:
            self.states = np.einsum("bi,bj->bij", self.states, block).reshape(self.batch_size, -1)
        new = [QubitHandle(index=self.num_qubits + i, owner=owners[i]) for i in range(count)]
        self.handles.extend(new)
        return new

    def append_qubit(self, amplitudes: np.ndarray, owner: object = None) -> QubitHandle:
        """Append one fresh qubit per row; amplitudes shaped (batch, 2) or (2,)."""
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.ndim == 1:
            amps = np.broadcast_to(amps, (self.batch_size, 2))
        return self._grow(amps, 1, [owner])[0]

    def append_hadamard_eigenstates(self, bits: np.ndarray, owner: object = None) -> QubitHandle:
        """Append |+>/|-> per row according to ``bits``."""
        return self.append_qubit(HADAMARD_BASIS[np.asarray(bits, dtype=np.intp)].astype(complex), owner)

    def append_bell(self, labels: np.ndarray, owner_first: object = None, owner_second: object = None):
        """Append one Bell pair per row; ``labels`` are label indices (batch,)."""
        idx = np.asarray(labels, dtype=np.intp)
        block = BELL_MATRIX[idx].astype(complex)
        h1, h2 = self._grow(block, 2, [owner_first, owner_second])
        return h1, h2

    def _matrixed(self, qubits: tuple[int, ...]) -> tuple[np.ndarray, list[int]]:
        """Rows as (batch, 2**len(qubits), rest) matrices with ``qubits`` leading, and the axis order used."""
        n = self.num_qubits
        order = [0, *(1 + q for q in qubits), *(1 + q for q in range(n) if q not in qubits)]
        tensor = self.states.reshape([self.batch_size] + [2] * n).transpose(order)
        return tensor.reshape(self.batch_size, 2 ** len(qubits), -1), order

    def _restore(self, mats: np.ndarray, order: list[int]) -> None:
        """Store matrices laid out by ``_matrixed(...)`` back as the row states."""
        tensor = mats.reshape([self.batch_size] + [2] * self.num_qubits)
        self.states = tensor.transpose(np.argsort(order)).reshape(self.batch_size, -1)

    def bsm(self, h1: QubitHandle, h2: QubitHandle, uniforms: np.ndarray) -> np.ndarray:
        """Per-row Bell measurement; returns outcome indices (batch,)."""
        if h1.index == h2.index:
            raise InvalidTargetError("BSM targets must be distinct qubits")
        mats, order = self._matrixed((h1.index, h2.index))
        amps = np.matmul(BELL_MATRIX, mats)
        outcomes, probs = _pick_rows((amps.real * amps.real + amps.imag * amps.imag).sum(axis=2), uniforms)
        rows = self._rows
        chosen = amps[rows, outcomes, :] / np.sqrt(probs[rows, outcomes])[:, None]
        self._restore(BELL_MATRIX[outcomes][:, :, None] * chosen[:, None, :], order)
        return outcomes

    def hadamard_measure(self, handle: QubitHandle, uniforms: np.ndarray) -> np.ndarray:
        """Per-row measurement in {|+>, |->}; returns bits (batch,)."""
        mats, order = self._matrixed((handle.index,))
        amps = np.matmul(HADAMARD_BASIS, mats)
        bits, probs = _pick_rows((amps.real * amps.real + amps.imag * amps.imag).sum(axis=2), uniforms)
        rows = self._rows
        chosen = amps[rows, bits, :] / np.sqrt(probs[rows, bits])[:, None]
        self._restore(HADAMARD_BASIS[bits][:, :, None].astype(complex) * chosen[:, None, :], order)
        return bits

    def row_state(self, row: int) -> StateVector:
        return StateVector(self.states[row])
