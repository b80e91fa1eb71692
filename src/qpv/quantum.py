"""Exact statevector simulation of the quantum primitives used by the protocol.

One engine, :class:`BatchRegister`, holds many independent registers as rows
(a single register is the one-row case); the Bell/Pauli bookkeeping the
verifiers need is XOR on 2-bit labels (``pauli_frame_from``, ``swap_label``).

Layout: amplitudes are stored batch-last, one contiguous ``(2**live, rows)``
complex array over the live qubits. A measurement moves its qubits' axes to
the front and applies the real basis matrix as one float64 GEMM on the float
view. The measured qubits are then in a known basis state in every row, so
they are factored out of the live array and kept as ``(qubits, basis,
outcomes)``; touching one again (a re-measurement, ``apply_frame``,
``reduced_state``) multiplies its group back in. ``BatchRegister.states``
gives the dense ``(rows, 2**num_qubits)`` state in handle order, for tests
and oracles: a view while no qubit is factored out, else a product copy.

Conventions, fixed once and used everywhere:

* Basis index = big-endian bit string of qubit indices: qubit 0 is the most
  significant bit, so a 2-qubit amplitude vector is ordered |00>, |01>, |10>, |11>.
* Bell states: ``bell(a, b) = (|0>|b> + (-1)^a |1>|1 xor b>) / sqrt(2)``.
  BSM outcomes use the same (a, b) labelling. Both are the int ``2a + b``.
* Pauli corrections ``sigma_z^k sigma_x^k'`` are read right to left: the bit
  flip acts first, the phase flip second. A correction is the int ``2k + k'``.
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


@dataclass(eq=False)
class QubitHandle:
    """Reference to one qubit slot of a register, with ownership bookkeeping.

    At most one owner per slot at any simulated time; ownership changes only
    through physical transit (a message) or explicit protocol bookkeeping.
    """

    index: int
    owner: object = None
    in_transit: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QubitHandle(index={self.index}, owner={self.owner!r}, in_transit={self.in_transit})"


# Row o = 2a + b is bell(a, b); rows are real and orthonormal, so the same
# matrix serves as the change-of-basis for both kets and bras.
BELL_MATRIX = SQRT_HALF * np.array([
    [1.0, 0.0, 0.0, 1.0],
    [0.0, 1.0, 1.0, 0.0],
    [1.0, 0.0, 0.0, -1.0],
    [0.0, 1.0, -1.0, 0.0],
])

HADAMARD_BASIS = np.array([[SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]])


def is_label(value) -> bool:
    """True for an int in 0..3, the 2a + b form of a Bell label, BSM outcome or Pauli frame."""
    return isinstance(value, (int, np.integer)) and 0 <= value <= 3


def pauli_frame_from(shared, outcome):
    """Correction 2k + k' left on the receiver half: the shared label xor the BSM outcome.

    Exact because every state involved is a stabilizer state, so the
    teleported correction is a Pauli product. Works on ints and int arrays.
    """
    return shared ^ outcome


def swap_label(shared1, shared2, outcome):
    """Bell label of the outer pair after a BSM on the two inner halves: all three xored.

    Verified against the exhaustive brute-force oracle in the test suite.
    Works on ints and int arrays.
    """
    return shared1 ^ shared2 ^ outcome


def _pick_rows(probs: np.ndarray, uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row outcome by inverse CDF, and the renormalized probabilities.

    Probabilities <= ``ATOL`` (rounding residue of impossible outcomes) are
    zeroed first, and a row picks the first outcome whose cumulative
    probability exceeds its uniform, which therefore has nonzero probability
    for every uniform in [0, 1]. Raises InvalidTargetError if all of a row's
    probabilities vanish.
    """
    probs = np.where(probs > ATOL, probs, 0.0)
    cum = np.cumsum(probs, axis=1)
    total = cum[:, -1:]
    if not total.all():
        raise InvalidTargetError("all projection norms vanished")
    # Below 1 by more than rounding, so the last cumulative value always exceeds the target.
    target = np.minimum(np.asarray(uniforms), _MAX_UNIFORM)[:, None] * total
    return np.argmax(cum > target, axis=1), probs / total


def _joined(amps: np.ndarray, live: list[int], groups) -> tuple[np.ndarray, list[int]]:
    """``amps`` over the qubits ``live`` with each factored ``(qubits, basis, outcomes)`` group multiplied in.

    Returns the product amplitudes, batch-last, and their qubits in ascending order.
    """
    axes = list(live)
    for qubits, basis, outcomes in groups:
        amps = (basis.T[:, outcomes][:, None, :] * amps[None, :, :]).reshape(-1, amps.shape[-1])
        axes = [*qubits, *axes]
    order = [*np.argsort(axes), len(axes)]
    tensor = amps.reshape([2] * len(axes) + [-1]).transpose(order)
    return np.ascontiguousarray(tensor).reshape(-1, amps.shape[-1]), sorted(axes)


def _leading(amps: np.ndarray, live: list[int], qubits: list[int]) -> np.ndarray:
    """``amps`` with the axes of ``qubits`` moved to the front, as a contiguous (2**len(qubits), -1) array."""
    lead = [live.index(q) for q in qubits]
    order = [*lead, *(axis for axis in range(len(live)) if axis not in lead), len(live)]
    tensor = amps.reshape([2] * len(live) + [-1]).transpose(order)
    return np.ascontiguousarray(tensor).reshape(2 ** len(qubits), -1)


class BatchRegister:
    """Statevector simulation of many independent, identically laid-out registers.

    One row per register; every operation acts on all rows at once with
    per-row parameters and per-row uniform draws supplied by the caller, so a
    Monte Carlo trial costs a fixed number of array operations regardless of
    the pair count. A single register is the one-row case. Measurements check
    quantum locality: a qubit in transit cannot be touched, and when ``by`` is
    given, only its owner may measure it. The amplitude layout and the
    factoring of measured qubits are described in the module docstring.
    """

    def __init__(self, batch_size: int, max_qubits: int = DEFAULT_MAX_QUBITS):
        self.batch_size = batch_size
        self.max_qubits = max_qubits
        self.handles: list[QubitHandle] = []
        self._amps: np.ndarray | None = None  # (2**len(_live), batch), C-contiguous
        self._live: list[int] = []  # qubit index of each leading axis of _amps, ascending
        self._factored: dict[int, tuple] = {}  # qubit -> its group (qubits, basis, outcomes)
        self._rows = np.arange(batch_size)

    @property
    def num_qubits(self) -> int:
        return len(self.handles)

    @property
    def states(self) -> np.ndarray | None:
        """Dense row states, (batch, 2**num_qubits) in handle order; None before the first qubit.

        A view of the amplitudes while no qubit is factored out, else a product copy.
        """
        if self._amps is None:
            return None
        return self._expanded(self._factored)[0].T

    def _expanded(self, qubits) -> tuple[np.ndarray, list[int], list[int]]:
        """Amplitudes and live qubits with the groups holding ``qubits`` multiplied back in.

        Also returns the qubits so restored. Leaves the register as it is: a
        caller that succeeds stores the result with ``_store``.
        """
        groups = {id(group): group for group in map(self._factored.get, qubits) if group is not None}
        if not groups:
            return self._amps, self._live, []
        amps, live = _joined(self._amps, self._live, groups.values())
        return amps, live, [q for group in groups.values() for q in group[0]]

    def _store(self, amps: np.ndarray, live: list[int], restored: list[int]) -> None:
        for q in restored:
            del self._factored[q]
        self._amps, self._live = amps, live

    def _grow(self, block: np.ndarray, count: int, owners: Sequence[object]) -> list[QubitHandle]:
        if self.num_qubits + count > self.max_qubits:
            raise ValueError(f"register would exceed the configured maximum of {self.max_qubits} qubits")
        expected = (self.batch_size, 2 ** count)
        if block.shape != expected:
            raise ValueError(f"appended block has shape {block.shape}, expected {expected}")
        norms = np.einsum("bi,bi->b", block.conj(), block).real
        if np.abs(norms - 1.0).max() > ATOL:
            raise ValueError("appended block is not normalized")
        if self._amps is None:
            self._amps = np.ascontiguousarray(block.T, dtype=complex)
        else:
            self._amps = (self._amps[:, None, :] * np.ascontiguousarray(block.T)).reshape(-1, self.batch_size)
        new = [QubitHandle(index=self.num_qubits + i, owner=owners[i]) for i in range(count)]
        self.handles.extend(new)
        self._live.extend(handle.index for handle in new)
        return new

    def append_qubit(self, amplitudes: np.ndarray, owner: object = None) -> QubitHandle:
        """Append one fresh qubit per row; amplitudes shaped (batch, 2) or (2,)."""
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.ndim == 1:
            amps = np.broadcast_to(amps, (self.batch_size, amps.size))
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

    def _check_access(self, handle: QubitHandle, by: object) -> None:
        if not (handle.index < len(self.handles) and self.handles[handle.index] is handle):
            raise OwnershipError("handle belongs to a different register")
        if handle.in_transit:
            raise OwnershipError(f"qubit {handle.index} is in transit and cannot be operated on")
        if by is not None and handle.owner != by:
            raise OwnershipError(f"qubit {handle.index} is owned by {handle.owner!r}, not {by!r}")

    def _measure(self, basis: np.ndarray, handles: tuple[QubitHandle, ...], by: object,
                 uniforms: np.ndarray | None = None, outcomes: np.ndarray | None = None):
        """Measure ``handles`` in the orthonormal real ``basis`` (one row per outcome) and collapse.

        Samples each row's outcome from ``uniforms``, or forces ``outcomes``
        (InvalidTargetError when a forced outcome has probability <= ATOL).
        The measured qubits are factored out. Returns the outcomes and their
        probabilities (renormalized when sampled).
        """
        for handle in handles:
            self._check_access(handle, by)
        if len(handles) == 2 and handles[0].index == handles[1].index:
            raise InvalidTargetError("measurement targets must be distinct qubits")
        qubits = [handle.index for handle in handles]
        amps, live, restored = self._expanded(qubits)
        # A real basis acts on real and imaginary parts alike: one float GEMM on the float view.
        mats = _leading(amps, live, qubits).view(np.float64)
        projected = (basis @ mats).view(complex).reshape(len(basis), -1, self.batch_size)
        probs = (projected.real * projected.real + projected.imag * projected.imag).sum(axis=1)
        rows = self._rows
        if outcomes is None:
            outcomes, probs = _pick_rows(probs.T, uniforms)
            picked = probs[rows, outcomes]
        else:
            outcomes = np.asarray(outcomes, dtype=np.intp)
            picked = probs[outcomes, rows]
            if (picked <= ATOL).any():
                raise InvalidTargetError("projection onto a forced outcome has zero probability")
        chosen = np.take_along_axis(projected, outcomes[None, None, :], axis=0)[0]
        # numpy divides a complex by a real as a product with its reciprocal: the same values, faster
        self._store(chosen * (1.0 / np.sqrt(picked)), [q for q in live if q not in qubits], restored)
        group = (tuple(qubits), basis, outcomes.copy())  # the caller may change the returned outcomes
        for q in qubits:
            self._factored[q] = group
        return outcomes, picked

    def bsm(self, h1: QubitHandle, h2: QubitHandle, uniforms: np.ndarray, by: object = None) -> np.ndarray:
        """Per-row Bell measurement of (h1, h2); returns outcome indices (batch,).

        The outcome (a, b) labels the Bell state the pair is left in, with the
        same convention as ``append_bell``.
        """
        return self._measure(BELL_MATRIX, (h1, h2), by, uniforms=uniforms)[0]

    def project_bell(self, h1: QubitHandle, h2: QubitHandle, outcomes: np.ndarray, by: object = None) -> np.ndarray:
        """Project each row's (h1, h2) onto the Bell state ``outcomes[row]``; returns the probabilities."""
        return self._measure(BELL_MATRIX, (h1, h2), by, outcomes=outcomes)[1]

    def hadamard_measure(self, handle: QubitHandle, uniforms: np.ndarray, by: object = None) -> np.ndarray:
        """Per-row measurement in {|+>, |->}; returns bits (batch,), 0 for |+>."""
        return self._measure(HADAMARD_BASIS, (handle,), by, uniforms=uniforms)[0]

    def apply_frame(self, handle: QubitHandle, k, k_prime, by: object = None) -> None:
        """Apply sigma_z^k sigma_x^k' to one qubit per row: the bit flip, then the phase flip.

        ``k`` and ``k_prime`` are bits, one for all rows or one per row.
        """
        self._check_access(handle, by)
        k, k_prime = np.asarray(k, dtype=np.intp), np.asarray(k_prime, dtype=np.intp)
        if ((k | k_prime) & ~1).any():
            raise ValueError("frame exponents k and k_prime must be 0 or 1")
        amps, live, restored = self._expanded([handle.index])
        axis = live.index(handle.index)
        zero, one = np.moveaxis(amps.reshape([2] * len(live) + [-1]), axis, 0)
        zero, one = np.where(k_prime, one, zero), np.where(k_prime, zero, one)
        self._store(np.stack([zero, np.where(k, -one, one)], axis=axis).reshape(amps.shape), live, restored)

    def reduced_state(self, handle: QubitHandle) -> np.ndarray:
        """Each row's pure state of one qubit, (batch, 2), defined up to phase.

        Raises NotProductError when the qubit is entangled with the rest of a
        row (second Schmidt value above ``ATOL``).
        """
        amps, live, _ = self._expanded([handle.index])
        mats = _leading(amps, live, [handle.index]).reshape(2, -1, self.batch_size).transpose(2, 0, 1)
        left, singulars, _ = np.linalg.svd(mats, full_matrices=False)
        if singulars.shape[1] > 1 and singulars[:, 1].max() > ATOL:
            raise NotProductError(f"qubit {handle.index} is entangled with the rest of a row "
                                  f"(second Schmidt value {singulars[:, 1].max():.3e})")
        return left[:, :, 0] * singulars[:, :1]
