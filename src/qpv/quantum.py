"""Exact statevector simulation of the quantum primitives used by the protocol.

One engine, :class:`BatchRegister`, holds many independent registers as rows
(a single register is the one-row case); the Bell/Pauli bookkeeping the
verifiers need is XOR on 2-bit labels (``pauli_frame_from``, ``swap_label``).

Layout: amplitudes are stored batch-last, one contiguous ``(2**live, rows)``
array over the live (unmeasured) qubits in handle order: float64, as every
state the protocol makes is real, or complex128 once a complex payload joins.
A measurement moves its qubits' axes to the front, applies the real basis
matrix as one float64 GEMM (on a complex array, over its float view) and keeps
each row's outcome slice. Every measurement in the protocol is final, so a
measurement consumes its qubits: they leave the array, and any later
operation on one raises InvalidTargetError. ``BatchRegister.states`` is a
view of the array, ``(rows, 2**live)``, for tests and oracles.

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
    """Per-row outcome by inverse CDF, and the renormalized probabilities; ``probs`` is (outcomes, rows).

    Probabilities <= ``ATOL`` (rounding residue of impossible outcomes) are
    zeroed first, and a row picks the first outcome whose cumulative
    probability exceeds its uniform, which therefore has nonzero probability
    for every uniform in [0, 1]. The running sums never decrease, so that
    outcome is the count of sums at or below the uniform. Raises
    InvalidTargetError if all of a row's probabilities vanish.
    """
    probs = np.where(probs > ATOL, probs, 0.0)
    cum = np.cumsum(probs, axis=0)
    total = cum[-1]
    if not total.all():
        raise InvalidTargetError("all projection norms vanished")
    # Below 1 by more than rounding, so the last cumulative value always exceeds the target.
    target = np.minimum(np.asarray(uniforms), _MAX_UNIFORM) * total
    return (cum[:-1] <= target).sum(axis=0), probs / total


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
    the pair count. A single register is the one-row case. Operations check
    quantum locality: a qubit in transit cannot be touched, and when ``by`` is
    given, only its owner may touch it. A measured qubit cannot be touched
    again. The amplitude layout is described in the module docstring.
    """

    def __init__(self, batch_size: int):
        self.batch_size = batch_size
        self.handles: list[QubitHandle] = []
        self._amps = np.ones((1, batch_size))  # (2**len(_live), batch), C-contiguous; no qubit yet
        self._live: list[int] = []  # qubit index of each leading axis of _amps, ascending
        self._rows = np.arange(batch_size)

    @property
    def num_qubits(self) -> int:
        return len(self.handles)

    @property
    def states(self) -> np.ndarray | None:
        """Row states over the unmeasured qubits, (batch, 2**live) in handle order; None before the first qubit.

        A view of the amplitudes, so a write to it changes the register.
        """
        return self._amps.T if self.handles else None

    def _grow(self, block: np.ndarray, count: int, owners: Sequence[object]) -> list[QubitHandle]:
        expected = (self.batch_size, 2 ** count)
        if block.shape != expected:
            raise ValueError(f"appended block has shape {block.shape}, expected {expected}")
        norms = np.einsum("bi,bi->b", block.conj(), block).real
        if np.abs(norms - 1.0).max() > ATOL:
            raise ValueError("appended block is not normalized")
        self._amps = (self._amps[:, None, :] * np.ascontiguousarray(block.T)).reshape(-1, self.batch_size)
        new = [QubitHandle(index=self.num_qubits + i, owner=owners[i]) for i in range(count)]
        self.handles.extend(new)
        self._live.extend(handle.index for handle in new)
        return new

    def append_qubit(self, amplitudes: np.ndarray, owner: object = None) -> QubitHandle:
        """Append one fresh qubit per row; amplitudes shaped (batch, 2) or (2,), real or complex."""
        amps = np.asarray(amplitudes)
        amps = amps.astype(np.result_type(amps, np.float64), copy=False)
        if amps.ndim == 1:
            amps = np.broadcast_to(amps, (self.batch_size, amps.size))
        return self._grow(amps, 1, [owner])[0]

    def append_hadamard_eigenstates(self, bits: np.ndarray, owner: object = None) -> QubitHandle:
        """Append |+>/|-> per row according to ``bits``."""
        return self.append_qubit(HADAMARD_BASIS[np.asarray(bits, dtype=np.intp)], owner)

    def append_bell(self, labels: np.ndarray, owner_first: object = None, owner_second: object = None):
        """Append one Bell pair per row; ``labels`` are label indices (batch,)."""
        return tuple(self._grow(BELL_MATRIX[np.asarray(labels, dtype=np.intp)], 2, [owner_first, owner_second]))

    def _check_access(self, handle: QubitHandle, by: object) -> None:
        if not (handle.index < len(self.handles) and self.handles[handle.index] is handle):
            raise OwnershipError("handle belongs to a different register")
        if handle.in_transit:
            raise OwnershipError(f"qubit {handle.index} is in transit and cannot be operated on")
        if by is not None and handle.owner != by:
            raise OwnershipError(f"qubit {handle.index} is owned by {handle.owner!r}, not {by!r}")
        if handle.index not in self._live:
            raise InvalidTargetError(f"qubit {handle.index} was measured and left the register")

    def _measure(self, basis: np.ndarray, handles: tuple[QubitHandle, ...], by: object,
                 uniforms: np.ndarray | None = None, outcomes: np.ndarray | None = None):
        """Measure ``handles`` in the orthonormal real ``basis`` (one row per outcome) and collapse.

        Samples each row's outcome from ``uniforms``, or forces ``outcomes``
        (InvalidTargetError when a forced outcome has probability <= ATOL).
        The measured qubits leave the register. Returns the outcomes and their
        probabilities (renormalized when sampled).
        """
        for handle in handles:
            self._check_access(handle, by)
        if len(handles) == 2 and handles[0].index == handles[1].index:
            raise InvalidTargetError("measurement targets must be distinct qubits")
        qubits = [handle.index for handle in handles]
        # A real basis acts on real and imaginary parts alike: one float GEMM on the float view.
        mats = _leading(self._amps, self._live, qubits)
        projected = (basis @ mats.view(np.float64)).view(mats.dtype).reshape(len(basis), -1, self.batch_size)
        if projected.dtype == np.float64:
            probs = (projected * projected).sum(axis=1)
        else:
            probs = (projected.real * projected.real + projected.imag * projected.imag).sum(axis=1)
        if outcomes is None:
            outcomes, probs = _pick_rows(probs, uniforms)
            picked = probs[outcomes, self._rows]
        else:
            outcomes = np.asarray(outcomes, dtype=np.intp)
            picked = probs[outcomes, self._rows]
            if (picked <= ATOL).any():
                raise InvalidTargetError("projection onto a forced outcome has zero probability")
        chosen = np.take_along_axis(projected, outcomes[None, None, :], axis=0)[0]
        # numpy divides a complex by a real as a product with its reciprocal; a real array takes the same product
        self._amps = chosen * (1.0 / np.sqrt(picked))
        self._live = [q for q in self._live if q not in qubits]
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
        axis = self._live.index(handle.index)
        zero, one = np.moveaxis(self._amps.reshape([2] * len(self._live) + [-1]), axis, 0)
        zero, one = np.where(k_prime, one, zero), np.where(k_prime, zero, one)
        self._amps = np.stack([zero, np.where(k, -one, one)], axis=axis).reshape(self._amps.shape)

    def reduced_state(self, handle: QubitHandle) -> np.ndarray:
        """Each row's pure state of one qubit, (batch, 2), defined up to phase.

        Raises NotProductError when the qubit is entangled with the rest of a
        row (second Schmidt value above ``ATOL``).
        """
        self._check_access(handle, None)
        mats = _leading(self._amps, self._live, [handle.index]).reshape(2, -1, self.batch_size).transpose(2, 0, 1)
        left, singulars, _ = np.linalg.svd(mats, full_matrices=False)
        if singulars.shape[1] > 1 and singulars[:, 1].max() > ATOL:
            raise NotProductError(f"qubit {handle.index} is entangled with the rest of a row "
                                  f"(second Schmidt value {singulars[:, 1].max():.3e})")
        return left[:, :, 0] * singulars[:, :1]
