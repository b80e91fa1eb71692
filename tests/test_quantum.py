"""Unit and property tests for the statevector core.

The reference for every register operation is the dense algebra in
:mod:`qpv.oracles`; a single register is a one-row ``BatchRegister``.
"""

import itertools
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpv import oracles
from qpv.quantum import (
    ATOL,
    BatchRegister,
    HADAMARD_BASIS,
    InvalidTargetError,
    NotProductError,
    OwnershipError,
    SQRT_HALF,
    _MAX_UNIFORM,
    _pick_rows,
    pauli_frame_from,
    swap_label,
)

ALL_LABELS = ALL_OUTCOMES = range(4)  # 2a + b
PLUS = oracles.hadamard_state(0)
MINUS = oracles.hadamard_state(1)


def bell_target(index: int) -> np.ndarray:
    return oracles.bell_state(index >> 1, index & 1)


def single(amplitudes) -> tuple[BatchRegister, object]:
    """One-row register holding one qubit."""
    reg = BatchRegister(1)
    return reg, reg.append_qubit(amplitudes)


def fidelity(reg: BatchRegister, handle, target: np.ndarray) -> np.ndarray:
    """|<target | qubit>|^2 per row, for a qubit that is a product state in every row."""
    return np.abs(reg.reduced_state(handle) @ np.asarray(target, dtype=complex).conj()) ** 2


def teleport_register(payloads: np.ndarray, labels) -> tuple[BatchRegister, object, object, object]:
    """Rows of (payload, sender half, receiver half), the layout of a teleport."""
    reg = BatchRegister(len(payloads))
    payload = reg.append_qubit(payloads)
    assert reg.states.dtype == np.result_type(payloads, np.float64)  # a complex payload makes the register complex
    sender, receiver = reg.append_bell(np.broadcast_to(labels, len(payloads)))
    return reg, payload, sender, receiver


def inverse_cdf(probs: np.ndarray, u: float) -> int:
    """First outcome whose cumulative probability exceeds ``u`` (the sampler's rule)."""
    return int(np.argmax(np.cumsum(probs) > u * probs.sum()))


def assert_refused(reg: BatchRegister, operation) -> None:
    """``operation`` touches a measured qubit: InvalidTargetError, and ``states`` stays byte-identical."""
    before = reg.states.tobytes()
    with pytest.raises(InvalidTargetError, match="measured"):
        operation()
    assert reg.states.tobytes() == before


class TestMakeBell:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (0, 0, [SQRT_HALF, 0, 0, SQRT_HALF]),
            (1, 1, [0, SQRT_HALF, -SQRT_HALF, 0]),
            (0, 1, [0, SQRT_HALF, SQRT_HALF, 0]),
        ],
    )
    def test_amplitudes(self, a, b, expected):
        reg = BatchRegister(1)
        reg.append_bell([2 * a + b])
        np.testing.assert_allclose(reg.states[0], np.array(expected, dtype=complex), atol=ATOL)

    def test_all_labels_normalized_and_orthogonal(self):
        reg = BatchRegister(4)
        reg.append_bell(np.arange(4))
        gram = reg.states.conj() @ reg.states.T
        np.testing.assert_allclose(gram, np.eye(4), atol=ATOL)


class TestStateVector:
    """Validation of the row states a register accepts."""

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            single([1.0, 1.0])

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError, match=r"shape \(1, 3\), expected \(1, 2\)"):
            single([1.0, 0.0, 0.0])

    def test_rejects_wide_block(self):
        # a (batch, 4) block is two qubits' worth of amplitudes, not one qubit
        with pytest.raises(ValueError, match=r"expected \(2, 2\)"):
            BatchRegister(2).append_qubit(np.full((2, 4), 0.5))

    def test_rejects_label_count_mismatch(self):
        reg = BatchRegister(2)
        with pytest.raises(ValueError, match=r"shape \(3, 4\), expected \(2, 4\)"):
            reg.append_bell(np.zeros(3, dtype=np.intp))
        assert reg.states is None and reg.num_qubits == 0


class TestBsm:
    def test_bell_state_projects_onto_itself(self):
        forced, sampled = BatchRegister(4), BatchRegister(4)
        np.testing.assert_allclose(forced.project_bell(*forced.append_bell(np.arange(4)), np.arange(4)), 1.0, atol=ATOL)
        outcomes = sampled.bsm(*sampled.append_bell(np.arange(4)), np.full(4, 0.5))
        np.testing.assert_array_equal(outcomes, np.arange(4))
        for row in range(4):
            prob, rest = oracles.dense_project(bell_target(row), bell_target(row), (0, 1))
            assert abs(prob - 1.0) < ATOL
            np.testing.assert_allclose(forced.states[row], rest, atol=ATOL)
            np.testing.assert_allclose(sampled.states[row], rest, atol=ATOL)

    def test_plus_plus_distribution(self):
        state = np.kron(PLUS, PLUS)
        reg = BatchRegister(2)
        q1, q2 = reg.append_qubit(PLUS), reg.append_qubit(PLUS)
        np.testing.assert_allclose(reg.project_bell(q1, q2, [0, 1]), [0.5, 0.5], atol=ATOL)
        for impossible in (2, 3):
            reg = BatchRegister(1)
            q1, q2 = reg.append_qubit(PLUS), reg.append_qubit(PLUS)
            with pytest.raises(InvalidTargetError, match="zero probability"):
                reg.project_bell(q1, q2, [impossible])
        np.testing.assert_allclose(oracles.bell_projection_norms(state), [0.5, 0.5, 0.0, 0.0], atol=ATOL)

    def test_payload_with_bell_half_uniform(self):
        # 100 random payloads: implementation probabilities match the
        # brute-force projection norms and all equal 1/4.
        rng = np.random.default_rng(11)
        payloads = np.array([oracles.random_qubit_state(rng) for _ in range(100)])
        for label in ALL_LABELS:
            expected = np.array([oracles.bsm_norms_payload_with_bell_half(p, label >> 1, label & 1) for p in payloads])
            for outcome in range(4):
                reg, payload, sender, _ = teleport_register(payloads, label)
                probs = reg.project_bell(payload, sender, np.full(100, outcome))
                np.testing.assert_allclose(probs, expected[:, outcome], atol=ATOL)
                np.testing.assert_allclose(probs, 0.25, atol=ATOL)

    def test_same_qubit_rejected(self):
        reg = BatchRegister(1)
        h1, _ = reg.append_bell([0])
        with pytest.raises(InvalidTargetError):
            reg.bsm(h1, h1, [0.5])
        with pytest.raises(InvalidTargetError):
            reg.project_bell(h1, h1, [0])

    def test_projector_symmetric_in_argument_order(self):
        rng = np.random.default_rng(3)
        payloads = np.tile(oracles.random_qubit_state(rng), (4, 1))
        forward, p0, s0, _ = teleport_register(payloads, 0b10)
        backward, p1, s1, _ = teleport_register(payloads, 0b10)
        np.testing.assert_allclose(
            forward.project_bell(p0, s0, np.arange(4)), backward.project_bell(s1, p1, np.arange(4)), atol=ATOL
        )

    def test_zero_norm_outcome_never_sampled(self):
        uniforms = np.linspace(0.0, 0.999, 21)
        reg = BatchRegister(uniforms.size)
        q1, q2 = reg.append_qubit(PLUS), reg.append_qubit(PLUS)
        outcomes = reg.bsm(q1, q2, uniforms)
        assert not (outcomes >> 1).any()


class TestPauliFrame:
    @pytest.mark.parametrize(
        "shared,outcome,expected",
        [
            ((0, 0), (1, 0), (1, 0)),
            ((0, 1), (0, 0), (0, 1)),
            ((1, 1), (1, 1), (0, 0)),
        ],
    )
    def test_table_examples(self, shared, outcome, expected):
        frame = pauli_frame_from(2 * shared[0] + shared[1], 2 * outcome[0] + outcome[1])
        assert (frame >> 1, frame & 1) == expected

    def test_table_matches_oracle_everywhere(self):
        for shared in ALL_LABELS:
            for outcome in ALL_OUTCOMES:
                frame = pauli_frame_from(shared, outcome)
                assert (frame >> 1, frame & 1) == oracles.frame_oracle(shared, outcome)
        shared, outcome = np.array(list(np.ndindex(4, 4))).T  # the array form the verdict uses
        np.testing.assert_array_equal(pauli_frame_from(shared, outcome),
                                      [pauli_frame_from(int(s), int(o)) for s, o in zip(shared, outcome)])

    def test_bit_validation(self):
        reg, q = single(PLUS)
        with pytest.raises(ValueError, match="0 or 1"):
            reg.apply_frame(q, 2, 0)


class TestApplyPauli:
    def test_bit_flip(self):
        reg, q = single([1.0, 0.0])
        reg.apply_frame(q, 0, 1)
        np.testing.assert_allclose(reg.states[0], [0.0, 1.0], atol=ATOL)

    def test_phase_flip_on_plus(self):
        reg, q = single(PLUS)
        reg.apply_frame(q, 1, 0)
        np.testing.assert_allclose(reg.states[0], MINUS, atol=ATOL)

    def test_plus_invariant_under_bit_flip(self):
        reg, q = single(PLUS)
        reg.apply_frame(q, 0, 1)
        np.testing.assert_allclose(reg.states[0], PLUS, atol=ATOL)


class TestHadamardMeasure:
    def test_plus_eigenstate_deterministic(self):
        reg = BatchRegister(3)
        q = reg.append_qubit(PLUS)
        bits = reg.hadamard_measure(q, [0.01, 0.5, 0.99])
        np.testing.assert_array_equal(bits, 0)
        _, rest = oracles.dense_project(PLUS, PLUS, (0,))
        np.testing.assert_allclose(reg.states, np.tile(rest, (3, 1)), atol=ATOL)

    def test_zero_state_even_split(self):
        zero = np.array([1.0, 0.0], dtype=complex)
        probs = [abs(np.vdot(HADAMARD_BASIS[b], zero)) ** 2 for b in (0, 1)]
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=ATOL)
        rng = np.random.default_rng(5)
        reg = BatchRegister(2000)
        counts = reg.hadamard_measure(reg.append_qubit(zero), rng.random(2000)).sum()
        assert abs(counts / 2000 - 0.5) < 3 * np.sqrt(0.25 / 2000)

    def test_phase_flipped_plus_reads_minus(self):
        reg, q = single(PLUS)
        reg.apply_frame(q, 1, 0)
        assert reg.hadamard_measure(q, [0.7])[0] == 1


class TestTeleport:
    def test_forced_outcome_gives_minus(self):
        reg, payload, sender, receiver = teleport_register(np.array([PLUS]), 0b00)
        reg.project_bell(payload, sender, [0b10])
        assert abs(fidelity(reg, receiver, MINUS)[0] - 1.0) < ATOL

    def test_identity_frame_outcome(self):
        rng = np.random.default_rng(21)
        payload_vec = oracles.random_qubit_state(rng)
        reg, payload, sender, receiver = teleport_register(np.array([payload_vec]), 0b00)
        reg.project_bell(payload, sender, [0b00])
        assert abs(fidelity(reg, receiver, payload_vec)[0] - 1.0) < ATOL

    def test_sampled_teleport_returns_matching_frame(self):
        rng = np.random.default_rng(8)
        payloads = np.array([oracles.random_qubit_state(rng) for _ in range(25)])
        labels = rng.integers(0, 4, size=25)
        reg, payload, sender, receiver = teleport_register(payloads, labels)
        outcomes = reg.bsm(payload, sender, rng.random(25))
        received = reg.reduced_state(receiver)
        for row in range(25):
            frame = pauli_frame_from(labels[row], outcomes[row])
            expected = oracles.expected_receiver_state(payloads[row], frame >> 1, frame & 1)
            assert oracles.equal_up_to_phase(received[row], expected)

    def test_round_trip_all_combinations(self):
        # inverse correction sigma_x^k' sigma_z^k restores the payload exactly
        payloads = np.array(oracles.random_payloads(10, seed=33))
        for shared in ALL_LABELS:
            for outcome in ALL_OUTCOMES:
                frame = pauli_frame_from(shared, outcome)
                reg, payload, sender, receiver = teleport_register(payloads, shared)
                reg.project_bell(payload, sender, np.full(10, outcome))
                reg.apply_frame(receiver, 0, frame & 1)
                reg.apply_frame(receiver, frame >> 1, 0)
                fidelities = np.abs(np.einsum("pi,pi->p", payloads.conj(), reg.reduced_state(receiver))) ** 2
                np.testing.assert_allclose(fidelities, 1.0, atol=ATOL)


class TestEntanglementSwap:
    def test_identity_channels_echo_outcome(self):
        for outcome in ALL_OUTCOMES:
            assert swap_label(0b00, 0b00, outcome) == outcome

    def test_exhaustive_label_oracle(self):
        for shared1 in ALL_LABELS:
            for shared2 in ALL_LABELS:
                for outcome in ALL_OUTCOMES:
                    expected = oracles.swap_outer_label_oracle(shared1, shared2, outcome)
                    assert swap_label(shared1, shared2, outcome) == expected

    def test_sampled_swap_collapses_outer_pair(self):
        rng = np.random.default_rng(17)
        labels1, labels2 = rng.integers(0, 4, size=25), rng.integers(0, 4, size=25)
        reg = BatchRegister(25)
        outer1, mid1 = reg.append_bell(labels1)
        mid2, outer2 = reg.append_bell(labels2)
        outcomes = reg.bsm(mid1, mid2, rng.random(25))
        outer = swap_label(labels1, labels2, outcomes)
        np.testing.assert_allclose(reg.project_bell(outer1, outer2, outer), 1.0, atol=ATOL)


class TestFidelity:
    def test_identical(self):
        reg, q = single(PLUS)
        assert abs(fidelity(reg, q, PLUS)[0] - 1.0) < ATOL

    def test_orthogonal(self):
        reg, q = single(PLUS)
        assert fidelity(reg, q, MINUS)[0] < ATOL

    def test_half_overlap(self):
        reg, q = single([1.0, 0.0])
        assert abs(fidelity(reg, q, PLUS)[0] - 0.5) < ATOL

    def test_entangled_qubit_rejected(self):
        reg = BatchRegister(2)
        first, _ = reg.append_bell([0, 3])
        with pytest.raises(NotProductError):
            reg.reduced_state(first)


class TestInvariants:
    def test_normalization_preserved_through_random_circuits(self):
        rng = np.random.default_rng(9)
        reg = BatchRegister(1)
        reg.append_bell([0b10])
        reg.append_bell([0b01])
        reg.append_qubit(oracles.random_qubit_state(rng))
        reg.bsm(reg.handles[1], reg.handles[2], rng.random(1))
        reg.hadamard_measure(reg.handles[4], rng.random(1))
        norm = float(np.vdot(reg.states[0], reg.states[0]).real)
        assert abs(norm - 1.0) < ATOL

    def test_outcome_uniformity_chi_squared(self):
        # 10^4 teleport BSMs over a maximally entangled channel: the four
        # outcomes are equiprobable (chi^2 not rejected at the 3-sigma level).
        from scipy.stats import chi2, norm

        rng = np.random.default_rng(123)
        counts = np.zeros(4, dtype=int)
        batch = BatchRegister(10_000)
        labels = np.zeros(10_000, dtype=np.intp)
        _, sender = batch.append_bell(labels)
        payload = batch.append_qubit(oracles.random_qubit_state(rng))
        outcomes = batch.bsm(payload, sender, rng.random(10_000))
        counts += np.bincount(outcomes, minlength=4)
        statistic = float(((counts - 2500.0) ** 2 / 2500.0).sum())
        p_three_sigma = 2.0 * norm.sf(3.0)
        assert statistic < chi2.isf(p_three_sigma, df=3)

    def test_receiver_ignorance(self):
        # without the outcome, the receiver's Hadamard statistics are 50/50
        rng = np.random.default_rng(77)
        trials = 4000
        batch = BatchRegister(trials)
        receiver, sender = batch.append_bell(np.zeros(trials, dtype=np.intp))
        payload = batch.append_qubit(PLUS)
        batch.bsm(payload, sender, rng.random(trials))
        bits = batch.hadamard_measure(receiver, rng.random(trials))
        assert abs(bits.mean() - 0.5) < 3 * np.sqrt(0.25 / trials)

    def test_bit_flip_invariance_on_hadamard_eigenstates(self):
        for psi_bit in (0, 1):
            for k in (0, 1):
                base, q_base = single(HADAMARD_BASIS[psi_bit])
                base.apply_frame(q_base, k, 0)
                flipped, q_flipped = single(HADAMARD_BASIS[psi_bit])
                flipped.apply_frame(q_flipped, k, 1)
                np.testing.assert_allclose(np.abs(base.states), np.abs(flipped.states), atol=ATOL)
                assert base.hadamard_measure(q_base, [0.4])[0] == flipped.hadamard_measure(q_flipped, [0.4])[0]

    def test_determinism_same_seed(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            reg, payload = single(oracles.random_qubit_state(rng))
            sender, receiver = reg.append_bell([0b00])
            outcome = reg.bsm(payload, sender, rng.random(1))
            bit = reg.hadamard_measure(receiver, rng.random(1))
            return outcome, bit, reg.states.copy()

        outcome_a, bit_a, amps_a = run(99)
        outcome_b, bit_b, amps_b = run(99)
        assert outcome_a == outcome_b and bit_a == bit_b
        np.testing.assert_array_equal(amps_a, amps_b)


class TestOwnership:
    def test_foreign_owner_rejected(self):
        reg = BatchRegister(1)
        h1, h2 = reg.append_bell([0], owner_first="alice", owner_second="bob")
        with pytest.raises(OwnershipError):
            reg.hadamard_measure(h1, [0.5], by="bob")
        with pytest.raises(OwnershipError):
            reg.apply_frame(h1, 1, 0, by="bob")
        assert reg.hadamard_measure(h2, [0.5], by="bob").shape == (1,)

    def test_in_transit_rejected(self):
        reg = BatchRegister(1)
        h1, _ = reg.append_bell([0])
        h1.in_transit = True
        with pytest.raises(OwnershipError, match="transit"):
            reg.hadamard_measure(h1, [0.5])

    def test_batch_measurement_of_in_transit_handle_rejected(self):
        reg = BatchRegister(3)
        h1, h2 = reg.append_bell(np.arange(3), owner_first="alice", owner_second="alice")
        h2.in_transit = True
        before = reg.states.copy()
        with pytest.raises(OwnershipError, match="transit"):
            reg.bsm(h1, h2, np.full(3, 0.5))
        with pytest.raises(OwnershipError, match="transit"):
            reg.project_bell(h1, h2, np.arange(3), by="alice")
        np.testing.assert_array_equal(reg.states, before)

    def test_handle_of_another_register_rejected(self):
        reg, other = BatchRegister(1), BatchRegister(1)
        reg.append_bell([0])
        stranger, _ = other.append_bell([0])
        with pytest.raises(OwnershipError, match="different register"):
            reg.hadamard_measure(stranger, [0.5])


class TestBatchRegister:
    def test_matches_single_register_rows(self):
        # identical uniforms row by row must give the outcomes and states of
        # the dense oracle, computed one row at a time
        rng = np.random.default_rng(42)
        size = 6
        labels = rng.integers(0, 4, size=size)
        payload_bits = rng.integers(0, 2, size=size)
        u_bsm = rng.random(size)
        u_meas = rng.random(size)

        batch = BatchRegister(size)
        first, second = batch.append_bell(labels.astype(np.intp))
        payload = batch.append_hadamard_eigenstates(payload_bits)
        outcomes = batch.bsm(payload, first, u_bsm)
        bits = batch.hadamard_measure(second, u_meas)

        for row in range(size):
            state = np.kron(bell_target(labels[row]), oracles.hadamard_state(payload_bits[row]))
            probs = [oracles.dense_project(state, bell_target(o), (2, 0))[0] for o in range(4)]
            assert inverse_cdf(np.array(probs), u_bsm[row]) == outcomes[row]
            _, state = oracles.dense_project(state, bell_target(outcomes[row]), (2, 0))  # left: qubit 1
            probs = [oracles.dense_project(state, oracles.hadamard_state(b), (0,))[0] for b in (0, 1)]
            assert inverse_cdf(np.array(probs), u_meas[row]) == bits[row]
            _, state = oracles.dense_project(state, oracles.hadamard_state(bits[row]), (0,))
            np.testing.assert_allclose(batch.states[row], state, atol=ATOL)

    def test_norms_preserved(self):
        batch = BatchRegister(5)
        batch.append_bell(np.arange(5, dtype=np.intp) % 4)
        batch.append_qubit(PLUS)
        batch.bsm(batch.handles[2], batch.handles[0], np.full(5, 0.4))
        norms = np.einsum("bi,bi->b", batch.states.conj(), batch.states).real
        np.testing.assert_allclose(norms, 1.0, atol=ATOL)


UNIFORMS = st.sampled_from([0.0, 0.5, 1.0 - 2.0 ** -32, 1.0]) | st.floats(0.0, 1.0)
FIXED_QUBITS = {-1: [1.0, 0.0], -2: [0.0, 1.0], -3: PLUS, -4: MINUS}
MAX_DRAWN_QUBITS = 5


def drawn_qubit(code: int) -> np.ndarray:
    """A basis or Hadamard eigenstate for negative codes, else a seeded random state."""
    if code < 0:
        return np.asarray(FIXED_QUBITS[code], dtype=complex)
    return oracles.random_qubit_state(np.random.default_rng(code))


class TestDenseOracle:
    """Random operation sequences on 1-4 rows against the dense oracle, row by row, phase included.

    Steps may target measured qubits; those must be refused and leave the register as it was.
    """

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_random_sequences_match_oracle(self, data):
        rows = data.draw(st.integers(1, 4), label="rows")

        def per_row(strategy):
            return st.lists(strategy, min_size=rows, max_size=rows)

        reg = BatchRegister(rows)
        dense = [np.ones(1, dtype=complex) for _ in range(rows)]
        live = []  # handle index of each qubit of the dense states, ascending
        for _ in range(data.draw(st.integers(1, 8), label="steps")):
            n = reg.num_qubits
            kinds = [kind for kind, ok in (("bell", n + 2 <= MAX_DRAWN_QUBITS), ("qubit", n < MAX_DRAWN_QUBITS),
                                           ("bsm", n >= 2), ("project_bell", n >= 2),
                                           ("hadamard", n >= 1), ("frame", n >= 1)) if ok]
            kind = data.draw(st.sampled_from(kinds), label="op")
            if kind == "bell":
                labels = data.draw(per_row(st.integers(0, 3)), label="labels")
                reg.append_bell(labels)
                dense = [np.kron(state, bell_target(label)) for state, label in zip(dense, labels)]
                live += [n, n + 1]
            elif kind == "qubit":
                qubits = [drawn_qubit(code) for code in data.draw(per_row(st.integers(-4, 2 ** 16)), label="qubits")]
                reg.append_qubit(np.array(qubits))
                dense = [np.kron(state, qubit) for state, qubit in zip(dense, qubits)]
                live.append(n)
            elif kind == "frame":
                q = data.draw(st.integers(0, n - 1), label="qubit")
                k, k_prime = (np.array(data.draw(per_row(st.integers(0, 1)), label=name)) for name in ("k", "k'"))
                frame = partial(reg.apply_frame, reg.handles[q], k, k_prime)
                if q not in live:
                    assert_refused(reg, frame)
                    continue
                frame()
                dense = [oracles.dense_operator({live.index(q): oracles.pauli_matrix(k[row], k_prime[row])}, len(live))
                         @ dense[row] for row in range(rows)]
            else:
                if kind == "hadamard":
                    qubits = (data.draw(st.integers(0, n - 1), label="qubit"),)
                    targets = [oracles.hadamard_state(bit) for bit in (0, 1)]
                else:
                    qubits = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True),
                                             label="qubits"))
                    targets = [bell_target(o) for o in range(4)]
                handles = [reg.handles[q] for q in qubits]
                if kind == "project_bell":
                    outcomes = np.array(data.draw(per_row(st.integers(0, 3)), label="outcomes"))
                    measure = partial(reg.project_bell, *handles, outcomes)
                else:
                    uniforms = np.array(data.draw(per_row(UNIFORMS), label="uniforms"))
                    measure = partial(reg.bsm if kind == "bsm" else reg.hadamard_measure, *handles, uniforms)
                if not set(qubits) <= set(live):
                    assert_refused(reg, measure)
                    continue
                positions = tuple(map(live.index, qubits))
                if kind == "project_bell":
                    expected = [oracles.dense_project(dense[row], targets[outcomes[row]], positions)[0]
                                for row in range(rows)]
                    if min(expected) <= ATOL:
                        before = reg.states.copy()
                        with pytest.raises(InvalidTargetError, match="zero probability"):
                            measure()
                        np.testing.assert_array_equal(reg.states, before)
                        continue
                    np.testing.assert_allclose(measure(), expected, atol=ATOL)
                else:
                    outcomes = measure()
                for row in range(rows):
                    prob, dense[row] = oracles.dense_project(dense[row], targets[outcomes[row]], positions)
                    assert prob > ATOL
                live = [q for q in live if q not in qubits]
            for row in range(rows):
                np.testing.assert_allclose(reg.states[row], dense[row], atol=ATOL)


class TestBatchSampler:
    """Impossible outcomes come out with probabilities of about 1e-33, not 0; none may be picked."""

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1), UNIFORMS, UNIFORMS),
                         min_size=1, max_size=5),
           order=st.permutations(range(5)))
    def test_sampled_outcome_is_possible(self, rows, order):
        labels_a, labels_b, eigenbits, u_bsm, u_had = (np.array(column) for column in zip(*rows))
        batch = BatchRegister(len(rows))
        batch.append_bell(labels_a.astype(np.intp))
        batch.append_bell(labels_b.astype(np.intp))
        batch.append_hadamard_eigenstates(eigenbits)
        q1, q2, q3 = order[:3]
        before = batch.states.copy()
        outcomes = batch.bsm(batch.handles[q1], batch.handles[q2], u_bsm)
        middle = batch.states.copy()
        bits = batch.hadamard_measure(batch.handles[q3], u_had)
        position = sorted({*range(5)} - {q1, q2}).index(q3)  # of q3 among the qubits the BSM left
        for row in range(len(rows)):
            prob, post = oracles.dense_project(before[row], bell_target(outcomes[row]), (q1, q2))
            assert prob > ATOL
            np.testing.assert_allclose(post, middle[row], atol=ATOL)
            prob, _ = oracles.dense_project(middle[row], oracles.hadamard_state(bits[row]), (position,))
            assert prob > ATOL
            np.testing.assert_allclose(np.linalg.norm(batch.states[row]), 1.0, atol=ATOL)

    @staticmethod
    def argmax_picker(probs, uniforms):
        """The reference rule, rows first: the first outcome whose running sum exceeds the target."""
        probs = np.where(probs > ATOL, probs, 0.0).T
        cum = np.cumsum(probs, axis=1)
        total = cum[:, -1:]
        target = np.minimum(uniforms, _MAX_UNIFORM)[:, None] * total
        return np.argmax(cum > target, axis=1), (probs / total).T

    @pytest.mark.parametrize("outcomes", [2, 4])
    def test_picker_matches_reference_at_the_edges(self, outcomes):
        entries = [0.0, ATOL / 2, 0.25, 0.5, 1.0]
        columns = np.array([column for column in itertools.product(entries, repeat=outcomes) if any(column)])
        columns /= columns.sum(axis=1, keepdims=True)
        # each quarter boundary with its neighbouring floats in [0, 1], and the largest 32-bit draw
        uniforms = sorted({u for k in range(5) for u in (np.nextafter(k / 4, 0.0), k / 4, np.nextafter(k / 4, 1.0))}
                          | {1.0 - 2.0 ** -32})
        probs = np.repeat(columns, len(uniforms), axis=0).T  # (outcomes, rows), every column at every uniform
        draws = np.tile(uniforms, len(columns))
        picked, renormalized = _pick_rows(probs, draws)
        expected, expected_renormalized = self.argmax_picker(probs, draws)
        np.testing.assert_array_equal(picked, expected)
        np.testing.assert_array_equal(renormalized, expected_renormalized)
        assert (probs[picked, np.arange(len(draws))] > ATOL).all()

    @pytest.mark.parametrize("outcomes", [2, 4])
    def test_picker_refuses_vanished_columns(self, outcomes):
        for column in itertools.product([0.0, ATOL / 2, ATOL], repeat=outcomes):
            probs = np.array([[1.0] + [0.0] * (outcomes - 1), column]).T  # a possible row, then a vanished one
            with pytest.raises(InvalidTargetError, match="vanished"):
                _pick_rows(probs, np.array([0.5, 0.5]))

    def test_vanished_row_rejected(self):
        batch = BatchRegister(2)
        first, second = batch.append_bell(np.zeros(2, dtype=np.intp))
        batch.states[1] = 0.0
        with pytest.raises(InvalidTargetError, match="vanished"):
            batch.bsm(first, second, np.zeros(2))
        with pytest.raises(InvalidTargetError, match="vanished"):
            batch.hadamard_measure(first, np.zeros(2))


class TestDtype:
    """A register is float64 while every state in it is real, and complex128 once a complex payload joins."""

    def test_real_states_stay_real(self):
        reg = BatchRegister(4)
        payload = reg.append_qubit([1, 0])
        sender, receiver = reg.append_bell(np.arange(4))
        challenge = reg.append_hadamard_eigenstates([0, 1, 1, 0])
        assert reg.states.dtype == np.float64
        reg.project_bell(payload, sender, [0, 2, 0, 2])
        reg.apply_frame(receiver, [0, 1, 0, 1], [1, 1, 0, 0])
        reg.hadamard_measure(challenge, np.full(4, 0.5))
        assert reg._amps.dtype == reg.states.dtype == np.float64

    def test_complex_payload_joining_a_real_register(self):
        rng = np.random.default_rng(3)
        payloads = np.array([oracles.random_qubit_state(rng) for _ in range(4)])
        reg = BatchRegister(4)
        outer, inner = reg.append_bell(np.arange(4))
        payload = reg.append_qubit(payloads)
        assert reg._amps.dtype == reg.states.dtype == np.complex128
        outcomes = reg.bsm(payload, inner, np.full(4, 0.3))
        received = reg.reduced_state(outer)
        for row in range(4):
            expected = oracles.teleport_receiver_oracle(payloads[row], row, outcomes[row])
            assert oracles.equal_up_to_phase(received[row], expected)


class TestFactoredQubits:
    """A measurement factors its qubits out of the register for good: touching one again is refused."""

    def setup_method(self):
        # rows of a random payload on qubit 0 and bell(label) on qubits 1, 2
        rng = np.random.default_rng(5)
        self.labels = np.array([0, 1, 2, 3])
        self.payloads = np.array([oracles.random_qubit_state(rng) for _ in self.labels])
        self.reg, self.payload, self.sender, self.receiver = teleport_register(self.payloads, self.labels)
        self.dense = [np.kron(payload, bell_target(label)) for label, payload in zip(self.labels, self.payloads)]

    def test_states_is_a_view_after_a_measurement(self):
        self.reg.states[0] *= -1  # a global phase, written through the view
        np.testing.assert_allclose(self.reg.states[0], -self.dense[0], atol=ATOL)
        outcomes = self.reg.bsm(self.payload, self.sender, np.full(4, 0.3))
        assert self.reg.num_qubits == 3 and self.reg.states.shape == (4, 2)
        self.reg.states[1] *= -1  # written through the view again: the register changes
        for row in range(4):
            _, rest = oracles.dense_project(self.dense[row], bell_target(outcomes[row]), (0, 1))
            np.testing.assert_allclose(self.reg.states[row], -rest if row < 2 else rest, atol=ATOL)

    def test_measured_qubit_is_refused(self):
        self.reg.bsm(self.payload, self.sender, np.full(4, 0.6))
        k = np.array([0, 1, 0, 1])
        for handle in (self.payload, self.sender):
            assert_refused(self.reg, partial(self.reg.bsm, handle, self.receiver, np.full(4, 0.5)))
            assert_refused(self.reg, partial(self.reg.project_bell, self.receiver, handle, np.zeros(4, dtype=int)))
            assert_refused(self.reg, partial(self.reg.hadamard_measure, handle, np.full(4, 0.5)))
            assert_refused(self.reg, partial(self.reg.apply_frame, handle, k, 1 - k))
            assert_refused(self.reg, partial(self.reg.reduced_state, handle))
        assert_refused(self.reg, partial(self.reg.bsm, self.payload, self.sender, np.full(4, 0.5)))
        # the unmeasured receiver is still usable
        received = self.reg.reduced_state(self.receiver)
        self.reg.apply_frame(self.receiver, k, 1 - k)
        frame = [oracles.pauli_matrix(k[row], 1 - k[row]) for row in range(4)]
        for row in range(4):
            assert oracles.equal_up_to_phase(self.reg.states[row], frame[row] @ received[row])
        assert self.reg.hadamard_measure(self.receiver, np.full(4, 0.5)).shape == (4,)
        assert self.reg.states.shape == (4, 1)

    def test_qubit_factored_within_a_bell_pair_is_not_a_product(self):
        outcomes = self.reg.bsm(self.payload, self.sender, np.full(4, 0.6))
        with pytest.raises(InvalidTargetError, match="measured"):
            self.reg.reduced_state(self.sender)
        # the receiver now holds the teleported payload, a product state
        received = self.reg.reduced_state(self.receiver)
        for row in range(4):
            frame = pauli_frame_from(self.labels[row], outcomes[row])
            expected = oracles.teleport_receiver_oracle(self.payloads[row], self.labels[row], outcomes[row])
            assert oracles.equal_up_to_phase(received[row], expected)
            assert oracles.equal_up_to_phase(
                expected, oracles.expected_receiver_state(self.payloads[row], frame >> 1, frame & 1))
