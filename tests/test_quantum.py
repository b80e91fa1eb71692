"""Unit and property tests for the statevector core."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpv import oracles, quantum
from qpv.quantum import (
    ATOL,
    BatchRegister,
    BellLabel,
    BsmOutcome,
    HADAMARD_BASIS,
    InvalidTargetError,
    NotProductError,
    OwnershipError,
    PauliFrame,
    Register,
    StateVector,
    MINUS,
    PLUS,
    SQRT_HALF,
    apply_pauli,
    bell_label_of,
    bsm,
    bsm_probabilities,
    entanglement_swap,
    fidelity,
    hadamard_eigenstate,
    hadamard_measure,
    make_bell,
    pauli_frame_from,
    project_bell,
    swap_label,
    teleport,
)

ALL_LABELS = [BellLabel.from_index(i) for i in range(4)]
ALL_OUTCOMES = [BsmOutcome.from_index(i) for i in range(4)]


class FixedRng:
    """Deterministic stand-in feeding preset uniforms to sampling calls."""

    def __init__(self, values):
        self._values = list(values)

    def random(self, size=None):
        if size is None:
            return self._values.pop(0)
        return np.array([self._values.pop(0) for _ in range(size)])


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
        state = make_bell(BellLabel(a, b))
        np.testing.assert_allclose(state.amplitudes, np.array(expected, dtype=complex), atol=ATOL)

    def test_all_labels_normalized_and_orthogonal(self):
        vectors = [make_bell(lab).amplitudes for lab in ALL_LABELS]
        gram = np.array([[np.vdot(u, v) for v in vectors] for u in vectors])
        np.testing.assert_allclose(gram, np.eye(4), atol=ATOL)


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector([1.0, 1.0])

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError, match="power of two"):
            StateVector([1.0, 0.0, 0.0])

    def test_immutable(self):
        state = make_bell(BellLabel(0, 0))
        with pytest.raises(AttributeError):
            state.num_qubits = 5

    def test_register_cap(self):
        reg = Register(max_qubits=2)
        reg.add_bell(BellLabel(0, 0))
        with pytest.raises(ValueError, match="maximum"):
            reg.add_qubit(PLUS)

    def test_global_cap(self, monkeypatch):
        monkeypatch.setattr(quantum, "DEFAULT_MAX_QUBITS", 1)
        with pytest.raises(ValueError, match="exceeds"):
            StateVector([0.5, 0.5, 0.5, 0.5])


class TestBsm:
    def test_bell_state_projects_onto_itself(self):
        for label in ALL_LABELS:
            state = make_bell(label)
            outcome, post = bsm(state, 0, 1, np.random.default_rng(0))
            assert (outcome.first, outcome.second) == (label.a, label.b)
            np.testing.assert_allclose(bsm_probabilities(state, 0, 1)[label.index], 1.0, atol=ATOL)
            assert oracles.equal_up_to_phase(post.amplitudes, state.amplitudes)

    def test_plus_plus_distribution(self):
        state = StateVector(np.kron(PLUS, PLUS))
        probs = bsm_probabilities(state, 0, 1)
        np.testing.assert_allclose(probs, [0.5, 0.5, 0.0, 0.0], atol=ATOL)
        np.testing.assert_allclose(probs, oracles.bell_projection_norms(np.kron(PLUS, PLUS)), atol=ATOL)

    def test_payload_with_bell_half_uniform(self):
        # 100 random payloads: implementation probabilities match the
        # brute-force projection norms and all equal 1/4.
        rng = np.random.default_rng(11)
        for _ in range(100):
            payload = quantum.random_qubit_state(rng)
            for label in ALL_LABELS:
                state = StateVector(payload).tensor(make_bell(label))
                probs = bsm_probabilities(state, 0, 1)
                expected = oracles.bsm_norms_payload_with_bell_half(payload, label.a, label.b)
                np.testing.assert_allclose(probs, expected, atol=ATOL)
                np.testing.assert_allclose(probs, 0.25, atol=ATOL)

    def test_same_qubit_rejected(self):
        state = make_bell(BellLabel(0, 0))
        with pytest.raises(InvalidTargetError):
            bsm(state, 0, 0, np.random.default_rng(0))

    def test_projector_symmetric_in_argument_order(self):
        rng = np.random.default_rng(3)
        payload = quantum.random_qubit_state(rng)
        state = StateVector(payload).tensor(make_bell(BellLabel(1, 0)))
        np.testing.assert_allclose(
            bsm_probabilities(state, 0, 1), bsm_probabilities(state, 1, 0), atol=ATOL
        )

    def test_zero_norm_outcome_never_sampled(self):
        state = StateVector(np.kron(PLUS, PLUS))
        for u in np.linspace(0.0, 0.999, 21):
            outcome, _ = bsm(state, 0, 1, FixedRng([u]))
            assert outcome.first == 0


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
        frame = pauli_frame_from(BellLabel(*shared), BsmOutcome(*outcome))
        assert (frame.k, frame.k_prime) == expected

    def test_table_matches_oracle_everywhere(self):
        for shared in ALL_LABELS:
            for outcome in ALL_OUTCOMES:
                frame = pauli_frame_from(shared, outcome)
                assert (frame.k, frame.k_prime) == oracles.frame_oracle(shared, outcome)

    def test_bit_validation(self):
        with pytest.raises(ValueError):
            PauliFrame(2, 0)
        with pytest.raises(ValueError):
            BellLabel(0, -1)


class TestApplyPauli:
    def test_bit_flip(self):
        state = StateVector([1.0, 0.0])
        flipped = apply_pauli(state, 0, PauliFrame(0, 1))
        np.testing.assert_allclose(flipped.amplitudes, [0.0, 1.0], atol=ATOL)

    def test_phase_flip_on_plus(self):
        state = StateVector(PLUS)
        flipped = apply_pauli(state, 0, PauliFrame(1, 0))
        np.testing.assert_allclose(flipped.amplitudes, MINUS, atol=ATOL)

    def test_plus_invariant_under_bit_flip(self):
        state = StateVector(PLUS)
        same = apply_pauli(state, 0, PauliFrame(0, 1))
        np.testing.assert_allclose(same.amplitudes, state.amplitudes, atol=ATOL)


class TestHadamardMeasure:
    def test_plus_eigenstate_deterministic(self):
        state = StateVector(PLUS)
        for u in (0.01, 0.5, 0.99):
            bit, post = hadamard_measure(state, 0, FixedRng([u]))
            assert bit == 0
            np.testing.assert_allclose(post.amplitudes, PLUS, atol=ATOL)

    def test_zero_state_even_split(self):
        state = StateVector([1.0, 0.0])
        probs = [abs(np.vdot(hadamard_eigenstate(b), state.amplitudes)) ** 2 for b in (0, 1)]
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=ATOL)
        rng = np.random.default_rng(5)
        counts = sum(hadamard_measure(state, 0, rng)[0] for _ in range(2000))
        assert abs(counts / 2000 - 0.5) < 3 * np.sqrt(0.25 / 2000)

    def test_phase_flipped_plus_reads_minus(self):
        state = apply_pauli(StateVector(PLUS), 0, PauliFrame(1, 0))
        bit, _ = hadamard_measure(state, 0, FixedRng([0.7]))
        assert bit == 1


class TestTeleport:
    def test_forced_outcome_gives_minus(self):
        reg = Register()
        payload = reg.add_qubit(PLUS)
        sender, receiver = reg.add_bell(BellLabel(0, 0))
        reg.project_bell(payload, sender, BsmOutcome(1, 0))
        assert abs(reg.fidelity(receiver, MINUS) - 1.0) < ATOL

    def test_identity_frame_outcome(self):
        rng = np.random.default_rng(21)
        payload_vec = quantum.random_qubit_state(rng)
        reg = Register()
        payload = reg.add_qubit(payload_vec)
        sender, receiver = reg.add_bell(BellLabel(0, 0))
        reg.project_bell(payload, sender, BsmOutcome(0, 0))
        assert abs(reg.fidelity(receiver, payload_vec) - 1.0) < ATOL

    def test_sampled_teleport_returns_matching_frame(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            payload_vec = quantum.random_qubit_state(rng)
            shared = ALL_LABELS[rng.integers(0, 4)]
            reg = Register(rng=rng)
            payload = reg.add_qubit(payload_vec)
            sender, receiver = reg.add_bell(shared)
            outcome, frame, post = teleport(reg.state, payload, sender, shared, rng)
            assert frame == pauli_frame_from(shared, outcome)
            expected = oracles.expected_receiver_state(payload_vec, frame.k, frame.k_prime)
            received = quantum.reduced_qubit_state(post, receiver)
            assert oracles.equal_up_to_phase(received, expected)

    def test_round_trip_all_combinations(self):
        # inverse correction sigma_x^k' sigma_z^k restores the payload exactly
        payloads = oracles.random_payloads(10, seed=33)
        for shared in ALL_LABELS:
            for outcome in ALL_OUTCOMES:
                frame = pauli_frame_from(shared, outcome)
                for payload_vec in payloads:
                    reg = Register()
                    payload = reg.add_qubit(payload_vec)
                    sender, receiver = reg.add_bell(shared)
                    reg.project_bell(payload, sender, outcome)
                    reg.apply_frame(receiver, PauliFrame(0, frame.k_prime))
                    reg.apply_frame(receiver, PauliFrame(frame.k, 0))
                    assert abs(reg.fidelity(receiver, payload_vec) - 1.0) < ATOL


class TestEntanglementSwap:
    def test_identity_channels_echo_outcome(self):
        for outcome in ALL_OUTCOMES:
            label = swap_label(BellLabel(0, 0), BellLabel(0, 0), outcome)
            assert (label.a, label.b) == (outcome.first, outcome.second)

    def test_exhaustive_label_oracle(self):
        for shared1 in ALL_LABELS:
            for shared2 in ALL_LABELS:
                for outcome in ALL_OUTCOMES:
                    expected = oracles.swap_outer_label_oracle(shared1, shared2, outcome)
                    assert swap_label(shared1, shared2, outcome) == expected

    def test_sampled_swap_collapses_outer_pair(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            shared1 = ALL_LABELS[rng.integers(0, 4)]
            shared2 = ALL_LABELS[rng.integers(0, 4)]
            reg = Register(rng=rng)
            outer1, mid1 = reg.add_bell(shared1)
            mid2, outer2 = reg.add_bell(shared2)
            outcome, label, post = entanglement_swap(reg.state, mid1, mid2, shared1, shared2, rng)
            prob, _ = project_bell(post, outer1, outer2, BsmOutcome(label.a, label.b))
            assert abs(prob - 1.0) < ATOL

    def test_bell_label_of(self):
        for label in ALL_LABELS:
            assert bell_label_of(make_bell(label).amplitudes) == label
        with pytest.raises(ValueError, match="not a Bell state"):
            bell_label_of(np.array([1.0, 0, 0, 0], dtype=complex))


class TestFidelity:
    def test_identical(self):
        assert abs(fidelity(StateVector(PLUS), 0, PLUS) - 1.0) < ATOL

    def test_orthogonal(self):
        assert fidelity(StateVector(PLUS), 0, MINUS) < ATOL

    def test_half_overlap(self):
        assert abs(fidelity(StateVector([1.0, 0.0]), 0, PLUS) - 0.5) < ATOL

    def test_entangled_qubit_rejected(self):
        state = make_bell(BellLabel(0, 0))
        with pytest.raises(NotProductError):
            fidelity(state, 0, PLUS)

    def test_unnormalized_target_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            fidelity(StateVector(PLUS), 0, np.array([1.0, 1.0]))


class TestInvariants:
    def test_normalization_preserved_through_random_circuits(self):
        rng = np.random.default_rng(9)
        reg = Register(rng=rng)
        reg.add_bell(BellLabel(1, 0))
        reg.add_bell(BellLabel(0, 1))
        reg.add_qubit(quantum.random_qubit_state(rng))
        reg.bsm(reg.handles[1], reg.handles[2])
        reg.hadamard_measure(reg.handles[4])
        norm = float(np.vdot(reg.state.amplitudes, reg.state.amplitudes).real)
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
        payload = batch.append_qubit(quantum.random_qubit_state(rng))
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
                base = apply_pauli(StateVector(hadamard_eigenstate(psi_bit)), 0, PauliFrame(k, 0))
                flipped = apply_pauli(StateVector(hadamard_eigenstate(psi_bit)), 0, PauliFrame(k, 1))
                np.testing.assert_allclose(np.abs(base.amplitudes), np.abs(flipped.amplitudes), atol=ATOL)
                bit_a, _ = hadamard_measure(base, 0, FixedRng([0.4]))
                bit_b, _ = hadamard_measure(flipped, 0, FixedRng([0.4]))
                assert bit_a == bit_b

    def test_determinism_same_seed(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            reg = Register(rng=rng)
            payload = reg.add_qubit(quantum.random_qubit_state(rng))
            sender, receiver = reg.add_bell(BellLabel(0, 0))
            outcome = reg.bsm(payload, sender)
            bit = reg.hadamard_measure(receiver)
            return outcome, bit, reg.state.amplitudes.copy()

        outcome_a, bit_a, amps_a = run(99)
        outcome_b, bit_b, amps_b = run(99)
        assert outcome_a == outcome_b and bit_a == bit_b
        np.testing.assert_array_equal(amps_a, amps_b)


class TestOwnership:
    def test_foreign_owner_rejected(self):
        reg = Register(rng=np.random.default_rng(0))
        h1, h2 = reg.add_bell(BellLabel(0, 0), owner_first="alice", owner_second="bob")
        with pytest.raises(OwnershipError):
            reg.hadamard_measure(h1, by="bob")

    def test_in_transit_rejected(self):
        reg = Register(rng=np.random.default_rng(0))
        h1, _ = reg.add_bell(BellLabel(0, 0))
        h1.in_transit = True
        with pytest.raises(OwnershipError, match="transit"):
            reg.hadamard_measure(h1)


class TestBatchRegister:
    def test_matches_single_register_rows(self):
        # identical uniforms row by row must give identical outcomes/states
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
            reg = Register()
            h1, h2 = reg.add_bell(BellLabel.from_index(int(labels[row])))
            hp = reg.add_qubit(hadamard_eigenstate(int(payload_bits[row])))
            outcome, state = bsm(reg.state, hp, h1, FixedRng([u_bsm[row]]))
            bit, state = hadamard_measure(state, h2, FixedRng([u_meas[row]]))
            assert outcome.index == outcomes[row]
            assert bit == bits[row]
            np.testing.assert_allclose(state.amplitudes, batch.states[row], atol=ATOL)

    def test_norms_preserved(self):
        batch = BatchRegister(5)
        batch.append_bell(np.arange(5, dtype=np.intp) % 4)
        batch.append_qubit(PLUS)
        batch.bsm(batch.handles[2], batch.handles[0], np.full(5, 0.4))
        norms = np.einsum("bi,bi->b", batch.states.conj(), batch.states).real
        np.testing.assert_allclose(norms, 1.0, atol=ATOL)


def hadamard_probability(amplitudes: np.ndarray, qubit: int, bit: int) -> float:
    n = amplitudes.size.bit_length() - 1
    mat = np.moveaxis(amplitudes.reshape([2] * n), qubit, 0).reshape(2, -1)
    return float(np.linalg.norm(HADAMARD_BASIS[bit] @ mat) ** 2)


UNIFORMS = st.sampled_from([0.0, 0.5, 1.0 - 2.0 ** -32, 1.0]) | st.floats(0.0, 1.0)


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
        for row in range(len(rows)):
            state = StateVector(before[row])
            assert bsm_probabilities(state, q1, q2)[outcomes[row]] > ATOL
            _, post = project_bell(state, q1, q2, BsmOutcome.from_index(int(outcomes[row])))
            np.testing.assert_allclose(post.amplitudes, middle[row], atol=ATOL)
            assert hadamard_probability(middle[row], q3, int(bits[row])) > ATOL
            np.testing.assert_allclose(np.linalg.norm(batch.states[row]), 1.0, atol=ATOL)

    def test_vanished_row_rejected(self):
        batch = BatchRegister(2)
        first, second = batch.append_bell(np.zeros(2, dtype=np.intp))
        batch.states[1] = 0.0
        with pytest.raises(InvalidTargetError, match="vanished"):
            batch.bsm(first, second, np.zeros(2))
        with pytest.raises(InvalidTargetError, match="vanished"):
            batch.hadamard_measure(first, np.zeros(2))
