"""Tests for the counter-based generator and the draws built on it."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpv.analysis import trial_keys, trial_seed
from qpv.philox import check_seed, philox4x32, seed_keys
from qpv.protocol import ProtocolConfig, TrialCore

WORD = st.integers(0, 2 ** 32 - 1)
MASK = 0xFFFFFFFF


def reference_philox(counter, key):
    """Philox4x32-10 on Python ints, written from the round function in Salmon et al. (SC'11)."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for _ in range(10):
        p0, p1 = 0xD2511F53 * c0, 0xCD9E8D57 * c2
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & MASK, (p0 >> 32) ^ c3 ^ k1, p0 & MASK
        k0, k1 = (k0 + 0x9E3779B9) & MASK, (k1 + 0xBB67AE85) & MASK
    return c0, c1, c2, c3


def words(values):
    return tuple(int(value) for value in values)


class TestPhilox:
    # Random123's known-answer vectors for philox4x32_10: (counter, key, output).
    @pytest.mark.parametrize("counter,key,expected", [
        ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
        ((MASK,) * 4, (MASK, MASK), (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
        ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
         (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
    ])
    def test_known_answers(self, counter, key, expected):
        assert words(philox4x32(counter, key)) == expected
        assert reference_philox(counter, key) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(WORD, WORD, WORD, WORD), st.tuples(WORD, WORD))
    def test_matches_reference(self, counter, key):
        assert words(philox4x32(counter, key)) == reference_philox(counter, key)

    def test_arrays_match_reference_lane_by_lane(self):
        rng = np.random.default_rng(3)
        counter = rng.integers(0, 2 ** 32, size=(4, 3, 5), dtype=np.uint64)
        key = rng.integers(0, 2 ** 32, size=(2, 1, 5), dtype=np.uint64)  # broadcast over axis 1
        out = philox4x32(counter, key)
        assert all(word.shape == (3, 5) and word.dtype == np.uint64 for word in out)
        for i in range(3):
            for j in range(5):
                lane = reference_philox(words(counter[:, i, j]), words(key[:, 0, j]))
                assert tuple(int(word[i, j]) for word in out) == lane


class TestTrialKeys:
    def test_trial_seed_is_one_trial_key(self):
        keys = trial_keys(42, "guess", 3, np.arange(20))
        assert keys.dtype == np.uint64
        assert [trial_seed(42, "guess", 3, i) for i in range(20)] == [int(k) for k in keys]

    def test_documented_derivation(self):
        digest = hashlib.sha256(b"7|honest|2").digest()
        row = int.from_bytes(digest[:8], "big")
        for index in (0, 1, 2 ** 32 + 5):
            low, high, _, _ = reference_philox((index & MASK, index >> 32, 0, 0), (row & MASK, row >> 32))
            assert trial_seed(7, "honest", 2, index) == low | (high << 32)


class TestDraws:
    @pytest.mark.parametrize("n,keys", [(1, [0]), (3, [5, 2 ** 64 - 1, 12345678901234567890])])
    def test_draw_is_documented_philox_word(self, n, keys):
        # Fixed challenges leave every draw to the test; 11 draws span two blocks.
        core = TrialCore(ProtocolConfig(n=n, challenge_states=[0] * n), trial_seeds=keys)
        for d in range(11):
            expected = np.array([reference_philox((i, d // 4, 0, 0), (k & MASK, k >> 32))[d % 4]
                                 for k in keys for i in range(n)], dtype=np.uint64)
            if d % 2:
                np.testing.assert_array_equal(core.sample_uniforms(), expected * 2.0 ** -32)
            else:
                np.testing.assert_array_equal(core.sample_bits(), expected >> np.uint64(31))

    def test_batch_rows_equal_single_trials(self):
        keys = trial_keys(1, "guess", 2, np.arange(6))
        batch = TrialCore(ProtocolConfig(n=2), trial_seeds=keys)
        singles = [TrialCore(ProtocolConfig(n=2), int(key)) for key in keys]
        np.testing.assert_array_equal(batch.challenges, np.concatenate([s.challenges for s in singles]))
        for _ in range(9):
            np.testing.assert_array_equal(batch.sample_uniforms(),
                                          np.concatenate([s.sample_uniforms() for s in singles]))


class TestSeedValidation:
    @pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1, np.uint64(7), np.int64(7)])
    def test_accepted(self, seed):
        assert check_seed(seed) == int(seed)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 10 ** 29, 1.0, "3", None, True])
    def test_rejected_naming_the_seed(self, seed):
        with pytest.raises(ValueError, match=f"seed must be an int in \\[0, 2\\*\\*64\\), got {seed!r}"):
            check_seed(seed)

    def test_every_trial_seed_checked(self):
        with pytest.raises(ValueError, match="-3"):
            seed_keys([1, 2, -3])
        with pytest.raises(ValueError, match="-3"):
            TrialCore(ProtocolConfig(n=1), trial_seeds=[1, -3])
        with pytest.raises(ValueError, match=str(2 ** 64)):
            TrialCore(ProtocolConfig(n=1), 2 ** 64)
