"""Tests for the honest protocol, verifier checks, and verdict pooling."""

import dataclasses
import math

import numpy as np
import pytest

from qpv import oracles
from qpv.protocol import (
    MaterialStore,
    ProtocolConfig,
    REASON_OK,
    REASON_TIMING,
    REASON_V1,
    REASON_V2,
    REASONS,
    VARIANT_SINGLE_BIT,
    VARIANT_TWO_BIT,
    Verdict,
    Verdicts,
    announcement,
    deadline,
    judge,
    run_honest,
    transcripts_to_json,
)
from qpv.spacetime import format_event_log


def random_labels(rng, n):
    return [int(i) for i in rng.integers(0, 4, size=n)]


def oracle_k(shared, outcome):
    """Phase-flip exponent of each (shared, outcome) from the independent frame table."""
    return np.array([oracles.frame_oracle(s, o)[0] for s, o in np.broadcast(shared, outcome)])


class TestConfig:
    def test_defaults_valid(self):
        ProtocolConfig().validate()

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(n=0), "n must be"),
            (dict(x=0.0), "x must be"),
            (dict(variant="three_bit"), "variant"),
            (dict(deadline_slack=-1.0), "slack"),
            (dict(n=2, challenge_states=[0]), "length"),
            (dict(n=1, challenge_states=[2]), "challenge_states entry"),
            (dict(n=1, bell_labels_v1=[5]), "bell_labels_v1"),
            (dict(n=2, bell_labels_v2=[0, -1]), "bell_labels_v2"),
            (dict(n=1, bell_labels_v1=[1.0]), "bell_labels_v1"),
            (dict(n=1, bell_labels_v2=["1"]), "bell_labels_v2"),
            (dict(x=math.inf), "x must be"),
            (dict(x=math.nan), "x must be"),
            (dict(x=1e308), "x must be"),  # 2x overflows
            (dict(deadline_slack=math.nan), "slack"),
            (dict(prover_delay=math.nan), "prover_delay"),
            (dict(prover_delay=-0.5), "prover_delay"),
            (dict(n=2.0), "n must be an int, got 2.0"),
            (dict(n=True), "n must be an int, got True"),
            (dict(x="2"), "x must be a number, got '2'"),
            (dict(deadline_slack="0"), "deadline_slack must be a number, got '0'"),
            (dict(prover_delay="0"), "prover_delay must be a number, got '0'"),
            (dict(x=True), "x must be a number, got True"),
            (dict(n=1, bell_labels_v1=[True]), "bell_labels_v1 entry must be an int, got True"),
            (dict(n=1, challenge_states=[1.0]), "challenge_states entry must be an int, got 1.0"),
            (dict(x=10 ** 400), "x must be a number in the float range"),
            (dict(x=-10 ** 400), "x must be a number in the float range"),
            (dict(deadline_slack=10 ** 400), "deadline_slack must be a number in the float range"),
            (dict(prover_delay=10 ** 400), "prover_delay must be a number in the float range"),
            (dict(x=10 ** 308), "x must be positive with 2x finite"),  # an exact int 2x is finite, the float is not
        ],
    )
    def test_invalid(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ProtocolConfig(**kwargs).validate()


class TestDeadline:
    @pytest.mark.parametrize(
        "x,slack,expected",
        [(1.0, 0.0, 2.0), (1.0, 0.1, 2.1), (2.5, 0.0, 5.0)],
    )
    def test_values(self, x, slack, expected):
        assert deadline(ProtocolConfig(x=x, deadline_slack=slack)) == expected

    def test_arrival_one_rounding_step_late_is_rejected(self):
        verdict, transcripts, _ = run_honest(ProtocolConfig(n=1, x=1.0, prover_delay=1e-13), seed=0)
        assert transcripts[0].timestamps["report_v1_arrived"] > 2.0
        assert not verdict.accepted and verdict.reason == REASON_TIMING

    def test_arrival_exactly_at_deadline_is_accepted(self):
        config = ProtocolConfig(n=1, x=1.0, deadline_slack=0.1, prover_delay=0.1)
        verdict, transcripts, _ = run_honest(config, seed=0)
        assert transcripts[0].timestamps["report_v1_arrived"] == deadline(config)
        assert verdict.accepted

    def test_no_tolerance_for_rounding(self):
        # 0.3 + 0.7 + 0.3 rounds above 2 * 0.3 + 0.7: the slack must carry any margin
        config = ProtocolConfig(n=1, x=0.3, deadline_slack=0.7, prover_delay=0.7)
        verdict, transcripts, _ = run_honest(config, seed=0)
        assert transcripts[0].timestamps["report_v1_arrived"] > deadline(config)
        assert verdict.reason == REASON_TIMING

    @pytest.mark.parametrize("x", [1e6 + 0.3, 1e9 + 0.7, 1e15])
    def test_honest_accepted_at_large_x(self, x):
        verdict, transcripts, _ = run_honest(ProtocolConfig(n=4, x=x), seed=0)
        assert verdict.accepted
        assert all(t.timestamps["report_v1_arrived"] == 2.0 * x for t in transcripts)


class TestVerifyV1:
    def test_identity_frame(self, judge_slots):
        assert judge_slots(0, psi=0, w=0b00, l1=0b00)[0].accepted is True

    def test_phase_flip_expected(self, judge_slots):
        assert judge_slots(0, psi=0, w=0b10, l1=0b00)[0].reason == REASON_V1

    def test_double_flip_cancels(self, judge_slots):
        # psi = -, shared (1,0), outcome (0,1): k = 1 flips - back to +
        assert judge_slots(0, psi=1, w=0b01, l1=0b10)[0].accepted is True

    def test_matches_frame_everywhere(self, judge_slots):
        shared, outcome, psi = np.array(list(np.ndindex(4, 4, 2))).T
        k = oracle_k(shared, outcome)
        consistent = judge_slots(psi ^ k, psi=psi, w=outcome, l1=shared)
        flipped = judge_slots(psi ^ k ^ 1, psi=psi, w=outcome, l1=shared)
        assert all(v.accepted for v in consistent)
        assert all(v.reason == REASON_V1 for v in flipped)


class TestVerifyV2:
    def test_identity_frame(self, judge_slots):
        assert judge_slots(0, ann=0b00, measured=0, l2=0b00)[0].accepted is True

    def test_expected_flip_missing(self, judge_slots):
        assert judge_slots(0, ann=0b11, measured=0, l2=0b00)[0].reason == REASON_V2

    def test_single_bit_variant(self, judge_slots):
        assert judge_slots(0, ann=1, measured=1, l2=0b01, variant=VARIANT_SINGLE_BIT)[0].accepted is True


class TestReduceAnnouncement:
    @pytest.mark.parametrize(
        "shared,pp,expected",
        [
            ((0, 0), (0, 1), 0),
            ((0, 0), (1, 0), 1),
            ((1, 0), (0, 0), 0),
        ],
    )
    def test_examples(self, shared, pp, expected):
        assert announcement(2 * pp[0] + pp[1], VARIANT_SINGLE_BIT) == expected
        assert announcement(2 * pp[0] + pp[1], VARIANT_TWO_BIT) == 2 * pp[0] + pp[1]

    def test_reconstructs_phase_exponent_everywhere(self):
        shared, pp = np.array(list(np.ndindex(4, 4))).T
        bit = announcement(pp, VARIANT_SINGLE_BIT)
        np.testing.assert_array_equal((shared >> 1) ^ bit, oracle_k(shared, pp))

    def test_variants_agree_everywhere(self, judge_slots):
        shared, pp, reported, measured = np.array(list(np.ndindex(4, 4, 2, 2))).T
        full = judge_slots(reported, ann=pp, measured=measured, l2=shared, variant=VARIANT_TWO_BIT)
        single = judge_slots(reported, ann=announcement(pp, VARIANT_SINGLE_BIT), measured=measured, l2=shared,
                             variant=VARIANT_SINGLE_BIT)
        assert [v.accepted for v in full] == [v.accepted for v in single]
        assert [v.accepted for v in full] == list(measured == reported ^ oracle_k(shared, pp))


class TestRunHonest:
    def test_single_pair_accepts_with_exact_arrivals(self):
        config = ProtocolConfig(n=1, x=1.0, challenge_states=[0])
        verdict, transcripts, events = run_honest(config, seed=7)
        assert verdict.accepted and verdict.reason == REASON_OK
        t = transcripts[0]
        assert t.timestamps["report_v1_arrived"] == 2.0
        assert t.timestamps["report_v2_arrived"] == 2.0
        assert t.timestamps["pooled_at"] == 2.0

    def test_many_configurations_always_accept(self):
        rng = np.random.default_rng(5)
        for seed in range(100):
            config = ProtocolConfig(
                n=16,
                x=3.5,
                bell_labels_v1=random_labels(rng, 16),
                bell_labels_v2=random_labels(rng, 16),
            )
            verdict, transcripts, _ = run_honest(config, seed=seed)
            assert verdict.accepted, f"seed {seed} rejected: {verdict.reason}"
            assert all(t.timestamps["report_v1_arrived"] == 7.0 for t in transcripts)

    def test_single_bit_variant_accepts(self):
        config = ProtocolConfig(n=4, x=1.0, variant=VARIANT_SINGLE_BIT)
        verdict, transcripts, _ = run_honest(config, seed=3)
        assert verdict.accepted
        assert all(t.pp_prime in (0, 1) for t in transcripts)

    def test_injected_delay_rejected_on_timing(self):
        config = ProtocolConfig(n=1, x=1.0, deadline_slack=0.0, prover_delay=0.1)
        verdict, _, _ = run_honest(config, seed=1)
        assert not verdict.accepted and verdict.reason == REASON_TIMING

    def test_slack_absorbs_delay(self):
        config = ProtocolConfig(n=1, x=1.0, deadline_slack=0.2, prover_delay=0.1)
        verdict, _, _ = run_honest(config, seed=1)
        assert verdict.accepted

    def test_variant_equivalence_on_transcripts(self, judge_slots):
        # two-bit transcripts re-checked under the single-bit reduction
        rng = np.random.default_rng(8)
        rows = []
        for seed in range(200):
            config = ProtocolConfig(n=2, bell_labels_v2=random_labels(rng, 2))
            _, transcripts, _ = run_honest(config, seed=seed)
            rows += [(t.prover_state_report, t.pp_prime, t.v2_outcome, shared)
                     for t, shared in zip(transcripts, config.bell_labels_v2)]
        reported, pp, measured, shared = np.array(rows).T
        full = judge_slots(reported, ann=pp, measured=measured, l2=shared, variant=VARIANT_TWO_BIT)
        reduced = judge_slots(reported, ann=announcement(pp, VARIANT_SINGLE_BIT), measured=measured, l2=shared,
                              variant=VARIANT_SINGLE_BIT)
        assert all(v.accepted for v in full) and all(v.accepted for v in reduced)

    def test_pooling_happens_at_deadline(self):
        for slack, expected in [(0.0, 5.0), (0.75, 5.75)]:  # with slack, the deadline is not 2x
            config = ProtocolConfig(n=1, x=2.5, deadline_slack=slack)
            _, transcripts, events = run_honest(config, seed=0)
            assert transcripts[0].timestamps["pooled_at"] == expected
            pool_events = [e for e in events if e.kind == "pool"]
            assert len(pool_events) == 1 and pool_events[0].time == expected

    def test_event_log_serializes(self):
        _, _, events = run_honest(ProtocolConfig(n=1), seed=0)
        text = format_event_log(events)
        assert "teleport" in text and "prover_response" in text


class _JudgeFixture:
    """Synthetic honest-looking materials for direct judge() tests (one trial)."""

    def __init__(self, n=1, variant=VARIANT_TWO_BIT):
        self.config = ProtocolConfig(n=n, x=1.0, variant=variant)
        self.challenges = np.zeros(n, dtype=np.int64)
        self.labels = np.zeros(n, dtype=np.int64)
        self.w = np.zeros(n, dtype=np.int64)
        self.v2_measured = np.zeros(n, dtype=np.int64)
        self.v1 = MaterialStore(n)
        self.v2 = MaterialStore(n)
        zeros = np.zeros(n, dtype=np.int64)
        self.v1.receive(zeros, zeros, 2.0)
        self.v2.receive(zeros, zeros, 2.0)

    def verdict(self, **config_changes):
        (verdict,) = judge(dataclasses.replace(self.config, **config_changes), self.challenges, self.labels,
                           self.labels, self.w, self.v2_measured, self.v1, self.v2)
        return verdict


class TestJudge:
    def test_consistent_materials_accept(self):
        assert _JudgeFixture().verdict().accepted

    def test_mismatched_announcement_copies_rejected(self):
        fx = _JudgeFixture()
        fx.v1.announcement = np.array([2])  # differs from V2's copy
        verdict = fx.verdict()
        assert not verdict.accepted and verdict.reason == REASON_V2

    def test_report_copy_failing_v1_check(self):
        fx = _JudgeFixture()
        fx.v2.report = np.array([1])  # V2's copy contradicts V1's expectation
        verdict = fx.verdict()
        assert not verdict.accepted and verdict.reason == REASON_V1

    def test_late_material_is_timing(self):
        fx = _JudgeFixture()
        fx.v1.time = 2.5
        verdict = fx.verdict()
        assert not verdict.accepted and verdict.reason == REASON_TIMING
        assert fx.verdict(deadline_slack=math.inf).accepted

    def test_timing_outranks_content_in_reason(self):
        fx = _JudgeFixture(n=2)
        fx.v1.time = 3.0
        fx.v2.report = np.array([1, 0])
        assert fx.verdict().reason == REASON_TIMING

    def test_timing_rejects_every_trial_as_arrays(self):
        n, trials = 3, 4
        config = ProtocolConfig(n=n)
        zeros = np.zeros(n * trials, dtype=np.int64)

        def verdicts(v2_time, measured=zeros):
            v1, v2 = MaterialStore(n * trials), MaterialStore(n * trials)
            v1.receive(zeros, zeros, deadline(config))
            v2.receive(zeros, zeros, v2_time)
            return judge(config, zeros, zeros, zeros, zeros, measured, v1, v2)

        assert verdicts(deadline(config)).accepted.tolist() == [True] * trials  # on time, the content passes
        for late in (verdicts(math.nextafter(deadline(config), math.inf)), verdicts(math.inf),
                     verdicts(deadline(config), measured=None)):
            assert late.accepted.tolist() == [False] * trials
            assert late.reason.tolist() == [REASONS.index(REASON_TIMING)] * trials
            assert late.passes.shape == (trials, n) and not late.passes.any()
            assert late == [Verdict(False, REASON_TIMING, [False] * n)] * trials


class TestVerdicts:
    """Two batches of verdicts are equal only when every accept, reason and pair pass is."""

    @staticmethod
    def _verdicts(reason, passes):
        reason = np.array([REASONS.index(name) for name in reason], dtype=np.int8)
        return Verdicts(reason == REASONS.index(REASON_OK), reason, np.array(passes, dtype=bool))

    def test_equal_content_compares_equal(self):
        first = self._verdicts([REASON_OK, REASON_V1], [[True, True], [True, False]])
        second = self._verdicts([REASON_OK, REASON_V1], [[True, True], [True, False]])
        assert first == second and first == list(second) and list(first) == second

    @pytest.mark.parametrize("reason,passes", [
        ([REASON_OK, REASON_V2], [[True, True], [True, False]]),  # one reason differs
        ([REASON_OK, REASON_V1], [[True, True], [False, False]]),  # one pair pass differs
    ])
    def test_one_difference_compares_unequal(self, reason, passes):
        base = self._verdicts([REASON_OK, REASON_V1], [[True, True], [True, False]])
        changed = self._verdicts(reason, passes)
        assert base != changed and changed != base
        assert base != list(changed) and changed != list(base)


class TestTranscriptSerialization:
    def test_round_trip_stability(self):
        config = ProtocolConfig(n=2, x=1.0)
        _, transcripts_a, _ = run_honest(config, seed=11)
        _, transcripts_b, _ = run_honest(config, seed=11)
        assert transcripts_to_json(transcripts_a) == transcripts_to_json(transcripts_b)

    def test_fields_present(self):
        _, transcripts, _ = run_honest(ProtocolConfig(n=1), seed=2)
        record = transcripts[0].to_dict()
        assert set(record) == {"w_prime", "pp_prime", "prover_state_report", "v2_outcome", "timestamps"}
