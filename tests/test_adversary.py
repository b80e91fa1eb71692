"""Tests for the colluding-prover strategies and their timing/soundness split."""

import dataclasses
import gc
import itertools
import math

import numpy as np
import pytest

from qpv.adversary import (
    SHIPPED_STRATEGIES,
    AttackConfig,
    run_attack,
    run_attack_batch,
)
from qpv.analysis import trial_keys, trial_seed
from qpv.protocol import (
    ProtocolConfig,
    REASON_TIMING,
    TrialCore,
    VARIANT_SINGLE_BIT,
    VARIANTS,
    deadline,
    run_honest,
    run_honest_batch,
)
from qpv.quantum import BatchRegister, pauli_frame_from
from qpv.spacetime import CausalityViolationError


def attack_config(strategy="guess", n=1, x=1.0, delta=0.1, **kwargs):
    return AttackConfig(strategy=strategy, delta=delta, protocol=ProtocolConfig(n=n, x=x), **kwargs)


def batch_acceptance(config, trials, master=0):
    seeds = [trial_seed(master, config.strategy, config.protocol.n, i) for i in range(trials)]
    verdicts = run_attack_batch(config, seeds)
    return sum(v.accepted for v in verdicts) / trials


class TestAttackConfig:
    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError, match="delta"):
            attack_config(delta=0.0).validate()

    def test_delta_must_be_smaller_than_x(self):
        with pytest.raises(ValueError, match="delta"):
            attack_config(delta=1.5, x=1.0).validate()

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            attack_config(strategy="mitm").validate()

    def test_rounds_lower_bound(self):
        with pytest.raises(ValueError, match="rounds"):
            attack_config(strategy="bounded_rounds", rounds=0).validate()

    @pytest.mark.parametrize("pairs", ["3", 1.5, True, -1])
    def test_preshared_pairs_must_be_a_count(self, pairs):
        with pytest.raises(ValueError, match="preshared_pairs"):
            attack_config(strategy="swap_and_forward", preshared_pairs=pairs).validate()

    @pytest.mark.parametrize("pairs", [None, 0, 2, np.int64(3)])
    def test_preshared_pairs_accepted(self, pairs):
        attack_config(strategy="swap_and_forward", preshared_pairs=pairs).validate()

    @pytest.mark.parametrize("label", [4, -1, 1.0, "1"])
    def test_preshared_label_must_be_a_label(self, label):
        with pytest.raises(ValueError, match="preshared_label"):
            attack_config("swap_and_forward", preshared_label=label).validate()

    @pytest.mark.parametrize("strategy", ["swap_and_forward", "bounded_rounds"])
    @pytest.mark.parametrize("x,delta", [(1e6 + 0.3, 1e-12), (1e9 + 0.7, 1e-7), (1.0, 0.625 * math.ulp(2.0))])
    def test_delta_below_timeline_resolution(self, strategy, x, delta):
        # unchecked, these runs crash or accept a swap completing at exactly 2x
        with pytest.raises(ValueError, match="delta"):
            attack_config(strategy, x=x, delta=delta).validate()


class TestTimingAtResolution:
    @pytest.mark.parametrize("ulps", [1, 2, 8])
    @pytest.mark.parametrize("x", [1.0, 1e6 + 0.3, 1e9 + 0.7])
    def test_smallest_resolvable_delta(self, x, ulps):
        delta = ulps * math.ulp(2 * x)
        for seed in range(3):
            for strategy in ("swap_and_forward", "bounded_rounds"):
                outcome = run_attack(attack_config(strategy, n=2, x=x, delta=delta), seed=seed)
                assert outcome.verdict.reason == REASON_TIMING
                assert outcome.earliest_complete_response_time > 2 * x
            guess = run_attack(attack_config("guess", n=2, x=x, delta=delta), seed=seed)
            assert guess.verdict.reason != REASON_TIMING


class TestGuess:
    def test_single_pair_acceptance_near_half(self):
        trials = 4000
        rate = batch_acceptance(attack_config("guess", n=1), trials)
        assert abs(rate - 0.5) < 3 * math.sqrt(0.25 / trials)

    def test_two_pairs_acceptance_near_quarter(self):
        trials = 4000
        rate = batch_acceptance(attack_config("guess", n=2), trials)
        assert abs(rate - 0.25) < 3 * math.sqrt(0.25 * 0.75 / trials)

    def test_all_materials_on_time(self):
        outcome = run_attack(attack_config("guess", n=2), seed=5)
        assert outcome.earliest_complete_response_time <= deadline(ProtocolConfig(n=2, x=1.0))
        assert outcome.verdict.reason in ("ok", "v1_inconsistent")

    def test_exhaustive_per_pair_enumeration(self, judge_slots):
        # fixed labels: for each of the 4 equiprobable teleport outcomes and
        # each of the 2 guesses, exactly when the guess equals the corrected
        # report does the pooled check pass: acceptance 8/16 = 1/2.
        shared_v1 = 0b10
        shared_v2 = 0b01
        psi = 0
        # every (w, guess, P2's own uniform BSM outcome pp2), one slot each
        w, guess, pp2 = np.array(list(np.ndindex(4, 2, 4))).T
        true_report = psi ^ (pauli_frame_from(shared_v1, w) >> 1)
        v2_measured = guess ^ (pauli_frame_from(shared_v2, pp2) >> 1)
        v2_ok = judge_slots(guess, ann=pp2, measured=v2_measured, l2=shared_v2)
        v1_own = judge_slots(true_report, psi=psi, w=w, l1=shared_v1)
        v1_cross = judge_slots(guess, psi=psi, w=w, l1=shared_v1)
        assert all(v.accepted for v in v2_ok + v1_own)  # local checks always pass
        pooled = judge_slots(true_report, report_2=guess, psi=psi, w=w, l1=shared_v1,
                             ann=pp2, measured=v2_measured, l2=shared_v2)
        assert [v.accepted for v in pooled] == [v.accepted for v in v1_cross]
        accept = sum(v.accepted for v in v1_cross)
        assert accept * 2 == len(w)

    def test_known_challenge_still_half(self):
        # challenges fixed and public: the secret label and uniform w' keep
        # the corrected report uniformly random, so guessing stays at 1/2
        trials = 4000
        config = AttackConfig(strategy="guess", delta=0.1,
                              protocol=ProtocolConfig(n=1, challenge_states=[0]))
        rate = batch_acceptance(config, trials)
        assert abs(rate - 0.5) < 3 * math.sqrt(0.25 / trials)

    def test_deterministic_responders_capped_at_half(self, judge_slots):
        # exhaustive search over P2's deterministic single-pair responders:
        # prepared eigenstate gamma and a report function h(pp2); acceptance
        # never exceeds 1/2 and reaches it only for h == gamma.
        shared_v1 = 0b00
        shared_v2 = 0b00
        psi = 0
        w, pp2 = np.array(list(np.ndindex(4, 4))).T
        best = 0.0
        for gamma in (0, 1):
            for h_bits in itertools.product((0, 1), repeat=4):
                reported = np.array(h_bits)[pp2]
                v2_measured = gamma ^ (pauli_frame_from(shared_v2, pp2) >> 1)
                verdicts = judge_slots(reported, psi=psi, w=w, l1=shared_v1, ann=pp2, measured=v2_measured,
                                       l2=shared_v2)
                accept = sum(v.accepted for v in verdicts)
                rate = accept / 16.0
                best = max(best, rate)
                assert rate <= 0.5 + 1e-12
        assert best == 0.5

    def test_strict_duplicates_still_half(self):
        # the shipped guess strategy relays the announcement, so duplicates
        # match and strict mode changes nothing
        trials = 2000
        config = AttackConfig(strategy="guess", delta=0.1,
                              protocol=ProtocolConfig(n=1, strict_duplicates=True))
        rate = batch_acceptance(config, trials)
        assert abs(rate - 0.5) < 3 * math.sqrt(0.25 / trials)


class TestSwapAndForward:
    @pytest.mark.parametrize("delta", [0.01, 0.1, 0.5])
    def test_rejected_on_timing_with_exact_lag(self, delta):
        config = attack_config("swap_and_forward", n=2, x=1.0, delta=delta)
        for seed in range(10):
            outcome = run_attack(config, seed=seed)
            assert not outcome.verdict.accepted
            assert outcome.verdict.reason == REASON_TIMING
            assert abs(outcome.earliest_complete_response_time - (2.0 + delta)) < 1e-9

    def test_diagnostic_mode_content_perfect(self):
        config = attack_config("swap_and_forward", n=3, delta=0.2)
        for seed in range(20):
            outcome = run_attack(config, seed=seed, diagnostic=True)
            assert outcome.verdict.accepted, outcome.verdict
            assert all(outcome.verdict.pair_passes)

    def test_content_correct_with_random_labels(self):
        rng = np.random.default_rng(2)
        labels1 = [int(i) for i in rng.integers(0, 4, 4)]
        labels2 = [int(i) for i in rng.integers(0, 4, 4)]
        config = AttackConfig(
            strategy="swap_and_forward",
            delta=0.3,
            preshared_label=0b11,
            protocol=ProtocolConfig(n=4, bell_labels_v1=labels1, bell_labels_v2=labels2),
        )
        outcome = run_attack(config, seed=9, diagnostic=True)
        assert outcome.verdict.accepted

    def test_single_bit_variant_content_correct(self):
        config = AttackConfig(strategy="swap_and_forward", delta=0.1,
                              protocol=ProtocolConfig(n=2, variant=VARIANT_SINGLE_BIT))
        outcome = run_attack(config, seed=4, diagnostic=True)
        assert outcome.verdict.accepted

    def test_insufficient_preshared_pairs(self):
        config = AttackConfig(strategy="swap_and_forward", delta=0.1, preshared_pairs=1,
                              protocol=ProtocolConfig(n=2))
        with pytest.raises(ValueError, match="insufficient pre-shared"):
            run_attack(config, seed=0)


class TestBoundedRounds:
    @pytest.mark.parametrize("rounds", [1, 2, 4])
    def test_agreement_and_timing(self, rounds):
        x, delta = 1.0, 0.1
        config = AttackConfig(strategy="bounded_rounds", rounds=rounds, delta=delta,
                              protocol=ProtocolConfig(n=1, x=x))
        outcome = run_attack(config, seed=rounds)
        assert abs(outcome.agreement_time - (x + 2 * delta)) < 1e-9
        assert not outcome.verdict.accepted and outcome.verdict.reason == REASON_TIMING
        assert abs(outcome.earliest_complete_response_time - (2 * x + delta)) < 1e-9

    def test_free_rounds_logged(self):
        config = AttackConfig(strategy="bounded_rounds", rounds=3, delta=0.1,
                              protocol=ProtocolConfig(n=1))
        outcome = run_attack(config, seed=0)
        rounds_logged = [e for e in outcome.events if e.kind == "local_round"]
        assert len(rounds_logged) == 6  # three per colluder

    def test_preshared_budget_includes_rounds(self):
        config = AttackConfig(strategy="bounded_rounds", rounds=2, delta=0.1, preshared_pairs=5,
                              protocol=ProtocolConfig(n=2))
        with pytest.raises(ValueError, match="insufficient pre-shared"):
            run_attack(config, seed=0)

    def test_diagnostic_content_perfect(self):
        config = AttackConfig(strategy="bounded_rounds", rounds=2, delta=0.25,
                              protocol=ProtocolConfig(n=2))
        outcome = run_attack(config, seed=6, diagnostic=True)
        assert outcome.verdict.accepted


class TestCausalityEnforcement:
    def test_cheating_strategy_triggers_exactly_one_violation(self):
        config = attack_config("cheat_w_prime", n=1)
        errors = []
        try:
            run_attack(config, seed=1)
        except CausalityViolationError as exc:
            errors.append(exc)
        assert len(errors) == 1
        assert "w_prime" in str(errors[0])

    def test_shipped_strategies_are_clean(self):
        for strategy in SHIPPED_STRATEGIES:
            outcome = run_attack(attack_config(strategy, n=2, delta=0.2), seed=3)
            assert outcome.events  # mechanical causality check ran inside


class TestSoundnessTimingDichotomy:
    """Every shipped strategy is either on time with bounded acceptance or
    late with perfect content; none achieves both."""

    def test_guess_is_on_time_but_bounded(self):
        trials = 3000
        config = attack_config("guess", n=1)
        outcome = run_attack(config, seed=0)
        assert outcome.earliest_complete_response_time <= deadline(config.protocol) + 1e-12
        rate = batch_acceptance(config, trials)
        assert rate <= 0.5 + 3 * math.sqrt(0.25 / trials)

    @pytest.mark.parametrize("strategy", ["swap_and_forward", "bounded_rounds"])
    def test_relays_are_correct_but_late(self, strategy):
        config = attack_config(strategy, n=2, delta=0.15)
        for seed in range(8):
            timed = run_attack(config, seed=seed)
            content = run_attack(config, seed=seed, diagnostic=True)
            assert timed.earliest_complete_response_time > deadline(config.protocol)
            assert not timed.verdict.accepted and timed.verdict.reason == REASON_TIMING
            assert content.verdict.accepted


class TestOneVerdictPath:
    @pytest.mark.parametrize("strategy", SHIPPED_STRATEGIES)
    def test_diagnostic_is_infinite_slack(self, strategy):
        config = attack_config(strategy, n=4, delta=0.2)
        unbounded = dataclasses.replace(config, protocol=dataclasses.replace(config.protocol, deadline_slack=math.inf))
        for seed in range(5):
            assert run_attack(config, seed=seed, diagnostic=True).verdict == run_attack(unbounded, seed=seed).verdict

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("scenario,diagnostic", [
        ("honest", False),
        *[(strategy, diagnostic) for strategy in SHIPPED_STRATEGIES for diagnostic in (False, True)],
    ])
    def test_batch_verdicts_match_serial(self, scenario, diagnostic, variant):
        protocol = ProtocolConfig(n=3, variant=variant)
        seeds = trial_keys(12, scenario, 3, np.arange(20))
        if scenario == "honest":
            serial = [run_honest(protocol, seed, collect_transcripts=False)[0] for seed in seeds]
            batch = run_honest_batch(protocol, seeds)
        else:
            config = AttackConfig(strategy=scenario, delta=0.1, protocol=protocol)
            serial = [run_attack(config, seed, collect_transcripts=False, diagnostic=diagnostic).verdict
                      for seed in seeds]
            batch = run_attack_batch(config, seeds, diagnostic=diagnostic)
        assert batch == serial


class TestExtremeDraws:
    """Every draw at one fixed 32-bit word: the extremes (uniforms 0 and 1 - 2**-32) and the quarter
    boundaries 2**30, 2**31 and 3 * 2**30, where a cumulative outcome probability (a multiple of 1/4)
    equals the uniform and the summation order decides the pick. Batch rows must equal the single run."""

    @pytest.mark.parametrize("word", [0, 2 ** 30, 2 ** 31, 3 * 2 ** 30, 2 ** 32 - 1])
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("scenario", ["honest", *SHIPPED_STRATEGIES])
    def test_claims_hold(self, monkeypatch, word, variant, scenario):
        monkeypatch.setattr(TrialCore, "_next_words", lambda core: np.full(core.slots, word, dtype=np.uint64))
        protocol = ProtocolConfig(n=4, variant=variant, challenge_states=[0, 1, 0, 1])
        if scenario == "honest":
            verdicts = [run_honest(protocol, 1)[0], *run_honest_batch(protocol, [1, 2])]
            assert verdicts[1:] == verdicts[:1] * 2
            assert all(verdict.accepted for verdict in verdicts)
            return
        config = AttackConfig(strategy=scenario, delta=0.1, protocol=protocol)
        for diagnostic in (False, True):
            verdicts = [run_attack(config, 1, diagnostic=diagnostic).verdict,
                        *run_attack_batch(config, [1, 2], diagnostic=diagnostic)]
            assert verdicts[1:] == verdicts[:1] * 2
            if scenario == "guess":
                assert all(verdict.reason != REASON_TIMING for verdict in verdicts)
            elif diagnostic:
                assert all(verdict.accepted for verdict in verdicts)
            else:
                assert all(verdict.reason == REASON_TIMING for verdict in verdicts)


class TestRunsFreeState:
    def test_no_register_left_in_cyclic_garbage(self):
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            protocol = ProtocolConfig(n=3)
            run_honest_batch(protocol, [1, 2])
            run_honest(protocol, 3)
            for strategy in SHIPPED_STRATEGIES:
                config = AttackConfig(strategy=strategy, delta=0.1, protocol=protocol)
                run_attack_batch(config, [1, 2])
                run_attack(config, 3)
            gc.collect()
            leaked = sum(isinstance(obj, BatchRegister) for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == 0
