"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. All tolerances are pinned here: absolute 1e-9 for protocol-forced
values, 3 binomial standard deviations for Monte Carlo estimates, and the
3-sigma chi-squared threshold for outcome uniformity.
"""

import math
import time

import numpy as np
import pytest

from qpv import oracles, selftest
from qpv.adversary import STRATEGIES, AttackConfig, run_attack, run_attack_batch
from qpv.analysis import ExperimentSpec, render_csv, render_json, run_experiment, trial_seed
from qpv.protocol import (
    ProtocolConfig,
    REASON_TIMING,
    VARIANT_SINGLE_BIT,
    VARIANT_TWO_BIT,
    announcement,
    run_honest,
    transcripts_to_json,
    TrialCore,
    _execute,
    _HonestProver,
)
from qpv.quantum import BatchRegister
from qpv.spacetime import CausalityViolationError, format_event_log, verify_causality

ABS_TOL = 1e-9


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _random_labels(rng, n):
    return [int(i) for i in rng.integers(0, 4, size=n)]


def test_criterion_1_honest_completeness():
    """1000/1000 honest acceptance per (n, variant, x); arrivals exactly 2x; < 30 s."""
    start = time.monotonic()
    trials = 1000
    for n in (1, 4, 16):
        for x in (1.0, 3.5):
            for variant in (VARIANT_TWO_BIT, VARIANT_SINGLE_BIT):
                config = ProtocolConfig(n=n, x=x, variant=variant)
                accepted = 0
                for i in range(trials):
                    verdict, transcripts, _ = run_honest(config, seed=trial_seed(1, "honest", n, i))
                    accepted += verdict.accepted
                    t = transcripts[0].timestamps
                    assert t["report_v1_arrived"] == 2.0 * x
                    assert t["report_v2_arrived"] == 2.0 * x
                    assert t["announcement_v1_arrived"] == 2.0 * x
                    assert t["announcement_v2_arrived"] == 2.0 * x
                assert accepted == trials, f"n={n} x={x} {variant}: {accepted}/{trials}"
    elapsed = time.monotonic() - start
    _report(1, elapsed < 30.0, f"12 x {trials} honest trials all accepted, arrivals exact, {elapsed:.1f}s < 30s")


def test_criterion_2_detection_bound():
    """Guess attack acceptance within 3 binomial sigma of 2^-n for six n; < 5 min."""
    start = time.monotonic()
    trials = 100_000
    spec = ExperimentSpec(scenario="guess", n_values=(1, 2, 3, 4, 6, 8), trials=trials, master_seed=2024)
    result = run_experiment(spec)
    details = []
    for row in result.rows:
        expected = 2.0 ** -row.n
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(row.acceptance_rate - expected) <= 3 * sigma, (
            f"n={row.n}: acceptance {row.acceptance_rate} vs {expected} (3 sigma = {3 * sigma:.2e})"
        )
        assert row.detection_rate >= 1 - expected - 3 * sigma
        assert row.passed
        details.append(f"n={row.n}: {row.acceptance_rate:.5f}")
    elapsed = time.monotonic() - start
    _report(2, elapsed < 300.0, f"acceptance {{{', '.join(details)}}} all within 3 sigma of 2^-n, {elapsed:.0f}s < 300s")


def test_criterion_3_timing_exclusion():
    """swap_and_forward: 100% timing rejections, lag exactly 2x + delta; diagnostic content 100%."""
    x = 1.0
    trials = 300
    for delta in (0.01, 0.1, 0.5):
        config = AttackConfig(strategy="swap_and_forward", delta=delta, protocol=ProtocolConfig(n=2, x=x))
        seeds = [trial_seed(3, "swap_and_forward", 2, i) for i in range(trials)]
        verdicts = run_attack_batch(config, seeds)
        assert all(not v.accepted and v.reason == REASON_TIMING for v in verdicts)
        diagnostics = run_attack_batch(config, seeds, diagnostic=True)
        assert all(v.accepted for v in diagnostics)
        for seed in range(5):
            outcome = run_attack(config, seed=seed)
            assert abs(outcome.earliest_complete_response_time - (2 * x + delta)) < ABS_TOL
    _report(3, True, f"3 deltas x {trials} trials: all REJECT(timing) at exactly 2x+delta; diagnostic content 100%")


def test_criterion_4_bounded_rounds_agreement():
    """bounded_rounds(r): colluders agree at exactly x + 2*delta, verdict timing-reject."""
    x, delta = 1.0, 0.1
    for rounds in (1, 2, 4):
        config = AttackConfig(strategy="bounded_rounds", rounds=rounds, delta=delta,
                              protocol=ProtocolConfig(n=2, x=x))
        for seed in range(5):
            outcome = run_attack(config, seed=seed)
            assert abs(outcome.agreement_time - (x + 2 * delta)) < ABS_TOL
            assert not outcome.verdict.accepted and outcome.verdict.reason == REASON_TIMING
            assert abs(outcome.earliest_complete_response_time - (2 * x + delta)) < ABS_TOL
    _report(4, True, "r in {1,2,4}: agreement at exactly x+2*delta, completion 2x+delta, REJECT(timing)")


def test_criterion_5_quantum_oracles():
    """Teleport round trip 16x100 exact; 64-case swap oracle; BSM uniformity chi^2."""
    from scipy.stats import chi2, norm

    teleport_failures = selftest.check_teleport(num_payloads=100, seed=55)
    assert teleport_failures == [], teleport_failures[:3]

    swap_failures = selftest.check_swap(seed=56)
    assert swap_failures == [], swap_failures[:3]

    samples = 10_000
    rng = np.random.default_rng(57)
    batch = BatchRegister(samples)
    _, sender = batch.append_bell(np.zeros(samples, dtype=np.intp))
    payload = batch.append_qubit(oracles.random_qubit_state(rng))
    outcomes = batch.bsm(payload, sender, rng.random(samples))
    counts = np.bincount(outcomes, minlength=4)
    statistic = float(((counts - samples / 4) ** 2 / (samples / 4)).sum())
    threshold = float(chi2.isf(2.0 * norm.sf(3.0), df=3))
    assert statistic < threshold, f"chi^2 {statistic:.2f} >= {threshold:.2f}"
    _report(5, True, f"round trip 16x100 exact, swap 64/64, chi^2 {statistic:.2f} < {threshold:.2f}")


def test_criterion_6_frame_and_reduction_tables(judge_slots):
    """Tables exhaustively correct; variants agree on 10^4 honest transcripts."""
    assert selftest.check_frame_table() == []
    assert selftest.check_reduction() == []

    rng = np.random.default_rng(66)
    trials = 10_000
    rows = []
    for i in range(trials):
        labels_v2 = _random_labels(rng, 2)
        config = ProtocolConfig(n=2, bell_labels_v1=_random_labels(rng, 2), bell_labels_v2=labels_v2)
        _, transcripts, _ = run_honest(config, seed=trial_seed(6, "honest", 2, i))
        rows += [(t.prover_state_report, t.pp_prime, t.v2_outcome, shared)
                 for t, shared in zip(transcripts, labels_v2)]
    reported, pp, measured, shared = np.array(rows).T
    full = judge_slots(reported, ann=pp, measured=measured, l2=shared, variant=VARIANT_TWO_BIT)
    single = judge_slots(reported, ann=announcement(pp, VARIANT_SINGLE_BIT), measured=measured, l2=shared,
                         variant=VARIANT_SINGLE_BIT)
    assert [v.accepted for v in full] == [v.accepted for v in single]
    checked = len(full)
    _report(6, True, f"16/16 frame, 64/64 reduction inputs per variant, variants agree on {checked} transcript pairs")


def test_criterion_7_causality():
    """Zero violations in shipped scenarios; the cheating strategy raises exactly once."""
    protocol = ProtocolConfig(n=2, x=1.0)

    core = TrialCore(protocol, seed=7)
    _execute(core, _HonestProver(core))
    assert verify_causality(core.timeline) == []

    for strategy in ("guess", "swap_and_forward", "bounded_rounds"):
        for delta in (0.05, 0.3):
            config = AttackConfig(strategy=strategy, delta=delta, protocol=protocol)
            core = TrialCore(protocol, seed=7)
            _execute(core, STRATEGIES[strategy](core, config))
            assert verify_causality(core.timeline) == []

    errors = []
    try:
        run_attack(AttackConfig(strategy="cheat_w_prime", delta=0.1, protocol=protocol), seed=7)
    except CausalityViolationError as exc:
        errors.append(exc)
    assert len(errors) == 1
    _report(7, True, "0 violations in 7 shipped runs; cheating strategy raised exactly 1 violation")


def test_criterion_8_determinism():
    """Identical seeds give byte-identical transcripts, event logs, and reports."""
    config = ProtocolConfig(n=4, x=1.0)
    v_a, t_a, e_a = run_honest(config, seed=88)
    v_b, t_b, e_b = run_honest(config, seed=88)
    assert transcripts_to_json(t_a) == transcripts_to_json(t_b)
    assert format_event_log(e_a) == format_event_log(e_b)
    assert v_a == v_b

    attack = AttackConfig(strategy="guess", delta=0.1, protocol=config)
    o_a = run_attack(attack, seed=88)
    o_b = run_attack(attack, seed=88)
    assert transcripts_to_json(o_a.transcripts) == transcripts_to_json(o_b.transcripts)
    assert format_event_log(o_a.events) == format_event_log(o_b.events)

    spec = ExperimentSpec(scenario="guess", n_values=(1, 2), trials=500, master_seed=88)
    r_a, r_b = run_experiment(spec), run_experiment(spec)
    assert render_json(r_a) == render_json(r_b)
    assert render_csv(r_a) == render_csv(r_b)
    _report(8, True, "transcripts, event logs, and reports byte-identical under fixed seeds")
