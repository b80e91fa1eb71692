#!/usr/bin/env python3
"""The deadline-respecting attack: the far colluder has to guess.

P1 (between V1 and the claimed position) answers V1 honestly from the
intercepted half. P2 must commit V2's material before any information about
the teleported challenge can reach it, so it guesses the report bit: each
pair survives the pooled cross-check with probability 1/2, and n pairs with
probability 2^-n.
"""

import math

from qpv import AttackConfig, ProtocolConfig, run_attack
from qpv.analysis import trial_seed
from qpv.adversary import run_attack_batch

print("== two single runs, n=1 ==")
for seed in (3, 5):
    outcome = run_attack(AttackConfig(strategy="guess", delta=0.1, protocol=ProtocolConfig(n=1)), seed=seed)
    verdict = outcome.verdict
    print(f"seed {seed}: {'ACCEPT' if verdict.accepted else 'REJECT'} ({verdict.reason}), "
          f"response complete at t={outcome.earliest_complete_response_time} (deadline 2.0)")

print()
print("== acceptance rate vs the 2^-n model ==")
trials = 20_000
print(f"{'n':>3} {'accepted':>9} {'rate':>9} {'2^-n':>9} {'3 sigma':>9}")
for n in (1, 2, 3, 4):
    config = AttackConfig(strategy="guess", delta=0.1, protocol=ProtocolConfig(n=n))
    seeds = [trial_seed(2024, "guess", n, i) for i in range(trials)]
    accepted = int(run_attack_batch(config, seeds).accepted.sum())
    expected = 2.0 ** -n
    sigma = math.sqrt(expected * (1 - expected) / trials)
    print(f"{n:>3} {accepted:>9} {accepted / trials:>9.5f} {expected:>9.5f} {3 * sigma:>9.5f}")

print()
print("every message arrives on time; only the guessed content betrays the")
print("colluders, at exactly the 1 - 2^-n detection rate")
