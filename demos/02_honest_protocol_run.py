#!/usr/bin/env python3
"""One honest protocol instance, printed end to end.

Geometry (c = 1): V1 at 0, the prover at x, V2 at 2x. Channel halves launch
at t=0, the challenge teleport and the prover's response happen at t=x, and
every verifier-side arrival lands at exactly t=2x, the timing deadline.
"""

from qpv import ProtocolConfig, run_honest, transcripts_to_json
from qpv.spacetime import format_event_log

config = ProtocolConfig(n=3, x=1.0, challenge_states=[0, 1, 0])
verdict, transcripts, events = run_honest(config, seed=11)

print(f"configuration: n={config.n} pairs, prover distance x={config.x}, variant={config.variant}")
print()
print("event timeline:")
print(format_event_log(events))
print()
print("per-pair transcript records:")
print(transcripts_to_json(transcripts))
print()
glyph = {0: "+", 1: "-"}
for i, t in enumerate(transcripts):
    print(f"pair {i}: challenge |{glyph[config.challenge_states[i]]}> "
          f"w'=({t.w_prime >> 1},{t.w_prime & 1}) "
          f"report |{glyph[t.prover_state_report]}> "
          f"V2 measured |{glyph[t.v2_outcome]}>")
print()
print(f"verdict: {'ACCEPT' if verdict.accepted else 'REJECT'} ({verdict.reason})")
print("the report always equals challenge XOR k, and V2's measurement decodes")
print("consistently, so an in-position prover passes with certainty")
