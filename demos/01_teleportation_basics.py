#!/usr/bin/env python3
"""Walk through the teleportation primitive the protocol is built on.

A sender measures (payload, channel half) in the Bell basis; the receiver
half instantly carries the payload up to one of four Pauli corrections
determined by the shared Bell label and the 2-bit outcome. Without those two
bits the receiver sees pure noise.
"""

import numpy as np

from qpv import BatchRegister, BellLabel, BsmOutcome, pauli_frame_from
from qpv.oracles import random_qubit_state


def fidelity(reg: BatchRegister, handle, target: np.ndarray) -> float:
    """|<target|qubit>|^2 for the register's single row."""
    return float(abs(np.vdot(target, reg.reduced_state(handle)[0])) ** 2)


rng = np.random.default_rng(7)

print("== one teleportation, step by step ==")
payload_vec = random_qubit_state(rng)
print(f"payload amplitudes: {np.round(payload_vec, 4)}")

shared = BellLabel(1, 0)
reg = BatchRegister(1)
payload = reg.append_qubit(payload_vec, owner="sender")
sender_half, receiver_half = reg.append_bell([shared.index], owner_first="sender", owner_second="receiver")

outcome = BsmOutcome.from_index(int(reg.bsm(payload, sender_half, rng.random(1))[0]))
frame = pauli_frame_from(shared, outcome)
print(f"shared label ({shared.a},{shared.b}), BSM outcome ({outcome.first},{outcome.second})"
      f" -> correction k={frame.k} k'={frame.k_prime}")

raw_fidelity = fidelity(reg, receiver_half, payload_vec)
print(f"receiver fidelity before correction: {raw_fidelity:.4f}")

# undo sigma_z^k sigma_x^k' by applying sigma_x^k' then sigma_z^k
reg.apply_frame(receiver_half, 0, frame.k_prime)
reg.apply_frame(receiver_half, frame.k, 0)
print(f"receiver fidelity after correction:  {fidelity(reg, receiver_half, payload_vec):.6f}")

print()
print("== without the classical bits the receiver learns nothing ==")
teleports = 2000
reg = BatchRegister(teleports)
p = reg.append_qubit(payload_vec)
s, r = reg.append_bell(np.zeros(teleports, dtype=np.intp))
counts = np.bincount(reg.bsm(p, s, rng.random(teleports)), minlength=4)
print(f"outcome frequencies over 2000 teleports: {counts / counts.sum()}")
print("each correction is equally likely, so the uncorrected half is maximally mixed")

print()
print("== the four-case correction table ==")
for label_index in range(4):
    shared = BellLabel.from_index(label_index)
    row = []
    for outcome_index in range(4):
        f = pauli_frame_from(shared, BsmOutcome.from_index(outcome_index))
        row.append(f"bb'={outcome_index:02b} -> (k={f.k}, k'={f.k_prime})")
    print(f"shared |{shared.a}{shared.b}>: " + "  ".join(row))
