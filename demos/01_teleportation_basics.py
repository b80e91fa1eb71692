#!/usr/bin/env python3
"""Walk through the teleportation primitive the protocol is built on.

A sender measures (payload, channel half) in the Bell basis; the receiver
half instantly carries the payload up to one of four Pauli corrections
determined by the shared Bell label and the 2-bit outcome. Without those two
bits the receiver sees pure noise.
"""

import numpy as np

from qpv import BatchRegister, pauli_frame_from
from qpv.oracles import random_qubit_state


def fidelity(reg: BatchRegister, handle, target: np.ndarray) -> float:
    """|<target|qubit>|^2 for the register's single row."""
    return float(abs(np.vdot(target, reg.reduced_state(handle)[0])) ** 2)


rng = np.random.default_rng(7)

print("== one teleportation, step by step ==")
payload_vec = random_qubit_state(rng)
print(f"payload amplitudes: {np.round(payload_vec, 4)}")

# labels, outcomes and corrections are ints 2a + b / 2k + k'
shared = 0b10
reg = BatchRegister(1)
payload = reg.append_qubit(payload_vec, owner="sender")
sender_half, receiver_half = reg.append_bell([shared], owner_first="sender", owner_second="receiver")

outcome = int(reg.bsm(payload, sender_half, rng.random(1))[0])
k, k_prime = divmod(pauli_frame_from(shared, outcome), 2)
print(f"shared label ({shared >> 1},{shared & 1}), BSM outcome ({outcome >> 1},{outcome & 1})"
      f" -> correction k={k} k'={k_prime}")

raw_fidelity = fidelity(reg, receiver_half, payload_vec)
print(f"receiver fidelity before correction: {raw_fidelity:.4f}")

# undo sigma_z^k sigma_x^k' by applying sigma_x^k' then sigma_z^k
reg.apply_frame(receiver_half, 0, k_prime)
reg.apply_frame(receiver_half, k, 0)
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
for shared in range(4):
    row = []
    for outcome in range(4):
        k, k_prime = divmod(pauli_frame_from(shared, outcome), 2)
        row.append(f"bb'={outcome:02b} -> (k={k}, k'={k_prime})")
    print(f"shared |{shared:02b}>: " + "  ".join(row))
