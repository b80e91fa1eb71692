"""Deterministic simulator of a teleportation-based position-verification protocol.

Two distant verifiers validate a prover's claimed position by steering
non-local correlations to it via teleportation and timing the responses
against the light-speed round trip. The package provides the exact
statevector core, a 1D relativistic event timeline with causality
enforcement, the honest protocol, colluding-adversary strategies, and a
Monte Carlo harness that reproduces the 1 - 2^-n detection bound.
"""

from .quantum import (
    ATOL,
    BatchRegister,
    InvalidTargetError,
    NotProductError,
    OwnershipError,
    QubitHandle,
    pauli_frame_from,
    swap_label,
)
from .spacetime import (
    Actor,
    CausalityViolationError,
    Event,
    KnowledgeLedger,
    Message,
    Timeline,
    WorldPoint,
    format_event_log,
    light_travel_time,
    verify_causality,
)
from .protocol import (
    PairTranscript,
    ProtocolConfig,
    Verdict,
    Verdicts,
    deadline,
    judge,
    run_honest,
    transcripts_to_json,
)
from .adversary import SHIPPED_STRATEGIES, AttackConfig, AttackOutcome, run_attack
from .analysis import (
    ExperimentResult,
    ExperimentSpec,
    ResultRow,
    expected_acceptance,
    parse_report,
    run_experiment,
    trial_keys,
    trial_seed,
    write_report,
)
from .selftest import run_selftest

__version__ = "0.1.0"
