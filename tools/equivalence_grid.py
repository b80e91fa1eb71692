#!/usr/bin/env python3
"""Print one ``case sha256`` line per case of a fixed grid of simulator outputs.

Two checkouts that print the same lines produce byte-identical transcripts,
event logs, verdicts and Monte Carlo reports over the grid, so a change that
must not move any output is checked with an empty diff:

    PYTHONPATH=<parent>/src python3 tools/equivalence_grid.py > parent.txt
    PYTHONPATH=<change>/src python3 tools/equivalence_grid.py > change.txt
    diff parent.txt change.txt

The grid:

* ``run/...``: single runs over seeds x scenarios x variants x strict
  duplicates x diagnostic (attacks only): transcripts, event log, verdict,
  and for attacks the completion and agreement times;
* ``batch/...``: the batched verdicts of 64 derived trial keys per cell;
* ``edge/...``: runs at the timing edges: responses exactly at, or one
  rounding step past, the deadline, and colluder offsets at the float
  resolution of 2x;
* ``experiment/...``: ``render_json`` of the Monte Carlo specs the test
  suite runs, at workers=1 and again at workers=2 and 3 (``.../workers=k``),
  which cover the process fan-out; a fanned-out line must repeat the hash of
  its workers=1 line, or the script exits 1 after printing every line;
* ``stdout/...``: what a user sees, the stdout of the five demos and of
  ``qpv selftest``. Each runs as a subprocess against the ``qpv`` package
  this script imported (the demos of that package's checkout), in a fresh
  temporary directory because demo 05 writes a CSV file there. Demo 03 takes
  most of the script's run time.

It uses only the public run functions and the command line, so it runs
unchanged on older checkouts that have them.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import qpv
from qpv.adversary import AttackConfig, run_attack, run_attack_batch
from qpv.analysis import SCENARIOS, ExperimentSpec, render_json, run_experiment, trial_keys
from qpv.protocol import VARIANTS, ProtocolConfig, run_honest, run_honest_batch, transcripts_to_json
from qpv.spacetime import format_event_log

SRC = Path(qpv.__file__).resolve().parents[1]
DEMOS = sorted((SRC.parent / "demos").glob("[0-9]*.py"))
SEEDS = range(6)
N = 4
BATCH_TRIALS = 64
# The Monte Carlo specs of the test suite: (scenario, n values, trials, master seed).
EXPERIMENTS = [
    ("guess", (1, 2, 3, 4, 6, 8), 100_000, 2024),
    ("guess", (1, 2), 500, 88),
    ("honest", (1, 4), 200, 3),
    ("guess", (1, 2), 3000, 11),
    ("swap_and_forward", (1,), 100, 0),
    ("guess", (1,), 500, 5),
    ("guess", (1,), 300, 9),
    ("guess", (1, 2, 4), 3000, 21),
    ("guess", (1, 3), 41, 13),
    ("guess", (1, 2), 400, 7),
    ("honest", (2,), 50, 0),
    ("honest", (1, 16), 2000, 11),
    ("guess", (1, 16), 2000, 11),
]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def single_run(scenario: str, protocol: ProtocolConfig, seed: int, diagnostic: bool = False,
               delta: float = 0.1) -> str:
    """Everything one run returns, as text."""
    if scenario == "honest":
        verdict, transcripts, events = run_honest(protocol, seed)
        extra = ""
    else:
        outcome = run_attack(AttackConfig(strategy=scenario, delta=delta, protocol=protocol), seed,
                             diagnostic=diagnostic)
        verdict, transcripts, events = outcome.verdict, outcome.transcripts, outcome.events
        extra = f"{outcome.earliest_complete_response_time!r} {outcome.agreement_time!r}"
    return "\n".join([transcripts_to_json(transcripts), format_event_log(events), repr(verdict), extra])


def stdout(*args: str) -> str:
    """Stdout of ``python args`` against the imported package, run in a fresh directory."""
    with tempfile.TemporaryDirectory() as cwd:
        return subprocess.run([sys.executable, *args], cwd=cwd, env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, check=True).stdout


def batch(scenario: str, protocol: ProtocolConfig, diagnostic: bool) -> str:
    keys = trial_keys(7, scenario, protocol.n, np.arange(BATCH_TRIALS))
    if scenario == "honest":
        return repr(run_honest_batch(protocol, keys))
    return repr(run_attack_batch(AttackConfig(strategy=scenario, protocol=protocol), keys, diagnostic=diagnostic))


def cases():
    """(case name, zero-argument function giving the text it hashes), in print order."""
    for scenario in SCENARIOS:
        for variant in VARIANTS:
            for strict in (False, True):
                protocol = ProtocolConfig(n=N, variant=variant, strict_duplicates=strict)
                for diagnostic in (False,) if scenario == "honest" else (False, True):
                    cell = f"{scenario}/{variant}/strict={strict}/diagnostic={diagnostic}"
                    for seed in SEEDS:
                        yield (f"run/{cell}/{seed}",
                               lambda s=scenario, p=protocol, k=seed, d=diagnostic: single_run(s, p, k, d))
                    yield f"batch/{cell}", lambda s=scenario, p=protocol, d=diagnostic: batch(s, p, d)
    late = math.nextafter(2.5, 3.0) - 2.0  # the response arrives one rounding step after the deadline 2.5
    for x, slack, delay in [(1.0, 0.0, 0.0), (1.0, 0.5, 0.5), (1.0, 0.5, late), (0.3, 0.7, 0.7),
                            (1e6 + 0.3, 0.0, 0.0), (2.5, math.inf, 3.0)]:
        protocol = ProtocolConfig(n=2, x=x, deadline_slack=slack, prover_delay=delay)
        yield f"edge/honest/x={x!r}/slack={slack!r}/delay={delay!r}", lambda p=protocol: single_run("honest", p, 1)
    for scenario in SCENARIOS[1:]:
        for x, delta in [(1.0, 0.999), (1e6 + 0.3, math.ulp(2 * (1e6 + 0.3))), (0.3, 0.1)]:
            for slack in (0.0, delta, math.nextafter(delta, 0.0)):
                protocol = ProtocolConfig(n=2, x=x, deadline_slack=slack)
                yield (f"edge/{scenario}/x={x!r}/delta={delta!r}/slack={slack!r}",
                       lambda s=scenario, p=protocol, d=delta: single_run(s, p, 1, delta=d))
    for scenario, n_values, trials, seed in EXPERIMENTS:
        spec = ExperimentSpec(scenario=scenario, n_values=n_values, trials=trials, master_seed=seed)
        name = f"experiment/{scenario}/n={','.join(map(str, n_values))}/trials={trials}/seed={seed}"
        yield name, lambda s=spec: render_json(run_experiment(s))
        for workers in (2, 3):
            yield f"{name}/workers={workers}", lambda s=spec, w=workers: render_json(run_experiment(s, workers=w))
    for demo in DEMOS:
        yield f"stdout/{demo.name}", lambda d=demo: stdout(str(d))
    yield "stdout/qpv selftest", lambda: stdout("-m", "qpv.cli", "selftest")


def main() -> int:
    hashes = {}
    for name, text in cases():
        hashes[name] = sha(text())
        print(name, hashes[name], flush=True)
    differ = [name for name in hashes if "/workers=" in name and hashes[name] != hashes[name.rsplit("/", 1)[0]]]
    for name in differ:
        print(f"{name}: differs from workers=1", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
