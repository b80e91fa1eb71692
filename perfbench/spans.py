"""Span recorder for the traced run: wraps qpv's public functions from outside.

Nothing in ``src/`` knows about tracing. ``Recorder.install`` replaces each
traced name where the program looks it up (``protocol`` and ``analysis``
import several names directly, so those module attributes are wrapped too)
and ``Recorder.restore`` puts every original back. Spans are kept in memory
as ``(name, start, end, parent, op)`` tuples and written once, when the run
ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict

import numpy as np

import qpv.adversary
import qpv.analysis
import qpv.protocol
import qpv.quantum
import qpv.spacetime

# Span names grouped by the layer metric they feed.
TRIAL_SEED = "analysis.trial_seed"
RUN_TRIAL_BATCH = "analysis.run_trial_batch"
ANALYSIS_RENDER = "analysis.render"
RNG = "protocol.rng_construct"
DRAWS = "protocol.draws"
JUDGE = "protocol.judge"
COMPUTE_VERDICTS = "protocol.compute_verdicts"
PROTOCOL_RUN = "protocol.run"
PROTOCOL_RENDER = "protocol.render"
QUANTUM_OPS = "quantum.ops"
TIMELINE = "spacetime.run_until_quiescent"
VERIFY_CAUSALITY = "spacetime.verify_causality"
ADVERSARY = "adversary.run"

_QUANTUM_METHODS = ("bsm", "hadamard_measure", "append_bell", "append_hadamard_eigenstates")


def _targets():
    """(owner, attribute, span name) for every wrapped lookup site."""
    analysis, protocol, spacetime = qpv.analysis, qpv.protocol, qpv.spacetime
    return [
        (analysis, "trial_seed", TRIAL_SEED),
        (analysis, "run_trial_batch", RUN_TRIAL_BATCH),
        (analysis, "render_json", ANALYSIS_RENDER),
        (analysis, "render_csv", ANALYSIS_RENDER),
        (analysis, "parse_report", ANALYSIS_RENDER),
        (analysis, "run_honest_batch", PROTOCOL_RUN),
        (analysis, "run_attack_batch", ADVERSARY),
        (protocol, "run_honest", PROTOCOL_RUN),
        (qpv.adversary, "run_attack", ADVERSARY),
        (np.random, "default_rng", RNG),
        (protocol.TrialCore, "sample_uniforms", DRAWS),
        (protocol.TrialCore, "sample_bits", DRAWS),
        (protocol, "judge", JUDGE),
        (protocol.TrialCore, "compute_verdicts", COMPUTE_VERDICTS),
        (protocol, "transcripts_to_json", PROTOCOL_RENDER),
        (spacetime, "format_event_log", PROTOCOL_RENDER),
        (protocol, "verify_causality", VERIFY_CAUSALITY),
        (spacetime.Timeline, "run_until_quiescent", TIMELINE),
        *[(qpv.quantum.BatchRegister, name, QUANTUM_OPS) for name in _QUANTUM_METHODS],
    ]


class Recorder:
    """In-memory span tree plus exact counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int | None]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if count is not None:
                count(args, result)
            return result

        return wrapper

    def _count_judge(self, args, result) -> None:
        self.counts["judge_pairs"] += args[0].n

    def _count_quantum(self, args, result) -> None:
        register = args[0]
        self.counts["quantum_rows"] += register.batch_size
        self.counts["quantum_bytes"] += register.batch_size * (2 ** register.num_qubits) * 16

    def _count_timeline(self, args, result) -> None:
        timeline = args[0]
        self.counts["events"] += len(timeline.log)
        self.counts["messages"] += len(timeline.messages)
        self.counts["values"] += len(timeline.values)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("recorder is already installed")
        counters = {JUDGE: self._count_judge, QUANTUM_OPS: self._count_quantum, TIMELINE: self._count_timeline}
        for owner, attr, name in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counters.get(name)))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def write(self, path) -> None:
        """Gzipped JSON: the counters, and one ``[name, start, end, parent, op]`` list per span."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "counts": dict(self.counts),
                       "spans": self.spans}, handle)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (_name, start, end, _parent, _op) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def summary(spans) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
    """Calls, total seconds and self seconds for each span name."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        total[span[0]] += span[2] - span[1]
        own[span[0]] += self_s
    return calls, total, own


def layer_metrics(recorder: Recorder, trials: int) -> dict[str, float]:
    """Per-layer totals over the traced phase; ``trials`` is the number simulated."""
    calls, total, own = summary(recorder.spans)
    counts = recorder.counts
    quantum_calls = calls[QUANTUM_OPS]
    return {
        "analysis.trial_seed.calls": calls[TRIAL_SEED],
        "analysis.trial_seed.s": total[TRIAL_SEED],
        "analysis.run_trial_batch.calls": calls[RUN_TRIAL_BATCH],
        "analysis.run_trial_batch.s": total[RUN_TRIAL_BATCH],
        "analysis.render.s": total[ANALYSIS_RENDER],
        "protocol.rng_construct.calls": calls[RNG],
        "protocol.rng_construct.s": total[RNG],
        "protocol.draws.calls": calls[DRAWS],
        "protocol.draws.s": total[DRAWS],
        "protocol.judge.calls": calls[JUDGE],
        "protocol.judge.s": total[JUDGE],
        "protocol.judge.pairs": counts["judge_pairs"],
        "protocol.compute_verdicts.self_s": own[COMPUTE_VERDICTS],
        "protocol.judge_calls_per_trial": calls[JUDGE] / trials,
        "protocol.render.s": total[PROTOCOL_RENDER],
        "quantum.ops.calls": quantum_calls,
        "quantum.ops.s": total[QUANTUM_OPS],
        "quantum.rows_per_op": counts["quantum_rows"] / quantum_calls if quantum_calls else 0.0,
        "quantum.bytes_computed": counts["quantum_bytes"],
        "spacetime.self_s": own[TIMELINE],
        "spacetime.verify_causality.s": total[VERIFY_CAUSALITY],
        "spacetime.events": counts["events"],
        "spacetime.messages": counts["messages"],
        "spacetime.values": counts["values"],
        "spacetime.events_per_trial": counts["events"] / trials,
        "adversary.self_s": own[ADVERSARY],
    }

