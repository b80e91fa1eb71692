"""qpv benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload mc_n1 --seed 1 --seconds 25 --trace 0

Run from the repository root. ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` runs a fixed amount of work untraced and then
traced, and reports the per-layer metrics and the tracing overhead.
``--workload all`` runs every workload in turn, each in its own process. The
last line of standard output is one JSON object; a per-run record (with the
spans, for a traced run) is written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "trials_per_s": "trials/s",
    "scaling_efficiency": "ratio",
    "run_us_p50": "us",
    "run_us_p99": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def load_program():
    """Import the benchmark's workloads against this checkout's ``src/``; exit 2 if absent."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import qpv
    except ImportError as exc:
        print(f"error: cannot import qpv from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(qpv.__file__).resolve().parent.parent != ROOT / "src":
        print(f"error: imported qpv from {qpv.__file__}, not from this checkout", file=sys.stderr)
        sys.exit(2)
    import spans
    import workloads
    return workloads, spans


def metadata() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or None
    src_lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in (ROOT / "src").rglob("*.py"))
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_lines": src_lines,
    }


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh processes of: import qpv, build the configs, one warm-up call."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


class Tally:
    """Operations attempted and failed, with the first few problems kept for the record."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.flagged_rows = 0
        self.problems: list[str] = []

    def add(self, result) -> None:
        self.attempted += result.operations
        self.failed += min(len(result.problems), result.operations)
        self.flagged_rows += result.flagged_rows
        self.problems.extend(result.problems[:20 - len(self.problems)])

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def run_op(workload, seed: int, index: int, tally: Tally):
    """One operation; an exception counts as a failed operation."""
    try:
        result = workload.op(seed, index)
    except Exception as exc:  # the benchmark must keep measuring and report the failure
        tally.fail(f"op {index}: {type(exc).__name__}: {exc}")
        return None
    tally.add(result)
    return result


def timed_loop(workload, seed: int, seconds: float, tally: Tally) -> list:
    """Operations until ``seconds`` have passed, always ending on a whole cycle of scenarios.

    One whole cycle runs first, checked but not timed, so that the heap and
    caches have grown to full size before timing starts.
    """
    cycle = workload.cycle
    for index in range(cycle):
        run_op(workload, seed, index, tally)
    results, index = [], cycle
    end = perf_counter() + seconds
    while perf_counter() < end or index % cycle:
        results.append(run_op(workload, seed, index, tally))
        index += 1
    return results


def throughput(workload, results: list) -> dict[str, float]:
    """trials_per_s, scaling_efficiency and per-trial latency from completed operations.

    Rates are medians over whole cycles of scenarios, so one slow cycle on a
    shared machine moves them little. The one-worker workloads have
    scaling_efficiency 1 by definition: rate / (1 x rate).
    """
    cycle = workload.cycle
    rates, efficiencies = [], []
    for start in range(0, len(results) - cycle + 1, cycle):
        chunk = results[start:start + cycle]
        if any(r is None for r in chunk):
            continue
        elapsed = sum(r.elapsed for r in chunk)
        rates.append(sum(r.trials for r in chunk) / elapsed)
        if chunk[0].serial_elapsed:
            efficiencies.append(sum(r.serial_elapsed for r in chunk) / (chunk[0].workers * elapsed))
    latencies = [r.elapsed / r.trials * 1e6 for r in results if r is not None]
    if not rates:
        return {}
    percentiles = statistics.quantiles(latencies, n=100, method="inclusive")
    return {
        "trials_per_s": statistics.median(rates),
        "scaling_efficiency": statistics.median(efficiencies) if efficiencies else 1.0,
        "run_us_p50": percentiles[49],
        "run_us_p99": percentiles[98],
        "samples": len(latencies),
    }


def measure(workloads, name: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    workload = workloads.WORKLOADS[name]
    tally = Tally()
    setup = setup_seconds(name, seed)
    workload.warm_up(seed)
    stats = throughput(workload, timed_loop(workload, seed, seconds, tally))
    metrics = {
        **{key: stats[key] for key in ("trials_per_s", "scaling_efficiency", "run_us_p50", "run_us_p99")
           if key in stats},
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - tally.failed / max(tally.attempted, 1),
    }
    return tally, {"metrics": metrics, "samples": stats.get("samples", 0)}


def trace(workloads, spans, name: str, seed: int) -> tuple[Tally, dict]:
    """Fixed work, each cycle of scenarios run untraced and traced; layer metrics from the traced runs.

    The two sides alternate which goes first, cycle by cycle, so drift in the
    machine's load lands on both and their difference is the tracing overhead.
    """
    workload = workloads.WORKLOADS[name]
    tally = Tally()
    workload.warm_up(seed)
    recorder = spans.Recorder()
    plain, traced = [], []
    for block, start in enumerate(range(0, workload.traced_ops, workload.cycle)):
        indices = range(start, start + workload.cycle)
        for side in ((False, True) if block % 2 == 0 else (True, False)):
            if side:
                with recorder:
                    for index in indices:
                        recorder.op = index
                        traced.append(run_op(workload, seed, index, tally))
            else:
                plain.extend(run_op(workload, seed, index, tally) for index in indices)
    for index, (a, b) in enumerate(zip(plain, traced)):
        if a is not None and b is not None and a.fingerprint != b.fingerprint:
            tally.fail(f"op {index}: traced and untraced runs differ")
    # In mc_parallel the worker processes inherit the wrappers but keep their
    # spans, so the per-layer figures cover the workers=1 half of each operation.
    trials = sum(r.trials + r.untimed_trials for r in traced if r is not None) or 1
    untraced, with_trace = throughput(workload, plain), throughput(workload, traced)
    fanout = [r.elapsed - r.serial_elapsed / r.workers for r in plain if r and r.serial_elapsed]
    metrics = {
        **spans.layer_metrics(recorder, trials),
        "analysis.fanout_overhead_s": statistics.median(fanout) if fanout else 0.0,
        "trace.overhead_trials_per_s": untraced.get("trials_per_s", 0.0) - with_trace.get("trials_per_s", 0.0),
        "trace.overhead_run_us_p50": with_trace.get("run_us_p50", 0.0) - untraced.get("run_us_p50", 0.0),
    }
    return tally, {"metrics": metrics, "untraced": untraced, "traced": with_trace, "recorder": recorder}


def run_all(seed: int, seconds: float, trace_flag: int, names) -> int:
    """Each workload in its own process, so peak memory and imports stay per workload."""
    failed = False
    for name in names:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace_flag)],
                              capture_output=True, text=True)
        last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
        print(f"{name}: {last or done.stderr.strip()}", flush=True)
        failed = failed or done.returncode != 0 or not json.loads(last or "{}").get("correct", False)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads, spans = load_program()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)} or all")

    if args.trace:
        tally, record = trace(workloads, spans, args.workload, args.seed)
        units = {name: layer_unit(name) for name in record["metrics"]}
    else:
        tally, record = measure(workloads, args.workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
    metrics = {name: {"value": value, "unit": units[name]} for name, value in record["metrics"].items()}

    RESULTS.mkdir(exist_ok=True)
    recorder = record.pop("recorder", None)
    out = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "meta": metadata(), "attempted": tally.attempted, "failed": tally.failed,
        "failed_ratio": tally.failed / max(tally.attempted, 1), "rows_flagged_by_3sigma": tally.flagged_rows,
        "problems": tally.problems, **record, "metrics": metrics,
    }
    if recorder is not None:
        calls, total, own = spans.summary(recorder.spans)
        out["spans_by_name"] = {name: {"calls": calls[name], "s": total[name], "self_s": own[name]}
                                for name in sorted(calls)}
        recorder.write(RESULTS / f"{args.workload}-spans.json.gz")
    with open(RESULTS / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(out, handle)

    print(f"# meta {json.dumps(out['meta'])}")
    print(f"# {args.workload}: attempted={tally.attempted} failed={tally.failed} "
          f"failed_ratio={out['failed_ratio']:.6g} samples={record.get('samples', '-')} "
          f"rows_flagged_by_3sigma={tally.flagged_rows}")
    for problem in tally.problems:
        print(f"# problem: {problem}")
    for name, span in out.get("spans_by_name", {}).items():
        print(f"# span {name}: calls={span['calls']} s={span['s']:.6g} self_s={span['self_s']:.6g}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


LAYER_UNITS = {
    "protocol.judge.pairs": "count",
    "protocol.judge_calls_per_trial": "calls/trial",
    "quantum.rows_per_op": "rows/op",
    "quantum.bytes_computed": "B",
    "spacetime.events": "count",
    "spacetime.messages": "count",
    "spacetime.values": "count",
    "spacetime.events_per_trial": "events/trial",
    "trace.overhead_trials_per_s": "trials/s",
    "trace.overhead_run_us_p50": "us",
}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "count" if name.endswith(".calls") else "s"


if __name__ == "__main__":
    sys.exit(main())
