"""Command-line entry point: honest runs, attack runs, Monte Carlo, selftest.

Flags override values from an optional JSON config file whose keys mirror the
config dataclass fields. Every subcommand is deterministic under a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .adversary import SHIPPED_STRATEGIES, AttackConfig, run_attack
from .analysis import ExperimentSpec, render_csv, run_experiment, write_report
from .protocol import VARIANT_TWO_BIT, ProtocolConfig, run_honest, transcripts_to_json
from .selftest import SUITES, run_selftest
from .spacetime import format_event_log

_BIT_GLYPH = {0: "+", 1: "-", None: "?"}


def _norm(name: str | None) -> str | None:
    return name.replace("-", "_") if isinstance(name, str) else name


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _merged(args: argparse.Namespace, file_keys: dict, flag_names: list[str]) -> dict:
    """Config-file values overridden by any flag the user actually set."""
    merged = dict(file_keys)
    for name in flag_names:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    return merged


def _protocol_config(settings: dict) -> ProtocolConfig:
    return ProtocolConfig(
        n=int(settings.get("n", 4)),
        x=float(settings.get("x", 1.0)),
        variant=_norm(settings.get("variant", "two_bit")),
        deadline_slack=float(settings.get("deadline_slack", 0.0)),
        strict_duplicates=bool(settings.get("strict_duplicates", False)),
    )


def _print_transcripts(transcripts) -> None:
    for i, t in enumerate(transcripts):
        ann = t.pp_prime
        if ann is not None and t.variant == VARIANT_TWO_BIT:
            ann = f"({ann >> 1},{ann & 1})"
        print(
            f"pair {i}: w'=({t.w_prime >> 1},{t.w_prime & 1})"
            f" report={_BIT_GLYPH.get(t.prover_state_report, '?')}"
            f" announcement={ann}"
            f" v2_outcome={_BIT_GLYPH.get(t.v2_outcome, '?')}"
        )


def cmd_run(args: argparse.Namespace) -> int:
    settings = _merged(args, _load_config_file(args.config), ["n", "x", "variant", "deadline_slack", "seed"])
    config = _protocol_config(settings)
    config.validate()
    seed = int(settings.get("seed", 0))
    verdict, transcripts, events = run_honest(config, seed)
    print(f"honest run: n={config.n} x={config.x} variant={config.variant} seed={seed}")
    _print_transcripts(transcripts)
    print("-- event timeline --")
    print(format_event_log(events))
    print(f"verdict: {'ACCEPT' if verdict.accepted else 'REJECT'} (reason: {verdict.reason})")
    if args.transcript_json:
        with open(args.transcript_json, "w", encoding="utf-8") as handle:
            handle.write(transcripts_to_json(transcripts))
    return 0 if verdict.accepted else 1


def cmd_attack(args: argparse.Namespace) -> int:
    settings = _merged(
        args,
        _load_config_file(args.config),
        ["n", "x", "variant", "deadline_slack", "seed", "strategy", "delta", "rounds", "preshared_pairs"],
    )
    config = AttackConfig(
        strategy=_norm(settings.get("strategy", "guess")),
        delta=float(settings.get("delta", 0.1)),
        rounds=int(settings.get("rounds", 1)),
        preshared_pairs=settings.get("preshared_pairs"),
        protocol=_protocol_config(settings),
    )
    config.validate()
    seed = int(settings.get("seed", 0))
    outcome = run_attack(config, seed, diagnostic=args.diagnostic)
    print(f"attack run: strategy={config.strategy} n={config.protocol.n} x={config.protocol.x} "
          f"delta={config.delta} seed={seed}{' (diagnostic: timing check disabled)' if args.diagnostic else ''}")
    _print_transcripts(outcome.transcripts)
    print("-- event timeline --")
    print(format_event_log(outcome.events))
    verdict = outcome.verdict
    print(f"verdict: {'ACCEPT' if verdict.accepted else 'REJECT'} (reason: {verdict.reason})")
    print(f"earliest_complete_response_time: {outcome.earliest_complete_response_time!r}")
    if outcome.agreement_time is not None:
        print(f"colluder agreement at t={outcome.agreement_time!r}")
    return 0


def cmd_montecarlo(args: argparse.Namespace) -> int:
    settings = _merged(
        args,
        _load_config_file(args.config),
        ["scenario", "n", "trials", "seed", "x", "delta", "rounds", "variant", "workers", "format", "out"],
    )
    n_raw = settings.get("n", "1,2,4,8")
    if isinstance(n_raw, str):
        n_values = tuple(int(part) for part in n_raw.split(","))
    else:
        n_values = tuple(int(v) for v in n_raw)
    spec = ExperimentSpec(
        scenario=_norm(settings.get("scenario", "guess")),
        n_values=n_values,
        trials=int(settings.get("trials", 10_000)),
        master_seed=int(settings.get("seed", 0)),
        x=float(settings.get("x", 1.0)),
        delta=float(settings.get("delta", 0.1)),
        rounds=int(settings.get("rounds", 1)),
        variant=_norm(settings.get("variant", "two_bit")),
    )
    spec.validate()
    workers = settings.get("workers")
    workers = int(workers) if workers is not None else (os.cpu_count() or 1)
    result = run_experiment(spec, workers=workers)
    fmt = settings.get("format", "json")
    out = settings.get("out", f"qpv_report.{fmt}")
    write_report(result, out, fmt)
    print(render_csv(result).rstrip("\n"))
    print(f"report written to {out}")
    return 0 if result.all_passed() else 1


def cmd_selftest(args: argparse.Namespace) -> int:
    suites = args.suite if args.suite else None
    return 0 if run_selftest(suites) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpv",
        description="Simulator of a teleportation-based position-verification protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one honest protocol instance and print its transcript")
    run_p.add_argument("--config", help="JSON config file; flags override its values")
    run_p.add_argument("--n", type=int, help="number of entangled pairs (default 4)")
    run_p.add_argument("--x", type=float, help="prover distance from each verifier (default 1)")
    run_p.add_argument("--variant", choices=["two-bit", "single-bit", "two_bit", "single_bit"],
                       help="announcement variant (default two-bit)")
    run_p.add_argument("--deadline-slack", dest="deadline_slack", type=float, help="extra allowance on the deadline")
    run_p.add_argument("--seed", type=int, help="trial seed, an int in [0, 2**64) (default 0)")
    run_p.add_argument("--transcript-json", help="also write the per-pair transcript to this file")
    run_p.set_defaults(func=cmd_run)

    atk_p = sub.add_parser("attack", help="run one colluding-prover trial")
    atk_p.add_argument("--config", help="JSON config file; flags override its values")
    atk_p.add_argument("--strategy", choices=[s.replace("_", "-") for s in SHIPPED_STRATEGIES] + list(SHIPPED_STRATEGIES),
                       help="adversary strategy (default guess)")
    atk_p.add_argument("--n", type=int)
    atk_p.add_argument("--x", type=float)
    atk_p.add_argument("--delta", type=float, help="colluder offset from the claimed position (default 0.1)")
    atk_p.add_argument("--rounds", type=int, help="free local rounds for bounded-rounds (default 1)")
    atk_p.add_argument("--preshared-pairs", dest="preshared_pairs", type=int,
                       help="cap on pre-shared Bell pairs (default unlimited)")
    atk_p.add_argument("--variant", choices=["two-bit", "single-bit", "two_bit", "single_bit"])
    atk_p.add_argument("--deadline-slack", dest="deadline_slack", type=float)
    atk_p.add_argument("--seed", type=int, help="trial seed, an int in [0, 2**64) (default 0)")
    atk_p.add_argument("--diagnostic", action="store_true",
                       help="judge with infinite deadline slack (content checks only)")
    atk_p.set_defaults(func=cmd_attack)

    mc_p = sub.add_parser("montecarlo", help="estimate acceptance/detection rates over many trials")
    mc_p.add_argument("--config", help="JSON config file; flags override its values")
    mc_p.add_argument("--scenario", choices=["honest", "guess", "swap-and-forward", "bounded-rounds",
                                             "swap_and_forward", "bounded_rounds"])
    mc_p.add_argument("--n", help="comma-separated pair counts, e.g. 1,2,4,8")
    mc_p.add_argument("--trials", type=int, help="trials per point (default 10000)")
    mc_p.add_argument("--seed", type=int, help="master seed, an int in [0, 2**64) (default 0)")
    mc_p.add_argument("--x", type=float)
    mc_p.add_argument("--delta", type=float)
    mc_p.add_argument("--rounds", type=int)
    mc_p.add_argument("--variant", choices=["two-bit", "single-bit", "two_bit", "single_bit"])
    mc_p.add_argument("--workers", type=int, help="worker processes (default: CPU count)")
    mc_p.add_argument("--format", choices=["json", "csv"], help="report format (default json)")
    mc_p.add_argument("--out", help="report path (default qpv_report.<fmt>)")
    mc_p.set_defaults(func=cmd_montecarlo)

    st_p = sub.add_parser("selftest", help="run the built-in brute-force oracle suites")
    st_p.add_argument("--suite", action="append", choices=sorted(SUITES),
                      help="run only this suite (repeatable; default: all)")
    st_p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
