"""Command-line entry point: honest runs, attack runs, Monte Carlo, selftest.

Flags override values from an optional JSON config file whose keys mirror the
config dataclass fields. Config values are checked, not coerced: an int must be
a JSON integer, and an unknown key is an error (exit 2).
Every subcommand is deterministic under a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .adversary import SHIPPED_STRATEGIES, AttackConfig, run_attack
from .analysis import (REPORT_FORMATS, SCENARIOS, ExperimentSpec, check_report_format, render_csv, run_experiment,
                       write_report)
from .protocol import VARIANT_TWO_BIT, VARIANTS, ProtocolConfig, run_honest, transcripts_to_json
from .selftest import SUITES, run_selftest
from .spacetime import format_event_log

_BIT_GLYPH = {0: "+", 1: "-", None: "?"}


_RUN_KEYS = ("n", "x", "variant", "deadline_slack", "seed")
_ATTACK_KEYS = (*_RUN_KEYS, "strategy", "delta", "rounds", "preshared_pairs")
_MONTECARLO_KEYS = ("scenario", "n", "trials", "seed", "x", "delta", "rounds", "variant", "workers", "format", "out")
_KINDS = {int: "an int", float: "a number", str: "a string"}


def _merged(args: argparse.Namespace, known: tuple[str, ...]) -> dict:
    """Values of the config file (``args.config``, keys ``known``) overridden by any flag the user set."""
    merged = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            merged = json.load(handle)
        if not isinstance(merged, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(merged) - set(known))
        if unknown:
            raise ValueError(f"unknown config key(s) {', '.join(map(repr, unknown))}; known: {', '.join(known)}")
    for name in known:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    return merged


def _typed(name: str, value, kind: type):
    """``value`` if it has JSON type ``kind``, else ValueError naming the key ``name``.

    A bool is neither an int nor a number here; a number is returned as a float.
    """
    if not isinstance(value, (int, float) if kind is float else kind) or isinstance(value, bool):
        raise ValueError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    return float(value) if kind is float else value


def _name(settings: dict, key: str, default: str) -> str:
    """The string setting ``key`` (or ``default``), with dashes read as underscores."""
    return _typed(key, settings.get(key, default), str).replace("-", "_")


def _protocol_config(settings: dict) -> ProtocolConfig:
    return ProtocolConfig(
        n=_typed("n", settings.get("n", 4), int),
        x=_typed("x", settings.get("x", 1.0), float),
        variant=_name(settings, "variant", "two_bit"),
        deadline_slack=_typed("deadline_slack", settings.get("deadline_slack", 0.0), float),
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
    settings = _merged(args, _RUN_KEYS)
    config = _protocol_config(settings)
    config.validate()
    seed = _typed("seed", settings.get("seed", 0), int)
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
    settings = _merged(args, _ATTACK_KEYS)
    strategy = _name(settings, "strategy", "guess")
    if strategy not in SHIPPED_STRATEGIES:  # a config file bypasses the flag's choices
        raise ValueError(f"strategy must be one of {SHIPPED_STRATEGIES}, got {strategy!r}")
    config = AttackConfig(
        strategy=strategy,
        delta=_typed("delta", settings.get("delta", 0.1), float),
        rounds=_typed("rounds", settings.get("rounds", 1), int),
        preshared_pairs=settings.get("preshared_pairs"),
        protocol=_protocol_config(settings),
    )
    config.validate()
    seed = _typed("seed", settings.get("seed", 0), int)
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
    settings = _merged(args, _MONTECARLO_KEYS)
    n_raw = settings.get("n", "1,2,4,8")
    if isinstance(n_raw, str):
        n_values = tuple(int(part) for part in n_raw.split(","))
    elif isinstance(n_raw, list):
        n_values = tuple(_typed("n", v, int) for v in n_raw)
    else:
        raise ValueError(f"n must be a list of ints or a comma-separated string, got {n_raw!r}")
    spec = ExperimentSpec(
        scenario=_name(settings, "scenario", "guess"),
        n_values=n_values,
        trials=_typed("trials", settings.get("trials", 10_000), int),
        master_seed=_typed("seed", settings.get("seed", 0), int),
        x=_typed("x", settings.get("x", 1.0), float),
        delta=_typed("delta", settings.get("delta", 0.1), float),
        rounds=_typed("rounds", settings.get("rounds", 1), int),
        variant=_name(settings, "variant", "two_bit"),
    )
    spec.validate()
    fmt = _typed("format", settings.get("format", "json"), str)
    check_report_format(fmt)
    out = _typed("out", settings.get("out", f"qpv_report.{fmt}"), str)
    result = run_experiment(spec, workers=_typed("workers", settings.get("workers", os.cpu_count() or 1), int))
    write_report(result, out, fmt)
    print(render_csv(result).rstrip("\n"))
    print(f"report written to {out}")
    return 0 if result.all_passed() else 1


def cmd_selftest(args: argparse.Namespace) -> int:
    suites = args.suite if args.suite else None
    return 0 if run_selftest(suites) else 1


def _choices(names) -> list[str]:
    """Each name spelled with dashes, then as written."""
    return list(dict.fromkeys([*(name.replace("_", "-") for name in names), *names]))


def _add_protocol_flags(parser: argparse.ArgumentParser) -> None:
    """The flags ``run`` and ``attack`` share: a config file and the protocol settings."""
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--n", type=int, help="number of entangled pairs (default 4)")
    parser.add_argument("--x", type=float, help="prover distance from each verifier (default 1)")
    parser.add_argument("--variant", choices=_choices(VARIANTS), help="announcement variant (default two-bit)")
    parser.add_argument("--deadline-slack", dest="deadline_slack", type=float, help="extra allowance on the deadline")
    parser.add_argument("--seed", type=int, help="trial seed, an int in [0, 2**64) (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpv",
        description="Simulator of a teleportation-based position-verification protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one honest protocol instance and print its transcript")
    _add_protocol_flags(run_p)
    run_p.add_argument("--transcript-json", help="also write the per-pair transcript to this file")
    run_p.set_defaults(func=cmd_run)

    atk_p = sub.add_parser("attack", help="run one colluding-prover trial")
    _add_protocol_flags(atk_p)
    atk_p.add_argument("--strategy", choices=_choices(SHIPPED_STRATEGIES), help="adversary strategy (default guess)")
    atk_p.add_argument("--delta", type=float, help="colluder offset from the claimed position (default 0.1)")
    atk_p.add_argument("--rounds", type=int, help="free local rounds for bounded-rounds (default 1)")
    atk_p.add_argument("--preshared-pairs", dest="preshared_pairs", type=int,
                       help="cap on pre-shared Bell pairs (default unlimited)")
    atk_p.add_argument("--diagnostic", action="store_true",
                       help="judge with infinite deadline slack (content checks only)")
    atk_p.set_defaults(func=cmd_attack)

    mc_p = sub.add_parser("montecarlo", help="estimate acceptance/detection rates over many trials")
    mc_p.add_argument("--config", help="JSON config file; flags override its values")
    mc_p.add_argument("--scenario", choices=_choices(SCENARIOS))
    mc_p.add_argument("--n", help="comma-separated pair counts, e.g. 1,2,4,8")
    mc_p.add_argument("--trials", type=int, help="trials per point (default 10000)")
    mc_p.add_argument("--seed", type=int, help="master seed, an int in [0, 2**64) (default 0)")
    mc_p.add_argument("--x", type=float)
    mc_p.add_argument("--delta", type=float)
    mc_p.add_argument("--rounds", type=int)
    mc_p.add_argument("--variant", choices=_choices(VARIANTS))
    mc_p.add_argument("--workers", type=int, help="worker processes, at most the CPU count (default: CPU count)")
    mc_p.add_argument("--format", choices=REPORT_FORMATS, help="report format (default json)")
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
