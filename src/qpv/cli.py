"""Command-line entry point: honest runs, attack runs, Monte Carlo, selftest.

Flags override values from an optional JSON config file whose keys mirror the
config dataclass fields. A key set by neither takes the default of its config
class (``ProtocolConfig``, ``AttackConfig``, ``ExperimentSpec``); only the
seed, montecarlo's workers, report format and output path have defaults here.
Each value is passed on as given, and the config class checks its kind and
range: nothing is coerced but a JSON integer where a number is due (``x``,
``delta``, ``deadline_slack``), read as a float. A value of the wrong kind or
range, or an unknown key, is an error (exit 2).
Every subcommand is deterministic under a fixed seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import fields

from .adversary import SHIPPED_STRATEGIES, AttackConfig, run_attack
from .analysis import (REPORT_FORMATS, SCENARIOS, ExperimentSpec, check_report_format, render_csv, run_experiment,
                       write_report)
from .philox import check_seed
from .protocol import VARIANT_TWO_BIT, VARIANTS, ProtocolConfig, check_choice, run_honest, transcripts_to_json
from .selftest import SUITES, run_selftest
from .spacetime import format_event_log

_BIT_GLYPH = {0: "+", 1: "-", None: "?"}


_RUN_KEYS = ("n", "x", "variant", "deadline_slack", "seed")
_ATTACK_KEYS = (*_RUN_KEYS, "strategy", "delta", "rounds", "preshared_pairs")
_MONTECARLO_KEYS = ("scenario", "n", "trials", "seed", "x", "delta", "rounds", "variant", "workers", "format", "out")
_FLOATS = ("x", "delta", "deadline_slack")  # a JSON integer here is read as a float: "x": 2 prints x=2.0
_NAMES = ("variant", "strategy", "scenario")  # dashes are read as underscores
_SPEC_FIELDS = {"n": "n_values", "seed": "master_seed"}  # ExperimentSpec's names for montecarlo's keys


def _settings(args: argparse.Namespace, known: tuple[str, ...], **readers) -> dict:
    """The keys ``known`` set by the config file (``args.config``) or by a flag, the flag winning.

    Each value is passed on for the config classes to check, or read by ``readers[key]`` when that is given.
    """
    settings = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            settings = json.load(handle)
        if not isinstance(settings, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(settings) - set(known))
        if unknown:
            raise ValueError(f"unknown config key(s) {', '.join(map(repr, unknown))}; known: {', '.join(known)}")
    settings.update({name: value for name in known if (value := getattr(args, name, None)) is not None})
    for name, value in settings.items():
        if name in readers:
            value = readers[name](value)
        elif name in _FLOATS and type(value) is int:
            with contextlib.suppress(OverflowError):  # an int past the float range is the config class's to refuse
                value = float(value)
        elif name in _NAMES and isinstance(value, str):
            value = value.replace("-", "_")
        settings[name] = value
    return settings


def _pair_counts(value):
    """Montecarlo's n: a comma-separated string of ints is split; any other value is ExperimentSpec's to check."""
    if not isinstance(value, str):
        return value
    try:
        return tuple(int(part) for part in value.split(","))
    except ValueError:
        raise ValueError(f"n must be a list of ints or a comma-separated string, got {value!r}") from None


def _config(cls, settings: dict, **given):
    """A ``cls`` from ``given`` and the settings named like its fields; the class supplies every other field."""
    return cls(**{f.name: settings[f.name] for f in fields(cls) if f.name in settings}, **given)


def _print_run(verdict, transcripts, events) -> None:
    """The per-pair transcript lines, the event timeline and the verdict of one run."""
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
    print("-- event timeline --")
    print(format_event_log(events))
    print(f"verdict: {'ACCEPT' if verdict.accepted else 'REJECT'} (reason: {verdict.reason})")


def cmd_run(args: argparse.Namespace) -> int:
    settings = _settings(args, _RUN_KEYS)
    config = _config(ProtocolConfig, settings)
    seed = check_seed(settings.get("seed", 0))  # the library reads None as "draw a random seed"
    verdict, transcripts, events = run_honest(config, seed)
    print(f"honest run: n={config.n} x={config.x} variant={config.variant} seed={seed}")
    _print_run(verdict, transcripts, events)
    if args.transcript_json:
        with open(args.transcript_json, "w", encoding="utf-8") as handle:
            handle.write(transcripts_to_json(transcripts))
    return 0 if verdict.accepted else 1


def cmd_attack(args: argparse.Namespace) -> int:
    settings = _settings(args, _ATTACK_KEYS)
    config = _config(AttackConfig, settings, protocol=_config(ProtocolConfig, settings))
    check_choice("strategy", config.strategy, SHIPPED_STRATEGIES)  # a config file bypasses the flag's choices
    seed = check_seed(settings.get("seed", 0))  # the library reads None as "draw a random seed"
    outcome = run_attack(config, seed, diagnostic=args.diagnostic)
    print(f"attack run: strategy={config.strategy} n={config.protocol.n} x={config.protocol.x} "
          f"delta={config.delta} seed={seed}{' (diagnostic: timing check disabled)' if args.diagnostic else ''}")
    _print_run(outcome.verdict, outcome.transcripts, outcome.events)
    print(f"earliest_complete_response_time: {outcome.earliest_complete_response_time!r}")
    if outcome.agreement_time is not None:
        print(f"colluder agreement at t={outcome.agreement_time!r}")
    return 0


def cmd_montecarlo(args: argparse.Namespace) -> int:
    settings = _settings(args, _MONTECARLO_KEYS, n=_pair_counts)
    spec = _config(ExperimentSpec, {_SPEC_FIELDS.get(name, name): value for name, value in settings.items()})
    spec.validate()
    fmt = settings.get("format", "json")
    check_report_format(fmt)
    out = settings.get("out", f"qpv_report.{fmt}")
    if not isinstance(out, str):  # open() would take an int as a file descriptor
        raise ValueError(f"out must be a string, got {out!r}")
    directory = os.path.dirname(out) or "."
    if not os.path.isdir(directory):  # refused before the grid runs, not after
        raise ValueError(f"out {out!r}: directory {directory!r} does not exist")
    if not out or os.path.isdir(out):
        raise ValueError(f"out {out!r} must name a file, not a directory")
    result = run_experiment(spec, workers=settings.get("workers", os.cpu_count() or 1))
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
    parser.add_argument("--n", type=int, help=f"number of entangled pairs (default {ProtocolConfig.n})")
    parser.add_argument("--x", type=float, help=f"prover distance from each verifier (default {ProtocolConfig.x:g})")
    parser.add_argument("--variant", choices=_choices(VARIANTS),
                        help=f"announcement variant (default {ProtocolConfig.variant.replace('_', '-')})")
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
    atk_p.add_argument("--strategy", choices=_choices(SHIPPED_STRATEGIES),
                       help=f"adversary strategy (default {AttackConfig.strategy.replace('_', '-')})")
    atk_p.add_argument("--delta", type=float,
                       help=f"colluder offset from the claimed position (default {AttackConfig.delta})")
    atk_p.add_argument("--rounds", type=int,
                       help=f"free local rounds for bounded-rounds (default {AttackConfig.rounds})")
    atk_p.add_argument("--preshared-pairs", dest="preshared_pairs", type=int,
                       help="cap on pre-shared Bell pairs (default unlimited)")
    atk_p.add_argument("--diagnostic", action="store_true",
                       help="judge with infinite deadline slack (content checks only)")
    atk_p.set_defaults(func=cmd_attack)

    mc_p = sub.add_parser("montecarlo", help="estimate acceptance/detection rates over many trials")
    mc_p.add_argument("--config", help="JSON config file; flags override its values")
    mc_p.add_argument("--scenario", choices=_choices(SCENARIOS))
    mc_p.add_argument("--n", help="comma-separated pair counts "
                      f"(default {','.join(map(str, ExperimentSpec.n_values))})")
    mc_p.add_argument("--trials", type=int, help=f"trials per point (default {ExperimentSpec.trials})")
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
