"""Command-line interface: run, sweep, selftest."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import IO, Optional

from . import selftest
from .config import PRESETS, ConfigError, ScenarioConfig, parse_config, preset
from .engine import EngineError, run, run_ensemble
from .recording import RecordWriteError, write_records
from .sweep import SweepAxis, sweep


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", choices=PRESETS, help="built-in scenario preset")
    p.add_argument("--config", type=Path, help="path to a JSON config document")
    p.add_argument("--seed", type=int, help="override the base random seed")
    p.add_argument("--duration-s", type=float, dest="duration_s", help="override run duration")
    p.add_argument("--rate-hz", type=float, dest="rate_hz", help="override collision rate")
    p.add_argument("--eta", type=float, help="override cluster-regime damping exponent")
    p.add_argument("--output", type=Path, help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collapsim",
        description=(
            "Event-driven simulator of criterion-gated wavepacket contraction "
            "and free spreading."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario (or an ensemble)")
    _add_common_flags(p_run)
    p_run.add_argument("--replicas", type=int, default=1, help="number of independent replicas")

    p_sweep = sub.add_parser("sweep", help="scan mass, diameter or collision rate")
    _add_common_flags(p_sweep)
    p_sweep.add_argument(
        "--axis",
        choices=tuple(a.value for a in SweepAxis),
        required=True,
        help="which parameter to scan",
    )
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated positive values for the axis"
    )
    p_sweep.add_argument("--replicas", type=int, default=4, help="replicas per value")

    p_self = sub.add_parser("selftest", help="run the built-in oracle checks")
    p_self.add_argument("--fast", action="store_true", help="smaller sample sizes")

    return parser


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    if bool(args.scenario) == bool(args.config):
        raise ConfigError(["exactly one of --scenario or --config is required"])
    if args.scenario:
        config = preset(args.scenario)
    else:
        try:
            text = args.config.read_text()
        except OSError as exc:
            raise ConfigError([f"cannot read config file {args.config}: {exc}"]) from exc
        config = parse_config(text)
    overrides = (
        ("--seed", args.seed, lambda c, v: replace(c, seed=v)),
        ("--duration-s", args.duration_s, lambda c, v: replace(c, duration=v)),
        (
            "--rate-hz",
            args.rate_hz,
            lambda c, v: replace(c, environment=replace(c.environment, collision_rate=v)),
        ),
        ("--eta", args.eta, lambda c, v: replace(c, cluster_eta=v)),
        ("--format", args.format, lambda c, v: replace(c, output_format=v)),
        ("--output", args.output, lambda c, v: replace(c, output_path=str(v))),
    )
    problems = []
    for flag, value, apply in overrides:
        if value is None:
            continue
        try:
            config = apply(config, value)
        except ValueError as exc:
            problems.append(f"{flag} {value}: {exc}")
    if problems:
        raise ConfigError(problems)
    return config


def _open_sink(path: Optional[str]):
    if path is None or path == "-":
        return sys.stdout, False
    try:
        return open(path, "w"), True
    except OSError as exc:
        raise ConfigError([f"cannot open output file {path}: {exc}"]) from exc


def _summary_obj(summary) -> dict:
    return {
        "seed": summary.seed,
        "duration_s": summary.duration,
        "n_collisions": summary.n_collisions,
        "n_collapses": summary.n_collapses,
        "final_sigma_m": list(summary.final_sigma),
        "final_min_sigma_m": summary.final_min_sigma,
        "min_sigma_m": summary.min_sigma,
        "mean_recovery_ratio": summary.mean_recovery_ratio,
        "mean_respread_between_collapses": summary.mean_respread_between_collapses,
        "localized": summary.localized,
        "final_regime": summary.final_regime.value,
    }


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if args.replicas < 1:
        raise ConfigError([f"--replicas must be >= 1, got {args.replicas}"])
    sink, close = _open_sink(config.output_path)
    try:
        if args.replicas == 1:
            summary, records = run(config)
            write_records(records, config.output_format, sink)
            print(
                f"run complete: {summary.n_collisions} collisions, "
                f"{summary.n_collapses} collapses, final min sigma "
                f"{summary.final_min_sigma:.6e} m, localized={summary.localized}",
                file=sys.stderr,
            )
        else:
            ensemble = run_ensemble(config, args.replicas)
            obj = {
                "n_replicas": ensemble.n_replicas,
                "base_seed": ensemble.base_seed,
                "total_collisions": ensemble.total_collisions,
                "total_collapses": ensemble.total_collapses,
                "firing_fraction": ensemble.firing_fraction,
                "mean_recovery_ratio": ensemble.mean_recovery_ratio,
                "final_min_sigma_mean_m": ensemble.final_min_sigma_mean,
                "localized_fraction": ensemble.localized_fraction,
                "failures": [list(f) for f in ensemble.failures],
                "replicas": [_summary_obj(s) for s in ensemble.replicas],
            }
            json.dump(obj, sink, indent=1)
            sink.write("\n")
    finally:
        if close:
            sink.close()
    return 0


def _write_sweep(rows, sink: IO[str]) -> None:
    sink.write("value,mean_recovery_ratio,localized_fraction,firing_fraction,n_replicas,status\n")
    for row in rows:
        ratio = "" if row.mean_recovery_ratio is None else format(row.mean_recovery_ratio, ".16e")
        status = "ok" if row.error is None else f"error: {row.error}"
        sink.write(
            f"{format(row.value, '.16e')},{ratio},{row.localized_fraction},"
            f"{row.firing_fraction},{row.n_replicas},{status}\n"
        )


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError([f"--values must be comma-separated numbers: {exc}"]) from exc
    if not values or any(v <= 0 for v in values):
        raise ConfigError([f"--values must be positive numbers, got {args.values!r}"])
    sink, close = _open_sink(config.output_path)
    try:
        rows = sweep(config, SweepAxis(args.axis), values, args.replicas)
        _write_sweep(rows, sink)
    finally:
        if close:
            sink.close()
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    results = selftest.run_all(fast=args.fast)
    all_ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status}  {res.name}: {res.detail}")
        all_ok = all_ok and res.passed
    return 0 if all_ok else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "selftest":
            return _cmd_selftest(args)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    except (EngineError, RecordWriteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
