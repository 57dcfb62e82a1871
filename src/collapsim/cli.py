"""Command-line interface: run, sweep, selftest, parsed from one flag table."""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path
from typing import IO, Optional

from .config import OUTPUT_FORMATS, PRESETS, ConfigError, ScenarioConfig, parse_config, preset
from .engine import EngineError, run, run_ensemble
from .recording import RecordWriteError, write_ensemble, write_records
from .sweep import SweepAxis, sweep

_DESCRIPTION = (
    "Event-driven simulator of criterion-gated wavepacket contraction and free spreading."
)
_COMMANDS = {
    "run": "simulate one scenario (or an ensemble)",
    "sweep": "scan mass, diameter or collision rate",
    "selftest": "run the built-in oracle checks",
}

# One row per flag: the flag, the commands that take it, its converter (int,
# float, Path or str; a tuple of choices; bool for a switch), its default
# (``...`` for a flag that must be given) and its help line.
_FLAGS = (
    ("--scenario", ("run", "sweep"), PRESETS, None, "built-in scenario preset"),
    ("--config", ("run", "sweep"), Path, None, "path to a JSON config document"),
    ("--seed", ("run", "sweep"), int, None, "override the base random seed"),
    ("--duration-s", ("run", "sweep"), float, None, "override run duration"),
    ("--rate-hz", ("run", "sweep"), float, None, "override collision rate"),
    ("--eta", ("run", "sweep"), float, None, "override cluster-regime damping exponent"),
    ("--output", ("run", "sweep"), Path, None, "output file (default: stdout)"),
    ("--format", ("run", "sweep"), OUTPUT_FORMATS, None, "output format"),
    ("--replicas", ("run",), int, 1, "number of independent replicas"),
    ("--axis", ("sweep",), tuple(a.value for a in SweepAxis), ..., "which parameter to scan"),
    ("--values", ("sweep",), str, ..., "comma-separated positive values for the axis"),
    ("--replicas", ("sweep",), int, 4, "replicas per value"),
    ("--fast", ("selftest",), bool, False, "smaller sample sizes"),
)


def _parse(argv: list[str]) -> tuple[Optional[str], dict, list[str]]:
    """One pass over ``argv``: its command (None if it names none), the
    values by flag, defaults included, and every problem.  A flag is spelled
    in full, as ``--flag value`` or ``--flag=value``; a given flag whose
    value fails keeps its default, or reads as None."""
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    if command is None:
        named = f"unknown command {argv[0]!r}" if argv and argv[0][:1] != "-" else "no command"
        return None, {}, [f"{named}: choose from {', '.join(_COMMANDS)}"]
    rows = {row[0]: row for row in _FLAGS if command in row[1]}
    flags = {flag: row[3] for flag, row in rows.items() if row[3] not in (None, ...)}
    problems, tokens = [], list(reversed(argv[1:]))  # pop() takes the next token
    while tokens:
        token = tokens.pop()
        flag, eq, text = token.partition("=")
        convert = rows[flag][2] if flag in rows else None
        # The next token is the flag's value, also an unknown flag's, unless
        # it is a flag too.
        if (not eq and convert is not bool and flag[:2] == "--"
                and tokens and tokens[-1][:2] != "--"):
            eq, text = "=", tokens.pop()
        if convert is None:
            problems.append(f"{token!r} is not a flag of {command}")
            continue
        if convert is bool:
            problem, text = (f"{flag} takes no value, got {text!r}" if eq else None), True
        elif not eq:
            problem = f"{flag}: expected a value"
        elif isinstance(convert, tuple):
            choose = f"invalid choice (choose from {', '.join(convert)})"
            problem = None if text in convert else f"{flag} {text!r}: {choose}"
        else:
            try:
                text, problem = convert(text), None
            except ValueError:
                problem = f"{flag} {text!r}: invalid {convert.__name__} value"
        if problem:
            problems.append(problem)
        flags[flag] = flags.get(flag) if problem else text
    problems += [f"{flag} is required" for flag, row in rows.items()
                 if row[3] is ... and flag not in flags]
    if flags.get("--replicas", 1) < 1:
        problems.append(f"--replicas must be >= 1, got {flags['--replicas']}")
    return command, flags, problems


def _usage(command: Optional[str]) -> str:
    """The help of ``command``, or of the program when it is None."""
    lines = [f"usage: collapsim {command or '{' + ','.join(_COMMANDS) + '}'} [flags]", ""]
    if command is None:
        lines += [_DESCRIPTION, "", *(f"  {n:<10}{text}" for n, text in _COMMANDS.items()), ""]
    else:
        lines += [_COMMANDS[command], ""]
    for flag, commands, convert, default, text in _FLAGS:
        if command in commands:
            if convert is not bool:
                flag += " " + ("{" + ",".join(convert) + "}" if isinstance(convert, tuple)
                               else convert.__name__.upper())
            note = " (required)" if default is ... else f" (default {default})" if default else ""
            lines.append(f"  {flag}\n      {text}{note}")
    return "\n".join([*lines, "  -h, --help\n      show this help and exit"])


def _load_config(flags: dict, problems: list[str]) -> ScenarioConfig:
    """The config that ``flags`` give, or a ``ConfigError`` listing its
    problems and then ``problems``, those of the parse and the command."""
    path = flags.get("--config")
    try:
        if ("--scenario" in flags) == ("--config" in flags):
            raise ConfigError(["exactly one of --scenario or --config is required"])
        if flags.get("--scenario"):
            config = preset(flags["--scenario"])
        elif path:
            config = parse_config(path.read_text())
        else:  # the flag's value failed, and its problem is listed
            raise ConfigError([])
    except OSError as exc:
        raise ConfigError([f"cannot read config file {path}: {exc}", *problems]) from exc
    except ConfigError as exc:
        raise ConfigError(exc.problems + problems) from None
    overrides = (
        ("--seed", lambda c, v: replace(c, seed=v)),
        ("--duration-s", lambda c, v: replace(c, duration=v)),
        ("--rate-hz", lambda c, v: replace(c, environment=replace(c.environment,
                                                                   collision_rate=v))),
        ("--eta", lambda c, v: replace(c, cluster_eta=v)),
        ("--format", lambda c, v: replace(c, output_format=v)),
        ("--output", lambda c, v: replace(c, output_path=str(v))),
    )
    listed = []
    for flag, apply in overrides:
        value = flags.get(flag)
        if value is None:
            continue
        try:
            config = apply(config, value)
        except ValueError as exc:
            listed.append(f"{flag} {value}: {exc}")
    if listed or problems:
        raise ConfigError(listed + problems)
    return config


@contextmanager
def _sink(path: Optional[str]):
    """The output file at ``path``, closed on exit, or stdout for None or "-".
    An ``OSError`` from writing or closing it is a ``RecordWriteError``."""
    if path is None or path == "-":
        path, sink = "stdout", nullcontext(sys.stdout)
    else:
        try:
            sink = open(path, "w")
        except OSError as exc:
            raise ConfigError([f"cannot open output file {path}: {exc}"]) from exc
    try:
        with sink as out:
            yield out
    except RecordWriteError:
        raise
    except OSError as exc:
        raise RecordWriteError(
            f"failed while writing {path} ({exc}); output may be partial"
        ) from exc


def _cmd_run(flags: dict, problems: list[str]) -> int:
    replicas = flags["--replicas"]
    if replicas > 1 and flags.get("--format") == "csv":
        problems.append(
            f"--format csv: --replicas {replicas} writes an ensemble summary, which is JSON"
        )
    config = _load_config(flags, problems)
    with _sink(config.output_path) as sink:
        if replicas > 1:
            write_ensemble(run_ensemble(config, replicas), sink)
            return 0
        summary, records = run(config)
        write_records(records, config.output_format, sink)
    # Only once the output has closed without error has the run completed.
    print(
        f"run complete: {summary.n_collisions} collisions, "
        f"{summary.n_collapses} collapses, final min sigma "
        f"{summary.final_min_sigma:.6e} m, localized={summary.localized}",
        file=sys.stderr,
    )
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


def _sweep_flags(flags: dict, problems: list[str]) -> list[float]:
    """The ``--values`` list; every problem with ``--values`` and ``--format``
    that the parse did not find goes to ``problems``."""
    given = flags.get("--values")
    texts = [t for t in (v.strip() for v in (given or "").split(",")) if t]
    if given is not None and not texts:
        problems.append("--values: at least one value is required")
    values = []
    for text in texts:
        try:
            value = float(text)
        except ValueError:
            problems.append(f"--values {text!r}: not a number")
            continue
        if not 0.0 < value < math.inf:
            problems.append(f"--values {text}: must be positive and finite")
        values.append(value)
    if flags.get("--format") == "json":
        problems.append("--format json: the sweep table is CSV")
    return values


def _cmd_sweep(flags: dict, problems: list[str]) -> int:
    values = _sweep_flags(flags, problems)
    config = _load_config(flags, problems)
    with _sink(config.output_path) as sink:
        _write_sweep(sweep(config, SweepAxis(flags["--axis"]), values, flags["--replicas"]), sink)
    return 0


def _cmd_selftest(flags: dict) -> int:
    from . import selftest  # imports scipy; no other command needs it

    results = selftest.run_all(fast=flags["--fast"])
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}: {res.detail}")
    return 0 if all(res.passed for res in results) else 1


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command, flags, problems = _parse(argv)
    if "-h" in argv or "--help" in argv:
        print(_usage(command))
        return 0
    try:
        if command == "run":
            return _cmd_run(flags, problems)
        if command == "sweep":
            return _cmd_sweep(flags, problems)
        if problems:  # also the missing or unknown command's
            raise ConfigError(problems)
        return _cmd_selftest(flags)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    except (EngineError, RecordWriteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
