"""Compare the engines of two trees in one process, round by round.

Each tree's ``src/collapsim`` is copied into a temporary directory under its
own package name, ``collapsim_parent`` and ``collapsim_change``, and both are
imported side by side.  Each round times, per config, one call on each side,
the parent first in even rounds and the change first in odd ones, so a drift
of the machine's speed between phases falls on both sides alike:

- ``grain_ensemble``: ``run_ensemble`` of 8 ``sugar_grain`` replicas of
  0.01 s each, as the benchmark workload runs them;
- ``tpp``: ``run`` of the ``tpp`` preset, its records kept;
- ``tpp_no_records``: the same run without records, the path of a window
  that spreads and builds no row;
- ``generic``: ``run`` of the benchmark's generic document, records kept.

    python3 scripts/ab_engine.py --parent ../parent --change . --rounds 40 --seed 7171

``--scale`` multiplies every simulated duration.  Per config it prints both
medians, their ratio (change over parent) and in how many rounds the change
was faster; a config whose two sides give different summaries is reported
and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

SIDES = ("parent", "change")
PACKAGES = tuple(f"collapsim_{side}" for side in SIDES)
ENSEMBLE_REPLICAS, ENSEMBLE_DURATION_S = 8, 0.01


def load(tree: Path, side: str, into: Path):
    """The package in ``tree``'s ``src/collapsim``, imported as ``collapsim_<side>``."""
    shutil.copytree(tree / "src" / "collapsim", into / f"collapsim_{side}",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"collapsim_{side}")


def calls(package, seed: int, scale: float) -> dict:
    """Per config, the call to time: it returns the run's summary."""
    grain = package.preset("sugar_grain")
    ensemble = replace(grain, seed=seed, duration=ENSEMBLE_DURATION_S * scale)
    tpp = replace(package.preset("tpp"), seed=seed)
    tpp = replace(tpp, duration=tpp.duration * scale)
    doc = package.to_document(grain)
    doc.update(initial_sigma_m=5e-11, initial_alpha_rad="random", env_sigma_jitter=0.5,
               impact_spread_m=5e-11, redraw_alpha_after_collapse=True, output_format="json",
               seed=seed, duration_s=grain.duration * scale)
    generic = package.parse_config(json.dumps(doc))
    return {
        "grain_ensemble": lambda: package.run_ensemble(ensemble, ENSEMBLE_REPLICAS),
        "tpp": lambda: package.run(tpp)[0],
        "tpp_no_records": lambda: package.run(tpp, keep_records=False)[0],
        "generic": lambda: package.run(generic)[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the tree compared against")
    parser.add_argument("--change", type=Path, required=True, help="the tree under test")
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every simulated duration")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds must be at least 1, got {args.rounds}")

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            runs = {side: calls(load(tree, side, Path(tmp)), args.seed, args.scale)
                    for side, tree in zip(SIDES, (args.parent, args.change))}
            return compare(runs, args.rounds)
        finally:
            sys.path.remove(tmp)
            for name in [name for name in sys.modules if name.split(".")[0] in PACKAGES]:
                del sys.modules[name]  # a later call imports its own trees


def compare(runs: dict, rounds: int) -> int:
    """Time ``rounds`` rounds of each side's calls and print the table; 1 if
    the sides' summaries differ, else 0."""
    status = 0
    for name in runs["parent"]:
        summaries = {side: repr(runs[side][name]()) for side in SIDES}  # also warms both sides
        if summaries["parent"] != summaries["change"]:
            print(f"error: {name}: the two trees give different summaries", file=sys.stderr)
            status = 1
    seconds = {(side, name): [] for side in SIDES for name in runs["parent"]}
    for i in range(rounds):
        for name in runs["parent"]:
            for side in SIDES[:: -1 if i % 2 else 1]:
                start = time.perf_counter()
                runs[side][name]()
                seconds[side, name].append(time.perf_counter() - start)
    print("| config | parent median (s) | change median (s) | ratio | change faster |")
    print("|---|---|---|---|---|")
    for name in runs["parent"]:
        parent, change = seconds["parent", name], seconds["change", name]
        faster = sum(c < p for p, c in zip(parent, change))
        p, c = statistics.median(parent), statistics.median(change)
        print(f"| {name} | {p:.6g} | {c:.6g} | {c / p:.3f} | {faster}/{rounds} |")
    return status

if __name__ == "__main__":
    sys.exit(main())
