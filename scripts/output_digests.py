"""Print the sha256 of every benchmark workload's output, for byte-identity checks.

For each seed the script builds the command lines of the ``tpp_csv``,
``grain_ensemble`` and ``generic_json`` workloads with
``bench/workloads.py::make_plan``, adds the ``sugar_grain`` preset written as
CSV (the only output here that sends long runs of equal widths through the
CSV writer), a 3-value mass sweep of the ``tpp`` preset and the ``tpp`` preset
written as JSON (the only output here whose widths are equal across axes and
never repeat, written through the JSON writer's ``%r`` slots), runs each through
``collapsim.cli.main`` in a temporary directory and prints one ``name sha256``
line per output file.  ``collapsim`` is imported from ``PYTHONPATH``, so the
same script digests any tree's ``src``; two trees print the same lines exactly
when their outputs are byte-identical:

    PYTHONPATH=src python3 scripts/output_digests.py > new.txt
    PYTHONPATH=../other/src python3 scripts/output_digests.py > old.txt
    diff old.txt new.txt

``--scale`` shortens the runs as the benchmark's scale does; the default, 1,
is the benchmark's own size.  ``bench/`` is only read.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path

import collapsim
import collapsim.cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKLOADS = ("tpp_csv", "grain_ensemble", "generic_json")
SWEEP_MASSES_KG = "1e-22,1e-19,1e-16"  # delocalized to localized at 2 ms
SWEEP_REPLICAS = 2
SWEEP_DURATION_S = 2e-3


def _workloads_module():
    """``bench/workloads.py``, loaded by path so that ``bench/`` need not be
    on ``sys.path`` (its ``reference`` module would shadow others)."""
    if "workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules["workloads"] = module  # dataclasses look their module up by name
        spec.loader.exec_module(module)
    return sys.modules["workloads"]


def runs(seed: int, scale: float, workdir: Path):
    """``(name, argv, output)`` of every CLI call made for ``seed``."""
    workloads = _workloads_module()
    for workload in WORKLOADS:
        plan = workloads.make_plan(collapsim, workload, seed, scale, workdir)
        yield workload, plan.argv, plan.output
    output = workdir / "grain.csv"
    argv = ["run", "--scenario", "sugar_grain", "--seed", str(seed), "--format", "csv",
            "--duration-s", repr(collapsim.preset("sugar_grain").duration * scale),
            "--output", str(output)]
    yield "grain_csv", argv, output
    output = workdir / "sweep.csv"
    argv = ["sweep", "--scenario", "tpp", "--seed", str(seed), "--axis", "mass",
            "--values", SWEEP_MASSES_KG, "--replicas", str(SWEEP_REPLICAS),
            "--duration-s", repr(SWEEP_DURATION_S * scale), "--output", str(output)]
    yield "mass_sweep", argv, output
    output = workdir / "tpp.json"
    argv = ["run", "--scenario", "tpp", "--seed", str(seed), "--format", "json",
            "--duration-s", repr(collapsim.preset("tpp").duration * scale),
            "--output", str(output)]
    yield "tpp_json", argv, output


def digests(seeds: list[int], scale: float):
    """Yield ``(name, sha256 hex)`` per output, in a fixed order."""
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            workdir = Path(tmp) / f"seed{seed}"
            workdir.mkdir()
            for name, argv, output in runs(seed, scale, workdir):
                code = collapsim.cli.main(argv)
                if code != 0:
                    raise SystemExit(f"{name} at seed {seed} exited {code}")
                yield f"{name}/seed{seed}", hashlib.sha256(output.read_bytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated seeds (default 1,2,3)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies the simulated work, as the benchmark's scale does")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    for name, digest in digests(seeds, args.scale):
        print(name, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
