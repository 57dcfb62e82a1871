"""Compare two trees on benchmark workloads in alternating pairs of runs.

Each run is the tree's own ``bench/run_bench.py --trace 0``, started in that
tree, so each side measures its own ``src``.  Pair ``i`` runs the parent
first when ``i`` is even and the change first when it is odd, so a drift of
the machine's speed falls on both sides alike.  The script stops at the
first run that fails, reports a failed operation or is not ``correct``.
It warns when the two trees' paths differ in length: ``peak_rss_mb`` moves
with the length of the path a run works in.

    python3 scripts/paired_bench.py --parent ../parent --change . \\
        --workload grain_ensemble --workload tpp_csv --pairs 10 --seed 7171 --seconds 8

``--workload`` may be repeated; each workload's pairs run before the next
workload's.  It prints one table with a row per workload and end-to-end
metric: the parent's and the change's median with their quartiles, the
ratio of the medians (change over parent), and in how many pairs the change
was better.  Whether lower or higher is better comes from the change tree's
``BENCHMARK.json``.  Neither tree's ``bench/`` nor ``BENCHMARK.json`` is
written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as ``run_bench.py`` takes them."""
    if len(set(values)) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[dict]:
    """Per metric in ``better`` ("lower" or "higher"), over the (parent,
    change) metric values of each pair: both sides' quartiles, the ratio of
    the medians and the pairs in which the change was better."""
    rows = []
    for name, direction in better.items():
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = 1.0 if direction == "higher" else -1.0
        parent_q, change_q = quartiles(parent), quartiles(change)
        rows.append({
            "metric": name,
            "parent": parent_q,
            "change": change_q,
            "ratio": change_q[1] / parent_q[1],
            "wins": sum(sign * (c - p) > 0.0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
        })
    return rows


def table(summaries: dict[str, list[dict]]) -> list[str]:
    """The summaries of each workload, in order, as the lines of one Markdown table."""
    def cell(q):
        return f"{q[1]:.6g} ({q[0]:.6g}–{q[2]:.6g})"

    lines = ["| workload | metric | parent | change | ratio | change better |",
             "|---|---|---|---|---|---|"]
    for workload, rows in summaries.items():
        for r in rows:
            lines.append(f"| {workload} | {r['metric']} | {cell(r['parent'])} "
                         f"| {cell(r['change'])} | {r['ratio']:.3f} | {r['wins']}/{r['pairs']} |")
    return lines


def path_warning(parent: Path, change: Path):
    """A warning when the trees' resolved paths differ in length, else None."""
    a, b = len(str(parent.resolve())), len(str(change.resolve()))
    if a != b:
        return (f"warning: the trees' paths are {a} and {b} characters long; "
                "peak_rss_mb moves with the path length")
    return None


def checked(result: dict, tree: Path) -> dict[str, float]:
    """The metric values of one ``run_bench.py`` result line; a
    ``RuntimeError`` if any operation failed or the run is not correct."""
    if result.get("failed") or not result.get("correct"):
        raise RuntimeError(
            f"{tree}: {result.get('failed')} of {result.get('attempted')} operations failed, "
            f"correct: {result.get('correct')}"
        )
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def bench(tree: Path, workload: str, args) -> dict[str, float]:
    """One ``run_bench.py --trace 0`` run of ``workload`` in ``tree``."""
    command = [sys.executable, str(Path("bench", "run_bench.py")),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: run_bench.py exited {proc.returncode}: {proc.stderr.strip()}")
    return checked(json.loads(proc.stdout.strip().splitlines()[-1]), tree)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the tree compared against")
    parser.add_argument("--change", type=Path, required=True, help="the tree under test")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload to run; may be repeated")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    if (warning := path_warning(args.parent, args.change)) is not None:
        print(warning, file=sys.stderr)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}

    summaries = {}
    for workload in dict.fromkeys(args.workload):
        pairs = []
        for i in range(args.pairs):
            sides = [("parent", args.parent), ("change", args.change)]
            values = {}
            for side, tree in sides[:: -1 if i % 2 else 1]:
                try:
                    values[side] = bench(tree, workload, args)
                except RuntimeError as exc:
                    print(f"error: {workload}, pair {i + 1}, {side}: {exc}", file=sys.stderr)
                    return 1
            pairs.append((values["parent"], values["change"]))
            print(f"{workload} pair {i + 1}: " + "  ".join(
                f"{name} {values['parent'][name]:.6g} -> {values['change'][name]:.6g}"
                for name in better), flush=True)
        summaries[workload] = summarize(pairs, better)
    print("\n".join(table(summaries)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
