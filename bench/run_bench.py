"""collapsim benchmark: three CLI workloads, measured end to end or traced per layer.

Usage, from the repository root::

    python3 bench/run_bench.py --workload tpp_csv --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``tpp_csv``,
``grain_ensemble``, ``generic_json``.  Every sample runs one
``collapsim.cli.main`` call in a fresh interpreter (``worker.py``) with
``collapsim`` imported from ``src/`` next to this directory; samples run one
after another, never in parallel, until ``--seconds`` have passed and at
least three have run.  All samples of a run use the same seed, so they must
write identical bytes.

``--trace 0`` reports the end-to-end metrics, medians over the samples:

- ``setup_s``: time for ``import collapsim`` in a fresh interpreter;
- ``wall_s``: one ``cli.main`` call, from config load to output written;
- ``events_per_s``: collisions divided by the time inside the engine call
  the CLI makes (``run`` or ``run_ensemble``);
- ``peak_rss_mb``: the worker's ``ru_maxrss`` right after ``cli.main``.

Every time and rate is converted to a nominal machine speed, measured by a
fixed reference loop before, during and after each sample (see
``reference.py``); the unscaled wall time and the reference step time are
printed as diagnostics and kept in the report.  ``failed_fraction`` (failed operations over attempted; an ensemble
replica is one operation) is printed with the metrics and is the
``failed``/``attempted`` pair of the result line.  ``--trace 1`` cycles
through untraced, span-traced and tracemalloc samples and reports the
per-layer metrics.

Human-readable lines come first; the last line of stdout is the JSON result.
Each run also writes ``.bench_out/<workload>-seed<seed>-trace<t>.json``
(host stamp, fingerprint and every sample) and, when traced,
``.bench_out/spans-<workload>-seed<seed>.csv``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS  # noqa: E402

MIN_SAMPLES = 3
# A traced run cycles through these sample kinds; see worker.py.
TRACE_MODES = ("plain", "spans", "alloc")
# A run must end within 180 s: the warm-up import gets WARM_UP_TIMEOUT_S, no
# sample starts after HARD_STOP_S, and every sample ends by SAMPLES_END_S.
WARM_UP_TIMEOUT_S = 20.0
HARD_STOP_S = 120.0
SAMPLES_END_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "environment.next_collision.calls": "count",
    "environment.next_collision.self_s": "s",
    "packets.evolve_free.calls": "count",
    "packets.evolve_free.self_s": "s",
    "packets.constructed_per_collision": "1/collision",
    "criterion.evaluate_criterion.calls": "count",
    "criterion.evaluate_criterion.self_s": "s",
    "criterion.fire_ratio": "ratio",
    "criterion.amplitude_reject_ratio": "ratio",
    "contraction.apply_collapse.calls": "count",
    "contraction.apply_collapse.self_s": "s",
    "engine.run.self_s": "s",
    "engine.run.self_us_per_collision": "us",
    "engine.run.alloc_peak_mb": "MB",
    "recording.write_records.s": "s",
    "recording.write_records.rows_per_s": "1/s",
    "recording.write_records.bytes": "bytes",
    "recording.read_records.rows_per_s": "1/s",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Per-layer metrics that count work; they must repeat exactly between samples.
EXACT_LAYER_METRICS = tuple(
    name for name, unit in PER_LAYER_UNITS.items()
    if unit in ("count", "bytes", "1/collision", "ratio") and name != "trace.overhead_ratio"
)


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without leaving the tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha256() -> str:
    """Digest of the package sources, which identifies a build without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "collapsim").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def worker_env(workdir: str) -> dict:
    env = dict(os.environ)
    # Import compiled bytecode, as an installed package does; the warm-up
    # import writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(SRC),
        TMPDIR=workdir,
        # numpy's BLAS would otherwise start a thread per core at import.
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(request: dict, env: dict, timeout: float) -> dict:
    """Run one sample; a crash, timeout or unreadable reply is a failed sample."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(request)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"operations": 1, "problems": [f"sample exceeded {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"operations": 1,
                "problems": [f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    return json.loads(lines[-1])


def warm_up(env: dict) -> None:
    """Import once untimed so the timed imports find compiled bytecode."""
    subprocess.run([sys.executable, "-c", "import collapsim"], cwd=ROOT, env=env,
                   check=True, capture_output=True, timeout=WARM_UP_TIMEOUT_S)


def collect(args, workdir: str, env: dict) -> list[dict]:
    modes = TRACE_MODES if args.trace else ("plain",)
    spans_out = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
    samples: list[dict] = []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        enough = len(samples) >= max(MIN_SAMPLES, len(modes))
        if (enough and elapsed >= args.seconds) or (samples and elapsed >= HARD_STOP_S):
            return samples
        mode = modes[len(samples) % len(modes)]
        request = {
            "workload": args.workload,
            "seed": args.seed,
            "scale": args.scale,
            "mode": mode,
            "workdir": workdir,
            "src": str(SRC),
            # Later plain samples are checked through their output digest.
            "check": mode == "spans" or not samples,
            "spans_out": str(spans_out) if mode == "spans" else None,
        }
        result = run_worker(request, env, timeout=SAMPLES_END_S - elapsed)
        result["mode"] = mode
        samples.append(result)


def judge(samples: list[dict]) -> tuple[int, int, dict, list[str]]:
    """Count attempted and failed operations and find the run's fingerprint.

    A sample fails if it raised, exited non-zero, failed an output check, or
    wrote bytes that differ from the checked sample's.  An ensemble replica
    is one operation: a replica the ensemble lists as failed fails alone, and
    an unchecked sample with the checked sample's bytes has its failures.
    """
    checked = [s for s in samples if "fingerprint" in s and not s["problems"]]
    reference = checked[0] if checked else {}
    fingerprint = reference.get("fingerprint", {})
    notes = []
    attempted = failed = 0
    for index, s in enumerate(samples):
        operations = s.get("operations", 1)
        attempted += operations
        if not s["problems"] and s.get("output_sha256") != fingerprint.get("output_sha256"):
            s["problems"].append("output differs from the checked sample's with the same seed")
        if s["problems"]:
            failed += operations
            notes += [f"sample {index} ({s['mode']}): {p}" for p in s["problems"]]
        else:
            failed += reference["failed_replicas"]
    return attempted, failed, fingerprint, notes


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(set(values)) == 1:  # also keeps counts integral
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def scaled(value: float, unit: str, speed_scale: float) -> float:
    """Convert a time or rate measured on this machine to the nominal machine."""
    if unit in ("s", "us"):
        return value * speed_scale
    if unit == "1/s":
        return value / speed_scale
    return value


def end_to_end(samples: list[dict], collisions: int) -> dict[str, list[float]]:
    """Per-sample values, times converted to the nominal machine."""
    return {
        "setup_s": [s["setup_s"] * s["speed_scale"] for s in samples],
        "wall_s": [s["wall_nominal_s"] for s in samples],
        "events_per_s": [collisions / s["engine_nominal_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "wall_s.unscaled": [s["wall_s"] for s in samples],
        "reference_step_s": [s["step_s"] for s in samples],
    }


def per_layer(samples: list[dict], notes: list[str]) -> dict[str, list[float]]:
    traced = [s for s in samples if s["mode"] == "spans"]
    values = {
        name: [scaled(s["layers"][name], PER_LAYER_UNITS[name], s["speed_scale"]) for s in traced]
        for name in traced[0]["layers"]
    }
    for name in EXACT_LAYER_METRICS:
        if name in values and len(set(values[name])) > 1:
            notes.append(f"{name} differs between samples: {values[name]}")
    values["engine.run.alloc_peak_mb"] = [s["alloc_peak_mb"] for s in samples if s["mode"] == "alloc"]
    plain = statistics.median(s["wall_nominal_s"] for s in samples if s["mode"] == "plain")
    values["trace.overhead_ratio"] = [s["wall_nominal_s"] / plain for s in traced]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed; the program receives it reduced mod 2**32")
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep starting samples until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fraction of the nominal simulated work (smoke tests use < 1)")
    args = parser.parse_args(argv)
    args.seed %= 2**32
    if not (SRC / "collapsim" / "__init__.py").is_file():
        print(f"error: no collapsim sources at {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    env = worker_env(workdir)
    load_before = os.getloadavg()
    try:
        warm_up(env)
        samples = collect(args, workdir, env)
    except (OSError, subprocess.SubprocessError) as exc:
        print(f"error: cannot run collapsim: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_after = os.getloadavg()

    attempted, failed, fingerprint, notes = judge(samples)
    good = [s for s in samples if not s["problems"]]
    needed = TRACE_MODES if args.trace else ("plain",)
    if not fingerprint or any(all(s["mode"] != m for s in good) for m in needed):
        print(f"error: not every kind of sample in {needed} passed its checks", file=sys.stderr)
        for note in notes:
            print(note, file=sys.stderr)
        return 1

    if args.trace:
        values, units = per_layer(good, notes), PER_LAYER_UNITS
    else:
        values, units = end_to_end(good, fingerprint["n_collisions"]), END_TO_END_UNITS
    summary = {name: quartiles(values[name]) for name in units}

    host = {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        **samples[0].get("versions", {}),
        "cpu_count": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "host": host,
        "fingerprint": fingerprint, "attempted": attempted, "failed": failed,
        "notes": notes, "samples": samples,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"samples {len(samples)} ({len(good)} passed)")
    print("host " + json.dumps(host))
    print("fingerprint " + json.dumps(fingerprint))
    for note in notes:
        print("FAILED " + note)
    print(f"{'metric':<38} {'median':>14} {'q1':>14} {'q3':>14}  unit  (n)")
    for name, (q1, median, q3) in summary.items():
        print(f"{name:<38} {median:>14.6g} {q1:>14.6g} {q3:>14.6g}  {units[name]}"
              f"  ({len(values[name])})")
    for name in values.keys() - units.keys():
        q1, median, q3 = quartiles(values[name])
        print(f"{name:<38} {median:>14.6g} {q1:>14.6g} {q3:>14.6g}  s  (diagnostic)")
    if not args.trace:
        print(f"{'failed_fraction':<38} {failed / attempted:>14.6g} "
              f"{'':>14} {'':>14}  1  ({attempted} operations)")
    print(json.dumps({
        "correct": not notes and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": summary[name][1], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
