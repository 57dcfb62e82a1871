"""The benchmark's workloads: the CLI call each one makes, and its output checks.

Each workload drives ``collapsim.cli.main`` with inputs made from the
benchmark seed and loads a different layer:

- ``tpp_csv``: the ``tpp`` preset as shipped, CSV output.  The light molecule
  stays in the CM regime almost throughout; every record is held in memory
  and about 50k rows are written by the CSV writer.
- ``grain_ensemble``: 8 replicas of the ``sugar_grain`` preset for 0.01 s
  each, about 80k collisions.  Almost every collision is in the cluster
  regime; records are not kept and the output is a few KB of ensemble JSON,
  so the recording layer is idle.
- ``generic_json``: a config document derived from ``sugar_grain`` with a
  narrow random-phase start, width jitter, impact spread and phase redraw,
  JSON output.  It is the only workload that takes those engine branches,
  where the amplitude clause rejects most phase-accepted encounters, and the
  only one that uses the JSON writer.

The checks hold on any correct build: they never compare against pinned
bytes, because declared bit changes are allowed between commits.
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("tpp_csv", "grain_ensemble", "generic_json")

ENSEMBLE_REPLICAS = 8
ENSEMBLE_DURATION_S = 0.01

# Collision counts must lie within this many Poisson sigmas of rate x duration.
POISSON_SIGMAS = 5.0


@dataclass(frozen=True)
class Plan:
    """One workload instance: the CLI arguments and what its output must satisfy."""

    argv: list
    output: Path
    kind: str  # "csv" or "json" record files, or "ensemble"
    replicas: int
    seed: int
    duration_s: float
    rate_hz: float
    internal_radius_m: float


def generic_document(collapsim, seed: int, duration_s: float) -> dict:
    doc = collapsim.to_document(collapsim.preset("sugar_grain"))
    doc.update(
        initial_sigma_m=5e-11,
        initial_alpha_rad="random",
        env_sigma_jitter=0.5,
        impact_spread_m=5e-11,
        redraw_alpha_after_collapse=True,
        output_format="json",
        seed=seed,
        duration_s=duration_s,
    )
    return doc


def make_plan(collapsim, workload: str, seed: int, scale: float, workdir: Path) -> Plan:
    """Build the workload's inputs in ``workdir``.

    ``scale`` multiplies the simulated work: single runs shorten their
    duration, the ensemble keeps its replica duration (so every replica
    still reaches the cluster regime) and runs fewer replicas.
    """
    if workload == "tpp_csv":
        config = collapsim.preset("tpp")
        duration = config.duration * scale
        output = workdir / "tpp.csv"
        argv = ["run", "--scenario", "tpp", "--seed", str(seed),
                "--output", str(output)]
        if scale != 1.0:
            argv += ["--duration-s", repr(duration)]
        return Plan(argv, output, "csv", 1, seed, duration,
                    config.environment.collision_rate, config.object.internal_radius)
    if workload == "grain_ensemble":
        config = collapsim.preset("sugar_grain")
        # With one replica the CLI does a single run and writes records instead.
        replicas = max(2, round(ENSEMBLE_REPLICAS * scale))
        output = workdir / "ensemble.json"
        argv = ["run", "--scenario", "sugar_grain", "--seed", str(seed),
                "--replicas", str(replicas), "--duration-s", repr(ENSEMBLE_DURATION_S),
                "--output", str(output)]
        return Plan(argv, output, "ensemble", replicas, seed, ENSEMBLE_DURATION_S,
                    config.environment.collision_rate, config.object.internal_radius)
    if workload == "generic_json":
        config = collapsim.preset("sugar_grain")
        doc = generic_document(collapsim, seed, config.duration * scale)
        doc_path = workdir / "generic.json"
        doc_path.write_text(json.dumps(doc, indent=1))
        output = workdir / "generic-out.json"
        argv = ["run", "--config", str(doc_path), "--output", str(output)]
        return Plan(argv, output, "json", 1, seed, doc["duration_s"],
                    doc["collision_rate_hz"], doc["internal_radius_m"])
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _poisson_problem(plan: Plan, n_collisions: int) -> list:
    expected = plan.rate_hz * plan.duration_s * plan.replicas
    if abs(n_collisions - expected) > POISSON_SIGMAS * math.sqrt(expected):
        return [f"{n_collisions} collisions, outside {POISSON_SIGMAS:g} sigma of {expected:g}"]
    return []


@dataclass
class CheckResult:
    problems: list
    fingerprint: dict
    rows: int = 0
    read_s: float = 0.0
    failed_replicas: int = 0


def check_output(collapsim, plan: Plan, text: str) -> CheckResult:
    """Check the written output and return its simulated-statistics fingerprint."""
    if plan.kind == "ensemble":
        return _check_ensemble(plan, text)
    return _check_records(collapsim, plan, text)


def _check_records(collapsim, plan: Plan, text: str) -> CheckResult:
    start = time.perf_counter()
    records = collapsim.read_records(io.StringIO(text), plan.kind)
    read_s = time.perf_counter() - start
    problems = []
    if not records:
        return CheckResult(["no records written"], {}, 0, read_s)
    rewritten = io.StringIO()
    collapsim.write_records(records, plan.kind, rewritten)
    if rewritten.getvalue() != text:
        problems.append("records do not round-trip to the written bytes")
    first, last = records[0], records[-1]
    if (first.t, first.n_collisions, first.n_collapses) != (0.0, 0, 0):
        problems.append(f"first row is not the t=0 state: {first}")
    for prev, cur in zip(records, records[1:]):
        if (cur.t < prev.t or cur.n_collisions < prev.n_collisions
                or cur.n_collapses < prev.n_collapses):
            problems.append(f"time or counters decrease at t={cur.t!r}")
            break
    collapse_rows = sum(1 for r in records if r.last_event.value == "COLLAPSE")
    collision_rows = sum(1 for r in records if r.last_event.value != "NONE")
    if collapse_rows != last.n_collapses:
        problems.append(f"{collapse_rows} COLLAPSE rows but n_collapses={last.n_collapses}")
    if collision_rows != last.n_collisions:
        problems.append(f"{collision_rows} collision rows but n_collisions={last.n_collisions}")
    if last.t != plan.duration_s:
        problems.append(f"last row at t={last.t!r}, not at duration {plan.duration_s!r}")
    problems += _poisson_problem(plan, last.n_collisions)
    if plan.kind == "csv" and min(last.sigma) <= plan.internal_radius_m:
        problems.append("tpp run ended localized; the light molecule must end delocalized")
    fingerprint = {
        "n_collisions": last.n_collisions,
        "n_collapses": last.n_collapses,
        "final_min_sigma": min(last.sigma).hex(),
    }
    return CheckResult(problems, fingerprint, len(records), read_s)


def _check_ensemble(plan: Plan, text: str) -> CheckResult:
    doc = json.loads(text)
    replicas = doc["replicas"]
    problems = []
    if doc["n_replicas"] != plan.replicas or len(replicas) != plan.replicas:
        problems.append(f"expected {plan.replicas} replicas, got {doc['n_replicas']}")
    seeds = [r["seed"] for r in replicas]
    if seeds != list(range(plan.seed, plan.seed + plan.replicas)):
        problems.append(f"replica seeds {seeds}")
    if doc["total_collisions"] != sum(r["n_collisions"] for r in replicas):
        problems.append("total_collisions is not the sum over replicas")
    if doc["total_collapses"] != sum(r["n_collapses"] for r in replicas):
        problems.append("total_collapses is not the sum over replicas")
    if any(r["duration_s"] != plan.duration_s for r in replicas):
        problems.append("a replica ran for the wrong duration")
    problems += _poisson_problem(plan, doc["total_collisions"])
    if doc["localized_fraction"] != 1.0:
        problems.append(f"localized_fraction={doc['localized_fraction']}, expected 1")
    ratio = doc["mean_recovery_ratio"]
    if ratio is None or not ratio < 1.0 + 1e-9:
        problems.append(f"mean_recovery_ratio={ratio}, expected < 1 + 1e-9")
    fingerprint = {
        "n_collisions": doc["total_collisions"],
        "n_collapses": doc["total_collapses"],
        "final_min_sigma": float(doc["final_min_sigma_mean_m"]).hex(),
    }
    return CheckResult(problems, fingerprint, failed_replicas=len(doc["failures"]))
