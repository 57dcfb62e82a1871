"""One benchmark sample, run in a fresh interpreter by ``run_bench.py``.

Usage: ``python3 bench/worker.py '<request JSON>'`` with ``collapsim`` on
``PYTHONPATH``.  The request names the workload, seed, scale, working
directory and mode:

- ``plain``: time ``cli.main`` and the engine call it makes; no tracing.
- ``spans``: wrap the names ``engine`` and ``cli`` call their layers by and
  record spans, call counts and criterion outcomes.
- ``alloc``: measure the tracemalloc peak across the engine call.

The first thing the worker does is import ``collapsim``, so the time it
reports for that import is the set-up time of a fresh interpreter.  It
prints one JSON object on stdout.
"""

import sys
import time

_start = time.perf_counter()
import collapsim  # noqa: E402

SETUP_S = time.perf_counter() - _start

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import collapsim.cli  # noqa: E402
import collapsim.engine  # noqa: E402
import collapsim.packets  # noqa: E402

from reference import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import check_output, make_plan  # noqa: E402

# (module, attribute, layer name): the names the engine and the CLI resolve
# their callees through at call time.  ``engine`` and ``cli`` import these
# functions by name, so wrapping them in their defining modules would record
# nothing.  A name a later version no longer has is skipped and reads as 0.
TRACED_NAMES = (
    (collapsim.cli, "run", "engine.run"),
    (collapsim.cli, "run_ensemble", "engine.run_ensemble"),
    (collapsim.cli, "write_records", "recording.write_records"),
    (collapsim.engine, "run", "engine.run"),
    (collapsim.engine, "next_collision", "environment.next_collision"),
    (collapsim.engine, "evolve_free", "packets.evolve_free"),
    (collapsim.engine, "evaluate_criterion", "criterion.evaluate_criterion"),
    (collapsim.engine, "apply_collapse", "contraction.apply_collapse"),
)

# The engine calls the CLI makes: the span timed for events_per_s.
ENGINE_CALLS = ("run", "run_ensemble")


def _wrap_engine_calls(wrapper) -> None:
    for name in ENGINE_CALLS:
        setattr(collapsim.cli, name, wrapper(getattr(collapsim.cli, name)))


def _install_timer(intervals: list, clock) -> None:
    def wrapper(fn):
        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                intervals.append((start, clock()))
        return timed

    _wrap_engine_calls(wrapper)


def _install_alloc(peaks: list) -> None:
    def wrapper(fn):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return measured

    _wrap_engine_calls(wrapper)


class _Outcomes:
    """Tallies the ``CriterionOutcome`` of every criterion evaluation."""

    def __init__(self) -> None:
        self.evaluated = self.phase_ok = self.fired = 0

    def __call__(self, outcome) -> None:
        self.evaluated += 1
        if outcome.phase_ok:
            self.phase_ok += 1
            if outcome.amplitude_ok:
                self.fired += 1


def _install_spans(tracer: Tracer, outcomes: _Outcomes) -> None:
    for module, attr, layer in TRACED_NAMES:
        fn = getattr(module, attr, None)
        if fn is not None:
            observe = outcomes if layer == "criterion.evaluate_criterion" else None
            setattr(module, attr, tracer.span(layer, fn, observe))
    packet = collapsim.packets.GaussianPacket
    packet.__post_init__ = tracer.counted("packets.constructed", packet.__post_init__)


def _layer_metrics(tracer, outcomes, check, written_bytes, collisions) -> dict:
    totals = tracer.layer_totals()

    def calls(layer):
        return totals.get(layer, (0, 0.0))[0]

    def self_s(layer):
        return totals.get(layer, (0, 0.0))[1]

    write_s = self_s("recording.write_records")
    return {
        "environment.next_collision.calls": calls("environment.next_collision"),
        "environment.next_collision.self_s": self_s("environment.next_collision"),
        "packets.evolve_free.calls": calls("packets.evolve_free"),
        "packets.evolve_free.self_s": self_s("packets.evolve_free"),
        "packets.constructed_per_collision": tracer.counts["packets.constructed"] / collisions,
        "criterion.evaluate_criterion.calls": calls("criterion.evaluate_criterion"),
        "criterion.evaluate_criterion.self_s": self_s("criterion.evaluate_criterion"),
        "criterion.fire_ratio": outcomes.fired / outcomes.evaluated if outcomes.evaluated else 0.0,
        "criterion.amplitude_reject_ratio": (
            (outcomes.phase_ok - outcomes.fired) / outcomes.phase_ok if outcomes.phase_ok else 0.0
        ),
        "contraction.apply_collapse.calls": calls("contraction.apply_collapse"),
        "contraction.apply_collapse.self_s": self_s("contraction.apply_collapse"),
        "engine.run.self_s": self_s("engine.run"),
        "engine.run.self_us_per_collision": self_s("engine.run") / collisions * 1e6,
        "recording.write_records.s": write_s,
        "recording.write_records.rows_per_s": check.rows / write_s if write_s else 0.0,
        "recording.write_records.bytes": written_bytes if calls("recording.write_records") else 0,
        "recording.read_records.rows_per_s": check.rows / check.read_s if check.read_s else 0.0,
        "cli.main.self_s": self_s("cli.main"),
    }


def sample(request: dict, result: dict) -> None:
    """Run the workload once and fill ``result``; may raise part way."""
    mode = request["mode"]
    workdir = Path(request["workdir"])
    plan = make_plan(collapsim, request["workload"], request["seed"], request["scale"], workdir)
    result["operations"] = plan.replicas

    engine_calls, alloc_peaks = [], []
    # Under tracemalloc the probes would be slow and nothing timed is kept.
    probe = SpeedProbe(during=mode != "alloc")
    tracer, outcomes = Tracer(probe.clock), _Outcomes()
    main = collapsim.cli.main
    if mode == "plain":
        _install_timer(engine_calls, probe.clock)
    elif mode == "alloc":
        _install_alloc(alloc_peaks)
    elif mode == "spans":
        _install_spans(tracer, outcomes)
        main = tracer.span("cli.main", main)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    with probe:
        start = probe.clock()
        exit_code = main(plan.argv)
        end = probe.clock()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(wall_s=end - start, wall_nominal_s=probe.nominal_s(start, end),
                  peak_rss_mb=peak_rss_mb, step_s=probe.step_s, speed_scale=probe.speed_scale)
    if exit_code != 0:
        result["problems"].append(f"cli.main exited {exit_code}")
        return
    data = plan.output.read_bytes()
    text = data.decode()
    result["output_sha256"] = hashlib.sha256(data).hexdigest()
    if engine_calls:
        result["engine_s"] = sum(b - a for a, b in engine_calls)
        result["engine_nominal_s"] = sum(probe.nominal_s(a, b) for a, b in engine_calls)
    if alloc_peaks:
        result["alloc_peak_mb"] = max(alloc_peaks) / 2**20
    if request["check"]:
        check = check_output(collapsim, plan, text)
        result["problems"] += check.problems
        result["failed_replicas"] = check.failed_replicas
        result["fingerprint"] = dict(check.fingerprint, output_sha256=result["output_sha256"])
        if mode == "spans" and not check.problems:
            collisions = check.fingerprint["n_collisions"]
            result["layers"] = _layer_metrics(tracer, outcomes, check, len(data), collisions)
            if request["spans_out"]:
                tracer.write(request["spans_out"])


def main() -> int:
    request = json.loads(sys.argv[1])
    if not Path(collapsim.__file__).resolve().is_relative_to(Path(request["src"]).resolve()):
        print(f"collapsim imported from {collapsim.__file__}, not from {request['src']}",
              file=sys.stderr)
        return 3
    result = {"setup_s": SETUP_S, "operations": 1, "problems": []}
    try:
        sample(request, result)
    except Exception:  # any failure of the program under test is a failed operation
        result["problems"].append("raised:\n" + traceback.format_exc())
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "scipy": getattr(sys.modules.get("scipy"), "__version__", "not imported"),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
