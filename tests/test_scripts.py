"""Smoke tests: the example scripts in ``scripts/`` still run end to end, and
``output_digests.py`` prints the pinned digests of every output."""

import importlib.util
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from collapsim.environment import STREAM_VERSION

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
DIGESTS = Path(__file__).with_name("output_digests.txt")


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv",
    [
        ("micro_macro_demo", ["--duration-s", "1e-3"]),
        ("borderline_sweep", ["--duration-s", "1e-4", "--replicas", "1", "--decades", "2"]),
    ],
)
def test_script_runs(name, argv, capsys):
    assert load_script(name).main(argv) == 0
    assert capsys.readouterr().out.strip()


def test_ab_engine_compares_a_tree_with_itself(capsys):
    """Both sides import their own copy of the package, give equal summaries
    and are timed on every config in every round."""
    tree = str(SCRIPTS.parent)
    argv = ["--parent", tree, "--change", tree, "--rounds", "2", "--seed", "3", "--scale", "0.01"]
    assert load_script("ab_engine").main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" | ")[0] for line in lines[2:]] == [
        "| grain_ensemble", "| tpp", "| tpp_no_records", "| generic"
    ]
    assert all(line.endswith("/2 |") for line in lines[2:])
    assert not any(name.startswith(("collapsim_parent", "collapsim_change")) for name in sys.modules)


def test_output_digests_names_every_output(capsys):
    assert load_script("output_digests").main(["--seeds", "1,2", "--scale", "0.02"]) == 0
    lines = capsys.readouterr().out.splitlines()
    outputs = (
        "tpp_csv", "grain_ensemble", "generic_json", "grain_csv", "mass_sweep", "tpp_json"
    )
    assert [line.split()[0] for line in lines] == [
        f"{name}/seed{seed}" for seed in (1, 2) for name in outputs
    ] + ["selftest_fast"]
    digests = [line.split()[1] for line in lines]
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in digests)


def test_output_bytes_match_pinned_digests(capsys):
    """Every output at seeds 1, 2 and 3 has the bytes pinned in
    ``output_digests.txt``.  The digests hold for the build its header
    names: Python, numpy, the C library, whose ``log1p`` picks a variant per
    CPU, and whether the CPU has fused multiply-adds.  The message tells a
    changed program from a different build; digests pinned for a stream
    layout other than ``environment.STREAM_VERSION`` fail at once."""
    lines = DIGESTS.read_text().splitlines()
    header = dict(
        line[2:].split(":", 1) for line in lines if line.startswith(("# build:", "# stream:"))
    )
    pinned_build, pinned_stream = header["build"].strip(), header["stream"].strip()
    assert pinned_stream == f"v{STREAM_VERSION}", (
        f"{DIGESTS.name} is pinned for stream {pinned_stream}; the program draws stream "
        f"v{STREAM_VERSION}"
    )
    expected = [line for line in lines if not line.startswith("#")]
    assert load_script("output_digests").main(["--seeds", "1,2,3"]) == 0
    got = capsys.readouterr().out.splitlines()
    libc = " ".join(platform.libc_ver())
    fma = "yes" if np._core._multiarray_umath.__cpu_features__.get("FMA3") else "no"
    build = f"Python {platform.python_version()}, numpy {np.__version__}, {libc}, FMA3 {fma}"
    cause = "same build, so the program changed" if build == pinned_build else "another build"
    assert [line.split()[0] for line in got] == [line.split()[0] for line in expected]
    for want, have in zip(expected, got):
        assert have == want, (
            f"{want.split()[0]}: digest differs from {DIGESTS.name}, pinned on {pinned_build}; "
            f"running {build} ({cause})"
        )


def test_paired_bench_summary():
    """``paired_bench.py`` summarises canned pairs: quartiles and medians as
    ``run_bench.py`` takes them, the ratio of the medians, and the pairs in
    which the change was better in each metric's own direction."""
    paired = load_script("paired_bench")
    parent = [{"wall_s": w, "events_per_s": e} for w, e in [(4.0, 10.0), (2.0, 30.0), (3.0, 20.0),
                                                          (5.0, 40.0), (1.0, 50.0)]]
    change = [{"wall_s": w, "events_per_s": e} for w, e in [(3.0, 10.0), (1.0, 35.0), (2.0, 30.0),
                                                          (6.0, 45.0), (0.5, 55.0)]]
    better = {"wall_s": "lower", "events_per_s": "higher"}
    rows = paired.summarize(list(zip(parent, change)), better)
    wall, events = rows
    assert wall["metric"] == "wall_s" and wall["pairs"] == 5
    assert wall["parent"] == (1.5, 3.0, 4.5) and wall["change"] == (0.75, 2.0, 4.5)
    assert wall["ratio"] == 2.0 / 3.0 and wall["wins"] == 4  # lower is better; pair 4 lost
    assert events["parent"][1] == 30.0 and events["change"][1] == 35.0
    assert events["wins"] == 4  # higher is better; pair 1 is a tie, not a win
    lines = paired.table({"w": rows})
    assert lines[2] == "| w | wall_s | 3 (1.5–4.5) | 2 (0.75–4.5) | 0.667 | 4/5 |"
    one = paired.summarize([(parent[0], change[0])], {"wall_s": "lower"})
    assert one[0]["parent"] == (4.0,) * 3


def test_paired_bench_table_of_repeated_workloads(tmp_path, monkeypatch, capsys):
    """``--workload`` repeated: each workload's pairs run in turn, parent
    first in even pairs, and one table holds every workload's rows."""
    paired = load_script("paired_bench")
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    metrics = [{"name": "wall_s", "better": "lower"}, {"name": "events_per_s", "better": "higher"}]
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": metrics}))
    # Canned results: the change is twice as fast on "a" and no faster on "b".
    canned = {("a", parent): [4.0, 3.0, 5.0], ("a", change): [2.0, 1.5, 2.5],
              ("b", parent): [1.0, 1.0, 1.0], ("b", change): [1.0, 1.0, 1.0]}
    runs = []

    def bench(tree, workload, args):
        wall = canned[workload, tree][sum(run == (workload, tree) for run in runs)]
        runs.append((workload, tree))
        return {"wall_s": wall, "events_per_s": 12.0 / wall}

    monkeypatch.setattr(paired, "bench", bench)
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "a",
            "--workload", "b", "--pairs", "3", "--seed", "1", "--seconds", "1"]
    assert paired.main(argv) == 0
    assert runs == [("a", parent), ("a", change), ("a", change), ("a", parent),
                    ("a", parent), ("a", change),
                    ("b", parent), ("b", change), ("b", change), ("b", parent),
                    ("b", parent), ("b", change)]
    out = capsys.readouterr().out.splitlines()
    assert out[-6:] == [
        "| workload | metric | parent | change | ratio | change better |",
        "|---|---|---|---|---|---|",
        "| a | wall_s | 4 (3–5) | 2 (1.5–2.5) | 0.500 | 3/3 |",
        "| a | events_per_s | 3 (2.4–4) | 6 (4.8–8) | 2.000 | 3/3 |",
        "| b | wall_s | 1 (1–1) | 1 (1–1) | 1.000 | 0/3 |",
        "| b | events_per_s | 12 (12–12) | 12 (12–12) | 1.000 | 0/3 |",
    ]


def test_paired_bench_stops_on_a_failed_run(tmp_path):
    paired = load_script("paired_bench")
    metrics = {"wall_s": {"value": 0.5, "unit": "s"}}
    assert paired.checked({"correct": True, "failed": 0, "metrics": metrics}, tmp_path) == {
        "wall_s": 0.5
    }
    for bad in ({"correct": True, "failed": 1}, {"correct": False, "failed": 0}):
        with pytest.raises(RuntimeError, match="operations failed"):
            paired.checked({**bad, "attempted": 8, "metrics": metrics}, tmp_path)
    (tmp_path / "ab").mkdir()
    (tmp_path / "abc").mkdir()
    assert paired.path_warning(tmp_path / "ab", tmp_path / "ab") is None
    assert "peak_rss_mb" in paired.path_warning(tmp_path / "ab", tmp_path / "abc")
