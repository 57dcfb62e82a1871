"""Smoke tests: the example scripts in ``scripts/`` still run end to end, and
``output_digests.py`` prints the pinned digests of every output."""

import importlib.util
import platform
from pathlib import Path

import numpy as np
import pytest

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
    changed program from a different build."""
    lines = DIGESTS.read_text().splitlines()
    pinned_build = next(line.split(":", 1)[1].strip() for line in lines if line.startswith("# build:"))
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
