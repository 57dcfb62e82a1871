"""Smoke tests: the example scripts in ``scripts/`` still run end to end."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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
