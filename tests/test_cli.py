import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsim.cli import _load_config, _parse, main
from collapsim.config import PRESETS, ConfigError, preset, to_document
from collapsim.recording import CSV_HEADER


def run_cli(args):
    return main(args)


class TestRunCommand:
    def test_short_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        code = run_cli(
            ["run", "--scenario", "tpp", "--seed", "7", "--duration-s", "1e-3",
             "--output", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith(CSV_HEADER + "\n")
        assert len(text.splitlines()) > 100
        assert "run complete" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        args = ["run", "--scenario", "tpp", "--seed", "7", "--duration-s", "2e-3"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--output", str(out1)]) == 0
        assert run_cli(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "records.json"
        code = run_cli(
            ["run", "--scenario", "tpp", "--seed", "3", "--duration-s", "1e-4",
             "--format", "json", "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert isinstance(doc, list) and doc[0]["t_s"] == 0.0

    def test_config_file_input(self, tmp_path):
        cfg_path = tmp_path / "scenario.json"
        doc = to_document(preset("tpp"))
        doc["duration_s"] = 1e-4
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "records.csv"
        assert run_cli(["run", "--config", str(cfg_path), "--output", str(out)]) == 0
        assert out.exists()

    def test_flag_overrides_change_output(self, tmp_path):
        base = ["run", "--scenario", "tpp", "--seed", "7", "--duration-s", "1e-3"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(base + ["--output", str(out1)])
        run_cli(base + ["--rate-hz", "2e6", "--output", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_replicas_emit_ensemble_summary(self, tmp_path):
        out = tmp_path / "ensemble.json"
        code = run_cli(
            ["run", "--scenario", "tpp", "--seed", "5", "--duration-s", "1e-4",
             "--replicas", "3", "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n_replicas"] == 3
        assert len(doc["replicas"]) == 3

    def test_stdout_default_sink(self, capsys):
        code = run_cli(["run", "--scenario", "tpp", "--seed", "1", "--duration-s", "1e-5"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(CSV_HEADER + "\n")


class TestValidationFailures:
    def test_missing_scenario_and_config(self, capsys):
        assert run_cli(["run"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_both_scenario_and_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("{}")
        assert run_cli(["run", "--scenario", "tpp", "--config", str(cfg)]) == 2

    def test_invalid_config_lists_all_problems(self, tmp_path, capsys):
        doc = to_document(preset("tpp"))
        doc["mass_kg"] = -1.0
        del doc["duration_s"]
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "mass_kg" in err and "duration_s" in err

    def test_unreadable_config(self, tmp_path, capsys):
        assert run_cli(["run", "--config", str(tmp_path / "missing.json")]) == 2

    def test_bad_eta_flag(self, capsys):
        assert run_cli(["run", "--scenario", "tpp", "--eta", "0.0"]) == 2

    @pytest.mark.parametrize("rate", ["-1", "nan"])
    def test_bad_rate_flag_named(self, rate, capsys):
        assert run_cli(["run", "--scenario", "tpp", "--rate-hz", rate]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --rate-hz ") and "collision_rate" in err

    def test_bad_flag_names_the_document_key(self, capsys):
        assert run_cli(["run", "--scenario", "tpp", "--rate-hz", "-1"]) == 2
        assert capsys.readouterr().err == (
            "error: --rate-hz -1.0: "
            "collision_rate_hz must be a non-negative finite number, got -1.0\n"
        )

    def test_every_bad_flag_listed(self, capsys):
        code = run_cli(
            ["run", "--scenario", "tpp", "--rate-hz", "-1", "--duration-s", "-2", "--eta", "3"]
        )
        assert code == 2
        err = capsys.readouterr().err
        for flag in ("--rate-hz", "--duration-s", "--eta"):
            assert f"error: {flag} " in err

    def test_replicas_listed_with_config_problems(self, capsys):
        assert run_cli(["run", "--scenario", "tpp", "--seed", "-1", "--replicas", "0"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("error: --seed -1: ")
        assert lines[1].startswith("error: --replicas must be >= 1")

    def test_csv_format_refused_for_ensemble(self, tmp_path, capsys):
        # An ensemble summary is JSON; a preset's default csv format is not
        # refused (test_replicas_emit_ensemble_summary), an explicit one is.
        out = tmp_path / "ensemble.csv"
        code = run_cli(
            ["run", "--scenario", "tpp", "--duration-s", "1e-4", "--replicas", "2",
             "--format", "csv", "--output", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --format csv: ") and "--replicas 2" in err
        assert not out.exists()

    def test_output_in_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "x.csv"
        assert run_cli(["run", "--scenario", "tpp", "--output", str(target)]) == 2
        err = capsys.readouterr().err
        assert str(target) in err and "Traceback" not in err

    def test_config_output_path_not_a_string(self, tmp_path, capsys):
        doc = to_document(preset("tpp"))
        doc["output_path"] = 5
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli(["run", "--config", str(cfg)]) == 2
        assert "output_path" in capsys.readouterr().err

    def test_absurd_sample_grid_refused(self, tmp_path, capsys):
        doc = to_document(preset("tpp"))
        doc.update(duration_s=1e-4, sample_interval_s=1e-12)
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli(["run", "--config", str(cfg), "--output", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "duration_s" in err and "sample_interval_s" in err and "1e+08" in err
        assert "Traceback" not in err
        assert run_cli(["run", "--scenario", "tpp", "--duration-s", "1e5"]) == 2
        assert "error: --duration-s " in capsys.readouterr().err

    def test_velocity_key_refused(self, tmp_path, capsys):
        # The model holds no object position, so a velocity has nothing to move.
        cfg = tmp_path / "v0.json"
        cfg.write_text(json.dumps({**to_document(preset("tpp")), "v0_m_per_s": 10.0}))
        assert run_cli(["run", "--config", str(cfg), "--output", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: unknown key: 'v0_m_per_s'"]

    def test_initial_width_whose_square_underflows_refused(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({**to_document(preset("tpp")), "initial_sigma_m": 1e-170}))
        assert run_cli(["run", "--config", str(cfg), "--output", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "initial_sigma_m" in err and "underflows" in err
        assert "Traceback" not in err and "non-finite state" not in err


# The first contraction multiplies two widths near 1e-165 and underflows to 0.
UNDERFLOW_DOCUMENT = {
    "mass_kg": 1e300, "internal_radius_m": 1e-100,
    "cluster_alphas_rad": [0.0], "initial_sigma_m": 1e-160, "initial_alpha_rad": 0.0,
    "collision_rate_hz": 1e6, "env_sigma_m": 1e-170, "duration_s": 0.01, "seed": 1,
    "sample_interval_s": 0.001, "cluster_eta": 1.0,
}


class TestEngineFailure:
    @pytest.fixture
    def underflow(self, tmp_path):
        path = tmp_path / "underflow.json"
        path.write_text(json.dumps(UNDERFLOW_DOCUMENT))
        return path

    def test_underflowing_contraction_exits_1(self, underflow, tmp_path, capsys):
        code = run_cli(["run", "--config", str(underflow), "--output", str(tmp_path / "x.csv")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: non-finite state at t=")

    def test_sweep_row_counts_failed_replicas(self, underflow, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            ["sweep", "--config", str(underflow), "--axis", "mass", "--values", "1e300",
             "--replicas", "2", "--output", str(out)]
        )
        assert code == 0
        row = out.read_text().splitlines()[1]
        assert ",2,error: 2/2 replicas failed: non-finite state at t=" in row

    def test_failed_ensemble_writes_strict_json(self, underflow, tmp_path):
        out = tmp_path / "ensemble.json"
        code = run_cli(
            ["run", "--config", str(underflow), "--replicas", "2", "--output", str(out)]
        )
        assert code == 0

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        doc = json.loads(out.read_text(), parse_constant=refuse)
        assert len(doc["failures"]) == 2 and doc["replicas"] == []
        assert doc["final_min_sigma_mean_m"] is None and doc["mean_recovery_ratio"] is None


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "args",
    [
        # At 2e-3 s a write fails; at 1e-5 s the records fit the buffer, and the close fails.
        ["run", "--scenario", "tpp", "--duration-s", "2e-3"],
        ["run", "--scenario", "tpp", "--duration-s", "1e-5"],
        ["run", "--scenario", "tpp", "--duration-s", "1e-4", "--replicas", "2"],
        ["sweep", "--scenario", "tpp", "--axis", "mass", "--values", "1e-7", "--replicas", "1",
         "--duration-s", "1e-4"],
    ],
)
def test_full_device_exits_1_with_one_error(args, capsys):
    assert run_cli([*args, "--output", "/dev/full"]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [
        "error: failed while writing /dev/full ([Errno 28] No space left on device); "
        "output may be partial"
    ]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_1_with_one_error():
    src = Path(__file__).resolve().parents[1] / "src"
    args = ["sweep", "--scenario", "tpp", "--axis", "mass", "--values", "1e-7",
            "--replicas", "1", "--duration-s", "1e-4"]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "collapsim", *args], env=dict(os.environ, PYTHONPATH=str(src)),
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    assert proc.returncode == 1
    assert proc.stderr == (
        "error: failed while writing stdout ([Errno 28] No space left on device); "
        "output may be partial\n"
    )


OVERRIDE_FLAGS = ("--seed", "--duration-s", "--rate-hz", "--eta", "--format", "--output")
FLAG_VALUES = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", "0.5", "csv", "json"]),
    st.text(max_size=6),
)


def override_problems(scenario: str, flags: dict):
    """``None`` when the override flags load, else the problems of their
    parse and of the config they give."""
    argv = ["run", "--scenario", scenario] + [f"{flag}={value}" for flag, value in flags.items()]
    _, parsed, problems = _parse(argv)
    try:
        _load_config(parsed, problems)
    except ConfigError as exc:
        return exc.problems
    return None


class TestFuzzedOverrides:
    # The engine never runs here: there is no bound on expected collisions
    # yet, so a valid --rate-hz 1e300 would not finish.
    @settings(max_examples=300, deadline=None)
    @given(
        scenario=st.sampled_from(PRESETS),
        flags=st.dictionaries(st.sampled_from(OVERRIDE_FLAGS), FLAG_VALUES, min_size=1, max_size=4),
    )
    def test_every_rejected_flag_is_named(self, scenario, flags):
        problems = override_problems(scenario, flags)
        if problems is None:
            return
        named = {flag for flag in flags if any(p.startswith(f"{flag} ") for p in problems)}
        assert len(named) == len(problems), problems
        # Each flag is checked on its own, so a combination rejects exactly
        # the flags that are rejected alone.
        alone = {flag for flag in flags if override_problems(scenario, {flag: flags[flag]})}
        assert named == alone


class TestImportCost:
    def test_run_does_not_import_argparse_or_locale(self, tmp_path):
        # argparse's first use imports gettext, and gettext imports locale.
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys, collapsim, collapsim.cli\n"
            f"assert collapsim.cli.main(['run', '--scenario', 'tpp', '--duration-s', '1e-4',"
            f" '--output', {str(tmp_path / 'out.csv')!r}]) == 0\n"
            "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_run_does_not_import_scipy(self, tmp_path):
        # scipy serves only the quadrature oracle and selftest; a run never needs it.
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys, collapsim, collapsim.cli\n"
            f"assert collapsim.cli.main(['run', '--scenario', 'tpp', '--duration-s', '1e-4',"
            f" '--output', {str(tmp_path / 'out.csv')!r}]) == 0\n"
            "assert 'scipy' not in sys.modules, 'scipy imported'\n"
            "assert callable(collapsim.overlap_integral_quadrature)\n"
            "assert 'scipy' in sys.modules\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr


COMMAND_FLAGS = {
    "run": ("--scenario", "--config", "--seed", "--duration-s", "--rate-hz", "--eta",
            "--output", "--format", "--replicas"),
    "selftest": ("--fast",),
}
COMMAND_FLAGS["sweep"] = (*COMMAND_FLAGS["run"], "--axis", "--values")


class TestFlagParse:
    @pytest.mark.parametrize("command", [None, "run", "sweep", "selftest"])
    @pytest.mark.parametrize("help_flag", ["-h", "--help"])
    def test_help_names_every_flag(self, command, help_flag, capsys):
        argv = [help_flag] if command is None else [command, "--seed=x", help_flag]
        assert run_cli(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.startswith("usage: collapsim ")
        names = ("run", "sweep", "selftest") if command is None else COMMAND_FLAGS[command]
        words = set(captured.out.replace(",", " ").split())
        for name in (*names, "-h", "--help"):
            assert name in words, name

    def test_every_flag_problem_listed(self, capsys):
        code = run_cli(["run", "--scenario", "tpq", "--seed", "x", "--duration-s", "y",
                        "--replicas", "0", "--format", "xml", "--bogus", "1"])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 6
        for flag in ("--scenario", "--seed", "--duration-s", "--replicas", "--format", "--bogus"):
            assert sum(line.startswith("error: ") and flag in line for line in lines) == 1, flag

    @pytest.mark.parametrize(
        "argv, problems",
        [
            ([], ["no command: choose from run, sweep, selftest"]),
            (["simulate", "--seed", "1"],
             ["unknown command 'simulate': choose from run, sweep, selftest"]),
            (["run", "--scenario", "tpp", "--dur", "1e-4"], ["'--dur' is not a flag of run"]),
            (["run", "--scenario", "tpp", "extra"], ["'extra' is not a flag of run"]),
            (["run", "--scenario", "tpp", "--seed"], ["--seed: expected a value"]),
            (["run", "--seed", "--scenario", "tpp"], ["--seed: expected a value"]),
            (["run", "--config"], ["--config: expected a value"]),
            (["run", "--scenario=tpp", "--seed=1.5"], ["--seed '1.5': invalid int value"]),
            (["selftest", "--fast=yes"], ["--fast takes no value, got 'yes'"]),
            (["sweep", "--scenario", "tpp"], ["--axis is required", "--values is required"]),
            (["sweep", "--scenario", "tpp", "--axis", "size", "--values", "1"],
             ["--axis 'size': invalid choice (choose from mass, diameter, rate)"]),
        ],
    )
    def test_flag_problems(self, argv, problems, capsys):
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {p}" for p in problems]

    def test_equals_form_reads_as_separate_value(self, tmp_path):
        args = ["run", "--scenario", "tpp", "--seed", "7", "--duration-s", "1e-4"]
        joined = ["run", "--scenario=tpp", "--seed=7", "--duration-s=1e-4"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--output", str(out1)]) == 0
        assert run_cli(joined + [f"--output={out2}"]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestSweepCommand:
    def test_sweep_table_sorted(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            ["sweep", "--scenario", "tpp", "--axis", "mass",
             "--values", "1e-7,1.7e-23", "--replicas", "1",
             "--duration-s", "5e-4", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("value,")
        assert len(lines) == 3
        values = [float(line.split(",")[0]) for line in lines[1:]]
        assert values == sorted(values)

    def test_bad_values_rejected(self, capsys):
        assert run_cli(
            ["sweep", "--scenario", "tpp", "--axis", "mass", "--values", "-1.0"]
        ) == 2

    @pytest.mark.parametrize(
        "flags,problem",
        [
            (["--values", "1e-20,nan"], "error: --values nan: "),
            (["--values", "inf"], "error: --values inf: "),
            (["--values", "1e-20", "--replicas", "0"], "error: --replicas must be >= 1"),
        ],
    )
    def test_bad_sweep_flag_named(self, flags, problem, capsys):
        assert run_cli(["sweep", "--scenario", "tpp", "--axis", "mass", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(problem) and len(err.splitlines()) == 1

    def test_every_bad_sweep_flag_listed(self, capsys):
        code = run_cli(
            ["sweep", "--scenario", "tpp", "--axis", "mass", "--values=-1,nan,inf",
             "--replicas", "0"]
        )
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 4
        for problem in ("--values -1:", "--values nan:", "--values inf:", "--replicas "):
            assert any(line.startswith(f"error: {problem}") for line in lines), problem

    def test_json_format_refused(self, capsys):
        code = run_cli(
            ["sweep", "--scenario", "tpp", "--axis", "mass", "--values", "1e-20",
             "--replicas", "1", "--duration-s", "1e-4", "--format", "json"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --format json: the sweep table is CSV\n"

    def test_json_format_listed_with_other_problems(self, capsys):
        code = run_cli(
            ["sweep", "--scenario", "tpp", "--axis", "mass", "--values", "-1",
             "--seed", "-1", "--format", "json"]
        )
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 3
        for problem in ("--seed -1:", "--values -1:", "--format json:"):
            assert any(line.startswith(f"error: {problem}") for line in lines), problem

    def test_document_output_format_does_not_change_the_table(self, tmp_path):
        doc = to_document(preset("tpp"))
        doc["output_format"] = "json"
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "sweep.csv"
        code = run_cli(
            ["sweep", "--config", str(cfg_path), "--axis", "mass", "--values", "1e-20",
             "--replicas", "1", "--duration-s", "1e-4", "--output", str(out)]
        )
        assert code == 0
        assert out.read_text().startswith("value,mean_recovery_ratio,")


class TestSelftestCommand:
    def test_fast_selftest_passes(self, capsys):
        assert run_cli(["selftest", "--fast"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "FAIL" not in out
