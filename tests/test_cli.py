import json

import pytest

from collapsim.cli import main
from collapsim.config import preset, to_document
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

    def test_every_bad_flag_listed(self, capsys):
        code = run_cli(
            ["run", "--scenario", "tpp", "--rate-hz", "-1", "--duration-s", "-2", "--eta", "3"]
        )
        assert code == 2
        err = capsys.readouterr().err
        for flag in ("--rate-hz", "--duration-s", "--eta"):
            assert f"error: {flag} " in err

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


class TestSelftestCommand:
    def test_fast_selftest_passes(self, capsys):
        assert run_cli(["selftest", "--fast"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "FAIL" not in out
