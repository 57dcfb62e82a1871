import json
import math

import pytest

from collapsim import ConfigError, parse_config, preset, to_document
from collapsim.config import PRESETS, ScenarioConfig


class TestPresets:
    def test_tpp_object(self):
        cfg = preset("tpp")
        assert cfg.object.mass == 1.7e-23
        assert cfg.object.diameter == 5e-9
        assert cfg.object.v0 == 10.0
        assert cfg.initial_sigma == (5e-7, 5e-7, 5e-7)  # 100x the diameter

    def test_sugar_grain_object(self):
        cfg = preset("sugar_grain")
        assert cfg.object.mass == 1e-7
        assert cfg.object.diameter == 0.5e-3
        assert cfg.object.v0 == 10.0

    def test_shared_environment_defaults(self):
        a, b = preset("tpp"), preset("sugar_grain")
        assert a.environment == b.environment
        assert a.environment.collision_rate == 1e6
        assert a.environment.env_sigma == (5e-11, 5e-11, 5e-11)
        assert a.environment.env_sigma_jitter == 0.0

    def test_presets_are_pure(self):
        assert preset("tpp") == preset("tpp")
        assert preset("sugar_grain") == preset("sugar_grain")

    def test_unknown_preset(self):
        with pytest.raises(ValueError) as exc:
            preset("nope")
        message = str(exc.value)
        for name in PRESETS:
            assert name in message


class TestParseConfig:
    def test_round_trips_presets(self):
        for name in PRESETS:
            cfg = preset(name)
            assert parse_config(json.dumps(to_document(cfg))) == cfg

    def test_negative_mass_reported_by_name(self):
        doc = to_document(preset("tpp"))
        doc["mass_kg"] = -1.0
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert "mass_kg" in str(exc.value)

    def test_missing_duration_reported_by_name(self):
        doc = to_document(preset("tpp"))
        del doc["duration_s"]
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert "duration_s" in str(exc.value)

    def test_all_problems_reported_together(self):
        doc = to_document(preset("tpp"))
        doc["mass_kg"] = -1.0
        doc["cluster_eta"] = 7.0
        doc["seed"] = -4
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        problems = exc.value.problems
        assert len(problems) == 3
        joined = " ".join(problems)
        for key in ("mass_kg", "cluster_eta", "seed"):
            assert key in joined

    def test_unknown_key_rejected(self):
        doc = to_document(preset("tpp"))
        doc["massk_g"] = 1.0
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert "massk_g" in str(exc.value)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ConfigError) as exc:
            parse_config('{"mass_kg": 1.0,\n  broken\n}')
        message = str(exc.value)
        assert "line" in message and "column" in message

    def test_non_object_document_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[1, 2, 3]")

    def test_random_initial_alpha_accepted(self):
        doc = to_document(preset("tpp"))
        doc["initial_alpha_rad"] = "random"
        cfg = parse_config(json.dumps(doc))
        assert cfg.initial_alpha == "random"

    def test_cluster_count_mismatch(self):
        doc = to_document(preset("sugar_grain"))
        doc["n_clusters"] = 3
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert "n_clusters" in str(exc.value)

    @pytest.mark.parametrize("key", ["env_sigma_jitter", "impact_spread_m"])
    def test_non_numeric_stream_value_reported_by_name(self, key):
        doc = to_document(preset("tpp"))
        doc[key] = "x"
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert exc.value.problems == [f"{key} must be a number, got 'x'"]

    def test_output_path_must_be_string_or_null(self):
        doc = to_document(preset("tpp"))
        doc["output_path"] = 5
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert "output_path" in str(exc.value)

    def test_problems_collected_past_failing_specs(self):
        doc = to_document(preset("tpp"))
        doc["mass_kg"] = -1
        doc["env_sigma_jitter"] = 2.0
        doc["output_format"] = "xml"
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        joined = " ".join(exc.value.problems)
        for key in ("mass_kg", "env_sigma_jitter", "output_format"):
            assert key in joined

    def test_scalar_sigma_broadcasts(self):
        doc = to_document(preset("tpp"))
        doc["initial_sigma_m"] = 1e-7
        cfg = parse_config(json.dumps(doc))
        assert cfg.initial_sigma == (1e-7, 1e-7, 1e-7)


class TestScenarioConfigValidation:
    def test_bad_eta(self):
        cfg = preset("tpp")
        with pytest.raises(ConfigError):
            ScenarioConfig(
                object=cfg.object,
                initial_sigma=cfg.initial_sigma,
                initial_alpha=0.0,
                environment=cfg.environment,
                duration=1.0,
                seed=1,
                sample_interval=0.1,
                cluster_eta=0.0,
            )

    def test_bad_format(self):
        cfg = preset("tpp")
        with pytest.raises(ConfigError):
            ScenarioConfig(
                object=cfg.object,
                initial_sigma=cfg.initial_sigma,
                initial_alpha=0.0,
                environment=cfg.environment,
                duration=1.0,
                seed=1,
                sample_interval=0.1,
                cluster_eta=0.5,
                output_format="xml",
            )

    def test_bad_initial_alpha(self):
        cfg = preset("tpp")
        with pytest.raises(ConfigError):
            ScenarioConfig(
                object=cfg.object,
                initial_sigma=cfg.initial_sigma,
                initial_alpha=2.0 * math.pi,
                environment=cfg.environment,
                duration=1.0,
                seed=1,
                sample_interval=0.1,
                cluster_eta=0.5,
            )
