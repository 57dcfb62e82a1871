import dataclasses
import json
import math
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsim import ConfigError, config, parse_config, preset, to_document
from collapsim.config import PRESETS, EnvironmentSpec, ObjectSpec, ScenarioConfig


class TestPresets:
    def test_tpp_object(self):
        cfg = preset("tpp")
        assert cfg.object.mass == 1.7e-23
        assert cfg.object.diameter == 5e-9
        assert cfg.initial_sigma == (5e-7, 5e-7, 5e-7)  # 100x the diameter

    def test_sugar_grain_object(self):
        cfg = preset("sugar_grain")
        assert cfg.object.mass == 1e-7
        assert cfg.object.diameter == 0.5e-3

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


class TestKeyTable:
    """``config._KEYS`` is the document's one schema."""

    def test_names_every_field_once(self):
        # A field added to a spec without a document key fails here.
        specs = {"object": ObjectSpec, "environment": EnvironmentSpec, None: ScenarioConfig}
        fields = [
            (owner, field.name)
            for owner, cls in specs.items()
            for field in dataclasses.fields(cls)
            if field.name not in specs
        ]
        named = [(owner, field) for _, owner, field, _, _ in config._KEYS]
        assert Counter(named) == Counter(fields)
        assert len({key for key, *_ in config._KEYS}) == len(config._KEYS)

    def test_document_keys_in_readme_order(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("### Config documents")[1].split("```json")[1].split("```")[0]
        assert list(to_document(preset("tpp"))) == list(json.loads(example))


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
        # The count is len(cluster_alphas_rad), so a document does not give it.
        doc = to_document(preset("sugar_grain"))
        doc["n_clusters"] = 64
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert exc.value.problems == ["unknown key: 'n_clusters'"]

    @pytest.mark.parametrize("key", ["env_sigma_jitter", "impact_spread_m"])
    def test_non_numeric_stream_value_reported_by_name(self, key):
        doc = to_document(preset("tpp"))
        doc[key] = "x"
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert exc.value.problems == [f"{key} must be a number, got 'x'"]

    @pytest.mark.parametrize(
        "key,value",
        [(key, True) for key in (
            "mass_kg", "internal_radius_m", "seed", "initial_sigma_m", "initial_alpha_rad",
            "collision_rate_hz", "env_sigma_m", "env_sigma_jitter", "impact_spread_m",
            "duration_s", "sample_interval_s", "cluster_eta",
        )]
        + [
            ("cluster_alphas_rad", [0.0, False]),
            ("initial_sigma_m", [1e-7, True, 1e-7]),
            ("env_sigma_m", [False, 1e-10, 1e-10]),
            ("n_clusters", True),
        ],
    )
    def test_boolean_is_not_a_number(self, key, value):
        doc = to_document(preset("tpp"))
        doc[key] = value
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        problems = exc.value.problems
        assert len(problems) == 1 and key in problems[0]

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


# Any JSON value, plus near-valid ones so that some mutated documents parse.
JSON_VALUES = st.one_of(
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8,
    ),
    st.floats(-1.0, 10.0),
    st.lists(st.floats(1e-12, 1e-3), min_size=3, max_size=3),
    st.sampled_from(["random", "csv", "json"]),
)
DOCUMENT_KEYS = sorted(to_document(preset("tpp")))
# Keys checked together with another key: one alone may be rejected and the
# pair accepted (a duration fits a coarser grid).
COUPLED = {"duration_s": "sample_interval_s", "sample_interval_s": "duration_s"}


def config_problems(doc: dict):
    """``None`` when ``doc`` parses, else its problems; any other exception escapes."""
    try:
        parse_config(json.dumps(doc))
    except ConfigError as exc:
        return exc.problems
    return None


class TestFuzzedDocuments:
    @settings(max_examples=300, deadline=None)
    @given(
        name=st.sampled_from(PRESETS),
        mutations=st.dictionaries(
            st.sampled_from(DOCUMENT_KEYS), JSON_VALUES, min_size=1, max_size=4
        ),
    )
    def test_every_rejected_key_is_named(self, name, mutations):
        base = to_document(preset(name))
        problems = config_problems({**base, **mutations})
        if problems is None:
            return
        for problem in problems:
            assert any(key in problem for key in mutations), problem
        for key, value in mutations.items():
            if COUPLED.get(key) not in mutations and config_problems({**base, key: value}):
                assert any(key in problem for problem in problems), (key, problems)


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

    def test_absurd_sample_grid_refused(self):
        doc = to_document(preset("tpp"))
        doc.update(duration_s=1e-4, sample_interval_s=1e-12)
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        message = str(exc.value)
        assert "duration_s" in message and "sample_interval_s" in message
        assert "1e+08 sample rows" in message
        # the limit itself is allowed
        doc.update(duration_s=10.0, sample_interval_s=1e-6)
        assert parse_config(json.dumps(doc)).sample_interval == 1e-6

    @pytest.mark.parametrize(
        "update, key",
        [
            ({"duration_s": "x", "sample_interval_s": 1e-8}, "duration_s"),
            ({"sample_interval_s": "x", "duration_s": 1e8}, "sample_interval_s"),
        ],
    )
    def test_rejected_grid_key_is_the_only_problem(self, update, key):
        # No sample-row count is checked against a value the document did
        # not give.
        doc = to_document(preset("tpp"))
        doc.update(update)
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert exc.value.problems == [f"{key} must be a number, got 'x'"]

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
