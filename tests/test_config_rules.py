"""One rule set for every input: a value built in code is checked by the
rules a document's value is, and a document's problem list is pinned."""

import json
from dataclasses import replace

import pytest

from collapsim import ConfigError, EnvironmentSpec, ObjectSpec, parse_config, preset, to_document

FORMATS = "('csv', 'json')"
HUGE = 10**309  # an int too large for a float
TPP = preset("tpp")


@pytest.mark.parametrize(
    "make, problems",
    [
        pytest.param(
            lambda: replace(TPP, seed=1.7), ["seed must be a non-negative integer, got 1.7"],
            id="float_seed",
        ),
        pytest.param(
            lambda: replace(TPP, seed=True), ["seed must be a non-negative integer, got True"],
            id="bool_seed",
        ),
        pytest.param(
            lambda: replace(TPP, duration="0.01"), ["duration_s must be a number, got '0.01'"],
            id="string_duration",
        ),
        pytest.param(
            lambda: replace(TPP, redraw_alpha_after_collapse=1),
            ["redraw_alpha_after_collapse must be a boolean, got 1"],
            id="int_redraw",
        ),
        pytest.param(
            lambda: replace(TPP, output_path=5), ["output_path must be a string or null, got 5"],
            id="int_output_path",
        ),
        pytest.param(
            lambda: ObjectSpec(mass=True, internal_radius=1e-9, cluster_alphas=(0.0,)),
            ["mass_kg must be a number, got True"],
            id="bool_mass",
        ),
        pytest.param(
            lambda: EnvironmentSpec(collision_rate="1e6", env_sigma=1e-10),
            ["collision_rate_hz must be a number, got '1e6'"],
            id="string_rate",
        ),
        pytest.param(
            lambda: ObjectSpec(mass=-1, internal_radius=0, cluster_alphas=()),
            [
                "mass_kg must be a positive finite number, got -1",
                "internal_radius_m must be a positive finite number, got 0",
                "cluster_alphas_rad must be a non-empty list of finite numbers, got ()",
            ],
            id="three_object_problems",
        ),
    ],
)
def test_value_built_in_code_refused_by_document_key(make, problems):
    with pytest.raises(ConfigError) as exc:
        make()
    assert exc.value.problems == problems


@pytest.mark.parametrize(
    "field, value, problem",
    [
        ("object", None, "object must be an ObjectSpec, got None"),
        ("environment", "x", "environment must be an EnvironmentSpec, got 'x'"),
    ],
)
def test_spec_field_refuses_other_types(field, value, problem):
    with pytest.raises(ConfigError) as exc:
        replace(TPP, **{field: value})
    assert exc.value.problems == [problem]
    assert exc.value.keys == (field,)


# (preset, keys set, keys deleted, the problem list).  Each list was written
# by the parser before the rules moved into the constructors, word for word
# and in order.
CORPUS = [
    ("tpp", {"mass_kg": -1}, (), ["mass_kg must be a positive finite number, got -1"]),
    (
        "tpp", {"mass_kg": True, "internal_radius_m": 0}, (),
        ["mass_kg must be a number, got True",
         "internal_radius_m must be a positive finite number, got 0"],
    ),
    (
        "sugar_grain", {"internal_radius_m": HUGE}, (),
        [f"internal_radius_m must be a positive finite number, got {HUGE}"],
    ),
    (
        "tpp", {"cluster_alphas_rad": []}, (),
        ["cluster_alphas_rad must be a non-empty list of finite numbers, got []"],
    ),
    (
        "tpp", {"cluster_alphas_rad": [0.5, float("nan")], "initial_alpha_rad": 6.3}, (),
        ["cluster_alphas_rad must be a non-empty list of finite numbers, got [0.5, nan]",
         "initial_alpha_rad must be in [0, 2*pi) or 'random', got 6.3"],
    ),
    (
        "tpp", {"initial_alpha_rad": "Random"}, (),
        ["initial_alpha_rad must be a number, got 'Random'"],
    ),
    (
        "tpp", {"initial_sigma_m": [1e-7, 1e-7]}, (),
        ["initial_sigma_m must be a positive number or length-3 list, got [1e-07, 1e-07]"],
    ),
    (
        "sugar_grain", {"initial_sigma_m": 1e-170, "env_sigma_m": [1e-9, True, 1e-9]}, (),
        ["env_sigma_m must be a positive number or length-3 list, got [1e-09, True, 1e-09]",
         "initial_sigma_m (1e-170, 1e-170, 1e-170): a square underflows to 0"],
    ),
    (
        "tpp", {"collision_rate_hz": "1e6", "env_sigma_jitter": 1.0, "impact_spread_m": -1e-9}, (),
        ["collision_rate_hz must be a number, got '1e6'",
         "env_sigma_jitter must be in [0, 1), got 1.0",
         "impact_spread_m must be a non-negative finite number, got -1e-09"],
    ),
    (
        "tpp", {"env_sigma_m": 0, "cluster_eta": 0}, (),
        ["cluster_eta must be in (0, 1], got 0",
         "env_sigma_m must be a positive number or length-3 list, got 0"],
    ),
    (
        "sugar_grain", {"duration_s": 0.5, "sample_interval_s": 1e-9, "output_format": "xml"}, (),
        ["duration_s / sample_interval_s = 0.5 / 1e-09 asks for 5e+08 sample rows; "
         "the limit is 1e+07",
         f"output_format must be one of {FORMATS}, got 'xml'"],
    ),
    (
        "tpp", {"duration_s": "x", "sample_interval_s": 1e-12}, (),
        ["duration_s must be a number, got 'x'"],
    ),
    ("tpp", {"sample_interval_s": None}, (), ["sample_interval_s must be a number, got None"]),
    (
        "tpp", {"seed": 1.7, "output_path": 5, "redraw_alpha_after_collapse": 1}, (),
        ["seed must be a non-negative integer, got 1.7",
         "output_path must be a string or null, got 5",
         "redraw_alpha_after_collapse must be a boolean, got 1"],
    ),
    (
        "sugar_grain", {"seed": -3, "cluster_eta": 1.5, "output_format": None}, (),
        ["cluster_eta must be in (0, 1], got 1.5",
         "seed must be a non-negative integer, got -3",
         f"output_format must be one of {FORMATS}, got None"],
    ),
    (
        "tpp", {"massk_g": 1.0, "v0_m_per_s": 10.0, "cluster_eta": "0.5"}, (),
        ["unknown key: 'massk_g'", "unknown key: 'v0_m_per_s'",
         "cluster_eta must be a number, got '0.5'"],
    ),
    (
        "tpp", {"duration_s": None, "mass_kg": None}, (),
        ["mass_kg must be a number, got None", "duration_s must be a number, got None"],
    ),
    (
        "tpp",
        {"initial_sigma_m": 1e-170, "seed": True, "duration_s": 1.0, "sample_interval_s": 1e-8,
         "output_format": "JSON"},
        (),
        ["seed must be a non-negative integer, got True",
         "initial_sigma_m (1e-170, 1e-170, 1e-170): a square underflows to 0",
         "duration_s / sample_interval_s = 1 / 1e-08 asks for 1e+08 sample rows; "
         "the limit is 1e+07",
         f"output_format must be one of {FORMATS}, got 'JSON'"],
    ),
    ("tpp", {"sample_interval_s": 1e-12}, ("duration_s",), ["missing required key: 'duration_s'"]),
    (
        "sugar_grain", {"impact_spread_m": "wide"}, ("mass_kg", "seed", "env_sigma_m"),
        ["missing required key: 'mass_kg'", "missing required key: 'env_sigma_m'",
         "missing required key: 'seed'", "impact_spread_m must be a number, got 'wide'"],
    ),
]


@pytest.mark.parametrize("name, update, deleted, problems", CORPUS)
def test_document_problem_list(name, update, deleted, problems):
    doc = {**to_document(preset(name)), **update}
    for key in deleted:
        del doc[key]
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert exc.value.problems == problems
