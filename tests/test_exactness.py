"""Checks that need no statistics: the model's exact scaling symmetries, and
a differential fuzz of ``run`` against the loop over ``step``.

Both symmetries scale by powers of two, so every rounding commutes with the
scaling (barring subnormals and overflow) and they hold bit for bit:

- time: (lambda, T, grid interval, m) -> (c lambda, T / c, interval / c,
  m / c).  The gaps scale by 1 / c and the spreading parameter
  hbar dt / (2 m sigma^2) does not move, so the counts, widths, regimes,
  events and stream positions stay, and times scale by 1 / c;
- space: (initial widths, environment widths, impact spread, internal
  radius) -> c (...) and m -> m / c^2.  The overlap depends only on width
  ratios, so widths scale by c and nothing else moves.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from collapsim import EngineError, EnvironmentSpec, ObjectSpec, ScenarioConfig, preset, run
from test_engine import BLOCK_CONFIGS, generic_document_config, reference_run

SYMMETRY_CONFIGS = {
    "tpp": replace(preset("tpp"), duration=0.02),
    "sugar_grain": replace(preset("sugar_grain"), duration=0.02),
    "generic": generic_document_config(0.02),
    "light_crossing": BLOCK_CONFIGS["light_crossing"][0],
}


def scaled_in_time(config: ScenarioConfig, c: float) -> ScenarioConfig:
    env = config.environment
    return replace(
        config,
        object=replace(config.object, mass=config.object.mass / c),
        environment=replace(env, collision_rate=env.collision_rate * c),
        duration=config.duration / c,
        sample_interval=config.sample_interval / c,
    )


def scaled_in_space(config: ScenarioConfig, c: float) -> ScenarioConfig:
    obj, env = config.object, config.environment
    return replace(
        config,
        object=replace(obj, mass=obj.mass / (c * c), internal_radius=obj.internal_radius * c),
        initial_sigma=tuple(c * s for s in config.initial_sigma),
        environment=replace(
            env, env_sigma=tuple(c * s for s in env.env_sigma), impact_spread=c * env.impact_spread
        ),
    )


# Summary fields that are widths or sums of widths: they scale with space.
WIDTH_FIELDS = (
    "final_sigma", "final_min_sigma", "min_sigma", "collapse_before_sum", "collapse_after_sum"
)


@pytest.mark.parametrize("name", sorted(SYMMETRY_CONFIGS))
@pytest.mark.parametrize("axis, c", [("time", 2.0**-3), ("time", 2.0**5),
                                     ("space", 2.0**-2), ("space", 2.0**4)])
def test_scaling_symmetry_is_exact(name, axis, c):
    """After exact rescaling, every record column and the whole summary of
    the scaled run equal those of the run it was scaled from."""
    collapses = 0
    for seed in (1, 2, 3):
        config = replace(SYMMETRY_CONFIGS[name], seed=seed)
        summary, records = run(config)
        if axis == "time":
            scaled_summary, scaled = run(scaled_in_time(config, c))
            expected = replace(summary, duration=scaled_summary.duration)
            time_scale, width_scale = 1.0 / c, 1.0
        else:
            scaled_summary, scaled = run(scaled_in_space(config, c))
            expected = replace(summary, **{
                field: (tuple(c * s for s in value) if isinstance(value, tuple) else c * value)
                for field, value in ((f, getattr(summary, f)) for f in WIDTH_FIELDS)
            })
            time_scale, width_scale = 1.0, c
        assert scaled_summary == expected
        columns, scaled_columns = records.columns(), scaled.columns()
        assert np.array_equal(scaled_columns[0], time_scale * columns[0])
        for axis_widths, scaled_widths in zip(columns[1:4], scaled_columns[1:4]):
            assert np.array_equal(scaled_widths, width_scale * axis_widths)
        for column, scaled_column in zip(columns[4:], scaled_columns[4:]):
            assert np.array_equal(scaled_column, column)
        collapses += summary.n_collapses
    assert collapses > 0


def _log_uniform(lo: float, hi: float):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda x: 10.0**x)


@st.composite
def fuzz_configs(draw):
    """A valid config of at most 3,000 expected collisions, with widths near
    the environment's and, mostly, phase constants of 0, so that a fair
    share of phase passes also pass the amplitude clause and fire; and, in
    about 30% of them, a ``max_collisions`` budget."""
    rate = draw(_log_uniform(1e4, 1e8))
    expected = draw(st.floats(5.0, 3000.0))
    duration = expected / rate
    env_width = draw(_log_uniform(1e-12, 1e-6))
    near = st.floats(0.3, 3.0)
    env_sigma = tuple(env_width * draw(near) for _ in range(3))
    if draw(st.booleans()):
        initial_sigma = env_sigma
    else:
        initial_sigma = tuple(w * draw(near) for w in env_sigma)
    # The internal radius lies near the widths, so runs cross between regimes.
    internal_radius = env_width * draw(st.floats(0.1, 3.0))
    phase = st.one_of(st.just(0.0), st.floats(0.0, 6.28))
    config = ScenarioConfig(
        object=ObjectSpec(
            mass=draw(_log_uniform(1e-27, 1e-3)),
            internal_radius=internal_radius,
            cluster_alphas=tuple(draw(phase) for _ in range(draw(st.integers(1, 6)))),
        ),
        initial_sigma=initial_sigma,
        initial_alpha=draw(st.one_of(st.just(0.0), phase, st.just("random"))),
        environment=EnvironmentSpec(
            collision_rate=rate,
            env_sigma=env_sigma,
            env_sigma_jitter=draw(st.sampled_from([0.0, 1.0])) * draw(st.floats(0.0, 0.9)),
            impact_spread=draw(st.sampled_from([0.0, env_width])) * draw(st.floats(0.0, 2.0)),
        ),
        duration=duration,
        seed=draw(st.integers(0, 2**32)),
        sample_interval=duration * draw(_log_uniform(1e-3, 2.0)),
        cluster_eta=draw(st.sampled_from([1.0, draw(st.floats(0.05, 1.0))])),
        redraw_alpha_after_collapse=draw(st.booleans()),
    )
    budget = None
    if draw(st.integers(0, 9)) < 3:
        budget = draw(st.integers(0, int(1.2 * expected) + 1))
    return config, budget


def _outcome(run_fn):
    """What a run gives back: its results, or the message of its error."""
    try:
        return run_fn()
    except EngineError as exc:
        return str(exc)


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fuzz_configs())
def test_run_matches_step_loop_on_fuzzed_configs(case):
    """``run``, ``run(keep_records=False)`` and the loop over ``step``
    agree on every record, every summary and every error message."""
    config, budget = case
    expected = _outcome(lambda: reference_run(config, max_collisions=budget))
    assert _outcome(lambda: run(config, max_collisions=budget)) == expected
    if not isinstance(expected, str):
        expected = expected[0], []  # the summary, and no rows kept
    assert _outcome(lambda: run(config, keep_records=False, max_collisions=budget)) == expected
