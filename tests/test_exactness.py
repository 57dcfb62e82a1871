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

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from collapsim import EngineError, EnvironmentSpec, ObjectSpec, ScenarioConfig, preset, run
from test_engine import BLOCK_CONFIGS, UNDERFLOW_CONFIG, generic_document_config, reference_run

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


@st.composite
def failing_configs(draw, kind: str):
    """A config of a ``kind`` that mostly fails, and a budget or None:

    - ``overflow``: widths near 1e-15 m and a mass so small that they
      overflow after about ``n`` collisions, two to ten thousand, so inside
      a window and, in some, after a firing, whose narrower waist spreads
      faster;
    - ``underflow``: the widths of ``UNDERFLOW_CONFIG``, whose first firing
      contracts them to 0;
    - ``grid_row``: an ``overflow`` object with grid rows ten times denser
      than collisions, so that a grid row between two collisions overflows
      first.
    """
    near = st.floats(0.5, 2.0)
    rate = draw(_log_uniform(1e5, 1e7))
    if kind == "underflow":
        width, env_width, mass = 1e-160, 1e-170, UNDERFLOW_CONFIG.object.mass
        # A cluster constant of 0 passes the amplitude clause of widths whose
        # overlap underflows to 0.
        alphas = (0.0,) * draw(st.integers(1, 3)) + (draw(st.floats(0.0, 6.28)),)
        internal_radius = UNDERFLOW_CONFIG.object.internal_radius
        n = draw(st.floats(1500.0, 6000.0))
    else:
        # Widths of 1e-15 m overflow once hbar dt / (2 m sigma^2) passes
        # about 1.3e154, at dt = 2.5e158 m.
        width = env_width = 1e-15
        n = draw(_log_uniform(2e3, 1e4) if kind == "overflow" else _log_uniform(30.0, 300.0))
        mass = n / (2.5e158 * rate)
        alphas = (0.0,)
        internal_radius = 1e-15 * draw(st.sampled_from([0.1, 2.0]))
    duration = 1.5 * n / rate
    interval = 0.1 / rate if kind == "grid_row" else duration
    config = ScenarioConfig(
        object=ObjectSpec(mass=mass, internal_radius=internal_radius, cluster_alphas=alphas),
        initial_sigma=tuple(width * draw(near) for _ in range(3)),
        initial_alpha=draw(st.sampled_from([0.0, "random"])),
        environment=EnvironmentSpec(
            collision_rate=rate,
            env_sigma=tuple(env_width * draw(near) for _ in range(3)),
            env_sigma_jitter=draw(st.sampled_from([0.0, 0.5])),
        ),
        duration=duration,
        seed=draw(st.integers(0, 2**32)),
        sample_interval=interval * draw(st.floats(0.2, 1.0)),
        cluster_eta=draw(st.sampled_from([1.0, 0.5])),
        redraw_alpha_after_collapse=draw(st.booleans()),
    )
    budget = None
    if draw(st.integers(0, 9)) < 2:
        budget = draw(st.integers(0, int(rate * duration)))
    return config, budget


@pytest.mark.parametrize("kind", ["overflow", "underflow", "grid_row"])
def test_run_matches_step_loop_on_fuzzed_failures(kind):
    """On configs that mostly fail, ``run``, ``run(keep_records=False)``
    and the loop over ``step`` raise the same message.  Each kind raises
    in most examples: widths that overflow inside a window, after a firing
    in some; a contraction that underflows; a grid row that overflows
    before the next collision."""
    raised = Counter()

    @settings(max_examples=15, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(failing_configs(kind))
    def check(case):
        config, budget = case
        expected = _outcome(lambda: reference_run(config, max_collisions=budget))
        assert _outcome(lambda: run(config, max_collisions=budget)) == expected
        quiet = expected if isinstance(expected, str) else (expected[0], [])
        assert _outcome(lambda: run(config, keep_records=False, max_collisions=budget)) == quiet
        if isinstance(expected, str):
            t = float(expected.split("t=")[1].split(" ")[0]) / config.sample_interval
            raised["raised"] += 1
            raised["after a firing"] += "collapses=0)" not in expected
            raised["at a grid time"] += math.isclose(t, round(t))

    check()
    assert raised["raised"] >= 8, raised
    if kind == "overflow":
        assert raised["after a firing"] >= 2, raised
    if kind == "grid_row":
        assert raised["at a grid time"] >= 3, raised
