import math

import numpy as np
import pytest
from scipy import stats

from collapsim import (
    CollisionEvent,
    EnvironmentSpec,
    RngState,
    draw_phase,
    next_collision,
)
from collapsim.environment import draw_collision_block
from conftest import TWO_PI

SPEC = EnvironmentSpec(collision_rate=1e3, env_sigma=(1e-9, 1e-9, 1e-9))


def collect_events(seed: int, spec: EnvironmentSpec, n: int) -> list[CollisionEvent]:
    rng = RngState(seed)
    events = []
    t = 0.0
    for _ in range(n):
        event = next_collision(rng, spec, t)
        events.append(event)
        t = event.time
    return events


class TestEnvironmentSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(collision_rate=-1.0, env_sigma=1e-9),
            dict(collision_rate=1.0, env_sigma=0.0),
            dict(collision_rate=1.0, env_sigma=1e-9, env_sigma_jitter=1.0),
            dict(collision_rate=1.0, env_sigma=1e-9, env_sigma_jitter=-0.1),
            dict(collision_rate=1.0, env_sigma=1e-9, impact_spread=-1e-9),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EnvironmentSpec(**kwargs)


class TestRngState:
    def test_positional_reconstruction(self):
        rng = RngState(2024)
        rng.words(17)
        resumed = RngState(2024, 17)
        assert resumed == rng
        assert resumed.uniform() == rng.uniform()

    def test_block_equals_sequential(self):
        a = RngState(5)
        block = TWO_PI * a.words(1000)
        b = RngState(5)
        singles = [draw_phase(b) for _ in range(1000)]
        assert np.array_equal(block, np.array(singles))
        assert a.position == b.position == 1000

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024, 2**40 + 3])
    @pytest.mark.parametrize("p, q", [(100, 0), (100, 37), (100, 100), (5, 1000), (0, 1)])
    def test_seek_equals_fresh_stream(self, seed, p, q):
        rng = RngState(seed, p)
        rng.words(3)  # the stream need not stand at p when it seeks
        rng.seek(q)
        fresh = RngState(seed, q)
        assert rng == fresh
        assert np.array_equal(rng.words(25), fresh.words(25))
        assert rng.uniform() == fresh.uniform()
        assert rng == fresh

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            RngState(-1)
        with pytest.raises(ValueError):
            RngState(1, -2)

    def test_seek_refuses_negative_position(self):
        rng = RngState(1)
        with pytest.raises(ValueError, match="non-negative"):
            rng.seek(-5)
        assert rng == RngState(1)
        assert rng.words(1)[0] == RngState(1).words(1)[0]


class TestDrawPhase:
    def test_range(self):
        rng = RngState(0)
        for _ in range(1000):
            alpha = draw_phase(rng)
            assert 0.0 <= alpha < TWO_PI

    def test_fixed_seed_reproduces_sequence(self):
        _, seq1, _ = draw_collision_block(RngState(77), SPEC, 500)
        _, seq2, _ = draw_collision_block(RngState(77), SPEC, 500)
        assert np.array_equal(seq1, seq2)

    def test_uniform_moments(self):
        phases = TWO_PI * RngState(11).words(1_000_000)
        assert abs(phases.mean() - math.pi) < 0.01
        assert abs(phases.var() / (math.pi**2 / 3.0) - 1.0) < 0.01

    def test_chi_squared_uniformity(self):
        phases = TWO_PI * RngState(13).words(1_000_000)
        counts, _ = np.histogram(phases, bins=100, range=(0.0, TWO_PI))
        result = stats.chisquare(counts)
        assert result.pvalue > 1e-3


class TestNextCollision:
    def test_zero_rate_is_no_event(self):
        rng = RngState(1)
        spec = EnvironmentSpec(collision_rate=0.0, env_sigma=1e-9)
        assert next_collision(rng, spec, 0.0) is None
        assert rng.position == 0

    def test_seed_42_reproducible(self):
        e1 = next_collision(RngState(42), SPEC, 0.0)
        e2 = next_collision(RngState(42), SPEC, 0.0)
        assert e1 == e2
        assert e1.time > 0.0
        assert 0.0 <= e1.alpha < TWO_PI

    def test_fixed_word_consumption(self):
        rng = RngState(3)
        next_collision(rng, SPEC, 0.0)
        assert rng.position == 12

    def test_times_strictly_increasing(self):
        events = collect_events(9, SPEC, 2000)
        times = [e.time for e in events]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_mean_interarrival(self):
        # 1e6 draws; the sum of gaps is the final clock reading
        n = 1_000_000
        events = collect_events(21, SPEC, n)
        mean = events[-1].time / n
        assert abs(mean * SPEC.collision_rate - 1.0) < 5e-3

    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_interarrival_ks_against_exponential(self, seed):
        events = collect_events(seed, SPEC, 100_000)
        times = np.array([e.time for e in events])
        gaps = np.diff(np.concatenate(([0.0], times)))
        result = stats.kstest(gaps, "expon", args=(0.0, 1.0 / SPEC.collision_rate))
        assert result.pvalue > 1e-3

    def test_bit_exact_stream_replay(self):
        first = collect_events(1234, SPEC, 1000)
        second = collect_events(1234, SPEC, 1000)
        assert first == second

    def test_jitter_bounds_widths(self):
        spec = EnvironmentSpec(
            collision_rate=1e3, env_sigma=(1e-9, 2e-9, 3e-9), env_sigma_jitter=0.25
        )
        for event in collect_events(4, spec, 500):
            for s, template in zip(event.sigma, spec.env_sigma):
                assert (1 - 0.25) * template <= s <= (1 + 0.25) * template

    def test_zero_jitter_uses_template_exactly(self):
        for event in collect_events(4, SPEC, 50):
            assert event.sigma == SPEC.env_sigma

    def test_impact_spread_offsets_center(self):
        spec = EnvironmentSpec(collision_rate=1e3, env_sigma=1e-9, impact_spread=1e-8)
        events = collect_events(8, spec, 2000)
        offsets = np.array([e.offset for e in events])
        assert np.all(offsets.std(axis=0) > 0)
        # per-axis sample std should be near the configured spread
        assert np.allclose(offsets.std(axis=0), 1e-8, rtol=0.1)

    def test_zero_spread_centers_on_object(self):
        event = next_collision(RngState(15), SPEC, 0.0)
        assert event.offset == (0.0, 0.0, 0.0)


class TestDrawCollisionBlock:
    @pytest.mark.parametrize("spread", [False, True])
    def test_equals_sequential_draws(self, spread):
        # the 12-word layout holds whether or not the offset and jitter words are read
        extra = dict(impact_spread=1e-9, env_sigma_jitter=0.25) if spread else {}
        spec = EnvironmentSpec(collision_rate=1e6, env_sigma=1e-10, **extra)
        block = RngState(9, 5)
        gaps, alphas, picks = draw_collision_block(block, spec, 500)
        rng = RngState(9, 5)
        t = 0.0
        for i in range(500):
            event = next_collision(rng, spec, t)
            assert t + gaps[i] == event.time
            assert event.alpha == alphas[i]
            assert event.pick == picks[i]
            t = event.time
        assert len(picks) == 500
        assert block == rng
        assert block.position == 5 + 500 * 12
