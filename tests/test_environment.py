import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Generator, Philox, SeedSequence
from scipy import stats

from collapsim import (
    CollisionEvent,
    EnvironmentSpec,
    RngState,
    draw_phase,
    next_collision,
)
from collapsim.environment import (
    COLLISION_WORDS, PACKET_WORDS, draw_collision_block, packet_from_words,
)
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
        assert resumed.words(1)[0] == rng.words(1)[0]

    def test_block_equals_sequential(self):
        a = RngState(5)
        block = a.words(1000)
        b = RngState(5)
        singles = [b.words(1)[0] for _ in range(1000)]
        assert np.array_equal(block, np.array(singles))
        assert a.position == b.position == 1000

    @pytest.mark.parametrize("seed", [0, 1, 2024])
    @pytest.mark.parametrize("n", [0, 1, 13, 20_688])
    def test_words_drawn_into_an_array(self, seed, n):
        """``words(n, out=a)`` fills ``a`` with the words ``words(n)``
        returns and advances the position as far."""
        a, b = RngState(seed, 5), RngState(seed, 5)
        out = np.full(n + 2, -1.0)
        assert a.words(n, out=out[1 : n + 1]).base is out
        assert np.array_equal(out[1 : n + 1], b.words(n)) and out[0] == out[-1] == -1.0
        assert a.position == b.position == 5 + n
        assert np.array_equal(a.words(7, out=np.empty(7)), b.words(7)) and a == b

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024, 2**40 + 3])
    @pytest.mark.parametrize("p, q", [(100, 0), (100, 37), (100, 100), (5, 1000), (0, 1)])
    def test_seek_equals_fresh_stream(self, seed, p, q):
        """``RngState(seed, q)``, which seeks word q with ``PCG64.advance``,
        draws words q to q + 24 of ``RngState(seed)``, whatever another
        stream of the seed, built at p, drew before."""
        other = RngState(seed, p)
        other.words(3)
        rng, fresh = RngState(seed, q), RngState(seed)
        assert np.array_equal(rng.words(25), fresh.words(q + 25)[q:])
        assert rng == fresh == RngState(seed, q + 25) and other == RngState(seed, p + 3)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            RngState(-1)
        with pytest.raises(ValueError):
            RngState(1, -2)

    @pytest.mark.parametrize(
        "make",
        [lambda: RngState(1.9), lambda: RngState(1, 2.7), lambda: RngState(True),
         lambda: RngState(1, False)],
        ids=["seed", "position", "bool_seed", "bool_position"],
    )
    def test_non_integer_refused(self, make):
        # Refused, not truncated to RngState(1) or RngState(1, 2), nor read
        # as RngState(1) or RngState(1, 0).
        with pytest.raises(ValueError, match="non-negative integer"):
            make()

    def test_numpy_integers_accepted(self):
        rng = RngState(np.int64(7), np.uint32(5))
        assert rng == RngState(7, 5) and type(rng.seed) is int and type(rng.position) is int
        assert rng.words(1)[0] == RngState(7, 5).words(1)[0]

    @pytest.mark.parametrize("seed", [0, 5, 2**70 + 1])
    def test_keyed_words_are_philox_blocks(self, seed):
        """``keyed(c, n)`` reads numpy's Philox, keyed by the seed's
        ``SeedSequence`` child 1, from counter c, wherever it read before,
        and does not move the stream."""
        rng = RngState(seed, 6)
        for counter, n in [(0, 9), (3 * 10**12, 9), (2**64 + 5, 1), (0, 4), (7, 12)]:
            philox = Philox(SeedSequence(seed, spawn_key=(1,)), counter=counter)
            assert rng.keyed(counter, n) == Generator(philox).random(n).tolist()
        assert rng == RngState(seed, 6)

    def test_interleaved_seeds_draw_as_fresh_processes(self):
        """The keyed generator is built once per seed and shared: draws of
        interleaved seeds and positions equal those of a fresh process per
        seed."""
        queries = [(seed, position, counter, n) for counter, n in [(0, 9), (2**64 + 3, 1), (12, 4)]
                   for position in (0, 30) for seed in (3, 2**40, 3 + 1)]
        here = {q: (RngState(*q[:2]).keyed(*q[2:]), RngState(*q[:2]).words(3).tolist())
                for q in queries}
        src = Path(__file__).resolve().parents[1] / "src"
        for seed in {q[0] for q in queries}:
            mine = [q for q in queries if q[0] == seed]
            code = ("import sys; from collapsim import RngState\n"
                    f"print([(RngState(s, p).keyed(c, n), RngState(s, p).words(3).tolist())"
                    f" for s, p, c, n in {mine!r}])")
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
            assert proc.returncode == 0, proc.stderr
            fresh = [tuple(pair) for pair in ast.literal_eval(proc.stdout)]
            assert [here[q] for q in mine] == fresh


class TestDrawPhase:
    def test_range(self):
        """A phase is a keyed word: drawing it does not move the stream."""
        rng = RngState(0, 12)
        for n in range(1000):
            alpha = draw_phase(rng, n)
            assert 0.0 <= alpha < TWO_PI and alpha == draw_phase(RngState(0), n)
        assert rng == RngState(0, 12)

    def test_fixed_seed_reproduces_sequence(self):
        _, seq1, _ = draw_collision_block(RngState(77).words(500 * 3), SPEC)
        _, seq2, _ = draw_collision_block(RngState(77).words(500 * 3), SPEC)
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
        assert rng.position == 3

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
        # the 3-word layout holds whether or not the keyed packet words are read
        extra = dict(impact_spread=1e-9, env_sigma_jitter=0.25) if spread else {}
        spec = EnvironmentSpec(collision_rate=1e6, env_sigma=1e-10, **extra)
        block = RngState(9, 15)
        gaps, alphas, picks = draw_collision_block(block.words(500 * 3), spec)
        rng = RngState(9, 15)
        t = 0.0
        for i in range(500):
            event = next_collision(rng, spec, t)
            assert t + gaps[i] == event.time
            assert event.alpha == alphas[i]
            assert event.pick == picks[i]
            t = event.time
        assert len(picks) == 500
        assert block == rng
        assert block.position == 15 + 500 * 3


class TestKeyedWords:
    """The keyed words of collisions 0-19,999 at seed 9017, both fixed
    before the test first ran: each of the 9 word positions is uniform and
    uncorrelated with the same collision's gap word, and the Box-Muller
    offsets have the configured variance."""

    SEED, N = 9017, 20_000

    @pytest.fixture(scope="class")
    def words(self):
        rng = RngState(self.SEED)
        keyed = np.array([rng.keyed(3 * i, PACKET_WORDS) for i in range(self.N)])
        gaps = RngState(self.SEED).words(COLLISION_WORDS * self.N)[::COLLISION_WORDS]
        return keyed, gaps

    def test_each_position_is_uniform(self, words):
        keyed, _ = words
        for k in range(PACKET_WORDS):
            assert stats.kstest(keyed[:, k], "uniform").pvalue > 1e-3, k

    def test_uncorrelated_with_the_gap_word(self, words):
        keyed, gaps = words
        for k in range(PACKET_WORDS):
            assert abs(np.corrcoef(keyed[:, k], gaps)[0, 1]) <= 4.0 / math.sqrt(self.N), k

    def test_offset_variance(self):
        spread = 3e-9
        spec = EnvironmentSpec(collision_rate=1e3, env_sigma=1e-9, impact_spread=spread)
        rng = RngState(self.SEED)
        offsets = np.array([packet_from_words(rng, i, spec)[0] for i in range(self.N)])
        se = spread**2 * math.sqrt(2.0 / (self.N - 1))
        for axis in range(3):
            assert abs(offsets[:, axis].var(ddof=1) - spread**2) <= 4.0 * se, axis


def assert_gaps_match_libm(u: np.ndarray) -> None:
    """The gaps of collisions whose first words are ``u`` equal
    ``-math.log1p(-u) / rate`` bit for bit."""
    words = np.full((len(u), COLLISION_WORDS), 0.5)
    words[:, 0] = u
    gaps, _, _ = draw_collision_block(words.ravel(), SPEC)
    want = np.array([-math.log1p(-x) / SPEC.collision_rate for x in u.tolist()])
    bad = np.flatnonzero(gaps.view(np.uint64) != want.view(np.uint64))
    assert not len(bad), (
        f"{len(bad)} of {len(u)} gaps differ from math.log1p, the first at u={float(u[bad[0]])!r}: "
        f"numpy {np.__version__} changed its choice of log1p loop for a strided operand"
    )


class TestGapsTakeLibmLog1p:
    """``draw_collision_block`` takes the gap logarithm in numpy's scalar
    loop, which calls the C library's ``log1p`` as ``math.log1p`` does; on a
    contiguous operand numpy's SIMD loop differs in a few percent of words."""

    def test_a_million_words(self):
        for seed in (1, 2, 3, 4):
            u = RngState(seed).words(250_000)
            for lo in range(0, len(u), 125_000):
                assert_gaps_match_libm(u[lo : lo + 125_000])

    def test_edge_words(self):
        branches = (2.0**-54, 2.0**-29, 1.0 - math.sqrt(0.5), math.sqrt(2.0) - 1.0, 0.5)
        near = [np.nextafter(x, (0.0, 1.0)) for x in branches]
        u = np.concatenate(
            ([0.0, 5e-324, 2.0**-60, 2.0**-53, 1.0 - 2.0**-53], branches, *near)
        )
        assert_gaps_match_libm(u)

    def test_every_block_length(self):
        # Words where numpy's SIMD log1p differs from math.log1p, so a length
        # that took the SIMD loop would show at once.
        u = RngState(5).words(100_000)
        libm = np.array([math.log1p(-x) for x in u.tolist()])
        telling = u[np.log1p(-u) != libm]
        pool = telling if len(telling) >= 64 else u
        for n in range(1, 65):
            assert_gaps_match_libm(pool[:n])
