import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from collapsim import (
    CollisionEvent,
    EngineError,
    EnvironmentSpec,
    LastEvent,
    ObjectSpec,
    Records,
    Regime,
    RngState,
    RunSummary,
    ScenarioConfig,
    TimeSeriesRecord,
    next_collision,
    parse_config,
    preset,
    run,
    run_ensemble,
    step,
    to_document,
)
import collapsim.engine as engine
import collapsim.environment as environment
from collapsim.contraction import damped_sigma
from collapsim.engine import _widths_at, aggregate_summaries, initial_state, regime_for
from collapsim.constants import HBAR, PHASE_ACCEPTANCE_PROBABILITY
from collapsim.packets import GaussianPacket, spread_widths
import reference

TWO_PI = 2.0 * math.pi

# The first contraction multiplies two widths near 1e-165 and underflows to 0.
UNDERFLOW_CONFIG = ScenarioConfig(
    object=ObjectSpec(mass=1e300, internal_radius=1e-100, cluster_alphas=(0.0,)),
    initial_sigma=1e-160,
    initial_alpha=0.0,
    environment=EnvironmentSpec(collision_rate=1e6, env_sigma=1e-170),
    duration=0.01,
    seed=1,
    sample_interval=1e-3,
    cluster_eta=1.0,
)


def micro_config(**overrides) -> ScenarioConfig:
    """Light object, broad initial packet, narrow environment."""
    base = dict(
        object=ObjectSpec(mass=1.7e-23, internal_radius=5e-9, cluster_alphas=(1.0,)),
        initial_sigma=1e-6,
        initial_alpha=0.0,
        environment=EnvironmentSpec(collision_rate=1e6, env_sigma=1e-10),
        duration=1.0,
        seed=3,
        sample_interval=0.1,
        cluster_eta=0.5,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestStep:
    def test_non_firing_collision_only_spreads(self):
        cfg = preset("tpp")
        state = initial_state(cfg)
        new_state, record = step(state, cfg)
        assert record.last_event is LastEvent.COLLISION_NO_COLLAPSE
        assert new_state.n_collisions == 1
        assert new_state.n_collapses == 0
        assert all(s > s0 for s, s0 in zip(record.sigma, cfg.initial_sigma))

    def test_firing_collision_localizes_to_environment_width(self):
        cfg = micro_config()
        state = initial_state(cfg)
        for _ in range(100_000):
            state, record = step(state, cfg)
            if record.last_event is LastEvent.COLLAPSE:
                break
        assert record.last_event is LastEvent.COLLAPSE
        assert state.sigma[0] == pytest.approx(1e-10, rel=1e-6)

    def test_firing_never_widens(self):
        cfg = micro_config()
        state = initial_state(cfg)
        for _ in range(100_000):
            pre_state = state
            state, record = step(state, cfg)
            if record.last_event is LastEvent.COLLAPSE:
                pre_sigma = reference.spread(
                    pre_state.sigma, cfg.object.mass, record.t - pre_state.t_ref
                )
                assert all(s <= p for s, p in zip(record.sigma, pre_sigma))
                return
        pytest.fail("no collapse observed")

    def test_state_is_a_value(self):
        cfg = preset("tpp")
        s0 = initial_state(cfg)
        before = replace(s0)
        first = step(s0, cfg)
        assert step(s0, cfg) == first
        assert s0 == before
        assert first[0].position == s0.position + 3

    def test_zero_rate_rejected(self):
        cfg = micro_config(environment=EnvironmentSpec(collision_rate=0.0, env_sigma=1e-10))
        with pytest.raises(ValueError):
            step(initial_state(cfg), cfg)

    def test_counters_monotone_and_consistent(self):
        cfg = micro_config(seed=11)
        state = initial_state(cfg)
        for _ in range(2000):
            state, _ = step(state, cfg)
        assert state.n_collapses <= state.n_collisions == 2000


class TestWordLayout:
    """A collision takes 3 words of the stream in either regime, and a
    firing takes no more, also when it redraws the phase: a state's position
    is three words per collision."""

    @pytest.mark.parametrize(
        "initial_sigma, regime", [(0.05, Regime.CM_PHASE), (5e-11, Regime.CLUSTER_PHASE)]
    )
    def test_collision_takes_3_words_in_either_regime(self, initial_sigma, regime):
        cfg = replace(preset("sugar_grain"), initial_sigma=initial_sigma)
        state = initial_state(cfg)
        new_state, record = step(state, cfg)
        assert record.last_event is LastEvent.COLLISION_NO_COLLAPSE
        assert record.regime is regime
        assert new_state.position == state.position + 3

    @pytest.mark.parametrize("redraw", [False, True])
    def test_firing_takes_no_more_words(self, redraw):
        cfg = replace(generic_document_config(1.0), redraw_alpha_after_collapse=redraw)
        state = initial_state(cfg)
        for _ in range(100_000):
            new_state, record = step(state, cfg)
            fired = record.last_event is LastEvent.COLLAPSE
            assert new_state.position == state.position + 3 == 3 * new_state.n_collisions
            state = new_state
            if fired:
                break
        else:
            pytest.fail("no collapse observed")

    @pytest.mark.parametrize("name", ["tpp", "generic"])
    def test_windows_end_only_at_redraws_and_the_duration(self, monkeypatch, name):
        """No firing ends its window, not even one that redraws the phase:
        each window sums its recovery ratios once."""
        windows = []
        add_recovery = engine._Sums.add_recovery
        monkeypatch.setattr(
            engine._Sums, "add_recovery",
            lambda sums, ratios: windows.append(1) or add_recovery(sums, ratios),
        )
        config = generic_document_config(0.05) if name == "generic" else preset("tpp")
        summary, _ = run(replace(config, seed=1, duration=0.05), keep_records=False)
        assert summary.n_collapses > 0
        assert len(windows) <= summary.n_collisions // engine._BLOCK_SIZE + 1


class TestRun:
    def test_duration_before_first_collision(self):
        cfg = micro_config(
            environment=EnvironmentSpec(collision_rate=1e-6, env_sigma=1e-10),
            duration=1.0,
            sample_interval=0.25,
        )
        summary, records = run(cfg)
        assert summary.n_collisions == 0
        assert summary.n_collapses == 0
        assert [r.t for r in records] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert all(r.last_event is LastEvent.NONE for r in records)

    def test_zero_rate_pure_spreading(self):
        cfg = micro_config(
            environment=EnvironmentSpec(collision_rate=0.0, env_sigma=1e-10),
            duration=0.01,
            sample_interval=2e-3,
        )
        summary, records = run(cfg)
        assert summary.n_collisions == 0
        assert len(records) == 6
        sigmas = [r.sigma[0] for r in records]
        assert all(b >= a for a, b in zip(sigmas, sigmas[1:]))

    def test_records_time_ordered_with_events_and_samples(self):
        cfg = micro_config(duration=2e-3, sample_interval=2e-4, seed=6)
        summary, records = run(cfg)
        times = [r.t for r in records]
        assert times == sorted(times)
        assert records[0].t == 0.0
        assert records[-1].t == cfg.duration
        kinds = {r.last_event for r in records}
        assert LastEvent.COLLISION_NO_COLLAPSE in kinds
        assert sum(1 for r in records if r.last_event is not LastEvent.NONE) == summary.n_collisions

    def test_widths_follow_free_law_between_events(self):
        cfg = micro_config(duration=1e-3, sample_interval=1e-4, seed=6)
        _, records = run(cfg)
        # replay each sampled record from the previous collapse analytically
        last_collapse_t = 0.0
        sigma_at_collapse = initial_state(cfg).sigma
        mass = cfg.object.mass
        for r in records:
            if r.last_event is LastEvent.COLLAPSE:
                last_collapse_t = r.t
                sigma_at_collapse = r.sigma
                continue
            dt = r.t - last_collapse_t
            k = HBAR * dt / (2.0 * mass)
            for got, s0 in zip(r.sigma, sigma_at_collapse):
                expected = s0 * math.sqrt(1.0 + (k / (s0 * s0)) ** 2)
                assert got == pytest.approx(expected, rel=1e-12)

    def test_regime_flag_consistent_at_every_record(self):
        # 2e4 collisions: a firing, which takes the object into the cluster
        # regime, comes within them on every seed 0-63.
        cfg = micro_config(duration=2e-2, sample_interval=1e-3, seed=8)
        _, records = run(cfg)
        r_int = cfg.object.internal_radius
        seen = set()
        for r in records:
            assert r.regime == regime_for(r.sigma, r_int)
            seen.add(r.regime)
        assert seen == {Regime.CM_PHASE, Regime.CLUSTER_PHASE}

    def test_collapse_widths_non_increasing_for_heavy_grain(self):
        # 2e4 collisions give about 17 firings, so at least 2 on every seed
        # 0-63.
        cfg = replace(preset("sugar_grain"), duration=2e-2)
        _, records = run(cfg)
        collapse_sigmas = [min(r.sigma) for r in records if r.last_event is LastEvent.COLLAPSE]
        assert len(collapse_sigmas) >= 2
        assert all(b <= a for a, b in zip(collapse_sigmas, collapse_sigmas[1:]))

    def test_low_rate_micro_respreads_before_next_collision(self):
        cfg = replace(
            preset("tpp"),
            environment=replace(preset("tpp").environment, collision_rate=1e4),
            duration=2.0,
            seed=5,
        )
        summary, _ = run(cfg, keep_records=False)
        assert summary.n_collapses >= 5
        ratio = summary.mean_sigma_before_collapse / summary.mean_sigma_after_collapse
        assert ratio >= 2.0

    def test_deterministic_records(self):
        cfg = micro_config(duration=1e-3, seed=12)
        summary1, records1 = run(cfg)
        summary2, records2 = run(cfg)
        assert summary1 == summary2
        assert records1 == records2

    def test_max_collisions_budget(self):
        cfg = micro_config(duration=10.0)
        summary, _ = run(cfg, keep_records=False, max_collisions=500)
        assert summary.n_collisions == 500
        assert summary.budget_exhausted

    @pytest.mark.parametrize("budget", [-5, 2.5, True, "10"])
    def test_max_collisions_must_be_a_non_negative_integer(self, budget):
        cfg = replace(preset("tpp"), duration=1e-3)
        with pytest.raises(ValueError, match="max_collisions"):
            run(cfg, max_collisions=budget)
        with pytest.raises(ValueError, match="max_collisions"):
            run_ensemble(cfg, 2, max_collisions=budget)

    def test_max_collisions_takes_any_integer_type(self):
        cfg = replace(preset("tpp"), duration=1e-3)
        summary, _ = run(cfg, keep_records=False, max_collisions=np.int64(7))
        assert summary.n_collisions == 7 and summary.budget_exhausted
        assert run(cfg, keep_records=False, max_collisions=0)[0].n_collisions == 0

    def test_numerical_blowup_reported(self):
        cfg = ScenarioConfig(
            object=ObjectSpec(mass=1e-308, internal_radius=1e-16, cluster_alphas=(0.0,)),
            initial_sigma=1e-15,
            initial_alpha=0.0,
            environment=EnvironmentSpec(collision_rate=1e6, env_sigma=1e-15),
            duration=1.0,
            seed=1,
            sample_interval=0.1,
            cluster_eta=1.0,
        )
        with pytest.raises(EngineError, match="non-finite state"):
            run(cfg)

    def test_contraction_underflow_reported(self):
        state = initial_state(UNDERFLOW_CONFIG)
        with pytest.raises(EngineError, match=r"collapses=1\): widths \(0\.0, 0\.0, 0\.0\)"):
            for _ in range(100_000):
                state, _ = step(state, UNDERFLOW_CONFIG)
        with pytest.raises(EngineError, match="non-finite state at t="):
            run(UNDERFLOW_CONFIG)

    def test_contraction_underflow_reported_as_by_step_loop(self):
        """The decide pass raises a firing's contraction that is not finite
        with the message of the loop over ``step``, with records or without."""
        for seed in range(8):
            cfg = replace(UNDERFLOW_CONFIG, seed=seed)
            with pytest.raises(EngineError) as expected:
                reference_run(cfg)
            assert "collapses=1): widths (0.0, 0.0, 0.0)" in str(expected.value)
            for keep_records in (True, False):
                with pytest.raises(EngineError) as got:
                    run(cfg, keep_records=keep_records)
                assert str(got.value) == str(expected.value)

    def test_random_initial_alpha_drawn_from_seed(self):
        cfg = micro_config(initial_alpha="random", seed=19, duration=1e-5)
        s1, _ = run(cfg)
        s2, _ = run(cfg)
        assert s1 == s2
        state = initial_state(cfg)
        assert 0.0 <= state.alpha < TWO_PI
        assert state.position == 0


class TestClusterRegime:
    def test_damping_law_example(self):
        sigma = damped_sigma((4e-10, 4e-10, 4e-10), (1e-10, 1e-10, 1e-10), 0.5)
        assert sigma[0] == pytest.approx(2e-10, rel=1e-12)

    def test_eta_one_reproduces_undamped_contraction(self):
        assert damped_sigma((4e-10,) * 3, (1e-10,) * 3, 1.0)[0] == pytest.approx(1e-10, rel=1e-12)

    @pytest.mark.parametrize("eta", [1e-6, 0.3, 0.5, 1.0])
    def test_damped_width_never_grows(self, eta):
        gen = np.random.default_rng(17)
        for _ in range(200):
            s_old = 10.0 ** gen.uniform(-11, -6)
            s_p = s_old * gen.uniform(0.01, 1.0)
            new = damped_sigma((s_old,) * 3, (s_p,) * 3, eta)[0]
            assert new <= s_old
            if s_p == s_old:
                assert new == s_old

    def test_cluster_regime_damps_contraction(self):
        # start inside the object so the first firing collision is damped
        cfg = micro_config(
            object=ObjectSpec(mass=1e3, internal_radius=1.0, cluster_alphas=(0.0,)),
            initial_sigma=1e-9,
            environment=EnvironmentSpec(collision_rate=1e6, env_sigma=1e-9),
            cluster_eta=0.5,
            seed=23,
        )
        state = initial_state(cfg)
        assert min(state.sigma) < cfg.object.internal_radius  # cluster regime
        for _ in range(100_000):
            state, record = step(state, cfg)
            if record.last_event is LastEvent.COLLAPSE:
                break
        else:
            pytest.fail("no collapse observed")
        # undamped would give 1e-9/sqrt(2); eta=0.5 gives the geometric mean
        expected = 1e-9 * (1.0 / math.sqrt(2.0)) ** 0.5
        assert state.sigma[0] == pytest.approx(expected, rel=1e-9)


class TestEnsemble:
    def test_single_replica_equals_run(self):
        cfg = replace(preset("tpp"), duration=2e-3)
        ensemble = run_ensemble(replace(cfg, seed=9), 1)
        single, _ = run(replace(cfg, seed=9), keep_records=False)
        assert ensemble.replicas == (single,)
        assert ensemble.total_collisions == single.n_collisions

    @pytest.mark.parametrize("name", ["sugar_grain", "generic"])
    def test_every_replica_equals_run(self, name):
        """The replicas share one set of window buffers: each still equals
        a lone run of its seed, which allocates its own."""
        config = generic_document_config(0.01) if name == "generic" else preset(name)
        config = replace(config, duration=0.01, seed=21)
        ensemble = run_ensemble(config, 4)
        singles = tuple(
            run(replace(config, seed=seed), keep_records=False)[0] for seed in range(21, 25)
        )
        assert ensemble.replicas == singles
        assert sum(single.n_collapses for single in singles) > 0

    def test_same_base_seed_bit_identical(self):
        cfg = replace(preset("tpp"), duration=1e-3)
        cfg = replace(cfg, seed=40)
        assert run_ensemble(cfg, 3) == run_ensemble(cfg, 3)

    def test_aggregation_order_independent(self):
        cfg = replace(preset("tpp"), duration=1e-3)
        ensemble = run_ensemble(replace(cfg, seed=60), 4)
        reversed_agg = aggregate_summaries(list(ensemble.replicas[::-1]), 60, [])
        assert reversed_agg == aggregate_summaries(list(ensemble.replicas), 60, [])

    def test_replica_failure_reported_without_aborting(self):
        # replica seeds share a config whose numerics blow up immediately
        cfg = ScenarioConfig(
            object=ObjectSpec(mass=1e-308, internal_radius=1e-16, cluster_alphas=(0.0,)),
            initial_sigma=1e-15,
            initial_alpha=0.0,
            environment=EnvironmentSpec(collision_rate=1e6, env_sigma=1e-15),
            duration=1.0,
            seed=1,
            sample_interval=0.1,
            cluster_eta=1.0,
        )
        ensemble = run_ensemble(replace(cfg, seed=5), 2)
        assert len(ensemble.failures) == 2
        assert {seed for seed, _ in ensemble.failures} == {5, 6}

    def test_contraction_underflow_listed_per_replica(self):
        ensemble = run_ensemble(UNDERFLOW_CONFIG, 2)
        assert [seed for seed, _ in ensemble.failures] == [1, 2]
        assert all("widths (0.0, 0.0, 0.0)" in message for _, message in ensemble.failures)
        assert ensemble.replicas == ()

    def test_replicas_required(self):
        with pytest.raises(ValueError):
            run_ensemble(preset("tpp"), 0)

    @pytest.mark.parametrize("n_replicas", [0, -1, True, False, 2.0, "2", None])
    def test_replicas_must_be_a_positive_integer(self, monkeypatch, n_replicas):
        """Refused by name before any replica runs."""
        ran = []
        monkeypatch.setattr(engine, "run", lambda *args, **kwargs: ran.append(args))
        with pytest.raises(ValueError, match=f"n_replicas .* got {n_replicas!r}"):
            run_ensemble(replace(preset("tpp"), duration=1e-3), n_replicas)
        assert ran == []

    def test_replicas_take_any_integer_type(self):
        cfg = replace(preset("tpp"), duration=1e-4)
        assert run_ensemble(cfg, np.int64(2)) == run_ensemble(cfg, 2)

    def test_firing_fraction_matches_phase_acceptance(self):
        # overlap pinned at ~1: frozen heavy object, environment width equal
        # to the object width, no offset or jitter, near-zero damping so the
        # contractions that do fire leave the width essentially unchanged
        gen = np.random.default_rng(777)
        cfg = ScenarioConfig(
            object=ObjectSpec(
                mass=1e3,
                internal_radius=1.0,
                cluster_alphas=tuple(TWO_PI * gen.random(257)),
            ),
            initial_sigma=1e-9,
            initial_alpha=0.0,
            environment=EnvironmentSpec(collision_rate=1e6, env_sigma=1e-9),
            duration=10.0,
            seed=10,
            sample_interval=1.0,
            cluster_eta=1e-9,
        )
        ensemble = run_ensemble(replace(cfg, seed=100), 4, max_collisions=250_000)
        assert ensemble.total_collisions == 1_000_000
        p = PHASE_ACCEPTANCE_PROBABILITY
        band = 4.0 * math.sqrt(p * (1.0 - p) / ensemble.total_collisions)
        assert abs(ensemble.firing_fraction - p) <= band


def rebuild_collision(cfg: ScenarioConfig, state):
    """Resolve the next collision of ``state`` with the test reference.

    Replays the draws from ``RngState(seed, position)`` and applies the laws
    of ``tests/reference.py``.  Returns whether the criterion fires, the
    widths after the collision, the object's phase constant after it, and the
    stream position after it.
    """
    rng = RngState(cfg.seed, state.position)
    event = next_collision(rng, cfg.environment, state.t)
    sigma = reference.spread(state.sigma, cfg.object.mass, event.time - state.t_ref)
    cluster = min(sigma) < cfg.object.internal_radius
    alpha = state.alpha
    if cluster:
        alphas = cfg.object.cluster_alphas
        alpha = alphas[min(int(event.pick * len(alphas)), len(alphas) - 1)]
    # The impact offset is drawn relative to the object.
    if not reference.fires(alpha, event.alpha, sigma, event.sigma, event.offset):
        return False, sigma, state.alpha, rng.position
    sigma_p = reference.product(sigma, event.sigma)
    if cluster and cfg.cluster_eta != 1.0:
        sigma_p = reference.damped(sigma, sigma_p, cfg.cluster_eta)
    # The redrawn phase is the keyed word of counter 2**64 + collisions.
    n_collisions = state.n_collisions + 1
    alpha_after = state.alpha
    if cfg.redraw_alpha_after_collapse:
        alpha_after = TWO_PI * rng.keyed(2**64 + n_collisions, 1)[0]
    return True, sigma_p, alpha_after, rng.position


LEAN_LOOP_CONFIGS = {
    # light object: collapses below the internal radius and re-spreads past it
    "light": micro_config(
        object=ObjectSpec(
            mass=1.7e-23, internal_radius=5e-9, cluster_alphas=(0.3, 1.0, 2.0, 4.0, 6.0)
        ),
        environment=EnvironmentSpec(
            collision_rate=1e6, env_sigma=1e-10, env_sigma_jitter=0.3, impact_spread=1e-10
        ),
    ),
    # heavy grain that stays in the cluster regime
    "grain": micro_config(
        object=ObjectSpec(
            mass=1e-7, internal_radius=2.5e-4, cluster_alphas=tuple(0.1 * np.arange(60))
        ),
        initial_sigma=5e-11,
        initial_alpha="random",
        environment=EnvironmentSpec(
            collision_rate=1e6, env_sigma=5e-11, env_sigma_jitter=0.5, impact_spread=5e-11
        ),
        redraw_alpha_after_collapse=True,
    ),
}


class TestStepMatchesReference:
    """Every ``step`` matches ``rebuild_collision``, which redraws the
    collision and decides it with the laws of ``tests/reference.py``."""

    @pytest.mark.parametrize("name", sorted(LEAN_LOOP_CONFIGS))
    def test_every_step_matches_reference_rebuild(self, name):
        cfg = LEAN_LOOP_CONFIGS[name]
        fired = 0
        regimes = set()
        for seed in range(8):
            seeded = replace(cfg, seed=seed)
            state = initial_state(seeded)
            for _ in range(4000):
                fires, sigma, alpha, position = rebuild_collision(seeded, state)
                new_state, record = step(state, seeded)
                assert (record.last_event is LastEvent.COLLAPSE) == fires
                assert record.sigma == sigma
                assert new_state.position == position
                if fires:
                    fired += 1
                    assert new_state.sigma == sigma
                    assert new_state.t_ref == record.t
                    assert new_state.alpha == alpha
                else:
                    # Only the time and the count, so the stream position, move.
                    assert replace(new_state, t=state.t, n_collisions=state.n_collisions) == state
                regimes.add(record.regime)
                state = new_state
        assert fired >= 10
        if name == "light":
            assert regimes == {Regime.CM_PHASE, Regime.CLUSTER_PHASE}


class TestNoPacketBuilt:
    """The engine holds the waist as plain values: neither ``run`` nor
    ``step`` constructs a :class:`GaussianPacket`."""

    @pytest.fixture
    def constructed(self, monkeypatch):
        calls = []
        post_init = GaussianPacket.__post_init__
        monkeypatch.setattr(
            GaussianPacket, "__post_init__", lambda packet: calls.append(1) or post_init(packet)
        )
        return calls

    def test_run(self, constructed):
        summary, records = run(preset("tpp"))
        assert summary.n_collapses > 0 and len(records) > summary.n_collisions
        assert len(constructed) == 0

    def test_step(self, constructed):
        cfg = LEAN_LOOP_CONFIGS["light"]
        state = initial_state(cfg)
        for _ in range(1000):
            state, _ = step(state, cfg)
        assert state.n_collapses > 0
        assert len(constructed) == 0


@pytest.mark.parametrize("name", ["tpp", "sugar_grain", "generic"])
def test_phase_passes_build_no_objects(monkeypatch, name):
    """``run`` decides its phase passes on plain values: it builds no
    :class:`CollisionEvent`, and a :class:`SimState` only for the initial
    state, for each firing and for the end of each window."""
    built = []

    def counted(cls):
        init = cls.__init__

        def counting(obj, *args, **kwargs):
            built.append(cls)
            init(obj, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)

    windows = []
    decide = engine._decide
    monkeypatch.setattr(engine, "_decide", lambda *args: windows.append(1) or decide(*args))
    counted(CollisionEvent)
    counted(engine.SimState)
    config = generic_document_config(0.05) if name == "generic" else preset(name)
    summary, records = run(replace(config, duration=0.05))
    assert summary.n_collapses > 0 and len(records) > summary.n_collisions
    assert CollisionEvent not in built
    assert built.count(engine.SimState) <= 1 + summary.n_collapses + len(windows)


@pytest.mark.parametrize("name", ["tpp", "sugar_grain", "generic"])
def test_one_readout_per_window(monkeypatch, name):
    """``_Fill.window`` reads the widths of a window's collisions out in
    one ``spread_into`` call, however many firings the window holds."""
    calls, windows = [], []
    spread_into = engine.spread_into
    monkeypatch.setattr(engine, "spread_into", lambda *args: calls.append(1) or spread_into(*args))
    window = engine._Fill.window

    def counted(fill, state, end, firings, error):
        calls.clear()
        after = window(fill, state, end, firings, error)
        windows.append((len(calls), len(firings)))
        return after

    monkeypatch.setattr(engine._Fill, "window", counted)
    config = generic_document_config(0.05) if name == "generic" else preset(name)
    summary, _ = run(replace(config, duration=0.05))
    assert sum(firings for _, firings in windows) == summary.n_collapses
    assert max(firings for _, firings in windows) >= 2
    assert max(readouts for readouts, _ in windows) <= 1


def test_run_builds_one_stream(monkeypatch):
    """``run`` seeks in one :class:`RngState` and never seeds another, also
    when it draws a random initial phase."""
    calls = []
    init = RngState.__init__
    monkeypatch.setattr(
        RngState, "__init__", lambda rng, *args: calls.append(1) or init(rng, *args)
    )
    for config in (preset("tpp"), generic_document_config(0.01)):
        calls.clear()
        summary, _ = run(config)
        assert summary.n_collapses > 0
        assert len(calls) == 1


class TestStreamContract:
    """Stream layout 2: three words of the seeded stream per collision; the
    packet and phase words come from the keyed generator, addressed by the
    collision count, and only where they are read."""

    @pytest.mark.parametrize(
        "name, max_collisions",
        [("generic", None), ("generic", 3000), ("tpp_random_phase", None), ("tpp", 5000)],
    )
    def test_position_is_three_words_per_collision(self, name, max_collisions):
        """Also with a random initial phase, with phase redraws (the generic
        document has both) and with a ``max_collisions`` cut."""
        config = {
            "generic": generic_document_config(0.01),
            "tpp_random_phase": replace(preset("tpp"), initial_alpha="random"),
            "tpp": preset("tpp"),
        }[name]
        for seed in range(2):
            cfg = replace(config, seed=seed, duration=0.01)
            summary, _ = run(cfg, keep_records=False, max_collisions=max_collisions)
            assert summary.rng_position == 3 * summary.n_collisions
            assert summary.budget_exhausted is (max_collisions is not None)
        assert initial_state(cfg).position == 0

    @pytest.mark.parametrize("name", ["tpp", "sugar_grain"])
    def test_presets_build_no_keyed_generator(self, monkeypatch, name):
        """A preset neither spreads the impact, jitters the widths nor draws a
        phase: its run builds no keyed generator.  The generic document's
        run builds one, when it first needs it."""
        environment._keyed_generator.cache_clear()  # built once per seed per process
        built = []
        philox = environment.Philox
        monkeypatch.setattr(
            environment, "Philox", lambda *args: built.append(1) or philox(*args)
        )
        summary, _ = run(replace(preset(name), duration=0.05))
        assert summary.n_collapses > 0 and not built
        run(generic_document_config(0.01))
        assert len(built) == 1

    def test_candidate_packets_agree_through_run_step_and_replay(self, monkeypatch):
        """A candidate's packet is the same in ``run``, in the loop over
        ``step`` and in a replay from ``RngState(seed, 3 * i)``."""
        cfg = generic_document_config(0.01)
        packet_from_words = environment.packet_from_words
        in_run, in_steps = {}, {}

        def recorded(into):
            def record(rng, i, spec):
                into[i] = packet_from_words(rng, i, spec)
                return into[i]
            return record

        monkeypatch.setattr(engine, "packet_from_words", recorded(in_run))
        monkeypatch.setattr(environment, "packet_from_words", recorded(in_steps))
        summary, _ = run(cfg, keep_records=False)
        assert len(in_run) >= 10 and not in_steps
        reference_run(cfg)
        assert len(in_steps) == summary.n_collisions + 1  # and the first past the duration
        for i, packet in in_run.items():
            assert in_steps[i] == packet
            event = next_collision(RngState(cfg.seed, 3 * i), cfg.environment, 0.0)
            assert (event.offset, event.sigma) == packet


@pytest.mark.parametrize("name", ["tpp", "sugar_grain", "generic"])
def test_each_collision_is_drawn_once(monkeypatch, name):
    """The words ``run`` draws for its blocks are at most 3 per collision
    used and one block more: a firing, also one that redraws the phase,
    takes no word of the stream."""
    drawn = []
    words = RngState.words
    monkeypatch.setattr(
        RngState, "words", lambda rng, n, out=None: drawn.append(n) or words(rng, n, out)
    )
    config = generic_document_config(0.05) if name == "generic" else preset(name)
    summary, _ = run(replace(config, duration=0.05), keep_records=False)
    assert summary.n_collapses > 0
    assert sum(drawn) <= 3 * (summary.n_collisions + engine._BLOCK_SIZE)


def reference_run(config: ScenarioConfig, max_collisions=None):
    """The semantics of ``run`` as a plain loop over ``step``.

    This is the scalar reference the block scan must match bit for bit: one
    collision per ``step``, grid samples and sums in collision order, and the
    stream position after the last processed collision.
    """
    state = initial_state(config)
    env = config.environment
    interval = config.sample_interval
    records = []

    def sample(t):
        sigma = _widths_at(state, config.object.mass, t, state.n_collisions)
        return TimeSeriesRecord(
            t, sigma, state.n_collisions, state.n_collapses,
            regime_for(sigma, config.object.internal_radius), LastEvent.NONE,
        )

    def samples_before(t):
        nonlocal next_sample
        while next_sample < t:
            records.append(sample(next_sample))
            next_sample += interval
        if next_sample == t:
            next_sample += interval

    records.append(sample(0.0))
    next_sample = interval
    min_sigma = min(state.sigma)
    recovery = respread = before_sum = after_sum = 0.0
    n_recovery = n_respread = 0
    after_last = None
    exhausted = False
    position = state.position
    while env.collision_rate > 0.0:
        if max_collisions is not None and state.n_collisions >= max_collisions:
            exhausted = True
            break
        position = state.position
        try:
            new_state, record = step(state, config)
        except EngineError:
            # Unless the collision is past the duration, its grid samples come
            # first and may fail before it does.
            event = next_collision(RngState(config.seed, position), env, state.t)
            if event.time > config.duration:
                break
            samples_before(event.time)
            raise
        if record.t > config.duration:
            break
        samples_before(record.t)
        records.append(record)
        fired = record.last_event is LastEvent.COLLAPSE
        sigma_before = min(spread_widths(state.sigma, config.object.mass, record.t - state.t_ref))
        if after_last is not None:
            recovery += sigma_before / after_last
            n_recovery += 1
            if fired:
                respread += sigma_before / after_last
                n_respread += 1
        state = new_state
        position = state.position
        if fired:
            after_last = min(state.sigma)
            before_sum += sigma_before
            after_sum += after_last
            min_sigma = min(min_sigma, after_last)
    samples_before(config.duration)
    final = sample(config.duration)
    if records[-1].t < config.duration:
        records.append(final)
    summary = RunSummary(
        seed=config.seed,
        duration=config.duration,
        n_collisions=state.n_collisions,
        n_collapses=state.n_collapses,
        final_sigma=final.sigma,
        final_min_sigma=min(final.sigma),
        min_sigma=min(min_sigma, min(final.sigma)),
        recovery_ratio_sum=recovery,
        recovery_samples=n_recovery,
        respread_sum=respread,
        respread_samples=n_respread,
        collapse_before_sum=before_sum,
        collapse_after_sum=after_sum,
        localized=min(final.sigma) <= config.object.internal_radius,
        final_regime=final.regime,
        budget_exhausted=exhausted,
        rng_position=position,
    )
    return summary, records


def generic_document_config(duration: float) -> ScenarioConfig:
    """The benchmark's generic document: a narrow random-phase grain with
    width jitter, impact spread and phase redraw."""
    doc = to_document(preset("sugar_grain"))
    doc.update(
        initial_sigma_m=5e-11,
        initial_alpha_rad="random",
        env_sigma_jitter=0.5,
        impact_spread_m=5e-11,
        redraw_alpha_after_collapse=True,
        output_format="json",
        duration_s=duration,
    )
    return parse_config(json.dumps(doc))


HALF_BLOCK = engine._BLOCK_SIZE // 2
BLOCK_CONFIGS = {
    "tpp": (replace(preset("tpp"), duration=1e-3), None),
    "sugar_grain": (replace(preset("sugar_grain"), duration=1e-3), None),
    "generic_json": (generic_document_config(1e-3), None),
    # A collapse takes this object below its internal radius; it re-spreads
    # past it a few hundred collisions later, inside a block.
    "light_crossing": (
        micro_config(
            object=ObjectSpec(
                mass=2e-20, internal_radius=5e-9, cluster_alphas=(0.3, 1.0, 2.0, 4.0, 6.0)
            ),
            environment=EnvironmentSpec(collision_rate=1e6, env_sigma=1e-10, env_sigma_jitter=0.2),
            duration=1e-3,
            sample_interval=1e-4,
            cluster_eta=0.5,
        ),
        None,
    ),
    # 1000 is less than a block: the budget ends the first block part way.
    "budget_cut": (replace(preset("tpp"), duration=1.0), 1000),
    # The budget ends the second block part way, in blocks of ``HALF_BLOCK``
    # (the test patches ``_BLOCK_SIZE``), so the loop over ``step`` stays short.
    "budget_cut_second_block": (replace(preset("tpp"), duration=1.0), HALF_BLOCK + 138),
}


@pytest.mark.parametrize(
    "name, duration", [("sugar_grain", 1e-4), ("sugar_grain", 1e-3), ("tpp", 1e-3)]
)
def test_runs_shorter_than_a_block_match_step_loop(name, duration):
    """A run whose collisions fit in one block draws a block sized to the
    duration: it ends short of the duration or past it, and where it falls
    short the run draws another."""
    config = replace(preset(name), duration=duration)
    assert config.environment.collision_rate * duration < engine._BLOCK_SIZE
    for seed in range(16):
        cfg = replace(config, seed=seed)
        assert run(cfg) == reference_run(cfg)


@pytest.mark.parametrize(
    "name, max_collisions", [("tpp", None), ("sugar_grain", None), ("tpp", 650)]
)
def test_short_blocks_that_fall_short_match_step_loop(monkeypatch, name, max_collisions):
    """Blocks sized to a third of the collisions due fall short of the
    duration: each window but the last ends before it, and the next window
    draws on from its last collision, also where the budget ends a run."""
    monkeypatch.setattr(
        engine, "_block_for", lambda e: min(engine._BLOCK_SIZE, max(1, int(e) // 3))
    )
    blocks = []
    draw = engine.draw_collision_block
    monkeypatch.setattr(
        engine, "draw_collision_block", lambda *args: blocks.append(1) or draw(*args)
    )
    config = replace(preset(name), duration=1e-3, redraw_alpha_after_collapse=True)
    collapses = 0
    for seed in range(8):
        cfg = replace(config, seed=seed)
        expected = reference_run(cfg, max_collisions)
        blocks.clear()
        assert run(cfg, max_collisions=max_collisions) == expected
        assert len(blocks) >= 3
        assert run(cfg, False, max_collisions)[0] == expected[0]
        assert expected[0].budget_exhausted == (max_collisions is not None)
        collapses += expected[0].n_collapses
    assert collapses > 0


def test_short_runs_draw_little_past_their_collisions(monkeypatch):
    """A 0.01 s ``sugar_grain`` run with phase redraws draws the 3 words of
    at most its used collisions plus the sizing margin at the run's start,
    6 sqrt(rate * duration) + 16: well under a block more."""
    drawn = []
    words = RngState.words
    monkeypatch.setattr(
        RngState, "words", lambda rng, n, out=None: drawn.append(n) or words(rng, n, out)
    )
    config = replace(preset("sugar_grain"), duration=0.01, redraw_alpha_after_collapse=True)
    margin = 6.0 * math.sqrt(config.environment.collision_rate * config.duration) + 16
    assert margin < engine._BLOCK_SIZE / 2
    collapses = 0
    for seed in range(16):
        drawn.clear()
        summary, _ = run(replace(config, seed=seed), keep_records=False)
        assert sum(drawn) <= 3 * (summary.n_collisions + margin)
        collapses += summary.n_collapses
    assert collapses > 0


@pytest.mark.parametrize("block_size", [1, 2])
def test_words_carried_past_firings_match_step_loop(monkeypatch, block_size):
    """With blocks of one or two collisions, a firing with a phase redraw
    often ends its block: the next block starts at the next collision's
    words, and the redraw reads none of them."""
    monkeypatch.setattr(engine, "_BLOCK_SIZE", block_size)
    config = replace(preset("tpp"), duration=1e-3, redraw_alpha_after_collapse=True)
    collapses = 0
    for seed in range(16):
        cfg = replace(config, seed=seed)
        summary, records = run(cfg)
        assert (summary, records) == reference_run(cfg)
        collapses += summary.n_collapses
    assert collapses >= 8


@pytest.mark.parametrize("name", ["tpp", "sugar_grain", "generic"])
def test_resolve_sees_only_phase_passes(monkeypatch, name):
    """``run`` hands the plain-value decision of ``step``,
    ``engine._collide``, only the collisions whose phase passes the clause
    against the constant of their own regime: every other one is a reject
    decided in numpy."""
    config = generic_document_config(0.01) if name == "generic" else preset(name)
    config = replace(config, duration=0.01)
    obj = config.object
    seen = []
    collide = engine._collide

    def checked(cfg, rng, waist, sigma, env_alpha, env_sigma, offset, pick, *rest):
        compared = waist.alpha
        if min(sigma) < obj.internal_radius:
            alphas = obj.cluster_alphas
            compared = alphas[min(int(pick * len(alphas)), len(alphas) - 1)]
        seen.append(reference.phase_clause(compared, env_alpha))
        return collide(cfg, rng, waist, sigma, env_alpha, env_sigma, offset, pick, *rest)

    monkeypatch.setattr(engine, "_collide", checked)
    summary, _ = run(config, keep_records=False)
    assert summary.n_collapses > 0
    assert len(seen) >= summary.n_collapses and all(seen)


def test_firings_inside_windows_match_step_loop(monkeypatch):
    """Windows of blocks of 1, 2 and 5 collisions put firings, regime
    crossings and phase redraws at every place in a window, its last
    collision included."""
    collapses = 0
    for config in (BLOCK_CONFIGS["light_crossing"][0], BLOCK_CONFIGS["tpp"][0]):
        for redraw in (False, True):
            for seed in range(16):
                cfg = replace(config, seed=seed, redraw_alpha_after_collapse=redraw)
                expected = reference_run(cfg)
                for block_size in (1, 2, 5):
                    monkeypatch.setattr(engine, "_BLOCK_SIZE", block_size)
                    assert run(cfg) == expected
                collapses += expected[0].n_collapses
    assert collapses >= 30


def test_redrawn_phases_match_step_loop():
    """A heavy object whose widths equal the environment's stays in the CM
    regime, where its overlap with a packet is near 1: whether a phase pass
    fires depends on the object's phase constant, so each redrawn phase and
    the CM clause after it must match the loop over ``step``."""
    config = ScenarioConfig(
        object=ObjectSpec(mass=1e-3, internal_radius=1e-12, cluster_alphas=(0.0,)),
        initial_sigma=1e-9,
        initial_alpha="random",
        environment=EnvironmentSpec(collision_rate=1e6, env_sigma=1e-9),
        duration=5e-3,
        seed=0,
        sample_interval=1e-3,
        cluster_eta=1.0,
        redraw_alpha_after_collapse=True,
    )
    collapses = 0
    for seed in range(8):
        cfg = replace(config, seed=seed)
        summary, records = run(cfg)
        assert (summary, records) == reference_run(cfg)
        collapses += summary.n_collapses
    assert collapses >= 10


_GRAIN = preset("sugar_grain")
FILL_CONFIGS = {
    # Every window is frozen.
    "sugar_grain": replace(_GRAIN, duration=0.01),
    # Jittered contractions leave anisotropic widths.
    "generic": generic_document_config(0.01),
    # A grain of 6e-9 kg with anisotropic widths: q * q passes 2**-53 about
    # two milliseconds after a collapse, so windows are frozen, spread, or
    # frozen in their first segment only.
    "thawing": replace(
        _GRAIN, object=replace(_GRAIN.object, mass=6e-9), duration=0.01,
        environment=replace(_GRAIN.environment, env_sigma_jitter=0.5),
    ),
    # Frozen until the first contraction leaves widths whose squares
    # underflow to 0: the next readout fails.
    "underflow": replace(
        UNDERFLOW_CONFIG, initial_sigma=1e-150,
        environment=EnvironmentSpec(collision_rate=1e6, env_sigma=1e-165),
    ),
}


@pytest.mark.parametrize("name", sorted(FILL_CONFIGS))
def test_frozen_fill_matches_step_loop(monkeypatch, name):
    """``run`` with records, ``run`` without, and the loop over ``step``
    agree on the records, the summary and the error message, at seeds 0-3.
    The thawing config also runs seeds 4-7: over all eight it has frozen
    windows, windows that spread, and windows whose first segment is frozen
    but a later one is not."""
    kinds = {"frozen": 0, "spread": 0, "first frozen only": 0}
    window = engine._Fill.window

    def classified(fill, state, end, firings, error):
        if end and name == "thawing":
            bounds = [w.n_collisions - state.n_collisions for w in firings] + [end]
            frozen = [
                spread_widths(w.sigma, fill.mass, fill.times.item(b - 1) - w.t_ref) == w.sigma
                for w, a, b in zip([state, *firings], [0, *bounds], bounds) if b > a
            ]
            kinds["frozen" if all(frozen) else "first frozen only" if frozen[0] else "spread"] += 1
        return window(fill, state, end, firings, error)

    monkeypatch.setattr(engine._Fill, "window", classified)
    for seed in range(8 if name == "thawing" else 4):
        cfg = replace(FILL_CONFIGS[name], seed=seed)
        outcomes = []
        for outcome in (reference_run, run, lambda c: run(c, keep_records=False)):
            try:
                outcomes.append(outcome(cfg))
            except EngineError as exc:
                outcomes.append(str(exc))
        expected, kept, quiet = outcomes
        assert kept == expected
        if isinstance(expected, str):  # the error message
            assert quiet == expected
        else:
            assert quiet[0] == expected[0] and not quiet[1]
    if name == "thawing":
        assert all(kinds.values()), kinds


def test_frozen_grain_never_spreads(monkeypatch):
    """Every window of a ``sugar_grain`` run is frozen, so none calls ``spread_into``."""
    calls = []
    monkeypatch.setattr(engine, "spread_into", lambda *args: calls.append(1))
    for keep_records in (True, False):
        summary, _ = run(preset("sugar_grain"), keep_records=keep_records)
        assert summary.n_collapses > 0
    assert not calls


class TestBlockMatchesStep:
    @pytest.mark.parametrize("name", sorted(BLOCK_CONFIGS))
    def test_run_equals_step_loop(self, monkeypatch, name):
        config, max_collisions = BLOCK_CONFIGS[name]
        if name == "budget_cut_second_block":
            monkeypatch.setattr(engine, "_BLOCK_SIZE", HALF_BLOCK)
        collapses = 0
        crossings = 0
        for seed in range(64):
            cfg = replace(config, seed=seed)
            summary, records = run(cfg, max_collisions=max_collisions)
            expected_summary, expected_records = reference_run(cfg, max_collisions)
            # Every float is positive or +0.0, so == compares bits.  The
            # summaries include the final stream position.
            assert records == expected_records
            assert summary == expected_summary
            quiet, _ = run(cfg, keep_records=False, max_collisions=max_collisions)
            assert quiet == summary
            collapses += summary.n_collapses
            # Two consecutive non-firing collisions, cluster then CM regime:
            # the regime crossed inside a block.
            events = [r for r in records if r.last_event is not LastEvent.NONE]
            crossings += sum(
                a.last_event is b.last_event is LastEvent.COLLISION_NO_COLLAPSE
                and a.regime is Regime.CLUSTER_PHASE and b.regime is Regime.CM_PHASE
                for a, b in zip(events, events[1:])
            )
        assert collapses >= 30
        if name == "light_crossing":
            assert crossings >= 10
        if name == "budget_cut":
            assert summary.budget_exhausted and summary.n_collisions == max_collisions

    def test_width_overflow_fails_at_the_same_collision(self):
        cfg = ScenarioConfig(
            object=ObjectSpec(mass=1e-162, internal_radius=1e-16, cluster_alphas=(0.0,)),
            initial_sigma=1e-15,
            initial_alpha=0.0,
            environment=EnvironmentSpec(collision_rate=1e6, env_sigma=1e-15),
            duration=1.0,
            seed=0,
            sample_interval=1e-4,
            cluster_eta=1.0,
        )
        for seed in range(64):
            cfg = replace(cfg, seed=seed)
            with pytest.raises(EngineError) as expected:
                reference_run(cfg)
            with pytest.raises(EngineError) as got:
                run(cfg, keep_records=False)
            assert str(got.value) == str(expected.value)
            assert "collisions=0," not in str(got.value)

    def test_width_overflow_fails_first_at_a_grid_row(self):
        """With grid rows ten times denser than collisions, the widths
        overflow at a grid row between two collisions: that row raises."""
        cfg = ScenarioConfig(
            object=ObjectSpec(mass=1e-162, internal_radius=1e-16, cluster_alphas=(0.0,)),
            initial_sigma=1e-15,
            initial_alpha=0.0,
            environment=EnvironmentSpec(collision_rate=1e5, env_sigma=1e-15),
            duration=1e-3,
            seed=0,
            sample_interval=1e-6,
            cluster_eta=1.0,
        )
        grid_rows = 0
        for seed in range(8):
            cfg = replace(cfg, seed=seed)
            with pytest.raises(EngineError) as expected:
                reference_run(cfg)
            with pytest.raises(EngineError) as got:
                run(cfg, keep_records=False)
            assert str(got.value) == str(expected.value)
            assert "collisions=0," not in str(got.value)
            t = float(str(got.value).split("t=")[1].split(" ")[0])
            grid_rows += math.isclose(t / cfg.sample_interval, round(t / cfg.sample_interval))
        assert grid_rows >= 6


class TestRecords:
    @pytest.fixture(scope="class")
    def stored(self):
        """A run's store and the ``step`` loop's list of the same rows: grid
        rows, rejects and firings in both regimes, at the first seed whose
        run has all of them."""
        for seed in range(64):
            config = replace(BLOCK_CONFIGS["light_crossing"][0], seed=seed)
            _, expected = reference_run(config)
            kinds = {r.last_event for r in expected}, {r.regime for r in expected}
            if kinds == (set(LastEvent), set(Regime)):
                break
        else:
            pytest.fail("no seed in 0-63 has every kind of row")
        _, records = run(config)
        return records, expected

    def test_equals_step_loop_list(self, stored):
        records, expected = stored
        assert isinstance(records, Records)
        assert len(records) == len(expected)
        assert records == expected
        assert expected == records
        assert list(records) == expected

    def test_indexing(self, stored):
        records, expected = stored
        n = len(expected)
        for i in (0, 1, n // 2, n - 1, -1, -2, -n):
            assert records[i] == expected[i]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                records[i]

    def test_slicing(self, stored):
        records, expected = stored
        for part in (slice(2, 40), slice(None, None, -3), slice(-10, None), slice(5, 5)):
            sliced = records[part]
            assert isinstance(sliced, Records)
            assert sliced == expected[part]
            assert list(sliced) == expected[part]

    def test_from_rows_round_trip(self, stored):
        records, expected = stored
        rebuilt = Records.from_rows(expected)
        assert rebuilt == records
        # Bit for bit: value equality would take -0.0 for 0.0.
        assert [c.tobytes() for c in rebuilt.columns()] == [c.tobytes() for c in records.columns()]
        assert Records.from_rows(records) == records
        assert Records.from_rows([]) == [] and len(Records()) == 0

    def test_unequal_rows(self, stored):
        records, expected = stored
        changed = list(expected)
        changed[-1] = replace(changed[-1], n_collapses=changed[-1].n_collapses + 1)
        assert records != changed
        assert records != expected[:-1]
        assert records != Records.from_rows(changed)
        assert records != object()

    def test_fields_are_python_numbers(self):
        _, records = run(generic_document_config(2e-3))
        assert records
        for r in records:
            assert type(r.t) is float
            assert all(type(s) is float for s in r.sigma)
            assert type(r.n_collisions) is int and type(r.n_collapses) is int
            assert isinstance(r.regime, Regime) and isinstance(r.last_event, LastEvent)

    def test_store_is_empty_without_records(self):
        _, records = run(replace(preset("tpp"), duration=1e-3), keep_records=False)
        assert isinstance(records, Records) and len(records) == 0


STORE_CHUNKS = [1, 2, 3, 5]


def row(t, sigma, n_collisions, n_collapses, cluster, event):
    return TimeSeriesRecord(
        t, sigma, n_collisions, n_collapses, Records.REGIMES[cluster], event
    )


class TestStoreChunks:
    """A store's rows are the same whatever its chunk size: chunks of 1, 2,
    3 and 5 rows put a chunk boundary beside every kind of row."""

    @pytest.fixture(scope="class")
    def expected(self):
        """Per config, the ``step`` loop's runs over a few seeds."""
        configs = {"tpp": BLOCK_CONFIGS["tpp"][0], "generic": BLOCK_CONFIGS["generic_json"][0]}
        return {
            name: [(cfg, reference_run(cfg)) for cfg in (replace(c, seed=s) for s in range(8))]
            for name, c in configs.items()
        }

    @pytest.mark.parametrize("chunk", STORE_CHUNKS)
    @pytest.mark.parametrize("name", ["tpp", "generic"])
    def test_run_equals_step_loop(self, monkeypatch, expected, name, chunk):
        # The generic document redraws the phase after a firing.
        monkeypatch.setattr(engine, "CHUNK_ROWS", chunk)
        collapses = 0
        for cfg, (expected_summary, expected_records) in expected[name]:
            summary, records = run(cfg)
            assert len(records._chunks) == -(-len(records) // chunk)
            assert summary == expected_summary
            assert records == expected_records and list(records) == expected_records
            collapses += summary.n_collapses
        assert collapses >= 2

    def test_extend_splits_at_a_boundary_and_append_fills_one(self, monkeypatch):
        monkeypatch.setattr(engine, "CHUNK_ROWS", 3)
        t = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        x, y, z = t / 4, t / 2, t * 2
        cluster = np.array([0, 1, 0, 1, 1], np.int8)
        store = Records()
        store.append(0.5, (0.25, 0.5, 0.75), 0, 0, False, 0)
        store.extend((t, x, y, z, cluster), 1, 4, 7, 2)  # rows 1-3: row 3 opens chunk 2
        assert len(store._chunks) == 2 and len(store) == 4
        store.extend((t, x, x, x, cluster), 4, 5, 10, 2)  # an isotropic waist
        store.append(6.0, (6.0, 6.0, 6.0), 11, 3, True, 2)  # fills chunk 2
        assert len(store._chunks) == 2 and len(store) == 6
        no_collapse, collapse = LastEvent.COLLISION_NO_COLLAPSE, LastEvent.COLLAPSE
        assert list(store) == [
            row(0.5, (0.25, 0.5, 0.75), 0, 0, 0, LastEvent.NONE),
            row(2.0, (0.5, 1.0, 4.0), 7, 2, 1, no_collapse),
            row(3.0, (0.75, 1.5, 6.0), 8, 2, 0, no_collapse),
            row(4.0, (1.0, 2.0, 8.0), 9, 2, 1, no_collapse),
            row(5.0, (1.25, 1.25, 1.25), 10, 2, 1, no_collapse),
            row(6.0, (6.0, 6.0, 6.0), 11, 3, 1, collapse),
        ]
        store.append(7.0, (7.0, 7.0, 7.0), 12, 3, True, 0)
        assert len(store._chunks) == 3 and store[-1].t == 7.0

    @pytest.mark.parametrize("chunk", STORE_CHUNKS)
    def test_indexing_and_slicing_across_boundaries(self, monkeypatch, expected, chunk):
        monkeypatch.setattr(engine, "CHUNK_ROWS", chunk)
        cfg, (_, rows) = expected["generic"][0]
        _, records = run(cfg)
        n = len(rows)
        for boundary in range(chunk, n, chunk):
            for i in (boundary - 1, boundary, boundary - n - 1, boundary - n):
                r = records[i]
                assert r == rows[i]
                assert type(r.t) is float and all(type(s) is float for s in r.sigma)
                assert type(r.n_collisions) is int and type(r.n_collapses) is int
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                records[i]
        parts = [slice(None, None, -1), slice(None, None, -chunk - 1), slice(-2, 1, -3),
                 slice(2 * chunk + 1, chunk - 2, -1), slice(chunk - 1, 4 * chunk + 1, 2)]
        for part in parts:
            sliced = records[part]
            assert isinstance(sliced, Records) and len(sliced) == len(rows[part])
            assert list(sliced) == rows[part]


def test_record_memory_per_row():
    # A row is 50 bytes of typed columns; a record object per row took
    # about 290 bytes at peak.
    tracemalloc.start()
    try:
        _, records = run(replace(preset("tpp"), seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) > 40_000
    assert peak / len(records) <= 60.0


# Collisions of ``tpp`` at seed 1: the first firing, and a later collision
# that does not fire.
DURATION_COLLISIONS = {
    "firing": (0.0011115954429440458, LastEvent.COLLAPSE),
    "no_firing": (0.025663543076483396, LastEvent.COLLISION_NO_COLLAPSE),
}


@pytest.mark.parametrize("name", sorted(DURATION_COLLISIONS))
def test_collision_exactly_at_the_duration(name):
    """A collision at t = duration has the last row: no final grid row
    follows it."""
    t, event = DURATION_COLLISIONS[name]
    config = replace(preset("tpp"), duration=t, seed=1)
    summary, records = run(config)
    last = records[-1]
    assert last.t == t and last.last_event is event
    assert last.n_collisions == summary.n_collisions
    assert records[-2].t < t
    expected_summary, expected_records = reference_run(config)
    assert records == expected_records
    assert summary == expected_summary
    assert run(config, keep_records=False)[0] == summary


@pytest.mark.parametrize("duration", [0.05, 0.5])
def test_memory_without_records_is_bounded(duration):
    # Kept rows would take about 25 MB at 0.5 s.
    config = replace(preset("tpp"), duration=duration, seed=1)
    tracemalloc.start()
    try:
        summary, records = run(config, keep_records=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.n_collisions > 40_000 * duration / 0.05 and len(records) == 0
    assert peak < 1_000_000
