import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from collapsim import (
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
        assert first[0].position == s0.position + 12

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
    """A collision takes 12 words of the stream in either regime; a firing
    with phase redraw takes one more."""

    @pytest.mark.parametrize(
        "initial_sigma, regime", [(0.05, Regime.CM_PHASE), (5e-11, Regime.CLUSTER_PHASE)]
    )
    def test_collision_takes_12_words_in_either_regime(self, initial_sigma, regime):
        cfg = replace(preset("sugar_grain"), initial_sigma=initial_sigma)
        state = initial_state(cfg)
        new_state, record = step(state, cfg)
        assert record.last_event is LastEvent.COLLISION_NO_COLLAPSE
        assert record.regime is regime
        assert new_state.position == state.position + 12

    @pytest.mark.parametrize("redraw", [False, True])
    def test_firing_takes_one_more_word_only_for_a_redraw(self, redraw):
        cfg = replace(generic_document_config(1.0), redraw_alpha_after_collapse=redraw)
        state = initial_state(cfg)
        for _ in range(100_000):
            new_state, record = step(state, cfg)
            fired = record.last_event is LastEvent.COLLAPSE
            assert new_state.position == state.position + 12 + (fired and redraw)
            state = new_state
            if fired:
                break
        else:
            pytest.fail("no collapse observed")

    def test_blocks_end_only_at_firings_and_the_duration(self, monkeypatch):
        calls = []
        evaluate_block = engine._evaluate_block
        monkeypatch.setattr(
            engine, "_evaluate_block", lambda *args: calls.append(1) or evaluate_block(*args)
        )
        summary, _ = run(replace(preset("tpp"), seed=1, duration=0.05), keep_records=False)
        bound = summary.n_collisions // engine._BLOCK_SIZE + summary.n_collapses + 1
        assert len(calls) <= bound


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

    def test_random_initial_alpha_drawn_from_seed(self):
        cfg = micro_config(initial_alpha="random", seed=19, duration=1e-5)
        s1, _ = run(cfg)
        s2, _ = run(cfg)
        assert s1 == s2
        state = initial_state(cfg)
        assert 0.0 <= state.alpha < TWO_PI
        assert state.position == 1


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
    alpha_after = TWO_PI * rng.uniform() if cfg.redraw_alpha_after_collapse else state.alpha
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


class TestLeanLoopMatchesPacketApi:
    @pytest.mark.parametrize("name", sorted(LEAN_LOOP_CONFIGS))
    def test_every_step_matches_packet_level_rebuild(self, name):
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
                    # Only the time, the count and the stream position move.
                    assert replace(
                        new_state, t=state.t, n_collisions=state.n_collisions,
                        position=state.position,
                    ) == state
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
    # 1000 = 862 + 138: the budget ends the second block part way.
    "budget_cut": (replace(preset("tpp"), duration=1.0), 1000),
}


class TestBlockMatchesStep:
    @pytest.mark.parametrize("name", sorted(BLOCK_CONFIGS))
    def test_run_equals_step_loop(self, name):
        config, max_collisions = BLOCK_CONFIGS[name]
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


class TestRecords:
    @pytest.fixture(scope="class")
    def stored(self):
        """A run's store and the ``step`` loop's list of the same rows: grid
        rows, rejects and firings in both regimes."""
        config = replace(BLOCK_CONFIGS["light_crossing"][0], seed=1)
        _, records = run(config)
        _, expected = reference_run(config)
        assert {r.last_event for r in expected} == set(LastEvent)
        assert {r.regime for r in expected} == set(Regime)
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
        assert rebuilt.columns() == records.columns()
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
    assert peak / len(records) <= 100.0
