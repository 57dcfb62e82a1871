import math
from dataclasses import replace

import numpy as np
import pytest

from collapsim import (
    CODATA,
    EngineError,
    EnvironmentSpec,
    GaussianPacket,
    LastEvent,
    ObjectSpec,
    Regime,
    RngState,
    ScenarioConfig,
    evaluate_criterion,
    evolve_free,
    next_collision,
    preset,
    product_gaussian,
    run,
    run_ensemble,
    step,
)
from collapsim.engine import aggregate_summaries, damped_sigma, initial_state, regime_for

TWO_PI = 2.0 * math.pi


def micro_config(**overrides) -> ScenarioConfig:
    """Light object, broad initial packet, narrow environment."""
    base = dict(
        object=ObjectSpec(mass=1.7e-23, internal_radius=5e-9, v0=0.0, cluster_alphas=(1.0,)),
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
        new_state, record = step(state, cfg.environment, cluster_eta=cfg.cluster_eta)
        assert record.last_event is LastEvent.COLLISION_NO_COLLAPSE
        assert new_state.n_collisions == 1
        assert new_state.n_collapses == 0
        assert all(s > s0 for s, s0 in zip(record.sigma, cfg.initial_sigma))

    def test_firing_collision_localizes_to_environment_width(self):
        cfg = micro_config()
        state = initial_state(cfg)
        for _ in range(100_000):
            state, record = step(state, cfg.environment, cluster_eta=cfg.cluster_eta)
            if record.last_event is LastEvent.COLLAPSE:
                break
        assert record.last_event is LastEvent.COLLAPSE
        assert state.object_packet.sigma[0] == pytest.approx(1e-10, rel=1e-6)

    def test_firing_never_widens(self):
        cfg = micro_config()
        state = initial_state(cfg)
        for _ in range(100_000):
            pre_state = state
            state, record = step(state, cfg.environment, cluster_eta=cfg.cluster_eta)
            if record.last_event is LastEvent.COLLAPSE:
                pre_sigma = evolve_free(pre_state.object_packet, record.t).sigma
                assert all(s <= p for s, p in zip(record.sigma, pre_sigma))
                return
        pytest.fail("no collapse observed")

    def test_zero_rate_rejected(self):
        cfg = micro_config(environment=EnvironmentSpec(collision_rate=0.0, env_sigma=1e-10))
        with pytest.raises(ValueError):
            step(initial_state(cfg), cfg.environment)

    def test_counters_monotone_and_consistent(self):
        cfg = micro_config(seed=11)
        state = initial_state(cfg)
        for _ in range(2000):
            state, _ = step(state, cfg.environment, cluster_eta=cfg.cluster_eta)
        assert state.n_collapses <= state.n_collisions == 2000


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
        packet = initial_state(cfg).object_packet
        last_collapse_t = 0.0
        sigma_at_collapse = packet.sigma
        mass = cfg.object.mass
        for r in records:
            if r.last_event is LastEvent.COLLAPSE:
                last_collapse_t = r.t
                sigma_at_collapse = r.sigma
                continue
            dt = r.t - last_collapse_t
            k = CODATA.hbar * dt / (2.0 * mass)
            for got, s0 in zip(r.sigma, sigma_at_collapse):
                expected = s0 * math.sqrt(1.0 + (k / (s0 * s0)) ** 2)
                assert got == pytest.approx(expected, rel=1e-12)

    def test_regime_flag_consistent_at_every_record(self):
        cfg = micro_config(duration=2e-3, sample_interval=1e-4, seed=8)
        _, records = run(cfg)
        r_int = cfg.object.internal_radius
        seen = set()
        for r in records:
            assert r.regime == regime_for(r.sigma, r_int)
            seen.add(r.regime)
        assert seen == {Regime.CM_PHASE, Regime.CLUSTER_PHASE}

    def test_collapse_widths_non_increasing_for_heavy_grain(self):
        cfg = replace(preset("sugar_grain"), duration=5e-3)
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
            object=ObjectSpec(mass=1e-308, internal_radius=1e-16, v0=0.0, cluster_alphas=(0.0,)),
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

    def test_random_initial_alpha_drawn_from_seed(self):
        cfg = micro_config(initial_alpha="random", seed=19, duration=1e-5)
        s1, _ = run(cfg)
        s2, _ = run(cfg)
        assert s1 == s2
        state = initial_state(cfg)
        assert 0.0 <= state.object_packet.alpha < TWO_PI
        assert state.rng.position == 1


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

    def test_eta_domain(self):
        with pytest.raises(ValueError):
            damped_sigma((1e-9,) * 3, (1e-10,) * 3, 0.0)
        with pytest.raises(ValueError):
            damped_sigma((1e-9,) * 3, (1e-10,) * 3, 1.5)

    def test_cluster_regime_damps_contraction(self):
        # start inside the object so the first firing collision is damped
        cfg = micro_config(
            object=ObjectSpec(mass=1e3, internal_radius=1.0, v0=0.0, cluster_alphas=(0.0,)),
            initial_sigma=1e-9,
            environment=EnvironmentSpec(collision_rate=1e6, env_sigma=1e-9),
            cluster_eta=0.5,
            seed=23,
        )
        state = initial_state(cfg)
        assert state.regime is Regime.CLUSTER_PHASE
        for _ in range(100_000):
            state, record = step(
                state, cfg.environment, cluster_eta=cfg.cluster_eta
            )
            if record.last_event is LastEvent.COLLAPSE:
                break
        else:
            pytest.fail("no collapse observed")
        # undamped would give 1e-9/sqrt(2); eta=0.5 gives the geometric mean
        expected = 1e-9 * (1.0 / math.sqrt(2.0)) ** 0.5
        assert state.object_packet.sigma[0] == pytest.approx(expected, rel=1e-9)


class TestEnsemble:
    def test_single_replica_equals_run(self):
        cfg = replace(preset("tpp"), duration=2e-3)
        ensemble = run_ensemble(cfg, 1, base_seed=9)
        single, _ = run(replace(cfg, seed=9), keep_records=False)
        assert ensemble.replicas == (single,)
        assert ensemble.total_collisions == single.n_collisions

    def test_same_base_seed_bit_identical(self):
        cfg = replace(preset("tpp"), duration=1e-3)
        assert run_ensemble(cfg, 3, base_seed=40) == run_ensemble(cfg, 3, base_seed=40)

    def test_aggregation_order_independent(self):
        cfg = replace(preset("tpp"), duration=1e-3)
        ensemble = run_ensemble(cfg, 4, base_seed=60)
        reversed_agg = aggregate_summaries(list(ensemble.replicas[::-1]), 60, [])
        assert reversed_agg == aggregate_summaries(list(ensemble.replicas), 60, [])

    def test_replica_failure_reported_without_aborting(self):
        # replica seeds share a config whose numerics blow up immediately
        cfg = ScenarioConfig(
            object=ObjectSpec(mass=1e-308, internal_radius=1e-16, v0=0.0, cluster_alphas=(0.0,)),
            initial_sigma=1e-15,
            initial_alpha=0.0,
            environment=EnvironmentSpec(collision_rate=1e6, env_sigma=1e-15),
            duration=1.0,
            seed=1,
            sample_interval=0.1,
            cluster_eta=1.0,
        )
        ensemble = run_ensemble(cfg, 2, base_seed=5)
        assert len(ensemble.failures) == 2
        assert {seed for seed, _ in ensemble.failures} == {5, 6}

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
                v0=0.0,
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
        ensemble = run_ensemble(cfg, 4, base_seed=100, max_collisions=250_000)
        assert ensemble.total_collisions == 1_000_000
        p = CODATA.phase_acceptance_probability
        band = 4.0 * math.sqrt(p * (1.0 - p) / ensemble.total_collisions)
        assert abs(ensemble.firing_fraction - p) <= band


def rebuild_collision(cfg: ScenarioConfig, state):
    """Resolve the next collision of ``state`` with the packet-level API.

    Replays the draws from ``RngState(seed, position)`` and returns whether
    the criterion fires, the widths after the collision, the object's phase
    constant after it, and the stream position after it.
    """
    rng = RngState(state.rng.seed, state.rng.position)
    event, rng = next_collision(rng, cfg.environment, state.t)
    readout = evolve_free(state.object_packet, event.time)
    cluster = min(readout.sigma) < cfg.object.internal_radius
    alpha = readout.alpha
    if cluster:
        alphas = cfg.object.cluster_alphas
        alpha = alphas[min(int(rng.uniform() * len(alphas)), len(alphas) - 1)]
    # The encounter in the object's frame: the impact offset is drawn
    # relative to the object.
    compared = GaussianPacket(
        center=0.0, sigma=readout.sigma, velocity=0.0, mass=readout.mass, alpha=alpha, t_ref=0.0
    )
    env = GaussianPacket(
        center=event.offset, sigma=event.sigma, velocity=0.0, mass=1.0, alpha=event.alpha,
        t_ref=0.0,
    )
    if not evaluate_criterion(compared, env).fires:
        return False, readout.sigma, readout.alpha, rng.position
    _, sigma = product_gaussian(compared, env)
    if cluster and cfg.cluster_eta != 1.0:
        sigma = damped_sigma(readout.sigma, sigma, cfg.cluster_eta)
    alpha_after = TWO_PI * rng.uniform() if cfg.redraw_alpha_after_collapse else readout.alpha
    return True, sigma, alpha_after, rng.position


LEAN_LOOP_CONFIGS = {
    # light object: collapses below the internal radius and re-spreads past it
    "light": micro_config(
        object=ObjectSpec(
            mass=1.7e-23, internal_radius=5e-9, v0=10.0, cluster_alphas=(0.3, 1.0, 2.0, 4.0, 6.0)
        ),
        environment=EnvironmentSpec(
            collision_rate=1e6, env_sigma=1e-10, env_sigma_jitter=0.3, impact_spread=1e-10
        ),
    ),
    # heavy grain that stays in the cluster regime
    "grain": micro_config(
        object=ObjectSpec(
            mass=1e-7, internal_radius=2.5e-4, v0=10.0, cluster_alphas=tuple(0.1 * np.arange(60))
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
            state = initial_state(replace(cfg, seed=seed))
            for _ in range(4000):
                fires, sigma, alpha, position = rebuild_collision(cfg, state)
                new_state, record = step(
                    state,
                    cfg.environment,
                    cluster_eta=cfg.cluster_eta,
                    redraw_alpha=cfg.redraw_alpha_after_collapse,
                )
                assert (record.last_event is LastEvent.COLLAPSE) == fires
                assert record.sigma == sigma
                assert new_state.rng.position == position
                if fires:
                    fired += 1
                    assert new_state.object_packet.sigma == sigma
                    assert new_state.object_packet.t_ref == record.t
                    assert new_state.object_packet.alpha == alpha
                else:
                    assert new_state.object_packet is state.object_packet
                regimes.add(record.regime)
                state = new_state
        assert fired >= 10
        if name == "light":
            assert regimes == {Regime.CM_PHASE, Regime.CLUSTER_PHASE}
