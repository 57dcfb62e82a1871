"""Physics oracle: the engine's run against an independent thinned sampler.

``reference.reference_thinned_run`` draws only the encounters that pass the
phase clause, with its own generator and the reference laws, so a fault in
the engine's decision or contraction (``engine._collide``,
``criterion_fires``, ``product_width``, ``damped_sigma``) moves the engine's
distribution away from it, even where every bit-exact test, which compares
``run`` with ``step``, still passes.  Each config runs 256 engine seeds,
5000 to 5255, fixed before the first run and used by no other test, against
256 reference runs.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from collapsim import EnvironmentSpec, ObjectSpec, ScenarioConfig, preset, run_ensemble
from test_engine import generic_document_config
import reference

SEEDS = 256
DURATION = 0.03

# Config A: a heavy object whose radius keeps it in the CM regime, with a
# nonzero phase constant, width jitter and impact spread, so that the
# amplitude clause and the offset term decide.
CONFIG_A = ScenarioConfig(
    object=ObjectSpec(mass=1e-7, internal_radius=1e-12, cluster_alphas=(1.0,)),
    initial_sigma=5e-11,
    initial_alpha=1.0,
    environment=EnvironmentSpec(
        collision_rate=1e6, env_sigma=5e-11, env_sigma_jitter=0.5, impact_spread=5e-11
    ),
    duration=DURATION,
    seed=0,
    sample_interval=DURATION,
    cluster_eta=1.0,
)

CONFIGS = {
    "tpp": replace(preset("tpp"), duration=DURATION),
    "sugar_grain": replace(preset("sugar_grain"), duration=DURATION),
    "generic": generic_document_config(DURATION),
    "config_a": CONFIG_A,
}


@pytest.mark.parametrize("name", CONFIGS)
def test_engine_matches_thinned_reference(name):
    config = replace(CONFIGS[name], seed=5000)
    engine = run_ensemble(config, SEEDS).replicas
    generator = np.random.default_rng((5000, list(CONFIGS).index(name)))
    ref = [reference.reference_thinned_run(config, generator) for _ in range(SEEDS)]
    radius = config.object.internal_radius

    engine_counts = np.array([s.n_collapses for s in engine])
    ref_counts = np.array([n for n, _, _ in ref])
    spread = math.sqrt((engine_counts.var(ddof=1) + ref_counts.var(ddof=1)) / SEEDS)
    z = (engine_counts.mean() - ref_counts.mean()) / spread
    assert abs(z) <= 4.0, (engine_counts.mean(), ref_counts.mean(), z)
    assert stats.ks_2samp(engine_counts, ref_counts).pvalue >= 1e-4

    engine_widths = [s.final_min_sigma for s in engine]
    ref_widths = [min(sigma) for _, sigma, _ in ref]
    assert stats.ks_2samp(engine_widths, ref_widths).pvalue >= 1e-4

    engine_localized = sum(s.localized for s in engine) / SEEDS
    ref_localized = sum(w <= radius for w in ref_widths) / SEEDS
    pooled = (engine_localized + ref_localized) / 2.0
    assert abs(engine_localized - ref_localized) <= 4.0 * math.sqrt(
        pooled * (1.0 - pooled) * 2.0 / SEEDS
    )
