import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from collapsim import (
    EnvironmentSpec,
    GaussianPacket,
    LastEvent,
    ObjectSpec,
    ScenarioConfig,
    initial_state,
    norm_quadrature,
    step,
)
from collapsim.contraction import damped_sigma, product_width
from conftest import fresh_packet, packets


def product(p1: GaussianPacket, p2: GaussianPacket):
    return product_width(p1.sigma, p2.sigma)


def first_collapse(config: ScenarioConfig):
    """Step ``config`` from t=0 to its first firing collision; returns the
    states before and after it."""
    state = initial_state(config)
    for _ in range(100_000):
        new_state, record = step(state, config)
        if record.last_event is LastEvent.COLLAPSE:
            return state, new_state
        state = new_state
    pytest.fail("no collapse observed")


def heavy_object_config(**overrides) -> ScenarioConfig:
    """A 1 kg object, whose waist does not spread measurably between
    collisions, in the CM regime, met head-on by packets of its own width."""
    base = dict(
        object=ObjectSpec(mass=1.0, internal_radius=1e-12, cluster_alphas=(0.0,)),
        initial_sigma=2e-10,
        initial_alpha=0.0,
        environment=EnvironmentSpec(collision_rate=1e6, env_sigma=2e-10),
        duration=1.0,
        seed=4,
        sample_interval=0.1,
        cluster_eta=1.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestProductGaussian:
    def test_broad_partner_changes_nothing(self):
        s1 = 1e-9
        sigma = product(fresh_packet(sigma=s1), fresh_packet(sigma=1e6 * s1))
        assert sigma[0] == pytest.approx(s1, rel=1e-6)

    def test_identical_packets(self):
        p = fresh_packet(sigma=2e-9)
        for sp in product(p, p):
            assert sp == pytest.approx(2e-9 / math.sqrt(2.0), rel=1e-15)

    @given(packets(), packets())
    def test_width_never_exceeds_smaller_input(self, p1, p2):
        for sp, s1, s2 in zip(product(p1, p2), p1.sigma, p2.sigma):
            assert sp <= min(s1, s2)


class TestApplyCollapse:
    def test_identical_packets_contract_by_sqrt2(self):
        before, after = first_collapse(heavy_object_config())
        for sp in after.sigma:
            assert sp == pytest.approx(2e-10 / math.sqrt(2.0), rel=1e-12)
        assert after.t_ref == after.t > before.t
        assert after.n_collapses == before.n_collapses + 1

    def test_localizes_to_narrow_partner(self):
        broad = fresh_packet(sigma=1e-6)
        narrow = fresh_packet(sigma=1e-10)
        assert product(broad, narrow)[0] == pytest.approx(1e-10, rel=1e-6)

    def test_inherits_identity_fields(self):
        config = heavy_object_config(
            object=ObjectSpec(mass=2e-20, internal_radius=1e-12, cluster_alphas=(0.0,)),
            initial_alpha=0.001,
            environment=EnvironmentSpec(collision_rate=1e6, env_sigma=2e-9, impact_spread=1e-9),
        )
        before, after = first_collapse(config)
        assert after.alpha == before.alpha
        assert after.t_ref == after.t

    @given(packets(), packets(), st.floats(1e-6, 1.0))
    def test_monotone_contraction(self, p1, p2, eta):
        # damped or not, a contraction never widens the object
        for sp, s1 in zip(damped_sigma(p1.sigma, product(p1, p2), eta), p1.sigma):
            assert sp <= s1

    def test_repeated_collapse_strictly_shrinks(self):
        partner = fresh_packet(sigma=1e-9)
        packet = fresh_packet(sigma=1e-9)
        widths = [packet.sigma[0]]
        for _ in range(6):
            packet = fresh_packet(sigma=product(packet, partner))
            widths.append(packet.sigma[0])
        assert all(b < a for a, b in zip(widths, widths[1:]))
        assert widths[1] == pytest.approx(1e-9 / math.sqrt(2.0), rel=1e-12)

    def test_contracted_packets_stay_normalized(self, gen):
        for _ in range(10):
            sigma1, sigma2 = (tuple(10.0 ** gen.uniform(-11, -8, 3)) for _ in range(2))
            contracted = fresh_packet(sigma=product_width(sigma1, sigma2))
            assert abs(norm_quadrature(contracted) - 1.0) < 1e-8
