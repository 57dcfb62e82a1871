import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from collapsim import (
    CriterionOutcome,
    apply_collapse,
    evaluate_criterion,
    norm_quadrature,
    product_gaussian,
)
from conftest import fresh_packet, packets


class TestProductGaussian:
    def test_equal_widths_midpoint(self):
        s = 1e-9
        p1 = fresh_packet(center=(0.0, 0.0, 0.0), sigma=s)
        p2 = fresh_packet(center=(2e-9, -4e-9, 6e-9), sigma=s)
        center, sigma = product_gaussian(p1, p2)
        for got, mid in zip(center, (1e-9, -2e-9, 3e-9)):
            assert got == pytest.approx(mid, rel=1e-12)
        for sp in sigma:
            assert sp == pytest.approx(s / math.sqrt(2.0), rel=1e-15)

    def test_broad_partner_changes_nothing(self):
        s1 = 1e-9
        p1 = fresh_packet(center=(1e-9, 0.0, 0.0), sigma=s1)
        p2 = fresh_packet(center=(5e-9, 0.0, 0.0), sigma=1e6 * s1)
        center, sigma = product_gaussian(p1, p2)
        assert center[0] == pytest.approx(p1.center[0], rel=1e-6)
        assert sigma[0] == pytest.approx(s1, rel=1e-6)

    def test_identical_packets(self):
        p = fresh_packet(center=(3e-9, 0.0, -1e-9), sigma=2e-9)
        center, sigma = product_gaussian(p, p)
        assert center == p.center
        for sp in sigma:
            assert sp == pytest.approx(2e-9 / math.sqrt(2.0), rel=1e-15)

    @given(packets(), packets())
    def test_width_never_exceeds_smaller_input(self, p1, p2):
        _, sigma = product_gaussian(p1, p2)
        for sp, s1, s2 in zip(sigma, p1.sigma, p2.sigma):
            assert sp <= min(s1, s2)

    @given(packets(), packets())
    def test_center_betweenness(self, p1, p2):
        center, _ = product_gaussian(p1, p2)
        for cp, c1, c2 in zip(center, p1.center, p2.center):
            assert min(c1, c2) <= cp <= max(c1, c2)


class TestApplyCollapse:
    def test_identical_packets_contract_by_sqrt2(self):
        p1 = fresh_packet(sigma=2e-10, alpha=0.001)
        p2 = fresh_packet(sigma=2e-10, alpha=0.0015, mass=1.0)
        result = apply_collapse(p1, p2, t=1.0)
        assert result.overlap_sigma[0] == pytest.approx(1.414e-10, rel=1e-3)
        assert result.contracted_1.sigma == result.overlap_sigma
        assert result.contracted_1.t_ref == 1.0

    def test_localizes_to_narrow_partner(self):
        broad = fresh_packet(sigma=1e-6, alpha=0.0)
        narrow = fresh_packet(sigma=1e-10, alpha=0.001, mass=1.0)
        result = apply_collapse(broad, narrow, t=0.0)
        assert result.overlap_sigma[0] == pytest.approx(1e-10, rel=1e-6)

    def test_inherits_identity_fields(self):
        p1 = fresh_packet(sigma=1e-9, alpha=1.0, velocity=(3.0, 0.0, 0.0), mass=2e-20)
        p2 = fresh_packet(sigma=2e-9, alpha=1.001, velocity=(-1.0, 0.0, 0.0), mass=5.0)
        result = apply_collapse(p1, p2, t=0.5)
        c1 = result.contracted_1
        assert (c1.alpha, c1.mass, c1.velocity) == (p1.alpha, p1.mass, p1.velocity)
        assert c1.center == result.overlap_center

    def test_guard_rejects_unfired_outcome(self):
        p1 = fresh_packet(alpha=0.0)
        p2 = fresh_packet(alpha=math.pi, mass=1.0)
        outcome = evaluate_criterion(p1, p2)
        assert not outcome.fires
        with pytest.raises(ValueError):
            apply_collapse(p1, p2, 0.0, outcome=outcome)

    def test_accepts_fired_outcome(self):
        p1 = fresh_packet(alpha=0.001)
        p2 = fresh_packet(alpha=0.001, mass=1.0)
        outcome = evaluate_criterion(p1, p2)
        assert outcome.fires
        apply_collapse(p1, p2, 0.0, outcome=outcome)

    @given(packets(), packets())
    def test_monotone_contraction(self, p1, p2):
        result = apply_collapse(p1, p2, t=0.0)
        for sp, s1, s2 in zip(result.contracted_1.sigma, p1.sigma, p2.sigma):
            assert sp <= min(s1, s2)

    def test_repeated_collapse_strictly_shrinks(self):
        partner = fresh_packet(sigma=1e-9, alpha=0.0, mass=1.0)
        packet = fresh_packet(sigma=1e-9, alpha=0.0)
        widths = [packet.sigma[0]]
        for _ in range(6):
            packet = apply_collapse(packet, partner, t=0.0).contracted_1
            widths.append(packet.sigma[0])
        assert all(b < a for a, b in zip(widths, widths[1:]))
        assert widths[1] == pytest.approx(1e-9 / math.sqrt(2.0), rel=1e-12)

    def test_contracted_packets_stay_normalized(self, gen):
        for _ in range(10):
            p1 = fresh_packet(
                center=tuple(gen.normal(0, 1e-9, 3)),
                sigma=tuple(10.0 ** gen.uniform(-11, -8, 3)),
            )
            p2 = fresh_packet(
                center=tuple(gen.normal(0, 1e-9, 3)),
                sigma=tuple(10.0 ** gen.uniform(-11, -8, 3)),
                mass=1.0,
            )
            contracted = apply_collapse(p1, p2, t=0.0).contracted_1
            assert abs(norm_quadrature(contracted) - 1.0) < 1e-8
