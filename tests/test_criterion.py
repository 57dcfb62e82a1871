import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsim import overlap_integral, overlap_integral_quadrature
from collapsim.constants import FINE_STRUCTURE, PHASE_ACCEPTANCE_PROBABILITY, PHASE_GAP_LIMIT
from collapsim.criterion import (
    criterion_fires,
    overlap_from_widths,
    phase_clause_batch,
    phase_distance,
)
from collapsim.selftest import random_packet_pair
from conftest import TWO_PI, fresh_packet, packets
import reference

HALF_ALPHA_S = FINE_STRUCTURE / 2.0


class TestOverlapIntegral:
    def test_identical_packets_give_one(self):
        p = fresh_packet(sigma=(1e-9, 2e-9, 5e-10))
        assert overlap_integral(p, p) == 1.0

    def test_width_mismatch_factor(self):
        # one axis with widths 1:2, other axes identical
        p1 = fresh_packet(sigma=(1e-3, 1e-3, 1e-3))
        p2 = fresh_packet(sigma=(2e-3, 1e-3, 1e-3))
        expected = math.sqrt(2.0 * 1.0 * 2.0 / (1.0 + 4.0))  # 0.8944271909999159
        got = overlap_integral(p1, p2)
        assert got == pytest.approx(expected, abs=1e-15)
        assert abs(got - overlap_integral_quadrature(p1, p2)) < 1e-8

    def test_equal_widths_gaussian_in_separation(self):
        s, d = 1e-6, 3e-6
        p1 = fresh_packet(center=0.0, sigma=s)
        p2 = fresh_packet(center=(d, 0.0, 0.0), sigma=s)
        assert overlap_integral(p1, p2) == pytest.approx(
            math.exp(-(d * d) / (8 * s * s)), rel=1e-12
        )

    def test_far_separation_vanishes(self):
        s = 1e-6
        p1 = fresh_packet(center=0.0, sigma=s)
        p2 = fresh_packet(center=(100.0 * s, 0.0, 0.0), sigma=s)
        assert overlap_integral(p1, p2) < 1e-100

    @given(packets(), packets())
    def test_symmetric_and_bounded(self, p1, p2):
        o12 = overlap_integral(p1, p2)
        assert o12 == overlap_integral(p2, p1)
        assert 0.0 <= o12 <= 1.0

    @given(packets(), st.floats(0.1, 10.0))
    def test_monotone_in_separation(self, p, factor):
        s = p.sigma[0]
        near = fresh_packet(center=(p.center[0] + factor * s, p.center[1], p.center[2]), sigma=p.sigma)
        far = fresh_packet(center=(p.center[0] + 2 * factor * s, p.center[1], p.center[2]), sigma=p.sigma)
        assert overlap_integral(p, far) < overlap_integral(p, near)

    @given(packets(), packets(), st.floats(-3, 3))
    def test_scale_invariance(self, p1, p2, log_k):
        k = 10.0**log_k
        q1 = fresh_packet(
            center=tuple(k * c for c in p1.center), sigma=tuple(k * s for s in p1.sigma)
        )
        q2 = fresh_packet(
            center=tuple(k * c for c in p2.center), sigma=tuple(k * s for s in p2.sigma)
        )
        a = overlap_integral(p1, p2)
        b = overlap_integral(q1, q2)
        if a > 0.0:
            # exp(-x) turns a relative rounding error e in x into a relative
            # error x * e in the result, and x is about |log a|.
            assert abs(a - b) <= 1e-12 * max(1.0, abs(math.log(a))) * a


class TestQuadratureOracle:
    def test_identical_packets(self):
        p = fresh_packet(sigma=(1e-9, 2e-9, 5e-10))
        assert abs(overlap_integral_quadrature(p, p) - 1.0) < 1e-8

    def test_agrees_with_closed_form_on_seeded_pairs(self):
        gen = np.random.default_rng(7)
        for _ in range(25):
            p1, p2 = random_packet_pair(gen)
            delta = abs(overlap_integral(p1, p2) - overlap_integral_quadrature(p1, p2))
            assert delta <= 1e-8

    def test_width_domain_enforced(self):
        with pytest.raises(ValueError):
            overlap_integral_quadrature(fresh_packet(sigma=10.0), fresh_packet(sigma=10.0))


class TestPhaseCriterion:
    def test_identical_phases(self):
        assert phase_distance(0.5, 0.5) == 0.0
        assert phase_clause_batch(0.5, np.array([0.5])).tolist() == [True]

    def test_wraparound_distance(self):
        dist = phase_distance(0.001, TWO_PI - 0.001)
        assert dist == pytest.approx(0.002, rel=1e-9)
        assert phase_clause_batch(0.001, np.array([TWO_PI - 0.001])).tolist() == [True]

    def test_gap_just_too_large(self):
        assert phase_distance(0.0, 0.01) == pytest.approx(0.01, rel=1e-12)
        assert 0.01 > HALF_ALPHA_S
        assert phase_clause_batch(0.0, np.array([0.01])).tolist() == [False]
        assert not criterion_fires(0.0, 0.01, (1e-9,) * 3, (1e-9,) * 3, (0.0,) * 3)

    def test_boundary_counts_as_pass(self):
        assert phase_distance(0.0, HALF_ALPHA_S) == HALF_ALPHA_S
        assert phase_clause_batch(0.0, np.array([HALF_ALPHA_S])).tolist() == [True]
        assert criterion_fires(0.0, HALF_ALPHA_S, (1e-9,) * 3, (1e-9,) * 3, (0.0,) * 3)

    @given(
        st.floats(0.0, TWO_PI, exclude_max=True),
        st.floats(0.0, TWO_PI, exclude_max=True),
    )
    def test_distance_is_circular_and_symmetric(self, a1, a2):
        d12 = phase_distance(a1, a2)
        assert d12 == phase_distance(a2, a1)
        assert 0.0 <= d12 <= math.pi
        batch = phase_clause_batch(np.array([a1, a2]), np.array([a2, a1])).tolist()
        assert batch == [d12 <= PHASE_GAP_LIMIT] * 2


def amplitude_decides(alpha: float, overlap_target: float) -> bool:
    """``criterion_fires`` for equal phase constants ``alpha`` (the phase
    clause passes) and equal widths whose separation on one axis gives the
    overlap ``overlap_target``."""
    s = 1e-9
    # exp(-d^2 / (8 s^2)) = overlap_target
    d = s * math.sqrt(-8.0 * math.log(overlap_target))
    assert overlap_from_widths((s,) * 3, (s,) * 3, (d, 0.0, 0.0)) == pytest.approx(
        overlap_target, rel=1e-12
    )
    return criterion_fires(alpha, alpha, (s,) * 3, (s,) * 3, (d, 0.0, 0.0))


class TestAmplitudeCriterion:
    def test_full_overlap_passes(self):
        assert amplitude_decides(math.pi / 2, 1.0)

    def test_partial_overlap_fails_large_alpha(self):
        # 0.5^2 = 0.25 lies between 1/(2 pi) and 3/(2 pi)
        assert 1.0 / TWO_PI < 0.25 < 3.0 / TWO_PI
        assert not amplitude_decides(3.0, 0.5)
        assert amplitude_decides(1.0, 0.5)

    def test_zero_boundary_equality_passes(self):
        # the overlap underflows to 0 and alpha_min is 0: 0 >= 0 holds
        s = 1e-9
        far = (1e3 * s, 0.0, 0.0)
        assert overlap_from_widths((s,) * 3, (s,) * 3, far) == 0.0
        assert criterion_fires(0.0, 0.0, (s,) * 3, (s,) * 3, far)


def encounter(p1, p2):
    """Plain-value arguments of ``criterion_fires`` for two packets."""
    separation = tuple(c2 - c1 for c1, c2 in zip(p1.center, p2.center))
    return p1.alpha, p2.alpha, p1.sigma, p2.sigma, separation


class TestEvaluateCriterion:
    def test_identical_small_alpha_fires(self):
        p = fresh_packet(alpha=0.001)
        assert criterion_fires(*encounter(p, p))
        assert overlap_integral(p, p) == 1.0
        assert phase_distance(p.alpha, p.alpha) == 0.0

    def test_opposite_phases_do_not_fire(self):
        assert not criterion_fires(*encounter(fresh_packet(alpha=0.0), fresh_packet(alpha=math.pi)))

    def test_far_packets_do_not_fire(self):
        s = 1e-6
        p1 = fresh_packet(center=0.0, sigma=s, alpha=1.0)
        p2 = fresh_packet(center=(100 * s, 0.0, 0.0), sigma=s, alpha=1.0)
        assert phase_distance(p1.alpha, p2.alpha) <= PHASE_GAP_LIMIT
        assert not criterion_fires(*encounter(p1, p2))

    @given(packets(), packets())
    def test_symmetry(self, p1, p2):
        assert criterion_fires(*encounter(p1, p2)) == criterion_fires(*encounter(p2, p1))

    def test_fires_only_when_both_clauses_hold(self):
        gen = np.random.default_rng(5)
        for _ in range(200):
            p1, p2 = random_packet_pair(gen)
            # also the same pair at equal phase constants, where the
            # amplitude clause decides
            for alpha2 in (p2.alpha, p1.alpha):
                a1, a2, s1, s2, separation = encounter(p1, p2)
                phase_ok = reference.phase_clause(a1, alpha2)
                amplitude_ok = reference.amplitude_clause(
                    reference.overlap(s1, s2, separation), a1, alpha2
                )
                assert criterion_fires(a1, alpha2, s1, s2, separation) == (
                    phase_ok and amplitude_ok
                )


class TestBatchEvaluator:
    def test_matches_scalar_path(self):
        gen = np.random.default_rng(99)
        a1 = TWO_PI * gen.random(5000)
        # half the pairs within a few gap limits of each other
        a2 = np.concatenate((TWO_PI * gen.random(2500), a1[2500:] + gen.uniform(-0.02, 0.02, 2500)))
        a2 = np.where(a2 < 0.0, a2 + TWO_PI, np.where(a2 >= TWO_PI, a2 - TWO_PI, a2))
        batch = phase_clause_batch(a1, a2)
        assert 0 < np.count_nonzero(batch) < 5000
        for i in range(0, 5000, 37):
            assert batch[i] == (phase_distance(float(a1[i]), float(a2[i])) <= PHASE_GAP_LIMIT)

    def test_statistical_acceptance_smoke(self):
        # quick version of the pinned statistics: at unit overlap the phase
        # clause alone decides; the full 1e7-pair run lives in the
        # acceptance suite
        n = 1_000_000
        gen = np.random.default_rng(42)
        a1 = TWO_PI * gen.random(n)
        a2 = TWO_PI * gen.random(n)
        fraction = np.count_nonzero(phase_clause_batch(a1, a2)) / n
        p = PHASE_ACCEPTANCE_PROBABILITY
        assert abs(fraction - p) <= 4.0 * math.sqrt(p * (1 - p) / n)
