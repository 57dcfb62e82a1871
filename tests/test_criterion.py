import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsim import (
    amplitude_criterion,
    criterion_fires_batch,
    evaluate_criterion,
    overlap_integral,
    overlap_integral_quadrature,
    phase_criterion,
)
from collapsim.constants import FINE_STRUCTURE, PHASE_ACCEPTANCE_PROBABILITY
from collapsim.selftest import random_packet_pair
from conftest import TWO_PI, fresh_packet, packets

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
        assert phase_criterion(0.5, 0.5) == (True, 0.0)

    def test_wraparound_distance(self):
        ok, dist = phase_criterion(0.001, TWO_PI - 0.001)
        assert ok is True
        assert dist == pytest.approx(0.002, rel=1e-9)

    def test_gap_just_too_large(self):
        ok, dist = phase_criterion(0.0, 0.01)
        assert ok is False
        assert dist == pytest.approx(0.01, rel=1e-12)
        assert 0.01 > HALF_ALPHA_S

    def test_boundary_counts_as_pass(self):
        ok, dist = phase_criterion(0.0, HALF_ALPHA_S)
        assert ok is True and dist == HALF_ALPHA_S

    @pytest.mark.parametrize("a1,a2", [(-0.1, 0.0), (0.0, TWO_PI), (7.0, 0.0)])
    def test_domain_errors(self, a1, a2):
        with pytest.raises(ValueError):
            phase_criterion(a1, a2)

    @given(
        st.floats(0.0, TWO_PI, exclude_max=True),
        st.floats(0.0, TWO_PI, exclude_max=True),
    )
    def test_distance_is_circular_and_symmetric(self, a1, a2):
        ok12, d12 = phase_criterion(a1, a2)
        ok21, d21 = phase_criterion(a2, a1)
        assert (ok12, d12) == (ok21, d21)
        assert 0.0 <= d12 <= math.pi


class TestAmplitudeCriterion:
    def test_full_overlap_passes(self):
        assert amplitude_criterion(1.0, math.pi, math.pi / 2) == (True, math.pi / 2)

    def test_partial_overlap_fails_large_alpha(self):
        ok, alpha_min = amplitude_criterion(0.5, math.pi, 3.0)
        assert ok is False and alpha_min == 3.0
        assert 0.25 < 3.0 / TWO_PI

    def test_zero_boundary_equality_passes(self):
        assert amplitude_criterion(0.0, 0.0, 1.0) == (True, 0.0)

    @pytest.mark.parametrize("overlap", [-0.1, 1.5])
    def test_overlap_domain(self, overlap):
        with pytest.raises(ValueError):
            amplitude_criterion(overlap, 0.0, 0.0)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            amplitude_criterion(0.5, TWO_PI, 0.0)


class TestEvaluateCriterion:
    def test_identical_small_alpha_fires(self):
        p1 = fresh_packet(alpha=0.001)
        p2 = fresh_packet(alpha=0.001, mass=1.0)
        out = evaluate_criterion(p1, p2)
        assert out.fires and out.phase_ok and out.amplitude_ok
        assert out.overlap == 1.0
        assert out.phase_distance == 0.0

    def test_opposite_phases_do_not_fire(self):
        out = evaluate_criterion(fresh_packet(alpha=0.0), fresh_packet(alpha=math.pi))
        assert out.phase_ok is False
        assert out.fires is False

    def test_far_packets_do_not_fire(self):
        s = 1e-6
        p1 = fresh_packet(center=0.0, sigma=s, alpha=1.0)
        p2 = fresh_packet(center=(100 * s, 0.0, 0.0), sigma=s, alpha=1.0)
        out = evaluate_criterion(p1, p2)
        assert out.phase_ok is True
        assert out.amplitude_ok is False
        assert out.fires is False

    @given(packets(), packets())
    def test_symmetry(self, p1, p2):
        assert evaluate_criterion(p1, p2) == evaluate_criterion(p2, p1)

    def test_fires_only_when_both_clauses_hold(self):
        gen = np.random.default_rng(5)
        for _ in range(200):
            p1, p2 = random_packet_pair(gen)
            out = evaluate_criterion(p1, p2)
            assert out.fires == (out.phase_ok and out.amplitude_ok)


class TestBatchEvaluator:
    def test_matches_scalar_path(self):
        gen = np.random.default_rng(99)
        a1 = TWO_PI * gen.random(5000)
        a2 = TWO_PI * gen.random(5000)
        ov = gen.random(5000)
        batch = criterion_fires_batch(a1, a2, ov)
        for i in range(0, 5000, 37):
            phase_ok, _ = phase_criterion(float(a1[i]), float(a2[i]))
            amp_ok, _ = amplitude_criterion(float(ov[i]), float(a1[i]), float(a2[i]))
            assert batch[i] == (phase_ok and amp_ok)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            criterion_fires_batch(np.array([7.0]), np.array([0.0]), 1.0)
        with pytest.raises(ValueError):
            criterion_fires_batch(np.array([0.0]), np.array([0.0]), 2.0)

    def test_statistical_acceptance_smoke(self):
        # quick version of the pinned-overlap statistics; the full 1e7-pair
        # run lives in the acceptance suite
        n = 1_000_000
        gen = np.random.default_rng(42)
        a1 = TWO_PI * gen.random(n)
        a2 = TWO_PI * gen.random(n)
        fraction = np.count_nonzero(criterion_fires_batch(a1, a2, 1.0)) / n
        p = PHASE_ACCEPTANCE_PROBABILITY
        assert abs(fraction - p) <= 4.0 * math.sqrt(p * (1 - p) / n)
