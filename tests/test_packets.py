import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsim import (
    ObjectSpec,
    de_broglie_wavelength,
    norm_quadrature,
    spreading_velocity,
    spreading_velocity_via_lambda,
)
from collapsim.constants import FINE_STRUCTURE, HBAR, PLANCK_H
from collapsim.packets import reduce_phase, spread_into, spread_widths
from conftest import TWO_PI, log_uniform, masses, widths
import reference


class TestConstants:
    def test_h_is_two_pi_hbar(self):
        assert math.isclose(PLANCK_H, TWO_PI * HBAR, rel_tol=1e-15)

    def test_alpha_s_range(self):
        assert 7.29e-3 < FINE_STRUCTURE < 7.30e-3


class TestDeBroglie:
    def test_light_molecule(self):
        lam = de_broglie_wavelength(1.7e-23, 10.0)
        assert lam == pytest.approx(3.90e-12, rel=1e-2)
        assert abs(lam - 4e-12) / 4e-12 < 0.05

    def test_heavy_grain(self):
        lam = de_broglie_wavelength(1e-7, 10.0)
        assert lam == pytest.approx(6.63e-28, rel=1e-2)
        assert abs(lam - 7e-28) / 7e-28 < 0.10

    def test_depends_only_on_momentum(self):
        assert de_broglie_wavelength(2e-20, 5.0) == de_broglie_wavelength(1e-20, 10.0)

    @pytest.mark.parametrize("mass,v0", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_domain_errors(self, mass, v0):
        with pytest.raises(ValueError):
            de_broglie_wavelength(mass, v0)


class TestSpreadingVelocity:
    def test_light_molecule(self):
        v = spreading_velocity(1e-10, 1.7e-23)
        assert abs(v - 6e-2) / 6e-2 < 0.10
        assert v == pytest.approx(6.2e-2, rel=1e-2)

    def test_heavy_grain(self):
        v = spreading_velocity(1e-10, 1e-7)
        assert v == pytest.approx(1.05e-17, rel=1e-2)

    def test_depends_only_on_product(self):
        assert spreading_velocity(2e-10, 0.5e-7) == spreading_velocity(1e-10, 1e-7)

    @pytest.mark.parametrize("d,m", [(0.0, 1.0), (-1e-10, 1.0), (1e-10, 0.0)])
    def test_domain_errors(self, d, m):
        with pytest.raises(ValueError):
            spreading_velocity(d, m)


class TestSpreadingViaWavelength:
    def test_matches_direct_route_for_molecule(self):
        lam = de_broglie_wavelength(1.7e-23, 10.0)
        v1 = spreading_velocity_via_lambda(lam, 10.0, 1e-10)
        v2 = spreading_velocity(1e-10, 1.7e-23)
        assert abs(v1 - v2) / v2 < 1e-12

    def test_units_cancel(self):
        d = 3.7e-9
        assert spreading_velocity_via_lambda(TWO_PI * d, 1.0, d) == pytest.approx(1.0, rel=1e-15)

    def test_heavy_grain_substitution(self):
        v = spreading_velocity_via_lambda(6.62607015e-28, 10.0, 1e-10)
        assert v == pytest.approx(spreading_velocity(1e-10, 1e-7), rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            spreading_velocity_via_lambda(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            spreading_velocity_via_lambda(1.0, -1.0, 1.0)

    @given(
        st.floats(-30, 0),
        st.floats(-3, 4),
        st.floats(-12, -2),
    )
    def test_identity_property(self, log_m, log_v, log_d):
        m, v0, d = 10.0**log_m, 10.0**log_v, 10.0**log_d
        via = spreading_velocity_via_lambda(de_broglie_wavelength(m, v0), v0, d)
        direct = spreading_velocity(d, m)
        assert abs(via - direct) / direct < 1e-12


class TestEvolveFree:
    """Free evolution of the widths, read out from the waist by
    :func:`spread_widths`."""

    def test_zero_dt_is_identity(self):
        sigma = (1e-9, 2e-9, 3e-9)
        assert spread_widths(sigma, 1e-20, 0.0) == sigma

    def test_width_law(self):
        s0, m, dt = 5e-11, 1.7e-23, 1e-6
        x = HBAR * dt / (2.0 * m * s0 * s0)
        assert spread_widths((s0,) * 3, m, dt)[0] == pytest.approx(
            s0 * math.sqrt(1.0 + x * x), rel=1e-15
        )

    def test_asymptotic_slope_matches_spreading_velocity(self):
        # finite-difference slope deep in the linear regime
        s0, m = 5e-11, 1.7e-23
        sigma = (s0,) * 3
        t = 1e4 * 2.0 * m * s0 * s0 / HBAR  # bracket term dominates 1e4x
        h = t * 1e-3
        slope = (spread_widths(sigma, m, t + h)[0] - spread_widths(sigma, m, t - h)[0]) / (2 * h)
        assert slope == pytest.approx(spreading_velocity(2.0 * s0, m), rel=1e-6)

    def test_heavy_grain_yearly_growth(self):
        growth = spread_widths((5e-11,) * 3, 1e-7, 3.15e7)[0] - 5e-11
        assert growth <= 3.4e-10
        assert growth >= 2.0e-10

    @given(widths, masses, st.floats(1e-9, 1e6), st.floats(1e-9, 1e6))
    @settings(max_examples=200)
    def test_semigroup_on_widths(self, sigma, mass, t1, t2):
        # One hop of the engine's law against two hops of the complex width.
        one_hop = spread_widths(sigma, mass, t1 + t2)
        for s0, b in zip(sigma, one_hop):
            a = reference.complex_width(reference.complex_width(s0 * s0, mass, t1), mass, t2)
            assert abs(reference.width_of(a) - b) <= 1e-12 * b

    @given(widths, masses, st.floats(0.0, 1e6), st.floats(0.0, 1e6))
    def test_width_never_decreases(self, sigma, mass, ta, tb):
        lo, hi = sorted((ta, tb))
        early = spread_widths(sigma, mass, lo)
        late = spread_widths(sigma, mass, hi)
        assert all(b >= a for a, b in zip(early, late))

    def test_normalization_preserved(self, gen):
        for _ in range(10):
            sigma = tuple(log_uniform(gen, 1e-12, 1e-2, 3))
            assert abs(norm_quadrature(spread_widths(sigma, 1e-20, 1e-3)) - 1.0) < 1e-8


class TestSpreadWidths:
    def test_array_form_equals_float_form_bitwise(self, gen):
        for _ in range(20):
            sigma0 = tuple(log_uniform(gen, 1e-12, 1e-2, 3))
            mass = float(log_uniform(gen, 1e-25, 1e-5))
            dt = log_uniform(gen, 1e-12, 1e2, 500)
            arrays = spread_into(sigma0, mass, dt.copy(), np.empty((3, dt.size)))
            for i, d in enumerate(dt.tolist()):
                assert tuple(a[i] for a in arrays) == spread_widths(sigma0, mass, d)

    def test_isotropic_waist_spreads_one_axis(self, gen):
        sigma0, mass = (2e-9,) * 3, 1e-20
        dt = log_uniform(gen, 1e-12, 1e2, 100)
        out = np.full((3, 100), np.nan)
        x, y, z = spread_into(sigma0, mass, dt.copy(), out)
        assert x is y is z and np.shares_memory(x, out[0])
        assert np.isnan(out[1:]).all()
        for i, d in enumerate(dt.tolist()):
            assert (x[i],) * 3 == spread_widths(sigma0, mass, d)

    def test_overflow_gives_inf(self):
        assert spread_widths((1e-15,) * 3, 1e-300, 1.0) == (math.inf,) * 3


def linear_law_error(sigma0: float, mass: float, dt: float) -> float:
    """Relative error of the asymptotic law sigma = hbar dt / (d m), d = 2 sigma0,
    against the spreading law."""
    sigma = spread_widths((sigma0,) * 3, mass, dt)[0]
    return abs(sigma - spreading_velocity(2.0 * sigma0, mass) * dt) / sigma


class TestAsymptoticRegimeCheck:
    """Once q = hbar dt / (2 m sigma0^2) exceeds 10 the width grows linearly
    in time to better than 1 part in 200."""

    def test_zero_dt(self):
        assert spread_widths((5e-11,) * 3, 1.7e-23, 0.0) == (5e-11,) * 3
        assert linear_law_error(5e-11, 1.7e-23, 0.0) == 1.0

    def test_light_molecule_after_one_second(self):
        ratio = HBAR * 1.0 / (2 * 1.7e-23 * (5e-11) ** 2)
        assert ratio > 10
        assert linear_law_error(5e-11, 1.7e-23, 1.0) < 1.0 / 200.0

    def test_heavy_grain_after_one_second(self):
        ratio = HBAR * 1.0 / (2 * 1e-7 * (5e-11) ** 2)
        assert ratio < 10
        assert linear_law_error(5e-11, 1e-7, 1.0) > 1.0 / 200.0


class TestReducePhase:
    def test_turns_removed(self):
        assert reduce_phase(2 * TWO_PI + 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_negative_wraps_into_range(self):
        assert 0.0 <= reduce_phase(-0.5) < TWO_PI

    @given(st.floats(-100.0, 100.0, allow_nan=False))
    def test_reduced_alpha_in_range(self, alpha):
        assert 0.0 <= reduce_phase(alpha) < TWO_PI


class TestObjectSpec:
    def test_basic_fields(self):
        spec = ObjectSpec(mass=1e-7, internal_radius=2.5e-4, cluster_alphas=(0.1, 0.2))
        assert spec.n_clusters == 2
        assert spec.diameter == 5e-4

    def test_cluster_alphas_reduced(self):
        spec = ObjectSpec(mass=1.0, internal_radius=1.0, cluster_alphas=(TWO_PI + 0.25,))
        assert spec.cluster_alphas[0] == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mass=0.0, internal_radius=1.0, cluster_alphas=(0.0,)),
            dict(mass=1.0, internal_radius=0.0, cluster_alphas=(0.0,)),
            dict(mass=1.0, internal_radius=math.inf, cluster_alphas=(0.0,)),
            dict(mass=1.0, internal_radius=1.0, cluster_alphas=()),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ObjectSpec(**kwargs)
