"""Adaptive-quadrature oracles for the Gaussian overlap and normalization.

These integrate the Gaussian moduli pointwise, on the closed forms' plain
values (widths, and the separation center_1 - center_2 with the second center
at the origin), as an independent check on :mod:`collapsim.criterion`.  Each
axis is integrated over [min center - 10 sigma_max, max center + 10 sigma_max]
after an affine rescaling that puts the bulk of the product near the origin
with unit width; the rescaling only conditions the integrand, it cannot bias
the result.
"""

from __future__ import annotations

import math
import warnings

from scipy.integrate import IntegrationWarning, quad

from .packets import Vec3

# Beyond this many product-widths from the product center the integrand is
# below exp(-450); truncating there changes nothing at 1e-8 tolerance.
_TAIL_CUT = 42.0

_MIN_SIGMA = 1e-15
_MAX_SIGMA = 1.0


class QuadratureError(RuntimeError):
    """Raised when the adaptive integrator cannot reach the requested accuracy."""


def _axis_quad(c1: float, s1: float, c2: float, s2: float) -> float:
    """Quadrature of one Cartesian factor of |psi_1||psi_2|."""
    s_max = max(s1, s2)
    lo = min(c1, c2) - 10.0 * s_max
    hi = max(c1, c2) + 10.0 * s_max

    # Rescale around the product-Gaussian bulk: location and width of the
    # product are used only as a change of variables.
    ss = s1 * s1 + s2 * s2
    w = s1 * s2 / math.sqrt(ss)
    m = (c1 * s2 * s2 + c2 * s1 * s1) / ss

    u_lo = max((lo - m) / w, -_TAIL_CUT)
    u_hi = min((hi - m) / w, _TAIL_CUT)
    if u_lo >= u_hi:
        return 0.0

    n1 = (2.0 * math.pi * s1 * s1) ** -0.25
    n2 = (2.0 * math.pi * s2 * s2) ** -0.25

    def integrand(u: float) -> float:
        x = m + w * u
        e1 = (x - c1) / s1
        e2 = (x - c2) / s2
        return w * n1 * n2 * math.exp(-0.25 * (e1 * e1 + e2 * e2))

    interior = [u for u in ((c1 - m) / w, (c2 - m) / w, 0.0) if u_lo < u < u_hi]
    with warnings.catch_warnings():
        # roundoff warnings at this tolerance are expected; the returned
        # error estimate is checked explicitly below
        warnings.simplefilter("ignore", IntegrationWarning)
        value, err = quad(
            integrand,
            u_lo,
            u_hi,
            points=sorted(set(interior)) or None,
            epsabs=1e-11,
            epsrel=1e-11,
            limit=200,
        )
    if err > 1e-9:
        raise QuadratureError(
            f"axis quadrature did not converge: estimate {value!r}, error {err!r}, "
            f"centers ({c1}, {c2}), widths ({s1}, {s2})"
        )
    return value


def _check_widths(sigmas) -> None:
    for s in sigmas:
        if not (_MIN_SIGMA <= s <= _MAX_SIGMA):
            raise ValueError(f"widths must lie within [{_MIN_SIGMA}, {_MAX_SIGMA}] m, got {s}")


def overlap_integral_quadrature(sigma1: Vec3, sigma2: Vec3, separation: Vec3) -> float:
    """Numerical integral of |psi_1| * |psi_2| over all space, for widths
    sigma1, sigma2 and centers ``separation`` = center_1 - center_2 apart.

    Widths must lie within [1e-15, 1] m so the rescaled integrand stays
    well conditioned, and the separation must be finite.  Agrees with the
    analytic overlap to 1e-8 absolute.
    """
    _check_widths((*sigma1, *sigma2))
    if not all(map(math.isfinite, separation)):
        raise ValueError(f"separation must be finite, got {separation!r}")
    out = 1.0
    for d, s1, s2 in zip(separation, sigma1, sigma2, strict=True):
        out *= _axis_quad(d, s1, 0.0, s2)
    return out


def norm_quadrature(sigma: Vec3) -> float:
    """Numerical integral of |psi|^2 over all space for widths sigma (should be 1)."""
    _check_widths(sigma)
    out = 1.0
    for s in sigma:
        norm = (2.0 * math.pi * s * s) ** -0.5

        def integrand(u: float) -> float:
            return s * norm * math.exp(-0.5 * u * u)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            value, err = quad(integrand, -_TAIL_CUT, _TAIL_CUT, epsabs=1e-11, limit=200)
        if err > 1e-9:
            raise QuadratureError(f"norm quadrature did not converge for sigma={s}")
        out *= value
    return out
