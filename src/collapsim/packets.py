"""Gaussian wavepacket widths and the kinematic formulas built on them.

The object is a separable normalized Gaussian; its modulus is

    |psi(r)| = prod_axis (2 pi sigma^2)^(-1/4) exp(-(x - c)^2 / (4 sigma^2))

so that the position density |psi|^2 integrates to one by construction.  The
program carries it as plain values: per-axis widths and a phase constant,
with centers entering only as the separation of two packets.

Free evolution is anchored at a waist, the time of the packet's creation or
last contraction, where the packet is at its narrowest (a contraction of two
real Gaussians produces a real Gaussian, i.e. a waist).  :func:`spread_widths`
reads the widths out a time dt after the waist, so any readout is exact and
none depends on an earlier one.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import HBAR, PLANCK_H

TWO_PI = 2.0 * math.pi

Vec3 = tuple[float, float, float]


def reduce_phase(alpha: float) -> float:
    """Reduce a phase constant into [0, 2*pi)."""
    a = float(alpha)
    if 0.0 <= a < TWO_PI:
        return a
    if not math.isfinite(a):
        raise ValueError(f"phase constant must be finite, got {alpha!r}")
    a = math.fmod(a, TWO_PI)
    if a < 0.0:
        a += TWO_PI
    if a >= TWO_PI:  # fmod rounding at the seam
        a = 0.0
    return a


class GaussianPacket:
    """Kept only for the benchmark's traced mode, which wraps
    ``__post_init__`` to count packets built; nothing builds one."""

    def __post_init__(self) -> None:
        pass


def _require_positive(**values: float) -> None:
    """Refuse the first of ``values`` that is not positive, by its name."""
    for name, x in values.items():
        if not x > 0.0:
            raise ValueError(f"{name} must be positive, got {x}")


def de_broglie_wavelength(mass: float, v0: float) -> float:
    """Matter wavelength h / (m * v) of an object moving at speed v0."""
    _require_positive(mass=mass, v0=v0)
    return PLANCK_H / (mass * v0)


def spreading_velocity(diameter: float, mass: float) -> float:
    """Asymptotic width-growth rate hbar / (d * m) of a free packet.

    ``diameter`` is the minimum diameter at the beginning of spreading,
    identified with twice the |psi|^2 standard deviation.
    """
    _require_positive(diameter=diameter, mass=mass)
    return HBAR / (diameter * mass)


def spreading_velocity_via_lambda(wavelength: float, v0: float, diameter: float) -> float:
    """Spreading rate written through the matter wavelength: lambda * v0 / (2 pi d)."""
    _require_positive(wavelength=wavelength, v0=v0, diameter=diameter)
    return wavelength * v0 / (TWO_PI * diameter)


def spread_widths(sigma0: Vec3, mass: float, dt: float) -> Vec3:
    """Per-axis widths a time dt after a waist of widths sigma0.

    Each axis follows the free-Schroedinger law

        sigma(dt) = sigma0 * sqrt(1 + q^2),  q = hbar * dt / (2 m sigma0^2)

    :func:`spread_into` takes an array of times and gives elements that
    equal these results bit for bit.  Both square as ``q * q`` (``q ** 2`` on
    a float calls the C ``pow``, which is not correctly rounded) and take a
    correctly rounded square root.  A square that overflows gives ``inf``;
    it does not raise.
    """
    k = HBAR * dt / (2.0 * mass)
    s1, s2, s3 = sigma0
    q1, q2, q3 = k / (s1 * s1), k / (s2 * s2), k / (s3 * s3)
    return (
        s1 * math.sqrt(1.0 + q1 * q1),
        s2 * math.sqrt(1.0 + q2 * q2),
        s3 * math.sqrt(1.0 + q3 * q3),
    )


def spread_into(sigma0: Vec3, mass: float, dt: np.ndarray, out: np.ndarray) -> tuple:
    """:func:`spread_widths` of an array ``dt`` of floats, computed in place.

    ``sigma0`` is three widths: floats, or arrays shaped like ``dt`` that
    give each element its own waist.  The widths go into the rows of
    ``out``, each shaped like ``dt``, and ``dt`` is overwritten; nothing else
    is allocated but a square per axis of array widths.  An isotropic waist,
    three bit-equal floats or one array given thrice, spreads one axis into
    ``out[0]``, which then stands for all three.  Returns the three width
    arrays.
    """
    k = np.multiply(dt, HBAR, out=dt)
    np.divide(k, 2.0 * mass, out=k)
    s1, s2, s3 = sigma0
    axes = (s1,) if s1 is s2 is s3 or np.ndim(s1) == 0 and s1 == s2 == s3 else sigma0
    for s, q in zip(axes, out):
        np.divide(k, s * s, out=q)
        np.multiply(q, q, out=q)
        np.add(q, 1.0, out=q)
        np.sqrt(q, out=q)
        np.multiply(q, s, out=q)
    return (out[0],) * 3 if len(axes) == 1 else tuple(out[:3])
