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
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, PLANCK_H

TWO_PI = 2.0 * math.pi

Vec3 = tuple[float, float, float]


def as_vec3(value, name: str) -> Vec3:
    """Coerce a scalar or length-3 sequence to a tuple of three floats."""
    if isinstance(value, (int, float)):
        v = float(value)
        return (v, v, v)
    seq = tuple(float(x) for x in value)
    if len(seq) != 3:
        raise ValueError(f"{name} must be a scalar or a length-3 sequence, got {value!r}")
    return seq


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


_INF = math.inf


# Kept only for the benchmark's traced mode, which wraps __post_init__ to
# count constructions; nothing in the package builds one or exports it.
@dataclass(frozen=True, slots=True)
class GaussianPacket:
    """Normalized Gaussian wavepacket with an absolute phase constant."""

    center: Vec3
    sigma: Vec3
    velocity: Vec3
    mass: float
    alpha: float
    t_ref: float

    def __post_init__(self) -> None:
        setattr_ = object.__setattr__
        setattr_(self, "center", as_vec3(self.center, "center"))
        setattr_(self, "sigma", as_vec3(self.sigma, "sigma"))
        setattr_(self, "velocity", as_vec3(self.velocity, "velocity"))
        setattr_(self, "mass", float(self.mass))
        setattr_(self, "t_ref", float(self.t_ref))
        setattr_(self, "alpha", reduce_phase(self.alpha))
        if not all(0.0 < s < _INF for s in self.sigma):
            raise ValueError(f"sigma components must be positive and finite, got {self.sigma}")
        if not 0.0 < self.mass < _INF:
            raise ValueError(f"mass must be positive and finite, got {self.mass}")
        coordinates = self.center + self.velocity + (self.t_ref,)
        if not all(-_INF < x < _INF for x in coordinates):
            raise ValueError("center, velocity and t_ref must be finite")


def de_broglie_wavelength(mass: float, v0: float) -> float:
    """Matter wavelength h / (m * v) of an object moving at speed v0."""
    if not mass > 0.0:
        raise ValueError(f"mass must be positive, got {mass}")
    if not v0 > 0.0:
        raise ValueError(f"v0 must be positive, got {v0}")
    return PLANCK_H / (mass * v0)


def spreading_velocity(diameter: float, mass: float) -> float:
    """Asymptotic width-growth rate hbar / (d * m) of a free packet.

    ``diameter`` is the minimum diameter at the beginning of spreading,
    identified with twice the |psi|^2 standard deviation.
    """
    if not diameter > 0.0:
        raise ValueError(f"diameter must be positive, got {diameter}")
    if not mass > 0.0:
        raise ValueError(f"mass must be positive, got {mass}")
    return HBAR / (diameter * mass)


def spreading_velocity_via_lambda(wavelength: float, v0: float, diameter: float) -> float:
    """Spreading rate written through the matter wavelength: lambda * v0 / (2 pi d)."""
    if not wavelength > 0.0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    if not v0 > 0.0:
        raise ValueError(f"v0 must be positive, got {v0}")
    if not diameter > 0.0:
        raise ValueError(f"diameter must be positive, got {diameter}")
    return wavelength * v0 / (TWO_PI * diameter)


def spread_widths(sigma0: Vec3, mass: float, dt):
    """Per-axis widths a time dt after a waist of widths sigma0.

    Each axis follows the free-Schroedinger law

        sigma(dt) = sigma0 * sqrt(1 + q^2),  q = hbar * dt / (2 m sigma0^2)

    ``dt`` is a float or a numpy array of times; an array gives one array per
    axis whose elements equal the float results bit for bit.  Both forms
    square as ``q * q`` (``q ** 2`` on a float calls the C ``pow``, which is
    not correctly rounded) and take a correctly rounded square root.  A
    square that overflows gives ``inf``; it does not raise.
    """
    sqrt = np.sqrt if isinstance(dt, np.ndarray) else math.sqrt
    k = HBAR * dt / (2.0 * mass)
    s1, s2, s3 = sigma0
    q1, q2, q3 = k / (s1 * s1), k / (s2 * s2), k / (s3 * s3)
    return (
        s1 * sqrt(1.0 + q1 * q1),
        s2 * sqrt(1.0 + q2 * q2),
        s3 * sqrt(1.0 + q3 * q3),
    )

