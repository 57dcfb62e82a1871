"""Parametric Gaussian wavepackets and the kinematic formulas built on them.

A packet is fully described by its center, per-axis width (standard deviation
of |psi|^2), drift velocity, mass and phase constant.  The modulus is the
separable normalized Gaussian

    |psi(r)| = prod_axis (2 pi sigma^2)^(-1/4) exp(-(x - c)^2 / (4 sigma^2))

so that the position density |psi|^2 integrates to one by construction.

Free evolution is anchored at ``t_ref``, the time of the packet's creation or
last contraction, where the packet is at its narrowest (a contraction of two
real Gaussians produces a real Gaussian, i.e. a waist).  ``ref_center`` and
``ref_sigma`` hold the state at ``t_ref``; ``center`` and ``sigma`` hold the
state at the time the packet was last read out.  Evolving a packet to any
``t >= t_ref`` is an exact, composable readout of the same trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .constants import CODATA, PhysicalConstants

TWO_PI = 2.0 * math.pi

# Above this value of hbar*dt / (2 m sigma0^2) the width growth is linear in
# time to better than 1 part in 200; used by asymptotic_regime_check.
SPREADING_LINEAR_THRESHOLD = 10.0

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


@dataclass(frozen=True, slots=True)
class GaussianPacket:
    """Normalized Gaussian wavepacket with an absolute phase constant."""

    center: Vec3
    sigma: Vec3
    velocity: Vec3
    mass: float
    alpha: float
    t_ref: float
    ref_center: Vec3 = field(default=None)  # type: ignore[assignment]
    ref_sigma: Vec3 = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        setattr_ = object.__setattr__
        setattr_(self, "center", as_vec3(self.center, "center"))
        setattr_(self, "sigma", as_vec3(self.sigma, "sigma"))
        setattr_(self, "velocity", as_vec3(self.velocity, "velocity"))
        setattr_(self, "mass", float(self.mass))
        setattr_(self, "t_ref", float(self.t_ref))
        setattr_(self, "alpha", reduce_phase(self.alpha))
        if self.ref_center is None:
            setattr_(self, "ref_center", self.center)
        else:
            setattr_(self, "ref_center", as_vec3(self.ref_center, "ref_center"))
        if self.ref_sigma is None:
            setattr_(self, "ref_sigma", self.sigma)
        else:
            setattr_(self, "ref_sigma", as_vec3(self.ref_sigma, "ref_sigma"))
        if not all(0.0 < s < _INF for s in self.sigma + self.ref_sigma):
            raise ValueError(f"sigma components must be positive and finite, got {self.sigma}")
        if not 0.0 < self.mass < _INF:
            raise ValueError(f"mass must be positive and finite, got {self.mass}")
        coordinates = self.center + self.velocity + self.ref_center + (self.t_ref,)
        if not all(-_INF < x < _INF for x in coordinates):
            raise ValueError("center, velocity and t_ref must be finite")


@dataclass(frozen=True)
class ObjectSpec:
    """Physical object: total mass, internal size and cluster phase constants.

    The object's internal structure enters only through ``internal_radius``
    (half the width of the internal density's effective support) and the list
    of phase constants of the clusters it is composed of.
    """

    mass: float
    internal_radius: float
    v0: float
    cluster_alphas: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mass", float(self.mass))
        object.__setattr__(self, "internal_radius", float(self.internal_radius))
        object.__setattr__(self, "v0", float(self.v0))
        object.__setattr__(
            self, "cluster_alphas", tuple(reduce_phase(a) for a in self.cluster_alphas)
        )
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise ValueError(f"mass must be positive, got {self.mass}")
        if not (self.internal_radius > 0.0 and math.isfinite(self.internal_radius)):
            raise ValueError(f"internal_radius must be positive, got {self.internal_radius}")
        if not (self.v0 >= 0.0 and math.isfinite(self.v0)):
            raise ValueError(f"v0 must be non-negative, got {self.v0}")
        if len(self.cluster_alphas) < 1:
            raise ValueError("at least one cluster phase constant is required")

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_alphas)

    @property
    def diameter(self) -> float:
        return 2.0 * self.internal_radius


def de_broglie_wavelength(mass: float, v0: float, constants: PhysicalConstants = CODATA) -> float:
    """Matter wavelength h / (m * v) of an object moving at speed v0."""
    if not mass > 0.0:
        raise ValueError(f"mass must be positive, got {mass}")
    if not v0 > 0.0:
        raise ValueError(f"v0 must be positive, got {v0}")
    return constants.h / (mass * v0)


def spreading_velocity(diameter: float, mass: float, constants: PhysicalConstants = CODATA) -> float:
    """Asymptotic width-growth rate hbar / (d * m) of a free packet.

    ``diameter`` is the minimum diameter at the beginning of spreading,
    identified with twice the |psi|^2 standard deviation.
    """
    if not diameter > 0.0:
        raise ValueError(f"diameter must be positive, got {diameter}")
    if not mass > 0.0:
        raise ValueError(f"mass must be positive, got {mass}")
    return constants.hbar / (diameter * mass)


def spreading_velocity_via_lambda(wavelength: float, v0: float, diameter: float) -> float:
    """Spreading rate written through the matter wavelength: lambda * v0 / (2 pi d)."""
    if not wavelength > 0.0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    if not v0 > 0.0:
        raise ValueError(f"v0 must be positive, got {v0}")
    if not diameter > 0.0:
        raise ValueError(f"diameter must be positive, got {diameter}")
    return wavelength * v0 / (TWO_PI * diameter)


def spread_widths(
    sigma0: Vec3, mass: float, dt: float, constants: PhysicalConstants = CODATA
) -> Vec3:
    """Per-axis widths a time dt after a waist of widths sigma0.

    Each axis follows the free-Schroedinger law

        sigma(dt) = sigma0 * sqrt(1 + (hbar * dt / (2 m sigma0^2))^2)
    """
    k = constants.hbar * dt / (2.0 * mass)
    s1, s2, s3 = sigma0
    return (
        s1 * math.sqrt(1.0 + (k / (s1 * s1)) ** 2),
        s2 * math.sqrt(1.0 + (k / (s2 * s2)) ** 2),
        s3 * math.sqrt(1.0 + (k / (s3 * s3)) ** 2),
    )


def evolve_free(packet: GaussianPacket, t: float, constants: PhysicalConstants = CODATA) -> GaussianPacket:
    """Free-Schroedinger readout of the packet at time t >= t_ref.

    The center drifts with the packet velocity and the widths follow
    :func:`spread_widths` from the waist at ``t_ref``.  Anchoring at ``t_ref``
    makes repeated readouts compose exactly: evolving to t1 and then to t2
    equals evolving straight to t2.
    """
    dt = t - packet.t_ref
    if dt < 0.0:
        raise ValueError(f"cannot evolve backwards: t={t} < t_ref={packet.t_ref}")
    c1, c2, c3 = packet.ref_center
    v1, v2, v3 = packet.velocity
    center_t = (c1 + v1 * dt, c2 + v2 * dt, c3 + v3 * dt)
    return GaussianPacket(
        center=center_t,
        sigma=spread_widths(packet.ref_sigma, packet.mass, dt, constants),
        velocity=packet.velocity,
        mass=packet.mass,
        alpha=packet.alpha,
        t_ref=packet.t_ref,
        ref_center=packet.ref_center,
        ref_sigma=packet.ref_sigma,
    )


def asymptotic_regime_check(packet: GaussianPacket, t: float, constants: PhysicalConstants = CODATA) -> bool:
    """True when the linear spreading law is valid on every axis at time t.

    Compares hbar*dt / (2 m sigma0^2) against a fixed threshold of 10.
    """
    dt = t - packet.t_ref
    if dt < 0.0:
        raise ValueError(f"cannot evaluate before t_ref: t={t} < t_ref={packet.t_ref}")
    k = constants.hbar * dt / (2.0 * packet.mass)
    return all(k / (s0 * s0) > SPREADING_LINEAR_THRESHOLD for s0 in packet.ref_sigma)
