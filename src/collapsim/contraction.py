"""Contraction of two overlapping packets to their common support.

The product of two Gaussian moduli is itself Gaussian-shaped; its mean and
standard deviation define where the product is effectively concentrated.
Collapse replaces a packet by the normalized Gaussian with exactly that
mean and width, so the family stays closed and every contraction is
analytic.  Only the object's contracted packet is built: the environment
partner is discarded after its encounter.  Per axis:

    sigma_p^2 = s1^2 s2^2 / (s1^2 + s2^2)
    c_p       = (c1 s2^2 + c2 s1^2) / (s1^2 + s2^2)

The contracted width never exceeds the smaller input width, so repeated
collapses can only narrow a packet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .criterion import CriterionOutcome
from .packets import GaussianPacket, Vec3


@dataclass(frozen=True, slots=True)
class ContractionResult:
    """The contracted packet plus the shared overlap geometry."""

    contracted_1: GaussianPacket
    overlap_center: Vec3
    overlap_sigma: Vec3


def product_support(center1: Vec3, sigma1: Vec3, center2: Vec3, sigma2: Vec3) -> tuple[Vec3, Vec3]:
    """Mean and width of the Gaussian-shaped product of two moduli, per axis."""
    center = []
    sigma = []
    for c1, c2, s1, s2 in zip(center1, center2, sigma1, sigma2):
        ss = s1 * s1 + s2 * s2
        # Exact values satisfy sigma_p <= min(s1, s2) and min(c1, c2) <=
        # c_p <= max(c1, c2); clamp the one-ulp rounding excursions so both
        # invariants hold literally.
        sp = min(s1 * s2 / math.sqrt(ss), s1 if s1 <= s2 else s2)
        cp = (c1 * s2 * s2 + c2 * s1 * s1) / ss
        lo, hi = (c1, c2) if c1 <= c2 else (c2, c1)
        cp = min(max(cp, lo), hi)
        center.append(cp)
        sigma.append(sp)
    return tuple(center), tuple(sigma)


def product_gaussian(p1: GaussianPacket, p2: GaussianPacket) -> tuple[Vec3, Vec3]:
    """Mean and width of the Gaussian-shaped product |psi_1||psi_2|, per axis."""
    return product_support(p1.center, p1.sigma, p2.center, p2.sigma)


def apply_collapse(
    p1: GaussianPacket,
    p2: GaussianPacket,
    t: float,
    outcome: Optional[CriterionOutcome] = None,
) -> ContractionResult:
    """Contract p1 to the product support of p1 and p2 at time t.

    The output takes the product center and width as a fresh waist at t;
    mass, velocity and phase constant are inherited from p1.  Callers must
    only invoke this for a fired criterion; passing the evaluated ``outcome``
    makes that precondition checked.
    """
    if outcome is not None and not outcome.fires:
        raise ValueError("apply_collapse called for a pair whose criterion did not fire")
    center, sigma = product_gaussian(p1, p2)
    contracted = GaussianPacket(
        center=center,
        sigma=sigma,
        velocity=p1.velocity,
        mass=p1.mass,
        alpha=p1.alpha,
        t_ref=t,
    )
    return ContractionResult(contracted_1=contracted, overlap_center=center, overlap_sigma=sigma)
