"""Contraction of two overlapping packets to their common support.

The product of two Gaussian moduli is itself Gaussian-shaped; its mean and
standard deviation define where the product is effectively concentrated.
Collapse replaces a packet by the normalized Gaussian with exactly that
mean and width, so the family stays closed and every contraction is
analytic.  :func:`product_support` gives that mean and width on plain
values; the engine builds the object's new waist from them and discards
the environment partner.  Per axis:

    sigma_p^2 = s1^2 s2^2 / (s1^2 + s2^2)
    c_p       = (c1 s2^2 + c2 s1^2) / (s1^2 + s2^2)

The contracted width never exceeds the smaller input width, so repeated
collapses can only narrow a packet.
"""

from __future__ import annotations

import math

from .packets import Vec3


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
