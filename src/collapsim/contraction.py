"""The contraction law: the width of two packets' common support, and its
damping in the cluster regime.

The product of two Gaussian moduli is itself Gaussian-shaped.  Collapse
replaces the object's packet by the normalized Gaussian of the product's
width, so the family stays closed and every contraction is analytic.  Per
axis:

    sigma_p^2 = s1^2 s2^2 / (s1^2 + s2^2)

The contracted width never exceeds the smaller input width, so repeated
collapses can only narrow a packet.  The product's mean is not needed: an
encounter's offset is drawn relative to the object, so the object's
position never enters a decision or an output.
"""

from __future__ import annotations

import math

from .packets import Vec3


def product_width(sigma1: Vec3, sigma2: Vec3) -> Vec3:
    """Width of the Gaussian-shaped product of two moduli, per axis."""
    # The exact value satisfies sigma_p <= min(s1, s2); clamp the one-ulp
    # rounding excursions so that the invariant holds literally.
    (a1, a2, a3), (b1, b2, b3) = sigma1, sigma2
    return (
        min(a1 * b1 / math.sqrt(a1 * a1 + b1 * b1), a1 if a1 <= b1 else b1),
        min(a2 * b2 / math.sqrt(a2 * a2 + b2 * b2), a2 if a2 <= b2 else b2),
        min(a3 * b3 / math.sqrt(a3 * a3 + b3 * b3), a3 if a3 <= b3 else b3),
    )


def damped_sigma(sigma_old: Vec3, sigma_p: Vec3, eta: float) -> Vec3:
    """Apply the cluster-regime damping law per axis.

    The contracted width becomes sigma_old * (sigma_p / sigma_old)**eta;
    eta = 1 reproduces the undamped contraction.  ``eta`` is not checked
    here: :class:`ScenarioConfig` refuses values outside (0, 1].
    """
    (o1, o2, o3), (p1, p2, p3) = sigma_old, sigma_p
    return o1 * (p1 / o1) ** eta, o2 * (p2 / o2) ** eta, o3 * (p3 / o3) ** eta
