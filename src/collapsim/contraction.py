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
    return tuple(
        min(s1 * s2 / math.sqrt(s1 * s1 + s2 * s2), s1 if s1 <= s2 else s2)
        for s1, s2 in zip(sigma1, sigma2)
    )


def damped_sigma(sigma_old: Vec3, sigma_p: Vec3, eta: float) -> Vec3:
    """Apply the cluster-regime damping law per axis.

    The contracted width becomes sigma_old * (sigma_p / sigma_old)**eta;
    eta = 1 reproduces the undamped contraction.  ``eta`` is not checked
    here: :class:`ScenarioConfig` refuses values outside (0, 1].
    """
    return tuple(so * (sp / so) ** eta for so, sp in zip(sigma_old, sigma_p))
