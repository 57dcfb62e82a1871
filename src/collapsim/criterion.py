"""Contact criterion: phase-gap test and overlap-amplitude test.

A collision collapses both packets only when two conditions hold at the
instant of contact:

  1. the circular distance between the two phase constants is at most
     alpha_s / 2, and
  2. the squared modulus-overlap integral is at least alpha_min / (2*pi),
     where alpha_min is the smaller of the two phase constants.

Both inequalities are inclusive.  The overlap integral of two separable
normalized Gaussians has the closed per-axis form

    sqrt(2 s1 s2 / (s1^2 + s2^2)) * exp(-(c1 - c2)^2 / (4 (s1^2 + s2^2)))

The engine decides a collision on plain values: :func:`criterion_fires`
applies both clauses to one pair and :func:`phase_clause_batch` applies the
phase clause to arrays of pairs.  Neither checks its inputs; phase constants
are reduced into [0, 2*pi) where they enter the program.
:func:`overlap_integral` takes two packets, for comparison against the
independent adaptive-quadrature oracle in :mod:`collapsim.quadrature`.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .constants import PHASE_GAP_LIMIT
from .packets import TWO_PI, GaussianPacket, Vec3


def overlap_from_widths(sigma1: Vec3, sigma2: Vec3, separation: Vec3) -> float:
    """Integral of |psi_1| * |psi_2| for widths sigma1, sigma2 and centers
    ``separation`` apart, in [0, 1]; the closed per-axis form above."""
    out = 1.0
    for s1, s2, d in zip(sigma1, sigma2, separation):
        ss = s1 * s1 + s2 * s2
        out *= math.sqrt(2.0 * s1 * s2 / ss) * math.exp(-(d * d) / (4.0 * ss))
    # Cauchy-Schwarz bounds the exact value by 1; clip rounding excursions.
    return min(out, 1.0)


def overlap_integral(p1: GaussianPacket, p2: GaussianPacket) -> float:
    """Integral of |psi_1| * |psi_2| over all space, in [0, 1].

    Symmetric in its arguments and equal to 1 exactly when the packets
    coincide in center and width.
    """
    separation = tuple(c1 - c2 for c1, c2 in zip(p1.center, p2.center))
    return overlap_from_widths(p1.sigma, p2.sigma, separation)


def phase_distance(alpha1: float, alpha2: float) -> float:
    """Circular distance of two phase constants in [0, 2*pi); unchecked."""
    d = abs(alpha1 - alpha2)
    return TWO_PI - d if d > math.pi else d


def criterion_fires(
    alpha1: float, alpha2: float, sigma1: Vec3, sigma2: Vec3, separation: Vec3
) -> bool:
    """Both clauses on plain values that are already in range.

    The overlap is computed only when the phase clause passes.
    """
    if phase_distance(alpha1, alpha2) > PHASE_GAP_LIMIT:
        return False
    overlap = overlap_from_widths(sigma1, sigma2, separation)
    alpha_min = alpha1 if alpha1 <= alpha2 else alpha2
    return overlap * overlap >= alpha_min / TWO_PI


def phase_clause_batch(alpha1: Union[float, np.ndarray], alpha2: np.ndarray) -> np.ndarray:
    """Phase-gap clause for arrays of phase constants already in range.

    Unchecked; element by element it decides exactly as the scalar clause
    of :func:`criterion_fires` does.
    """
    d = np.abs(alpha1 - alpha2)
    return np.minimum(d, TWO_PI - d) <= PHASE_GAP_LIMIT
