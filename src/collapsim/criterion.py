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

which this module evaluates analytically; an independent adaptive-quadrature
oracle lives in :mod:`collapsim.quadrature`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .constants import PHASE_GAP_LIMIT
from .packets import TWO_PI, GaussianPacket, Vec3


@dataclass(frozen=True, slots=True)
class CriterionOutcome:
    """Result of evaluating both criterion clauses for one packet pair."""

    phase_ok: bool
    amplitude_ok: bool
    overlap: float
    alpha_min: float
    phase_distance: float

    @property
    def fires(self) -> bool:
        return self.phase_ok and self.amplitude_ok


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


def _amplitude_clause(overlap: float, alpha1: float, alpha2: float) -> tuple[bool, float]:
    alpha_min = alpha1 if alpha1 <= alpha2 else alpha2
    return overlap * overlap >= alpha_min / TWO_PI, alpha_min


def criterion_fires(
    alpha1: float, alpha2: float, sigma1: Vec3, sigma2: Vec3, separation: Vec3
) -> bool:
    """Both clauses on plain values that are already in range.

    The overlap is computed only when the phase clause passes.
    """
    if phase_distance(alpha1, alpha2) > PHASE_GAP_LIMIT:
        return False
    return _amplitude_clause(overlap_from_widths(sigma1, sigma2, separation), alpha1, alpha2)[0]


def _check_phase_range(alpha: float, name: str) -> float:
    a = float(alpha)
    if not (0.0 <= a < TWO_PI):
        raise ValueError(f"{name} must lie in [0, 2*pi), got {alpha}")
    return a


def phase_criterion(alpha1: float, alpha2: float) -> tuple[bool, float]:
    """Evaluate the phase-gap clause.

    Returns ``(phase_ok, phase_distance)`` where the distance is circular
    (phase constants live on a circle of circumference 2*pi).
    """
    a1 = _check_phase_range(alpha1, "alpha1")
    a2 = _check_phase_range(alpha2, "alpha2")
    d = phase_distance(a1, a2)
    return d <= PHASE_GAP_LIMIT, d


def amplitude_criterion(overlap: float, alpha1: float, alpha2: float) -> tuple[bool, float]:
    """Evaluate the overlap-amplitude clause.

    Returns ``(amplitude_ok, alpha_min)``; fires when the squared overlap is
    at least alpha_min / (2*pi).
    """
    v = float(overlap)
    if not (0.0 <= v <= 1.0):
        raise ValueError(f"overlap must lie in [0, 1], got {overlap}")
    a1 = _check_phase_range(alpha1, "alpha1")
    a2 = _check_phase_range(alpha2, "alpha2")
    return _amplitude_clause(v, a1, a2)


def evaluate_criterion(p1: GaussianPacket, p2: GaussianPacket) -> CriterionOutcome:
    """Evaluate both clauses for two time-aligned packets."""
    overlap = overlap_integral(p1, p2)
    phase_ok, distance = phase_criterion(p1.alpha, p2.alpha)
    amplitude_ok, alpha_min = amplitude_criterion(overlap, p1.alpha, p2.alpha)
    return CriterionOutcome(
        phase_ok=phase_ok,
        amplitude_ok=amplitude_ok,
        overlap=overlap,
        alpha_min=alpha_min,
        phase_distance=distance,
    )


def phase_clause_batch(alpha1: Union[float, np.ndarray], alpha2: np.ndarray) -> np.ndarray:
    """Phase-gap clause for arrays of phase constants already in range.

    Unchecked; element by element it decides exactly as the scalar clause
    of :func:`criterion_fires` does.
    """
    d = np.abs(alpha1 - alpha2)
    return np.minimum(d, TWO_PI - d) <= PHASE_GAP_LIMIT


def criterion_fires_batch(alpha1: np.ndarray, alpha2: np.ndarray, overlap) -> np.ndarray:
    """Vectorized firing decision for arrays of phase pairs.

    Applies the same two clauses as :func:`evaluate_criterion`; ``overlap``
    may be a scalar or an array broadcastable against the phase arrays.
    Used for large statistical checks where per-pair calls would dominate.
    """
    a1 = np.asarray(alpha1, dtype=float)
    a2 = np.asarray(alpha2, dtype=float)
    if np.any(a1 < 0.0) or np.any(a1 >= TWO_PI) or np.any(a2 < 0.0) or np.any(a2 >= TWO_PI):
        raise ValueError("phase constants must lie in [0, 2*pi)")
    ov = np.asarray(overlap, dtype=float)
    if np.any(ov < 0.0) or np.any(ov > 1.0):
        raise ValueError("overlap must lie in [0, 1]")
    amplitude_ok = ov * ov >= np.minimum(a1, a2) / TWO_PI
    return phase_clause_batch(a1, a2) & amplitude_ok
