"""Built-in oracle checks runnable from the command line.

Each check pits an implementation path against an independent reference:
the closed-form overlap against adaptive quadrature, the collision gate
against the analytic phase-acceptance probability, and the inter-arrival
stream against the exponential mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import EnvironmentSpec
from .constants import PHASE_ACCEPTANCE_PROBABILITY
from .criterion import overlap_from_widths, phase_clause_batch
from .environment import COLLISION_WORDS, RngState, draw_collision_block
from .packets import Vec3
from .quadrature import overlap_integral_quadrature


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_packet_pair(gen: np.random.Generator) -> tuple[Vec3, Vec3, Vec3]:
    """Seeded random ``(sigma1, sigma2, center_1 - center_2)``: log-uniform
    widths, centers a few widths apart.  The draws are those of two packets
    with random phases, which are drawn and dropped."""
    sigma1 = tuple((10.0 ** gen.uniform(-12, -2, size=3)).tolist())
    center1 = gen.normal(0.0, 1e-3, size=3).tolist()
    gen.uniform(0.0, 2.0 * math.pi)
    sigma2 = tuple((10.0 ** gen.uniform(-12, -2, size=3)).tolist())
    # Centered within a few widths of the first so the overlap is not always
    # indistinguishable from zero.
    center2 = [c + max(a, b) * gen.normal(0.0, 2.0) for c, a, b in zip(center1, sigma1, sigma2)]
    gen.uniform(0.0, 2.0 * math.pi)
    return sigma1, sigma2, tuple(c1 - c2 for c1, c2 in zip(center1, center2))


def check_overlap_quadrature(n_pairs: int = 100, seed: int = 321) -> CheckResult:
    """Closed-form overlap vs adaptive quadrature, absolute 1e-8."""
    gen = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        pair = random_packet_pair(gen)
        delta = abs(overlap_from_widths(*pair) - overlap_integral_quadrature(*pair))
        worst = max(worst, delta)
    return CheckResult(
        name="overlap analytic vs quadrature",
        passed=worst <= 1e-8,
        detail=f"max |analytic - quadrature| = {worst:.3e} over {n_pairs} pairs (limit 1e-8)",
    )


def check_phase_acceptance(n_pairs: int = 10_000_000, seed: int = 654) -> CheckResult:
    """Phase-clause pass fraction of uniform phase pairs vs alpha_s / (2*pi).

    At unit overlap the amplitude clause always holds, so this is also the
    firing fraction.
    """
    gen = np.random.default_rng(seed)
    two_pi = 2.0 * math.pi
    fired = 0
    block = 1_000_000
    remaining = n_pairs
    while remaining > 0:
        n = min(block, remaining)
        a1 = two_pi * gen.random(n)
        a2 = two_pi * gen.random(n)
        fired += int(np.count_nonzero(phase_clause_batch(a1, a2)))
        remaining -= n
    p = PHASE_ACCEPTANCE_PROBABILITY
    empirical = fired / n_pairs
    band = 4.0 * math.sqrt(p * (1.0 - p) / n_pairs)
    return CheckResult(
        name="phase acceptance statistics",
        passed=abs(empirical - p) <= band,
        detail=(
            f"empirical {empirical:.6e} vs analytic {p:.6e} "
            f"(|diff| = {abs(empirical - p):.2e}, 4-sigma band = {band:.2e})"
        ),
    )


def check_interarrival_mean(
    n_events: int = 1_000_000, seed: int = 987, rate: float = 1e3, tol: float = 5e-3
) -> CheckResult:
    """Mean inter-arrival time of the collision stream vs 1/rate: the clock
    after ``n_events`` collisions, drawn as :func:`draw_collision_block`
    draws a run's and added in order, as :func:`next_collision` adds them."""
    spec = EnvironmentSpec(collision_rate=rate, env_sigma=(1e-9, 1e-9, 1e-9))
    gaps = draw_collision_block(RngState(seed).words(COLLISION_WORDS * n_events), spec)[0]
    t = np.cumsum(gaps).item(-1)  # sequential, bit for bit the scalar loop's clock
    mean = t / n_events
    rel = abs(mean * rate - 1.0)
    return CheckResult(
        name="inter-arrival mean",
        passed=rel <= tol,
        detail=f"mean*rate = {mean * rate:.6f} over {n_events} events (limit |dev| {tol:g})",
    )


def run_all(fast: bool = False) -> list[CheckResult]:
    if fast:
        return [
            check_overlap_quadrature(n_pairs=20),
            check_phase_acceptance(n_pairs=2_000_000),
            check_interarrival_mean(n_events=100_000, tol=1.5e-2),
        ]
    return [
        check_overlap_quadrature(),
        check_phase_acceptance(),
        check_interarrival_mean(),
    ]
