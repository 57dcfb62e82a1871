"""Seeded stream of environment encounters.

Encounters form a homogeneous Poisson process.  Each event describes a fresh
environment packet by plain values: its phase constant, uniform on
[0, 2*pi); its center offset from the object, a Gaussian impact
displacement drawn relative to the object so that no absolute position is
needed; and its widths, the configured template with optional relative
jitter.  No packet object is built per encounter.

Randomness is fully positional: :class:`RngState` wraps a PCG64 generator
and counts consumed 64-bit words, so a state can be reconstructed from
``(seed, position)`` alone and a stream replayed bit-exactly within one
build.  Every logical draw consumes a fixed number of words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.random import PCG64, Generator

from .packets import TWO_PI, Vec3, as_vec3

# Fixed word budget of one collision draw: 1 inter-arrival + 3 x 2 offset
# normals (Box-Muller, first of each pair) + 3 width jitters + 1 phase.
_COLLISION_WORDS = 11


@dataclass(frozen=True)
class EnvironmentSpec:
    """Statistics of the environment packet stream."""

    collision_rate: float
    env_sigma: Vec3
    env_sigma_jitter: float = 0.0
    impact_spread: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "collision_rate", float(self.collision_rate))
        object.__setattr__(self, "env_sigma", as_vec3(self.env_sigma, "env_sigma"))
        object.__setattr__(self, "env_sigma_jitter", float(self.env_sigma_jitter))
        object.__setattr__(self, "impact_spread", float(self.impact_spread))
        if not (self.collision_rate >= 0.0 and math.isfinite(self.collision_rate)):
            raise ValueError(f"collision_rate must be >= 0, got {self.collision_rate}")
        for s in self.env_sigma:
            if not (s > 0.0 and math.isfinite(s)):
                raise ValueError(f"env_sigma components must be positive, got {self.env_sigma}")
        if not (0.0 <= self.env_sigma_jitter < 1.0):
            raise ValueError(f"env_sigma_jitter must lie in [0, 1), got {self.env_sigma_jitter}")
        if not (self.impact_spread >= 0.0 and math.isfinite(self.impact_spread)):
            raise ValueError(f"impact_spread must be >= 0, got {self.impact_spread}")


@dataclass(frozen=True, slots=True)
class CollisionEvent:
    """One environment encounter, as plain values.

    ``offset`` is the environment packet's center relative to the object's
    center at ``time``; ``sigma`` and ``alpha`` are the packet's widths and
    phase constant.
    """

    time: float
    offset: Vec3
    sigma: Vec3
    alpha: float


class RngState:
    """PCG64 stream with word-level position accounting.

    ``RngState(seed, position)`` reproduces the exact state of any stream
    that has consumed ``position`` 64-bit words since seeding, so equality of
    ``(seed, position)`` implies bit-identical continuations.
    """

    __slots__ = ("seed", "position", "_gen")

    def __init__(self, seed: int, position: int = 0):
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        if position < 0:
            raise ValueError(f"position must be a non-negative integer, got {position}")
        self.seed = int(seed)
        self.position = int(position)
        bitgen = PCG64(self.seed)
        if self.position:
            bitgen.advance(self.position)
        self._gen = Generator(bitgen)

    def words(self, n: int) -> np.ndarray:
        """Consume n words and return them as uniforms on [0, 1)."""
        self.position += n
        return self._gen.random(n)

    def uniform(self) -> float:
        """One uniform draw on [0, 1); consumes one word."""
        self.position += 1
        return self._gen.random()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RngState)
            and self.seed == other.seed
            and self.position == other.position
        )

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed}, position={self.position})"


def draw_phase(rng: RngState) -> tuple[float, RngState]:
    """Draw one phase constant uniform on [0, 2*pi). Consumes one word."""
    return TWO_PI * rng.uniform(), rng


def draw_phases(rng: RngState, n: int) -> tuple[np.ndarray, RngState]:
    """Bulk variant of :func:`draw_phase`: n draws from the same stream.

    Consumes n words and equals n sequential single draws bit-for-bit.
    """
    return TWO_PI * rng.words(n), rng


def _standard_normal(u1: float, u2: float) -> float:
    # Box-Muller, first member of the pair; u1, u2 in [0, 1).
    return math.sqrt(-2.0 * math.log1p(-u1)) * math.cos(TWO_PI * u2)


def next_collision(
    rng: RngState, spec: EnvironmentSpec, t_now: float
) -> tuple[Optional[CollisionEvent], RngState]:
    """Draw the next environment encounter after ``t_now``.

    Returns ``(None, rng)`` when the collision rate is zero.  The event time
    is exponential with the configured rate; the offset is Gaussian with the
    configured impact spread; the widths are the template scaled by a uniform
    relative jitter.  Consumes exactly 11 words.
    """
    if spec.collision_rate == 0.0:
        return None, rng
    w = rng.words(_COLLISION_WORDS).tolist()
    dt = -math.log1p(-w[0]) / spec.collision_rate
    spread = spec.impact_spread
    if spread != 0.0:
        offset = (
            spread * _standard_normal(w[1], w[2]),
            spread * _standard_normal(w[3], w[4]),
            spread * _standard_normal(w[5], w[6]),
        )
    else:
        offset = (0.0, 0.0, 0.0)
    j = spec.env_sigma_jitter
    t1, t2, t3 = spec.env_sigma
    if j != 0.0:
        sigma = (
            t1 * (1.0 + j * (2.0 * w[7] - 1.0)),
            t2 * (1.0 + j * (2.0 * w[8] - 1.0)),
            t3 * (1.0 + j * (2.0 * w[9] - 1.0)),
        )
    else:
        sigma = spec.env_sigma
    return CollisionEvent(time=t_now + dt, offset=offset, sigma=sigma, alpha=TWO_PI * w[10]), rng
