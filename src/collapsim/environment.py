"""Seeded stream of environment encounters.

Encounters form a homogeneous Poisson process.  Each event describes a fresh
environment packet by plain values: its phase constant, uniform on
[0, 2*pi); its center offset from the object, a Gaussian impact
displacement drawn relative to the object so that no absolute position is
needed; its widths, the configured template with optional relative
jitter; and a uniform that picks which of the object's clusters the packet
meets.  No packet object is built per encounter.

Randomness is fully positional: :class:`RngState` wraps a PCG64 generator
and counts consumed 64-bit words, so a state can be reconstructed from
``(seed, position)`` alone and a stream replayed bit-exactly within one
build.  :meth:`RngState.seek` moves a stream to any position, forward or
back, by the same jump that construction uses and without seeding again, so
one stream serves a whole run.  Every logical draw consumes a fixed number
of words, and a collision takes :data:`COLLISION_WORDS` in every regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Optional

import numpy as np
from numpy.random import PCG64, Generator

from .config import EnvironmentSpec
from .packets import TWO_PI, Vec3

# Fixed word budget of one collision draw: 1 inter-arrival + 3 x 2 offset
# normals (Box-Muller, first of each pair) + 3 width jitters + 1 phase + 1
# cluster pick.  The pick is drawn in either regime; only the cluster regime
# reads it.
COLLISION_WORDS = 12


@dataclass(frozen=True, slots=True)
class CollisionEvent:
    """One environment encounter, as plain values.

    ``offset`` is the environment packet's center relative to the object's
    center at ``time``; ``sigma`` and ``alpha`` are the packet's widths and
    phase constant.  ``pick``, uniform on [0, 1), chooses the cluster whose
    phase constant the encounter is compared against in the cluster regime.
    """

    time: float
    offset: Vec3
    sigma: Vec3
    alpha: float
    pick: float


class RngState:
    """PCG64 stream with word-level position accounting.

    ``RngState(seed, position)`` reproduces the exact state of any stream
    that has consumed ``position`` 64-bit words since seeding, so equality of
    ``(seed, position)`` implies bit-identical continuations.
    """

    __slots__ = ("seed", "position", "_gen")

    def __init__(self, seed: int, position: int = 0):
        if not isinstance(seed, Integral) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        self.seed = int(seed)
        self.position = 0
        self._gen = Generator(PCG64(self.seed))
        self.seek(position)

    def seek(self, position: int) -> None:
        """Move the stream to word ``position``, forward or back, without
        seeding again: PCG64 jumps any distance in O(log n) steps."""
        if not isinstance(position, Integral) or position < 0:
            raise ValueError(f"position must be a non-negative integer, got {position!r}")
        position = int(position)
        self._gen.bit_generator.advance((position - self.position) % (1 << 128))
        self.position = position

    def words(self, n: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Consume n words as uniforms on [0, 1), drawn into ``out`` if given."""
        words = self._gen.random(n, out=out)
        self.position += n
        return words

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


def draw_phase(rng: RngState) -> float:
    """Draw one phase constant uniform on [0, 2*pi). Consumes one word."""
    return TWO_PI * rng.uniform()


def _standard_normal(u1: float, u2: float) -> float:
    # Box-Muller, first member of the pair; u1, u2 in [0, 1).
    return math.sqrt(-2.0 * math.log1p(-u1)) * math.cos(TWO_PI * u2)


def next_collision(rng: RngState, spec: EnvironmentSpec, t_now: float) -> Optional[CollisionEvent]:
    """Draw the next environment encounter after ``t_now``.

    Returns None, and consumes nothing, when the collision rate is zero.  The event time
    is exponential with the configured rate; the offset is Gaussian with the
    configured impact spread; the widths are the template scaled by a uniform
    relative jitter.  Consumes exactly :data:`COLLISION_WORDS` (12) words.
    """
    if spec.collision_rate == 0.0:
        return None
    w = rng.words(COLLISION_WORDS).tolist()
    dt = -math.log1p(-w[0]) / spec.collision_rate
    offset, sigma = packet_from_words(w, spec)
    return CollisionEvent(t_now + dt, offset, sigma, TWO_PI * w[10], w[11])


def packet_from_words(w: list, spec: EnvironmentSpec) -> tuple[Vec3, Vec3]:
    """The environment packet's offset and widths in a collision whose 12
    words are ``w``, as plain floats."""
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
    if j == 0.0:
        return offset, spec.env_sigma
    t1, t2, t3 = spec.env_sigma
    return offset, (
        t1 * (1.0 + j * (2.0 * w[7] - 1.0)),
        t2 * (1.0 + j * (2.0 * w[8] - 1.0)),
        t3 * (1.0 + j * (2.0 * w[9] - 1.0)),
    )


def draw_collision_block(
    words: np.ndarray, spec: EnvironmentSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The collisions whose words are ``words``, at a positive collision rate.

    ``words`` holds 12 words per collision, ``n * 12`` in all: collision
    ``i`` occupies words ``i * 12`` to ``i * 12 + 11``, the layout of
    :func:`next_collision`.  Returns the inter-arrival times, the
    environment phase constants and the cluster-pick uniforms, so element
    ``i`` equals what :func:`next_collision` builds from the same words.

    The inter-arrival logarithm is ``np.log1p`` over a view with a negative
    stride.  On a contiguous operand numpy takes its own SIMD ``log1p``,
    which is not bit-identical to ``math.log1p``; on a strided one it takes
    its scalar loop, which calls the C library's ``log1p``, the function
    ``math.log1p`` calls.  So the gaps equal ``-math.log1p(-u) / rate``
    bit for bit, at the speed of a C loop.
    """
    w = words.reshape(-1, COLLISION_WORDS)
    x = -w[:, 0]
    log_gap = np.log1p(x[::-1])[::-1]
    # ``-log_gap / rate`` into ``x``: rounding to nearest is symmetric in sign.
    return np.divide(log_gap, -spec.collision_rate, out=x), TWO_PI * w[:, 10], w[:, 11]
