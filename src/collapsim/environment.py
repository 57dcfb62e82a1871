"""Seeded stream of environment encounters.

Encounters form a homogeneous Poisson process.  Each event describes a fresh
environment packet by plain values: its phase constant, uniform on
[0, 2*pi); its center offset from the object, a Gaussian impact
displacement drawn relative to the object so that no absolute position is
needed; its widths, the configured template with optional relative
jitter; and a uniform that picks which of the object's clusters the packet
meets.  No packet object is built per encounter.

Randomness is fully positional, in stream layout :data:`STREAM_VERSION`.
:class:`RngState` wraps a PCG64 generator and counts consumed 64-bit words;
collision ``i`` takes words ``3i`` to ``3i + 2`` of it, its inter-arrival
time, environment phase and cluster pick (:data:`COLLISION_WORDS`), so a
state is reconstructed from ``(seed, position)`` alone and a stream replayed
bit-exactly within one build.

The words that only a phase pass reads come from a counter-based generator
keyed by the seed (Philox, Salmon et al. 2011), addressed in O(1) and built
once per seed, on first use: collision ``i``'s six offset uniforms and three width jitters
(:func:`packet_from_words`) at counter ``3i``, and the object's phase
constant drawn once it has had ``n`` collisions (:func:`draw_phase`: the
random initial phase at ``n = 0``, a redraw after a firing at its count) at
counter ``2**64 + n``.  A reject reads none of them, and the main stream
never shifts: a run's position is always three words per collision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral
from threading import Lock
from typing import Optional

import numpy as np
from numpy.random import PCG64, Generator, Philox, SeedSequence

from .config import EnvironmentSpec
from .packets import TWO_PI, Vec3

STREAM_VERSION = 2  # the word layout; a new one changes every output for a seed
# Main-stream words of a collision, drawn in either regime: the inter-arrival
# time, the phase and the cluster pick, which only the cluster regime reads.
COLLISION_WORDS = 3
# Keyed words of collision i's packet, at counter 3i (3 Philox blocks of 4):
# 3 x 2 offset uniforms (Box-Muller, first of each pair) and 3 width jitters.
PACKET_WORDS = 9
_PHASE_COUNTER = 1 << 64  # the phase constants' counters, past every packet's


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
    """PCG64 stream with word-level position accounting, and the keyed
    generator of the same seed.

    ``RngState(seed, position)`` reproduces the exact state of any stream
    that has consumed ``position`` 64-bit words since seeding, so equality of
    ``(seed, position)`` implies bit-identical continuations.
    """

    __slots__ = ("seed", "position", "_gen")

    def __init__(self, seed: int, position: int = 0):
        for name, value in (("seed", seed), ("position", position)):
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
        self.seed, self.position = int(seed), int(position)
        self._gen = Generator(PCG64(self.seed))
        # PCG64 jumps any distance in O(log n) steps.
        self._gen.bit_generator.advance(self.position % (1 << 128))

    def words(self, n: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Consume n words as uniforms on [0, 1), drawn into ``out`` if given."""
        words = self._gen.random(n, out=out)
        self.position += n
        return words

    def keyed(self, counter: int, n: int) -> list[float]:
        """``n`` uniforms on [0, 1) of the keyed generator with its counter
        set to ``counter``: the words of Philox4x64 blocks ``counter + 1``
        on.  The position does not move.  The generator of the seed is
        built on its first use in the process (:func:`_keyed_generator`)."""
        gen, state, lock = _keyed_generator(self.seed)
        counts = state["state"]["counter"]
        with lock:
            counts[0], counts[1] = counter & 0xFFFFFFFFFFFFFFFF, counter >> 64
            gen.bit_generator.state = state  # also empties the block buffer
            return gen.random(n).tolist()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RngState)
            and self.seed == other.seed
            and self.position == other.position
        )

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed}, position={self.position})"


@lru_cache(maxsize=64)
def _keyed_generator(seed: int) -> tuple[Generator, dict, Lock]:
    """The keyed generator of ``seed``, keyed by a child of the seed's
    ``SeedSequence``, the state a draw sets and the lock it holds.  Every
    :class:`RngState` of the seed shares them: a draw sets the whole state,
    counter and buffer, under the lock, so no draw sees another's."""
    gen = Generator(Philox(SeedSequence(seed, spawn_key=(1,))))
    state = gen.bit_generator.state
    # Plain lists: the state setter reads them faster than arrays.
    state["state"] = {"counter": [0, 0, 0, 0], "key": state["state"]["key"].tolist()}
    state["buffer"] = [0, 0, 0, 0]
    return gen, state, Lock()


def draw_phase(rng: RngState, n_collisions: int) -> float:
    """The object's phase constant once it has had ``n_collisions``
    collisions, uniform on [0, 2*pi): one keyed word, so the position does
    not move."""
    return TWO_PI * rng.keyed(_PHASE_COUNTER + n_collisions, 1)[0]


def _standard_normal(u1: float, u2: float) -> float:
    # Box-Muller, first member of the pair; u1, u2 in [0, 1).
    return math.sqrt(-2.0 * math.log1p(-u1)) * math.cos(TWO_PI * u2)


def next_collision(rng: RngState, spec: EnvironmentSpec, t_now: float) -> Optional[CollisionEvent]:
    """Draw the next environment encounter after ``t_now``.

    Returns None, and consumes nothing, when the collision rate is zero.  The event time
    is exponential with the configured rate; the offset is Gaussian with the
    configured impact spread; the widths are the template scaled by a uniform
    relative jitter.  ``rng`` stands at the start of a collision, a multiple
    of :data:`COLLISION_WORDS` (3), and moves past its words.
    """
    if spec.collision_rate == 0.0:
        return None
    i, misaligned = divmod(rng.position, COLLISION_WORDS)
    if misaligned:
        raise ValueError(f"{rng!r} is not at the start of a collision")
    u, phase, pick = rng.words(COLLISION_WORDS).tolist()
    dt = -math.log1p(-u) / spec.collision_rate
    offset, sigma = packet_from_words(rng, i, spec)
    return CollisionEvent(t_now + dt, offset, sigma, TWO_PI * phase, pick)


def packet_from_words(rng: RngState, i: int, spec: EnvironmentSpec) -> tuple[Vec3, Vec3]:
    """The environment packet's offset and widths in collision ``i`` of the
    seed of ``rng``, as plain floats.  The collision's keyed words are read
    only if ``spec`` spreads the impact or jitters the widths."""
    spread, j = spec.impact_spread, spec.env_sigma_jitter
    if spread == 0.0 and j == 0.0:
        return (0.0, 0.0, 0.0), spec.env_sigma
    w = rng.keyed(3 * i, PACKET_WORDS)
    if spread != 0.0:
        offset = (
            spread * _standard_normal(w[0], w[1]),
            spread * _standard_normal(w[2], w[3]),
            spread * _standard_normal(w[4], w[5]),
        )
    else:
        offset = (0.0, 0.0, 0.0)
    if j == 0.0:
        return offset, spec.env_sigma
    t1, t2, t3 = spec.env_sigma
    return offset, (
        t1 * (1.0 + j * (2.0 * w[6] - 1.0)),
        t2 * (1.0 + j * (2.0 * w[7] - 1.0)),
        t3 * (1.0 + j * (2.0 * w[8] - 1.0)),
    )


def draw_collision_block(
    words: np.ndarray, spec: EnvironmentSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The collisions whose words are ``words``, at a positive collision rate.

    ``words`` holds 3 words per collision, ``n * 3`` in all: collision
    ``i`` occupies words ``i * 3`` to ``i * 3 + 2``, the layout of
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
    return np.divide(log_gap, -spec.collision_rate, out=x), TWO_PI * w[:, 1], w[:, 2]
