"""Event-driven simulation loop.

Between collapses the object is fixed by its waist: the time of its last
contraction (or t=0), its widths there, and its phase constant.  Free
spreading is analytic, so stepping jumps from collision to collision and
reads the widths out from the waist; mass is read from the config.  Each
encounter is decided on plain values: the readout widths and the drawn
offset, width and phase constant of the environment packet.  The offset is
relative to the object, so the object's position never enters the model and
the state does not hold one.  A collision that does not fire changes only
the counters; a firing one sets the new waist.

A state holds plain values: the time, the waist, the counters and the
position of the seeded stream.  The seed and every other input stay in the
:class:`ScenarioConfig`, and ``RngState(config.seed, position)`` rebuilds the
stream, so a state is a value: stepping it twice gives the same collision.

The comparison phase constant depends on the regime: while the packet still
covers the object's internal extent the object's own constant is used
(``CM_PHASE``); once the packet is narrower than the internal radius an
environment packet meets only one of the object's clusters, so a uniformly
chosen cluster constant is compared instead and the contraction is damped
(``CLUSTER_PHASE``).

Word layout.  Collision ``i`` takes words ``3i`` to ``3i + 2`` of the seeded
stream in either regime: the inter-arrival time, the environment phase and
the cluster pick.  Its offset and width jitters, and a phase constant drawn
at the start or after a firing, are keyed words addressed by the collision
count (see :mod:`collapsim.environment`): a state's position is always
``3 * n_collisions``.

Decide, then fill.  :func:`step` draws one collision with
:func:`next_collision` and decides it with :func:`_collide`; it is the
reference.  Only about alpha_s / (2 pi) ~ 1.2e-3 of encounters pass the
phase clause, and a collision that does not fire only advances counters,
records and the recovery sum.  So :func:`run` takes a window of collisions
at a time (thinning, Lewis & Shedler 1979) in two passes:

- Decide (:func:`_decide`).  The words give each collision's time (a
  sequential ``np.cumsum`` of the gaps), phase and cluster pick in numpy.
  Widths grow between firings, so the regimes at the ends of a stretch
  under one waist tell which phase clause it needs: the object's constant
  (CM), the picked cluster's, or both where the regime crosses.  A
  *candidate* passes a computed clause; any other collision is a reject
  whatever its widths.  Each block has one candidate walk: each candidate
  in order reads its widths from the waist in effect, as floats, and one
  that passes the clause of its own regime is decided by :func:`_collide`,
  as in :func:`step`.  Only a firing builds a state, in :func:`_collide`,
  which sets the waist for the rest of the block; the walk goes on unless
  it needs a clause not yet computed for the block, or a redrawn phase
  makes the CM clause stale, which is then computed over the rest of it.
- Fill (:class:`_Fill`).  At most one readout per window: each
  collision's waist and recovery divisor, those of its segment (its stretch
  between firings), are repeated over it, and one :func:`spread_into` reads
  every width out into the window's rows.  A segment whose
  widths at its last collision are its waist's is frozen: each step of a
  readout is correctly rounded, so monotone in t, and every width of the
  segment is its waist's, bit for bit, and every recovery ratio 1.0.  A
  window of frozen segments, every window of a heavy grain, skips the
  readout.  The firings' rows are patched in.  Rows go to the sink in
  order, a store chunk at a time between grid rows, and the recovery ratios
  are added in one sequential ``np.cumsum``.  A run without records has no
  sink and builds no row: its window only advances the grid clock, as a
  grid row's widths lie between its waist's and the next collision's.

A window is one block of at most ``_BLOCK_SIZE`` collisions (about 16 pi /
alpha_s, eight times the mean gap between phase passes).  Near the duration
a block is sized to the collisions due before it, lambda (T - t) plus six
standard deviations and 16; one that falls short (about 1e-9 of them) is
followed by the next window.  A window ends at the duration or at
``max_collisions``.  The first failure in time order raises as in
:func:`step`: a width that is not finite at a grid row or a collision,
found in numpy and raised by the float readout, or a firing's contraction.
A failing run returns no rows, so its failing window writes none.

A run reads its one :class:`RngState` in order, each block's words once;
nothing is sought or seeded again.  A window's arrays (:class:`_Buffers`) are
allocated once per run, and once per :func:`run_ensemble` for all its
replicas, since a fresh process pays page faults for each new allocation of
a window's size.  The words are drawn into them and the window's arrays are
computed in place: the gaps and phases overwrite their words, the times the
gap words, the clauses and widths the window's rows and masks.  Only the
per-collision waists of a window with firings are built anew.

The arithmetic matches the scalar path bit for bit: gaps are the C
library's ``log1p``, which ``math.log1p`` calls and which numpy calls on a
reversed operand written forward (see :func:`draw_collision_block`), times
are a sequential ``np.cumsum`` of them, widths come from :func:`spread_into`,
the array form of :func:`spread_widths`, and sums are accumulated in
collision order.
"""

from __future__ import annotations

import enum
import math
import operator
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence, Sized
from dataclasses import dataclass, replace
from itertools import islice
from numbers import Integral
from typing import Optional

import numpy as np

from .config import RANDOM_ALPHA, EnvironmentSpec, ScenarioConfig
from .constants import PHASE_ACCEPTANCE_PROBABILITY
from .contraction import damped_sigma, product_width
from .criterion import criterion_fires, phase_clause_batch
from .environment import (
    COLLISION_WORDS, RngState, draw_collision_block, draw_phase, next_collision, packet_from_words,
)
from .packets import Vec3, spread_into, spread_widths


class Regime(enum.Enum):
    CM_PHASE = "CM_PHASE"
    CLUSTER_PHASE = "CLUSTER_PHASE"


class LastEvent(enum.Enum):
    NONE = "NONE"
    COLLISION_NO_COLLAPSE = "COLLISION_NO_COLLAPSE"
    COLLAPSE = "COLLAPSE"


class EngineError(RuntimeError):
    """Simulation aborted; message carries time and event counters."""


@dataclass(frozen=True, slots=True)
class SimState:
    """Simulation state at time ``t`` of the run of one config.

    ``t_ref``, ``sigma`` and ``alpha`` are the object's waist: the time of
    the last collapse (or 0), the widths then, and the phase constant.  The
    widths at t are ``spread_widths(sigma, config.object.mass, t - t_ref)``.
    """

    t: float
    t_ref: float
    sigma: Vec3
    alpha: float
    n_collisions: int
    n_collapses: int

    @property
    def position(self) -> int:
        """Words of the seeded stream consumed so far, three per collision:
        ``RngState(config.seed, position)`` draws the next collision."""
        return COLLISION_WORDS * self.n_collisions


@dataclass(frozen=True, slots=True)
class TimeSeriesRecord:
    t: float
    sigma: Vec3
    n_collisions: int
    n_collapses: int
    regime: Regime
    last_event: LastEvent


# Rows per chunk of a :class:`Records` store, and per write of the writers.
CHUNK_ROWS = 1024
_OFFSETS = np.arange(CHUNK_ROWS, dtype=np.int64)  # offsets of the collision counts in a chunk


def _new_chunk(size: int) -> tuple[np.ndarray, ...]:
    return np.empty((4, size)), np.empty((2, size), np.int64), np.empty((2, size), np.int8)


class Records(Sequence):
    """The rows of a run, in chunks of ``CHUNK_ROWS`` rows.

    A chunk is three arrays, one contiguous row per column: float64
    ``(4, CHUNK_ROWS)`` for the time and the widths, int64 ``(2,
    CHUNK_ROWS)`` for the counts, and int8 ``(2, CHUNK_ROWS)`` for the
    regime and the last event, codes that index :attr:`REGIMES` and
    :attr:`EVENTS`.  Every chunk but the last is full.  A row takes 50
    bytes; :meth:`chunks` hands the chunks out, :meth:`columns` copies.

    As a sequence of :class:`TimeSeriesRecord` the store is read-only:
    indexing builds the row's record, a slice is a new store, and a store
    compares equal to any sequence of equal rows.  Items are Python floats
    and ints, never numpy scalars.
    """

    REGIMES = (Regime.CM_PHASE, Regime.CLUSTER_PHASE)  # indexed by "in the cluster regime"
    EVENTS = tuple(LastEvent)
    # The columns' names, as the record formats write them, and dtypes.
    FIELDS = ("t_s", "sigma_x_m", "sigma_y_m", "sigma_z_m", "n_collisions", "n_collapses",
              "regime", "last_event")
    DTYPES = (np.float64,) * 4 + (np.int64,) * 2 + (np.int8,) * 2
    __slots__ = ("_chunks", "_at")

    def __init__(self) -> None:
        self._chunks: list[tuple[np.ndarray, ...]] = []
        self._at = CHUNK_ROWS  # rows used in the last chunk; full when there is none

    @classmethod
    def from_rows(cls, rows: Iterable[TimeSeriesRecord]) -> Records:
        """A store of ``rows``, read once; a ``ValueError`` names a field it cannot hold."""
        out, rows = cls(), iter(rows)
        for batch in iter(lambda: list(islice(rows, CHUNK_ROWS)), []):
            for r in batch:
                if (problem := _refusal(r)) is not None:
                    raise ValueError(problem)
            values = [(r.t, *r.sigma, r.n_collisions, r.n_collapses,
                       cls.REGIMES.index(r.regime), cls.EVENTS.index(r.last_event))
                      for r in batch]
            out.add_columns([np.array(c, dtype) for c, dtype in zip(zip(*values), cls.DTYPES)])
        return out

    def _room(self) -> tuple[tuple[np.ndarray, ...], int]:
        """The last chunk and its first free row, once a chunk has room."""
        if self._at == CHUNK_ROWS:
            self._chunks.append(_new_chunk(CHUNK_ROWS))
            self._at = 0
        return self._chunks[-1], self._at

    def append(self, t, sigma, n_collisions, n_collapses, regime, last_event) -> None:
        """Add one row; ``regime`` and ``last_event`` are codes."""
        (floats, counts, codes), a = self._room()
        floats[:, a] = t, *sigma
        counts[:, a] = n_collisions, n_collapses
        codes[:, a] = regime, last_event
        self._at = a + 1

    def extend(
        self, columns, lo: int, hi: int, n_first: int, n_collapses: int, fired: Sequence = ()
    ) -> None:
        """Add rows ``lo .. hi-1`` of a window's time, width and regime
        ``columns``: collisions counted from ``n_first``, after ``n_collapses``
        collapses.  The rows listed in ``fired``, ascending, fired: each
        counts its collapse from its own row on; the other rows did not.
        The width columns of isotropic widths are one array."""
        t, x, y, z, regime = columns
        while lo < hi:
            (floats, counts, codes), a = self._room()
            m = min(hi - lo, CHUNK_ROWS - a)
            rows, b = slice(lo, lo + m), a + m
            floats[0, a:b] = t[rows]
            if x is y is z:
                floats[1:, a:b] = x[rows]
            else:
                floats[1, a:b], floats[2, a:b], floats[3, a:b] = x[rows], y[rows], z[rows]
            np.add(_OFFSETS[:m], n_first, out=counts[0, a:b])
            counts[1, a:b] = n_collapses
            codes[0, a:b] = regime[rows]
            codes[1, a:b] = _NO_COLLAPSE
            for f in fired:
                if lo <= f < lo + m:
                    n_collapses += 1
                    counts[1, a + f - lo : b] = n_collapses
                    codes[1, a + f - lo] = _COLLAPSE
            self._at, lo, n_first = b, lo + m, n_first + m

    def add_columns(self, columns: Sequence) -> None:
        """Add rows given as eight columns, in :attr:`FIELDS` order."""
        lo, n = 0, len(columns[0])
        while lo < n:
            chunk, a = self._room()
            m = min(n - lo, CHUNK_ROWS - a)
            for row, values in zip((row for array in chunk for row in array), columns):
                row[a : a + m] = values[lo : lo + m]
            self._at, lo = a + m, lo + m

    def chunks(self) -> Iterator[Sequence[np.ndarray]]:
        """Each chunk's three arrays, never copies; the last one's trimmed to its rows."""
        yield from self._chunks[:-1]
        for chunk in self._chunks[-1:]:
            yield [array[:, : self._at] for array in chunk]

    def columns(self) -> tuple[np.ndarray, ...]:
        """The eight columns in :attr:`FIELDS` order, always copies."""
        arrays = zip(*self.chunks(), _new_chunk(0))  # the empty chunk joins a store without rows
        return tuple(row for parts in arrays for row in np.concatenate(parts, axis=1))

    def __len__(self) -> int:
        return len(self._chunks) * CHUNK_ROWS - (CHUNK_ROWS - self._at)

    def __getitem__(self, i):
        if isinstance(i, slice):
            out = Records()
            out.add_columns([column[i] for column in self.columns()])
            return out
        # ``range`` refuses an index out of range, or no integer.
        q, a = divmod(range(len(self))[i], CHUNK_ROWS)
        floats, counts, codes = (array[:, a].tolist() for array in self._chunks[q])
        return TimeSeriesRecord(
            floats[0], tuple(floats[1:]), *counts, self.REGIMES[codes[0]], self.EVENTS[codes[1]]
        )

    def __iter__(self):
        regimes, events = self.REGIMES, self.EVENTS
        for floats, counts, codes in self.chunks():
            rows = zip(*floats.tolist(), *counts.tolist(), *codes.tolist())
            for t, sx, sy, sz, n_collisions, n_collapses, regime, event in rows:
                yield TimeSeriesRecord(
                    t, (sx, sy, sz), n_collisions, n_collapses, regimes[regime], events[event]
                )

    def __eq__(self, other):
        if isinstance(other, Records):
            return all(map(np.array_equal, self.columns(), other.columns()))
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None


def _refusal(r: TimeSeriesRecord) -> Optional[str]:
    """Why a store cannot hold the record ``r``, naming the first field its
    column cannot hold (a ``sigma`` that is not three widths, a time or a
    width that is no real number or past the float range, a count that is
    no integer, a boolean or outside int64, an unknown regime or event)."""
    if not isinstance(r.sigma, Sized) or len(r.sigma) != 3:
        return f"malformed record field 'sigma': {r.sigma!r} is not three widths"
    values = (r.t, *r.sigma, r.n_collisions, r.n_collapses)
    for name, dtype, value in zip(Records.FIELDS, Records.DTYPES, values):
        try:
            if dtype is np.float64:
                math.isfinite(value)  # takes what a C double can hold, never a string
            elif type(value) is bool:
                raise TypeError(f"{value} is not an integer")
            elif operator.index(value) not in _INT64:
                raise OverflowError(f"{value} is outside the 64-bit integers")
        except (OverflowError, TypeError) as exc:
            return f"malformed record field {name!r}: {exc}"
    names = zip(Records.FIELDS[6:], (Records.REGIMES, Records.EVENTS), (r.regime, r.last_event))
    for name, known, value in names:
        if value not in known:
            known_names = [v.value for v in known]
            return f"malformed record field {name!r}: {value!r} is not one of {known_names}"


_NONE, _NO_COLLAPSE, _COLLAPSE = (Records.EVENTS.index(event) for event in LastEvent)
_INT64 = range(np.iinfo(np.int64).min, np.iinfo(np.int64).max + 1)  # what a count column holds


def regime_for(sigma: Vec3, internal_radius: float) -> Regime:
    """Cluster regime once the narrowest axis is inside the object."""
    return Regime.CLUSTER_PHASE if min(sigma) < internal_radius else Regime.CM_PHASE


def initial_state(config: ScenarioConfig, rng: Optional[RngState] = None) -> SimState:
    """Build the t=0 state.  A random phase constant is the keyed phase of
    no collisions, drawn with ``rng``, the run's stream, or with a new
    stream of ``config.seed``."""
    alpha = config.initial_alpha
    if alpha == RANDOM_ALPHA:
        alpha = draw_phase(rng or RngState(config.seed), 0)
    return SimState(0.0, 0.0, config.initial_sigma, alpha, 0, 0)


def _state_error(t: float, n_collisions: int, n_collapses: int, problem) -> EngineError:
    return EngineError(
        f"non-finite state at t={t} "
        f"(collisions={n_collisions}, collapses={n_collapses}): {problem}"
    )


def _checked(sigma: Vec3, t: float, n_collisions: int, n_collapses: int) -> Vec3:
    """``sigma`` if every width is positive and finite, else EngineError
    naming t and the counters: the engine's one width check."""
    s1, s2, s3 = sigma
    if 0.0 < s1 < math.inf and 0.0 < s2 < math.inf and 0.0 < s3 < math.inf:
        return sigma
    raise _state_error(t, n_collisions, n_collapses, f"widths {sigma} are not positive and finite")


def _widths_at(state: SimState, mass: float, t: float, n_collisions: int) -> Vec3:
    """Object widths at time t, read out from the waist of ``state``;
    ``n_collisions`` goes into the error message."""
    try:
        sigma = spread_widths(state.sigma, mass, t - state.t_ref)
    except ArithmeticError as exc:  # a width whose square underflows to 0
        raise _state_error(t, n_collisions, state.n_collapses, exc) from exc
    return _checked(sigma, t, n_collisions, state.n_collapses)


def step(state: SimState, config: ScenarioConfig) -> tuple[SimState, TimeSeriesRecord]:
    """Advance ``state``, a state of the run of ``config``, to the next
    collision and decide it with :func:`_collide`: the scalar reference for
    :func:`run`.  The stream is rebuilt from ``RngState(config.seed,
    state.position)``, so ``state`` stays as it was."""
    rng = RngState(config.seed, state.position)
    event = next_collision(rng, config.environment, state.t)
    if event is None:
        raise ValueError("step requires a positive collision rate")
    t, n_collisions = event.time, state.n_collisions + 1
    sigma = _widths_at(state, config.object.mass, t, state.n_collisions)
    new_state = _collide(
        config, rng, state, sigma, event.alpha, event.sigma, event.offset, event.pick,
        t, n_collisions,
    )
    if new_state is None:
        new_state = replace(state, t=t, n_collisions=n_collisions)
        last_event = LastEvent.COLLISION_NO_COLLAPSE
    else:
        sigma, last_event = new_state.sigma, LastEvent.COLLAPSE
    record = TimeSeriesRecord(
        t, sigma, n_collisions, new_state.n_collapses,
        regime_for(sigma, config.object.internal_radius), last_event,
    )
    return new_state, record


def _collide(
    config: ScenarioConfig, rng: RngState, waist: SimState, sigma: Vec3, env_alpha: float,
    env_sigma: Vec3, offset: Vec3, pick: float, t: float, n_collisions: int,
) -> Optional[SimState]:
    """Decide collision ``n_collisions`` at ``t`` on plain values: the state
    after it if it fires, else None.

    The object has widths ``sigma``, read out from ``waist``, whose phase
    constant and collapse count are in effect; the environment packet has
    ``env_alpha``, ``env_sigma`` and ``offset``.  In the cluster regime
    ``pick`` selects the compared cluster and the contraction is damped.  A
    firing's state has the contracted widths and, if the config redraws, the
    phase that :func:`draw_phase` reads from ``rng``.  A contraction that is
    not finite raises with the counts, this collision's included.
    """
    spec = config.object
    alpha = waist.alpha
    cluster = min(sigma) < spec.internal_radius
    if cluster:
        alphas = spec.cluster_alphas
        alpha = alphas[min(int(pick * len(alphas)), len(alphas) - 1)]
    if not criterion_fires(alpha, env_alpha, sigma, env_sigma, offset):
        return None
    contracted = product_width(sigma, env_sigma)
    if cluster and config.cluster_eta != 1.0:
        contracted = damped_sigma(sigma, contracted, config.cluster_eta)
    n_collapses = waist.n_collapses + 1
    contracted = _checked(contracted, t, n_collisions, n_collapses)
    alpha = draw_phase(rng, n_collisions) if config.redraw_alpha_after_collapse else waist.alpha
    return SimState(t, t, contracted, alpha, n_collisions, n_collapses)


@dataclass(frozen=True)
class RunSummary:
    """Aggregates of one run; all fields are exactly reproducible per seed."""

    seed: int
    duration: float
    n_collisions: int
    n_collapses: int
    final_sigma: Vec3
    final_min_sigma: float
    min_sigma: float
    recovery_ratio_sum: float
    recovery_samples: int
    respread_sum: float
    respread_samples: int
    collapse_before_sum: float
    collapse_after_sum: float
    localized: bool
    final_regime: Regime
    budget_exhausted: bool
    # Stream position after the last processed collision:
    # RngState(seed, rng_position) draws the first collision not processed.
    rng_position: int

    @property
    def mean_recovery_ratio(self) -> Optional[float]:
        """Mean over collisions of width-before divided by width after the
        preceding collapse; None until a collapse has happened."""
        if self.recovery_samples == 0:
            return None
        return self.recovery_ratio_sum / self.recovery_samples

    @property
    def mean_respread_between_collapses(self) -> Optional[float]:
        if self.respread_samples == 0:
            return None
        return self.respread_sum / self.respread_samples

    @property
    def mean_sigma_before_collapse(self) -> Optional[float]:
        if self.n_collapses == 0:
            return None
        return self.collapse_before_sum / self.n_collapses

    @property
    def mean_sigma_after_collapse(self) -> Optional[float]:
        if self.n_collapses == 0:
            return None
        return self.collapse_after_sum / self.n_collapses


# Collisions drawn and decided at a time, a window's capacity: eight times
# the mean gap between phase-clause passes.  A firing does not end its
# block, so the block's own costs are paid once per window, and its buffers
# once per run or ensemble (:class:`_Buffers`).
_BLOCK_SIZE = 8 * math.ceil(1.0 / PHASE_ACCEPTANCE_PROBABILITY)


def _block_for(expected: float) -> int:
    """Collisions to draw with ``expected`` due before the duration, which may
    be infinite: a block, or the count plus six standard deviations and 16."""
    if expected >= _BLOCK_SIZE:
        return _BLOCK_SIZE
    return min(_BLOCK_SIZE, math.ceil(expected + 6.0 * math.sqrt(expected)) + 16)


@dataclass
class _Sums:
    """Running aggregates of one run, accumulated in collision order, under
    the names of the :class:`RunSummary` fields they become."""

    min_sigma: float
    recovery_ratio_sum: float = 0.0
    recovery_samples: int = 0
    respread_sum: float = 0.0
    respread_samples: int = 0
    collapse_before_sum: float = 0.0
    collapse_after_sum: float = 0.0

    def add_recovery(self, ratios: np.ndarray) -> None:
        """Add a window's recovery ratios, firings' included, in collision
        order; ``ratios`` is overwritten with the running sums."""
        if len(ratios):
            # A sequential sum, as the scalar loop adds; np.sum adds pairwise.
            ratios[0] += self.recovery_ratio_sum
            np.cumsum(ratios, out=ratios)
            self.recovery_ratio_sum = ratios.item(-1)
            self.recovery_samples += len(ratios)

    def add_firing(self, waist: SimState, sigma_before: float, sigma_after: float) -> None:
        """One collision that fired under ``waist``, with the narrowest widths
        before and after it; its recovery ratio is among the window's.  The
        waist of a run that has collapsed holds the last collapse's widths."""
        if waist.n_collapses:
            self.respread_sum += sigma_before / min(waist.sigma)
            self.respread_samples += 1
        self.collapse_before_sum += sigma_before
        self.collapse_after_sum += sigma_after
        if sigma_after < self.min_sigma:
            self.min_sigma = sigma_after


def _check_count(name: str, value, least: int) -> None:
    """Refuse a ``value`` that is no integer of at least ``least``; a bool is refused."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def _readout(waist: SimState, mass: float, t: float) -> Optional[Vec3]:
    """The widths read out from ``waist`` at t; None if they cannot be read."""
    try:
        return spread_widths(waist.sigma, mass, t - waist.t_ref)
    except ArithmeticError:
        return None


class _Buffers:
    """The arrays of a window of at most ``size`` collisions, allocated once
    per run, or once per ensemble for all its replicas.

    :func:`_decide` draws the stream ``words``, three per collision, and
    computes the gaps, phases and times in place (:meth:`draw`): the
    ``times`` are a view of the gap words.  It takes the last two float
    ``rows`` and the three boolean ``masks`` as scratch for its clauses, so
    that a window without a readout touches no other row.  The fill then
    writes three widths and a scratch row (the time since the waist, then
    the narrowest widths or the recovery ratios) into ``rows``, and the
    regime into ``masks[2]``."""

    __slots__ = ("words", "times", "rows", "masks")

    def __init__(self, size: int) -> None:
        # One allocation for all.  Allocated one by one, they left the heap of
        # a fresh process such that the JSON writer after a run of the generic
        # document page-faulted about five times as often (1,672 against 340).
        block = np.empty((COLLISION_WORDS + 4) * size + -(-3 * size // 8))
        self.words, rest = block[: COLLISION_WORDS * size], block[COLLISION_WORDS * size :]
        self.rows = rest[: 4 * size].reshape(4, size)
        self.masks = rest[4 * size :].view(bool)[: 3 * size].reshape(3, size)
        self.times = self.words[::COLLISION_WORDS]  # the gap words, overwritten

    def draw(
        self, rng: RngState, n: int, spec: EnvironmentSpec
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The gaps, phases and picks of the next ``n`` collisions of ``rng``,
        drawn in place into ``words`` with the scratch row."""
        words = rng.words(COLLISION_WORDS * n, out=self.words[: COLLISION_WORDS * n])
        return draw_collision_block(words, spec, self.rows[3, :n])


def _decide(
    config: ScenarioConfig, state: SimState, rng: RngState, buffers: _Buffers,
    alphas: np.ndarray, limit: int,
) -> tuple[int, list[SimState], Optional[EngineError], bool]:
    """Decide the window after ``state``, one block of at most ``limit``
    collisions drawn from ``rng`` into ``buffers``, which also take its
    times; ``alphas`` are the cluster constants.

    Returns the window's collisions before its first failure, the state
    after each firing, that failure or None, and whether the block drew a
    collision past the duration."""
    env = config.environment
    mass, internal_radius = config.object.mass, config.object.internal_radius
    n0 = state.n_collisions
    waist, firings = state, []

    def cluster_at(t: float) -> Optional[bool]:  # None: the widths cannot be read
        sigma = _readout(waist, mass, t)
        return None if sigma is None else min(sigma) < internal_radius

    n = min(limit, _block_for(env.collision_rate * (config.duration - state.t)))
    gaps, env_alpha, pick = buffers.draw(rng, n, env)
    gaps[0] += state.t
    block = gaps.cumsum(out=gaps)
    # The window ends before the first collision past the duration.
    n_in = int(block.searchsorted(config.duration, side="right"))
    env_alpha = env_alpha[:n_in]
    rows, (cm_pass, cluster_pass, passes) = buffers.rows[:, :n_in], buffers.masks[:, :n_in]
    # The block's clauses: the CM clause against ``cm_alpha``, valid from
    # where it was last computed on, and the cluster clause.  A clause is
    # computed when the collisions from ``s`` on first need it, and
    # ``candidates`` walks the passes of either across firings.
    cm_alpha, clustered = None, False
    s, first, candidates = 0, None, iter(())
    while s < n_in:  # the collisions from s on are under ``waist``
        if not clustered or cm_alpha != waist.alpha:
            # Widths grow until the next firing: if the first collision from
            # s on is in the CM regime, all are; if the last is in the
            # cluster regime, all are.  ``first`` after a firing is the
            # regime of its own widths.  None: not read, so both.
            last = False if first is False else cluster_at(block.item(n_in - 1))
            if first is None:
                first = last or cluster_at(block.item(s))
            rebuild = False
            if not clustered and first is not False:
                index = rows[3].view(np.intp)
                np.multiply(pick[:n_in], len(alphas), out=index, casting="unsafe")
                picked = alphas.take(index, mode="clip", out=rows[2])
                phase_clause_batch(picked, env_alpha, cluster_pass, rows[2:])
                clustered = rebuild = True
            if last is not True and cm_alpha != waist.alpha:
                phase_clause_batch(waist.alpha, env_alpha[s:], cm_pass[s:], rows[2:, s:])
                cm_alpha, rebuild = waist.alpha, True
            if rebuild:
                if cm_alpha is None or not clustered:
                    either = (cluster_pass if cm_alpha is None else cm_pass)[s:]
                else:
                    either = np.logical_or(cm_pass[s:], cluster_pass[s:], out=passes[s:])
                candidates = iter((either.nonzero()[0] + s).tolist())
        for j in candidates:
            t = block.item(j)
            try:
                sigma = _widths_at(waist, mass, t, n0 + j)
                if not (cluster_pass if min(sigma) < internal_radius else cm_pass)[j]:
                    continue
                offset, env_sigma = packet_from_words(rng, n0 + j, env)
                after = _collide(
                    config, rng, waist, sigma, env_alpha.item(j), env_sigma, offset,
                    pick.item(j), t, n0 + j + 1,
                )
            except EngineError as exc:
                return j, firings, exc, False
            if after is not None:
                firings.append(after)
                waist, s, first = after, j + 1, min(after.sigma) < internal_radius
                break
        else:
            break
    return n_in, firings, None, n_in < n


class _Fill:
    """The fill of a run's windows: rows of the sampling grid (the next at
    ``next_sample``) and of each collision go to ``sink`` in order, sums to
    ``sums``; a run without records has no sink, and a failing window writes
    no row.  Every window reuses the arrays of ``buffers``: the ``times``
    that :func:`_decide` writes, the ``rows`` (three widths and a scratch
    row) and the regime mask ``cluster``."""

    def __init__(
        self, config: ScenarioConfig, sink: Optional[Records], state: SimState, buffers: _Buffers
    ) -> None:
        self.mass, self.internal_radius = config.object.mass, config.object.internal_radius
        self.interval = self.next_sample = config.sample_interval
        self.times, self.rows = buffers.times, buffers.rows
        self.cluster = buffers.masks[2]
        self.sink, self.sums = sink, _Sums(min_sigma=min(state.sigma))

    def sample(self, state: SimState, t: float, n_collisions: int, emit: bool = True) -> Vec3:
        """The widths at a grid time, read out from the waist of ``state``;
        their row goes to the sink, if the run has one, when ``emit``."""
        sigma = _widths_at(state, self.mass, t, n_collisions)
        if emit and self.sink is not None:  # an empty store is falsy
            self.sink.append(
                t, sigma, n_collisions, state.n_collapses, min(sigma) < self.internal_radius, _NONE
            )
        return sigma

    def samples_before(self, state: SimState, t: float, n_collisions: int) -> None:
        """Grid rows before a collision at t; a grid point equal to t is skipped."""
        while self.next_sample < t:
            self.sample(state, self.next_sample, n_collisions)
            self.next_sample += self.interval
        if self.next_sample == t:
            self.next_sample += self.interval

    def skip_through(self, t: float) -> None:
        """Move the grid clock past a collision at t without reading a row."""
        while self.next_sample <= t:
            self.next_sample += self.interval

    def _rows(self, waists: list, fired: list, columns: tuple) -> None:
        """The rows of the window's collisions, those in ``fired`` firings,
        with the grid rows before each; ``waists[q]`` is the state after q of
        the window's firings."""
        times, i, n0 = columns[0], 0, waists[0].n_collisions
        while i < len(times):  # collisions i..k-1 come before the next grid row
            k = i + int(times[i:].searchsorted(self.next_sample))
            n_collapses = waists[bisect_left(fired, i)].n_collapses
            self.sink.extend(columns, i, k, n0 + i + 1, n_collapses, fired)
            if k < len(times):
                self.samples_before(waists[bisect_left(fired, k)], times.item(k), n0 + k)
            i = k

    def window(self, state: SimState, end: int, firings: list, error) -> SimState:
        """Fill the window of ``end`` collisions after ``state``, with the
        ``firings`` and the first failure ``error`` that :func:`_decide`
        found, and return the state after it."""
        if not end and error is None:  # a window without collisions
            return state
        sums, radius, times = self.sums, self.internal_radius, self.times
        waists = [state, *firings]
        bounds = [w.n_collisions - state.n_collisions for w in firings]
        fired = [b - 1 for b in bounds]
        sigmas = [w.sigma for w in waists]
        mins = [min(s) for s in sigmas]
        # A collision's waist and recovery divisor are those of its segment,
        # which a firing ends.  A segment is frozen if the widths at its last
        # collision are its waist's: readouts are monotone in t, so all are.
        lengths = [b - a for a, b in zip([0, *bounds], [*bounds, end])]
        frozen = all(
            _readout(w, self.mass, times.item(b - 1)) == w.sigma
            for w, b, n in zip(waists, [*bounds, end], lengths) if n
        )

        def per_collision(values: list):  # a lone segment's value broadcasts in a readout
            return np.repeat(np.array(values), lengths) if firings or frozen else values[0]

        def waist_widths():
            if all(s[0] == s[1] == s[2] for s in sigmas):
                return (per_collision([s[0] for s in sigmas]),) * 3
            return [per_collision(axis) for axis in zip(*sigmas)]

        # The recovery ratios, the firings' among them, start after the run's
        # first firing; a waist that follows one holds its widths.  They go
        # into the scratch row once the regime mask is read from it.
        first = 0 if state.n_collapses else [*bounds, end][0]
        scratch, bad = self.rows[3, :end], end
        if frozen:  # every width is its waist's, and every recovery ratio 1.0
            before = mins[:-1]
            if self.sink is not None:
                (x, y, z), narrowest = waist_widths(), per_collision(mins)
        else:  # one readout for the window
            np.subtract(times[:end], per_collision([w.t_ref for w in waists]), out=scratch)
            x, y, z = spread_into(waist_widths(), self.mass, scratch, self.rows[:3, :end])
            narrowest = x if y is x else np.minimum(np.minimum(x, y, out=scratch), z, out=scratch)
            # Widths grow between firings, and a firing's are finite: only the
            # last segment can hold widths that are not, and its last are widest.
            if not (x[-1] < math.inf and y[-1] < math.inf and z[-1] < math.inf):
                bad = int(np.argmin((x < math.inf) & (y < math.inf) & (z < math.inf)))
            before = [narrowest.item(f) for f in fired]
        if bad < end or error is not None:
            # The first failure in time order raises: a grid row after
            # collision ``bad - 1`` (one before is no wider than its finite
            # widths), the widths of collision ``bad`` (``_widths_at``
            # raises), or the candidate's contraction (``error``).
            self.sink = None  # the run returns no rows
            self.skip_through(times.item(bad - 1) if bad else state.t)
            self.samples_before(waists[-1], times.item(bad), state.n_collisions + bad)
            _widths_at(waists[-1], self.mass, times.item(bad), state.n_collisions + bad)
            raise error
        if self.sink is not None:
            in_cluster = np.less(narrowest, radius, out=self.cluster[:end])
        if frozen:
            scratch[first:] = 1.0
        elif first < end:
            np.divide(narrowest, per_collision(mins), out=scratch)
        if self.sink is not None:
            for f, sigma in zip(fired, sigmas[1:]):
                x[f], y[f], z[f] = sigma
                in_cluster[f] = min(sigma) < radius
            self._rows(waists, fired, (times[:end], x, y, z, in_cluster.view(np.int8)))
        else:  # no grid row fails: its widths lie between a waist's and a collision's
            self.skip_through(times.item(end - 1))
        for waist, sigma_before, sigma in zip(waists, before, sigmas[1:]):
            sums.add_firing(waist, sigma_before, min(sigma))
        sums.add_recovery(scratch[first:])
        n_end, state = state.n_collisions + end, waists[-1]
        if state.n_collisions < n_end:  # collisions after the last firing
            state = SimState(
                times.item(end - 1), state.t_ref, state.sigma, state.alpha, n_end,
                state.n_collapses,
            )
        return state


def run(
    config: ScenarioConfig, keep_records: bool = True, max_collisions: Optional[int] = None
) -> tuple[RunSummary, Records]:
    """Simulate one scenario from t=0 to t=duration.

    Emits one row per collision plus rows on the uniform sampling grid and
    at t=0 and t=duration to the returned :class:`Records` store; when
    ``keep_records`` is false no row is built and the store stays empty.
    An event drawn beyond the duration is not processed.  ``max_collisions``,
    a non-negative integer, caps the number of processed events.
    Collisions are decided, then filled, a window at a time (see the module
    docstring).  Rows, summary and stream position equal those of a loop
    over :func:`step`.
    """
    if max_collisions is not None:
        _check_count("max_collisions", max_collisions, 0)
    return _run(config, config.seed, keep_records, max_collisions)


def _run(
    config: ScenarioConfig, seed: int, keep_records: bool, max_collisions: Optional[int],
    buffers: Optional[_Buffers] = None,
) -> tuple[RunSummary, Records]:
    """:func:`run` of ``config`` with ``seed``, a valid seed, in place of its
    own, and a ``max_collisions`` already checked; its windows use
    ``buffers``, or buffers of their own."""
    alphas = np.array(config.object.cluster_alphas)
    rng = RngState(seed)
    state = initial_state(config, rng)
    records = Records()
    buffers = _Buffers(_BLOCK_SIZE) if buffers is None else buffers
    fill = _Fill(config, records if keep_records else None, state, buffers)
    fill.sample(state, 0.0, 0)
    budget_exhausted = False

    # A width that is not finite is found in numpy and raised in scalar.
    with np.errstate(all="ignore"):
        while config.environment.collision_rate > 0.0:
            limit = len(buffers.times)
            if max_collisions is not None:
                limit = min(limit, max_collisions - state.n_collisions)
                if limit <= 0:
                    budget_exhausted = True
                    break
            end, firings, error, done = _decide(config, state, rng, buffers, alphas, limit)
            state = fill.window(state, end, firings, error)
            if done:  # the window ended at the duration
                break

    fill.samples_before(state, config.duration, state.n_collisions)
    # No final row when a collision fell exactly on the duration.
    final_sigma = fill.sample(state, config.duration, state.n_collisions, state.t < config.duration)
    # Widths only grow from a waist, so the final ones never lower ``min_sigma``.
    summary = RunSummary(
        seed=seed,
        duration=config.duration,
        n_collisions=state.n_collisions,
        n_collapses=state.n_collapses,
        final_sigma=final_sigma,
        final_min_sigma=min(final_sigma),
        **vars(fill.sums),
        localized=min(final_sigma) <= fill.internal_radius,
        final_regime=regime_for(final_sigma, fill.internal_radius),
        budget_exhausted=budget_exhausted,
        rng_position=state.position,
    )
    return summary, records


@dataclass(frozen=True)
class EnsembleSummary:
    """Order-independent aggregation over independent replicas."""

    n_replicas: int
    base_seed: int
    total_collisions: int
    total_collapses: int
    firing_fraction: float
    mean_recovery_ratio: Optional[float]
    recovery_samples: int
    # None when no replica succeeded.
    final_min_sigma_mean: Optional[float]
    localized_fraction: float
    replicas: tuple[RunSummary, ...]
    failures: tuple[tuple[int, str], ...]


def aggregate_summaries(
    summaries: list[RunSummary],
    base_seed: int,
    failures: list[tuple[int, str]],
) -> EnsembleSummary:
    """Merge replica summaries; sorting by seed makes the result independent
    of the order in which replicas finished."""
    ordered = tuple(sorted(summaries, key=lambda s: s.seed))
    total_collisions = sum(s.n_collisions for s in ordered)
    total_collapses = sum(s.n_collapses for s in ordered)
    recovery_sum = sum(s.recovery_ratio_sum for s in ordered)
    recovery_samples = sum(s.recovery_samples for s in ordered)
    finals = np.array([s.final_min_sigma for s in ordered])
    return EnsembleSummary(
        len(ordered) + len(failures),  # n_replicas
        base_seed,
        total_collisions=total_collisions,
        total_collapses=total_collapses,
        firing_fraction=(total_collapses / total_collisions) if total_collisions else 0.0,
        mean_recovery_ratio=(recovery_sum / recovery_samples) if recovery_samples else None,
        recovery_samples=recovery_samples,
        final_min_sigma_mean=float(np.mean(finals)) if len(finals) else None,
        localized_fraction=(
            sum(1 for s in ordered if s.localized) / len(ordered) if ordered else 0.0
        ),
        replicas=ordered,
        failures=tuple(sorted(failures)),
    )


def run_ensemble(
    config: ScenarioConfig, n_replicas: int, max_collisions: Optional[int] = None
) -> EnsembleSummary:
    """Run independent replicas with seeds ``config.seed + index`` and aggregate.

    A failing replica is reported in ``failures`` without aborting the rest.
    """
    _check_count("n_replicas", n_replicas, 1)
    if max_collisions is not None:
        _check_count("max_collisions", max_collisions, 0)
    summaries: list[RunSummary] = []
    failures: list[tuple[int, str]] = []
    buffers = _Buffers(_BLOCK_SIZE)  # one set for every replica
    # Every replica's seed is valid: ``config.seed`` is a non-negative
    # integer (``ScenarioConfig`` refuses any other), and so is every
    # ``config.seed + i``.  No replica re-runs the config's rules.
    for seed in range(config.seed, config.seed + n_replicas):
        try:
            summaries.append(_run(config, seed, False, max_collisions, buffers)[0])
        except EngineError as exc:
            failures.append((seed, str(exc)))
    return aggregate_summaries(summaries, config.seed, failures)
