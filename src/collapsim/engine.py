"""Event-driven simulation loop.

The object is held as one packet at its waist, the state of its last
contraction (or of t=0).  Free spreading is analytic, so stepping jumps from
collision to collision and reads the widths out from the waist.  Each
encounter is decided on plain values: the readout widths and the drawn
offset, width and phase constant of the environment packet.  The offset is
relative to the object, so its absolute position never enters the decision.
A collision that does not fire changes only the counters; a firing one
builds the new waist.

The comparison phase constant depends on the regime: while the packet still
covers the object's internal extent the object's own constant is used
(``CM_PHASE``); once the packet is narrower than the internal radius an
environment packet meets only one of the object's clusters, so a uniformly
chosen cluster constant is compared instead and the contraction is damped
(``CLUSTER_PHASE``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .config import RANDOM_ALPHA, ScenarioConfig
from .constants import CODATA, PhysicalConstants
from .contraction import product_support
from .criterion import criterion_fires
from .environment import CollisionEvent, EnvironmentSpec, RngState, draw_phase, next_collision
from .packets import GaussianPacket, ObjectSpec, Vec3, evolve_free, spread_widths


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
    """Simulation state at time ``t``.

    ``object_packet`` is the object's waist, its packet at the last collapse
    (or at t=0); ``evolve_free(object_packet, t)`` reads the object out at t.
    """

    t: float
    object_packet: GaussianPacket
    object_spec: ObjectSpec
    n_collisions: int
    n_collapses: int
    regime: Regime
    rng: RngState


@dataclass(frozen=True, slots=True)
class TimeSeriesRecord:
    t: float
    sigma: Vec3
    n_collisions: int
    n_collapses: int
    regime: Regime
    last_event: LastEvent


def regime_for(sigma: Vec3, internal_radius: float) -> Regime:
    """Cluster regime once the narrowest axis is inside the object."""
    return Regime.CLUSTER_PHASE if min(sigma) < internal_radius else Regime.CM_PHASE


def damped_sigma(sigma_old: Vec3, sigma_p: Vec3, eta: float) -> Vec3:
    """Apply the cluster-regime damping law per axis.

    The contracted width becomes sigma_old * (sigma_p / sigma_old)**eta;
    eta = 1 reproduces the undamped contraction.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    return tuple(so * (sp / so) ** eta for so, sp in zip(sigma_old, sigma_p))


def initial_state(config: ScenarioConfig, constants: PhysicalConstants = CODATA) -> SimState:
    """Build the t=0 state; draws the object phase constant if configured."""
    rng = RngState(config.seed)
    if config.initial_alpha == RANDOM_ALPHA:
        alpha, rng = draw_phase(rng)
    else:
        alpha = config.initial_alpha
    packet = GaussianPacket(
        center=(0.0, 0.0, 0.0),
        sigma=config.initial_sigma,
        velocity=(config.object.v0, 0.0, 0.0),
        mass=config.object.mass,
        alpha=alpha,
        t_ref=0.0,
    )
    return SimState(
        t=0.0,
        object_packet=packet,
        object_spec=config.object,
        n_collisions=0,
        n_collapses=0,
        regime=regime_for(packet.sigma, config.object.internal_radius),
        rng=rng,
    )


def _widths_at(state: SimState, t: float, constants: PhysicalConstants) -> Vec3:
    """Object widths at time t, read out from the waist."""
    waist = state.object_packet
    try:
        sigma = spread_widths(waist.ref_sigma, waist.mass, t - waist.t_ref, constants)
        if not all(0.0 < s < math.inf for s in sigma):
            raise OverflowError(f"widths {sigma} are not positive and finite")
    except ArithmeticError as exc:
        raise EngineError(
            f"non-finite state at t={t} "
            f"(collisions={state.n_collisions}, collapses={state.n_collapses}): {exc}"
        ) from exc
    return sigma


def _collide(
    state: SimState,
    event: CollisionEvent,
    constants: PhysicalConstants,
    cluster_eta: float,
    redraw_alpha: bool,
) -> tuple[SimState, TimeSeriesRecord, float, bool]:
    """Advance through one collision.

    Returns the new state, its record, the minimum-axis width immediately
    before the collision, and whether the criterion fired.
    """
    rng = state.rng
    waist = state.object_packet
    spec = state.object_spec
    sigma = _widths_at(state, event.time, constants)
    sigma_before_min = min(sigma)
    cluster = sigma_before_min < spec.internal_radius
    alpha = waist.alpha
    if cluster:
        alphas = spec.cluster_alphas
        alpha = alphas[min(int(rng.uniform() * len(alphas)), len(alphas) - 1)]
    fired = criterion_fires(alpha, event.alpha, sigma, event.sigma, event.offset, constants)
    n_collapses = state.n_collapses
    last_event = LastEvent.COLLISION_NO_COLLAPSE
    if fired:
        readout = evolve_free(waist, event.time, constants)
        env_center = tuple(c + o for c, o in zip(readout.center, event.offset))
        center, sigma = product_support(readout.center, readout.sigma, env_center, event.sigma)
        if cluster and cluster_eta != 1.0:
            sigma = damped_sigma(readout.sigma, sigma, cluster_eta)
        if redraw_alpha:
            alpha, rng = draw_phase(rng)
        else:
            alpha = waist.alpha
        waist = GaussianPacket(
            center=center,
            sigma=sigma,
            velocity=waist.velocity,
            mass=waist.mass,
            alpha=alpha,
            t_ref=event.time,
        )
        n_collapses += 1
        last_event = LastEvent.COLLAPSE

    regime_after = regime_for(sigma, spec.internal_radius)
    new_state = SimState(
        t=event.time,
        object_packet=waist,
        object_spec=spec,
        n_collisions=state.n_collisions + 1,
        n_collapses=n_collapses,
        regime=regime_after,
        rng=rng,
    )
    record = TimeSeriesRecord(
        t=event.time,
        sigma=sigma,
        n_collisions=new_state.n_collisions,
        n_collapses=n_collapses,
        regime=regime_after,
        last_event=last_event,
    )
    return new_state, record, sigma_before_min, fired


def step(
    state: SimState,
    env_spec: EnvironmentSpec,
    constants: PhysicalConstants = CODATA,
    cluster_eta: float = 1.0,
    redraw_alpha: bool = False,
) -> tuple[SimState, TimeSeriesRecord]:
    """Advance to the next collision and resolve it."""
    event, _ = next_collision(state.rng, env_spec, state.t)
    if event is None:
        raise ValueError("step requires a positive collision rate")
    new_state, record, _, _ = _collide(state, event, constants, cluster_eta, redraw_alpha)
    return new_state, record


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


def run(
    config: ScenarioConfig,
    constants: PhysicalConstants = CODATA,
    keep_records: bool = True,
    max_collisions: Optional[int] = None,
) -> tuple[RunSummary, list[TimeSeriesRecord]]:
    """Simulate one scenario from t=0 to t=duration.

    Emits one record per collision plus records on the uniform sampling grid
    and at t=0 and t=duration.  An event drawn beyond the duration is not
    processed.  ``max_collisions`` caps the number of processed events.
    """
    state = initial_state(config, constants)
    internal_radius = config.object.internal_radius

    records: list[TimeSeriesRecord] = []

    def emit(record: TimeSeriesRecord) -> None:
        if keep_records:
            records.append(record)

    def sample_record(t_sample: float) -> TimeSeriesRecord:
        sigma = _widths_at(state, t_sample, constants)
        return TimeSeriesRecord(
            t=t_sample,
            sigma=sigma,
            n_collisions=state.n_collisions,
            n_collapses=state.n_collapses,
            regime=regime_for(sigma, internal_radius),
            last_event=LastEvent.NONE,
        )

    emit(sample_record(0.0))

    min_sigma = min(state.object_packet.sigma)
    recovery_sum = 0.0
    recovery_samples = 0
    respread_sum = 0.0
    respread_samples = 0
    collapse_before_sum = 0.0
    collapse_after_sum = 0.0
    sigma_after_last_collapse: Optional[float] = None
    next_sample = config.sample_interval
    budget_exhausted = False

    while True:
        if max_collisions is not None and state.n_collisions >= max_collisions:
            budget_exhausted = True
            break
        event, _ = next_collision(state.rng, config.environment, state.t)
        if event is None:  # zero collision rate
            break
        if event.time > config.duration:
            break
        while next_sample < event.time:
            emit(sample_record(next_sample))
            next_sample += config.sample_interval
        if next_sample == event.time:
            next_sample += config.sample_interval
        state, record, sigma_before, fired = _collide(
            state, event, constants, config.cluster_eta, config.redraw_alpha_after_collapse
        )
        emit(record)
        if sigma_after_last_collapse is not None:
            recovery_sum += sigma_before / sigma_after_last_collapse
            recovery_samples += 1
            if fired:
                respread_sum += sigma_before / sigma_after_last_collapse
                respread_samples += 1
        if fired:
            sigma_after_min = min(state.object_packet.sigma)
            collapse_before_sum += sigma_before
            collapse_after_sum += sigma_after_min
            sigma_after_last_collapse = sigma_after_min
            if sigma_after_min < min_sigma:
                min_sigma = sigma_after_min

    while next_sample < config.duration:
        emit(sample_record(next_sample))
        next_sample += config.sample_interval
    final = sample_record(config.duration)
    if not records or records[-1].t < config.duration:
        emit(final)

    summary = RunSummary(
        seed=config.seed,
        duration=config.duration,
        n_collisions=state.n_collisions,
        n_collapses=state.n_collapses,
        final_sigma=final.sigma,
        final_min_sigma=min(final.sigma),
        min_sigma=min(min_sigma, min(final.sigma)),
        recovery_ratio_sum=recovery_sum,
        recovery_samples=recovery_samples,
        respread_sum=respread_sum,
        respread_samples=respread_samples,
        collapse_before_sum=collapse_before_sum,
        collapse_after_sum=collapse_after_sum,
        localized=min(final.sigma) <= internal_radius,
        final_regime=final.regime,
        budget_exhausted=budget_exhausted,
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
    final_min_sigma_mean: float
    final_min_sigma_quantiles: tuple[float, float, float]
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
        n_replicas=len(ordered) + len(failures),
        base_seed=base_seed,
        total_collisions=total_collisions,
        total_collapses=total_collapses,
        firing_fraction=(total_collapses / total_collisions) if total_collisions else 0.0,
        mean_recovery_ratio=(recovery_sum / recovery_samples) if recovery_samples else None,
        recovery_samples=recovery_samples,
        final_min_sigma_mean=float(np.mean(finals)) if len(finals) else math.nan,
        final_min_sigma_quantiles=(
            tuple(float(q) for q in np.quantile(finals, (0.1, 0.5, 0.9)))
            if len(finals)
            else (math.nan, math.nan, math.nan)
        ),
        localized_fraction=(
            sum(1 for s in ordered if s.localized) / len(ordered) if ordered else 0.0
        ),
        replicas=ordered,
        failures=tuple(sorted(failures)),
    )


def run_ensemble(
    config: ScenarioConfig,
    n_replicas: int,
    base_seed: Optional[int] = None,
    constants: PhysicalConstants = CODATA,
    max_collisions: Optional[int] = None,
) -> EnsembleSummary:
    """Run independent replicas with seeds base_seed + index and aggregate.

    A failing replica is reported in ``failures`` without aborting the rest.
    """
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    if base_seed is None:
        base_seed = config.seed
    summaries: list[RunSummary] = []
    failures: list[tuple[int, str]] = []
    for i in range(n_replicas):
        seed = base_seed + i
        try:
            summary, _ = run(
                replace(config, seed=seed),
                constants,
                keep_records=False,
                max_collisions=max_collisions,
            )
            summaries.append(summary)
        except EngineError as exc:
            failures.append((seed, str(exc)))
    return aggregate_summaries(summaries, base_seed, failures)
