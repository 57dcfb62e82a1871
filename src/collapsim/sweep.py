"""Parameter sweeps for mapping where fast recovery gives way to freezing."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional

from .config import ScenarioConfig
from .engine import _check_count, run_ensemble


class SweepAxis(enum.Enum):
    MASS = "mass"
    DIAMETER = "diameter"
    RATE = "rate"


@dataclass(frozen=True)
class SweepRow:
    value: float
    n_replicas: int
    mean_recovery_ratio: Optional[float]
    localized_fraction: float
    firing_fraction: float
    error: Optional[str] = None


def _apply_axis(config: ScenarioConfig, axis: SweepAxis, value: float) -> ScenarioConfig:
    if axis is SweepAxis.MASS:
        return replace(config, object=replace(config.object, mass=value))
    if axis is SweepAxis.DIAMETER:
        return replace(config, object=replace(config.object, internal_radius=value / 2.0))
    # SweepAxis.RATE: sweep() refuses any other axis before it runs.
    return replace(config, environment=replace(config.environment, collision_rate=value))


def sweep(
    base: ScenarioConfig, axis: SweepAxis, values: list[float], n_replicas: int
) -> list[SweepRow]:
    """Run one ensemble per value; rows come back sorted by value.

    A failure at one value is recorded in its row without stopping the sweep.
    """
    if not isinstance(axis, SweepAxis):
        raise ValueError(f"unknown sweep axis {axis!r}")
    if not values:
        raise ValueError("sweep needs at least one value")
    if not all(0.0 < v < math.inf for v in values):
        raise ValueError(f"sweep values must be positive and finite, got {values}")
    _check_count("n_replicas", n_replicas, 1)
    rows = []
    for value in sorted(values):
        try:
            summary = run_ensemble(_apply_axis(base, axis, value), n_replicas)
            error = None
            if summary.failures:
                error = (
                    f"{len(summary.failures)}/{n_replicas} replicas failed: "
                    f"{summary.failures[0][1]}"
                )
            rows.append(
                SweepRow(
                    value=value,
                    n_replicas=n_replicas,
                    mean_recovery_ratio=summary.mean_recovery_ratio,
                    localized_fraction=summary.localized_fraction,
                    firing_fraction=summary.firing_fraction,
                    error=error,
                )
            )
        except (ValueError, RuntimeError) as exc:
            rows.append(
                SweepRow(
                    value=value,
                    n_replicas=n_replicas,
                    mean_recovery_ratio=None,
                    localized_fraction=0.0,
                    firing_fraction=0.0,
                    error=str(exc),
                )
            )
    return rows
