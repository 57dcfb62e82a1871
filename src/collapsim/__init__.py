"""Event-driven simulator of criterion-gated wavepacket contraction.

Gaussian center-of-mass packets carry absolute phase constants, spread
freely between environment encounters and contract to the overlap support
when an encounter satisfies a two-part phase/overlap criterion.  Light and
heavy objects in the same environment end up on opposite sides of a
localization divide because the free spreading rate scales as 1/mass.
"""

from .config import PRESETS, ConfigError, ScenarioConfig, parse_config, preset, to_document
from .constants import CODATA, PhysicalConstants
from .contraction import ContractionResult, apply_collapse, product_gaussian
from .criterion import (
    CriterionOutcome,
    amplitude_criterion,
    criterion_fires_batch,
    evaluate_criterion,
    overlap_integral,
    phase_criterion,
)
from .engine import (
    EngineError,
    EnsembleSummary,
    LastEvent,
    Regime,
    RunSummary,
    SimState,
    TimeSeriesRecord,
    initial_state,
    run,
    run_ensemble,
    step,
)
from .environment import (
    CollisionEvent,
    EnvironmentSpec,
    RngState,
    draw_phase,
    draw_phases,
    next_collision,
)
from .packets import (
    GaussianPacket,
    ObjectSpec,
    asymptotic_regime_check,
    de_broglie_wavelength,
    evolve_free,
    spreading_velocity,
    spreading_velocity_via_lambda,
)
from .quadrature import QuadratureError, norm_quadrature, overlap_integral_quadrature
from .recording import RecordWriteError, read_records, write_records
from .sweep import SweepAxis, SweepRow, sweep

__version__ = "0.1.0"

__all__ = [
    "CODATA",
    "CollisionEvent",
    "ConfigError",
    "ContractionResult",
    "CriterionOutcome",
    "EngineError",
    "EnsembleSummary",
    "EnvironmentSpec",
    "GaussianPacket",
    "LastEvent",
    "ObjectSpec",
    "PRESETS",
    "PhysicalConstants",
    "QuadratureError",
    "RecordWriteError",
    "Regime",
    "RngState",
    "RunSummary",
    "ScenarioConfig",
    "SimState",
    "SweepAxis",
    "SweepRow",
    "TimeSeriesRecord",
    "amplitude_criterion",
    "apply_collapse",
    "asymptotic_regime_check",
    "criterion_fires_batch",
    "de_broglie_wavelength",
    "draw_phase",
    "draw_phases",
    "evaluate_criterion",
    "evolve_free",
    "initial_state",
    "next_collision",
    "norm_quadrature",
    "overlap_integral",
    "overlap_integral_quadrature",
    "parse_config",
    "phase_criterion",
    "preset",
    "product_gaussian",
    "read_records",
    "run",
    "run_ensemble",
    "spreading_velocity",
    "spreading_velocity_via_lambda",
    "step",
    "sweep",
    "to_document",
    "write_records",
]
