"""Event-driven simulator of criterion-gated wavepacket contraction.

Gaussian center-of-mass packets carry absolute phase constants, spread
freely between environment encounters and contract to the overlap support
when an encounter satisfies a two-part phase/overlap criterion.  Light and
heavy objects in the same environment end up on opposite sides of a
localization divide because the free spreading rate scales as 1/mass.
"""

from .config import (
    PRESETS,
    ConfigError,
    EnvironmentSpec,
    ObjectSpec,
    ScenarioConfig,
    parse_config,
    preset,
    to_document,
)
from .criterion import overlap_integral
from .engine import (
    EngineError,
    EnsembleSummary,
    LastEvent,
    Records,
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
    RngState,
    draw_phase,
    next_collision,
)
from .packets import (
    GaussianPacket,
    de_broglie_wavelength,
    spreading_velocity,
    spreading_velocity_via_lambda,
)
from .recording import RecordWriteError, read_records, write_records
from .sweep import SweepAxis, SweepRow, sweep

__version__ = "0.1.0"

# The quadrature oracle imports scipy.integrate, most of the package's import
# time; it loads on first use of one of these names.
_QUADRATURE_NAMES = ("QuadratureError", "norm_quadrature", "overlap_integral_quadrature")


def __getattr__(name: str):
    if name in _QUADRATURE_NAMES:
        from . import quadrature

        return getattr(quadrature, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CollisionEvent",
    "ConfigError",
    "EngineError",
    "EnsembleSummary",
    "EnvironmentSpec",
    "GaussianPacket",
    "LastEvent",
    "ObjectSpec",
    "PRESETS",
    "QuadratureError",
    "RecordWriteError",
    "Records",
    "Regime",
    "RngState",
    "RunSummary",
    "ScenarioConfig",
    "SimState",
    "SweepAxis",
    "SweepRow",
    "TimeSeriesRecord",
    "de_broglie_wavelength",
    "draw_phase",
    "initial_state",
    "next_collision",
    "norm_quadrature",
    "overlap_integral",
    "overlap_integral_quadrature",
    "parse_config",
    "preset",
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
