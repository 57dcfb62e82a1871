"""Scenario configuration: presets, document parsing and validation.

Config documents are flat JSON objects with units encoded in the key names
(``mass_kg``, ``duration_s``, ...).  Unknown keys are rejected and all
validation problems are reported together rather than one at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

from numpy.random import PCG64, Generator

from .environment import EnvironmentSpec
from .packets import TWO_PI, ObjectSpec, Vec3, as_vec3

OUTPUT_FORMATS = ("csv", "json")

RANDOM_ALPHA = "random"


class ConfigError(ValueError):
    """Carries every validation problem found in a config document."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete input of one simulation run."""

    object: ObjectSpec
    initial_sigma: Vec3
    initial_alpha: Union[float, str]
    environment: EnvironmentSpec
    duration: float
    seed: int
    sample_interval: float
    cluster_eta: float
    output_path: Union[str, None] = None
    output_format: str = "csv"
    redraw_alpha_after_collapse: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "initial_sigma", as_vec3(self.initial_sigma, "initial_sigma"))
        object.__setattr__(self, "duration", float(self.duration))
        object.__setattr__(self, "sample_interval", float(self.sample_interval))
        object.__setattr__(self, "cluster_eta", float(self.cluster_eta))
        object.__setattr__(self, "seed", int(self.seed))
        problems = []
        for s in self.initial_sigma:
            if not (s > 0.0 and math.isfinite(s)):
                problems.append(f"initial_sigma components must be positive, got {self.initial_sigma}")
                break
        if self.initial_alpha != RANDOM_ALPHA:
            a = float(self.initial_alpha)
            if not (0.0 <= a < TWO_PI):
                problems.append(f"initial_alpha must lie in [0, 2*pi) or be '{RANDOM_ALPHA}', got {a}")
            else:
                object.__setattr__(self, "initial_alpha", a)
        if not (self.duration > 0.0 and math.isfinite(self.duration)):
            problems.append(f"duration must be positive, got {self.duration}")
        if self.seed < 0:
            problems.append(f"seed must be a non-negative integer, got {self.seed}")
        if not (self.sample_interval > 0.0 and math.isfinite(self.sample_interval)):
            problems.append(f"sample_interval must be positive, got {self.sample_interval}")
        if not (0.0 < self.cluster_eta <= 1.0):
            problems.append(f"cluster_eta must lie in (0, 1], got {self.cluster_eta}")
        if self.output_format not in OUTPUT_FORMATS:
            problems.append(f"output_format must be one of {OUTPUT_FORMATS}, got {self.output_format!r}")
        if problems:
            raise ConfigError(problems)


# Preset housekeeping: cluster phase constants are pseudorandom per object
# but fixed per preset so a preset is a pure function of its name.
_PRESET_CLUSTER_SEEDS = {"tpp": 0x74707001, "sugar_grain": 0x53554701}


def _preset_cluster_alphas(name: str, n: int) -> tuple[float, ...]:
    gen = Generator(PCG64(_PRESET_CLUSTER_SEEDS[name]))
    return tuple(float(a) for a in TWO_PI * gen.random(n))


# Environment defaults shared by both presets.  The stream parameters are
# artifact constants (nothing in the model pins them); they are chosen so a
# default run shows both the fast-recovery and the frozen regime within a
# fraction of a second of simulated time at practical runtime.
_DEFAULT_ENVIRONMENT = dict(
    collision_rate=1e6,
    env_sigma=(5e-11, 5e-11, 5e-11),
    env_sigma_jitter=0.0,
    impact_spread=0.0,
)
_DEFAULT_DURATION = 0.05
_DEFAULT_SAMPLE_INTERVAL = 1e-3
_DEFAULT_SEED = 1
_DEFAULT_CLUSTER_ETA = 0.5

# The object's own phase constant is pinned at 0 in the presets: the smaller
# of the two compared constants is then 0 while the object spans more than
# the environment packets, so the amplitude clause holds with equality and
# the phase-gap clause alone gates collapse.  With a generic constant the
# first contraction of a wide packet would be a ~1e-14-per-collision event
# and no finite demo run would ever show localization.
_DEFAULT_INITIAL_ALPHA = 0.0


def preset(name: str) -> ScenarioConfig:
    """Built-in scenarios for a light molecule and a heavy grain.

    ``tpp``: a 1.7e-23 kg molecule of 5e-9 m diameter moving at 10 m/s,
    initially spread over a hundred times its own diameter.
    ``sugar_grain``: a 1e-7 kg grain of 0.5e-3 m diameter at 10 m/s, with the
    same relative initial spread (an artifact choice for symmetry).
    """
    if name == "tpp":
        obj = ObjectSpec(
            mass=1.7e-23,
            internal_radius=2.5e-9,
            v0=10.0,
            cluster_alphas=_preset_cluster_alphas("tpp", 1),
        )
    elif name == "sugar_grain":
        obj = ObjectSpec(
            mass=1e-7,
            internal_radius=2.5e-4,
            v0=10.0,
            cluster_alphas=_preset_cluster_alphas("sugar_grain", 64),
        )
    else:
        raise ValueError(
            f"unknown preset {name!r}; available presets: {', '.join(sorted(PRESETS))}"
        )
    initial_sigma = 100.0 * obj.diameter
    return ScenarioConfig(
        object=obj,
        initial_sigma=(initial_sigma, initial_sigma, initial_sigma),
        initial_alpha=_DEFAULT_INITIAL_ALPHA,
        environment=EnvironmentSpec(**_DEFAULT_ENVIRONMENT),
        duration=_DEFAULT_DURATION,
        seed=_DEFAULT_SEED,
        sample_interval=_DEFAULT_SAMPLE_INTERVAL,
        cluster_eta=_DEFAULT_CLUSTER_ETA,
    )


PRESETS = ("tpp", "sugar_grain")


_REQUIRED_KEYS = (
    "mass_kg",
    "internal_radius_m",
    "v0_m_per_s",
    "cluster_alphas_rad",
    "initial_sigma_m",
    "initial_alpha_rad",
    "collision_rate_hz",
    "env_sigma_m",
    "duration_s",
    "seed",
    "sample_interval_s",
    "cluster_eta",
)
_OPTIONAL_KEYS = (
    "n_clusters",
    "env_sigma_jitter",
    "impact_spread_m",
    "output_path",
    "output_format",
    "redraw_alpha_after_collapse",
)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a flat JSON config document.

    Raises :class:`ConfigError` listing every problem found; JSON syntax
    errors carry line and column.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"config is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"]
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["config document must be a JSON object"])

    problems = []
    known = set(_REQUIRED_KEYS) | set(_OPTIONAL_KEYS)
    for key in sorted(set(doc) - known):
        problems.append(f"unknown key: {key!r}")
    for key in _REQUIRED_KEYS:
        if key not in doc:
            problems.append(f"missing required key: {key!r}")

    def positive(key: str) -> float:
        if key not in doc:  # already reported as missing
            return 1.0
        v = doc[key]
        if not isinstance(v, (int, float)) or not v > 0 or not math.isfinite(v):
            problems.append(f"{key} must be a positive finite number, got {v!r}")
            return 1.0
        return float(v)

    mass = positive("mass_kg")
    internal_radius = positive("internal_radius_m")
    duration = positive("duration_s")
    sample_interval = positive("sample_interval_s")
    cluster_eta = doc.get("cluster_eta", 1.0)
    if not isinstance(cluster_eta, (int, float)) or not 0.0 < cluster_eta <= 1.0:
        problems.append(f"cluster_eta must lie in (0, 1], got {cluster_eta!r}")
        cluster_eta = 1.0

    v0 = doc.get("v0_m_per_s", 0.0)
    if not isinstance(v0, (int, float)) or v0 < 0 or not math.isfinite(v0):
        problems.append(f"v0_m_per_s must be a non-negative number, got {v0!r}")
        v0 = 0.0

    rate = doc.get("collision_rate_hz", 0.0)
    if not isinstance(rate, (int, float)) or rate < 0 or not math.isfinite(rate):
        problems.append(f"collision_rate_hz must be a non-negative number, got {rate!r}")
        rate = 0.0

    alphas = doc.get("cluster_alphas_rad", [0.0])
    if not isinstance(alphas, list) or not alphas or not all(
        isinstance(a, (int, float)) and math.isfinite(a) for a in alphas
    ):
        problems.append(
            f"cluster_alphas_rad must be a non-empty list of finite numbers, got {alphas!r}"
        )
        alphas = [0.0]
    if "n_clusters" in doc and doc["n_clusters"] != len(alphas):
        problems.append(
            f"n_clusters ({doc['n_clusters']!r}) does not match "
            f"len(cluster_alphas_rad) ({len(alphas)})"
        )

    def vec(key: str):
        v = doc.get(key, 1.0)
        try:
            return as_vec3(v, key)
        except (TypeError, ValueError):
            problems.append(f"{key} must be a positive number or length-3 list, got {v!r}")
            return (1.0, 1.0, 1.0)

    initial_sigma = vec("initial_sigma_m")
    env_sigma = vec("env_sigma_m")

    initial_alpha = doc.get("initial_alpha_rad", 0.0)
    if initial_alpha != RANDOM_ALPHA and not isinstance(initial_alpha, (int, float)):
        problems.append(
            f"initial_alpha_rad must be a number or '{RANDOM_ALPHA}', got {initial_alpha!r}"
        )
        initial_alpha = 0.0

    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        problems.append(f"seed must be a non-negative integer, got {seed!r}")
        seed = 0

    def number(key: str) -> float:
        v = doc.get(key, 0.0)
        if not isinstance(v, (int, float)):
            problems.append(f"{key} must be a number, got {v!r}")
            return 0.0
        return v

    jitter = number("env_sigma_jitter")
    spread = number("impact_spread_m")
    output_path = doc.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        problems.append(f"output_path must be a string or null, got {output_path!r}")
        output_path = None
    output_format = doc.get("output_format", "csv")
    redraw = doc.get("redraw_alpha_after_collapse", False)
    if not isinstance(redraw, bool):
        problems.append(f"redraw_alpha_after_collapse must be a boolean, got {redraw!r}")
        redraw = False

    try:
        obj = ObjectSpec(
            mass=mass, internal_radius=internal_radius, v0=v0, cluster_alphas=tuple(alphas)
        )
    except ValueError as exc:
        problems.append(str(exc))
        obj = None
    try:
        env = EnvironmentSpec(
            collision_rate=rate,
            env_sigma=env_sigma,
            env_sigma_jitter=jitter,
            impact_spread=spread,
        )
    except ValueError as exc:
        problems.append(str(exc))
        env = None

    # ScenarioConfig checks its own fields whether or not the specs built, so
    # its problems join the list either way.
    try:
        config = ScenarioConfig(
            object=obj,
            initial_sigma=initial_sigma,
            initial_alpha=initial_alpha,
            environment=env,
            duration=duration,
            seed=seed,
            sample_interval=sample_interval,
            cluster_eta=cluster_eta,
            output_path=output_path,
            output_format=output_format,
            redraw_alpha_after_collapse=redraw,
        )
    except ConfigError as exc:
        problems.extend(exc.problems)
    if problems:
        raise ConfigError(problems)
    return config


def to_document(config: ScenarioConfig) -> dict:
    """Flat JSON-compatible dict that parses back to an equal config."""
    return {
        "mass_kg": config.object.mass,
        "internal_radius_m": config.object.internal_radius,
        "v0_m_per_s": config.object.v0,
        "n_clusters": config.object.n_clusters,
        "cluster_alphas_rad": list(config.object.cluster_alphas),
        "initial_sigma_m": list(config.initial_sigma),
        "initial_alpha_rad": config.initial_alpha,
        "collision_rate_hz": config.environment.collision_rate,
        "env_sigma_m": list(config.environment.env_sigma),
        "env_sigma_jitter": config.environment.env_sigma_jitter,
        "impact_spread_m": config.environment.impact_spread,
        "duration_s": config.duration,
        "seed": config.seed,
        "sample_interval_s": config.sample_interval,
        "cluster_eta": config.cluster_eta,
        "output_path": config.output_path,
        "output_format": config.output_format,
        "redraw_alpha_after_collapse": config.redraw_alpha_after_collapse,
    }
