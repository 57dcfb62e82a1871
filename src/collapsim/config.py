"""Scenario configuration: the input types, presets and document parsing.

Config documents are flat JSON objects with units encoded in the key names
(``mass_kg``, ``duration_s``, ...).  One table, ``_KEYS``, names each key
once, with the field it fills, its stand-in and whether it is required;
:func:`parse_config` builds the specs from it and :func:`to_document` reads
it back.  One rule set serves every input: each rule is written once, in
the constructor of the type that holds the value, names the document key,
and takes a number as an int or a float, never a bool or a string.  A
constructor reports all of its problems in one :class:`ConfigError`.
:func:`parse_config` checks only the JSON (syntax, object shape, unknown
and missing keys) and lists together the problems of the three types it
builds.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional, Union

from numpy.random import PCG64, Generator

from .packets import TWO_PI, Vec3, reduce_phase

OUTPUT_FORMATS = ("csv", "json")

RANDOM_ALPHA = "random"

# Largest sampling grid a run may ask for: duration / sample_interval rows.
# Each row is a width readout and, when kept, about 58 bytes of record
# columns, so a larger grid would run for minutes and could exhaust memory.
MAX_SAMPLE_ROWS = 10**7

# Problems are listed in this order, whichever constructor finds them: by
# the key whose rule failed, with the rules that join keys (None) just
# before the output format.
_PROBLEM_ORDER = (
    "mass_kg", "internal_radius_m", "duration_s", "sample_interval_s", "cluster_eta",
    "collision_rate_hz", "env_sigma_jitter", "impact_spread_m", "initial_sigma_m",
    "env_sigma_m", "cluster_alphas_rad", "initial_alpha_rad", "seed", "output_path",
    "redraw_alpha_after_collapse", None, "output_format",
)


class ConfigError(ValueError):
    """Carries every validation problem of a config document or of one
    constructor's inputs; from a constructor, ``keys`` names per problem the
    document key whose rule failed (the field name for ``object`` and
    ``environment``, which have none), or None for a rule that joins keys."""

    def __init__(self, problems: list[str], keys: Sequence[Optional[str]] = ()):
        self.problems = list(problems)
        self.keys = tuple(keys)
        super().__init__("; ".join(self.problems))


def _number(value) -> Optional[float]:
    """``value`` as a float if it is an int or a float (an int too large for
    a float gives inf); None for anything else, a bool included."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf


_POSITIVE = ("a positive finite number", lambda x: 0.0 < x < math.inf)
_NON_NEGATIVE = ("a non-negative finite number", lambda x: 0.0 <= x < math.inf)


class _Check:
    """The problems of one constructor's inputs, each under its document key."""

    def __init__(self) -> None:
        self.keys: list[Optional[str]] = []
        self.problems: list[str] = []

    def problem(self, key: Optional[str], message: str) -> None:
        self.keys.append(key)
        self.problems.append(message)

    def rule(self, key: Optional[str], value, ok: bool, what: str) -> bool:
        """``ok``; when false, lists that ``key`` must be ``what``."""
        if not ok:
            self.problem(key, f"{key} must be {what}, got {value!r}")
        return ok

    def number(self, key: str, value, what: str, ok) -> Optional[float]:
        """``value`` as a float if it is a number that passes ``ok``."""
        x = _number(value)
        if self.rule(key, value, x is not None, "a number") and self.rule(key, value, ok(x), what):
            return x
        return None

    def widths(self, key: str, value) -> Optional[Vec3]:
        """A positive finite number, for every axis, or three of them."""
        one = not (isinstance(value, (list, tuple)) and len(value) == 3)
        xs = [_number(x) for x in ([value] if one else value)]
        if self.rule(
            key, value, all(x is not None and 0.0 < x < math.inf for x in xs),
            "a positive number or length-3 list",
        ):
            return (xs[0],) * 3 if one else tuple(xs)
        return None

    def done(self, instance, **values) -> None:
        """Raise the problems found, or set the checked values on ``instance``."""
        if self.problems:
            raise ConfigError(self.problems, self.keys)
        for name, value in values.items():
            object.__setattr__(instance, name, value)


@dataclass(frozen=True)
class ObjectSpec:
    """Physical object: total mass, internal size and cluster phase constants.

    The object's internal structure enters only through ``internal_radius``
    (half the width of the internal density's effective support) and the list
    of phase constants of the clusters it is composed of.
    """

    mass: float
    internal_radius: float
    cluster_alphas: tuple[float, ...]

    def __post_init__(self) -> None:
        check = _Check()
        mass = check.number("mass_kg", self.mass, *_POSITIVE)
        internal_radius = check.number("internal_radius_m", self.internal_radius, *_POSITIVE)
        alphas = self.cluster_alphas
        xs = [_number(a) for a in alphas] if isinstance(alphas, (list, tuple)) else []
        finite = bool(xs) and all(x is not None and math.isfinite(x) for x in xs)
        if check.rule("cluster_alphas_rad", alphas, finite, "a non-empty list of finite numbers"):
            alphas = tuple(map(reduce_phase, xs))
        check.done(self, mass=mass, internal_radius=internal_radius, cluster_alphas=alphas)

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_alphas)

    @property
    def diameter(self) -> float:
        return 2.0 * self.internal_radius


@dataclass(frozen=True)
class EnvironmentSpec:
    """Statistics of the environment packet stream."""

    collision_rate: float
    env_sigma: Vec3
    env_sigma_jitter: float = 0.0
    impact_spread: float = 0.0

    def __post_init__(self) -> None:
        check = _Check()
        check.done(
            self,
            collision_rate=check.number("collision_rate_hz", self.collision_rate, *_NON_NEGATIVE),
            env_sigma=check.widths("env_sigma_m", self.env_sigma),
            env_sigma_jitter=check.number(
                "env_sigma_jitter", self.env_sigma_jitter, "in [0, 1)", lambda x: 0.0 <= x < 1.0
            ),
            impact_spread=check.number("impact_spread_m", self.impact_spread, *_NON_NEGATIVE),
        )


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
        check = _Check()
        check.rule("object", self.object, isinstance(self.object, ObjectSpec), "an ObjectSpec")
        check.rule(
            "environment", self.environment, isinstance(self.environment, EnvironmentSpec),
            "an EnvironmentSpec",
        )
        duration = check.number("duration_s", self.duration, *_POSITIVE)
        sample_interval = check.number("sample_interval_s", self.sample_interval, *_POSITIVE)
        cluster_eta = check.number(
            "cluster_eta", self.cluster_eta, "in (0, 1]", lambda x: 0.0 < x <= 1.0
        )
        initial_sigma = check.widths("initial_sigma_m", self.initial_sigma)
        initial_alpha = self.initial_alpha
        if initial_alpha != RANDOM_ALPHA:
            initial_alpha = check.number(
                "initial_alpha_rad", initial_alpha, f"in [0, 2*pi) or '{RANDOM_ALPHA}'",
                lambda x: 0.0 <= x < TWO_PI,
            )
        seed, path, redraw = self.seed, self.output_path, self.redraw_alpha_after_collapse
        check.rule(
            "seed", seed, isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0,
            "a non-negative integer",
        )
        check.rule("output_path", path, path is None or isinstance(path, str), "a string or null")
        check.rule("redraw_alpha_after_collapse", redraw, isinstance(redraw, bool), "a boolean")
        if initial_sigma and any(s * s == 0.0 for s in initial_sigma):  # width law divides by it
            check.problem(None, f"initial_sigma_m {initial_sigma}: a square underflows to 0")
        if duration and sample_interval and duration / sample_interval > MAX_SAMPLE_ROWS:
            check.problem(
                None,
                f"duration_s / sample_interval_s = {duration:g} / {sample_interval:g} "
                f"asks for {duration / sample_interval:.3g} sample rows; "
                f"the limit is {MAX_SAMPLE_ROWS:.0e}",
            )
        check.rule(
            "output_format", self.output_format, self.output_format in OUTPUT_FORMATS,
            f"one of {OUTPUT_FORMATS}",
        )
        check.done(
            self,
            duration=duration,
            sample_interval=sample_interval,
            cluster_eta=cluster_eta,
            initial_sigma=initial_sigma,
            initial_alpha=initial_alpha,
        )


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

    ``tpp``: a 1.7e-23 kg molecule of 5e-9 m diameter, initially spread
    over a hundred times its own diameter.
    ``sugar_grain``: a 1e-7 kg grain of 0.5e-3 m diameter, with the same
    relative initial spread (an artifact choice for symmetry).
    """
    if name == "tpp":
        obj = ObjectSpec(
            mass=1.7e-23, internal_radius=2.5e-9, cluster_alphas=_preset_cluster_alphas("tpp", 1)
        )
    elif name == "sugar_grain":
        obj = ObjectSpec(
            mass=1e-7, internal_radius=2.5e-4,
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


# The document's keys, in the order :func:`to_document` writes them.  Per
# key: the spec that holds its value (None for the scenario itself), the
# field, the value that stands in for the key when it is absent, and
# whether the document must give it.  A stand-in is an optional key's
# default or, for a required key (listed as missing), a value its rule
# passes.  A missing grid key does not size a grid: either grid stand-in
# gives at most one row.
_KEYS = (
    ("mass_kg", "object", "mass", 1.0, True),
    ("internal_radius_m", "object", "internal_radius", 1.0, True),
    ("cluster_alphas_rad", "object", "cluster_alphas", (0.0,), True),
    ("initial_sigma_m", None, "initial_sigma", 1.0, True),
    ("initial_alpha_rad", None, "initial_alpha", 0.0, True),
    ("collision_rate_hz", "environment", "collision_rate", 0.0, True),
    ("env_sigma_m", "environment", "env_sigma", 1.0, True),
    ("env_sigma_jitter", "environment", "env_sigma_jitter", 0.0, False),
    ("impact_spread_m", "environment", "impact_spread", 0.0, False),
    ("duration_s", None, "duration", 5e-324, True),  # the smallest positive float
    ("seed", None, "seed", 0, True),
    ("sample_interval_s", None, "sample_interval", sys.float_info.max, True),
    ("cluster_eta", None, "cluster_eta", 1.0, True),
    ("output_path", None, "output_path", None, False),
    ("output_format", None, "output_format", "csv", False),
    ("redraw_alpha_after_collapse", None, "redraw_alpha_after_collapse", False, False),
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

    problems = [f"unknown key: {key!r}" for key in sorted(set(doc) - {key for key, *_ in _KEYS})]
    inputs = {"object": {}, "environment": {}, None: {}}
    for key, owner, field, stand_in, required in _KEYS:
        if required and key not in doc:
            problems.append(f"missing required key: {key!r}")
        inputs[owner][field] = doc.get(key, stand_in)
    found = []

    def build(cls, **values):
        try:
            return cls(**values)
        except ConfigError as exc:
            found.extend(zip(exc.keys, exc.problems))
            return None

    config = build(
        ScenarioConfig,
        object=build(ObjectSpec, **inputs["object"]),
        environment=build(EnvironmentSpec, **inputs["environment"]),
        **inputs[None],
    )
    # A spec that failed is passed on as None, and its problems are listed
    # already; the refusal of the None is not listed again.
    found = [item for item in found if item[0] not in ("object", "environment")]
    found.sort(key=lambda item: _PROBLEM_ORDER.index(item[0]))
    problems += [problem for _, problem in found]
    if problems:
        raise ConfigError(problems)
    return config


def to_document(config: ScenarioConfig) -> dict:
    """Flat JSON-compatible dict that parses back to an equal config."""
    doc = {}
    for key, owner, field, _, _ in _KEYS:
        value = getattr(config if owner is None else getattr(config, owner), field)
        doc[key] = list(value) if isinstance(value, tuple) else value
    return doc
