"""Scenario files: strict JSON configuration with built-in defaults.

A scenario is a JSON object with one section per field of ``Scenario``. The
config dataclasses are the schema: a section's keys and defaults are the
fields of its class, read at import time, and the learning section holds both
variants' coefficients. Omitted keys take those defaults, which form the
headline experiment. Parsing is strict: unknown sections or keys are rejected
by name, every number must be finite (an integer beyond float range counts as
infinite), a key with an integer default takes only integers, and every
constructed object re-validates its own invariants.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

from .bifurcation import SweepConfig
from .demand import PreferenceSchedule
from .dynamics import LearningSpec, LearningVariant, TechnologyState
from .errors import ConfigError, DemandTierError, _require_int
from .planner import PlannerConfig
from .solver import SolverConfig


@dataclass(frozen=True)
class SimulationConfig:
    """Initial technology, inputs, and horizon for the simulate command."""

    a_H0: float = 1.0
    a_L0: float = 5.0
    wage: float = 1.0
    E: float | list[float] = 0.28
    income: float | list[float] = 10.0
    horizon: int = 500

    def __post_init__(self):
        # delegate positivity checks to TechnologyState
        TechnologyState(a_H=self.a_H0, a_L=self.a_L0, wage=self.wage)
        _require_int("horizon", self.horizon, 1)


@dataclass(frozen=True)
class StaticsConfig:
    """Education level, high-tier price, and income grid for the statics command."""

    E: float = 0.2
    price_H: float = 2.0
    y_min: float = 4.0
    y_max: float = 40.0
    y_points: int = 10

    def __post_init__(self):
        if self.E < 0.0:
            raise ConfigError(f"E must be >= 0, got {self.E}")
        if self.price_H <= 0.0:
            raise ConfigError(f"price_H must be > 0, got {self.price_H}")
        if not 0.0 < self.y_min <= self.y_max:
            raise ConfigError(f"need 0 < y_min <= y_max, got y_min={self.y_min}, y_max={self.y_max}")
        _require_int("y_points", self.y_points, 1)


@dataclass(frozen=True)
class Scenario:
    preferences: PreferenceSchedule
    learning: LearningSpec
    solver: SolverConfig
    sweep: SweepConfig
    planner: PlannerConfig
    simulation: SimulationConfig
    statics: StaticsConfig


_SECTIONS = get_type_hints(Scenario)  # section name -> config class

_LEARNING_DEFAULTS = {
    "variant": "cubic",
    "nu": 0.6,
    "phi": 0.8,
    "chi": 1.2,
    "phi1": 0.8,
    "phi2": 1.0,
    "chi1": 1.2,
    "chi2": 1.5,
}

# section -> {key: default}; the learning section keeps the inactive
# variant's coefficients at their defaults
_SCHEMA = {
    section: _LEARNING_DEFAULTS if cls is LearningSpec
    else {f.name: f.default for f in fields(cls)}
    for section, cls in _SECTIONS.items()
}
# keys of the former grid-and-bisection solver at their former defaults:
# still type-checked, then ignored
_IGNORED_KEYS = {"solver": {"grid_points": 4001, "dedup_tol": 1e-7}}
# simulation paths: keys whose annotation admits a list
_LIST_KEYS = {
    (section, f.name)
    for section, cls in _SECTIONS.items() for f in fields(cls) if "list" in str(f.type)
}
# the coefficients each variant takes: the parameters of LearningSpec.linear and .cubic
_VARIANT_KEYS = {
    v.value: [k for k in inspect.signature(getattr(LearningSpec, v.value)).parameters
              if k in _LEARNING_DEFAULTS]
    for v in LearningVariant
}


def default_scenario() -> Scenario:
    """The canned experiment: cubic learning calibration and standard grids."""
    return load_scenario_dict({})


def _check_number(section: str, key: str, value, allow_list: bool) -> None:
    # json.loads accepts NaN, Infinity, overflowing literals such as 1e999 and
    # integers of any size
    where = f"key '{key}' in section '{section}'"
    in_list = allow_list and isinstance(value, list)
    be_number, be_finite = (
        ("contain numbers only", "contain finite numbers only") if in_list
        else ("be a number", "be finite")
    )
    for item in value if in_list else [value]:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            got = "a boolean" if isinstance(item, bool) else repr(item)
            raise ConfigError(f"{where} must {be_number}, got {got}")
        try:
            finite = math.isfinite(item)
        except OverflowError:  # an integer beyond float range reads as 1e999 does
            finite, item = False, math.inf if item > 0 else -math.inf
        if not finite:
            raise ConfigError(f"{where} must {be_finite}, got {item!r}")


def _build_learning(**overrides) -> LearningSpec:
    merged = {**_LEARNING_DEFAULTS, **overrides}
    variant = merged["variant"]
    if not isinstance(variant, str) or variant not in _VARIANT_KEYS:
        raise ConfigError(
            f"key 'variant' in section 'learning' must be 'linear' or 'cubic', got {variant!r}"
        )
    return getattr(LearningSpec, variant)(**{key: merged[key] for key in _VARIANT_KEYS[variant]})


def load_scenario_dict(data: dict) -> Scenario:
    """Validate a scenario mapping and build the configured objects."""
    if not isinstance(data, dict):
        raise ConfigError(f"scenario root must be an object, got {type(data).__name__}")
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown scenario section '{sorted(unknown)[0]}'")

    built = {}
    for section, cls in _SECTIONS.items():
        overrides = data.get(section, {})
        if not isinstance(overrides, dict):
            raise ConfigError(f"section '{section}' must be an object")
        ignored = _IGNORED_KEYS.get(section, {})
        known = {**_SCHEMA[section], **ignored}
        bad = set(overrides) - set(known)
        if bad:
            raise ConfigError(f"unknown key '{sorted(bad)[0]}' in section '{section}'")
        for key, value in overrides.items():
            default = known[key]
            if isinstance(default, str):  # the learning variant, checked on build
                continue
            _check_number(section, key, value, allow_list=(section, key) in _LIST_KEYS)
            if type(default) is int and not isinstance(value, int):
                raise ConfigError(f"key '{key}' in section '{section}' must be an integer")
        for key in ignored:
            if key in overrides:
                sys.stderr.write(
                    f"note: key '{key}' in section '{section}' is ignored; "
                    "fixed points are exact cubic roots\n"
                )
        overrides = {k: v for k, v in overrides.items() if k not in ignored}
        try:
            built[section] = (_build_learning if cls is LearningSpec else cls)(**overrides)
        except ConfigError:
            raise
        except (TypeError, ValueError, DemandTierError) as exc:
            raise ConfigError(f"invalid section '{section}': {exc}") from exc
    return Scenario(**built)


def load_scenario(path: str | Path | None) -> Scenario:
    """Load a scenario JSON file; None means the built-in defaults."""
    if path is None:
        return default_scenario()
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except ValueError as exc:  # also an integer literal past Python's digit limit
        raise ConfigError(f"scenario file is not valid JSON: {exc}") from exc
    return load_scenario_dict(data)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Full mapping representation; reloads to an identical configuration."""
    out = {}
    for section, defaults in _SCHEMA.items():
        config = getattr(scenario, section)
        if isinstance(config, LearningSpec):
            # the inactive variant's coefficients are written at their defaults
            variant = config.variant.value
            active = {key: getattr(config, key) for key in _VARIANT_KEYS[variant]}
            out[section] = {**defaults, "variant": variant, **active}
        else:
            out[section] = {key: getattr(config, key) for key in defaults}
    return out


def dump_scenario(scenario: Scenario) -> str:
    """Deterministic JSON text for a scenario (sorted keys, two-space indent)."""
    return json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n"
