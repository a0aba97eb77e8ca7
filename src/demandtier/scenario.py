"""Scenario files: strict JSON configuration with built-in defaults.

A scenario is a JSON object with one section per field of ``Scenario``. The
config dataclasses are the schema: a section's keys and defaults are the
compared fields of its class, read at import time. The learning section is no
exception: ``LearningSpec`` holds both variants' coefficients, and the
inactive variant's are kept as given. Omitted keys take those defaults, which
form the headline experiment. Parsing is strict: a section accepts exactly
the keys that ``scenario_to_dict`` writes, and an unknown section or key is
rejected by name. Every number must be finite (an integer beyond float range
counts as infinite), a key with an integer default takes only integers, and an
enum key takes only its members' string values. Each section's overrides then
go unchanged to its class, whose constructor re-validates its own invariants;
its error is reported under the section's name. Only the sections a scenario
names are built: the others are the default instances, built once per process.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import get_type_hints

from .bifurcation import SweepConfig
from .demand import PreferenceSchedule
from .dynamics import LearningSpec
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
        for key in ("a_H0", "a_L0", "wage"):
            if getattr(self, key) <= 0.0:
                raise ConfigError(f"{key} must be > 0, got {getattr(self, key)}")
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

# section -> {key: default}; a field left out of comparisons is no key
_SCHEMA = {
    section: {f.name: f.default for f in fields(cls) if f.compare}
    for section, cls in _SECTIONS.items()
}
# simulation paths: keys whose annotation admits a list
_LIST_KEYS = {
    (section, f.name)
    for section, cls in _SECTIONS.items() for f in fields(cls) if "list" in str(f.type)
}
# each section built from its defaults, once per process: a scenario shares
# these frozen instances for the sections it does not name
_DEFAULTS = {section: cls() for section, cls in _SECTIONS.items()}


def default_scenario() -> Scenario:
    """The canned experiment: cubic learning calibration and standard grids."""
    return Scenario(**_DEFAULTS)


def _check_number(section: str, key: str, value, allow_list: bool) -> None:
    if type(value) is float and math.isfinite(value):
        return
    # json.loads accepts NaN, Infinity, overflowing literals such as 1e999 and
    # integers of any size
    in_list = allow_list and isinstance(value, list)
    # a path list of finite floats and ints passes in two C-speed passes; any
    # other list takes the loop below, which words every rejection
    if in_list and set(map(type, value)) <= {float, int}:
        try:
            if all(map(math.isfinite, value)):
                return
        except OverflowError:
            pass
    where = f"key '{key}' in section '{section}'"
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


def load_scenario_dict(data: dict) -> Scenario:
    """Validate a scenario mapping and build the configured objects."""
    if not isinstance(data, dict):
        raise ConfigError(f"scenario root must be an object, got {type(data).__name__}")
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown scenario section '{sorted(unknown)[0]}'")

    built = dict(_DEFAULTS)
    for section, cls in _SECTIONS.items():
        if section not in data:
            continue
        overrides = data[section]
        if not isinstance(overrides, dict):
            raise ConfigError(f"section '{section}' must be an object")
        known = _SCHEMA[section]
        bad = set(overrides) - set(known)
        if bad:
            raise ConfigError(f"unknown key '{sorted(bad)[0]}' in section '{section}'")
        for key, value in overrides.items():
            default = known[key]
            if isinstance(default, Enum):
                choices = [member.value for member in type(default)]
                if value not in choices:
                    raise ConfigError(
                        f"key '{key}' in section '{section}' must be "
                        f"{' or '.join(map(repr, choices))}, got {value!r}"
                    )
                continue
            _check_number(section, key, value, allow_list=(section, key) in _LIST_KEYS)
            if type(default) is int and not isinstance(value, int):
                raise ConfigError(f"key '{key}' in section '{section}' must be an integer")
        try:
            built[section] = cls(**overrides)
        except (TypeError, ValueError, DemandTierError) as exc:
            raise ConfigError(f"invalid section '{section}': {exc}") from exc
    return Scenario(**built)


def load_scenario(path: str | Path | None) -> Scenario:
    """Load a scenario JSON file; None means the built-in defaults."""
    if path is None:
        return default_scenario()
    with open(path, "rb", buffering=0) as file:
        raw = file.read()
    try:
        text = raw.decode("utf-8")
        if "\r" in text:  # the newlines of text mode, so that error positions stay put
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        data = json.loads(text)
    except ValueError as exc:  # also non-UTF-8 bytes, and an integer past the digit limit
        raise ConfigError(f"scenario file is not valid JSON: {exc}") from exc
    return load_scenario_dict(data)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Full mapping of plain JSON types; reloads to an identical configuration."""
    out = {}
    for section, defaults in _SCHEMA.items():
        values = {key: getattr(getattr(scenario, section), key) for key in defaults}
        out[section] = {k: v.value if isinstance(v, Enum) else v for k, v in values.items()}
    return out


def dump_scenario(scenario: Scenario) -> str:
    """Deterministic JSON text for a scenario (sorted keys, two-space indent)."""
    return json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n"
