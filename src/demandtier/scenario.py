"""Scenario files: strict JSON configuration with built-in defaults.

A scenario is a JSON object with one section per engine component. Omitted
sections and keys fall back to the canned default experiment (the cubic
learning calibration, the clipped affine weight schedule, and the standard
price/education grids), so the headline root-structure experiment runs with
zero configuration. Parsing is strict: unknown sections or keys are rejected
with the offending name, and every constructed object re-validates its own
invariants.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .bifurcation import SweepConfig
from .demand import PreferenceSchedule
from .dynamics import LearningSpec, LearningVariant, TechnologyState
from .errors import ConfigError, DemandTierError
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
        if not isinstance(self.horizon, int) or isinstance(self.horizon, bool) \
                or self.horizon < 1:
            raise ConfigError(f"horizon must be an integer >= 1, got {self.horizon}")


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
        if not isinstance(self.y_points, int) or isinstance(self.y_points, bool) \
                or self.y_points < 1:
            raise ConfigError(f"y_points must be an integer >= 1, got {self.y_points}")


@dataclass(frozen=True)
class Scenario:
    preferences: PreferenceSchedule
    learning: LearningSpec
    solver: SolverConfig
    sweep: SweepConfig
    planner: PlannerConfig
    simulation: SimulationConfig
    statics: StaticsConfig


_SECTIONS = {
    "preferences": PreferenceSchedule,
    "learning": LearningSpec,
    "solver": SolverConfig,
    "sweep": SweepConfig,
    "planner": PlannerConfig,
    "simulation": SimulationConfig,
    "statics": StaticsConfig,
}

_INT_KEYS = {"grid_points", "E_points", "horizon", "y_points"}
# keys of the former grid-and-bisection solver: still type-checked, then ignored
_IGNORED_KEYS = {"solver": ("grid_points", "dedup_tol")}
_LIST_KEYS = {"E", "income"}  # simulation paths may be scalars or lists

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


def default_scenario() -> Scenario:
    """The canned experiment: cubic learning calibration and standard grids."""
    return load_scenario_dict({})


def _check_number(section: str, key: str, value, allow_list: bool) -> None:
    # json.loads accepts NaN, Infinity and overflowing literals such as 1e999
    if isinstance(value, bool):
        raise ConfigError(f"key '{key}' in section '{section}' must be a number, got a boolean")
    if isinstance(value, (int, float)):
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"key '{key}' in section '{section}' must be finite, got {value!r}")
        return
    if allow_list and isinstance(value, list):
        for item in value:
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise ConfigError(
                    f"key '{key}' in section '{section}' must contain numbers only"
                )
            if isinstance(item, float) and not math.isfinite(item):
                raise ConfigError(
                    f"key '{key}' in section '{section}' must contain finite numbers only, "
                    f"got {item!r}"
                )
        return
    raise ConfigError(f"key '{key}' in section '{section}' must be a number, got {value!r}")


def _build_learning(overrides: dict) -> LearningSpec:
    merged = dict(_LEARNING_DEFAULTS)
    merged.update(overrides)
    variant_name = merged.pop("variant")
    if variant_name not in ("linear", "cubic"):
        raise ConfigError(
            f"key 'variant' in section 'learning' must be 'linear' or 'cubic', got {variant_name!r}"
        )
    variant = LearningVariant(variant_name)
    if variant is LearningVariant.LINEAR:
        return LearningSpec.linear(nu=merged["nu"], phi=merged["phi"], chi=merged["chi"])
    return LearningSpec.cubic(
        nu=merged["nu"],
        phi1=merged["phi1"], phi2=merged["phi2"],
        chi1=merged["chi1"], chi2=merged["chi2"],
    )


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
        if section == "learning":
            known = set(_LEARNING_DEFAULTS)
        else:
            known = set(cls.__dataclass_fields__)
        ignored = _IGNORED_KEYS.get(section, ())
        bad = set(overrides) - known - set(ignored)
        if bad:
            raise ConfigError(f"unknown key '{sorted(bad)[0]}' in section '{section}'")
        for key, value in overrides.items():
            if section == "learning" and key == "variant":
                continue
            _check_number(section, key, value, allow_list=key in _LIST_KEYS and section == "simulation")
            if key in _INT_KEYS and not isinstance(value, int):
                raise ConfigError(f"key '{key}' in section '{section}' must be an integer")
        for key in ignored:
            if key in overrides:
                sys.stderr.write(
                    f"note: key '{key}' in section '{section}' is ignored; "
                    "fixed points are exact cubic roots\n"
                )
        overrides = {k: v for k, v in overrides.items() if k not in ignored}
        try:
            if section == "learning":
                built[section] = _build_learning(overrides)
            else:
                built[section] = cls(**overrides)
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario file is not valid JSON: {exc}") from exc
    return load_scenario_dict(data)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Full mapping representation; reloads to an identical configuration."""
    learning = scenario.learning
    return {
        "preferences": {
            "alpha_base": scenario.preferences.alpha_base,
            "alpha_slope": scenario.preferences.alpha_slope,
            "alpha_lo": scenario.preferences.alpha_lo,
            "alpha_hi": scenario.preferences.alpha_hi,
            "gammaL_base": scenario.preferences.gammaL_base,
            "gammaL_decay": scenario.preferences.gammaL_decay,
            "gamma_H": scenario.preferences.gamma_H,
        },
        "learning": {
            "variant": learning.variant.value,
            "nu": learning.nu,
            "phi": learning.phi if learning.variant is LearningVariant.LINEAR
            else _LEARNING_DEFAULTS["phi"],
            "chi": learning.chi if learning.variant is LearningVariant.LINEAR
            else _LEARNING_DEFAULTS["chi"],
            "phi1": learning.phi1 if learning.variant is LearningVariant.CUBIC
            else _LEARNING_DEFAULTS["phi1"],
            "phi2": learning.phi2 if learning.variant is LearningVariant.CUBIC
            else _LEARNING_DEFAULTS["phi2"],
            "chi1": learning.chi1 if learning.variant is LearningVariant.CUBIC
            else _LEARNING_DEFAULTS["chi1"],
            "chi2": learning.chi2 if learning.variant is LearningVariant.CUBIC
            else _LEARNING_DEFAULTS["chi2"],
        },
        "solver": {
            "p_min": scenario.solver.p_min,
            "p_max": scenario.solver.p_max,
            "bisect_tol": scenario.solver.bisect_tol,
            "marginal_tol": scenario.solver.marginal_tol,
        },
        "sweep": {
            "E_min": scenario.sweep.E_min,
            "E_max": scenario.sweep.E_max,
            "E_points": scenario.sweep.E_points,
            "refine_tol": scenario.sweep.refine_tol,
        },
        "planner": {
            "beta": scenario.planner.beta,
            "horizon": scenario.planner.horizon,
            "kappa_scale": scenario.planner.kappa_scale,
            "kappa_curv": scenario.planner.kappa_curv,
        },
        "simulation": {
            "a_H0": scenario.simulation.a_H0,
            "a_L0": scenario.simulation.a_L0,
            "wage": scenario.simulation.wage,
            "E": scenario.simulation.E,
            "income": scenario.simulation.income,
            "horizon": scenario.simulation.horizon,
        },
        "statics": {
            "E": scenario.statics.E,
            "price_H": scenario.statics.price_H,
            "y_min": scenario.statics.y_min,
            "y_max": scenario.statics.y_max,
            "y_points": scenario.statics.y_points,
        },
    }


def dump_scenario(scenario: Scenario) -> str:
    """Deterministic JSON text for a scenario (sorted keys, two-space indent)."""
    return json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n"
