"""Scenario files: strict JSON configuration with built-in defaults.

A scenario is a JSON object with one section per field of ``Scenario``. The
config classes are the schema: a section's keys and defaults are the compared
fields of its class, read at import time. The learning section is no
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

Every config class is defined here, beside ``Scenario``, and imports nothing of
the engine: loading a scenario loads no solver, sweep, path or household code.
The engine module each class configures re-exports it under its old name
(``demand.PreferenceSchedule``, ``dynamics.LearningSpec`` and
``LearningVariant``, ``solver.SolverConfig``, ``bifurcation.SweepConfig``,
``planner.PlannerConfig``), so both paths give the same class.

The config classes are frozen records on one small base, ``_Record``, which
reads each class's fields once and generates no code. ``json`` is imported by
the first file read or dump.
"""

import math
import os
from enum import Enum

from .errors import ConfigError, DemandTierError, _require_int

_REQUIRED = object()  # the default of a field that has none


class _Record:
    """A frozen record of the fields its subclass annotates, in their order.

    A subclass declares each field by annotation, with its default, if any,
    as the class-body value. Instances are built positionally or by keyword;
    an unknown or missing argument raises TypeError, and ``__post_init__``
    then checks the instance. The fields are the instance's ``__dict__``, and
    assigning or deleting an attribute raises AttributeError. ``==``,
    ``hash`` and ``repr`` use the compared fields, ``_compared``: all of
    ``_fields`` but those the class keyword ``hidden`` names.
    """

    # set for each subclass by __init_subclass__; class attributes, not
    # annotations, so that they are no field of it
    _fields = _compared = ()
    _defaults = {}  # field -> default, _REQUIRED if it has none; in field order
    _required = frozenset()  # the fields without a default

    def __init_subclass__(cls, hidden=(), **kwargs):
        super().__init_subclass__(**kwargs)
        body = vars(cls)
        cls._fields = tuple(body.get("__annotations__", ()))
        cls._compared = tuple(name for name in cls._fields if name not in hidden)
        cls._defaults = {name: body.get(name, _REQUIRED) for name in cls._fields}
        cls._required = frozenset(name for name in cls._fields if name not in body)

    def __init__(self, *args, **kwargs):
        if args:
            if len(args) > len(self._fields):
                raise TypeError(f"{type(self).__qualname__}() takes {len(self._fields)} "
                                f"positional arguments but {len(args)} were given")
            for name, value in zip(self._fields, args):
                if name in kwargs:
                    raise TypeError(f"{type(self).__qualname__}() got multiple values "
                                    f"for argument {name!r}")
                kwargs[name] = value
        values = {**self._defaults, **kwargs}
        if len(values) > len(self._fields):
            unknown = next(name for name in kwargs if name not in self._defaults)
            raise TypeError(f"{type(self).__qualname__}() got an unexpected keyword "
                            f"argument {unknown!r}")
        if self._required and not kwargs.keys() >= self._required:
            missing = ", ".join(repr(name) for name in self._fields
                                if name in self._required and name not in kwargs)
            raise TypeError(f"{type(self).__qualname__}() missing required arguments: {missing}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._compared))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._compared)
        return f"{type(self).__qualname__}({fields})"


class PreferenceSchedule(_Record):
    """Education-dependent preference parameters.

    The high-tier utility weight is the clipped affine schedule
    ``alpha(E) = clip(alpha_base + alpha_slope*E, alpha_lo, alpha_hi)``
    and the low-tier subsistence threshold decays exponentially,
    ``gamma_L(E) = gammaL_base * exp(-gammaL_decay * E)``. The high-tier
    threshold ``gamma_H`` is a constant; the baseline comparative statics
    assume ``gamma_H = 0``.
    """

    alpha_base: float = 0.78
    alpha_slope: float = 0.16
    alpha_lo: float = 0.60
    alpha_hi: float = 0.97
    gammaL_base: float = 2.0
    gammaL_decay: float = 0.5
    gamma_H: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.alpha_lo <= self.alpha_hi < 1.0):
            raise ConfigError(
                "alpha_lo/alpha_hi must satisfy 0 < alpha_lo <= alpha_hi < 1, got "
                f"alpha_lo={self.alpha_lo}, alpha_hi={self.alpha_hi}"
            )
        if self.alpha_slope < 0.0:
            raise ConfigError(f"alpha_slope must be >= 0, got {self.alpha_slope}")
        if self.gammaL_base < 0.0:
            raise ConfigError(f"gammaL_base must be >= 0, got {self.gammaL_base}")
        if self.gammaL_decay < 0.0:
            raise ConfigError(f"gammaL_decay must be >= 0, got {self.gammaL_decay}")
        if self.gamma_H < 0.0:
            raise ConfigError(f"gamma_H must be >= 0, got {self.gamma_H}")


class LearningVariant(str, Enum):
    LINEAR = "linear"
    CUBIC = "cubic"


def _cubic_min_on_unit(a: float, b: float) -> float:
    """Minimum of 1 + a*x - b*x^3 over x in [0, 1]: at an end, or where the
    slope a - 3b*x^2 vanishes inside."""
    low = min(1.0, 1.0 + a - b)
    if b != 0.0 and a / (3.0 * b) > 0.0:
        x = math.sqrt(a / (3.0 * b))
        if 0.0 < x < 1.0:
            low = min(low, 1.0 + a * x - b * x**3)
    return low


class LearningSpec(_Record, hidden=("validate",)):
    """Sectoral growth-factor functions and their coefficients.

    Linear variant:  g_H = 1 + nu*E + phi*s,            g_L = 1 + chi*(1-s)
    Cubic variant:   g_H = 1 + nu*E + phi1*s - phi2*s^3,
                     g_L = 1 + chi1*(1-s) - chi2*(1-s)^3

    Construction rejects inactive or sign-violating learning channels and, for
    the cubic variant, any configuration whose growth factor can reach zero on
    s in [0, 1] (checked at E = 0; education only raises g_H). ``validate``
    exists solely for diagnostic constructions that deliberately switch
    channels off; it does not participate in equality comparisons.

    The field defaults are the headline calibration, so ``LearningSpec()`` is
    the default scenario's spec. ``variant`` may be given as its string value
    and is stored as the ``LearningVariant`` member; any other value raises
    ConfigError, also with ``validate=False``. Both variants' coefficients are
    fields: the inactive variant's are kept as given, neither checked nor used.
    """

    variant: LearningVariant = LearningVariant.CUBIC
    nu: float = 0.6
    phi: float = 0.8
    chi: float = 1.2
    phi1: float = 0.8
    phi2: float = 1.0
    chi1: float = 1.2
    chi2: float = 1.5
    validate: bool = True

    def __post_init__(self):
        try:
            object.__setattr__(self, "variant", LearningVariant(self.variant))
        except ValueError:
            choices = " or ".join(repr(v.value) for v in LearningVariant)
            raise ConfigError(f"variant must be {choices}, got {self.variant!r}") from None
        if not self.validate:
            return
        if self.nu <= 0.0:
            raise ConfigError(f"nu must be > 0, got {self.nu}")
        if self.variant is LearningVariant.LINEAR:
            if self.phi <= 0.0:
                raise ConfigError(f"phi must be > 0 for linear learning, got {self.phi}")
            if self.chi <= 0.0:
                raise ConfigError(f"chi must be > 0 for linear learning, got {self.chi}")
        else:
            if self.phi1 == self.phi2 == self.chi1 == self.chi2 == 0.0:
                raise ConfigError("cubic learning with all scale coefficients zero is degenerate")
            min_gh = _cubic_min_on_unit(self.phi1, self.phi2)
            if min_gh <= 0.0:
                raise ConfigError(
                    f"phi1/phi2 let g_H reach {min_gh} on s in [0,1]; must stay > 0"
                )
            min_gl = _cubic_min_on_unit(self.chi1, self.chi2)
            if min_gl <= 0.0:
                raise ConfigError(
                    f"chi1/chi2 let g_L reach {min_gl} on s in [0,1]; must stay > 0"
                )

    @classmethod
    def linear(cls, nu: float, phi: float, chi: float, validate: bool = True) -> "LearningSpec":
        return cls(variant=LearningVariant.LINEAR, nu=nu, phi=phi, chi=chi, validate=validate)

    @classmethod
    def cubic(
        cls, nu: float, phi1: float, phi2: float, chi1: float, chi2: float,
        validate: bool = True,
    ) -> "LearningSpec":
        return cls(
            variant=LearningVariant.CUBIC,
            nu=nu, phi1=phi1, phi2=phi2, chi1=chi1, chi2=chi2,
            validate=validate,
        )

    @property
    def coefficients(self) -> tuple[float, float, float, float, float]:
        """Unified (nu, phi1, phi2, chi1, chi2); linear maps to zero cubic terms."""
        if self.variant is LearningVariant.LINEAR:
            return (self.nu, self.phi, 0.0, self.chi, 0.0)
        return (self.nu, self.phi1, self.phi2, self.chi1, self.chi2)


class SolverConfig(_Record):
    """Price window, residual bound and classification tolerance.

    ``bisect_tol`` bounds the re-checked residual: every root satisfies
    |T(p*) - p*| <= bisect_tol * max(1, p*).
    """

    p_min: float = 0.01
    p_max: float = 14.0
    bisect_tol: float = 1e-12
    marginal_tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.p_min < self.p_max:
            raise ConfigError(
                f"need 0 < p_min < p_max, got p_min={self.p_min}, p_max={self.p_max}"
            )
        for name in ("bisect_tol", "marginal_tol"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")


class SweepConfig(_Record):
    """Education grid and the residual tolerance for saddle-node thresholds.

    The ``E_points`` levels only sample the printed locus: the thresholds and
    transitions are the same for every grid over [E_min, E_max].
    """

    E_min: float = 0.05
    E_max: float = 0.45
    E_points: int = 81
    refine_tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 <= self.E_min < self.E_max:
            raise ConfigError(f"need 0 <= E_min < E_max, got E_min={self.E_min}, E_max={self.E_max}")
        _require_int("E_points", self.E_points, 2)
        if self.refine_tol <= 0.0:
            raise ConfigError(f"refine_tol must be > 0, got {self.refine_tol}")


class PlannerConfig(_Record):
    """Discount factor, horizon, and the education cost kappa(E) = scale*E^curv."""

    beta: float = 0.95
    horizon: int = 3
    kappa_scale: float = 0.05
    kappa_curv: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ConfigError(f"beta must be in (0, 1), got {self.beta}")
        _require_int("horizon", self.horizon, 1)
        if self.kappa_scale <= 0.0:
            raise ConfigError(f"kappa_scale must be > 0, got {self.kappa_scale}")
        if self.kappa_curv < 1.0:
            raise ConfigError(f"kappa_curv must be >= 1, got {self.kappa_curv}")


class SimulationConfig(_Record):
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


class StaticsConfig(_Record):
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


class Scenario(_Record):
    preferences: PreferenceSchedule
    learning: LearningSpec
    solver: SolverConfig
    sweep: SweepConfig
    planner: PlannerConfig
    simulation: SimulationConfig
    statics: StaticsConfig


_SECTIONS = dict(Scenario.__annotations__)  # section name -> config class

# section -> {key: default}; a field left out of comparisons is no key
_SCHEMA = {
    section: {name: cls._defaults[name] for name in cls._compared}
    for section, cls in _SECTIONS.items()
}
# simulation paths: keys whose annotation admits a list
_LIST_KEYS = {
    (section, name)
    for section, cls in _SECTIONS.items()
    for name, annotation in cls.__annotations__.items() if "list" in str(annotation)
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


def load_scenario(path: str | os.PathLike | None) -> Scenario:
    """Load a scenario JSON file; None means the built-in defaults."""
    if path is None:
        return default_scenario()
    import json

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
    import json

    return json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n"
