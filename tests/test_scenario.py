import json
import math
import random
import re
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demandtier import (
    LearningSpec,
    LearningVariant,
    PlannerConfig,
    PreferenceSchedule,
    Scenario,
    SimulationConfig,
    SolverConfig,
    StaticsConfig,
    SweepConfig,
    default_scenario,
    dump_scenario,
    load_scenario,
    load_scenario_dict,
    scenario_to_dict,
)
from demandtier.demand import HouseholdBudget
from demandtier.dynamics import TechnologyState
from demandtier.errors import ConfigError, InvalidState

DEFAULTS_JSON = Path(__file__).parent / "data" / "default_scenario.json"
# a JSON integer beyond float range: json.loads keeps it as a Python int
HUGE_INT = 10**400


class TestDefaults:
    def test_headline_calibration(self):
        s = default_scenario()
        assert s.learning.variant is LearningVariant.CUBIC
        assert (s.learning.nu, s.learning.phi1, s.learning.phi2) == (0.6, 0.8, 1.0)
        assert (s.learning.chi1, s.learning.chi2) == (1.2, 1.5)
        assert (s.preferences.alpha_base, s.preferences.alpha_slope) == (0.78, 0.16)
        assert (s.preferences.alpha_lo, s.preferences.alpha_hi) == (0.60, 0.97)
        assert (s.solver.p_min, s.solver.p_max, s.solver.bisect_tol) == (0.01, 14.0, 1e-12)
        assert (s.sweep.E_min, s.sweep.E_max, s.sweep.E_points) == (0.05, 0.45, 81)

    def test_empty_mapping_equals_defaults(self):
        assert load_scenario_dict({}) == default_scenario()

    def test_default_sections_are_built_once_per_process(self, monkeypatch, tmp_path):
        built = []
        for cls in {type(section) for section in vars(default_scenario()).values()}:
            def counting_init(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting_init)
        path = tmp_path / "scenario.json"
        path.write_text('{"solver": {"p_min": 0.02}, "planner": {}}', encoding="utf-8")
        for _ in range(3):
            assert load_scenario(None) == default_scenario() == load_scenario_dict({})
        # the section classes ran when demandtier.scenario was imported, never by a
        # call; a scenario builds each section it names, and shares the others
        assert built == []
        named = load_scenario(path)
        assert sorted(built) == ["PlannerConfig", "SolverConfig"]
        assert named.learning is default_scenario().learning


# each config class: its fields in order, and the repr of its default instance
# (for Scenario, of default_scenario()), as the frozen dataclasses printed them
PREFERENCES_REPR = ("PreferenceSchedule(alpha_base=0.78, alpha_slope=0.16, alpha_lo=0.6, "
                    "alpha_hi=0.97, gammaL_base=2.0, gammaL_decay=0.5, gamma_H=0.0)")
LEARNING_REPR = ("LearningSpec(variant=<LearningVariant.CUBIC: 'cubic'>, nu=0.6, phi=0.8, "
                 "chi=1.2, phi1=0.8, phi2=1.0, chi1=1.2, chi2=1.5)")
SOLVER_REPR = "SolverConfig(p_min=0.01, p_max=14.0, bisect_tol=1e-12, marginal_tol=1e-08)"
SWEEP_REPR = "SweepConfig(E_min=0.05, E_max=0.45, E_points=81, refine_tol=1e-08)"
PLANNER_REPR = "PlannerConfig(beta=0.95, horizon=3, kappa_scale=0.05, kappa_curv=2.0)"
SIMULATION_REPR = ("SimulationConfig(a_H0=1.0, a_L0=5.0, wage=1.0, E=0.28, income=10.0, "
                   "horizon=500)")
STATICS_REPR = "StaticsConfig(E=0.2, price_H=2.0, y_min=4.0, y_max=40.0, y_points=10)"
RECORDS = {
    PreferenceSchedule: (("alpha_base", "alpha_slope", "alpha_lo", "alpha_hi", "gammaL_base",
                          "gammaL_decay", "gamma_H"), PREFERENCES_REPR),
    LearningSpec: (("variant", "nu", "phi", "chi", "phi1", "phi2", "chi1", "chi2"),
                   LEARNING_REPR),
    SolverConfig: (("p_min", "p_max", "bisect_tol", "marginal_tol"), SOLVER_REPR),
    SweepConfig: (("E_min", "E_max", "E_points", "refine_tol"), SWEEP_REPR),
    PlannerConfig: (("beta", "horizon", "kappa_scale", "kappa_curv"), PLANNER_REPR),
    SimulationConfig: (("a_H0", "a_L0", "wage", "E", "income", "horizon"), SIMULATION_REPR),
    StaticsConfig: (("E", "price_H", "y_min", "y_max", "y_points"), STATICS_REPR),
    Scenario: (("preferences", "learning", "solver", "sweep", "planner", "simulation",
                "statics"),
               f"Scenario(preferences={PREFERENCES_REPR}, learning={LEARNING_REPR}, "
               f"solver={SOLVER_REPR}, sweep={SWEEP_REPR}, planner={PLANNER_REPR}, "
               f"simulation={SIMULATION_REPR}, statics={STATICS_REPR})"),
}


def default_of(cls):
    return default_scenario() if cls is Scenario else cls()


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestConfigRecord:
    def test_positional_and_keyword_construction(self, cls):
        default = default_of(cls)
        values = [getattr(default, name) for name in RECORDS[cls][0]]
        assert cls(*values) == cls(**dict(zip(RECORDS[cls][0], values))) == default
        # the first field given, positionally or by keyword, the rest defaulted
        first = RECORDS[cls][0][0]
        if cls is not Scenario:
            assert cls(values[0]) == cls(**{first: values[0]}) == default
        with pytest.raises(TypeError, match="multiple values for argument"):
            cls(*values, **{first: values[0]})
        with pytest.raises(TypeError, match="positional arguments"):
            cls(*values, values[0])

    def test_fields_are_frozen(self, cls):
        default = default_of(cls)
        for name in RECORDS[cls][0]:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(default, name, getattr(default, name))
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(default, name)
        with pytest.raises(AttributeError):
            default.not_a_field = 1
        assert default == default_of(cls)

    def test_vars_are_exactly_the_fields(self, cls):
        default = default_of(cls)
        assert list(vars(default)) == list(RECORDS[cls][0])
        assert type(default)._fields == RECORDS[cls][0]

    def test_unknown_keyword_raises_type_error(self, cls):
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            cls(**vars(default_of(cls)), bogus=1)
        if cls is Scenario:
            with pytest.raises(TypeError, match="missing required arguments: 'statics'"):
                cls(**{k: v for k, v in vars(default_scenario()).items() if k != "statics"})

    def test_repr_of_the_defaults(self, cls):
        assert repr(default_of(cls)) == RECORDS[cls][1]

    def test_equal_values_are_equal_and_hash_alike(self, cls):
        a, b = default_of(cls), default_of(cls)
        assert a is not b and a == b and hash(a) == hash(b) and not a != b


def test_config_records_of_different_classes_are_unequal():
    defaults = [default_of(cls) for cls in RECORDS]
    # valid values of both SolverConfig and SweepConfig: the classes alone differ
    values = (0.1, 0.2, 3, 1e-8)
    assert SolverConfig(*values) != SweepConfig(*values)
    for a, b in combinations(defaults, 2):
        assert a != b and b != a


class TestRoundTrip:
    def test_dict_round_trip(self):
        s = default_scenario()
        assert load_scenario_dict(scenario_to_dict(s)) == s

    def test_json_round_trip(self, tmp_path):
        s = default_scenario()
        path = tmp_path / "scenario.json"
        path.write_text(dump_scenario(s), encoding="utf-8")
        assert load_scenario(path) == s

    def test_dump_matches_committed_defaults(self):
        # regenerate with: demandtier --dump-defaults --out tests/data/default_scenario.json
        assert dump_scenario(default_scenario()) == DEFAULTS_JSON.read_text(encoding="utf-8")

    def test_dump_is_deterministic(self):
        assert dump_scenario(default_scenario()) == dump_scenario(default_scenario())

    def test_overrides_round_trip(self, tmp_path):
        s = load_scenario_dict(
            {
                "learning": {"variant": "linear", "nu": 0.5, "phi": 0.9, "chi": 1.1},
                "simulation": {"E": [0.1, 0.2, 0.3], "horizon": 3},
            }
        )
        path = tmp_path / "scenario.json"
        path.write_text(dump_scenario(s), encoding="utf-8")
        loaded = load_scenario(path)
        assert loaded == s
        assert loaded.simulation.E == [0.1, 0.2, 0.3]
        assert loaded.learning.variant is LearningVariant.LINEAR


class TestStrictness:
    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown scenario section 'solverr'"):
            load_scenario_dict({"solverr": {}})

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="unknown key 'p_maximum' in section 'solver'"):
            load_scenario_dict({"solver": {"p_maximum": 10.0}})

    def test_invariants_revalidated_naming_key(self):
        with pytest.raises(ConfigError, match="p_max"):
            load_scenario_dict({"solver": {"p_min": 5.0, "p_max": 1.0}})
        with pytest.raises(ConfigError, match="nu"):
            load_scenario_dict({"learning": {"nu": -1.0}})

    def test_type_checks(self):
        with pytest.raises(ConfigError, match="boolean"):
            load_scenario_dict({"solver": {"p_min": True}})
        with pytest.raises(ConfigError, match="must be a number"):
            load_scenario_dict({"solver": {"p_min": "small"}})
        with pytest.raises(ConfigError, match="must be an integer"):
            load_scenario_dict({"sweep": {"E_points": 81.5}})
        with pytest.raises(ConfigError, match="variant"):
            load_scenario_dict({"learning": {"variant": "quartic"}})

    def test_legacy_solver_keys_rejected(self, capsys):
        # keys of the former grid solver are unknown keys like any other
        for key, value in [("grid_points", 4001), ("dedup_tol", 1e-7)]:
            with pytest.raises(ConfigError, match=f"unknown key '{key}' in section 'solver'"):
                load_scenario_dict({"solver": {key: value}})
        assert capsys.readouterr() == ("", "")

    def test_list_only_for_simulation_paths(self):
        with pytest.raises(ConfigError):
            load_scenario_dict({"statics": {"E": [0.1, 0.2]}})

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_scenario(path)

    @pytest.mark.parametrize("text", [
        '{"simulation": {"E": %s0.1%s}}' % ("[" * 1100, "]" * 1100),
        "[" * 1100 + "]" * 1100,
    ], ids=["nested-path", "bare-lists"])
    def test_file_nested_too_deeply_rejected(self, tmp_path, text):
        # json.loads raises RecursionError past the interpreter's recursion limit
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="^scenario file is nested too deeply to read$"):
            load_scenario(path)

    def test_file_that_is_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"x": "\xff"}')
        with pytest.raises(ConfigError, match="^scenario file is not valid JSON: 'utf-8' codec "
                           "can't decode byte 0xff in position 7: invalid start byte$"):
            load_scenario(path)

    @pytest.mark.parametrize("text, position", [
        # the file is read with text mode's newlines: CRLF and a lone CR end a line
        ('{\r\n  "solver": {\r\n    "p_min": 0.5,\r\n    "p_max": ,\r\n  }\r\n}\r\n',
         "line 4 column 14 (char 47)"),
        ('{\r  "solver":\r {"p_min": }}', "line 3 column 12 (char 25)"),
    ])
    def test_syntax_error_position_counts_text_mode_lines(self, tmp_path, text, position):
        path = tmp_path / "crlf.json"
        path.write_bytes(text.encode())
        with pytest.raises(ConfigError) as info:
            load_scenario(path)
        assert str(info.value) == f"scenario file is not valid JSON: Expecting value: {position}"

    def test_crlf_file_loads(self, tmp_path):
        path = tmp_path / "crlf.json"
        path.write_bytes(b'{\r\n"solver": {"p_min": 0.5}\r\n}\r\n')
        assert load_scenario(path).solver.p_min == 0.5

    def test_nonpositive_productivity_rejected(self):
        with pytest.raises(ConfigError):
            load_scenario_dict({"simulation": {"a_H0": -1.0}})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_numbers_rejected_naming_key(self, bad):
        with pytest.raises(ConfigError, match="key 'a_L0' in section 'simulation' must be finite"):
            load_scenario_dict({"simulation": {"a_L0": bad, "horizon": 3}})
        with pytest.raises(ConfigError, match="key 'y_max' in section 'statics' must be finite"):
            load_scenario_dict({"statics": {"y_max": bad, "y_points": 3}})
        with pytest.raises(ConfigError, match="key 'E' in section 'simulation' must contain finite"):
            load_scenario_dict({"simulation": {"E": [0.1, bad, 0.2], "horizon": 3}})

    def test_integer_beyond_float_range_rejected_naming_key(self):
        with pytest.raises(ConfigError, match="key 'a_L0' in section 'simulation' must be finite"):
            load_scenario_dict({"simulation": {"a_L0": HUGE_INT, "horizon": 3}})

    def test_integer_beyond_float_range_in_path_rejected_naming_key(self):
        with pytest.raises(ConfigError, match="key 'E' in section 'simulation' must contain finite"):
            load_scenario_dict({"simulation": {"E": [0.1, HUGE_INT, 0.2], "horizon": 3}})

    def test_integer_past_digit_limit_in_file_rejected(self, tmp_path):
        # json.loads raises a bare ValueError for an integer literal over 4300 digits
        # (the default limit since Python 3.11); without the limit it reads as an int
        path = tmp_path / "scenario.json"
        path.write_text('{"simulation": {"a_L0": 1%s}}' % ("0" * 5000), encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON|key 'a_L0' .* must be finite"):
            load_scenario(path)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_json_literals_rejected(self, tmp_path, literal):
        # json.loads reads all four as floats; 1e999 overflows to inf
        path = tmp_path / "scenario.json"
        path.write_text('{"learning": {"nu": %s}}' % literal, encoding="utf-8")
        with pytest.raises(ConfigError, match="key 'nu' in section 'learning' must be finite"):
            load_scenario(path)


@pytest.mark.parametrize("build, error, message", [
    (lambda: PreferenceSchedule(gammaL_base=-1.0), ConfigError,
     "gammaL_base must be >= 0, got -1.0"),
    (lambda: PlannerConfig(kappa_scale=0.0), ConfigError, "kappa_scale must be > 0, got 0.0"),
    (lambda: StaticsConfig(E=-0.5), ConfigError, "E must be >= 0, got -0.5"),
    (lambda: HouseholdBudget(10.0, 2.0, price_L=0.0), ConfigError,
     "price_L must be > 0, got 0.0"),
    (lambda: TechnologyState(a_H=1.0, a_L=4.0, wage=-1.0), InvalidState,
     "wage must be > 0, got -1.0"),
    (lambda: load_scenario_dict([]), ConfigError, "scenario root must be an object, got list"),
    (lambda: load_scenario_dict({"solver": 3}), ConfigError,
     "section 'solver' must be an object"),
], ids=["gammaL_base", "kappa_scale", "statics_E", "price_L", "wage", "root", "section"])
def test_each_rule_raises_its_message(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("data, head", [
    ({"simulation": {"E": [[0.1] * 10_000]}},
     "key 'E' in section 'simulation' must contain numbers only, got [0.1, 0.1,"),
    ({"simulation": {"E": "x" * 100_000}},
     "key 'E' in section 'simulation' must be a number, got 'xxx"),
    ({"solver": {"p_min": "x" * 100_000}},
     "key 'p_min' in section 'solver' must be a number, got 'xxx"),
    ({"learning": {"variant": "x" * 100_000}},
     "key 'variant' in section 'learning' must be 'linear' or 'cubic', got 'xxx"),
    ({"solver": {"x" * 100_000: 1.0}}, "unknown key 'xxx"),
    ({"x" * 100_000: {}}, "unknown scenario section 'xxx"),
], ids=["E_nested_list", "E_string", "p_min_string", "variant", "key", "section"])
def test_an_oversized_value_or_name_is_echoed_in_part(data, head):
    with pytest.raises(ConfigError) as info:
        load_scenario_dict(data)
    message = str(info.value)
    assert message.startswith(head) and "..." in message and len(message) < 120, message


def test_learning_spec_echoes_an_oversized_variant_in_part():
    message = r"^variant must be 'linear' or 'cubic', got 'x+\.\.\.x+'$"
    with pytest.raises(ConfigError, match=message):
        LearningSpec(variant="x" * 100_000)


class TestPathLists:
    # a path list of finite numbers is accepted in one pass; any other list is
    # re-checked entry by entry, which words the message for the first bad one
    @pytest.mark.parametrize("literal, got", [
        ("true", "numbers only, got a boolean"),
        ('"x"', "numbers only, got 'x'"),
        ("null", "numbers only, got None"),
        ("[0.1]", "numbers only, got [0.1]"),
        ("NaN", "finite numbers only, got nan"),
        ("Infinity", "finite numbers only, got inf"),
        ("1e999", "finite numbers only, got inf"),
        pytest.param(str(HUGE_INT), "finite numbers only, got inf", id="10**400"),
    ])
    def test_one_bad_entry_after_good_ones_is_named(self, tmp_path, literal, got):
        path = tmp_path / "scenario.json"
        path.write_text('{"simulation": {"E": [0.1, 2, 0.3, %s, 0.5]}}' % literal,
                        encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            load_scenario(path)
        assert str(info.value) == f"key 'E' in section 'simulation' must contain {got}"

    def test_all_integer_list_accepted(self):
        s = load_scenario_dict({"simulation": {"E": [0, 1, 2], "income": [10, 11, 12],
                                               "horizon": 3}})
        assert (s.simulation.E, s.simulation.income) == ([0, 1, 2], [10, 11, 12])


class TestLearningSection:
    def test_spec_defaults_are_the_default_scenario(self):
        assert LearningSpec() == default_scenario().learning

    def test_dump_keys_are_each_sections_compared_fields(self):
        s = default_scenario()
        for section, keys in scenario_to_dict(s).items():
            config = getattr(s, section)
            assert list(keys) == list(type(config)._fields)

    def test_inactive_coefficients_are_kept(self):
        s = load_scenario_dict({"learning": {"variant": "linear", "phi1": 5}})
        assert s.learning.phi1 == 5
        assert scenario_to_dict(s)["learning"]["phi1"] == 5
        assert load_scenario_dict(json.loads(dump_scenario(s))) == s

    def test_dict_holds_plain_json_types(self):
        d = scenario_to_dict(default_scenario())
        assert type(d["learning"]["variant"]) is str
        for section in d.values():
            assert all(type(v) in (int, float, str, list) for v in section.values())

    def test_cubic_minimum_equals_the_minimum_over_its_candidates(self):
        # the ends of [0, 1] and the interior point where the slope vanishes
        from demandtier.scenario import _cubic_min_on_unit

        def reference(a, b):
            candidates = [0.0, 1.0]
            if b != 0.0 and a / (3.0 * b) > 0.0 and 0.0 < math.sqrt(a / (3.0 * b)) < 1.0:
                candidates.append(math.sqrt(a / (3.0 * b)))
            return min(1 + a * x - b * x**3 for x in candidates)

        rng = random.Random(20261019)
        pairs = [(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)) for _ in range(2000)]
        pairs += [(rng.uniform(-5.0, 5.0), 0.0) for _ in range(50)]
        interior = [(a, b) for a, b in pairs if b != 0.0 and 0.0 < a / (3.0 * b) < 1.0]
        assert len(interior) > 100 and len(pairs) - len(interior) > 1000
        for a, b in pairs + [(0.0, 0.0), (0.0, 1.0), (1.0, -1.0), (0.8, 1.0), (-1.2, 1.5)]:
            assert repr(_cubic_min_on_unit(a, b)) == repr(reference(a, b)), (a, b)


def test_defaults_json_is_strict_subset_of_schema():
    # every key the dump emits must load back without strict-parsing errors
    data = json.loads(dump_scenario(default_scenario()))
    assert load_scenario_dict(data) == default_scenario()


def _section(**keys):
    """Overrides holding any subset of ``keys``, each drawn from its strategy.

    The ranges keep every subset valid together with the defaults of the
    keys left out.
    """
    return st.fixed_dictionaries({}, optional=keys)


def _path(lo, hi):
    """A scalar or a short list, as the simulation's E and income take."""
    return st.one_of(st.floats(lo, hi), st.lists(st.floats(lo, hi), min_size=1, max_size=5))


_LEARNING_COEFFICIENTS = dict(
    nu=st.floats(0.1, 1.5), phi=st.floats(0.1, 1.5), chi=st.floats(0.1, 1.5),
    # 1 + phi1 - phi2 and 1 + chi1 - chi2 stay >= 0.1, so both growth factors stay > 0
    phi1=st.floats(0.5, 1.1), phi2=st.floats(0.0, 1.4),
    chi1=st.floats(0.8, 1.6), chi2=st.floats(0.0, 1.7),
)
_VALID_SECTIONS = dict(
    preferences=_section(
        alpha_base=st.floats(0.5, 0.9), alpha_slope=st.floats(0.0, 0.3),
        alpha_lo=st.floats(0.55, 0.65), alpha_hi=st.floats(0.93, 0.98),
        gammaL_base=st.floats(0.0, 3.0), gammaL_decay=st.floats(0.0, 1.0),
        gamma_H=st.floats(0.0, 1.0),
    ),
    learning=st.one_of(
        st.fixed_dictionaries({"variant": st.just("linear")}, optional=_LEARNING_COEFFICIENTS),
        _section(variant=st.just("cubic"), **_LEARNING_COEFFICIENTS),
    ),
    solver=_section(
        p_min=st.floats(0.001, 0.5), p_max=st.floats(1.0, 50.0),
        bisect_tol=st.floats(1e-14, 1e-6), marginal_tol=st.floats(1e-12, 1e-4),
    ),
    sweep=_section(
        E_min=st.floats(0.0, 0.2), E_max=st.floats(0.3, 1.0),
        E_points=st.integers(2, 500), refine_tol=st.floats(1e-12, 1e-4),
    ),
    planner=_section(
        beta=st.floats(0.01, 0.99), horizon=st.integers(1, 100),
        kappa_scale=st.floats(0.001, 1.0), kappa_curv=st.floats(1.0, 5.0),
    ),
    simulation=_section(
        a_H0=st.floats(0.1, 10.0), a_L0=st.floats(0.1, 10.0), wage=st.floats(0.1, 10.0),
        E=_path(0.0, 1.0), income=_path(1.0, 50.0), horizon=st.integers(1, 1000),
    ),
    statics=_section(
        E=st.floats(0.0, 1.0), price_H=st.floats(0.1, 10.0), y_min=st.floats(0.5, 4.0),
        y_max=st.floats(40.0, 100.0), y_points=st.integers(1, 100),
    ),
)
VALID_OVERRIDES = st.fixed_dictionaries({}, optional=_VALID_SECTIONS)
DEFAULT_KEYS = scenario_to_dict(default_scenario())
# (section, key, value): a finite number of the right type, out of the key's range
OUT_OF_RANGE = [
    ("simulation", "a_H0", 0.0), ("simulation", "a_H0", -1.0), ("simulation", "a_L0", 0),
    ("simulation", "a_L0", -1e-300), ("simulation", "wage", 0.0), ("simulation", "wage", -2),
    ("statics", "price_H", 0.0), ("statics", "price_H", -1.0), ("statics", "y_min", 0.0),
    ("statics", "y_min", -4.0), ("statics", "E", -1.0), ("statics", "E", -1e-9),
    ("simulation", "horizon", 0), ("solver", "p_min", 0.0), ("sweep", "E_min", -0.1),
    ("planner", "beta", 1.0), ("learning", "nu", 0.0), ("preferences", "alpha_slope", -0.1),
]


class TestLoaderProperties:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(VALID_OVERRIDES)
    def test_dump_reloads_to_the_same_scenario(self, overrides):
        s = load_scenario_dict(overrides)
        assert load_scenario_dict(json.loads(dump_scenario(s))) == s

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(VALID_OVERRIDES, st.data())
    def test_one_near_valid_value_is_a_config_error_naming_its_key(self, overrides, data):
        section = data.draw(st.sampled_from(sorted(DEFAULT_KEYS)), label="section")
        key = data.draw(st.sampled_from(sorted(DEFAULT_KEYS[section])), label="key")
        bad_values = [float("nan"), float("inf"), HUGE_INT, True, "x"]
        if not (section == "simulation" and key in ("E", "income")):
            bad_values.append([0.1, 0.2])
        default = DEFAULT_KEYS[section][key]
        if isinstance(default, int) and not isinstance(default, bool):
            bad_values.append(2.5)
        bad = data.draw(st.sampled_from(bad_values), label="bad")
        overrides = {**overrides, section: {**overrides.get(section, {}), key: bad}}
        with pytest.raises(ConfigError) as info:
            load_scenario_dict(overrides)
        assert f"'{key}'" in str(info.value)
        assert f"section '{section}'" in str(info.value)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(VALID_OVERRIDES, st.sampled_from(OUT_OF_RANGE))
    def test_one_out_of_range_value_is_a_config_error_naming_key_and_section(
            self, overrides, bad):
        section, key, value = bad
        overrides = {**overrides, section: {**overrides.get(section, {}), key: value}}
        with pytest.raises(ConfigError) as info:
            load_scenario_dict(overrides)
        assert re.search(rf"\b{key}\b", str(info.value)), info.value
        assert f"section '{section}'" in str(info.value)
