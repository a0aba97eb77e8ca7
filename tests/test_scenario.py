import json

import pytest

from demandtier import (
    LearningVariant,
    default_scenario,
    dump_scenario,
    load_scenario,
    load_scenario_dict,
    scenario_to_dict,
)
from demandtier.errors import ConfigError


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


class TestRoundTrip:
    def test_dict_round_trip(self):
        s = default_scenario()
        assert load_scenario_dict(scenario_to_dict(s)) == s

    def test_json_round_trip(self, tmp_path):
        s = default_scenario()
        path = tmp_path / "scenario.json"
        path.write_text(dump_scenario(s), encoding="utf-8")
        assert load_scenario(path) == s

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
            load_scenario_dict({"solver": {"grid_points": 4001.5}})
        with pytest.raises(ConfigError, match="variant"):
            load_scenario_dict({"learning": {"variant": "quartic"}})

    def test_legacy_solver_keys_accepted_and_ignored(self, capsys):
        s = load_scenario_dict({"solver": {"grid_points": 8001, "dedup_tol": 1e-9}})
        assert s == default_scenario()
        assert "grid_points" in capsys.readouterr().err
        assert "grid_points" not in scenario_to_dict(s)["solver"]
        with pytest.raises(ConfigError, match="must be a number"):
            load_scenario_dict({"solver": {"dedup_tol": "tiny"}})

    def test_list_only_for_simulation_paths(self):
        with pytest.raises(ConfigError):
            load_scenario_dict({"statics": {"E": [0.1, 0.2]}})

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_scenario(path)

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

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_json_literals_rejected(self, tmp_path, literal):
        # json.loads reads all four as floats; 1e999 overflows to inf
        path = tmp_path / "scenario.json"
        path.write_text('{"learning": {"nu": %s}}' % literal, encoding="utf-8")
        with pytest.raises(ConfigError, match="key 'nu' in section 'learning' must be finite"):
            load_scenario(path)


def test_defaults_json_is_strict_subset_of_schema():
    # every key the dump emits must load back without strict-parsing errors
    data = json.loads(dump_scenario(default_scenario()))
    assert load_scenario_dict(data) == default_scenario()
