"""The engine's result types as records: the classes on ``scenario._Record``
behave as the config classes do (``test_scenario.py::TestConfigRecord``), and
the tuples are ``collections.namedtuple`` classes. Each expected ``repr`` is
the text the results printed when they were dataclasses and
``typing.NamedTuple`` classes. ``dataclasses.fields``, ``replace`` and
``asdict`` take records as they took those dataclasses."""

import dataclasses

import numpy as np
import pytest

from demandtier.bifurcation import (
    BifurcationDiagram,
    ChannelCondition,
    DiagramRow,
    SaddleNode,
    Transition,
)
from demandtier.demand import (
    DemandArrays,
    DemandSolution,
    HouseholdBudget,
    IncomeElasticities,
    ShareSlope,
)
from demandtier.dynamics import GrowthFactors, HRatio, TechnologyState, TimePath
from demandtier.errors import ConfigError, InvalidState
from demandtier.planner import FocReport
from demandtier.scenario import LearningSpec, SweepConfig, _Record
from demandtier.solver import FixedPoint, RootColumns, Stability

FIXED_POINT = (0.17, 0.5, 0.3, Stability.STABLE)
FIXED_POINT_REPR = ("FixedPoint(p_star=0.17, s_star=0.5, t_prime=0.3, "
                    "stability=<Stability.STABLE: 'stable'>)")
SADDLE = (0.2, 0.4, (1e-12, 2e-12))
SADDLE_REPR = "SaddleNode(E_bar=0.2, s_bar=0.4, residuals=(1e-12, 2e-12))"
COLUMNS = tuple(map(np.array, ([0], [0.17], [0.5], [0.3], [0])))
COLUMNS_REPR = ("RootColumns(level=array([0]), p_star=array([0.17]), s_star=array([0.5]), "
                "t_prime=array([0.3]), stability=array([0]))")

# each record class: its fields in order, the values of an instance, and its repr
RECORDS = {
    FixedPoint: (("p_star", "s_star", "t_prime", "stability"), FIXED_POINT, FIXED_POINT_REPR),
    SaddleNode: (("E_bar", "s_bar", "residuals"), SADDLE, SADDLE_REPR),
    Transition: (("E", "count_lo", "count_hi", "saddle", "note"),
                 (0.2, 1, 3, SaddleNode(*SADDLE), ""),
                 f"Transition(E=0.2, count_lo=1, count_hi=3, saddle={SADDLE_REPR}, note='')"),
    DiagramRow: (("E", "roots"), (0.1, [FixedPoint(*FIXED_POINT)]),
                 f"DiagramRow(E=0.1, roots=[{FIXED_POINT_REPR}])"),
    BifurcationDiagram: (("E", "roots", "thresholds", "transitions"),
                         (np.array([0.1]), RootColumns(*COLUMNS), [SaddleNode(*SADDLE)], []),
                         f"BifurcationDiagram(E=array([0.1]), roots={COLUMNS_REPR}, "
                         f"thresholds=[{SADDLE_REPR}], transitions=[])"),
    HouseholdBudget: (("income", "price_H", "price_L"), (10.0, 2.0, 1.0),
                      "HouseholdBudget(income=10.0, price_H=2.0, price_L=1.0)"),
    DemandSolution: (("c_L", "c_H", "supernumerary", "share_H", "share_L", "utility"),
                     (1.0, 2.0, 3.0, 0.4, 0.6, 1.5),
                     "DemandSolution(c_L=1.0, c_H=2.0, supernumerary=3.0, share_H=0.4, "
                     "share_L=0.6, utility=1.5)"),
    TechnologyState: (("a_H", "a_L", "wage"), (1.0, 5.0, 1.0),
                      "TechnologyState(a_H=1.0, a_L=5.0, wage=1.0)"),
    TimePath: (("t", "p", "s_q", "a_h", "a_l", "c_l", "c_h", "share_h", "utility", "interior",
                "e_path", "income_path"), (np.arange(1),) * 12,
               "TimePath(t=array([0]), p=array([0]), s_q=array([0]), a_h=array([0]), "
               "a_l=array([0]), c_l=array([0]), c_h=array([0]), share_h=array([0]), "
               "utility=array([0]), interior=array([0]), e_path=array([0]), "
               "income_path=array([0]))"),
    FocReport: (("t", "preference_term", "spillover_term", "shadow_cost", "wedge", "lambda_t",
                 "eta_t"), (np.zeros(1),) * 7,
                "FocReport(t=array([0.]), preference_term=array([0.]), "
                "spillover_term=array([0.]), shadow_cost=array([0.]), wedge=array([0.]), "
                "lambda_t=array([0.]), eta_t=array([0.]))"),
}
# records whose fields hold lists or arrays: equal when they hold the same
# objects, and unhashable
UNHASHABLE = (DiagramRow, TimePath, FocReport)

# each named tuple class: its fields, the values of an instance, and its repr
TUPLES = {
    RootColumns: (("level", "p_star", "s_star", "t_prime", "stability"), COLUMNS,
                  COLUMNS_REPR),
    DemandArrays: (("c_L", "c_H", "supernumerary", "share_H", "share_L", "utility",
                    "interior"), (np.ones(1),) * 6 + (np.ones(1, bool),),
                   "DemandArrays(c_L=array([1.]), c_H=array([1.]), supernumerary=array([1.]), "
                   "share_H=array([1.]), share_L=array([1.]), utility=array([1.]), "
                   "interior=array([ True]))"),
    IncomeElasticities: (("eta_H", "eta_L"), (1.5, 0.5),
                         "IncomeElasticities(eta_H=1.5, eta_L=0.5)"),
    ShareSlope: (("value", "alpha_clipped"), (0.25, False),
                 "ShareSlope(value=0.25, alpha_clipped=False)"),
    GrowthFactors: (("g_H", "g_L"), (1.1, 1.2), "GrowthFactors(g_H=1.1, g_L=1.2)"),
    HRatio: (("value", "dH_ds", "dH_dE"), (0.9, -0.1, -0.2),
             "HRatio(value=0.9, dH_ds=-0.1, dH_dE=-0.2)"),
    ChannelCondition: (("lhs", "rhs", "education_lowers_price", "dT_dE"),
                       (0.5, 0.25, True, -0.75),
                       "ChannelCondition(lhs=0.5, rhs=0.25, education_lowers_price=True, "
                       "dT_dE=-0.75)"),
}


def build(cls):
    return cls(*RECORDS[cls][1])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestResultRecord:
    def test_is_a_record_built_by_position_or_keyword(self, cls):
        names, values, _ = RECORDS[cls]
        assert issubclass(cls, _Record)
        by_position, by_keyword = cls(*values), cls(**dict(zip(names, values)))
        for record in (by_position, by_keyword):
            assert [getattr(record, name) for name in names] == list(values)
        with pytest.raises(TypeError, match="positional arguments"):
            cls(*values, values[0])
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            cls(*values, bogus=1)

    def test_fields_are_frozen(self, cls):
        record = build(cls)
        for name in RECORDS[cls][0]:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.not_a_field = 1

    def test_vars_are_exactly_the_fields(self, cls):
        assert list(vars(build(cls))) == list(RECORDS[cls][0])
        assert cls._fields == RECORDS[cls][0]

    def test_dataclasses_takes_it_as_a_frozen_dataclass_of_its_fields(self, cls):
        names, values, _ = RECORDS[cls]
        record = build(cls)
        assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(record)
        assert [f.name for f in dataclasses.fields(record)] == list(names)
        assert cls.__dataclass_params__.frozen
        assert list(dataclasses.asdict(record)) == list(names)
        copy = dataclasses.replace(record)
        assert type(copy) is cls and copy is not record
        assert all(getattr(copy, name) is value for name, value in zip(names, values))

    def test_repr(self, cls):
        assert repr(build(cls)) == RECORDS[cls][2]

    def test_equality_and_hash(self, cls):
        names, values, _ = RECORDS[cls]
        a, b = cls(*values), cls(**dict(zip(names, values)))
        if cls is BifurcationDiagram:  # compared and hashed by identity
            assert a != b and a == a and hash(a) == object.__hash__(a)
        elif cls in UNHASHABLE:
            assert a == b and not a != b
            with pytest.raises(TypeError, match="unhashable"):
                hash(a)
        else:
            assert a is not b and a == b and hash(a) == hash(b) and not a != b
        assert a != values


def test_records_validate_after_construction():
    with pytest.raises(ConfigError, match="income must be > 0"):
        HouseholdBudget(0.0, 2.0)
    with pytest.raises(InvalidState, match="a_L must be > 0"):
        TechnologyState(a_H=1.0, a_L=0.0)
    assert HouseholdBudget(10.0, 2.0) == HouseholdBudget(income=10.0, price_H=2.0, price_L=1.0)
    assert Transition(0.3, 3, 2, None).note == ""


def test_diagram_rows_are_built_once_and_are_no_field():
    diagram = build(BifurcationDiagram)
    rows = diagram.rows
    assert rows is diagram.rows
    assert rows == [DiagramRow(0.1, [FixedPoint(*FIXED_POINT)])]
    assert BifurcationDiagram._fields == RECORDS[BifurcationDiagram][0]
    assert repr(diagram) == RECORDS[BifurcationDiagram][2]
    # the built rows sit in vars() beside the fields, but a copy takes the fields only
    assert list(vars(diagram)) == [*BifurcationDiagram._fields, "rows"]
    copy = dataclasses.replace(diagram, transitions=[])
    assert list(vars(copy)) == list(BifurcationDiagram._fields) and copy.rows == rows


def test_dataclasses_replace_changes_a_field_and_keeps_the_others():
    assert dataclasses.replace(FixedPoint(*FIXED_POINT), p_star=0.2) == FixedPoint(
        0.2, *FIXED_POINT[1:])
    assert dataclasses.replace(SaddleNode(*SADDLE), E_bar=0.3) == SaddleNode(0.3, *SADDLE[1:])
    assert dataclasses.replace(SweepConfig(), E_points=801) == SweepConfig(E_points=801)
    # the copy re-validates
    with pytest.raises(ConfigError, match="nu must be > 0"):
        dataclasses.replace(LearningSpec(), nu=0.0)


@pytest.mark.parametrize("cls", TUPLES, ids=lambda cls: cls.__name__)
def test_result_tuples_are_named_tuples(cls):
    names, values, text = TUPLES[cls]
    record = cls(*values)
    assert cls._fields == names and repr(record) == text
    assert cls(**dict(zip(names, values))) == record == values
    unpacked = tuple(record)
    assert all(got is want for got, want in zip(unpacked, values))
    assert list(record._asdict()) == list(names)
    first = record._replace(**{names[0]: "x"})
    assert type(first) is cls and first[0] == "x" and first[1:] == record[1:]
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    with pytest.raises(AttributeError):
        setattr(record, names[0], values[0])


def test_root_columns_keep_fixed_points():
    assert RootColumns(*COLUMNS).fixed_points() == [FixedPoint(*FIXED_POINT)]
