"""Two-sector demand-hierarchy equilibrium engine.

Education shifts household preferences toward the high-tier good and fuels
learning-by-doing in its sector; demand and supply close through a
one-dimensional map for the relative price. The package finds and classifies
the map's fixed points, sweeps education levels for saddle-node thresholds,
simulates time paths, and evaluates the planner's education first-order
condition.

The public names are lazy (PEP 562): ``import demandtier`` runs this file only,
and the first read of a name, such as ``demandtier.sweep``, imports the module
that defines it. The config classes live in ``scenario``, beside ``Scenario``,
so ``demandtier.LearningSpec`` imports no engine module.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# module -> the public names it gives the package: the one such map, cli reads it too
_PUBLIC = {
    "bifurcation": ("BifurcationDiagram", "ChannelCondition", "DiagramRow", "SaddleNode",
                    "Transition", "channel_condition", "sweep"),
    "demand": ("DemandArrays", "DemandSolution", "HouseholdBudget", "IncomeElasticities",
               "ShareSlope", "alpha_of", "demand_arrays", "dshare_H_dE", "elasticity_arrays",
               "gammaL_of", "income_elasticities", "solve_demand", "stone_geary_utility"),
    "dynamics": ("GrowthFactors", "HRatio", "TechnologyState", "TimePath", "excess_share",
                 "excess_share_slope_E", "growth_factors", "h_ratio", "price_map",
                 "simulate_path"),
    "errors": ("ConfigError", "DegenerateChannel", "DemandTierError", "InvalidHorizon",
               "InvalidPrice", "InvalidState", "NoConvergence", "NonInteriorBudget",
               "NumericalOverflow", "ShareOutOfRange"),
    "planner": ("FocReport", "education_wedge_sign", "evaluate_foc", "kappa", "kappa_prime"),
    "scenario": ("LearningSpec", "LearningVariant", "PlannerConfig", "PreferenceSchedule",
                 "Scenario", "SimulationConfig", "SolverConfig", "StaticsConfig", "SweepConfig",
                 "default_scenario", "dump_scenario", "load_scenario", "load_scenario_dict",
                 "scenario_to_dict"),
    "solver": ("FixedPoint", "Stability", "classify_stability", "find_fixed_points"),
}
_MODULE_OF = {name: f"{__name__}.{module}" for module, names in _PUBLIC.items() for name in names}
# the submodules that an import of the package used to load, and so bind on it
_SUBMODULES = ("_kernels", "_np", *_PUBLIC)

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(_import_module(_MODULE_OF[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})
