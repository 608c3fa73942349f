"""I/O-complexity analysis of computational DAGs under pebble games.

The package models data movement between fast and slow memory (and across
the units of a memory hierarchy) as pebble games on computational DAGs,
computes lower bounds on the unavoidable traffic via partition counting
and min-cut wavefronts, and compares algorithm bounds against the balance
ratios of real parallel machines.

``import pebblebound`` loads no engine: each public name below imports
its module on first use (PEP 562), so a caller pays only for the engines
it touches.
"""

import importlib

__version__ = "0.1.0"

# each public name, under the module that defines it
_EXPORTS = {
    "cdag": ("Cdag", "NondisjointSplit", "Partition", "check_split_side_conditions", "nondisjoint_decompose"),
    "errors": (
        "BoundError", "BudgetExhaustedError", "CdagError", "FormatError", "GameError",
        "InfeasibleGameError", "PebbleboundError",
    ),
    "generators": (
        "ALGORITHMS", "AlgorithmParams", "AnnotatedCdag", "gen_chain", "gen_cg", "gen_composite",
        "gen_gmres", "gen_jacobi", "gen_matmul", "gen_outer_product", "generate",
    ),
    "games": (
        "HierarchyConfig", "IoTally", "PrbwMove", "RbwMove", "heuristic_game", "validate_prbw",
        "validate_rb", "validate_rbw",
    ),
    "oracle": ("optimal_io",),
    "bounds": (
        "FlowStats", "SPartitionCertificate", "Wavefront", "analytic_horizontal_ub", "analytic_lb",
        "check_spartition", "horizontal_bound_spart", "mincut_divide_bound", "mincut_lower_bound",
        "spart_lower_bound", "umax_bruteforce", "vertical_bound_spart", "wavefront_min", "wmax",
    ),
    "reports": (
        "BoundReport", "as_lower", "compose_decomposition", "compose_split", "transfer_bound",
        "vertical_bound_from_sequential",
    ),
    "balance": (
        "AnalysisReport", "BalanceVerdict", "CacheLevel", "DimensionThreshold", "MachineSpec", "analyze",
        "check_horizontal", "check_vertical", "flop_count", "jacobi_dimension_threshold", "load_machine",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
