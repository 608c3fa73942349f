"""I/O-complexity analysis of computational DAGs under pebble games.

The package models data movement between fast and slow memory (and across
the units of a memory hierarchy) as pebble games on computational DAGs,
computes lower bounds on the unavoidable traffic via partition counting
and min-cut wavefronts, and compares algorithm bounds against the balance
ratios of real parallel machines.
"""

from .cdag import (
    Cdag,
    NondisjointSplit,
    Partition,
    check_split_side_conditions,
    nondisjoint_decompose,
)
from .errors import (
    BoundError,
    BudgetExhaustedError,
    CdagError,
    FormatError,
    GameError,
    InfeasibleGameError,
    PebbleboundError,
)
from .generators import (
    ALGORITHMS,
    AlgorithmParams,
    AnnotatedCdag,
    gen_chain,
    gen_cg,
    gen_composite,
    gen_gmres,
    gen_jacobi,
    gen_matmul,
    gen_outer_product,
    generate,
)
from .games import (
    HierarchyConfig,
    IoTally,
    PrbwMove,
    RbwMove,
    heuristic_game,
    validate_prbw,
    validate_rb,
    validate_rbw,
)
from .oracle import optimal_io
from .bounds import (
    FlowStats,
    SPartitionCertificate,
    Wavefront,
    analytic_horizontal_ub,
    analytic_lb,
    check_spartition,
    horizontal_bound_spart,
    mincut_divide_bound,
    mincut_lower_bound,
    spart_lower_bound,
    umax_bruteforce,
    vertical_bound_spart,
    wavefront_min,
    wmax,
)
from .reports import (
    BoundReport,
    as_lower,
    compose_decomposition,
    compose_split,
    transfer_bound,
    vertical_bound_from_sequential,
)
from .balance import (
    AnalysisReport,
    BalanceVerdict,
    CacheLevel,
    DimensionThreshold,
    MachineSpec,
    analyze,
    check_horizontal,
    check_vertical,
    flop_count,
    jacobi_dimension_threshold,
    load_machine,
)

__version__ = "0.1.0"
