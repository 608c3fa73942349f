"""Machine-balance analysis: is an algorithm provably bandwidth-bound?

A machine's balance at some level of its memory system is the ratio of
peak transfer bandwidth to peak arithmetic throughput, in words per flop.
An algorithm whose per-flop traffic *lower* bound exceeds the balance is
bandwidth-bound at that level no matter how it is scheduled; one whose
per-flop traffic *upper* bound stays below it has at least one schedule
that the level cannot throttle.  Anything in between is inconclusive.

Machine descriptions ship as data files (see ``machines/``) so new
systems can be added without touching code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .bounds import analytic_horizontal_ub, analytic_lb
from .errors import BoundError
from .generators import AlgorithmParams
from .reports import BoundReport, vertical_bound_from_sequential

Number = Union[Fraction, float]

VERDICTS = ("provably-bandwidth-bound", "not-bandwidth-bound-achievable", "inconclusive")


def _require_positive_finite(**figures) -> None:
    """Reject a balance or raw figure that is set but not a positive finite number."""
    for name, value in figures.items():
        if value is not None and not (math.isfinite(value) and value > 0):
            raise BoundError(f"{name} must be a positive finite number, got {value!r}")


@dataclass(frozen=True)
class CacheLevel:
    """One cache level: capacity in words, sharing degree, optional balance.

    ``balance`` is the words-per-flop ratio for traffic between this level
    and the next one down (toward the processors), when known; a known
    balance is a positive finite number.
    """

    name: str
    capacity_words: int
    shared_by: int = 1
    balance: Optional[float] = None

    def __post_init__(self):
        if self.capacity_words < 1 or self.shared_by < 1:
            raise BoundError("cache capacity and sharing degree must be >= 1")
        _require_positive_finite(balance=self.balance)


@dataclass(frozen=True)
class MachineSpec:
    """Node counts, capacities, and balance ratios for one system.

    The stated balance ratios are authoritative.  When the raw peak
    figures are also given (``raw_vertical_bw`` in words/s per node,
    ``raw_flops_per_core`` in flop/s), the derived ratio must agree with
    the stated one within 1%; they exist as a cross-check only.  Every
    balance and raw figure that is set is a positive finite number.
    """

    name: str
    n_nodes: int
    n_cores: int
    mem_words: int
    caches: tuple[CacheLevel, ...]
    vertical_balance: float
    horizontal_balance: float
    raw_vertical_bw: Optional[float] = None
    raw_flops_per_core: Optional[float] = None

    def __post_init__(self):
        _require_positive_finite(
            vertical_balance=self.vertical_balance,
            horizontal_balance=self.horizontal_balance,
            raw_vertical_bw=self.raw_vertical_bw,
            raw_flops_per_core=self.raw_flops_per_core,
        )
        if self.n_nodes < 1 or self.n_cores < 1 or self.mem_words < 1:
            raise BoundError("node, core, and memory sizes must be >= 1")
        if self.raw_vertical_bw is not None and self.raw_flops_per_core is not None:
            derived = self.raw_vertical_bw / (self.n_cores * self.raw_flops_per_core)
            if abs(derived - self.vertical_balance) > 0.01 * self.vertical_balance:
                raise BoundError(
                    f"raw figures give balance {derived:.4g}, stated "
                    f"{self.vertical_balance:.4g}: more than 1% apart"
                )


@dataclass(frozen=True)
class BalanceVerdict:
    """One balance comparison: algorithm intensity vs machine ratio.

    A ``vertical`` verdict rests on a lower bound, a ``horizontal`` one on
    an upper bound.
    """

    level: str
    algorithm_intensity: Number
    machine_balance: float
    verdict: str

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise BoundError(f"unknown verdict {self.verdict!r}")


def check_vertical(lb_vert: BoundReport, v_size: int, machine: MachineSpec) -> BalanceVerdict:
    """Compare a per-node vertical lower bound against the machine balance.

    Intensity is LB * N_nodes / |V| in words per flop, N_nodes being the
    machine's node count; exceeding the machine's vertical balance proves
    the algorithm bandwidth-bound at that level for every schedule.
    """
    if lb_vert.kind not in ("lower", "exact"):
        raise BoundError("vertical check needs a lower bound")
    if v_size == 0:
        raise BoundError("operation count must be nonzero")
    intensity = lb_vert.value * machine.n_nodes / v_size
    if intensity > machine.vertical_balance:
        verdict = "provably-bandwidth-bound"
    else:
        verdict = "inconclusive"
    return BalanceVerdict(
        level="vertical",
        algorithm_intensity=intensity,
        machine_balance=machine.vertical_balance,
        verdict=verdict,
    )


def check_horizontal(ub_horiz: BoundReport, v_size: int, machine: MachineSpec) -> BalanceVerdict:
    """Compare a per-node horizontal upper bound against the machine balance.

    Intensity is UB * N_nodes / |V|, N_nodes being the machine's node
    count.  An intensity below the horizontal balance certifies that some
    schedule is not limited by inter-node bandwidth.  An exact report
    counts as the upper bound it also is.
    """
    if ub_horiz.kind not in ("upper", "exact"):
        raise BoundError("horizontal check needs an upper bound")
    if v_size == 0:
        raise BoundError("operation count must be nonzero")
    intensity = ub_horiz.value * machine.n_nodes / v_size
    if intensity < machine.horizontal_balance:
        verdict = "not-bandwidth-bound-achievable"
    else:
        verdict = "inconclusive"
    return BalanceVerdict(
        level="horizontal",
        algorithm_intensity=intensity,
        machine_balance=machine.horizontal_balance,
        verdict=verdict,
    )


@dataclass(frozen=True)
class DimensionThreshold:
    """Largest stencil dimension a balance ratio can keep fed.

    ``exact`` solves 1/(4*(2S)^(1/d)) <= balance for d directly:
    d <= log2(2S) / log2(1/(4*balance)), infinite once balance >= 1/4.
    ``published`` is the rounded-coefficient closed form
    round(4*balance, 2) * log2(2S) that the survey literature quotes;
    it is reported for reproducibility, not as the exact inversion.
    """

    exact: float  # math.inf when every dimension is admissible
    published: float
    capacity_words: int
    balance: float


def jacobi_dimension_threshold(s_level: int, balance: float) -> DimensionThreshold:
    """Dimension threshold for stencil sweeps at a level of capacity s_level.

    The stencil block bound gives per-word traffic 1/(4*(2S)^(1/d)); the
    sweep stays un-throttled while that is at most the balance ratio.
    """
    if s_level < 1:
        raise BoundError("capacity must be >= 1 word")
    if balance <= 0:
        raise BoundError("balance must be positive")
    log_cap = math.log2(2 * s_level)
    published = round(4 * balance, 2) * log_cap
    if balance >= 0.25:
        exact = math.inf
    else:
        exact = log_cap / math.log2(1 / (4 * balance))
    return DimensionThreshold(exact=exact, published=published, capacity_words=s_level, balance=balance)


@dataclass(frozen=True)
class AnalysisReport:
    """Full balance analysis for one algorithm on one machine."""

    algorithm: str
    machine: str
    v_size: int
    vertical: BalanceVerdict
    horizontal: BalanceVerdict
    vertical_lb: BoundReport
    horizontal_ub: BoundReport
    horizontal_intensity_asymptotic: Number
    jacobi_thresholds: tuple[tuple[str, DimensionThreshold], ...] = ()


def flop_count(params: AlgorithmParams) -> int:
    """Operation count of ``params.algorithm``, the intensity denominator.

    Supported: cg at d=3 (20 n^3 T), gmres at d=3 (20 n^3 m + n^3 m^2),
    jacobi at any d (stencil_points * n^d * T).
    """
    n, d, T, m = params.n, params.d, params.T, params.m
    if params.algorithm == "cg" and d == 3:
        return 20 * n**3 * T
    if params.algorithm == "gmres" and d == 3:
        return 20 * n**3 * m + n**3 * m**2
    if params.algorithm == "jacobi":
        pts = params.stencil_points if params.stencil_points is not None else 3**d
        return pts * n**d * T
    raise BoundError("supported operation models: cg d=3, gmres d=3, jacobi any d")


def analyze(params: AlgorithmParams, machine: MachineSpec) -> AnalysisReport:
    """Run both balance checks for ``params.algorithm`` on a machine.

    The vertical lower bound is the closed-form sequential bound divided
    across the machine's nodes; the horizontal upper bound is the
    ghost-cell form, whose leading term also gives the asymptotic
    intensity.  For stencil sweeps the report also carries the dimension
    thresholds of every cache level with a known balance, plus the
    main-memory one.
    """
    v_size = flop_count(params)
    jacobi = params.algorithm == "jacobi"
    if jacobi and not machine.caches:
        raise BoundError("the stencil bound needs a cache level (its capacity sets S)")
    seq = analytic_lb(params, P=1, S=machine.caches[0].capacity_words if jacobi else 0)
    lb_vert = vertical_bound_from_sequential(seq, machine.n_nodes)
    ub_horiz = analytic_horizontal_ub(params, machine.n_nodes)

    thresholds: list[tuple[str, DimensionThreshold]] = []
    if jacobi:
        for cache in machine.caches:
            if cache.balance is not None:
                thresholds.append((cache.name, jacobi_dimension_threshold(cache.capacity_words, cache.balance)))
        main = machine.caches[0]
        thresholds.append(
            ("main-memory", jacobi_dimension_threshold(main.capacity_words, machine.vertical_balance))
        )
    return AnalysisReport(
        algorithm=params.algorithm,
        machine=machine.name,
        v_size=v_size,
        vertical=check_vertical(lb_vert, v_size, machine),
        horizontal=check_horizontal(ub_horiz, v_size, machine),
        vertical_lb=lb_vert,
        horizontal_ub=ub_horiz,
        horizontal_intensity_asymptotic=ub_horiz.params["leading"] * machine.n_nodes / v_size,
        jacobi_thresholds=tuple(thresholds),
    )


def _machines_dir():
    import importlib.resources as resources

    return resources.files("pebblebound").joinpath("machines")


def shipped_machines() -> list[str]:
    """Names of the machine specs shipped under ``machines/``, sorted."""
    return sorted(
        spec.name.removesuffix(".machine") for spec in _machines_dir().iterdir() if spec.name.endswith(".machine")
    )


def load_machine(name: str) -> MachineSpec:
    """Load a shipped machine spec by name (bgq, crayxt5).

    Only the files under ``machines/`` are looked up; to load a spec file of
    your own, read it and pass its text to :func:`formats.parse_machine`.
    """
    from .formats import parse_machine

    if name not in shipped_machines():
        raise BoundError(f"no machine file or shipped machine named {name!r}")
    return parse_machine(_machines_dir().joinpath(f"{name}.machine").read_text(encoding="utf-8"))
