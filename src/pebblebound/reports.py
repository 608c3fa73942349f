"""Bound reports and the rules that carry lower bounds between CDAGs.

Every engine in the package reports its result as a :class:`BoundReport`:
a direction (lower/upper/exact), an exact value (Fraction where the
arithmetic permits, float where roots are involved), the method that
produced it, and a provenance trail of any transfer steps applied.

Every rule that carries a lower bound to another CDAG lives here --
:func:`transfer_bound`, :func:`compose_decomposition`,
:func:`compose_split` and :func:`vertical_bound_from_sequential` -- and
lists its inputs' provenance before its own step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Union

from .errors import BoundError

Value = Union[Fraction, float]

METHODS = ("spart", "mincut", "analytic", "bruteforce", "heuristic-game", "transfer")


def nonneg(value: Value) -> Value:
    """``value`` clamped at zero, keeping its type (Fraction or float)."""
    if isinstance(value, Fraction):
        return value if value > 0 else Fraction(0)
    return value if value > 0 else 0.0


@dataclass(frozen=True)
class BoundReport:
    """A named bound with value, method, parameters, and provenance.

    ``kind`` is ``lower``, ``upper``, or ``exact`` (an optimum is both a
    lower and an upper bound).  ``symbolic`` carries a closed form in named
    parameters when one exists; ``asymptotic`` the simplified large-n form
    together with its validity condition.
    """

    kind: str
    value: Value
    method: str
    symbolic: Optional[str] = None
    asymptotic: Optional[str] = None
    params: dict = field(default_factory=dict)
    provenance: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ("lower", "upper", "exact"):
            raise BoundError(f"unknown bound kind {self.kind!r}")
        if self.method not in METHODS:
            raise BoundError(f"unknown method {self.method!r}")
        if self.value < 0:
            raise BoundError(f"bound values are nonnegative, got {self.value}")
        if self.method == "transfer" and not self.provenance:
            raise BoundError("transfer reports need a nonempty provenance")


def render(value) -> str:
    """Text form of an output value: exact rationals keep a 6-digit gloss."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator} ({float(value):.6g})"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def as_lower(report: BoundReport) -> BoundReport:
    """View an exact optimum as the lower bound it certifies."""
    if report.kind == "lower":
        return report
    if report.kind == "exact":
        return replace(report, kind="lower")
    raise BoundError("an upper bound cannot be read as a lower bound")


def _carried(inputs, value: Value, step: str, **fields) -> BoundReport:
    """A transfer lower bound: the inputs' provenance in order, then ``step``."""
    provenance = tuple(s for rep in inputs for s in rep.provenance) + (step,)
    return BoundReport(kind="lower", value=value, method="transfer", provenance=provenance, **fields)


def transfer_bound(report: BoundReport, rule: str, di_size: int, do_size: int) -> BoundReport:
    """Carry a lower bound across a tagging/untagging/deletion surgery.

    * ``tagging``: a bound for the retagged CDAG gives one for the original
      after paying |dI| + |dO| (clamped at zero).
    * ``untagging``: a bound for the untagged CDAG holds unchanged for the
      retagged one.
    * ``deletion``: a bound for the trimmed CDAG gains |dI| + |dO| on the
      CDAG that still carries those input/output vertices.
    """
    if report.kind != "lower":
        raise BoundError("transfer rules are defined for lower bounds only")
    if rule not in ("tagging", "untagging", "deletion"):
        raise BoundError(f"unknown transfer rule {rule!r}")
    if di_size < 0 or do_size < 0:
        raise BoundError("dI/dO sizes are nonnegative")
    delta = di_size + do_size
    if rule == "tagging":
        value = nonneg(report.value - delta)
        step = f"tagging: -|dI|({di_size}) -|dO|({do_size})"
    elif rule == "untagging":
        value = report.value
        step = "untagging: value carried unchanged"
    else:
        value = report.value + delta
        step = f"deletion: +|dI|({di_size}) +|dO|({do_size})"
    return _carried((report,), value, step, symbolic=report.symbolic, params=dict(report.params))


def compose_decomposition(reports: list[BoundReport]) -> BoundReport:
    """Sum per-block lower bounds into a whole-CDAG lower bound.

    Valid for any disjoint partition of the vertex set: the restriction of
    an optimal game to a block is a valid game for the induced sub-CDAG.
    """
    if not reports:
        raise BoundError("decomposition needs at least one block report")
    lows = [as_lower(rep) for rep in reports]
    total = sum((low.value for low in lows), Fraction(0))
    step = f"decomposition: sum over {len(reports)} blocks"
    return _carried(lows, total, step, params={"blocks": len(reports)})


def compose_split(split, first_lb: BoundReport, second_lb: BoundReport) -> BoundReport:
    """Sum lower bounds for the parts of a :class:`~pebblebound.cdag.NondisjointSplit`.

    ``first_lb`` bounds ``split.first`` at capacity S+1 and ``second_lb``
    ``split.second`` at S; the sum bounds the whole at S (``split.rule``).
    """
    lows = (as_lower(first_lb), as_lower(second_lb))
    step = f"nondisjoint-split at {split.anchor}: {split.rule}"
    return _carried(lows, lows[0].value + lows[1].value, step)


def vertical_bound_from_sequential(seq_lb: BoundReport, n_units: int) -> BoundReport:
    """Per-unit traffic at a level with n_units units: sequential bound / n_units.

    The unit with maximum traffic moves at least a 1/n_units share of the
    single-processor bound computed at the level's aggregate capacity.
    The exact rational is kept (no integer floor) so machine-balance
    intensities stay exact.
    """
    if seq_lb.kind not in ("lower", "exact"):
        raise BoundError("vertical transfer needs a lower bound")
    if n_units < 1:
        raise BoundError("unit count must be >= 1")
    value = seq_lb.value / n_units if isinstance(seq_lb.value, float) else Fraction(seq_lb.value) / n_units
    return _carried(
        (seq_lb,), value, f"vertical: divide by {n_units} units, max-traffic unit",
        symbolic=(seq_lb.symbolic + f" / {n_units}") if seq_lb.symbolic else None,
        params=dict(seq_lb.params, n_units=n_units),
    )
