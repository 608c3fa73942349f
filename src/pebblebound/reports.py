"""Bound reports and the transfer rules that move them between CDAGs.

Every engine in the package reports its result as a :class:`BoundReport`:
a direction (lower/upper/exact), an exact value (Fraction where the
arithmetic permits, float where roots are involved), the method that
produced it, and a provenance trail of any transfer steps applied.
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
    return BoundReport(
        kind="lower",
        value=value,
        method="transfer",
        symbolic=report.symbolic,
        params=dict(report.params),
        provenance=report.provenance + (step,),
    )


def compose_decomposition(reports: list[BoundReport]) -> BoundReport:
    """Sum per-block lower bounds into a whole-CDAG lower bound.

    Valid for any disjoint partition of the vertex set: the restriction of
    an optimal game to a block is a valid game for the induced sub-CDAG.
    """
    if not reports:
        raise BoundError("decomposition needs at least one block report")
    total: Value = Fraction(0)
    prov: tuple[str, ...] = ()
    for rep in reports:
        low = as_lower(rep)
        total = total + low.value
        prov = prov + low.provenance
    return BoundReport(
        kind="lower",
        value=total,
        method="transfer",
        params={"blocks": len(reports)},
        provenance=prov + (f"decomposition: sum over {len(reports)} blocks",),
    )
