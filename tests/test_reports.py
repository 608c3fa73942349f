from fractions import Fraction

import pytest

from pebblebound import BoundError, BoundReport, as_lower, compose_decomposition, transfer_bound
from pebblebound.reports import render


def lower(v, **kw):
    return BoundReport(kind="lower", value=Fraction(v), method=kw.pop("method", "analytic"), **kw)


class TestTransfer:
    def test_deletion_adds_back_boundary(self):
        rep = transfer_bound(lower(10), "deletion", 3, 2)
        assert rep.value == 15
        assert rep.kind == "lower"
        assert any("deletion" in s for s in rep.provenance)

    def test_tagging_noop_at_zero(self):
        assert transfer_bound(lower(10), "tagging", 0, 0).value == 10

    def test_tagging_clamps_at_zero(self):
        assert transfer_bound(lower(4), "tagging", 3, 2).value == 0

    def test_untagging_carries_value(self):
        assert transfer_bound(lower(7), "untagging", 3, 2).value == 7

    def test_upper_bound_rejected(self):
        up = BoundReport(kind="upper", value=Fraction(5), method="analytic")
        with pytest.raises(BoundError, match="lower bounds only"):
            transfer_bound(up, "tagging", 1, 0)

    def test_exact_must_be_downcast_first(self):
        ex = BoundReport(kind="exact", value=Fraction(5), method="bruteforce")
        with pytest.raises(BoundError):
            transfer_bound(ex, "deletion", 1, 1)
        assert transfer_bound(as_lower(ex), "deletion", 1, 1).value == 7

    def test_unknown_rule(self):
        with pytest.raises(BoundError, match="rule"):
            transfer_bound(lower(1), "shuffle", 0, 0)


class TestCompose:
    def test_sums_blocks(self):
        rep = compose_decomposition([lower(5), lower(7), lower(0)])
        assert rep.value == 12
        assert rep.params["blocks"] == 3

    def test_empty_rejected(self):
        with pytest.raises(BoundError):
            compose_decomposition([])

    def test_exact_reports_accepted_as_lower(self):
        ex = BoundReport(kind="exact", value=Fraction(4), method="bruteforce")
        assert compose_decomposition([ex, lower(2)]).value == 6


class TestReportBasics:
    def test_negative_value_rejected(self):
        with pytest.raises(BoundError):
            BoundReport(kind="lower", value=Fraction(-1), method="analytic")

    def test_transfer_needs_provenance(self):
        with pytest.raises(BoundError, match="provenance"):
            BoundReport(kind="lower", value=Fraction(1), method="transfer")

    def test_render_fraction(self):
        rep = BoundReport(kind="lower", value=Fraction(3, 10), method="analytic")
        assert render(rep.value).startswith("3/10")

    def test_upper_cannot_downcast(self):
        up = BoundReport(kind="upper", value=Fraction(5), method="analytic")
        with pytest.raises(BoundError):
            as_lower(up)
