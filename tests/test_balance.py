import hashlib
import math
from fractions import Fraction

import pytest

from pebblebound import (
    AlgorithmParams,
    BoundError,
    BoundReport,
    PebbleboundError,
    analyze,
    check_horizontal,
    check_vertical,
    flop_count,
    jacobi_dimension_threshold,
    load_machine,
)


@pytest.fixture(scope="module")
def bgq():
    return load_machine("bgq")


@pytest.fixture(scope="module")
def crayxt5():
    return load_machine("crayxt5")


def lower(v):
    return BoundReport(kind="lower", value=Fraction(v), method="analytic")


def upper(v):
    return BoundReport(kind="upper", value=Fraction(v), method="analytic")


class TestCheckVertical:
    def test_cg_is_bandwidth_bound_on_bgq(self, bgq):
        n, T = 1000, 1
        lb_per_node = Fraction(6 * n**3 * T, bgq.n_nodes)
        verdict = check_vertical(lower(lb_per_node), 20 * n**3 * T, bgq)
        assert verdict.algorithm_intensity == Fraction(3, 10)
        assert verdict.verdict == "provably-bandwidth-bound"

    def test_gmres_large_m_is_inconclusive(self, bgq):
        n, m = 1000, 100
        v = 20 * n**3 * m + n**3 * m**2
        lb_per_node = Fraction(6 * n**3 * m, bgq.n_nodes)
        verdict = check_vertical(lower(lb_per_node), v, bgq)
        assert verdict.algorithm_intensity == Fraction(6, 120)
        assert verdict.verdict == "inconclusive"  # 0.05 < 0.052

    def test_boundary_equality_is_inconclusive(self, bgq):
        # intensity exactly equal to the balance proves nothing
        v_size = 1000
        lb = Fraction(bgq.vertical_balance) * v_size / bgq.n_nodes
        verdict = check_vertical(lower(lb), v_size, bgq)
        assert verdict.algorithm_intensity == Fraction(bgq.vertical_balance)
        assert verdict.verdict == "inconclusive"

    def test_rejects_upper_bounds_and_zero_work(self, bgq):
        with pytest.raises(BoundError):
            check_vertical(upper(1), 10, bgq)
        with pytest.raises(BoundError):
            check_vertical(lower(1), 0, bgq)


class TestCheckHorizontal:
    def test_cg_ghost_traffic_is_achievable(self, bgq):
        n, T = 1000, 1
        B = n / bgq.n_nodes ** (1 / 3)
        ub = BoundReport(kind="upper", value=6 * B**2 * T, method="analytic")
        verdict = check_horizontal(ub, 20 * n**3 * T, bgq)
        assert verdict.verdict == "not-bandwidth-bound-achievable"
        assert verdict.algorithm_intensity < 0.049

    def test_zero_traffic_is_achievable(self, bgq):
        verdict = check_horizontal(upper(0), 100, bgq)
        assert verdict.verdict == "not-bandwidth-bound-achievable"

    def test_rejects_lower_bounds(self, bgq):
        with pytest.raises(BoundError):
            check_horizontal(lower(1), 10, bgq)

    def test_exact_report_is_an_upper_bound(self, bgq):
        # an optimum is both a lower and an upper bound
        exact = BoundReport(kind="exact", value=Fraction(1), method="bruteforce")
        assert check_horizontal(exact, 10**6, bgq) == check_horizontal(upper(1), 10**6, bgq)


class TestThreshold:
    def test_bgq_main_memory_published_form(self):
        thr = jacobi_dimension_threshold(4 * 2**20, 0.052)
        assert thr.published == pytest.approx(4.83, abs=0.01)
        assert thr.exact == pytest.approx(10.15, abs=0.01)

    def test_l1_level_published_form(self):
        thr = jacobi_dimension_threshold(2048, 2.0)
        assert thr.published == pytest.approx(96, abs=1)
        assert thr.exact == math.inf  # balance >= 1/4: every d admissible

    def test_exact_inversion(self):
        # balance chosen so 1/(4*(2S)^(1/3)) sits exactly on it
        S = 2**11  # 2S = 2^12, cube root = 2^4
        balance = 1 / (4 * 16)
        thr = jacobi_dimension_threshold(S, balance)
        assert thr.exact == pytest.approx(3.0, abs=1e-9)

    def test_bad_args(self):
        with pytest.raises(BoundError):
            jacobi_dimension_threshold(0, 0.1)
        with pytest.raises(BoundError):
            jacobi_dimension_threshold(64, 0)


class TestFlopCount:
    def test_models(self):
        assert flop_count(AlgorithmParams("cg", n=10, d=3, T=2)) == 20 * 1000 * 2
        assert flop_count(AlgorithmParams("gmres", n=10, d=3, m=3)) == 20 * 1000 * 3 + 1000 * 9
        assert flop_count(AlgorithmParams("jacobi", n=4, d=2, T=5)) == 9 * 16 * 5

    def test_unsupported_model_lists_supported(self):
        with pytest.raises(BoundError, match="supported"):
            flop_count(AlgorithmParams("cg", n=10, d=2, T=1))


class TestAnalyze:
    def test_cg_verdict_pair_on_both_machines(self, bgq, crayxt5):
        params = AlgorithmParams("cg", n=1000, d=3, T=1)
        for machine in (bgq, crayxt5):
            report = analyze(params, machine)
            assert report.vertical.algorithm_intensity == Fraction(3, 10)
            assert report.vertical.verdict == "provably-bandwidth-bound"
            assert report.horizontal.verdict == "not-bandwidth-bound-achievable"

    def test_gmres_small_vs_large_m(self, bgq):
        small = analyze(AlgorithmParams("gmres", n=1000, d=3, m=1), bgq)
        large = analyze(AlgorithmParams("gmres", n=1000, d=3, m=100), bgq)
        assert small.vertical.verdict == "provably-bandwidth-bound"  # 6/21 > 0.052
        assert large.vertical.verdict == "inconclusive"  # 6/120 < 0.052

    def test_jacobi_d3_not_provably_bound_on_bgq(self, bgq):
        report = analyze(AlgorithmParams("jacobi", n=100, d=3, T=4), bgq)
        assert report.vertical.verdict == "inconclusive"
        thresholds = dict(report.jacobi_thresholds)
        assert thresholds["main-memory"].published == pytest.approx(4.83, abs=0.01)
        assert 3 < thresholds["main-memory"].published

    def test_scaling_invariance(self, bgq):
        # doubling both the bound and the work leaves the verdict unchanged
        v = 1000
        lb = Fraction(1, 2)
        a = check_vertical(lower(lb), v, bgq)
        b = check_vertical(lower(2 * lb), 2 * v, bgq)
        assert a.verdict == b.verdict and a.algorithm_intensity == b.algorithm_intensity

    def test_verdicts_exhaustive_and_exclusive(self, bgq):
        # a lower-bound check never returns the achievability verdict and
        # vice versa, so the pair partitions the outcome space
        v = check_vertical(lower(1), 10**6, bgq)
        h = check_horizontal(upper(1), 10**6, bgq)
        assert v.verdict in ("provably-bandwidth-bound", "inconclusive")
        assert h.verdict in ("not-bandwidth-bound-achievable", "inconclusive")


def analysis_digest():
    """sha256 over analyze on a family x n x d x iterations x machine sweep.

    Each row renders the operation count, both intensities and verdicts and
    the asymptotic ghost-cell intensity exactly (repr), or the error that
    the row raises.
    """
    lines = []
    for machine in (load_machine("bgq"), load_machine("crayxt5")):
        for alg in ("cg", "gmres", "jacobi"):
            for n in (7, 16, 64, 100, 343, 1000, 4096, 10000):
                for d in (1, 2, 3, 4):
                    for k in (1, 2, 10, 100):
                        row = f"{machine.name} {alg} n={n} d={d} k={k}:"
                        try:
                            r = analyze(AlgorithmParams(alg, n=n, d=d, T=k, m=k), machine)
                        except PebbleboundError as exc:
                            lines.append(f"{row} error: {exc}")
                            continue
                        lines.append(
                            f"{row} {r.v_size} {r.vertical.algorithm_intensity!r} {r.vertical.verdict}"
                            f" {r.horizontal.algorithm_intensity!r} {r.horizontal.verdict}"
                            f" {r.horizontal_intensity_asymptotic!r}"
                        )
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_analysis_digest():
    # 768 rows: 272 analyses, 112 ghost-cell errors (more nodes than blocks)
    # and 384 operation-model errors (cg and gmres at d != 3)
    assert analysis_digest() == (768, "17fbdab34d9ff16260084bb05b39f6a382d0d090425c44e9502beb7753cde862")


class TestMachineLoading:
    def test_shipped_names(self, bgq, crayxt5):
        assert bgq.name == "bgq" and crayxt5.name == "crayxt5"
        assert bgq.mem_words == 2 * 2**30

    def test_unknown_name(self):
        with pytest.raises(BoundError):
            load_machine("enigma")


class TestRawCrossCheck:
    def test_consistent_raw_figures_accepted(self, bgq):
        from dataclasses import replace

        bw = bgq.vertical_balance * bgq.n_cores * 1e9
        spec = replace(bgq, raw_vertical_bw=bw, raw_flops_per_core=1e9)
        assert spec.raw_vertical_bw == bw

    def test_inconsistent_raw_figures_rejected(self, bgq):
        from dataclasses import replace

        with pytest.raises(BoundError, match="1%"):
            replace(bgq, raw_vertical_bw=1e9, raw_flops_per_core=1e9)

    def test_raw_fields_roundtrip(self, bgq, tmp_path):
        from dataclasses import replace

        from pebblebound.formats import format_machine, parse_machine

        bw = bgq.vertical_balance * bgq.n_cores * 2e9
        spec = replace(bgq, raw_vertical_bw=bw, raw_flops_per_core=2e9)
        assert parse_machine(format_machine(spec)) == spec
