"""Acceptance suite: one test per release criterion, with a printed verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  Each test pins its tolerance and its runtime budget where the
criterion states one.
"""

import random
import time
from fractions import Fraction

import pytest

from pebblebound import (
    AlgorithmParams,
    BudgetExhaustedError,
    HierarchyConfig,
    InfeasibleGameError,
    Partition,
    PrbwMove,
    RbwMove,
    analyze,
    analytic_lb,
    as_lower,
    gen_chain,
    gen_cg,
    gen_composite,
    gen_gmres,
    gen_jacobi,
    gen_matmul,
    gen_outer_product,
    heuristic_game,
    jacobi_dimension_threshold,
    load_machine,
    mincut_divide_bound,
    optimal_io,
    spart_lower_bound,
    transfer_bound,
    umax_bruteforce,
    validate_prbw,
    validate_rbw,
    wavefront_min,
)

from conftest import diamond, enum_wavefront_min, random_dag, wavefront_fixtures


def composite_reference_trace(ann):
    """A 4N+1-transfer schedule for the composite pipeline at S = 4N+4.

    Computes the first rank-1 factor outright, then streams the second
    factor's columns against it; every input loads once, only the final
    sum stores.
    """
    ids = ann.by_label()
    N = max(int(s.split("[")[1].rstrip("]")) for s in ids if s.startswith("p[")) + 1

    def mv(kind, label):
        return RbwMove(kind, ids[label])

    trace = []
    for i in range(N):
        trace.append(mv("Input", f"p[{i}]"))
    for j in range(N):
        trace.append(mv("Input", f"q[{j}]"))
    for i in range(N):
        for j in range(N):
            trace.append(mv("Compute", f"A[{i},{j}]"))
    for i in range(N):
        trace.append(mv("Delete", f"p[{i}]"))
        trace.append(mv("Delete", f"q[{i}]"))
    for i in range(N):
        trace.append(mv("Input", f"r[{i}]"))
    for j in range(N):
        trace.append(mv("Input", f"s[{j}]"))
        for k in range(N):
            trace.append(mv("Compute", f"B[{k},{j}]"))
        trace.append(mv("Delete", f"s[{j}]"))
        if j == N - 1:
            for k in range(N):
                trace.append(mv("Delete", f"r[{k}]"))
        for i in range(N):
            for k in range(N):
                trace.append(mv("Compute", f"m[{i},{k},{j}]"))
            if N > 1:
                trace.append(mv("Compute", f"C[{i},{j}]"))
            for k in range(N):
                trace.append(mv("Delete", f"m[{i},{k},{j}]"))
        for k in range(N):
            trace.append(mv("Delete", f"B[{k},{j}]"))
    for i in range(N):
        for k in range(N):
            trace.append(mv("Delete", f"A[{i},{k}]"))
    total = N * N
    if total > 1:
        for t in range(1, total):
            label = "sum" if t == total - 1 else f"sum.{t}"
            trace.append(mv("Compute", label))
        root = "sum"
    else:
        root = "m[0,0,0]"
    trace.append(mv("Output", root))
    return trace


def test_criterion_1_composite_reproduction():
    started = time.monotonic()
    # N=1: exact optimum at a wide memory is 4N+1
    assert optimal_io(gen_composite(1).cdag, 8).value == 5

    # N=2 at S = 4N+4: the explicit schedule achieves 4N+1 transfers
    ann = gen_composite(2)
    trace = composite_reference_trace(ann)
    tally = validate_rbw(ann.cdag, 12, trace)
    assert tally.io == 9
    # no game beats 9: every input must load once and the sum must store;
    # the oracle confirms when its budget allows
    floor = len(ann.cdag.inputs) + len(ann.cdag.outputs)
    assert floor == 9
    try:
        assert optimal_io(ann.cdag, 12, budget=400_000).value == 9
        confirmed = "oracle-confirmed"
    except BudgetExhaustedError:
        confirmed = "forced-transfer floor"
    elapsed = time.monotonic() - started
    assert elapsed < 30
    print(f"criterion 1 (composite 4N+1 reproduction, {confirmed}, {elapsed:.1f}s): PASS")


def test_criterion_2_outer_product_exactness():
    started = time.monotonic()
    for N in (2, 3):
        S = N + 2  # smallest capacity that streams without reloads
        assert optimal_io(gen_outer_product(N).cdag, S).value == 2 * N + N**2
    # the exact count is capacity-dependent below that: frozen oracle value
    assert optimal_io(gen_outer_product(2).cdag, 3).value == 9
    elapsed = time.monotonic() - started
    assert elapsed < 10
    print(f"criterion 2 (outer-product exactness, {elapsed:.1f}s): PASS")


SANDWICH_FIXTURES = [
    ("chain2", gen_chain(2)),
    ("chain3", gen_chain(3)),
    ("chain5", gen_chain(5)),
    ("chain8", gen_chain(8)),
    ("chain10", gen_chain(10)),
    ("jacobi-3-2", gen_jacobi(3, 1, 2, 3)),
    ("jacobi-3-3", gen_jacobi(3, 1, 3, 3)),
    ("jacobi-4-2", gen_jacobi(4, 1, 2, 3)),
    ("jacobi-4-3", gen_jacobi(4, 1, 3, 3)),
    ("matmul-1", gen_matmul(1)),
    ("matmul-2", gen_matmul(2)),
    ("outer-2", gen_outer_product(2)),
    ("composite-1", gen_composite(1)),
    ("cg-2-1-1", gen_cg(2, 1, 1)),
    ("gmres-2-1-1", gen_gmres(2, 1, 1)),
]

ANALYTIC_INSTANCES = {
    "jacobi-3-2": AlgorithmParams("jacobi", n=3, d=1, T=2, stencil_points=3),
    "jacobi-3-3": AlgorithmParams("jacobi", n=3, d=1, T=3, stencil_points=3),
    "jacobi-4-2": AlgorithmParams("jacobi", n=4, d=1, T=2, stencil_points=3),
    "jacobi-4-3": AlgorithmParams("jacobi", n=4, d=1, T=3, stencil_points=3),
    "matmul-1": AlgorithmParams("matmul", n=1),
    "matmul-2": AlgorithmParams("matmul", n=2),
    "cg-2-1-1": AlgorithmParams("cg", n=2, d=1, T=1),
    "gmres-2-1-1": AlgorithmParams("gmres", n=2, d=1, m=1),
}


def test_criterion_3_sandwich_suite():
    started = time.monotonic()
    combos = 0
    violations = []
    for name, ann in SANDWICH_FIXTURES:
        cdag = ann.cdag
        for S in (2, 3, 4):
            combos += 1
            try:
                opt = int(optimal_io(cdag, S).value)
            except InfeasibleGameError:
                with pytest.raises(InfeasibleGameError):
                    heuristic_game(cdag, S)
                continue
            _, tally = heuristic_game(cdag, S)
            if not opt <= tally.io:
                violations.append(f"{name} S={S}: heuristic {tally.io} < optimum {opt}")
            umax = umax_bruteforce(cdag, 2 * S)
            spart = spart_lower_bound(cdag, S, umax).value
            if not spart <= opt:
                violations.append(f"{name} S={S}: spart {spart} > optimum {opt}")
            mincut = mincut_divide_bound(cdag, Partition.of([cdag.vertices]), S).value
            if not mincut <= opt:
                violations.append(f"{name} S={S}: mincut {mincut} > optimum {opt}")
            if name in ANALYTIC_INSTANCES:
                analytic = analytic_lb(ANALYTIC_INSTANCES[name], P=1, S=S).value
                if not analytic <= opt:
                    violations.append(f"{name} S={S}: analytic {analytic} > optimum {opt}")
    assert combos >= 20
    assert not violations, violations
    elapsed = time.monotonic() - started
    assert elapsed < 10
    print(f"criterion 3 (sandwich suite, {combos} fixture/S combos, 0 violations, {elapsed:.1f}s): PASS")


def test_criterion_4_wavefront_oracle_equivalence():
    started = time.monotonic()
    fixtures = wavefront_fixtures()
    checked = 0
    for cdag in fixtures:
        for x in sorted(cdag.vertices):
            assert wavefront_min(cdag, x).size == enum_wavefront_min(cdag, x)
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60
    print(
        f"criterion 4 (wavefront flow == enumeration, {len(fixtures)} graphs, "
        f"{checked} anchors, {elapsed:.1f}s): PASS"
    )


def test_criterion_5_cg_wavefront_shape():
    ann = gen_cg(2, 1, 1)
    ux, uy = ann.wavefront_anchors
    assert wavefront_min(ann.cdag, ux).size == 4  # 2 n^d
    assert wavefront_min(ann.cdag, uy).size == 2  # n^d
    print("criterion 5 (cg anchor wavefronts 2n^d and n^d): PASS")


def test_criterion_6_balance_reproduction_pins():
    started = time.monotonic()
    bgq = load_machine("bgq")
    crayxt5 = load_machine("crayxt5")

    # search-direction solver: vertical intensity is exactly 3/10 and
    # exceeds both machines' balance ratios
    cg = AlgorithmParams("cg", n=1000, d=3, T=1)
    for machine in (bgq, crayxt5):
        report = analyze(cg, machine)
        assert report.vertical.algorithm_intensity == Fraction(3, 10)
        assert report.vertical.verdict == "provably-bandwidth-bound"

    # Krylov-basis solver: vertical intensity is exactly 6/(m+20)
    for m in (1, 10, 100):
        report = analyze(AlgorithmParams("gmres", n=1000, d=3, m=m), bgq)
        assert report.vertical.algorithm_intensity == Fraction(6, m + 20)

    # ghost-cell intensity formula 6*N^(1/3)/(20n) stays below the
    # horizontal balance at scale
    report = analyze(cg, bgq)
    expected = 6 * bgq.n_nodes ** (1 / 3) / (20 * cg.n)
    assert report.horizontal_intensity_asymptotic == pytest.approx(expected, rel=1e-12)
    assert report.horizontal_intensity_asymptotic < 0.049

    # stencil dimension thresholds
    assert jacobi_dimension_threshold(4 * 2**20, 0.052).published == pytest.approx(4.83, abs=0.01)
    assert jacobi_dimension_threshold(2048, 2.0).published == pytest.approx(96, abs=1)

    elapsed = time.monotonic() - started
    assert elapsed < 1
    print(f"criterion 6 (balance reproduction pins, {elapsed:.2f}s): PASS")


def _flat_prbw(move: RbwMove) -> PrbwMove:
    if move.kind == "Input":
        return PrbwMove("Input", move.vertex, unit=0)
    if move.kind == "Output":
        return PrbwMove("Output", move.vertex, unit=0)
    if move.kind == "Compute":
        return PrbwMove("Compute", move.vertex, unit=0)
    return PrbwMove("Delete", move.vertex, level=1, unit=0)


def test_criterion_7_hierarchical_degeneracy():
    fixtures = [
        (gen_chain(4).cdag, 2),
        (gen_chain(7).cdag, 3),
        (gen_outer_product(1).cdag, 3),
        (gen_outer_product(2).cdag, 4),
        (gen_matmul(1).cdag, 3),
        (gen_composite(1).cdag, 4),
        (gen_jacobi(3, 1, 2, 3).cdag, 4),
        (gen_jacobi(4, 1, 3, 3).cdag, 5),
        (diamond(), 3),
        (gen_cg(2, 1, 1).cdag, 5),
    ]
    assert len(fixtures) == 10
    for cdag, S in fixtures:
        trace, flat_tally = heuristic_game(cdag, S)
        config = HierarchyConfig.flat(S)
        hier_tally = validate_prbw(cdag, config, [_flat_prbw(m) for m in trace])
        assert hier_tally.loads == flat_tally.loads
        assert hier_tally.stores == flat_tally.stores
        fires = sum(1 for m in trace if m.kind == "Compute")
        assert hier_tally.computes == ({0: fires} if fires else {})
    print("criterion 7 (single-level hierarchy degenerates to the flat game, 10 traces): PASS")


def test_criterion_8_transfer_soundness():
    rng = random.Random(7)
    fixtures = [
        gen_chain(6).cdag,
        gen_chain(9).cdag,
        diamond(),
        gen_jacobi(3, 1, 2, 3).cdag,
        gen_jacobi(3, 1, 3, 3).cdag,
        gen_outer_product(2).cdag,
        gen_matmul(1).cdag,
        gen_composite(1).cdag,
        random_dag(rng, 7, tag_outputs=True),
        random_dag(rng, 8, tag_outputs=True),
    ]
    assert len(fixtures) == 10
    S = 4
    checked = 0
    for cdag in fixtures:
        whole = optimal_io(cdag, S)

        # decomposition: sum of per-block optima never exceeds the whole
        verts = sorted(cdag.vertices)
        half = set(verts[: len(verts) // 2])
        blocks = [half, set(verts) - half]
        total = 0
        feasible = True
        for blk in blocks:
            if not blk:
                continue
            try:
                total += optimal_io(cdag.induced(blk), S).value
            except InfeasibleGameError:
                feasible = False
        if feasible:
            assert total <= whole.value
            checked += 1

        # tagging: a bound for the fully-tagged variant, minus the tag
        # count, is still a bound for the original
        sources = [v for v in verts if cdag.in_degree(v) == 0 and v not in cdag.inputs]
        sinks = [v for v in verts if cdag.out_degree(v) == 0 and v not in cdag.outputs]
        if sources or sinks:
            tagged = cdag.retag(sources, sinks)
            tagged_opt = optimal_io(tagged, S)
            back = transfer_bound(as_lower(tagged_opt), "tagging", len(sources), len(sinks))
            assert back.value <= whole.value
            assert whole.value <= tagged_opt.value  # untagging direction
            checked += 1

        # deletion: stripping the tagged boundary refunds exactly one
        # transfer per stripped vertex
        interior = cdag.induced(cdag.vertices - cdag.inputs - cdag.outputs)
        if interior.vertices != cdag.vertices:
            trimmed = optimal_io(interior, S)
            restored = transfer_bound(
                as_lower(trimmed), "deletion",
                len(cdag.inputs), len(cdag.outputs - cdag.inputs),
            )
            assert restored.value <= whole.value
            checked += 1
    assert checked >= 20
    print(f"criterion 8 (transfer soundness on 10 desk CDAGs, {checked} checks): PASS")
