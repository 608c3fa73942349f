"""Decomposition workflows on the generated solvers.

These exercise the intended analysis pipelines end to end: splitting the
composite example into its pipeline stages, and slicing the iterative
solvers into per-iteration sub-CDAGs at their scalar anchors.
"""

from fractions import Fraction

import pytest

from pebblebound import (
    HierarchyConfig,
    PrbwMove,
    as_lower,
    compose_decomposition,
    compose_split,
    gen_cg,
    gen_composite,
    horizontal_bound_spart,
    nondisjoint_decompose,
    optimal_io,
    umax_bruteforce,
    validate_prbw,
)

from conftest import make_cdag


class TestCompositeBlocks:
    def test_tagged_outer_block_costs_full_outer_product(self):
        # the rank-1 stage, viewed standalone with its results tagged as
        # outputs, pays the full 2N + N^2
        N = 2
        ann = gen_composite(N)
        ids = ann.by_label()
        p_q = {ids[f"p[{i}]"] for i in range(N)} | {ids[f"q[{j}]"] for j in range(N)}
        sub = ann.cdag.induced(p_q | ann.slabs["outer_A"])
        tagged = sub.retag((), ann.slabs["outer_A"])
        assert optimal_io(tagged, N + 2).value == 2 * N + N**2

    def test_untagged_block_sum_stays_below_whole(self):
        # block bounds from the induced (untagged) stages compose soundly
        ann = gen_composite(1)
        S = 4
        whole = optimal_io(ann.cdag, S).value
        blocks = [
            ann.cdag.inputs | ann.slabs["outer_A"] | ann.slabs["outer_B"],
            ann.slabs["matmul"],
        ]
        reports = [as_lower(optimal_io(ann.cdag.induced(b), S)) for b in blocks]
        composed = compose_decomposition(reports)
        assert composed.value <= whole
        assert composed.params["blocks"] == 2


class TestCgSlabSplit:
    def test_detached_saxpy_block_is_induced_subgraph(self):
        ann = gen_cg(2, 1, 1)
        ids = ann.by_label()
        a = ids["a1"]
        dx = {ids[s] for s in ("x1[0]", "x1[1]", "r1[0]", "r1[1]")}
        split = nondisjoint_decompose(ann.cdag, a, dx)
        assert split.second == ann.cdag.induced(dx)
        assert a in split.first.vertices
        assert split.rule == "IO_S(C) >= IO_{S+1}(C1) + IO_S(C2)"

    def test_repeated_split_yields_one_part_per_iteration(self):
        T = 3
        ann = gen_cg(2, 1, T)
        remaining = ann.cdag
        slabs = [ann.slabs[f"iter{t}"] for t in range(1, T + 1)]
        parts = []
        for t in range(T - 1, 0, -1):
            # detach the trailing iteration's exclusive vertices at its
            # frontier-facing anchor
            frontier = slabs[t - 1] & slabs[t]
            tail = (slabs[t] - frontier) & remaining.vertices
            anchor = min(frontier)
            split = nondisjoint_decompose(remaining, anchor, tail - {anchor})
            parts.append(split.second)
            remaining = split.first
        parts.append(remaining)
        assert len(parts) == T

    def test_compose_rule_sums_lower_bounds(self):
        ann = gen_cg(2, 1, 1)
        ids = ann.by_label()
        split = nondisjoint_decompose(ann.cdag, ids["a1"], {ids["p1[0]"], ids["p1[1]"]})
        first = optimal_io(split.first, 5)
        second = optimal_io(split.second, 4)
        combined = compose_split(split, first, second)
        assert combined.kind == "lower"
        assert combined.value == first.value + second.value
        assert any("nondisjoint" in s for s in combined.provenance)


class TestHorizontalBoundAgainstTrace:
    def test_bound_never_exceeds_measured_remote_gets(self):
        # two nodes, each computing one 2-chain; one remote-get moves the
        # second chain's input across.  The busiest group fires 2 of the 4
        # work vertices.
        c = make_cdag(6, [(0, 1), (1, 2), (3, 4), (4, 5)], inputs=[0, 3], outputs=[2, 5])
        cfg = HierarchyConfig(
            units=(2, 2), capacities=(2, 4),
            parent={(1, 0): 0, (1, 1): 1},
        )
        trace = [
            PrbwMove("Input", 0, unit=0),
            PrbwMove("MoveUp", 0, level=1, unit=0),
            PrbwMove("Compute", 1, unit=0),
            PrbwMove("Delete", 0, level=1, unit=0),
            PrbwMove("Compute", 2, unit=0),
            PrbwMove("Input", 3, unit=0),
            PrbwMove("RemoteGet", 3, unit=1, src_unit=0),
            PrbwMove("MoveUp", 3, level=1, unit=1),
            PrbwMove("Compute", 4, unit=1),
            PrbwMove("Delete", 3, level=1, unit=1),
            PrbwMove("Compute", 5, unit=1),
            PrbwMove("MoveDown", 2, level=2, unit=0),
            PrbwMove("Output", 2, unit=0),
            PrbwMove("MoveDown", 5, level=2, unit=1),
            PrbwMove("Output", 5, unit=1),
        ]
        tally = validate_prbw(c, cfg, trace)
        measured = max(tally.horizontal.values())
        umax = umax_bruteforce(c, 2 * 4)
        work = len(c.vertices - c.inputs)  # inputs never fire
        bound = horizontal_bound_spart(work, umax, s_l=4, p_i=1).value
        assert bound <= measured
