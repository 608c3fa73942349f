"""Cross-engine invariants checked exhaustively at desk scale.

These are the structural facts the bound engines rely on: block sums never
exceed the whole, nor does a split at a pinned vertex, tag surgery moves
bounds in the stated direction, and every optimal game certifies a capacity
partition of matching block count.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pebblebound import (
    InfeasibleGameError,
    Partition,
    check_spartition,
    check_split_side_conditions,
    compose_split,
    gen_jacobi,
    heuristic_game,
    mincut_divide_bound,
    nondisjoint_decompose,
    optimal_io,
    spart_lower_bound,
    umax_bruteforce,
    validate_rbw,
)

from conftest import iter_set_partitions, make_cdag, random_dag, small_dags, tagged_dags

ORACLE_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def try_oracle(cdag, S, game="rbw"):
    try:
        return int(optimal_io(cdag, S, game=game).value)
    except InfeasibleGameError:
        return None


class TestDecompositionProperty:
    @given(small_dags(max_n=6, tag_outputs=True), st.integers(2, 3), st.data())
    @settings(**ORACLE_SETTINGS)
    def test_block_sum_never_exceeds_whole(self, cdag, S, data):
        whole = try_oracle(cdag, S)
        if whole is None or not cdag.vertices:
            return
        cutoff = data.draw(st.integers(0, len(cdag.vertices)))
        verts = sorted(cdag.vertices)
        blocks = [set(verts[:cutoff]), set(verts[cutoff:])]
        blocks = [b for b in blocks if b]
        total = 0
        for blk in blocks:
            part = try_oracle(cdag.induced(blk), S)
            if part is None:
                return  # a block can be infeasible at tiny S; nothing to compare
            total += part
        assert total <= whole

    def test_chain_split_example(self):
        c = make_cdag(6, [(i, i + 1) for i in range(5)], inputs=[0], outputs=[5])
        whole = try_oracle(c, 2)
        first = try_oracle(c.induced({0, 1, 2}), 2)
        second = try_oracle(c.induced({3, 4, 5}), 2)
        assert first + second <= whole


class TestSplitProperty:
    @given(tagged_dags(max_n=8), st.integers(2, 4), st.data())
    @settings(max_examples=300, deadline=None)
    def test_split_rule_never_exceeds_whole(self, cdag, S, data):
        # IO_{S+1}(first) + IO_S(second) <= IO_S(whole) for a detached set
        # that only leaves through the pinned vertex x: close a drawn seed
        # under successors, stopping at x
        if len(cdag.vertices) < 2:
            return  # nothing to detach beside x
        x = data.draw(st.sampled_from(sorted(cdag.vertices)))
        seed = data.draw(st.sets(st.sampled_from(sorted(cdag.vertices - {x})), min_size=1))
        detached, todo = set(), list(seed)
        while todo:
            v = todo.pop()
            if v != x and v not in detached:
                detached.add(v)
                todo.extend(cdag.succs[v])
        assert check_split_side_conditions(cdag, x, detached) == []
        split = nondisjoint_decompose(cdag, x, detached)
        try:
            whole = optimal_io(cdag, S)
            first, second = optimal_io(split.first, S + 1), optimal_io(split.second, S)
        except InfeasibleGameError:
            return  # no optimum to compare at this S
        assert compose_split(split, first, second).value <= whole.value


class TestTagSurgeryMonotonicity:
    @given(small_dags(max_n=6), st.integers(2, 3))
    @settings(**ORACLE_SETTINGS)
    def test_untagging_monotone_and_tagging_bounded(self, cdag, S):
        sources = sorted(v for v in cdag.vertices if cdag.in_degree(v) == 0 and v not in cdag.inputs)
        sinks = sorted(v for v in cdag.vertices if cdag.out_degree(v) == 0 and v not in cdag.outputs)
        if not sources and not sinks:
            return
        tagged = cdag.retag(sources, sinks)
        plain = try_oracle(cdag, S)
        extra = try_oracle(tagged, S)
        if plain is None or extra is None:
            return
        # more tags can only add transfers
        assert plain <= extra
        # and removing them refunds at most one transfer per tag
        assert extra - len(sources) - len(sinks) <= plain


class TestGamePartitionConsistency:
    """An optimal game at capacity S certifies a 2S-partition whose block
    count h satisfies S*h >= q >= S*(h-1)."""

    @pytest.mark.parametrize(
        "cdag,S",
        [
            (make_cdag(5, [(i, i + 1) for i in range(4)], inputs=[0], outputs=[4]), 2),
            (gen_jacobi(3, 1, 2, 3).cdag, 4),
            (make_cdag(4, [(0, 1), (0, 2), (1, 3), (2, 3)], inputs=[0], outputs=[3]), 3),
            (make_cdag(6, [(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)], inputs=[0, 1], outputs=[4, 5]), 3),
        ],
        ids=["chain5", "jacobi", "diamond", "hourglass"],
    )
    def test_partition_with_matching_block_count_exists(self, cdag, S):
        q = try_oracle(cdag, S)
        assert q is not None
        lo = math.ceil(q / S)
        hi = math.floor(q / S) + 1
        work = sorted(cdag.vertices - cdag.inputs)
        found = None
        for blocks in iter_set_partitions(work):
            if not (lo <= len(blocks) <= hi):
                continue
            _, violations = check_spartition(cdag, blocks, 2 * S, mode="rbw")
            if not violations:
                found = blocks
                break
        assert found is not None, f"no valid 2S-partition with h in [{lo}, {hi}]"


class TestOracleAgainstRecomputationGame:
    @given(small_dags(max_n=5, tag_outputs=True), st.integers(2, 3))
    @settings(**ORACLE_SETTINGS)
    def test_forbidding_recomputation_never_helps(self, cdag, S):
        if cdag.validate("hk"):
            return
        rbw = try_oracle(cdag, S, game="rbw")
        rb = try_oracle(cdag, S, game="rb")
        if rbw is None:
            assert rb is None or rb >= 0  # rbw infeasible says nothing about rb
            return
        assert rb is not None and rb <= rbw


class TestRbwSandwich:
    """Lower bounds <= optimum <= the player's tally, on random tagged DAGs.

    ``tagged_dags`` may tag one vertex as both input and output, which
    the generators never do.
    """

    @given(tagged_dags(max_n=10), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_bounds_sandwich_the_optimum(self, cdag, S):
        opt = try_oracle(cdag, S)
        if opt is None:
            return
        umax = umax_bruteforce(cdag, 2 * S)
        if umax:  # no work vertex: nothing to partition
            assert spart_lower_bound(cdag, S, umax).value <= opt
        assert mincut_divide_bound(cdag, Partition.of([cdag.vertices]), S).value <= opt
        if S >= 2:  # the player's floor
            trace, tally = heuristic_game(cdag, S)
            assert validate_rbw(cdag, S, trace).io == tally.io >= opt
