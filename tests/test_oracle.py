"""Exact-optimum oracle tests.

Expected values fall in two classes: forced-count arguments written out in
comments (every input needs its first load, every output its store), and
values frozen from oracle runs on instances small enough to be checked by
the forced-count floor plus an explicit schedule.
"""

import pytest

from pebblebound import (
    BudgetExhaustedError,
    InfeasibleGameError,
    gen_chain,
    gen_composite,
    gen_jacobi,
    gen_matmul,
    gen_outer_product,
    heuristic_game,
    optimal_io,
)
from pebblebound import games, oracle

from conftest import make_cdag


class TestChains:
    def test_single_vertex_needs_one_load(self):
        # the lone vertex is already blue; loading it places the white
        assert optimal_io(gen_chain(1).cdag, 2).value == 1

    @pytest.mark.parametrize("k", [2, 4, 5, 10])
    def test_streaming_chains(self, k):
        # one load of the head, one store of the tail
        assert optimal_io(gen_chain(k).cdag, 2).value == 2

    def test_s1_chain_is_infeasible(self):
        # firing needs the predecessor resident plus the result slot
        with pytest.raises(InfeasibleGameError):
            optimal_io(gen_chain(5).cdag, 1)

    def test_s1_chain_infeasible_under_recomputation_too(self):
        with pytest.raises(InfeasibleGameError):
            optimal_io(gen_chain(3).cdag, 1, game="rb")


class TestOuterProduct:
    def test_n1(self):
        assert optimal_io(gen_outer_product(1).cdag, 3).value == 3  # 2N + N^2

    def test_n2_exact_once_one_vector_fits(self):
        # S = N + 2 holds one vector, one streamed element, one result
        assert optimal_io(gen_outer_product(2).cdag, 4).value == 8

    def test_n2_tight_capacity_pays_reloads(self):
        # frozen oracle value: S=3 cannot keep either vector resident
        assert optimal_io(gen_outer_product(2).cdag, 3).value == 9

    def test_n2_s2_infeasible(self):
        with pytest.raises(InfeasibleGameError, match="in-degree"):
            optimal_io(gen_outer_product(2).cdag, 2)


class TestComposite:
    def test_n1_wide_memory(self):
        # 4 forced loads + 1 forced store, achievable without spills
        assert optimal_io(gen_composite(1).cdag, 8).value == 5

    def test_n1_tight_memory(self):
        # frozen oracle value: one rank-1 factor must round-trip at S=3
        assert optimal_io(gen_composite(1).cdag, 3).value == 7


class TestStructured:
    def test_jacobi_3_1_2(self):
        # 3 forced loads + 3 forced stores, achievable at S=4
        assert optimal_io(gen_jacobi(3, 1, 2, 3).cdag, 4).value == 6

    def test_jacobi_4_1_3(self):
        # frozen oracle value
        assert optimal_io(gen_jacobi(4, 1, 3, 3).cdag, 4).value == 12

    def test_matmul_n1(self):
        assert optimal_io(gen_matmul(1).cdag, 3).value == 3

    def test_matmul_n2_s4(self):
        # frozen oracle value: 12 forced transfers plus 5 spills
        assert optimal_io(gen_matmul(2).cdag, 4).value == 17


class TestGameComparison:
    def test_rbw_never_beats_rb(self, rng):
        # forbidding recomputation can only cost more transfers
        from conftest import random_dag

        checked = 0
        for _ in range(20):
            c = random_dag(rng, rng.randint(2, 6), tag_outputs=True)
            if c.validate("hk"):
                continue
            for S in (2, 3):
                try:
                    rbw = optimal_io(c, S, game="rbw").value
                    rb = optimal_io(c, S, game="rb").value
                except InfeasibleGameError:
                    continue
                assert rb <= rbw
                checked += 1
        assert checked >= 10

    def test_rb_agrees_with_validator_on_feasibility(self):
        # S=2 lets a 2-chain fire; S=1 does not, in both engines
        c = gen_chain(3).cdag
        assert optimal_io(c, 2, game="rb").value == 2
        with pytest.raises(InfeasibleGameError):
            optimal_io(c, 1, game="rb")


class TestBudget:
    def test_budget_exhaustion_carries_upper_bound(self):
        with pytest.raises(BudgetExhaustedError) as exc:
            optimal_io(gen_matmul(2).cdag, 4, budget=10)
        assert exc.value.best_known is not None
        assert exc.value.best_known >= 17

    def test_zero_budget_rejected(self):
        with pytest.raises(BudgetExhaustedError):
            optimal_io(gen_chain(2).cdag, 2, budget=0)


class TestCeiling:
    def test_player_crash_propagates(self, monkeypatch):
        # a bug in the player must not silently drop the search ceiling
        def crash(cdag, S):
            raise RuntimeError("player bug")

        monkeypatch.setattr(games, "heuristic_game", crash)
        for game in ("rbw", "rb"):
            with pytest.raises(RuntimeError, match="player bug"):
                optimal_io(gen_chain(4).cdag, 2, game=game)

    def test_s1_below_player_floor_searches_uncapped(self):
        # the player needs S >= 2 (GameError); the search still runs at S=1:
        # load 0 to fire it, fire 1 and store it, fire 2 for free
        c = make_cdag(3, [], inputs=[0], outputs=[0, 1])
        assert oracle._best_known_ub(c, 1) is None
        assert optimal_io(c, 1).value == 2


class TestSmallCases:
    def test_empty_cdag(self):
        assert optimal_io(make_cdag(0, []), 1).value == 0

    def test_input_that_is_output_costs_one_load(self):
        c = make_cdag(1, [], inputs=[0], outputs=[0])
        assert optimal_io(c, 1).value == 1

    def test_untagged_source_needs_no_io(self):
        # fires for free; nothing requires a store
        c = make_cdag(1, [], inputs=[], outputs=[])
        assert optimal_io(c, 1).value == 0

    def test_untagged_source_with_output_costs_one_store(self):
        c = make_cdag(1, [], inputs=[], outputs=[0])
        assert optimal_io(c, 1).value == 1

    def test_heuristic_upper_bounds_oracle_everywhere(self, rng):
        from conftest import random_dag

        for _ in range(15):
            c = random_dag(rng, rng.randint(2, 7), tag_outputs=True)
            for S in (3, 4):
                try:
                    opt = optimal_io(c, S).value
                except InfeasibleGameError:
                    with pytest.raises(InfeasibleGameError):
                        heuristic_game(c, S)
                    continue
                _, tally = heuristic_game(c, S)
                assert opt <= tally.io


def naive_rbw_optimum(cdag, S):
    """Reference search: plain Dijkstra, explicit unit deletes, no pruning.

    Exponentially slower than the shipped oracle; exists purely to
    cross-check its canonicalizations on tiny graphs.
    """
    import heapq

    verts = sorted(cdag.vertices)
    inputs = frozenset(cdag.inputs)
    outputs = frozenset(cdag.outputs)
    start = (frozenset(), frozenset(), inputs)
    dist = {start: 0}
    heap = [(0, 0, start)]
    counter = 1
    while heap:
        g, _, state = heapq.heappop(heap)
        if dist.get(state, -1) != g:
            continue
        white, red, blue = state
        if len(white) == len(verts) and outputs <= blue:
            return g

        def push(ns, cost):
            nonlocal counter
            ng = g + cost
            if dist.get(ns, ng + 1) <= ng:
                return
            dist[ns] = ng
            heapq.heappush(heap, (ng, counter, ns))
            counter += 1

        for v in verts:
            if v in blue and v not in red and len(red) < S:
                push((white | {v}, red | {v}, blue), 1)
            if v in red and v not in blue:
                push((white, red, blue | {v}), 1)
            if v not in white and v not in inputs and cdag.preds[v] <= red and len(red) < S:
                push((white | {v}, red | {v}, blue), 0)
            if v in red:
                push((white, red - {v}, blue), 0)
    return None


class TestAgainstNaiveReference:
    def test_optimized_matches_reference_on_random_graphs(self, rng):
        from conftest import random_dag

        agreements = 0
        for _ in range(25):
            c = random_dag(rng, rng.randint(1, 6), p=rng.uniform(0.2, 0.7), tag_outputs=True)
            for S in (2, 3):
                naive = naive_rbw_optimum(c, S)
                try:
                    fast = int(optimal_io(c, S).value)
                except InfeasibleGameError:
                    fast = None
                assert fast == naive, f"{sorted(c.edges)} S={S}: {fast} != {naive}"
                agreements += 1
        assert agreements == 50

    def test_optimized_matches_reference_on_structured(self):
        for ann, S in [
            (gen_outer_product(1), 3),
            (gen_chain(5), 2),
            (gen_matmul(1), 3),
            (gen_jacobi(3, 1, 2, 3), 4),
        ]:
            assert naive_rbw_optimum(ann.cdag, S) == int(optimal_io(ann.cdag, S).value)
