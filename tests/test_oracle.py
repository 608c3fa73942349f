"""Exact-optimum oracle tests.

Expected values fall in two classes: forced-count arguments written out in
comments (every input needs its first load, every output its store), and
values frozen from oracle runs on instances small enough to be checked by
the forced-count floor plus an explicit schedule.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pebblebound import (
    BudgetExhaustedError,
    GameError,
    InfeasibleGameError,
    gen_chain,
    gen_composite,
    gen_jacobi,
    gen_matmul,
    gen_outer_product,
    heuristic_game,
    optimal_io,
)
from pebblebound import games
from pebblebound.oracle import OracleStats, _search

from conftest import make_cdag, tagged_dags


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

    def test_n2_s4(self):
        # 31 vertices; the single-move search this oracle replaced needed
        # 382 s (and a budget above the default) to confirm the same 28
        assert optimal_io(gen_composite(2).cdag, 4).value == 28


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

    def test_infeasible_message_matches_player(self):
        # one capacity rule: vertex 3 fires with three operands, so S=3 fails
        c = make_cdag(4, [(0, 3), (1, 3), (2, 3)], inputs=[0, 1, 2], outputs=[3])
        with pytest.raises(InfeasibleGameError) as played:
            heuristic_game(c, 3)
        assert str(played.value) == "S too small for in-degree: vertex 3 needs 4 pebbles"
        for game in ("rbw", "rb"):
            with pytest.raises(InfeasibleGameError) as searched:
                optimal_io(c, 3, game=game)
            assert str(searched.value) == str(played.value)

    def test_unknown_game_message_matches_validator(self):
        # an unknown game is a usage error, not an infeasible instance
        c = gen_chain(3).cdag
        with pytest.raises(GameError) as checked:
            games.FlatGame(c, 2, "prbw")
        with pytest.raises(GameError) as searched:
            optimal_io(c, 2, game="prbw")
        assert str(searched.value) == str(checked.value) == "unknown flat game 'prbw'"

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

    def test_budget_exhaustion_brackets_the_optimum(self):
        # the popped f-value is a certified lower bound: 12 forced transfers
        # <= lower <= optimum 17 <= the heuristic's tally
        with pytest.raises(BudgetExhaustedError) as exc:
            optimal_io(gen_matmul(2).cdag, 4, budget=10)
        assert 12 <= exc.value.lower <= 17 <= exc.value.best_known

    @pytest.mark.parametrize("game", ["rbw", "rb"])
    def test_lower_never_exceeds_optimum(self, game):
        cdag = gen_jacobi(5, 1, 3, 3).cdag
        opt = optimal_io(cdag, 4, game=game).value
        exhausted = 0
        for budget in (1, 3, 10, 30, 100, 300):
            try:
                optimal_io(cdag, 4, game=game, budget=budget)
            except BudgetExhaustedError as exc:
                assert exc.lower <= opt
                exhausted += 1
        assert exhausted >= 4

    def test_zero_budget_rejected(self):
        with pytest.raises(BudgetExhaustedError):
            optimal_io(gen_chain(2).cdag, 2, budget=0)


class TestStats:
    def test_counters_account_for_every_successor(self):
        stats = OracleStats()
        optimal_io(gen_matmul(2).cdag, 4, stats=stats)
        assert stats.expansions > 0
        assert stats.peak_heap > 0
        queued = stats.generated - stats.duplicates
        assert 0 < queued <= stats.generated

    def test_counters_are_deterministic(self):
        runs = [OracleStats(), OracleStats()]
        for stats in runs:
            optimal_io(gen_jacobi(5, 1, 3, 3).cdag, 4, game="rb", stats=stats)
        assert runs[0] == runs[1]

    def test_budget_exhaustion_reports_the_budget(self):
        stats = OracleStats()
        with pytest.raises(BudgetExhaustedError):
            optimal_io(gen_matmul(2).cdag, 4, budget=10, stats=stats)
        assert stats.expansions == 10


class ToySpace:
    """A hand-written search space: state 0 starts, ``edges[s]`` lists ``(cost, h, successor)``."""

    def __init__(self, edges, h0=0):
        self.edges, self.h0, self.expanded = edges, h0, []

    def start(self):
        return 0, self.h0, 0

    def goal(self, state):
        return False

    def expand(self, state):
        self.expanded.append(state)
        return self.edges.get(state, [])


class TestOpenList:
    """``_search`` pops in ``(f, -g, state)`` order and counts every queued entry."""

    @staticmethod
    def drain(space, budget=100):
        stats = OracleStats()
        with pytest.raises(InfeasibleGameError):  # no goal: every reachable state is expanded
            _search(space, budget, stats)
        return space.expanded, stats

    def test_equal_keys_pop_smaller_state_first(self):
        order, _ = self.drain(ToySpace({0: [(1, 1, 5), (1, 1, 3)]}, h0=2))
        assert order == [0, 3, 5]

    def test_equal_f_pops_deeper_state_first(self):
        # both at f=2; 7 has g=1 and 4 has g=0
        order, _ = self.drain(ToySpace({0: [(0, 2, 4), (1, 1, 7)]}, h0=2))
        assert order == [0, 7, 4]

    def test_superseded_entry_is_skipped_but_counted(self):
        # 1 is queued at g=5, then again at g=2 through 2; the stale entry
        # stays queued beside 1@2 and 3@2, so the queue peaks at three
        edges = {0: [(5, 0, 1), (1, 0, 2)], 2: [(1, 0, 1), (1, 0, 3)]}
        order, stats = self.drain(ToySpace(edges))
        assert order == [0, 2, 1, 3]
        assert (stats.expansions, stats.generated, stats.duplicates) == (4, 4, 0)
        assert stats.peak_heap == 3
        assert stats.states == 4

    def test_exhausted_budget_returns_the_popped_f_value(self):
        # f runs 1, 3, 5 along the chain; the third pop exceeds a budget of two
        space = ToySpace({0: [(2, 1, 1)], 1: [(2, 1, 2)], 2: [(2, 1, 3)]}, h0=1)
        stats = OracleStats()
        assert _search(space, 2, stats) == (False, 5)
        assert space.expanded == [0, 1]
        assert stats.expansions == 2


class TestCeiling:
    """The heuristic's tally is the upper end of an exhausted search's bracket."""

    def test_player_runs_only_when_the_budget_runs_out(self, monkeypatch):
        calls = []

        def counting(cdag, S):
            calls.append(S)
            return heuristic_game(cdag, S)

        monkeypatch.setattr(games, "heuristic_game", counting)
        cdag = gen_matmul(2).cdag
        assert optimal_io(cdag, 4).value == 17
        assert calls == []
        with pytest.raises(BudgetExhaustedError) as exc:
            optimal_io(cdag, 4, budget=10)
        assert calls == [4]
        assert exc.value.best_known == heuristic_game(cdag, 4)[1].io

    def test_player_crash_propagates(self, monkeypatch):
        # a bug in the player must not pass for "no upper bound known"
        def crash(cdag, S):
            raise RuntimeError("player bug")

        monkeypatch.setattr(games, "heuristic_game", crash)
        for game in ("rbw", "rb"):
            with pytest.raises(RuntimeError, match="player bug"):
                optimal_io(gen_jacobi(5, 1, 3, 3).cdag, 4, game=game, budget=1)

    def test_s1_below_player_floor_searches_uncapped(self):
        # the player needs S >= 2 (GameError), so an exhausted search at S=1
        # knows no upper bound; a full search still finds the optimum: load 0
        # to fire it, fire 1 and store it, fire 2 for free
        c = make_cdag(3, [], inputs=[0], outputs=[0, 1])
        with pytest.raises(BudgetExhaustedError) as exc:
            optimal_io(c, 1, budget=1)
        assert exc.value.best_known is None
        assert "best known" not in str(exc.value)
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
            if v not in white and v not in inputs and red.issuperset(cdag.preds[v]) and len(red) < S:
                push((white | {v}, red | {v}, blue), 0)
            if v in red:
                push((white, red - {v}, blue), 0)
    return None


def naive_rb_optimum(cdag, S):
    """Reference search for the recomputation game: plain Dijkstra over
    (red, blue) with explicit unit loads, stores, computes and deletes.

    Returns None when no complete game exists.
    """
    import heapq

    verts = sorted(cdag.vertices)
    inputs = frozenset(cdag.inputs)
    outputs = frozenset(cdag.outputs)
    start = (frozenset(), inputs)
    dist = {start: 0}
    heap = [(0, 0, start)]
    counter = 1
    while heap:
        g, _, state = heapq.heappop(heap)
        if dist.get(state, -1) != g:
            continue
        red, blue = state
        if outputs <= blue:
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
                push((red | {v}, blue), 1)
            if v in red and v not in blue:
                push((red, blue | {v}), 1)
            if v not in red and v not in inputs and red.issuperset(cdag.preds[v]) and len(red) < S:
                push((red | {v}, blue), 0)
            if v in red:
                push((red - {v}, blue), 0)
    return None


class TestAgainstNaiveReference:
    @settings(max_examples=150, deadline=None)
    @given(tagged_dags(), st.integers(min_value=1, max_value=4))
    def test_both_games_match_naive_references(self, cdag, S):
        played = ("rbw",) if cdag.validate("hk") else ("rbw", "rb")
        for game in played:
            naive = (naive_rbw_optimum if game == "rbw" else naive_rb_optimum)(cdag, S)
            try:
                fast = int(optimal_io(cdag, S, game=game).value)
            except InfeasibleGameError:
                fast = None
            assert fast == naive, f"{game} {sorted(cdag.edges)} S={S}: {fast} != {naive}"


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
