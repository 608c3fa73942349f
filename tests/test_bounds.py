import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pebblebound import (
    BoundError,
    BudgetExhaustedError,
    Cdag,
    FlowStats,
    Partition,
    analytic_horizontal_ub,
    analytic_lb,
    AlgorithmParams,
    check_spartition,
    gen_cg,
    gen_chain,
    gen_gmres,
    gen_jacobi,
    gen_matmul,
    gen_outer_product,
    generate,
    horizontal_bound_spart,
    mincut_divide_bound,
    mincut_lower_bound,
    optimal_io,
    spart_lower_bound,
    umax_bruteforce,
    vertical_bound_from_sequential,
    vertical_bound_spart,
    wavefront_min,
    wmax,
)
from pebblebound import bounds
from pebblebound.bounds import block_in_set, block_out_set, min_dominator_size, minimum_set
from pebblebound.cli import build_parser, main
from pebblebound.errors import DEFAULT_BUDGET

from conftest import (
    diamond,
    enum_wavefront_min,
    make_cdag,
    naive_umax,
    naive_wmax,
    random_dag,
    small_dags,
    tagged_dags,
    wavefront_fixtures,
)


class TestSpartArithmetic:
    def test_plain_numbers(self):
        c = make_cdag(101, [(0, i) for i in range(1, 101)], inputs=[0])
        rep = spart_lower_bound(c, 4, 10)
        assert rep.value == 36  # 4 * (100/10 - 1)

    def test_umax_as_large_as_work_clamps_to_zero(self):
        c = gen_chain(4).cdag
        assert spart_lower_bound(c, 2, 50).value == 0

    def test_umax_zero_rejected(self):
        with pytest.raises(BoundError):
            spart_lower_bound(gen_chain(3).cdag, 2, 0)

    @given(st.integers(1, 40), st.integers(1, 12), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_non_increasing_in_umax(self, work, umax, s):
        # bigger admissible blocks can only weaken the count
        c = make_cdag(work + 1, [(0, i) for i in range(1, work + 1)], inputs=[0])
        assert spart_lower_bound(c, s, umax).value >= spart_lower_bound(c, s, umax + 1).value

    @given(st.integers(2, 8), st.integers(1, 4), st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_closed_forms_non_increasing_in_s(self, n, T, s):
        # more fast memory never increases unavoidable traffic
        cg = AlgorithmParams("cg", n=n, d=1, T=T)
        assert analytic_lb(cg, S=s).value >= analytic_lb(cg, S=s + 1).value
        gm = AlgorithmParams("gmres", n=n, d=1, m=T)
        assert analytic_lb(gm, S=s).value >= analytic_lb(gm, S=s + 1).value
        if s >= 1:
            jac = AlgorithmParams("jacobi", n=max(n, 3), d=2, T=T)
            assert analytic_lb(jac, S=s).value >= analytic_lb(jac, S=s + 1).value


class TestUmaxBruteforce:
    def test_untagged_chain_is_one_block(self):
        c = make_cdag(6, [(i, i + 1) for i in range(5)])
        assert umax_bruteforce(c, 2) == 6

    def test_single_vertex(self):
        assert umax_bruteforce(make_cdag(1, [], inputs=[], outputs=[]), 2) == 1

    def test_tagged_chain_interior(self):
        c = gen_chain(6).cdag
        # the work set excludes the input head; the tail block must keep
        # its in-set (the head) and out-set (the output tail) at one each
        assert umax_bruteforce(c, 2) == 5

    def test_boundaries_enforced(self):
        # a star of 5 leaves from one source: any block of k leaves has
        # in-set {source} but out-set k (all outputs)
        c = make_cdag(6, [(0, i) for i in range(1, 6)], inputs=[0], outputs=range(1, 6))
        assert umax_bruteforce(c, 2 * 1) == 2
        assert umax_bruteforce(c, 2 * 2) == 4

    def test_untagged_triangle_has_empty_boundary(self):
        c = make_cdag(3, [(0, 1), (1, 2), (0, 2)])
        assert umax_bruteforce(c, 0) == 3

    def test_hand_enumerated_tagged_chain(self):
        # 0 -> 1 -> 2 with outputs {0, 2}: at twoS=1 the best blocks are
        # {1, 2} or singletons (the non-convex {0, 2} has out-set 2 anyway);
        # at twoS=2 the whole chain fits
        c = make_cdag(3, [(0, 1), (1, 2)], outputs=[0, 2])
        assert umax_bruteforce(c, 1) == 2
        assert umax_bruteforce(c, 2) == 3

    def test_excursion_through_two_excluded_vertices_is_not_convex(self):
        # 0 -> 1 -> 2 -> 3 with inputs 4, 5 feeding 1 and 2: at twoS=1 the
        # block {0, 3} fits (in-set {2}, out-set {0}) but its path leaves
        # through 1 and 2 and comes back, so only singletons qualify
        c = make_cdag(6, [(0, 1), (1, 2), (2, 3), (4, 1), (5, 1), (4, 2), (5, 2)], inputs=[4, 5])
        assert umax_bruteforce(c, 1) == naive_umax(c, 1) == 1

    @settings(max_examples=150, deadline=None)
    @given(tagged_dags(max_n=14), st.integers(min_value=0, max_value=8))
    def test_matches_naive_subset_reference(self, cdag, twoS):
        assert umax_bruteforce(cdag, twoS) == naive_umax(cdag, twoS)

    @pytest.mark.parametrize(
        "params,twoS,umax",
        [
            (AlgorithmParams("matmul", n=2), 6, 6),
            (AlgorithmParams("matmul", n=2), 8, 12),
            (AlgorithmParams("cg", n=2, d=1, T=1), 8, 16),
            (AlgorithmParams("outer_product", n=3), 6, 6),
            (AlgorithmParams("gmres", n=2, d=1, m=1), 8, 16),
            (AlgorithmParams("jacobi", n=5, d=1, T=3, stencil_points=3), 8, 10),
            (AlgorithmParams("composite", n=2), 8, 23),
            (AlgorithmParams("composite", n=2), 6, 11),
            (AlgorithmParams("matmul", n=3), 6, 7),
        ],
        ids=["matmul-2@6", "matmul-2@8", "cg-2-1-1@8", "outer_product-3@6", "gmres-2-1-1@8",
             "jacobi-5-1-3@8", "composite-2@8", "composite-2@6", "matmul-3@6"],
    )
    def test_generator_instances(self, params, twoS, umax):
        assert umax_bruteforce(generate(params).cdag, twoS) == umax

    def test_deep_chain_within_recursion_limit(self):
        assert umax_bruteforce(gen_chain(5000).cdag, 2) == 4999

    def test_budget_counts_search_nodes(self):
        c = generate(AlgorithmParams("composite", n=2)).cdag
        assert umax_bruteforce(c, 8, budget=47) == 23
        with pytest.raises(BudgetExhaustedError) as exc:
            umax_bruteforce(c, 8, budget=46)
        assert exc.value.lower == 23 and exc.value.best_known is None

    def test_exhausted_cli_records_the_lower_bound(self, tmp_path, capsys):
        cdag, rec = tmp_path / "c.cdag", tmp_path / "r.rec"
        main(["generate", "--alg", "composite", "--n", "2", "--out", str(cdag)])
        capsys.readouterr()
        code = main(["bound", "--method", "spart", "--cdag", str(cdag), "--S", "4", "--budget", "46",
                     "--kv", "--record", str(rec)])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err == "error: umax budget of 46 search nodes exhausted (largest block found: 23)\n"
        lines = rec.read_text().splitlines()
        assert "error.lower=23" in lines
        assert not any(line.startswith("error.best_known") for line in lines)

    def test_default_budget_is_shared_with_the_oracle_and_the_cli(self):
        def default(fn):
            return inspect.signature(fn).parameters["budget"].default

        cli = build_parser().parse_args(["bound", "--method", "spart"]).budget
        assert default(umax_bruteforce) == default(optimal_io) == cli == DEFAULT_BUDGET


class TestWavefront:
    def test_chain_middle_is_one(self):
        c = make_cdag(3, [(0, 1), (1, 2)])
        w = wavefront_min(c, 1)
        assert w.size == 1 and w.cut_vertices == {1}

    def test_sink_trivial_wavefront(self):
        c = make_cdag(3, [(0, 1), (1, 2)])
        w = wavefront_min(c, 2)
        assert w.size == 1 and w.cut_vertices == {2}

    def test_cut_fields_consistent(self):
        c = diamond()
        w = wavefront_min(c, 0)
        assert w.S_side | w.T_side == c.vertices
        assert not w.S_side & w.T_side
        for u, v in c.edges:
            assert not (u in w.T_side and v in w.S_side)

    def test_cg_anchor_wavefronts(self):
        ann = gen_cg(2, 1, 1)
        a, g = ann.wavefront_anchors
        assert wavefront_min(ann.cdag, a).size == 4  # 2 n^d
        assert wavefront_min(ann.cdag, g).size == 2  # n^d

    def test_cg_anchor_cut_is_the_two_vectors(self):
        ann = gen_cg(2, 1, 1)
        a, _ = ann.wavefront_anchors
        labels = ann.cdag.labels
        cut = sorted(labels[v] for v in wavefront_min(ann.cdag, a).cut_vertices)
        assert cut == ["p0[0]", "p0[1]", "v1[0]", "v1[1]"]

    def test_gmres_anchor_wavefront(self):
        ann = gen_gmres(2, 1, 1)
        assert wmax(ann.cdag, ann.wavefront_anchors) == 4  # 2 n^d

    def test_flow_equals_enumeration_small_graphs(self, rng):
        for _ in range(25):
            c = random_dag(rng, rng.randint(2, 8))
            for x in sorted(c.vertices):
                assert wavefront_min(c, x).size == enum_wavefront_min(c, x)

    @given(small_dags())
    @settings(max_examples=40, deadline=None)
    def test_flow_equals_enumeration_property(self, c):
        for x in sorted(c.vertices):
            assert wavefront_min(c, x).size == enum_wavefront_min(c, x)

    def test_unknown_anchor(self):
        with pytest.raises(BoundError):
            wavefront_min(diamond(), 17)


class TestWmax:
    def test_chain(self):
        assert wmax(gen_chain(5).cdag) == 1

    def test_candidates_subset(self):
        c = diamond()
        assert wmax(c, [0]) == wavefront_min(c, 0).size

    def test_empty_graph(self):
        assert wmax(make_cdag(0, [])) == 0

    def test_long_side_path_does_not_hit_recursion_limit(self):
        # a0 -> x -> d plus a0 -> p1 -> ... -> p5000 -> d; the flow's
        # augmenting path runs the whole side path
        side = 5000
        path = list(range(3, 3 + side))
        edges = [(0, 1), (1, 2), (0, path[0]), (path[-1], 2)] + list(zip(path, path[1:]))
        c = make_cdag(3 + side, edges)
        assert wmax(c, [1]) == 1
        assert wavefront_min(c, 1).cut_vertices == {0}

    def test_pruned_equals_unpruned_on_random_dags(self):
        rng = random.Random(20261018)
        for _ in range(150):
            c = random_dag(rng, rng.randint(1, 30), p=rng.uniform(0.05, 0.5))
            assert wmax(c) == naive_wmax(c)
            cand = rng.sample(sorted(c.vertices), rng.randint(1, len(c.vertices)))
            assert wmax(c, cand) == naive_wmax(c, cand)

    @pytest.mark.parametrize(
        "params",
        [
            AlgorithmParams("chain", n=7),
            AlgorithmParams("outer_product", n=3),
            AlgorithmParams("matmul", n=2),
            AlgorithmParams("composite", n=2),
            AlgorithmParams("cg", n=3, d=1, T=2),
            AlgorithmParams("gmres", n=3, d=1, m=2),
            AlgorithmParams("jacobi", n=4, d=2, T=2),
        ],
        ids=["chain", "outer_product", "matmul", "composite", "cg", "gmres", "jacobi"],
    )
    def test_pruned_equals_unpruned_on_generators(self, params):
        ann = generate(params)
        c = ann.cdag
        assert wmax(c) == naive_wmax(c)
        cand = ann.wavefront_anchors or sorted(c.vertices)[::2]
        assert wmax(c, cand) == naive_wmax(c, cand)

    def test_ceiling_bounds_every_wavefront_of_criterion_4(self):
        for c in wavefront_fixtures():
            for x in sorted(c.vertices):
                cone = c.ancestors(x), c.descendants(x)
                assert bounds._wavefront_ceiling(c, x, *cone) >= wavefront_min(c, x).size

    def test_stats_show_the_skipped_anchors(self):
        c = gen_cg(3, 1, 2).cdag
        stats = FlowStats()
        assert wmax(c, stats=stats) == naive_wmax(c)
        assert stats.anchors == len(c.vertices)
        assert 0 < stats.anchors_skipped < stats.anchors
        assert 0 < stats.flows <= stats.anchors - stats.anchors_skipped
        assert stats.flows < stats.bfs_phases

    def test_each_augmentation_carries_one_unit(self):
        ann = gen_cg(2, 1, 1)
        stats = FlowStats()
        w = wavefront_min(ann.cdag, ann.wavefront_anchors[0], stats)
        assert (stats.flows, stats.augmentations, w.size) == (1, 4, 4)


GENERATED = [
    AlgorithmParams("chain", n=7),
    AlgorithmParams("outer_product", n=3),
    AlgorithmParams("matmul", n=2),
    AlgorithmParams("composite", n=2),
    AlgorithmParams("cg", n=3, d=1, T=2),
    AlgorithmParams("gmres", n=3, d=1, m=2),
    AlgorithmParams("jacobi", n=4, d=2, T=2),
]


class TestLazyCeilings:
    @staticmethod
    def assert_prefix_ceiling_bounds_every_wavefront(c):
        ceiling = bounds._prefix_ceilings(c)
        assert set(ceiling) == c.vertices
        for x in sorted(c.vertices):
            assert ceiling[x] >= wavefront_min(c, x).size

    def test_prefix_ceiling_bounds_every_wavefront_of_criterion_4(self):
        for c in wavefront_fixtures():
            self.assert_prefix_ceiling_bounds_every_wavefront(c)

    @pytest.mark.parametrize("params", GENERATED, ids=lambda p: p.algorithm)
    def test_prefix_ceiling_bounds_every_wavefront_on_generators(self, params):
        self.assert_prefix_ceiling_bounds_every_wavefront(generate(params).cdag)

    def test_prefix_ceiling_bounds_every_wavefront_on_random_dags(self):
        rng = random.Random(20261019)
        for _ in range(150):
            c = random_dag(rng, rng.randint(1, 30), p=rng.uniform(0.05, 0.5))
            self.assert_prefix_ceiling_bounds_every_wavefront(c)

    def test_prefix_ceiling_of_a_sink_is_one(self):
        # sources 0..3 feed the sinks 4 and 5; 2 and 3 are still live when 4 fires
        c = make_cdag(6, [(0, 4), (1, 4), (2, 5), (3, 5)])
        assert bounds._prefix_ceilings(c) == {0: 1, 1: 1, 2: 2, 3: 3, 4: 1, 5: 1}

    def test_refines_fewer_anchors_than_it_is_given(self, monkeypatch):
        calls = []
        two_cut = bounds._wavefront_ceiling

        def counting(cdag, x, *cone):
            calls.append(x)
            return two_cut(cdag, x, *cone)

        monkeypatch.setattr(bounds, "_wavefront_ceiling", counting)
        c = gen_cg(3, 1, 2).cdag
        stats = FlowStats()
        assert wmax(c, stats=stats) == naive_wmax(c)
        assert len(set(calls)) == len(calls) < stats.anchors
        # every flowed anchor was refined first, and nothing else was flowed
        assert stats.flows <= len(calls)
        assert stats.anchors_skipped == stats.anchors - stats.flows


class TestWmaxFailures:
    CYCLIC = "cdag 1\nv 0\nv 1\nv 2\ne 0 1\ne 1 2\ne 2 1\n"
    CHAIN = "cdag 1\nv 0\nv 1\nv 2\ne 0 1\ne 1 2\n"

    @pytest.fixture
    def no_ceilings(self, monkeypatch):
        def ceiling(cdag, x, *cone):
            raise AssertionError(f"ceiling computed for {x}")

        monkeypatch.setattr(bounds, "_wavefront_ceiling", ceiling)

    @pytest.mark.parametrize("candidates", [None, [0], [0, 2]])
    def test_cyclic_raises_before_any_ceiling(self, candidates, no_ceilings):
        c = make_cdag(3, [(0, 1), (1, 2), (2, 1)])
        with pytest.raises(BoundError, match="^wavefronts are defined on acyclic graphs only$"):
            wmax(c, candidates)

    def test_unknown_candidate_raises_even_when_it_would_be_skipped(self, no_ceilings):
        # anchor 1 alone settles the chain at 1, so the search would never reach 17
        with pytest.raises(BoundError, match="^unknown vertex 17$"):
            wmax(make_cdag(3, [(0, 1), (1, 2)]), [1, 17])

    @pytest.mark.parametrize(
        "cdag, anchors, message",
        [
            (CYCLIC, "anchor 0\n", "wavefronts are defined on acyclic graphs only"),
            (CYCLIC, None, "wavefronts are defined on acyclic graphs only"),
            (CHAIN, "anchor 1\nanchor 17\n", "unknown vertex 17"),
        ],
        ids=["cyclic-anchors", "cyclic-all", "unknown-anchor"],
    )
    def test_cli_exits_1_with_one_error_line(self, cdag, anchors, message, tmp_path, capsys):
        path = tmp_path / "g.cdag"
        path.write_text(cdag)
        argv = ["bound", "--method", "mincut", "--cdag", str(path), "--S", "1", "--kv"]
        if anchors is not None:
            (tmp_path / "g.ann").write_text(anchors)
            argv += ["--anchors", str(tmp_path / "g.ann")]
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestMincutBounds:
    def test_arithmetic(self):
        # wavefront 2 at the fork of a 2-wide ladder, S = 1
        c = make_cdag(5, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)])
        w = wmax(c)
        rep = mincut_lower_bound(c, 1)
        assert rep.value == 2 * (w - 1)

    def test_clamps_when_wavefront_fits(self):
        c = make_cdag(3, [(0, 1), (1, 2)])
        assert mincut_lower_bound(c, 5).value == 0

    def test_rejects_inputs(self):
        with pytest.raises(BoundError, match="input-free"):
            mincut_lower_bound(gen_chain(3).cdag, 2)

    def test_divide_with_trivial_partition_matches_plain(self):
        c = make_cdag(5, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)])
        plain = mincut_lower_bound(c, 1)
        divided = mincut_divide_bound(c, Partition.of([c.vertices]), 1)
        assert divided.value == plain.value  # |I| + |O| = 0 here

    def test_divide_adds_boundary_credit(self):
        c = gen_jacobi(3, 1, 3, 3).cdag
        part = Partition.of([c.vertices])
        rep = mincut_divide_bound(c, part, 1)
        assert rep.value >= len(c.inputs) + len(c.outputs)

    def test_divide_rejects_bad_partition(self):
        c = diamond()
        with pytest.raises(BoundError, match="invalid partition"):
            mincut_divide_bound(c, Partition.of([{0}]), 1)

    @given(tagged_dags(), st.integers(1, 3), st.data())
    @settings(max_examples=200, deadline=None)
    def test_divide_sums_each_cores_bound_over_a_random_partition(self, c, S, data):
        # block labels drawn per vertex, one block possibly empty; the
        # reference charges each core by definition, with unpruned wmax
        n = len(c.vertices)
        k = data.draw(st.integers(1, n + 1))
        label = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        blocks = [{v for v in range(n) if label[v] == i} for i in range(k)]
        cores = [c.induced(b - c.inputs - c.outputs) for b in blocks]
        per_block = tuple(naive_wmax(core) for core in cores)
        rep = mincut_divide_bound(c, Partition.of(blocks), S)
        assert rep.value == sum(max(0, 2 * (w - S)) for w in per_block) + len(c.inputs | c.outputs)
        assert rep.params == {"S": S, "blocks": k, "wmax_per_block": per_block}

    @pytest.mark.parametrize("S", [0, -5])
    def test_both_reject_nonpositive_S(self, S):
        c = make_cdag(3, [(0, 1), (1, 2)])
        with pytest.raises(BoundError, match="^the mincut bound needs S >= 1$"):
            mincut_lower_bound(c, S)
        with pytest.raises(BoundError, match="^the mincut-divide bound needs S >= 1$"):
            mincut_divide_bound(c, Partition.of([c.vertices]), S)


class TestHierarchyTransfers:
    def test_sequential_division(self):
        seq = analytic_lb(AlgorithmParams("cg", n=10, d=1, T=2), P=1, S=0)
        rep = vertical_bound_from_sequential(seq, 4)
        assert rep.value == seq.value / 4

    def test_single_unit_is_identity(self):
        seq = analytic_lb(AlgorithmParams("cg", n=10, d=1, T=2), P=1, S=0)
        assert vertical_bound_from_sequential(seq, 1).value == seq.value

    def test_spart_form_numbers(self):
        rep = vertical_bound_spart(10**6, 100, 4, 8, 64)
        assert rep.value == 159872

    def test_spart_form_clamps(self):
        assert vertical_bound_spart(10, 100, 4, 8, 64).value == 0

    def test_horizontal_numbers(self):
        assert horizontal_bound_spart(10**4, 50, 100, 2).value == 9900

    def test_horizontal_clamps(self):
        assert horizontal_bound_spart(50, 50, 100, 2).value == 0


class TestAnalyticForms:
    def test_cg_asymptote(self):
        rep = analytic_lb(AlgorithmParams("cg", n=1000, d=3, T=1), P=1, S=0)
        assert rep.value == 6 * 10**9

    def test_jacobi_2d_form(self):
        rep = analytic_lb(AlgorithmParams("jacobi", n=8, d=2, T=3), P=1, S=8)
        assert rep.value == Fraction(8**2 * 3, 4 * 4)  # sqrt(16) = 4 exactly

    def test_matmul_form(self):
        rep = analytic_lb(AlgorithmParams("matmul", n=4), P=1, S=2)
        assert rep.value == Fraction(4**3, 2 * 2)  # sqrt(4) = 2

    def test_cg_formula_below_oracle_on_desk_instance(self):
        ann = gen_cg(2, 1, 1)
        opt = optimal_io(ann.cdag, 4).value
        formula = analytic_lb(AlgorithmParams("cg", n=2, d=1, T=1), P=1, S=4).value
        assert formula <= opt

    def test_unknown_algorithm(self):
        with pytest.raises(BoundError):
            analytic_lb(AlgorithmParams("chain", n=3))

    def test_ghost_cells_d1(self):
        rep = analytic_horizontal_ub(AlgorithmParams("cg", n=10, d=1, T=2), n_nodes=2)
        assert rep.value == 4  # ((5+2) - 5) * 2

    def test_ghost_cells_d3(self):
        rep = analytic_horizontal_ub(AlgorithmParams("cg", n=80, d=3, T=1), n_nodes=512)
        assert rep.value == 12**3 - 10**3  # B = 10

    def test_jacobi_ghost_form(self):
        rep = analytic_horizontal_ub(AlgorithmParams("jacobi", n=16, d=2, T=3), n_nodes=4)
        assert rep.value == 96  # 4 * 8 * 3

    def test_lower_bound_outside_float_range(self):
        with pytest.raises(BoundError, match="leaves the float range"):
            analytic_lb(AlgorithmParams("jacobi", n=1000, d=200, T=1), P=1, S=4)

    @pytest.mark.parametrize(
        "params,n_nodes",
        [
            (AlgorithmParams("jacobi", n=1000, d=120, T=1), 2048),  # (B + 2)^d raises OverflowError
            (AlgorithmParams("jacobi", n=10**200, d=2, T=10**200), 2),  # 4*B*T turns into inf
        ],
        ids=["overflow", "inf"],
    )
    def test_horizontal_bound_outside_float_range(self, params, n_nodes):
        with pytest.raises(BoundError, match="leaves the float range"):
            analytic_horizontal_ub(params, n_nodes)

    def test_too_many_nodes(self):
        with pytest.raises(BoundError, match="more nodes"):
            analytic_horizontal_ub(AlgorithmParams("cg", n=2, d=1, T=1), n_nodes=5)

    def test_unknown_algorithm_error_comes_before_too_many_nodes(self):
        with pytest.raises(BoundError, match="no horizontal upper bound"):
            analytic_horizontal_ub(AlgorithmParams("matmul", n=2), n_nodes=5)


VERTICAL_ARGS = {"v_size": 10, "umax_2s": 2, "n_l": 2, "n_lminus1": 4, "s_lminus1": 3}
HORIZONTAL_ARGS = {"v_size": 10, "umax_2sl": 2, "s_l": 3, "p_i": 2}


class TestArgumentMessages:
    """The exact message of each argument check and S-partition violation."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: check_spartition(gen_chain(3).cdag, [], 2, mode="rb"), "unknown S-partition mode 'rb'"),
            (
                # five inputs feed one vertex: its in-set has size 5
                lambda: check_spartition(make_cdag(6, [(i, 5) for i in range(5)], inputs=range(5)), [{5}], 2)[1],
                "block 0 in/dominator set has size 5 > 2",
            ),
            (lambda: umax_bruteforce(gen_chain(3).cdag, -1), "twoS must be nonnegative"),
            *(
                (lambda name=name: vertical_bound_spart(**{**VERTICAL_ARGS, name: 0}), f"{name} must be >= 1")
                for name in VERTICAL_ARGS
            ),
            *(
                (lambda name=name: horizontal_bound_spart(**{**HORIZONTAL_ARGS, name: 0}), f"{name} must be >= 1")
                for name in HORIZONTAL_ARGS
            ),
            (lambda: analytic_lb(AlgorithmParams("cg", n=4), P=0, S=1), "P must be >= 1 and S >= 0"),
            (lambda: analytic_lb(AlgorithmParams("cg", n=4), P=1, S=-1), "P must be >= 1 and S >= 0"),
            (lambda: analytic_horizontal_ub(AlgorithmParams("cg", n=4), n_nodes=0), "n_nodes must be >= 1"),
        ],
        ids=[
            "spartition-mode", "spartition-in-set", "umax-twoS",
            *(f"vertical-{name}" for name in VERTICAL_ARGS),
            *(f"horizontal-{name}" for name in HORIZONTAL_ARGS),
            "analytic-P", "analytic-S", "horizontal-ub-n_nodes",
        ],
    )
    def test_message(self, call, message):
        try:
            messages = call()  # check_spartition's violations, when nothing raises
        except BoundError as exc:
            messages = [str(exc)]
        assert message in messages


class TestSPartitionChecker:
    def test_valid_rbw_partition(self):
        c = gen_chain(4).cdag
        cert, violations = check_spartition(c, [{1, 2, 3}], S=2, mode="rbw")
        assert violations == []
        assert cert.in_sizes == (1,) and cert.out_sizes == (1,)

    def test_boundary_overflow_flagged(self):
        c = make_cdag(6, [(0, i) for i in range(1, 6)], inputs=[0], outputs=range(1, 6))
        _, violations = check_spartition(c, [set(range(1, 6))], S=2, mode="rbw")
        assert any("out/minimum" in v for v in violations)

    def test_circuit_between_blocks_flagged(self):
        c = make_cdag(4, [(0, 1), (1, 2), (2, 3), (0, 3)], inputs=[0], outputs=[3])
        _, violations = check_spartition(c, [{1, 3}, {2}], S=3, mode="rbw")
        assert any("circuit" in v for v in violations)

    @pytest.mark.parametrize("mode, block", [("rbw", {1, 2, 3, 99}), ("hk", {0, 1, 2, 3, 99})])
    def test_unknown_vertex_is_a_violation(self, mode, block):
        cert, violations = check_spartition(gen_chain(4).cdag, [block], S=2, mode=mode)
        assert violations == ["block 0 contains unknown vertices [99]", "blocks exceed domain by [99]"]
        assert cert.in_sizes == (1,) and cert.out_sizes == (1,)

    def test_hk_mode_uses_dominators(self):
        c = diamond()
        cert, violations = check_spartition(c, [c.vertices], S=1, mode="hk")
        assert violations == []  # dominator {0} and minimum set {3}
        assert cert.in_sizes == (1,) and cert.out_sizes == (1,)

    def test_dominator_is_min_vertex_cut(self):
        c = diamond()
        assert min_dominator_size(c, frozenset({3})) == 1
        assert min_dominator_size(c, frozenset({1, 2})) == 1
        assert min_dominator_size(c, frozenset({0})) == 1

    def test_boundary_helpers(self):
        c = diamond()
        blk = frozenset({1, 2})
        assert block_in_set(c, blk) == {0}
        assert block_out_set(c, blk) == {1, 2}
        assert minimum_set(c, blk) == {1, 2}


class TestSoundness:
    """Engine values never exceed the game optimum (spot instances)."""

    @pytest.mark.parametrize(
        "cdag,S",
        [
            (gen_chain(6).cdag, 2),
            (gen_jacobi(3, 1, 3, 3).cdag, 4),
            (gen_outer_product(2).cdag, 4),
        ],
        ids=["chain", "jacobi", "outer"],
    )
    def test_spart_with_bruteforced_umax(self, cdag, S):
        opt = optimal_io(cdag, S).value
        umax = umax_bruteforce(cdag, 2 * S)
        assert spart_lower_bound(cdag, S, umax).value <= opt

    def test_mincut_divide_sound_on_jacobi(self):
        c = gen_jacobi(3, 1, 3, 3).cdag
        opt = optimal_io(c, 4).value
        rep = mincut_divide_bound(c, Partition.of([c.vertices]), 4)
        assert rep.value <= opt

    def test_mincut_divide_counts_an_input_output_vertex_once(self):
        # vertex 1 is tagged both: already blue, so its load is its only transfer
        c = make_cdag(2, [], inputs=[0, 1], outputs=[1])
        assert optimal_io(c, 4).value == 2
        assert mincut_divide_bound(c, Partition.of([c.vertices]), 4).value == 2

    def test_mincut_divide_sound_with_positive_wavefront_term(self):
        # gather: untagged sources s0..s4 (0-4), a left-leaning add chain
        # 5, 6, 7 ending in x = 8, and consumers d_i = f(x, s_i) (9-13); its
        # wmax exceeds S, so the block term is not clamped to zero
        chain = [(0, 5), (1, 5), (5, 6), (2, 6), (6, 7), (3, 7), (7, 8), (4, 8)]
        consumers = [e for i in range(5) for e in ((8, 9 + i), (i, 9 + i))]
        c = make_cdag(14, chain + consumers)
        assert optimal_io(c, 3).value == 8
        assert wmax(c) == 5
        rep = mincut_divide_bound(c, Partition.of([c.vertices]), 3)
        assert rep.value == 4 <= 8
        # counting the same vertices in several blocks would overstate the optimum
        with pytest.raises(BoundError, match="overlaps"):
            mincut_divide_bound(c, Partition.of([c.vertices] * 3), 3)
