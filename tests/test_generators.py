import hashlib

import pytest

from pebblebound import (
    AlgorithmParams,
    CdagError,
    gen_chain,
    gen_cg,
    gen_composite,
    gen_gmres,
    gen_jacobi,
    gen_matmul,
    gen_outer_product,
    generate,
)
from pebblebound.formats import Annotations, format_annotations, format_cdag

ALL_SMALL = [
    gen_chain(5),
    gen_outer_product(2),
    gen_matmul(2),
    gen_composite(2),
    gen_cg(2, 1, 2),
    gen_gmres(2, 1, 2),
    gen_jacobi(3, 1, 3, 3),
]


@pytest.mark.parametrize("ann", ALL_SMALL, ids=lambda a: sorted(a.slabs)[0] if a.slabs else "x")
def test_every_generated_cdag_is_rbw_valid(ann):
    assert ann.cdag.validate("rbw") == []


@pytest.mark.parametrize(
    "ann",
    [gen_jacobi(3, 2, 2, 9), gen_matmul(2), gen_outer_product(3), gen_composite(2)],
    ids=["jacobi", "matmul", "outer", "composite"],
)
def test_default_tagging_is_hk_valid(ann):
    assert ann.cdag.validate("hk") == []


@pytest.mark.parametrize("ann", ALL_SMALL, ids=lambda a: sorted(a.slabs)[0] if a.slabs else "x")
def test_slabs_cover_all_non_input_vertices(ann):
    covered = frozenset().union(*ann.slabs.values()) if ann.slabs else frozenset()
    assert ann.cdag.vertices - ann.cdag.inputs <= covered
    for vs in ann.slabs.values():
        assert vs <= ann.cdag.vertices


@pytest.mark.parametrize("ann", ALL_SMALL, ids=lambda a: sorted(a.slabs)[0] if a.slabs else "x")
def test_only_consecutive_slabs_overlap(ann):
    names = list(ann.slabs)
    for i, a in enumerate(names):
        for b in names[i + 2 :]:
            assert not ann.slabs[a] & ann.slabs[b]
    for a, b in zip(names, names[1:]):
        for v in ann.slabs[a] & ann.slabs[b]:  # a value slab a hands to slab b
            assert set(ann.cdag.succs[v]) & (ann.slabs[b] - ann.slabs[a])


class TestChain:
    def test_single_vertex_is_both_input_and_output(self):
        c = gen_chain(1).cdag
        assert c.inputs == c.outputs == c.vertices

    def test_path_shape(self):
        c = gen_chain(5).cdag
        assert len(c.vertices) == 5 and len(c.edges) == 4

    def test_bad_params(self):
        with pytest.raises(CdagError):
            gen_chain(0)


class TestOuterProduct:
    def test_n1_counts(self):
        c = gen_outer_product(1).cdag
        assert len(c.inputs) == 2
        assert len(c.vertices - c.inputs) == 1
        assert c.outputs == c.vertices - c.inputs

    def test_n3_counts(self):
        c = gen_outer_product(3).cdag
        assert len(c.inputs) == 6
        assert len(c.outputs) == 9
        for v in c.outputs:
            assert c.in_degree(v) == 2


class TestMatmul:
    def test_n1(self):
        c = gen_matmul(1).cdag
        assert len(c.inputs) == 2
        assert len(c.vertices) == 3
        assert len(c.outputs) == 1

    def test_n2_counts(self):
        ann = gen_matmul(2)
        c = ann.cdag
        assert len(c.inputs) == 8
        labels = c.labels
        mults = [v for v, s in labels.items() if s.startswith("m[")]
        adds = [v for v, s in labels.items() if s.startswith(("acc[", "C["))]
        assert len(mults) == 8 and len(adds) == 4
        assert len(c.outputs) == 4

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_non_input_count_formula(self, N):
        c = gen_matmul(N).cdag
        assert len(c.vertices - c.inputs) == 2 * N**3 - N**2


class TestComposite:
    def test_n1_shape(self):
        ann = gen_composite(1)
        c = ann.cdag
        assert len(c.inputs) == 4
        # A, B, and the single product that doubles as the sum
        assert len(c.vertices - c.inputs) == 3
        assert len(c.outputs) == 1

    def test_n2_slabs(self):
        ann = gen_composite(2)
        assert set(ann.slabs) == {"outer_A", "outer_B", "matmul", "reduce"}
        assert len(ann.slabs["outer_A"]) == 4
        assert len(ann.slabs["matmul"]) == 12
        assert len(ann.slabs["reduce"]) == 3

    def test_single_output_is_reduction_root(self):
        c = gen_composite(2).cdag
        (out,) = c.outputs
        assert c.out_degree(out) == 0


class TestCg:
    def test_t1_structure(self):
        ann = gen_cg(2, 1, 1)
        c = ann.cdag
        assert len(c.inputs) == 7  # three vectors plus the carried scalar
        assert len(c.vertices) == 23
        a, g = ann.wavefront_anchors
        assert c.labels[a] == "a1" and c.labels[g] == "g1"
        # the step scalar sits under reduction trees with the p and v
        # vectors as the multiply-leaf operand set
        ids = ann.by_label()
        leaves = set()
        for k in range(2):
            leaves |= set(c.preds[ids[f"mpv1[{k}]"]])
        assert leaves == {ids["p0[0]"], ids["p0[1]"], ids["v1[0]"], ids["v1[1]"]}
        assert len(leaves) == 4  # 2 * n^d

    def test_slab_count_and_frontier(self):
        ann = gen_cg(3, 1, 2)
        assert list(ann.slabs) == ["iter1", "iter2"]
        frontier = ann.slabs["iter1"] & ann.slabs["iter2"]
        assert sorted(ann.cdag.labels[v] for v in frontier) == sorted(
            [f"{vec}1[{k}]" for vec in "xrp" for k in range(3)] + ["srn1"]
        )

    def test_per_iteration_vertex_count_documented_formula(self):
        n, d, T = 3, 1, 2
        ann = gen_cg(n, d, T)
        computed = len(ann.cdag.vertices - ann.cdag.inputs)
        assert computed == 8 * n**d * T  # matches the generator docstring

    def test_anchor_mediates_tree_to_saxpy_paths(self):
        ann = gen_cg(2, 1, 1)
        c = ann.cdag
        ids = ann.by_label()
        a = ids["a1"]
        without_a = c.induced(c.vertices - {a})
        assert ids["x1[0]"] in c.descendants(ids["spv1"])
        assert ids["x1[0]"] not in without_a.descendants(ids["spv1"])

    def test_bad_params(self):
        with pytest.raises(CdagError):
            gen_cg(1, 1, 1)


class TestGmres:
    def test_m1_anchor_leaves(self):
        ann = gen_gmres(2, 1, 1)
        c = ann.cdag
        ids = ann.by_label()
        leaves = set()
        for k in range(2):
            leaves |= set(c.preds[ids[f"mh[0,1][{k}]"]])
        assert len(leaves) == 4  # the w and v_0 vectors: 2 * n^d

    def test_second_iteration_has_three_reduction_trees(self):
        ann = gen_gmres(2, 1, 2)
        labels = ann.cdag.labels
        roots = [labels[v] for v in ann.slabs["iter2"] if labels[v] in ("h[0,2]", "h[1,2]", "nrm2")]
        assert sorted(roots) == ["h[0,2]", "h[1,2]", "nrm2"]

    def test_basis_vector_shared_between_slabs(self):
        ann = gen_gmres(3, 1, 2)
        shared = ann.slabs["iter1"] & ann.slabs["iter2"]
        assert sorted(ann.cdag.labels[v] for v in shared) == ["gv1", "v1[0]", "v1[1]", "v1[2]"]

    def test_final_slab_exists_and_holds_solution(self):
        ann = gen_gmres(2, 1, 2)
        assert "final" in ann.slabs
        assert ann.cdag.outputs <= ann.slabs["final"]


class TestJacobi:
    def test_counts_and_degrees_3pt(self):
        ann = gen_jacobi(3, 1, 2, 3)
        c = ann.cdag
        assert len(c.inputs) == 3 and len(c.outputs) == 3
        degs = sorted(c.in_degree(v) for v in c.outputs)
        assert degs == [2, 3, 2] or degs == [2, 2, 3]

    def test_9pt_interior_degree(self):
        ann = gen_jacobi(3, 2, 2, 9)
        c = ann.cdag
        interior = [v for v in c.outputs if c.in_degree(v) == 9]
        assert len(interior) == 1  # the single interior point of a 3x3 grid

    @pytest.mark.parametrize("n,d,T", [(3, 1, 2), (4, 1, 3), (3, 2, 2)])
    def test_vertex_count_exact(self, n, d, T):
        assert len(gen_jacobi(n, d, T).cdag.vertices) == n**d * T

    def test_stencil_points_validated(self):
        with pytest.raises(CdagError, match="stencil_points"):
            gen_jacobi(3, 2, 2, 7)

    def test_stencil_points_error_matches_params_check(self):
        with pytest.raises(CdagError) as direct:
            gen_jacobi(3, 2, 2, 7)
        with pytest.raises(CdagError) as params:
            AlgorithmParams("jacobi", d=2, stencil_points=7)
        assert str(direct.value) == str(params.value) == "stencil_points must be one of [5, 9] for d=2, got 7"


class TestParamsAndDispatch:
    def test_dispatch_matches_direct_calls(self):
        a = generate(AlgorithmParams("jacobi", n=3, d=1, T=2, stencil_points=3))
        b = gen_jacobi(3, 1, 2, 3)
        assert a.cdag == b.cdag

    def test_param_validation(self):
        with pytest.raises(CdagError):
            AlgorithmParams("cg", n=0)
        with pytest.raises(CdagError):
            AlgorithmParams("jacobi", d=2, stencil_points=7)
        with pytest.raises(CdagError):
            AlgorithmParams("quicksort")


def _digest_sweep():
    for n in (1, 2, 5, 5000):
        yield AlgorithmParams("chain", n=n)
    for alg in ("outer_product", "matmul", "composite"):
        for n in (1, 2, 3):
            yield AlgorithmParams(alg, n=n)
    for n, d, T in ((2, 1, 1), (3, 1, 3), (2, 2, 2), (3, 3, 1), (32, 2, 1)):
        yield AlgorithmParams("cg", n=n, d=d, T=T)
    for n, d, m in ((2, 1, 1), (3, 1, 3), (2, 2, 2), (3, 2, 2)):
        yield AlgorithmParams("gmres", n=n, d=d, m=m)
    for d in (1, 2, 3):
        for n, T in ((3, 2), (4, 3)):
            for points in (None, 2 * d + 1, 3**d):
                yield AlgorithmParams("jacobi", n=n, d=d, T=T, stencil_points=points)


def generator_digest():
    """sha256 over generate on a fixed sweep of every family.

    Each instance contributes its CDAG text and its annotations: slabs in
    insertion order (the sidecar keeps that order, and mincut-divide keeps
    a vertex in the first slab that lists it), then the anchors in order.
    """
    h = hashlib.sha256()
    count = 0
    for params in _digest_sweep():
        ann = generate(params)
        sidecar = Annotations(ann.slabs, ann.wavefront_anchors)
        h.update(f"{params}\n{format_cdag(ann.cdag)}{format_annotations(sidecar)}".encode())
        count += 1
    return count, h.hexdigest()


def test_generator_digest():
    # 40 instances: chain up to 5000 vertices, cg-32-2-1 (11,265 vertices),
    # and every jacobi stencil size for d = 1, 2, 3
    assert generator_digest() == (40, "3331a7e193e64e4bad71b5ffe06b6fe9c1f87c82337d3c6cae7365ebf8aa5ba1")
