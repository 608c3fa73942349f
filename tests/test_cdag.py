import pytest

from pebblebound import (
    Cdag,
    CdagError,
    Partition,
    check_split_side_conditions,
    gen_jacobi,
    gen_matmul,
    nondisjoint_decompose,
)

from conftest import diamond, make_cdag


class TestBuild:
    def test_rejects_duplicate_edges(self):
        with pytest.raises(CdagError, match="duplicate edge"):
            Cdag.build([0, 1], [(0, 1), (0, 1)])

    def test_rejects_unknown_edge_endpoint(self):
        with pytest.raises(CdagError, match="unknown vertex"):
            Cdag.build([0], [(0, 1)])

    def test_rejects_negative_ids(self):
        with pytest.raises(CdagError):
            Cdag.build([-1])

    def test_rejects_unknown_tags(self):
        with pytest.raises(CdagError, match="input"):
            Cdag.build([0], [], inputs=[3])


class TestValidate:
    def test_degenerate_single_vertex_hk(self):
        c = Cdag.build([0], [], inputs=[0], outputs=[0])
        assert c.validate("hk") == []

    def test_two_cycle_reported(self):
        c = Cdag.build([0, 1], [(0, 1), (1, 0)])
        violations = c.validate("rbw")
        assert any("cycle" in v for v in violations)

    def test_untagged_source_ok_in_rbw_violation_in_hk(self):
        c = make_cdag(2, [(0, 1)], inputs=[], outputs=[1])
        assert c.validate("rbw") == []
        assert any("not tagged as input" in v for v in c.validate("hk"))

    def test_untagged_sink_flagged_in_hk(self):
        c = make_cdag(2, [(0, 1)], inputs=[0], outputs=[])
        assert any("not tagged as output" in v for v in c.validate("hk"))

    def test_tagged_input_with_predecessor_flagged(self):
        c = make_cdag(2, [(0, 1)], inputs=[0, 1], outputs=[1])
        assert any("in-degree" in v for v in c.validate("rbw"))

    def test_self_loop_flagged(self):
        c = Cdag.build([0], [(0, 0)])
        assert any("self-loop" in v for v in c.validate("rbw"))

    def test_violation_list_and_order(self):
        # self-loops by vertex, then the cycle, then tagging
        c = Cdag.build(
            range(6), [(4, 4), (1, 1), (0, 2), (2, 0), (3, 5), (5, 3), (2, 5)], inputs=[0, 1]
        )
        expected = [
            "self-loop at vertex 1",
            "self-loop at vertex 4",
            "cycle: 0->2->0",
            "input vertex 0 has in-degree 1",
            "input vertex 1 has in-degree 1",
        ]
        assert c.validate("rbw") == expected
        assert c.validate("hk") == expected


class TestInduced:
    def test_full_set_is_identity(self):
        c = diamond()
        sub = c.induced(c.vertices)
        assert sub == c

    def test_idempotent(self):
        c = diamond()
        blk = frozenset({0, 1})
        assert c.induced(blk).induced(blk) == c.induced(blk)

    def test_middle_of_chain(self):
        c = make_cdag(3, [(0, 1), (1, 2)], inputs=[0], outputs=[2])
        sub = c.induced({1})
        assert sub.vertices == {1}
        assert not sub.edges and not sub.inputs and not sub.outputs

    def test_matmul_multiplies_are_isolated(self):
        ann = gen_matmul(2)
        mults = {v for v, s in ann.cdag.labels.items() if s.startswith("m[")}
        assert len(mults) == 8
        sub = ann.cdag.induced(mults)
        assert sub.edges == frozenset()

    def test_unknown_vertex_rejected(self):
        with pytest.raises(CdagError, match="unknown vertex"):
            diamond().induced({99})


class TestRetag:
    def test_noop(self):
        c = diamond()
        assert c.retag((), ()) == c

    def test_tags_source_and_sink(self):
        c = make_cdag(2, [(0, 1)])
        tagged = c.retag([0], [1])
        assert tagged.inputs == {0} and tagged.outputs == {1}
        assert tagged.edges == c.edges

    def test_interior_vertex_rejected_as_input(self):
        c = make_cdag(2, [(0, 1)])
        with pytest.raises(CdagError, match="interior vertex"):
            c.retag([1], [])

    def test_already_tagged_rejected(self):
        c = make_cdag(2, [(0, 1)], inputs=[0])
        with pytest.raises(CdagError, match="already tagged"):
            c.retag([0], [])

    def test_jacobi_slab_sources_retaggable(self):
        ann = gen_jacobi(3, 1, 3, 3)
        middle = ann.slabs["t1"] | ann.slabs["t2"]
        sub = ann.cdag.induced(middle)
        sources = [v for v in sub.vertices if sub.in_degree(v) == 0]
        assert sources and set(sources) == set(ann.slabs["t1"])
        tagged = sub.retag(sources, [])
        assert tagged.inputs == frozenset(sources)


class TestPartition:
    def test_disjoint_cover_ok(self):
        c = diamond()
        part = Partition.of([{0, 1}, {2, 3}])
        assert part.validate(c) == []

    def test_overlap_flagged(self):
        c = diamond()
        part = Partition.of([{0, 1}, {1, 2, 3}])
        assert any("overlaps" in v for v in part.validate(c))

    def test_gap_flagged(self):
        c = diamond()
        part = Partition.of([{0, 1}])
        assert any("missing" in v for v in part.validate(c))

    def test_nondisjoint_mode_allows_sharing(self):
        c = diamond()
        part = Partition.of([{0, 1, 3}, {1, 2, 3}], mode="non-disjoint")
        assert part.validate(c) == []


class TestNondisjointDecompose:
    def test_empty_detached_set(self):
        c = diamond()
        split = nondisjoint_decompose(c, 3, ())
        assert split.first == c
        assert split.second.vertices == frozenset()

    def test_anchor_in_detached_set_rejected(self):
        with pytest.raises(CdagError):
            nondisjoint_decompose(diamond(), 1, {1, 2})

    def test_parts_are_induced(self):
        c = diamond()
        split = nondisjoint_decompose(c, 0, {2, 3})
        assert split.first == c.induced({0, 1})
        assert split.second == c.induced({2, 3})

    def test_side_conditions(self):
        c = make_cdag(4, [(0, 1), (1, 2), (2, 3)], inputs=[0], outputs=[3])
        # detached tail re-enters only through nothing downstream: clean
        assert check_split_side_conditions(c, 1, {2, 3}) == []
        # detaching the middle leaks past the pin
        bad = check_split_side_conditions(c, 1, {0})
        assert bad == []  # 0 -> 1 goes through the pin itself
        assert check_split_side_conditions(c, 2, {0, 1}) == []
        assert any("leaves" in v for v in check_split_side_conditions(c, 3, {1}))
