import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize(
        "tags, message",
        [
            ({"inputs": [9, 0, 5]}, "unknown input vertices: [5, 9]"),
            ({"outputs": [1, 7, 3]}, "unknown output vertices: [3, 7]"),
            ({"labels": {8: "x", 0: "a", 4: "y"}}, "labels reference unknown vertices: [4, 8]"),
        ],
    )
    def test_unknown_tag_ids_listed_in_order(self, tags, message):
        with pytest.raises(CdagError) as exc:
            Cdag.build(range(2), [(0, 1)], **tags)
        assert str(exc.value) == message

    def test_rejects_float_edge_endpoint(self):
        # int() would truncate 0.9 to vertex 0 and build the edge (0, 1)
        with pytest.raises(CdagError) as err:
            Cdag.build([0, 1], [(0.9, 1)])
        assert str(err.value) == "edge (0.9, 1) endpoints must be integer vertex ids"

    def test_rejects_string_edge_endpoints(self):
        with pytest.raises(CdagError) as err:
            Cdag.build([0, 1], [("0", "1")])
        assert str(err.value) == "edge ('0', '1') endpoints must be integer vertex ids"

    def test_rejects_bool_ids(self):
        # True == 1, but format_cdag would write it as "v True", which parse_cdag rejects
        with pytest.raises(CdagError, match="vertex ids must be nonnegative integers, got True"):
            Cdag.build([True, 2], [(True, 2)])
        with pytest.raises(CdagError, match="endpoints must be integer vertex ids"):
            Cdag.build([1, 2], [(True, 2)])

    def test_rejects_int_subclass_ids(self):
        # an id is a plain int, as an edge endpoint and as a vertex alike
        class Id(enum.IntEnum):
            A = 0
            B = 1

        with pytest.raises(CdagError, match=r"^edge \(<Id.A: 0>, 1\) endpoints must be integer vertex ids$"):
            Cdag.build([0, 1], [(Id.A, 1)])
        with pytest.raises(CdagError, match="vertex ids must be nonnegative integers, got <Id.B: 1>"):
            Cdag.build([0, Id.B])

    def test_accepts_edges_given_as_lists(self):
        # the shape json.load gives; the CDAG stores tuples
        c = Cdag.build([0, 1, 2], [[0, 1], [1, 2]])
        assert c == Cdag.build([0, 1, 2], [(0, 1), (1, 2)])
        assert all(type(e) is tuple for e in c.edges)
        with pytest.raises(CdagError, match=r"^duplicate edge \(0, 1\)$"):
            Cdag.build([0, 1], [[0, 1], (0, 1)])
        with pytest.raises(CdagError, match=r"^edge \(\[0\], 1\) endpoints must be integer vertex ids$"):
            Cdag.build([0, 1], [[[0], 1]])

    @pytest.mark.parametrize("label", [5, None, b"x", type("Name", (str,), {})("a")])
    def test_rejects_labels_that_are_not_strings(self, label):
        # 5 would fail format_cdag with a bare TypeError, and None would
        # format as no label, so neither could read back; a label is
        # exactly a str, as an id is exactly an int
        with pytest.raises(CdagError) as exc:
            Cdag.build([0, 1], labels={1: label, 0: "a"})
        assert str(exc.value) == f"label of vertex 1 must be a string, got {label!r}"

    def test_names_the_first_bad_edge_in_the_callers_order(self):
        with pytest.raises(CdagError, match=r"^duplicate edge \(2, 0\)$"):
            Cdag.build(range(3), [(1, 0), (2, 0), (1, 2), (2, 0), (1, 0)])
        with pytest.raises(CdagError, match=r"^edge \(5, 0\) references unknown vertex$"):
            Cdag.build(range(3), [(1, 0), (5, 0), (0, 9)])


class TestAdjacency:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_preds_and_succs_are_the_ascending_edge_ends(self, data):
        ids = data.draw(st.lists(st.integers(0, 10**9), min_size=1, max_size=10, unique=True))
        pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]  # forward in draw order
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        c = Cdag.build(ids, edges)
        assert set(c.preds) == set(c.succs) == set(ids)
        for v in ids:
            assert c.preds[v] == tuple(sorted(u for u, w in c.edges if w == v))
            assert c.succs[v] == tuple(sorted(w for u, w in c.edges if u == v))


class TestEdgeView:
    """``edges`` is a read-only set view of ``succs``, not a container of its own."""

    PAIRS = [(2, 3), (0, 2), (0, 1), (1, 3)]

    @pytest.fixture
    def c(self):
        return Cdag.build(range(4), self.PAIRS, [0], [3], labels={0: "a", 3: "d"})

    def test_length(self, c):
        assert len(c.edges) == 4
        assert len(Cdag.build([0]).edges) == 0

    def test_ascending_tuples(self, c):
        assert list(c.edges) == [(0, 1), (0, 2), (1, 3), (2, 3)]
        assert all(type(e) is tuple for e in c.edges)

    @pytest.mark.parametrize("item", [None, (0, 1, 2), (0,), 5, "01", [0, 1], ([0], 1), (0, [1]), (1, 0), (9, 9)])
    def test_membership_of_a_non_edge_is_false(self, c, item):
        assert item not in c.edges

    def test_membership(self, c):
        assert all(e in c.edges for e in self.PAIRS)

    def test_equals_a_frozenset_from_both_sides(self, c):
        assert c.edges == frozenset(self.PAIRS) and frozenset(self.PAIRS) == c.edges
        assert c.edges != frozenset(self.PAIRS[1:]) and frozenset(self.PAIRS[1:]) != c.edges
        assert c.edges - {(0, 1)} == frozenset(self.PAIRS) - {(0, 1)}

    def test_rebuilds_an_equal_cdag(self, c):
        assert Cdag.build(c.vertices, c.edges, c.inputs, c.outputs, c.labels) == c

    def test_induced_and_retag_keep_the_view(self, c):
        sub = c.induced({0, 1, 3})
        assert list(sub.edges) == [(0, 1), (1, 3)] and len(sub.edges) == 2
        tagged = c.induced({1, 2, 3}).retag([1, 2])
        assert list(tagged.edges) == [(1, 3), (2, 3)] and tagged.edges == frozenset({(1, 3), (2, 3)})


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

    def test_memoized_violations_keep_order_and_are_copies(self):
        c = make_cdag(3, [(0, 1), (1, 1)], inputs=[1], outputs=[])
        rbw = ["self-loop at vertex 1", "cycle: 1->1", "input vertex 1 has in-degree 2"]
        hk = rbw + [
            "hk: source vertex 0 not tagged as input",
            "hk: source vertex 2 not tagged as input",
            "hk: sink vertex 2 not tagged as output",
        ]
        for _ in range(2):
            first = c.validate("hk")
            assert first == hk
            first.clear()
            assert c.validate("rbw") == rbw
        assert c.validate("hk") == hk

    @pytest.mark.parametrize("command", ["play", "oracle"])
    def test_cli_scans_each_cdag_once(self, command, monkeypatch, tmp_path):
        # the player, the oracle and the closing trace check all call
        # check("rbw") on the same parsed instance
        from pebblebound.cli import main
        from pebblebound.formats import format_cdag

        path = tmp_path / "jac.cdag"
        path.write_text(format_cdag(gen_jacobi(4, 1, 3, 3).cdag), encoding="utf-8")
        scans = []
        scan = Cdag._scan

        def counting(self, mode):
            scans.append(mode)
            return scan(self, mode)

        monkeypatch.setattr(Cdag, "_scan", counting)
        assert main([command, "--cdag", str(path), "--S", "4", "--kv"]) == 0
        assert scans == ["rbw"]


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
