import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pebblebound import Cdag, CdagError, FormatError, GameError, PebbleboundError, gen_cg, gen_jacobi
from pebblebound import formats
from pebblebound.formats import (
    Annotations,
    format_annotations,
    format_cdag,
    format_hierarchy,
    format_machine,
    format_trace,
    parse_annotations,
    parse_cdag,
    parse_hierarchy,
    parse_machine,
    parse_trace,
)
from pebblebound.games import PRBW_MOVES, HierarchyConfig, PrbwMove, RbwMove, heuristic_game

from conftest import small_dags


CDAG_TEXT = """\
# tiny example
cdag 1
v 0 in label=x
v 1
v 2 out
e 0 1
e 1 2
"""


class TestCdagFormat:
    def test_parse_basics(self):
        c = parse_cdag(CDAG_TEXT)
        assert c.inputs == {0} and c.outputs == {2}
        assert c.label(0) == "x"
        assert (0, 1) in c.edges

    def test_roundtrip(self):
        c = parse_cdag(CDAG_TEXT)
        assert parse_cdag(format_cdag(c)) == c

    @given(small_dags(tag_outputs=True))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_random(self, c):
        assert parse_cdag(format_cdag(c)) == c

    def test_missing_header(self):
        with pytest.raises(FormatError, match="header"):
            parse_cdag("v 0\n")

    def test_edge_before_declaration(self):
        with pytest.raises(FormatError, match="undeclared"):
            parse_cdag("cdag 1\nv 0\ne 0 1\nv 1\n")

    def test_unknown_token_rejected(self):
        with pytest.raises(FormatError, match="unknown vertex token"):
            parse_cdag("cdag 1\nv 0 sideways\n")

    def test_unknown_record_rejected(self):
        with pytest.raises(FormatError, match="unknown record"):
            parse_cdag("cdag 1\nw 0\n")

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(FormatError, match="twice"):
            parse_cdag("cdag 1\nv 0\nv 0\n")

    @pytest.mark.parametrize("label", ["a b", "a\tb", "a\nb", "a\u2028b"])
    def test_label_with_whitespace_rejected(self, label):
        # the parser splits records on any whitespace, so no label may hold one
        c = Cdag.build([0], labels={0: label})
        with pytest.raises(FormatError) as exc:
            format_cdag(c)
        assert str(exc.value) == f"label for vertex 0 contains whitespace: {label!r}"

    @pytest.mark.parametrize("tok", ["007", "+7", "\u0667"])  # the last is ARABIC-INDIC DIGIT SEVEN
    def test_ids_read_by_value_whatever_their_spelling(self, tok):
        canonical = parse_cdag("cdag 1\nv 3 in\nv 7 out\ne 3 7\n")
        assert parse_cdag(f"cdag 1\nv 3 in\nv 7 out\ne 3 {tok}\n") == canonical
        assert parse_cdag(f"cdag 1\nv 3 in\nv {tok} out\ne 3 7\n") == canonical
        assert parse_cdag(f"cdag 1\nv {tok} out\nv 3 in\ne 3 {tok}\n") == canonical

    @pytest.mark.parametrize(
        "edge, message",
        [
            ("e 3 008", "line 4: edge references undeclared vertex"),
            ("e +8 3", "line 4: edge references undeclared vertex"),
            ("e 3 x7", "line 4: expected integer, got 'x7'"),
            ("e 7.0 3", "line 4: expected integer, got '7.0'"),
        ],
    )
    def test_edge_id_errors_whatever_their_spelling(self, edge, message):
        with pytest.raises(FormatError) as err:
            parse_cdag(f"cdag 1\nv 3\nv 7\n{edge}\n")
        assert str(err.value) == message

    def test_empty_label_map_is_no_map(self):
        # a map without entries writes nothing, so it reads back as no map
        labelled = Cdag.build([0, 1], [(0, 1)], [0], [1], labels={0: "x"})
        for c in (Cdag.build([0, 1], [(0, 1)], [0], [1], labels={}), labelled.induced({1})):
            assert c.labels is None
            assert parse_cdag(format_cdag(c)) == c


def _traced(make):
    """``make()``, the bytes it left allocated, and its peak above the start."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = make()
        size, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, size - base, peak - base


class TestMemory:
    """Allocation guards on one generated stencil (V=1024, E=6348).

    The parsers stream their rows and the CDAG keeps one edge container,
    so a parse peaks at a small multiple of what it returns; the adjacency
    is a tuple per vertex.
    """

    @pytest.fixture(scope="class")
    def texts(self):
        cdag = gen_jacobi(16, 2, 4).cdag
        return format_cdag(cdag), format_trace("rbw", heuristic_game(cdag, 10)[0])

    def test_parse_cdag_peak(self, texts):
        _, size, peak = _traced(lambda: parse_cdag(texts[0]))
        assert peak <= 2.5 * size

    def test_parse_trace_peak(self, texts):
        _, size, peak = _traced(lambda: parse_trace(texts[1]))
        assert peak <= 1.4 * size

    def test_moves_have_no_instance_dict(self, texts):
        _, moves = parse_trace(texts[1])
        assert not hasattr(moves[0], "__dict__")
        assert not hasattr(PrbwMove("MoveUp", 0, level=1), "__dict__")

    def test_adjacency_size(self, texts):
        cdag, size, _ = _traced(lambda: parse_cdag(texts[0]))
        _, adjacency, _ = _traced(lambda: (cdag.preds, cdag.succs))
        assert adjacency <= 0.5 * size

    def test_parse_cdag_retains_under_100_bytes_an_edge(self, texts):
        # the successor tuples are the one edge container (about 71 bytes
        # an edge here); a second container of edge tuples does not fit
        cdag, size, _ = _traced(lambda: parse_cdag(texts[0]))
        assert size <= 100 * len(cdag.edges)


# every separator str.splitlines() knows, "\r\n" as one of them
_SEPARATORS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLines:
    @given(
        st.lists(st.sampled_from(_SEPARATORS + ["v", "1 2", " ", "\t", "#", "\xa0"])).map("".join),
        st.integers(1, 40),
    )
    @settings(max_examples=300, deadline=None)
    def test_chunks_keep_the_lines_and_numbers_of_splitlines(self, text, chunk):
        expected = [
            (lineno, raw.split())
            for lineno, raw in enumerate(text.splitlines(), 1)
            if raw.strip() and not raw.strip().startswith("#")
        ]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formats, "_CHUNK", chunk)
            assert list(formats._lines(text)) == expected


class TestText:
    """The writers join their lines a chunk at a time, with the bytes of one join."""

    @given(st.lists(st.sampled_from(["", " ", "e 0 1", "v 12 in label=x", "#"]), min_size=1), st.integers(1, 7))
    def test_chunks_keep_the_bytes_of_one_join(self, lines, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formats, "_JOIN", chunk)
            assert formats._text(iter(lines)) == "\n".join(lines) + "\n"

    @given(small_dags(tag_outputs=True), st.integers(1, 7))
    @settings(max_examples=50, deadline=None)
    def test_writers_at_every_chunk_size(self, c, chunk):
        trace = heuristic_game(c, 8)[0]
        prbw = [PrbwMove("Input", 1, unit=0), PrbwMove("MoveUp", 1, level=1, unit=0)] * 3
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formats, "_JOIN", 10**9)
            reference = format_cdag(c), format_trace("rbw", trace), format_trace("prbw", prbw)
            mp.setattr(formats, "_JOIN", chunk)
            assert (format_cdag(c), format_trace("rbw", trace), format_trace("prbw", prbw)) == reference


class TestAnnotations:
    def test_roundtrip_generator_sidecar(self):
        ann = gen_cg(2, 1, 2)
        text = format_annotations(Annotations(ann.slabs, ann.wavefront_anchors))
        parsed = parse_annotations(text)
        assert parsed.slabs == dict(ann.slabs)
        assert parsed.anchors == ann.wavefront_anchors

    def test_bad_record(self):
        with pytest.raises(FormatError):
            parse_annotations("slabs a 1 2\n")

    def test_frontier_record_rejected(self):
        # a frontier is the intersection of two slabs, so the sidecar does not state it
        with pytest.raises(FormatError) as exc:
            parse_annotations("frontier a b 1\nslab a 1\nslab b 1\n")
        assert str(exc.value) == "line 1: unknown record 'frontier'"

    @pytest.mark.parametrize(
        "text, message",
        [("slab a 1\nslab b 2\nslab a 3\n", "line 3: slab 'a' declared twice")],
    )
    def test_repeated_record_rejected(self, text, message):
        with pytest.raises(FormatError) as exc:
            parse_annotations(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "ann, name",
        [
            (Annotations(slabs={"": frozenset({1, 2})}), ""),
            (Annotations(slabs={"a b": frozenset({1})}), "a b"),
            (Annotations(slabs={"b\tc": frozenset({1})}), "b\tc"),
        ],
    )
    def test_unwritable_slab_name_rejected(self, ann, name):
        # `slab  1 2` would read back as slab '1' holding {2}
        with pytest.raises(FormatError) as exc:
            format_annotations(ann)
        assert str(exc.value) == f"slab name {name!r} is empty or contains whitespace"


class TestTraces:
    def test_rbw_roundtrip(self):
        ann = gen_jacobi(3, 1, 2, 3)
        trace, _ = heuristic_game(ann.cdag, 4)
        assert {m.kind for m in trace} == {"Input", "Output", "Compute", "Delete"}
        game, parsed = parse_trace(format_trace("rbw", trace))
        assert game == "rbw"
        assert parsed == trace

    def test_prbw_roundtrip(self):
        moves = [
            PrbwMove("Input", 1, unit=0),
            PrbwMove("Output", 1, unit=0),
            PrbwMove("RemoteGet", 2, unit=1, src_unit=0),
            PrbwMove("MoveUp", 2, level=1, unit=0),
            PrbwMove("MoveDown", 2, level=2, unit=0),
            PrbwMove("Compute", 3, unit=1),
            PrbwMove("Delete", 3, level=1, unit=1),
        ]
        assert parse_trace(format_trace("prbw", moves)) == ("prbw", moves)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(sorted(PRBW_MOVES)),
                st.integers(0, 9),
                st.none() | st.integers(0, 3),
                st.integers(0, 3),
                st.none() | st.integers(0, 3),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_every_prbw_move_survives_a_roundtrip(self, rows):
        # a trace file scores what the moves in memory score: no move may
        # hold a level or a source unit its line drops
        moves = []
        for kind, vertex, level, unit, src_unit in rows:
            try:
                moves.append(PrbwMove(kind, vertex, level=level, unit=unit, src_unit=src_unit))
            except GameError:
                continue
        text = format_trace("prbw", moves)
        assert parse_trace(text) == ("prbw", moves)

    @pytest.mark.parametrize(
        "kind, field, message",
        [
            ("Input", "level", "only a MoveUp, MoveDown or Delete names a level, not a Input"),
            ("Input", "src_unit", "only a RemoteGet names a source unit, not a Input"),
            ("Output", "level", "only a MoveUp, MoveDown or Delete names a level, not a Output"),
            ("Output", "src_unit", "only a RemoteGet names a source unit, not a Output"),
            ("RemoteGet", "level", "only a MoveUp, MoveDown or Delete names a level, not a RemoteGet"),
            ("RemoteGet", "src_unit", "a RemoteGet needs a source unit"),
            ("MoveUp", "level", "a MoveUp needs a level"),
            ("MoveUp", "src_unit", "only a RemoteGet names a source unit, not a MoveUp"),
            ("MoveDown", "level", "a MoveDown needs a level"),
            ("MoveDown", "src_unit", "only a RemoteGet names a source unit, not a MoveDown"),
            ("Compute", "level", "only a MoveUp, MoveDown or Delete names a level, not a Compute"),
            ("Compute", "src_unit", "only a RemoteGet names a source unit, not a Compute"),
            ("Delete", "level", "a Delete needs a level"),
            ("Delete", "src_unit", "only a RemoteGet names a source unit, not a Delete"),
        ],
    )
    def test_a_move_holds_exactly_the_fields_its_line_lists(self, kind, field, message):
        # R3 lists a source unit; R4, R5 and R7 list a level
        listed = {"RemoteGet": {"src_unit"}, "MoveUp": {"level"}, "MoveDown": {"level"}, "Delete": {"level"}}
        args = {f: 1 for f in listed.get(kind, set())}
        PrbwMove(kind, 0, unit=0, **args)
        if field in args:
            del args[field]
        else:
            args[field] = 1
        with pytest.raises(GameError) as exc:
            PrbwMove(kind, 0, unit=0, **args)
        assert str(exc.value) == message

    def test_prbw_unknown_rule(self):
        with pytest.raises(FormatError) as exc:
            parse_trace("trace prbw 1\nR1 0 0\nR8 0 0\n")
        assert str(exc.value) == "line 3: unknown rule 'R8'"

    @pytest.mark.parametrize("args", ["1 0", "1 0 1 2", "1 x 1"])
    def test_prbw_bad_arguments(self, args):
        with pytest.raises(FormatError) as exc:
            parse_trace(f"trace prbw 1\nR3 {args}\n")
        assert str(exc.value) == "line 2: bad arguments for R3"

    def test_bad_header(self):
        with pytest.raises(FormatError, match="header"):
            parse_trace("trace purple 1\nR1 0\n")

    def test_bad_arity(self):
        with pytest.raises(FormatError):
            parse_trace("trace rbw 1\nR1 0 7\n")


class TestHierarchy:
    def test_roundtrip(self):
        cfg = HierarchyConfig(
            units=(2, 1),
            capacities=(3, 8),
            parent={(1, 0): 0, (1, 1): 0},
            policy="exclusive",
        )
        assert parse_hierarchy(format_hierarchy(cfg)) == cfg

    def test_missing_levels(self):
        with pytest.raises(CdagError) as err:
            parse_hierarchy("hier 2\npolicy inclusive\n")
        assert str(err.value) == "invalid hierarchy: levels must be >= 1"

    def test_old_version_rejected(self):
        text = "hier 1\nlevels 1\nlevel 1 units 1 cap 3\nprocs 1\npolicy inclusive\n"
        with pytest.raises(FormatError) as err:
            parse_hierarchy(text)
        assert str(err.value) == "missing or bad header line, expected 'hier 2'"

    @pytest.mark.parametrize("record", ["levels 1", "procs 1"])
    def test_count_records_rejected(self, record):
        # L and the processor count follow from the level records
        with pytest.raises(FormatError) as err:
            parse_hierarchy(f"hier 2\nlevel 1 units 1 cap 3\n{record}\n")
        assert str(err.value) == f"line 3: unknown record {record!r}"

    def test_invalid_config_rejected(self):
        text = "hier 2\nlevel 1 units 1 cap 0\nlevel 2 units 2 cap 4\nparent 1 0 5\npolicy inclusive\n"
        with pytest.raises(CdagError) as err:
            parse_hierarchy(text)
        assert str(err.value) == (
            "invalid hierarchy: unit counts and capacities must be >= 1; "
            "level 1 has fewer units than level 2; parent of level 1 unit 0 out of range: 5"
        )

    @pytest.mark.parametrize(
        "parent, message",
        [
            ("parent 1 7 0", "parent given for level 1 unit 7, not a unit below level 2"),
            ("parent 2 0 5", "parent given for level 2 unit 0, not a unit below level 2"),
            ("parent 9 9 9", "parent given for level 9 unit 9, not a unit below level 2"),
        ],
    )
    def test_parent_of_no_unit_rejected(self, parent, message):
        text = (
            "hier 2\nlevel 1 units 2 cap 3\nlevel 2 units 1 cap 8\n"
            f"parent 1 0 0\nparent 1 1 0\n{parent}\n"
        )
        with pytest.raises(CdagError) as err:
            parse_hierarchy(text)
        assert str(err.value) == "invalid hierarchy: " + message

    @pytest.mark.parametrize(
        "records, message",
        [
            (
                "level 1 units 1 cap 3\nlevel 1 units 1 cap 4\n",
                "line 3: level 1 declared twice",
            ),
            (
                "level 1 units 2 cap 3\nlevel 2 units 1 cap 8\nparent 1 0 0\nparent 1 0 0\nparent 1 1 0\n",
                "line 5: parent of level 1 unit 0 declared twice",
            ),
            (
                "level 1 units 1 cap 3\npolicy inclusive\npolicy exclusive\n",
                "line 4: policy declared twice",
            ),
        ],
    )
    def test_repeated_record_rejected(self, records, message):
        with pytest.raises(FormatError) as err:
            parse_hierarchy("hier 2\n" + records)
        assert str(err.value) == message

    # sizes read from the file are checked before anything is built from
    # them; before that check these documents allocated without bound
    def test_huge_unit_count_rejected(self):
        text = f"hier 2\nlevel 1 units {10**18} cap 3\nlevel 2 units 1 cap 8\nparent 1 0 0\n"
        with pytest.raises(FormatError, match="'parent' record for each of the 1000000000000000000 units"):
            parse_hierarchy(text)

    def test_level_record_out_of_range_rejected(self):
        text = "hier 2\nlevel 1 units 1 cap 3\nlevel 3 units 1 cap 8\n"
        with pytest.raises(FormatError, match="one 'level' record per level"):
            parse_hierarchy(text)

    def test_missing_parent_record_rejected(self):
        text = "hier 2\nlevel 1 units 2 cap 3\nlevel 2 units 1 cap 8\nparent 1 0 0\n"
        with pytest.raises(FormatError, match="each of the 2 units below level 2, got 1"):
            parse_hierarchy(text)


class TestMachine:
    def test_roundtrip_shipped_file(self):
        from pebblebound import load_machine

        spec = load_machine("bgq")
        assert spec.n_nodes == 2048
        assert spec.vertical_balance == 0.052
        assert [c.capacity_words for c in spec.caches if c.name == "L2"] == [4 * 2**20]
        assert parse_machine(format_machine(spec)) == spec

    def test_missing_field(self):
        with pytest.raises(FormatError, match="missing"):
            parse_machine("machine 1\nname x\n")

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"name": "blue gene"}, "machine name 'blue gene' is empty or contains whitespace"),
            ({"name": ""}, "machine name '' is empty or contains whitespace"),
            ({"name": "bg\tq"}, "machine name 'bg\\tq' is empty or contains whitespace"),
            ({"caches": ("L 2",)}, "cache name 'L 2' is empty or contains whitespace"),
            ({"caches": ("",)}, "cache name '' is empty or contains whitespace"),
            ({"caches": ("L1", "L2", "L1")}, "cache 'L1' declared twice"),
        ],
        ids=["machine-space", "machine-empty", "machine-tab", "cache-space", "cache-empty", "cache-repeated"],
    )
    def test_unparsable_name_rejected(self, change, message):
        import dataclasses

        from pebblebound import load_machine

        spec = load_machine("bgq")
        if "caches" in change:
            change = {"caches": tuple(dataclasses.replace(spec.caches[0], name=n) for n in change["caches"])}
        with pytest.raises(FormatError) as exc:
            format_machine(dataclasses.replace(spec, **change))
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "record, message",
        [
            *((f"{key} 2", f"line 11: {key} declared twice")
              for key in ("name", "nodes", "cores", "mem_words", "vbal", "hbal", "raw_vbw", "raw_flops")),
            ("cache L1 32 shared 1", "line 11: cache 'L1' declared twice"),
        ],
    )
    def test_repeated_record_rejected(self, record, message):
        text = (
            "machine 1\nname m\nnodes 4\ncores 2\nmem_words 1024\ncache L1 64 shared 1\n"
            "vbal 0.05\nhbal 0.04\nraw_vbw 0.8\nraw_flops 8.0\n" + record + "\n"
        )
        with pytest.raises(FormatError) as exc:
            parse_machine(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "record",
        [
            "vbal 0.05x",
            "vbal nan",
            "vbal inf",
            "vbal 0",
            "hbal -0.049",
            "hbal 1e400",
            "cache L1 2048 shared 1 bal nan",
            "cache L1 2048 shared 1 bal 0",
            "raw_vbw 0.8x",
            "raw_flops 0",
        ],
    )
    def test_bad_float_rejected(self, record):
        fields = {
            "name": "x", "nodes": "1", "cores": "1", "mem_words": "8",
            "vbal": "0.05", "hbal": "0.05",
        }
        key = record.split()[0]
        fields.pop(key, None)
        text = "machine 1\n" + "".join(f"{k} {v}\n" for k, v in fields.items()) + record + "\n"
        with pytest.raises(FormatError, match="positive finite number"):
            parse_machine(text)


FUZZ_TOKEN = st.one_of(
    st.sampled_from("in out label=x units cap shared bal L1 nan inf -inf 1e400 0.05x 0.5".split()),
    st.integers(-2, 12).map(str),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3),
)

# one valid document per format; the fuzz test mutates their tokens
FUZZ_SEEDS = (
    (parse_cdag, CDAG_TEXT),
    (parse_annotations, "slab a 0 1\nslab b 1 2\nanchor 2\n"),
    (parse_trace, "trace rbw 1\nR1 0\nR3 1\nR2 1\nR4 0\n"),
    (parse_trace, "trace prbw 1\nR1 1 0\nR3 2 0 1\nR4 2 1 0\nR5 2 2 0\nR6 3 1\nR7 3 1 1\nR2 1 0\n"),
    (
        parse_hierarchy,
        "hier 2\nlevel 1 units 2 cap 3\nlevel 2 units 1 cap 8\n"
        "parent 1 0 0\nparent 1 1 0\npolicy inclusive\n",
    ),
    (
        parse_machine,
        "machine 1\nname m\nnodes 4\ncores 2\nmem_words 1024\ncache L1 64 shared 1 bal 2.0\n"
        "vbal 0.05\nhbal 0.04\nraw_vbw 0.8\nraw_flops 8.0\n",
    ),
)


@given(st.sampled_from(FUZZ_SEEDS), st.data())
@settings(max_examples=500, deadline=None, derandomize=True)
def test_parsers_raise_only_package_errors(seed, data):
    """Every parser returns or raises a package error on mutated input."""
    parser, text = seed
    rows = [line.split() for line in text.splitlines()]
    for _ in range(data.draw(st.integers(1, 3))):
        r = data.draw(st.integers(0, len(rows) - 1))
        c = data.draw(st.integers(0, len(rows[r])))
        token = data.draw(st.one_of(st.none(), FUZZ_TOKEN))
        if token is None:
            del rows[r][c:c + 1]
        else:
            rows[r][c:c + 1] = [token]
    try:
        parser("\n".join(" ".join(row) for row in rows))
    except PebbleboundError:
        pass
