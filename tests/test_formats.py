import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pebblebound import FormatError, GameError, PebbleboundError, gen_cg, gen_jacobi
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
from pebblebound.games import PRBW_RULE, HierarchyConfig, PrbwMove, RbwMove, heuristic_game

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


class TestAnnotations:
    def test_roundtrip_generator_sidecar(self):
        ann = gen_cg(2, 1, 2)
        text = format_annotations(Annotations(ann.slabs, ann.frontier_vertices, ann.wavefront_anchors))
        parsed = parse_annotations(text)
        assert parsed.slabs == dict(ann.slabs)
        assert parsed.frontiers == dict(ann.frontier_vertices)
        assert parsed.anchors == ann.wavefront_anchors

    def test_bad_record(self):
        with pytest.raises(FormatError):
            parse_annotations("slabs a 1 2\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("slab a 1\nslab b 2\nslab a 3\n", "line 3: slab 'a' declared twice"),
            ("frontier a b 1\nfrontier b a 1\nfrontier a b 2\n", "line 3: frontier 'a' 'b' declared twice"),
        ],
    )
    def test_repeated_record_rejected(self, text, message):
        with pytest.raises(FormatError) as exc:
            parse_annotations(text)
        assert str(exc.value) == message


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
                st.sampled_from(sorted(PRBW_RULE)),
                st.integers(0, 9),
                st.integers(0, 3),
                st.integers(0, 3),
                st.none() | st.integers(0, 3),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_every_prbw_move_survives_a_roundtrip(self, rows):
        # a trace file scores what the moves in memory score: no move may
        # have a source unit its line drops (R4, R5 and R7 carry a level;
        # the game reads no level for the other kinds)
        moves = []
        for kind, vertex, level, unit, src_unit in rows:
            level = level if kind in ("MoveUp", "MoveDown", "Delete") else 0
            try:
                moves.append(PrbwMove(kind, vertex, level=level, unit=unit, src_unit=src_unit))
            except GameError:
                continue
        text = format_trace("prbw", moves)
        assert parse_trace(text) == ("prbw", moves)

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
        with pytest.raises(FormatError, match="levels"):
            parse_hierarchy("hier 1\nprocs 1\n")

    def test_invalid_config_rejected(self):
        text = "hier 1\nlevels 1\nlevel 1 units 2 cap 3\nprocs 1\npolicy inclusive\n"
        with pytest.raises(Exception):
            parse_hierarchy(text)

    @pytest.mark.parametrize(
        "records, message",
        [
            (
                "levels 1\nlevel 1 units 0 cap 3\nprocs 1\n",
                "unit counts and capacities must be >= 1; level-1 unit count 0 must equal processor count 1",
            ),
            (
                "levels 2\nlevel 1 units 1 cap 0\nlevel 2 units 2 cap 4\nparent 1 0 5\nprocs 2\n",
                "unit counts and capacities must be >= 1; level-1 unit count 1 must equal processor count 2; "
                "level 1 has fewer units than level 2; parent of level 1 unit 0 out of range: 5",
            ),
            (
                "levels 2\nlevel 1 units 1 cap 2\nlevel 2 units 2 cap 4\nparent 1 0 0\nprocs 2\n",
                "level-1 unit count 1 must equal processor count 2; level 1 has fewer units than level 2",
            ),
        ],
    )
    def test_procs_mismatch_keeps_its_place_among_violations(self, records, message):
        with pytest.raises(PebbleboundError) as err:
            parse_hierarchy("hier 1\n" + records)
        assert str(err.value) == "invalid hierarchy: " + message

    # sizes read from the file are checked before anything is built from
    # them; before that check these documents allocated without bound
    def test_huge_levels_rejected(self):
        text = f"hier 1\nlevels {10**18}\nlevel 1 units 1 cap 3\nprocs 1\n"
        with pytest.raises(FormatError, match="one 'level' record per level"):
            parse_hierarchy(text)

    def test_huge_unit_count_rejected(self):
        text = (
            f"hier 1\nlevels 2\nlevel 1 units {10**18} cap 3\nlevel 2 units 1 cap 8\n"
            f"parent 1 0 0\nprocs {10**18}\n"
        )
        with pytest.raises(FormatError, match="'parent' record for each of the 1000000000000000000 units"):
            parse_hierarchy(text)

    def test_level_record_out_of_range_rejected(self):
        text = "hier 1\nlevels 2\nlevel 1 units 1 cap 3\nlevel 3 units 1 cap 8\nprocs 1\n"
        with pytest.raises(FormatError, match="one 'level' record per level"):
            parse_hierarchy(text)

    @pytest.mark.parametrize("levels", [0, -3])
    def test_nonpositive_levels_rejected(self, levels):
        text = f"hier 1\nlevels {levels}\nprocs 1\n"
        with pytest.raises(FormatError, match="levels >= 1"):
            parse_hierarchy(text)

    def test_missing_parent_record_rejected(self):
        text = "hier 1\nlevels 2\nlevel 1 units 2 cap 3\nlevel 2 units 1 cap 8\nparent 1 0 0\nprocs 2\n"
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
    (parse_annotations, "slab a 0 1\nslab b 2\nfrontier a b 1\nanchor 2\n"),
    (parse_trace, "trace rbw 1\nR1 0\nR3 1\nR2 1\nR4 0\n"),
    (parse_trace, "trace prbw 1\nR1 1 0\nR3 2 0 1\nR4 2 1 0\nR5 2 2 0\nR6 3 1\nR7 3 1 1\nR2 1 0\n"),
    (
        parse_hierarchy,
        "hier 1\nlevels 2\nlevel 1 units 2 cap 3\nlevel 2 units 1 cap 8\n"
        "parent 1 0 0\nparent 1 1 0\nprocs 2\npolicy inclusive\n",
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
