import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pebblebound import (
    CdagError,
    GameError,
    HierarchyConfig,
    InfeasibleGameError,
    PrbwMove,
    RbwMove,
    gen_chain,
    gen_composite,
    gen_jacobi,
    gen_matmul,
    gen_outer_product,
    heuristic_game,
    validate_prbw,
    validate_rb,
    validate_rbw,
)
from pebblebound.formats import parse_hierarchy
from pebblebound.games import PRBW_MOVES, FlatGame, PrbwGame

from conftest import make_cdag


def moves(*pairs):
    return [RbwMove(kind, v) for kind, v in pairs]


class TestValidateRb:
    def test_chain_k2_stream(self):
        c = gen_chain(2).cdag
        tally = validate_rb(c, 2, moves(("Input", 0), ("Compute", 1), ("Output", 1)))
        assert (tally.loads, tally.stores) == (1, 1)

    def test_compute_without_red_predecessor(self):
        c = gen_chain(2).cdag
        with pytest.raises(GameError, match="predecessors without red"):
            validate_rb(c, 2, moves(("Compute", 1)))

    def test_requires_hk_tagging(self):
        c = make_cdag(2, [(0, 1)], inputs=[0], outputs=[])
        with pytest.raises(CdagError):
            validate_rb(c, 2, [])

    def test_capacity_enforced(self):
        c = gen_outer_product(1).cdag
        with pytest.raises(GameError, match="capacity"):
            validate_rb(c, 1, moves(("Input", 0), ("Input", 1)))

    def test_recomputation_allowed(self):
        c = make_cdag(3, [(0, 1), (1, 2)], inputs=[0], outputs=[2])
        trace = moves(
            ("Input", 0),
            ("Compute", 1),
            ("Delete", 1),
            ("Compute", 1),  # legal here, forbidden in the white-pebble game
            ("Compute", 2),
            ("Output", 2),
        )
        tally = validate_rb(c, 3, trace)
        assert tally.io == 2

    def test_incomplete_game(self):
        c = gen_chain(2).cdag
        with pytest.raises(GameError, match="outputs not blue"):
            validate_rb(c, 2, moves(("Input", 0)))


class TestValidateRbw:
    def test_outer_product_minimal_game(self):
        ann = gen_outer_product(1)
        ids = ann.by_label()
        trace = moves(
            ("Input", ids["p[0]"]),
            ("Input", ids["q[0]"]),
            ("Compute", ids["pq[0,0]"]),
            ("Output", ids["pq[0,0]"]),
        )
        tally = validate_rbw(ann.cdag, 3, trace)
        assert (tally.loads, tally.stores) == (2, 1)
        assert tally.io == 3  # 2N + N^2 at N=1

    def test_recomputation_forbidden(self):
        c = make_cdag(3, [(0, 1), (1, 2)], inputs=[], outputs=[])
        trace = moves(("Compute", 0), ("Compute", 1), ("Delete", 0), ("Compute", 0))
        with pytest.raises(GameError, match="recomputation forbidden"):
            validate_rbw(c, 3, trace)

    def test_spilled_source_must_use_store_then_load(self):
        # untagged source fires once; to revisit it, spill and reload
        c = make_cdag(3, [(0, 1), (0, 2)], inputs=[], outputs=[])
        trace = moves(
            ("Compute", 0),
            ("Output", 0),
            ("Compute", 1),
            ("Delete", 0),
            ("Delete", 1),
            ("Input", 0),
            ("Compute", 2),
        )
        tally = validate_rbw(c, 2, trace)
        assert (tally.loads, tally.stores) == (1, 1)

    def test_empty_cdag_empty_trace_complete(self):
        c = make_cdag(0, [])
        tally = validate_rbw(c, 1, [])
        assert tally.io == 0

    def test_all_vertices_need_white(self):
        c = make_cdag(2, [], inputs=[0], outputs=[])
        with pytest.raises(GameError, match="never fired"):
            validate_rbw(c, 2, moves(("Input", 0)))

    def test_input_cannot_fire(self):
        c = make_cdag(1, [], inputs=[0], outputs=[])
        with pytest.raises(GameError, match="cannot fire"):
            validate_rbw(c, 2, moves(("Compute", 0)))

    def test_prefix_of_valid_trace_is_valid(self):
        ann = gen_jacobi(3, 1, 2, 3)
        trace, _ = heuristic_game(ann.cdag, 4)
        game = FlatGame(ann.cdag, 4, "rbw")
        for move in trace:  # no step may raise
            game.apply(move)

    def test_flat_checker_rejects_a_hierarchical_move(self):
        c = make_cdag(2, [(0, 1)], inputs=[0], outputs=[1])
        trace = [RbwMove("Input", 0), PrbwMove("MoveUp", 0, level=1)]
        with pytest.raises(GameError, match="^step 2 vertex 0: unknown move kind 'MoveUp'$"):
            validate_rbw(c, 2, trace)

    def test_flat_checker_rejects_unknown_game(self):
        with pytest.raises(GameError, match="unknown flat game"):
            FlatGame(gen_chain(2).cdag, 2, "prbw")

    def test_pebble_conservation_and_monotone_whites(self):
        ann = gen_matmul(2)
        trace, _ = heuristic_game(ann.cdag, 4)
        game = FlatGame(ann.cdag, 4, "rbw")
        whites = 0
        for move in trace:
            game.apply(move)
            assert len(game.red) <= 4
            assert len(game.white) >= whites
            whites = len(game.white)


class TestHeuristic:
    def test_chain_streams(self):
        _, tally = heuristic_game(gen_chain(10).cdag, 2)
        assert tally.io == 2

    def test_s_too_small_for_in_degree(self):
        with pytest.raises(InfeasibleGameError, match="in-degree"):
            heuristic_game(gen_matmul(2).cdag, 2)

    def test_s_must_be_at_least_two(self):
        with pytest.raises(GameError):
            heuristic_game(gen_chain(3).cdag, 1)

    def test_matmul_tally_counts_forced_traffic(self):
        _, tally = heuristic_game(gen_matmul(2).cdag, 4)
        assert tally.io >= 12  # 8 input loads + 4 output stores

    @pytest.mark.parametrize("S", [3, 4, 6, 12])
    def test_composite_traces_always_validate(self, S):
        ann = gen_composite(2)
        trace, tally = heuristic_game(ann.cdag, S)
        again = validate_rbw(ann.cdag, S, trace)
        assert again.io == tally.io

    def test_deterministic(self):
        a = heuristic_game(gen_jacobi(4, 1, 3, 3).cdag, 4)
        b = heuristic_game(gen_jacobi(4, 1, 3, 3).cdag, 4)
        assert a == b


def flat_config(S):
    return HierarchyConfig.flat(S)


def two_level_config(S1=2, S2=8, procs=2):
    return HierarchyConfig(
        units=(procs, 1),
        capacities=(S1, S2),
        parent={(1, j): 0 for j in range(procs)},
    )


def two_node_config(S1=3):
    # two processors, each with private registers and its own main memory
    return HierarchyConfig(
        units=(2, 2),
        capacities=(S1, 8),
        parent={(1, 0): 0, (1, 1): 1},
    )


class TestHierarchyConfig:
    def test_valid_configs(self):
        assert flat_config(3).validate() == []
        assert two_level_config().validate() == []
        assert two_node_config().validate() == []

    def test_level1_units_must_equal_processors(self):
        # a file states the processor count once, as the level-1 unit count
        assert parse_hierarchy("hier 2\nlevel 1 units 2 cap 3\n").units == (2,)

    def test_missing_parent_flagged(self):
        cfg = HierarchyConfig(units=(2, 1), capacities=(2, 4), parent={(1, 0): 0})
        assert any("missing parent" in v for v in cfg.validate())

    def test_unit_counts_must_not_grow_upward(self):
        cfg = HierarchyConfig(
            units=(1, 2), capacities=(2, 4),
            parent={(1, 0): 0},
        )
        assert any("fewer units" in v for v in cfg.validate())


class TestValidatePrbw:
    def test_degenerates_to_flat_game(self):
        ann = gen_outer_product(1)
        ids = ann.by_label()
        flat = moves(
            ("Input", ids["p[0]"]),
            ("Input", ids["q[0]"]),
            ("Compute", ids["pq[0,0]"]),
            ("Output", ids["pq[0,0]"]),
        )
        mapped = [_map_flat_move(m) for m in flat]
        t_flat = validate_rbw(ann.cdag, 3, flat)
        t_hier = validate_prbw(ann.cdag, flat_config(3), mapped)
        assert (t_hier.loads, t_hier.stores) == (t_flat.loads, t_flat.stores)
        assert t_hier.computes == {0: 1}

    def test_remote_get_counted_at_destination(self):
        # two independent 2-chains, one computed per node; node 1 fetches
        # its input from node 0's memory instead of the backing store
        c = make_cdag(4, [(0, 1), (2, 3)], inputs=[0, 2], outputs=[1, 3])
        cfg = two_node_config()
        trace = [
            PrbwMove("Input", 0, unit=0),
            PrbwMove("MoveUp", 0, level=1, unit=0),
            PrbwMove("Compute", 1, unit=0),
            PrbwMove("Input", 2, unit=0),
            PrbwMove("RemoteGet", 2, unit=1, src_unit=0),
            PrbwMove("MoveUp", 2, level=1, unit=1),
            PrbwMove("Compute", 3, unit=1),
            PrbwMove("MoveDown", 1, level=2, unit=0),
            PrbwMove("Output", 1, unit=0),
            PrbwMove("MoveDown", 3, level=2, unit=1),
            PrbwMove("Output", 3, unit=1),
        ]
        tally = validate_prbw(c, cfg, trace)
        assert tally.horizontal == {1: 1}
        assert tally.loads == 2 and tally.stores == 2
        assert tally.vertical_down == {(1, 0): 1, (1, 1): 1}
        assert tally.vertical_up == {(1, 0): 1, (1, 1): 1}
        assert tally.computes == {0: 1, 1: 1}

    def test_compute_needs_operands_in_own_registers(self):
        c = make_cdag(2, [(0, 1)], inputs=[0], outputs=[1])
        cfg = two_level_config(S1=2, S2=4, procs=2)
        trace = [
            PrbwMove("Input", 0, unit=0),
            PrbwMove("MoveUp", 0, level=1, unit=1),  # lands in processor 1
            PrbwMove("Compute", 1, unit=0),  # processor 0 lacks the operand
        ]
        with pytest.raises(GameError, match="registers"):
            validate_prbw(c, cfg, trace)

    def test_capacity_violation_names_unit_and_step(self):
        c = make_cdag(3, [], inputs=[0, 1, 2], outputs=[0, 1, 2])
        cfg = HierarchyConfig(units=(1,), capacities=(2,))
        trace = [PrbwMove("Input", v, unit=0) for v in range(3)]
        with pytest.raises(GameError, match="capacity 2 exceeded at level 1 unit 0"):
            validate_prbw(c, cfg, trace)

    @pytest.mark.parametrize("kind", ["Input", "Output", "MoveUp", "MoveDown", "Compute", "Delete"])
    def test_only_remote_get_names_a_source_unit(self, kind):
        # no trace line but R3 carries a source unit, so no other move has one
        with pytest.raises(GameError, match=f"^only a RemoteGet names a source unit, not a {kind}$"):
            PrbwMove(kind, 0, level=2, unit=0, src_unit=1)

    def test_remote_get_needs_a_source_unit(self):
        with pytest.raises(GameError, match="^a RemoteGet needs a source unit$"):
            PrbwMove("RemoteGet", 0, unit=1)

    def test_inclusive_capacity_counts_descendants(self):
        c = make_cdag(2, [], inputs=[0, 1], outputs=[0, 1])
        cfg = HierarchyConfig(
            units=(1, 1), capacities=(1, 1),
            parent={(1, 0): 0}, policy="inclusive",
        )
        trace = [
            PrbwMove("Input", 0, unit=0),
            PrbwMove("MoveUp", 0, level=1, unit=0),
            PrbwMove("Delete", 0, level=2, unit=0),
            # inclusive: the register pebble still occupies the parent
            PrbwMove("Input", 1, unit=0),
        ]
        with pytest.raises(GameError, match="capacity"):
            validate_prbw(c, cfg, trace)
        exclusive = HierarchyConfig(
            units=(1, 1), capacities=(1, 1),
            parent={(1, 0): 0}, policy="exclusive",
        )
        game = PrbwGame(c, exclusive)
        for m in trace:
            game.apply(m)  # legal under exclusive accounting


def _map_flat_move(m: RbwMove) -> PrbwMove:
    if m.kind == "Input":
        return PrbwMove("Input", m.vertex, unit=0)
    if m.kind == "Output":
        return PrbwMove("Output", m.vertex, unit=0)
    if m.kind == "Compute":
        return PrbwMove("Compute", m.vertex, unit=0)
    return PrbwMove("Delete", m.vertex, level=1, unit=0)


class TestPrbwEdgeRules:
    def test_move_toward_processors_rejected_at_top_level(self):
        c = make_cdag(1, [], inputs=[0], outputs=[0])
        cfg = two_level_config(procs=1)
        with pytest.raises(GameError, match="level"):
            validate_prbw(c, cfg, [PrbwMove("Input", 0, unit=0), PrbwMove("MoveUp", 0, level=2, unit=0)])

    def test_move_toward_memory_rejected_at_register_level(self):
        c = make_cdag(1, [], inputs=[0], outputs=[0])
        cfg = two_level_config(procs=1)
        with pytest.raises(GameError, match="level"):
            validate_prbw(c, cfg, [PrbwMove("MoveDown", 0, level=1, unit=0)])

    # each message states the whole range: a level below it (0) or above it
    # (L + 1 = 3) reads as a violation of what it names
    @pytest.mark.parametrize(
        "kind, level, message",
        [
            ("MoveUp", 0, "step 2 R4: move toward processors needs 1 <= level < 2"),
            ("MoveUp", 3, "step 2 R4: move toward processors needs 1 <= level < 2"),
            ("MoveDown", 0, "step 2 R5: move toward memory needs 2 <= level <= 2"),
            ("MoveDown", 3, "step 2 R5: move toward memory needs 2 <= level <= 2"),
        ],
    )
    def test_level_out_of_range_names_the_whole_range(self, kind, level, message):
        c = make_cdag(1, [], inputs=[0], outputs=[0])
        trace = [PrbwMove("Input", 0, unit=0), PrbwMove(kind, 0, level=level, unit=0)]
        with pytest.raises(GameError) as err:
            validate_prbw(c, two_level_config(procs=1), trace)
        assert str(err.value) == message

    def test_remote_get_needs_distinct_units(self):
        c = make_cdag(1, [], inputs=[0], outputs=[0])
        cfg = two_node_config()
        trace = [PrbwMove("Input", 0, unit=0), PrbwMove("RemoteGet", 0, unit=0, src_unit=0)]
        with pytest.raises(GameError, match="distinct"):
            validate_prbw(c, cfg, trace)

    def test_delete_without_pebble(self):
        c = make_cdag(1, [], inputs=[0], outputs=[0])
        cfg = two_level_config(procs=1)
        with pytest.raises(GameError, match="no pebble"):
            validate_prbw(c, cfg, [PrbwMove("Delete", 0, level=1, unit=0)])

    def test_move_down_without_explicit_child_picks_lowest_holder(self):
        c = make_cdag(1, [], inputs=[0], outputs=[0])
        cfg = two_level_config(S1=2, S2=4, procs=2)
        trace = [
            PrbwMove("Input", 0, unit=0),
            PrbwMove("MoveUp", 0, level=1, unit=1),
            PrbwMove("MoveDown", 0, level=2, unit=0),  # child derived: unit 1
            PrbwMove("Output", 0, unit=0),
        ]
        tally = validate_prbw(c, cfg, trace)
        assert tally.vertical_up == {(1, 1): 1}

    def test_move_down_charges_lowest_id_holder(self):
        # both processors hold vertex 0; once processor 0 drops it, the
        # second copy toward memory is charged to processor 1
        c = make_cdag(1, [], inputs=[0], outputs=[0])
        cfg = two_level_config(S1=2, S2=4, procs=2)
        trace = [
            PrbwMove("Input", 0, unit=0),
            PrbwMove("MoveUp", 0, level=1, unit=0),
            PrbwMove("MoveUp", 0, level=1, unit=1),
            PrbwMove("MoveDown", 0, level=2, unit=0),
            PrbwMove("Delete", 0, level=1, unit=0),
            PrbwMove("MoveDown", 0, level=2, unit=0),
        ]
        assert validate_prbw(c, cfg, trace).vertical_up == {(1, 0): 1, (1, 1): 1}

    def test_unit_sets_are_made_on_first_use(self):
        # a one-level hierarchy needs no parent records, so a file may declare
        # any processor count; memory must follow the units a trace touches
        import tracemalloc

        units = 10**6
        cfg = HierarchyConfig(units=(units,), capacities=(2,))
        last = units - 1
        trace = [
            PrbwMove("Input", 0, unit=last),
            PrbwMove("Compute", 1, unit=last),
            PrbwMove("Delete", 0, level=1, unit=last),
            PrbwMove("Compute", 2, unit=last),
            PrbwMove("Output", 2, unit=last),
        ]
        tracemalloc.start()
        try:
            tally = validate_prbw(gen_chain(3).cdag, cfg, trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tally.loads, tally.stores, tally.computes) == (1, 1, {last: 2})
        assert peak < 1 << 20
        with pytest.raises(GameError, match=f"step 1 R1: unit {units} out of range at level 1"):
            validate_prbw(gen_chain(3).cdag, cfg, [PrbwMove("Input", 0, unit=units)])


def _bad_config(**fields):
    return HierarchyConfig(**{"units": (1, 1), "capacities": (2, 4), "parent": {(1, 0): 0}, **fields})


class TestRuleViolationMessages:
    """Each rule a checker enforces, named with its step, rule and vertex."""

    @pytest.mark.parametrize(
        "validate, config, trace, message",
        [
            (validate_rbw, 2, moves(("Input", 9)), "step 1 R1 vertex 9: unknown vertex"),
            (validate_rbw, 2, moves(("Input", 0), ("Input", 1)), "step 2 R1 vertex 1: load requires a blue pebble"),
            (validate_rb, 2, moves(("Output", 0)), "step 1 R2 vertex 0: store requires a red pebble"),
            (validate_rbw, 2, moves(("Input", 0), ("Delete", 1)), "step 2 R4 vertex 1: no red pebble to delete"),
            (validate_prbw, two_level_config(procs=1), [PrbwMove("Compute", 9, unit=0)],
             "step 1 R6 vertex 9: unknown vertex"),
            (validate_prbw, two_level_config(procs=1), [PrbwMove("Input", 1, unit=0)],
             "step 1 R1 vertex 1: load requires a blue pebble"),
            (validate_prbw, two_level_config(procs=1), [PrbwMove("Input", 0, unit=0), PrbwMove("Output", 1, unit=0)],
             "step 2 R2 vertex 1: store requires a level-2 pebble in unit 0"),
            (validate_prbw, two_node_config(), [PrbwMove("Input", 0, unit=1), PrbwMove("RemoteGet", 0, unit=1, src_unit=0)],
             "step 2 R3 vertex 0: no level-2 pebble in source unit 0"),
            (validate_prbw, two_level_config(procs=1), [PrbwMove("MoveUp", 0, level=1, unit=0)],
             "step 1 R4 vertex 0: parent unit 0 at level 2 holds no pebble"),
            (validate_prbw, two_level_config(procs=2), [PrbwMove("Input", 0, unit=0), PrbwMove("MoveDown", 0, level=2, unit=0)],
             "step 2 R5 vertex 0: no child of level 2 unit 0 holds a pebble"),
            (validate_prbw, two_level_config(procs=1), [PrbwMove("Compute", 0, unit=0)],
             "step 1 R6 vertex 0: input vertices cannot fire"),
            (validate_prbw, _bad_config(capacities=(2,)), [],
             "invalid hierarchy: units/capacities must list one entry per level"),
            (validate_prbw, _bad_config(policy="lru"), [], "invalid hierarchy: unknown policy 'lru'"),
        ],
        ids=[
            "rbw-unknown-vertex", "rbw-load-without-blue", "rb-store-without-red", "rbw-delete-without-red",
            "prbw-unknown-vertex", "prbw-load-without-blue", "prbw-store-without-level-L",
            "prbw-remote-get-from-empty-unit", "prbw-move-up-from-empty-parent",
            "prbw-move-down-from-empty-children", "prbw-input-fires",
            "config-capacities-length", "config-unknown-policy",
        ],
    )
    def test_message(self, validate, config, trace, message):
        c = make_cdag(2, [(0, 1)], inputs=[0], outputs=[1])
        with pytest.raises((GameError, CdagError)) as err:
            validate(c, config, trace)
        assert str(err.value) == message


@st.composite
def hierarchies(draw):
    """Memory trees of one to three levels, one to six units a level, either policy."""
    levels = draw(st.integers(1, 3))
    units = [draw(st.integers(1, 2))]
    for _ in range(levels - 1):
        units.insert(0, units[0] + draw(st.integers(0, 2)))
    parent = {
        (l, j): draw(st.integers(0, units[l] - 1)) for l in range(1, levels) for j in range(units[l - 1])
    }
    return HierarchyConfig(
        units=tuple(units),
        capacities=tuple(draw(st.integers(1, 3)) for _ in units),
        parent=parent,
        policy=draw(st.sampled_from(["inclusive", "exclusive"])),
    )


def reference_capacity_error(cfg, held, v, level, unit):
    """The message placing v at the unit must raise, or None.

    Occupancy by definition: after the placement, a unit holds the union of
    the pebble sets of every unit in its subtree (inclusive) or its own set
    (exclusive).  Only the units whose scope holds the placed pebble can go
    over, one a level, and the lowest one is named.
    """
    after = {lu: set(vs) for lu, vs in held.items()}
    after.setdefault((level, unit), set()).add(v)
    for l in range(1, len(cfg.units) + 1):
        for u in range(cfg.units[l - 1]):
            scope = {(l, u)}
            if cfg.policy == "inclusive":
                for k in range(l - 1, 0, -1):
                    scope |= {(k, j) for j in range(cfg.units[k - 1]) if (k + 1, cfg.parent[(k, j)]) in scope}
            occupancy = len(set().union(*(after.get(lu, ()) for lu in scope)))
            if occupancy > cfg.capacities[l - 1]:
                return f"capacity {cfg.capacities[l - 1]} exceeded at level {l} unit {u}"
    return None


def likely_moves(game, held):
    """Moves of every kind that mostly pass the rules other than capacity.

    Built from the reference's pebbles and the game's blue set; Inputs of
    the CDAG's inputs are always among them.
    """
    cfg, L, c = game.cfg, game.L, game.cdag
    out = [PrbwMove("Input", v, unit=u) for u in range(cfg.units[-1]) for v in sorted(game.blue)]
    for (l, u), vs in sorted(held.items()):
        for v in sorted(vs):
            out.append(PrbwMove("Delete", v, level=l, unit=u))
            if l == L:
                out.append(PrbwMove("Output", v, unit=u))
                out += [PrbwMove("RemoteGet", v, unit=d, src_unit=u) for d in range(cfg.units[-1]) if d != u]
            else:
                out.append(PrbwMove("MoveDown", v, level=l + 1, unit=cfg.parent[(l, u)]))
            if l > 1:
                out += [PrbwMove("MoveUp", v, level=l - 1, unit=j) for j in cfg.children(l, u)]
    for u in range(cfg.units[0]):
        ready = [v for v in sorted(c.vertices - c.inputs) if held.get((1, u), set()).issuperset(c.preds[v])]
        out += [PrbwMove("Compute", v, unit=u) for v in ready]
    return out


class TestPrbwCapacityReference:
    @given(hierarchies(), st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_capacity_matches_occupancy_by_definition(self, cfg, data):
        c = make_cdag(6, [(0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5)], inputs=[0, 1], outputs=[4, 5])
        game = PrbwGame(c, cfg)
        held: dict[tuple[int, int], set[int]] = {}  # the reference's own pebbles
        for _ in range(data.draw(st.integers(10, 40))):
            move = data.draw(st.sampled_from(likely_moves(game, held)))
            v, unit = move.vertex, move.unit
            level = 1 if move.kind == "Compute" else move.level or game.L
            placing = move.kind not in ("Output", "Delete")
            expected = reference_capacity_error(cfg, held, v, level, unit) if placing else None
            try:
                game.apply(move)
                got = None
            except GameError as err:
                got = err.message
            # capacity is the last rule a placement checks: a move that passes
            # the others is accepted exactly when the reference accepts it
            if got is None or got.startswith("capacity"):
                assert got == expected, move
            if got is None and placing:
                held.setdefault((level, unit), set()).add(v)
            elif got is None and move.kind == "Delete":
                held[(level, unit)].discard(v)
            assert {lu: vs for lu, vs in game.pebbles.items() if vs} == {lu: vs for lu, vs in held.items() if vs}


class TestLabelsSurviveSurgery:
    def test_induced_and_retag_keep_labels(self):
        from pebblebound import gen_composite

        ann = gen_composite(2)
        sub = ann.cdag.induced(ann.cdag.inputs | ann.slabs["outer_A"])
        assert all(sub.label(v) == ann.cdag.label(v) for v in sub.vertices)
        tagged = sub.retag((), ann.slabs["outer_A"])
        assert tagged.labels == sub.labels
