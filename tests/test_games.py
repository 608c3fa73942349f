import pytest

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
from pebblebound.games import FlatGame, PrbwGame

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
        text = "hier 1\nlevels 1\nlevel 1 units 2 cap 3\nprocs 1\n"
        with pytest.raises(CdagError, match="^invalid hierarchy: level-1 unit count 2 must equal processor count 1$"):
            parse_hierarchy(text)

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


class TestLabelsSurviveSurgery:
    def test_induced_and_retag_keep_labels(self):
        from pebblebound import gen_composite

        ann = gen_composite(2)
        sub = ann.cdag.induced(ann.cdag.inputs | ann.slabs["outer_A"])
        assert all(sub.label(v) == ann.cdag.label(v) for v in sub.vertices)
        tagged = sub.retag((), ann.slabs["outer_A"])
        assert tagged.labels == sub.labels
