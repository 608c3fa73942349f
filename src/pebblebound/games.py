"""Trace validation and scoring for the pebble games, plus a heuristic player.

Three games are supported:

* ``rb``   -- classic two-pebble game: red = fast memory, blue = slow
  memory, recomputation allowed, strict tagging required.
* ``rbw``  -- red-blue-white game: a white pebble marks a vertex as fired,
  recomputation is forbidden, tagging is flexible, and completion requires
  white everywhere plus blue on every output.
* ``prbw`` -- hierarchical parallel variant: one shade of red pebble per
  memory unit at each level of a tree of caches, vertical moves between
  parent and child units, and horizontal remote-gets between top-level
  units.

One checker, :class:`FlatGame`, serves both flat games (``rb`` and
``rbw``); :class:`PrbwGame` checks the hierarchical one.  Validators are
incremental: any prefix of a valid trace is itself a valid partial game,
and violations name the offending step, rule, and vertex.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .cdag import Cdag
from .errors import CdagError, GameError, InfeasibleGameError

RBW_KINDS = ("Input", "Output", "Compute", "Delete")
PRBW_KINDS = ("Input", "Output", "RemoteGet", "MoveUp", "MoveDown", "Compute", "Delete")

# rule tags used in trace files and error messages
RBW_RULE = {"Input": "R1", "Output": "R2", "Compute": "R3", "Delete": "R4"}
PRBW_RULE = {
    "Input": "R1",
    "Output": "R2",
    "RemoteGet": "R3",
    "MoveUp": "R4",
    "MoveDown": "R5",
    "Compute": "R6",
    "Delete": "R7",
}


@dataclass(frozen=True)
class RbwMove:
    """One move of the flat games: Input, Output, Compute, or Delete."""

    kind: str
    vertex: int

    def __post_init__(self):
        if self.kind not in RBW_KINDS:
            raise GameError(f"unknown move kind {self.kind!r}")


@dataclass(frozen=True)
class PrbwMove:
    """One move of the hierarchical game.

    ``level``/``unit`` locate the pebble being placed or removed.
    ``src_unit`` names the counterpart: the source unit of a RemoteGet, or
    the child unit of a MoveDown when several children hold the value.
    """

    kind: str
    vertex: int
    level: int = 0
    unit: int = 0
    src_unit: Optional[int] = None

    def __post_init__(self):
        if self.kind not in PRBW_KINDS:
            raise GameError(f"unknown move kind {self.kind!r}")


@dataclass(frozen=True)
class HierarchyConfig:
    """An L-level memory tree: unit counts, capacities, and parent links.

    Level 1 units are the processors' register sets (one per processor);
    level L units are the main memories that exchange data with the blue
    backing store and with each other.  ``parent[(l, j)]`` names the level
    l+1 unit above unit j of level l.
    """

    levels: int
    units: tuple[int, ...]  # units[l-1] = number of level-l units
    capacities: tuple[int, ...]  # capacities[l-1] = words per level-l unit
    processors: int
    parent: dict[tuple[int, int], int] = field(default_factory=dict)
    policy: str = "inclusive"

    def validate(self) -> list[str]:
        v = []
        if self.levels < 1:
            v.append("levels must be >= 1")
            return v
        if len(self.units) != self.levels or len(self.capacities) != self.levels:
            v.append("units/capacities must list one entry per level")
            return v
        if self.policy not in ("inclusive", "exclusive"):
            v.append(f"unknown policy {self.policy!r}")
        if any(x < 1 for x in self.units) or any(x < 1 for x in self.capacities):
            v.append("unit counts and capacities must be >= 1")
        if self.units[0] != self.processors:
            v.append(f"level-1 unit count {self.units[0]} must equal processor count {self.processors}")
        for l in range(1, self.levels):
            if self.units[l - 1] < self.units[l]:
                v.append(f"level {l} has fewer units than level {l + 1}")
        for l in range(1, self.levels):
            for j in range(self.units[l - 1]):
                par = self.parent.get((l, j))
                if par is None:
                    v.append(f"missing parent for level {l} unit {j}")
                elif not 0 <= par < self.units[l]:
                    v.append(f"parent of level {l} unit {j} out of range: {par}")
        return v

    def check(self) -> None:
        violations = self.validate()
        if violations:
            raise CdagError("invalid hierarchy: " + "; ".join(violations))

    def children(self, level: int, unit: int) -> list[int]:
        """Child units (at level-1) of the given unit."""
        return [j for j in range(self.units[level - 2]) if self.parent[(level - 1, j)] == unit]

    def subtree_units(self, level: int, unit: int) -> list[tuple[int, int]]:
        """All (level, unit) pairs at or below the given unit."""
        out = [(level, unit)]
        frontier = [(level, unit)]
        while frontier:
            l, u = frontier.pop()
            if l > 1:
                for c in self.children(l, u):
                    out.append((l - 1, c))
                    frontier.append((l - 1, c))
        return out

    @classmethod
    def flat(cls, S: int, processors: int = 1) -> "HierarchyConfig":
        """Single-level degenerate hierarchy: the flat game with S pebbles."""
        return cls(levels=1, units=(processors,), capacities=(S,), processors=processors)


@dataclass
class IoTally:
    """Move counts extracted from a validated trace.

    Flat games fill ``loads``/``stores``.  The hierarchical game fills the
    per-unit maps: ``vertical_down[(l, u)]`` counts transfers from level
    l+1 into level-l unit u (rule R4, keyed at the receiving child),
    ``vertical_up[(l, u)]`` transfers from level-l unit u into its parent
    (rule R5, keyed at the sourcing child), ``horizontal[u]`` remote-gets
    received by top-level unit u, and ``computes[p]`` firings per
    processor.
    """

    loads: int = 0
    stores: int = 0
    vertical_down: dict[tuple[int, int], int] = field(default_factory=dict)
    vertical_up: dict[tuple[int, int], int] = field(default_factory=dict)
    horizontal: dict[int, int] = field(default_factory=dict)
    computes: dict[int, int] = field(default_factory=dict)

    @property
    def io(self) -> int:
        return self.loads + self.stores


# ---------------------------------------------------------------------------
# flat games
# ---------------------------------------------------------------------------


class FlatGame:
    """Incremental rule checker for the flat games, ``rb`` or ``rbw``.

    Both games track white pebbles (vertices fired or loaded so far); only
    ``rbw`` forbids recomputation and requires every vertex to be fired.
    """

    def __init__(self, cdag: Cdag, S: int, game: str):
        if game not in ("rb", "rbw"):
            raise GameError(f"unknown flat game {game!r}")
        cdag.check("hk" if game == "rb" else "rbw")
        if S < 1:
            raise GameError("S must be >= 1")
        self.cdag = cdag
        self.S = S
        self.recompute = game == "rb"
        self.red: set[int] = set()
        self.white: set[int] = set()
        self.blue: set[int] = set(cdag.inputs)
        self.tally = IoTally()
        self.step = 0

    def apply(self, move: RbwMove) -> None:
        self.step += 1
        v = move.vertex
        rule = RBW_RULE[move.kind]
        if v not in self.cdag.vertices:
            raise GameError("unknown vertex", step=self.step, rule=rule, vertex=v)
        if move.kind == "Input":
            if v not in self.blue:
                raise GameError("load requires a blue pebble", step=self.step, rule=rule, vertex=v)
            self._place(v, rule)
            self.white.add(v)
            self.tally.loads += 1
        elif move.kind == "Output":
            if v not in self.red:
                raise GameError("store requires a red pebble", step=self.step, rule=rule, vertex=v)
            self.blue.add(v)
            self.tally.stores += 1
        elif move.kind == "Compute":
            if v in self.cdag.inputs:
                raise GameError("input vertices cannot fire", step=self.step, rule=rule, vertex=v)
            if not self.recompute and v in self.white:
                raise GameError("recomputation forbidden", step=self.step, rule=rule, vertex=v)
            missing = self.cdag.preds[v] - self.red
            if missing:
                raise GameError(
                    f"predecessors without red pebbles: {sorted(missing)}",
                    step=self.step,
                    rule=rule,
                    vertex=v,
                )
            self._place(v, rule)
            self.white.add(v)
        else:  # Delete
            if v not in self.red:
                raise GameError("no red pebble to delete", step=self.step, rule=rule, vertex=v)
            self.red.discard(v)

    def _place(self, v: int, rule: str) -> None:
        if v not in self.red and len(self.red) + 1 > self.S:
            raise GameError(
                f"red capacity {self.S} exceeded", step=self.step, rule=rule, vertex=v
            )
        self.red.add(v)

    def finish(self) -> IoTally:
        if not self.recompute:
            unfired = sorted(set(self.cdag.vertices) - self.white)
            if unfired:
                raise GameError(f"vertices never fired/loaded: {unfired}")
        if not self.cdag.outputs <= self.blue:
            raise GameError(f"outputs not blue-pebbled: {sorted(self.cdag.outputs - self.blue)}")
        return self.tally


def _play(game, trace: Iterable) -> IoTally:
    for move in trace:
        game.apply(move)
    return game.finish()


def validate_rb(cdag: Cdag, S: int, trace: Iterable[RbwMove]) -> IoTally:
    """Check a trace against the recomputation-allowed rules and score it."""
    return _play(FlatGame(cdag, S, "rb"), trace)


def validate_rbw(cdag: Cdag, S: int, trace: Iterable[RbwMove]) -> IoTally:
    """Check a trace against the no-recomputation rules and score it."""
    return _play(FlatGame(cdag, S, "rbw"), trace)


# ---------------------------------------------------------------------------
# hierarchical game
# ---------------------------------------------------------------------------


class PrbwGame:
    """Incremental rule checker for the hierarchical parallel game."""

    def __init__(self, cdag: Cdag, config: HierarchyConfig):
        cdag.check("rbw")
        config.check()
        self.cdag = cdag
        self.cfg = config
        self.L = config.levels
        # pebbles[(level, unit)] = set of vertices holding that shade
        self.pebbles: dict[tuple[int, int], set[int]] = {
            (l, u): set() for l in range(1, self.L + 1) for u in range(config.units[l - 1])
        }
        self.white: set[int] = set()
        self.blue: set[int] = set(cdag.inputs)
        self.tally = IoTally()
        self.step = 0

    def _occupancy(self, level: int, unit: int) -> int:
        if self.cfg.policy == "exclusive":
            return len(self.pebbles[(level, unit)])
        held: set[int] = set()
        for lu in self.cfg.subtree_units(level, unit):
            held |= self.pebbles[lu]
        return len(held)

    def _check_unit(self, level: int, unit: int, rule: str) -> None:
        if not 1 <= level <= self.L:
            raise GameError(f"level {level} out of range", step=self.step, rule=rule)
        if not 0 <= unit < self.cfg.units[level - 1]:
            raise GameError(f"unit {unit} out of range at level {level}", step=self.step, rule=rule)

    def _place(self, v: int, level: int, unit: int, rule: str) -> None:
        self.pebbles[(level, unit)].add(v)
        # capacity must hold at the unit and, inclusively, at every ancestor
        l, u = level, unit
        while True:
            occ = self._occupancy(l, u)
            if occ > self.cfg.capacities[l - 1]:
                self.pebbles[(level, unit)].discard(v)
                raise GameError(
                    f"capacity {self.cfg.capacities[l - 1]} exceeded at level {l} unit {u}",
                    step=self.step,
                    rule=rule,
                    vertex=v,
                )
            if self.cfg.policy == "exclusive" or l == self.L:
                break
            u = self.cfg.parent[(l, u)]
            l += 1

    def apply(self, move: PrbwMove) -> None:
        self.step += 1
        v = move.vertex
        rule = PRBW_RULE[move.kind]
        if v not in self.cdag.vertices:
            raise GameError("unknown vertex", step=self.step, rule=rule, vertex=v)
        if move.kind == "Input":
            self._check_unit(self.L, move.unit, rule)
            if v not in self.blue:
                raise GameError("load requires a blue pebble", step=self.step, rule=rule, vertex=v)
            self._place(v, self.L, move.unit, rule)
            self.white.add(v)
            self.tally.loads += 1
        elif move.kind == "Output":
            self._check_unit(self.L, move.unit, rule)
            if v not in self.pebbles[(self.L, move.unit)]:
                raise GameError(
                    f"store requires a level-{self.L} pebble in unit {move.unit}",
                    step=self.step,
                    rule=rule,
                    vertex=v,
                )
            self.blue.add(v)
            self.tally.stores += 1
        elif move.kind == "RemoteGet":
            src, dst = move.src_unit, move.unit
            if src is None:
                raise GameError("remote-get needs a source unit", step=self.step, rule=rule, vertex=v)
            self._check_unit(self.L, src, rule)
            self._check_unit(self.L, dst, rule)
            if src == dst:
                raise GameError("remote-get needs distinct units", step=self.step, rule=rule, vertex=v)
            if v not in self.pebbles[(self.L, src)]:
                raise GameError(
                    f"no level-{self.L} pebble in source unit {src}",
                    step=self.step,
                    rule=rule,
                    vertex=v,
                )
            self._place(v, self.L, dst, rule)
            self.tally.horizontal[dst] = self.tally.horizontal.get(dst, 0) + 1
        elif move.kind == "MoveUp":
            # data moves toward the processors: child unit copies from parent
            level, unit = move.level, move.unit
            if not 1 <= level < self.L:
                raise GameError(f"move toward processors needs level < {self.L}", step=self.step, rule=rule)
            self._check_unit(level, unit, rule)
            par = self.cfg.parent[(level, unit)]
            if v not in self.pebbles[(level + 1, par)]:
                raise GameError(
                    f"parent unit {par} at level {level + 1} holds no pebble",
                    step=self.step,
                    rule=rule,
                    vertex=v,
                )
            self._place(v, level, unit, rule)
            key = (level, unit)
            self.tally.vertical_down[key] = self.tally.vertical_down.get(key, 0) + 1
        elif move.kind == "MoveDown":
            # data moves toward main memory: parent unit copies from a child
            level, unit = move.level, move.unit
            if not 2 <= level <= self.L:
                raise GameError("move toward memory needs level >= 2", step=self.step, rule=rule)
            self._check_unit(level, unit, rule)
            children = self.cfg.children(level, unit)
            holders = [c for c in children if v in self.pebbles[(level - 1, c)]]
            if move.src_unit is not None:
                if move.src_unit not in children:
                    raise GameError(
                        f"unit {move.src_unit} is not a child of level {level} unit {unit}",
                        step=self.step,
                        rule=rule,
                        vertex=v,
                    )
                if v not in self.pebbles[(level - 1, move.src_unit)]:
                    raise GameError(
                        f"child unit {move.src_unit} holds no pebble",
                        step=self.step,
                        rule=rule,
                        vertex=v,
                    )
                child = move.src_unit
            elif holders:
                child = holders[0]
            else:
                raise GameError(
                    f"no child of level {level} unit {unit} holds a pebble",
                    step=self.step,
                    rule=rule,
                    vertex=v,
                )
            self._place(v, level, unit, rule)
            key = (level - 1, child)
            self.tally.vertical_up[key] = self.tally.vertical_up.get(key, 0) + 1
        elif move.kind == "Compute":
            proc = move.unit
            self._check_unit(1, proc, rule)
            if v in self.cdag.inputs:
                raise GameError("input vertices cannot fire", step=self.step, rule=rule, vertex=v)
            if v in self.white:
                raise GameError("recomputation forbidden", step=self.step, rule=rule, vertex=v)
            missing = self.cdag.preds[v] - self.pebbles[(1, proc)]
            if missing:
                raise GameError(
                    f"predecessors not in processor {proc} registers: {sorted(missing)}",
                    step=self.step,
                    rule=rule,
                    vertex=v,
                )
            self._place(v, 1, proc, rule)
            self.white.add(v)
            self.tally.computes[proc] = self.tally.computes.get(proc, 0) + 1
        else:  # Delete
            level, unit = move.level, move.unit
            self._check_unit(level, unit, rule)
            if v not in self.pebbles[(level, unit)]:
                raise GameError("no pebble to delete", step=self.step, rule=rule, vertex=v)
            self.pebbles[(level, unit)].discard(v)

    def finish(self) -> IoTally:
        unfired = sorted(set(self.cdag.vertices) - self.white)
        if unfired:
            raise GameError(f"vertices never fired/loaded: {unfired}")
        if not self.cdag.outputs <= self.blue:
            raise GameError(f"outputs not blue-pebbled: {sorted(self.cdag.outputs - self.blue)}")
        return self.tally


def validate_prbw(cdag: Cdag, config: HierarchyConfig, trace: Iterable[PrbwMove]) -> IoTally:
    """Check a trace against the hierarchical rules and score it per unit."""
    return _play(PrbwGame(cdag, config), trace)


# ---------------------------------------------------------------------------
# heuristic upper-bound player
# ---------------------------------------------------------------------------


def heuristic_game(cdag: Cdag, S: int) -> tuple[list[RbwMove], IoTally]:
    """Play a deterministic valid game; its I/O tally is an upper bound.

    Scheduling: repeatedly fire the ready vertex with the fewest missing
    red operands (ties to the lowest id).  Eviction: Belady on a fixed
    reference topological order -- the victim is the resident value whose
    next use lies furthest in that order, stored first when it is still
    live and unstored; a dead resident (no unfired use, nothing left to
    store) goes first, lowest id first.  Values are never dropped while
    live and unstored, so the produced trace always validates.

    The state is kept incrementally.  A per-vertex count of unfired
    predecessors makes a vertex ready when it reaches 0; every ready vertex
    carries its count of operands without a red pebble, updated when one
    of its operands gains or loses a red pebble, and sits in a min-heap of
    ids for that count (lazy deletion), so the lowest non-empty bucket's
    top is the next vertex.  Each vertex's successors are sorted by
    reference position, and a pointer past the fired ones gives its next
    use.  Cost: O((V + E) log V) plus O(S) per step for the bucket scan,
    and O(S + d log V) per eviction of a value with d successors (every
    reload follows an eviction).
    """
    cdag.check("rbw")
    if S < 2:
        raise GameError("heuristic player needs S >= 2")
    for v in sorted(cdag.vertices):
        if cdag.in_degree(v) + 1 > S:
            raise InfeasibleGameError(
                f"S too small for in-degree: vertex {v} needs {cdag.in_degree(v) + 1} pebbles"
            )

    preds, succs, outputs = cdag.preds, cdag.succs, cdag.outputs
    order = cdag.topological_order
    pos = {v: i for i, v in enumerate(order)}
    fired = bytearray(len(order))  # by reference position
    # uses[v][nxt[v]] is the position of v's next unfired successor
    uses = {v: sorted(pos[w] for w in succs[v]) for v in order}
    nxt = dict.fromkeys(order, 0)
    waiting = {v: len(preds[v]) for v in order}  # unfired predecessors
    missing = {v: 0 for v in order if not preds[v]}  # ready -> operands off red
    buckets: list[list[int]] = [[] for _ in range(1 + max(waiting.values(), default=0))]
    buckets[0] = sorted(missing)
    trace: list[RbwMove] = []
    red: set[int] = set()
    blue: set[int] = set(cdag.inputs)

    def next_use(v: int) -> int:
        vs, i = uses[v], nxt[v]
        while i < len(vs) and fired[vs[i]]:
            i += 1
        nxt[v] = i
        return vs[i] if i < len(vs) else -1

    def red_changed(v: int, delta: int) -> None:
        for w in succs[v]:
            m = missing.get(w)
            if m is not None:
                missing[w] = m + delta
                heapq.heappush(buckets[m + delta], w)

    def make_room(pinned: set[int]) -> None:
        while len(red) >= S:
            dead, victim, victim_use = None, None, -2
            for u in red:
                if u in pinned:
                    continue
                use = next_use(u)
                if use == -1 and (u in blue or u not in outputs):
                    if dead is None or u < dead:
                        dead = u
                elif use > victim_use or (use == victim_use and u < victim):
                    victim, victim_use = u, use
            if dead is not None:
                victim = dead
            elif victim not in blue:  # a non-dead victim is live
                trace.append(RbwMove("Output", victim))
                blue.add(victim)
            trace.append(RbwMove("Delete", victim))
            red.discard(victim)
            red_changed(victim, 1)

    for _ in range(len(order)):
        for m, bucket in enumerate(buckets):
            while bucket and missing.get(bucket[0]) != m:
                heapq.heappop(bucket)
            if bucket:
                v = bucket[0]
                break
        del missing[v]
        pinned = red & preds[v]
        for p in sorted(preds[v] - red):
            make_room(pinned)
            trace.append(RbwMove("Input", p))
            red.add(p)
            red_changed(p, -1)
            pinned.add(p)
        make_room(pinned)
        if v in cdag.inputs:
            trace.append(RbwMove("Input", v))
        else:
            trace.append(RbwMove("Compute", v))
        red.add(v)
        fired[pos[v]] = 1
        for w in succs[v]:
            waiting[w] -= 1
            if waiting[w] == 0:
                missing[w] = off_red = len(preds[w] - red)
                heapq.heappush(buckets[off_red], w)

    for o in sorted(outputs - blue):
        trace.append(RbwMove("Output", o))
        blue.add(o)

    tally = validate_rbw(cdag, S, trace)
    return trace, tally
