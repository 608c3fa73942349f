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
incremental: any prefix of a valid trace is itself a valid partial game.
A checker's ``apply`` names only the vertex a violation concerns; the
``validate_*`` functions, which walk the trace, add its step and rule.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .cdag import Cdag
from .errors import CdagError, GameError, InfeasibleGameError

# move kind -> rule tag, as trace files and error messages write it; the
# keys are every kind a move of that game may have
RBW_RULE = {"Input": "R1", "Output": "R2", "Compute": "R3", "Delete": "R4"}
# the same for the hierarchical game, with the PrbwMove fields that the
# kind's trace line lists after its rule tag
PRBW_MOVES = {
    "Input": ("R1", ("vertex", "unit")),
    "Output": ("R2", ("vertex", "unit")),
    "RemoteGet": ("R3", ("vertex", "src_unit", "unit")),
    "MoveUp": ("R4", ("vertex", "level", "unit")),
    "MoveDown": ("R5", ("vertex", "level", "unit")),
    "Compute": ("R6", ("vertex", "unit")),
    "Delete": ("R7", ("vertex", "level", "unit")),
}


@dataclass(frozen=True, slots=True)
class RbwMove:
    """One move of the flat games: Input, Output, Compute, or Delete."""

    kind: str
    vertex: int

    def __post_init__(self):
        if self.kind not in RBW_RULE:
            raise GameError(f"unknown move kind {self.kind!r}")


@dataclass(frozen=True, slots=True)
class PrbwMove:
    """One move of the hierarchical game.

    ``level``/``unit`` locate the pebble being placed or removed, and
    ``src_unit`` is the source unit of a RemoteGet.  A move sets ``level``
    and ``src_unit`` exactly when its trace line lists them
    (:data:`PRBW_MOVES`).  A MoveDown copies from the lowest-id child that
    holds the value, since its trace line names no child.
    """

    kind: str
    vertex: int
    level: Optional[int] = None
    unit: int = 0
    src_unit: Optional[int] = None

    def __post_init__(self):
        if self.kind not in PRBW_MOVES:
            raise GameError(f"unknown move kind {self.kind!r}")
        for name, what in (("src_unit", "source unit"), ("level", "level")):
            unset = getattr(self, name) is None
            if unset == (name in PRBW_MOVES[self.kind][1]):
                if unset:
                    raise GameError(f"a {self.kind} needs a {what}")
                *rest, last = [k for k, (_, line) in PRBW_MOVES.items() if name in line]
                kinds = f"{', '.join(rest)} or {last}" if rest else last
                raise GameError(f"only a {kinds} names a {what}, not a {self.kind}")


@dataclass(frozen=True)
class HierarchyConfig:
    """An L-level memory tree: unit counts, capacities, and parent links.

    L is ``len(units)``.  Level 1 units are the processors' register sets
    (one per processor, so ``units[0]`` is the processor count); level L
    units are the main memories that exchange data with the blue backing
    store and with each other.  ``parent[(l, j)]`` names the level l+1 unit
    above unit j of level l.  ``policy`` says what a unit's capacity covers:
    every pebble in its subtree (``inclusive``) or its own (``exclusive``).
    """

    units: tuple[int, ...]  # units[l-1] = number of level-l units
    capacities: tuple[int, ...]  # capacities[l-1] = words per level-l unit
    parent: dict[tuple[int, int], int] = field(default_factory=dict)
    policy: str = "inclusive"

    def validate(self) -> list[str]:
        v = []
        levels = len(self.units)
        if levels < 1:
            v.append("levels must be >= 1")
            return v
        if len(self.capacities) != levels:
            v.append("units/capacities must list one entry per level")
            return v
        if self.policy not in ("inclusive", "exclusive"):
            v.append(f"unknown policy {self.policy!r}")
        if any(x < 1 for x in self.units) or any(x < 1 for x in self.capacities):
            v.append("unit counts and capacities must be >= 1")
        for l in range(1, levels):
            if self.units[l - 1] < self.units[l]:
                v.append(f"level {l} has fewer units than level {l + 1}")
        for l in range(1, levels):
            for j in range(self.units[l - 1]):
                par = self.parent.get((l, j))
                if par is None:
                    v.append(f"missing parent for level {l} unit {j}")
                elif not 0 <= par < self.units[l]:
                    v.append(f"parent of level {l} unit {j} out of range: {par}")
        for l, j in sorted(self.parent):
            if not (1 <= l < levels and 0 <= j < self.units[l - 1]):
                v.append(f"parent given for level {l} unit {j}, not a unit below level {levels}")
        return v

    def check(self) -> None:
        violations = self.validate()
        if violations:
            raise CdagError("invalid hierarchy: " + "; ".join(violations))

    def children(self, level: int, unit: int) -> list[int]:
        """Child units (at level-1) of the given unit."""
        return [j for j in range(self.units[level - 2]) if self.parent[(level - 1, j)] == unit]

    @classmethod
    def flat(cls, S: int) -> "HierarchyConfig":
        """Single-level degenerate hierarchy: the flat game with S pebbles."""
        return cls(units=(1,), capacities=(S,))


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

    rules = RBW_RULE  # _play names a violation's rule from this table

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

    def apply(self, move: RbwMove) -> None:
        v = move.vertex
        if v not in self.cdag.vertices:
            raise GameError("unknown vertex", vertex=v)
        if move.kind == "Input":
            if v not in self.blue:
                raise GameError("load requires a blue pebble", vertex=v)
            self._place(v)
            self.white.add(v)
            self.tally.loads += 1
        elif move.kind == "Output":
            if v not in self.red:
                raise GameError("store requires a red pebble", vertex=v)
            self.blue.add(v)
            self.tally.stores += 1
        elif move.kind == "Compute":
            if v in self.cdag.inputs:
                raise GameError("input vertices cannot fire", vertex=v)
            if not self.recompute and v in self.white:
                raise GameError("recomputation forbidden", vertex=v)
            missing = [u for u in self.cdag.preds[v] if u not in self.red]
            if missing:
                raise GameError(f"predecessors without red pebbles: {missing}", vertex=v)
            self._place(v)
            self.white.add(v)
        elif move.kind == "Delete":
            if v not in self.red:
                raise GameError("no red pebble to delete", vertex=v)
            self.red.discard(v)
        else:  # a hierarchical move has kinds no flat game has
            raise GameError(f"unknown move kind {move.kind!r}", vertex=v)

    def _place(self, v: int) -> None:
        if v not in self.red and len(self.red) + 1 > self.S:
            raise GameError(f"red capacity {self.S} exceeded", vertex=v)
        self.red.add(v)

    def finish(self) -> IoTally:
        if not self.recompute:
            unfired = sorted(self.cdag.vertices - self.white)
            if unfired:
                raise GameError(f"vertices never fired/loaded: {unfired}")
        if not self.cdag.outputs <= self.blue:
            raise GameError(f"outputs not blue-pebbled: {sorted(self.cdag.outputs - self.blue)}")
        return self.tally


def _play(game, trace: Iterable) -> IoTally:
    """Apply a trace move by move, locating a violation by step and rule, then finish."""
    for step, move in enumerate(trace, 1):
        try:
            game.apply(move)
        except GameError as err:
            raise GameError(err.message, step, game.rules.get(move.kind), err.vertex) from None
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
    """Incremental rule checker for the hierarchical parallel game.

    A pebble uses the capacity of each unit :meth:`_charged` names.  Each
    unit counts, per vertex, the pebbles that charge it: its occupancy is
    the length of that map, and a placement or delete walks at most L units.
    """

    rules = {kind: rule for kind, (rule, _) in PRBW_MOVES.items()}
    recompute = False  # finish is FlatGame's, whose rbw branch is this game's rule

    def __init__(self, cdag: Cdag, config: HierarchyConfig):
        cdag.check("rbw")
        config.check()
        self.cdag = cdag
        self.cfg = config
        self.L = len(config.units)
        # pebbles[(level, unit)] = vertices holding that shade; a unit's set
        # and count map are made on first use, so memory follows the units
        # a trace touches, not the units the hierarchy declares
        self.pebbles: dict[tuple[int, int], set[int]] = {}
        self.counts: defaultdict[tuple[int, int], Counter[int]] = defaultdict(Counter)
        self.white: set[int] = set()
        self.blue: set[int] = set(cdag.inputs)
        self.tally = IoTally()

    def _held(self, level: int, unit: int):
        return self.pebbles.get((level, unit), frozenset())

    def _charged(self, level: int, unit: int) -> list[tuple[int, int]]:
        """The units a pebble here uses: this one and, if inclusive, its ancestors."""
        path = [(level, unit)]
        while self.cfg.policy == "inclusive" and level < self.L:
            unit, level = self.cfg.parent[(level, unit)], level + 1
            path.append((level, unit))
        return path

    def _check_unit(self, level: int, unit: int) -> None:
        if not 1 <= level <= self.L:
            raise GameError(f"level {level} out of range")
        if not 0 <= unit < self.cfg.units[level - 1]:
            raise GameError(f"unit {unit} out of range at level {level}")

    def _place(self, v: int, level: int, unit: int) -> None:
        if v in self._held(level, unit):
            return
        charged = self._charged(level, unit)
        for l, u in charged:
            counts = self.counts.get((l, u), ())
            if v not in counts and len(counts) >= self.cfg.capacities[l - 1]:
                raise GameError(f"capacity {self.cfg.capacities[l - 1]} exceeded at level {l} unit {u}", vertex=v)
        self.pebbles.setdefault((level, unit), set()).add(v)
        for lu in charged:
            self.counts[lu][v] += 1

    def apply(self, move: PrbwMove) -> None:
        v = move.vertex
        if v not in self.cdag.vertices:
            raise GameError("unknown vertex", vertex=v)
        if move.kind == "Input":
            self._check_unit(self.L, move.unit)
            if v not in self.blue:
                raise GameError("load requires a blue pebble", vertex=v)
            self._place(v, self.L, move.unit)
            self.white.add(v)
            self.tally.loads += 1
        elif move.kind == "Output":
            self._check_unit(self.L, move.unit)
            if v not in self._held(self.L, move.unit):
                raise GameError(f"store requires a level-{self.L} pebble in unit {move.unit}", vertex=v)
            self.blue.add(v)
            self.tally.stores += 1
        elif move.kind == "RemoteGet":
            src, dst = move.src_unit, move.unit
            self._check_unit(self.L, src)
            self._check_unit(self.L, dst)
            if src == dst:
                raise GameError("remote-get needs distinct units", vertex=v)
            if v not in self._held(self.L, src):
                raise GameError(f"no level-{self.L} pebble in source unit {src}", vertex=v)
            self._place(v, self.L, dst)
            self.tally.horizontal[dst] = self.tally.horizontal.get(dst, 0) + 1
        elif move.kind == "MoveUp":
            # data moves toward the processors: child unit copies from parent
            level, unit = move.level, move.unit
            if not 1 <= level < self.L:
                raise GameError(f"move toward processors needs 1 <= level < {self.L}")
            self._check_unit(level, unit)
            par = self.cfg.parent[(level, unit)]
            if v not in self._held(level + 1, par):
                raise GameError(f"parent unit {par} at level {level + 1} holds no pebble", vertex=v)
            self._place(v, level, unit)
            key = (level, unit)
            self.tally.vertical_down[key] = self.tally.vertical_down.get(key, 0) + 1
        elif move.kind == "MoveDown":
            # data moves toward main memory: parent unit copies from a child
            level, unit = move.level, move.unit
            if not 2 <= level <= self.L:
                raise GameError(f"move toward memory needs 2 <= level <= {self.L}")
            self._check_unit(level, unit)
            holders = [c for c in self.cfg.children(level, unit) if v in self._held(level - 1, c)]
            if not holders:
                raise GameError(f"no child of level {level} unit {unit} holds a pebble", vertex=v)
            child = holders[0]
            self._place(v, level, unit)
            key = (level - 1, child)
            self.tally.vertical_up[key] = self.tally.vertical_up.get(key, 0) + 1
        elif move.kind == "Compute":
            proc = move.unit
            self._check_unit(1, proc)
            if v in self.cdag.inputs:
                raise GameError("input vertices cannot fire", vertex=v)
            if v in self.white:
                raise GameError("recomputation forbidden", vertex=v)
            held = self._held(1, proc)
            missing = [u for u in self.cdag.preds[v] if u not in held]
            if missing:
                raise GameError(f"predecessors not in processor {proc} registers: {missing}", vertex=v)
            self._place(v, 1, proc)
            self.white.add(v)
            self.tally.computes[proc] = self.tally.computes.get(proc, 0) + 1
        else:  # Delete
            level, unit = move.level, move.unit
            self._check_unit(level, unit)
            if v not in self._held(level, unit):
                raise GameError("no pebble to delete", vertex=v)
            self.pebbles[(level, unit)].discard(v)
            for lu in self._charged(level, unit):
                self.counts[lu][v] -= 1
                if not self.counts[lu][v]:
                    del self.counts[lu][v]

    finish = FlatGame.finish


def validate_prbw(cdag: Cdag, config: HierarchyConfig, trace: Iterable[PrbwMove]) -> IoTally:
    """Check a trace against the hierarchical rules and score it per unit."""
    return _play(PrbwGame(cdag, config), trace)


# ---------------------------------------------------------------------------
# heuristic upper-bound player
# ---------------------------------------------------------------------------


def check_capacity(cdag: Cdag, S: int) -> None:
    """Raise InfeasibleGameError when S red pebbles cannot fire some vertex.

    Firing a non-input vertex of in-degree k holds its k operands and
    itself in red at once: k + 1 pebbles.  The lowest such id is named.
    """
    for v in sorted(cdag.vertices):
        if cdag.in_degree(v) + 1 > S and v not in cdag.inputs:
            raise InfeasibleGameError(
                f"S too small for in-degree: vertex {v} needs {cdag.in_degree(v) + 1} pebbles"
            )


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
    check_capacity(cdag, S)

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
        pinned = {p for p in preds[v] if p in red}
        for p in [p for p in preds[v] if p not in red]:
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
                missing[w] = off_red = sum(p not in red for p in preds[w])
                heapq.heappush(buckets[off_red], w)

    for o in sorted(outputs - blue):
        trace.append(RbwMove("Output", o))
        blue.add(o)

    tally = validate_rbw(cdag, S, trace)
    return trace, tally
