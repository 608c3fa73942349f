"""Exhaustive optimal-game search: the exact I/O optimum for small CDAGs.

One A* loop, :func:`_search`, serves both games, with cost = loads +
stores.  A game supplies its start state, its goal test and a successor
function that returns canonical states; the loop owns the open list, the
best-cost table and the budget.

**Macro moves.**  The search does not step through single moves.  Each
successor fires one vertex ``v`` together with the transfers it needs:

1. load every operand of ``v`` that lacks a red pebble (each has a blue
   one: just-in-time loads);
2. evict exactly ``max(0, |red| + |missing| + 1 - S)`` residents outside
   pred(v), one successor per choice (``itertools.combinations``); an
   evicted value without a blue pebble is stored as it goes (lazy stores);
3. fire ``v``.

**Why this normal form keeps the optimum.**  Rewrite any complete game as
follows; no step raises its cost or breaks a rule.

* A load whose red pebble is deleted before any compute reads it is
  dropped.  Any other load moves to just before the first compute that
  reads it: waiting only frees a slot in between.  (``rbw`` must load an
  input without successors once; those loads go to the very start, where
  memory is empty, at one transfer each.)
* A store moves to just before the deletion of the red pebble it copied,
  or to the end of the game: its blue pebble is read only by a later load,
  which is pointless while the red pebble lives, and by the goal.
* A delete moves to just before the load or fire that needs its slot, so
  each fire evicts exactly as many values as the capacity forces.  A
  pebble that can never be read again (canonicalization below) may go at
  once instead.

What remains is a sequence of macro moves, so the macro graph holds an
optimal game, and A* with an admissible remainder finds its cost (Hart,
Nilsson & Raphael 1968).

**The games.**  ``rbw`` (no recomputation) must store an evicted value
without a blue pebble, since it could never come back otherwise.  An
output whose last successor has fired is stored at once and loses its red
pebble: no game can recreate that pebble, so it has to be stored from it
anyway.  The goal is every vertex fired or loaded.  ``rb`` may also drop
an unstored victim, which can be recomputed later, so each such victim
yields a store successor and a drop successor.  A red output without
successors is stored at once, and outputs still red at the goal (every
output red or blue) are stored then.

**Canonical states** (``rbw``): a red pebble on a fully-consumed value is
dropped, and so is a blue pebble on a fully-consumed non-output.  Every
value with pending consumers then holds a red or a blue pebble.

**Admissible remainder.**  ``rbw``: first loads of untouched inputs,
stores of unstored outputs, and one reload per evicted value with pending
consumers.  ``rb``: stores of unstored outputs.  Ties in f pop the deeper
state first.  No upper bound caps the search, since none could save an
expansion: until the search ends, the heap holds a state of an optimal
game at its optimal cost, whose f-value is at most the optimum because
the remainder is admissible.  So every state popped has f at most the
optimum, the first goal popped ends the search, and a state whose f-value
exceeds the optimum may be queued but is never expanded.

**Budget.**  ``budget`` caps expansions: macro moves taken off the heap,
each heavier than a single move (it generates every eviction choice of
every ready vertex).  When it runs out, the f-value of the state just
popped is a lower bound on the optimum, since the remainder is admissible;
:class:`BudgetExhaustedError` carries it as ``lower``, and the heuristic
player's tally, played only then, as ``best_known``.

**State encoding.**  With ``n`` vertices, an ``rbw`` state is the one
integer ``white << 2n | red << n | blue`` and an ``rb`` state is
``red << n | blue``; ``expand`` unpacks them with shifts and masks.  Every
field is below ``2**n``, so two packed states compare as the tuples of
their fields do, field by field from the left: the integer order is the
tuple order, and every tie below breaks as it would on tuples.

**Open list.**  States pop in ``(f, -g, state)`` order: lowest f, then
the deeper state, then the smaller state.  ``_search`` keeps a small heap
of the distinct ``(f, -g)`` keys queued, and under each key a heap of bare
state integers (buckets after Dial, 1969).  The smallest key's bucket
holds every queued entry with that key, and its smallest state is the
smallest triple overall, so the pops, and with them the expansions,
duplicates and budget results, are those of one heap of triples.  A
superseded entry stays queued until popped and skipped, and
``peak_heap`` counts it.

State spaces are exponential.  Structured instances around thirty
vertices complete at small S: the 31-vertex composite pipeline at S=4
takes 135,136 expansions and reaches 188,910 distinct states, for about
2.6 s and 43 MB of peak RSS (Python 3.11, one core of a shared Xeon VM).
Arbitrary graphs should stay below roughly twenty vertices for the
no-recomputation game and fifteen for the classic game.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import games
from .cdag import Cdag
from .errors import DEFAULT_BUDGET, BudgetExhaustedError, GameError, InfeasibleGameError, PebbleboundError
from .reports import BoundReport


@dataclass
class OracleStats:
    """Work counters of one search; every count is deterministic.

    ``generated`` counts successors built; each is then a ``duplicate``
    (its state already reached at no greater cost) or queued.
    ``peak_heap`` is the largest number of queued states, superseded
    entries included, and ``states`` the number of distinct states
    reached: the size of the best-cost table.
    """

    expansions: int = 0
    generated: int = 0
    duplicates: int = 0
    peak_heap: int = 0
    states: int = 0


def optimal_io(
    cdag: Cdag,
    S: int,
    game: str = "rbw",
    budget: int = DEFAULT_BUDGET,
    stats: OracleStats | None = None,
) -> BoundReport:
    """Exact minimum I/O over all valid games, as an ``exact`` bound report.

    Raises GameError for a game other than ``rb`` and ``rbw``,
    InfeasibleGameError when no complete game exists (for instance
    when some vertex needs in-degree + 1 > S simultaneous pebbles) and
    BudgetExhaustedError when the state space outgrows ``budget``; the
    error then carries the heuristic player's tally as ``best_known``, or
    None when the player cannot play at this S.  Pass ``stats`` to collect
    the search's work counters.
    """
    if budget <= 0:
        raise BudgetExhaustedError("budget must be positive")
    if game == "rbw":
        cdag.check("rbw")
        space_type = _Rbw
    elif game == "rb":
        cdag.check("hk")
        space_type = _Rb
    else:
        raise GameError(f"unknown flat game {game!r}")
    games.check_capacity(cdag, S)
    value = 0
    if cdag.vertices:
        # the player runs only once the search has returned and freed its tables
        solved, value = _search(space_type(cdag, S), budget, stats or OracleStats())
        if not solved:
            try:
                best_known = games.heuristic_game(cdag, S)[1].io
            except PebbleboundError:  # no play at this S; other errors are player bugs
                best_known = None
            raise BudgetExhaustedError(
                f"oracle budget of {budget} expansions exhausted", best_known=best_known, lower=value
            )
    return BoundReport(
        kind="exact",
        value=Fraction(value),
        method="bruteforce",
        params={"S": S, "game": game, "vertices": len(cdag.vertices)},
    )


def _search(space, budget: int, stats: OracleStats) -> tuple[bool, int]:
    """``(True, optimum)``, or ``(False, lower bound)`` when the budget runs out."""
    g0, h0, start = space.start()
    keys = [(g0 + h0, -g0)]  # heap of the distinct (f, -g) keys queued
    buckets = {keys[0]: [start]}  # key -> heap of the states queued under it
    dist = {start: g0}
    goal, expand = space.goal, space.expand
    push, pop = heapq.heappush, heapq.heappop
    expansions = generated = duplicates = 0
    queued = peak = 1
    try:
        while keys:
            key = keys[0]
            bucket = buckets[key]
            state = pop(bucket)
            if not bucket:
                pop(keys)
                del buckets[key]
            queued -= 1
            f, g = key
            g = -g
            if dist[state] != g:
                continue  # superseded by a cheaper path to the same state
            if goal(state):
                return True, f  # the remainder of a goal state is its exact final cost
            expansions += 1
            if expansions > budget:
                return False, f
            for cost, h, ns in expand(state):
                generated += 1
                ng = g + cost
                if dist.get(ns, ng + 1) <= ng:
                    duplicates += 1
                else:
                    dist[ns] = ng
                    key = (ng + h, -ng)
                    bucket = buckets.get(key)
                    if bucket is None:
                        buckets[key] = [ns]
                        push(keys, key)
                    else:
                        push(bucket, ns)
                    queued += 1
            if queued > peak:
                peak = queued
        raise InfeasibleGameError("no complete game exists for this CDAG and S")
    finally:
        stats.expansions = min(expansions, budget)
        stats.generated = generated
        stats.duplicates = duplicates
        stats.peak_heap = peak
        stats.states = len(dist)


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b)
        mask ^= b
    return out


class _Space:
    """Bit-set view of a CDAG (vertex ``i`` of the sorted ids is bit ``i``)."""

    def __init__(self, cdag: Cdag, S: int):
        order = sorted(cdag.vertices)
        idx = {v: i for i, v in enumerate(order)}
        n = len(order)
        pred = [0] * n
        succ = [0] * n
        for u, ws in cdag.succs.items():
            i = idx[u]
            for v in ws:
                pred[idx[v]] |= 1 << i
                succ[i] |= 1 << idx[v]
        self.n, self.pred, self.succ, self.S = n, pred, succ, S
        self.inputs = sum(1 << idx[v] for v in cdag.inputs)
        self.outputs = sum(1 << idx[v] for v in cdag.outputs)
        self.all = (1 << n) - 1
        self.sinks = sum(1 << i for i in range(n) if not succ[i])
        self.fireable = self.all & ~self.inputs

    def ready(self, candidates: int, available: int) -> int:
        """The mask of candidates whose operands are all ``available``."""
        pred, mask = self.pred, 0
        for b in _bits(candidates):
            if not pred[b.bit_length() - 1] & ~available:
                mask |= b
        return mask

    def fires(self, red: int, ready: int):
        """Yield ``(v, missing, evictions)`` for each vertex ``v`` in the ``ready`` mask.

        ``missing`` are the operands to load; ``evictions`` lists every set
        of residents outside pred(v) whose eviction makes exactly enough
        room, as masks (``[0]`` when everything fits).
        """
        pred = self.pred
        residents = _bits(red)
        free = self.S - 1 - len(residents)
        for b in _bits(ready):
            p = pred[b.bit_length() - 1]
            missing = p & ~red
            evict = missing.bit_count() - free
            if evict <= 0:
                yield b, missing, [0]
                continue
            pool = [r for r in residents if not r & p]
            yield b, missing, pool if evict == 1 else [sum(c) for c in combinations(pool, evict)]


class _Rbw(_Space):
    """No-recomputation game; a state packs its masks as ``white << 2n | red << n | blue``."""

    def __init__(self, cdag: Cdag, S: int):
        super().__init__(cdag, S)
        self.non_outputs = self.all & ~self.outputs
        self._consumed: dict[int, int] = {}
        self._ready: dict[int, int] = {}

    def consumed(self, white: int) -> int:
        """Fired vertices whose successors have all fired; memoized per white set."""
        m = self._consumed.get(white)
        if m is None:
            m = 0
            succ = self.succ
            for b in _bits(white):
                if succ[b.bit_length() - 1] & ~white == 0:
                    m |= b
            self._consumed[white] = m
        return m

    def start(self):
        # inputs without successors are loaded (and dropped) while memory is empty
        white = self.inputs & self.sinks if self.S >= 1 else 0
        blue = self.inputs & ~(white & self.non_outputs)
        h = (self.inputs & ~white).bit_count() + (self.outputs & ~blue).bit_count()
        return white.bit_count(), h, white << 2 * self.n | blue

    def goal(self, state: int) -> bool:
        return state >> 2 * self.n == self.all

    def expand(self, state: int):
        n, mask = self.n, self.all
        white, red, blue = state >> 2 * n, state >> n & mask, state & mask
        inputs, outputs = self.inputs, self.outputs
        out = []
        ready = self._ready.get(white)
        if ready is None:
            ready = self._ready[white] = self.ready(self.fireable & ~white, white | inputs)
        for b, missing, evictions in self.fires(red, ready):
            nw = white | missing | b
            done = self.consumed(nw)
            # a consumed output is stored now, from its last red pebble; the
            # other consumed values lose their pebbles.  Victims lie outside
            # pred(v), so firing v consumes none of them.
            final = done & outputs & ~blue & (red | missing | b)
            r0 = (red | missing | b) & ~done
            b0 = (blue | final) & ~(done & self.non_outputs)
            c0 = missing.bit_count() + final.bit_count()
            # remainder: first loads, unstored outputs, reloads of evicted pending values
            h0 = (
                (inputs & ~nw).bit_count()
                + (outputs & ~b0).bit_count()
                + (nw & ~done & b0 & ~r0).bit_count()
            )
            w0 = nw << 2 * n
            for vm in evictions:
                # an evicted value without a blue pebble is stored as it goes;
                # it then needs a reload rather than a store
                stored = vm & ~blue
                out.append((
                    c0 + stored.bit_count(),
                    h0 + vm.bit_count() - (stored & outputs).bit_count(),
                    w0 | (r0 & ~vm) << n | b0 | vm,
                ))
        return out


class _Rb(_Space):
    """Recomputation game; a state packs its masks as ``red << n | blue``."""

    def start(self):
        return 0, (self.outputs & ~self.inputs).bit_count(), self.inputs

    def goal(self, state: int) -> bool:
        return self.outputs & ~(state >> self.n | state) == 0

    def expand(self, state: int):
        n = self.n
        red, blue = state >> n, state & self.all
        outputs = self.outputs
        out = []
        # a stored sink is never worth firing again
        candidates = self.fireable & ~red & ~(self.sinks & blue)
        for b, missing, evictions in self.fires(red, self.ready(candidates, red | blue)):
            # a sink is an output (hk tagging) that nothing reads: store it now
            sink = b & self.sinks
            nr = red | missing | (b & ~sink)
            b0 = blue | sink
            c0 = missing.bit_count() + sink.bit_count()
            h0 = (outputs & ~b0).bit_count()
            for vm in evictions:
                kept = (nr & ~vm) << n
                # an unstored victim is stored, or dropped to be recomputed later
                unstored = vm & ~blue
                stored = unstored
                while True:
                    h = h0 - (stored & outputs).bit_count()
                    out.append((c0 + stored.bit_count(), h, kept | b0 | stored))
                    if not stored:
                        break
                    stored = (stored - 1) & unstored
        return out
