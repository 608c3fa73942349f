"""Exhaustive optimal-game search: the exact I/O optimum for small CDAGs.

The search is an A* over game states with cost = loads + stores; compute
moves are free edges and delete moves are applied implicitly (a pebble is
dropped exactly when a placement needs the slot, which is never worse than
dropping early).  The admissible heuristic counts inputs still needing
their first load and outputs still needing their store, so zero-waste
schedules are explored first.

States are canonicalized aggressively for the no-recomputation game:

* a red pebble on a fully-consumed value is dropped (it can never help);
* a blue pebble on a fully-consumed non-output is forgotten;
* any state in which an unstored, unpebbled value still has pending
  consumers is discarded outright -- the value is unrecoverable.

State spaces are exponential; callers gate the search with ``budget``
(number of state expansions).  Structured instances in the low-20s of
vertices complete at small S; arbitrary graphs should stay below roughly
a dozen vertices for the no-recomputation game and nine for the classic
game.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .cdag import Cdag
from .errors import BudgetExhaustedError, InfeasibleGameError, PebbleboundError
from .reports import BoundReport

DEFAULT_BUDGET = 5_000_000


def optimal_io(cdag: Cdag, S: int, game: str = "rbw", budget: int = DEFAULT_BUDGET) -> BoundReport:
    """Exact minimum I/O over all valid games, as an ``exact`` bound report.

    Raises InfeasibleGameError when no complete game exists (for instance
    when some vertex needs in-degree + 1 > S simultaneous pebbles) and
    BudgetExhaustedError when the state space outgrows ``budget``.
    """
    if budget <= 0:
        raise BudgetExhaustedError("budget must be positive")
    if game == "rbw":
        value = _search_rbw(cdag, S, budget)
    elif game == "rb":
        value = _search_rb(cdag, S, budget)
    else:
        raise InfeasibleGameError(f"unknown game {game!r}")
    return BoundReport(
        kind="exact",
        value=Fraction(value),
        method="bruteforce",
        params={"S": S, "game": game, "vertices": len(cdag.vertices)},
    )


def _bit_setup(cdag: Cdag):
    order = sorted(cdag.vertices)
    idx = {v: i for i, v in enumerate(order)}
    n = len(order)
    pred = [0] * n
    succ = [0] * n
    for u, v in cdag.edges:
        pred[idx[v]] |= 1 << idx[u]
        succ[idx[u]] |= 1 << idx[v]
    inputs = 0
    for v in cdag.inputs:
        inputs |= 1 << idx[v]
    outputs = 0
    for v in cdag.outputs:
        outputs |= 1 << idx[v]
    return order, idx, n, pred, succ, inputs, outputs


def _check_degrees(n, pred, inputs, S):
    for i in range(n):
        if not (inputs >> i) & 1 and pred[i].bit_count() + 1 > S:
            raise InfeasibleGameError(
                f"S too small for in-degree: a vertex needs {pred[i].bit_count() + 1} pebbles"
            )


def _best_known_ub(cdag: Cdag, S: int):
    """The heuristic player's tally, or None when it cannot play at this S.

    Only package errors mean "no ceiling"; anything else is a player bug
    and propagates.
    """
    from .games import heuristic_game

    try:
        _, tally = heuristic_game(cdag, S)
        return tally.io
    except PebbleboundError:
        return None


def _search_rbw(cdag: Cdag, S: int, budget: int) -> int:
    cdag.check("rbw")
    order, idx, n, pred, succ, inputs, outputs = _bit_setup(cdag)
    if n == 0:
        return 0
    _check_degrees(n, pred, inputs, S)
    all_mask = (1 << n) - 1
    non_outputs = all_mask & ~outputs

    consumed_memo: dict[int, int] = {}

    def consumed(white):
        # fired vertices with every successor fired; memoized per white set
        m = consumed_memo.get(white)
        if m is None:
            m = 0
            w = white
            while w:
                b = w & -w
                w ^= b
                if succ[b.bit_length() - 1] & ~white == 0:
                    m |= b
            consumed_memo[white] = m
        return m

    # a valid played game caps the search: never explore beyond its cost
    ceiling = _best_known_ub(cdag, S)

    start = (0, 0, inputs)
    h0 = inputs.bit_count() + (outputs & ~inputs).bit_count()
    heap = [(h0, 0, start)]
    dist = {start: 0}
    expansions = 0
    push_heap = heapq.heappush
    while heap:
        f, g, state = heapq.heappop(heap)
        if dist.get(state, -1) != g:
            continue
        white, red, blue = state
        if white == all_mask and outputs & ~blue == 0:
            return g
        expansions += 1
        if expansions > budget:
            raise BudgetExhaustedError(
                f"oracle budget of {budget} expansions exhausted",
                best_known=ceiling,
            )

        full = red.bit_count() >= S
        # droppable pebbles: blue-backed values can always be refetched
        victims = []
        if full:
            vmask = red & blue
            while vmask:
                vb = vmask & -vmask
                vmask ^= vb
                victims.append(vb)

        def push(nw, nr, nb, cost):
            done = consumed(nw)
            settled = done & (non_outputs | nb)
            nr &= ~settled
            nb &= ~(done & non_outputs)
            # a white, unpebbled value with pending work is gone forever
            if nw & ~nr & ~nb & ((nw & ~done) | outputs):
                return
            ns = (nw, nr, nb)
            ng = g + cost
            if dist.get(ns, ng + 1) <= ng:
                return
            # admissible remainder: first loads of untouched inputs, stores
            # of unstored outputs, and one reload per evicted pending value
            nh = (
                (inputs & ~nw).bit_count()
                + (outputs & ~nb).bit_count()
                + (nw & ~nr & nb & ~done).bit_count()
            )
            if ceiling is not None and ng + nh > ceiling:
                return
            dist[ns] = ng
            push_heap(heap, (ng + nh, ng, ns))

        # fires: unfired non-inputs with all operands resident
        fmask = all_mask & ~white & ~inputs
        while fmask:
            b = fmask & -fmask
            fmask ^= b
            if pred[b.bit_length() - 1] & ~red == 0:
                if not full:
                    push(white | b, red | b, blue, 0)
                else:
                    p = pred[b.bit_length() - 1]
                    for vb in victims:
                        if not p & vb:
                            push(white | b, (red & ~vb) | b, blue, 0)
        # loads: blue-backed values that still have work to do
        lmask = blue & ~red
        while lmask:
            b = lmask & -lmask
            lmask ^= b
            i = b.bit_length() - 1
            if not white & b or succ[i] & ~white:
                if not full:
                    push(white | b, red | b, blue, 1)
                else:
                    for vb in victims:
                        push(white | b, (red & ~vb) | b, blue, 1)
        # stores: resident values whose slow-memory copy can matter later
        smask = red & ~blue
        while smask:
            b = smask & -smask
            smask ^= b
            i = b.bit_length() - 1
            if outputs & b or succ[i] & ~white:
                push(white, red, blue | b, 1)
    raise InfeasibleGameError("no complete game exists for this CDAG and S")


def _search_rb(cdag: Cdag, S: int, budget: int) -> int:
    cdag.check("hk")
    order, idx, n, pred, succ, inputs, outputs = _bit_setup(cdag)
    if n == 0:
        return 0
    _check_degrees(n, pred, inputs, S)
    bits = [1 << i for i in range(n)]

    # a played no-recomputation game is also valid here and caps the search
    ceiling = _best_known_ub(cdag, S)

    start = (0, inputs)
    h0 = (outputs & ~inputs).bit_count()
    heap = [(h0, 0, start)]
    dist = {start: 0}
    expansions = 0
    while heap:
        f, g, state = heapq.heappop(heap)
        if dist.get(state, -1) != g:
            continue
        red, blue = state
        if outputs & ~blue == 0:
            return g
        expansions += 1
        if expansions > budget:
            raise BudgetExhaustedError(
                f"oracle budget of {budget} expansions exhausted", best_known=ceiling
            )

        full = red.bit_count() >= S
        victims = [bits[i] for i in range(n) if red & bits[i]] if full else [0]

        def push(nr, nb, cost):
            ns = (nr, nb)
            ng = g + cost
            if dist.get(ns, ng + 1) <= ng:
                return
            nh = (outputs & ~nb).bit_count()
            if ceiling is not None and ng + nh > ceiling:
                return
            dist[ns] = ng
            heapq.heappush(heap, (ng + nh, ng, ns))

        for i in range(n):
            b = bits[i]
            if not inputs & b and pred[i] & ~red == 0 and not red & b:
                if not full:
                    push(red | b, blue, 0)
                else:
                    for vb in victims:
                        if vb and not pred[i] & vb:
                            push((red & ~vb) | b, blue, 0)
            if blue & b and not red & b and succ[i]:
                if not full:
                    push(red | b, blue, 1)
                else:
                    for vb in victims:
                        if vb and vb != b:
                            push((red & ~vb) | b, blue, 1)
            if red & b and not blue & b:
                if outputs & b or succ[i]:
                    push(red, blue | b, 1)
    raise InfeasibleGameError("no complete game exists for this CDAG and S")
