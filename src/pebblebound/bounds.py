"""Lower-bound engines: partition counting, min-cut wavefronts, closed forms.

Four families live here:

* capacity-partition bounds: a complete game at capacity S induces a
  partition of the fired vertices into blocks whose boundary sets fit in
  2S words, so block-size limits translate into transfer counts
  (:func:`spart_lower_bound`, :func:`umax_bruteforce`);
* min-cut wavefront bounds: the live set when a pinned vertex fires is at
  least the vertex min-cut separating its ancestry from its descendants
  (:func:`wavefront_min`, :func:`wmax`, :func:`mincut_lower_bound`,
  :func:`mincut_divide_bound`);
* per-unit hierarchy bounds (:func:`vertical_bound_spart`,
  :func:`horizontal_bound_spart`);
* closed forms for the generated algorithm families (:func:`analytic_lb`,
  :func:`analytic_horizontal_ub`).

All values are exact Fractions except where a d-th root forces a float;
a closed form whose float arithmetic leaves the float range raises
BoundError.  Every lower bound is built by :func:`_lower`, which clamps it
at zero.  The rules that carry a bound from sub-CDAGs or across hierarchy
units live in :mod:`.reports`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Optional

from .cdag import Cdag, Partition
from .errors import DEFAULT_BUDGET, BoundError, BudgetExhaustedError
from .reports import BoundReport, nonneg

if TYPE_CHECKING:
    from .generators import AlgorithmParams


# ---------------------------------------------------------------------------
# capacity-partition bounds
# ---------------------------------------------------------------------------


def block_in_set(cdag: Cdag, block: frozenset[int]) -> frozenset[int]:
    """Vertices outside the block with a successor inside it."""
    return frozenset(
        u for u in cdag.vertices - block if any(w in block for w in cdag.succs[u])
    )


def block_out_set(cdag: Cdag, block: frozenset[int]) -> frozenset[int]:
    """Block vertices that are outputs or feed a vertex outside the block."""
    return frozenset(
        v
        for v in block
        if v in cdag.outputs or any(w not in block for w in cdag.succs[v])
    )


def minimum_set(cdag: Cdag, block: frozenset[int]) -> frozenset[int]:
    """Block vertices all of whose successors lie outside the block."""
    return frozenset(v for v in block if all(w not in block for w in cdag.succs[v]))


def min_dominator_size(cdag: Cdag, block: frozenset[int]) -> int:
    """Smallest vertex set meeting every input-to-block path.

    Computed as a vertex min-cut with every vertex cuttable: a dominator
    may use block vertices, interior vertices, or the inputs themselves.
    """
    if not block or not cdag.inputs:
        return 0
    net, idx, s, t = _split_network(cdag.vertices)
    for v in cdag.inputs:
        net.add_edge(s, 2 * idx[v], _Dinic.INF)
    for w in block:
        net.add_edge(2 * idx[w] + 1, t, _Dinic.INF)
    for u, ws in cdag.succs.items():
        for w in ws:
            net.add_edge(2 * idx[u] + 1, 2 * idx[w], _Dinic.INF)
    return net.max_flow(s, t)


@dataclass(frozen=True)
class SPartitionCertificate:
    """A checked capacity partition: blocks plus their boundary-set sizes."""

    blocks: tuple[frozenset[int], ...]
    S: int
    mode: str
    in_sizes: tuple[int, ...]
    out_sizes: tuple[int, ...]


def check_spartition(cdag: Cdag, blocks: Iterable[Iterable[int]], S: int, mode: str = "rbw"):
    """Validate an S-partition; returns (certificate, violations).

    ``rbw`` mode: blocks disjointly cover the non-input vertices, no
    pairwise circuit, and each block's in-set and out-set fit in S.
    ``hk`` mode: blocks cover all vertices and each block needs a dominator
    set and a minimum set of size at most S.
    """
    if mode not in ("hk", "rbw"):
        raise BoundError(f"unknown S-partition mode {mode!r}")
    blks = tuple(frozenset(b) for b in blocks)
    domain = cdag.vertices if mode == "hk" else cdag.vertices - cdag.inputs
    violations = Partition.of(blks).validate(cdag, domain)
    # validate names a vertex the CDAG lacks; the rest sees known vertices only
    known = tuple(b & cdag.vertices for b in blks)
    # pairwise circuits
    for i in range(len(known)):
        for j in range(i + 1, len(known)):
            fwd = any(w in known[j] for v in known[i] for w in cdag.succs[v])
            back = any(w in known[i] for v in known[j] for w in cdag.succs[v])
            if fwd and back:
                violations.append(f"circuit between blocks {i} and {j}")
    in_sizes = []
    out_sizes = []
    for i, blk in enumerate(known):
        if mode == "rbw":
            isz = len(block_in_set(cdag, blk))
            osz = len(block_out_set(cdag, blk))
        else:
            isz = min_dominator_size(cdag, blk)
            osz = len(minimum_set(cdag, blk))
        in_sizes.append(isz)
        out_sizes.append(osz)
        if isz > S:
            violations.append(f"block {i} in/dominator set has size {isz} > {S}")
        if osz > S:
            violations.append(f"block {i} out/minimum set has size {osz} > {S}")
    cert = SPartitionCertificate(blks, S, mode, tuple(in_sizes), tuple(out_sizes))
    return cert, violations


def require_S(S: int, method: str) -> None:
    """Raise BoundError unless the capacity S is at least 1."""
    if S < 1:
        raise BoundError(f"the {method} bound needs S >= 1")


def _require_positive(**args: int) -> None:
    """Raise BoundError naming the first argument below 1."""
    for name, val in args.items():
        if val < 1:
            raise BoundError(f"{name} must be >= 1")


def _lower(
    method: str, value, symbolic: str, params: dict, asymptotic: Optional[str] = None
) -> BoundReport:
    """A lower bound by ``method``, clamped at zero."""
    return BoundReport("lower", nonneg(value), method, symbolic, asymptotic, params)


def spart_lower_bound(cdag: Cdag, S: int, umax: int) -> BoundReport:
    """Partition-counting bound: S * (|V - I| / umax - 1), clamped at zero.

    ``umax`` must upper-bound the size of any block a complete game at
    capacity S can induce (see :func:`umax_bruteforce`); the CDAG must pass
    ``check("rbw")``.
    """
    cdag.check("rbw")
    require_S(S, "spart")
    if umax < 1:
        raise BoundError("umax must be >= 1")
    work = len(cdag.vertices - cdag.inputs)
    value = Fraction(S) * (Fraction(work, umax) - 1)
    return _lower("spart", value, "S*(|V-I|/umax - 1)", {"S": S, "umax": umax, "work": work})


def umax_bruteforce(cdag: Cdag, twoS: int, budget: int = DEFAULT_BUDGET) -> int:
    """Largest convex block with in-set and out-set both <= twoS.

    An exhaustive include/exclude search over the non-input vertices in
    topological order, on bitmasks over topological positions.  Including v
    adds its non-block predecessors (inputs too) to the in-set, and v to the
    out-set if it is an output; excluding w adds its block predecessors to
    the out-set.  Predecessors are decided first, so both sets only grow
    along a branch and are exact at full depth: a branch is cut once either
    exceeds ``twoS`` or once ``size + remaining`` cannot beat the best block.
    ``budget`` caps search nodes; when it runs out, the error's ``lower``
    is the largest block found so far, a lower bound on umax.

    Convexity is a taint rule: an excluded vertex is tainted when a
    predecessor is in the block or tainted, and a vertex with a tainted
    predecessor cannot join.  A block is non-convex iff a path leaves it and
    comes back, b -> x1 -> ... -> xk -> a with b, a in the block and every xi
    excluded, k >= 1 (cut any longer path at the block vertices nearest one
    excluded vertex on it).  Then x1, ..., xk are tainted in turn before a
    is decided, so a is refused; conversely a tainted predecessor of a ends
    such a path from the block.

    Measured: umax 23 on composite-2 (23 work vertices) in 47 nodes at
    twoS=8 and 11 in 9,086 nodes at twoS=6; umax 7 on matmul-3 (45 work
    vertices) in 258,021 nodes, about a tenth of a second, at twoS=6.  A
    game-induced block is always convex -- its vertices fire inside one
    time window -- so this cardinality is a sound ``umax``.  The CDAG must
    pass ``check("rbw")``.
    """
    cdag.check("rbw")
    if twoS < 0:
        raise BoundError("twoS must be nonnegative")
    pos = {v: i for i, v in enumerate(cdag.topological_order)}
    work = [v for v in cdag.topological_order if v not in cdag.inputs]
    bits = [1 << pos[v] for v in work]
    preds = [sum(1 << pos[u] for u in cdag.preds[v]) for v in work]
    is_output = [v in cdag.outputs for v in work]
    n = len(work)
    best = nodes = 0
    stack = [(0, 0, 0, 0, 0, 0)]  # (next index, size, block, tainted, in-set, out-set)
    while stack:
        i, size, block, tainted, ins, outs = stack.pop()
        nodes += 1
        if nodes > budget:
            raise BudgetExhaustedError(
                f"umax budget of {budget} search nodes exhausted (largest block found: {best})",
                lower=best,
            )
        if size + n - i <= best:
            continue
        if i == n:
            best = size
            continue
        bit, pred = bits[i], preds[i]
        # exclude work[i]; pushed first so that the include branch pops first
        out_x = outs | pred & block
        if out_x.bit_count() <= twoS:
            taint_x = tainted | bit if pred & (block | tainted) else tainted
            stack.append((i + 1, size, block, taint_x, ins, out_x))
        if not pred & tainted:
            in_v = ins | pred & ~block
            out_v = outs | bit if is_output[i] else outs
            if in_v.bit_count() <= twoS and out_v.bit_count() <= twoS:
                stack.append((i + 1, size + 1, block | bit, tainted, in_v, out_v))
    return best


# ---------------------------------------------------------------------------
# vertex min-cut wavefronts
# ---------------------------------------------------------------------------


@dataclass
class FlowStats:
    """Work counters of the wavefront layer; every count is deterministic.

    ``anchors`` counts the candidates :func:`wmax` was given, and
    ``anchors_skipped`` those it settled without a flow, by a ceiling
    alone; every other anchor had its minimum wavefront computed (by one
    flow, or none for a sink).  ``flows`` counts max-flow runs,
    ``bfs_phases`` their level-graph searches (the last one of each run
    finds no path) and ``augmentations`` the augmenting paths pushed.
    """

    anchors: int = 0
    anchors_skipped: int = 0
    flows: int = 0
    bfs_phases: int = 0
    augmentations: int = 0


class _Dinic:
    """Standard Dinic max-flow on flat arc arrays.

    Arc ``a`` runs to node ``head[a]`` with residual capacity ``cap[a]``;
    arcs are added in pairs, so arc ``a ^ 1`` is the reverse of arc ``a``
    and its head is ``a``'s tail.  ``adj[u]`` lists the ids of the arcs
    leaving u.  After :meth:`max_flow`, ``level[v] >= 0`` exactly on the
    nodes its last BFS reached: the nodes reachable from the source in the
    residual graph, which is the source side of a minimum cut.  That set is
    the same for every maximum flow, so the cut recovered from it does not
    depend on which augmenting paths were taken.  Work is counted in
    ``stats``.
    """

    INF = 1 << 60

    def __init__(self, n: int, stats: Optional[FlowStats] = None):
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.head: list[int] = []
        self.cap: list[int] = []
        self.level: list[int] = []
        self.stats = FlowStats() if stats is None else stats

    def add_edge(self, u: int, v: int, cap: int) -> None:
        a = len(self.head)
        self.head += (v, u)
        self.cap += (cap, 0)
        self.adj[u].append(a)
        self.adj[v].append(a + 1)

    def max_flow(self, s: int, t: int) -> int:
        self.stats.flows += 1
        flow = 0
        while True:
            self.stats.bfs_phases += 1
            level = self.level = self._levels(s)
            if level[t] < 0:
                return flow
            flow += self._blocking_flow(s, t, level)

    def _levels(self, s: int) -> list[int]:
        adj, head, cap = self.adj, self.head, self.cap
        level = [-1] * len(adj)
        level[s] = 0
        queue = [s]
        for u in queue:  # the queue grows while it is read
            nxt = level[u] + 1
            for a in adj[u]:
                v = head[a]
                if cap[a] and level[v] < 0:
                    level[v] = nxt
                    queue.append(v)
        return level

    def _blocking_flow(self, s: int, t: int, level: list[int]) -> int:
        """Augment along level-graph paths until none is left.

        Iterative, so path length is not limited by the recursion limit:
        ``path`` holds the arcs from s to the current node, an augmenting
        path retreats to the tail of its first saturated arc, and a dead
        end retreats one arc and skips it.
        """
        adj, head, cap = self.adj, self.head, self.cap
        stats = self.stats
        it = [0] * len(adj)
        path: list[int] = []
        flow = 0
        u = s
        while True:
            if u == t:
                stats.augmentations += 1
                pushed = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= pushed
                    cap[a ^ 1] += pushed
                flow += pushed
                k = next(i for i, a in enumerate(path) if not cap[a])
                del path[k:]
                u = head[path[-1]] if path else s
                continue
            arcs = adj[u]
            end = len(arcs)
            nxt = level[u] + 1
            i = it[u]
            while i < end:
                a = arcs[i]
                if cap[a] and level[head[a]] == nxt:
                    break
                i += 1
            it[u] = i
            if i < end:
                path.append(a)
                u = head[a]
            elif path:
                path.pop()
                u = head[path[-1]] if path else s
                it[u] += 1
            else:
                return flow


def _split_network(
    vertices: Iterable[int], stats: Optional[FlowStats] = None
) -> tuple[_Dinic, dict[int, int], int, int]:
    """Node-split flow network for vertex cuts over ``vertices``.

    Vertex v becomes in-node 2*idx[v] and out-node 2*idx[v] + 1, joined by
    a unit arc so that cutting v costs one.  Returns the network, the
    vertex index, and the source and sink node ids; callers add their own
    source, sink, and edge arcs.
    """
    idx = {v: i for i, v in enumerate(sorted(vertices))}
    n = len(idx)
    net = _Dinic(2 * n + 2, stats)
    for i in range(n):
        net.add_edge(2 * i, 2 * i + 1, 1)
    return net, idx, 2 * n, 2 * n + 1


@dataclass(frozen=True)
class Wavefront:
    """A minimum live-set certificate at a pinned vertex.

    ``S_side`` holds the anchor and everything already fired when it fires;
    ``T_side`` the rest; ``cut_vertices`` the fired values still feeding
    unfired consumers.  The anchor itself is not charged: when no other
    vertex is forced to stay live the wavefront is the anchor alone.
    """

    anchor: int
    S_side: frozenset[int]
    T_side: frozenset[int]
    cut_vertices: frozenset[int]
    size: int


def wavefront_min(cdag: Cdag, x: int, stats: Optional[FlowStats] = None) -> Wavefront:
    """Minimum wavefront induced by x, via a vertex min-cut.

    Build a unit-capacity node-split network whose source merges x with its
    ancestors (ancestor capacities retained) and whose sink merges the
    descendants (uncuttable); an extra reversed arc per graph edge keeps
    the recovered source side closed under predecessors, which is exactly
    the no-edge-back condition on the cut.  The max-flow value equals the
    minimum number of non-anchor cut vertices over all valid cuts.  Pass
    ``stats`` to count the flow's work.
    """
    _check_anchor(cdag, x)
    anc, desc = cdag.ancestors(x), cdag.descendants(x)
    if not desc:
        return Wavefront(
            anchor=x,
            S_side=frozenset(cdag.vertices),
            T_side=frozenset(),
            cut_vertices=frozenset({x}),
            size=1,
        )

    dinic, idx, s, t = _split_network(cdag.vertices - desc - {x}, stats)
    for a in anc:
        dinic.add_edge(s, 2 * idx[a], _Dinic.INF)
    for u, ws in cdag.succs.items():
        if u == x or u in desc:
            continue  # anchor/descendant sources never constrain the cut
        for w in ws:
            if w in desc:
                dinic.add_edge(2 * idx[u] + 1, t, _Dinic.INF)
            elif w == x:
                continue  # edges into the anchor stay inside the source side
            else:
                dinic.add_edge(2 * idx[u] + 1, 2 * idx[w], _Dinic.INF)
                # closure arc: w on the fired side forces u onto the fired side
                dinic.add_edge(2 * idx[w], 2 * idx[u], _Dinic.INF)
    flow = dinic.max_flow(s, t)

    level = dinic.level
    s_side = {x} | anc | {v for v, i in idx.items() if level[2 * i] >= 0}
    t_side = cdag.vertices - s_side
    cut = frozenset(
        v for v in s_side if v != x and any(w in t_side for w in cdag.succs[v])
    )
    _assert_valid_cut(cdag, x, anc, desc, s_side, t_side)
    if len(cut) != flow:
        raise BoundError(
            f"wavefront construction bug: recovered cut {len(cut)} != flow {flow}"
        )
    return Wavefront(x, frozenset(s_side), frozenset(t_side), cut or frozenset({x}), flow or 1)


def _check_anchor(cdag: Cdag, x: int) -> None:
    if x not in cdag.vertices:
        raise BoundError(f"unknown vertex {x}")
    if not cdag.is_acyclic:
        raise BoundError("wavefronts are defined on acyclic graphs only")


def _assert_valid_cut(cdag, x, anc, desc, s_side, t_side):
    if not ({x} | anc) <= s_side:
        raise BoundError("wavefront construction bug: ancestry escaped the fired side")
    if not desc <= t_side:
        raise BoundError("wavefront construction bug: descendant on the fired side")
    for u, ws in cdag.succs.items():
        if u in t_side:
            for w in ws:
                if w in s_side:
                    raise BoundError(f"wavefront construction bug: back edge {u}->{w} crosses the cut")


def wmax(
    cdag: Cdag, candidates: Optional[Iterable[int]] = None, stats: Optional[FlowStats] = None
) -> int:
    """Max over candidate anchors of the minimum wavefront size.

    Defaults to every vertex; generators supply their scalar anchors to
    avoid one flow run per vertex on large graphs.  Pass ``stats`` to count
    the work.

    An anchor is flowed only when a ceiling says it could beat the best
    wavefront found so far.  Any fired side that holds x and its
    ancestors, holds no descendant of x and is closed under predecessors
    is a valid cut (no edge runs back across it), so its count of
    non-anchor vertices with a successor outside it bounds
    ``wavefront_min(cdag, x).size`` from above, floor one aside.  Three
    such sides give the ceilings used here:

    * prefix: the vertices up to and including x in the CDAG's
      ``topological_order``.  It holds anc(x), since an ancestor comes
      before x; it excludes desc(x), since a descendant comes after x; and
      it is closed under predecessors, since a predecessor comes before
      its successor.  One sweep of the order, counting the vertices before
      x that still have a successor at or after x, gives this ceiling for
      every anchor at once;
    * early, ``{x} | anc(x)``: the ancestors with a successor outside it;
    * late, ``V - desc(x)``: the non-anchor vertices with a successor in
      ``desc(x)``.

    The early and late sides are closed under predecessors too: a
    predecessor of an ancestor is an ancestor, and a predecessor of a
    non-descendant is a non-descendant.  Each ceiling is floored at 1 and
    is 1 when ``desc(x)`` is empty; ``max(1, min(early, late))`` is the
    two-cut ceiling, which costs two traversals per anchor.

    Refinement is lazy.  A max-heap holds every anchor keyed by its prefix
    ceiling.  The top anchor, if its key is still the prefix ceiling, gets
    the two-cut ceiling, its key becomes the smaller of the two, and it
    goes back on the heap; a refined top anchor is flowed by
    :func:`wavefront_min`.  Ties pop the lowest vertex id first.  The
    search stops once the top key is no larger than the best wavefront.
    Every key bounds its anchor's wavefront from above and the top key
    bounds every key, so no anchor left on the heap can beat the best, and
    the result is exact.
    """
    import heapq

    cand = sorted(cdag.vertices) if candidates is None else sorted(set(candidates))
    for x in cand:
        _check_anchor(cdag, x)
    stats = FlowStats() if stats is None else stats
    stats.anchors += len(cand)
    stats.anchors_skipped += len(cand)
    prefix = _prefix_ceilings(cdag) if cand else {}
    heap = [(-prefix[x], x, False) for x in cand]  # (-key, anchor, refined)
    heapq.heapify(heap)
    best = 0
    while heap and -heap[0][0] > best:
        key, x, refined = heap[0]
        if refined:
            heapq.heappop(heap)
            stats.anchors_skipped -= 1
            best = max(best, wavefront_min(cdag, x, stats).size)
        else:
            ceiling = _wavefront_ceiling(cdag, x, cdag.ancestors(x), cdag.descendants(x))
            heapq.heapreplace(heap, (max(key, -ceiling), x, True))
    return best


def _prefix_ceilings(cdag: Cdag) -> dict[int, int]:
    """The prefix ceiling of every vertex of an acyclic CDAG; see :func:`wmax`."""
    left = {v: len(cdag.succs[v]) for v in cdag.vertices}  # successors not yet swept
    live = 0  # swept vertices with a successor not yet swept
    ceiling = {}
    for x in cdag.topological_order:
        for u in cdag.preds[x]:
            left[u] -= 1
            if not left[u]:
                live -= 1
        if left[x]:
            ceiling[x] = max(1, live)
            live += 1
        else:
            ceiling[x] = 1  # a sink
    return ceiling


def _wavefront_ceiling(cdag: Cdag, x: int, anc: frozenset[int], desc: frozenset[int]) -> int:
    """The two-cut ceiling on ``wavefront_min(cdag, x).size``; see :func:`wmax`."""
    if not desc:
        return 1
    fired = anc | {x}
    early = sum(1 for a in anc if any(w not in fired for w in cdag.succs[a]))
    late = len({u for v in desc for u in cdag.preds[v]} - desc - {x})
    return max(1, min(early, late))


def mincut_lower_bound(
    cdag: Cdag,
    S: int,
    candidates: Optional[Iterable[int]] = None,
    stats: Optional[FlowStats] = None,
) -> BoundReport:
    """Input-free wavefront bound: 2 * (wmax - S), clamped at zero.

    The argument needs an input-free CDAG: every live-but-spilled value was
    both stored and reloaded, giving two transfers each.  ``stats`` is
    passed to :func:`wmax`.
    """
    require_S(S, "mincut")
    if cdag.inputs:
        raise BoundError("this bound needs an input-free CDAG; delete or untag inputs first")
    w = wmax(cdag, candidates, stats)
    return _lower("mincut", Fraction(2) * (w - S), "2*(wmax - S)", {"S": S, "wmax": w})


def mincut_divide_bound(
    cdag: Cdag, partition: Partition, S: int, stats: Optional[FlowStats] = None
) -> BoundReport:
    """Divide-and-conquer wavefront bound over a disjoint partition.

    Each block is induced, stripped of its global inputs and outputs, and
    charged the :func:`mincut_lower_bound` of that input-free core,
    max(0, 2 * (wmax_i - S)); the stripped input/output vertices are worth
    one transfer apiece, adding |I u O| (the union): a vertex tagged both
    input and output is already blue, so its load is its only transfer.
    ``stats`` is passed to every block's bound.
    """
    require_S(S, "mincut-divide")
    violations = partition.validate(cdag)
    if violations:
        raise BoundError("invalid partition: " + "; ".join(violations))
    total, per_block = Fraction(0), []
    for blk in partition.blocks:
        # the block minus the global inputs and outputs: an input-free core
        term = mincut_lower_bound(cdag.induced(blk - cdag.inputs - cdag.outputs), S, stats=stats)
        total += term.value
        per_block.append(term.params["wmax"])
    return _lower(
        "mincut",
        total + len(cdag.inputs | cdag.outputs),
        "sum_i 2*(wmax_i - S) + |I u O|",
        {"S": S, "blocks": len(partition.blocks), "wmax_per_block": tuple(per_block)},
    )


# ---------------------------------------------------------------------------
# hierarchy bounds
# ---------------------------------------------------------------------------


def vertical_bound_spart(
    v_size: int, umax_2s: int, n_l: int, n_lminus1: int, s_lminus1: int
) -> BoundReport:
    """Partition form of the per-unit vertical bound.

    [|V| / (umax * N_l) - N_{l-1}/N_l] * S_{l-1}, clamped at zero; the
    report notes the usual approximation |V| * S / (umax * N_l).
    """
    _require_positive(
        v_size=v_size, umax_2s=umax_2s, n_l=n_l, n_lminus1=n_lminus1, s_lminus1=s_lminus1
    )
    return _lower(
        "spart",
        (Fraction(v_size, umax_2s * n_l) - Fraction(n_lminus1, n_l)) * s_lminus1,
        "(|V|/(umax*N_l) - N_(l-1)/N_l) * S_(l-1)",
        {"v_size": v_size, "umax": umax_2s, "n_l": n_l,
         "n_lminus1": n_lminus1, "s_lminus1": s_lminus1},
        asymptotic="~ |V|*S_(l-1)/(umax*N_l)",
    )


def horizontal_bound_spart(v_size: int, umax_2sl: int, s_l: int, p_i: int) -> BoundReport:
    """Remote-get bound for the busiest processor group.

    (|V| / (umax * P_i) - 1) * S_L, clamped at zero, where P_i is the
    number of processor groups sharing one top-level unit.
    """
    _require_positive(v_size=v_size, umax_2sl=umax_2sl, s_l=s_l, p_i=p_i)
    return _lower(
        "spart",
        (Fraction(v_size, umax_2sl * p_i) - 1) * s_l,
        "(|V|/(umax*P_i) - 1) * S_L",
        {"v_size": v_size, "umax": umax_2sl, "s_l": s_l, "p_i": p_i},
    )


# ---------------------------------------------------------------------------
# closed forms for the generated families
# ---------------------------------------------------------------------------


def _in_float_range(closed_form):
    """Raise BoundError when a closed form's float arithmetic leaves the float range."""

    @functools.wraps(closed_form)
    def checked(params: AlgorithmParams, *args, **kwargs) -> BoundReport:
        try:
            report = closed_form(params, *args, **kwargs)
        except OverflowError:
            report = None
        if report is None or any(
            isinstance(x, float) and not math.isfinite(x) for x in (report.value, *report.params.values())
        ):
            raise BoundError(f"the analytic {params.algorithm} bound leaves the float range")
        return report

    return checked


@_in_float_range
def analytic_lb(params: AlgorithmParams, P: int = 1, S: int = 0) -> BoundReport:
    """Closed-form lower bound for the family named by ``params.algorithm``.

    Pre-asymptotic forms where available; the asymptotic note records the
    regime (n much larger than S) in which the simplified form applies.
    The cg form carries 2S in its slab term and gmres carries S: each
    matches its own derivation, and the difference is preserved as-is.
    """
    if P < 1 or S < 0:
        raise BoundError("P must be >= 1 and S >= 0")
    algorithm, n, d, T, m = params.algorithm, params.n, params.d, params.T, params.m
    if algorithm == "cg":
        return _lower(
            "analytic",
            Fraction(T) * 2 * (3 * n**d - 2 * S) / P,
            "T*2*(3*n^d - 2S)/P",
            {"n": n, "d": d, "T": T, "P": P, "S": S},
            asymptotic="6*n^d*T/P for n >> S",
        )
    if algorithm == "gmres":
        return _lower(
            "analytic",
            Fraction(m) * 2 * (3 * n**d - S) / P,
            "m*2*(3*n^d - S)/P",
            {"n": n, "d": d, "m": m, "P": P, "S": S},
            asymptotic="6*n^d*m/P for n >> S",
        )
    if algorithm == "jacobi":
        require_S(S, "stencil")
        return _lower(
            "analytic",
            Fraction(n**d * T, 4 * P) / _real_root(2 * S, d),
            "n^d*T/(4*P*(2S)^(1/d))",
            {"n": n, "d": d, "T": T, "P": P, "S": S},
        )
    if algorithm == "matmul":
        require_S(S, "matmul")
        return _lower(
            "analytic",
            Fraction(n**3, 2) / _real_root(2 * S, 2),
            "N^3/(2*sqrt(2S))",
            {"N": n, "P": P, "S": S},
        )
    raise BoundError(f"no analytic lower bound for algorithm {algorithm!r}")


def _real_root(base: int, d: int):
    """base^(1/d) as a Fraction when exact, else a float."""
    if d == 1:
        return Fraction(base)
    r = round(base ** (1.0 / d))
    if r**d == base:
        return Fraction(r)
    return base ** (1.0 / d)


@_in_float_range
def analytic_horizontal_ub(params: AlgorithmParams, n_nodes: int) -> BoundReport:
    """Ghost-cell upper bound on per-node horizontal traffic for ``params.algorithm``.

    Block-partitioned grids exchange one halo per sweep: exactly
    (B+2)^d - B^d values per iteration for the one-deep stencil halo.  The
    two-dimensional stencil sweep uses its standard 4BT edge-exchange
    total; other dimensions fall back to the general halo form.  Both
    carry ``params["leading"]``, the leading ghost term 2*d*B^(d-1)*iters.
    """
    if n_nodes < 1:
        raise BoundError("n_nodes must be >= 1")
    algorithm, n, d, T, m = params.algorithm, params.n, params.d, params.T, params.m
    B = n / _real_root(n_nodes, d)
    iters = m if algorithm == "gmres" else T
    if algorithm not in ("cg", "gmres", "jacobi"):
        raise BoundError(f"no horizontal upper bound for algorithm {algorithm!r}")
    if B < 1:
        raise BoundError("more nodes than grid blocks: block extent < 1")
    leading = float(2 * d * B ** (d - 1) * iters)
    if algorithm == "jacobi" and d == 2:
        ghost = 4 * B
        symbolic = "4*B*T, B = n/n_nodes^(1/2)"
        asymptotic = None
        count = {"T": T}
    else:
        ghost = (B + 2) ** d - B**d
        symbolic = "((B+2)^d - B^d) * iters, B = n/n_nodes^(1/d)"
        asymptotic = f"O(2*d*B^(d-1)*iters) = {leading:.6g}"
        count = {"iters": iters}
    return BoundReport(
        kind="upper",
        value=ghost * iters,
        method="analytic",
        symbolic=symbolic,
        asymptotic=asymptotic,
        params={"n": n, "d": d, **count, "n_nodes": n_nodes,
                "B": float(B), "ghost": float(ghost), "leading": leading},
    )
