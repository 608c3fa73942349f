"""Computational DAG model with input/output tagging and graph surgeries.

A computation is a directed acyclic graph whose vertices are operations and
whose edges carry values between them.  Two tagging conventions are
supported:

* ``hk``  -- every source vertex must be tagged as an input and every sink
  as an output (the classic red-blue game precondition).
* ``rbw`` -- tagging is flexible: untagged sources are ordinary compute
  vertices that fire for free, untagged sinks need no final store.

Instances are immutable; every operation here is a pure function of its
arguments.  This module computes no bounds: the rules that carry a bound
across the surgeries and splits made here live in :mod:`.reports`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Iterable, Mapping, Optional

from .errors import CdagError

VertexId = int
Edge = tuple[int, int]


@dataclass(frozen=True)
class Cdag:
    """Directed graph with designated input and output vertex sets.

    Use :meth:`build` rather than the raw constructor: it normalises the
    containers and rejects nonsense (unknown endpoints, duplicate edges,
    negative ids).  Cycles are representable on purpose so that
    :meth:`validate` can report them as violations.
    """

    vertices: frozenset[int]
    edges: frozenset[Edge]
    inputs: frozenset[int]
    outputs: frozenset[int]
    labels: Optional[Mapping[int, str]] = None

    @classmethod
    def build(
        cls,
        vertices: Iterable[int],
        edges: Iterable[Edge] = (),
        inputs: Iterable[int] = (),
        outputs: Iterable[int] = (),
        labels: Optional[Mapping[int, str]] = None,
    ) -> "Cdag":
        vs = frozenset(vertices)
        for v in vs:
            if not isinstance(v, int) or v < 0:
                raise CdagError(f"vertex ids must be nonnegative integers, got {v!r}")
        edge_list = [(int(u), int(v)) for u, v in edges]
        seen = set()
        for u, v in edge_list:
            if u not in vs or v not in vs:
                raise CdagError(f"edge ({u}, {v}) references unknown vertex")
            if (u, v) in seen:
                raise CdagError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        ins = frozenset(inputs)
        outs = frozenset(outputs)
        if not ins <= vs:
            raise CdagError(f"unknown input vertices: {sorted(ins - vs)}")
        if not outs <= vs:
            raise CdagError(f"unknown output vertices: {sorted(outs - vs)}")
        if labels is not None:
            bad = set(labels) - vs
            if bad:
                raise CdagError(f"labels reference unknown vertices: {sorted(bad)}")
            labels = dict(labels)
        return cls(vs, frozenset(seen), ins, outs, labels)

    # -- derived structure -------------------------------------------------

    @cached_property
    def preds(self) -> dict[int, frozenset[int]]:
        acc: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            acc[v].add(u)
        return {v: frozenset(s) for v, s in acc.items()}

    @cached_property
    def succs(self) -> dict[int, frozenset[int]]:
        acc: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            acc[u].add(v)
        return {v: frozenset(s) for v, s in acc.items()}

    def in_degree(self, v: int) -> int:
        return len(self.preds[v])

    def out_degree(self, v: int) -> int:
        return len(self.succs[v])

    @cached_property
    def topological_order(self) -> Optional[tuple[int, ...]]:
        """Vertices in a topological order, or None if the graph is cyclic.

        Deterministic: ties broken by lowest vertex id.
        """
        indeg = {v: len(self.preds[v]) for v in self.vertices}
        import heapq

        ready = [v for v, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for w in self.succs[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(ready, w)
        if len(order) != len(self.vertices):
            return None
        return tuple(order)

    @property
    def is_acyclic(self) -> bool:
        return self.topological_order is not None

    def ancestors(self, v: int) -> frozenset[int]:
        """All proper ancestors of v (vertices with a path to v)."""
        return self._reach(v, self.preds)

    def descendants(self, v: int) -> frozenset[int]:
        """All proper descendants of v (vertices reachable from v)."""
        return self._reach(v, self.succs)

    def _reach(self, v: int, adj: Mapping[int, frozenset[int]]) -> frozenset[int]:
        if v not in self.vertices:
            raise CdagError(f"unknown vertex {v}")
        seen: set[int] = set()
        dq = deque(adj[v])
        while dq:
            u = dq.popleft()
            if u in seen:
                continue
            seen.add(u)
            dq.extend(adj[u])
        return frozenset(seen)

    def label(self, v: int) -> Optional[str]:
        if self.labels is None:
            return None
        return self.labels.get(v)

    # -- validation --------------------------------------------------------

    def validate(self, mode: str = "rbw") -> list[str]:
        """Return every tagging/structure violation under the convention.

        An empty list means the CDAG is valid.  ``hk`` mode additionally
        requires every in-degree-0 vertex to be an input and every
        out-degree-0 vertex to be an output; ``rbw`` mode allows untagged
        sources and sinks.  The scan runs once per mode on an instance;
        each call returns a fresh list.
        """
        if mode not in ("hk", "rbw"):
            raise CdagError(f"unknown validation mode {mode!r}")
        found = self._violations.get(mode)
        if found is None:
            found = self._violations[mode] = tuple(self._scan(mode))
        return list(found)

    @cached_property
    def _violations(self) -> dict[str, tuple[str, ...]]:
        return {}

    def _scan(self, mode: str) -> list[str]:
        loops = sorted(u for u, v in self.edges if u == v)
        violations = [f"self-loop at vertex {u}" for u in loops]
        if self.topological_order is None:
            cyc = self._find_cycle()
            violations.append("cycle: " + "->".join(str(v) for v in cyc))
        for v in sorted(self.inputs):
            if self.in_degree(v) > 0:
                violations.append(f"input vertex {v} has in-degree {self.in_degree(v)}")
        if mode == "hk":
            for v in sorted(self.vertices):
                if self.in_degree(v) == 0 and v not in self.inputs:
                    violations.append(f"hk: source vertex {v} not tagged as input")
                if self.out_degree(v) == 0 and v not in self.outputs:
                    violations.append(f"hk: sink vertex {v} not tagged as output")
        return violations

    def check(self, mode: str = "rbw") -> None:
        """Raise CdagError when :meth:`validate` reports violations."""
        violations = self.validate(mode)
        if violations:
            raise CdagError(f"invalid CDAG ({mode} mode): " + "; ".join(violations))

    def _find_cycle(self) -> list[int]:
        color = {v: 0 for v in self.vertices}  # 0 new, 1 active, 2 done
        parent: dict[int, int] = {}
        for root in sorted(self.vertices):
            if color[root] != 0:
                continue
            stack = [(root, iter(sorted(self.succs[root])))]
            color[root] = 1
            while stack:
                v, it = stack[-1]
                advanced = False
                for w in it:
                    if color[w] == 0:
                        color[w] = 1
                        parent[w] = v
                        stack.append((w, iter(sorted(self.succs[w]))))
                        advanced = True
                        break
                    if color[w] == 1:
                        cyc = [w, v]
                        u = v
                        while u != w and u in parent:
                            u = parent[u]
                            cyc.append(u)
                        cyc.reverse()
                        return cyc
                if not advanced:
                    color[v] = 2
                    stack.pop()
        return []

    # -- surgeries ---------------------------------------------------------

    def induced(self, block: Iterable[int]) -> "Cdag":
        """Sub-CDAG induced by a vertex block.

        Inputs/outputs are intersected with the block; edges keep both
        endpoints inside it.
        """
        blk = frozenset(block)
        unknown = blk - self.vertices
        if unknown:
            raise CdagError(f"unknown vertex in block: {sorted(unknown)}")
        labels = None
        if self.labels is not None:
            labels = {v: s for v, s in self.labels.items() if v in blk}
        return Cdag(
            vertices=blk,
            edges=frozenset((u, v) for u, v in self.edges if u in blk and v in blk),
            inputs=self.inputs & blk,
            outputs=self.outputs & blk,
            labels=labels,
        )

    def retag(self, add_inputs: Iterable[int] = (), add_outputs: Iterable[int] = ()) -> "Cdag":
        """Tag extra vertices as inputs/outputs without touching the graph.

        New inputs must be predecessor-free; already-tagged vertices are
        rejected so that |dI| and |dO| stay meaningful for bound transfer.
        """
        di = frozenset(add_inputs)
        do = frozenset(add_outputs)
        unknown = (di | do) - self.vertices
        if unknown:
            raise CdagError(f"unknown vertex: {sorted(unknown)}")
        for v in sorted(di):
            if self.in_degree(v) > 0:
                raise CdagError(f"cannot tag interior vertex {v} as input")
        if di & self.inputs:
            raise CdagError(f"already tagged as input: {sorted(di & self.inputs)}")
        if do & self.outputs:
            raise CdagError(f"already tagged as output: {sorted(do & self.outputs)}")
        return Cdag(
            vertices=self.vertices,
            edges=self.edges,
            inputs=self.inputs | di,
            outputs=self.outputs | do,
            labels=self.labels,
        )


@dataclass(frozen=True)
class Partition:
    """A split of a vertex domain into pairwise-disjoint blocks.

    :meth:`validate` requires the blocks to cover the stated domain exactly,
    so counting bounds may sum over them.  Parts that share a frontier are
    composed through :func:`nondisjoint_decompose` instead.
    """

    blocks: tuple[frozenset[int], ...]

    @classmethod
    def of(cls, blocks: Iterable[Iterable[int]]) -> "Partition":
        return cls(tuple(frozenset(b) for b in blocks))

    def validate(self, cdag: Cdag, domain: Optional[frozenset[int]] = None) -> list[str]:
        violations = []
        dom = cdag.vertices if domain is None else domain
        union: set[int] = set()
        for i, blk in enumerate(self.blocks):
            if not blk <= cdag.vertices:
                violations.append(f"block {i} contains unknown vertices {sorted(blk - cdag.vertices)}")
            if blk & union:
                violations.append(f"block {i} overlaps earlier blocks: {sorted(blk & union)}")
            union |= blk
        missing = dom - union
        extra = union - dom
        if missing:
            violations.append(f"blocks do not cover domain, missing {sorted(missing)}")
        if extra:
            violations.append(f"blocks exceed domain by {sorted(extra)}")
        return violations


@dataclass(frozen=True)
class NondisjointSplit:
    """Result of splitting a CDAG at a pinned vertex x.

    ``first`` is the sub-CDAG on everything outside ``detached`` (x kept),
    ``second`` the sub-CDAG induced by ``detached``.  The composition rule
    is: the I/O optimum of the whole at capacity S is at least the optimum
    of ``first`` at capacity S+1 plus the optimum of ``second`` at S --
    one extra pebble is dedicated to parking x for the first part.
    :func:`pebblebound.reports.compose_split` applies it.
    """

    anchor: int
    first: Cdag
    second: Cdag
    rule: ClassVar[str] = "IO_S(C) >= IO_{S+1}(C1) + IO_S(C2)"


def nondisjoint_decompose(cdag: Cdag, x: int, dx: Iterable[int]) -> NondisjointSplit:
    """Split ``cdag`` into (everything but ``dx``, keeping x) and ``dx``.

    The structural adequacy of ``dx`` is the caller's responsibility; use
    :func:`check_split_side_conditions` for the documented checklist
    (predecessor containment and x-mediated re-entry).
    """
    dset = frozenset(dx)
    if x not in cdag.vertices:
        raise CdagError(f"unknown vertex {x}")
    if x in dset:
        raise CdagError(f"pinned vertex {x} must not be part of the detached set")
    unknown = dset - cdag.vertices
    if unknown:
        raise CdagError(f"unknown vertex in detached set: {sorted(unknown)}")
    first = cdag.induced(cdag.vertices - dset)
    second = cdag.induced(dset)
    return NondisjointSplit(anchor=x, first=first, second=second)


def check_split_side_conditions(cdag: Cdag, x: int, dx: Iterable[int]) -> list[str]:
    """Checklist for a safe (x, dx) non-disjoint split.

    Reports a violation for every path that leaves ``dx`` and re-enters the
    remainder anywhere other than through x.  An empty result means the
    split's composition rule can be applied without further argument.
    """
    dset = frozenset(dx)
    rest = cdag.vertices - dset - {x}
    violations = []
    for u in sorted(dset):
        for w in sorted(cdag.succs[u]):
            if w in rest:
                violations.append(f"edge {u}->{w} leaves the detached set without passing through {x}")
    return violations
