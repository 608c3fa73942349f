"""Parameterized CDAG generators for the analyzed computations.

Every generator returns an :class:`AnnotatedCdag`: the graph itself plus
slab annotations (per outer iteration or per pipeline stage) and the scalar
anchor vertices that drive wavefront analyses.  The builder records the
annotations while the vertices are added: a generator closes each slab as
it finishes emitting it and appends anchors as it creates them.

Modeling conventions, shared by the Krylov generators:

* Matrix values are compile-time constants: a sparse matrix-vector product
  reads only the operand vector's stencil neighborhood, no matrix vertices.
* Dot products are left-leaning binary reduction trees over one multiply
  vertex per grid point; only the leaf set matters to the analyses.
* Vector updates are fused multiply-add vertices, one per grid point.
* A value produced in one iteration and consumed in the next appears in
  both slabs; no other vertex is in two slabs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .cdag import Cdag
from .errors import ALGORITHMS, CdagError


@dataclass(frozen=True)
class AlgorithmParams:
    """Size parameters for the generator and analytic-bound families.

    ``n`` is the grid/matrix extent per dimension, ``d`` the spatial
    dimension, ``T`` the outer iteration count, ``m`` the Krylov iteration
    count, ``stencil_points`` the neighborhood size for stencil sweeps.
    """

    algorithm: str
    n: int = 1
    d: int = 1
    T: int = 1
    m: int = 1
    stencil_points: Optional[int] = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise CdagError(f"unknown algorithm {self.algorithm!r}")
        if self.n < 1 or self.d < 1 or self.T < 1 or self.m < 1:
            raise CdagError("n, d, T, m must all be >= 1")
        if self.stencil_points is not None:
            allowed = {2 * self.d + 1, 3**self.d}
            if self.stencil_points not in allowed:
                raise CdagError(
                    f"stencil_points must be one of {sorted(allowed)} for d={self.d}, "
                    f"got {self.stencil_points}"
                )


@dataclass(frozen=True)
class AnnotatedCdag:
    """A generated CDAG with slab and anchor annotations.

    Only consecutive slabs overlap; the frontier between slabs ``a`` and
    ``b`` is ``slabs[a] & slabs[b]``.
    """

    cdag: Cdag
    slabs: dict[str, frozenset[int]] = field(default_factory=dict)
    wavefront_anchors: tuple[int, ...] = ()

    def by_label(self) -> dict[str, int]:
        """Reverse label map; generators label every vertex uniquely."""
        labels = self.cdag.labels or {}
        return {s: v for v, s in labels.items()}


class _Builder:
    """Incremental CDAG assembly with dense ids, mandatory labels and annotations."""

    def __init__(self):
        self.labels: dict[int, str] = {}
        self.edges: list[tuple[int, int]] = []
        self.inputs: set[int] = set()
        self.outputs: set[int] = set()
        self.slabs: dict[str, frozenset[int]] = {}
        self.anchors: list[int] = []
        self._next = 0

    def add(self, label: str, preds: Iterable[int] = (), is_input: bool = False) -> int:
        v = self._next
        self._next += 1
        self.labels[v] = label
        if is_input:
            self.inputs.add(v)
        for p in preds:
            self.edges.append((p, v))
        return v

    def reduce(self, leaves: list[int], root_label: str) -> int:
        """Left-leaning binary reduction of a nonempty leaf list; returns the root.

        A single leaf is its own root and creates no vertices.
        """
        acc = leaves[0]
        for i, leaf in enumerate(leaves[1:], start=1):
            label = root_label if i == len(leaves) - 1 else f"{root_label}.{i}"
            acc = self.add(label, preds=(acc, leaf))
        return acc

    def slab(self, name: str, start: int, shared: Iterable[int] = ()) -> None:
        """Close slab ``name``: the vertices added since ``start`` plus ``shared``."""
        self.slabs[name] = frozenset(itertools.chain(range(start, self._next), shared))

    def finish(self) -> AnnotatedCdag:
        cdag = Cdag.build(
            vertices=self.labels,  # the ids 0.._next-1, as the int objects the edges already hold
            edges=self.edges,
            inputs=self.inputs,
            outputs=self.outputs,
            labels=self.labels,
        )
        return AnnotatedCdag(cdag, self.slabs, tuple(self.anchors))


def _grid_points(n: int, d: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(n), repeat=d))


def _stencil_offsets(d: int, stencil_points: int) -> list[tuple[int, ...]]:
    if stencil_points == 2 * d + 1:
        offsets = [tuple(0 for _ in range(d))]
        for axis in range(d):
            for step in (-1, 1):
                off = [0] * d
                off[axis] = step
                offsets.append(tuple(off))
        return offsets
    if stencil_points == 3**d:
        return list(itertools.product((-1, 0, 1), repeat=d))
    raise CdagError(f"stencil_points must be one of {sorted({2 * d + 1, 3**d})} for d={d}, got {stencil_points}")


def _neighbors(point: tuple[int, ...], n: int, offsets) -> list[tuple[int, ...]]:
    """Stencil neighborhood with boundary clamping: out-of-range taps drop."""
    out = []
    for off in offsets:
        q = tuple(c + o for c, o in zip(point, off))
        if all(0 <= c < n for c in q):
            out.append(q)
    return out


# ---------------------------------------------------------------------------
# dense linear algebra pieces
# ---------------------------------------------------------------------------


def gen_chain(k: int) -> AnnotatedCdag:
    """Path of k vertices; first tagged input, last tagged output.

    Oracle test fixture: streams through any capacity >= 2.
    """
    if k < 1:
        raise CdagError("k must be >= 1")
    b = _Builder()
    prev = b.add("c[0]", is_input=True)
    for i in range(1, k):
        prev = b.add(f"c[{i}]", preds=(prev,))
    b.outputs.add(prev)
    b.slab("chain", 1)  # every vertex but the input c[0]
    return b.finish()


def gen_outer_product(N: int) -> AnnotatedCdag:
    """Outer product of two length-N vectors; all N^2 results are outputs."""
    if N < 1:
        raise CdagError("N must be >= 1")
    b = _Builder()
    p = [b.add(f"p[{i}]", is_input=True) for i in range(N)]
    q = [b.add(f"q[{j}]", is_input=True) for j in range(N)]
    start = b._next
    for i in range(N):
        for j in range(N):
            b.outputs.add(b.add(f"pq[{i},{j}]", preds=(p[i], q[j])))
    b.slab("products", start)
    return b.finish()


def _emit_matmul(b: _Builder, A, B, N: int):
    """N^3 multiplies plus per-(i,j) accumulation chains; returns C grid."""
    C = {}
    for i in range(N):
        for j in range(N):
            terms = [b.add(f"m[{i},{k},{j}]", preds=(A[i, k], B[k, j])) for k in range(N)]
            acc = terms[0]
            for k in range(1, N):
                label = f"C[{i},{j}]" if k == N - 1 else f"acc[{i},{j},{k}]"
                acc = b.add(label, preds=(acc, terms[k]))
            C[i, j] = acc
    return C


def gen_matmul(N: int) -> AnnotatedCdag:
    """Dense N x N matrix multiplication CDAG.

    2N^2 inputs, N^3 multiply vertices, N^3 - N^2 accumulation vertices,
    N^2 output sums.
    """
    if N < 1:
        raise CdagError("N must be >= 1")
    b = _Builder()
    A = {(i, k): b.add(f"A[{i},{k}]", is_input=True) for i in range(N) for k in range(N)}
    B = {(k, j): b.add(f"B[{k},{j}]", is_input=True) for k in range(N) for j in range(N)}
    first_compute = b._next
    b.outputs.update(_emit_matmul(b, A, B, N).values())
    # multiplies and accumulations interleave, so neither is a run of ids
    computed = frozenset(range(first_compute, b._next))
    mults = frozenset(v for v in computed if b.labels[v].startswith("m["))
    b.slabs["mults"] = mults
    if computed - mults:
        b.slabs["accs"] = computed - mults
    return b.finish()


def gen_composite(N: int) -> AnnotatedCdag:
    """Two outer products feeding a matrix product and a global reduction.

    Inputs are four length-N vectors p, q, r, s; A = p q^T and B = r s^T
    are rank-1 matrices, C = A B, and the single output is the sum of all
    entries of C.  The interesting regime is a fast memory of 4N + 4 words,
    where the whole pipeline runs with 4N + 1 transfers.
    """
    if N < 1:
        raise CdagError("N must be >= 1")
    b = _Builder()
    p = [b.add(f"p[{i}]", is_input=True) for i in range(N)]
    q = [b.add(f"q[{i}]", is_input=True) for i in range(N)]
    r = [b.add(f"r[{i}]", is_input=True) for i in range(N)]
    s = [b.add(f"s[{i}]", is_input=True) for i in range(N)]
    start = b._next
    A = {(i, j): b.add(f"A[{i},{j}]", preds=(p[i], q[j])) for i in range(N) for j in range(N)}
    b.slab("outer_A", start)
    start = b._next
    B = {(i, j): b.add(f"B[{i},{j}]", preds=(r[i], s[j])) for i in range(N) for j in range(N)}
    b.slab("outer_B", start)
    start = b._next
    C = _emit_matmul(b, A, B, N)
    b.slab("matmul", start)
    start = b._next
    leaves = [C[i, j] for i in range(N) for j in range(N)]
    b.outputs.add(b.reduce(leaves, "sum"))
    if N > 1:  # a single leaf is its own sum
        b.slab("reduce", start)
    return b.finish()


# ---------------------------------------------------------------------------
# iterative solvers
# ---------------------------------------------------------------------------


def gen_cg(n: int, d: int, T: int) -> AnnotatedCdag:
    """Conjugate-gradient iteration CDAG on an n^d grid, T outer iterations.

    Per iteration: a stencil matrix-vector product v = A p, the search-step
    scalar a (anchor), saxpy updates of the solution x and the residual r,
    the new residual norm reduction, the direction-step scalar g (anchor),
    and the search-direction update p.  The residual dot product is carried
    between iterations as a scalar: each iteration consumes the norm value
    its predecessor produced, and the first iteration receives it as the
    input scalar rr0.  The direction update consumes (r_new, g); its old-p
    operand is folded into g's ancestry so that the per-iteration cut
    structure is exactly the two anchor wavefronts.

    Vertex count is 8 n^d per iteration plus 3 n^d + 1 inputs.  The
    operation-count model used by the balance analyzer (20 n^d per
    iteration for d=3) counts individual flops, so it exceeds the fused
    vertex count by a constant factor; this generator is the structural
    model, not the flop model.
    """
    if n < 2 or d < 1 or T < 1:
        raise CdagError("gen_cg requires n >= 2, d >= 1, T >= 1")
    b = _Builder()
    points = _grid_points(n, d)
    offsets = _stencil_offsets(d, 2 * d + 1)
    coord = {pt: i for i, pt in enumerate(points)}

    def vec(prefix, it):
        return [f"{prefix}{it}[{','.join(map(str, pt))}]" for pt in points]

    x_prev = [b.add(s, is_input=True) for s in vec("x", 0)]
    r_prev = [b.add(s, is_input=True) for s in vec("r", 0)]
    p_prev = [b.add(s, is_input=True) for s in vec("p", 0)]
    rr_prev = b.add("rr0", is_input=True)

    for it in range(1, T + 1):
        start = b._next
        v = [
            b.add(
                f"v{it}[{','.join(map(str, pt))}]",
                preds=tuple(p_prev[coord[nb]] for nb in _neighbors(pt, n, offsets)),
            )
            for pt in points
        ]
        mpv = [b.add(f"mpv{it}[{k}]", preds=(p_prev[k], v[k])) for k in range(len(points))]
        spv = b.reduce(mpv, f"spv{it}")
        a = b.add(f"a{it}", preds=(rr_prev, spv))
        b.anchors.append(a)
        x_new = [
            b.add(s, preds=(x_prev[k], a, p_prev[k])) for k, s in enumerate(vec("x", it))
        ]
        r_new = [
            b.add(s, preds=(r_prev[k], a, v[k])) for k, s in enumerate(vec("r", it))
        ]
        mrn = [b.add(f"mrn{it}[{k}]", preds=(r_new[k],)) for k in range(len(points))]
        srn = b.reduce(mrn, f"srn{it}")
        g = b.add(f"g{it}", preds=(srn, a))
        b.anchors.append(g)
        p_new = [b.add(s, preds=(r_new[k], g)) for k, s in enumerate(vec("p", it))]

        b.slab(f"iter{it}", start, (*x_prev, *r_prev, *p_prev, rr_prev) if it > 1 else ())
        x_prev, r_prev, p_prev, rr_prev = x_new, r_new, p_new, srn

    b.outputs.update(x_prev)
    return b.finish()


def gen_gmres(n: int, d: int, m: int) -> AnnotatedCdag:
    """GMRES iteration CDAG on an n^d grid, m Krylov iterations.

    Iteration i holds a stencil product w = A v_{i-1}, i projection dot
    trees h[j,i] = <w, v_j>, a fused correction chain producing the
    unnormalized vector vp_i, its norm reduction (anchor), the normalized
    basis vector v_i shared with the next iteration, and one scalar vertex
    standing in for the constant-size rotation update.  The post-loop
    solution assembly (the y coefficients and the x update chain) is
    emitted in a trailing "final" slab; it is not part of any per-iteration
    bound.
    """
    if n < 2 or d < 1 or m < 1:
        raise CdagError("gen_gmres requires n >= 2, d >= 1, m >= 1")
    b = _Builder()
    points = _grid_points(n, d)
    offsets = _stencil_offsets(d, 2 * d + 1)
    coord = {pt: i for i, pt in enumerate(points)}
    npts = len(points)

    x0 = [b.add(f"x0[{k}]", is_input=True) for k in range(npts)]
    basis = [[b.add(f"v0[{k}]", is_input=True) for k in range(npts)]]
    beta = b.add("beta", is_input=True)

    gv_prev = beta
    for it in range(1, m + 1):
        start = b._next
        v_in = basis[-1]
        w = [
            b.add(
                f"w{it}[{k}]",
                preds=tuple(v_in[coord[nb]] for nb in _neighbors(points[k], n, offsets)),
            )
            for k in range(npts)
        ]
        h_roots = []
        for j in range(it):
            mh = [b.add(f"mh[{j},{it}][{k}]", preds=(w[k], basis[j][k])) for k in range(npts)]
            h_roots.append(b.reduce(mh, f"h[{j},{it}]"))
        chain = list(w)
        for j in range(it):
            last = j == it - 1
            chain = [
                b.add(
                    f"vp{it}[{k}]" if last else f"vpart{it}.{j}[{k}]",
                    preds=(chain[k], h_roots[j], basis[j][k]),
                )
                for k in range(npts)
            ]
        vp = chain
        mn = [b.add(f"mn{it}[{k}]", preds=(vp[k],)) for k in range(npts)]
        nrm = b.reduce(mn, f"nrm{it}")
        v_new = [b.add(f"v{it}[{k}]", preds=(vp[k], nrm)) for k in range(npts)]
        gv = b.add(f"gv{it}", preds=(gv_prev, h_roots[-1], nrm))
        b.anchors.extend((h_roots[-1], nrm))
        b.slab(f"iter{it}", start, (*basis[-1], gv_prev) if it > 1 else ())
        basis.append(v_new)
        gv_prev = gv

    start = b._next
    y = [b.add(f"y[{j}]", preds=(gv_prev,)) for j in range(m)]
    xf = x0
    for j in range(m):
        xf = [b.add(f"xf{j}[{k}]", preds=(xf[k], y[j])) for k in range(npts)]
    b.outputs.update(xf)
    b.slab("final", start)
    return b.finish()


def gen_jacobi(n: int, d: int, T: int, stencil_points: Optional[int] = None) -> AnnotatedCdag:
    """Stencil relaxation sweep: T time slabs over an n^d grid.

    Vertex (point, t) averages its stencil neighborhood from slab t-1;
    boundary points simply take fewer neighbors, so the vertex count is
    exactly n^d T.  Slab 0 is the input layer and slab T-1 the output
    layer, which makes the result valid under the strict tagging
    convention as generated.
    """
    if n < 3 or d < 1 or T < 2:
        raise CdagError("gen_jacobi requires n >= 3, d >= 1, T >= 2")
    if stencil_points is None:
        stencil_points = 3**d
    offsets = _stencil_offsets(d, stencil_points)
    b = _Builder()
    points = _grid_points(n, d)
    prev: dict[tuple[int, ...], int] = {}
    for t in range(T):
        start = b._next
        layer = {}
        for pt in points:
            name = f"u{t}[{','.join(map(str, pt))}]"
            if t == 0:
                layer[pt] = b.add(name, is_input=True)
            else:
                layer[pt] = b.add(name, preds=tuple(prev[nb] for nb in _neighbors(pt, n, offsets)))
        b.slab(f"t{t}", start)
        prev = layer
    b.outputs.update(prev.values())
    return b.finish()


def generate(params: AlgorithmParams) -> AnnotatedCdag:
    """Dispatch a generator from an AlgorithmParams record."""
    alg = params.algorithm
    if alg == "outer_product":
        return gen_outer_product(params.n)
    if alg == "matmul":
        return gen_matmul(params.n)
    if alg == "composite":
        return gen_composite(params.n)
    if alg == "cg":
        return gen_cg(params.n, params.d, params.T)
    if alg == "gmres":
        return gen_gmres(params.n, params.d, params.m)
    if alg == "jacobi":
        return gen_jacobi(params.n, params.d, params.T, params.stencil_points)
    if alg == "chain":
        return gen_chain(params.n)
    raise CdagError(f"unknown algorithm {alg!r}")
