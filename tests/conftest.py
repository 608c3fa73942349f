"""Shared fixtures and independent oracles for the test suite.

The enumeration oracles here deliberately avoid the library's flow and
search code paths so that equality tests are genuine cross-checks.
"""

from __future__ import annotations

import itertools
import os
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from pebblebound import (
    Cdag,
    gen_chain,
    gen_composite,
    gen_jacobi,
    gen_matmul,
    gen_outer_product,
    wavefront_min,
)

# subprocesses (`python -m pebblebound.cli`) import the package from this checkout too
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")))
)


def make_cdag(n, edges, inputs=(), outputs=()):
    return Cdag.build(range(n), edges, inputs, outputs)


def diamond():
    # 0 -> {1, 2} -> 3
    return make_cdag(4, [(0, 1), (0, 2), (1, 3), (2, 3)], inputs=[0], outputs=[3])


def random_dag(rng: random.Random, n: int, p: float = 0.35, tag_outputs=False):
    """Seeded random DAG with forward edges only; sources tagged as inputs."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    has_pred = {j for _, j in edges}
    inputs = [v for v in range(n) if v not in has_pred]
    has_succ = {i for i, _ in edges}
    outputs = [v for v in range(n) if v not in has_succ] if tag_outputs else []
    return make_cdag(n, edges, inputs, outputs)


def enum_wavefront_min(cdag: Cdag, x: int) -> int:
    """Exhaustive convex-cut oracle: minimum non-anchor frontier, floor 1.

    Enumerates every predecessor-closed side containing the anchor and its
    ancestors and excluding its descendants; independent of the flow code.
    """
    anc = cdag.ancestors(x)
    desc = cdag.descendants(x)
    forced = anc | {x}
    free = sorted(cdag.vertices - forced - desc)
    best = None
    for r in range(len(free) + 1):
        for combo in itertools.combinations(free, r):
            side = forced | set(combo)
            if any(u not in side for v in side for u in cdag.preds[v]):
                continue
            rest = cdag.vertices - side
            cut = {v for v in side if v != x and any(w in rest for w in cdag.succs[v])}
            size = len(cut) if cut else 1
            if best is None or size < best:
                best = size
    return best


def wavefront_fixtures():
    """Criterion 4's 55 graphs: ten hand-picked and generated ones, then seeded random DAGs."""
    fixtures = [
        make_cdag(3, [(0, 1), (1, 2)], inputs=[0]),
        diamond(),
        gen_chain(5).cdag,
        gen_chain(9).cdag,
        gen_jacobi(3, 1, 2, 3).cdag,
        gen_jacobi(3, 1, 3, 3).cdag,
        gen_outer_product(1).cdag,
        gen_outer_product(2).cdag,
        gen_matmul(1).cdag,
        gen_composite(1).cdag,
    ]
    rng = random.Random(20240817)
    while len(fixtures) < 55:
        fixtures.append(random_dag(rng, rng.randint(2, 9), p=rng.uniform(0.2, 0.6)))
    return fixtures


def naive_wmax(cdag: Cdag, candidates=None) -> int:
    """Unpruned reference for ``wmax``: one ``wavefront_min`` per candidate anchor."""
    cand = cdag.vertices if candidates is None else set(candidates)
    return max((wavefront_min(cdag, x).size for x in cand), default=0)


def naive_umax(cdag: Cdag, twoS: int) -> int:
    """Subset oracle for ``umax_bruteforce``: tries every set of non-input vertices.

    Builds bit adjacency and reachability over the work set, then checks each
    candidate's convexity (no outside vertex both above and below it), in-set
    and out-set directly.  Exponential; keep n in the low teens.
    """
    work = sorted(cdag.vertices - cdag.inputs)
    n = len(work)
    idx = {v: i for i, v in enumerate(work)}
    succ_in = [0] * n
    pred_in = [0] * n
    for u, v in cdag.edges:
        if u in idx and v in idx:
            succ_in[idx[u]] |= 1 << idx[v]
            pred_in[idx[v]] |= 1 << idx[u]
    up = [0] * n
    down = [0] * n
    order = [v for v in cdag.topological_order if v in idx]
    for v in order:
        i = idx[v]
        for j in range(n):
            if pred_in[i] >> j & 1:
                up[i] |= up[j] | (1 << j)
    for v in reversed(order):
        i = idx[v]
        for j in range(n):
            if succ_in[i] >> j & 1:
                down[i] |= down[j] | (1 << j)
    best = 0
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size <= best:
            continue
        up_all = down_all = 0
        for i in range(n):
            if mask >> i & 1:
                up_all |= up[i]
                down_all |= down[i]
        if up_all & down_all & ~mask:
            continue
        in_set: set[int] = set()
        out_count = 0
        for i in range(n):
            if mask >> i & 1:
                in_set.update(u for u in cdag.preds[work[i]] if u not in idx or not mask >> idx[u] & 1)
                if work[i] in cdag.outputs or succ_in[i] & ~mask:
                    out_count += 1
        if len(in_set) <= twoS and out_count <= twoS:
            best = size
    return best


def iter_set_partitions(items):
    """All set partitions of ``items`` (Bell-number many; keep it small)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in iter_set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


@st.composite
def small_dags(draw, max_n=7, tag_outputs=False):
    """Hypothesis strategy: small random DAG with tagged sources."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((i, j))
    has_pred = {j for _, j in edges}
    inputs = [v for v in range(n) if v not in has_pred]
    has_succ = {i for i, _ in edges}
    outputs = [v for v in range(n) if v not in has_succ] if tag_outputs else []
    return make_cdag(n, edges, inputs, outputs)


@st.composite
def tagged_dags(draw, max_n=6):
    """Small DAG with flexible tagging: any sources may be inputs, any vertices outputs."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    sources = [v for v in range(n) if all(j != v for _, j in edges)]
    if draw(st.booleans()):
        # hk tagging: both games apply
        sinks = [v for v in range(n) if all(i != v for i, _ in edges)]
        inputs = sources
        outputs = sorted(set(sinks) | set(draw(st.sets(st.sampled_from(range(n)), max_size=2))))
    else:
        inputs = draw(st.sets(st.sampled_from(sources)))
        outputs = draw(st.sets(st.sampled_from(range(n))))
    return Cdag.build(range(n), edges, inputs, outputs)


@pytest.fixture
def rng():
    return random.Random(20240817)
