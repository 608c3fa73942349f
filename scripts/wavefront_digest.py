#!/usr/bin/env python3
"""Print a sha256 digest of every wavefront certificate on a fixed graph set.

The set is one graph from each of the seven generator families plus 300
seeded random DAGs.  For every vertex it hashes the anchor, its fired side,
its cut and its size; for every graph, ``wmax`` over all vertices (and over
the generator's anchors, where it has them) and ``min_dominator_size`` of a
few seeded blocks.  Two revisions of the flow layer agree on every value
exactly when they print the same digest.

Takes a few seconds:

    PYTHONPATH=src python3 scripts/wavefront_digest.py
"""

import hashlib
import random

from pebblebound import (
    Cdag,
    gen_cg,
    gen_chain,
    gen_composite,
    gen_gmres,
    gen_jacobi,
    gen_matmul,
    gen_outer_product,
    wavefront_min,
    wmax,
)
from pebblebound.bounds import min_dominator_size


def graphs():
    for ann in (
        gen_chain(9),
        gen_outer_product(3),
        gen_matmul(2),
        gen_composite(2),
        gen_cg(3, 1, 2),
        gen_gmres(2, 1, 2),
        gen_jacobi(4, 1, 3, 3),
    ):
        yield ann.cdag, ann.wavefront_anchors
    rng = random.Random(20240817)
    for _ in range(300):
        n = rng.randint(2, 12)
        p = rng.uniform(0.15, 0.6)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        sources = {v for v in range(n)} - {j for _, j in edges}
        yield Cdag.build(range(n), edges, sorted(sources), ()), ()


def main() -> None:
    digest = hashlib.sha256()
    rng = random.Random(7)
    certificates = values = 0
    for cdag, anchors in graphs():
        for x in sorted(cdag.vertices):
            w = wavefront_min(cdag, x)
            digest.update(repr((x, sorted(w.S_side), sorted(w.cut_vertices), w.size)).encode())
            certificates += 1
        digest.update(repr(("wmax", wmax(cdag))).encode())
        values += 1
        if anchors:
            digest.update(repr(("anchors", wmax(cdag, anchors))).encode())
            values += 1
        verts = sorted(cdag.vertices)
        for _ in range(2):
            block = frozenset(rng.sample(verts, rng.randint(1, len(verts))))
            digest.update(repr(("dominator", min_dominator_size(cdag, block))).encode())
            values += 1
    print(f"{certificates} certificates, {values} values, sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
