#!/usr/bin/env python3
"""Compare every bound engine against the exact optimum on desk instances.

For each small generated CDAG and capacity, prints the partition-counting
bound (with an exhaustively searched block maximum), the divide-and-conquer
wavefront bound, the closed form where one exists, the exhaustive optimum,
and the heuristic player's tally.  Lower bounds never exceed the optimum; the
heuristic never beats it.

Takes about half a second.
"""

import time

from pebblebound import (
    AlgorithmParams,
    InfeasibleGameError,
    Partition,
    analytic_lb,
    gen_cg,
    gen_chain,
    gen_composite,
    gen_jacobi,
    gen_matmul,
    gen_outer_product,
    heuristic_game,
    mincut_divide_bound,
    optimal_io,
    spart_lower_bound,
    umax_bruteforce,
)

FIXTURES = [
    ("chain k=8", gen_chain(8), None),
    ("outer N=2", gen_outer_product(2), None),
    ("matmul N=2", gen_matmul(2), AlgorithmParams("matmul", n=2)),
    ("composite N=1", gen_composite(1), None),
    ("jacobi 4x3", gen_jacobi(4, 1, 3, 3), AlgorithmParams("jacobi", n=4, d=1, T=3, stencil_points=3)),
    ("cg n=2 T=1", gen_cg(2, 1, 1), AlgorithmParams("cg", n=2, d=1, T=1)),
]


def main():
    print(f"{'instance':<16}{'S':>3}{'spart':>8}{'mincut':>8}{'analytic':>10}"
          f"{'optimum':>9}{'heuristic':>11}{'time':>8}")
    for name, ann, analytic in FIXTURES:
        cdag = ann.cdag
        for S in (3, 4):
            started = time.monotonic()
            try:
                opt = optimal_io(cdag, S).value
            except InfeasibleGameError:
                print(f"{name:<16}{S:>3}{'-':>8}{'-':>8}{'-':>10}{'infeasible':>9}")
                continue
            umax = umax_bruteforce(cdag, 2 * S)
            spart = spart_lower_bound(cdag, S, umax).value
            mincut = mincut_divide_bound(cdag, Partition.of([cdag.vertices]), S).value
            closed = "-"
            if analytic is not None:
                closed = f"{float(analytic_lb(analytic, P=1, S=S).value):.2f}"
            _, tally = heuristic_game(cdag, S)
            elapsed = time.monotonic() - started
            print(f"{name:<16}{S:>3}{float(spart):>8.2f}{float(mincut):>8.2f}"
                  f"{closed:>10}{int(opt):>9}{tally.io:>11}{elapsed:>7.1f}s")


if __name__ == "__main__":
    main()
