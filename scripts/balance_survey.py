#!/usr/bin/env python3
"""Survey the solvers' bandwidth verdicts on the shipped machine specs.

Prints, for each (algorithm instance, machine) pair, the vertical
lower-bound intensity against the machine's vertical balance and the
horizontal upper-bound intensity against its horizontal balance, plus the
stencil dimension thresholds.

This is pure closed-form evaluation; it runs in well under a second.
"""

from fractions import Fraction

from pebblebound import AlgorithmParams, analyze, load_machine


def fmt(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator} ({float(x):.4g})"
    return f"{float(x):.4g}"


def main():
    machines = [load_machine("bgq"), load_machine("crayxt5")]
    instances = [
        AlgorithmParams("cg", n=1000, d=3, T=1),
        AlgorithmParams("gmres", n=1000, d=3, m=1),
        AlgorithmParams("gmres", n=1000, d=3, m=10),
        AlgorithmParams("gmres", n=1000, d=3, m=100),
        AlgorithmParams("jacobi", n=1000, d=2, T=100),
        AlgorithmParams("jacobi", n=100, d=3, T=100),
    ]
    for machine in machines:
        print(f"=== {machine.name}: N_nodes={machine.n_nodes}, "
              f"vbal={machine.vertical_balance}, hbal={machine.horizontal_balance} ===")
        for params in instances:
            report = analyze(params, machine)
            tag = f"{params.algorithm}(n={params.n}, d={params.d}, "
            tag += f"m={params.m})" if params.algorithm == "gmres" else f"T={params.T})"
            print(f"  {tag}")
            print(f"    vertical:   intensity {fmt(report.vertical.algorithm_intensity):>22}"
                  f"  -> {report.vertical.verdict}")
            print(f"    horizontal: intensity {fmt(report.horizontal.algorithm_intensity):>22}"
                  f"  -> {report.horizontal.verdict}")
            for name, thr in report.jacobi_thresholds:
                exact = "inf" if thr.exact == float("inf") else f"{thr.exact:.2f}"
                print(f"    dimension threshold at {name}: "
                      f"published {thr.published:.2f}, exact {exact}")
        print()


if __name__ == "__main__":
    main()
