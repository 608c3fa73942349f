"""The benchmark's workloads: input instances, job lists and pinned outputs.

A job is one instance's pipeline of CLI commands (steps).  Each step lists
the exit codes it may end with and the ``--kv`` values it must print
("pins").  Pins hold only label-invariant values, so they hold for every
workload seed; ``seed0_pins`` also hold label-dependent values (heuristic
tallies, whose ties break to the lowest vertex id) and are checked only
when the seed is 0, which leaves vertex ids unchanged.  Each job's
``check`` function tests the invariants that tie its steps together.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional


@dataclass(frozen=True)
class Instance:
    """One input CDAG: a generator family, or the hand-built deep path."""

    name: str
    alg: str
    n: int = 1
    d: int = 1
    T: int = 1
    m: int = 1
    stencil_points: Optional[int] = None
    input_free: bool = False


@dataclass(frozen=True)
class Step:
    """One CLI command.  ``{in}`` names the input directory, ``{out}`` the job's."""

    argv: tuple[str, ...]
    pins: dict = field(default_factory=dict)
    seed0_pins: dict = field(default_factory=dict)
    exits: tuple[int, ...] = (0,)


@dataclass(frozen=True)
class Job:
    name: str
    steps: tuple[Step, ...]
    check: Callable[[list], list[str]] = lambda results: []
    # text expected on stderr when the job fails in its documented way
    known_failure: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple[Instance, ...]
    jobs: tuple[Job, ...]


# ---------------------------------------------------------------------------
# inputs: generate, relabel with a seeded permutation, write
# ---------------------------------------------------------------------------


def _deep_path(side: int):
    """``a0 -> x -> d`` plus a side path ``a0 -> p1 -> ... -> p<side> -> d``; anchor x."""
    from pebblebound import Cdag

    a0, x, d = 0, 1, 2
    path = list(range(3, 3 + side))
    edges = [(a0, x), (x, d), (a0, path[0]), (path[-1], d)]
    edges += list(zip(path, path[1:]))
    return Cdag.build(range(3 + side), edges), {}, (x,)


def write_inputs(workload: Workload, seed: int, in_dir: Path) -> None:
    """Write ``<name>.cdag`` and ``<name>.ann`` for every instance of a workload.

    A nonzero seed relabels vertex ids (and the slab and anchor sidecar with
    them) by a seeded permutation; seed 0 leaves the generator's ids.
    """
    from pebblebound import AlgorithmParams, Cdag, generate
    from pebblebound.formats import Annotations, format_annotations, format_cdag

    in_dir.mkdir(parents=True, exist_ok=True)
    for inst in workload.instances:
        if inst.alg == "deep_path":
            cdag, slabs, anchors = _deep_path(inst.n)
        else:
            params = AlgorithmParams(
                algorithm=inst.alg, n=inst.n, d=inst.d, T=inst.T, m=inst.m,
                stencil_points=inst.stencil_points,
            )
            ann = generate(params)
            cdag, slabs, anchors = ann.cdag, ann.slabs, ann.wavefront_anchors
        ids = sorted(cdag.vertices)
        image = list(ids)
        if seed:
            random.Random(f"{seed}/{inst.name}").shuffle(image)
        to = dict(zip(ids, image))
        labels = cdag.labels or {}
        cdag = Cdag.build(
            [to[v] for v in ids],
            [(to[u], to[v]) for u, v in cdag.edges],
            () if inst.input_free else [to[v] for v in cdag.inputs],
            () if inst.input_free else [to[v] for v in cdag.outputs],
            {to[v]: s for v, s in labels.items()} or None,
        )
        sidecar = Annotations(
            slabs={k: frozenset(to[v] for v in vs) for k, vs in slabs.items()},
            anchors=tuple(to[v] for v in anchors),
        )
        (in_dir / f"{inst.name}.cdag").write_text(format_cdag(cdag), encoding="utf-8")
        (in_dir / f"{inst.name}.ann").write_text(format_annotations(sidecar), encoding="utf-8")


# ---------------------------------------------------------------------------
# invariant checks
# ---------------------------------------------------------------------------


def number(text: str):
    """A ``--kv`` number: ``17``, ``3/2 (1.5)`` or ``1.41421``."""
    head = text.split()[0]
    return float(head) if "." in head else Fraction(head)


def best_known(stderr: str) -> Optional[int]:
    marker = "best known upper bound: "
    if marker not in stderr:
        return None
    return int(stderr.split(marker, 1)[1].split(")", 1)[0])


def _sandwich(results) -> list[str]:
    """Each lower bound <= optimum (or budget best-known) <= heuristic tally."""
    oracle, play, *bounds = results
    tally = int(play.kv["io"])
    if oracle.code == 0:
        top, what = int(oracle.kv["optimum"]), "optimum"
    else:
        # exit 3; check_step already required the best-known value
        top, what = best_known(oracle.stderr), "best known"
    problems = []
    if top > tally:
        problems.append(f"{what} {top} > heuristic tally {tally}")
    for b in bounds:
        if b.code != 0:
            continue
        lb = number(b.kv["bound.value"])
        if lb > top:
            problems.append(f"{b.kv['bound.method']} bound {lb} > {what} {top}")
    return problems


def _play_matches_validate(results) -> list[str]:
    gen, play, val = results
    problems = [
        f"validate {k}={val.kv[k]} but play {k}={play.kv[k]}"
        for k in ("loads", "stores", "io")
        if val.kv[k] != play.kv[k]
    ]
    floor = int(gen.kv["inputs"]) + int(gen.kv["outputs"])
    if int(play.kv["io"]) < floor:
        problems.append(f"tally {play.kv['io']} below |I|+|O| = {floor}")
    return problems


def _mincut_consistent(results) -> list[str]:
    (res,) = results
    S, w = int(res.kv["bound.param.S"]), int(res.kv["bound.param.wmax"])
    if number(res.kv["bound.value"]) != max(0, 2 * (w - S)):
        return [f"mincut value {res.kv['bound.value']} != 2*(wmax - S)"]
    return []


# ---------------------------------------------------------------------------
# desk-certify: the exact oracle on desk-scale instances
# ---------------------------------------------------------------------------


def _desk_job(name, inst, S, optimum, umax, spart, play_io, analytic=None, game="rbw", budget=None,
              check=None):
    """oracle, play, spart (umax brute-forced) and, where a closed form exists, analytic.

    ``optimum=None`` lets the budgeted oracle exit 3; ``umax=None`` lets the
    umax brute force run out of its default budget (exit 3) as well.
    """
    cdag = f"{{in}}/{inst.name}.cdag"
    opt_argv = ("oracle", "--cdag", cdag, "--S", str(S), "--game", game, "--kv")
    if budget is not None:
        opt_argv += ("--budget", str(budget))
    spart_argv = ("bound", "--method", "spart", "--cdag", cdag, "--S", str(S), "--kv")
    steps = [
        Step(opt_argv, exits=(0, 3)) if optimum is None
        else Step(opt_argv, pins={"game": game, "optimum": str(optimum)}),
        Step(("play", "--cdag", cdag, "--S", str(S), "--kv"), seed0_pins={"io": str(play_io)}),
        Step(spart_argv, exits=(0, 3)) if umax is None
        else Step(spart_argv, pins={"umax.bruteforced": str(umax), "bound.value": spart}),
    ]
    if analytic is not None:
        steps.append(Step(
            ("bound", "--method", "analytic", "--alg", inst.alg, "--n", str(inst.n), "--d", str(inst.d),
             "--T", str(inst.T), "--m", str(inst.m), "--S", str(S), "--kv"),
            pins={"bound.value": analytic},
        ))
    return Job(name, tuple(steps), check or _sandwich)


def _composite_check(results) -> list[str]:
    # the budgeted search either proves an optimum no worse than 38 or
    # gives up (exit 3) carrying the heuristic's best-known ceiling
    oracle = results[0]
    problems = _sandwich(results)
    if oracle.code == 0 and int(oracle.kv["optimum"]) > 38:
        problems.append(f"optimum {oracle.kv['optimum']} > 38")
    return problems


_MM2 = Instance("matmul-2", "matmul", n=2)
_CG = Instance("cg-2-1-1", "cg", n=2, d=1, T=1)
_OP3 = Instance("outer_product-3", "outer_product", n=3)
_GM = Instance("gmres-2-1-1", "gmres", n=2, d=1, m=1)
_JAC5 = Instance("jacobi-5-1-3", "jacobi", n=5, d=1, T=3, stencil_points=3)
_COMP2 = Instance("composite-2", "composite", n=2)

DESK = Workload(
    "desk-certify",
    (_MM2, _CG, _OP3, _GM, _JAC5, _COMP2),
    (
        _desk_job("matmul-2@S3", _MM2, 3, 25, 6, "3", 31, analytic="1.63299"),
        _desk_job("matmul-2@S4", _MM2, 4, 17, 12, "0", 28, analytic="1.41421"),
        _desk_job("cg-2-1-1@S4", _CG, 4, 18, 16, "0", 26, analytic="0"),
        _desk_job("outer_product-3@S3", _OP3, 3, 19, 6, "3/2 (1.5)", 23),
        _desk_job("gmres-2-1-1@S4", _GM, 4, 16, 16, "0", 21, analytic="4"),
        _desk_job("rb:outer_product-3@S3", _OP3, 3, 19, 6, "3/2 (1.5)", 23, game="rb"),
        _desk_job("rb:jacobi-5-1-3@S4", _JAC5, 4, 16, 10, "0", 19, analytic="15/32 (0.46875)", game="rb"),
        _desk_job("composite-2@S4:budget", _COMP2, 4, None, None, None, 38, budget=50000,
                  check=_composite_check),
    ),
)


# ---------------------------------------------------------------------------
# stencil-play: the heuristic player and the file formats
# ---------------------------------------------------------------------------


def _stencil_job(inst, S, vertices, edges, inputs, outputs, play_io):
    gen = ("generate", "--alg", inst.alg, "--n", str(inst.n), "--d", str(inst.d), "--T", str(inst.T),
           "--out", "{out}/generated.cdag", "--kv")
    if inst.stencil_points is not None:
        gen += ("--stencil-points", str(inst.stencil_points))
    cdag = f"{{in}}/{inst.name}.cdag"
    return Job(
        f"{inst.name}@S{S}",
        (
            Step(gen, pins={"vertices": str(vertices), "edges": str(edges),
                            "inputs": str(inputs), "outputs": str(outputs)}),
            Step(("play", "--cdag", cdag, "--S", str(S), "--trace-out", "{out}/play.trace", "--kv"),
                 seed0_pins={"io": str(play_io)}),
            Step(("validate", "--cdag", cdag, "--trace", "{out}/play.trace", "--S", str(S), "--kv"),
                 pins={"game": "rbw"}, seed0_pins={"io": str(play_io)}),
        ),
        _play_matches_validate,
    )


_J32 = Instance("jacobi-32-2-4", "jacobi", n=32, d=2, T=4)
_J16 = Instance("jacobi-16-2-4", "jacobi", n=16, d=2, T=4)
_J8 = Instance("jacobi-8-3-4-p7", "jacobi", n=8, d=3, T=4, stencil_points=7)
_CHAIN = Instance("chain-5000", "chain", n=5000)

STENCIL = Workload(
    "stencil-play",
    (_J32, _J16, _J8, _CHAIN),
    (
        _stencil_job(_J32, 16, 4096, 26508, 1024, 1024, 12116),
        _stencil_job(_J16, 16, 1024, 6348, 256, 256, 2772),
        _stencil_job(_J8, 8, 2048, 9600, 512, 512, 8575),
        _stencil_job(_CHAIN, 4, 5000, 4999, 1, 1, 2),
    ),
)


# ---------------------------------------------------------------------------
# wavefront-sweep: the min-cut flow layer, plus balance verdicts
# ---------------------------------------------------------------------------


def _mincut_job(inst, S, wmax, anchors=False, known_failure=None):
    argv = ("bound", "--method", "mincut", "--cdag", f"{{in}}/{inst.name}.cdag", "--S", str(S), "--kv")
    if anchors:
        argv += ("--anchors", f"{{in}}/{inst.name}.ann")
    name = f"{inst.name}@S{S}" + (":anchors" if anchors else ":all")
    pins = {"bound.param.wmax": str(wmax), "bound.value": str(max(0, 2 * (wmax - S)))}
    return Job(name, (Step(argv, pins=pins),), _mincut_consistent, known_failure)


def _verdicts(operations, vertical, horizontal):
    """All four shipped-machine cases: bound vertically, achievable horizontally."""
    return {
        "operations": operations,
        "intensity.vertical": vertical,
        "verdict.vertical": "provably-bandwidth-bound",
        "intensity.horizontal": horizontal,
        "verdict.horizontal": "not-bandwidth-bound-achievable",
    }


def _analyze_job(alg, n, d, T, m, machine, pins):
    argv = ("analyze", "--alg", alg, "--n", str(n), "--d", str(d), "--T", str(T), "--m", str(m),
            "--machine", machine, "--kv")
    return Job(f"analyze:{alg}-{n}-{d}@{machine}", (Step(argv, pins=pins),))


_CG24 = Instance("cg-24-1-2-free", "cg", n=24, d=1, T=2, input_free=True)
_GM8 = Instance("gmres-8-1-4-free", "gmres", n=8, d=1, m=4, input_free=True)
_CG12 = Instance("cg-12-1-4-free", "cg", n=12, d=1, T=4, input_free=True)
_CG32 = Instance("cg-32-2-1-free", "cg", n=32, d=2, T=1, input_free=True)
_DEEP = Instance("deep-path-5000", "deep_path", n=5000)

WAVEFRONT = Workload(
    "wavefront-sweep",
    (_CG24, _GM8, _CG12, _CG32, _J16, _DEEP),
    (
        _mincut_job(_CG24, 4, 97),
        _mincut_job(_GM8, 4, 41),
        _mincut_job(_CG12, 4, 49),
        _mincut_job(_CG32, 4, 2048, anchors=True),
        Job(
            "jacobi-16-2-4:mincut-divide",
            (Step(("bound", "--method", "mincut-divide", "--cdag", f"{{in}}/{_J16.name}.cdag",
                   "--partition", f"{{in}}/{_J16.name}.ann", "--S", "1", "--kv"),
                  pins={"bound.value": "512", "bound.param.blocks": "4"}),),
        ),
        _analyze_job("cg", 1000, 3, 1, 1, "bgq", _verdicts("20000000000", "3/10 (0.3)", "0.00390734")),
        _analyze_job("cg", 1000, 3, 1, 1, "crayxt5", _verdicts("20000000000", "3/10 (0.3)", "0.00660431")),
        _analyze_job("gmres", 1000, 3, 1, 10, "bgq", _verdicts("300000000000", "1/5 (0.2)", "0.0026049")),
        _analyze_job("gmres", 1000, 3, 1, 10, "crayxt5", _verdicts("300000000000", "1/5 (0.2)", "0.00440288")),
        # the recursive Dinic DFS overflows Python's stack on the side path
        _mincut_job(_DEEP, 1, 1, anchors=True, known_failure="RecursionError"),
    ),
)

WORKLOADS = {w.name: w for w in (DESK, STENCIL, WAVEFRONT)}
