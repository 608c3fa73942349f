"""Command-line driver tying generators, validators, oracles, and bounds.

Exit codes: 0 success, 1 domain failure (invalid game, infeasible
instance, unreadable input), 2 usage error, 3 search budget exhausted.
A failed run prints one ``error: ...`` line on stderr and nothing on stdout.

Two output streams: the default human-readable text (which may mention
wall time), and ``--kv``, a deterministic line-oriented ``key=value``
stream that is byte-identical across runs on identical inputs.  With
``--record PATH`` every command but ``report`` appends a run record, on
every exit, carrying the command line, sha256 digests of every file
input, its outputs, ``stats.<engine>.<counter>`` lines for engines that
count their work, the exit code and, on failure, the error (records only,
so ``--kv`` stays byte-identical).

``main`` owns the invocation's one :class:`_Run`: a ``cmd_*`` function
only reads inputs through it and emits outputs, and ``main`` turns its
errors into exit codes and finishes the run on every path.

Each process runs one command, so each ``cmd_*`` imports the engines it
runs itself, at its top: before it reads any input, so that compiling an
engine never adds to the peak memory that the parsed input holds.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import ALGORITHMS, DEFAULT_BUDGET, BudgetExhaustedError, FormatError, PebbleboundError

if TYPE_CHECKING:
    from .balance import AnalysisReport
    from .generators import AlgorithmParams
    from .reports import BoundReport


class _Run:
    """One invocation: its key=value outputs, input digests and run record."""

    def __init__(self, args, argv):
        from .reports import render  # formats every output value

        self.render = render
        self.kv = bool(getattr(args, "kv", False))
        self.record_path = getattr(args, "record", None)
        self.argv = argv
        self.pairs: list[tuple[str, str]] = []
        self.digests: list[tuple[str, str]] = []
        self.stats: list[tuple[str, object]] = []
        self.code = 0
        self.error: PebbleboundError | OSError | None = None
        self.started = time.monotonic()

    def emit(self, key: str, value) -> None:
        self.pairs.append((key, self.render(value)))

    def record_stats(self, engine: str, stats):
        """Write an engine's work counters (a dataclass) to the run record.

        The counters are read when the record is written, so an engine may
        fill them after this call, even on its way out with an error.
        Returns ``stats``.
        """
        self.stats.append((engine, stats))
        return stats

    def digest(self, path: str) -> bytes:
        """An input file's bytes, read once; with ``--record``, their sha256 goes to the record."""
        data = Path(path).read_bytes()
        if self.record_path:
            import hashlib

            self.digests.append((path, hashlib.sha256(data).hexdigest()))
        return data

    def read(self, path: str) -> str:
        """An input file's UTF-8 text, digested for the record."""
        data = self.digest(path)
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None

    def fail(self, code: int, error) -> None:
        """End the run with exit ``code``: one ``error:`` line on stderr."""
        print(f"error: {error}", file=sys.stderr)
        self.code, self.error = code, error

    def finish(self) -> None:
        """Append the run record on every exit, then print a successful run's outputs."""
        # the record goes first: a run whose record cannot be written prints nothing on stdout
        if self.record_path:
            with open(self.record_path, "a", encoding="utf-8") as fh:
                fh.write("record 1\n")
                fh.write("command=" + " ".join(self.argv) + "\n")
                fh.write(f"version={__version__}\n")
                fh.write(f"walltime={time.monotonic() - self.started:.3f}\n")
                for path, digest in self.digests:
                    fh.write(f"input.{path}.sha256={digest}\n")
                for k, v in self.pairs:
                    fh.write(f"output.{k}={v}\n")
                for engine, stats in self.stats:
                    for f in dataclasses.fields(stats):
                        fh.write(f"stats.{engine}.{f.name}={getattr(stats, f.name)}\n")
                fh.write(f"exit={self.code}\n")
                if self.error is not None:
                    fh.write(f"error={self.error}\n")
                    for attr in ("best_known", "lower"):  # BudgetExhaustedError's bracket
                        value = getattr(self.error, attr, None)
                        if value is not None:
                            fh.write(f"error.{attr}={self.render(value)}\n")
        # a failed run prints nothing here, nor does a command without outputs (report)
        if self.pairs and self.error is None:
            if self.kv:
                for k, v in self.pairs:
                    print(f"{k}={v}")
            else:
                for k, v in self.pairs:
                    print(f"{k} = {v}")
                print(f"(wall time {time.monotonic() - self.started:.3f}s)")


def _emit_report(run: _Run, prefix: str, rep: BoundReport) -> None:
    run.emit(f"{prefix}.kind", rep.kind)
    run.emit(f"{prefix}.method", rep.method)
    run.emit(f"{prefix}.value", rep.value)
    if rep.symbolic:
        run.emit(f"{prefix}.symbolic", rep.symbolic)
    if rep.asymptotic:
        run.emit(f"{prefix}.asymptotic", rep.asymptotic)
    for k in sorted(rep.params):
        run.emit(f"{prefix}.param.{k}", rep.params[k])
    for i, step in enumerate(rep.provenance):
        run.emit(f"{prefix}.provenance.{i}", step)


def _params_from_args(args) -> AlgorithmParams:
    from .generators import AlgorithmParams

    return AlgorithmParams(
        algorithm=args.alg,
        n=args.n,
        d=args.d,
        T=args.T,
        m=args.m,
        stencil_points=args.stencil_points,
    )


def _add_alg_flags(p, with_alg=True):
    if with_alg:
        p.add_argument("--alg", required=True, choices=ALGORITHMS)
    p.add_argument("--n", type=int, default=1, help="grid/matrix extent per dimension")
    p.add_argument("--d", type=int, default=1, help="spatial dimension")
    p.add_argument("--T", type=int, default=1, help="outer iteration count")
    p.add_argument("--m", type=int, default=1, help="Krylov iteration count")
    p.add_argument("--stencil-points", type=int, default=None, dest="stencil_points")


def cmd_generate(args, run: _Run) -> None:
    from .formats import Annotations, format_annotations, format_cdag
    from .generators import generate

    ann = generate(_params_from_args(args))
    Path(args.out).write_text(format_cdag(ann.cdag), encoding="utf-8")
    run.emit("cdag", args.out)
    run.emit("vertices", len(ann.cdag.vertices))
    run.emit("edges", len(ann.cdag.edges))
    run.emit("inputs", len(ann.cdag.inputs))
    run.emit("outputs", len(ann.cdag.outputs))
    if args.annotations:
        sidecar = Annotations(ann.slabs, ann.wavefront_anchors)
        Path(args.annotations).write_text(format_annotations(sidecar), encoding="utf-8")
        run.emit("annotations", args.annotations)
        run.emit("slabs", len(ann.slabs))
        run.emit("anchors", " ".join(str(a) for a in ann.wavefront_anchors))


def cmd_validate(args, run: _Run) -> None:
    from .formats import parse_cdag, parse_hierarchy, parse_trace
    from .games import validate_prbw, validate_rb, validate_rbw

    cdag = parse_cdag(run.read(args.cdag))
    game, moves = parse_trace(run.read(args.trace))
    if game == "prbw":
        if not args.hier:
            raise FormatError("hierarchical traces need --hier")
        config = parse_hierarchy(run.read(args.hier))
        tally = validate_prbw(cdag, config, moves)
        run.emit("game", "prbw")
        run.emit("loads", tally.loads)
        run.emit("stores", tally.stores)
        for (l, u), cnt in sorted(tally.vertical_down.items()):
            run.emit(f"vertical_down.L{l}.u{u}", cnt)
        for (l, u), cnt in sorted(tally.vertical_up.items()):
            run.emit(f"vertical_up.L{l}.u{u}", cnt)
        for u, cnt in sorted(tally.horizontal.items()):
            run.emit(f"horizontal.u{u}", cnt)
        for p, cnt in sorted(tally.computes.items()):
            run.emit(f"computes.p{p}", cnt)
    else:
        if args.S is None:
            raise FormatError("flat traces need --S")
        if args.game == "rb":
            tally = validate_rb(cdag, args.S, moves)
        else:
            tally = validate_rbw(cdag, args.S, moves)
        run.emit("game", args.game)
        run.emit("loads", tally.loads)
        run.emit("stores", tally.stores)
        run.emit("io", tally.io)


def cmd_play(args, run: _Run) -> None:
    from .formats import format_trace, parse_cdag
    from .games import heuristic_game

    cdag = parse_cdag(run.read(args.cdag))
    trace, tally = heuristic_game(cdag, args.S)
    run.emit("S", args.S)
    run.emit("loads", tally.loads)
    run.emit("stores", tally.stores)
    run.emit("io", tally.io)
    if args.trace_out:
        Path(args.trace_out).write_text(format_trace("rbw", trace), encoding="utf-8")
        run.emit("trace", args.trace_out)


def _optimum(run: _Run, args):
    """The exact optimum of ``--cdag`` at ``--S``, for ``oracle`` and ``bound --method oracle``."""
    from .formats import parse_cdag
    from .oracle import OracleStats, optimal_io

    cdag = parse_cdag(run.read(args.cdag))
    # counters registered first, so the record keeps them when the budget runs out
    stats = run.record_stats("oracle", OracleStats())
    return optimal_io(cdag, args.S, game=args.game, budget=args.budget, stats=stats)


def cmd_oracle(args, run: _Run) -> None:
    rep = _optimum(run, args)
    run.emit("game", args.game)
    run.emit("S", args.S)
    run.emit("optimum", rep.value)


def cmd_bound(args, run: _Run) -> None:
    if args.method == "analytic":
        from .bounds import analytic_lb

        if not args.alg:
            raise FormatError("--method analytic needs --alg")
        rep = analytic_lb(_params_from_args(args), P=args.P, S=args.S or 0)
    elif not args.cdag:
        raise FormatError(f"--method {args.method} needs --cdag")
    elif args.S is None:
        raise FormatError(f"--method {args.method} needs --S")
    elif args.method == "oracle":
        rep = _optimum(run, args)
    else:
        from .bounds import (
            FlowStats,
            mincut_divide_bound,
            mincut_lower_bound,
            require_S,
            spart_lower_bound,
            umax_bruteforce,
        )
        from .cdag import Partition
        from .formats import parse_annotations, parse_cdag

        cdag = parse_cdag(run.read(args.cdag))
        if args.method == "spart":
            require_S(args.S, "spart")  # before the umax search, whose errors name 2S
            umax = args.umax
            if umax is None:
                umax = umax_bruteforce(cdag, 2 * args.S, budget=args.budget)
                run.emit("umax.bruteforced", umax)
            rep = spart_lower_bound(cdag, args.S, umax)
        elif args.method == "mincut":
            anchors = None
            if args.anchors:
                anchors = parse_annotations(run.read(args.anchors)).anchors
            rep = mincut_lower_bound(cdag, args.S, anchors or None, run.record_stats("flow", FlowStats()))
        else:  # mincut-divide
            if not args.partition:
                raise FormatError("--method mincut-divide needs --partition")
            ann = parse_annotations(run.read(args.partition))
            blocks, listed = [], frozenset()
            for slab in ann.slabs.values():  # a vertex stays in the first slab listing it
                blocks.append(slab - listed)
                listed |= slab
            blocks.append(cdag.vertices - listed)  # slabs may leave out the inputs
            partition = Partition.of(b for b in blocks if b)
            rep = mincut_divide_bound(cdag, partition, args.S, run.record_stats("flow", FlowStats()))
    _emit_report(run, "bound", rep)


def cmd_analyze(args, run: _Run) -> None:
    from .balance import analyze, load_machine, shipped_machines
    from .formats import parse_machine

    # a shipped name wins over a file of that name, which ./NAME reads
    if args.machine in shipped_machines() or not Path(args.machine).is_file():
        machine = load_machine(args.machine)
    else:
        machine = parse_machine(run.read(args.machine))
    report = analyze(_params_from_args(args), machine)
    _emit_analysis(run, report, args.level)


def _emit_analysis(run: _Run, report: AnalysisReport, level=None) -> None:
    run.emit("algorithm", report.algorithm)
    run.emit("machine", report.machine)
    run.emit("operations", report.v_size)
    if level in (None, "vertical"):
        run.emit("intensity.vertical", report.vertical.algorithm_intensity)
        run.emit("balance.vertical", report.vertical.machine_balance)
        run.emit("verdict.vertical", report.vertical.verdict)
    if level in (None, "horizontal"):
        run.emit("intensity.horizontal", report.horizontal.algorithm_intensity)
        run.emit("intensity.horizontal.asymptotic", report.horizontal_intensity_asymptotic)
        run.emit("balance.horizontal", report.horizontal.machine_balance)
        run.emit("verdict.horizontal", report.horizontal.verdict)
    for name, thr in report.jacobi_thresholds:
        run.emit(f"threshold.{name}.exact", "inf" if thr.exact == float("inf") else f"{thr.exact:.4g}")
        run.emit(f"threshold.{name}.published", f"{thr.published:.4g}")


def cmd_report(args, run: _Run) -> None:
    for path in args.records:
        text = run.read(path)
        print(f"# {path}")
        print(text.rstrip())


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pebblebound",
        description="I/O-complexity analysis of computational DAGs under pebble games",
    )
    top.add_argument("--version", action="version", version=f"pebblebound {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--kv", action="store_true", help="deterministic key=value output")
        p.add_argument("--record", default=None, help="append a run record to this file")

    p = sub.add_parser("generate", help="emit a CDAG file plus annotation sidecar")
    _add_alg_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--annotations", default=None)
    common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="check a trace and print its I/O tally")
    p.add_argument("--cdag", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--S", type=int, default=None)
    p.add_argument("--game", choices=("rb", "rbw"), default="rbw")
    p.add_argument("--hier", default=None)
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("play", help="run the heuristic player for an upper bound")
    p.add_argument("--cdag", required=True)
    p.add_argument("--S", type=int, required=True)
    p.add_argument("--trace-out", dest="trace_out", default=None)
    common(p)
    p.set_defaults(func=cmd_play)

    p = sub.add_parser("oracle", help="exact optimum by exhaustive search")
    p.add_argument("--cdag", required=True)
    p.add_argument("--S", type=int, required=True)
    p.add_argument("--game", choices=("rb", "rbw"), default="rbw")
    p.add_argument(
        "--budget",
        type=_positive_int,
        default=DEFAULT_BUDGET,
        help="cap on search expansions; an expansion is a macro move (one fire with its loads,"
        " evictions and stores), so each costs more than a single move",
    )
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bound", help="run a lower-bound engine")
    p.add_argument("--method", required=True, choices=("spart", "mincut", "mincut-divide", "analytic", "oracle"))
    p.add_argument("--cdag", default=None)
    p.add_argument("--S", type=int, default=None)
    p.add_argument("--P", type=int, default=1)
    p.add_argument("--umax", type=int, default=None)
    p.add_argument("--anchors", default=None)
    p.add_argument("--partition", default=None)
    p.add_argument("--game", choices=("rb", "rbw"), default="rbw")
    p.add_argument(
        "--budget",
        type=_positive_int,
        default=DEFAULT_BUDGET,
        help="oracle expansions (macro moves) with --method oracle; umax search nodes with --method spart",
    )
    p.add_argument("--alg", choices=ALGORITHMS, default=None)
    _add_alg_flags(p, with_alg=False)
    common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("analyze", help="machine-balance verdicts for an algorithm")
    _add_alg_flags(p)
    p.add_argument(
        "--machine",
        required=True,
        help="shipped machine name (bgq, crayxt5) or spec file path; pass ./bgq to read a local file named bgq",
    )
    p.add_argument("--level", choices=("vertical", "horizontal"), default=None)
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("report", help="print previously recorded run records")
    p.add_argument("records", nargs="+")
    p.set_defaults(func=cmd_report)
    return top


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    run = _Run(args, ["pebblebound"] + argv)
    try:
        args.func(args, run)
    except BudgetExhaustedError as exc:
        run.fail(3, exc)
    except (PebbleboundError, OSError) as exc:
        run.fail(1, exc)
    try:
        run.finish()
    except OSError as exc:  # the --record file cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run.code


if __name__ == "__main__":
    sys.exit(main())
