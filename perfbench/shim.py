"""Traced CLI launcher: wraps pebblebound's layer entry points, then runs the CLI.

Usage::

    python3 perfbench/shim.py SPAN_FILE JOB_ID [pebblebound CLI arguments...]

Each call into a wrapped function records a span ``[name, start, end,
parent, job, count, error]``: ``parent`` is the index of the enclosing
span (-1 at the root), ``count`` a per-call work count (bytes parsed,
moves played) or null, ``error`` the exception type that left the call or
null.  Spans stay in memory and are written to SPAN_FILE as JSON when the
process exits.  Wrappers replace the function in every pebblebound module
that holds it, so callees looked up at call time (the oracle's ceiling
heuristic, ``wmax``'s ``wavefront_min``) show as child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time


class Tracer:
    def __init__(self, job: str):
        self.job = job
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, self.job, None, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span[5] = count(args, result)
                return result
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()

        return traced

    def patch(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` wherever a pebblebound module imported it."""
        fn = getattr(module, attr)
        traced = self.wrap(name, fn, count)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("pebblebound") and getattr(mod, attr, None) is fn:
                setattr(mod, attr, traced)

    def install(self) -> None:
        from pebblebound import balance, bounds, cdag, formats, games, generators, oracle
        import pebblebound.cli  # noqa: F401  (so its imported names get patched too)

        text_len = lambda args, result: len(args[0])  # noqa: E731
        self.patch(oracle, "optimal_io", "oracle.search")
        self.patch(games, "heuristic_game", "games.heuristic", lambda args, result: len(result[0]))
        for attr in ("validate_rb", "validate_rbw", "validate_prbw"):
            self.patch(games, attr, "games.validate")
        for attr in ("parse_cdag", "parse_trace", "parse_annotations"):
            self.patch(formats, attr, f"formats.{attr}", text_len)
        for attr in ("format_cdag", "format_trace"):
            self.patch(formats, attr, f"formats.{attr}")
        self.patch(generators, "generate", "generators.generate")
        for attr, name in (
            ("umax_bruteforce", "bounds.umax"),
            ("spart_lower_bound", "bounds.spart"),
            ("wmax", "bounds.wmax"),
            ("wavefront_min", "bounds.wavefront"),
            ("mincut_lower_bound", "bounds.mincut"),
            ("mincut_divide_bound", "bounds.mincut_divide"),
            ("analytic_lb", "bounds.analytic"),
        ):
            self.patch(bounds, attr, name)
        self.patch(balance, "load_machine", "balance.load_machine")
        self.patch(balance, "analyze", "balance.analyze")
        build = cdag.Cdag.__dict__["build"].__func__
        cdag.Cdag.build = classmethod(self.wrap("cdag.build", build))
        cdag.Cdag.check = self.wrap("cdag.check", cdag.Cdag.check)


def main() -> int:
    span_file, job, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(job)
    tracer.install()
    from pebblebound import cli

    try:
        return tracer.wrap("cli.self", cli.main)(argv)
    finally:
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
