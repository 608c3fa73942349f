"""Golden transcript of the README CLI tour.

Runs the tour's commands (plus a few error paths) in a temporary directory
and compares ``--kv`` stdout, the last stderr line, and the exit code of
each command byte for byte with ``tests/golden/readme_tour.txt``.  Any
refactor that changes a rendered value, an error message, or an exit code
fails here.

To regenerate the golden file after an intended output change::

    PYTHONPATH=src python tests/test_readme_tour.py > tests/golden/readme_tour.txt
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

from pebblebound.cli import main

GOLDEN = Path(__file__).parent / "golden" / "readme_tour.txt"

# a small input-free graph for the all-vertex wavefront bound
FREE_CDAG = """cdag 1
v 0
v 1
v 2
v 3
v 4
v 5 out
e 0 2
e 1 2
e 0 3
e 2 4
e 3 4
e 1 5
e 4 5
"""

TOUR = [
    "generate --alg jacobi --n 4 --d 1 --T 3 --out jac.cdag --annotations jac.ann --kv",
    "generate --alg cg --n 2 --d 1 --T 1 --out cg.cdag --annotations cg.ann --kv",
    "play --cdag jac.cdag --S 4 --trace-out jac.trace --kv",
    "play --cdag jac.cdag --S 1 --kv",
    "validate --cdag jac.cdag --trace jac.trace --S 4 --kv",
    "validate --game rb --cdag jac.cdag --trace jac.trace --S 4 --kv",
    "validate --cdag jac.cdag --trace jac.trace --S 2 --kv",
    "validate --game rb --cdag jac.cdag --trace jac.trace --S 2 --kv",
    "oracle --cdag jac.cdag --S 4 --kv",
    "oracle --game rb --cdag jac.cdag --S 4 --kv",
    "oracle --cdag jac.cdag --S 4 --budget 10 --kv",
    "bound --method spart --cdag jac.cdag --S 2 --kv",
    "bound --method spart --cdag jac.cdag --S 2 --umax 5 --kv",
    "bound --method mincut-divide --cdag jac.cdag --partition jac.ann --S 1 --kv",
    "bound --method mincut --cdag jac.cdag --anchors jac.ann --S 1 --kv",
    "bound --method mincut --cdag free.cdag --S 1 --kv",
    "bound --method oracle --game rb --cdag jac.cdag --S 4 --kv",
    "bound --method analytic --alg cg --n 1000 --d 3 --T 1 --P 1 --S 1024 --kv",
    "bound --method analytic --alg jacobi --n 8 --d 2 --T 2 --S 3 --kv",
    "bound --method analytic --alg gmres --n 10 --d 3 --m 2 --stencil-points 7 --S 4 --kv",
    "bound --method analytic --alg cg --n notanint --kv",
    "analyze --alg cg --n 1000 --d 3 --T 1 --machine bgq --kv",
    "analyze --alg jacobi --n 512 --d 3 --T 4 --machine crayxt5 --kv",
    "analyze --alg jacobi --n 512 --d 3 --T 4 --machine bgq --kv",
    "analyze --alg gmres --n 100 --d 3 --m 5 --machine bgq --level horizontal --kv",
    "analyze --alg jacobi --n 4 --d 2 --T 1 --machine bgq --kv",
    "analyze --alg jacobi --n 4 --d 3 --T 1 --machine bgq --kv",
]


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def transcript() -> str:
    """Run the tour in a fresh directory and render the transcript."""
    old_cwd = os.getcwd()
    blocks = []
    try:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            Path("free.cdag").write_text(FREE_CDAG, encoding="utf-8")
            for line in TOUR:
                code, out, err = _run(line.split())
                # the last line: an argparse error follows a usage line that
                # each Python version wraps at its own width
                last_err = err.splitlines()[-1] if err else ""
                blocks.append(f"$ pebblebound {line}\nexit={code}\n{out}stderr={last_err}\n")
    finally:
        os.chdir(old_cwd)
    return "\n".join(blocks)


def test_readme_tour_matches_golden():
    assert transcript() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(transcript())
