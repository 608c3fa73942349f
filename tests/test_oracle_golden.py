"""Golden optima of the exact oracle.

Replays :func:`optimal_io` on a fixed case list and compares each result
(the optimum, or the class of the error raised) with
``tests/golden/oracle_optima.txt``.  Any change to the search may change
how much work it does, never a value: every line must match byte for byte.

The same pass also pins the search's work.  Each case yields one work line
(the value or error class; ``lower`` and ``best_known`` when the budget
runs out; and the ``expansions``, ``generated``, ``duplicates`` and
``peak_heap`` counters), and a sha256 over those lines must equal
``WORK_SHA256``.  A change that keeps every optimum but pops states in a
different order changes that hash.  To print it after an intended change
of the search's work::

    PYTHONPATH=src python tests/test_oracle_golden.py --work-sha256

The cases are the sandwich fixtures at S = 2..5 in both games (``rb`` only
where the fixture's tagging is ``hk``), the eight desk-certify oracle jobs
at generator ids, and seeded random DAGs of at most nine vertices, half
``hk``-tagged (played in both games) and half with flexible tagging
(``rbw`` only).  ``matmul-2`` in the ``rb`` game is left out: the search
the golden file was captured with exhausts its default budget there.

To regenerate the golden file after an intended change of the values::

    PYTHONPATH=src python tests/test_oracle_golden.py > tests/golden/oracle_optima.txt
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

from pebblebound import Cdag, gen_cg, gen_composite, gen_gmres, gen_jacobi, gen_matmul, gen_outer_product
from pebblebound import optimal_io
from pebblebound.errors import BudgetExhaustedError, PebbleboundError
from pebblebound.oracle import OracleStats

from test_acceptance import SANDWICH_FIXTURES

GOLDEN = Path(__file__).parent / "golden" / "oracle_optima.txt"

RANDOM_CASES = 300

WORK_SHA256 = "9dac8dc38bd2a32a8ed771b1752c4925d806942c1533a97810715db2dc26b46c"

# the desk-certify oracle jobs: (name, cdag, S, game, budget or None)
DESK_CASES = [
    ("matmul-2", gen_matmul(2), 3, "rbw", None),
    ("matmul-2", gen_matmul(2), 4, "rbw", None),
    ("cg-2-1-1", gen_cg(2, 1, 1), 4, "rbw", None),
    ("outer_product-3", gen_outer_product(3), 3, "rbw", None),
    ("gmres-2-1-1", gen_gmres(2, 1, 1), 4, "rbw", None),
    ("outer_product-3", gen_outer_product(3), 3, "rb", None),
    ("jacobi-5-1-3", gen_jacobi(5, 1, 3, 3), 4, "rb", None),
    ("composite-2", gen_composite(2), 4, "rbw", 50_000),
]


def random_case(seed: int) -> tuple[Cdag, int]:
    """Seeded random DAG of 1..9 vertices with shuffled ids.

    Even seeds are ``hk``-tagged (every source an input, every sink an
    output, plus a few inner outputs); odd seeds leave some sources
    untagged and put outputs anywhere.  S runs from one below the largest
    in-degree + 1 (often infeasible) to two above it.
    """
    rng = random.Random(f"oracle-golden/{seed}")
    n = rng.randint(1, 9)
    p = rng.choice((0.2, 0.35, 0.5))
    ids = rng.sample(range(3 * n), n)  # ids[i] is the i-th vertex in a topological order
    edges = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    has_pred = {v for _, v in edges}
    has_succ = {u for u, _ in edges}
    if seed % 2 == 0:
        inputs = [v for v in ids if v not in has_pred]
        outputs = [v for v in ids if v not in has_succ or rng.random() < 0.15]
    else:
        inputs = [v for v in ids if v not in has_pred and rng.random() < 0.6]
        outputs = [v for v in ids if rng.random() < (0.7 if v not in has_succ else 0.1)]
    cdag = Cdag.build(ids, edges, inputs, outputs)
    max_in = max((len(ps) for ps in cdag.preds.values()), default=0)
    S = max(1, max_in + 1 + rng.randint(-1, 2))
    return cdag, S


def cases():
    """Yield ``(name, cdag, S, game, budget)`` for every golden case, in file order."""
    for name, ann in SANDWICH_FIXTURES:
        games = ("rbw",) if ann.cdag.validate("hk") else ("rbw", "rb")
        for game in games:
            if name == "matmul-2" and game == "rb":
                continue
            for S in (2, 3, 4, 5):
                yield f"{name}@S{S}:{game}", ann.cdag, S, game, None
    for name, ann, S, game, budget in DESK_CASES:
        suffix = f":budget{budget}" if budget else ""
        yield f"desk:{name}@S{S}:{game}{suffix}", ann.cdag, S, game, budget
    for seed in range(RANDOM_CASES):
        cdag, S = random_case(seed)
        games = ("rbw",) if cdag.validate("hk") else ("rbw", "rb")
        for game in games:
            yield f"random-{seed}@S{S}:{game}", cdag, S, game, None


def replay(name, cdag, S, game, budget) -> tuple[str, str]:
    """One case's golden line and its work line."""
    kwargs = {"budget": budget} if budget else {}
    stats = OracleStats()
    bracket = ""
    try:
        result = str(int(optimal_io(cdag, S, game=game, stats=stats, **kwargs).value))
    except PebbleboundError as exc:
        result = type(exc).__name__
        if isinstance(exc, BudgetExhaustedError):
            bracket = f" lower={exc.lower} best_known={exc.best_known}"
    work = (
        f"{name} {result}{bracket} expansions={stats.expansions} generated={stats.generated}"
        f" duplicates={stats.duplicates} peak_heap={stats.peak_heap}"
    )
    return f"{name} {result}", work


def replay_all() -> tuple[list[str], str]:
    """Every golden line, and the sha256 over every work line."""
    lines, digest = [], hashlib.sha256()
    for case in cases():
        line, work = replay(*case)
        lines.append(line)
        digest.update(work.encode() + b"\n")
    return lines, digest.hexdigest()


def test_oracle_optima_match_golden():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    got, work_sha256 = replay_all()
    assert len(got) == len(expected)
    mismatches = [(e, g) for e, g in zip(expected, got) if e != g]
    assert not mismatches, mismatches[:10]
    assert work_sha256 == WORK_SHA256


if __name__ == "__main__":
    lines, work_sha256 = replay_all()
    sys.stdout.write(work_sha256 + "\n" if sys.argv[1:] == ["--work-sha256"] else "".join(l + "\n" for l in lines))
