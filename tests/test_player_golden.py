"""Golden traces of the heuristic player.

Replays :func:`heuristic_game` on a fixed case list and compares, per
case, the sha256 of ``format_trace("rbw", trace)`` and the tally's ``io``
with ``tests/golden/player_traces.txt``.  Cases whose capacity admits no
game record the error instead.  Any change to a scheduling or eviction
decision fails here, so speed work on the player must keep every trace
byte for byte.  A property test also compares the player move for move
with ``reference_moves``, a direct quadratic transcription of its rules.

To regenerate the golden file after an intended change of the player::

    PYTHONPATH=src python tests/test_player_golden.py > tests/golden/player_traces.txt
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pebblebound import AlgorithmParams, Cdag, generate, heuristic_game
from pebblebound.errors import PebbleboundError
from pebblebound.formats import format_trace
from pebblebound.games import RbwMove

from test_acceptance import SANDWICH_FIXTURES

GOLDEN = Path(__file__).parent / "golden" / "player_traces.txt"

# the README tour's jacobi and the stencil-play benchmark instances, at
# generator ids: (name, params, S)
GENERATOR_CASES = [
    ("readme-jacobi-4-1-3", AlgorithmParams("jacobi", n=4, d=1, T=3), 4),
    ("jacobi-32-2-4", AlgorithmParams("jacobi", n=32, d=2, T=4), 16),
    ("jacobi-16-2-4", AlgorithmParams("jacobi", n=16, d=2, T=4), 16),
    ("jacobi-8-3-4-p7", AlgorithmParams("jacobi", n=8, d=3, T=4, stencil_points=7), 8),
    ("chain-5000", AlgorithmParams("chain", n=5000), 4),
]

RANDOM_CASES = 200


def random_case(seed: int) -> tuple[Cdag, int]:
    """Seeded random DAG with shuffled sparse ids and flexible tagging.

    Ids are a random sample, so id order and topological order disagree.
    Some sources stay untagged, outputs may sit anywhere, and S ranges
    from max in-degree + 1 to a few pebbles above it.
    """
    rng = random.Random(f"player-golden/{seed}")
    n = rng.randint(1, 40)
    p = rng.choice((0.08, 0.15, 0.3))
    ids = rng.sample(range(4 * n), n)  # ids[i] is the i-th vertex in a topological order
    edges = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    has_pred = {v for _, v in edges}
    has_succ = {u for u, _ in edges}
    inputs = [v for v in ids if v not in has_pred and rng.random() < 0.6]
    outputs = [v for v in ids if rng.random() < (0.7 if v not in has_succ else 0.1)]
    cdag = Cdag.build(ids, edges, inputs, outputs)
    max_in = max((len(ps) for ps in cdag.preds.values()), default=0)
    S = max(2, max_in + 1) + rng.randint(0, 3)
    return cdag, S


def cases():
    """Yield ``(name, cdag, S)`` for every golden case, in file order."""
    for name, ann in SANDWICH_FIXTURES:
        for S in (2, 3, 4):
            yield f"{name}@S{S}", ann.cdag, S
    for name, params, S in GENERATOR_CASES:
        yield f"{name}@S{S}", generate(params).cdag, S
    for seed in range(RANDOM_CASES):
        cdag, S = random_case(seed)
        yield f"random-{seed}@S{S}", cdag, S


def golden_line(name: str, cdag: Cdag, S: int) -> str:
    try:
        trace, tally = heuristic_game(cdag, S)
    except PebbleboundError as exc:
        return f"{name} {type(exc).__name__}: {exc}"
    digest = hashlib.sha256(format_trace("rbw", trace).encode("utf-8")).hexdigest()
    return f"{name} sha256={digest} io={tally.io}"


def render() -> str:
    return "".join(golden_line(*case) + "\n" for case in cases())


def reference_moves(cdag: Cdag, S: int) -> list[RbwMove]:
    """The player's rules, rescanning every set at every step (quadratic).

    Fire the ready vertex with the fewest operands off red (lowest id on
    ties); evict the lowest-id dead resident, else the resident whose next
    use in the reference order is furthest (lowest id on ties), storing it
    first when it is still live and unstored.
    """
    pos = {v: i for i, v in enumerate(cdag.topological_order)}
    trace, red, white, blue = [], set(), set(), set(cdag.inputs)

    def next_use(v):
        return min((pos[w] for w in cdag.succs[v] if w not in white), default=-1)

    def live(v):
        return v not in blue and (next_use(v) != -1 or v in cdag.outputs)

    def make_room(pinned):
        while len(red) >= S:
            victims = red - pinned
            dead = sorted(v for v in victims if not live(v) and next_use(v) == -1)
            if dead:
                victim = dead[0]
            else:
                victim = max(victims, key=lambda v: (next_use(v), -v))
                if live(victim):
                    trace.append(RbwMove("Output", victim))
                    blue.add(victim)
            trace.append(RbwMove("Delete", victim))
            red.discard(victim)

    unfired = set(cdag.vertices)
    while unfired:
        ready = [v for v in unfired if cdag.preds[v] <= white]
        v = min(ready, key=lambda u: (len(cdag.preds[u] - red), u))
        pinned = cdag.preds[v] & red
        for p in sorted(cdag.preds[v] - red):
            make_room(pinned)
            trace.append(RbwMove("Input", p))
            red.add(p)
            pinned |= {p}
        make_room(pinned)
        trace.append(RbwMove("Input" if v in cdag.inputs else "Compute", v))
        red.add(v)
        white.add(v)
        unfired.discard(v)
    trace += [RbwMove("Output", o) for o in sorted(cdag.outputs - blue)]
    return trace


@st.composite
def playable_dags(draw):
    """Small DAG with shuffled ids, flexible tagging, and a feasible S."""
    n = draw(st.integers(1, 12))
    ids = draw(st.permutations(range(2 * n)))[:n]
    edges = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    has_pred = {v for _, v in edges}
    inputs = [v for v in ids if v not in has_pred and draw(st.booleans())]
    outputs = [v for v in ids if draw(st.booleans())]
    cdag = Cdag.build(ids, edges, inputs, outputs)
    max_in = max(len(ps) for ps in cdag.preds.values())
    return cdag, max(2, max_in + 1) + draw(st.integers(0, 3))


@given(playable_dags())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_player_matches_reference(case):
    cdag, S = case
    trace, _ = heuristic_game(cdag, S)
    assert trace == reference_moves(cdag, S)


def test_player_traces_match_golden():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = [golden_line(*case) for case in cases()]
    assert len(got) == len(expected)
    mismatches = [(e, g) for e, g in zip(expected, got) if e != g]
    assert not mismatches, mismatches[:5]


if __name__ == "__main__":
    sys.stdout.write(render())
