"""Line-based text formats: CDAGs, annotations, traces, hierarchies, machines.

All formats share the same conventions: UTF-8, one record per line,
space-separated tokens and ``#`` comment lines.  Every format but the
annotation sidecar opens with a versioned header line.  Parsing is
strict -- unknown tokens, missing headers, undeclared ids, and trailing
junk are all errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING

from .cdag import Cdag
from .errors import FormatError

if TYPE_CHECKING:
    from .games import HierarchyConfig, PrbwMove, RbwMove


_CHUNK = 16384  # characters that _lines splits into lines at a time


def _lines(text: str):
    """Each record line's number and tokens, numbered as ``text.splitlines()``.

    The text is split one chunk at a time, each cut just after a newline,
    so only one chunk's line strings are alive at once.
    """
    lineno, start = 0, 0
    while start < len(text):
        cut = text.find("\n", start + _CHUNK - 1) + 1 or len(text)
        for raw in text[start:cut].splitlines():
            lineno += 1
            line = raw.strip()
            if line and not line.startswith("#"):
                yield lineno, line.split()
        start = cut


_JOIN = 4096  # lines that _text joins at a time


def _text(lines) -> str:
    """The lines, each ended by ``"\\n"``, as one string.

    The lines are joined one chunk at a time, so only one chunk's line
    strings are alive at once (the writers' side of :func:`_lines`).
    """
    lines = iter(lines)
    parts = []
    while chunk := list(islice(lines, _JOIN)):
        chunk.append("")
        parts.append("\n".join(chunk))
    return "".join(parts)


def _int(tok: str, lineno: int, what: str = "integer") -> int:
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"line {lineno}: expected {what}, got {tok!r}") from None


def _positive_int(tok: str, lineno: int) -> int:
    try:
        value = int(tok)
    except ValueError:
        value = 0
    if value < 1:
        raise FormatError(f"line {lineno}: expected a positive integer, got {tok!r}")
    return value


def _positive_float(tok: str, lineno: int) -> float:
    try:
        value = float(tok)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise FormatError(f"line {lineno}: expected a positive finite number, got {tok!r}")
    return value


def _has_space(tok: str) -> bool:
    """Whether the parsers would split the token; only " " is printable whitespace."""
    return " " in tok or not tok.isprintable() and any(map(str.isspace, tok))


def _expect_header(text: str, expected: tuple[str, ...]):
    """The rows after the header line, read one at a time."""
    rows = _lines(text)
    header = next(rows, None)
    if header is None or tuple(header[1]) != expected:
        want = " ".join(expected)
        raise FormatError(f"missing or bad header line, expected {want!r}")
    return rows


# ---------------------------------------------------------------------------
# CDAG format
# ---------------------------------------------------------------------------


def parse_cdag(text: str) -> Cdag:
    """Parse the CDAG text format.

    ::

        cdag 1
        v 0 in label=x
        v 1 out
        e 0 1
    """
    rows = _expect_header(text, ("cdag", "1"))
    declared: dict[int, int] = {}  # id -> the declared int, so edges share the vertex's int
    edges: list[tuple[int, int]] = []
    inputs: set[int] = set()
    outputs: set[int] = set()
    labels: dict[int, str] = {}
    for lineno, toks in rows:
        if toks[0] == "v":
            if len(toks) < 2:
                raise FormatError(f"line {lineno}: vertex line needs an id")
            vid = _int(toks[1], lineno, "vertex id")
            if vid in declared:
                raise FormatError(f"line {lineno}: vertex {vid} declared twice")
            declared[vid] = vid
            for tok in toks[2:]:
                if tok == "in":
                    inputs.add(vid)
                elif tok == "out":
                    outputs.add(vid)
                elif tok.startswith("label="):
                    labels[vid] = tok[len("label="):]
                else:
                    raise FormatError(f"line {lineno}: unknown vertex token {tok!r}")
        elif toks[0] == "e":
            if len(toks) != 3:
                raise FormatError(f"line {lineno}: edge line needs exactly two ids")
            src = declared.get(_int(toks[1], lineno))
            dst = declared.get(_int(toks[2], lineno))
            if src is None or dst is None:
                raise FormatError(f"line {lineno}: edge references undeclared vertex")
            edges.append((src, dst))
        else:
            raise FormatError(f"line {lineno}: unknown record {toks[0]!r}")
    try:
        return Cdag.build(declared, edges, inputs, outputs, labels or None)
    except Exception as exc:
        raise FormatError(f"invalid CDAG: {exc}") from exc


def format_cdag(cdag: Cdag) -> str:
    def lines():
        yield "cdag 1"
        for v in cdag.succs:
            toks = ["v", str(v)]
            if v in cdag.inputs:
                toks.append("in")
            if v in cdag.outputs:
                toks.append("out")
            label = cdag.label(v)
            if label is not None:
                if _has_space(label):
                    raise FormatError(f"label for vertex {v} contains whitespace: {label!r}")
                toks.append(f"label={label}")
            yield " ".join(toks)
        for src, dsts in cdag.succs.items():
            for dst in dsts:
                yield f"e {src} {dst}"

    return _text(lines())


# ---------------------------------------------------------------------------
# annotation sidecar (slabs, anchors)
# ---------------------------------------------------------------------------


@dataclass
class Annotations:
    """Sidecar annotations: named slabs and anchor vertices."""

    slabs: dict[str, frozenset[int]] = field(default_factory=dict)
    anchors: tuple[int, ...] = ()


def parse_annotations(text: str) -> Annotations:
    ann = Annotations()
    anchors: list[int] = []
    for lineno, toks in _lines(text):
        if toks[0] == "slab":
            if len(toks) < 2:
                raise FormatError(f"line {lineno}: slab line needs a name")
            name = toks[1]
            if name in ann.slabs:
                raise FormatError(f"line {lineno}: slab {name!r} declared twice")
            ann.slabs[name] = frozenset(_int(t, lineno) for t in toks[2:])
        elif toks[0] == "anchor":
            if len(toks) != 2:
                raise FormatError(f"line {lineno}: anchor line needs one id")
            anchors.append(_int(toks[1], lineno))
        else:
            raise FormatError(f"line {lineno}: unknown record {toks[0]!r}")
    ann.anchors = tuple(anchors)
    return ann


def format_annotations(ann: Annotations) -> str:
    for name in ann.slabs:
        if not name or _has_space(name):
            raise FormatError(f"slab name {name!r} is empty or contains whitespace")
    out = []
    for name, vs in ann.slabs.items():
        out.append("slab " + name + " " + " ".join(str(v) for v in sorted(vs)))
    for v in ann.anchors:
        out.append(f"anchor {v}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# trace format (the move tables live in games, which only this section and
# the hierarchy format need, so they import it where they run)
# ---------------------------------------------------------------------------


def parse_trace(text: str):
    """Parse a trace file; returns ("rbw", [RbwMove]) or ("prbw", [PrbwMove])."""
    rows = _lines(text)
    first = next(rows, None)
    if first is None:
        raise FormatError("missing trace header")
    header = first[1]
    if header == ["trace", "rbw", "1"]:
        return "rbw", _parse_rbw_moves(rows)
    if header == ["trace", "prbw", "1"]:
        return "prbw", _parse_prbw_moves(rows)
    raise FormatError(f"bad trace header: {' '.join(header)!r}")


def _parse_rbw_moves(rows) -> list[RbwMove]:
    from .games import RBW_RULE, RbwMove

    by_rule = {rule: kind for kind, rule in RBW_RULE.items()}
    moves = []
    for lineno, toks in rows:
        if toks[0] not in by_rule or len(toks) != 2:
            raise FormatError(f"line {lineno}: expected 'R1..R4 <vertex>'")
        moves.append(RbwMove(by_rule[toks[0]], _int(toks[1], lineno)))
    return moves


def _parse_prbw_moves(rows) -> list[PrbwMove]:
    from .games import PRBW_MOVES, PrbwMove

    by_rule = {rule: kind for kind, (rule, _) in PRBW_MOVES.items()}
    moves = []
    for lineno, toks in rows:
        rule = toks[0]
        kind = by_rule.get(rule)
        if kind is None:
            raise FormatError(f"line {lineno}: unknown rule {rule!r}")
        try:
            args = dict(zip(PRBW_MOVES[kind][1], map(int, toks[1:]), strict=True))
        except ValueError:
            raise FormatError(f"line {lineno}: bad arguments for {rule}") from None
        moves.append(PrbwMove(kind, **args))
    return moves


def format_trace(game: str, moves) -> str:
    from .games import PRBW_MOVES, RBW_RULE

    def lines():
        yield f"trace {game} 1"
        for m in moves:
            if game == "rbw":
                yield f"{RBW_RULE[m.kind]} {m.vertex}"
            else:
                rule, fields = PRBW_MOVES[m.kind]
                yield " ".join([rule] + [str(getattr(m, f)) for f in fields])

    return _text(lines())


# ---------------------------------------------------------------------------
# hierarchy config format
# ---------------------------------------------------------------------------


def parse_hierarchy(text: str) -> HierarchyConfig:
    """Parse the memory-tree format.

    L is the number of ``level`` records, numbered 1..L, and the processor
    count is the level-1 unit count::

        hier 2
        level 1 units 2 cap 3
        level 2 units 1 cap 8
        parent 1 0 0
        parent 1 1 0
        policy inclusive

    The policy defaults to inclusive; a file states it at most once.
    """
    from .games import HierarchyConfig

    rows = _expect_header(text, ("hier", "2"))
    units: dict[int, int] = {}
    caps: dict[int, int] = {}
    parent: dict[tuple[int, int], int] = {}
    policy = None
    for lineno, toks in rows:
        if toks[0] == "level" and len(toks) == 6 and toks[2] == "units" and toks[4] == "cap":
            l = _int(toks[1], lineno)
            if l in units:
                raise FormatError(f"line {lineno}: level {l} declared twice")
            units[l] = _int(toks[3], lineno)
            caps[l] = _int(toks[5], lineno)
        elif toks[0] == "parent" and len(toks) == 4:
            l, j = _int(toks[1], lineno), _int(toks[2], lineno)
            if (l, j) in parent:
                raise FormatError(f"line {lineno}: parent of level {l} unit {j} declared twice")
            parent[(l, j)] = _int(toks[3], lineno)
        elif toks[0] == "policy" and len(toks) == 2 and toks[1] in ("inclusive", "exclusive"):
            if policy is not None:
                raise FormatError(f"line {lineno}: policy declared twice")
            policy = toks[1]
        else:
            raise FormatError(f"line {lineno}: unknown record {' '.join(toks)!r}")
    levels = len(units)
    # sizes come from the file: compare them before building anything from them
    if not all(1 <= l <= levels for l in units):
        raise FormatError("hierarchy needs one 'level' record per level 1..L")
    below_top = sum(max(units[l], 0) for l in range(1, levels))
    if below_top > len(parent):
        raise FormatError(
            f"hierarchy needs a 'parent' record for each of the {below_top} units "
            f"below level {levels}, got {len(parent)}"
        )
    cfg = HierarchyConfig(
        units=tuple(units[l] for l in range(1, levels + 1)),
        capacities=tuple(caps[l] for l in range(1, levels + 1)),
        parent=parent,
        policy=policy or "inclusive",
    )
    cfg.check()
    return cfg


def format_hierarchy(cfg: HierarchyConfig) -> str:
    out = ["hier 2"]
    for l in range(1, len(cfg.units) + 1):
        out.append(f"level {l} units {cfg.units[l - 1]} cap {cfg.capacities[l - 1]}")
    for (l, u), p in sorted(cfg.parent.items()):
        out.append(f"parent {l} {u} {p}")
    out.append(f"policy {cfg.policy}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# machine spec format
# ---------------------------------------------------------------------------

# one-value machine record -> the MachineSpec field it sets and its parser
_MACHINE_SCALARS = {
    "name": ("name", lambda tok, lineno: tok),
    "nodes": ("n_nodes", _positive_int),
    "cores": ("n_cores", _positive_int),
    "mem_words": ("mem_words", _positive_int),
    "vbal": ("vertical_balance", _positive_float),
    "hbal": ("horizontal_balance", _positive_float),
    "raw_vbw": ("raw_vertical_bw", _positive_float),
    "raw_flops": ("raw_flops_per_core", _positive_float),
}


def parse_machine(text: str):
    """Parse a machine description file into a MachineSpec.

    ::

        machine 1
        name bgq
        nodes 2048
        cores 16
        mem_words 2147483648
        cache L2 4194304 shared 16 bal 0.052
        vbal 0.052
        hbal 0.049

    Each record but ``cache`` appears at most once, and each cache name once.
    """
    from .balance import CacheLevel, MachineSpec

    rows = _expect_header(text, ("machine", "1"))
    fields: dict = {"caches": []}
    for lineno, toks in rows:
        key = toks[0]
        if key in _MACHINE_SCALARS and len(toks) == 2:
            name, parse = _MACHINE_SCALARS[key]
            if name in fields:
                raise FormatError(f"line {lineno}: {key} declared twice")
            fields[name] = parse(toks[1], lineno)
        elif key == "cache" and len(toks) in (5, 7) and toks[3] == "shared":
            if any(c.name == toks[1] for c in fields["caches"]):
                raise FormatError(f"line {lineno}: cache {toks[1]!r} declared twice")
            balance = None
            if len(toks) == 7:
                if toks[5] != "bal":
                    raise FormatError(f"line {lineno}: expected 'bal <float>'")
                balance = _positive_float(toks[6], lineno)
            fields["caches"].append(
                CacheLevel(
                    name=toks[1],
                    capacity_words=_positive_int(toks[2], lineno),
                    shared_by=_positive_int(toks[4], lineno),
                    balance=balance,
                )
            )
        else:
            raise FormatError(f"line {lineno}: unknown record {' '.join(toks)!r}")
    required = ("name", "n_nodes", "n_cores", "mem_words", "vertical_balance", "horizontal_balance")
    missing = [k for k in required if k not in fields]
    if missing:
        raise FormatError(f"machine spec missing records: {missing}")
    fields["caches"] = tuple(fields["caches"])
    return MachineSpec(**fields)


def format_machine(spec) -> str:
    for what, name in (("machine", spec.name), *(("cache", c.name) for c in spec.caches)):
        if not name or _has_space(name):
            raise FormatError(f"{what} name {name!r} is empty or contains whitespace")
    cache_names = [c.name for c in spec.caches]
    for i, name in enumerate(cache_names):
        if name in cache_names[:i]:
            raise FormatError(f"cache {name!r} declared twice")
    out = [
        "machine 1",
        f"name {spec.name}",
        f"nodes {spec.n_nodes}",
        f"cores {spec.n_cores}",
        f"mem_words {spec.mem_words}",
    ]
    for c in spec.caches:
        line = f"cache {c.name} {c.capacity_words} shared {c.shared_by}"
        if c.balance is not None:
            line += f" bal {c.balance}"
        out.append(line)
    out.append(f"vbal {spec.vertical_balance}")
    out.append(f"hbal {spec.horizontal_balance}")
    if spec.raw_vertical_bw is not None:
        out.append(f"raw_vbw {spec.raw_vertical_bw}")
    if spec.raw_flops_per_core is not None:
        out.append(f"raw_flops {spec.raw_flops_per_core}")
    return "\n".join(out) + "\n"
