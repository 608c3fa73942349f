"""Line-based text formats: CDAGs, annotations, traces, hierarchies, machines.

All formats share the same conventions: UTF-8, one record per line,
space-separated tokens, ``#`` comment lines, and a versioned header line.
Parsing is strict -- unknown tokens, missing headers, undeclared ids, and
trailing junk are all errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .cdag import Cdag
from .errors import FormatError
from .games import HierarchyConfig, PrbwMove, RbwMove


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split()


def _int(tok: str, lineno: int, what: str = "integer") -> int:
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"line {lineno}: expected {what}, got {tok!r}") from None


def _positive_float(tok: str, lineno: int) -> float:
    try:
        value = float(tok)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise FormatError(f"line {lineno}: expected a positive finite number, got {tok!r}")
    return value


def _expect_header(text: str, expected: tuple[str, ...]):
    rows = list(_lines(text))
    if not rows or tuple(rows[0][1]) != expected:
        want = " ".join(expected)
        raise FormatError(f"missing or bad header line, expected {want!r}")
    return rows[1:]


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
    vertices: list[int] = []
    seen: set[int] = set()
    edges: list[tuple[int, int]] = []
    inputs: set[int] = set()
    outputs: set[int] = set()
    labels: dict[int, str] = {}
    for lineno, toks in rows:
        if toks[0] == "v":
            if len(toks) < 2:
                raise FormatError(f"line {lineno}: vertex line needs an id")
            vid = _int(toks[1], lineno, "vertex id")
            if vid in seen:
                raise FormatError(f"line {lineno}: vertex {vid} declared twice")
            seen.add(vid)
            vertices.append(vid)
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
            src = _int(toks[1], lineno)
            dst = _int(toks[2], lineno)
            if src not in seen or dst not in seen:
                raise FormatError(f"line {lineno}: edge references undeclared vertex")
            edges.append((src, dst))
        else:
            raise FormatError(f"line {lineno}: unknown record {toks[0]!r}")
    try:
        return Cdag.build(vertices, edges, inputs, outputs, labels or None)
    except Exception as exc:
        raise FormatError(f"invalid CDAG: {exc}") from exc


def format_cdag(cdag: Cdag) -> str:
    out = ["cdag 1"]
    for v in sorted(cdag.vertices):
        toks = ["v", str(v)]
        if v in cdag.inputs:
            toks.append("in")
        if v in cdag.outputs:
            toks.append("out")
        label = cdag.label(v)
        if label is not None:
            if " " in label:
                raise FormatError(f"label for vertex {v} contains a space: {label!r}")
            toks.append(f"label={label}")
        out.append(" ".join(toks))
    for src, dst in sorted(cdag.edges):
        out.append(f"e {src} {dst}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# annotation sidecar (slabs, frontiers, anchors)
# ---------------------------------------------------------------------------


@dataclass
class Annotations:
    """Sidecar annotations: named slabs, frontier sets, anchor vertices."""

    slabs: dict[str, frozenset[int]] = field(default_factory=dict)
    frontiers: dict[tuple[str, str], frozenset[int]] = field(default_factory=dict)
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
        elif toks[0] == "frontier":
            if len(toks) < 3:
                raise FormatError(f"line {lineno}: frontier line needs two slab names")
            key = (toks[1], toks[2])
            ann.frontiers[key] = frozenset(_int(t, lineno) for t in toks[3:])
        elif toks[0] == "anchor":
            if len(toks) != 2:
                raise FormatError(f"line {lineno}: anchor line needs one id")
            anchors.append(_int(toks[1], lineno))
        else:
            raise FormatError(f"line {lineno}: unknown record {toks[0]!r}")
    ann.anchors = tuple(anchors)
    return ann


def format_annotations(ann) -> str:
    out = []
    for name, vs in ann.slabs.items():
        out.append("slab " + name + " " + " ".join(str(v) for v in sorted(vs)))
    frontiers = getattr(ann, "frontiers", None)
    if frontiers is None:
        frontiers = ann.frontier_vertices
    for (a, b), vs in frontiers.items():
        out.append(f"frontier {a} {b} " + " ".join(str(v) for v in sorted(vs)))
    anchors = getattr(ann, "anchors", None)
    if anchors is None:
        anchors = ann.wavefront_anchors
    for v in anchors:
        out.append(f"anchor {v}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# trace format
# ---------------------------------------------------------------------------

_RBW_BY_RULE = {"R1": "Input", "R2": "Output", "R3": "Compute", "R4": "Delete"}
_PRBW_BY_RULE = {
    "R1": "Input",
    "R2": "Output",
    "R3": "RemoteGet",
    "R4": "MoveUp",
    "R5": "MoveDown",
    "R6": "Compute",
    "R7": "Delete",
}


def parse_trace(text: str):
    """Parse a trace file; returns ("rbw", [RbwMove]) or ("prbw", [PrbwMove])."""
    rows = list(_lines(text))
    if not rows:
        raise FormatError("missing trace header")
    header = rows[0][1]
    if header == ["trace", "rbw", "1"]:
        return "rbw", _parse_rbw_moves(rows[1:])
    if header == ["trace", "prbw", "1"]:
        return "prbw", _parse_prbw_moves(rows[1:])
    raise FormatError(f"bad trace header: {' '.join(header)!r}")


def _parse_rbw_moves(rows) -> list[RbwMove]:
    moves = []
    for lineno, toks in rows:
        if toks[0] not in _RBW_BY_RULE or len(toks) != 2:
            raise FormatError(f"line {lineno}: expected 'R1..R4 <vertex>'")
        moves.append(RbwMove(_RBW_BY_RULE[toks[0]], _int(toks[1], lineno)))
    return moves


def _parse_prbw_moves(rows) -> list[PrbwMove]:
    moves = []
    for lineno, toks in rows:
        rule = toks[0]
        kind = _PRBW_BY_RULE.get(rule)
        if kind is None:
            raise FormatError(f"line {lineno}: unknown rule {rule!r}")
        args = toks[1:]
        try:
            if rule in ("R1", "R2"):  # R1 <v> <unit> / R2 <v> <unit>
                v, unit = (int(a) for a in args)
                moves.append(PrbwMove(kind, v, level=0, unit=unit))
            elif rule == "R3":  # R3 <v> <src> <dst>
                v, src, dst = (int(a) for a in args)
                moves.append(PrbwMove(kind, v, level=0, unit=dst, src_unit=src))
            elif rule == "R6":  # R6 <v> <proc>
                v, proc = (int(a) for a in args)
                moves.append(PrbwMove(kind, v, level=1, unit=proc))
            else:  # R4/R5/R7 <v> <level> <unit>
                v, level, unit = (int(a) for a in args)
                moves.append(PrbwMove(kind, v, level=level, unit=unit))
        except (ValueError, TypeError):
            raise FormatError(f"line {lineno}: bad arguments for {rule}") from None
    return moves


def format_trace(game: str, moves) -> str:
    from .games import PRBW_RULE, RBW_RULE

    out = [f"trace {game} 1"]
    for m in moves:
        if game == "rbw":
            out.append(f"{RBW_RULE[m.kind]} {m.vertex}")
        else:
            rule = PRBW_RULE[m.kind]
            if rule in ("R1", "R2"):
                out.append(f"{rule} {m.vertex} {m.unit}")
            elif rule == "R3":
                out.append(f"{rule} {m.vertex} {m.src_unit} {m.unit}")
            elif rule == "R6":
                out.append(f"{rule} {m.vertex} {m.unit}")
            else:
                out.append(f"{rule} {m.vertex} {m.level} {m.unit}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# hierarchy config format
# ---------------------------------------------------------------------------


def parse_hierarchy(text: str) -> HierarchyConfig:
    """Parse the memory-tree format.

    ::

        hier 1
        levels 2
        level 1 units 2 cap 3
        level 2 units 1 cap 8
        parent 1 0 0
        parent 1 1 0
        procs 2
        policy inclusive
    """
    rows = _expect_header(text, ("hier", "1"))
    levels = None
    units: dict[int, int] = {}
    caps: dict[int, int] = {}
    parent: dict[tuple[int, int], int] = {}
    procs = None
    policy = "inclusive"
    for lineno, toks in rows:
        if toks[0] == "levels" and len(toks) == 2:
            levels = _int(toks[1], lineno)
        elif toks[0] == "level" and len(toks) == 6 and toks[2] == "units" and toks[4] == "cap":
            l = _int(toks[1], lineno)
            units[l] = _int(toks[3], lineno)
            caps[l] = _int(toks[5], lineno)
        elif toks[0] == "parent" and len(toks) == 4:
            l = _int(toks[1], lineno)
            parent[(l, _int(toks[2], lineno))] = _int(toks[3], lineno)
        elif toks[0] == "procs" and len(toks) == 2:
            procs = _int(toks[1], lineno)
        elif toks[0] == "policy" and len(toks) == 2 and toks[1] in ("inclusive", "exclusive"):
            policy = toks[1]
        else:
            raise FormatError(f"line {lineno}: unknown record {' '.join(toks)!r}")
    if levels is None or procs is None:
        raise FormatError("hierarchy needs 'levels' and 'procs' records")
    # sizes come from the file: compare them before building anything from them
    if levels < 1:
        raise FormatError(f"hierarchy needs levels >= 1, got {levels}")
    if len(units) != levels or not all(1 <= l <= levels for l in units):
        raise FormatError("hierarchy needs one 'level' record per level 1..L")
    below_top = sum(max(units[l], 0) for l in range(1, levels))
    if below_top > len(parent):
        raise FormatError(
            f"hierarchy needs a 'parent' record for each of the {below_top} units "
            f"below level {levels}, got {len(parent)}"
        )
    cfg = HierarchyConfig(
        levels=levels,
        units=tuple(units[l] for l in range(1, levels + 1)),
        capacities=tuple(caps[l] for l in range(1, levels + 1)),
        processors=procs,
        parent=parent,
        policy=policy,
    )
    cfg.check()
    return cfg


def format_hierarchy(cfg: HierarchyConfig) -> str:
    out = ["hier 1", f"levels {cfg.levels}"]
    for l in range(1, cfg.levels + 1):
        out.append(f"level {l} units {cfg.units[l - 1]} cap {cfg.capacities[l - 1]}")
    for (l, u), p in sorted(cfg.parent.items()):
        out.append(f"parent {l} {u} {p}")
    out.append(f"procs {cfg.processors}")
    out.append(f"policy {cfg.policy}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# machine spec format
# ---------------------------------------------------------------------------


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
    """
    from .balance import CacheLevel, MachineSpec

    rows = _expect_header(text, ("machine", "1"))
    fields: dict = {"caches": []}
    for lineno, toks in rows:
        key = toks[0]
        if key == "name" and len(toks) == 2:
            fields["name"] = toks[1]
        elif key == "nodes" and len(toks) == 2:
            fields["n_nodes"] = _int(toks[1], lineno)
        elif key == "cores" and len(toks) == 2:
            fields["n_cores"] = _int(toks[1], lineno)
        elif key == "mem_words" and len(toks) == 2:
            fields["mem_words"] = _int(toks[1], lineno)
        elif key == "cache" and len(toks) in (5, 7) and toks[3] == "shared":
            balance = None
            if len(toks) == 7:
                if toks[5] != "bal":
                    raise FormatError(f"line {lineno}: expected 'bal <float>'")
                balance = _positive_float(toks[6], lineno)
            fields["caches"].append(
                CacheLevel(
                    name=toks[1],
                    capacity_words=_int(toks[2], lineno),
                    shared_by=_int(toks[4], lineno),
                    balance=balance,
                )
            )
        elif key == "vbal" and len(toks) == 2:
            fields["vertical_balance"] = _positive_float(toks[1], lineno)
        elif key == "hbal" and len(toks) == 2:
            fields["horizontal_balance"] = _positive_float(toks[1], lineno)
        elif key == "raw_vbw" and len(toks) == 2:
            fields["raw_vertical_bw"] = _positive_float(toks[1], lineno)
        elif key == "raw_flops" and len(toks) == 2:
            fields["raw_flops_per_core"] = _positive_float(toks[1], lineno)
        else:
            raise FormatError(f"line {lineno}: unknown record {' '.join(toks)!r}")
    required = ("name", "n_nodes", "n_cores", "mem_words", "vertical_balance", "horizontal_balance")
    missing = [k for k in required if k not in fields]
    if missing:
        raise FormatError(f"machine spec missing records: {missing}")
    fields["caches"] = tuple(fields["caches"])
    return MachineSpec(**fields)


def format_machine(spec) -> str:
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
