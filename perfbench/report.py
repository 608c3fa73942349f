"""Turns traced spans into per-layer metrics, and prints the human-readable report."""

from __future__ import annotations

import statistics

# per-layer self-time metrics are "<span name>_s"; shim.py names the spans
TIME_LAYERS = (
    "oracle.search", "oracle.ceiling",
    "games.heuristic", "games.validate",
    "formats.parse_cdag", "formats.format_cdag", "formats.parse_trace", "formats.format_trace",
    "formats.parse_annotations", "generators.generate", "cdag.build", "cdag.check",
    "bounds.wmax", "bounds.wavefront", "bounds.mincut", "bounds.mincut_divide",
    "bounds.umax", "bounds.spart", "bounds.analytic",
    "balance.load_machine", "balance.analyze", "cli.self",
)
COUNTS = ("oracle.calls", "oracle.budget_exhausted", "games.heuristic_moves",
          "bounds.wavefront_calls", "formats.bytes_in")


def _layer(spans, i: int) -> str:
    """A span's layer: the ceiling heuristic inside the oracle is a layer of its own."""
    name = spans[i][0]
    if name == "games.heuristic":
        j = spans[i][3]
        while j != -1:
            if spans[j][0] == "oracle.search":
                return "oracle.ceiling"
            j = spans[j][3]
    return name


def pass_layers(outcomes) -> dict[str, float]:
    """Self time per layer and work counts, summed over one traced pass."""
    acc = dict.fromkeys([f"{n}_s" for n in TIME_LAYERS] + list(COUNTS), 0)
    for o in outcomes:
        for spans in o.spans:
            for i, (name, start, end, parent, _job, count, error) in enumerate(spans):
                layer = _layer(spans, i)
                acc[f"{layer}_s"] += end - start
                if parent != -1:
                    acc[f"{_layer(spans, parent)}_s"] -= end - start
                if name == "oracle.search":
                    acc["oracle.calls"] += 1
                    acc["oracle.budget_exhausted"] += error == "BudgetExhaustedError"
                elif layer == "games.heuristic":
                    acc["games.heuristic_moves"] += count or 0
                elif name == "bounds.wavefront":
                    acc["bounds.wavefront_calls"] += 1
                elif name.startswith("formats.parse_"):
                    acc["formats.bytes_in"] += count or 0
    return acc


def layer_metrics(traced, startup_s: float, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Median over traced passes of each layer's per-pass total."""
    per_pass = [pass_layers(p) for p in traced]
    out = {}
    for key in per_pass[0]:
        out[key] = (statistics.median(p[key] for p in per_pass), "s" if key.endswith("_s") else "count")
    out["formats.bytes_in"] = (out["formats.bytes_in"][0], "B")
    out["cli.startup_s"] = (startup_s, "s")
    out["trace.overhead_frac"] = (overhead_frac, "frac")
    return out


def print_layers(workload: str, layers, traced) -> None:
    wall = statistics.median(sum(o.traced_wall_s for o in p) for p in traced)
    print(f"traced run: {workload}, {len(traced)} traced pass(es), median traced command time {wall:.3f} s")
    print(f"  {'layer':28} {'self time':>12} {'share':>7}")
    timed = sorted((k for k in layers if k.endswith("_s") and k != "cli.startup_s"),
                   key=lambda k: -layers[k][0])
    for key in timed:
        print(f"  {key:28} {layers[key][0]:10.4f} s {100 * layers[key][0] / wall:6.1f}%")
    rest = wall - sum(layers[k][0] for k in timed)
    print(f"  {'(interpreter start, imports)':28} {rest:10.4f} s {100 * rest / wall:6.1f}%")
    for key in COUNTS + ("cli.startup_s", "trace.overhead_frac"):
        value, unit = layers[key]
        print(f"  {key:28} {value:12.6g} {unit}")


def tail_percentile(values: list[float]):
    """The highest of p50/p75/p90/p95/p99 with at least ten samples beyond it, or None."""
    best = None
    for p in (50, 75, 90, 95, 99):
        if len(values) * (100 - p) >= 1000:
            best = (p, statistics.quantiles(values, n=100, method="inclusive")[p - 1])
    return best


def print_end_to_end(workload: str, seed: int, metrics, n_passes: int, latencies, n_failed: int) -> None:
    n = len(latencies)
    print(f"workload {workload}, seed {seed}: {n_passes} pass(es), {n} jobs, "
          f"closed loop with one client")
    for key, (value, unit) in metrics.items():
        print(f"  {key:14} {value:12.6g} {unit}")
    tail = tail_percentile(latencies)
    if tail is None:
        print(f"  job latency tail: fewer than 10 samples beyond p50 (n={n})")
    else:
        print(f"  job_p{tail[0]}_s {tail[1]:12.6g} s (n={n})")
    print(f"  fail_frac      {n_failed / n:12.6g} ({n_failed} of {n} jobs failed)")
