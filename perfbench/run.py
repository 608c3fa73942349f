"""End-to-end benchmark of the pebblebound CLI pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload desk-certify --seed 0 --seconds 30 --trace 0

One client in a closed loop runs each workload's fixed job list (one pass)
as CLI subprocesses, one command at a time, until ``--seconds`` would be
exceeded (always at least one pass).  Every command's exit code, stderr
and ``--kv`` output are checked.  The last line of stdout is one JSON
object: ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced passes with passes run under ``perfbench/shim.py`` and
reports per-layer self times instead.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import report  # noqa: E402
from workloads import WORKLOADS, Job, best_known, write_inputs  # noqa: E402

# runs the CLI the way the installed ``pebblebound`` console script does
LAUNCH = ("-c", "import sys; from pebblebound.cli import main; sys.exit(main())")
SHIM = HERE / "shim.py"
SETUP_REPEATS = 5
STARTUP_REPEATS = 5
COMMAND_TIMEOUT_S = 120


@dataclass
class Result:
    """One finished CLI command."""

    code: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float
    kv: dict = field(default_factory=dict)


@dataclass
class JobOutcome:
    job: Job
    latency_s: float
    maxrss_mb: float
    problems: list[str]
    # traced passes only: one span list per command, as shim.py wrote it
    spans: list = field(default_factory=list)
    # command wall time under the shim, traced passes only
    traced_wall_s: float = 0.0

    @property
    def failed(self) -> bool:
        return bool(self.problems)


class Cli:
    """Starts CLI subprocesses from the checkout's ``src`` and reaps them with rusage."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.count = 0

    def run(self, args, span_file: Path | None = None, job_id: str = "") -> Result:
        if span_file is None:
            argv = [sys.executable, *LAUNCH, *args]
        else:
            argv = [sys.executable, str(SHIM), str(span_file), job_id, *args]
        self.count += 1
        out_path = self.work / f"cmd{self.count}.out"
        err_path = self.work / f"cmd{self.count}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        out_path.unlink()
        err_path.unlink()
        kv = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
        return Result(proc.returncode, stdout, stderr, wall, usage.ru_maxrss / 1024, kv)


def check_step(step, res: Result, seed: int) -> list[str]:
    problems = []
    if res.code not in step.exits:
        last = res.stderr.strip().splitlines()[-1:] or [""]
        problems.append(f"exit {res.code}, expected {step.exits}: {last[0][:200]}")
    if "Traceback (most recent call last)" in res.stderr:
        problems.append("traceback on stderr: " + res.stderr.strip().splitlines()[-1][:200])
    if res.code == 0:
        pins = dict(step.pins, **(step.seed0_pins if seed == 0 else {}))
        for key, want in pins.items():
            got = res.kv.get(key)
            if got != want:
                problems.append(f"{key}={got}, pinned {want}")
    elif res.code == 3 and best_known(res.stderr) is None:
        problems.append("budget exit without a best-known upper bound")
    return problems


def run_job(cli: Cli, job: Job, in_dir: Path, job_dir: Path, seed: int, span_dir: Path | None) -> JobOutcome:
    start = time.perf_counter()
    job_dir.mkdir(parents=True, exist_ok=True)
    results, problems, spans, traced_wall = [], [], [], 0.0
    for i, step in enumerate(job.steps):
        args = [a.format(**{"in": in_dir, "out": job_dir}) for a in step.argv]
        span_file = None if span_dir is None else span_dir / f"{cli.count}.json"
        res = cli.run(args, span_file, job.name)
        results.append(res)
        step_problems = check_step(step, res, seed)
        problems += [f"step {i} ({step.argv[0]}): {p}" for p in step_problems]
        if span_file is not None:
            traced_wall += res.wall_s
            if span_file.exists():
                spans.append(json.loads(span_file.read_text(encoding="utf-8")))
                span_file.unlink()
        if step_problems:
            break
    if not problems:
        try:
            problems = job.check(results)
        except (KeyError, ValueError, IndexError) as exc:
            problems = [f"invariant check could not read the outputs: {exc!r}"]
    latency = time.perf_counter() - start
    peak = max(r.maxrss_mb for r in results)
    return JobOutcome(job, latency, peak, problems, spans, traced_wall)


def setup(cli: Cli, workload, seed: int, in_dir: Path) -> float:
    """Generate, relabel and write every input file, then warm the CLI up once."""
    start = time.perf_counter()
    write_inputs(workload, seed, in_dir)
    res = cli.run(["--version"])
    if res.code != 0 or not res.stdout.startswith("pebblebound "):
        raise SystemExit(f"CLI warm-up failed (exit {res.code}): {res.stderr.strip()[-300:]}")
    return time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                    help="one workload, or all of them in turn (one report and JSON line each)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pebblebound" / "cli.py").is_file():
        print(f"error: no pebblebound sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        work = ROOT / ".perfbench_work" / f"{name}-{args.seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            measure(WORKLOADS[name], args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return 0


def measure(workload, args, work: Path) -> None:
    cli = Cli(work)
    in_dir = work / "inputs"
    setups = [setup(cli, workload, args.seed, in_dir) for _ in range(SETUP_REPEATS)]
    span_dir = work / "spans"
    if args.trace:
        startups = [cli.run(["--version"]).wall_s for _ in range(STARTUP_REPEATS)]
        span_dir.mkdir()

    passes: list[list[JobOutcome]] = []
    traced: list[list[JobOutcome]] = []
    pass_times: list[float] = []
    traced_times: list[float] = []
    begin = time.perf_counter()
    while True:
        trace_this = bool(args.trace) and len(traced) < len(passes)
        start = time.perf_counter()
        outcomes = [
            run_job(cli, job, in_dir, work / "jobs" / str(k), args.seed, span_dir if trace_this else None)
            for k, job in enumerate(workload.jobs)
        ]
        elapsed = time.perf_counter() - start
        (traced if trace_this else passes).append(outcomes)
        (traced_times if trace_this else pass_times).append(elapsed)
        if args.trace and not traced:
            continue
        typical = statistics.median(pass_times + traced_times)
        if time.perf_counter() - begin + typical > args.seconds:
            break

    every = [o for p in passes + traced for o in p]
    failed = [o for o in every if o.failed]
    # a job marked known-failing may fail only in its documented way
    correct = all(o.job.known_failure and all(o.job.known_failure in p for p in o.problems) for o in failed)
    result = {"correct": correct, "attempted": len(every), "failed": len(failed)}
    if args.trace:
        metrics = report.layer_metrics(traced, statistics.median(startups),
                                       statistics.median(traced_times) / statistics.median(pass_times) - 1)
        report.print_layers(workload.name, metrics, traced)
    else:
        latencies = [o.latency_s for o in every]
        metrics = {
            "pass_s": (statistics.median(pass_times), "s"),
            "job_p50_s": (statistics.median(latencies), "s"),
            "ok_frac": (1 - len(failed) / len(every), "frac"),
            "peak_rss_mb": (max(o.maxrss_mb for o in every), "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        report.print_end_to_end(workload.name, args.seed, metrics, len(pass_times), latencies, len(failed))
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    for name in dict.fromkeys(o.job.name for o in failed):
        runs = [o for o in failed if o.job.name == name]
        print(f"FAILED {name} ({len(runs)}x): {'; '.join(runs[0].problems)}")
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
