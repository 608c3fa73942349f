"""The experiment scripts run end to end and print their tables."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, header",
    [
        ("desk_suite.py", "instance          S   spart  mincut  analytic  optimum  heuristic    time"),
        ("balance_survey.py", "=== bgq: N_nodes=2048, vbal=0.052, hbal=0.049 ==="),
        (
            "wavefront_digest.py",
            "2323 certificates, 923 values,"
            " sha256 0c6fc2546bd1dcfac210692e48b6eb1d32ee3d8b1d05dcb4da1965ef8140b638",
        ),
    ],
)
def test_script_runs_and_prints_header(script, header):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header


def test_traced_launcher_wraps_the_game_layer(tmp_path):
    # the launcher finds the functions it wraps by name, so a rename in the
    # package would otherwise surface only in a traced benchmark run
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cdag, spans = tmp_path / "jac.cdag", tmp_path / "spans.json"
    for argv in (
        ["-m", "pebblebound.cli", "generate", "--alg", "jacobi", "--n", "4", "--d", "1", "--T", "3",
         "--out", str(cdag)],
        [str(ROOT / "perfbench" / "shim.py"), str(spans), "job", "play", "--cdag", str(cdag), "--S", "4", "--kv"],
    ):
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
    names = {span[0] for span in json.loads(spans.read_text())}
    assert {"games.heuristic", "games.validate"} <= names


def test_traced_launcher_wraps_engines_the_cli_imports_late(tmp_path):
    # cli imports each engine inside the command that runs it, after the
    # launcher has wrapped the engine's functions, so the wrapped ones run:
    # an oracle search whose budget runs out, and the player that then
    # supplies its best-known bound, both leave timed spans
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cdag, spans = tmp_path / "jac.cdag", tmp_path / "spans.json"
    for argv, code in (
        (["-m", "pebblebound.cli", "generate", "--alg", "jacobi", "--n", "4", "--d", "1", "--T", "3",
          "--out", str(cdag)], 0),
        ([str(ROOT / "perfbench" / "shim.py"), str(spans), "job", "oracle", "--cdag", str(cdag), "--S", "4",
          "--budget", "10", "--kv"], 3),
    ):
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == code, proc.stderr
    took = {span[0]: span[2] - span[1] for span in json.loads(spans.read_text())}
    assert took["oracle.search"] > 0 and took["games.heuristic"] > 0


def test_traced_launcher_sees_every_wavefront_flow_of_wmax(tmp_path):
    # wmax flows each anchor it cannot settle by a ceiling through the
    # public wavefront_min, so the launcher's span counts every flow
    from pebblebound import Cdag, gen_cg
    from pebblebound.formats import format_cdag

    c = gen_cg(12, 1, 4).cdag
    free = Cdag.build(sorted(c.vertices), c.edges, (), ())  # the min-cut bound needs no inputs
    cdag, spans, rec = tmp_path / "free.cdag", tmp_path / "spans.json", tmp_path / "run.rec"
    cdag.write_text(format_cdag(free), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [str(ROOT / "perfbench" / "shim.py"), str(spans), "job", "bound", "--method", "mincut",
            "--cdag", str(cdag), "--S", "4", "--kv", "--record", str(rec)]
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = dict(line.split("=", 1) for line in rec.read_text().splitlines() if "=" in line)
    flows = int(record["stats.flow.flows"])
    wavefronts = sum(1 for span in json.loads(spans.read_text()) if span[0] == "bounds.wavefront")
    assert flows > 0 and wavefronts == flows
