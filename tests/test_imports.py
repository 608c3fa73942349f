"""Start-up cost: each CLI command loads only the engines it runs.

Every CLI call is a fresh process that compiles what it imports, so a
command that imports an engine it never runs pays for it on every call.
These tests run each command in a subprocess and read ``sys.modules``
after it; they also pin the lazy package namespace that makes this work.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from pebblebound import Cdag, gen_jacobi, heuristic_game
from pebblebound.formats import Annotations, format_annotations, format_cdag, format_trace

# runs the CLI on argv, then prints the pebblebound modules it loaded as the
# last line of stdout (also after argparse's SystemExit, as --version raises)
PROBE = """
import json, sys
from pebblebound.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("pebblebound."))]))
"""

ENGINES = {"balance", "bounds", "cdag", "formats", "games", "generators", "oracle", "reports"}


def loaded(argv, cwd):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *map(str, argv)], capture_output=True, text=True, cwd=cwd, timeout=120
    )
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return {m.removeprefix("pebblebound.") for m in modules}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    ann = gen_jacobi(4, 1, 3, 3)
    (d / "jac.cdag").write_text(format_cdag(ann.cdag), encoding="utf-8")
    sidecar = Annotations(ann.slabs, ann.wavefront_anchors)
    (d / "jac.ann").write_text(format_annotations(sidecar), encoding="utf-8")
    (d / "jac.trace").write_text(format_trace("rbw", heuristic_game(ann.cdag, 4)[0]), encoding="utf-8")
    # the min-cut bound needs a CDAG without tagged inputs
    free = Cdag.build(sorted(ann.cdag.vertices), ann.cdag.edges, (), ())
    (d / "free.cdag").write_text(format_cdag(free), encoding="utf-8")
    return d


ALG = ["--alg", "jacobi", "--n", "4", "--d", "1", "--T", "3"]

# each command line, and the modules it must not load
NO_SOLVERS = {"oracle", "bounds", "balance", "generators"}
NO_GAMES = {"games", "oracle", "balance", "generators"}
COMMANDS = {
    "generate": (
        ["generate", *ALG, "--out", "gen.cdag", "--annotations", "gen.ann", "--kv"],
        {"games", "oracle", "bounds", "balance"},
    ),
    "play": (["play", "--cdag", "jac.cdag", "--S", "4", "--trace-out", "play.trace", "--kv"], NO_SOLVERS),
    "validate": (["validate", "--cdag", "jac.cdag", "--trace", "jac.trace", "--S", "4", "--kv"], NO_SOLVERS),
    "oracle": (["oracle", "--cdag", "jac.cdag", "--S", "4", "--kv"], {"bounds", "balance", "generators"}),
    "bound mincut": (
        ["bound", "--method", "mincut", "--cdag", "free.cdag", "--S", "4", "--anchors", "jac.ann", "--kv"],
        NO_GAMES,
    ),
    "bound mincut-divide": (
        ["bound", "--method", "mincut-divide", "--cdag", "jac.cdag", "--partition", "jac.ann", "--S", "4", "--kv"],
        NO_GAMES,
    ),
    "bound spart": (["bound", "--method", "spart", "--cdag", "jac.cdag", "--S", "4", "--kv"], NO_GAMES),
    "bound analytic": (["bound", "--method", "analytic", *ALG, "--S", "4", "--kv"], {"formats", "games", "oracle"}),
    "analyze": (["analyze", "--alg", "cg", "--n", "1000", "--d", "3", "--machine", "bgq", "--kv"], {"games", "oracle"}),
}


@pytest.mark.parametrize("argv, absent", COMMANDS.values(), ids=COMMANDS)
def test_command_loads_only_its_engines(argv, absent, files):
    assert not loaded(argv, files) & absent


def test_mincut_loads_exactly_its_engines(files):
    argv = ["bound", "--method", "mincut", "--cdag", "free.cdag", "--S", "4", "--kv"]
    assert loaded(argv, files) == {"cli", "errors", "reports", "formats", "cdag", "bounds"}


def test_version_loads_no_engine(files):
    assert not loaded(["--version"], files) & ENGINES


@pytest.mark.parametrize(
    "statement, absent",
    [
        ("import pebblebound", ENGINES),
        ("import pebblebound.cdag", {"reports"}),
        ("import pebblebound.formats", {"games"}),
        ("import pebblebound.bounds", {"generators"}),
    ],
)
def test_import_loads_only_what_it_names(statement, absent):
    code = f"import sys; {statement}; print(sorted(m for m in sys.modules if m.startswith('pebblebound.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60)
    assert not {m.removeprefix("pebblebound.") for m in eval(proc.stdout)} & absent


class TestLazyNamespace:
    # run in a fresh interpreter, where no engine is loaded yet
    def run(self, code):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_each_name_is_its_modules_object(self):
        self.run(
            "import importlib, pebblebound\n"
            "assert len(set(pebblebound.__all__)) == len(pebblebound.__all__) == 63\n"
            "for name in pebblebound.__all__:\n"
            "    module = importlib.import_module('pebblebound.' + pebblebound._MODULE_OF[name])\n"
            "    assert getattr(pebblebound, name) is getattr(module, name), name\n"
        )

    def test_one_tuple_of_family_names(self):
        self.run(
            "import pebblebound, pebblebound.errors, pebblebound.generators\n"
            "assert pebblebound.ALGORITHMS is pebblebound.generators.ALGORITHMS is pebblebound.errors.ALGORITHMS"
        )

    def test_star_import_binds_every_public_name(self):
        out = self.run(
            "import pebblebound\n"
            "ns = {}\n"
            "exec('from pebblebound import *', ns)\n"
            "assert set(ns) - {'__builtins__'} == set(pebblebound.__all__)\n"
            "print('ok')"
        )
        assert out == "ok\n"

    def test_dir_lists_the_public_names(self):
        import pebblebound

        assert set(pebblebound.__all__) <= set(dir(pebblebound))
        assert "__version__" in dir(pebblebound)

    def test_unknown_name_raises_attribute_error(self):
        import pebblebound

        with pytest.raises(AttributeError, match="has no attribute 'no_such_engine'"):
            pebblebound.no_such_engine  # noqa: B018
        assert not hasattr(pebblebound, "parse_cdag")  # a formats name the package does not export

    def test_submodules_still_import_by_name(self):
        self.run("from pebblebound import cli, games\nassert callable(cli.main) and callable(games.heuristic_game)")
