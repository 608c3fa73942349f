import argparse
import subprocess
import sys
from fractions import Fraction

import pytest

from pebblebound import (
    AlgorithmParams,
    BoundError,
    Partition,
    generate,
    load_machine,
    mincut_divide_bound,
    optimal_io,
)
from pebblebound.formats import format_machine, parse_cdag
from pebblebound.cli import build_parser, main


SUBCOMMANDS = next(a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def kv_dict(out):
    pairs = {}
    for line in out.strip().splitlines():
        k, _, v = line.partition("=")
        pairs[k] = v
    return pairs


@pytest.fixture
def jacobi_files(tmp_path, capsys):
    cdag = tmp_path / "jac.cdag"
    ann = tmp_path / "jac.ann"
    code, out, _ = run_cli(
        ["generate", "--alg", "jacobi", "--n", "4", "--d", "1", "--T", "3",
         "--out", str(cdag), "--annotations", str(ann), "--kv"],
        capsys,
    )
    assert code == 0
    return cdag, ann, kv_dict(out)


class TestGenerate:
    def test_jacobi_vertex_count_reported(self, jacobi_files):
        _, _, kv = jacobi_files
        assert kv["vertices"] == "12"  # n^d * T

    def test_cg_sidecar_lists_anchors(self, tmp_path, capsys):
        cdag = tmp_path / "cg.cdag"
        ann = tmp_path / "cg.ann"
        code, out, _ = run_cli(
            ["generate", "--alg", "cg", "--n", "2", "--d", "1", "--T", "1",
             "--out", str(cdag), "--annotations", str(ann), "--kv"],
            capsys,
        )
        assert code == 0
        text = ann.read_text()
        assert text.count("anchor ") == 2
        assert "slab iter1" in text

    def test_unknown_algorithm_is_usage_error(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "pebblebound.cli", "generate", "--alg", "nope",
             "--out", str(tmp_path / "x")],
            capture_output=True,
        )
        assert proc.returncode == 2


class TestValidatePlayOracle:
    def test_play_then_validate_roundtrip(self, jacobi_files, tmp_path, capsys):
        cdag, _, _ = jacobi_files
        trace = tmp_path / "t.trace"
        code, out, _ = run_cli(
            ["play", "--cdag", str(cdag), "--S", "4", "--trace-out", str(trace), "--kv"],
            capsys,
        )
        assert code == 0
        played = kv_dict(out)
        code, out, _ = run_cli(
            ["validate", "--cdag", str(cdag), "--trace", str(trace), "--S", "4", "--kv"],
            capsys,
        )
        assert code == 0
        validated = kv_dict(out)
        assert validated["loads"] == played["loads"]
        assert validated["stores"] == played["stores"]

    def test_validate_reports_violation_with_exit_1(self, jacobi_files, tmp_path, capsys):
        cdag, _, _ = jacobi_files
        bad = tmp_path / "bad.trace"
        bad.write_text("trace rbw 1\nR3 4\n", encoding="utf-8")
        code, _, err = run_cli(
            ["validate", "--cdag", str(cdag), "--trace", str(bad), "--S", "4"],
            capsys,
        )
        assert code == 1
        assert "R3" in err and "vertex 4" in err

    def test_oracle_value(self, jacobi_files, capsys):
        cdag, _, _ = jacobi_files
        code, out, _ = run_cli(["oracle", "--cdag", str(cdag), "--S", "4", "--kv"], capsys)
        assert code == 0
        assert kv_dict(out)["optimum"] == "12"

    def test_oracle_budget_exit_3(self, jacobi_files, capsys):
        cdag, _, _ = jacobi_files
        code, _, err = run_cli(
            ["oracle", "--cdag", str(cdag), "--S", "4", "--budget", "2"], capsys
        )
        assert code == 3
        assert "budget" in err

    def test_prbw_trace_with_hierarchy(self, tmp_path, capsys):
        cdag = tmp_path / "c.cdag"
        cdag.write_text("cdag 1\nv 0 in\nv 1 out\ne 0 1\n", encoding="utf-8")
        hier = tmp_path / "h.hier"
        hier.write_text(
            "hier 2\nlevel 1 units 1 cap 2\nlevel 2 units 1 cap 4\n"
            "parent 1 0 0\npolicy inclusive\n",
            encoding="utf-8",
        )
        trace = tmp_path / "t.trace"
        trace.write_text(
            "trace prbw 1\nR1 0 0\nR4 0 1 0\nR6 1 0\nR5 1 2 0\nR2 1 0\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            ["validate", "--cdag", str(cdag), "--trace", str(trace), "--hier", str(hier), "--kv"],
            capsys,
        )
        assert code == 0
        kv = kv_dict(out)
        assert kv["loads"] == "1" and kv["stores"] == "1"
        assert kv["vertical_down.L1.u0"] == "1"
        assert kv["vertical_up.L1.u0"] == "1"

    def test_prbw_capacity_violation_names_unit(self, tmp_path, capsys):
        cdag = tmp_path / "c.cdag"
        cdag.write_text("cdag 1\nv 0 in out\nv 1 in out\n", encoding="utf-8")
        hier = tmp_path / "h.hier"
        hier.write_text(
            "hier 2\nlevel 1 units 1 cap 1\npolicy inclusive\n",
            encoding="utf-8",
        )
        trace = tmp_path / "t.trace"
        trace.write_text("trace prbw 1\nR1 0 0\nR1 1 0\n", encoding="utf-8")
        code, _, err = run_cli(
            ["validate", "--cdag", str(cdag), "--trace", str(trace), "--hier", str(hier)],
            capsys,
        )
        assert code == 1
        assert "step 2" in err and "level 1 unit 0" in err

    def test_prbw_remote_get_counted_per_destination(self, tmp_path, capsys):
        cdag = tmp_path / "c.cdag"
        cdag.write_text("cdag 1\nv 0 in out\n", encoding="utf-8")
        hier = tmp_path / "h.hier"
        hier.write_text(
            "hier 2\nlevel 1 units 2 cap 2\nlevel 2 units 2 cap 4\n"
            "parent 1 0 0\nparent 1 1 1\npolicy inclusive\n",
            encoding="utf-8",
        )
        trace = tmp_path / "t.trace"
        trace.write_text("trace prbw 1\nR1 0 0\nR3 0 0 1\n", encoding="utf-8")
        code, out, _ = run_cli(
            ["validate", "--cdag", str(cdag), "--trace", str(trace), "--hier", str(hier), "--kv"],
            capsys,
        )
        assert code == 0
        assert out == "game=prbw\nloads=1\nstores=0\nhorizontal.u1=1\n"


class TestUsageErrors:
    """A missing flag, a bad value or a bad input file: exit 1, one error line, no stdout."""

    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "c.cdag").write_text("cdag 1\nv 0 in\nv 1 out\ne 0 1\n", encoding="utf-8")
        (tmp_path / "dup.cdag").write_text("cdag 1\nv 0 in\nv 1 out\ne 0 1\ne 0 1\n", encoding="utf-8")
        (tmp_path / "neg.cdag").write_text("cdag 1\nv -1\n", encoding="utf-8")
        (tmp_path / "ff.cdag").write_bytes(b"\xffcdag 1\n")
        (tmp_path / "flat.trace").write_text("trace rbw 1\nR1 0\n", encoding="utf-8")
        (tmp_path / "hier.trace").write_text("trace prbw 1\nR1 0 0\n", encoding="utf-8")
        (tmp_path / "nocache.machine").write_text(
            "machine 1\nname x\nnodes 1\ncores 1\nmem_words 8\nvbal 0.05\nhbal 0.05\n", encoding="utf-8"
        )
        return tmp_path

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["validate", "--cdag", "c.cdag", "--trace", "hier.trace"], "hierarchical traces need --hier"),
            (["validate", "--cdag", "c.cdag", "--trace", "flat.trace"], "flat traces need --S"),
            (["bound", "--method", "analytic", "--S", "2"], "--method analytic needs --alg"),
            (["bound", "--method", "spart", "--S", "2"], "--method spart needs --cdag"),
            (["bound", "--method", "mincut", "--cdag", "c.cdag"], "--method mincut needs --S"),
            (["bound", "--method", "mincut-divide", "--cdag", "c.cdag", "--S", "2"],
             "--method mincut-divide needs --partition"),
            (["play", "--cdag", "dup.cdag", "--S", "2"], "invalid CDAG: duplicate edge (0, 1)"),
            (["play", "--cdag", "neg.cdag", "--S", "2"],
             "invalid CDAG: vertex ids must be nonnegative integers, got -1"),
            (["play", "--cdag", "ff.cdag", "--S", "2"], "ff.cdag: not UTF-8 text (byte 0)"),
            (["validate", "--cdag", "c.cdag", "--trace", "flat.trace", "--S", "0"], "S must be >= 1"),
            (["analyze", "--alg", "jacobi", "--machine", "nocache.machine"],
             "the stencil bound needs a cache level (its capacity sets S)"),
        ],
    )
    def test_exit_1_with_one_error_line(self, argv, message, files, monkeypatch, capsys):
        monkeypatch.chdir(files)
        code, out, err = run_cli(argv + ["--kv"], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestBoundAndAnalyze:
    def test_analytic_bound_emits_exact_and_asymptotic(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--method", "analytic", "--alg", "cg", "--n", "1000", "--d", "3",
             "--T", "1", "--P", "1", "--S", "1024", "--kv"],
            capsys,
        )
        assert code == 0
        kv = kv_dict(out)
        assert kv["bound.value"] == "5999995904"
        assert "6*n^d*T/P" in kv["bound.asymptotic"]

    @pytest.mark.parametrize(
        "args,alg",
        [
            (["bound", "--method", "analytic", "--alg", "jacobi", "--n", "1000", "--d", "200", "--T", "1",
              "--S", "4"], "jacobi"),
            (["bound", "--method", "analytic", "--alg", "matmul", "--n", str(10**110), "--S", "3"], "matmul"),
            (["analyze", "--alg", "jacobi", "--n", "1000", "--d", "200", "--T", "1", "--machine", "bgq"], "jacobi"),
        ],
        ids=["bound-jacobi", "bound-matmul", "analyze-jacobi"],
    )
    def test_closed_form_outside_float_range_is_one_error_line(self, args, alg, capsys):
        code, out, err = run_cli(args + ["--kv"], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: the analytic {alg} bound leaves the float range\n"

    def test_spart_bound_with_bruteforced_umax(self, jacobi_files, capsys):
        cdag, _, _ = jacobi_files
        code, out, _ = run_cli(
            ["bound", "--method", "spart", "--cdag", str(cdag), "--S", "2", "--kv"], capsys
        )
        assert code == 0
        kv = kv_dict(out)
        assert "umax.bruteforced" in kv and "bound.value" in kv

    @pytest.mark.parametrize("umax", [[], ["--umax", "1"]])
    def test_spart_rejects_cyclic_cdag(self, umax, tmp_path):
        cdag = tmp_path / "cyclic.cdag"
        cdag.write_text("cdag 1\nv 0 in\nv 1\nv 2 out\ne 0 1\ne 1 2\ne 2 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "pebblebound.cli", "bound", "--method", "spart",
             "--cdag", str(cdag), "--S", "2", "--kv"] + umax,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: invalid CDAG (rbw mode): cycle: 1->2->1\n"
        assert proc.stdout == ""

    def test_mincut_divide_with_partition_file(self, jacobi_files, tmp_path, capsys):
        cdag, ann, _ = jacobi_files
        code, out, _ = run_cli(
            ["bound", "--method", "mincut-divide", "--cdag", str(cdag),
             "--partition", str(ann), "--S", "1", "--kv"],
            capsys,
        )
        assert code == 0
        assert "bound.value" in kv_dict(out)

    @pytest.mark.parametrize("S", ["0", "-2", "-5"])
    @pytest.mark.parametrize("method", ["spart", "mincut", "mincut-divide"])
    def test_nonpositive_S_exits_1_naming_S(self, method, S, jacobi_files, capsys):
        cdag, ann, _ = jacobi_files
        code, out, err = run_cli(
            ["bound", "--method", method, "--cdag", str(cdag), "--partition", str(ann), "--S", S, "--kv"],
            capsys,
        )
        assert (code, out, err) == (1, "", f"error: the {method} bound needs S >= 1\n")

    @pytest.mark.parametrize(
        "alg,S",
        [
            (["cg", "--n", "2", "--d", "1", "--T", "1"], 4),
            (["gmres", "--n", "2", "--d", "1", "--m", "1"], 4),
            (["jacobi", "--n", "4", "--d", "1", "--T", "2"], 4),
            (["matmul", "--n", "2"], 3),
            (["outer_product", "--n", "3"], 3),
            (["composite", "--n", "2"], 3),
            (["chain", "--n", "6"], 2),
        ],
        ids=lambda x: x[0] if isinstance(x, list) else f"S{x}",
    )
    def test_mincut_divide_on_generated_slabs(self, alg, S, tmp_path, capsys):
        # slabs may share vertices (cg, gmres) or leave out the inputs; the
        # bound still runs and stays below the optimum
        cdag, ann = tmp_path / "g.cdag", tmp_path / "g.ann"
        code, _, _ = run_cli(
            ["generate", "--alg", *alg, "--out", str(cdag), "--annotations", str(ann)], capsys
        )
        assert code == 0
        code, out, err = run_cli(
            ["bound", "--method", "mincut-divide", "--cdag", str(cdag), "--partition", str(ann),
             "--S", str(S), "--kv"],
            capsys,
        )
        assert (code, err) == (0, "")
        optimum = optimal_io(parse_cdag(cdag.read_text()), S).value
        assert Fraction(kv_dict(out)["bound.value"].split()[0]) <= optimum

    @pytest.mark.parametrize(
        "params",
        [AlgorithmParams("cg", n=3, d=1, T=3), AlgorithmParams("gmres", n=3, d=1, m=3)],
        ids=["cg", "gmres"],
    )
    def test_mincut_divide_keeps_each_vertex_in_its_producing_slab(self, params, tmp_path, capsys):
        # consecutive slabs share the values one iteration hands to the next;
        # each shared vertex is charged to the earlier slab, which produces it
        cdag, ann = tmp_path / "g.cdag", tmp_path / "g.ann"
        alg = ["--alg", params.algorithm, "--n", str(params.n), "--d", str(params.d),
               "--T", str(params.T), "--m", str(params.m)]
        assert run_cli(["generate", *alg, "--out", str(cdag), "--annotations", str(ann)], capsys)[0] == 0
        code, out, err = run_cli(
            ["bound", "--method", "mincut-divide", "--cdag", str(cdag), "--partition", str(ann),
             "--S", "4", "--kv"],
            capsys,
        )
        assert (code, err) == (0, "")
        gen = generate(params)
        slabs = list(gen.slabs.values())
        produced = [slabs[0], *(b - a for a, b in zip(slabs, slabs[1:]))]
        expected = mincut_divide_bound(gen.cdag, Partition.of([*produced, gen.cdag.inputs]), 4)
        kv = kv_dict(out)
        assert Fraction(kv["bound.value"].split()[0]) == expected.value
        assert kv["bound.param.blocks"] == str(len(slabs) + 1)
        assert kv["bound.param.wmax_per_block"] == str(expected.params["wmax_per_block"])

    @pytest.mark.parametrize("budget", ["0", "-1", "x"])
    @pytest.mark.parametrize("command", [["oracle"], ["bound", "--method", "spart"]])
    def test_nonpositive_budget_is_usage_error(self, command, budget, jacobi_files, capsys):
        cdag, _, _ = jacobi_files
        with pytest.raises(SystemExit) as exc:
            main([*command, "--cdag", str(cdag), "--S", "4", "--budget", budget])
        assert exc.value.code == 2
        assert "argument --budget: must be a positive integer" in capsys.readouterr().err

    def test_analyze_cg_on_bgq(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--alg", "cg", "--n", "1000", "--d", "3", "--T", "1",
             "--machine", "bgq", "--kv"],
            capsys,
        )
        assert code == 0
        kv = kv_dict(out)
        assert kv["intensity.vertical"].startswith("3/10")
        assert kv["verdict.vertical"] == "provably-bandwidth-bound"
        assert kv["verdict.horizontal"] == "not-bandwidth-bound-achievable"

    def test_analyze_reads_spec_files_itself(self, tmp_path, capsys):
        # the CLI parses a spec file; the library loader takes shipped names only
        spec = tmp_path / "bgq.machine"
        spec.write_text(format_machine(load_machine("bgq")), encoding="utf-8")
        argv = ["analyze", "--alg", "cg", "--n", "1000", "--d", "3", "--T", "1", "--kv", "--machine"]
        shipped = run_cli(argv + ["bgq"], capsys)
        from_file = run_cli(argv + [str(spec)], capsys)
        assert shipped[0] == 0 and from_file == shipped
        with pytest.raises(BoundError, match="no machine file or shipped machine named"):
            load_machine(str(spec))

    def test_analyze_shipped_name_wins_over_local_file(self, tmp_path, monkeypatch, capsys):
        argv = ["analyze", "--alg", "cg", "--n", "1000", "--d", "3", "--T", "1", "--kv", "--machine"]
        shipped = run_cli(argv + ["bgq"], capsys)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bgq").write_text("not a machine\n", encoding="utf-8")
        assert run_cli(argv + ["bgq"], capsys) == shipped
        # a path to the same name reads the local file
        code, out, err = run_cli(argv + ["./bgq"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: missing or bad header line, expected 'machine 1'\n"

    def test_analyze_rejects_unparsable_machine_balance(self, tmp_path):
        spec = tmp_path / "bad.machine"
        spec.write_text("machine 1\nname x\nnodes 1\ncores 1\nmem_words 8\nvbal 0.05x\nhbal 0.05\n")
        proc = subprocess.run(
            [sys.executable, "-m", "pebblebound.cli", "analyze", "--alg", "cg", "--n", "4",
             "--d", "3", "--machine", str(spec), "--kv"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: line 6: expected a positive finite number, got '0.05x'\n"

    @pytest.mark.parametrize("alg", ["cg", "jacobi"])
    @pytest.mark.parametrize(
        "lineno,record,bad",
        [
            pytest.param(6, "cache L2 -5 shared 0", "-5", id="L2 -5 shared 0"),
            pytest.param(6, "cache L2 0 shared 1", "0", id="L2 0 shared 1"),
            pytest.param(6, "cache L2 64 shared 0", "0", id="L2 64 shared 0"),
            pytest.param(3, "nodes 0", "0", id="nodes 0"),
            pytest.param(4, "cores -1", "-1", id="cores -1"),
            pytest.param(5, "mem_words 0", "0", id="mem_words 0"),
        ],
    )
    def test_analyze_rejects_bad_cache_values(self, alg, lineno, record, bad, tmp_path, capsys):
        lines = ["machine 1", "name x", "nodes 1", "cores 1", "mem_words 8", "cache L2 64 shared 1", "vbal 0.05", "hbal 0.05"]
        lines[lineno - 1] = record
        spec = tmp_path / "bad.machine"
        spec.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(
            ["analyze", "--alg", alg, "--n", "4", "--d", "3", "--machine", str(spec), "--kv"], capsys
        )
        assert (code, out) == (1, "")
        assert err == f"error: line {lineno}: expected a positive integer, got '{bad}'\n"

    def test_kv_output_is_deterministic(self, jacobi_files, capsys):
        cdag, _, _ = jacobi_files
        _, out1, _ = run_cli(["oracle", "--cdag", str(cdag), "--S", "4", "--kv"], capsys)
        _, out2, _ = run_cli(["oracle", "--cdag", str(cdag), "--S", "4", "--kv"], capsys)
        assert out1 == out2


class TestRecords:
    def test_record_has_digests_and_outputs(self, jacobi_files, tmp_path, capsys):
        cdag, _, _ = jacobi_files
        rec = tmp_path / "runs.rec"
        code, _, _ = run_cli(
            ["oracle", "--cdag", str(cdag), "--S", "4", "--kv", "--record", str(rec)],
            capsys,
        )
        assert code == 0
        text = rec.read_text()
        assert "record 1" in text
        assert ".sha256=" in text
        assert "output.optimum=12" in text
        assert "exit=0" in text.splitlines()
        assert "error=" not in text

    @pytest.mark.parametrize("argv", [["oracle"], ["bound", "--method", "oracle", "--game", "rb"]])
    def test_record_carries_oracle_counters_kv_does_not(self, argv, jacobi_files, tmp_path, capsys):
        cdag, _, _ = jacobi_files
        rec = tmp_path / "runs.rec"
        code, out, _ = run_cli(argv + ["--cdag", str(cdag), "--S", "4", "--kv", "--record", str(rec)], capsys)
        assert code == 0
        assert "stats." not in out
        stats = dict(
            line.split("=", 1) for line in rec.read_text().splitlines() if line.startswith("stats.oracle.")
        )
        assert sorted(stats) == [
            "stats.oracle.duplicates",
            "stats.oracle.expansions",
            "stats.oracle.generated",
            "stats.oracle.peak_heap",
            "stats.oracle.states",
        ]
        assert int(stats["stats.oracle.expansions"]) > 0

    @pytest.mark.parametrize("method", ["mincut", "mincut-divide"])
    def test_record_carries_flow_counters_kv_does_not(self, method, jacobi_files, tmp_path, capsys):
        cdag, ann, _ = jacobi_files
        if method == "mincut":  # the plain bound needs an input-free CDAG
            cdag = tmp_path / "ladder.cdag"
            cdag.write_text("cdag 1\n" + "".join(f"v {v}\n" for v in range(5))
                            + "e 0 1\ne 0 2\ne 1 3\ne 2 4\ne 3 4\n")
            argv = ["bound", "--method", "mincut", "--cdag", str(cdag), "--S", "1", "--kv"]
        else:
            argv = ["bound", "--method", "mincut-divide", "--cdag", str(cdag),
                    "--partition", str(ann), "--S", "1", "--kv"]
        rec = tmp_path / "runs.rec"
        _, plain, _ = run_cli(argv, capsys)
        code, out, _ = run_cli(argv + ["--record", str(rec)], capsys)
        assert code == 0
        assert out == plain and "stats." not in out
        stats = dict(
            line.split("=", 1) for line in rec.read_text().splitlines() if line.startswith("stats.flow.")
        )
        assert sorted(stats) == [
            "stats.flow.anchors",
            "stats.flow.anchors_skipped",
            "stats.flow.augmentations",
            "stats.flow.bfs_phases",
            "stats.flow.flows",
        ]
        assert int(stats["stats.flow.anchors"]) > int(stats["stats.flow.anchors_skipped"]) > 0

    def test_budget_exit_3_writes_record_with_counters_and_bracket(self, jacobi_files, tmp_path, capsys):
        cdag, _, _ = jacobi_files
        rec = tmp_path / "r.rec"
        code, out, err = run_cli(
            ["oracle", "--cdag", str(cdag), "--S", "4", "--budget", "10", "--kv", "--record", str(rec)],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert err == "error: oracle budget of 10 expansions exhausted (best known upper bound: 15)\n"
        lines = rec.read_text().splitlines()
        fields = dict(line.split("=", 1) for line in lines[1:])
        assert fields["stats.oracle.expansions"] == "10"
        assert fields["exit"] == "3"
        assert fields["error"] == err[len("error: "):].rstrip("\n")
        assert fields["error.best_known"] == "15"
        assert int(fields["error.lower"]) <= 12  # the optimum at S=4
        assert not any(line.startswith("output.") for line in lines)

    def test_failed_validate_writes_record_with_exit_1(self, jacobi_files, tmp_path, capsys):
        cdag, _, _ = jacobi_files
        trace = tmp_path / "t.trace"
        run_cli(["play", "--cdag", str(cdag), "--S", "4", "--trace-out", str(trace)], capsys)
        rec = tmp_path / "v.rec"
        code, out, err = run_cli(
            ["validate", "--cdag", str(cdag), "--trace", str(trace), "--S", "2", "--record", str(rec)],
            capsys,
        )
        assert code == 1
        assert out == ""
        lines = rec.read_text().splitlines()
        assert "exit=1" in lines
        assert "error=step 3 R1 vertex 2: red capacity 2 exceeded" in lines
        assert sum(".sha256=" in line for line in lines) == 2  # the CDAG and the trace

    @pytest.mark.parametrize("kv", [[], ["--kv"]])
    def test_unwritable_record_path_prints_nothing_on_stdout(self, kv, jacobi_files, tmp_path, capsys):
        cdag, _, _ = jacobi_files
        rec = tmp_path / "no" / "such" / "dir" / "rec"
        code, out, err = run_cli(["play", "--cdag", str(cdag), "--S", "4", "--record", str(rec)] + kv, capsys)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and str(rec) in err

    def test_unwritable_record_path_after_a_bad_cdag_prints_one_error_line(self, tmp_path, capsys):
        cdag = tmp_path / "dup.cdag"
        cdag.write_text("cdag 1\nv 0\nv 1\ne 0 1\ne 0 1\n")
        rec = tmp_path / "no" / "such" / "dir" / "rec"
        code, out, err = run_cli(["play", "--cdag", str(cdag), "--S", "2", "--kv", "--record", str(rec)], capsys)
        assert (code, out) == (1, "")
        assert err == (
            "error: invalid CDAG: duplicate edge (0, 1) (run record not written: "
            f"[Errno 2] No such file or directory: '{rec}')\n"
        )

    def test_unwritable_record_path_keeps_the_budget_exit_code(self, tmp_path, capsys):
        cdag = tmp_path / "comp.cdag"
        run_cli(["generate", "--alg", "composite", "--n", "2", "--out", str(cdag)], capsys)
        rec = tmp_path / "no" / "such" / "dir" / "rec"
        code, out, err = run_cli(
            ["oracle", "--cdag", str(cdag), "--S", "4", "--budget", "100", "--kv", "--record", str(rec)], capsys
        )
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and err.count("error: ") == 1
        assert err.startswith("error: oracle budget of 100 expansions exhausted (best known upper bound: ")
        assert err.endswith(f" (run record not written: [Errno 2] No such file or directory: '{rec}')\n")

    # one failing run per command: a non-UTF-8 file wherever the command reads one
    FAILING_RUNS = {
        "generate": ["--alg", "jacobi", "--n", "4", "--out", "no/such/dir/jac.cdag"],
        "validate": ["--cdag", "bad", "--trace", "bad", "--S", "2"],
        "play": ["--cdag", "bad", "--S", "2"],
        "oracle": ["--cdag", "bad", "--S", "2"],
        "bound": ["--method", "spart", "--cdag", "bad", "--S", "2"],
        "analyze": ["--alg", "cg", "--machine", "bad"],
    }

    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_every_command_fails_with_one_error_line_and_a_record(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad").write_bytes(b"cdag 1\n\xff\n")
        argv = [command] + self.FAILING_RUNS[command] + ["--kv", "--record", "runs.rec"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: ")
        lines = (tmp_path / "runs.rec").read_text().splitlines()
        assert "exit=1" in lines
        assert "error=" + err[len("error: "):-1] in lines


class TestUnreadableInput:
    @pytest.fixture(params=["directory", "not-utf8"])
    def bad_path(self, request, tmp_path):
        if request.param == "directory":
            path = tmp_path / "adir"
            path.mkdir()
        else:
            path = tmp_path / "latin1.cdag"
            path.write_bytes("cdag 1\nv 0 label=caf\xe9\n".encode("latin-1"))
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["play", "--S", "4", "--cdag"],
            ["oracle", "--S", "4", "--cdag"],
            ["analyze", "--alg", "cg", "--machine"],
        ],
    )
    def test_exit_1_with_one_error_line(self, argv, bad_path):
        proc = subprocess.run(
            [sys.executable, "-m", "pebblebound.cli"] + argv + [bad_path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
        assert bad_path in proc.stderr
        assert proc.stdout == ""
