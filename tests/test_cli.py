"""Command-line interface: subcommands, output documents, exit statuses."""
import json
import os
import subprocess
import sys
import tomllib

import numpy as np
import pytest

from toeplitz_lab import cli
from toeplitz_lab.cli import main
from toeplitz_lab.families import su2_power, z_power
from toeplitz_lab.symbol_io import save_symbol
from toeplitz_lab.symbols import S1, S3, Symbol

SYMBOLS = os.path.join(os.path.dirname(__file__), "..", "symbols")


def sym(name):
    return os.path.join(SYMBOLS, name)


def src_env():
    """The environment with this checkout's src first on PYTHONPATH, for subprocesses."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestIndexCommand:
    def test_backward_shift_agreement(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        code = main(["index", sym("s1_z_-1.json"), "--trunc", "16",
                     "--grid", "64", "--out", out])
        assert code == 0
        summary = capsys.readouterr().out
        assert "analytic index      1" in summary
        assert "agreement           yes" in summary
        doc = json.loads(open(out).read())
        assert doc["analytic_index"] == 1
        assert doc["topological_index"] == 1
        assert doc["agreement"] is True
        assert doc["ker_dim"] == 1 and doc["coker_dim"] == 0

    def test_su2_file(self, capsys):
        code = main(["index", sym("s3_su2.json"), "--trunc", "8",
                     "--theta-nodes", "12", "--phi-nodes", "12"])
        assert code == 0
        assert "analytic index      -1" in capsys.readouterr().out

    def test_csv_document(self, tmp_path):
        out = str(tmp_path / "report.csv")
        code = main(["index", sym("s1_z_2.json"), "--trunc", "8",
                     "--grid", "32", "--out", out, "--format", "csv"])
        assert code == 0
        lines = open(out).read().strip().split("\n")
        assert lines[0] == "field,value"
        fields = dict(line.split(",", 1) for line in lines[1:])
        assert fields["analytic_index"] == "-2"
        assert fields["agreement"] == "true"

    def test_noninvertible_s3_symbol_exits_3(self, tmp_path, capsys):
        # z1 alone vanishes on the circle z1 = 0 of the sphere
        path = str(tmp_path / "z1.json")
        save_symbol(Symbol(S3, {(1, 0, 0, 0): [[1.0]]}, rank=1), path)
        assert main(["index", path]) == 3
        assert "invertib" in capsys.readouterr().err

    def test_near_singular_circle_symbol_exits_3(self, tmp_path, capsys):
        path = str(tmp_path / "near.json")
        save_symbol(Symbol(S1, {1: [[1.0]], 0: [[-(1 + 1e-9)]]}), path)
        assert main(["index", path]) == 3
        assert "margin" in capsys.readouterr().err

    def test_aliased_s3_chern_ladder_exits_4(self, tmp_path, capsys):
        # at 4 phi nodes su2^5's refined rung is the wrong integer -7, 2.67
        # away from the rung below it
        path = str(tmp_path / "su2_5.json")
        save_symbol(su2_power(5), path)
        assert main(["index", path, "--trunc", "4",
                     "--theta-nodes", "12", "--phi-nodes", "4"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and "doubling defect 2.667e+00" in err

    def test_aliased_s3_chern_value_exits_4(self, tmp_path, capsys):
        # chern certifies what it prints, as index does: the same aliased
        # ladder writes no summary and no document
        path = str(tmp_path / "su2_5.json")
        save_symbol(su2_power(5), path)
        out = str(tmp_path / "never.json")
        assert main(["chern", path, "--theta-nodes", "12", "--phi-nodes", "4",
                     "--out", out]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and not os.path.exists(out)
        assert captured.err.startswith("error:") and "doubling defect 2.667e+00" in captured.err

    @pytest.mark.parametrize("command", ["index", "chern"])
    def test_root_on_a_quadrature_node_exits_3(self, command, tmp_path, capsys):
        # the 16-point invertibility sample misses the root on the unit
        # circle; the refined 1024-point Chern grid lands on it
        path = str(tmp_path / "root_on_grid.json")
        root = complex(np.exp(2j * np.pi / 1024))
        save_symbol(Symbol(S1, {1: [[1.0]], 0: [[-root]]}), path)
        assert main([command, path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "quadrature node" in err
        assert "Traceback" not in err

    # z - (1 + eps) e^{i pi/16}: its root lies eps outside the circle, halfway
    # between two of the gate's 16 sample points.  Pinned until ROADMAP item 2
    # replaces the sampled gate with a certified bound and sizes the Chern
    # grid from it.
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the sampled gate passes a root "
                       "1e-7 off the circle; Chern gives refined value 9765.13, exit 4")
    def test_root_1e_7_off_the_circle_exits_3(self, tmp_path):
        path = str(tmp_path / "near_root.json")
        save_symbol(Symbol(S1, {1: [[1.0]], 0: [[-(1 + 1e-7) * np.exp(1j * np.pi / 16)]]}), path)
        assert main(["index", path]) == 3

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the 512-point Chern grid is not "
                       "sized from the margin; at eps = 1e-2 its doubling defect is 6.1e-3, exit 4")
    def test_root_1e_2_off_the_circle_has_index_0(self, tmp_path):
        path, out = str(tmp_path / "root.json"), str(tmp_path / "report.json")
        save_symbol(Symbol(S1, {1: [[1.0]], 0: [[-(1 + 1e-2) * np.exp(1j * np.pi / 16)]]}), path)
        assert main(["index", path, "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["analytic_index"] == doc["topological_index"] == 0

    def test_trunc_zero_is_used_not_defaulted(self, tmp_path):
        out = str(tmp_path / "report.json")
        assert main(["index", sym("s3_su2.json"), "--trunc", "0",
                     "--theta-nodes", "12", "--phi-nodes", "12", "--out", out]) == 0
        assert json.loads(open(out).read())["truncation_sizes"] == [0, 4]


class TestParseFailures:
    def test_invalid_json_exits_2_and_writes_nothing(self, tmp_path, capsys):
        bad = str(tmp_path / "bad.json")
        open(bad, "w").write("{broken")
        out = str(tmp_path / "never.json")
        assert main(["index", bad, "--out", out]) == 2
        assert not os.path.exists(out)
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["index", str(tmp_path / "absent.json")]) == 2

    def test_winding_rejects_sphere_symbols(self, capsys):
        assert main(["winding", sym("s3_su2.json")]) == 2
        assert "circle" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["chern", "s1_z_1.json", "--grid", "8"],
        ["winding", "s1_z_1.json", "--grid", "4"],
        ["index", "s3_su2.json", "--trunc", "4", "--theta-nodes", "2"],
        ["convergence", "s3_su2.json", "--theta-nodes", "0"],
        ["convergence", "s1_z_1.json", "--grid", "0"],
        ["convergence", "s1_z_1.json", "--grid", "2"],
        ["convergence", "s3_su2.json", "--theta-nodes", "1", "--phi-nodes", "1"],
        ["index", "s1_z_1.json", "--trunc", "0"],
    ], ids=lambda argv: " ".join(argv))
    def test_out_of_range_option_exits_2_and_writes_nothing(self, argv, tmp_path, capsys):
        command, name, *options = argv
        out = str(tmp_path / "never.json")
        assert main([command, sym(name), *options, "--out", out]) == 2
        assert "error:" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv", [
        ["index", sym("s1_z_3.json"), "--tol", "-1"],
        ["index", sym("s1_z_3.json"), "--tol", "nan"],
        ["index", sym("s1_z_3.json"), "--residual-tol", "nan"],
        ["index", sym("s1_z_3.json"), "--residual-tol", "inf"],
        ["verify", "--tol", "nan"],
        ["convergence", sym("s1_z_1.json"), "--tol", "inf"],
    ], ids=lambda argv: " ".join(a for a in argv if not a.endswith(".json")))
    def test_tolerance_that_switches_a_check_off_exits_2(self, argv, tmp_path, capsys):
        # a NaN residual bound accepts every kernel candidate, and a negative
        # or NaN kernel threshold finds no kernel at all
        out = str(tmp_path / "never.json")
        assert main([*argv, "--out", out]) == 2
        assert "not a finite non-negative tolerance" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv", [
        ["index", sym("s1_z_3.json"), "--format", "xml"],
        ["chern", sym("s1_z_3.json"), "--grid", "x"],
        ["nonsense"],
        [],
    ], ids=lambda argv: " ".join(a for a in argv if not a.endswith(".json")) or "no command")
    def test_argparse_rejection_is_returned_as_2(self, argv, tmp_path, capsys):
        out = str(tmp_path / "never.json")
        assert main([*argv, "--out", out]) == 2
        assert "error:" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["index", "chern"])
    @pytest.mark.parametrize("target", ["missing directory", "directory"])
    def test_unwritable_out_exits_2_and_leaves_nothing(self, command, target, tmp_path, capsys):
        # a path in a directory that does not exist, and a path that is a
        # directory: the document cannot be renamed into place
        if target == "directory":
            out = tmp_path / "taken"
            out.mkdir()
        else:
            out = tmp_path / "absent" / "doc.json"
        assert main([command, sym("s1_z_1.json"), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out  # the summary still comes first
        assert captured.err.startswith("error:") and str(out) in captured.err
        assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
        # no document and no .tmp-* file anywhere under tmp_path
        left = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
        assert left == (["taken"] if target == "directory" else [])

    @pytest.mark.parametrize("argv", [["--help"], ["index", "--help"]],
                             ids=lambda argv: " ".join(argv))
    def test_help_is_returned_as_0(self, argv, capsys):
        assert main(argv) == 0
        assert "usage:" in capsys.readouterr().out


class TestWindingCommand:
    def test_scalar_oracles_agree(self, capsys):
        assert main(["winding", sym("s1_z_-3.json")]) == 0
        out = capsys.readouterr().out
        assert "winding (argument)  -3" in out
        assert "winding (roots)     -3" in out

    def test_matrix_symbol_goes_through_determinant(self, tmp_path, capsys):
        out = str(tmp_path / "w.json")
        assert main(["winding", sym("s1_diag_z_zm2.json"), "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["via_determinant"] is True
        assert doc["argument"] == doc["roots"] == -1

    def test_identically_singular_matrix_symbol_exits_3(self, tmp_path, capsys):
        path = str(tmp_path / "singular.json")
        save_symbol(Symbol(S1, {0: [[1, 1], [1, 1]], 1: [[1, 1], [1, 1]]}), path)
        assert main(["winding", path]) == 3
        assert "invertib" in capsys.readouterr().err

    def test_undersampled_high_winding_exits_4(self, tmp_path, capsys):
        path = str(tmp_path / "z20.json")
        save_symbol(z_power(20), path)
        assert main(["winding", path, "--grid", "8"]) == 4
        assert "error:" in capsys.readouterr().err


class TestLapackFailure:
    @pytest.mark.parametrize("command, report, name", [
        ("index", "compute_index_report", "s1_z_1.json"),
        ("chern", "topological_index", "s3_su2.json"),
        ("convergence", "convergence_table", "s1_z_1.json"),
        ("verify", "run_verify", None),
    ])
    def test_lapack_failure_exits_4_and_writes_nothing(self, command, report, name,
                                                       monkeypatch, tmp_path, capsys):
        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli, report, fails)
        out = str(tmp_path / "never.json")
        argv = [command] + ([sym(name)] if name else []) + ["--out", out]
        assert main(argv) == 4
        assert "error: SVD did not converge" in capsys.readouterr().err
        assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["index", "winding", "chern", "convergence"])
def test_a_symbol_too_large_to_sample_exits_4_and_writes_nothing(command, tmp_path, capsys):
    # the margin sample of 1 + z^(10^17) asks for 4 (10^17 + 2) points, 2.78 EiB:
    # more than any address space, so the allocation fails and touches nothing
    path = str(tmp_path / "huge.json")
    save_symbol(Symbol(S1, {0: 1.0, 10 ** 17: 0.5}), path)
    out = str(tmp_path / "never.json")
    assert main([command, path, "--out", out]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
    assert not os.path.exists(out)


class TestChernCommand:
    def test_scalar_chern_fields(self, tmp_path, capsys):
        out = str(tmp_path / "chern.json")
        code = main(["chern", sym("s1_z_3.json"), "--grid", "64", "--out", out])
        assert code == 0
        doc = json.loads(open(out).read())
        assert doc["rounded"] == -3
        assert doc["integrality_defect"] < 1e-10
        assert doc["resolution"] == [64]
        assert "chern value" in capsys.readouterr().out

    def test_s3_chern(self, capsys):
        code = main(["chern", sym("s3_su2.json"),
                     "--theta-nodes", "12", "--phi-nodes", "12"])
        assert code == 0
        assert "rounded             -1" in capsys.readouterr().out

    def test_document_printed_to_stdout_without_out(self, capsys):
        code = main(["chern", sym("s1_z_1.json"), "--grid", "32"])
        assert code == 0
        out = capsys.readouterr().out
        # text summary first, then the default-format (json) document
        assert out.index("chern value") < out.index('"rounded"')


class TestVerifyCommand:
    def test_verify_passes_and_is_reproducible(self, tmp_path, capsys):
        out1, out2 = str(tmp_path / "v1.json"), str(tmp_path / "v2.json")
        assert main(["verify", "--seed", "0", "--out", out1]) == 0
        assert main(["verify", "--seed", "0", "--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()
        assert "all passed" in capsys.readouterr().out

    def test_broken_tolerance_exits_1(self, tmp_path, capsys):
        out = str(tmp_path / "fail.json")
        assert main(["verify", "--seed", "0", "--tol", "1.0",
                     "--out", out]) == 1
        doc = json.loads(open(out).read())
        assert doc["all_passed"] is False
        failing = [p["name"] for p in doc["properties"] if not p["passed"]]
        assert "oracle-agreement" in failing
        assert "FAIL" in capsys.readouterr().out

    def test_csv_format(self, tmp_path, capsys):
        out = str(tmp_path / "v.csv")
        assert main(["verify", "--seed", "0", "--format", "csv",
                     "--out", out]) == 0
        assert open(out).read().startswith("property,passed,cases,failures\n")


class TestConvergenceCommand:
    def test_csv_ladder(self, tmp_path, capsys):
        out = str(tmp_path / "conv.csv")
        code = main(["convergence", sym("s1_z_-2.json"), "--grid", "32",
                     "--format", "csv", "--out", out])
        assert code == 0
        lines = open(out).read().strip().split("\n")
        assert lines[0] == "size,value_re,value_im,delta"
        assert lines[1].split(",")[0] == "32"
        assert lines[1].split(",")[3] == ""
        assert len(lines) == 5  # header + four doubling steps
        assert "size" in capsys.readouterr().out

    def test_unreachable_tolerance_exits_1(self, tmp_path):
        code = main(["convergence", sym("s1_z_1.json"), "--grid", "16",
                     "--tol", "1e-30"])
        assert code == 1

    def test_tolerance_equal_to_the_final_delta_exits_0(self, tmp_path):
        out = str(tmp_path / "conv.json")
        assert main(["convergence", sym("s1_z_1.json"), "--out", out]) == 0
        delta = json.loads(open(out).read())["rows"][-1]["delta"]
        assert main(["convergence", sym("s1_z_1.json"), "--tol", repr(delta)]) == 0

    def test_s3_ladder(self, tmp_path):
        out = str(tmp_path / "conv.json")
        code = main(["convergence", sym("s3_su2.json"), "--theta-nodes", "6",
                     "--phi-nodes", "6", "--out", out])
        assert code == 0
        doc = json.loads(open(out).read())
        assert [r["size"] for r in doc["rows"]] == [6, 12, 24]

    @pytest.mark.parametrize("name", ["s3_su2.json", "s3_su2_pow_-2.json"])
    def test_s3_ladder_at_default_nodes_is_exact(self, tmp_path, name):
        # sized from the degree, every rung is exact and the deltas are rounding
        out = str(tmp_path / "conv.json")
        code = main(["convergence", sym(name), "--out", out])
        assert code == 0
        doc = json.loads(open(out).read())
        assert [r["size"] for r in doc["rows"]] == [4, 8, 16]
        assert max(r["delta"] for r in doc["rows"][1:]) <= 1e-12


class TestInstalledEntryPoint:
    def test_help_runs(self):
        proc = subprocess.run([sys.executable, "-m", "toeplitz_lab", "--help"], env=src_env(),
                              capture_output=True, text=True)
        assert proc.returncode == 0
        for name in ("index", "chern", "winding", "verify", "convergence"):
            assert name in proc.stdout

    def test_project_script_target_runs(self):
        # the [project.scripts] target, imported and called as an installer's
        # wrapper script would call it
        with open(os.path.join(os.path.dirname(__file__), "..", "pyproject.toml"), "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["toeplitz-lab"]
        assert target == "toeplitz_lab.cli:entry"
        module, function = target.split(":")
        call = f"from {module} import {function}; {function}()"
        proc = subprocess.run([sys.executable, "-c", call, "--help"], env=src_env(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        for name in ("index", "chern", "winding", "verify", "convergence"):
            assert name in proc.stdout

    def test_console_script_if_installed(self):
        from shutil import which
        exe = which("toeplitz-lab")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0


COLD_START_SCRIPT = """
import json, os, sys
from toeplitz_lab import cli
from toeplitz_lab.verify import run_verify
symbols = sys.argv[1]
codes = [cli.main([command, os.path.join(symbols, name)]) for command, name in (
    ("index", "s1_random_rank3.json"), ("index", "s3_su2.json"),
    ("chern", "s3_su2.json"), ("winding", "s1_random_rank3.json"),
    ("convergence", "s3_su2.json"))]
run_verify(0, 2, 1, 2)  # draws a homotopy path
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_no_program_path_imports_scipy():
    # the subcommands and the verify suite, homotopy paths included, run on
    # numpy alone in a fresh interpreter
    proc = subprocess.run([sys.executable, "-c", COLD_START_SCRIPT, SYMBOLS], env=src_env(),
                          capture_output=True, text=True, timeout=300, check=True)
    codes, scipy_modules = json.loads(proc.stdout.strip().splitlines()[-1])
    assert codes == [0, 0, 0, 0, 0]
    assert scipy_modules == []
