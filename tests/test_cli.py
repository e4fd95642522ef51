"""Command-line interface: subcommands, output documents, exit statuses."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from toeplitz_lab.cli import main
from toeplitz_lab.families import z_power
from toeplitz_lab.symbol_io import save_symbol
from toeplitz_lab.symbols import S1, S3, Symbol

SYMBOLS = os.path.join(os.path.dirname(__file__), "..", "symbols")


def sym(name):
    return os.path.join(SYMBOLS, name)


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
        ["index", "s1_z_1.json", "--trunc", "0"],
    ], ids=lambda argv: " ".join(argv))
    def test_out_of_range_option_exits_2_and_writes_nothing(self, argv, tmp_path, capsys):
        command, name, *options = argv
        out = str(tmp_path / "never.json")
        assert main([command, sym(name), *options, "--out", out]) == 2
        assert "error:" in capsys.readouterr().err
        assert not os.path.exists(out)


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

    def test_s3_ladder(self, tmp_path):
        out = str(tmp_path / "conv.json")
        code = main(["convergence", sym("s3_su2.json"), "--theta-nodes", "6",
                     "--phi-nodes", "6", "--out", out])
        assert code == 0
        doc = json.loads(open(out).read())
        assert [r["size"] for r in doc["rows"]] == [6, 12, 24]


class TestInstalledEntryPoint:
    def test_help_runs(self):
        proc = subprocess.run([sys.executable, "-m", "toeplitz_lab", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        for name in ("index", "chern", "winding", "verify", "convergence"):
            assert name in proc.stdout

    def test_console_script_if_installed(self):
        from shutil import which
        exe = which("toeplitz-lab")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
