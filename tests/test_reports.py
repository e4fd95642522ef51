"""Index reports and convergence tables: content, serialization, gates."""
import os

import numpy as np
import pytest

from toeplitz_lab import hardy_s1, hardy_s3, topology
from toeplitz_lab.families import su2_symbol, z_power
from toeplitz_lab.reports import (compute_index_report, convergence_table,
                                  convergence_text, convergence_to_csv,
                                  convergence_to_dict, index_report_text,
                                  index_report_to_dict)
from toeplitz_lab.symbol_io import load_symbol
from toeplitz_lab.symbols import S1, Symbol

from oracles import sample_calls

SYMBOLS = os.path.join(os.path.dirname(__file__), "..", "symbols")


class TestIndexReport:
    def test_backward_shift_report(self):
        report = compute_index_report(z_power(-1), trunc=16, grid=64)
        assert report.manifold == "S1"
        assert report.rank == 1
        assert (report.analytic_index, report.ker_dim, report.coker_dim) == (1, 1, 0)
        assert report.analytic_index == report.ker_dim - report.coker_dim
        assert report.topological_index == 1
        assert report.agreement is True
        assert report.truncation_sizes == (16, 32)
        assert set(report.spectral_gaps) == {"kernel", "cokernel"}
        assert set(report.timings_ms) == {"analytic", "topological"}
        assert all(v >= 0 for v in report.timings_ms.values())

    def test_s3_report(self):
        report = compute_index_report(su2_symbol(), trunc=8,
                                      theta_nodes=12, phi_nodes=12)
        assert report.manifold == "S3"
        assert (report.analytic_index, report.topological_index) == (-1, -1)
        assert report.agreement is True

    def test_dict_maps_infinite_gap_to_null(self):
        # the identity has no singular values near zero on either side,
        # so both spectral gaps are +inf and must serialize as None
        report = compute_index_report(z_power(0), trunc=8, grid=32)
        doc = index_report_to_dict(report)
        assert doc["spectral_gaps"]["kernel"] is None
        assert doc["spectral_gaps"]["cokernel"] is None
        assert doc["analytic_index"] == 0
        assert doc["topological_value"][0] == pytest.approx(0.0, abs=1e-12)
        assert isinstance(doc["agreement"], bool)

    # A known defect, pinned rather than fixed: at the default bands 12/16 the
    # analytic route sees index 0 for su2^2 and su2^-2, against -2 and 2 from
    # the Chern quadrature; --trunc 20 agrees.
    @pytest.mark.xfail(strict=True, reason="default S3 bands 12/16 are too small for su2^+-2")
    @pytest.mark.parametrize("name", ["s3_su2_pow_2.json", "s3_su2_pow_-2.json"])
    def test_shipped_su2_squares_agree_at_default_truncation(self, name):
        report = compute_index_report(load_symbol(os.path.join(SYMBOLS, name)))
        assert report.agreement

    @pytest.mark.parametrize("make, trunc, quadrature", [
        (lambda: z_power(-1), 16, dict(grid=64)),
        (su2_symbol, 8, dict(theta_nodes=12, phi_nodes=12)),
    ], ids=["s1", "s3"])
    def test_invertibility_gate_runs_once_per_report(self, monkeypatch, make, trunc,
                                                     quadrature):
        # both routes gate, on the margin the symbol sampled once and kept
        calls = sample_calls(monkeypatch)
        symbol = make()
        doc = index_report_to_dict(compute_index_report(symbol, trunc=trunc, **quadrature))
        assert calls == [symbol]

        # the same document as both routes run on their own, each gating
        analytic_index = hardy_s1.analytic_index_s1 if symbol.manifold is S1 \
            else hardy_s3.analytic_index_s3
        analytic = analytic_index(symbol, trunc=trunc)
        chern = topology.topological_index(symbol, **quadrature)
        assert calls == [symbol]
        assert (doc["analytic_index"], doc["ker_dim"], doc["coker_dim"]) == \
            (analytic.index, analytic.ker_dim, analytic.coker_dim)
        assert doc["truncation_sizes"] == list(analytic.sizes)
        assert doc["topological_value"] == [chern.refined.real, chern.refined.imag]
        assert doc["topological_index"] == chern.rounded
        assert doc["agreement"] == (analytic.index == chern.rounded)

    def test_text_rendering_has_verdict_line(self):
        report = compute_index_report(z_power(2), trunc=8, grid=32)
        text = index_report_text(report)
        assert "agreement           yes" in text
        assert "analytic index      -2" in text


class TestConvergence:
    def test_s1_table_shape_and_decay(self):
        rows = convergence_table(z_power(-1), grid=32)
        assert [r.size for r in rows] == [32, 64, 128, 256]
        assert rows[0].delta is None
        assert all(r.delta is not None for r in rows[1:])
        # the quadrature is exact for monomials, so deltas sit at roundoff
        assert rows[-1].delta < 1e-12
        assert rows[-1].value.real == pytest.approx(1.0, abs=1e-12)

    def test_s1_nontrivial_symbol_decays_monotonically(self):
        a = Symbol(S1, {1: [[1.0]], 0: [[-0.3]], -2: [[0.05]]})
        rows = convergence_table(a, grid=16)
        deltas = [r.delta for r in rows[1:]]
        assert all(d >= 0 for d in deltas)
        assert deltas[-1] <= deltas[0]

    def test_s3_table_doubles_both_node_counts(self):
        rows = convergence_table(su2_symbol(), theta_nodes=6, phi_nodes=6)
        assert [r.size for r in rows] == [6, 12, 24]
        assert rows[-1].delta < 1e-6
        assert rows[-1].value.real == pytest.approx(-1.0, abs=1e-8)

    def test_csv_format(self):
        rows = convergence_table(z_power(1), grid=16)
        csv = convergence_to_csv(rows)
        lines = csv.strip().split("\n")
        assert lines[0] == "size,value_re,value_im,delta"
        assert lines[1].startswith("16,") and lines[1].endswith(",")
        assert lines[2].startswith("32,") and not lines[2].endswith(",")
        # round trip: every numeric field reparses to the row value
        first = lines[1].split(",")
        assert float(first[1]) == rows[0].value.real

    def test_dict_and_text_renderings(self):
        rows = convergence_table(z_power(1), grid=16)
        doc = convergence_to_dict(rows)
        assert [r["size"] for r in doc["rows"]] == [16, 32, 64, 128]
        assert doc["rows"][0]["delta"] is None
        text = convergence_text(rows)
        assert text.splitlines()[0].split() == ["size", "value", "delta"]

    def test_shipped_symbol_files_converge(self):
        s1_path = os.path.join(SYMBOLS, "s1_diag_z_zm2.json")
        rows = convergence_table(load_symbol(s1_path), grid=32)
        deltas = [r.delta for r in rows[1:]]
        assert deltas == sorted(deltas, reverse=True) or rows[-1].delta < 1e-6
        assert rows[-1].delta < 1e-6
