"""Verification suite: determinism, property coverage, fault behavior."""
import os
import time

import pytest

from toeplitz_lab import verify
from toeplitz_lab.errors import NumericsError
from toeplitz_lab.symbol_io import symbol_from_dict
from toeplitz_lab.verify import (run_verify, verify_report_csv,
                                 verify_report_json, verify_report_text,
                                 verify_report_to_dict)

EXPECTED_PROPERTIES = [
    "noether-scalar-law",
    "oracle-agreement",
    "index-additivity",
    "adjoint-antisymmetry",
    "direct-sum-stability",
    "homotopy-invariance",
    "noether-matrix-determinant",
    "s3-calibration",
]


class TestCleanRun:
    def test_default_seed_passes_every_property(self):
        report = run_verify(seed=0)
        assert report.all_passed
        assert [p.name for p in report.properties] == EXPECTED_PROPERTIES
        for p in report.properties:
            assert p.passed, f"{p.name}: {p.failures}"
            assert p.cases > 0
            assert p.failures == []
            assert p.failing_symbol is None

    def test_reruns_are_byte_identical(self):
        first = verify_report_json(run_verify(seed=0))
        second = verify_report_json(run_verify(seed=0))
        assert first == second

    def test_different_seeds_still_pass(self):
        report = run_verify(seed=5, scalar_cases=4, matrix_cases=2)
        assert report.all_passed
        assert report.seed == 5
        assert report.counts == {"scalar_cases": 4, "matrix_cases": 2,
                                 "homotopy_samples": 5}

    def test_dict_shape(self):
        doc = verify_report_to_dict(run_verify(seed=0, scalar_cases=2,
                                               matrix_cases=2))
        assert set(doc) == {"seed", "counts", "tolerances", "all_passed",
                            "properties"}
        assert doc["tolerances"] == {"kernel_tol": 1e-8, "residual_tol": 1e-6}
        for prop in doc["properties"]:
            assert set(prop) == {"name", "passed", "cases", "failures",
                                 "failing_symbol"}


class TestFaultInjection:
    def test_broken_tolerance_fails_rank_properties(self):
        # tol = 1 treats every singular value as zero, so every kernel
        # dimension collapses to the full column count and all properties
        # that consult the truncation SVD must fail loudly
        report = run_verify(seed=0, scalar_cases=2, matrix_cases=2, tol=1.0)
        assert not report.all_passed
        by_name = {p.name: p for p in report.properties}
        for name in EXPECTED_PROPERTIES:
            if name == "noether-matrix-determinant":
                # the determinant winding route never touches the SVD
                assert by_name[name].passed
            else:
                assert not by_name[name].passed, name
                assert by_name[name].failures

    def test_failing_symbol_is_replayable(self):
        report = run_verify(seed=0, scalar_cases=2, matrix_cases=2, tol=1.0)
        failing = [p for p in report.properties if not p.passed]
        assert failing
        for p in failing:
            sym = symbol_from_dict(p.failing_symbol)
            assert sym.rank >= 1


class TestRenderings:
    def test_text_has_status_per_property(self):
        report = run_verify(seed=0, scalar_cases=2, matrix_cases=2)
        text = verify_report_text(report)
        for name in EXPECTED_PROPERTIES:
            assert f"PASS  {name}" in text
        assert text.rstrip().endswith("all passed")

    def test_text_marks_failures(self):
        report = run_verify(seed=0, scalar_cases=2, matrix_cases=2, tol=1.0)
        text = verify_report_text(report)
        assert "FAIL" in text
        assert "FAILURES PRESENT" in text

    def test_csv_rendering(self):
        report = run_verify(seed=0, scalar_cases=2, matrix_cases=2)
        csv = verify_report_csv(report)
        lines = csv.strip().split("\n")
        assert lines[0] == "property,passed,cases,failures"
        assert len(lines) == 1 + len(EXPECTED_PROPERTIES)
        assert all(line.split(",")[1] == "true" for line in lines[1:])

    def test_json_ends_with_newline_and_sorts_keys(self):
        text = verify_report_json(run_verify(seed=0, scalar_cases=2,
                                             matrix_cases=2))
        assert text.endswith("\n")
        first_keys = [line.strip().split(":")[0].strip('"')
                      for line in text.splitlines()
                      if line.startswith('  "')]
        assert first_keys == sorted(first_keys)


class TestWorkerPool:
    @pytest.mark.parametrize("kwargs", [{}, {"tol": 1.0}], ids=["passing", "failing"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_report_does_not_depend_on_the_worker_count(self, kwargs, workers,
                                                        monkeypatch):
        # tol = 1.0 fails cases in every property but one, so the merged
        # failures order and each first failing symbol are pinned too
        default = verify_report_json(run_verify(0, **kwargs))
        monkeypatch.setattr(verify, "_cpu_count", lambda: workers)
        assert verify_report_json(run_verify(0, **kwargs)) == default

    def test_a_dead_worker_is_a_numerics_error(self, monkeypatch):
        parent = os.getpid()
        index_s1 = verify.analytic_index_s1

        def dies_in_a_worker(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return index_s1(*args, **kwargs)

        monkeypatch.setattr(verify, "analytic_index_s1", dies_in_a_worker)
        t0 = time.perf_counter()
        with pytest.raises(NumericsError, match=r"\d+ of \d+ cases went unevaluated"):
            run_verify(seed=0, scalar_cases=2, matrix_cases=2)
        assert time.perf_counter() - t0 < 10.0
