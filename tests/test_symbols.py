"""Symbol algebra: construction, products, adjoints, determinants, evaluation."""
import numpy as np
import pytest

import toeplitz_lab
from toeplitz_lab.errors import SymbolError
from toeplitz_lab.symbols import (S1, S3, HopfPoint, Symbol, adjoint,
                                  constant, det_laurent, direct_sum,
                                  eval_circle, eval_hopf_grid, evaluate,
                                  hopf_partials, identity, invertibility_margin,
                                  margin_grid_size, multiply, power,
                                  require_invertible, transpose,
                                  unitarity_defect)
from toeplitz_lab.families import su2_symbol, z_power


class TestConstruction:
    def test_scalar_promotion_and_window(self):
        a = Symbol(S1, {-2: 3.0, 1: [[2j]]})
        assert a.rank == 1
        assert (a.k_min, a.k_max) == (-2, 1)
        assert a.bandwidth == 3

    def test_exact_zero_terms_pruned(self):
        a = Symbol(S1, {0: np.eye(2), 5: np.zeros((2, 2))})
        assert list(a.terms) == [0]

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            Symbol(S1, {0: np.zeros((2, 2))})

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            Symbol(S1, {0: np.eye(2), 1: np.eye(3)})

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Symbol(S1, {0: [[np.inf]]})

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError, match="square"):
            Symbol(S1, {0: np.ones((2, 3))})

    def test_s3_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Symbol(S3, {(1, 0, -1, 0): [[1.0]]})

    def test_coefficients_read_only(self):
        a = z_power(1)
        with pytest.raises(ValueError):
            a.terms[1][0, 0] = 5.0

    def test_s3_degree_and_shift(self):
        a = Symbol(S3, {(2, 0, 0, 1): np.eye(1), (0, 0, 1, 0): np.eye(1)})
        assert a.total_degree == 3
        assert a.max_shift == 1  # 2 - 0 + 0 - 1


class TestAlgebra:
    def test_scalar_product_coefficients(self):
        a = Symbol(S1, {0: 1.0, 1: 2.0})
        b = Symbol(S1, {-1: 4.0, 0: 3.0})
        ab = multiply(a, b)
        assert set(ab.terms) == {-1, 0, 1}
        assert ab.coeff(-1)[0, 0] == 4.0
        assert ab.coeff(0)[0, 0] == 11.0
        assert ab.coeff(1)[0, 0] == 6.0

    def test_product_evaluates_pointwise(self):
        rng = np.random.default_rng(1)
        a = Symbol(S1, {-1: rng.standard_normal((2, 2)), 2: rng.standard_normal((2, 2))})
        b = Symbol(S1, {0: rng.standard_normal((2, 2)), 1: rng.standard_normal((2, 2))})
        z = np.exp(0.731j)
        assert np.allclose(evaluate(multiply(a, b), z), evaluate(a, z) @ evaluate(b, z))

    def test_product_is_noncommutative(self):
        a = constant(S1, [[0, 1], [0, 0]])
        b = constant(S1, [[0, 0], [1, 0]])
        assert multiply(a, b) != multiply(b, a)

    def test_kind_and_rank_mismatches(self):
        with pytest.raises(ValueError, match="manifold"):
            multiply(z_power(1), identity(S3, 1))
        with pytest.raises(ValueError, match="rank"):
            multiply(z_power(1), identity(S1, 2))
        with pytest.raises(ValueError, match="manifold"):
            direct_sum(z_power(1), identity(S3, 1))

    def test_adjoint_is_pointwise_conjugate_transpose(self):
        a = Symbol(S1, {-2: [[1j, 2], [0, 1]], 1: [[0, 0], [3, 1j]]})
        z = np.exp(1.234j)
        assert np.allclose(evaluate(adjoint(a), z), evaluate(a, z).conj().T)
        s = su2_symbol()
        x = HopfPoint(0.7, 1.1, 5.0)
        assert np.allclose(evaluate(adjoint(s), x), evaluate(s, x).conj().T)

    def test_adjoint_involution_exact(self):
        a = Symbol(S1, {-2: [[1j, 2], [0, 1]], 1: [[0, 0], [3, 1j]]})
        assert adjoint(adjoint(a)) == a
        s = su2_symbol()
        assert adjoint(adjoint(s)) == s

    def test_transpose_is_pointwise_transpose(self):
        s = su2_symbol()
        x = HopfPoint(0.4, 2.0, 0.3)
        assert np.allclose(evaluate(transpose(s), x), evaluate(s, x).T)

    def test_direct_sum_blocks(self):
        a = z_power(2)
        b = z_power(-1, rank=2)
        c = direct_sum(a, b)
        assert c.rank == 3
        z = np.exp(0.5j)
        val = evaluate(c, z)
        assert np.allclose(val[:1, :1], evaluate(a, z))
        assert np.allclose(val[1:, 1:], evaluate(b, z))
        assert np.allclose(val[:1, 1:], 0)

    def test_positive_power(self):
        assert power(z_power(1), 3) == z_power(3)

    def test_negative_power_of_unitary(self):
        assert power(z_power(1), -2) == z_power(-2)
        g2 = power(su2_symbol(), -1)
        assert g2 == adjoint(su2_symbol())

    def test_negative_power_rejects_nonunitary(self):
        with pytest.raises(ValueError, match="unitary"):
            power(Symbol(S1, {1: [[2.0]]}), -1)


class TestDeterminant:
    def test_triangular(self):
        a = Symbol(S1, {1: [[1, 0], [0, 0]], -1: [[0, 0], [0, 1]], 0: [[0, 1], [0, 0]]})
        # [[z, 1], [0, z^-1]] -> det = 1
        d = det_laurent(a)
        assert d.rank == 1 and set(d.terms) == {0}
        assert d.coeff(0)[0, 0] == 1.0

    def test_diag(self):
        a = Symbol(S1, {1: [[1, 0], [0, 0]], -2: [[0, 0], [0, 1]]})
        d = det_laurent(a)
        assert set(d.terms) == {-1}

    def test_matches_pointwise_determinant(self):
        rng = np.random.default_rng(3)
        a = Symbol(S1, {k: rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                         for k in (-1, 0, 2)})
        d = det_laurent(a)
        for z in np.exp(2j * np.pi * np.array([0.13, 0.47, 0.81])):
            assert np.isclose(evaluate(d, z)[0, 0], np.linalg.det(evaluate(a, z)))

    def test_identically_singular_rejected(self):
        a = Symbol(S1, {1: [[1, 1], [1, 1]]})
        with pytest.raises(ValueError, match="zero"):
            det_laurent(a)


class TestEvaluation:
    def test_eval_circle_matches_pointwise(self):
        a = Symbol(S1, {-1: [[1j, 0], [2, 1]], 3: [[0, 1], [0, 0]]})
        z = np.exp(2j * np.pi * np.linspace(0, 1, 7, endpoint=False))
        batch = eval_circle(a, z)
        for i, zi in enumerate(z):
            assert np.allclose(batch[i], evaluate(a, zi))

    def test_hopf_evaluation(self):
        s = su2_symbol()
        x = HopfPoint(0.6, 1.0, 2.5)
        z1 = np.cos(0.6) * np.exp(1.0j)
        z2 = np.sin(0.6) * np.exp(2.5j)
        expect = np.array([[z1, z2], [-np.conj(z2), np.conj(z1)]])
        assert np.allclose(evaluate(s, x), expect)

    def test_hopf_grid_matches_pointwise(self):
        s = su2_symbol()
        theta = np.array([0.2, 1.3])
        phi1 = np.array([0.0, 2.0, 4.0])
        phi2 = np.array([1.0, 3.0])
        grid = eval_hopf_grid(s, theta, phi1, phi2)
        assert grid.shape == (2, 3, 2, 2, 2)
        assert np.allclose(grid[1, 2, 0], evaluate(s, HopfPoint(1.3, 4.0, 1.0)))

    def test_hopf_partials_match_finite_differences(self):
        s = su2_symbol()
        x = HopfPoint(0.8, 1.2, 4.4)
        dth, dp1, dp2 = hopf_partials(s, x)
        h = 1e-6
        for exact, axis in ((dth, 0), (dp1, 1), (dp2, 2)):
            hi = [x.theta, x.phi1, x.phi2]
            lo = list(hi)
            hi[axis] += h
            lo[axis] -= h
            fd = (evaluate(s, HopfPoint(*hi)) - evaluate(s, HopfPoint(*lo))) / (2 * h)
            assert np.allclose(exact, fd, atol=1e-8)

    def test_hopf_point_validation(self):
        with pytest.raises(ValueError):
            HopfPoint(-0.1, 0, 0)
        with pytest.raises(ValueError):
            HopfPoint(0.3, 7.0, 0)


class TestInvertibility:
    def test_margin_of_monomial_is_one(self):
        assert np.isclose(invertibility_margin(z_power(3), 64), 1.0)

    def test_margin_detects_near_singularity(self):
        f = Symbol(S1, {1: [[1.0]], 0: [[-(1 + 1e-9)]]})
        margin = invertibility_margin(f, 64)
        assert margin == pytest.approx(1e-9, rel=0.5)

    def test_require_invertible_gates(self):
        f = Symbol(S1, {1: [[1.0]], 0: [[-(1 + 1e-9)]]})
        with pytest.raises(SymbolError, match="margin"):
            require_invertible(f)
        assert require_invertible(z_power(2)) == pytest.approx(1.0)

    def test_s3_vanishing_symbol_rejected(self):
        z1 = Symbol(S3, {(1, 0, 0, 0): [[1.0]]})
        with pytest.raises(SymbolError):
            require_invertible(z1)

    def test_default_grid_oversamples_window(self):
        assert margin_grid_size(z_power(0)) == 16
        assert margin_grid_size(Symbol(S1, {-6: 1.0, 6: 1.0})) == 4 * 14

    def test_unitarity_defect(self):
        assert unitarity_defect(su2_symbol()) < 1e-12
        assert unitarity_defect(z_power(-4)) < 1e-12
        assert unitarity_defect(Symbol(S1, {1: [[2.0]]})) > 1.0


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from toeplitz_lab import *", namespace)
    assert set(toeplitz_lab.__all__) <= set(namespace)
    assert namespace["identity"] is identity and namespace["constant"] is constant
