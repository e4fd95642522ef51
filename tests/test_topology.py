"""Winding oracles, Chern character quadratures, and the index-theorem gate."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toeplitz_lab.errors import (NonIntegralChernError, SymbolError,
                                 UndersampledError)
from toeplitz_lab.families import (constant_sandwich, diag_laurent, su2_power,
                                   su2_symbol, z_power)
from toeplitz_lab.symbols import (S1, HopfPoint, Symbol, adjoint,
                                  det_laurent, evaluate, hopf_partials,
                                  multiply, transpose)
from toeplitz_lab.topology import (S3_ORIENTATION_SIGN, ChernValue, chern_s1,
                                   chern_s3, six_term_trace, topological_index,
                                   winding_argument, winding_roots)


def root_product(shift, roots):
    f = Symbol(S1, {shift: [[1.0]]})
    for rho in roots:
        f = multiply(f, Symbol(S1, {1: [[1.0]], 0: [[-rho]]}))
    return f


class TestWindingOracles:
    def test_monomials(self):
        for m in range(-6, 7):
            assert winding_argument(z_power(m)) == m
            assert winding_roots(z_power(m)) == m

    def test_known_root_configurations(self):
        f = root_product(-2, [0.5, 0.3j, 2.0, -3.0])
        assert winding_argument(f) == 0
        assert winding_roots(f) == 0
        g = root_product(1, [0.5, -0.25])
        assert winding_argument(g) == 3
        assert winding_roots(g) == 3

    @settings(max_examples=25, deadline=None)
    @given(
        shift=st.integers(min_value=-4, max_value=4),
        inner=st.lists(st.tuples(st.floats(0.1, 0.6), st.floats(0, 6.28)), max_size=3),
        outer=st.lists(st.tuples(st.floats(1.5, 3.0), st.floats(0, 6.28)), max_size=3),
    )
    def test_oracles_agree_on_generated_products(self, shift, inner, outer):
        roots = [r * np.exp(1j * t) for r, t in inner] + \
                [r * np.exp(1j * t) for r, t in outer]
        f = root_product(shift, roots)
        expected = shift + len(inner)
        assert winding_roots(f) == expected
        assert winding_argument(f) == expected

    def test_zero_on_circle_rejected(self):
        f = Symbol(S1, {1: [[1.0]], 0: [[-1.0]]})  # z - 1
        with pytest.raises(SymbolError, match="vanishes"):
            winding_argument(f)

    def test_root_near_circle_rejected(self):
        f = Symbol(S1, {1: [[1.0]], 0: [[-(1 + 1e-9)]]})
        with pytest.raises(SymbolError, match="circle"):
            winding_roots(f)

    def test_undersampled_after_doublings(self):
        with pytest.raises(UndersampledError, match="doublings"):
            winding_argument(z_power(20), grid=8)

    def test_doubling_recovers_fast_phases(self):
        assert winding_argument(z_power(10), grid=8) == 10

    def test_matrix_symbols_refused(self):
        with pytest.raises(ValueError, match="scalar"):
            winding_argument(diag_laurent([z_power(1), z_power(0)]))
        with pytest.raises(ValueError, match="circle"):
            winding_roots(su2_symbol())


class TestChernS1:
    def test_monomials(self):
        for m in (-5, -1, 0, 2, 4):
            ch = chern_s1(z_power(m))
            assert isinstance(ch, ChernValue)
            assert ch.rounded == -m
            assert ch.integrality_defect < 1e-12
            assert ch.doubling_defect < 1e-12

    def test_matches_minus_winding_of_determinant(self):
        a = diag_laurent([z_power(1), root_product(0, [0.4, 2.2])])
        ch = chern_s1(a)
        assert ch.rounded == -winding_roots(det_laurent(a)) == -2

    def test_log_derivative_homomorphism(self):
        f = root_product(2, [0.3])
        g = root_product(-1, [2.5])
        both = chern_s1(multiply(f, g)).refined
        assert both == pytest.approx(chern_s1(f).refined + chern_s1(g).refined, abs=1e-10)

    def test_constant_symbol_is_zero(self):
        ch = chern_s1(Symbol(S1, {0: [[2.0, 1.0], [0.0, 3.0]]}))
        assert ch.refined == 0 and ch.rounded == 0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            chern_s1(z_power(1), grid=8)
        with pytest.raises(ValueError, match="circle"):
            chern_s1(su2_symbol())


class TestChernS3:
    def test_su2_calibration(self):
        assert S3_ORIENTATION_SIGN == -1
        ch = chern_s3(su2_symbol(), theta_nodes=16, phi_nodes=16)
        assert ch.rounded == -1
        assert ch.integrality_defect < 1e-10

    def test_transpose_flips_sign(self):
        ch = chern_s3(transpose(su2_symbol()), theta_nodes=16, phi_nodes=16)
        assert ch.rounded == 1

    def test_adjoint_flips_sign(self):
        ch = chern_s3(adjoint(su2_symbol()), theta_nodes=16, phi_nodes=16)
        assert ch.rounded == 1

    def test_powers_scale_linearly(self):
        for k in (-2, 2):
            ch = chern_s3(su2_power(k), theta_nodes=16, phi_nodes=16)
            assert ch.rounded == -k
            assert ch.integrality_defect < 1e-8

    def test_nonunitary_inverse_path(self):
        # sandwiching by constant invertible factors keeps the class but
        # forces the direct-inverse branch of the quadrature
        rng = np.random.default_rng(11)
        sym = constant_sandwich(su2_symbol(), rng)
        ch = chern_s3(sym, theta_nodes=16, phi_nodes=16)
        assert ch.rounded == -1
        assert ch.integrality_defect < 1e-8

    def test_six_term_expansion_matches_reduced_integrand(self):
        # cyclic reduction used by the quadrature: the full antisymmetrized
        # six-term sum equals 3 tr(A_theta [A_phi1, A_phi2]) at every point
        rng = np.random.default_rng(13)
        sym = constant_sandwich(su2_power(2), rng)
        for _ in range(10):
            point = HopfPoint(rng.uniform(0.05, 1.5), rng.uniform(0, 6.2),
                              rng.uniform(0, 6.2))
            val = evaluate(sym, point)
            inv = np.linalg.inv(val)
            a_th, a_p1, a_p2 = (inv @ d for d in hopf_partials(sym, point))
            reduced = 3.0 * np.trace(a_th @ (a_p1 @ a_p2 - a_p2 @ a_p1))
            full = six_term_trace(a_th, a_p1, a_p2)
            assert np.isclose(full, reduced, rtol=1e-12, atol=1e-12)

    def test_node_validation(self):
        with pytest.raises(ValueError):
            chern_s3(su2_symbol(), theta_nodes=2)
        with pytest.raises(ValueError, match="three-sphere"):
            chern_s3(z_power(1))


class TestTopologicalIndex:
    def test_dispatch(self):
        assert topological_index(z_power(3)).rounded == -3
        assert topological_index(su2_symbol(), theta_nodes=16, phi_nodes=16).rounded == -1

    def test_margin_gate(self):
        with pytest.raises(SymbolError):
            topological_index(Symbol(S1, {1: [[1.0]], 0: [[-1.0]]}))

    def test_integrality_gate(self):
        # a root close to the circle needs more than 16 grid points: the
        # quadrature converges too slowly to certify an integer there
        f = Symbol(S1, {1: [[1.0]], 0: [[-0.96]]})
        with pytest.raises(NonIntegralChernError, match="integer"):
            topological_index(f, grid=16)
        assert topological_index(f, grid=1024).rounded == -1
