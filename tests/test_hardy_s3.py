"""Three-sphere Hardy space: monomial grading, shift weights, analytic index."""
import tracemalloc
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from scipy.special import gammaln

from toeplitz_lab import kernel
from toeplitz_lab.errors import SymbolError
from toeplitz_lab.families import (constant_sandwich, s3_representative,
                                   su2_power, su2_symbol)
from toeplitz_lab.hardy_s3 import (analytic_index_s3, band_dim, log_monomial_norm_sq,
                                   monomial_position, monomials_up_to, toeplitz_rect_s3)
from toeplitz_lab.symbols import S3, Symbol, adjoint, identity, transpose

from oracles import monomial_norm_sq


class TestMonomialBasis:
    def test_norms_are_the_exact_rationals(self):
        assert monomial_norm_sq(0, 0) == pytest.approx(1.0, abs=1e-15)
        assert monomial_norm_sq(1, 0) == pytest.approx(1 / 2, abs=1e-15)
        assert monomial_norm_sq(1, 1) == pytest.approx(1 / 6, abs=1e-15)
        assert monomial_norm_sq(2, 0) == pytest.approx(1 / 3, abs=1e-15)
        assert monomial_norm_sq(2, 1) == pytest.approx(1 / 12, abs=1e-15)
        assert monomial_norm_sq(3, 3) == pytest.approx(1 / 140, abs=1e-16)

    def test_log_norm_matches_the_exact_rationals_to_2e_13(self):
        a, b = np.divmod(np.arange(81 * 81), 81)
        a, b = a[a + b <= 80], b[a + b <= 80]
        got = np.exp(log_monomial_norm_sq(a, b))
        for ai, bi, h in zip(a.tolist(), b.tolist(), got.tolist()):
            exact = Fraction(factorial(ai) * factorial(bi), factorial(ai + bi + 1))
            assert abs(Fraction(h) / exact - 1) <= 2e-13

    def test_norm_vectorizes(self):
        a = np.array([0, 1, 2])
        b = np.array([0, 0, 1])
        assert np.allclose(monomial_norm_sq(a, b), [1.0, 0.5, 1 / 12])

    def test_band_dim(self):
        assert [band_dim(n) for n in range(4)] == [1, 3, 6, 10]

    def test_ordering_is_degree_major_lex_minor(self):
        a, b = monomials_up_to(2)
        got = list(zip(a.tolist(), b.tolist()))
        assert got == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]

    def test_position_inverts_enumeration(self):
        a, b = monomials_up_to(7)
        assert np.array_equal(monomial_position(a, b), np.arange(a.size))


class TestTruncationStructure:
    def test_holomorphic_shift_weights(self):
        # T_{z1} u_{a,b} = sqrt((a+1)/(a+b+2)) u_{a+1,b}
        z1 = Symbol(S3, {(1, 0, 0, 0): [[1.0]]})
        t = toeplitz_rect_s3(z1, 2)
        a, b = monomials_up_to(2)
        for col in range(a.size):
            row = monomial_position(a[col] + 1, b[col])
            expected = np.sqrt((a[col] + 1) / (a[col] + b[col] + 2))
            assert t.matrix[row, col] == pytest.approx(expected, abs=1e-15)
            column = t.matrix[:, col].copy()
            column[row] = 0.0
            assert np.all(column == 0)

    def test_antiholomorphic_shift_weights(self):
        # T_{z2bar} u_{a,b} = sqrt(b/(a+b+1)) u_{a,b-1}, killing b = 0
        z2bar = Symbol(S3, {(0, 0, 0, 1): [[1.0]]})
        t = toeplitz_rect_s3(z2bar, 2)
        a, b = monomials_up_to(2)
        assert t.shape[0] == band_dim(2)  # no upward shift
        for col in range(a.size):
            if b[col] == 0:
                assert np.all(t.matrix[:, col] == 0)
            else:
                row = monomial_position(a[col], b[col] - 1)
                expected = np.sqrt(b[col] / (a[col] + b[col] + 1))
                assert t.matrix[row, col] == pytest.approx(expected, abs=1e-15)

    def test_codomain_band_tracks_max_shift(self):
        t = toeplitz_rect_s3(su2_power(2), 3)
        assert t.shape[0] == band_dim(5) * 2
        assert t.matrix.shape == (band_dim(5) * 2, band_dim(3) * 2)

    def test_sphere_relation_respected(self):
        # |z1|^2 + |z2|^2 = 1 on the sphere, and the quantization knows it:
        # the truncation of that symbol is exactly the identity block
        rel = Symbol(S3, {(1, 0, 1, 0): [[1.0]], (0, 1, 0, 1): [[1.0]]})
        t = toeplitz_rect_s3(rel, 8)
        assert t.matrix.shape == (45, 45)
        assert np.allclose(t.matrix, np.eye(45), atol=1e-12)

    def test_prefix_property(self):
        sym = su2_symbol()
        small = toeplitz_rect_s3(sym, 3)
        large = toeplitz_rect_s3(sym, 6)
        rows, cols = small.matrix.shape
        assert np.array_equal(large.matrix[:rows, :cols], small.matrix)

    def test_adjoint_consistency(self):
        # trunc(a*, N + shift) contains trunc(a, N)^dagger as its leading
        # block, bit for bit: both sides run the identical weight arithmetic
        sym = su2_power(2)
        n = 5
        t = toeplitz_rect_s3(sym, n)
        t_star = toeplitz_rect_s3(adjoint(sym), n + sym.max_shift)
        lead = band_dim(n) * sym.rank
        assert np.array_equal(t_star.matrix[:lead, :], t.matrix.conj().T)

    def test_returns_dataclass(self):
        t = toeplitz_rect_s3(identity(S3, 1), 4)
        assert isinstance(t, kernel.Entries)
        assert np.allclose(t.matrix, np.eye(band_dim(4)))


def gammaln_log_norm_sq(a, b):
    """log h(a, b) from scipy's log-gamma, as the truncation was once weighted."""
    return gammaln(a + 1) + gammaln(b + 1) - gammaln(a + b + 2)


def loop_rect_s3(a, n_band, log_norm_sq=log_monomial_norm_sq):
    """Reference truncation: the per-entry loop that toeplitz_rect_s3 vectorizes."""
    r = a.rank
    dom_a, dom_b = monomials_up_to(n_band)
    n_dom = dom_a.size
    n_cod = band_dim(n_band + a.max_shift)
    mat = np.zeros((n_cod * r, n_dom * r), dtype=complex)
    log_h_dom = log_norm_sq(dom_a, dom_b)
    for (p, q, s, t), coeff in a.terms.items():
        tgt_a = dom_a + (p - s)
        tgt_b = dom_b + (q - t)
        valid = (tgt_a >= 0) & (tgt_b >= 0)
        if not np.any(valid):
            continue
        src = np.nonzero(valid)[0]
        ta, tb = tgt_a[src], tgt_b[src]
        log_pair = log_norm_sq(dom_a[src] + p, dom_b[src] + q)
        log_h_tgt = log_norm_sq(ta, tb)
        weights = np.exp(log_pair - 0.5 * (log_h_dom[src] + log_h_tgt))
        rows = monomial_position(ta, tb)
        for col, row, w in zip(src, rows, weights):
            mat[row * r:(row + 1) * r, col * r:(col + 1) * r] += w * coeff
    return mat


REFERENCE_SYMBOLS = {
    **{f"representative_{m}": s3_representative(m)[0] for m in (-3, -2, -1, 1, 2, 3)},
    "sandwich_su2_pow_2": constant_sandwich(su2_power(2), np.random.default_rng(7)),
}


@pytest.mark.parametrize("band", [8, 20, 24])
@pytest.mark.parametrize("name", sorted(REFERENCE_SYMBOLS))
def test_truncation_equals_the_per_entry_loop(name, band):
    a = REFERENCE_SYMBOLS[name]
    t, want = toeplitz_rect_s3(a, band), loop_rect_s3(a, band)
    assert np.array_equal(t.matrix, want)
    # the entries hold each coordinate once and no exact zero, and are the
    # loop's nonzero entries bit for bit: terms that meet at one coordinate
    # are summed in term order, as the loop's += does
    keys = t.rows * t.shape[1] + t.cols
    assert np.unique(keys).size == keys.size
    assert np.all(t.values != 0)
    rows, cols = want.nonzero()
    order = np.argsort(keys)
    assert np.array_equal(keys[order], rows * t.shape[1] + cols)
    assert np.array_equal(t.values[order], want[rows, cols])


def test_a_truncation_that_no_term_reaches_has_no_entries():
    # z1bar^2 sends every monomial of band 0 below degree 0
    t = toeplitz_rect_s3(Symbol(S3, {(0, 0, 2, 0): [[1.0]]}), 0)
    assert (t.shape, t.rows.size, t.cols.size, t.values.size) == ((1, 1), 0, 0, 0)
    assert np.array_equal(t.matrix, np.zeros((1, 1)))


@pytest.mark.parametrize("band", [8, 24])
@pytest.mark.parametrize("name", sorted(REFERENCE_SYMBOLS))
def test_truncation_matches_the_gammaln_weights_to_1e_12(name, band):
    a = REFERENCE_SYMBOLS[name]
    want = loop_rect_s3(a, band, gammaln_log_norm_sq)
    got = toeplitz_rect_s3(a, band).matrix
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


class TestAnalyticIndex:
    def test_su2_generator(self):
        res = analytic_index_s3(su2_symbol(), sizes=(8, 12))
        assert (res.index, res.ker_dim, res.coker_dim) == (-1, 0, 1)
        assert res.coker.residual <= 1e-12

    def test_su2_transpose_has_opposite_dims(self):
        res = analytic_index_s3(transpose(su2_symbol()), sizes=(8, 12))
        assert (res.index, res.ker_dim, res.coker_dim) == (1, 1, 0)

    def test_transpose_kernel_vector_is_exact(self):
        # the transpose representative annihilates (0, u_{0,0}) identically,
        # so that column of its truncation is exactly zero
        t = toeplitz_rect_s3(transpose(su2_symbol()), 4)
        assert np.all(t.matrix[:, 1] == 0)

    def test_identity_index_zero(self):
        res = analytic_index_s3(identity(S3, 2), sizes=(4, 6))
        assert (res.index, res.ker_dim, res.coker_dim) == (0, 0, 0)

    def test_vanishing_symbol_rejected(self):
        z1 = Symbol(S3, {(1, 0, 0, 0): [[1.0]]})
        with pytest.raises(SymbolError, match="margin"):
            analytic_index_s3(z1, trunc=4)

    @pytest.mark.parametrize("m", range(-3, 4))
    def test_the_route_never_forms_a_dense_truncation(self, m, monkeypatch):
        def dense(self):
            raise AssertionError("the analytic route read a dense truncation")

        sym, sizes = s3_representative(m)
        monkeypatch.setattr(kernel.Entries, "matrix", property(dense))
        assert analytic_index_s3(sym, sizes=sizes).index == m

    def test_peak_memory_stays_far_below_the_dense_truncation(self):
        # the dense top and residual truncations alone took 30.0 and 34.8 MiB,
        # and the traced peak was 35.5 MiB
        sym, sizes = s3_representative(3)
        analytic_index_s3(sym, sizes=sizes)  # first-call allocations outside the measurement
        tracemalloc.start()
        try:
            analytic_index_s3(sym, sizes=sizes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20, peak / 2 ** 20

    def test_default_size_schedule(self):
        assert analytic_index_s3(identity(S3, 1)).sizes == (12, 16)
        res = analytic_index_s3(identity(S3, 1), trunc=4)
        assert res.sizes == (4, 8)
