"""Symbol families: SU(2) generator, random suites, constructed ground truth."""
import numpy as np
import pytest
import scipy.linalg

from toeplitz_lab import symbols
from toeplitz_lab.families import (_expm, constant_sandwich, diag_laurent,
                                   haar_unitary, homotopy_path,
                                   random_matrix_symbol, random_scalar_symbol,
                                   s3_representative, su2_power, su2_symbol,
                                   well_conditioned_matrix, z_power)
from toeplitz_lab.symbols import (adjoint, det_laurent, invertibility_margin,
                                  multiply, power)
from toeplitz_lab.topology import winding_roots

from oracles import HopfPoint, evaluate


class TestSU2Family:
    def test_generator_is_pointwise_special_unitary(self):
        g = su2_symbol()
        assert g.unitary and g._defect < 1e-12
        for point in (HopfPoint(0.3, 1.0, 2.0), HopfPoint(1.2, 4.0, 0.5)):
            val = evaluate(g, point)
            assert np.isclose(np.linalg.det(val), 1.0)

    def test_power_matches_repeated_product(self):
        g = su2_symbol()
        assert su2_power(2) == multiply(g, g)
        assert su2_power(0).terms.keys() == {(0, 0, 0, 0)}
        assert su2_power(-1) == adjoint(g)

    def test_negative_powers_are_built_without_a_sample(self, monkeypatch):
        # a negative power is a power of the adjoint, equal to the sampled
        # power's; building it evaluates no symbol, so it makes no S3 plan
        want = {k: power(su2_symbol(), k) for k in (-2, -1)}
        plans, plan = [], symbols._hopf_plan
        monkeypatch.setattr(symbols, "_hopf_plan", lambda a: plans.append(a) or plan(a))
        assert all(su2_power(k) == power_k for k, power_k in want.items())
        for m in (-3, 3):
            s3_representative(m)
        assert plans == []

    def test_negative_powers_evaluate_to_matrix_inverses(self):
        point = HopfPoint(0.9, 2.2, 5.1)
        val = evaluate(su2_power(-2), point)
        direct = np.linalg.matrix_power(evaluate(su2_symbol(), point), -2)
        assert np.allclose(val, direct)

    def test_representatives_cover_the_window(self):
        for m in range(-3, 4):
            sym, sizes = s3_representative(m)
            assert len(sizes) == 2 and sizes[0] < sizes[1]
            assert sym.rank == (4 if abs(m) == 3 else 2)
        with pytest.raises(ValueError):
            s3_representative(4)


class TestRandomMatrices:
    def test_haar_unitary_is_unitary(self):
        rng = np.random.default_rng(0)
        u = haar_unitary(rng, 4)
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)

    def test_well_conditioned_singular_values(self):
        rng = np.random.default_rng(0)
        m = well_conditioned_matrix(rng, 5)
        s = np.linalg.svd(m, compute_uv=False)
        assert s.min() >= 0.7 - 1e-12 and s.max() <= 1.4 + 1e-12


class TestRandomSuites:
    def test_scalar_generator_margins_and_winding(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            f, w = random_scalar_symbol(rng)
            assert f.k_min >= -6 and f.k_max <= 6
            assert invertibility_margin(f, 256) > 0.1
            assert winding_roots(f) == w

    def test_matrix_generator_margins_and_det_winding(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            a, index = random_matrix_symbol(rng)
            assert 1 <= a.rank <= 3
            assert invertibility_margin(a, 64) > 0.1
            assert winding_roots(det_laurent(a)) == -index

    def test_rank_pinning(self):
        rng = np.random.default_rng(5)
        a, _ = random_matrix_symbol(rng, rank=3)
        assert a.rank == 3

    def test_generators_are_deterministic_per_seed(self):
        a1, w1 = random_scalar_symbol(np.random.default_rng(99))
        a2, w2 = random_scalar_symbol(np.random.default_rng(99))
        assert a1 == a2 and w1 == w2

    def test_constant_sandwich_preserves_margin_scale(self):
        rng = np.random.default_rng(3)
        sym = constant_sandwich(su2_symbol(), rng)
        assert sym.rank == 2
        # both factors have |det| in [0.49, 1.96]; the sandwich cannot sink
        assert invertibility_margin(sym, 32) > 0.2

    def test_homotopy_path_stays_invertible(self):
        rng = np.random.default_rng(8)
        a, _ = random_matrix_symbol(rng, rank=2)
        path = homotopy_path(a, rng)
        # the t = 0 factor is exp(0) = I, so the path starts at the symbol
        assert np.allclose(evaluate(path(0.0), 1.0 + 0j), evaluate(a, 1.0 + 0j))
        for t in (0.25, 0.5, 1.0):
            assert invertibility_margin(path(t), 64) > 1e-3


def random_generator(seed):
    """Seeded complex matrix of size 1..3 and 2-norm uniform in (0, 10]."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return x * (10.0 * (1.0 - rng.uniform()) / np.linalg.norm(x, 2))


class TestMatrixExponential:
    def test_matches_scipy_to_1e_14_of_its_norm(self):
        for seed in range(300):
            x = random_generator(seed)
            want = scipy.linalg.expm(x)
            assert np.max(np.abs(_expm(x) - want)) <= 1e-14 * np.linalg.norm(want, 2), seed

    def test_zero_gives_exactly_the_identity(self):
        for seed in range(5):
            x = random_generator(seed)
            assert np.array_equal(_expm(0.0 * x), np.eye(len(x)))


class TestSmallConstructors:
    def test_z_power_terms(self):
        a = z_power(-3, rank=2)
        assert list(a.terms) == [-3]
        assert np.array_equal(a.terms[-3], np.eye(2))

    def test_diag_laurent(self):
        d = diag_laurent([z_power(1), z_power(-2), z_power(0)])
        assert d.rank == 3
        val = evaluate(d, np.exp(0.4j))
        assert np.allclose(np.diag(np.diag(val)), val)
