import numpy as np
import pytest
from conftest import eig_stable, poly_from_eigs, random_covariance, symplectic_nu_oracle

import atomoptomech as am
from atomoptomech._kernels import _quartic_roots, lu_solve
from atomoptomech.numerics import PIVOT_TOL


class TestSolveComplex:
    def test_identity(self):
        e3 = np.zeros(6, dtype=complex)
        e3[2] = 1.0
        x = am.solve_complex(np.eye(6, dtype=complex), e3)
        np.testing.assert_allclose(x, e3, atol=1e-15)

    def test_diagonal(self):
        a = np.diag([2j] * 6)
        x = am.solve_complex(a, np.ones(6, dtype=complex))
        np.testing.assert_allclose(x, np.ones(6) / 2j, rtol=1e-14)

    def test_residual_bound_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            b = rng.normal(size=6) + 1j * rng.normal(size=6)
            x = am.solve_complex(a, b)
            anorm = np.max(np.abs(a).sum(axis=1))
            xnorm = np.max(np.abs(x))
            bnorm = np.max(np.abs(b))
            res = np.max(np.abs(a @ x - b))
            assert res <= 1e-10 * (anorm * xnorm + bnorm)

    def test_singular_raises(self):
        a = np.zeros((6, 6), dtype=complex)
        a[0, 0] = 1.0
        with pytest.raises(am.SingularMatrix):
            am.solve_complex(a, np.ones(6, dtype=complex))

    def test_stack_matches_oracle_and_flags_singular(self):
        # one batched pass over a stack against a per-system oracle; the
        # system in the middle has a zero column, so its pivot is exactly
        # zero and the elimination after it runs into NaN
        rng = np.random.default_rng(8)
        a = rng.normal(size=(9, 6, 6)) + 1j * rng.normal(size=(9, 6, 6))
        b = rng.normal(size=(9, 6)) + 1j * rng.normal(size=(9, 6))
        a[4, :, 2] = 0.0
        _, min_pivot, anorm = lu_solve(a.copy(), b.copy())
        flagged = min_pivot <= PIVOT_TOL * anorm
        assert flagged.tolist() == [False] * 4 + [True] + [False] * 4
        x = am.solve_complex(a, b)
        assert x.shape == (9, 6)
        assert np.all(np.isnan(x[4]))
        for k in (0, 1, 2, 3, 5, 6, 7, 8):
            want = np.linalg.solve(a[k], b[k])
            assert np.max(np.abs(x[k] - want)) <= 1e-12 * np.max(np.abs(want))

    def test_shape_and_finiteness_rejected(self):
        with pytest.raises(ValueError):
            am.solve_complex(np.eye(6), np.ones(5))
        bad = np.eye(6, dtype=complex)
        bad[2, 3] = np.nan
        with pytest.raises(ValueError):
            am.solve_complex(bad, np.ones(6))
        with pytest.raises(ValueError):
            am.char_poly(np.ones((2, 3)))

    def test_roundtrip_property(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            x_true = rng.normal(size=6) + 1j * rng.normal(size=6)
            x = am.solve_complex(a, a @ x_true)
            np.testing.assert_allclose(x, x_true, rtol=1e-9)


class TestQuarticRoots:
    def test_matches_companion_oracle(self):
        # the Aberth iteration against NumPy's companion-matrix roots, over
        # random monic quartics whose coefficients span four decades
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = np.concatenate(([1.0], rng.normal(size=4) * 10.0 ** rng.uniform(-2, 2, size=4)))
            got = _quartic_roots(a)
            assert got.shape == (4,)
            for want in np.roots(a):
                assert np.min(np.abs(got - want)) <= 1e-9 * max(1.0, abs(want)), (a, want)

    def test_extreme_scale_does_not_overflow(self):
        # roots up to 3e100, whose fourth powers overflow, and one at 0.05,
        # which sits in the constant coefficient
        want = [3e100, 2e100, 1e100, 0.05]
        got = _quartic_roots(np.poly(want))
        for w in want:
            assert np.min(np.abs(got - w)) <= 1e-9 * w


class TestCharPoly:
    def test_zero_matrix(self):
        np.testing.assert_allclose(am.char_poly(np.zeros((6, 6))), [1, 0, 0, 0, 0, 0, 0], atol=0)

    def test_diag_minus_one(self):
        # (lambda + 1)^6 binomial coefficients
        np.testing.assert_allclose(
            am.char_poly(-np.eye(6)), [1, 6, 15, 20, 15, 6, 1], rtol=1e-12
        )

    def test_random_vs_eig_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            j = rng.normal(size=(6, 6))
            got = am.char_poly(j)
            want = poly_from_eigs(j)
            np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8 * np.max(np.abs(want)))


class TestRouthHurwitz:
    def test_stable_sextic(self):
        np.testing.assert_equal(am.routh_hurwitz_stable([1, 6, 15, 20, 15, 6, 1]), True)

    def test_one_unstable_root(self):
        coeffs = np.convolve([1.0, -1.0], poly_from_eigs(-np.eye(5)))
        assert am.routh_hurwitz_stable(coeffs) is False

    def test_marginal_flagged(self):
        # lambda^6 + ... with a pure imaginary pair: lambda^2 + 1 times stable quartic
        coeffs = np.convolve([1.0, 0.0, 1.0], poly_from_eigs(-np.eye(4)))
        stable, marginal = am.routh_hurwitz_flags(coeffs)
        assert marginal

    def test_500_random_vs_eig_oracle(self):
        rng = np.random.default_rng(17)
        n_checked = 0
        while n_checked < 500:
            j = rng.normal(size=(6, 6))
            eigs = np.linalg.eigvals(j)
            shift = np.max(eigs.real)
            margin = rng.uniform(0.05, 1.0)
            if rng.random() < 0.5:
                j = j - (shift + margin) * np.eye(6)  # stable by construction
            else:
                j = j - (shift - margin) * np.eye(6)  # keeps a right-half-plane root
            want = eig_stable(j)
            got = am.routh_hurwitz_stable(am.char_poly(j))
            assert got == want
            n_checked += 1


class TestLyapunov:
    def test_identity_case(self):
        v = am.lyapunov_solve(-np.eye(6), 2.0 * np.eye(6))
        np.testing.assert_allclose(v, np.eye(6), rtol=1e-12)

    def test_decoupled_diagonal(self):
        j = np.diag([-1.0, -2.0, -3.0, -4.0, -5.0, -6.0])
        v = am.lyapunov_solve(j, np.eye(6))
        np.testing.assert_allclose(v, np.diag([1 / 2, 1 / 4, 1 / 6, 1 / 8, 1 / 10, 1 / 12]), rtol=1e-12)

    def test_residual_and_symmetry_random(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            j = rng.normal(size=(6, 6))
            j -= (np.max(np.linalg.eigvals(j).real) + rng.uniform(0.1, 1.0)) * np.eye(6)
            d_half = rng.normal(size=(6, 6))
            d = d_half @ d_half.T
            v = am.lyapunov_solve(j, d)
            assert np.array_equal(v, v.T)
            res = np.max(np.abs(j @ v + v @ j.T + d))
            assert res <= 1e-9 * np.max(np.abs(d))

    def test_unstable_raises(self):
        with pytest.raises(am.UnstableDrift):
            am.lyapunov_solve(np.eye(6), np.eye(6))


class TestSymplecticNu:
    def test_vacuum(self):
        assert am.symplectic_nu(0.5 * np.eye(4)) == pytest.approx(0.5, abs=1e-15)

    def test_two_mode_squeezed(self):
        r = 0.5
        ch, sh = np.cosh(2 * r), np.sinh(2 * r)
        z = np.diag([1.0, -1.0])
        v = 0.5 * np.block([[ch * np.eye(2), sh * z], [sh * z, ch * np.eye(2)]])
        # analytic value for this family: exp(-2r)/2
        assert am.symplectic_nu(v) == pytest.approx(0.18393972058572117, rel=1e-12)

    def test_product_state(self):
        for a, b in ((0.5, 0.5), (0.9, 0.6), (2.0, 1.1)):
            assert am.symplectic_nu(np.diag([a, a, b, b])) == pytest.approx(min(a, b), rel=1e-12)

    def test_random_vs_eig_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            v = random_covariance(rng)
            got = am.symplectic_nu(v)
            want = symplectic_nu_oracle(v)
            assert got == pytest.approx(want, abs=1e-9 * max(1.0, want))

    def test_invalid_covariance_raises(self):
        v = np.diag([1.0, 1.0, 1.0, 1.0])
        v[0, 2] = v[2, 0] = 5.0  # wildly unphysical cross correlations
        with pytest.raises(am.InvalidCovariance):
            am.symplectic_nu(v)
