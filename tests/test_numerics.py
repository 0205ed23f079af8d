import warnings

import numpy as np
import pytest
from conftest import eig_stable, poly_from_eigs, random_covariance, symplectic_nu_oracle

import atomoptomech as am
from atomoptomech import numerics
from atomoptomech.numerics import PIVOT_TOL, hurwitz_flags, lu_solve
from atomoptomech.steadystate import _quartic_roots


def _batch_last(a, b):
    """Scratch copies of a (batch, n, n) stack and its (batch, n) right-hand
    sides in the layout lu_solve solves in place: (n, n, batch), (n, batch)."""
    return a.transpose(1, 2, 0).copy(), b.T.copy()


class TestSolveComplex:
    """Complex and real systems solved by the batched LU, :func:`lu_solve`,
    in its one layout: a (n, n, batch) and b (n, batch).  A system whose
    smallest pivot is at most PIVOT_TOL times its row-sum norm comes back
    NaN.  Two tests go through its one caller, the Lyapunov solve, which
    passes real stacks."""

    def test_identity(self):
        e3 = np.zeros((6, 1), dtype=complex)
        e3[2] = 1.0
        x = lu_solve(np.eye(6, dtype=complex)[..., None].copy(), e3.copy())
        assert np.array_equal(x, e3)

    def test_diagonal(self):
        a = np.diag([2j] * 6)[..., None].copy()
        x = lu_solve(a, np.ones((6, 1), dtype=complex))
        np.testing.assert_allclose(x[:, 0], np.ones(6) / 2j, rtol=1e-14)

    def test_residual_bound_random(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(50, 6, 6)) + 1j * rng.normal(size=(50, 6, 6))
        b = rng.normal(size=(50, 6)) + 1j * rng.normal(size=(50, 6))
        x = lu_solve(*_batch_last(a, b))
        for k in range(50):
            anorm = np.max(np.abs(a[k]).sum(axis=1))
            xnorm = np.max(np.abs(x[:, k]))
            bnorm = np.max(np.abs(b[k]))
            res = np.max(np.abs(a[k] @ x[:, k] - b[k]))
            assert res <= 1e-10 * (anorm * xnorm + bnorm)

    def test_singular_is_nan(self):
        # a pivot that is exactly zero makes the system NaN in every entry,
        # with no warning, whatever the elimination after it leaves in x
        a = np.zeros((6, 6, 1), dtype=complex)
        a[0, 0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = lu_solve(a, np.ones((6, 1), dtype=complex))
        assert x.shape == (6, 1)
        assert np.isnan(x).all()

    @pytest.mark.parametrize("eps", [5e-15, 2e-14])
    def test_pivot_threshold_each_side(self, eps):
        # diag(1, eps) has row-sum norm 1, so its last pivot eps lies on
        # either side of PIVOT_TOL * ||a||_inf = 1e-14: NaN at or below it,
        # the solution above it; the identity next to it in the stack is
        # untouched
        a = np.stack([np.eye(2), np.diag([1.0, eps])]).astype(complex)
        b = np.ones((2, 2), dtype=complex)
        x = lu_solve(*_batch_last(a, b))
        np.testing.assert_array_equal(x[:, 0], [1.0, 1.0])
        if eps <= PIVOT_TOL:
            assert np.isnan(x[:, 1]).all()
        else:
            np.testing.assert_allclose(x[:, 1], [1.0, 1.0 / eps], rtol=1e-15)

    def test_stack_matches_oracle_and_flags_singular(self):
        # one batched pass over a stack against a per-system oracle; the
        # system in the middle has a zero column, so its pivot is exactly
        # zero and the elimination after it runs into NaN
        rng = np.random.default_rng(8)
        a = rng.normal(size=(9, 6, 6)) + 1j * rng.normal(size=(9, 6, 6))
        b = rng.normal(size=(9, 6)) + 1j * rng.normal(size=(9, 6))
        a[4, :, 2] = 0.0
        x = lu_solve(*_batch_last(a, b))
        assert x.shape == (6, 9)
        assert np.isnan(x).any(axis=0).tolist() == [False] * 4 + [True] + [False] * 4
        assert np.isnan(x[:, 4]).all()
        for k in (0, 1, 2, 3, 5, 6, 7, 8):
            want = np.linalg.solve(a[k], b[k])
            assert np.max(np.abs(x[:, k] - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("batch", [0, 1, 7, 300])
    def test_anorm_is_the_whole_stack_row_sum(self, dtype, batch):
        # lu_solve takes the norm a row slab at a time (three rows at
        # batch 7, one row at batch 300); its singular threshold must use
        # the largest row sum of the whole system.  Upper triangular systems
        # factor with their diagonal as pivots.  In each, row 10 alone has
        # row sum 4 (the others stay below 2), and the last pivot is 3e-14
        # in every other system, which is singular (<= 4e-14), and 5e-14 in
        # the rest, which is not; a norm that missed row 10 would flag none
        rng = np.random.default_rng(batch)
        a = np.triu(rng.uniform(0.0, 1.0 / 21, size=(batch, 21, 21)), 1) + np.eye(21)
        a[:, 10, 11:] = 0.0
        a[:, 10, 11] = 3.0
        singular = np.arange(batch) % 2 == 0
        a[:, 20, 20] = np.where(singular, 3e-14, 5e-14)
        b = rng.normal(size=(batch, 21))
        if dtype is complex:
            # a phase per system leaves every modulus as it is
            a = a * np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=batch))[:, None, None]
        x = lu_solve(*_batch_last(a.astype(dtype), b.astype(dtype)))
        assert x.shape == (21, batch)
        assert np.isnan(x).all(axis=0).tolist() == singular.tolist()
        assert np.isfinite(x[:, ~singular]).all()

    def test_row_swaps_keep_small_pivots_out(self):
        # a zero and a 1e-20 leading entry: without a row swap the first
        # gives NaN and the second loses x[0] to cancellation
        a = np.array([[[0.0, 1.0], [1.0, 0.0]], [[1e-20, 1.0], [1.0, 1.0]]], dtype=complex)
        b = np.array([[1.0, 2.0], [1.0, 2.0]], dtype=complex)
        x = lu_solve(*_batch_last(a, b))
        np.testing.assert_allclose(x.T, [[2.0, 1.0], [1.0, 1.0]], rtol=1e-15)
        x = lu_solve(*_batch_last(a[1:], b[1:]))
        np.testing.assert_allclose(x[:, 0], [1.0, 1.0], rtol=1e-15)

    def test_caller_arrays_unchanged(self):
        # lu_solve works in place on scratch copies, which the Lyapunov
        # solve makes: the caller's drifts and diffusions are only read, for
        # a stack, a stack of one and a single system alike
        js, ds = _stable_stack(np.random.default_rng(4), 6, 3)
        for args in ((js, ds), (js[:1], ds[:1]), (js[0], ds[0])):
            before = [v.copy() for v in args]
            assert np.isfinite(am.lyapunov_solve(*args)).all()
            for v, w in zip(args, before):
                np.testing.assert_array_equal(v, w)

    def test_stack_matches_one_at_a_time_bitwise(self):
        # Each system is l @ u with l unit lower triangular and |l_ij| < 1,
        # which partial pivoting factors without a row swap, with its rows
        # permuted; so pivoting has to swap rows at several steps.
        rng = np.random.default_rng(21)
        size = (64, 6, 6)
        lower = 0.6 * (rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size))
        lower = np.tril(lower, -1) + np.eye(6)
        upper = np.triu(rng.normal(size=size) + 1j * rng.normal(size=size))
        m = lower @ upper
        perms = rng.permuted(np.tile(np.arange(6), (64, 1)), axis=1)
        # at least four rows out of place take at least two swaps
        moved = (perms != np.arange(6)).sum(axis=1)
        perms[moved < 4] = np.arange(6)[::-1]
        a = m[np.arange(64)[:, None], perms]
        b = rng.normal(size=(64, 6)) + 1j * rng.normal(size=(64, 6))
        stack = lu_solve(*_batch_last(a, b))
        for k in range(64):
            one = lu_solve(*_batch_last(a[k : k + 1], b[k : k + 1]))
            assert np.array_equal(one[:, 0], stack[:, k])
        x = lu_solve(np.zeros((6, 6, 0), complex), np.zeros((6, 0), complex))
        assert x.shape == (6, 0)

    def test_singular_system_is_nan_in_every_column(self, monkeypatch):
        # A pivot flagged by lu_solve makes its system's column of the
        # batch-last solution NaN, so the Lyapunov solve gives that drift a
        # v of NaN and leaves its neighbours as they are.  The middle drift
        # is stable, and its diagonal system's smallest pivot, 2e-6, is 1e-6
        # of its row-sum norm, which a threshold of 1e-5 flags.
        js = np.stack([-np.eye(6), np.diag([-1.0] * 5 + [-1e-6]), np.diag(-np.arange(1.0, 7.0))])
        ds = np.broadcast_to(np.eye(6), js.shape)
        want = am.lyapunov_solve(js, ds)
        assert np.isfinite(want).all()
        monkeypatch.setattr(numerics, "PIVOT_TOL", 1e-5)
        v = am.lyapunov_solve(js, ds)
        assert np.isnan(v[1]).all()
        assert np.array_equal(v[[0, 2]], want[[0, 2]])

    def test_roundtrip_property(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(20, 6, 6)) + 1j * rng.normal(size=(20, 6, 6))
        x_true = rng.normal(size=(20, 6)) + 1j * rng.normal(size=(20, 6))
        x = lu_solve(*_batch_last(a, np.einsum("kij,kj->ki", a, x_true)))
        np.testing.assert_allclose(x.T, x_true, rtol=1e-9)


def _random_hessenberg(rng, n=6):
    return np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), -1)


class TestHessenberg:
    KINDS = ["complex", "real", "hessenberg"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_reduction(self, kind):
        rng = np.random.default_rng(self.KINDS.index(kind))
        for _ in range(20):
            a = rng.normal(size=(6, 6))
            if kind != "real":
                a = a + 1j * rng.normal(size=(6, 6))
            if kind != "hessenberg":
                # a zero on the subdiagonal, with entries below it: the
                # step must swap a pivot in
                a[[1, 3], [0, 2]] = 0.0
            else:
                a = np.triu(a, -1)
                a[3, 2] = 0.0
            h, g, g_inv = numerics.hessenberg(a)
            assert h.dtype == g.dtype == g_inv.dtype == a.dtype
            assert np.all(np.tril(h, -2) == 0)
            # g is a permuted unit lower triangle of multipliers at most 1
            assert np.max(np.abs(g)) == 1.0
            assert np.max(np.abs(g @ g_inv - np.eye(6))) <= 1e-14
            assert np.max(np.abs(g @ h @ g_inv - a)) <= 1e-14 * np.max(np.abs(a))
            if kind == "hessenberg":
                # a column already zero below its subdiagonal takes no step
                assert np.array_equal(h, a)
                assert np.array_equal(g, np.eye(6)) and np.array_equal(g_inv, np.eye(6))

    @pytest.mark.parametrize("r", [1, 2], ids=["one", "two"])
    def test_shifted_solve_matches_numpy_solve(self, r):
        rng = np.random.default_rng(62 + r)
        for _ in range(10):
            h = _random_hessenberg(rng)
            b = rng.normal(size=(6, r)) + 1j * rng.normal(size=(6, r))
            s = 3.0 * (rng.normal(size=200) + 1j * rng.normal(size=200))
            y = numerics.hessenberg_solve(h, b, s)
            assert y.shape == (6, r, 200)
            want = np.moveaxis(np.linalg.solve(h - s[:, None, None] * np.eye(6), b), 0, -1)
            err = np.max(np.abs(y - want), axis=(0, 1))
            assert np.all(err <= 1e-12 * np.max(np.abs(want), axis=(0, 1)))

    def test_eigenvalue_shift_is_nan(self):
        # the shifts at the diagonal of a triangular h are its eigenvalues,
        # at every elimination step and at the last pivot alike
        rng = np.random.default_rng(65)
        h = np.triu(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        s = np.concatenate((np.diagonal(h), [0.5j, 10.0]))
        y = numerics.hessenberg_solve(h, np.ones((6, 2)), s)
        assert np.all(np.isnan(y[..., :6]))
        assert np.all(np.isfinite(y[..., 6:]))

    def test_pole_bound_each_side(self):
        # a shift 0.5 and 2 times PIVOT_TOL * ||h - s I||_inf away from a
        # diagonal entry of a triangular h (an eigenvalue) makes that
        # entry's pivot just inside and just outside the pole bound, at
        # every step
        rng = np.random.default_rng(68)
        h = np.triu(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        lam = np.diagonal(h)
        # ||h - s I||_inf at s = lam, which the offsets change in the 14th digit
        norm = np.abs(h[None] - lam[:, None, None] * np.eye(6)).sum(axis=2).max(axis=1)
        s = np.concatenate((lam + 0.5 * PIVOT_TOL * norm, lam + 2.0 * PIVOT_TOL * norm))
        y = numerics.hessenberg_solve(h, np.ones((6, 2)), s)
        assert np.all(np.isnan(y[..., :6]))
        assert np.all(np.isfinite(y[..., 6:]))

    @pytest.mark.parametrize("k", [-900, 900])
    def test_scale_far_from_one(self, k):
        # a matrix and its shifts scaled by 2^k come back scaled by the
        # same exact power of two, with nothing overflowing or underflowing
        rng = np.random.default_rng(67)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h, g, g_inv = numerics.hessenberg(a)
        hk, gk, g_invk = numerics.hessenberg(a * 2.0**k)
        assert np.array_equal(hk, h * 2.0**k)
        assert np.array_equal(gk, g) and np.array_equal(g_invk, g_inv)
        b = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
        s = rng.normal(size=50) + 1j * rng.normal(size=50)
        y = numerics.hessenberg_solve(h, b, s)
        assert np.array_equal(numerics.hessenberg_solve(hk, b, s * 2.0**k), y / 2.0**k)

    def test_batches_of_zero_and_one(self):
        rng = np.random.default_rng(66)
        h = _random_hessenberg(rng)
        b = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
        s = rng.normal(size=300) + 1j * rng.normal(size=300)
        assert numerics.hessenberg_solve(h, b, s[:0]).shape == (6, 2, 0)
        stack = numerics.hessenberg_solve(h, b, s)
        for k in range(0, 300, 7):
            one = numerics.hessenberg_solve(h, b, s[k : k + 1])
            assert one.shape == (6, 2, 1)
            assert np.array_equal(one[..., 0], stack[..., k])


class TestQuarticRoots:
    def test_matches_companion_oracle(self):
        # the Aberth iteration against NumPy's companion-matrix roots, over
        # random monic quartics whose coefficients span four decades, one at
        # a time and as one stack
        rng = np.random.default_rng(5)
        stack = np.array([
            np.concatenate(([1.0], rng.normal(size=4) * 10.0 ** rng.uniform(-2, 2, size=4)))
            for _ in range(50)
        ])
        got_stack = _quartic_roots(stack)
        assert got_stack.shape == (50, 4)
        for a, got_row in zip(stack, got_stack):
            got = _quartic_roots(a)
            assert got.shape == (4,)
            for want in np.roots(a):
                for roots in (got, got_row):
                    assert np.min(np.abs(roots - want)) <= 1e-9 * max(1.0, abs(want)), (a, want)

    def test_extreme_scale_does_not_overflow(self):
        # roots up to 3e100, whose fourth powers overflow, and one at 0.05,
        # which sits in the constant coefficient; alone, and stacked with a
        # quartic of unit scale, so that each row has its own root bound
        want = [3e100, 2e100, 1e100, 0.05]
        small = [-2.5, -0.5, 1.5, 3.0]
        stacked = _quartic_roots([np.poly(want), np.poly(small)])
        for got, roots in ((_quartic_roots(np.poly(want)), want), (stacked[0], want), (stacked[1], small)):
            for w in roots:
                assert np.min(np.abs(got - w)) <= 1e-9 * abs(w)


class TestCharPoly:
    def test_zero_matrix(self):
        np.testing.assert_allclose(am.char_poly(np.zeros((6, 6))), [1, 0, 0, 0, 0, 0, 0], atol=0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            am.char_poly(np.ones((2, 3)))

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

    def test_stack_through_routh_vs_eig_oracle(self):
        # one Faddeev-LeVerrier pass and one Routh pass over a stack, half of
        # it shifted into the left half-plane, against eigenvalue signs
        rng = np.random.default_rng(19)
        js = rng.normal(size=(200, 6, 6))
        shift = np.array([np.max(np.linalg.eigvals(j).real) for j in js])
        margin = rng.uniform(0.05, 1.0, size=200) * np.where(np.arange(200) % 2, 1.0, -1.0)
        js -= (shift + margin)[:, None, None] * np.eye(6)
        coeffs = am.char_poly(js)
        assert coeffs.shape == (200, 7)
        stable, marginal = am.routh_hurwitz_flags(coeffs)
        assert stable.tolist() == [eig_stable(j) for j in js]
        assert not marginal.any()
        for k in range(0, 200, 25):
            assert np.array_equal(coeffs[k], am.char_poly(js[k]))


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
        assert not stable

    @pytest.mark.parametrize("delta,want", [(5e-15, (False, True)), (2e-14, (True, False))])
    def test_marginal_threshold_each_side(self, delta, want):
        # s^3 + s^2 + s + (1 - delta): the third first-column entry is delta,
        # on either side of the 1e-14 * scale threshold (scale 1)
        assert am.routh_hurwitz_flags([1.0, 1.0, 1.0, 1.0 - delta]) == want

    def test_vanishing_entry_at_every_row(self):
        # degree 6, Routh rows 0..6: an exact zero, and a rounding-level
        # entry (a1 = 1 + 2^-52 against the exact zero's a1 = 1), first in
        # rows 1 to 5 is marginal; nothing stands in for it, so the rows
        # after it may run to inf or NaN without a warning.  Row 6, the last,
        # divides nothing: only its exact zero (a root at 0) is marginal, and
        # s (s + 1)^5 + 1e-300 is Hurwitz.  A NaN coefficient is unstable,
        # and a zero drift marginal.
        up = 1.0 + 2.0**-52
        cases = [
            ([1, 0, 1, 1, 1, 1, 1], (False, True)),  # row 1
            ([1, 1e-16, 1, 1, 1, 1, 1], (False, True)),
            ([1, 1, 1, 1, 1, 1, 1], (False, True)),  # row 2
            ([1, up, 1, 1, 1, 1, 1], (False, True)),
            ([1, 1, 1, 2, 1, 3, 1], (False, True)),  # row 3
            ([1, up, 1, 2, 1, 3, 1], (False, True)),
            ([1, 1, 2, 1, 1, 1, 1], (False, True)),  # row 4
            ([1, up, 2, 1, 1, 1, 1], (False, True)),
            ([1, 1, 1, 2, 1, 1, 1], (False, True)),  # row 5
            ([1, up, 1, 2, 1, 1, 1], (False, True)),
            ([1, 5, 10, 10, 5, 1, 0], (False, True)),  # row 6
            ([1, 5, 10, 10, 5, 1, 1e-300], (True, False)),
            ([1, 6, 15, np.nan, 15, 6, 1], (False, False)),
            (am.char_poly(np.zeros((6, 6))), (False, True)),
        ]
        rows = np.array([c for c, _ in cases], dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stable, marginal = am.routh_hurwitz_flags(rows)
            singles = [am.routh_hurwitz_flags(r) for r in rows]
            zero_drift = hurwitz_flags(np.zeros((6, 6)))
        assert list(zip(stable.tolist(), marginal.tolist())) == [want for _, want in cases]
        assert singles == [want for _, want in cases]
        assert zero_drift == (False, True)

    def test_constant_has_no_roots(self):
        # degree 0: a monic constant has no roots, so it is stable and not
        # marginal, as is the characteristic polynomial of a 0x0 drift
        assert am.routh_hurwitz_flags([1.0]) == (True, False)
        stable, marginal = am.routh_hurwitz_flags(np.ones((3, 1)))
        assert stable.tolist() == [True] * 3 and marginal.tolist() == [False] * 3
        assert am.char_poly(np.zeros((0, 0))).tolist() == [1.0]
        assert hurwitz_flags(np.zeros((0, 0))) == (True, False)
        stable, marginal = hurwitz_flags(np.zeros((2, 0, 0)))
        assert stable.tolist() == [True] * 2 and marginal.tolist() == [False] * 2

    def test_flags_of_a_stack(self):
        # a stack of coefficient rows gives two bool arrays, row by row the
        # verdicts of the one-polynomial call
        rows = np.array([
            [1, 6, 15, 20, 15, 6, 1],
            np.convolve([1.0, -1.0], poly_from_eigs(-np.eye(5))),
            np.convolve([1.0, 0.0, 1.0], poly_from_eigs(-np.eye(4))),
        ], dtype=float)
        stable, marginal = am.routh_hurwitz_flags(rows)
        assert stable.dtype == bool and marginal.dtype == bool
        assert list(zip(stable.tolist(), marginal.tolist())) == [
            am.routh_hurwitz_flags(r) for r in rows
        ]
        assert stable[:2].tolist() == [True, False]
        assert not marginal[0] and marginal[2]

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


def _verdict_drifts(rng):
    """Drifts of every verdict, each also scaled by 2^500 and by 2^-500:
    20 unstable and 20 stable random ones, in turn, an imaginary-axis pair
    (marginal) and a zero drift."""
    js = rng.normal(size=(40, 6, 6))
    margin = rng.uniform(0.05, 1.0, size=40) * np.where(np.arange(40) % 2, 1.0, -1.0)
    for j, m in zip(js, margin):
        j -= (np.max(np.linalg.eigvals(j).real) + m) * np.eye(6)
    pair = -np.eye(6)
    pair[:2, :2] = [[0.0, 1.0], [-1.0, 0.0]]
    base = np.concatenate((js, [pair, np.zeros((6, 6))]))
    return np.concatenate([base * 2.0**k for k in (0, 500, -500)])


class TestHurwitzFlags:
    def test_stack_matches_single_calls_and_eigenvalue_signs(self):
        # one call over a stack gives each drift's own verdict, the
        # eigenvalue sign outside a 1e-9 margin of the largest |entry|,
        # marginal inside it; a zero drift is unstable and marginal, and
        # no scale of 2^+-500 moves a verdict or raises a warning
        js = _verdict_drifts(np.random.default_rng(53))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stable, marginal = hurwitz_flags(js)
            singles = [hurwitz_flags(j) for j in js]
        assert stable.dtype == bool and marginal.dtype == bool
        assert list(zip(stable.tolist(), marginal.tolist())) == singles
        assert all(type(f) is bool for pair in singles for f in pair)
        for j, st, mg in zip(js, stable, marginal):
            top = np.max(np.linalg.eigvals(j).real)
            if abs(top) > 1e-9 * max(np.max(np.abs(j)), 1e-300):
                assert (st, mg) == (eig_stable(j), False)
            else:
                assert (st, mg) == (False, True)
        thirds = np.split(stable, 3), np.split(marginal, 3)
        for flags in thirds:
            assert np.array_equal(flags[0], flags[1]) and np.array_equal(flags[0], flags[2])
        assert stable[:40].tolist() == [k % 2 == 1 for k in range(40)]
        assert marginal[40:42].tolist() == [True, True]
        # a stack with two batch axes gives flags of its batch shape
        grid = hurwitz_flags(js.reshape(3, 42, 6, 6))
        assert [f.shape for f in grid] == [(3, 42), (3, 42)]
        assert np.array_equal(grid[0].ravel(), stable) and np.array_equal(grid[1].ravel(), marginal)

    def test_lyapunov_nan_rows_are_the_unstable_or_singular_ones(self):
        # v is NaN exactly where hurwitz_flags says unstable or the pivot
        # test flags the system (row 5: stable, with a pivot at rounding
        # level); the solve runs in the verdict's scaled time, so (j, d)
        # scaled by 2^+-500, or divided by each drift's largest |entry|,
        # gives the same v bit for bit, with no warning
        rng = np.random.default_rng(59)
        js = _verdict_drifts(rng)
        pivot = np.diag([-1.0] * 5 + [-1e-16])
        assert hurwitz_flags(pivot) == (True, False)
        js[[5, 47, 89]] = [pivot, pivot * 2.0**500, pivot * 2.0**-500]
        d_half = rng.normal(size=(42, 6, 6))
        ds = np.concatenate([d_half @ np.swapaxes(d_half, 1, 2) * 2.0**k for k in (0, 500, -500)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = am.lyapunov_solve(js, ds)
        flagged = np.zeros(len(js), dtype=bool)
        flagged[[5, 47, 89]] = True
        nan_rows = np.isnan(v).all(axis=(1, 2))
        assert nan_rows.tolist() == (~hurwitz_flags(js)[0] | flagged).tolist()
        assert np.isfinite(v[~nan_rows]).all()
        assert np.array_equal(v[:42], v[42:84], equal_nan=True)
        assert np.array_equal(v[:42], v[84:], equal_nan=True)
        scale = np.abs(js[:42]).max(axis=(1, 2), keepdims=True)
        scale[scale == 0.0] = 1.0
        unit = am.lyapunov_solve(js[:42] / scale, ds[:42] / scale)
        assert np.array_equal(v[:42], unit, equal_nan=True)


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

    def test_unstable_is_nan(self):
        v = am.lyapunov_solve(np.eye(6), np.eye(6))
        assert v.shape == (6, 6)
        assert np.all(np.isnan(v))

    def test_imaginary_axis_pair_is_unstable(self):
        # a rotation block puts eigenvalues +-i on the imaginary axis: the
        # drift is not Hurwitz but marginal, so it fails the verdict and the
        # solve, alone or in a stack
        j = -np.eye(6)
        j[:2, :2] = [[0.0, 1.0], [-1.0, 0.0]]
        d = np.eye(6)
        assert hurwitz_flags(j) == (False, True)
        assert np.all(np.isnan(am.lyapunov_solve(j, d)))
        v = am.lyapunov_solve(np.stack([-np.eye(6), j]), np.stack([d, d]))
        assert np.array_equal(v[0], 0.5 * np.eye(6))
        assert np.all(np.isnan(v[1]))

    def test_stack_matches_single_solves(self):
        # 101 systems; the first two, the last two and every fifth drift
        # keep a right-half-plane root (rows 3 and 4 are neighbours), and
        # one stable drift has a pivot at rounding level, so those come
        # back NaN from the stack and on their own
        rng = np.random.default_rng(29)
        n = 101
        js = rng.normal(size=(n, 6, 6))
        unstable = np.arange(n) % 5 == 3
        unstable[[0, 1, 4, n - 2, n - 1]] = True
        margin = rng.uniform(0.1, 1.0, size=n) * np.where(unstable, -1.0, 1.0)
        for j, m in zip(js, margin):
            j -= (np.max(np.linalg.eigvals(j).real) + m) * np.eye(6)
        js[7] = np.diag([-1.0] * 5 + [-1e-16])
        d_half = rng.normal(size=(n, 6, 6))
        ds = d_half @ np.swapaxes(d_half, 1, 2)
        v = am.lyapunov_solve(js, ds)
        assert v.shape == (n, 6, 6)
        for k in range(n):
            assert np.all(np.isnan(v[k])) == (unstable[k] or k == 7)
            np.testing.assert_array_equal(v[k], am.lyapunov_solve(js[k], ds[k]))

    def test_one_lu_call_per_stack(self, monkeypatch):
        # every third drift is unstable: the other 106 go to lu_solve in
        # one call, and an all-unstable stack or drift makes no call and
        # gives NaN
        calls = []

        def counting(a, b):
            calls.append(b.shape[1])
            return lu_solve(a, b)

        monkeypatch.setattr(numerics, "lu_solve", counting)
        js, ds = _stable_stack(np.random.default_rng(47), 6, 160)
        js[::3] += 2.0 * np.eye(6) * np.abs(js).max()
        v = am.lyapunov_solve(js, ds)
        assert calls == [160 - 54]
        assert np.isfinite(v[1::3]).all() and np.isfinite(v[2::3]).all()
        calls.clear()
        v = am.lyapunov_solve(js[::3], ds[::3])
        assert calls == [] and np.isnan(v).all()
        v = am.lyapunov_solve(js[0], ds[0])
        assert calls == [] and v.shape == (6, 6) and np.isnan(v).all()


def _stable_stack(rng, n, size):
    js = rng.normal(size=(size, n, n))
    for j in js:
        j -= (np.max(np.linalg.eigvals(j).real) + rng.uniform(0.1, 1.0)) * np.eye(n)
    d_half = rng.normal(size=(size, n, n))
    return js, d_half @ np.swapaxes(d_half, 1, 2)


class TestHalfVectorizedLyapunov:
    def test_stack_vs_scipy_with_unstable_rows_interleaved(self):
        # 160 systems: unstable drifts open and close the stack and sit in
        # three runs of neighbours inside it; the rest must match SciPy's
        # Bartels-Stewart solve, come back exactly symmetric and equal
        # their one-at-a-time solves bit for bit
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(41)
        n = 160
        js, ds = _stable_stack(rng, 6, n)
        unstable = np.zeros(n, dtype=bool)
        unstable[[0, 1, 47, 48, 49, 95, 96, 97, 143, 144, 145, n - 2, n - 1]] = True
        js[unstable] += 2.0 * np.eye(6) * np.abs(js[unstable]).max()
        v = am.lyapunov_solve(js, ds)
        assert v.shape == (n, 6, 6)
        assert np.array_equal(v, np.swapaxes(v, 1, 2), equal_nan=True)
        assert np.isnan(v).any(axis=(1, 2)).tolist() == unstable.tolist()
        for k in np.flatnonzero(~unstable):
            want = linalg.solve_continuous_lyapunov(js[k], -ds[k])
            assert np.max(np.abs(v[k] - want)) <= 1e-9 * np.max(np.abs(want)), k
            assert np.array_equal(v[k], am.lyapunov_solve(js[k], ds[k])), k

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_other_sizes_vs_scipy(self, n):
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(43 + n)
        js, ds = _stable_stack(rng, n, 20)
        v = am.lyapunov_solve(js, ds)
        assert v.shape == (20, n, n)
        assert np.array_equal(v, np.swapaxes(v, 1, 2))
        for k in range(20):
            want = linalg.solve_continuous_lyapunov(js[k], -ds[k])
            assert np.max(np.abs(v[k] - want)) <= 1e-9 * np.max(np.abs(want))
            assert np.array_equal(v[k], am.lyapunov_solve(js[k], ds[k]))


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

    def test_invalid_covariance_is_nan(self):
        v = np.diag([1.0, 1.0, 1.0, 1.0])
        v[0, 2] = v[2, 0] = 5.0  # wildly unphysical cross correlations
        assert np.isnan(am.symplectic_nu(v))

    @pytest.mark.parametrize("var", [1e4, 1e6, 1e8])
    def test_hot_equal_modes_under_a_beam_splitter(self, var):
        # two equal thermal modes mixed by a beam splitter: the two
        # symplectic eigenvalues coincide, so rad = sigma^2 - 4 det is 0 and
        # rounds to about 1e-16 sigma^2, either sign; nu is the variance
        c, s = np.cos(1.2), np.sin(1.2)
        b = np.array([[c, 0, s, 0], [0, c, 0, s], [-s, 0, c, 0], [0, -s, 0, c]])
        assert am.symplectic_nu(b @ (var * np.eye(4)) @ b.T) == pytest.approx(var, rel=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_negative_rad_is_nan(self, scale):
        # blocks I, 3 I and cross block c R (R a rotation, c^2 = 4 + 1e-6):
        # det v and sigma are positive, but rad = 4 (16 - 4 c^2) is about
        # -4e-6 sigma^2, far below the rounding bound, at any scale
        c = np.sqrt(4.0 + 1e-6)
        cross = c * np.array([[0.0, 1.0], [-1.0, 0.0]])
        v = np.block([[np.eye(2), cross], [cross.T, 3.0 * np.eye(2)]])
        assert np.isnan(am.symplectic_nu(scale * v))

    @pytest.mark.parametrize("c,want", [(1.1, None), (0.999, 0.04471017781221678)])
    def test_sigma_bound_each_side(self, c, want):
        # v = [[I, C], [C, I]], C = c I: sigma = 2 - 2 c^2 is -0.42 at
        # c = 1.1, with det v = (1 - c^2)^2 = 0.0441 > 0, so only sigma <= 0
        # marks it no state; at c = 0.999 sigma = 0.004 and nu^2 = 1 - c^2
        v = np.block([[np.eye(2), c * np.eye(2)], [c * np.eye(2), np.eye(2)]])
        nu = am.symplectic_nu(v)
        if want is None:
            assert np.isnan(nu)
        else:
            assert nu == pytest.approx(want, rel=1e-9)

    def test_zero_determinant_is_nan(self):
        # the x-variance of the first mode is 0: the clamp on the inner
        # root must not turn that into nu = 0, which reads as E_N = inf
        assert np.isnan(am.symplectic_nu(np.diag([1.0, 0.0, 1.0, 1.0])))

    def test_one_covariance_gives_a_float64(self):
        # a scalar, not a 0-d array, so it formats like the float it is
        nu = am.symplectic_nu(0.5 * np.eye(4))
        assert type(nu) is np.float64
        assert f"{nu:.6f}" == "0.500000"

    def test_stack_with_invalid_row(self):
        rng = np.random.default_rng(37)
        vs = np.array([random_covariance(rng) for _ in range(9)])
        vs[4] = np.eye(4)
        vs[4, 0, 2] = vs[4, 2, 0] = 5.0
        assert np.isnan(am.symplectic_nu(vs[4]))
        nu = am.symplectic_nu(vs)
        assert nu.shape == (9,)
        assert np.isnan(nu[4])
        np.testing.assert_array_equal(nu, [am.symplectic_nu(v) for v in vs])

    def test_huge_covariance_scales_exactly(self):
        # nu(s v) = s nu(v); a hot mirror's covariance, whose fourth powers
        # overflow, is taken in power-of-two units: bit for bit the small
        # one scaled, alone or in a stack of mixed sizes, with no warning
        rng = np.random.default_rng(43)
        vs = np.array([random_covariance(rng) for _ in range(6)])
        small = am.symplectic_nu(vs)
        scales = np.ldexp(1.0, np.array([0, 30, 63, 64, 200, 1000]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = am.symplectic_nu(vs * scales[:, None, None])
            one = am.symplectic_nu(vs[4] * scales[4])
        assert np.all(np.isfinite(small))
        np.testing.assert_array_equal(big, small * scales)
        assert one == big[4]

    def test_stack_with_zero_determinant_row(self):
        rng = np.random.default_rng(41)
        vs = np.array([random_covariance(rng) for _ in range(5)])
        want = am.symplectic_nu(vs)
        vs[2] = np.diag([1.0, 0.0, 1.0, 1.0])
        nu = am.symplectic_nu(vs)
        assert np.isnan(nu[2])
        np.testing.assert_array_equal(np.delete(nu, 2), np.delete(want, 2))
