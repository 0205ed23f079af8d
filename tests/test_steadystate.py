import warnings

import numpy as np
import pytest

import atomoptomech as am
from atomoptomech.steadystate import beta_roots


class TestSolveBeta:
    @pytest.mark.parametrize(
        "case,want_exc",
        [(1.0, 0.255), (2.5, 0.069), (8.0, 0.008)],
    )
    def test_reference_excitations(self, case, want_exc):
        beta = am.solve_beta(case, case)[0]
        assert abs(beta) ** 2 == pytest.approx(want_exc, abs=0.003)

    def test_reference_roots(self):
        b1 = am.solve_beta(1.0, 1.0)[0]
        assert b1.real == pytest.approx(-0.411, abs=0.005)
        assert b1.imag == pytest.approx(-0.291, abs=0.005)
        b8 = am.solve_beta(8.0, 8.0)[0]
        assert b8.real == pytest.approx(-0.062, abs=0.005)
        assert b8.imag == pytest.approx(-0.061, abs=0.005)

    def test_all_roots_satisfy_equation(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            dr, gr = rng.uniform(0.2, 10.0, size=2)
            for root in am.solve_beta(dr, gr):
                res = am.excitation_equation(root, dr, gr)
                assert max(abs(res.real), abs(res.imag)) <= 1e-10

    def test_sorted_by_excitation(self):
        roots = am.solve_beta(1.0, 1.0)
        excs = [abs(b) ** 2 for b in roots]
        assert excs == sorted(excs)

    def test_every_root_against_scipy_lattice(self):
        # completeness: scipy.optimize.root (finite-difference Jacobian) from
        # a dense lattice of starts on [-R, R]^2, R = 4 (1 + |delta_r| +
        # gamma_r), which covers every branch; solve_beta must return
        # exactly the distinct roots it converges to
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(17)
        pairs = [(rng.uniform(-10.0, 10.0), rng.uniform(0.0, 10.0)) for _ in range(6)]
        pairs += [(0.0, 0.3), (1.0, 0.0), (1.0, 1e-9), (2.5, 2.5)]
        for dr, gr in pairs:
            def f(v, dr=dr, gr=gr):
                r = am.excitation_equation(complex(v[0], v[1]), dr, gr)
                return [r.real, r.imag]

            big = 4.0 * (1.0 + abs(dr) + gr)
            want = []
            for x0 in np.linspace(-big, big, 16):
                for y0 in np.linspace(-big, big, 16):
                    b = complex(*optimize.root(f, [x0, y0], tol=1e-14).x)
                    converged = max(map(abs, f([b.real, b.imag]))) <= 1e-10 * max(1.0, abs(b) ** 2)
                    if converged and all(abs(b - c) > 1e-6 for c in want):
                        want.append(b)
            got = am.solve_beta(dr, gr)
            assert len(got) == len(want), (dr, gr, got, want)
            for b in want:
                assert min(abs(b - c) for c in got) <= 1e-8, (dr, gr, b, got)

    def test_case_2p5_high_excitation_branch(self):
        # a root far outside [-2, 2]^2, where a bounded start box misses it
        roots = am.solve_beta(2.5, 2.5)
        assert len(roots) == 2
        assert abs(roots[1] - (1.7028 + 5.3400j)) <= 1e-3

    def test_both_branches_at_large_detuning(self):
        # for delta_r >> 1 the roots are Re beta ~ -1/delta_r and
        # ~ 2 delta_r / 3; the second has |beta|^2 ~ delta_r^2, so its
        # residual and its distance from a duplicate scale with it; at 1e150
        # its squared terms, about 1e300, are near the top of the double range
        for dr in (1e5, 1e50, 1e100, 1e120, 1e150):
            roots = am.solve_beta(dr, 1.0)
            assert len(roots) == 2
            assert roots[0].real == pytest.approx(-1.0 / dr, rel=1e-9)
            assert roots[1].real == pytest.approx(2.0 * dr / 3.0, rel=1e-9)

    def test_fourfold_root_on_the_line_is_exact(self):
        # at delta_r = 0, gamma_r^2 = 2/3 the root -i gamma_r is fourfold
        # and Newton reaches it only linearly off the axis Re beta = 0; it
        # must come back exactly on that axis, at sqrt(2/3) and at both of
        # its float neighbours
        g0 = np.sqrt(2.0 / 3.0)
        for gr in (np.nextafter(g0, 0.0), g0, np.nextafter(g0, 1.0)):
            roots = beta_roots(0.0, gr)
            assert len(roots) == 2, (gr, roots)
            assert np.all(roots.real == 0.0), (gr, roots)
            assert np.min(np.abs(roots + 1j * gr)) <= 1e-15, (gr, roots)

    def test_mirror_pair_keeps_negative_real_part_first(self):
        # at delta_r = 0, gamma_r^2 < 2/3 the two lowest roots +-x - i gamma_r
        # have equal excitation; they must tie exactly, so that the sort puts
        # Re beta < 0 first and steady --delta-r 0 reports that sign
        for gr in np.linspace(0.0, np.sqrt(2.0 / 3.0), 161, endpoint=False):
            low, mirror = am.solve_beta(0.0, gr)[:2]
            assert low.real < 0.0 and mirror == -low.conjugate(), (gr, low, mirror)

    @pytest.mark.parametrize("d,g", [(1e154, 1.0), (1.0, 2e153), (3e200, 1e200)])
    def test_non_finite_coefficients_give_no_root_quietly(self, d, g):
        # an overflowed quartic coefficient ends in no root through the
        # Aberth pass and the residual filter, with no warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(beta_roots(d, g)) == 0

    def test_overflowing_coefficients_raise(self):
        # a root exists, but 16 delta_r^2 in the quartic leaves the double range
        with pytest.raises(OverflowError, match=r"at delta_r = 1e\+200, gamma_r = 1$"):
            am.solve_beta(1e200, 1.0)


class TestFixedPoint:
    def test_zero_coupling(self, default_params):
        ss = am.fixed_point(default_params.replace(coupling_G=0.0))
        assert ss.c_s == 0
        assert ss.x_s == 0
        assert ss.p_s == 0

    def test_case1_excitation(self, default_params):
        ss = am.fixed_point(default_params)
        assert ss.excitation == pytest.approx(0.255, abs=0.002)

    def test_case8_excitation(self, default_params):
        ss = am.fixed_point(default_params.with_case(8.0, 8.0))
        assert ss.excitation == pytest.approx(0.008, abs=0.001)

    def test_displacement_identity(self, default_params):
        # x_s = g0 |c_s|^2 / omega_m and p_s = 0 exactly
        ss = am.fixed_point(default_params)
        g0 = am.single_photon_coupling(default_params)
        assert ss.x_s == pytest.approx(g0 * abs(ss.c_s) ** 2 / default_params.omega_m, rel=1e-12)
        assert ss.p_s == 0.0
        assert ss.residual <= 1e-10
        assert ss.branch_count >= 1

    def test_cavity_amplitude_formula(self, default_params):
        p = default_params
        ss = am.fixed_point(p)
        want = (
            -1j
            * p.coupling_G
            * np.sqrt(p.n_atoms)
            * ss.beta
            * (1 - ss.excitation / 2)
            / (p.kappa + 1j * p.delta)
        )
        assert ss.c_s == pytest.approx(want, rel=1e-12)


    def test_bare_detuning_is_an_explicit_map(self):
        # At fixed (delta_r, gamma_r) a point's bare drive detuning is
        # delta + g0 x_s: one array call over criterion 5's grid gives it,
        # with no iteration.  At N = 1e7 the map folds back (a bare
        # detuning has three effective ones), at N = 1e6 it is monotone.
        p = am.SystemParams().with_case(1.0, 1.0)
        p = p.replace(coupling_G=25.0 * p.kappa)
        grid = np.linspace(0.0, 3.0, 3001) * p.omega_m
        for n_atoms, folds in ((1e7, True), (1e6, False)):
            q = p.replace(n_atoms=n_atoms, delta=grid)
            shift = am.single_photon_coupling(q) * am.fixed_point(q).x_s / q.omega_m
            if n_atoms == 1e7:
                assert shift[0] == pytest.approx(0.2522, rel=1e-3)
                assert shift[1220] < 1e-3  # at 1.22 omega_m
            bare = grid / q.omega_m + shift
            assert bool(np.any(np.diff(bare) < 0)) == folds, n_atoms
