import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import eig_stable, symplectic_nu_oracle, symplectic_spectrum

import atomoptomech as am
from atomoptomech.numerics import hurwitz_flags
from atomoptomech.params import HBAR, K_BOLTZMANN, DerivedCouplings
from atomoptomech.steadystate import SteadyState


def _couplings_zero(g0=0.0):
    return DerivedCouplings(g0=g0, g1=0j, g2=0j, g3=0j, delta_a_prime=0.0)


def _vacuum_ss():
    return SteadyState(beta=0j, excitation=0.0, c_s=0j, x_s=0.0, p_s=0.0,
                       residual=0.0, branch_count=1)


def _fig3b_case8(params):
    """The case-8, G = 100 kappa parameters and fig3b's detuning grid."""
    p = params.with_case(8.0, 8.0).replace(coupling_G=100 * params.kappa)
    return p, np.linspace(0.0, 3.0, 500) * p.omega_m


def _scalar_drifts(p, grid):
    """One (6, 6) drift per detuning, each from scalar arithmetic."""
    drifts = []
    for delta in grid:
        q = p.replace(delta=float(delta))
        ss = am.fixed_point(q)
        drifts.append(am.build_drift(q, am.derive_couplings(q, ss), ss))
    return drifts


class TestBuildDrift:
    def test_decoupled_structure(self, default_params):
        p = default_params.replace(delta=0.7 * default_params.omega_m)
        ds = am.build_drift(p, _couplings_zero(), _vacuum_ss())
        j = ds.j
        np.testing.assert_allclose(j[0], [0, p.omega_m, 0, 0, 0, 0])
        np.testing.assert_allclose(j[1], [-p.omega_m, -p.gamma_m, 0, 0, 0, 0])
        assert j[2, 2] == -p.kappa and j[3, 3] == -p.kappa
        assert j[2, 3] == p.delta and j[3, 2] == -p.delta
        assert j[4, 4] == -p.gamma_a and j[5, 5] == -p.gamma_a
        np.testing.assert_allclose(
            np.diag(ds.d),
            [0, p.gamma_m, p.kappa, p.kappa, p.gamma_a, p.gamma_a],
        )

    def test_real_amplitudes_kill_phase_couplings(self, default_params):
        # real beta and real cavity amplitude leave only the amplitude-type
        # couplings: all imaginary-part-derived entries vanish
        p = default_params
        ss = SteadyState(beta=-0.3 + 0j, excitation=0.09, c_s=500.0 + 0j,
                         x_s=0.0, p_s=0.0, residual=0.0, branch_count=1)
        cpl = am.derive_couplings(p, ss)
        assert cpl.g3.imag == 0.0
        ds = am.build_drift(p, cpl, ss)
        assert ds.j[1, 3] == 0.0  # g_py
        assert ds.j[2, 0] == 0.0  # -g_py
        assert ds.j[2, 4] == 0.0  # g3_mu

    def test_fig_case_stable_at_upper_detuning(self, default_params):
        p = default_params.replace(delta=1.22 * default_params.omega_m)
        ss = am.fixed_point(p)
        ds = am.build_drift(p, am.derive_couplings(p, ss), ss)
        assert hurwitz_flags(ds.j)[0]
        assert eig_stable(ds.j)

    def test_routh_matches_eig_over_sweep(self, default_params):
        p = default_params
        for rel in np.linspace(0.05, 3.0, 40):
            pp = p.replace(delta=rel * p.omega_m)
            ss = am.fixed_point(pp)
            ds = am.build_drift(pp, am.derive_couplings(pp, ss), ss)
            assert hurwitz_flags(ds.j)[0] == eig_stable(ds.j)

    def test_array_delta_matches_scalar_builds(self, default_params):
        # one build over the fig3b case-8 grid against a build per detuning;
        # c_s comes from NumPy's complex division on the grid and Python's at
        # a point, which can round differently in the last bit, so only the
        # entries made from c_s (g_px, g_py, g_mu, g_nu, delta_a') may move
        p, grid = _fig3b_case8(default_params)
        pa = p.replace(delta=grid)
        ss = am.fixed_point(pa)
        ds = am.build_drift(pa, am.derive_couplings(pa, ss), ss)
        assert ds.j.shape == ds.d.shape == (len(grid), 6, 6)
        ones = _scalar_drifts(p, grid)
        assert all(o.j.shape == o.d.shape == (6, 6) for o in ones)
        j1 = np.stack([o.j for o in ones])
        np.testing.assert_array_equal(ds.d, np.stack([o.d for o in ones]))
        from_c_s = np.zeros((6, 6), dtype=bool)
        from_c_s[[1, 1, 2, 3, 4, 4, 5, 5], [2, 3, 0, 0, 4, 5, 4, 5]] = True
        np.testing.assert_array_equal(ds.j[:, ~from_c_s], j1[:, ~from_c_s])
        scale = np.max(np.abs(j1), axis=(1, 2), keepdims=True)
        assert np.all(np.abs(ds.j - j1) <= 1e-15 * scale)

    def test_drift_similar_to_frequency_matrix(self, steady_case1):
        # the quadrature drift and the frequency-domain system matrix encode
        # the same dynamics: identical eigenvalue sets
        p, ss, cpl = steady_case1
        ds = am.build_drift(p, cpl, ss)
        m = -am.build_matrix(p, cpl, ss, 0.0)
        ev_j = np.linalg.eigvals(ds.j.astype(complex))
        ev_m = list(np.linalg.eigvals(m))
        scale = max(np.max(np.abs(ev_m)), 1.0)
        # compare as multisets: greedy nearest-match
        for lam in ev_j:
            k = int(np.argmin(np.abs(np.array(ev_m) - lam)))
            assert abs(ev_m[k] - lam) <= 1e-8 * scale
            ev_m.pop(k)


class TestSteadyCovariance:
    def test_decoupled_vacuum_blocks(self, default_params):
        p = default_params.replace(
            delta=0.5 * default_params.omega_m,
            gamma_a=default_params.kappa,
        )
        ds = am.build_drift(p, _couplings_zero(), _vacuum_ss())
        v = am.steady_covariance(ds)
        np.testing.assert_allclose(v[2:, 2:], 0.5 * np.eye(4), atol=1e-10)
        np.testing.assert_allclose(v[:2, :2], 0.5 * np.eye(2), atol=1e-10)

    def test_thermal_mechanical_occupation(self, default_params):
        # the bath temperature at which omega_m holds n = 3.5 phonons
        n = 3.5
        t = HBAR * default_params.omega_m / (K_BOLTZMANN * np.log1p(1.0 / n))
        p = default_params.replace(delta=0.5 * default_params.omega_m, temperature=t)
        ds = am.build_drift(p, _couplings_zero(), _vacuum_ss())
        v = am.steady_covariance(ds)
        np.testing.assert_allclose(v[0, 0], n + 0.5, rtol=1e-9)
        np.testing.assert_allclose(v[1, 1], n + 0.5, rtol=1e-9)

    def test_unstable_is_nan(self, default_params):
        p = default_params.replace(delta=0.0, gamma_m=-1.0)  # bypass validate on purpose
        ds = am.build_drift(p, _couplings_zero(), _vacuum_ss())
        v = am.steady_covariance(ds)
        assert v.shape == (6, 6)
        assert np.all(np.isnan(v))

    def test_sweep_peak_memory(self, default_params):
        # the 500-point case-1, G = 25 kappa sweep solves its 488 stable
        # drifts as one 1.6 MiB stack of 21x21 systems; one more temporary
        # of the stack's size would push the peak past 4 MiB
        p = default_params.with_case(1.0, 1.0)
        p = p.replace(coupling_G=25 * p.kappa, delta=np.linspace(0.0, 3.0, 500) * p.omega_m)
        ss = am.fixed_point(p)
        ds = am.build_drift(p, am.derive_couplings(p, ss), ss)
        am.steady_covariance(ds)  # fills the index-map cache
        tracemalloc.start()
        try:
            v = am.steady_covariance(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(v).all(axis=(1, 2)).sum() == 488
        assert peak <= 3.3 * 2**20

    def test_residual_on_fig_case(self, default_params):
        p = default_params.replace(delta=1.22 * default_params.omega_m)
        ss = am.fixed_point(p)
        ds = am.build_drift(p, am.derive_couplings(p, ss), ss)
        v = am.steady_covariance(ds)
        scale = np.max(np.abs(ds.j))
        res = np.max(np.abs(ds.j / scale @ v + v @ ds.j.T / scale + ds.d / scale))
        assert res <= 1e-9 * np.max(np.abs(ds.d / scale))

    def test_frequency_integral_oracle(self, default_params):
        # independent route to the stationary covariance: integrate the
        # noise-response spectral density over frequency, resolving each
        # resonance, and compare with the Lyapunov solution
        p = default_params.replace(delta=1.22 * default_params.omega_m)
        ss = am.fixed_point(p)
        ds = am.build_drift(p, am.derive_couplings(p, ss), ss)
        v_lyap = am.steady_covariance(ds)

        scale = np.max(np.abs(ds.j))
        j = ds.j / scale
        d = ds.d / scale
        pieces = [np.linspace(-3.0, 3.0, 12001)]
        for lam in np.linalg.eigvals(j):
            hw = max(abs(lam.real), 1e-9)
            pieces.append(np.linspace(lam.imag - 60 * hw, lam.imag + 60 * hw, 20001))
        back = np.logspace(np.log10(3.0), 6, 1500)
        pieces += [back, -back]
        w = np.unique(np.concatenate(pieces))

        resolvents = np.linalg.inv(
            1j * w[:, None, None] * np.eye(6) - j[None, :, :]
        )
        integrand = np.einsum(
            "kij,jl,kml->kim", resolvents, d, resolvents.conj()
        ).real
        v_freq = np.trapezoid(integrand, w, axis=0) / (2 * np.pi)

        err = np.max(np.abs(v_lyap - v_freq)) / np.max(np.abs(v_lyap))
        assert err <= 1e-5
        assert am.log_negativity(v_freq).nu == pytest.approx(
            am.log_negativity(v_lyap).nu, rel=1e-5
        )


class TestLogNegativity:
    def test_vacuum_no_entanglement(self):
        r = am.log_negativity(0.5 * np.eye(6))
        assert r.nu == pytest.approx(0.5, abs=1e-12)
        assert r.e_n == 0.0

    def test_unphysical_covariance_is_unstable(self):
        # the symplectic constraints fail, so there is no eigenvalue to
        # report: the point reads as unstable, as it would in a sweep
        v = np.eye(6)
        v[0, 2] = v[2, 0] = 5.0
        r = am.log_negativity(v, 1.5)
        assert r == am.EntanglementResult(1.5, stable=False, e_n=None, nu=None)

    def test_zero_determinant_covariance_is_unstable(self):
        # nu would clamp to 0 and give E_N = -log(0) with a divide warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = am.log_negativity(np.diag([1.0, 0.0, 1.0, 1.0, 0.5, 0.5]))
        assert r.stable is False and r.e_n is None and r.nu is None

    def test_underflowing_nu_is_a_named_overflow(self, default_params):
        # a long cavity on a hot bath: the mirror's variance is 3e194 and
        # the cavity's about 1, and nu underflows to 0 at a stable point.
        # E_N = -ln(2 nu) would be inf, with a divide warning.
        p = default_params.replace(cavity_length=2.8457935238249142e150,
                                   temperature=6.336390961795874e191)
        ss = am.fixed_point(p)
        v = am.steady_covariance(am.build_drift(p, am.derive_couplings(p, ss), ss))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=r"^log-negativity E_N = -ln\(2 nu\) "
                               r"overflows at nu = 0$"):
                am.log_negativity(v)

    def test_two_mode_squeezed_injection(self):
        r = 0.5
        ch, sh = np.cosh(2 * r), np.sinh(2 * r)
        z = np.diag([1.0, -1.0])
        v = 0.5 * np.eye(6)
        v[:4, :4] = 0.5 * np.block([[ch * np.eye(2), sh * z], [sh * z, ch * np.eye(2)]])
        res = am.log_negativity(v)
        # analytic log-negativity for a two-mode squeezed state: 2r
        assert res.e_n == pytest.approx(1.0, rel=1e-10)

    def test_no_radiation_pressure_no_entanglement(self, default_params):
        p = default_params.replace(delta=1.2 * default_params.omega_m)
        ss = am.fixed_point(p)
        cpl = am.derive_couplings(p, ss)
        from dataclasses import replace

        cpl0 = replace(cpl, g0=0.0)
        ds = am.build_drift(p, cpl0, ss)
        v = am.steady_covariance(ds)
        assert am.log_negativity(v).e_n == pytest.approx(0.0, abs=1e-12)

    def test_partial_transpose_side_symmetry(self):
        # flipping the optical momentum instead of the mechanical one gives
        # the same smallest symplectic eigenvalue
        from conftest import random_covariance, symplectic_nu_oracle

        rng = np.random.default_rng(8)
        for _ in range(25):
            v = random_covariance(rng)
            nu_mech = symplectic_nu_oracle(v)
            flip = np.diag([1.0, 1.0, 1.0, -1.0])
            omega2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
            omega = np.block([[omega2, np.zeros((2, 2))], [np.zeros((2, 2)), omega2]])
            vt = flip @ v @ flip
            nu_opt = float(np.min(np.abs(np.linalg.eigvals(1j * omega @ vt))))
            assert nu_mech == pytest.approx(nu_opt, rel=1e-9)
            assert am.symplectic_nu(v) == pytest.approx(nu_mech, abs=1e-9)

    def test_bona_fide_reduced_covariance(self, default_params):
        p = default_params.replace(delta=1.22 * default_params.omega_m)
        ss = am.fixed_point(p)
        ds = am.build_drift(p, am.derive_couplings(p, ss), ss)
        v = am.steady_covariance(ds)
        nus = symplectic_spectrum(v[:4, :4])
        assert np.all(nus >= 0.5 - 1e-9)


class TestDetuningSweep:
    def test_empty_grid(self, default_params):
        table = am.detuning_sweep(default_params, [])
        assert table.delta_over_omega_m.shape == table.e_n.shape == table.nu.shape == (0,)

    def test_rows_have_detunings_and_flags(self, default_params):
        p = default_params
        grid = np.linspace(0.2, 2.0, 7) * p.omega_m
        table = am.detuning_sweep(p, grid)
        assert table.delta_over_omega_m == pytest.approx(grid / p.omega_m)
        stable = table.stable
        assert np.all(table.e_n[stable] >= 0.0)
        # NaN marks an unstable point in both columns, and only there
        np.testing.assert_array_equal(np.isfinite(table.e_n), stable)
        np.testing.assert_array_equal(np.isfinite(table.nu), stable)
        # an excitation root out of floating-point reach (its quartic
        # overflows) fails the sweep and the single point alike
        q = p.replace(delta_r=1e200)
        with pytest.raises(OverflowError, match="delta_r = 1e\\+200, gamma_r = 1$"):
            am.detuning_sweep(q, grid)
        with pytest.raises(OverflowError, match="delta_r = 1e\\+200, gamma_r = 1$"):
            am.entanglement_at(q)

    def test_matches_pointwise_entanglement_at(self, default_params):
        # the stacked sweep against batches of one, on a grid whose low
        # detunings are unstable
        p = default_params
        grid = np.linspace(0.0, 0.3, 13) * p.omega_m
        table = am.detuning_sweep(p, grid)
        rows = [am.entanglement_at(p.replace(delta=float(d))) for d in grid]
        assert list(table.delta_over_omega_m) == [r.delta_over_omega_m for r in rows]
        assert list(table.stable) == [r.stable for r in rows]
        np.testing.assert_array_equal(table.nu, [np.nan if r.nu is None else r.nu for r in rows])
        np.testing.assert_array_equal(
            table.e_n, [np.nan if r.e_n is None else r.e_n for r in rows]
        )
        assert 0 < sum(table.stable) < len(rows)

    def test_matches_scalar_covariance_chain(self, default_params):
        # the array pass against steady_covariance -> symplectic_nu on each
        # point's own (6, 6) drift, built from scalar arithmetic
        p, grid = _fig3b_case8(default_params)
        table = am.detuning_sweep(p, grid)
        want = np.array(
            [am.symplectic_nu(am.steady_covariance(ds)[:4, :4]) for ds in _scalar_drifts(p, grid)]
        )
        np.testing.assert_array_equal(table.stable, np.isfinite(want))
        assert 0 < np.sum(table.stable) < len(grid)
        np.testing.assert_allclose(table.nu, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("temperature", [10.0, 300.0, 1e100])
    def test_hot_mirror_nu_matches_eigen_oracle(self, default_params, temperature):
        # a hot mirror pulls the two symplectic eigenvalues far apart; nu
        # must not cancel: the eigenvalue oracle at 1e-9 on the stable rows
        # of case 1 at 25 kappa and case 8 at 100 kappa, and a row is
        # stable exactly where its drift is Hurwitz
        grid = np.linspace(0.0, 3.0, 500) * default_params.omega_m
        case1 = default_params.replace(coupling_G=25 * default_params.kappa)
        case8, _ = _fig3b_case8(default_params)
        for p in (case1, case8):
            p = p.replace(temperature=temperature)
            table = am.detuning_sweep(p, grid)
            pa = p.replace(delta=grid)
            ss = am.fixed_point(pa)
            ds = am.build_drift(pa, am.derive_couplings(pa, ss), ss)
            np.testing.assert_array_equal(table.stable, hurwitz_flags(ds.j)[0])
            v = am.steady_covariance(ds)
            for nu, v4 in zip(table.nu[table.stable], v[table.stable, :4, :4]):
                want = symplectic_nu_oracle(v4)
                assert abs(nu - want) <= 1e-9 * want, (temperature, nu, want)

    def test_entanglement_dies_at_large_detuning(self, default_params):
        p = default_params
        table = am.detuning_sweep(p, [8.0 * p.omega_m])
        assert table.stable[0]
        assert table.e_n[0] == pytest.approx(0.0, abs=1e-4)


class TestOptomechanicalLimit:
    """With the atoms decoupled (g1 = g2 = g3 = 0, delta_a' = 0) and a real
    c_s held fixed over the sweep, the model is the driven optomechanical
    cavity of Vitali et al., PRL 98, 030405 (2007): E_N peaks on the stable
    side near delta = omega_m, and the peak moves down in delta as the
    coupling sqrt(2) g0 c_s grows."""

    GRID = np.linspace(0.0, 3.0, 3001)

    @staticmethod
    def _oracle_nu(p, g_om, delta):
        """nu from a separately written 4x4 (x, p, X, Y) drift, its Lyapunov
        equation solved by SciPy; None where the drift is unstable."""
        linalg = pytest.importorskip("scipy.linalg")
        wm, k = p.omega_m, p.kappa
        j = np.array([
            [0.0, wm, 0.0, 0.0],
            [-wm, -p.gamma_m, g_om, 0.0],
            [0.0, 0.0, -k, delta],
            [g_om, 0.0, -delta, -k],
        ])
        if not eig_stable(j):
            return None
        d = np.diag([0.0, p.gamma_m, k, k])
        return symplectic_nu_oracle(linalg.solve_continuous_lyapunov(j, -d))

    @pytest.mark.parametrize(
        "g_over_omega_m, peak_e_n, peak_delta",
        [(0.1, 0.0488, 0.941), (0.3, 0.1488, 0.831), (0.45, 0.2307, 0.725)],
    )
    def test_matches_four_mode_oracle_and_peaks(
        self, default_params, g_over_omega_m, peak_e_n, peak_delta
    ):
        p = default_params.replace(delta=self.GRID * default_params.omega_m)
        g_om = g_over_omega_m * p.omega_m
        # g0 = 1, so c_s alone sets the optomechanical coupling sqrt(2) g0 c_s
        cpl = DerivedCouplings(g0=1.0, g1=0j, g2=0j, g3=0j, delta_a_prime=0.0)
        ss = SteadyState(beta=0j, excitation=0.0, c_s=complex(g_om / np.sqrt(2.0)),
                         x_s=0.0, p_s=0.0, residual=0.0, branch_count=1)
        nu = am.symplectic_nu(am.steady_covariance(am.build_drift(p, cpl, ss))[:, :4, :4])
        for i in range(0, len(self.GRID), 150):
            want = self._oracle_nu(p, g_om, p.delta[i])
            if want is None:
                assert np.isnan(nu[i])
            else:
                assert nu[i] == pytest.approx(want, rel=1e-12, abs=0.0)
        e_n = np.maximum(0.0, -np.log(2.0 * nu))
        k = np.nanargmax(e_n)
        assert e_n[k] == pytest.approx(peak_e_n, abs=1e-4)
        assert self.GRID[k] == pytest.approx(peak_delta, abs=1e-9)
