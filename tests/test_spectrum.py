import warnings

import numpy as np
import pytest

import atomoptomech as am
from atomoptomech.params import DerivedCouplings
from atomoptomech.selfcheck import random_stable_operating_point
from atomoptomech.spectrum import _output_map, thermal_factor, transfer_pair
from atomoptomech.steadystate import SteadyState


def _closed_form_s(p, cpl, ss, w):
    """S at w from the closed-form transfer coefficients at +-w; NaN at a pole."""
    try:
        tp = am.transfer_closed_form(p, cpl, ss, w)
        tm = am.transfer_closed_form(p, cpl, ss, -w)
    except am.PoleAtOmega:
        return np.nan
    th = float(thermal_factor(p, w))
    u = tp.a_c + tp.c_c
    v = tm.b_c + tm.d_c
    s = (
        abs(u) ** 2 + abs(v) ** 2 + (abs(tp.f_c) ** 2 + abs(tm.f_c) ** 2) * th
        - 2.0 * abs(u * v + tp.f_c * tm.f_c * th)
    )
    return max(0.0, s)


# The swap a <-> a+, c <-> c+ of the complex basis.
SWAP = [1, 0, 3, 2, 4, 5]
COEFFS = ("a_c", "b_c", "c_c", "d_c", "f_c")


def _panel_point(default_params, case, g, delta=-1.0):
    """Parameters, steady state and couplings of a fig2 panel's column, or
    of the same point at another detuning ``delta`` in units of omega_m."""
    p = default_params.with_case(case, case).replace(
        coupling_G=g * default_params.kappa, delta=delta * default_params.omega_m
    )
    ss = am.fixed_point(p)
    return p, ss, am.derive_couplings(p, ss)


def _zero_coupling(default_params):
    p = default_params.replace(coupling_G=0.0, temperature=0.0)
    ss = am.fixed_point(p)
    return p, ss, am.derive_couplings(p, ss)


class TestBuildMatrix:
    def test_shorthand_entries(self, steady_case1):
        p, ss, cpl = steady_case1
        w = 0.7 * p.omega_m
        fm = am.build_matrix(p, cpl, ss, w)
        assert fm[0, 0] == pytest.approx(p.kappa + 1j * (p.delta - w))
        assert fm[1, 1] == pytest.approx(p.kappa - 1j * (p.delta + w))
        assert fm[2, 2] == pytest.approx(p.gamma_a + 1j * (cpl.delta_a_prime - w))
        assert fm[3, 3] == pytest.approx(p.gamma_a - 1j * (cpl.delta_a_prime + w))

    @pytest.mark.parametrize("case, g", [(1.0, 25.0), (2.5, 60.0), (8.0, 100.0)])
    def test_every_entry(self, default_params, case, g):
        # each entry of the Langevin equations in the complex basis, written
        # out from the couplings; the matrix is built from the drift, so a
        # slip in the basis map or the signs shows here
        p = default_params.with_case(case, case).replace(coupling_G=g * default_params.kappa)
        ss = am.fixed_point(p)
        cpl = am.derive_couplings(p, ss)
        g1, g2, g3 = complex(cpl.g1), complex(cpl.g2), complex(cpl.g3)
        g0cs = cpl.g0 * complex(ss.c_s)
        wm, gm, da = p.omega_m, p.gamma_m, cpl.delta_a_prime
        w = np.linspace(-2.0, 2.0, 9) * p.omega_m
        fm = am.build_matrix(p, cpl, ss, w)
        assert fm.shape == (9, 6, 6)
        for k, wk in enumerate(w):
            want = np.zeros((6, 6), dtype=complex)
            want[0] = [p.kappa + 1j * (p.delta - wk), 0, 1j * g2, -1j * g3, -1j * g0cs, 0]
            want[1] = [0, p.kappa - 1j * (p.delta + wk), 1j * np.conj(g3), -1j * np.conj(g2),
                       1j * np.conj(g0cs), 0]
            want[2] = [1j * g2, -1j * g3, p.gamma_a + 1j * (da - wk), -1j * g1, 0, 0]
            want[3] = [1j * np.conj(g3), -1j * np.conj(g2), 1j * np.conj(g1),
                       p.gamma_a - 1j * (da + wk), 0, 0]
            want[4] = [0, 0, 0, 0, -1j * wk, -wm]
            want[5] = [-np.conj(g0cs), -g0cs, 0, 0, wm, gm - 1j * wk]
            assert np.all((fm[k] == 0) == (want == 0))
            assert np.max(np.abs(fm[k] - want)) <= 1e-15 * np.max(np.abs(want))

    def test_mirror_momentum_row(self, steady_case1):
        p, ss, cpl = steady_case1
        fm = am.build_matrix(p, cpl, ss, 0.3 * p.omega_m)
        g0cs = cpl.g0 * ss.c_s
        assert fm[5, 0] == pytest.approx(-np.conj(g0cs))
        assert fm[5, 1] == pytest.approx(-g0cs)
        assert fm[5, 4] == pytest.approx(p.omega_m)

    def test_sparsity_pattern(self, steady_case1):
        p, ss, cpl = steady_case1
        fm = am.build_matrix(p, cpl, ss, 0.9 * p.omega_m)
        expected_zero = [
            (0, 1), (0, 5), (1, 0), (1, 5),
            (2, 4), (2, 5), (3, 4), (3, 5),
            (4, 0), (4, 1), (4, 2), (4, 3),
            (5, 2), (5, 3),
        ]
        for i, j in expected_zero:
            assert fm[i, j] == 0

    def test_decoupled_limit_block_diagonal(self, default_params):
        p, ss, cpl = _zero_coupling(default_params)
        fm = am.build_matrix(p, cpl, ss, 0.0)
        assert fm[0, 2] == 0 and fm[0, 4] == 0
        assert fm[0, 0] == pytest.approx(p.kappa + 1j * p.delta)
        assert fm[1, 1] == pytest.approx(p.kappa - 1j * p.delta)

    def test_frequency_reflection_symmetry(self, default_params):
        # conj(A(-w)) = P A(w) P with P the swap a <-> a+, c <-> c+, to the
        # last bit: the spectrum reads its -w coefficients off this
        w = np.concatenate((np.linspace(-2.0, 2.0, 41), np.linspace(0.5, 1.5, 200)))
        for case in (1.0, 2.5, 8.0):
            for g in (25.0, 100.0):
                p, ss, cpl = _panel_point(default_params, case, g)
                plus = am.build_matrix(p, cpl, ss, w * p.omega_m)
                minus = am.build_matrix(p, cpl, ss, -w * p.omega_m)
                assert np.array_equal(np.conj(minus), plus[..., SWAP, :][..., :, SWAP])


class TestTransferRoutes:
    def test_empty_cavity_reflection_unimodular(self, default_params):
        p, ss, cpl = _zero_coupling(default_params)
        for w in np.linspace(0.5, 1.5, 9) * p.omega_m:
            t = am.transfer_direct(p, cpl, ss, w)
            assert abs(t.a_c) == pytest.approx(1.0, abs=1e-12)
            assert abs(t.b_c) == 0 and abs(t.c_c) == 0 and abs(t.d_c) == 0 and abs(t.f_c) == 0

    def test_cross_route_agreement_random(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            p, ss, cpl = random_stable_operating_point(rng)
            w = rng.uniform(-2.0, 2.0) * p.omega_m
            td = am.transfer_direct(p, cpl, ss, w)
            tc = am.transfer_closed_form(p, cpl, ss, w)
            for a, b in ((td.a_c, tc.a_c), (td.b_c, tc.b_c), (td.c_c, tc.c_c),
                         (td.d_c, tc.d_c), (td.f_c, tc.f_c)):
                assert abs(a - b) <= 1e-8 * max(abs(a), abs(b), 1e-12)

    def test_smoke_on_resonance(self, default_params):
        p = default_params.replace(coupling_G=25 * default_params.kappa)
        ss = am.fixed_point(p)
        cpl = am.derive_couplings(p, ss)
        t = am.transfer_direct(p, cpl, ss, p.omega_m)
        for v in (t.a_c, t.b_c, t.c_c, t.d_c, t.f_c):
            assert np.isfinite(v.real) and np.isfinite(v.imag)

    def test_zero_radiation_pressure_kills_thermal_channel(self, steady_case1):
        p, ss, cpl = steady_case1
        no_rp = DerivedCouplings(
            g0=0.0, g1=cpl.g1, g2=cpl.g2, g3=cpl.g3, delta_a_prime=cpl.delta_a_prime,
        )
        t = am.transfer_closed_form(p, no_rp, ss, 0.8 * p.omega_m)
        assert t.f_c == 0

    def test_zero_cavity_amplitude_kills_thermal_channel(self, steady_case1):
        p, _, cpl = steady_case1
        ss0 = SteadyState(beta=0.1 + 0.2j, excitation=0.05, c_s=0j,
                          x_s=0.0, p_s=0.0, residual=0.0, branch_count=1)
        t = am.transfer_closed_form(p, cpl, ss0, 0.8 * p.omega_m)
        assert t.f_c == 0

    def test_pole_raises(self, default_params):
        # a lossless cavity driven exactly on its detuning zeroes the first
        # row of the system matrix
        p = default_params.replace(kappa=0.0, coupling_G=0.0, delta=0.9 * default_params.omega_m)
        ss = am.fixed_point(p)
        cpl = am.derive_couplings(p, ss)
        with pytest.raises(am.PoleAtOmega):
            am.transfer_direct(p, cpl, ss, 0.9 * default_params.omega_m)

    def test_closed_form_pole_raises_without_warnings(self, default_params):
        # the closed-form route divides by its vanishing determinant at the
        # same pole; that must surface as PoleAtOmega alone, with no NumPy
        # RuntimeWarning on the way
        p = default_params.replace(kappa=0.0, coupling_G=0.0, delta=0.9 * default_params.omega_m)
        ss = am.fixed_point(p)
        cpl = am.derive_couplings(p, ss)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(am.PoleAtOmega):
                am.transfer_closed_form(p, cpl, ss, 0.9 * default_params.omega_m)


class TestTransferPair:
    @pytest.mark.parametrize("case", [1.0, 2.5, 8.0])
    @pytest.mark.parametrize("g", [25.0, 100.0])
    def test_both_signs_match_their_own_solves(self, default_params, case, g):
        # +w is transfer_direct(w) bit for bit; -w, read off the +w
        # factorization, matches the solve at -w to rounding and the
        # closed-form route at criterion 2's tolerance
        p, ss, cpl = _panel_point(default_params, case, g)
        w = np.linspace(0.5, 1.5, 101) * p.omega_m
        tp, tm = transfer_pair(p, cpl, ss, w)
        direct_p = am.transfer_direct(p, cpl, ss, w)
        direct_m = am.transfer_direct(p, cpl, ss, -w)
        for name in COEFFS:
            assert np.array_equal(getattr(tp, name), getattr(direct_p, name))
            a, b = getattr(tm, name), getattr(direct_m, name)
            assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(np.abs(a), np.abs(b)))
        for k in range(0, len(w), 10):
            tc = am.transfer_closed_form(p, cpl, ss, -w[k])
            for name in COEFFS:
                a, b = getattr(tm, name)[k], getattr(tc, name)
                assert abs(a - b) <= 1e-8 * max(abs(a), abs(b), 1e-12)

    @pytest.mark.parametrize(
        "case, delta, g", [(2.5, -1.0, 25.0), (2.5, -1.0, 100.0), (8.0, 1.0, 100.0)]
    )
    def test_against_a_40_digit_solve(self, default_params, case, delta, g):
        # rows 1 and 2 of A(w)^-1 from mpmath's LU at 40 digits, at the
        # spectrum-panel point and at the point where the atomic detuning
        # most outweighs the other rates: the coefficients at +-w to 1e-12
        # relative, and S to 1e-12 of |u|^2 + |v|^2
        mpmath = pytest.importorskip("mpmath")
        p, ss, cpl = _panel_point(default_params, case, g, delta)
        w = np.linspace(0.5, 1.5, 20) * p.omega_m
        tp, tm = transfer_pair(p, cpl, ss, w)
        s = am.output_spectrum(p, cpl, ss, w)
        a = am.build_matrix(p, cpl, ss, w)
        for k in range(len(w)):
            with mpmath.workdps(40):
                at = mpmath.matrix(a[k].T.tolist())
                units = [mpmath.matrix([float(i == j) for i in range(6)]) for j in (0, 1)]
                rows = [mpmath.lu_solve(at, e) for e in units]
                rows = np.array([[complex(x) for x in row] for row in rows])
            want_p, want_m = _output_map(p, rows[0]), _output_map(p, rows[1, SWAP].conj())
            for got, want in ((tp, want_p), (tm, want_m)):
                for name in COEFFS:
                    g_k, w_k = getattr(got, name)[k], getattr(want, name)
                    assert abs(g_k - w_k) <= 1e-12 * abs(w_k)
            u, v = want_p.a_c + want_p.c_c, want_m.b_c + want_m.d_c
            scale = abs(u) ** 2 + abs(v) ** 2
            assert thermal_factor(p, w[k]) == 0.0
            assert abs(s[k] - max(0.0, scale - 2.0 * abs(u * v))) <= 1e-12 * max(1.0, scale)

    def test_one_frequency_and_its_pole(self, default_params):
        p, ss, cpl = _panel_point(default_params, 2.5, 50.0)
        tp, tm = transfer_pair(p, cpl, ss, 0.8 * p.omega_m)
        assert type(tp.a_c) is np.complex128 and type(tm.f_c) is np.complex128
        p = default_params.replace(kappa=0.0, coupling_G=0.0, delta=0.9 * default_params.omega_m)
        ss = am.fixed_point(p)
        cpl = am.derive_couplings(p, ss)
        with pytest.raises(am.PoleAtOmega):
            transfer_pair(p, cpl, ss, 0.9 * default_params.omega_m)


class TestOutputSpectrum:
    def test_scalar_pole_raises(self, default_params):
        # the lossless-cavity pole of test_pole_raises, through the spectrum
        p = default_params.replace(kappa=0.0, coupling_G=0.0, delta=0.9 * default_params.omega_m)
        ss = am.fixed_point(p)
        cpl = am.derive_couplings(p, ss)
        with pytest.raises(am.PoleAtOmega):
            am.output_spectrum(p, cpl, ss, 0.9 * default_params.omega_m)

    def test_per_point_calls_equal_the_array_call(self, default_params):
        # a scalar frequency is a one-element array, so it rounds like its
        # entry of the whole grid, in the last bit too
        p = default_params.with_case(2.5, 2.5).replace(
            coupling_G=50.0 * default_params.kappa, delta=-default_params.omega_m
        )
        ss = am.fixed_point(p)
        cpl = am.derive_couplings(p, ss)
        grid = np.linspace(0.5, 1.5, 200) * p.omega_m
        one = [am.output_spectrum(p, cpl, ss, w) for w in grid]
        assert all(type(s) is np.float64 for s in one)
        np.testing.assert_array_equal(one, am.output_spectrum(p, cpl, ss, grid))

    def test_shot_noise_floor(self, default_params):
        p, ss, cpl = _zero_coupling(default_params)
        for w in np.linspace(0.5, 1.5, 25) * p.omega_m:
            s = am.output_spectrum(p, cpl, ss, w)
            assert s == pytest.approx(1.0, abs=1e-10)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            p, ss, cpl = random_stable_operating_point(rng)
            p = p.replace(temperature=rng.choice([0.0, 1e-4, 1e-2]))
            for w in rng.uniform(0.2, 1.8, size=6) * p.omega_m:
                assert am.output_spectrum(p, cpl, ss, w) >= 0.0

    def test_scale_invariance(self, default_params):
        # same dimensionless spectrum when every rate, the frequency and the
        # temperature are scaled together (couplings rebuilt consistently)
        p = default_params
        ss = am.fixed_point(p)
        cpl = am.derive_couplings(p, ss)
        s = 3.7
        p2 = p.replace(
            omega_m=s * p.omega_m, kappa=s * p.kappa, gamma_a=s * p.gamma_a,
            gamma_m=s * p.gamma_m, coupling_G=s * p.coupling_G, delta=s * p.delta,
            temperature=s * p.temperature,
        )
        ss2 = am.fixed_point(p2)
        assert ss2.beta == pytest.approx(ss.beta, rel=1e-12)
        assert ss2.c_s == pytest.approx(ss.c_s, rel=1e-12)
        cpl2 = am.derive_couplings(p2, ss2)
        # the single-photon coupling scales with its own formula, so pin it
        # to the scaled value for the comparison
        from dataclasses import replace

        cpl2 = replace(cpl2, g0=s * cpl.g0)
        for w in (0.6, 1.0, 1.4):
            s1 = am.output_spectrum(p, cpl, ss, w * p.omega_m)
            s2 = am.output_spectrum(p2, cpl2, ss2, w * p2.omega_m)
            assert s2 == pytest.approx(s1, rel=1e-9)

    def test_thermal_factor_zero_frequency_limit(self, default_params):
        pt = default_params.replace(temperature=1e-3)
        from atomoptomech.params import HBAR, K_BOLTZMANN

        limit = 2.0 * pt.gamma_m * K_BOLTZMANN * pt.temperature / (HBAR * pt.omega_m)
        assert thermal_factor(pt, 0.0) == pytest.approx(limit, rel=1e-15)
        near = thermal_factor(pt, np.array([-1e-6, 0.0, 1e-6]) * pt.omega_m)
        np.testing.assert_allclose(near, limit, rtol=1e-5)

    def test_thermal_factor_limits(self, default_params):
        p = default_params
        from atomoptomech.spectrum import thermal_factor

        assert thermal_factor(p, 0.5 * p.omega_m) == 0.0
        assert thermal_factor(p, -0.5 * p.omega_m) == pytest.approx(
            p.gamma_m / p.omega_m * 0.5 * p.omega_m * 2.0
        )
        pt = p.replace(temperature=1e-3)
        assert thermal_factor(pt, 0.5 * p.omega_m) > 0.0
        assert thermal_factor(pt, -0.5 * p.omega_m) > 0.0

    def test_cold_weight_that_overflows_raises(self, default_params):
        # at T = 0 the negative-frequency weight -2 gamma_m w / omega_m
        # overflows as any other temperature's does: the named failure
        p = default_params.replace(gamma_m=1e300)
        message = "thermal noise weight overflows at temperature = 0 K"
        with pytest.raises(OverflowError, match=message):
            thermal_factor(p, np.array([1e300, -1e300]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert thermal_factor(p, 1e300) == 0.0


class TestSpectrumSweep:
    def test_single_point_matches_output_spectrum(self, default_params):
        p = default_params
        tab = am.spectrum_sweep(p, (25.0,), [p.omega_m])
        pp = p.replace(coupling_G=25.0 * p.kappa)
        ss = am.fixed_point(pp)
        cpl = am.derive_couplings(pp, ss)
        want = am.output_spectrum(pp, cpl, ss, p.omega_m)
        assert tab.s_out[0, 0] == pytest.approx(want, rel=1e-12)

    def test_empty_g_values(self, default_params):
        p = default_params
        tab = am.spectrum_sweep(p, (), np.linspace(0.5, 1.5, 5) * p.omega_m)
        assert tab.s_out.shape == (5, 0)

    def test_four_column_panel(self, default_params):
        p = default_params
        grid = np.linspace(0.5, 1.5, 41) * p.omega_m
        tab = am.spectrum_sweep(p, (25.0, 50.0, 75.0, 100.0), grid)
        assert tab.s_out.shape == (41, 4)
        assert np.all(np.isfinite(tab.s_out))

    @pytest.mark.parametrize("pole", [False, True], ids=["smooth", "pole-row"])
    def test_matches_closed_form_route(self, default_params, pole):
        # the batched sweep against S assembled point by point from the
        # closed-form route at +-omega; a lossless cavity driven on its
        # detuning puts a pole row on the grid
        if pole:
            p = default_params.replace(kappa=0.0, delta=0.9 * default_params.omega_m)
            g_values = (0.0,)
        else:
            p = default_params.replace(temperature=1e-3)
            g_values = (25.0, 100.0)
        grid = np.linspace(0.0, 1.5, 31) * p.omega_m
        tab = am.spectrum_sweep(p.with_case(2.5, 2.5), g_values, grid)
        for col, g in enumerate(g_values):
            pg = p.replace(delta_r=2.5, gamma_r=2.5, coupling_G=g * p.kappa)
            ss = am.fixed_point(pg)
            cpl = am.derive_couplings(pg, ss)
            want = np.array([_closed_form_s(pg, cpl, ss, w) for w in grid])
            got = tab.s_out[:, col]
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert np.isnan(got).sum() == (1 if pole else 0)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-8)

    def test_one_factorization_per_column(self, default_params, monkeypatch):
        # each coupling's column builds one drift, reduces the system at
        # w = 0 to Hessenberg form once and makes one shifted solve over
        # the whole grid, with two right-hand sides (-w is read off them);
        # no LU runs
        from atomoptomech import entanglement, numerics, spectrum

        calls = {"hessenberg": [], "hessenberg_solve": [], "lu_solve": [], "build_drift": []}

        def counting(name, fn):
            def wrapper(*args):
                calls[name].append(tuple(np.shape(a) for a in args[:3] if hasattr(a, "shape")))
                return fn(*args)

            return wrapper

        monkeypatch.setattr(numerics, "lu_solve", counting("lu_solve", numerics.lu_solve))
        for name in ("hessenberg", "hessenberg_solve"):
            monkeypatch.setattr(spectrum, name, counting(name, getattr(spectrum, name)))
        for module in (entanglement, spectrum):
            monkeypatch.setattr(module, "build_drift", counting("build_drift", module.build_drift))
        p = default_params.with_case(2.5, 2.5)
        tab = am.spectrum_sweep(p, (25.0, 50.0, 75.0, 100.0), np.linspace(0.5, 1.5, 50) * p.omega_m)
        assert np.all(np.isfinite(tab.s_out))
        assert calls["hessenberg"] == [((6, 6),)] * 4
        assert calls["hessenberg_solve"] == [((6, 6), (6, 2), (50,))] * 4
        assert calls["lu_solve"] == []
        assert len(calls["build_drift"]) == 4

    def test_pole_rows_marked_null_sweep_continues(self, default_params):
        p = default_params.replace(kappa=0.0, delta=0.9 * default_params.omega_m)
        w_pole = 0.9 * default_params.omega_m
        tab = am.spectrum_sweep(
            p, (0.0,), [0.8 * p.omega_m, w_pole, 1.0 * p.omega_m]
        )
        assert np.isnan(tab.s_out[1, 0])
        assert np.isfinite(tab.s_out[0, 0]) and np.isfinite(tab.s_out[2, 0])
