import numpy as np
import pytest

import atomoptomech as am


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
        # residual and its distance from a duplicate scale with it, and its
        # fourth power overflows from delta_r ~ 1e77
        for dr in (1e5, 1e50, 1e100):
            roots = am.solve_beta(dr, 1.0)
            assert len(roots) == 2
            assert roots[0].real == pytest.approx(-1.0 / dr, rel=1e-9)
            assert roots[1].real == pytest.approx(2.0 * dr / 3.0, rel=1e-9)

    def test_overflowing_coefficients_raise(self):
        with pytest.raises(am.NoRoot):
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


class TestSelfConsistentRates:
    def test_zero_coupling_rates(self, default_params):
        # with no atom-cavity coupling the rates are bare ratios
        p = default_params.replace(coupling_G=0.0, chi=2e9, delta_a=3e8)
        drive = 2e9 / np.sqrt(p.n_atoms)
        dr, gr, beta = am.self_consistent_rates(p)
        assert dr == pytest.approx(3e8 / drive, rel=1e-12)
        assert gr == pytest.approx(p.gamma_a / drive, rel=1e-12)
        assert beta == am.solve_beta(dr, gr)[0]

    def test_roundtrip_to_unit_rates(self, default_params):
        # choose (delta_a, chi) so the definitions reproduce delta_r = gamma_r = 1
        p0 = default_params
        beta = am.solve_beta(1.0, 1.0)[0]
        exc = abs(beta) ** 2
        lor = p0.coupling_G**2 * p0.delta / (p0.kappa**2 + p0.delta**2)
        drive = p0.gamma_a + lor * (1 - exc)  # gamma_r = 1
        delta_a = drive + lor * (1 - 2 * exc)  # delta_r = 1
        p = p0.replace(chi=drive * np.sqrt(p0.n_atoms), delta_a=delta_a)
        dr, gr, b = am.self_consistent_rates(p, initial_beta=beta)
        assert dr == pytest.approx(1.0, rel=1e-6)
        assert gr == pytest.approx(1.0, rel=1e-6)
        assert abs(b - beta) < 1e-6

    def test_relaxation_same_fixed_point(self, default_params):
        # positive detuning keeps the alternating iteration contractive
        p0 = default_params.replace(delta=1.22 * default_params.omega_m)
        beta = am.solve_beta(1.0, 1.0)[0]
        exc = abs(beta) ** 2
        lor = p0.coupling_G**2 * p0.delta / (p0.kappa**2 + p0.delta**2)
        drive = p0.gamma_a + lor * (1 - exc)
        delta_a = drive + lor * (1 - 2 * exc)
        p = p0.replace(chi=drive * np.sqrt(p0.n_atoms), delta_a=delta_a)
        undamped = am.self_consistent_rates(p, initial_beta=0.8 * beta)
        damped = am.self_consistent_rates(p, initial_beta=0.8 * beta, relaxation=0.5)
        assert undamped[0] == pytest.approx(damped[0], rel=1e-6)
        assert undamped[1] == pytest.approx(damped[1], rel=1e-6)
        assert abs(undamped[2] - damped[2]) < 1e-6
        assert undamped[0] == pytest.approx(1.0, rel=1e-6)
        assert undamped[1] == pytest.approx(1.0, rel=1e-6)

    def test_requires_microscopic_inputs(self, default_params):
        with pytest.raises(ValueError):
            am.self_consistent_rates(default_params)

    def test_delta_update_mode_runs(self, default_params):
        p0 = default_params.replace(delta=1.22 * default_params.omega_m)
        beta = am.solve_beta(1.0, 1.0)[0]
        exc = abs(beta) ** 2
        lor = p0.coupling_G**2 * p0.delta / (p0.kappa**2 + p0.delta**2)
        drive = p0.gamma_a + lor * (1 - exc)
        delta_a = drive + lor * (1 - 2 * exc)
        p = p0.replace(chi=drive * np.sqrt(p0.n_atoms), delta_a=delta_a)
        dr, gr, b = am.self_consistent_rates(p, initial_beta=beta, update_delta=True)
        # the static displacement shift is tiny here, so the rates barely move
        assert dr == pytest.approx(1.0, rel=1e-3)
        assert gr == pytest.approx(1.0, rel=1e-3)
