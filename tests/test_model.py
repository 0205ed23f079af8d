import math
import pathlib
import re

import numpy as np
import pytest

import atomoptomech as am
from atomoptomech.params import infer_drive
from atomoptomech.steadystate import SteadyState


def _ss(beta, c_s):
    return SteadyState(
        beta=beta,
        excitation=abs(beta) ** 2,
        c_s=c_s,
        x_s=0.0,
        p_s=0.0,
        residual=0.0,
        branch_count=1,
    )


class _Pair:
    """x + iy held as the pair (x, y) of real quantities, so that a complex
    step can perturb x and y apart.  Any other operand is a real number."""

    __array_ufunc__ = None  # an array operand defers to the reflected method

    def __init__(self, re, im=0.0):
        self.re, self.im = re, im

    def __add__(self, o):
        o = o if isinstance(o, _Pair) else _Pair(o)
        return _Pair(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return _Pair(-self.re, -self.im)

    def __sub__(self, o):
        return self + -(o if isinstance(o, _Pair) else _Pair(o))

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        o = o if isinstance(o, _Pair) else _Pair(o)
        return _Pair(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def conj(self):
        return _Pair(self.re, -self.im)


_I = _Pair(0.0, 1.0)
_SQRT_HALF = math.sqrt(0.5)


def _mean_field_terms(p, drive, delta_a, x_s, z):
    """The terms of each mean-field equation, as written, at the state
    z = (x, q, sqrt(2) Re c, sqrt(2) Im c, sqrt(2) Re b, sqrt(2) Im b): one
    list for each of the mirror position x and momentum q, the cavity
    amplitude c and the collective atomic amplitude b = sqrt(N) beta.  The
    cavity detuning is delta at the static displacement x_s, so
    delta - g0 (x - x_s) at x."""
    x, q = _Pair(z[0]), _Pair(z[1])
    c, b = _Pair(z[2], z[3]) * _SQRT_HALF, _Pair(z[4], z[5]) * _SQRT_HALF
    n, g, g0 = p.n_atoms, p.coupling_G, am.single_photon_coupling(p)
    e = b * b.conj() * (1.0 / n)
    return (
        [p.omega_m * q],
        [-p.omega_m * x, -p.gamma_m * q, g0 * c * c.conj()],
        [-(p.kappa + _I * (p.delta - g0 * (x - x_s))) * c, -_I * g * b * (1.0 - e * 0.5)],
        [
            -(p.gamma_a + _I * delta_a) * b,
            -_I * drive * math.sqrt(n) * (1.0 - e - b * b * (0.5 / n)),
            -_I * g * c * (1.0 - e),
            _I * g * c.conj() * b * b * (0.5 / n),
        ],
    )


def _mean_field(p, drive, delta_a, x_s, z):
    """The vector field dz/dt of :func:`_mean_field_terms`, in the real
    coordinates of z."""
    x_dot, q_dot, c_dot, b_dot = map(sum, _mean_field_terms(p, drive, delta_a, x_s, z))
    quadratures = math.sqrt(2.0) * np.array([c_dot.re, c_dot.im, b_dot.re, b_dot.im])
    return np.array([x_dot.re, q_dot.re, *quadratures])


def _steady_grid(case, g_over_kappa):
    """Parameters over 501 detunings in +-3 omega_m, and their steady state
    in the coordinates of :func:`_mean_field_terms`."""
    p = am.SystemParams().with_case(case, case)
    p = p.replace(coupling_G=g_over_kappa * p.kappa, delta=np.linspace(-3.0, 3.0, 501) * p.omega_m)
    ss = am.fixed_point(p)
    b = math.sqrt(p.n_atoms) * ss.beta * np.ones_like(ss.x_s)
    z = np.array([ss.x_s, 0.0 * ss.x_s, ss.c_s.real, ss.c_s.imag, b.real, b.imag])
    z[2:] *= math.sqrt(2.0)
    return p, ss, z


def test_public_names_resolve_once():
    names = am.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(am, name)]
    assert missing == []
    # the benchmark under perfbench/ calls the package as ``am``: every
    # public name it uses must stay exported, and so resolve
    bench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    used = {
        name
        for path in bench.glob("*.py")
        for name in re.findall(r"\bam\.([A-Za-z]\w*)", path.read_text())
    }
    assert used, "no am.<name> found under perfbench/"
    assert sorted(used - set(names)) == []


class TestDerivedCouplings:
    def test_zero_excitation_limit(self, default_params):
        ss = _ss(0j, 0j)
        cpl = am.derive_couplings(default_params, ss)
        assert cpl.g1 == 0
        assert cpl.g3 == 0
        assert cpl.g2 == pytest.approx(default_params.coupling_G)
        j = am.build_drift(default_params, cpl, ss).j
        assert j[1, 2] == 0 and j[1, 3] == 0  # g_px, g_py

    def test_single_photon_coupling_value(self, default_params):
        # frozen from an independent evaluation of
        # (2 pi c / 1064 nm) / 1 mm * sqrt(hbar / (1e-13 kg * 2 pi 4e7 rad/s))
        assert am.single_photon_coupling(default_params) == pytest.approx(
            3626.4115885929677, rel=1e-12
        )

    def test_single_photon_coupling_where_m_omega_m_underflows(self, default_params):
        # m omega_m rounds to 0, but g0 is finite: the root is the same
        # product taken 2^200 higher and the root scaled back by 2^100
        from atomoptomech.params import HBAR

        p = default_params.replace(mirror_mass=5e-324, omega_m=0.4)
        assert p.mirror_mass * p.omega_m == 0.0
        root = math.sqrt(HBAR / (p.mirror_mass * 2.0**200 * p.omega_m)) * 2.0**100
        assert am.single_photon_coupling(p) == pytest.approx(
            p.omega_c / p.cavity_length * root, rel=1e-15
        )

    def test_depletion_factor_case1(self, default_params):
        ss = am.fixed_point(default_params)
        cpl = am.derive_couplings(default_params, ss)
        assert abs(cpl.g2) / default_params.coupling_G == pytest.approx(0.745, abs=0.003)

    def test_phase_rotation_property(self, default_params):
        # rotating beta rotates g1, g3 phases per their defining products and
        # leaves |g2| unchanged
        p = default_params
        ss0 = am.fixed_point(p)
        for phi in (0.3, 1.2, 2.5):
            rot = complex(math.cos(phi), math.sin(phi))
            ss1 = _ss(ss0.beta * rot, ss0.c_s)
            c0 = am.derive_couplings(p, _ss(ss0.beta, ss0.c_s))
            c1 = am.derive_couplings(p, ss1)
            assert abs(c1.g2) == pytest.approx(abs(c0.g2), rel=1e-12)
            assert c1.g3 == pytest.approx(c0.g3 * rot * rot, rel=1e-12)
            assert c1.g1 == pytest.approx(c0.g1 * rot, rel=1e-12)

    def test_quadrature_norm_identity(self, steady_case1):
        p, ss, cpl = steady_case1
        j = am.build_drift(p, cpl, ss).j
        lhs = j[1, 2] ** 2 + j[1, 3] ** 2  # g_px^2 + g_py^2
        rhs = 2.0 * cpl.g0**2 * abs(ss.c_s) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_kappa_backaction_weight(self, default_params):
        # at zero excitation the exact backaction K is the old linewidth-
        # weighted first-order form; it departs from that form as e^2
        p = default_params
        g, k, dl = p.coupling_G, p.kappa, p.delta

        def first_order(e):
            drive = (p.gamma_a + g**2 * k / (k**2 + dl**2) * (1.0 - e)) / p.gamma_r
            lor = g**2 * dl / (k**2 + dl**2)
            return drive, p.delta_r * drive + lor * (1.0 - 2.0 * e)

        drive, delta_a = infer_drive(p, 0.0)
        want_drive, want_delta_a = first_order(0.0)
        assert drive == pytest.approx(want_drive, rel=1e-14)
        assert delta_a == pytest.approx(want_delta_a, rel=1e-14)
        gaps = []
        for e in (1e-4, 2e-4):
            got, want = infer_drive(p, e), first_order(e)
            gaps.append(np.abs(np.subtract(got, want)) / np.abs(want))
        # the gap quadruples when e doubles: second order, not first
        assert np.all(gaps[0] > 0) and np.all(gaps[0] < 1e-7)
        assert gaps[1] / gaps[0] == pytest.approx([4.0, 4.0], rel=1e-3)

    def test_deterministic(self, steady_case1):
        p, ss, _ = steady_case1
        a = am.derive_couplings(p, ss)
        b = am.derive_couplings(p, ss)
        assert a == b


class TestMeanField:
    """The linearization is about a stationary point of the mean-field
    equations it linearizes: the inferred drive zeroes them at
    fixed_point's state, and the drift is their Jacobian there."""

    @pytest.mark.parametrize("case", [1.0, 2.5, 8.0])
    def test_fixed_point_is_stationary(self, case):
        for g_over_kappa in (0.0, 25.0, 100.0):
            p, ss, z = _steady_grid(case, g_over_kappa)
            drive, delta_a = infer_drive(p, ss.excitation)
            for terms in _mean_field_terms(p, drive, delta_a, ss.x_s, z):
                size = [np.hypot(t.re, t.im) for t in terms]
                total = sum(terms)
                residual = np.hypot(total.re, total.im)
                assert np.all(residual <= 1e-12 * np.max(size, axis=0)), g_over_kappa

    @pytest.mark.parametrize("case", [1.0, 2.5, 8.0])
    def test_drift_is_the_jacobian_of_the_mean_field(self, case):
        # (drive, delta_a) solved from the atomic equation's stationarity
        # at fixed_point's state, as a real 2x2 system per detuning, and the
        # Jacobian by complex step: neither shares derive_couplings' algebra
        h = 1e-100
        for g_over_kappa in (0.0, 25.0, 100.0):
            p, ss, z = _steady_grid(case, g_over_kappa)
            # the atomic equation is linear in both: its value at
            # drive = delta_a = 0, plus delta_a u, plus drive w
            ones = np.ones_like(ss.x_s)
            u = -1j * math.sqrt(p.n_atoms) * ss.beta * ones
            w = -1j * math.sqrt(p.n_atoms) * (1.0 - ss.excitation - ss.beta**2 / 2.0) * ones
            r = -sum(_mean_field_terms(p, 0.0, 0.0, ss.x_s, z)[3])
            a = np.stack([u.real, w.real, u.imag, w.imag], axis=-1).reshape(-1, 2, 2)
            rhs = np.stack([r.re, r.im], axis=-1)[..., None]
            delta_a, drive = np.linalg.solve(a, rhs)[..., 0].T
            jac = np.empty((len(ones), 6, 6))
            for k in range(6):
                step = z.astype(complex)
                step[k] += 1j * h
                jac[:, :, k] = _mean_field(p, drive, delta_a, ss.x_s, step).imag.T / h
            j = am.build_drift(p, am.derive_couplings(p, ss), ss).j
            scale = np.max(np.abs(jac), axis=(1, 2), keepdims=True)
            assert np.all(np.abs(j - jac) <= 1e-12 * scale), g_over_kappa


class TestValidate:
    def test_defaults_clean(self, default_params):
        assert am.validate(default_params) == []

    def test_overdamped_mechanics(self, default_params):
        w = am.validate(default_params.replace(gamma_m=2 * default_params.omega_m))
        assert any("overdamped" in msg for msg in w)

    def test_small_ensemble(self, default_params):
        w = am.validate(default_params.replace(n_atoms=10))
        assert any("small ensemble" in msg for msg in w)

    def test_high_excitation_warning(self, default_params):
        # delta_r = gamma_r = 0.1 drives the smallest root above 0.5 excitation
        roots = am.solve_beta(0.1, 0.1)
        assert abs(roots[0]) ** 2 > 0.5
        w = am.validate(default_params.replace(delta_r=0.1, gamma_r=0.1))
        assert any("high excitation" in msg for msg in w)

    def test_no_root_warning(self, default_params):
        # delta_r^3 overflows in the quartic's coefficients: the root is out
        # of reach, which validate reports rather than raises
        w = am.validate(default_params.replace(delta_r=1e200))
        assert "excitation root out of floating-point range at this delta_r and gamma_r" in w

    def test_finite_delta_array_passes(self, default_params):
        delta = np.linspace(0.0, 3.0, 5) * default_params.omega_m
        assert am.validate(default_params.replace(delta=delta)) == []

    def test_delta_array_with_nan_names_delta(self, default_params):
        delta = np.array([0.0, np.nan, 1.0]) * default_params.omega_m
        with pytest.raises(ValueError, match="^delta must be finite"):
            am.validate(default_params.replace(delta=delta))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("omega_m", -1.0),
            ("kappa", 0.0),
            ("gamma_a", float("nan")),
            ("mirror_mass", 0.0),
            ("n_atoms", 0.5),
            ("n_atoms", float("nan")),
            ("n_atoms", float("inf")),
            ("temperature", -1.0),
            ("delta", float("inf")),
        ],
    )
    def test_rejects_bad_fields(self, default_params, field, value):
        with pytest.raises(ValueError):
            am.validate(default_params.replace(**{field: value}))
