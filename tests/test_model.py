import math

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


class TestDerivedCouplings:
    def test_zero_excitation_limit(self, default_params):
        cpl = am.derive_couplings(default_params, _ss(0j, 0j))
        assert cpl.g1 == 0
        assert cpl.g3 == 0
        assert cpl.g2 == pytest.approx(default_params.coupling_G)
        assert cpl.g_px == 0 and cpl.g_py == 0

    def test_single_photon_coupling_value(self, default_params):
        # frozen from an independent evaluation of
        # (2 pi c / 1064 nm) / 1 mm * sqrt(hbar / (1e-13 kg * 2 pi 4e7 rad/s))
        assert am.single_photon_coupling(default_params) == pytest.approx(
            3626.4115885929677, rel=1e-12
        )

    def test_depletion_factor_case1(self, default_params):
        ss = am.fixed_point(default_params)
        cpl = am.derive_couplings(default_params, ss)
        assert abs(cpl.g2) / default_params.coupling_G == pytest.approx(0.745, abs=0.003)

    def test_phase_rotation_property(self, default_params):
        # rotating beta rotates g1, g3 phases per their defining products and
        # leaves |g2| unchanged
        p = default_params.replace(chi=0.0)
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
        lhs = cpl.g_px**2 + cpl.g_py**2
        rhs = 2.0 * cpl.g0**2 * abs(ss.c_s) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_explicit_chi_and_delta_a_win(self, default_params):
        p = default_params.replace(chi=1e9, delta_a=2e8)
        drive, delta_a = infer_drive(p, 0.25)
        assert drive == pytest.approx(1e9 / math.sqrt(p.n_atoms))
        assert delta_a == 2e8

    def test_deterministic(self, steady_case1):
        p, ss, _ = steady_case1
        a = am.derive_couplings(p, ss)
        b = am.derive_couplings(p, ss)
        assert a == b


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
        # delta_r^3 overflows in the quartic's coefficients, so no root
        w = am.validate(default_params.replace(delta_r=1e200))
        assert any("no steady-state excitation root" in msg for msg in w)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("omega_m", -1.0),
            ("kappa", 0.0),
            ("gamma_a", float("nan")),
            ("mirror_mass", 0.0),
            ("n_atoms", 0.5),
            ("temperature", -1.0),
            ("delta", float("inf")),
        ],
    )
    def test_rejects_bad_fields(self, default_params, field, value):
        with pytest.raises(ValueError):
            am.validate(default_params.replace(**{field: value}))
