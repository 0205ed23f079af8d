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
        j = am.build_drift(p, cpl, ss).j
        lhs = j[1, 2] ** 2 + j[1, 3] ** 2  # g_px^2 + g_py^2
        rhs = 2.0 * cpl.g0**2 * abs(ss.c_s) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_explicit_chi_and_delta_a_win(self, default_params):
        p = default_params.replace(chi=1e9, delta_a=2e8)
        drive, delta_a = infer_drive(p, 0.25)
        assert drive == pytest.approx(1e9 / math.sqrt(p.n_atoms))
        assert delta_a == 2e8

    def test_kappa_backaction_weight(self, default_params):
        # "kappa" weights the backaction in the inferred drive by the
        # linewidth, while delta_a keeps the detuning-weighted Lorentzian
        p = default_params.replace(backaction_weight="kappa")
        g, k, dl, e = p.coupling_G, p.kappa, p.delta, 0.25
        drive, delta_a = infer_drive(p, e)
        want = (p.gamma_a + g**2 * k / (k**2 + dl**2) * (1.0 - e)) / p.gamma_r
        assert drive == pytest.approx(want, rel=1e-14)
        lor = g**2 * dl / (k**2 + dl**2)
        assert delta_a == pytest.approx(p.delta_r * drive + lor * (1.0 - 2.0 * e), rel=1e-12)
        assert drive != infer_drive(default_params, e)[0]

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
            ("chi", float("inf")),
            ("chi", float("nan")),
            ("delta_a", float("-inf")),
            ("delta_a", float("nan")),
        ],
    )
    def test_rejects_bad_fields(self, default_params, field, value):
        with pytest.raises(ValueError):
            am.validate(default_params.replace(**{field: value}))
