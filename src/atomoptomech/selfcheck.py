"""Built-in verification: oracle cross-checks runnable from the CLI.

Each check returns (name, passed, detail).  The equivalence check accepts
the closed-form evaluator as a parameter so a deliberately perturbed
evaluator can be shown to fail (mutation sanity).
"""

from __future__ import annotations

import math

import numpy as np

from . import spectrum as spec_mod
from .entanglement import build_drift, is_stable, steady_covariance
from .numerics import symplectic_nu
from .params import SystemParams, derive_couplings
from .spectrum import output_spectrum, transfer_direct
from .steadystate import excitation_equation, fixed_point, solve_beta


def _rel_err(a, b):
    num = abs(a - b)
    den = max(abs(a), abs(b), 1e-300)
    return num / den


def check_root_residuals(n_random=25, seed=0):
    """Every root returned by ``solve_beta``, high branches too, satisfies its equation."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    cases = [(1.0, 1.0), (2.5, 2.5), (8.0, 8.0)]
    cases += [(rng.uniform(0.2, 10.0), rng.uniform(0.2, 10.0)) for _ in range(n_random)]
    for dr, gr in cases:
        for root in solve_beta(dr, gr):
            res = excitation_equation(root, dr, gr)
            worst = max(worst, abs(res.real), abs(res.imag))
    return "excitation-equation residuals", worst <= 1e-10, f"worst residual {worst:.2e}"


def check_reference_excitations():
    """Frozen reference excitation fractions and root locations."""
    targets = {1.0: 0.255, 2.5: 0.069, 8.0: 0.008}
    ok = True
    details = []
    for dr, want in targets.items():
        beta = solve_beta(dr, dr)[0]
        got = abs(beta) ** 2
        ok &= abs(got - want) <= 0.003
        details.append(f"{dr}: {got:.4f}")
    b1 = solve_beta(1.0, 1.0)[0]
    b8 = solve_beta(8.0, 8.0)[0]
    ok &= abs(b1.real + 0.411) <= 0.005 and abs(b1.imag + 0.291) <= 0.005
    ok &= abs(b8.real + 0.062) <= 0.005 and abs(b8.imag + 0.061) <= 0.005
    return "reference excitation fractions", bool(ok), ", ".join(details)


def random_stable_operating_point(rng, params=None):
    """Random parameter set with a stable drift, for equivalence sampling."""
    base = params or SystemParams()
    while True:
        p = base.replace(
            delta_r=rng.uniform(0.8, 8.0),
            gamma_r=rng.uniform(0.8, 8.0),
            coupling_G=rng.uniform(5.0, 100.0) * base.kappa,
            delta=rng.uniform(-2.0, 2.0) * base.omega_m,
        )
        ss = fixed_point(p)
        cpl = derive_couplings(p, ss)
        if is_stable(build_drift(p, cpl, ss)):
            return p, ss, cpl


def check_transfer_equivalence(n_points=200, seed=1234, closed_form=None):
    """LU route vs closed-form route on random stable points and frequencies."""
    closed = closed_form or spec_mod.transfer_closed_form
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_points):
        p, ss, cpl = random_stable_operating_point(rng)
        w = rng.uniform(-2.0, 2.0) * p.omega_m
        td = transfer_direct(p, cpl, ss, w)
        tc = closed(p, cpl, ss, w)
        for x, y in (
            (td.a_c, tc.a_c),
            (td.b_c, tc.b_c),
            (td.c_c, tc.c_c),
            (td.d_c, tc.d_c),
            (td.f_c, tc.f_c),
        ):
            worst = max(worst, _rel_err(x, y))
    return "transfer-route equivalence", worst <= 1e-8, f"worst relative {worst:.2e}"


def check_shot_noise_floor(n_points=100):
    """Zero coupling and zero temperature pin the spectrum at 1."""
    p = SystemParams(coupling_G=0.0, temperature=0.0)
    ss = fixed_point(p)
    cpl = derive_couplings(p, ss)
    s = output_spectrum(p, cpl, ss, np.linspace(0.5, 1.5, n_points) * p.omega_m).s_out
    worst = float(np.max(np.abs(s - 1.0)))
    return "shot-noise floor", worst <= 1e-10, f"worst |S-1| {worst:.2e}"


def check_lyapunov_residuals(n_points=25, seed=7):
    """Residual of the Lyapunov solve on random stable operating points."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_points):
        p, ss, cpl = random_stable_operating_point(rng)
        ds = build_drift(p, cpl, ss)
        scale = np.max(np.abs(ds.j))
        j, d = ds.j / scale, ds.d / scale
        v = steady_covariance(ds)
        res = np.max(np.abs(j @ v + v @ j.T + d)) / np.max(np.abs(d))
        worst = max(worst, res)
    return "Lyapunov residuals", worst <= 1e-9, f"worst scaled residual {worst:.2e}"


def check_symplectic_closed_forms():
    """Closed-form symplectic eigenvalue against analytic families."""
    ok = True
    details = []
    nu = symplectic_nu(0.5 * np.eye(4))
    ok &= abs(nu - 0.5) <= 1e-12
    details.append(f"vacuum {nu:.6f}")
    for r in (0.2, 0.5, 1.0):
        ch, sh = math.cosh(2 * r), math.sinh(2 * r)
        z = np.diag([1.0, -1.0])
        v = 0.5 * np.block([[ch * np.eye(2), sh * z], [sh * z, ch * np.eye(2)]])
        nu = symplectic_nu(v)
        ok &= abs(nu - math.exp(-2 * r) / 2.0) <= 1e-12
    details.append("two-mode-squeezed family ok")
    for a, b in ((0.5, 0.7), (1.3, 0.6)):
        nu = symplectic_nu(np.diag([a, a, b, b]))
        ok &= abs(nu - min(a, b)) <= 1e-12
    details.append("product family ok")
    return "symplectic eigenvalue closed forms", bool(ok), "; ".join(details)


ALL_CHECKS = (
    check_root_residuals,
    check_reference_excitations,
    check_transfer_equivalence,
    check_shot_noise_floor,
    check_lyapunov_residuals,
    check_symplectic_closed_forms,
)


def run_verification(seed=1234, n_equivalence=200, closed_form=None, out=print):
    """Run all checks, print a pass/fail table, return the failure count."""
    failures = 0
    for check in ALL_CHECKS:
        if check is check_transfer_equivalence:
            name, passed, detail = check(n_points=n_equivalence, seed=seed, closed_form=closed_form)
        elif check is check_root_residuals:
            name, passed, detail = check(seed=seed)
        else:
            name, passed, detail = check()
        failures += 0 if passed else 1
        out(f"{'PASS' if passed else 'FAIL'}  {name:38s} {detail}")
    return failures
