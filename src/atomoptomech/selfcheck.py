"""Built-in verification: oracle cross-checks runnable from the CLI.

Each check returns (name, passed, detail).  ``verify --seed`` seeds the
root-residual and transfer-route draws and ``--points`` sets the
transfer-route sample size; the Lyapunov check always draws its 25 points
from seed 7, and the shot-noise check uses 100 frequencies.
"""

from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np

from .entanglement import DriftSystem, build_drift, steady_covariance
from .numerics import hurwitz_flags, symplectic_nu
from .params import SystemParams, derive_couplings
from .spectrum import output_spectrum, transfer_closed_form, transfer_pair
from .steadystate import excitation_equation, fixed_point, solve_beta


def _rel_err(a, b):
    num = abs(a - b)
    den = max(abs(a), abs(b), 1e-300)
    return num / den


def check_root_residuals(seed):
    """Every root returned by ``solve_beta``, high branches too, satisfies its
    equation, to the residual 1e-12 max(1, |beta|^2) that keeps a root."""
    rng = np.random.default_rng(seed)
    residuals = [0.0]
    cases = [(1.0, 1.0), (2.5, 2.5), (8.0, 8.0), (1e120, 1.0)]
    cases += [(rng.uniform(0.2, 10.0), rng.uniform(0.2, 10.0)) for _ in range(25)]
    for dr, gr in cases:
        for root in solve_beta(dr, gr):
            res = excitation_equation(root, dr, gr)
            scale = max(1.0, abs(root) ** 2)
            residuals += [abs(res.real) / scale, abs(res.imag) / scale]
    worst = np.max(residuals)  # keeps NaN, unlike the builtin max
    return "excitation-equation residuals", worst <= 1e-12, f"worst scaled residual {worst:.2e}"


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


def random_stable_operating_point(rng):
    """Random parameter set with a stable drift, for equivalence sampling."""
    base = SystemParams()
    while True:
        p = base.replace(
            delta_r=rng.uniform(0.8, 8.0),
            gamma_r=rng.uniform(0.8, 8.0),
            coupling_G=rng.uniform(5.0, 100.0) * base.kappa,
            delta=rng.uniform(-2.0, 2.0) * base.omega_m,
        )
        ss = fixed_point(p)
        cpl = derive_couplings(p, ss)
        if hurwitz_flags(build_drift(p, cpl, ss).j)[0]:
            return p, ss, cpl


def check_transfer_equivalence(n_points, seed):
    """Hessenberg route vs closed-form route on random stable points and
    frequencies w: both halves of :func:`transfer_pair`, the coefficients
    at w and those at -w that the spectrum reads off the same solve."""
    rng = np.random.default_rng(seed)
    errors = [0.0]
    for _ in range(n_points):
        p, ss, cpl = random_stable_operating_point(rng)
        w = rng.uniform(-2.0, 2.0) * p.omega_m
        for solved, wk in zip(transfer_pair(p, cpl, ss, w), (w, -w)):
            errors += map(_rel_err, astuple(solved), astuple(transfer_closed_form(p, cpl, ss, wk)))
    worst = np.max(errors)  # keeps NaN, unlike the builtin max
    return "transfer-route equivalence", worst <= 1e-8, f"worst relative {worst:.2e}"


def check_shot_noise_floor():
    """Zero coupling and zero temperature pin the spectrum at 1."""
    p = SystemParams(coupling_G=0.0, temperature=0.0)
    ss = fixed_point(p)
    cpl = derive_couplings(p, ss)
    s = output_spectrum(p, cpl, ss, np.linspace(0.5, 1.5, 100) * p.omega_m)
    worst = float(np.max(np.abs(s - 1.0)))
    return "shot-noise floor", worst <= 1e-10, f"worst |S-1| {worst:.2e}"


def check_lyapunov_residuals():
    """Residual of the Lyapunov solve on random stable operating points,
    solved as one stack, the way the detuning sweeps solve them."""
    rng = np.random.default_rng(7)
    drifts = []
    for _ in range(25):
        p, ss, cpl = random_stable_operating_point(rng)
        drifts.append(build_drift(p, cpl, ss))
    stack = DriftSystem(j=np.stack([x.j for x in drifts]), d=np.stack([x.d for x in drifts]))
    residuals = []
    for ds, v in zip(drifts, steady_covariance(stack)):
        residuals.append(np.max(np.abs(ds.j @ v + v @ ds.j.T + ds.d)) / np.max(np.abs(ds.d)))
    # A system that failed in the stack comes back NaN; np.max keeps it.
    worst = np.max(residuals)
    return "Lyapunov residuals", worst <= 1e-9, f"worst relative residual {worst:.2e}"


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


def run_verification(seed, n_equivalence):
    """Run all checks, print a pass/fail table, return the failure count."""
    checks = (
        (check_root_residuals, (seed,)),
        (check_reference_excitations, ()),
        (check_transfer_equivalence, (n_equivalence, seed)),
        (check_shot_noise_floor, ()),
        (check_lyapunov_residuals, ()),
        (check_symplectic_closed_forms, ()),
    )
    failures = 0
    for check, args in checks:
        name, passed, detail = check(*args)
        failures += 0 if passed else 1
        print(f"{'PASS' if passed else 'FAIL'}  {name:38s} {detail}")
    return failures
