"""Correctness oracles for the benchmark workloads.

Tolerances are the repository's own: the two transfer routes agree to 1e-8
relative (acceptance criterion 2), fixed-point residuals stay below 1e-10,
and the symplectic eigenvalue matches an eigenvalue oracle to 1e-9
(``tests/test_acceptance.py``).  The oracles use general eigen- and
Lyapunov solvers from NumPy/SciPy, as the test suite does; the library
itself never calls them.
"""

from __future__ import annotations

import math

import numpy as np

ROUTE_TOL = 1e-8
RESIDUAL_TOL = 1e-10
NU_TOL = 1e-9
# Drift matrices whose largest eigenvalue real part (in scaled time) lies
# closer to zero than this sit on a stability boundary, where Routh-Hurwitz
# and the eigenvalue sign may both be right; their verdict is not compared.
MARGINAL = 1e-9
# CSV cells carry 12 significant digits.
CSV_REL = 1e-11


def rel_err(a, b) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def fixed_point_residual(beta: complex, delta_r: float, gamma_r: float) -> float:
    """Max-norm of the excitation equation at ``beta``, written out here so
    that it does not depend on the library's own residual."""
    r = -2.0 * (delta_r - 1j * gamma_r) * beta + 2.0 * abs(beta) ** 2 + beta * beta - 2.0
    return max(abs(r.real), abs(r.imag))


def route_error(td, tc) -> float:
    """Worst relative disagreement of the LU and closed-form coefficients."""
    return max(
        rel_err(getattr(td, k), getattr(tc, k)) for k in ("a_c", "b_c", "c_c", "d_c", "f_c")
    )


def spectrum_cell(am, p, ss, cpl, omega):
    """(S_out, tolerance) at ``omega`` > 0 from the closed-form route.

    At zero temperature and positive frequency the thermal term vanishes,
    so S = |u|^2 + |v|^2 - 2|uv|.  A relative error e in the transfer
    coefficients moves S by at most about 4 e (|u|^2 + |v|^2).  Returns
    (None, 0) when the closed form reports a pole.
    """
    try:
        tp = am.transfer_closed_form(p, cpl, ss, omega)
        tm = am.transfer_closed_form(p, cpl, ss, -omega)
    except am.PoleAtOmega:
        return None, 0.0
    u = tp.a_c + tp.c_c
    v = tm.b_c + tm.d_c
    scale = abs(u) ** 2 + abs(v) ** 2
    s = scale - 2.0 * abs(u * v)
    return max(0.0, s), 4.0 * ROUTE_TOL * max(1.0, scale)


def _nu_oracle(v4) -> float:
    """Smallest symplectic eigenvalue of the partial transpose, from the
    spectrum of i Omega V~."""
    flip = np.diag([1.0, -1.0, 1.0, 1.0])
    vt = flip @ v4 @ flip
    o2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    z = np.zeros((2, 2))
    omega = np.block([[o2, z], [z, o2]])
    return float(np.min(np.abs(np.linalg.eigvals(1j * omega @ vt))))


def entanglement_oracle(am, p):
    """(stable, e_n, nu, margin) from eigenvalues and a SciPy Lyapunov solve.

    ``margin`` is the largest eigenvalue real part of the scaled drift; the
    drift matrix itself comes from the library, as in the test suite.
    """
    from scipy.linalg import solve_continuous_lyapunov

    ss = am.fixed_point(p)
    ds = am.build_drift(p, am.derive_couplings(p, ss), ss)
    scale = np.max(np.abs(ds.j))
    j, d = ds.j / scale, ds.d / scale
    margin = float(np.max(np.linalg.eigvals(j).real))
    if margin >= 0.0:
        return False, None, None, margin
    v = solve_continuous_lyapunov(j, -d)
    nu = _nu_oracle(v[:4, :4])
    return True, max(0.0, -math.log(2.0 * nu)), nu, margin


def entanglement_ok(am, p, stable, e_n, nu) -> bool:
    """Compare one (stable, e_n, nu) result with the oracle."""
    o_stable, o_e, o_nu, margin = entanglement_oracle(am, p)
    if abs(margin) <= MARGINAL:
        return True
    if stable != o_stable:
        return False
    if not stable:
        return e_n is None and nu is None
    # e_n = -ln(2 nu), so an error dnu in nu moves e_n by dnu / nu.
    return abs(nu - o_nu) <= NU_TOL and abs(e_n - o_e) <= NU_TOL / o_nu
