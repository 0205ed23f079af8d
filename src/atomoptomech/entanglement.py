"""Steady-state optomechanical entanglement from the quadrature drift system.

The linearized dynamics in the quadrature basis (mirror position/momentum,
cavity amplitude/phase, atomic amplitude/phase) give a real 6x6 drift
matrix; when it is Hurwitz stable the stationary covariance solves the
Lyapunov equation, and the logarithmic negativity of the mirror-cavity
bipartition follows from the smallest symplectic eigenvalue of the
partially transposed reduced covariance.

Convention: vacuum variance 1/2 per quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    InvalidCovariance,
    UnstableDrift,
    char_poly,
    lyapunov_solve,
    routh_hurwitz_stable,
    symplectic_nu,
)
from .params import DerivedCouplings, SystemParams, derive_couplings
from .steadystate import NoRoot, SteadyState, fixed_point


@dataclass(frozen=True)
class DriftSystem:
    """Real drift matrix, diagonal diffusion matrix and the atomic-block
    shorthands.  Basis order: (x, p, X, Y, U, V)."""

    j: np.ndarray
    d: np.ndarray
    t1: float
    t2: float
    t3: float
    t4: float
    t5: float
    t6: float
    t7: float
    t8: float


@dataclass(frozen=True)
class EntanglementResult:
    """Log-negativity at one detuning; ``e_n`` is None when unstable."""

    delta_over_omega_m: float
    stable: bool
    e_n: float | None
    nu: float | None


def build_drift(
    params: SystemParams, couplings: DerivedCouplings, ss: SteadyState
) -> DriftSystem:
    """Drift and diffusion matrices in the quadrature basis."""
    c = couplings
    g2 = c.g2.real  # depletion-corrected coupling is real by construction
    t1 = g2 + c.g3_nu
    t2 = c.g3_nu - g2
    t3 = g2 + c.g3_nu
    t4 = c.g_mu - params.gamma_a
    t5 = c.g_nu + c.delta_a_prime
    t6 = c.g3_nu - g2
    t7 = c.g_nu - c.delta_a_prime
    t8 = -params.gamma_a - c.g_mu
    j = np.array(
        [
            [0.0, params.omega_m, 0.0, 0.0, 0.0, 0.0],
            [-params.omega_m, -params.gamma_m, c.g_px, c.g_py, 0.0, 0.0],
            [-c.g_py, 0.0, -params.kappa, params.delta, c.g3_mu, t1],
            [c.g_px, 0.0, -params.delta, -params.kappa, t2, -c.g3_mu],
            [0.0, 0.0, c.g3_mu, t3, t4, t5],
            [0.0, 0.0, t6, -c.g3_mu, t7, t8],
        ]
    )
    d = np.diag(
        [
            0.0,
            params.gamma_m * (2.0 * params.n_thermal + 1.0),
            params.kappa,
            params.kappa,
            params.gamma_a,
            params.gamma_a,
        ]
    )
    return DriftSystem(j=j, d=d, t1=t1, t2=t2, t3=t3, t4=t4, t5=t5, t6=t6, t7=t7, t8=t8)


def is_stable(ds: DriftSystem) -> bool:
    """Routh-Hurwitz verdict on the drift matrix (scaled to O(1) entries)."""
    scale = np.max(np.abs(ds.j))
    if scale == 0.0:
        return False
    return routh_hurwitz_stable(char_poly(ds.j / scale))


def steady_covariance(ds: DriftSystem) -> np.ndarray:
    """Stationary covariance from the Lyapunov equation; UnstableDrift if the
    drift is not Hurwitz."""
    if not is_stable(ds):
        raise UnstableDrift("drift matrix is not Hurwitz stable")
    scale = np.max(np.abs(ds.j))
    # Solve in scaled time so the 36x36 system is well conditioned; the
    # covariance is invariant under (j, d) -> (j/s, d/s).
    return lyapunov_solve(ds.j / scale, ds.d / scale)


def log_negativity(v: np.ndarray, delta_over_omega_m: float = math.nan) -> EntanglementResult:
    """Logarithmic negativity of the mirror-cavity bipartition.

    The atomic rows/columns are traced out (dropped); partial transposition
    acts as the momentum sign flip of the mirror mode, which the symplectic
    eigenvalue formula absorbs as the sign of the cross-block determinant.
    """
    v = np.asarray(v, dtype=float)
    reduced = v[:4, :4]
    nu = symplectic_nu(reduced)
    e_n = max(0.0, -math.log(2.0 * nu))
    return EntanglementResult(
        delta_over_omega_m=delta_over_omega_m, stable=True, e_n=e_n, nu=nu
    )


def entanglement_at(params: SystemParams) -> EntanglementResult:
    """Stability check plus log-negativity at the parameters' detuning."""
    rel = params.delta / params.omega_m
    try:
        ss = fixed_point(params)
    except NoRoot:
        return EntanglementResult(delta_over_omega_m=rel, stable=False, e_n=None, nu=None)
    cpl = derive_couplings(params, ss)
    ds = build_drift(params, cpl, ss)
    if not is_stable(ds):
        return EntanglementResult(delta_over_omega_m=rel, stable=False, e_n=None, nu=None)
    try:
        v = steady_covariance(ds)
        return log_negativity(v, delta_over_omega_m=rel)
    except (UnstableDrift, InvalidCovariance):
        return EntanglementResult(delta_over_omega_m=rel, stable=False, e_n=None, nu=None)


def detuning_sweep(
    params: SystemParams,
    case: tuple[float, float],
    g: float,
    delta_grid,
) -> list[EntanglementResult]:
    """Log-negativity over a grid of effective detunings, one point at a
    time (each detuning needs its own stability verdict).

    ``g`` is in units of kappa, ``delta_grid`` in rad/s.  Unstable points
    are data (stable=False rows), not failures.
    """
    delta_r, gamma_r = case
    base = params.replace(delta_r=delta_r, gamma_r=gamma_r, coupling_G=g * params.kappa)
    return [entanglement_at(base.replace(delta=float(delta))) for delta in delta_grid]
