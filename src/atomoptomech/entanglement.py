"""Steady-state optomechanical entanglement from the quadrature drift system.

The linearized dynamics in the quadrature basis (mirror position/momentum,
cavity amplitude/phase, atomic amplitude/phase) give a real 6x6 drift
matrix; when it is Hurwitz stable the stationary covariance solves the
Lyapunov equation, and the logarithmic negativity of the mirror-cavity
bipartition follows from the smallest symplectic eigenvalue of the
partially transposed reduced covariance.

A sweep gives an :class:`EntanglementTable` of arrays with NaN at the
unstable points, as the spectrum sweep has NaN at its poles; a single point
gives an :class:`EntanglementResult`, with None where it is unstable.

Convention: vacuum variance 1/2 per quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import char_poly, lyapunov_solve, routh_hurwitz_stable, symplectic_nu
from .params import DerivedCouplings, SystemParams, derive_couplings
from .steadystate import NoRoot, SteadyState, fixed_point


@dataclass(frozen=True)
class DriftSystem:
    """Real drift matrix and diagonal diffusion matrix.  Basis order:
    (x, p, X, Y, U, V)."""

    j: np.ndarray
    d: np.ndarray


@dataclass(frozen=True)
class EntanglementResult:
    """Log-negativity at one detuning; ``e_n`` is None when unstable."""

    delta_over_omega_m: float
    stable: bool
    e_n: float | None
    nu: float | None


@dataclass(frozen=True)
class EntanglementTable:
    """Log-negativity over a detuning grid; NaN marks an unstable point."""

    delta_over_omega_m: np.ndarray
    e_n: np.ndarray
    nu: np.ndarray

    @property
    def stable(self) -> np.ndarray:
        return np.isfinite(self.nu)


def build_drift(
    params: SystemParams, couplings: DerivedCouplings, ss: SteadyState
) -> DriftSystem:
    """Drift and diffusion matrices in the quadrature basis."""
    c = couplings
    g2 = c.g2.real  # depletion-corrected coupling is real by construction
    j = np.array(
        [
            [0.0, params.omega_m, 0.0, 0.0, 0.0, 0.0],
            [-params.omega_m, -params.gamma_m, c.g_px, c.g_py, 0.0, 0.0],
            [-c.g_py, 0.0, -params.kappa, params.delta, c.g3_mu, g2 + c.g3_nu],
            [c.g_px, 0.0, -params.delta, -params.kappa, c.g3_nu - g2, -c.g3_mu],
            [0.0, 0.0, c.g3_mu, g2 + c.g3_nu, c.g_mu - params.gamma_a, c.g_nu + c.delta_a_prime],
            [0.0, 0.0, c.g3_nu - g2, -c.g3_mu, c.g_nu - c.delta_a_prime, -params.gamma_a - c.g_mu],
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
    return DriftSystem(j=j, d=d)


def is_stable(ds: DriftSystem) -> bool:
    """Routh-Hurwitz verdict on the drift matrix (scaled to O(1) entries)."""
    scale = np.max(np.abs(ds.j))
    if scale == 0.0:
        return False
    return routh_hurwitz_stable(char_poly(ds.j / scale))


def steady_covariance(ds: DriftSystem) -> np.ndarray:
    """Stationary covariance from the Lyapunov equation, for one drift
    (raises if it is not Hurwitz) or a stack of them (NaN for those)."""
    scale = np.max(np.abs(ds.j), axis=(-2, -1), keepdims=True)
    # Solve in scaled time so the 21x21 half-vectorized system is well
    # conditioned; the covariance is invariant under (j, d) -> (j/s, d/s).
    return lyapunov_solve(ds.j / scale, ds.d / scale)


def _result(delta_over_omega_m: float, nu) -> EntanglementResult:
    if not math.isfinite(nu):
        return EntanglementResult(delta_over_omega_m, stable=False, e_n=None, nu=None)
    e_n = max(0.0, -math.log(2.0 * nu))
    return EntanglementResult(delta_over_omega_m, stable=True, e_n=e_n, nu=nu)


def log_negativity(v: np.ndarray, delta_over_omega_m: float = math.nan) -> EntanglementResult:
    """Logarithmic negativity of the mirror-cavity bipartition.

    The atomic rows/columns are traced out (dropped); partial transposition
    acts as the momentum sign flip of the mirror mode, which the symplectic
    eigenvalue formula absorbs as the sign of the cross-block determinant.
    """
    return _result(delta_over_omega_m, symplectic_nu(np.asarray(v, dtype=float)[:4, :4]))


def _nu(points: list[SystemParams]) -> np.ndarray:
    """Smallest symplectic eigenvalue at each parameter set's detuning, NaN
    where the point is unstable.

    The drifts are built point by point and then solved as one stack.  A
    point without a steady state never reaches the Routh test: it is
    unstable, like a point whose covariance comes back NaN.
    """
    solved, drifts = [], []
    for k, p in enumerate(points):
        try:
            ss = fixed_point(p)
        except NoRoot:
            continue
        solved.append(k)
        drifts.append(build_drift(p, derive_couplings(p, ss), ss))
    nu = np.full(len(points), np.nan)
    if solved:
        stack = DriftSystem(j=np.stack([x.j for x in drifts]), d=np.stack([x.d for x in drifts]))
        nu[solved] = symplectic_nu(steady_covariance(stack)[:, :4, :4])
    return nu


def entanglement_at(params: SystemParams) -> EntanglementResult:
    """Stability check plus log-negativity at the parameters' detuning."""
    return _result(params.delta / params.omega_m, _nu([params])[0])


def detuning_sweep(params: SystemParams, delta_grid) -> EntanglementTable:
    """Log-negativity over a grid of effective detunings, as one stack.

    Everything but the detuning comes from ``params``; ``delta_grid`` is in
    rad/s.  Unstable points are data (NaN in ``e_n`` and ``nu``), not
    failures.
    """
    delta_grid = np.asarray(list(delta_grid), dtype=float)
    nu = _nu([params.replace(delta=float(delta)) for delta in delta_grid])
    return EntanglementTable(
        delta_over_omega_m=delta_grid / params.omega_m,
        e_n=np.maximum(0.0, -np.log(2.0 * nu)),
        nu=nu,
    )
