"""Steady-state optomechanical entanglement from the quadrature drift system.

The linearized dynamics in the quadrature basis (mirror position/momentum,
cavity amplitude/phase, atomic amplitude/phase) give a real 6x6 drift
matrix; when it is Hurwitz stable (``numerics.hurwitz_flags``) the
stationary covariance solves the Lyapunov equation, and the logarithmic
negativity of the mirror-cavity bipartition follows from the smallest
symplectic eigenvalue of the partially transposed reduced covariance.

A sweep gives an :class:`EntanglementTable` of arrays with NaN at the
unstable points, as the spectrum sweep has NaN at its poles; a single point
gives an :class:`EntanglementResult`, with None where it is unstable.

Convention: vacuum variance 1/2 per quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import lyapunov_solve, symplectic_nu
from .params import DerivedCouplings, SystemParams, derive_couplings, thermal_factor
from .steadystate import SteadyState, fixed_point


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
    """Drift and diffusion matrices in the quadrature basis: (6, 6) each,
    or a ``delta.shape + (6, 6)`` stack when ``params.delta`` and with it
    the couplings are arrays over a grid of detunings.

    The drift is the one encoding of the linearized dynamics: the
    frequency-domain system matrix of :func:`~atomoptomech.spectrum.build_matrix`
    is this drift in the complex basis.  Its real entries are the
    quadrature projections of the couplings, with a = (X + iY)/sqrt(2) and
    c = (U + iV)/sqrt(2).  D_pp = gamma_m (2 n + 1) = gamma_m + thermal_factor(omega_m).
    """
    c = couplings
    g2 = c.g2.real  # depletion-corrected coupling is real by construction
    sqrt2_g0 = math.sqrt(2.0) * c.g0
    g_px, g_py = sqrt2_g0 * ss.c_s.real, sqrt2_g0 * ss.c_s.imag
    g_mu, g_nu = -c.g1.imag, c.g1.real
    g3_mu, g3_nu = -c.g3.imag, c.g3.real
    entries = np.broadcast_arrays(
        0.0, params.omega_m, 0.0, 0.0, 0.0, 0.0,
        -params.omega_m, -params.gamma_m, g_px, g_py, 0.0, 0.0,
        -g_py, 0.0, -params.kappa, params.delta, g3_mu, g2 + g3_nu,
        g_px, 0.0, -params.delta, -params.kappa, g3_nu - g2, -g3_mu,
        0.0, 0.0, g3_mu, g2 + g3_nu, g_mu - params.gamma_a, g_nu + c.delta_a_prime,
        0.0, 0.0, g3_nu - g2, -g3_mu, g_nu - c.delta_a_prime, -params.gamma_a - g_mu,
    )
    j = np.stack(entries, axis=-1).reshape(entries[0].shape + (6, 6))
    d = np.zeros_like(j)
    d[..., range(6), range(6)] = (
        0.0,
        params.gamma_m + thermal_factor(params, params.omega_m),
        params.kappa,
        params.kappa,
        params.gamma_a,
        params.gamma_a,
    )
    return DriftSystem(j=j, d=d)


def steady_covariance(ds: DriftSystem) -> np.ndarray:
    """Stationary covariance from the Lyapunov equation, for one drift or a
    stack of them; a drift that is not Hurwitz gives NaN, alone or in a
    stack."""
    return lyapunov_solve(ds.j, ds.d)


def _e_n(nu):
    """Log-negativity max(0, -ln 2 nu) of the smallest symplectic eigenvalue
    ``nu``, a scalar or an array; NaN where ``nu`` is.  A ``nu`` that
    underflowed to 0 raises OverflowError."""
    if np.any(nu == 0.0):
        raise OverflowError("log-negativity E_N = -ln(2 nu) overflows at nu = 0")
    return np.maximum(0.0, -np.log(2.0 * nu))


def _result(delta_over_omega_m: float, nu, e_n) -> EntanglementResult:
    if not math.isfinite(nu):
        return EntanglementResult(delta_over_omega_m, stable=False, e_n=None, nu=None)
    return EntanglementResult(delta_over_omega_m, stable=True, e_n=float(e_n), nu=nu)


def log_negativity(v: np.ndarray, delta_over_omega_m: float = math.nan) -> EntanglementResult:
    """Logarithmic negativity of the mirror-cavity bipartition.

    The atomic rows/columns are traced out (dropped); partial transposition
    acts as the momentum sign flip of the mirror mode, which the symplectic
    eigenvalue formula absorbs as the sign of the cross-block determinant.
    """
    nu = symplectic_nu(np.asarray(v, dtype=float)[:4, :4])
    return _result(delta_over_omega_m, nu, _e_n(nu))


def _nu(params: SystemParams, delta: np.ndarray) -> np.ndarray:
    """Smallest symplectic eigenvalue at each detuning of the 1-D grid
    ``delta``, NaN where the point is unstable.

    One steady state, one set of couplings and one drift stack cover the
    whole grid: the excitation root depends only on (delta_r, gamma_r).
    """
    p = params.replace(delta=delta)
    ss = fixed_point(p)
    ds = build_drift(p, derive_couplings(p, ss), ss)
    return symplectic_nu(steady_covariance(ds)[:, :4, :4])


def entanglement_at(params: SystemParams) -> EntanglementResult:
    """Stability check plus log-negativity at the parameters' detuning: the
    one row of its one-point :func:`detuning_sweep`."""
    t = detuning_sweep(params, [params.delta])
    return _result(float(t.delta_over_omega_m[0]), t.nu[0], t.e_n[0])


def detuning_sweep(params: SystemParams, delta_grid) -> EntanglementTable:
    """Log-negativity over a grid of effective detunings, in one array pass.

    Everything but the detuning comes from ``params``; ``delta_grid`` is in
    rad/s.  Unstable points are data (NaN in ``e_n`` and ``nu``), not
    failures.
    """
    delta_grid = np.asarray(list(delta_grid), dtype=float)
    nu = _nu(params, delta_grid)
    return EntanglementTable(
        delta_over_omega_m=delta_grid / params.omega_m,
        e_n=_e_n(nu),
        nu=nu,
    )
