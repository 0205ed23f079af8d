"""Output intensity squeezing spectrum via the frequency-domain fluctuation
system.

Two independent evaluation routes are provided for the transfer
coefficients from the input noises to the output field: an LU solve of the
6x6 system, and the expanded cofactor (closed-form) expressions.  Their
agreement is the central correctness check of the package.

The LU route and the spectrum take one frequency or an array of them; an
array is assembled into a stack of 6x6 systems and solved in one batched
pass, with resonance poles coming back as NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import fluctuation_matrix, transfer_row_closed
from .numerics import SingularMatrix, solve_complex
from .params import HBAR, K_BOLTZMANN, DerivedCouplings, SystemParams, derive_couplings
from .steadystate import SteadyState, fixed_point


class PoleAtOmega(Exception):
    """The system matrix is singular at this frequency (resonance pole)."""


@dataclass(frozen=True)
class FluctuationMatrix:
    """6x6 frequency-domain system matrix plus its shorthand diagonal entries.

    For an array of frequencies every field gains the array's leading shape.
    """

    omega: float | np.ndarray
    a: np.ndarray
    mu1: complex | np.ndarray
    mu2: complex | np.ndarray
    nu1: complex | np.ndarray
    nu2: complex | np.ndarray


@dataclass(frozen=True)
class TransferCoefficients:
    """Coefficients of the output field on the five input noises (arrays
    when computed on an array of frequencies)."""

    omega: float | np.ndarray
    a_c: complex | np.ndarray
    b_c: complex | np.ndarray
    c_c: complex | np.ndarray
    d_c: complex | np.ndarray
    f_c: complex | np.ndarray


@dataclass(frozen=True)
class SpectrumPoint:
    omega_over_omega_m: float | np.ndarray
    s_out: float | np.ndarray


def _omega(omega):
    """A frequency argument as a float, or as a float array."""
    return float(omega) if np.ndim(omega) == 0 else np.asarray(omega, dtype=float)


def build_matrix(
    params: SystemParams, couplings: DerivedCouplings, ss: SteadyState, omega
) -> FluctuationMatrix:
    """Assemble the 6x6 fluctuation matrix at angular frequency ``omega``;
    an array of frequencies gives a stack of shape ``omega.shape + (6, 6)``."""
    omega = _omega(omega)
    a = fluctuation_matrix(
        omega,
        params.kappa,
        params.gamma_a,
        params.delta,
        couplings.delta_a_prime,
        complex(couplings.g1),
        complex(couplings.g2),
        complex(couplings.g3),
        complex(couplings.g0 * ss.c_s),
        params.omega_m,
        params.gamma_m,
    )
    return FluctuationMatrix(
        omega=omega,
        a=a,
        mu1=a[..., 0, 0],
        mu2=a[..., 1, 1],
        nu1=a[..., 2, 2],
        nu2=a[..., 3, 3],
    )


def _output_map(params: SystemParams, omega, m11, m12, m13, m14, m16):
    """Map the first row of the inverse system matrix to output coefficients.

    The intracavity coefficients pick up the noise prefactors sqrt(2 kappa)
    / sqrt(2 gamma_a); the input-output relation then subtracts the
    reflected input from the kappa-channel term.
    """
    sk = math.sqrt(2.0 * params.kappa)
    sg = math.sqrt(2.0 * params.gamma_a)
    a_p = sk * m11
    b_p = sk * m12
    c_p = sg * m13
    d_p = sg * m14
    f_p = m16
    return TransferCoefficients(
        omega=omega,
        a_c=sk * a_p - 1.0,
        b_c=sk * b_p,
        c_c=sk * c_p,
        d_c=sk * d_p,
        f_c=sk * f_p,
    )


def transfer_direct(
    params: SystemParams, couplings: DerivedCouplings, ss: SteadyState, omega
) -> TransferCoefficients:
    """Transfer coefficients by solving the 6x6 system.

    The first row of the inverse is obtained from one pivoted-LU solve of
    the transposed system against the first unit vector.  A single
    frequency at a pole raises PoleAtOmega; on an array of frequencies the
    systems are solved as one stack and the poles come back as NaN.
    """
    omega = _omega(omega)
    e1 = np.zeros(np.shape(omega) + (6,), dtype=np.complex128)
    e1[..., 0] = 1.0
    # The stack is handed over unnamed, so once solve_complex has taken its
    # scratch copy the original is freed: a sweep holds one stack, not two.
    try:
        row = solve_complex(np.swapaxes(build_matrix(params, couplings, ss, omega).a, -1, -2), e1)
    except SingularMatrix as exc:
        raise PoleAtOmega(f"system matrix singular at omega={omega!r}") from exc
    m11, m12, m13, m14, _, m16 = np.moveaxis(row, -1, 0)
    return _output_map(params, omega, m11, m12, m13, m14, m16)


def transfer_closed_form(
    params: SystemParams, couplings: DerivedCouplings, ss: SteadyState, omega: float
) -> TransferCoefficients:
    """Transfer coefficients from the expanded cofactor expressions."""
    omega = float(omega)
    # At a pole the quotients are inf/NaN; the check below raises PoleAtOmega.
    with np.errstate(divide="ignore", invalid="ignore"):
        m11, m12, m13, m14, m16, dval = transfer_row_closed(
            omega,
            params.kappa,
            params.gamma_a,
            params.delta,
            couplings.delta_a_prime,
            complex(couplings.g1),
            complex(couplings.g2),
            complex(couplings.g3),
            float(couplings.g0),
            complex(ss.c_s),
            params.omega_m,
            params.gamma_m,
        )
    # dval carries six powers of rate; scale the underflow guard accordingly.
    scale = max(params.kappa, params.gamma_a, params.omega_m, abs(omega), 1.0) ** 6
    if abs(dval) < 1e-300 * scale:
        raise PoleAtOmega(f"denominator vanished at omega={omega!r}")
    return _output_map(params, omega, m11, m12, m13, m14, m16)


def thermal_factor(params: SystemParams, omega):
    """Brownian-noise spectral weight (gamma_m/omega_m) w [coth(hw/2kT) - 1].

    Zero for positive frequencies at T = 0; the negative-frequency branch
    tends to -2 gamma_m w / omega_m.  At T > 0 and w = 0 it takes its finite
    limit 2 gamma_m k_B T / (hbar omega_m).
    """
    omega = np.asarray(omega, dtype=float)
    if params.temperature <= 0.0:
        th = np.where(omega > 0.0, 0.0, -2.0 * params.gamma_m * omega / params.omega_m)
        return th[()]
    kt = K_BOLTZMANN * params.temperature
    x = HBAR * omega / (2.0 * kt)
    with np.errstate(divide="ignore", invalid="ignore"):
        th = params.gamma_m / params.omega_m * omega * (-1.0 + 1.0 / np.tanh(x))
    limit = 2.0 * params.gamma_m * kt / (HBAR * params.omega_m)
    return np.where(omega == 0.0, limit, th)[()]


def output_spectrum(
    params: SystemParams, couplings: DerivedCouplings, ss: SteadyState, omega
) -> SpectrumPoint:
    """Normalized intensity noise of the output field at ``omega``.

    1 is the shot-noise floor, values below 1 mean squeezing, 0 complete
    squeezing.  Needs the transfer coefficients at both +omega and -omega.
    A single frequency at a pole raises PoleAtOmega; an array of
    frequencies gives an array of values with NaN at the poles.
    """
    omega = _omega(omega)
    # The +omega and -omega systems are solved as two stacks, not one stack
    # of twice the size, which keeps the peak memory of a sweep down.
    tp = transfer_direct(params, couplings, ss, omega)
    tm = transfer_direct(params, couplings, ss, -omega)
    th = thermal_factor(params, omega)
    u = tp.a_c + tp.c_c
    v = tm.b_c + tm.d_c
    s = (
        abs(u) ** 2
        + abs(v) ** 2
        + (abs(tp.f_c) ** 2 + abs(tm.f_c) ** 2) * th
        - 2.0 * abs(u * v + tp.f_c * tm.f_c * th)
    )
    # The expression is a variance and non-negative by the triangle
    # inequality; clamp the rounding epsilon at complete-squeezing points.
    return SpectrumPoint(omega_over_omega_m=omega / params.omega_m, s_out=np.maximum(0.0, s))


@dataclass(frozen=True)
class SpectrumTable:
    """Per-G spectrum columns on a common frequency grid (NaN marks poles)."""

    omega_over_omega_m: np.ndarray
    g_over_kappa: tuple
    s_out: np.ndarray  # shape (n_omega, n_g)


def spectrum_sweep(
    params: SystemParams,
    case: tuple[float, float],
    g_values,
    omega_grid,
) -> SpectrumTable:
    """Spectra for several coupling strengths over a frequency grid.

    ``g_values`` are in units of kappa, ``omega_grid`` in rad/s.  The
    steady state is recomputed once per coupling value, and each column is
    one array call of :func:`output_spectrum`.  Rows where the system
    matrix is singular are recorded as NaN.
    """
    delta_r, gamma_r = case
    omega_grid = np.asarray(list(omega_grid), dtype=float)
    g_values = tuple(g_values)
    out = np.full((len(omega_grid), len(g_values)), np.nan)
    for col, gk in enumerate(g_values):
        p = params.replace(delta_r=delta_r, gamma_r=gamma_r, coupling_G=gk * params.kappa)
        ss = fixed_point(p)
        out[:, col] = output_spectrum(p, derive_couplings(p, ss), ss, omega_grid).s_out
    return SpectrumTable(
        omega_over_omega_m=omega_grid / params.omega_m,
        g_over_kappa=g_values,
        s_out=out,
    )
