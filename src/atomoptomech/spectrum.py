"""Output intensity squeezing spectrum via the frequency-domain fluctuation
system.

Two independent evaluation routes are provided for the transfer
coefficients from the input noises to the output field: a solve of the
6x6 system through one Hessenberg reduction per operating point, and the
expanded cofactor (closed-form) expressions.  Their agreement is the
central correctness check of the package.

:func:`build_matrix` takes the linearized dynamics from the one place
that writes them, the quadrature drift of :func:`build_drift`, turned into
the complex basis; only its frequency diagonal is written here.
:func:`transfer_closed_form` holds the cofactor expressions, written
straight from the parameters, couplings and steady state, so it stays an
independent oracle for the Hessenberg route.  The Hessenberg route is
:func:`transfer_pair`: only the frequency diagonal of the system changes
over a column, so the system at omega = 0 is reduced to Hessenberg form
once and each frequency is a shifted solve in O(n^2); the spectrum needs the
coefficients at +omega and -omega, and both come off the solve at +omega.
:func:`transfer_direct` is its +omega half.  The route and the spectrum
take an array of frequencies, solved in one batched pass with resonance
poles coming back as NaN, or one frequency, which is the one-element
array and raises PoleAtOmega at a pole.
:func:`spectrum_sweep` keeps NaN as the mark of a pole, as the
entanglement sweep does for an unstable point.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .entanglement import build_drift
from .numerics import hessenberg, hessenberg_solve
from .params import DerivedCouplings, SystemParams, derive_couplings, thermal_factor
from .steadystate import SteadyState, fixed_point


class PoleAtOmega(Exception):
    """The system matrix is singular at this frequency (resonance pole)."""


@dataclass(frozen=True)
class TransferCoefficients:
    """Coefficients of the output field on the five input noises (arrays
    when computed on an array of frequencies)."""

    a_c: complex | np.ndarray
    b_c: complex | np.ndarray
    c_c: complex | np.ndarray
    d_c: complex | np.ndarray
    f_c: complex | np.ndarray


def _per_point(omega, values):
    """``values`` computed on ``np.atleast_1d(omega)``, frequency axis last,
    as the caller of a frequency ``omega`` gets them: unchanged for an
    array, the one entry for a scalar, where a NaN marks a pole."""
    if np.ndim(omega):
        return values
    if np.isnan(values).any():
        raise PoleAtOmega(f"system matrix singular at omega={float(omega)!r}")
    return values[..., 0][()]


# The unitary map from the quadrature basis (x, p, X, Y, U, V) to the
# complex basis (a, a+, c, c+, x, p), with a = (X + iY)/sqrt(2) and
# c = (U + iV)/sqrt(2).
_R = 1.0 / math.sqrt(2.0)
_B = np.array([
    [0, 0, _R, 1j * _R, 0, 0],
    [0, 0, _R, -1j * _R, 0, 0],
    [0, 0, 0, 0, _R, 1j * _R],
    [0, 0, 0, 0, _R, -1j * _R],
    [1, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0],
])
# The swap a <-> a+, c <-> c+ of the complex basis.  J is real and
# conj(B) = P B, so conj(A(-omega)) = P A(omega) P exactly.
_P = [1, 0, 3, 2, 4, 5]


def build_matrix(
    params: SystemParams, couplings: DerivedCouplings, ss: SteadyState, omega
) -> np.ndarray:
    """The 6x6 fluctuation matrix -i omega - B J B^H at angular frequency
    ``omega``; an array of frequencies gives a stack of shape
    ``omega.shape + (6, 6)``.

    J is the drift of :func:`build_drift` and B the unitary map to the
    complex basis (intracavity field, its conjugate, collective atomic
    mode, its conjugate, mirror position, mirror momentum).  Only the
    frequency diagonal depends on ``omega``.
    """
    w = np.asarray(omega, dtype=float)
    j = build_drift(params, couplings, ss).j
    a = np.empty(w.shape + (6, 6), dtype=np.complex128)
    a[...] = -(_B @ j @ _B.conj().T)
    a[..., range(6), range(6)] -= 1j * w[..., None]
    return a


def _output_map(params: SystemParams, row):
    """Map a first row of the inverse system matrix, (6, ...), to output
    coefficients.

    The intracavity coefficients pick up the noise prefactors sqrt(2 kappa)
    / sqrt(2 gamma_a); the input-output relation then subtracts the
    reflected input from the kappa-channel term.  The position entry m15
    carries no input noise and is not read.
    """
    m11, m12, m13, m14, _, m16 = row
    sk = math.sqrt(2.0 * params.kappa)
    sg = math.sqrt(2.0 * params.gamma_a)
    a_p = sk * m11
    b_p = sk * m12
    c_p = sg * m13
    d_p = sg * m14
    f_p = m16
    return TransferCoefficients(
        a_c=sk * a_p - 1.0,
        b_c=sk * b_p,
        c_c=sk * c_p,
        d_c=sk * d_p,
        f_c=sk * f_p,
    )


def _inverse_rows(params: SystemParams, couplings: DerivedCouplings, ss: SteadyState, omega):
    """Rows 1 and 2 of A(omega)^-1 as the columns of a (6, 2) array, with
    the frequency axis last for an array of frequencies.

    A(omega) = A0 - i omega, so the rows are (A0^T - i omega I)^-1 [e1 e2].
    A0^T is reduced once, A0^T = G H G^-1 with A0 from :func:`build_matrix`,
    and each frequency is a shifted Hessenberg solve:
    G (H - i omega I)^-1 G^-1 [e1 e2].  The frequencies of an array are
    solved in one pass and the poles come back as NaN; a single frequency
    is the one-element array and raises PoleAtOmega at a pole.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    h, g, g_inv = hessenberg(build_matrix(params, couplings, ss, 0.0).T)
    y = hessenberg_solve(h, g_inv[:, :2], 1j * w)
    # x = G y, each row summed over its nonzero terms in order,
    # elementwise per frequency; G is mostly ones and zeros.
    x = np.empty_like(y)
    for xi, r in zip(x, g):
        terms = [y[k] if c == 1 else c * y[k] for k, c in enumerate(r) if c]
        xi[...] = functools.reduce(operator.add, terms)
    return _per_point(omega, x)


def transfer_pair(
    params: SystemParams, couplings: DerivedCouplings, ss: SteadyState, omega
) -> tuple[TransferCoefficients, TransferCoefficients]:
    """Transfer coefficients at ``omega`` and at ``-omega`` from the one
    Hessenberg reduction of the column and one shifted solve at ``omega``.

    conj(A(-omega)) = P A(omega) P, with P the swap a <-> a+, c <-> c+, so
    the first row of A(-omega)^-1 is the conjugate of the second row of
    A(omega)^-1 with its columns permuted by P.  Arrays, NaN poles and
    PoleAtOmega are those of :func:`_inverse_rows`.
    """
    rows = _inverse_rows(params, couplings, ss, omega)
    return _output_map(params, rows[:, 0]), _output_map(params, rows[_P, 1].conj())


def transfer_direct(
    params: SystemParams, couplings: DerivedCouplings, ss: SteadyState, omega
) -> TransferCoefficients:
    """Transfer coefficients by solving the 6x6 system at ``omega``: the
    +omega half of :func:`transfer_pair`, with its arrays, NaN poles and
    PoleAtOmega."""
    return transfer_pair(params, couplings, ss, omega)[0]


def transfer_closed_form(
    params: SystemParams, couplings: DerivedCouplings, ss: SteadyState, omega: float
) -> TransferCoefficients:
    """Transfer coefficients from the expanded cofactor expressions.

    These are the cofactor expressions of the first row of the inverse 6x6
    system written out, over the determinant d as common denominator; they
    are checked against the Hessenberg route by the verification suite.
    """
    w = float(omega)
    kappa, gamma_a, delta = params.kappa, params.gamma_a, params.delta
    delta_a_prime, wm, gm = couplings.delta_a_prime, params.omega_m, params.gamma_m
    g1, g2, g3 = complex(couplings.g1), complex(couplings.g2), complex(couplings.g3)
    g0, cs = float(couplings.g0), complex(ss.c_s)
    mu1 = kappa + 1j * (delta - w)
    mu2 = kappa - 1j * (delta + w)
    nu1 = gamma_a + 1j * (delta_a_prime - w)
    nu2 = gamma_a - 1j * (delta_a_prime + w)
    g1c = np.conj(g1)
    g2c = np.conj(g2)
    g3c = np.conj(g3)
    csc = np.conj(cs)
    cs2 = cs * cs
    csc2 = csc * csc
    acs = (cs * csc).real
    a1 = (g1 * g1c).real
    a2 = (g2 * g2c).real
    a3 = (g3 * g3c).real
    s = g1 * g3c + g3 * g1c

    d = (
        -2j * w * a2 * a3 * gm
        - mu1 * w * (1j * w - gm) * (g1 * g2c * g3c + g3 * g1c * g2c)
        + mu2 * w * (1j * w - gm) * (g1 * g2 * g3c + g2 * g3 * g1c)
        - w * (w + 1j * gm) * (mu1 * mu2 * a1 - mu1 * nu1 * g2c * g2c - g2 * g2 * mu2 * nu2 - mu1 * mu2 * nu1 * nu2)
        + 1j
        * g0
        * g0
        * (
            cs2 * g3c * (nu1 * g2c - g2 * nu2)
            - 1j * g1 * cs2 * g3c * g3c
            + g3 * csc2 * (nu1 * g2c - 1j * g3 * g1c - g2 * nu2)
            + acs * ((mu1 - mu2) * (a1 - nu1 * nu2) + nu1 * g2c * g2c - 2j * s * g2.real - g2 * g2 * nu2)
        )
        * wm
        + (
            2 * a2 * a3
            - mu1 * nu1 * g2c * g2c
            + 1j * mu1 * g2c * s
            + mu2 * (mu1 * a1 - 1j * g2 * s - nu2 * (g2 * g2 + mu1 * nu1))
        )
        * wm
        * wm
        + a2 * (g0 * g0 * wm * (g1 * csc2 + cs2 * g1c) - 2 * w * w * a3)
        + (a2 * a2 + a3 * a3) * (1j * w * gm - wm * wm + w * w)
        + a3
        * (
            1j * (nu1 - nu2) * g0 * g0 * wm * acs
            - (mu2 * nu1 + mu1 * nu2) * (w * w + 1j * gm * w)
            + (mu2 * nu1 + mu1 * nu2) * wm * wm
        )
    )

    qa = nu2 * a3 - nu2 * mu2 * nu1 + mu2 * a1
    br_a = (
        1j * g0 * g0 * wm * acs * (a1 - nu1 * nu2)
        - (w * w + 1j * w * gm) * qa
        + wm * wm * qa
        + (g1 * g3c * g2c + g3 * g1c * g2c + 1j * nu1 * g2c * g2c) * (w * gm - 1j * w * w + 1j * wm * wm)
    )

    br_b = (
        g0 * g0 * cs2 * wm * (a1 - nu1 * nu2)
        + (1j * w * gm - wm * wm + w * w)
        * (g1 * a2 + 1j * g3 * g2c * nu1 + g3 * g3 * g1c - 1j * g2 * g3 * nu2)
    )

    br_c = (
        -g0 * g0 * wm * (g1c * g3 * acs + cs2 * g1c * g2c - 1j * nu2 * (g2 * acs + cs2 * g3c))
        + (w * w + 1j * w * gm - wm * wm)
        * (a3 * g2c - a2 * g2c - mu2 * nu2 * g2 - 1j * g3 * mu2 * g1c)
    )

    br_d = (
        g2c * g0 * g0 * cs2 * nu1 * wm
        + (1j * w * gm - wm * wm + w * w)
        * (1j * a2 * g3 + g1 * g2 * mu2 - 1j * a3 * g3 + 1j * g3 * nu1 * mu2)
        - 1j * g3c * g1 * g0 * g0 * cs2 * wm
        + g0 * g0 * wm * acs * (g3 * nu1 - 1j * g1 * g2)
    )

    br_f = (
        cs * (nu2 * (a3 - mu2 * nu1) + mu2 * a1 - nu1 * g2c * g2c)
        + 1j * a2 * g1 * csc
        + 1j * g2c * g1 * g3c * cs
        + g2c * g3 * (1j * g1c * cs - nu1 * csc)
        + g3 * csc * (g2 * nu2 + 1j * g3 * g1c)
    )

    # d carries six powers of rate; scale the underflow guard accordingly.
    # The guard runs before the quotients, so a pole divides by nothing.
    scale = max(params.kappa, params.gamma_a, params.omega_m, abs(w), 1.0) ** 6
    if abs(d) < 1e-300 * scale:
        raise PoleAtOmega(f"denominator vanished at omega={w!r}")
    row = [br_a / d, 1j * br_b / d, 1j * br_c / d, br_d / d, 0.0, 1j * g0 * wm * br_f / d]
    return _output_map(params, np.array(row))


def output_spectrum(
    params: SystemParams, couplings: DerivedCouplings, ss: SteadyState, omega
) -> float | np.ndarray:
    """Normalized intensity noise of the output field at ``omega``.

    1 is the shot-noise floor, values below 1 mean squeezing, 0 complete
    squeezing.  Needs the transfer coefficients at both +omega and -omega,
    which :func:`transfer_pair` reads off one shifted solve.  An array of
    frequencies gives an array of values with NaN at the poles; a single
    frequency is computed as the one-element array, so it equals its entry
    of an array call bit for bit, and raises PoleAtOmega at a pole.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    tp, tm = transfer_pair(params, couplings, ss, w)
    th = thermal_factor(params, w)
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
    return _per_point(omega, np.maximum(0.0, s))


@dataclass(frozen=True)
class SpectrumTable:
    """Per-G spectrum columns on a common frequency grid (NaN marks poles)."""

    omega_over_omega_m: np.ndarray
    g_over_kappa: tuple
    s_out: np.ndarray  # shape (n_omega, n_g)


def spectrum_sweep(params: SystemParams, g_values, omega_grid) -> SpectrumTable:
    """Spectra for several coupling strengths over a frequency grid.

    Everything but the coupling comes from ``params``; ``g_values`` are in
    units of kappa, ``omega_grid`` in rad/s.  The steady state is
    recomputed once per coupling value, and each column is one array call
    of :func:`output_spectrum`.  Rows where the system matrix is singular
    are recorded as NaN.
    """
    omega_grid = np.asarray(list(omega_grid), dtype=float)
    g_values = tuple(g_values)
    out = np.full((len(omega_grid), len(g_values)), np.nan)
    for col, gk in enumerate(g_values):
        p = params.replace(coupling_G=gk * params.kappa)
        ss = fixed_point(p)
        out[:, col] = output_spectrum(p, derive_couplings(p, ss), ss, omega_grid)
    return SpectrumTable(
        omega_over_omega_m=omega_grid / params.omega_m,
        g_over_kappa=g_values,
        s_out=out,
    )
