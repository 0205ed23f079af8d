"""Steady state of the driven ensemble-cavity-mirror system.

The collective atomic amplitude (per sqrt-atom, written ``beta``) obeys a
nonlinear fixed-point equation parameterized only by the dimensionless
effective detuning and decay; the cavity amplitude and static mirror
displacement follow algebraically.  The roots of that equation,
:func:`beta_roots`, come from one real quartic solved by Aberth-Ehrlich
iteration (:func:`_quartic_roots`) and polished by Newton steps on the 2-D
equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .params import SystemParams, check_finite, single_photon_coupling


@dataclass(frozen=True)
class SteadyState:
    """Fixed point of the mean-field equations.

    ``beta`` is the collective atomic amplitude per sqrt-atom, ``c_s`` the
    intracavity amplitude (photon-amplitude units), ``x_s``/``p_s`` the
    mirror displacement/momentum in dimensionless oscillator units.
    ``residual`` is the max-norm of the fixed-point equation at ``beta``.
    ``c_s`` and ``x_s`` are arrays when the detuning they were solved at is
    an array (see :func:`fixed_point`).
    """

    beta: complex
    excitation: float
    c_s: complex
    x_s: float
    p_s: float
    residual: float
    branch_count: int


def excitation_equation(beta: complex, delta_r: float, gamma_r: float) -> complex:
    """The fixed-point polynomial for the collective amplitude, as written:
    -2(delta_r - i gamma_r) beta + 2|beta|^2 + beta^2 - 2."""
    return (
        -2.0 * (delta_r - 1j * gamma_r) * beta
        + 2.0 * abs(beta) ** 2
        + beta * beta
        - 2.0
    )


def _quartic_roots(a):
    """The four complex roots of the monic quartic with real coefficients
    ``a`` (highest power first), by Aberth-Ehrlich iteration.

    Exactly zero trailing coefficients are taken off first as exact roots
    at 0: the iteration converges only linearly to a multiple root, and its
    relative stopping test never fires at 0.
    """
    a = np.trim_zeros(np.array(a, dtype=float), "b")
    n = len(a) - 1
    zeros = np.zeros(4 - n, dtype=np.complex128)
    if n == 0:
        return zeros
    # The iteration runs on the roots over Fujiwara's bound on them, with
    # a[k] divided by it k times, so that no power can overflow.
    radius = 2.0 * max(abs(a[k]) ** (1.0 / k) for k in range(1, n + 1))
    for k in range(1, n + 1):
        a[k:] /= radius
    da = a[:-1] * np.arange(float(n), 0.0, -1.0)
    # Starts off the real axis and off conjugate symmetry.
    z = np.exp(1j * (2.0 / n * np.pi * np.arange(n) + 0.4))
    for _ in range(100):
        ratio = np.polyval(a, z) / np.polyval(da, z)
        diff = z[:, None] - z
        np.fill_diagonal(diff, np.inf)
        w = ratio / (1.0 - ratio * (1.0 / diff).sum(axis=1))
        z = z - w
        if np.all(np.abs(w) <= 1e-14 * np.abs(z)) or not np.isfinite(z).all():
            break
    return np.concatenate((radius * z, zeros))


def beta_roots(delta_r, gamma_r):
    """All distinct roots of the collective-amplitude fixed-point equation
    -2(d - i g) b + 2|b|^2 + b^2 - 2 = 0, d = delta_r, g = gamma_r.

    With b = x + iy the imaginary part gives y = -g x / (x - d), and the
    real part then reduces to one real quartic in x.  Its real roots, mapped
    to y, and the points y = g +- sqrt(g^2 + 2 - d^2) on the line x = d
    (roots when d g = 0, near roots when d g is small) take six Newton
    steps on the 2-D equation.  A result is kept when its residual is at
    most 1e-12 max(1, |b|^2) and it lies farther than 1e-6 max(1, |b|) from
    the roots kept before it.  Roots out of floating-point reach are not
    returned: a coefficient overflows from |d| of about 4.5e102, and near
    the top of the range finite coefficients lose them too (at
    (d, g) = (-5.3e72, 3.4e117), largest coefficient 1.2e308, none is kept).
    """
    d, g = np.float64(delta_r), np.float64(gamma_r)
    with np.errstate(all="ignore"):
        coeffs = np.array([3.0, -8.0 * d, 7.0 * d * d + 3.0 * g * g - 2.0,
                           4.0 * d - 2.0 * (d * d + g * g) * d, -2.0 * d * d])
        if not np.all(np.isfinite(coeffs)):
            return np.zeros(0, dtype=np.complex128)
        z = _quartic_roots(coeffs / 3.0)
        # A near-double real root can come back with a small imaginary part.
        x = z.real[np.abs(z.imag) <= 1e-6 * np.maximum(np.abs(z), 1.0)]
        # A root at x = d maps to a non-finite y and fails the residual test.
        y = -g * x / (x - d)
        disc = g * g + 2.0 - d * d
        if disc >= 0.0:
            lx, ly = [d, d], [g + np.sqrt(disc), g - np.sqrt(disc)]
            # At d g = 0 they are exact roots and go first, so that the
            # deduplication keeps them over a quartic root that Newton
            # brought only near one (at d = 0, g^2 = 2/3 the root at x = 0
            # is fourfold, and Newton converges to it only linearly).
            if d * g == 0.0:
                x, y = np.append(lx, x), np.append(ly, y)
            else:
                x, y = np.append(x, lx), np.append(y, ly)
        # The seventh pass only evaluates: its step is not taken.
        for _ in range(7):
            b = x + 1j * y
            fr = x * (3.0 * x - 2.0 * d) + y * (y - 2.0 * g) - 2.0
            fi = 2.0 * (g * x - d * y + x * y)
            j00, j01, j10, j11 = 6.0 * x - 2.0 * d, 2.0 * (y - g), 2.0 * (g + y), 2.0 * (x - d)
            det = j00 * j11 - j01 * j10
            # A singular Jacobian, as at that fourfold root, takes no step.
            det[det == 0.0] = np.inf
            x, y = x - (fr * j11 - fi * j01) / det, y - (fi * j00 - fr * j10) / det
        ok = np.maximum(np.abs(fr), np.abs(fi)) <= 1e-12 * np.maximum(1.0, np.abs(b) ** 2)
    roots = []
    for r in b[ok]:
        if all(abs(r - k) > 1e-6 * max(1.0, abs(r)) for k in roots):
            roots.append(r)
    return np.array(roots, dtype=np.complex128)


@lru_cache(maxsize=512)
def solve_beta(delta_r: float, gamma_r: float):
    """All distinct roots of the excitation equation, sorted by excitation.

    Every branch is returned, however high its excitation (the equation
    reduces to one real quartic, see :func:`beta_roots`).  A root exists
    for every finite pair: the real part of the equation is an ellipse
    around b = 0, the imaginary part a hyperbola (or two lines) through it
    with unbounded branches.  Where floating point cannot reach one, it
    raises OverflowError naming delta_r and gamma_r.  Results are cached:
    the roots depend only on the dimensionless pair, which stays fixed
    across detuning and coupling sweeps.
    """
    roots = [complex(b) for b in beta_roots(float(delta_r), float(gamma_r))]
    if not roots:
        raise OverflowError(
            f"excitation root beta overflows at delta_r = {delta_r:.6g}, gamma_r = {gamma_r:.6g}"
        )
    roots.sort(key=lambda b: (abs(b) ** 2, b.real, b.imag))
    return tuple(roots)


def fixed_point(params: SystemParams) -> SteadyState:
    """Full steady state on the low-excitation branch.

    The root with the smallest excitation is selected: the bosonization is
    a low-excitation expansion and the reference excitation fractions match
    this branch.  The root depends only on (delta_r, gamma_r), so an array
    ``params.delta`` gives arrays ``c_s`` and ``x_s`` over that grid of
    detunings from one root.  A photon number |c_s|^2 or a product
    g0 |c_s|^2 out of floating-point range raises OverflowError.
    """
    roots = solve_beta(params.delta_r, params.gamma_r)
    beta = roots[0]
    excitation = abs(beta) ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        c_s = (
            -1j
            * params.coupling_G
            * math.sqrt(params.n_atoms)
            * beta
            * (1.0 - excitation / 2.0)
            / (params.kappa + 1j * params.delta)
        )
        try:
            photons = abs(c_s) ** 2
        except OverflowError:  # Python floats raise where NumPy gives inf
            photons = math.inf
        x_s = single_photon_coupling(params) * photons / params.omega_m
    check_finite("intracavity photon number |c_s|^2", photons, params)
    check_finite("static mirror displacement x_s = g0 |c_s|^2 / omega_m", x_s, params)
    res = excitation_equation(beta, params.delta_r, params.gamma_r)
    return SteadyState(
        beta=beta,
        excitation=excitation,
        c_s=c_s,
        x_s=x_s,
        p_s=0.0,
        residual=max(abs(res.real), abs(res.imag)),
        branch_count=len(roots),
    )
