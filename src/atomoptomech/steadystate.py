"""Steady state of the driven ensemble-cavity-mirror system.

The collective atomic amplitude (per sqrt-atom, written ``beta``) obeys a
nonlinear fixed-point equation parameterized only by the dimensionless
effective detuning and decay; the cavity amplitude and static mirror
displacement follow algebraically.  The roots of that equation,
:func:`beta_roots`, come from one real quartic in the excitation |beta|^2
(Aberth-Ehrlich iteration, :func:`_quartic_roots`) and Newton steps on the
2-D equation, for both branches up to |delta_r| of about 3.35e153.
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
    """The four complex roots of a monic quartic with real coefficients
    ``a`` (highest power first), by Aberth-Ehrlich iteration.  ``a`` may be
    a stack (..., 5) of quartics; the roots come back as (..., 4).
    """
    a = np.array(a, dtype=float)
    # The iteration runs on the roots over Fujiwara's bound on them, with
    # a[k] divided by it k times, so that no power can overflow.
    radius = 2.0 * np.max(np.abs(a[..., 1:]) ** (1.0 / np.arange(1.0, 5.0)), axis=-1)
    for k in range(1, 5):
        a[..., k:] /= radius[..., None]
    # Starts off the real axis and off conjugate symmetry.
    z = np.exp(1j * (0.5 * np.pi * np.arange(4) + 0.4)) * np.ones_like(radius)[..., None]
    for _ in range(100):
        p, dp = z + a[..., 1, None], 1.0
        for k in range(2, 5):
            p, dp = p * z + a[..., k, None], dp * z + p
        diff = np.where(np.eye(4, dtype=bool), np.inf, z[..., :, None] - z[..., None, :])
        ratio = p / dp
        w = ratio / (1.0 - ratio * (1.0 / diff).sum(axis=-1))
        z = z - w
        if np.all(np.abs(w) <= 1e-14 * np.abs(z)) or not np.isfinite(z).all():
            break
    return radius[..., None] * z


def beta_roots(delta_r, gamma_r):
    """All distinct roots of the collective-amplitude fixed-point equation
    -2(d - i g) b + 2|b|^2 + b^2 - 2 = 0, d = delta_r, g = gamma_r.

    At e = |b|^2 it is the quadratic b^2 - 2ab + 2(e - 1) = 0, a = d - i g,
    which with its conjugate and b* = e/b gives one real quartic in e:
    9e^4 - (48 + 4d^2 + 36g^2)e^3 + (88 + 16d^2 + 48g^2)e^2
    - (64 + 16d^2 + 16g^2)e + 16 = 0.  Its roots spread from about
    (4d^2 + 36g^2)/9 down to about 1/|a|^2, so the small ones come from the
    reverse quartic (roots 1/e), stacked in one Aberth pass.  At the real
    part of each of the eight, the quadratic's roots a +- s, s^2 = a^2 -
    2(e - 1), and 2(e - 1)/(a +- s), accurate where a -+ s cancels, take six
    Newton steps on the 2-D equation.  The results with residual at most
    1e-12 max(1, |b|^2) are taken in order of residual, and each is kept if
    it lies farther than 1e-6 max(1, |b|) from the roots kept before it
    (where Newton ends, within an ulp or two, depends on its seed).  No root
    is returned from |d| of about 3.35e153 or g of about 1.93e153, where
    16 d^2 or 48 g^2 overflows.
    """
    d, g = np.float64(delta_r), np.float64(gamma_r)
    with np.errstate(all="ignore"):
        d2, g2 = d * d, g * g
        c = np.array([9.0, -(48.0 + 4.0 * d2 + 36.0 * g2), 88.0 + 16.0 * d2 + 48.0 * g2,
                      -(64.0 + 16.0 * (d2 + g2)), 16.0])
        z = _quartic_roots(np.array([c / 9.0, c[::-1] / 16.0]))
        # A near-double real root can come back with a small imaginary part.
        e = np.concatenate((z[0], 1.0 / z[1])).real
        a = d - 1j * g
        m = 2.0 * (e - 1.0)
        # At d = 0, a +- s are exact mirrors b, -b*, as Newton keeps them: their
        # excitations tie, and solve_beta's sort puts Re b < 0 first.
        s = np.sqrt(a * a - m)
        q = np.concatenate((a + s, a - s))
        b = np.concatenate((q, np.tile(m, 2) / q))
        x, y = b.real, b.imag
        # The seventh pass only evaluates: its step is not taken.
        for _ in range(7):
            b = x + 1j * y
            fr = x * (3.0 * x - 2.0 * d) + y * (y - 2.0 * g) - 2.0
            fi = 2.0 * (g * x - d * y + x * y)
            j00, j01, j10, j11 = 6.0 * x - 2.0 * d, 2.0 * (y - g), 2.0 * (g + y), 2.0 * (x - d)
            det = j00 * j11 - j01 * j10
            # A singular Jacobian, as at the fourfold root (d = 0, g^2 = 2/3),
            # takes no step; fr j11 ~ |b|^3 would overflow, j11 / det does not.
            det[det == 0.0] = np.inf
            x, y = x - (fr * (j11 / det) - fi * (j01 / det)), y - (fi * (j00 / det) - fr * (j10 / det))
        res = np.maximum(np.abs(fr), np.abs(fi)) / np.maximum(1.0, np.abs(b) ** 2)
    roots = []
    for r in b[np.argsort(res, kind="stable")[: np.count_nonzero(res <= 1e-12)]]:
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
        photons = np.abs(c_s) ** 2
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
