"""System parameters and derived coupling constants.

The model is a Fabry-Perot cavity whose input mirror is a laser-driven
ensemble of two-level atoms (treated as one collective bosonic mode with a
first-order excitation correction) and whose end mirror is a mechanical
resonator coupled by radiation pressure.

Figure-reproduction runs are parameterized by the dimensionless effective
atomic detuning/decay pair (``delta_r``, ``gamma_r``) plus the effective
cavity detuning ``delta``; the microscopic drive amplitude and bare atomic
detuning are inferred from those knobs (see :func:`infer_drive`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

C_LIGHT = 299792458.0
HBAR = 1.054571817e-34
K_BOLTZMANN = 1.380649e-23

DEFAULT_WAVELENGTH = 1064e-9

_DEFAULT_OMEGA_M = 2 * math.pi * 4e7
_DEFAULT_KAPPA = 2 * math.pi * 2.5e6


@dataclass(frozen=True)
class SystemParams:
    """Physical constants and knobs, SI units (angular frequencies in rad/s).

    ``delta`` is the effective cavity detuning (drive detuning shifted by the
    static radiation-pressure displacement) and is an input in
    figure-reproduction mode.
    """

    omega_m: float = _DEFAULT_OMEGA_M
    kappa: float = _DEFAULT_KAPPA
    gamma_a: float = 20 * _DEFAULT_KAPPA
    gamma_m: float = 1e-3 * _DEFAULT_OMEGA_M
    n_atoms: float = 1e7
    coupling_G: float = 25 * _DEFAULT_KAPPA
    delta: float = -_DEFAULT_OMEGA_M
    delta_r: float = 1.0
    gamma_r: float = 1.0
    cavity_length: float = 1e-3
    mirror_mass: float = 1e-13
    omega_c: float = 2 * math.pi * C_LIGHT / DEFAULT_WAVELENGTH
    temperature: float = 0.0

    def replace(self, **kw) -> "SystemParams":
        return replace(self, **kw)

    def with_case(self, delta_r: float, gamma_r: float) -> "SystemParams":
        return self.replace(delta_r=delta_r, gamma_r=gamma_r)


@dataclass(frozen=True)
class DerivedCouplings:
    """Linearization coefficients at a given steady state.

    g0 is the single-photon radiation-pressure coupling (0 means no
    radiation pressure), g1/g3 the parametric (conjugate-mode) couplings
    picked up from the excitation correction, g2 the excitation-depleted
    atom-cavity coupling and delta_a_prime the shifted atomic detuning.
    The drift matrix takes its real quadrature-frame entries from these
    and the steady state, so there is no second copy of them.  g1 and
    delta_a_prime depend on the detuning and are arrays of its shape when
    ``params.delta`` is an array.
    """

    g0: float
    g1: complex
    g2: complex
    g3: complex
    delta_a_prime: float


_POSITIVE_FIELDS = (
    "omega_m",
    "kappa",
    "gamma_a",
    "gamma_m",
    "gamma_r",
    "cavity_length",
    "mirror_mass",
    "omega_c",
)
_NONNEG_FIELDS = ("coupling_G", "temperature")


def validate(params: SystemParams) -> list[str]:
    """Check modeling assumptions; returns warnings, raises on bad fields.

    Warnings flag strained approximations (they do not stop a run):
    excitation fraction above 0.5, an excitation root out of floating-point
    range, overdamped mechanics, tiny ensembles.
    ``delta`` may be an array of detunings; each entry must be finite.
    """
    for name in _POSITIVE_FIELDS:
        val = getattr(params, name)
        if not math.isfinite(val) or val <= 0:
            raise ValueError(f"{name} must be finite and positive, got {val!r}")
    for name in _NONNEG_FIELDS:
        val = getattr(params, name)
        if not math.isfinite(val) or val < 0:
            raise ValueError(f"{name} must be finite and non-negative, got {val!r}")
    for name in ("delta", "delta_r"):
        val = getattr(params, name)
        if not np.isfinite(val).all():
            raise ValueError(f"{name} must be finite, got {val!r}")
    if not math.isfinite(params.n_atoms) or params.n_atoms < 1:
        raise ValueError(f"n_atoms must be finite and >= 1, got {params.n_atoms!r}")

    warnings = []
    from .steadystate import solve_beta

    try:
        roots = solve_beta(params.delta_r, params.gamma_r)
        if abs(roots[0]) ** 2 > 0.5:
            warnings.append(
                "high excitation: steady-state excitation fraction above 0.5, "
                "first-order bosonization is dubious"
            )
    except OverflowError:
        warnings.append("excitation root out of floating-point range at this delta_r and gamma_r")
    if params.gamma_m >= params.omega_m:
        warnings.append("overdamped mechanics: gamma_m >= omega_m")
    if params.n_atoms < 100:
        warnings.append("small ensemble: n_atoms < 100, collective mode dubious")
    return warnings


def single_photon_coupling(params: SystemParams) -> float:
    """Radiation-pressure coupling per photon, omega_c/L * sqrt(hbar/(m omega_m));
    where m omega_m underflows to 0, the root is taken of each factor."""
    m, w = params.mirror_mass, params.omega_m
    root = math.sqrt(HBAR / (m * w)) if m * w else math.sqrt(HBAR / m) / math.sqrt(w)
    return params.omega_c / params.cavity_length * root


def thermal_factor(params: SystemParams, omega):
    """Brownian-noise spectral weight (gamma_m/omega_m) w [coth(hw/2kT) - 1].

    At T = 0 it is zero for w > 0, and -2 gamma_m w / omega_m, evaluated only
    there, for the other frequencies.  At T > 0 and w = 0 it takes its limit
    2 gamma_m k_B T / (hbar omega_m).  A weight that overflows at a finite
    frequency raises OverflowError, at any temperature.
    """
    omega = np.asarray(omega, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if params.temperature <= 0.0:
            th = np.zeros(omega.shape)
            cold = ~(omega > 0.0)
            th[cold] = -2.0 * params.gamma_m * omega[cold] / params.omega_m
        else:
            kt = K_BOLTZMANN * params.temperature
            x = HBAR * omega / (2.0 * kt)
            th = params.gamma_m / params.omega_m * omega * (-1.0 + 1.0 / np.tanh(x))
            # a NumPy quotient: an hbar omega_m that underflows to 0 gives inf
            limit = np.float64(2.0 * params.gamma_m * kt) / (HBAR * params.omega_m)
            th = np.where(omega == 0.0, limit, th)
    if not np.isfinite(th[np.isfinite(omega)]).all():
        raise OverflowError(
            f"thermal noise weight overflows at temperature = {params.temperature:.6g} K"
        )
    return th[()]


def check_finite(quantity: str, value, params: SystemParams, drive: bool = False) -> None:
    """Raise OverflowError naming ``quantity`` and the coupling it scales
    with, unless every entry of ``value`` is finite; with ``drive``, a
    quantity built from the inferred drive, it names delta_r and gamma_r too."""
    if not np.isfinite(value).all():
        at = f"coupling_G = {params.coupling_G:.6g} rad/s"
        if drive:
            at += f", delta_r = {params.delta_r:.6g}, gamma_r = {params.gamma_r:.6g}"
        raise OverflowError(f"{quantity} overflows at {at}")


def infer_drive(params: SystemParams, excitation: float) -> tuple[float, float]:
    """Infer (drive_amp, delta_a) from the dimensionless effective knobs.

    The cavity at its steady state, c = -i G sqrt(N) beta (1 - e/2) /
    (kappa + i delta) with e = |beta|^2, pulls on the atomic amplitude as
    -i K beta, with

        K = -i G^2 (1 - e/2) [(1 - e)/(kappa + i delta) + e/(2 (kappa - i delta))],

    so the atomic equation is stationary exactly when
    (delta_r - i gamma_r) drive = (delta_a - i gamma_a) + K.  K is taken in
    units of s, the power of two at or below max(kappa, |delta|), so no
    square overflows on its own and each operation rounds as it would
    unscaled.  A K out of floating-point range raises OverflowError.
    """
    e = excitation
    s = np.ldexp(1.0, np.frexp(np.maximum(params.kappa, np.abs(params.delta)))[1] - 1)
    kappa, delta = params.kappa / s, params.delta / s
    with np.errstate(over="ignore", invalid="ignore"):
        k = -1j * (params.coupling_G / s) ** 2 * (1.0 - e / 2.0) * (
            (1.0 - e) / (kappa + 1j * delta) + e / (2.0 * (kappa - 1j * delta))
        ) * s
    check_finite("cavity backaction K", k, params)
    drive = (params.gamma_a - k.imag) / params.gamma_r
    return drive, params.delta_r * drive - k.real


def derive_couplings(params: SystemParams, ss) -> DerivedCouplings:
    """All linearization coefficients at the steady state ``ss``.

    Deterministic in its inputs.  :func:`~atomoptomech.entanglement.build_drift`
    writes the linearized equations of motion from these in the quadrature
    basis, and the frequency-domain system matrix is that drift in the
    complex basis.  An array
    ``params.delta``, with the matching array ``ss.c_s`` from
    :func:`fixed_point`, gives the couplings over that grid of detunings.
    """
    beta = ss.beta
    excitation = abs(beta) ** 2
    sqrt_n = math.sqrt(params.n_atoms)
    g = params.coupling_G

    g0 = single_photon_coupling(params)
    g2 = complex(g * (1.0 - excitation))
    g3 = g * beta * beta / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        drive, delta_a = infer_drive(params, excitation)
        g1 = (g * ss.c_s / sqrt_n + drive) * beta
        delta_a_prime = (
            delta_a
            - 2.0 * (g / sqrt_n) * (ss.c_s.conjugate() * beta).real
            - 2.0 * drive * beta.real
        )
    # In this order, the first named is where the overflow started.  g2 and
    # g3 are G times O(1): finite wherever |c_s|^2 is.  The drive scales as
    # 1/gamma_r and delta_a as delta_r/gamma_r, so both name those too.
    check_finite("atom-cavity coupling g1", g1, params, drive=True)
    check_finite("shifted atomic detuning delta_a'", delta_a_prime, params, drive=True)

    return DerivedCouplings(g0=g0, g1=g1, g2=g2, g3=g3, delta_a_prime=delta_a_prime)
