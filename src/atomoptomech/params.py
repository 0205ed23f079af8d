"""System parameters and derived coupling constants.

The model is a Fabry-Perot cavity whose input mirror is a laser-driven
ensemble of two-level atoms (treated as one collective bosonic mode with a
first-order excitation correction) and whose end mirror is a mechanical
resonator coupled by radiation pressure.

Figure-reproduction runs are parameterized by the dimensionless effective
atomic detuning/decay pair (``delta_r``, ``gamma_r``) plus the effective
cavity detuning ``delta``; the microscopic drive amplitude and bare atomic
detuning are inferred from those knobs (see :func:`derive_couplings`).
Setting ``chi``/``delta_a`` explicitly bypasses the inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

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
    figure-reproduction mode.  ``chi`` (collective drive amplitude) and
    ``delta_a`` (bare atomic detuning) are optional; when None they are
    inferred from (delta_r, gamma_r).
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
    n_thermal: float = 0.0
    chi: float | None = None
    delta_a: float | None = None
    # Weight of the cavity backaction term inside the effective atomic decay
    # used when inferring the drive amplitude: "delta" keeps the
    # detuning-weighted form as written, "kappa" uses the linewidth-weighted
    # convention.
    backaction_weight: str = "delta"

    def replace(self, **kw) -> "SystemParams":
        return replace(self, **kw)

    def with_case(self, delta_r: float, gamma_r: float) -> "SystemParams":
        return self.replace(delta_r=delta_r, gamma_r=gamma_r)


@dataclass(frozen=True)
class DerivedCouplings:
    """Linearization coefficients at a given steady state.

    g1/g3 are the parametric (conjugate-mode) couplings picked up from the
    excitation correction, g2 the excitation-depleted atom-cavity coupling,
    and the g_* quantities are the real quadrature-frame couplings entering
    the drift matrix.  ``drive_amp`` is the per-atom drive amplitude the
    dimensionless knobs imply; ``chi = drive_amp * sqrt(n_atoms)``.
    """

    g0: float
    g1: complex
    g2: complex
    g3: complex
    delta_a_prime: float
    g_px: float
    g_py: float
    g_mu: float
    g_nu: float
    g3_mu: float
    g3_nu: float
    chi: float
    drive_amp: float
    delta_a: float


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
_NONNEG_FIELDS = ("coupling_G", "temperature", "n_thermal")


def validate(params: SystemParams) -> list[str]:
    """Check modeling assumptions; returns warnings, raises on bad fields.

    Warnings flag strained approximations (they do not stop a run):
    excitation fraction above 0.5, overdamped mechanics, tiny ensembles.
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
        if not math.isfinite(getattr(params, name)):
            raise ValueError(f"{name} must be finite")
    if params.n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {params.n_atoms!r}")
    if params.backaction_weight not in ("delta", "kappa"):
        raise ValueError(f"backaction_weight must be 'delta' or 'kappa'")

    warnings = []
    from .steadystate import NoRoot, solve_beta

    try:
        roots = solve_beta(params.delta_r, params.gamma_r)
        if abs(roots[0]) ** 2 > 0.5:
            warnings.append(
                "high excitation: steady-state excitation fraction above 0.5, "
                "first-order bosonization is dubious"
            )
    except NoRoot:
        warnings.append("no steady-state excitation root: delta_r or gamma_r out of range")
    if params.gamma_m >= params.omega_m:
        warnings.append("overdamped mechanics: gamma_m >= omega_m")
    if params.n_atoms < 100:
        warnings.append("small ensemble: n_atoms < 100, collective mode dubious")
    return warnings


def single_photon_coupling(params: SystemParams) -> float:
    """Radiation-pressure coupling per photon, omega_c/L * sqrt(hbar/(m omega_m))."""
    return (
        params.omega_c
        / params.cavity_length
        * math.sqrt(HBAR / (params.mirror_mass * params.omega_m))
    )


def backaction_lorentzian(params: SystemParams, weight: str | None = None) -> float:
    """Cavity-mediated shift G^2 w / (kappa^2 + delta^2) with w = delta or kappa."""
    if weight is None:
        weight = params.backaction_weight
    w = params.delta if weight == "delta" else params.kappa
    return params.coupling_G**2 * w / (params.kappa**2 + params.delta**2)


def infer_drive(params: SystemParams, excitation: float) -> tuple[float, float]:
    """Infer (drive_amp, delta_a) from the dimensionless effective knobs.

    Inverts the definitions of the effective atomic decay and detuning at
    the given excitation fraction.  Explicit ``chi``/``delta_a`` fields win.
    """
    lor_weighted = backaction_lorentzian(params)
    lor_detuning = backaction_lorentzian(params, weight="delta")
    if params.chi is not None:
        drive = params.chi / math.sqrt(params.n_atoms)
    else:
        drive = (params.gamma_a + lor_weighted * (1.0 - excitation)) / params.gamma_r
    if params.delta_a is not None:
        delta_a = params.delta_a
    else:
        delta_a = params.delta_r * drive + lor_detuning * (1.0 - 2.0 * excitation)
    return drive, delta_a


def derive_couplings(params: SystemParams, ss) -> DerivedCouplings:
    """All linearization coefficients at the steady state ``ss``.

    Deterministic in its inputs.  The quadrature-frame couplings follow
    from substituting the quadrature definitions into the linearized
    equations of motion, which keeps the drift matrix real and similar to
    the frequency-domain system matrix (same eigenvalues).
    """
    beta = ss.beta
    excitation = abs(beta) ** 2
    sqrt_n = math.sqrt(params.n_atoms)
    g = params.coupling_G

    drive, delta_a = infer_drive(params, excitation)
    chi = drive * sqrt_n

    g0 = single_photon_coupling(params)
    g1 = (g * ss.c_s + chi) * beta / sqrt_n
    g2 = complex(g * (1.0 - excitation))
    g3 = g * beta * beta / 2.0
    delta_a_prime = (
        delta_a
        - 2.0 * (g / sqrt_n) * (ss.c_s.conjugate() * beta).real
        - 2.0 * (chi / sqrt_n) * beta.real
    )

    sqrt2 = math.sqrt(2.0)
    return DerivedCouplings(
        g0=g0,
        g1=g1,
        g2=g2,
        g3=g3,
        delta_a_prime=delta_a_prime,
        g_px=sqrt2 * g0 * ss.c_s.real,
        g_py=sqrt2 * g0 * ss.c_s.imag,
        g_mu=-g1.imag,
        g_nu=g1.real,
        g3_mu=-g3.imag,
        g3_nu=g3.real,
        chi=chi,
        drive_amp=drive,
        delta_a=delta_a,
    )


def param_names() -> list[str]:
    """Names of the plain numeric fields (config-file keys)."""
    return [f.name for f in fields(SystemParams) if f.name != "backaction_weight"]
