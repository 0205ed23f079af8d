"""Steady state of the driven ensemble-cavity-mirror system.

The collective atomic amplitude (per sqrt-atom, written ``beta``) obeys a
nonlinear fixed-point equation parameterized only by the dimensionless
effective detuning and decay; the cavity amplitude and static mirror
displacement follow algebraically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ._kernels import beta_roots
from .numerics import NoConvergence
from .params import SystemParams, single_photon_coupling


class NoRoot(Exception):
    """The excitation equation has no root that could be computed: a
    coefficient of its quartic overflows (pathological parameters)."""


@dataclass(frozen=True)
class SteadyState:
    """Fixed point of the mean-field equations.

    ``beta`` is the collective atomic amplitude per sqrt-atom, ``c_s`` the
    intracavity amplitude (photon-amplitude units), ``x_s``/``p_s`` the
    mirror displacement/momentum in dimensionless oscillator units.
    ``residual`` is the max-norm of the fixed-point equation at ``beta``.
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


@lru_cache(maxsize=512)
def solve_beta(delta_r: float, gamma_r: float):
    """All distinct roots of the excitation equation, sorted by excitation.

    Every branch is returned, however high its excitation (the equation
    reduces to one real quartic, see ``_kernels.beta_roots``).  Results are
    cached: the roots depend only on the dimensionless pair, which stays
    fixed across detuning and coupling sweeps.
    """
    roots = [complex(b) for b in beta_roots(float(delta_r), float(gamma_r))]
    if not roots:
        raise NoRoot(
            f"no roots of the excitation equation for delta_r={delta_r}, gamma_r={gamma_r}"
        )
    roots.sort(key=lambda b: (abs(b) ** 2, b.real, b.imag))
    return tuple(roots)


def fixed_point(params: SystemParams) -> SteadyState:
    """Full steady state on the low-excitation branch.

    The root with the smallest excitation is selected: the bosonization is
    a low-excitation expansion and the reference excitation fractions match
    this branch.
    """
    roots = solve_beta(params.delta_r, params.gamma_r)
    beta = roots[0]
    excitation = abs(beta) ** 2
    g = params.coupling_G
    c_s = (
        -1j
        * g
        * math.sqrt(params.n_atoms)
        * beta
        * (1.0 - excitation / 2.0)
        / (params.kappa + 1j * params.delta)
    )
    g0 = single_photon_coupling(params)
    x_s = g0 * abs(c_s) ** 2 / params.omega_m
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


def self_consistent_rates(
    params: SystemParams,
    initial_beta: complex = 0.0 + 0.0j,
    update_delta: bool = False,
    relaxation: float = 0.0,
    max_iter: int = 200,
    tol: float = 1e-10,
):
    """Self-consistent (delta_r, gamma_r, beta) from microscopic inputs.

    Experimental mode: requires ``params.delta_a`` and ``params.chi`` to be
    set.  Alternates evaluating the effective-rate definitions (as written,
    including the detuning-weighted decay term) at the current excitation
    with re-solving the excitation equation, until successive excitation
    fractions differ by less than ``tol``.

    ``update_delta=True`` additionally re-derives the effective cavity
    detuning from the radiation-pressure displacement each pass, treating
    ``params.delta`` as the bare drive detuning.  ``relaxation`` in [0, 1)
    mixes the old excitation into the update.
    """
    if params.delta_a is None or params.chi is None:
        raise ValueError("self-consistent mode requires delta_a and chi to be set")
    drive = params.chi / math.sqrt(params.n_atoms)
    if drive == 0:
        raise ValueError("self-consistent mode requires a nonzero drive amplitude chi")
    g = params.coupling_G
    g0 = single_photon_coupling(params)

    beta = complex(initial_beta)
    excitation = abs(beta) ** 2
    delta_eff = params.delta
    delta_r = gamma_r = None
    for _ in range(max_iter):
        if update_delta:
            c_s = (
                -1j
                * g
                * math.sqrt(params.n_atoms)
                * beta
                * (1.0 - excitation / 2.0)
                / (params.kappa + 1j * delta_eff)
            )
            x_s = g0 * abs(c_s) ** 2 / params.omega_m
            delta_eff = params.delta - g0 * x_s
        lor = g**2 * delta_eff / (params.kappa**2 + delta_eff**2)
        delta_r = (params.delta_a - lor * (1.0 - 2.0 * excitation)) / drive
        gamma_r = (params.gamma_a + lor * (1.0 - excitation)) / drive
        beta_new = solve_beta(delta_r, gamma_r)[0]
        exc_new = abs(beta_new) ** 2
        exc_mixed = (1.0 - relaxation) * exc_new + relaxation * excitation
        if abs(exc_new - excitation) < tol:
            return delta_r, gamma_r, beta_new
        beta = beta_new
        excitation = exc_mixed
    raise NoConvergence(
        f"self-consistent iteration did not settle in {max_iter} passes; "
        f"last excitation {excitation:.6g}"
    )
