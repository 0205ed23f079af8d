"""Simulator for a Fabry-Perot cavity driven through a laser-pumped
atomic-ensemble mirror, with a mechanical end mirror.

Computes mean-field steady states, output intensity squeezing spectra,
Routh-Hurwitz stability and steady-state optomechanical entanglement
(logarithmic negativity), plus a CLI to sweep and export them.
"""

from .entanglement import (
    DriftSystem,
    EntanglementResult,
    EntanglementTable,
    build_drift,
    detuning_sweep,
    entanglement_at,
    log_negativity,
    steady_covariance,
)
from .numerics import (
    char_poly,
    lyapunov_solve,
    routh_hurwitz_flags,
    routh_hurwitz_stable,
    symplectic_nu,
)
from .params import (
    DerivedCouplings,
    SystemParams,
    derive_couplings,
    single_photon_coupling,
    validate,
)
from .spectrum import (
    PoleAtOmega,
    SpectrumTable,
    TransferCoefficients,
    build_matrix,
    output_spectrum,
    spectrum_sweep,
    transfer_closed_form,
    transfer_direct,
)
from .steadystate import (
    SteadyState,
    excitation_equation,
    fixed_point,
    solve_beta,
)

__version__ = "0.1.0"

__all__ = [
    "SystemParams",
    "DerivedCouplings",
    "SteadyState",
    "TransferCoefficients",
    "SpectrumTable",
    "DriftSystem",
    "EntanglementResult",
    "EntanglementTable",
    "derive_couplings",
    "single_photon_coupling",
    "validate",
    "solve_beta",
    "fixed_point",
    "excitation_equation",
    "build_matrix",
    "transfer_direct",
    "transfer_closed_form",
    "output_spectrum",
    "spectrum_sweep",
    "build_drift",
    "steady_covariance",
    "log_negativity",
    "entanglement_at",
    "detuning_sweep",
    "char_poly",
    "routh_hurwitz_stable",
    "routh_hurwitz_flags",
    "lyapunov_solve",
    "symplectic_nu",
    "PoleAtOmega",
]
