"""Small dense numerical routines sized for this problem.

Complex 6x6 solves, characteristic polynomials, Routh-Hurwitz stability,
Lyapunov solves via the 21x21 half-vectorized system of the symmetric
covariance's independent entries, and the closed-form smallest symplectic
eigenvalue.  The solves and the eigenvalue take one system,
which raises on failure, or a stack, which gives NaN for a failed system.
No general-purpose linear algebra backend is used at runtime.
"""

import numpy as np

from ._kernels import char_poly_coeffs, lu_solve, lyapunov_system, routh_flags


class SingularMatrix(Exception):
    """Pivot collapsed below the singularity threshold."""


class NoConvergence(Exception):
    """An iteration hit its cap without meeting its tolerance."""


class UnstableDrift(Exception):
    """Drift matrix has an eigenvalue with non-negative real part."""


class SingularSystem(Exception):
    """The half-vectorized Lyapunov system is numerically singular."""


class InvalidCovariance(Exception):
    """Covariance matrix violates the symplectic constraints."""


PIVOT_TOL = 1e-14
# Lyapunov systems per lu_solve call: a 500-point sweep in one call would
# add ~3 MiB of peak memory for a few ms less.
LYAPUNOV_CHUNK = 48


def solve_complex(a, b):
    """Solve the square complex system ``a x = b`` by pivoted LU.

    ``a`` is n x n, or a stack (..., n, n) solved in one batched pass with
    ``b`` of shape (..., n).  A system is singular when a pivot falls below
    ``1e-14 * ||a||_inf``, which in the spectrum code signals hitting a
    resonance pole: a single system raises SingularMatrix, while in a stack
    the singular systems come back as rows of NaN.
    """
    a = np.array(a, dtype=np.complex128)
    b = np.array(b, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or b.shape != a.shape[:-1]:
        raise ValueError("solve_complex expects n x n matrices and length-n vectors")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("non-finite matrix entries")
    n = a.shape[-1]
    x, min_pivot, anorm = lu_solve(a.reshape(-1, n, n), b.reshape(-1, n))
    singular = min_pivot <= PIVOT_TOL * anorm
    if a.ndim == 2:
        if singular[0]:
            raise SingularMatrix(
                f"pivot {min_pivot[0]:.3e} below {PIVOT_TOL:.0e} * {anorm[0]:.3e}"
            )
        return x[0]
    x[singular] = np.nan
    return x.reshape(b.shape)


def char_poly(j):
    """Coefficients of the monic characteristic polynomial of a real matrix,
    or of each matrix of a stack (..., n, n)."""
    j = np.array(j, dtype=np.float64)
    if j.ndim < 2 or j.shape[-1] != j.shape[-2]:
        raise ValueError("char_poly expects square matrices")
    return char_poly_coeffs(j)


def routh_hurwitz_stable(coeffs):
    """True iff all polynomial roots lie strictly in the left half-plane."""
    stable, _ = routh_hurwitz_flags(coeffs)
    return stable


def routh_hurwitz_flags(coeffs):
    """(stable, marginal) verdict; marginal means a first-column entry
    vanished and was replaced by the eps perturbation, so the verdict sits
    on a stability boundary.  One coefficient vector gives a bool pair, a
    stack (batch, n + 1) of them two bool arrays."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    stable, marginal = routh_flags(coeffs.reshape(-1, coeffs.shape[-1]))
    if coeffs.ndim == 1:
        return bool(stable[0]), bool(marginal[0])
    return stable, marginal


def lyapunov_solve(j, d):
    """Solve ``j v + v j^T = -d`` for the symmetric steady covariance.

    ``j`` and ``d`` are n x n, or stacks (batch, n, n); ``d`` is symmetric.
    Each system gets one Routh-Hurwitz verdict; the stable ones are
    half-vectorized into n(n + 1)/2-square real systems for the independent
    entries of v and solved LYAPUNOV_CHUNK at a time, so v comes back
    exactly symmetric.  A single system raises UnstableDrift for a drift
    that is not Hurwitz stable and SingularSystem for a vanishing pivot,
    while in a stack those systems come back as NaN.
    """
    j = np.array(j, dtype=np.float64)
    d = np.array(d, dtype=np.float64)
    n = j.shape[-1]
    js, ds = j.reshape(-1, n, n), d.reshape(-1, n, n)
    stable, _ = routh_hurwitz_flags(char_poly(js))
    v = np.full(js.shape, np.nan)
    todo = np.flatnonzero(stable)
    for start in range(0, len(todo), LYAPUNOV_CHUNK):
        rows = todo[start : start + LYAPUNOV_CHUNK]
        a, rhs, full = lyapunov_system(js[rows], ds[rows])
        x, min_pivot, anorm = lu_solve(a, rhs)
        x[min_pivot <= PIVOT_TOL * anorm] = np.nan
        v[rows] = x[:, full]
    if j.ndim == 2:
        if not stable[0]:
            raise UnstableDrift("drift matrix is not Hurwitz stable")
        if np.isnan(v).any():
            raise SingularSystem("Lyapunov system has a vanishing pivot")
    return v.reshape(j.shape)


def _det2(m):
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _det4(m):
    out = 0.0
    # Laplace expansion along the first row; fine at this size.
    for c in range(4):
        s = m[..., 1:, [k for k in range(4) if k != c]]
        det3 = (
            s[..., 0, 0] * (s[..., 1, 1] * s[..., 2, 2] - s[..., 1, 2] * s[..., 2, 1])
            - s[..., 0, 1] * (s[..., 1, 0] * s[..., 2, 2] - s[..., 1, 2] * s[..., 2, 0])
            + s[..., 0, 2] * (s[..., 1, 0] * s[..., 2, 1] - s[..., 1, 1] * s[..., 2, 0])
        )
        out += (-1) ** c * m[..., 0, c] * det3
    return out


def symplectic_nu(v4):
    """Smallest symplectic eigenvalue of the partially transposed two-mode
    covariance, via the determinant formula.

    The sign flip of the momentum of one mode under partial transposition
    enters as the minus sign on the cross-block determinant, so the input
    is the plain (untransposed) 4x4 covariance, or a stack (..., 4, 4) of
    them.  A single covariance that violates the symplectic constraints
    raises InvalidCovariance; in a stack its entry comes back as NaN.
    """
    v4 = np.array(v4, dtype=np.float64)
    if v4.ndim < 2 or v4.shape[-2:] != (4, 4):
        raise ValueError("symplectic_nu expects 4x4 matrices")
    a = _det2(v4[..., :2, :2])
    b = _det2(v4[..., 2:, 2:])
    c = _det2(v4[..., :2, 2:])
    sigma = a + b - 2.0 * c
    rad = sigma * sigma - 4.0 * _det4(v4)
    inner = sigma - np.sqrt(np.maximum(rad, 0.0))
    nu = np.sqrt(np.maximum(inner, 0.0) / 2.0)
    if v4.ndim > 2:
        return np.where((rad < -1e-9) | (inner < -1e-12), np.nan, nu)
    if rad < -1e-9:
        raise InvalidCovariance(f"discriminant {rad:.3e} below tolerance")
    if inner < -1e-12:
        raise InvalidCovariance(f"negative radicand {inner:.3e}")
    return nu
