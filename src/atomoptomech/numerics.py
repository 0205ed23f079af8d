"""Small dense numerical routines sized for this problem.

Complex 6x6 solves, a 2-D multistart Newton, characteristic polynomials,
Routh-Hurwitz stability, Lyapunov solves via a 36x36 vectorized system and
the closed-form smallest symplectic eigenvalue.  No general-purpose linear
algebra backend is used at runtime; the batched LU elimination lives in
``_kernels``.
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
    """The vectorized Lyapunov system is numerically singular."""


class InvalidCovariance(Exception):
    """Covariance matrix violates the symplectic constraints."""


PIVOT_TOL = 1e-14


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


def _fd_jacobian(f, x, y):
    hx = 1e-7 * (1.0 + abs(x))
    hy = 1e-7 * (1.0 + abs(y))
    fpx = f(x + hx, y)
    fmx = f(x - hx, y)
    fpy = f(x, y + hy)
    fmy = f(x, y - hy)
    return np.array(
        [
            [(fpx[0] - fmx[0]) / (2 * hx), (fpy[0] - fmy[0]) / (2 * hy)],
            [(fpx[1] - fmx[1]) / (2 * hx), (fpy[1] - fmy[1]) / (2 * hy)],
        ]
    )


def newton2d_multistart(f, grid, tol=1e-12, max_iter=100, dedup_tol=1e-6):
    """Newton iterations on a 2-D map from a list of start points.

    The Jacobian is taken by central finite differences, so f only needs
    to be evaluable.  Starts that fail to converge are discarded silently;
    the deduplicated list of roots is returned (possibly empty), each with
    ``max(|f(root)|) <= tol``.
    """
    roots = []
    for x0, y0 in grid:
        x, y = float(x0), float(y0)
        for _ in range(max_iter):
            fx = f(x, y)
            if not (np.isfinite(fx[0]) and np.isfinite(fx[1])):
                break
            if max(abs(fx[0]), abs(fx[1])) <= tol:
                if not any((x - rx) ** 2 + (y - ry) ** 2 <= dedup_tol**2 for rx, ry in roots):
                    roots.append((x, y))
                break
            jac = _fd_jacobian(f, x, y)
            det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
            if det == 0.0 or not np.isfinite(det):
                break
            dx = (fx[0] * jac[1, 1] - fx[1] * jac[0, 1]) / det
            dy = (fx[1] * jac[0, 0] - fx[0] * jac[1, 0]) / det
            x -= dx
            y -= dy
            if not (np.isfinite(x) and np.isfinite(y)):
                break
    return roots


def char_poly(j):
    """Coefficients of the monic characteristic polynomial of a real matrix."""
    j = np.array(j, dtype=np.float64)
    if j.ndim != 2 or j.shape[0] != j.shape[1]:
        raise ValueError("char_poly expects a square matrix")
    return char_poly_coeffs(j)


def routh_hurwitz_stable(coeffs):
    """True iff all polynomial roots lie strictly in the left half-plane."""
    stable, _ = routh_hurwitz_flags(coeffs)
    return stable


def routh_hurwitz_flags(coeffs):
    """(stable, marginal) pair; marginal means a first-column entry vanished
    and was replaced by the eps perturbation, so the verdict sits on a
    stability boundary."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    stable, marginal = routh_flags(coeffs)
    return bool(stable), bool(marginal)


def lyapunov_solve(j, d):
    """Solve ``j v + v j^T = -d`` for the symmetric steady covariance.

    The 6x6 problem is vectorized into a 36x36 real solve; the result is
    re-symmetrized.  Requires a stable drift (Routh-Hurwitz), else
    UnstableDrift is raised.
    """
    j = np.array(j, dtype=np.float64)
    d = np.array(d, dtype=np.float64)
    if not routh_hurwitz_stable(char_poly(j)):
        raise UnstableDrift("drift matrix is not Hurwitz stable")
    k, rhs = lyapunov_system(j, d)
    x, min_pivot, anorm = lu_solve(k[None], rhs[None])
    if min_pivot[0] <= PIVOT_TOL * anorm[0]:
        raise SingularSystem("vectorized Lyapunov system has a vanishing pivot")
    n = j.shape[0]
    v = x[0].reshape((n, n), order="F")
    return (v + v.T) / 2.0


def _det2(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _det4(m):
    out = 0.0
    # Laplace expansion along the first row; fine at this size.
    for c in range(4):
        sub = np.delete(np.delete(m, 0, axis=0), c, axis=1)
        det3 = (
            sub[0, 0] * (sub[1, 1] * sub[2, 2] - sub[1, 2] * sub[2, 1])
            - sub[0, 1] * (sub[1, 0] * sub[2, 2] - sub[1, 2] * sub[2, 0])
            + sub[0, 2] * (sub[1, 0] * sub[2, 1] - sub[1, 1] * sub[2, 0])
        )
        out += (-1) ** c * m[0, c] * det3
    return out


def symplectic_nu(v4):
    """Smallest symplectic eigenvalue of the partially transposed two-mode
    covariance, via the determinant formula.

    The sign flip of the momentum of one mode under partial transposition
    enters as the minus sign on the cross-block determinant, so the input
    is the plain (untransposed) 4x4 covariance.
    """
    v4 = np.array(v4, dtype=np.float64)
    if v4.shape != (4, 4):
        raise ValueError("symplectic_nu expects a 4x4 matrix")
    a = _det2(v4[:2, :2])
    b = _det2(v4[2:, 2:])
    c = _det2(v4[:2, 2:])
    detv = _det4(v4)
    sigma = a + b - 2.0 * c
    rad = sigma * sigma - 4.0 * detv
    if rad < -1e-9:
        raise InvalidCovariance(f"discriminant {rad:.3e} below tolerance")
    if rad < 0.0:
        rad = 0.0
    inner = sigma - np.sqrt(rad)
    if inner < 0.0:
        if inner < -1e-12:
            raise InvalidCovariance(f"negative radicand {inner:.3e}")
        inner = 0.0
    return np.sqrt(inner / 2.0)
