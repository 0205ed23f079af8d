"""Dense fixed-size numerical kernels, in plain NumPy.

The pivoted LU, :func:`lu_solve`, works on a stack of systems: each of its
pivot steps is one set of NumPy operations across the rows and the batch,
so a whole frequency grid of 6x6 spectrum systems is solved at once and a
single system is a batch of one.  The fluctuation matrix and the
closed-form transfer row are elementwise in the frequency, and the
steady-state root scan, :func:`beta_roots`, advances all Newton starts
together.  The characteristic polynomial and the Routh array stay small
per-matrix loops.
"""

import numpy as np


def lu_solve(a, b):
    """Solve ``a[s] @ x[s] = b[s]`` for every system ``s`` of a stack by LU
    with partial pivoting, in place.

    ``a`` is (batch, n, n) and ``b`` is (batch, n), scratch copies owned by
    the caller.  Returns ``(x, min_pivot, max_norm)``, the last two per
    system; the caller decides what pivot magnitude counts as singular.  A
    system whose pivot is exactly zero gets min_pivot = 0 and a garbage x.
    """
    batch, n = b.shape
    systems = np.arange(batch)
    anorm = np.abs(a).sum(axis=2).max(axis=1)
    min_pivot = np.full(batch, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n):
            mag = np.abs(a[:, k:, k])
            piv = k + np.argmax(mag, axis=1)
            # fmin skips NaN, so a zero pivot stays recorded when the
            # elimination after it turns that system into NaN.
            min_pivot = np.fmin(min_pivot, mag.max(axis=1))
            a[systems, k], a[systems, piv] = a[systems, piv], a[systems, k]
            b[systems, k], b[systems, piv] = b[systems, piv], b[systems, k]
            f = a[:, k + 1 :, k] / a[:, k, k, None]
            a[:, k + 1 :, k + 1 :] -= f[:, :, None] * a[:, None, k, k + 1 :]
            b[:, k + 1 :] -= f * b[:, k, None]
        # Back substitution subtracts each row's terms one after another in
        # column order (subtract.reduce is a left fold, not a pairwise sum),
        # so a system rounds the same whatever its size or batch.
        for i in range(n - 1, -1, -1):
            terms = a[:, i, i + 1 :] * b[:, i + 1 :]
            s = np.subtract.reduce(np.concatenate((b[:, i, None], terms), axis=1), axis=1)
            b[:, i] = s / a[:, i, i]
    return b, min_pivot, anorm


def char_poly_coeffs(j):
    """Monic characteristic polynomial by the Faddeev-LeVerrier recursion."""
    n = j.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    m = np.zeros((n, n))
    for i in range(n):
        m[i, i] = 1.0
    for k in range(1, n + 1):
        m = np.dot(j, m)
        tr = 0.0
        for i in range(n):
            tr += m[i, i]
        c = -tr / k
        coeffs[k] = c
        for i in range(n):
            m[i, i] += c
    return coeffs


def routh_flags(coeffs):
    """Routh array sign test for a monic polynomial.

    Returns (stable, marginal) as ints.  A vanishing first-column entry
    (exactly zero, or at rounding level relative to the array scale) is
    replaced by eps = 1e-30 and flags the result marginal.
    """
    n = coeffs.shape[0] - 1
    rows = n + 1
    width = (n + 2) // 2
    table = np.zeros((rows, width + 1))
    for i in range(0, n + 1, 2):
        table[0, i // 2] = coeffs[i]
    for i in range(1, n + 1, 2):
        table[1, (i - 1) // 2] = coeffs[i]
    scale = 0.0
    for r in range(2):
        for c in range(width):
            m = abs(table[r, c])
            if m > scale:
                scale = m
    marginal = 0
    eps = 1e-30
    for r in range(2, rows):
        if abs(table[r - 1, 0]) <= 1e-14 * scale:
            table[r - 1, 0] = eps
            marginal = 1
        for c in range(width):
            table[r, c] = (
                table[r - 1, 0] * table[r - 2, c + 1]
                - table[r - 2, 0] * table[r - 1, c + 1]
            ) / table[r - 1, 0]
            m = abs(table[r, c])
            if m > scale and marginal == 0:
                scale = m
    stable = 1
    for r in range(rows):
        if table[r, 0] == 0.0:
            table[r, 0] = eps
            marginal = 1
        if table[0, 0] * table[r, 0] < 0.0:
            stable = 0
    return stable, marginal


def lyapunov_system(j, d):
    """Vectorize j v + v j^T = -d into an n^2 x n^2 column-stacked linear system."""
    eye = np.eye(j.shape[0])
    return np.kron(eye, j) + np.kron(j, eye), -d.flatten("F")


def _excitation_parts(cr, ci, x, y, x2, y2):
    """Re and Im of ``coef * b + 2.0 * (x2 + y2) + b * b - 2.0`` at
    b = x + iy, coef = cr + i ci, with each complex product written out
    term by term in the order Python's complex arithmetic uses.

    ``x2``/``y2`` are the squares inside |b|^2; they are arguments because
    the shifted finite-difference points square with pow, the centre with
    a product."""
    re = cr * x - ci * y + 2.0 * (x2 + y2) + (x * x - y * y) - 2.0
    im = cr * y + ci * x + (x * y + y * x)
    return re, im


def beta_roots(delta_r, gamma_r, grid_n, tol, max_iter, dedup_tol):
    """Multistart Newton for the collective-amplitude fixed-point equation.

    Same algorithm as the generic 2-D multistart (central finite-difference
    Jacobian, silent discard of non-converged starts), run as one NumPy pass
    in which all grid_n x grid_n starts on [-2, 2]^2 advance together.  A
    start is dropped when f or the Jacobian determinant is non-finite, the
    determinant is zero, the step is non-finite, or it has not converged
    after ``max_iter`` residual checks.
    Converged starts are deduplicated in grid order.  Returns (roots, count)
    with the roots packed in the first ``count`` slots.
    """
    cap = grid_n * grid_n
    coef = -2.0 * (delta_r - 1j * gamma_r)
    cr, ci = coef.real, coef.imag
    axis = -2.0 + 4.0 * np.arange(grid_n) / (grid_n - 1)
    x = np.repeat(axis, grid_n)
    y = np.tile(axis, grid_n)
    start = np.arange(cap)
    done_x = np.full(cap, np.nan)
    done_y = np.full(cap, np.nan)
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            x2, y2 = x * x, y * y
            fr, fi = _excitation_parts(cr, ci, x, y, x2, y2)
            finite = np.isfinite(fr) & np.isfinite(fi)
            conv = finite & (np.maximum(np.abs(fr), np.abs(fi)) <= tol)
            done_x[start[conv]] = x[conv]
            done_y[start[conv]] = y[conv]
            hx = 1e-7 * (1.0 + np.abs(x))
            hy = 1e-7 * (1.0 + np.abs(y))
            # |b|^2 at a shifted point squares with the C library's pow
            # (np.float_power), the rounding of Python's (x + h) ** 2 on a
            # float; ** on an array is x * x, which can differ in the last
            # bit and so move a root by an ulp.
            xp, xm, yp, ym = x + hx, x - hx, y + hy, y - hy
            fpx = _excitation_parts(cr, ci, xp, y, np.float_power(xp, 2.0), y2)
            fmx = _excitation_parts(cr, ci, xm, y, np.float_power(xm, 2.0), y2)
            fpy = _excitation_parts(cr, ci, x, yp, x2, np.float_power(yp, 2.0))
            fmy = _excitation_parts(cr, ci, x, ym, x2, np.float_power(ym, 2.0))
            j00 = (fpx[0] - fmx[0]) / (2.0 * hx)
            j10 = (fpx[1] - fmx[1]) / (2.0 * hx)
            j01 = (fpy[0] - fmy[0]) / (2.0 * hy)
            j11 = (fpy[1] - fmy[1]) / (2.0 * hy)
            det = j00 * j11 - j01 * j10
            x = x - (fr * j11 - fi * j01) / det
            y = y - (fi * j00 - fr * j10) / det
            keep = (
                finite
                & ~conv
                & (det != 0.0)
                & np.isfinite(det)
                & np.isfinite(x)
                & np.isfinite(y)
            )
            x, y, start = x[keep], y[keep], start[keep]
            if start.size == 0:
                break
    # A converged start is a duplicate iff it lies within dedup_tol of an
    # accepted root from an earlier start; accepting the first undecided
    # start and striking its later neighbours reproduces that in grid order.
    cand = np.flatnonzero(~np.isnan(done_x))
    cx, cy = done_x[cand], done_y[cand]
    open_ = np.ones(cand.size, dtype=bool)
    roots = np.zeros(cap, dtype=np.complex128)
    count = 0
    while open_.any():
        k = np.argmax(open_)
        roots.real[count] = cx[k]
        roots.imag[count] = cy[k]
        count += 1
        dr = cx - cx[k]
        di = cy - cy[k]
        open_ &= dr * dr + di * di > dedup_tol * dedup_tol
    return roots, count


def fluctuation_matrix(w, kappa, gamma_a, delta, delta_a_prime, g1, g2, g3, g0cs, wm, gm):
    """Frequency-domain 6x6 matrix of the linearized dynamics, one per
    entry of ``w``: the result has shape ``w.shape + (6, 6)``.

    Basis order: intracavity field, its conjugate, collective atomic mode,
    its conjugate, mirror position, mirror momentum.
    """
    w = np.asarray(w, dtype=float)
    mu1 = kappa + 1j * (delta - w)
    mu2 = kappa - 1j * (delta + w)
    nu1 = gamma_a + 1j * (delta_a_prime - w)
    nu2 = gamma_a - 1j * (delta_a_prime + w)
    a = np.zeros(w.shape + (6, 6), dtype=np.complex128)
    a[..., 0, 0] = mu1
    a[..., 0, 2] = 1j * g2
    a[..., 0, 3] = -1j * g3
    a[..., 0, 4] = -1j * g0cs
    a[..., 1, 1] = mu2
    a[..., 1, 2] = 1j * np.conj(g3)
    a[..., 1, 3] = -1j * np.conj(g2)
    a[..., 1, 4] = 1j * np.conj(g0cs)
    a[..., 2, 0] = 1j * g2
    a[..., 2, 1] = -1j * g3
    a[..., 2, 2] = nu1
    a[..., 2, 3] = -1j * g1
    a[..., 3, 0] = 1j * np.conj(g3)
    a[..., 3, 1] = -1j * np.conj(g2)
    a[..., 3, 2] = 1j * np.conj(g1)
    a[..., 3, 3] = nu2
    a[..., 4, 4] = 1j * w
    a[..., 4, 5] = wm
    a[..., 5, 0] = -np.conj(g0cs)
    a[..., 5, 1] = -g0cs
    a[..., 5, 4] = wm
    a[..., 5, 5] = gm - 1j * w
    return a


def transfer_row_closed(w, kappa, gamma_a, delta, delta_a_prime, g1, g2, g3, g0, cs, wm, gm):
    """Closed-form first row of the inverse fluctuation matrix.

    Returns (m11, m12, m13, m14, m16, dval) where dval is the determinant
    that appears as the common denominator.  These are the cofactor
    expressions of the 6x6 system written out; they are checked against the
    LU route by the verification suite.
    """
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

    return br_a / d, 1j * br_b / d, 1j * br_c / d, br_d / d, 1j * g0 * wm * br_f / d, d
