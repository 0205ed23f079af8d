"""Small dense numerical routines sized for this problem.

A batched pivoted LU, :func:`lu_solve`, solves a stack of systems held
batch-last, each against one right-hand side, so each of its pivot steps
is a few NumPy operations over contiguous rows of the batch, taken a row
slab at a time so that no temporary is as large as the stack.  It serves
the Lyapunov solve, which takes its stability from :func:`hurwitz_flags`
(Routh-Hurwitz in scaled time) and then solves the 21x21
half-vectorized systems of the symmetric covariance's independent
entries, all stable systems of a stack in one call.  The spectrum
solves one fixed matrix at many frequency shifts: a reduction to
Hessenberg form, :func:`hessenberg`, is made once, by pivoted Gauss
similarity transforms rather than Householder reflections so that a rate
far larger than the others does not cost the small entries their
accuracy, and :func:`hessenberg_solve` solves the shifted systems in
O(n^2) each (A. J. Laub, IEEE Trans. Autom. Control 26, 407
(1981)).  The smallest symplectic eigenvalue is closed-form.  The solves
and the eigenvalue take one system or a stack; one system is a stack of
one, and a failed system, alone or in a stack, comes back as NaN.  No
general-purpose linear algebra backend is used at runtime.
"""

import functools

import numpy as np


PIVOT_TOL = 1e-14


def _slab(rows, batch):
    """Rows per slab when ``rows`` rows of a batch-last stack are taken a
    slab at a time: all of them for a batch of one, one once the batch is
    at least ``rows``.  A temporary made per slab is then about one system
    or one row of the stack, never the stack."""
    return max(1, rows // max(batch, 1))


def _mark_singular(x, pivots, anorm):
    """``x`` with NaN in each system (last axis) whose smallest pivot, over
    the per-step magnitudes ``pivots``, is at most ``PIVOT_TOL * anorm``."""
    # fmin skips NaN, so a zero pivot stays recorded when the elimination
    # after it turns that system into NaN.
    x[..., functools.reduce(np.fmin, pivots) <= PIVOT_TOL * anorm] = np.nan
    return x


def lu_solve(a, b):
    """Solve ``a[..., s] @ x[..., s] = b[..., s]`` for every system ``s`` of
    a stack by LU with partial pivoting, in place.

    The batch is the last axis: ``a`` is (n, n, batch) and ``b`` is
    (n, batch), scratch arrays owned by the caller, C-contiguous so that
    each pivot step runs over contiguous rows of the batch.  Returns x,
    which is ``b`` itself.  A system whose smallest pivot is at most
    ``PIVOT_TOL * ||a||_inf`` is singular and comes back NaN in x.

    The norm and the rank-one updates run over row slabs (see ``_slab``),
    so no temporary is as large as ``a``: the peak memory of a call is the
    stack itself plus about one of its rows.
    """
    n, batch = b.shape
    systems = np.arange(batch)
    step = _slab(n, batch)
    anorm = np.zeros(batch)
    for i in range(0, n, step):
        anorm = np.maximum(anorm, np.abs(a[i : i + step]).sum(axis=1).max(axis=0))
    pivots = []
    with np.errstate(divide="ignore", invalid="ignore"):
        # The last pivot has nothing to search, swap or eliminate: it only
        # joins the pivots after the loop.
        for k in range(n - 1):
            mag = np.abs(a[k:, k])
            piv = k + np.argmax(mag, axis=0)
            pivots.append(mag.max(axis=0))
            # Swap row k with each system's pivot row from column k on
            # (the columns before it are no longer read).  NumPy puts the
            # broadcast index axis (piv, systems) first, so the pivot rows
            # come back (batch, n - k) and go in transposed.
            a[k, k:], a[piv, k:, systems] = a[piv, k:, systems].T, a[k, k:].T.copy()
            b[k], b[piv, systems] = b[piv, systems], b[k].copy()
            # Operands of one number of axes: a one-element complex product
            # broadcast over a prepended axis skips NumPy's FMA loop, so a
            # batch of one would round unlike a stack.
            f = a[k + 1 :, k] / a[k, None, k]
            below = a[k + 1 :]
            for i in range(0, n - k - 1, step):
                below[i : i + step, k + 1 :] -= f[i : i + step, None] * a[k, None, k + 1 :]
            b[k + 1 :] -= f * b[k, None]
        pivots.append(np.abs(a[-1, -1]))
        # Back substitution subtracts each row's terms one after another in
        # column order (subtract.reduce over the leading axis is a left
        # fold), so a system rounds the same whatever its size or batch.
        for i in range(n - 1, -1, -1):
            terms = a[i, i + 1 :] * b[i + 1 :]
            s = np.subtract.reduce(np.concatenate((b[i, None], terms)), axis=0)
            b[i] = s / a[i, i]
    return _mark_singular(b, pivots, anorm)


def hessenberg(a):
    """Reduction ``a = g h g^-1`` of one n x n matrix, real or complex, to
    upper Hessenberg form by pivoted Gauss similarity transforms.

    Returns ``(h, g, g_inv)`` in the dtype of ``a`` (at least float): h has
    exact zeros below its first subdiagonal.  Step k swaps the row and
    column with the largest |a_ik| below the diagonal into place k + 1,
    subtracts multiples (at most 1 in size) of that row from the rows below
    it and adds the same multiples of their columns to column k + 1.  A row
    only ever takes a multiple of the pivot row, as in an LU, so a rate far
    larger than the others does not spread its rounding over every entry
    as an orthogonal reduction does.  A column already zero below the
    subdiagonal takes no step, so a Hessenberg ``a`` comes back as it is,
    with g = g_inv = I.
    """
    a = np.asarray(a)
    dtype = np.result_type(a, float)
    n = len(a)
    # One small matrix: Python numbers cost less here than NumPy calls.
    h = a.astype(dtype).tolist()
    g, g_inv = np.eye(n).tolist(), np.eye(n).tolist()
    for k in range(n - 2):
        if not any(r[k] for r in h[k + 2 :]):
            continue
        col = [abs(r[k]) for r in h[k + 1 :]]
        p = k + 1 + col.index(max(col))
        h[k + 1], h[p] = h[p], h[k + 1]
        g_inv[k + 1], g_inv[p] = g_inv[p], g_inv[k + 1]
        for r in h + g:
            r[k + 1], r[p] = r[p], r[k + 1]
        piv, piv_inv = h[k + 1], g_inv[k + 1]
        for i in range(k + 2, n):
            fi = h[i][k] / piv[k]
            if not fi:
                continue
            # h's rows below k + 1 are zero left of column k; the zeros of
            # g and g_inv are skipped
            hi, gi = h[i], g_inv[i]
            hi[k] = 0.0
            for j in range(k + 1, n):
                hi[j] -= fi * piv[j]
            for j in range(n):
                if piv_inv[j]:
                    gi[j] -= fi * piv_inv[j]
            for r in h + g:
                if r[i]:
                    r[k + 1] += fi * r[i]
    h, g, g_inv = np.array([h, g, g_inv], dtype=dtype)
    return h, g, g_inv


def hessenberg_solve(h, b, shifts):
    """Solve ``(h - s I) y = b`` for every shift s of a 1-D array, with h
    upper Hessenberg: O(n^2) work per shift.

    ``b`` is (n, r), shared by every shift, and y comes back batch-last,
    (n, r, batch).  Elimination step k pivots between the only two rows
    with an entry in column k: the row carried from the step before and
    row k + 1 of h - s I.  A row is a list of its entries from column k
    on, then its right-hand sides as one (r, 1) or (r, batch) block.  An
    entry of h is one NumPy number; only the diagonal and the fill-in are
    arrays over the shifts.  A shift at which a pivot is at most
    ``PIVOT_TOL * ||h - s I||_inf`` is a pole, NaN in every column.  Every
    operation has an array operand and is elementwise over the shifts, so
    a shift's y does not depend on the others, in the last bit too (NumPy's
    scalar arithmetic rounds complex products and quotients unlike its
    array loops).
    """
    h = np.asarray(h)
    s = np.asarray(shifts, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    n, batch = len(h), len(s)
    # NumPy scalars: a Python float or complex would go through a slower
    # casting loop against the arrays.
    hs = [list(r) for r in h.astype(np.complex128)]
    diag = h.diagonal()[:, None] - s
    size = np.abs(h)
    off = size.sum(axis=1) - size.diagonal()
    anorm = (off[:, None] + np.abs(diag)).max(axis=0)

    def row(i):
        # row i of h - s I from column i - 1 on, right-hand sides at its end
        start = max(i - 1, 0)
        e = hs[i][start:] + [b[i, :, None]]
        e[i - start] = diag[i]
        return e

    u, cur, pivots = [], row(0), []
    # over: y may leave the double range near a pole; like NaN, inf is no value
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n - 1):
            fresh = row(k + 1)
            mag, sub = np.abs(cur[0]), abs(fresh[0])
            swap = sub > mag
            swaps = np.count_nonzero(swap)
            # A selection that is the same for every shift takes the rows
            # as they are; the entries are the same either way.
            if not swaps:
                piv, other = cur, fresh
                pivots.append(mag)
            elif swaps == batch:
                piv, other = fresh, cur
                pivots.append(sub)
            else:
                piv = [np.where(swap, f, c) for f, c in zip(fresh, cur)]
                other = [np.where(swap, c, f) for f, c in zip(fresh, cur)]
                pivots.append(np.maximum(mag, sub))
            f = other[0] / piv[0]
            cur = [o - f * p for o, p in zip(other[1:], piv[1:])]
            u.append(piv)
        pivots.append(np.abs(cur[0]))
        u.append(cur)
        y = np.empty((n, b.shape[1], batch), dtype=np.complex128)
        for i in range(n - 1, -1, -1):
            acc = u[i][-1]
            for j in range(i + 1, n):
                acc = acc - u[i][j - i] * y[j]
            y[i] = acc / u[i][0]
    return _mark_singular(y, pivots, anorm)


def char_poly(j):
    """Coefficients of the monic characteristic polynomial of a real matrix,
    or of each matrix of a stack (..., n, n), by the Faddeev-LeVerrier
    recursion; the result is (..., n + 1)."""
    j = np.asarray(j, dtype=np.float64)
    if j.ndim < 2 or j.shape[-1] != j.shape[-2]:
        raise ValueError("char_poly expects square matrices")
    n = j.shape[-1]
    diag = np.arange(n)
    coeffs = np.ones(j.shape[:-2] + (n + 1,))  # the recursion writes all but the first
    m = np.zeros(j.shape) + np.eye(n)
    for k in range(1, n + 1):
        m = j @ m
        c = -m[..., diag, diag].sum(axis=-1) / k
        coeffs[..., k] = c
        m[..., diag, diag] += c[..., None]
    return coeffs


def routh_hurwitz_stable(coeffs):
    """True iff all polynomial roots lie strictly in the left half-plane."""
    return routh_hurwitz_flags(coeffs)[0]


def routh_hurwitz_flags(coeffs):
    """Routh array sign test: the (stable, marginal) verdict of a monic
    polynomial.  One coefficient vector gives a bool pair, a stack
    (..., n + 1) of them two bool arrays of its shape (...).

    A vanishing first-column entry (exactly zero, or, in a row that divides
    the next, at most 1e-14 of the largest |entry| up to it) makes the
    polynomial marginal, on a stability boundary, and so not stable: a
    Hurwitz polynomial has every first-column entry strictly positive.
    Nothing stands in for the entry; the rows after it may run to inf or
    NaN and decide nothing.  A NaN coefficient makes it unstable.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    stack = coeffs.reshape(-1, coeffs.shape[-1])
    batch, rows = stack.shape
    width = (rows + 1) // 2
    table = np.zeros((batch, rows, width + 1))
    table[:, 0, :width] = stack[:, 0::2]
    if rows > 1:  # a constant has no second row
        table[:, 1, : rows // 2] = stack[:, 1::2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for r in range(2, rows):
            pivot = table[:, r - 1, 0, None]
            table[:, r, :width] = (
                pivot * table[:, r - 2, 1:] - table[:, r - 2, 0, None] * table[:, r - 1, 1:]
            ) / pivot
        first = table[:, :, 0]
        scale = np.maximum.accumulate(np.abs(table).max(axis=2), axis=1)
        small = np.abs(first[:, 1:-1]) <= 1e-14 * scale[:, 1:-1]  # rows that divide the next
        marginal = small.any(axis=1) | (first == 0.0).any(axis=1)
        stable = np.all(first[:, :1] * first > 0.0, axis=1) & ~marginal
    if coeffs.ndim == 1:
        return bool(stable[0]), bool(marginal[0])
    return stable.reshape(coeffs.shape[:-1]), marginal.reshape(coeffs.shape[:-1])


def _drift_scale(j):
    """Largest |entry| of each drift, axes kept; 1 for a zero or empty drift."""
    scale = np.abs(j).max(axis=(-2, -1), keepdims=True, initial=0.0)
    return np.where(scale > 0.0, scale, 1.0)


def hurwitz_flags(j):
    """:func:`routh_hurwitz_flags` of a real drift, a bool pair, or of each
    drift of a stack (..., n, n), two bool arrays, in scaled time (divided
    by its largest |entry|).  A zero drift is marginal and not stable."""
    return routh_hurwitz_flags(char_poly(j / _drift_scale(j)))


@functools.lru_cache(maxsize=None)
def _half_vec_maps(n):
    """Index maps of the half-vectorized n x n Lyapunov equation.

    The unknowns x_q = v_kl and the equations p = (a, b) both run over the
    m = n(n + 1)/2 pairs k <= l in ``np.triu_indices`` order, and equation
    p reads (j v + v j^T)_ab = sum_s j_as v_sb + j_bs v_as.  So entry (p, q)
    of the system matrix is the sum of two entries ``src[:, p, q]`` of the
    row-major j padded with a zero: index n^2 stands for an absent term,
    and a repeated index doubles j_aa on the diagonal.  ``full`` gathers x
    into the exactly symmetric v.
    """
    iu = np.triu_indices(n)
    a, b = iu[0][:, None], iu[1][:, None]
    k, l = iu
    # v_sb is x_q when {s, b} = {k, l}, and v_as when {a, s} = {k, l}.
    s1 = np.where(b == l, k, np.where(b == k, l, -1))
    s2 = np.where(a == k, l, np.where(a == l, k, -1))
    src = np.stack((np.where(s1 < 0, n * n, a * n + s1), np.where(s2 < 0, n * n, b * n + s2)))
    full = np.zeros((n, n), dtype=np.intp)
    full[iu] = full[iu[::-1]] = np.arange(len(k))
    for arr in (src, full):
        arr.flags.writeable = False
    return src, iu, full


def lyapunov_solve(j, d):
    """Solve ``j v + v j^T = -d`` for the symmetric steady covariance.

    ``j`` and ``d`` are n x n, or stacks (batch, n, n); ``d`` is symmetric
    and its upper triangle is read.  Each system gets the verdict of
    :func:`hurwitz_flags`, and the stable ones, in its scaled time, are
    half-vectorized into n(n + 1)/2-square real systems for the independent
    entries of v, assembled a row slab at a time and solved in one
    :func:`lu_solve` call, so v comes back exactly symmetric.  ``j`` and
    ``d`` are only read.  A drift that is not Hurwitz stable, or whose
    system has a vanishing pivot, gives a v of NaN, alone or in a stack.
    """
    j = np.asarray(j, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    n = j.shape[-1]
    scale = _drift_scale(j)
    js, ds = (j / scale).reshape(-1, n, n), (d / scale).reshape(-1, n, n)
    rows = np.flatnonzero(hurwitz_flags(js)[0])
    src, iu, full = _half_vec_maps(n)
    v = np.full(js.shape, np.nan)
    if len(rows):
        jp = np.zeros((n * n + 1, len(rows)))
        jp[:-1] = js[rows].reshape(-1, n * n).T
        a = jp[src[0]]
        step = _slab(len(a), len(rows))
        for i in range(0, len(a), step):
            a[i : i + step] += jp[src[1, i : i + step]]
        del jp
        x = lu_solve(a, -ds[rows].transpose(1, 2, 0)[iu])
        v[rows] = np.moveaxis(x[full], -1, 0)
    return v.reshape(j.shape)


def _det2(m):
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def symplectic_nu(v4):
    """Smallest symplectic eigenvalue of the partially transposed two-mode
    covariance, via the determinant formula.

    The sign flip of the momentum of one mode under partial transposition
    enters as the minus sign on the cross-block determinant, so the input
    is the plain (untransposed) 4x4 covariance, or a stack (..., 4, 4) of
    them: one gives an ``np.float64``, a stack an array.  A covariance that
    violates the symplectic constraints gives NaN, alone or in a stack.
    """
    v4 = np.array(v4, dtype=np.float64)
    if v4.ndim < 2 or v4.shape[-2:] != (4, 4):
        raise ValueError("symplectic_nu expects 4x4 matrices")
    # nu(s v) = s nu(v): entries past 2^64 go in power-of-two units, so det v stays finite
    s = np.ldexp(1.0, np.maximum(np.frexp(np.abs(v4).max(axis=(-2, -1)))[1] - 64, 0))
    v4 /= s[..., None, None]
    a = _det2(v4[..., :2, :2])
    b = _det2(v4[..., 2:, 2:])
    c = _det2(v4[..., :2, 2:])
    sigma = a + b - 2.0 * c
    # det v = det(a B - C^T adj(A) C) / a, the Schur complement of the first
    # mode's block A (C is the cross block): with one mode far hotter than
    # the other it keeps the digits that a cofactor expansion loses
    cross = v4[..., :2, 2:]
    adj = v4[..., [[1, 0], [1, 0]], [[1, 1], [0, 0]]] * [[1.0, -1.0], [-1.0, 1.0]]
    schur = a[..., None, None] * v4[..., 2:, 2:] - np.swapaxes(cross, -1, -2) @ adj @ cross
    with np.errstate(divide="ignore", invalid="ignore"):
        det = _det2(schur) / a
        rad = sigma * sigma - 4.0 * det
        # nu^2 = (sigma - sqrt(rad)) / 2, in a form that does not cancel
        # when the two symplectic eigenvalues are far apart
        nu = np.sqrt(2.0 * det / (sigma + np.sqrt(np.maximum(rad, 0.0))))
    # det <= 0 or sigma <= 0 is no physical state; nu = 0 would give E_N = inf.
    # Nor is rad < 0, but rad rounds to about 1e-16 sigma^2 either side of 0.
    return np.where((rad < -1e-9 * sigma * sigma) | (det <= 0.0) | (sigma <= 0.0), np.nan, nu * s)[()]
