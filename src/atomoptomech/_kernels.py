"""Dense fixed-size numerical kernels, in plain NumPy.

The pivoted LU, :func:`lu_solve`, works on a stack of systems: each of its
pivot steps is one set of NumPy operations across the rows and the batch,
so a frequency grid of 6x6 spectrum systems, or a detuning grid's 21x21
half-vectorized Lyapunov systems, is solved at once; a single system is a
batch of one.  The characteristic polynomial, the Routh array and the
Lyapunov system take stacks too, and the fluctuation matrix and the
closed-form transfer row are elementwise in the frequency.  The steady-state roots,
:func:`beta_roots`, come from one real quartic solved by Aberth-Ehrlich
iteration and polished by Newton steps on the 2-D equation.
"""

import functools

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
    """Monic characteristic polynomials of a stack (..., n, n) of matrices
    by the Faddeev-LeVerrier recursion; the result is (..., n + 1)."""
    n = j.shape[-1]
    diag = np.arange(n)
    coeffs = np.zeros(j.shape[:-2] + (n + 1,))
    coeffs[..., 0] = 1.0
    m = np.zeros(j.shape)
    m[..., diag, diag] = 1.0
    for k in range(1, n + 1):
        m = j @ m
        c = -m[..., diag, diag].sum(axis=-1) / k
        coeffs[..., k] = c
        m[..., diag, diag] += c[..., None]
    return coeffs


def routh_flags(coeffs):
    """Routh array sign test for a stack (batch, n + 1) of monic polynomials.

    Returns boolean (stable, marginal) arrays, one entry per polynomial.  A
    vanishing first-column entry (exactly zero, or at rounding level
    relative to the array scale) is replaced by eps = 1e-30 and flags the
    polynomial marginal; once a polynomial is flagged, its scale stops
    growing.  A NaN coefficient makes the polynomial unstable.
    """
    batch, rows = coeffs.shape
    width = (rows + 1) // 2
    table = np.zeros((batch, rows, width + 1))
    table[:, 0, :width] = coeffs[:, 0::2]
    table[:, 1, : rows // 2] = coeffs[:, 1::2]
    scale = np.abs(table[:, :2, :width]).max(axis=(1, 2))
    marginal = np.zeros(batch, dtype=bool)
    eps = 1e-30
    for r in range(2, rows):
        small = np.abs(table[:, r - 1, 0]) <= 1e-14 * scale
        table[small, r - 1, 0] = eps
        marginal |= small
        pivot = table[:, r - 1, 0, None]
        table[:, r, :width] = (
            pivot * table[:, r - 2, 1:] - table[:, r - 2, 0, None] * table[:, r - 1, 1:]
        ) / pivot
        grown = np.maximum(scale, np.abs(table[:, r, :width]).max(axis=1))
        scale = np.where(marginal, scale, grown)
    first = table[:, :, 0]
    zero = first == 0.0
    marginal |= zero.any(axis=1)
    first = np.where(zero, eps, first)
    stable = np.all(first[:, :1] * first > 0.0, axis=1)
    return stable, marginal


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


def lyapunov_system(j, d):
    """Half-vectorize j v + v j^T = -d (d symmetric; its upper triangle is
    read) into an m x m system for the m = n(n + 1)/2 independent entries
    of v, for one n x n pair or a stack (batch, n, n) of them.

    Returns the system matrices, the right-hand sides and the (n, n) index
    array that maps a solution x to the exactly symmetric v = x[..., full].
    """
    n = j.shape[-1]
    src, iu, full = _half_vec_maps(n)
    batch = j.shape[:-2]
    jp = np.concatenate((j.reshape(batch + (n * n,)), np.zeros(batch + (1,))), axis=-1)
    a = jp[..., src[0]]
    a += jp[..., src[1]]
    return a, -d[..., iu[0], iu[1]], full


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
    the roots kept before it.  A non-finite coefficient gives no roots.
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
