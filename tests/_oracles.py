"""Independent oracles shared by the test modules.

Everything here deliberately avoids the jet engine: finite differences with
Richardson extrapolation for derivatives, cofactor expansion for
determinants, and term-by-term loops for the linear-support residual
series.  These provide the second route of every dual-route check.
"""

from __future__ import annotations

from itertools import product
from math import factorial

import numpy as np
from numpy.polynomial import polynomial as P


def cofactor_det(m: np.ndarray) -> complex:
    """Determinant by cofactor expansion along the first row."""
    m = np.asarray(m)
    n = m.shape[0]
    if n == 1:
        return complex(m[0, 0])
    out = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        out += (-1) ** j * complex(m[0, j]) * cofactor_det(minor)
    return out


def fd_derivative(f, x, indices, h: float) -> float:
    """Nested central differences for a mixed partial derivative."""
    if not indices:
        return f(x)
    i, rest = indices[0], indices[1:]
    xp = np.array(x, dtype=float)
    xm = np.array(x, dtype=float)
    xp[i] += h
    xm[i] -= h
    return (fd_derivative(f, xp, rest, h) - fd_derivative(f, xm, rest, h)) / (2.0 * h)


def fd_richardson(f, x, indices, h: float = 1e-3) -> float:
    """Richardson-extrapolated central differences (O(h^4))."""
    d1 = fd_derivative(f, x, indices, h)
    d2 = fd_derivative(f, x, indices, h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def _real_view(pot):
    """Potential as a function of interleaved real coordinates."""

    def f(xs):
        zs = [complex(xs[2 * i], xs[2 * i + 1]) for i in range(len(xs) // 2)]
        return pot.value(np.asarray(zs, dtype=np.complex128))

    return f


def metric_fd(pot, p, h: float = 1e-3) -> np.ndarray:
    """g_{i jbar} by finite differences of the potential."""
    n = pot.n_coords
    f = _real_view(pot)
    x0 = np.empty(2 * n)
    x0[0::2] = np.real(p)
    x0[1::2] = np.imag(p)
    g = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            xx = fd_richardson(f, x0, (2 * i, 2 * j), h)
            yy = fd_richardson(f, x0, (2 * i + 1, 2 * j + 1), h)
            xy = fd_richardson(f, x0, (2 * i, 2 * j + 1), h)
            yx = fd_richardson(f, x0, (2 * i + 1, 2 * j), h)
            g[i, j] = 0.25 * (xx + yy + 1j * (xy - yx))
    return g


def dg_fd(pot, p, h: float = 2e-3) -> np.ndarray:
    """dg[i, j, l] = d^3 Phi / dz_i dz_j dzbar_l by finite differences."""
    n = pot.n_coords
    f = _real_view(pot)
    x0 = np.empty(2 * n)
    x0[0::2] = np.real(p)
    x0[1::2] = np.imag(p)
    out = np.empty((n, n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            for l in range(n):
                acc = 0.0 + 0.0j
                # expand (1/2)(dx - i dy) twice and (1/2)(dx + i dy) once
                for bi, ci in ((2 * i, 1.0), (2 * i + 1, -1j)):
                    for bj, cj in ((2 * j, 1.0), (2 * j + 1, -1j)):
                        for bl, cl in ((2 * l, 1.0), (2 * l + 1, 1j)):
                            acc += ci * cj * cl * fd_richardson(f, x0, (bi, bj, bl), h)
                out[i, j, l] = acc / 8.0
    return out


def christoffel_fd(pot, p, h: float = 2e-3) -> np.ndarray:
    """Christoffel tensor from finite-difference metric data."""
    g = metric_fd(pot, p)
    dg = dg_fd(pot, p, h)
    h_inv = np.conj(np.linalg.inv(g))
    return np.einsum("kl,ijl->kij", h_inv, dg)


def third_fd(pot, p, x, y, h: float = 2e-3) -> np.ndarray:
    """third[a, b, l] = Phi_{i j lbar} x[i, a] y[j, b] by finite differences.

    Differentiates the potential along p + s x_a + t y_b + u e_l in the real
    parts and imaginary parts of s, t and u, then assembles d_s d_t d_ubar.
    """
    n = pot.n_coords
    out = np.empty((x.shape[1], y.shape[1], n), dtype=np.complex128)
    for a in range(x.shape[1]):
        for b in range(y.shape[1]):
            for l in range(n):

                def f(r, u=x[:, a], v=y[:, b], l=l):
                    q = np.array(p, dtype=np.complex128)
                    q += complex(r[0], r[1]) * u + complex(r[2], r[3]) * v
                    q[l] += complex(r[4], r[5])
                    return pot.value(q)

                acc = 0.0 + 0.0j
                # (1/2)(d_re - i d_im) for s and t, (1/2)(d_re + i d_im) for ubar
                for bs, cs in ((0, 1.0), (1, -1j)):
                    for bt, ct in ((2, 1.0), (3, -1j)):
                        for bl, cl in ((4, 1.0), (5, 1j)):
                            acc += cs * ct * cl * fd_richardson(f, np.zeros(6), (bs, bt, bl), h)
                out[a, b, l] = acc / 8.0
    return out


def series_residual_loops(r: int, mu: float, xi, v_coeffs, order: int, cap: int = 8) -> np.ndarray:
    """`l2embed.series_residual` by explicit loops over every term (a, k).

    The fiber equation sums prod_j C(mu a + k_j - 1, k_j) |xi_j|^{2 k_j}
    |xi_w|^{2(a-1)} core[|k| + a] over |k| + a <= cap; base equation s sums
    the same products differentiated in |xi_s|^2, times |xi_w|^{2a} / a, plus
    mu sum_m |xi_s|^{2(m-1)} core[m].  core[m] = [(vbar^m)'' v^(m-1)](t) is
    taken from NumPy's polynomial module and the generalized binomials from
    their product formula, so nothing is shared with the package.
    """
    def binom(x, k):
        out = 1.0
        for i in range(k):
            out *= (x + i) / (i + 1)
        return out

    xi = np.asarray(xi, dtype=np.complex128)
    deg = order + 2
    v = np.zeros(deg + 3, dtype=np.complex128)
    given = np.asarray(v_coeffs, dtype=np.complex128)[: deg + 1]
    v[: len(given)] = given

    def cut(p):
        out = np.zeros(deg + 1, dtype=np.complex128)
        p = np.asarray(p)[: deg + 1]
        out[: len(p)] = p
        return out

    def core(m):
        vbar_m = P.polypow(np.conj(v), m)[: deg + 3]
        return cut(P.polymul(P.polyder(vbar_m, 2), P.polypow(v, m - 1)))

    cores = {m: core(m) for m in range(1, cap + 1)}
    amod2 = np.abs(xi) ** 2
    terms = [
        (a, k) for a in range(1, cap + 1) for k in product(range(cap), repeat=r) if sum(k) + a <= cap
    ]
    out = np.zeros(r + 1, dtype=np.complex128)

    acc = np.zeros(deg + 1, dtype=np.complex128)
    for a, k in terms:
        coef = amod2[r] ** (a - 1)
        for j, kj in enumerate(k):
            coef *= binom(mu * a, kj) * amod2[j] ** kj
        acc += coef * cores[sum(k) + a]
    out[r] = np.conj(xi[r]) * acc[order] * factorial(order)

    for s in range(r):
        acc = np.zeros(deg + 1, dtype=np.complex128)
        for m in range(1, cap + 1):
            acc += mu * amod2[s] ** (m - 1) * cores[m]
        for a, k in terms:
            if k[s] == 0:
                continue
            coef = k[s] * binom(mu * a, k[s]) / a * amod2[s] ** (k[s] - 1) * amod2[r] ** a
            for j, kj in enumerate(k):
                if j != s:
                    coef *= binom(mu * a, kj) * amod2[j] ** kj
            acc += coef * cores[sum(k) + a]
        out[s] = np.conj(xi[s]) * acc[order] * factorial(order)
    return out


def truncated_product_loop(p: np.ndarray, c: np.ndarray) -> np.ndarray:
    """`l2embed._truncated_product` as a term-by-term shifted sum: row i of p
    times the columns of c, added at rows i onward, cut at their length."""
    out = np.zeros_like(p)
    n = len(p)
    for i in range(n):
        out[i:] += p[i] * c[: n - i]
    return out
