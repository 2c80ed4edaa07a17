"""Independent oracles shared by the test modules.

Everything here deliberately avoids the jet engine: finite differences with
Richardson extrapolation for derivatives, cofactor expansion for
determinants, term-by-term loops for the linear-support residual series, and
an explicit Dormand-Prince 8(5,3) integrator for geodesics.  These provide
the second route of every dual-route check.
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


# Dormand-Prince 8(5,3) (DOP853; Prince & Dormand 1981; Hairer, Norsett &
# Wanner, Solving ODEs I, II.10): stage weights a[s], where the last row holds the eighth-order
# weights b, and the error weights E5 = b - b5 and E3 = b - b3 of the
# embedded fifth- and third-order solutions
_DP_A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
     4.45031289275240888144113950566, 1.89151789931450038304281599044,
     -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
     -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
     4.47106157277725905176885569043e-2),
)
_DP_E5 = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1, 0.0,
)
_DP_B3 = {0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
          11: 0.220588235294117647058823529412e-1}
_DP_E3 = (*(b - _DP_B3.get(i, 0.0) for i, b in enumerate(_DP_A[12])), 0.0)


def dop853_geodesic(pot, p0, v0, T: float, tol: float = 1e-10):
    """The geodesic through (p0, v0) up to time T by adaptive DOP853.

    The second route for `metric.geodesic_batch`: an explicit Runge-Kutta
    pair with first-same-as-last stages, one point per rhs evaluation and no
    iteration, on the package's `_acceleration`.  The error of a step
    combines the embedded fifth- and third-order solutions per component as
    h |e5|^2 / hypot(|e5|, 0.1 |e3|) against tol (1 + |y|).  Returns the
    accepted times, positions and velocities; it stops at T and knows no
    boundary.
    """
    from hartogs_geom.metric import _acceleration

    def rhs(y):
        return np.stack([y[1], _acceleration(pot, y[0][None], y[1][None])[0][0]])

    y = np.stack([np.asarray(p0, dtype=complex), np.asarray(v0, dtype=complex)])
    t, h, k1 = 0.0, min(0.01, T), rhs(y)
    times, ys = [0.0], [y]
    while t < T:
        h = min(h, T - t)
        k = [k1]
        for s in range(1, 13):
            y8 = y + h * sum(c * k[m] for m, c in enumerate(_DP_A[s]) if c)
            k.append(rhs(y8))
        e5, e3 = (np.abs(sum(c * km for c, km in zip(e, k) if c)) for e in (_DP_E5, _DP_E3))
        den = np.hypot(e5, 0.1 * e3)
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y8))
        err = float(np.max(h * e5**2 / np.where(den > 0, den, 1.0) / scale))
        if err <= 1.0:
            t, y, k1 = t + h, y8, k[12]
            times.append(t)
            ys.append(y)
        h *= min(max(0.9 * max(err, 1e-16) ** -0.125, 0.2), 5.0)
    path = np.array(ys)
    return np.array(times), path[:, 0], path[:, 1]
