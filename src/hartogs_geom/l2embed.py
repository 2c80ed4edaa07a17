"""Sequence-space embedding of Hartogs polydisks and linear-support geodesics.

The Hartogs polydisk M over Delta^r with exponent mu embeds isometrically
into l^2 through monomial components: disk blocks

    psi_j = sqrt(mu) (z_j, ..., z_j^k / sqrt(k), ...),    j = 1..r,

and fiber-coupled components indexed by a multi-index k and a >= 1,

    Psi_{k,a} = (1/sqrt(a)) sqrt(prod_j C(mu a + k_j - 1, k_j))
                z_1^{k_1} ... z_r^{k_r} w^a,

with sum |f|^2 = -log(prod (1-|z_j|^2)^mu - |w|^2), the Kaehler potential.

Pulling a curve gamma(t) = (xi_1 v(t), ..., xi_r v(t), xi_w v(t)) through the
embedding turns the geodesic equation into residual series in t; evaluating
their t-derivatives at 0 order by order classifies the directions xi that
admit a geodesic with linear support; all their terms (k, a) read, at once,
the coefficient table `_binomial_rows` of `embed` and `norm_table`.
Direction vectors carry the fiber component last, matching the point layout.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .domains import DomainSpec
from .hartogs import HartogsPotential, HartogsSpec, h_contains, potential
from .metric import distance_to_span, geodesic_batch
from .metric import geodesic_ivp  # noqa: F401 - stays importable as l2embed.geodesic_ivp
from .numerics import _stack, gen_binomial

__all__ = [
    "Truncation",
    "GeodesicClass",
    "LineConstraints",
    "LinearGeodesicVerdict",
    "NormTable",
    "embed",
    "norm_table",
    "norm_residual",
    "series_residual",
    "line_constraints",
    "line_deviation",
]

_SERIES_CAP = 8  # |k| + a cap; exact for t-derivatives of order <= 5 at t = 0


@dataclass(frozen=True)
class Truncation:
    """Component cutoffs: |k| <= k_max for multi-indices, a <= a_max."""

    k_max: int
    a_max: int

    def __post_init__(self):
        if self.k_max < 0 or self.a_max < 1:
            raise ValueError("need k_max >= 0 and a_max >= 1")


class GeodesicClass(str, enum.Enum):
    IN_BASE = "in_base"
    IN_FIBER = "in_fiber"
    HYPERBOLIC_SPACE = "hyperbolic_space"
    IMPOSSIBLE = "impossible"


@dataclass(frozen=True)
class LineConstraints:
    """Derivative constraints extracted from the residual series at t = 0."""

    second_derivative: float
    third_derivative: float | None
    third_spread: float
    muxi_consistent: bool | None
    fifth_spread: float | None
    fifth_consistent: bool | None
    rank_mu: float


@dataclass(frozen=True)
class LinearGeodesicVerdict:
    klass: GeodesicClass
    constraints: LineConstraints

    def to_json(self):
        c = self.constraints
        return {
            "class": self.klass.value,
            "constraints": {
                "second_derivative": c.second_derivative,
                "third_derivative": c.third_derivative,
                "third_spread": c.third_spread,
                "muxi_consistent": c.muxi_consistent,
                "fifth_spread": c.fifth_spread,
                "fifth_consistent": c.fifth_consistent,
                "rank_mu": c.rank_mu,
            },
        }


# -- the embedding -------------------------------------------------------------


@lru_cache(maxsize=128)
def _multi_indices(r: int, k_max: int) -> tuple[tuple[int, ...], ...]:
    """Every k in N^r with |k| <= k_max, in (|k|, k) order: C(k_max + r, r)
    tuples, each built once from those of r - 1 with the remaining degree."""
    if r == 0:
        return ((),)
    out = [(k, *rest) for k in range(k_max + 1) for rest in _multi_indices(r - 1, k_max - k)]
    return tuple(sorted(out, key=lambda k: (sum(k), k)))


@lru_cache(maxsize=64)
def _multi_index_array(r: int, k_max: int) -> np.ndarray:
    return np.asarray(_multi_indices(r, k_max), dtype=np.intp)


@lru_cache(maxsize=64)
def _binomial_rows(mu: float, a_max: int, k_max: int) -> np.ndarray:
    """Read-only rows[a - 1, k] = gen_binomial(mu a, k) for a <= a_max, k <= k_max;
    ValueError, naming mu and the table size, when an entry overflows a float."""
    try:
        rows = np.array(
            [[gen_binomial(mu * a, k) for k in range(k_max + 1)] for a in range(1, a_max + 1)]
        )
    except OverflowError as exc:
        msg = f"C(mu a + k - 1, k) at mu = {mu:g} overflows a float for a <= {a_max}, k <= {k_max}"
        raise ValueError(msg) from exc
    rows.flags.writeable = False
    return rows


def embed(r: int, mu: float, z, w, trunc: Truncation) -> np.ndarray:
    """Truncated l^2 image of an interior point of the Hartogs polydisk.

    Component order: psi_1, ..., psi_r (exponents 1..k_max each), then the
    fiber block over a = 1..a_max with multi-indices sorted by total degree.
    This is the explicit component route; `norm_table` sums the same squared
    norms without building the components.
    """
    z = np.asarray(z, dtype=np.complex128)
    w = complex(w)
    if len(z) != r:
        raise ValueError(f"expected {r} base coordinates")
    spec = HartogsSpec(DomainSpec.polydisk(r), mu)
    if not h_contains(spec, np.append(z, w), 0.0):
        raise ValueError("point lies outside the Hartogs polydisk")
    sqrt_mu = np.sqrt(mu)
    kpow = np.arange(trunc.k_max + 1)
    zpow = z[:, None] ** kpow  # zpow[j, k] = z_j^k
    blocks = [sqrt_mu * zpow[j, 1:] / np.sqrt(kpow[1:]) for j in range(r)]
    kidx = _multi_index_array(r, trunc.k_max)
    wa = w ** np.arange(1, trunc.a_max + 1)
    binom = _binomial_rows(mu, trunc.a_max, trunc.k_max)
    for a in range(1, trunc.a_max + 1):
        # sqrt of the product of generalized binomials, gathered per column
        mono = np.full(len(kidx), wa[a - 1] / np.sqrt(a), dtype=np.complex128)
        if w != 0.0:
            root_binom = np.sqrt(binom[a - 1])
            for j in range(r):
                mono = mono * (root_binom * zpow[j])[kidx[:, j]]
        else:
            mono[:] = 0.0
        blocks.append(mono)
    return np.concatenate(blocks)


@dataclass(frozen=True)
class NormTable:
    """Squared l^2 norms of one point's image under every smaller truncation.

    disk[K] is the squared norm of the disk blocks psi_1..psi_r cut at
    exponent K; fiber[a - 1, K] that of fiber block a over |k| <= K.
    """

    disk: np.ndarray
    fiber: np.ndarray

    def norm_sq(self, trunc: Truncation) -> float:
        """Sum |f|^2 over the components kept by `trunc` (within the table)."""
        n_a, n_k = self.fiber.shape
        if trunc.a_max > n_a or trunc.k_max >= n_k:
            raise ValueError("truncation exceeds the table")
        return float(self.disk[trunc.k_max] + np.sum(self.fiber[: trunc.a_max, trunc.k_max]))


def _truncated_product(p: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Column-wise product of polynomials (row k holds t^k), cut at their length.

    One contraction over toe[k, a, i] = c[k - i, a], a strided Toeplitz view
    of the zero-padded columns (0 for i > k; no n x cols x n copy): row k
    sums p[i] c[k - i] in the order i = 0..k, then exact zeros, so every float
    equals that of the term-by-term shifted sum.
    """
    n, cols = c.shape
    pad = np.concatenate([np.zeros((n - 1, cols)), c])
    toe = np.lib.stride_tricks.sliding_window_view(pad, n, axis=0)[:, :, ::-1]
    return np.einsum("kai,ia->ka", toe, p)


def norm_table(r: int, mu: float, z, w, trunc: Truncation) -> NormTable:
    """Squared norms of the truncated image of (z, w), summed by total degree.

    With x_j = |z_j|^2, fiber block a contributes (|w|^{2a} / a) times the
    coefficients of prod_j sum_k gen_binomial(mu a, k) x_j^k up to degree
    k_max, and disk block j contributes mu x_j^k / k: O(a_max r k_max^2)
    work instead of one component per multi-index, one `_truncated_product`
    contraction per factor after the first.  The point is not checked for
    membership.
    """
    x = np.abs(np.asarray(z, dtype=np.complex128)) ** 2
    if len(x) != r:
        raise ValueError(f"expected {r} base coordinates")
    kpow = np.arange(trunc.k_max + 1)
    xpow = x[:, None] ** kpow  # xpow[j, k] = |z_j|^{2k}
    disk = np.zeros(trunc.k_max + 1)
    disk[1:] = np.cumsum(mu * np.sum(xpow[:, 1:], axis=0) / kpow[1:])
    a = np.arange(1, trunc.a_max + 1)
    binom = _binomial_rows(mu, trunc.a_max, trunc.k_max).T  # binom[k, a - 1]
    # one column per fiber power a, one row per total degree; the weight
    # |w|^{2a}/a goes in first, so every coefficient formed is a partial sum
    # of sum |f|^2 and stays finite however large the binomials grow
    poly = binom * xpow[0][:, None] * (abs(complex(w)) ** (2 * a) / a)
    for j in range(1, r):
        poly = _truncated_product(poly, binom * xpow[j][:, None])
    return NormTable(disk, np.cumsum(poly, axis=0).T)


def norm_residual(r: int, mu: float, p, trunc: Truncation) -> float:
    """| sum |f_i|^2 - Phi(p) | at the given truncation.

    Raises ValueError (DomainViolation) when p lies outside the Hartogs
    polydisk.
    """
    p = np.asarray(p, dtype=np.complex128)
    phi = potential(HartogsSpec(DomainSpec.polydisk(r), mu), p)
    return abs(norm_table(r, mu, p[:-1], p[-1], trunc).norm_sq(trunc) - phi)


# -- residual series of the linear ansatz ----------------------------------------


def _poly_mul(a: np.ndarray, b: np.ndarray, deg: int) -> np.ndarray:
    return np.convolve(a, b)[: deg + 1]


def _poly_d2(a: np.ndarray) -> np.ndarray:
    out = np.zeros_like(a)
    for n in range(2, len(a)):
        out[n - 2] = n * (n - 1) * a[n]
    return out


def series_residual(r: int, mu: float, xi, v_coeffs, order: int) -> np.ndarray:
    """Order-th t-derivative at 0 of the r+1 geodesic residual expressions.

    `v_coeffs` are the Taylor coefficients of the profile v(t) up to order
    5, with v(0) = 0 and v'(0) = 1.  Returns the base residuals first and
    the fiber residual last.  Terms are truncated at |k| + a <= 8, which is
    exact at t = 0 for derivative orders up to 5 because v(0) = 0.
    """
    if order < 0 or order > 3:
        raise ValueError("derivative order must lie in 0..3")
    xi = np.asarray(xi, dtype=np.complex128)
    if len(xi) != r + 1:
        raise ValueError(f"expected direction of length {r + 1}")
    v = np.asarray(v_coeffs, dtype=np.complex128)
    if len(v) > 6:
        raise ValueError("v_coeffs go up to order 5")
    if abs(v[0]) > 1e-14 or abs(v[1] - 1.0) > 1e-14:
        raise ValueError("profile must satisfy v(0) = 0, v'(0) = 1")
    deg = order + 2
    v = np.concatenate([v, np.zeros(6 - len(v))])[: deg + 1]
    x = np.abs(xi) ** 2

    # the terms (a, k) with |k| + a <= cap: term[t, j] = C(mu a + k_j - 1, k_j)
    # |xi_j|^{2 k_j} from the embedding's table, dterm[t, j] its derivative in |xi_j|^2
    k = _multi_index_array(r, _SERIES_CAP - 1)
    a, i = np.nonzero(np.arange(1, _SERIES_CAP + 1)[:, None] + k.sum(axis=1) <= _SERIES_CAP)
    k, a = k[i], a + 1
    binom = _binomial_rows(mu, _SERIES_CAP, _SERIES_CAP - 1)[a[:, None] - 1, k]
    term = binom * x[:r] ** k
    dterm = k * binom * x[:r] ** np.maximum(k - 1, 0)
    # the fiber equation weighs prod_j term |xi_w|^{2(a-1)}, base equation s the
    # product with factor s differentiated, times |xi_w|^{2a} / a, plus the disk
    # sum mu sum_m |xi_s|^{2(m-1)}; both gathered by degree m = |k| + a
    fiber = np.prod(term, axis=1) * x[r] ** (a - 1)
    base = np.prod(np.where(np.eye(r, dtype=bool)[:, None], dterm, term), axis=-1)
    base *= x[r] ** a / a
    degree = np.arange(_SERIES_CAP + 1) == (a + k.sum(axis=1))[:, None]
    weights = np.vstack([base, fiber]) @ degree
    weights[:r, 1:] += mu * x[:r, None] ** np.arange(_SERIES_CAP)

    # core[m] = [(vbar^m)'' v^(m-1)](t) as a truncated polynomial; core[0] = 0
    core = np.zeros((_SERIES_CAP + 1, deg + 1), dtype=np.complex128)
    vb_m, v_m = np.zeros(deg + 3, dtype=np.complex128), np.zeros(deg + 1, dtype=np.complex128)
    vb_m[0] = v_m[0] = 1.0
    for m in range(1, _SERIES_CAP + 1):
        vb_m = _poly_mul(vb_m, v.conj(), deg + 2)
        core[m] = _poly_mul(_poly_d2(vb_m), v_m, deg)
        v_m = _poly_mul(v_m, v, deg)
    return np.conj(xi) * (weights @ core)[:, order] * float(math.factorial(order))


# -- classification ----------------------------------------------------------------


def line_constraints(r: int, mu: float, xi, tol: float = 1e-9) -> LinearGeodesicVerdict:
    """Classify a direction for geodesics with linear support through 0.

    The residual series is solved order by order: order 0 forces v''(0)=0;
    order 1 determines v'''(0) from every equation with a nonvanishing
    multiplier and the candidates must agree (the modulus constraint on the
    base components); order 3 determines v^(5)(0) from every active
    equation and the candidates must again agree.  A direction in the fiber
    is classified immediately since that slice is totally geodesic; one in
    the base is linear exactly when its nonzero moduli agree, the base
    polydisk's geodesic moving each coordinate at its own speed.
    """
    xi = np.asarray(xi, dtype=np.complex128)
    if len(xi) != r + 1:
        raise ValueError(f"expected direction of length {r + 1}")
    scale = float(np.max(np.abs(xi)))
    if scale == 0.0:
        raise ValueError("direction must be nonzero")
    active_base = [s for s in range(r) if abs(xi[s]) > 1e-13 * scale]
    fiber_on = abs(xi[r]) > 1e-13 * scale
    amod2 = np.abs(xi) ** 2
    r_mu = len(active_base) * mu

    if not fiber_on:
        # the base polydisk's geodesic tanh(c |xi_s| t) xi_s / |xi_s| from 0
        v3_candidates = [-2.0 * amod2[s] for s in active_base]
        v3_spread = max(v3_candidates) - min(v3_candidates)
        linear = v3_spread <= tol * max(1.0, max(abs(c) for c in v3_candidates))
        return LinearGeodesicVerdict(
            GeodesicClass.IN_BASE if linear else GeodesicClass.IMPOSSIBLE,
            LineConstraints(0.0, v3_candidates[0], v3_spread, None, None, None, r_mu),
        )
    if not active_base:
        return LinearGeodesicVerdict(
            GeodesicClass.IN_FIBER,
            LineConstraints(0.0, -2.0 * amod2[r], 0.0, None, None, None, r_mu),
        )

    # third-derivative candidates (order-1 residuals are linear in v''')
    v3_candidates = [-2.0 * (amod2[r] + mu * float(np.sum(amod2[:r])))]
    v3_candidates += [-2.0 * (amod2[s] + amod2[r]) for s in active_base]
    v3_spread = max(v3_candidates) - min(v3_candidates)
    v3_scale = max(1.0, max(abs(c) for c in v3_candidates))
    muxi_ok = v3_spread <= tol * v3_scale
    v3 = v3_candidates[0]
    if not muxi_ok:
        return LinearGeodesicVerdict(
            GeodesicClass.IMPOSSIBLE,
            LineConstraints(0.0, v3, v3_spread, False, None, None, r_mu),
        )

    # fifth-derivative candidates from the order-3 residuals, linear in c5
    active = active_base + [r]
    coeffs0 = [0.0, 1.0, 0.0, v3 / 6.0, 0.0, 0.0]
    coeffs1 = [0.0, 1.0, 0.0, v3 / 6.0, 0.0, 1.0]
    r0 = series_residual(r, mu, xi, coeffs0, 3)
    r1 = series_residual(r, mu, xi, coeffs1, 3)
    c5 = []
    for e in active:
        slope = r1[e] - r0[e]
        c5.append(-r0[e] / slope)
    c5 = np.asarray(c5)
    fifth_spread = float(np.max(np.abs(c5 - c5[0])))
    fifth_scale = max(1.0, float(np.max(np.abs(c5))))
    fifth_ok = fifth_spread <= tol * fifth_scale
    klass = GeodesicClass.HYPERBOLIC_SPACE if fifth_ok else GeodesicClass.IMPOSSIBLE
    return LinearGeodesicVerdict(
        klass,
        LineConstraints(0.0, v3, v3_spread, True, fifth_spread, fifth_ok, r_mu),
    )


def line_deviation(r: int, mu: float, xi, T: float, tol: float = 1e-10):
    """Max distance of the integrated geodesic from the complex line C xi.

    Integrates from the origin with the (normalized) direction xi and
    projects every trace point onto the line in the Euclidean Hermitian
    inner product.  xi is one direction (a float is returned) or a stack
    (m, r + 1) (an array (m,) is returned), integrated as one batch.  A
    direction of a lower rank r' may come zero-padded (base coordinates
    r'+1..r zero, the fiber last): the rank-r' polydisk Hartogs domain is the
    totally geodesic slice z_{r'+1} = ... = z_r = 0 of the rank-r one, so
    its geodesic stays there with its padded coordinates exactly 0, and the
    stack may mix ranks (`linear-scan` stacks all of one mu).
    """
    dirs, single = _stack(xi, r + 1)
    nrm = np.array([np.linalg.norm(d) for d in dirs])
    if np.any(nrm == 0.0):
        raise ValueError("direction must be nonzero")
    dirs = dirs / nrm[:, None]
    spec = HartogsSpec(DomainSpec.polydisk(r), mu)
    pot = HartogsPotential(spec)
    traces = geodesic_batch(pot, np.zeros_like(dirs), dirs, T, tol=tol)
    dev = np.array(
        [np.max(distance_to_span(tr.positions, d[:, None])) for tr, d in zip(traces, dirs)]
    )
    return float(dev[0]) if single else dev
