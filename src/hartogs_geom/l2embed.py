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
admit a geodesic with linear support.  Direction vectors carry the fiber
component last, matching the point layout.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .domains import DomainSpec
from .hartogs import HartogsPotential, HartogsSpec, h_contains, potential
from .metric import distance_to_span, geodesic_ivp
from .numerics import gen_binomial

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


def _multi_indices(r: int, k_max: int) -> list[tuple[int, ...]]:
    out = [
        k
        for k in itertools.product(range(k_max + 1), repeat=r)
        if sum(k) <= k_max
    ]
    out.sort(key=lambda k: (sum(k), k))
    return out


@lru_cache(maxsize=64)
def _multi_index_array(r: int, k_max: int) -> np.ndarray:
    return np.asarray(_multi_indices(r, k_max), dtype=np.intp)


@lru_cache(maxsize=64)
def _binomial_rows(mu: float, a_max: int, k_max: int) -> np.ndarray:
    """Read-only rows[a - 1, k] = gen_binomial(mu a, k) for a <= a_max, k <= k_max."""
    rows = np.array(
        [[gen_binomial(mu * a, k) for k in range(k_max + 1)] for a in range(1, a_max + 1)]
    )
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
    """Column-wise product of polynomials (row k holds t^k), cut at their length."""
    out = np.zeros_like(p)
    n = len(p)
    for i in range(n):
        out[i:] += p[i] * c[: n - i]
    return out


def norm_table(r: int, mu: float, z, w, trunc: Truncation) -> NormTable:
    """Squared norms of the truncated image of (z, w), summed by total degree.

    With x_j = |z_j|^2, fiber block a contributes (|w|^{2a} / a) times the
    coefficients of prod_j sum_k gen_binomial(mu a, k) x_j^k up to degree
    k_max, and disk block j contributes mu x_j^k / k: O(a_max r k_max^2)
    work instead of one component per multi-index.  The point is not checked
    for membership.
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


def _poly_pow(a: np.ndarray, m: int, deg: int) -> np.ndarray:
    out = np.zeros(deg + 1, dtype=np.complex128)
    out[0] = 1.0
    for _ in range(m):
        out = _poly_mul(out, a, deg)
    return out


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
    vb = np.conj(v)

    base = xi[:r]
    fib = xi[r]
    amod2 = np.abs(xi) ** 2

    # core[m] = [(vbar^m)'' v^(m-1)](t) as a truncated polynomial
    core = {
        m: _poly_mul(_poly_d2(_poly_pow(vb, m, deg + 2)[: deg + 3]), _poly_pow(v, m - 1, deg), deg)
        for m in range(1, _SERIES_CAP + 1)
    }

    out = np.zeros(r + 1, dtype=np.complex128)
    fact = float(math.factorial(order))

    # fiber equation
    acc = np.zeros(deg + 1, dtype=np.complex128)
    for a in range(1, _SERIES_CAP + 1):
        for k in _multi_indices(r, _SERIES_CAP - a):
            m = sum(k) + a
            coef = 1.0  # a * A^2 = prod of generalized binomials
            for j, kj in enumerate(k):
                if kj:
                    coef *= gen_binomial(mu * a, kj) * amod2[j] ** kj
            coef *= amod2[r] ** (a - 1)
            acc += coef * core[m]
    out[r] = np.conj(fib) * acc[order] * fact

    # base equations
    for s in range(r):
        acc = np.zeros(deg + 1, dtype=np.complex128)
        for k in range(1, _SERIES_CAP + 1):
            acc += mu * amod2[s] ** (k - 1) * core[k]
        for a in range(1, _SERIES_CAP + 1):
            for k in _multi_indices(r, _SERIES_CAP - a):
                if k[s] == 0:
                    continue
                m = sum(k) + a
                coef = k[s] * gen_binomial(mu * a, k[s]) / a * amod2[s] ** (k[s] - 1)
                for j, kj in enumerate(k):
                    if kj and j != s:
                        coef *= gen_binomial(mu * a, kj) * amod2[j] ** kj
                coef *= amod2[r] ** a
                acc += coef * core[m]
        out[s] = np.conj(base[s]) * acc[order] * fact
    return out


# -- classification ----------------------------------------------------------------


def line_constraints(r: int, mu: float, xi, tol: float = 1e-9) -> LinearGeodesicVerdict:
    """Classify a direction for geodesics with linear support through 0.

    The residual series is solved order by order: order 0 forces v''(0)=0;
    order 1 determines v'''(0) from every equation with a nonvanishing
    multiplier and the candidates must agree (the modulus constraint on the
    base components); order 3 determines v^(5)(0) from every active
    equation and the candidates must again agree.  Directions tangent to
    the base or the fiber are classified immediately since those slices are
    totally geodesic.
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
        v3 = -2.0 * amod2[active_base[0]] if len(active_base) == 1 else None
        return LinearGeodesicVerdict(
            GeodesicClass.IN_BASE,
            LineConstraints(0.0, v3, 0.0, None, None, None, r_mu),
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


def line_deviation(r: int, mu: float, xi, T: float, tol: float = 1e-10) -> float:
    """Max distance of the integrated geodesic from the complex line C xi.

    Integrates from the origin with the (normalized) direction xi and
    projects every trace point onto the line in the Euclidean Hermitian
    inner product.
    """
    xi = np.asarray(xi, dtype=np.complex128)
    nrm = np.linalg.norm(xi)
    if nrm == 0.0:
        raise ValueError("direction must be nonzero")
    xi = xi / nrm
    spec = HartogsSpec(DomainSpec.polydisk(r), mu)
    pot = HartogsPotential(spec)
    trace = geodesic_ivp(pot, np.zeros(r + 1, dtype=np.complex128), xi, T, tol=tol)
    basis = xi.reshape(-1, 1)
    return max(distance_to_span(p, basis) for p in trace.positions)
