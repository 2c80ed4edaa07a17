"""Classical Cartan domains and their products.

The four classical families are carried in their standard matrix (or, for
the fourth type, vector) realizations:

* type I   -- m x n complex matrices Z with I - Z Z* positive definite,
* type II  -- antisymmetric n x n matrices, parametrized by the strict
  upper triangle,
* type III -- symmetric m x m matrices, parametrized by the upper triangle,
* type IV  -- z in C^n with sum |z_j|^2 < 1 and
  1 + |sum z_j^2|^2 - 2 sum |z_j|^2 > 0 (n >= 5).

Products are supported everywhere; the generic norm of a product is the
product of the factor norms.  Norm evaluation is polymorphic over plain
complex coordinates and jet-valued coordinates, so the same code path feeds
both membership tests and jet differentiation.  `log_norm_derivatives`
gives the derivatives of log N up to order three in closed form: through
the Bergman operator A = I - Z Z* for types I-III, where Z = sum z_k E_k is
linear in the coordinates, and through the explicit polynomial for type IV.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .jets import Jet
from .numerics import Derivatives, DomainViolation, det, is_positive_definite

__all__ = [
    "DomainSpec",
    "LinearEmbedding",
    "polydisk_embedding",
    "product_embedding",
    "triple_product",
    "subtriple_closure",
]

_SAMPLE_BUDGET = 100_000


def _is_jet_coords(coords) -> bool:
    return any(isinstance(c, Jet) for c in coords)


def _conj(x):
    return x.conjugate() if isinstance(x, Jet) else np.conj(x)


def _realify(x, tol: float = 1e-12):
    """Real part of a structurally real quantity; asserts the imag is noise."""
    if isinstance(x, Jet):
        scale = max(1.0, float(np.max(np.abs(x.coeffs.real))))
        if x.imag_norm() > tol * scale:
            raise ValueError("expected a real-valued jet (Hermitian determinant)")
        return x.real_jet()
    x = complex(x)
    if abs(x.imag) > tol * max(1.0, abs(x.real)):
        raise ValueError("expected a real determinant of a Hermitian matrix")
    return x.real


def _upper_pairs_strict(n: int) -> list[tuple[int, int]]:
    return [(j, k) for j in range(n) for k in range(j + 1, n)]


def _upper_pairs(n: int) -> list[tuple[int, int]]:
    return [(j, k) for j in range(n) for k in range(j, n)]


@dataclass(frozen=True)
class DomainSpec:
    """A classical Cartan domain or a finite product of them.

    `kind` is one of "I", "II", "III", "IV", "product"; `params` carries the
    size parameters of an irreducible factor, `factors` the components of a
    product.  Genus metadata follows the standard classification tables
    (2(n-1) for type II, m+1 for type III); it never enters a computation.
    """

    kind: str
    params: tuple[int, ...] = ()
    factors: tuple["DomainSpec", ...] = field(default=())

    def __post_init__(self):
        if self.kind == "I":
            m, n = self.params
            if not (1 <= m <= n):
                raise ValueError("type I requires n >= m >= 1")
        elif self.kind == "II":
            (n,) = self.params
            if n < 2:
                raise ValueError("type II requires n >= 2")
        elif self.kind == "III":
            (m,) = self.params
            if m < 1:
                raise ValueError("type III requires m >= 1")
        elif self.kind == "IV":
            (n,) = self.params
            if n < 5:
                raise ValueError("type IV requires n >= 5")
        elif self.kind == "product":
            if not self.factors:
                raise ValueError("product requires at least one factor")
            if any(f.kind == "product" for f in self.factors):
                raise ValueError("product factors must be irreducible")
        else:
            raise ValueError(f"unknown domain kind {self.kind!r}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def type_i(cls, m: int, n: int) -> "DomainSpec":
        return cls("I", (m, n))

    @classmethod
    def type_ii(cls, n: int) -> "DomainSpec":
        return cls("II", (n,))

    @classmethod
    def type_iii(cls, m: int) -> "DomainSpec":
        return cls("III", (m,))

    @classmethod
    def type_iv(cls, n: int) -> "DomainSpec":
        return cls("IV", (n,))

    @classmethod
    def product(cls, *factors: "DomainSpec") -> "DomainSpec":
        return cls("product", (), tuple(factors))

    @classmethod
    def polydisk(cls, n: int) -> "DomainSpec":
        """The unit polydisk, as a product of n one-dimensional disks."""
        if n < 1:
            raise ValueError("polydisk needs n >= 1")
        if n == 1:
            return cls.type_i(1, 1)
        return cls.product(*(cls.type_i(1, 1) for _ in range(n)))

    # -- metadata ------------------------------------------------------------

    @property
    def rank(self) -> int:
        if self.kind == "I":
            return self.params[0]
        if self.kind == "II":
            return self.params[0] // 2
        if self.kind == "III":
            return self.params[0]
        if self.kind == "IV":
            return 2
        return sum(f.rank for f in self.factors)

    @property
    def genus(self) -> int:
        if self.kind == "I":
            m, n = self.params
            return n + m
        if self.kind == "II":
            return 2 * (self.params[0] - 1)
        if self.kind == "III":
            return self.params[0] + 1
        if self.kind == "IV":
            return self.params[0]
        raise ValueError("genus is defined per irreducible factor")

    @property
    def dim(self) -> int:
        if self.kind == "I":
            return self.params[0] * self.params[1]
        if self.kind == "II":
            n = self.params[0]
            return n * (n - 1) // 2
        if self.kind == "III":
            m = self.params[0]
            return m * (m + 1) // 2
        if self.kind == "IV":
            return self.params[0]
        return sum(f.dim for f in self.factors)

    @property
    def irreducible_factors(self) -> tuple["DomainSpec", ...]:
        return self.factors if self.kind == "product" else (self,)

    def _check_len(self, coords) -> None:
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(coords)}")

    # -- matrix realization ---------------------------------------------------

    def matrix_realization(self, coords) -> np.ndarray:
        """Coordinates assembled into the defining matrix of types I-III."""
        self._check_len(coords)
        jetty = _is_jet_coords(coords)
        dtype = object if jetty else np.complex128
        if self.kind == "I":
            m, n = self.params
            z = np.empty((m, n), dtype=dtype)
            for i in range(m):
                for j in range(n):
                    z[i, j] = coords[i * n + j]
            return z
        if self.kind == "II":
            (n,) = self.params
            z = np.zeros((n, n), dtype=dtype) if not jetty else np.full((n, n), 0.0, dtype=object)
            for u, (j, k) in zip(coords, _upper_pairs_strict(n)):
                z[j, k] = u
                z[k, j] = -u
            return z
        if self.kind == "III":
            (m,) = self.params
            z = np.empty((m, m), dtype=dtype)
            for u, (j, k) in zip(coords, _upper_pairs(m)):
                z[j, k] = u
                z[k, j] = u
            return z
        raise ValueError(f"type {self.kind} has no matrix realization")

    def _gram_complement(self, coords):
        """I - Z Z^dagger, polymorphic over numeric and jet coordinates."""
        z = self.matrix_realization(coords)
        if z.dtype != object:
            return np.eye(z.shape[0]) - z @ z.conj().T
        m, n = z.shape
        a = np.empty((m, m), dtype=object)
        for i in range(m):
            for j in range(m):
                s = 0.0
                for k in range(n):
                    s = s + z[i, k] * _conj(z[j, k])
                a[i, j] = (1.0 - s) if i == j else -s
        return a

    # -- closed-form derivatives of log N ----------------------------------------

    def log_norm_derivatives(self, coords, x=None, y=None) -> Derivatives:
        """Derivatives of L = log N at an interior point, in closed form.

        `x` and `y` are optional direction matrices (dim x p, dim x q) for
        the contracted second and third derivatives; see `Derivatives`.
        Raises DomainViolation when the point lies outside the domain.
        """
        z = np.asarray(coords, dtype=np.complex128)
        self._check_len(z)
        if self.kind == "IV":
            return _type_iv_log_norm(z, x, y)
        if self.kind != "product":
            return _matrix_log_norm(self, z, x, y)
        # log N is a sum over the factors: block-diagonal tensors
        levi = np.zeros((self.dim, self.dim), dtype=np.complex128)
        parts, pos = [], 0
        for f in self.factors:
            rows = slice(pos, pos + f.dim)
            sub = (None, None) if x is None else (x[rows], y[rows])
            parts.append(f.log_norm_derivatives(z[rows], *sub))
            levi[rows, rows] = parts[-1].levi
            pos += f.dim
        value = sum(part.value for part in parts)
        grad = np.concatenate([part.grad for part in parts])
        if x is None:
            return Derivatives(value, grad, levi)
        hess = sum(part.hess for part in parts)
        third = np.concatenate([part.third for part in parts], axis=2)
        return Derivatives(value, grad, levi, x, y, hess, third)

    # -- membership and generic norm ------------------------------------------

    def contains(self, coords, margin: float = 0.0) -> bool:
        """Membership with a spectral safety margin.

        For the matrix types the test is lambda_min(I - Z Z*) > margin; for
        type IV both defining inequalities are required with the margin.
        """
        self._check_len(coords)
        if self.kind == "I" and self.params == (1, 1):
            # the disk: I - Z Z* is the 1 x 1 matrix 1 - |z|^2, its own eigenvalue
            z = complex(coords[0])
            return 1.0 - (z * z.conjugate()).real > margin
        if self.kind in ("I", "II", "III"):
            return is_positive_definite(self._gram_complement(coords), margin)
        if self.kind == "IV":
            z = np.asarray(coords, dtype=np.complex128)
            s2 = float(np.sum(np.abs(z) ** 2))
            if s2 >= 1.0 - margin:
                return False
            return self._norm(coords) > margin
        pos = 0
        for f in self.factors:
            if not f.contains(coords[pos : pos + f.dim], margin):
                return False
            pos += f.dim
        return True

    def _norm(self, coords):
        """Generic norm, jet-friendly, without membership validation."""
        if self.kind in ("I", "III"):
            return _realify(det(self._gram_complement(coords)))
        if self.kind == "II":
            d = _realify(det(self._gram_complement(coords)))
            if isinstance(d, Jet):
                return d**0.5
            return float(d) ** 0.5
        if self.kind == "IV":
            s_sq = 0.0
            s_abs = 0.0
            for c in coords:
                s_sq = s_sq + c * c
                s_abs = s_abs + c * _conj(c)
            return _realify(1.0 + s_sq * _conj(s_sq) - 2.0 * s_abs)
        out = 1.0
        pos = 0
        for f in self.factors:
            out = out * f._norm(coords[pos : pos + f.dim])
            pos += f.dim
        return out

    def generic_norm(self, coords) -> float:
        """The generic norm N(z, z); requires z inside the domain."""
        self._check_len(coords)
        if not self.contains(coords, 0.0):
            raise DomainViolation("point lies outside the domain")
        return float(self._norm(coords))

    # -- sampling ---------------------------------------------------------------

    def _draw_scale(self) -> float:
        # per-coordinate radius factor keeping the rejection rate low: the
        # Frobenius norm of the realized matrix then stays below `shrink`
        if self.kind == "I":
            return 1.0 / np.sqrt(self.dim)
        return 1.0 / np.sqrt(2.0 * self.dim)

    def _draw(self, shrink: float, rng: np.random.Generator) -> np.ndarray:
        out = np.empty(self.dim, dtype=np.complex128)
        pos = 0
        for f in self.irreducible_factors:
            d = f.dim
            radius = shrink * f._draw_scale()
            r = radius * np.sqrt(rng.random(d))
            phi = 2.0 * np.pi * rng.random(d)
            out[pos : pos + d] = r * np.exp(1j * phi)
            pos += d
        return out

    def sample(self, shrink: float = 0.9, seed: int = 0) -> np.ndarray:
        """Deterministic interior point with spectral margin 1 - shrink^2."""
        if not 0.0 < shrink <= 1.0:
            raise ValueError("shrink must lie in (0, 1]")
        rng = np.random.default_rng(seed)
        margin = max(0.0, 1.0 - shrink * shrink)
        for _ in range(_SAMPLE_BUDGET):
            z = self._draw(shrink, rng)
            if self.contains(z, margin):
                return z
        raise RuntimeError("sample rejection budget exhausted")

    # -- serialization -----------------------------------------------------------

    def to_json(self):
        if self.kind == "product":
            return {"kind": "product", "params": [f.to_json() for f in self.factors]}
        return {"kind": self.kind, "params": list(self.params)}

    @classmethod
    def from_json(cls, obj) -> "DomainSpec":
        kind = obj["kind"]
        if kind == "product":
            return cls.product(*(cls.from_json(p) for p in obj["params"]))
        return cls(kind, tuple(int(p) for p in obj["params"]))


# -- closed-form log-norm tensors ------------------------------------------------


@lru_cache(maxsize=None)
def _unit_matrices(spec: DomainSpec) -> np.ndarray:
    """E_k = matrix_realization(e_k), stacked as (dim, m, n); Z = sum z_k E_k."""
    e = np.stack([spec.matrix_realization(u) for u in np.eye(spec.dim)])
    e.flags.writeable = False
    return e


def _trace_against(k: np.ndarray, e: np.ndarray) -> np.ndarray:
    """tr(E_l* K) for every l, over the leading axes of a stack of K."""
    lead = k.shape[:-2]
    out = k.reshape(-1, e[0].size) @ e.reshape(len(e), -1).conj().T
    return out.reshape(*lead, len(e))


def _matrix_log_norm(spec: DomainSpec, z, x, y) -> Derivatives:
    """Types I-III: L = c log det A, A = I - Z Z*, c = 1/2 for type II else 1.

    With R = A^-1 and P_i = R E_i Z*, the derivatives follow from
    dR = R (dA) R: L_i = -c tr P_i, L_ij = -c tr(P_i P_j) and
    L_{i lbar} = -c tr(E_l* R E_i S) with S = I + Z* R Z = (I - Z* Z)^-1.
    """
    e = _unit_matrices(spec)
    c = 0.5 if spec.kind == "II" else 1.0
    zm = np.tensordot(z, e, 1)
    zh = zm.conj().T
    a = np.eye(len(zm)) - zm @ zh
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise DomainViolation("I - Z Z* is not positive definite (outside domain)") from None
    value = 2.0 * c * float(np.sum(np.log(np.diagonal(chol).real)))
    r = np.linalg.inv(a)
    re = r @ e
    grad = -c * np.trace(re @ zh, axis1=1, axis2=2)
    s = np.eye(zm.shape[1]) + zh @ r @ zm
    levi = -c * _trace_against(re @ s, e)
    if x is None:
        return Derivatives(value, grad, levi)
    rex = np.tensordot(x.T, re, 1)  # R X_a, with X_a = sum_i x[i, a] E_i
    rey = np.tensordot(y.T, re, 1)
    px, py = rex @ zh, rey @ zh
    hess = -c * px.reshape(len(px), -1) @ py.transpose(0, 2, 1).reshape(len(py), -1).T
    # L_{i j lbar} x^i y^j = -c tr(E_l* K) with
    # K = (P_x P_y + P_y P_x) R Z + P_x R Y + P_y R X
    pxa, pyb = px[:, None], py[None, :]
    k = (pxa @ pyb + pyb @ pxa) @ (r @ zm) + pxa @ rey[None, :] + pyb @ rex[:, None]
    return Derivatives(value, grad, levi, x, y, hess, -c * _trace_against(k, e))


def _type_iv_log_norm(z, x, y) -> Derivatives:
    """Type IV: L = log N with N = 1 + |s|^2 - 2 sum |z_k|^2, s = sum z_k^2.

    N_i = 2 z_i sbar - 2 zbar_i, N_ij = 2 delta_ij sbar,
    N_{i lbar} = 4 z_i zbar_l - 2 delta_il, N_{i j lbar} = 4 delta_ij zbar_l.
    """
    zbar = np.conj(z)
    sbar = np.conj(z @ z)
    sq = float(np.vdot(z, z).real)
    n = 1.0 + abs(sbar) ** 2 - 2.0 * sq
    if sq >= 1.0 or n <= 0.0:
        raise DomainViolation("type IV point outside the domain")
    grad = 2.0 * z * sbar - 2.0 * zbar
    levi = 4.0 * np.outer(z, zbar) - 2.0 * np.eye(len(z))
    if x is None:
        norm = Derivatives(n, grad, levi)
    else:
        xy = x.T @ y
        norm = Derivatives(n, grad, levi, x, y, 2.0 * sbar * xy, 4.0 * xy[:, :, None] * zbar)
    return norm.compose(np.log(n), 1.0 / n, -1.0 / n**2, 2.0 / n**3)


# -- polydisk embeddings ------------------------------------------------------


@dataclass(frozen=True)
class LinearEmbedding:
    """A linear holomorphic embedding fixing the origin.

    `matrix` is the (target dim) x (source dim) Jacobian; since the map is
    linear the Jacobian is constant and evaluation is a matrix product.
    Works on numeric vectors and on lists of jets.
    """

    source: DomainSpec
    target: DomainSpec
    matrix: np.ndarray

    def __call__(self, coords):
        if _is_jet_coords(coords):
            out = []
            for row in self.matrix:
                acc = 0.0
                for w, c in zip(row, coords):
                    if w != 0.0:
                        acc = acc + w * c
                out.append(acc)
            return out
        return self.matrix @ np.asarray(coords, dtype=np.complex128)


def polydisk_embedding(spec: DomainSpec) -> LinearEmbedding:
    """The standard rank-sized polydisk inside an irreducible domain.

    Type I embeds diagonally (rectangular padding by zero columns), type II
    on the antidiagonal of the antisymmetric realization, type III
    diagonally, and type IV through
    (z1, z2) -> ((z1+z2)/2, i(z1-z2)/2, 0, ..., 0).
    In every case N(phi(z)) = prod_j (1 - |z_j|^2).
    """
    r = spec.rank
    mat = np.zeros((spec.dim, r), dtype=np.complex128)
    if spec.kind == "I":
        m, n = spec.params
        for j in range(r):
            mat[j * n + j, j] = 1.0
    elif spec.kind == "II":
        (n,) = spec.params
        pairs = _upper_pairs_strict(n)
        for j in range(r):
            mat[pairs.index((j, n - 1 - j)), j] = 1.0
    elif spec.kind == "III":
        (m,) = spec.params
        pairs = _upper_pairs(m)
        for j in range(r):
            mat[pairs.index((j, j)), j] = 1.0
    elif spec.kind == "IV":
        mat[0, 0] = 0.5
        mat[0, 1] = 0.5
        mat[1, 0] = 0.5j
        mat[1, 1] = -0.5j
    else:
        raise ValueError("product specs compose per-factor embeddings; see product_embedding")
    return LinearEmbedding(DomainSpec.polydisk(r), spec, mat)


def product_embedding(spec: DomainSpec) -> LinearEmbedding:
    """Block combination of the factor polydisk embeddings of a product."""
    embeddings = [polydisk_embedding(f) for f in spec.irreducible_factors]
    r = sum(e.source.dim for e in embeddings)
    mat = np.zeros((spec.dim, r), dtype=np.complex128)
    row = col = 0
    for e in embeddings:
        d, k = e.matrix.shape
        mat[row : row + d, col : col + k] = e.matrix
        row += d
        col += k
    return LinearEmbedding(DomainSpec.polydisk(r), spec, mat)


# -- Jordan triple structure ---------------------------------------------------


def triple_product(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The matrix triple product {U, V, W} = U V* W + W V* U."""
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    if not (u.shape == v.shape == w.shape) or u.ndim != 2:
        raise ValueError("triple product requires three matrices of equal shape")
    vh = v.conj().T
    return u @ vh @ w + w @ vh @ u


def subtriple_closure(spec: DomainSpec, basis, tol: float = 1e-10) -> bool:
    """True iff the span of `basis` is closed under the triple product.

    Closure is tested by least squares: every {U, V, W} over basis triples
    must lie in the complex span of the basis up to residual < tol.
    """
    if not basis:
        raise ValueError("closure test requires a nonempty basis")
    mats = [np.asarray(b, dtype=np.complex128) for b in basis]
    shape = mats[0].shape
    if spec.kind in ("I", "II", "III"):
        expected = spec.matrix_realization(np.zeros(spec.dim)).shape
        if shape != expected:
            raise ValueError(f"basis shape {shape} does not match ambient {expected}")
    cols = np.stack([m.ravel() for m in mats], axis=1)
    for u, v, w in itertools.product(mats, repeat=3):
        t = triple_product(u, v, w).ravel()
        coef, *_ = np.linalg.lstsq(cols, t, rcond=None)
        if np.linalg.norm(cols @ coef - t) > tol:
            return False
    return True
