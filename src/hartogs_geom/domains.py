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
It takes one point or a stack of points, and a stack gives every tensor a
leading batch axis computed with stacked LAPACK and matrix products.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .jets import Jet
from .numerics import Derivatives, DomainViolation, _t, det, is_positive_definite

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
    """Real part of a structurally real quantity; asserts the imag is noise.

    Takes a jet, a number or an array of numbers (a stack of determinants).
    """
    if isinstance(x, Jet):
        scale = max(1.0, float(np.max(np.abs(x.coeffs.real))))
        if x.imag_norm() > tol * scale:
            raise ValueError("expected a real-valued jet (Hermitian determinant)")
        return x.real_jet()
    if isinstance(x, np.ndarray) and x.ndim:
        noise = np.any(np.abs(x.imag) > tol * np.maximum(1.0, np.abs(x.real)))
    else:
        x = complex(x)
        noise = abs(x.imag) > tol * max(1.0, abs(x.real))
    if noise:
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

    @property
    def is_polydisk(self) -> bool:
        """True for the disk I(1,1) and for products of disks."""
        return all(f.kind == "I" and f.params == (1, 1) for f in self.irreducible_factors)

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

    def log_norm_derivatives(self, coords, x=None, y=None, value_only=False) -> Derivatives:
        """Derivatives of L = log N in closed form, at one point or a stack.

        `coords` is a point (dim,) or a stack (B, dim); a stack gives every
        tensor a leading B axis, and a point is the stack of one with that
        axis dropped (see `Derivatives`).  `x` and `y` are optional direction
        matrices, shared (dim, p) or per point (B, dim, p), for the
        contracted second and third derivatives.  `value_only` stops after
        log N (the Cholesky diagonal of types I-III, sum log a_j on
        polydisks, log N on type IV) and leaves every tensor None; the value
        is the same float either way.  Raises DomainViolation, naming the
        first offending index, when a point lies outside.
        """
        z = np.asarray(coords, dtype=np.complex128)
        if z.ndim == 1:
            return self.log_norm_derivatives(z[None], x, y, value_only).member(0)
        self._check_stack(z)
        if self.is_polydisk:
            return _polydisk_log_norm(z, x, y, value_only)
        if self.kind == "IV":
            return _type_iv_log_norm(z, x, y, value_only)
        if self.kind != "product":
            return _matrix_log_norm(self, z, x, y, value_only)
        # log N is a sum over the factors: block-diagonal tensors
        levi = None if value_only else np.zeros((len(z), self.dim, self.dim), dtype=np.complex128)
        parts, pos = [], 0
        for f in self.factors:
            rows = slice(pos, pos + f.dim)
            sub = _base_rows(x, y, rows)
            try:
                parts.append(f.log_norm_derivatives(z[:, rows], *sub, value_only))
            except DomainViolation as exc:
                # a later factor may reject an earlier point
                if exc.index:
                    self.log_norm_derivatives(z[: exc.index], value_only=True)
                raise
            if levi is not None:
                levi[:, rows, rows] = parts[-1].levi
            pos += f.dim
        value = sum(part.value for part in parts)
        if value_only:
            return Derivatives(value, None, None)
        grad = np.concatenate([part.grad for part in parts], axis=-1)
        if x is None:
            return Derivatives(value, grad, levi)
        hess = sum(part.hess for part in parts)
        third = np.concatenate([part.third for part in parts], axis=-1)
        return Derivatives(value, grad, levi, x, y, hess, third)

    def norm_power_derivatives(
        self, coords, mu: float, x=None, y=None, value_only=False
    ) -> Derivatives:
        """Derivatives of N^mu = exp(mu log N), from those of log N.

        Takes the arguments of `log_norm_derivatives`.  Its value is the
        N^mu that decides fiber membership in `hartogs`, the same float with
        or without `value_only`.  Type IV, whose
        closed form gives the tensors of N itself, goes from N straight to
        N^mu with the same value: on a single point the chain rule's fixed
        per-call cost is most of the work, and through log N it is paid
        twice.
        """
        z = np.asarray(coords, dtype=np.complex128)
        if z.ndim == 1:
            return self.norm_power_derivatives(z[None], mu, x, y, value_only).member(0)
        if self.kind == "IV":
            self._check_stack(z)
            norm = _type_iv_norm_derivatives(z, x, y, value_only)
            n = norm.value
            a = np.exp(mu * np.log(n))
            return norm.compose(
                a, mu * a / n, mu * (mu - 1) * a / n**2, mu * (mu - 1) * (mu - 2) * a / n**3
            )
        log_n = self.log_norm_derivatives(z, x, y, value_only)
        a = np.exp(mu * log_n.value)
        return log_n.compose(a, mu * a, mu**2 * a, mu**3 * a)

    def _check_stack(self, z: np.ndarray) -> None:
        if z.ndim != 2 or z.shape[1] != self.dim:
            raise ValueError(f"expected a stack of {self.dim} coordinates, got shape {z.shape}")

    # -- membership and generic norm ------------------------------------------

    def contains(self, coords, margin: float = 0.0):
        """Membership with a spectral safety margin, of one point or a stack.

        For the matrix types the test is lambda_min(I - Z Z*) > margin; for
        type IV both defining inequalities are required with the margin.  A
        point gives a bool, a stack (B, dim) a boolean array (B,).
        """
        z = np.asarray(coords, dtype=np.complex128)
        if z.ndim == 1:
            self._check_len(z)
            return bool(self.contains(z[None], margin)[0])
        self._check_stack(z)
        if self.is_polydisk:
            # I - Z Z* is the 1 x 1 matrix 1 - |z_j|^2 per disk, its own eigenvalue
            return (1.0 - (z.real * z.real + z.imag * z.imag) > margin).all(axis=-1)
        if self.kind in ("I", "II", "III"):
            return is_positive_definite(_bergman(self, z)[1], margin)
        if self.kind == "IV":
            sq, _, n = _type_iv_norm(z)
            return (sq < 1.0 - margin) & (n > margin)
        inside = np.ones(len(z), dtype=bool)
        pos = 0
        for f in self.factors:
            inside &= f.contains(z[:, pos : pos + f.dim], margin)
            pos += f.dim
        return inside

    def _norm(self, coords):
        """Generic norm, jet-friendly, without membership validation.

        A plain stack (B, dim) gives (B,) from stacked determinants: the
        route that checks the closed forms, which take log N from a Cholesky
        factor instead.
        """
        stack = isinstance(coords, np.ndarray) and coords.ndim == 2
        if self.kind in ("I", "II", "III"):
            a = _bergman(self, coords)[1] if stack else self._gram_complement(coords)
            d = _realify(det(a))
            return d**0.5 if self.kind == "II" else d
        if self.kind == "IV":
            s_sq = 0.0
            s_abs = 0.0
            for c in coords.T if stack else coords:
                s_sq = s_sq + c * c
                s_abs = s_abs + c * _conj(c)
            return _realify(1.0 + s_sq * _conj(s_sq) - 2.0 * s_abs)
        out = 1.0
        pos = 0
        for f in self.factors:
            rows = slice(pos, pos + f.dim)
            out = out * f._norm(coords[:, rows] if stack else coords[rows])
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

    def _draw(self, shrink: float, rngs) -> np.ndarray:
        """Candidate points (B, dim), one per generator in `rngs`.

        Each point takes 2 * dim uniforms from its own stream: for every
        irreducible factor in turn, its radii and then its angles.
        """
        scale, radii, angles = _draw_layout(self)
        u = np.stack([rng.random(2 * self.dim) for rng in rngs])
        r = shrink * scale * np.sqrt(u[:, radii])
        phi = 2.0 * np.pi * u[:, angles]
        return r * np.exp(1j * phi)

    def _sample_stack(self, shrink: float, rngs) -> np.ndarray:
        """One interior point per generator, stacked (B, dim), with spectral
        margin 1 - shrink^2.

        The rejection loop of every sampler: the stack is tested at once and
        only rejected members draw again, each from its own stream, so a
        member gets the point it gets alone.
        """
        margin = max(0.0, 1.0 - shrink * shrink)
        out = self._draw(shrink, rngs)
        todo = np.flatnonzero(~self.contains(out, margin))
        for _ in range(_SAMPLE_BUDGET):
            if not todo.size:
                return out
            out[todo] = self._draw(shrink, [rngs[j] for j in todo])
            todo = todo[~self.contains(out[todo], margin)]
        raise RuntimeError("sample rejection budget exhausted")

    def sample(self, shrink: float = 0.9, seed: int = 0) -> np.ndarray:
        """Deterministic interior point with spectral margin 1 - shrink^2."""
        if not 0.0 < shrink <= 1.0:
            raise ValueError("shrink must lie in (0, 1]")
        return self._sample_stack(shrink, [np.random.default_rng(seed)])[0]

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


def _base_rows(x, y, rows):
    """The coordinate rows of direction matrices (shared or stacked).

    y keeps being x when it was, which lets the closed forms reuse the
    contractions of x for y.
    """
    if x is None:
        return None, None
    xs = x[..., rows, :]
    return xs, xs if y is x else y[..., rows, :]


def _trace_against(k: np.ndarray, e: np.ndarray) -> np.ndarray:
    """tr(E_l* K) for every l, over a stack (B, ..., m, n) of K.

    Each point of the stack is its own matrix product, so a point's floats
    do not depend on the other points or on B.
    """
    lead = k.shape[:-2]
    out = k.reshape(lead[0], -1, e[0].size) @ e.reshape(len(e), -1).conj().T
    return out.reshape(*lead, len(e))


@lru_cache(maxsize=None)
def _draw_layout(spec: DomainSpec):
    """Per coordinate: the radius scale and the positions of its radius and
    angle uniforms among the 2 * dim that `DomainSpec._draw` takes."""
    scale, radii, angles = [], [], []
    for f in spec.irreducible_factors:
        pos = 2 * len(scale)
        scale += [f._draw_scale()] * f.dim
        radii += range(pos, pos + f.dim)
        angles += range(pos + f.dim, pos + 2 * f.dim)
    return np.array(scale), np.array(radii), np.array(angles)


def _bergman(spec: DomainSpec, z):
    """Z = sum z_k E_k and A = I - Z Z* over a stack (B, dim)."""
    e = _unit_matrices(spec)
    dim, m, n = e.shape
    zm = (z[:, None, :] @ e.reshape(dim, m * n)).reshape(len(z), m, n)
    return zm, np.eye(m) - zm @ _t(zm.conj())


def _gram(spec: DomainSpec, z):
    """Z and A = I - Z Z* over a stack (see `_bergman`), and L = c log det A.

    L comes from the Cholesky factor of A.  Raises DomainViolation, naming
    the first point where A is not positive definite.
    """
    zm, a = _bergman(spec, z)
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise DomainViolation(
            "I - Z Z* is not positive definite (outside domain)", _first_failure(a)
        ) from None
    c = 0.5 if spec.kind == "II" else 1.0
    diag = np.diagonal(chol, axis1=-2, axis2=-1).real
    return zm, a, 2.0 * c * np.sum(np.log(diag), axis=-1)


def _first_failure(a: np.ndarray) -> int | None:
    """Index of the first matrix of a stack that has no Cholesky factor."""
    for j, aj in enumerate(a):
        try:
            np.linalg.cholesky(aj)
        except np.linalg.LinAlgError:
            return j
    return None


def _matrix_log_norm(spec: DomainSpec, z, x, y, value_only=False) -> Derivatives:
    """Types I-III: L = c log det A, A = I - Z Z*, c = 1/2 for type II else 1.

    With R = A^-1 and P_i = R E_i Z*, the derivatives follow from
    dR = R (dA) R: L_i = -c tr P_i, L_ij = -c tr(P_i P_j) and
    L_{i lbar} = -c tr(E_l* R E_i S) with S = I + Z* R Z = (I - Z* Z)^-1.
    Every tensor carries the stack axis of z first.
    """
    e = _unit_matrices(spec)
    dim, m, n = e.shape
    c = 0.5 if spec.kind == "II" else 1.0
    zm, a, value = _gram(spec, z)
    if value_only:
        return Derivatives(value, None, None)
    zh = _t(zm.conj())
    r = np.linalg.inv(a)
    re = r[:, None] @ e  # R E_i, (B, dim, m, n)
    flat = re.reshape(len(z), dim, m * n)
    # tr(R E_i Z*) = sum_ab (R E_i)_ab conj(Z_ab)
    grad = -c * (flat @ zm.conj().reshape(len(z), m * n, 1))[..., 0]
    s = np.eye(n) + zh @ r @ zm
    levi = -c * _trace_against(re @ s[:, None], e)
    if x is None:
        return Derivatives(value, grad, levi)
    rex = (_t(x) @ flat).reshape(len(z), -1, m, n)  # R X_a, X_a = sum_i x[i, a] E_i
    px = rex @ zh[:, None]
    if y is x:
        rey, py = rex, px
    else:
        rey = (_t(y) @ flat).reshape(len(z), -1, m, n)
        py = rey @ zh[:, None]
    # hess[a, b] = -c tr(P_a P_b)
    hess = -c * px.reshape(*px.shape[:2], -1) @ _t(_t(py).reshape(*py.shape[:2], -1))
    # L_{i j lbar} x^i y^j = -c tr(E_l* K) with
    # K = (P_x P_y + P_y P_x) R Z + P_x R Y + P_y R X
    pxa, pyb = px[:, :, None], py[:, None]
    k = (
        (pxa @ pyb + pyb @ pxa) @ (r @ zm)[:, None, None]
        + pxa @ rey[:, None]
        + pyb @ rex[:, :, None]
    )
    return Derivatives(value, grad, levi, x, y, hess, -c * _trace_against(k, e))


def _polydisk_log_norm(z, x, y, value_only=False) -> Derivatives:
    """The disk and products of disks: L = sum_j log a_j, a_j = 1 - |z_j|^2.

    Every tensor is diagonal: L_i = -zbar_i / a_i, L_{i ibar} = -1 / a_i^2,
    L_ii = -zbar_i^2 / a_i^2 and L_{i i ibar} = -2 zbar_i / a_i^3.  Raises
    DomainViolation, naming the first point with some a_j <= 0.
    """
    # the same floats as the disk test of `contains`, which takes Re(z zbar)
    # from Python's complex product; NumPy's complex multiply rounds
    # differently, so spell out the real arithmetic
    a = 1.0 - (z.real * z.real + z.imag * z.imag)
    bad = np.any(a <= 0.0, axis=-1)
    if bad.any():
        raise DomainViolation("polydisk point outside the domain", int(np.argmax(bad)))
    value = np.sum(np.log(a), axis=-1)
    if value_only:
        return Derivatives(value, None, None)
    zbar = np.conj(z)
    grad = -zbar / a
    diag = np.arange(z.shape[1])
    levi = np.zeros((*z.shape, z.shape[1]), dtype=np.complex128)
    levi[:, diag, diag] = -1.0 / a**2
    if x is None:
        return Derivatives(value, grad, levi)
    hess = _t(x) @ (-(zbar / a)[..., None] ** 2 * y)
    xy = _t(x)[..., :, None, :] * _t(y)[..., None, :, :]
    return Derivatives(value, grad, levi, x, y, hess, xy * (-2.0 * zbar / a**3)[:, None, None])


def _type_iv_norm(z):
    """Type IV over a stack, without membership validation: sum |z_k|^2,
    s = sum z_k^2 and N = 1 + |s|^2 - 2 sum |z_k|^2."""
    sq = (z.conj()[:, None, :] @ z[:, :, None])[:, 0, 0].real
    s = (z[:, None, :] @ z[:, :, None])[:, 0, 0]
    return sq, s, 1.0 + np.abs(s) ** 2 - 2.0 * sq


def _type_iv_norm_derivatives(z, x, y, value_only=False) -> Derivatives:
    """Type IV: N (see `_type_iv_norm`) and its tensors.

    N_i = 2 z_i sbar - 2 zbar_i, N_ij = 2 delta_ij sbar,
    N_{i lbar} = 4 z_i zbar_l - 2 delta_il, N_{i j lbar} = 4 delta_ij zbar_l.
    Raises DomainViolation, naming the first point with sum |z_k|^2 >= 1 or
    N <= 0.
    """
    sq, s, n = _type_iv_norm(z)
    bad = (sq >= 1.0) | (n <= 0.0)
    if bad.any():
        raise DomainViolation("type IV point outside the domain", int(np.argmax(bad)))
    if value_only:
        return Derivatives(n, None, None)
    zbar = z.conj()
    sbar = np.conj(s)
    grad = 2.0 * (z * sbar[:, None] - zbar)
    levi = 4.0 * (z[:, :, None] * zbar[:, None, :])
    diag = np.arange(z.shape[1])
    levi[:, diag, diag] -= 2.0
    if x is None:
        return Derivatives(n, grad, levi)
    xy = _t(x) @ y
    hess = 2.0 * sbar[:, None, None] * xy
    return Derivatives(n, grad, levi, x, y, hess, 4.0 * xy[..., None] * zbar[:, None, None])


def _type_iv_log_norm(z, x, y, value_only=False) -> Derivatives:
    """Type IV: L = log N, from the tensors of N."""
    norm = _type_iv_norm_derivatives(z, x, y, value_only)
    n = norm.value
    return norm.compose(np.log(n), 1.0 / n, -1.0 / n**2, 2.0 / n**3)


# -- polydisk embeddings ------------------------------------------------------


@dataclass(frozen=True)
class LinearEmbedding:
    """A linear holomorphic embedding fixing the origin.

    `matrix` is the (target dim) x (source dim) Jacobian; since the map is
    linear the Jacobian is constant and evaluation is a matrix product.
    Works on numeric vectors, on stacks of them (B, source dim) and on
    lists of jets.
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
        z = np.asarray(coords, dtype=np.complex128)
        return z @ self.matrix.T if z.ndim == 2 else self.matrix @ z


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
