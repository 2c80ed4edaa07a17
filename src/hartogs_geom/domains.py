"""Classical Cartan domains and their products.

The four classical families are carried in their standard matrix (or, for
the fourth type, vector) realizations:

* type I   -- m x n complex matrices Z with I - Z Z* positive definite,
* type II  -- antisymmetric n x n matrices, parametrized by the strict
  upper triangle,
* type III -- symmetric m x m matrices, parametrized by the upper triangle,
* type IV  -- z in C^n with sum |z_j|^2 < 1 and
  1 + |sum z_j^2|^2 - 2 sum |z_j|^2 > 0 (n >= 5).

Types I-III read Z, its unit matrices E_k and the embedded polydisk from one
coordinate layout, `_layout`.

Products are supported everywhere; the generic norm of a product is the
product of the factor norms.  The generic norm from determinants takes
stacks, plain or of jets (an object array; a jet point is the stack of one),
through the same code; it is the second route to the closed forms and the
one jets differentiate.
`log_norm_derivatives` gives the derivatives of log N up to order three in
closed form, at one point or over a stack (every tensor then takes a leading
batch axis, from stacked LAPACK and matrix products): through the Bergman
operator A = I - Z Z* for types I-III, where Z = sum z_k E_k, and through the
explicit polynomial for type IV.  The closed form is total: a point that
fails its own spectral test gets log N = -inf, so `norm_power_derivatives`
gives N^mu = 0 there and `log_norm_derivatives` raises.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

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


def _coords_array(coords) -> np.ndarray:
    """Coordinates as an array: complex128 when plain, object when they hold jets."""
    z = np.asarray(coords)
    return z if z.dtype == object else z.astype(np.complex128, copy=False)


def _realify(x, tol: float = 1e-12):
    """Real part of a structurally real quantity; asserts the imag is noise.

    Takes a jet, a number or an array of either (a stack of determinants);
    an object array is mapped entry by entry.
    """
    if isinstance(x, np.ndarray) and x.dtype == object:
        return np.frompyfunc(lambda v: _realify(v, tol), 1, 1)(x)
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
        if any(isinstance(p, bool) or not isinstance(p, (int, np.integer)) for p in self.params):
            raise ValueError(f"domain params must be integers, got {self.params!r}")
        # NumPy integers become Python ints, which JSON reports can hold
        object.__setattr__(self, "params", tuple(int(p) for p in self.params))
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
    # dim, irreducible_factors and is_polydisk are read on every evaluation;
    # each is cached in the instance __dict__, which equality and hashing
    # (fields only) do not see

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

    @cached_property
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

    @cached_property
    def irreducible_factors(self) -> tuple["DomainSpec", ...]:
        return self.factors if self.kind == "product" else (self,)

    @cached_property
    def is_polydisk(self) -> bool:
        """True for the disk I(1,1) and for products of disks."""
        return all(f.kind == "I" and f.params == (1, 1) for f in self.irreducible_factors)

    def _check_len(self, coords) -> None:
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(coords)}")

    # -- matrix realization ---------------------------------------------------

    def matrix_realization(self, coords) -> np.ndarray:
        """Coordinates assembled into the defining matrix of types I-III (see `_layout`)."""
        self._check_len(coords)
        return _realize(self, _coords_array(coords)[None])[0]

    # -- closed-form derivatives of log N ----------------------------------------

    def log_norm_derivatives(self, coords, x=None, value_only=False) -> Derivatives:
        """Derivatives of L = log N in closed form, at one point or a stack.

        `coords` is a point (dim,) or a stack (B, dim); a stack gives every
        tensor a leading B axis, and a point is the stack of one with that
        axis dropped (see `Derivatives`).  `x` is an optional direction
        matrix, shared (dim, k) or per point (B, dim, k), for the second and
        third derivatives contracted over pairs of its columns.
        `value_only` stops after log N (the Cholesky diagonal of types
        I-III, sum log a_j on polydisks, log N on type IV) and leaves every
        tensor None; the value is the same float either way.  Raises
        DomainViolation, naming the first offending index, when a point lies
        outside: where `_log_norm` gives -inf.
        """
        z = np.asarray(coords, dtype=np.complex128)
        if z.ndim == 1:
            return self.log_norm_derivatives(z[None], x, value_only).member(0)
        self._check_stack(z)
        out = self._log_norm(z, x, value_only)
        outside = np.isneginf(out.value)
        if outside.any():
            raise DomainViolation("point lies outside the domain", int(np.argmax(outside)))
        return out

    def norm_power_derivatives(self, coords, mu: float, x=None, value_only=False) -> Derivatives:
        """Derivatives of N^mu = exp(mu log N), from those of log N.

        Takes the arguments of `log_norm_derivatives`, and never raises on a
        point outside the base: there log N = -inf, so N^mu and all its
        tensors are 0.  Its value is the N^mu that decides fiber membership
        in `hartogs`, the same float with or without `value_only`.
        """
        z = np.asarray(coords, dtype=np.complex128)
        if z.ndim == 1:
            return self.norm_power_derivatives(z[None], mu, x, value_only).member(0)
        self._check_stack(z)
        log_n = self._log_norm(z, x, value_only)
        a = np.exp(mu * log_n.value)
        return log_n.compose(a, mu * a, mu**2 * a, mu**3 * a)

    def _log_norm(self, z, x, value_only=False) -> Derivatives:
        """The closed form of log N over a stack (B, dim), total: a row that
        fails the form's own test (see `_gram`, `_polydisk_log_norm` and
        `_type_iv_log_norm`) gets -inf and the origin's tensors, so a
        product sums its factors and nothing divides by zero."""
        if self.is_polydisk:
            return _polydisk_log_norm(z, x, value_only)
        if self.kind == "IV":
            return _type_iv_log_norm(z, x, value_only)
        if self.kind != "product":
            return _matrix_log_norm(self, z, x, value_only)
        # log N is a sum over the factors: block-diagonal tensors
        levi = None if value_only else np.zeros((len(z), self.dim, self.dim), dtype=np.complex128)
        parts, pos = [], 0
        for f in self.factors:
            rows = slice(pos, pos + f.dim)
            parts.append(f._log_norm(z[:, rows], _base_rows(x, rows), value_only))
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
        return Derivatives(value, grad, levi, x, hess, third)

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
            return (_disk_gap(z) > margin).all(axis=-1)
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
        """Generic norm, without membership validation.

        A stack (B, dim) gives (B,), and a point (dim,) is the stack of one,
        giving the entry of its row in any stack.  Plain and jet (object
        dtype) coordinates take the same route: `_bergman` + `det` on types
        I-III, `_type_iv_norm` on type IV.  It checks the closed forms,
        which take log N from a Cholesky factor instead.
        """
        z = _coords_array(coords)
        if z.ndim == 1:
            return self._norm(z[None]).item()
        if self.kind in ("I", "II", "III"):
            d = _realify(det(_bergman(self, z)[1]))
            return d**0.5 if self.kind == "II" else d
        if self.kind == "IV":
            return _realify(_type_iv_norm(z)[2])
        out = 1.0
        pos = 0
        for f in self.factors:
            out = out * f._norm(z[:, pos : pos + f.dim])
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
        if not 0.0 < shrink <= 1.0:
            raise ValueError("shrink must lie in (0, 1]")
        margin = 1.0 - shrink * shrink
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
        return cls(kind, tuple(obj["params"]))


# -- closed-form log-norm tensors ------------------------------------------------


@lru_cache(maxsize=None)
def _layout(spec: DomainSpec) -> np.ndarray:
    """The coordinate layout of Z for types I-III: an index table shaped like Z.

    Entry (a, b) of Z holds z_k where the table reads k < dim, -z_k where it
    reads dim + k, and a structural zero where it reads 2 dim (see
    `_realize`).  Type I fills Z row by row; types II and III fill the upper
    triangle row by row (strict on type II, whose diagonal is zero) and
    mirror it, with the sign flipped on type II.
    """
    if spec.kind == "I":
        index = np.arange(spec.dim).reshape(spec.params)
    elif spec.kind in ("II", "III"):
        (n,) = spec.params
        rows, cols = np.triu_indices(n, 1 if spec.kind == "II" else 0)
        index = np.full((n, n), 2 * spec.dim)
        index[rows, cols] = np.arange(spec.dim)
        index[cols, rows] = np.arange(spec.dim) + (spec.dim if spec.kind == "II" else 0)
    else:
        raise ValueError(f"type {spec.kind} has no matrix realization")
    index.flags.writeable = False
    return index


def _realize(spec: DomainSpec, z: np.ndarray) -> np.ndarray:
    """Z over a stack (B, dim) of coordinates, plain or of jets: the entries
    of (z, -z, 0) that `_layout` names, so a structural zero stays a plain
    zero."""
    signed = np.concatenate([z, -z, np.zeros((len(z), 1), z.dtype)], axis=1)
    return np.take(signed, _layout(spec), axis=1)


@lru_cache(maxsize=None)
def _unit_matrices(spec: DomainSpec) -> np.ndarray:
    """E_k = matrix_realization(e_k), stacked as (dim, m, n); Z = sum z_k E_k."""
    e = _realize(spec, np.eye(spec.dim)).astype(np.complex128)
    e.flags.writeable = False
    return e


def _base_rows(x, rows):
    """The coordinate rows of a direction matrix (shared or stacked)."""
    return None if x is None else x[..., rows, :]


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
    zm = _realize(spec, z)
    return zm, np.eye(zm.shape[1]) - zm @ _t(zm.conj())


def _gram(spec: DomainSpec, z):
    """Z and A = I - Z Z* over a stack (see `_bergman`), and L = c log det A.

    L comes from the Cholesky factor of A.  The stacked factorisation is the
    fast path; when it fails, one factorisation per point finds the points
    without a factor, which get L = -inf and are taken at the origin
    (Z = 0, A = I) for a second stacked factorisation.
    """
    zm, a = _bergman(spec, z)
    outside = np.zeros(len(z), dtype=bool)
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        for j, aj in enumerate(a):
            try:
                np.linalg.cholesky(aj)
            except np.linalg.LinAlgError:
                outside[j] = True
        zm, a = _bergman(spec, _at_origin(z, outside))
        chol = np.linalg.cholesky(a)
    c = 0.5 if spec.kind == "II" else 1.0
    diag = np.diagonal(chol, axis1=-2, axis2=-1).real
    return zm, a, np.where(outside, -np.inf, 2.0 * c * np.sum(np.log(diag), axis=-1))


def _at_origin(z: np.ndarray, outside: np.ndarray) -> np.ndarray:
    """The stack z with the rows flagged `outside` moved to the origin."""
    return np.where(outside[:, None], 0.0, z)


def _matrix_log_norm(spec: DomainSpec, z, x, value_only=False) -> Derivatives:
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
    # hess[a, b] = -c tr(P_a P_b)
    hess = -c * px.reshape(*px.shape[:2], -1) @ _t(_t(px).reshape(*px.shape[:2], -1))
    # third[a, b, l] = -c tr(E_l* K) with
    # K = (P_a P_b + P_b P_a) R Z + P_a R X_b + P_b R X_a
    pa, pb = px[:, :, None], px[:, None]
    k = (pa @ pb + pb @ pa) @ (r @ zm)[:, None, None] + pa @ rex[:, None] + pb @ rex[:, :, None]
    return Derivatives(value, grad, levi, x, hess, -c * _trace_against(k, e))


def _disk_gap(z):
    """1 - |z_j|^2 per coordinate of a polydisk stack, in real arithmetic:
    the membership test of `contains` and the a_j of `_polydisk_log_norm`."""
    return 1.0 - (z.real * z.real + z.imag * z.imag)


def _polydisk_log_norm(z, x, value_only=False) -> Derivatives:
    """The disk and products of disks: L = sum_j log a_j, a_j = 1 - |z_j|^2.

    Every tensor is diagonal: L_i = -zbar_i / a_i, L_{i ibar} = -1 / a_i^2,
    L_ii = -zbar_i^2 / a_i^2 and L_{i i ibar} = -2 zbar_i / a_i^3.  A point
    with some a_j <= 0 gets L = -inf and the origin's tensors.
    """
    a = _disk_gap(z)
    outside = np.any(a <= 0.0, axis=-1)
    if outside.any():
        z = _at_origin(z, outside)
        a = _disk_gap(z)
    value = np.where(outside, -np.inf, np.sum(np.log(a), axis=-1))
    if value_only:
        return Derivatives(value, None, None)
    zbar = np.conj(z)
    grad = -zbar / a
    diag = np.arange(z.shape[1])
    levi = np.zeros((*z.shape, z.shape[1]), dtype=np.complex128)
    levi[:, diag, diag] = -1.0 / a**2
    if x is None:
        return Derivatives(value, grad, levi)
    hess = _t(x) @ (-(zbar / a)[..., None] ** 2 * x)
    xx = _t(x)[..., :, None, :] * _t(x)[..., None, :, :]
    return Derivatives(value, grad, levi, x, hess, xx * (-2.0 * zbar / a**3)[:, None, None])


def _type_iv_norm(z):
    """Type IV over a stack, without membership validation: sum |z_k|^2,
    s = sum z_k^2 and N = 1 + |s|^2 - 2 sum |z_k|^2.

    An object (jet) stack takes |s|^2 = s sbar and keeps complex entries
    (`.real` does nothing on object arrays).  A plain stack keeps
    np.abs(s)**2, the floats `contains` and the closed form read.
    """
    sq = (z.conj()[:, None, :] @ z[:, :, None])[:, 0, 0].real
    s = (z[:, None, :] @ z[:, :, None])[:, 0, 0]
    s_sq = s * np.conj(s) if z.dtype == object else np.abs(s) ** 2
    return sq, s, 1.0 + s_sq - 2.0 * sq


def _type_iv_log_norm(z, x, value_only=False) -> Derivatives:
    """Type IV: L = log N (see `_type_iv_norm`), from the tensors of N.

    N_i = 2 z_i sbar - 2 zbar_i, N_ij = 2 delta_ij sbar,
    N_{i lbar} = 4 z_i zbar_l - 2 delta_il, N_{i j lbar} = 4 delta_ij zbar_l.
    A point with sum |z_k|^2 >= 1 or N <= 0 gets L = -inf and the origin's
    tensors.
    """
    sq, s, n = _type_iv_norm(z)
    outside = (sq >= 1.0) | (n <= 0.0)
    if outside.any():
        z = _at_origin(z, outside)
        _, s, n = _type_iv_norm(z)
    value = np.where(outside, -np.inf, np.log(n))
    if value_only:
        return Derivatives(value, None, None)
    zbar = z.conj()
    sbar = np.conj(s)
    grad = 2.0 * (z * sbar[:, None] - zbar)
    levi = 4.0 * (z[:, :, None] * zbar[:, None, :])
    diag = np.arange(z.shape[1])
    levi[:, diag, diag] -= 2.0
    if x is None:
        norm = Derivatives(n, grad, levi)
    else:
        xx = _t(x) @ x
        hess = 2.0 * sbar[:, None, None] * xx
        norm = Derivatives(n, grad, levi, x, hess, 4.0 * xx[..., None] * zbar[:, None, None])
    return norm.compose(value, 1.0 / n, -1.0 / n**2, 2.0 / n**3)


# -- polydisk embeddings ------------------------------------------------------


@dataclass(frozen=True)
class LinearEmbedding:
    """A linear holomorphic embedding fixing the origin.

    `matrix` is the (target dim) x (source dim) Jacobian; since the map is
    linear the Jacobian is constant and evaluation is a matrix product.
    Works on a point (source dim,) and on a stack (B, source dim), plain or
    holding jets; jet coordinates give an object array.
    """

    source: DomainSpec
    target: DomainSpec
    matrix: np.ndarray

    def __call__(self, coords):
        z = _coords_array(coords)
        return z @ self.matrix.T if z.ndim == 2 else self.matrix @ z


def polydisk_embedding(spec: DomainSpec) -> LinearEmbedding:
    """The standard rank-sized polydisk inside an irreducible domain.

    Types I-III put z_j at entry (j, j) of Z, or (j, n-1-j) on the
    antisymmetric type II, read from `_layout`; type IV embeds through
    (z1, z2) -> ((z1+z2)/2, i(z1-z2)/2, 0, ..., 0).
    In every case N(phi(z)) = prod_j (1 - |z_j|^2).
    """
    r = spec.rank
    mat = np.zeros((spec.dim, r), dtype=np.complex128)
    if spec.kind == "IV":
        mat[0, 0] = 0.5
        mat[0, 1] = 0.5
        mat[1, 0] = 0.5j
        mat[1, 1] = -0.5j
    elif spec.kind == "product":
        raise ValueError("product specs compose per-factor embeddings; see product_embedding")
    else:
        j = np.arange(r)
        col = spec.params[-1] - 1 - j if spec.kind == "II" else j
        mat[_layout(spec)[j, col], j] = 1.0
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
        expected = _layout(spec).shape
        if shape != expected:
            raise ValueError(f"basis shape {shape} does not match ambient {expected}")
    cols = np.stack([m.ravel() for m in mats], axis=1)
    for u, v, w in itertools.product(mats, repeat=3):
        t = triple_product(u, v, w).ravel()
        coef, *_ = np.linalg.lstsq(cols, t, rcond=None)
        if np.linalg.norm(cols @ coef - t) > tol:
            return False
    return True
