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
gives N^mu = 0 there and `log_norm_derivatives` raises.  It and `contains`
reject the points off every base (`_off_every_base`) before any arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
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
    product.  Rank, dimension, genus and the parameter check all read each
    factor's invariants (r, a, b) (see `_signature`); genus never enters a
    computation.
    """

    kind: str
    params: tuple[int, ...] = ()
    factors: tuple["DomainSpec", ...] = field(default=())

    def __post_init__(self):
        if any(isinstance(p, bool) or not isinstance(p, (int, np.integer)) for p in self.params):
            raise ValueError(f"domain params must be integers, got {self.params!r}")
        # NumPy integers become Python ints, which JSON reports can hold
        object.__setattr__(self, "params", tuple(int(p) for p in self.params))
        if self.kind == "product":
            if not self.factors:
                raise ValueError("product requires at least one factor")
            if any(f.kind == "product" for f in self.factors):
                raise ValueError("product factors must be irreducible")
            return
        r, a, b = self._signature
        if r < 1 or b < 0 or (self.kind == "IV" and self.params[0] < 5):
            raise ValueError(f"type {self.kind} params {list(self.params)} give (r, a, b) = "
                             f"{(r, a, b)}; a domain needs r >= 1, b >= 0 and, on type IV, n >= 5")

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
    # _signature, dim, irreducible_factors and is_polydisk are cached in the
    # instance __dict__, which equality and hashing (fields only) do not see;
    # the last three are read on every evaluation

    @cached_property
    def _signature(self) -> tuple[int, int, int]:
        """The invariants (r, a, b) of an irreducible factor, its rank and root
        multiplicities: dim = r + r(r-1)a/2 + rb and genus = (r-1)a + b + 2
        (Loos 1977; Faraut-Koranyi, J. Funct. Anal. 88, 1990)."""
        if self.kind == "I":
            m, n = self.params
            return m, 2, n - m
        if self.kind == "II":
            (n,) = self.params
            return n // 2, 4, 2 * (n % 2)
        if self.kind == "III":
            (m,) = self.params
            return m, 1, 0
        if self.kind == "IV":
            (n,) = self.params
            return 2, n - 2, 0
        raise ValueError(f"no (r, a, b) for kind {self.kind!r}: I-IV have one, products per factor")

    @property
    def rank(self) -> int:
        return sum(f._signature[0] for f in self.irreducible_factors)

    @property
    def genus(self) -> int:
        r, a, b = self._signature
        return (r - 1) * a + b + 2

    @cached_property
    def dim(self) -> int:
        sigs = (f._signature for f in self.irreducible_factors)
        return sum(r + r * (r - 1) // 2 * a + r * b for r, a, b in sigs)

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
        product sums its factors and nothing divides by zero; a row off every
        base (`_off_every_base`) is moved to the origin before any arithmetic."""
        far = _off_every_base(z)
        if far.any():
            out = self._log_norm(_at_origin(z, far), x, value_only)
            return replace(out, value=np.where(far, -np.inf, out.value))
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

        z is inside with margin m when every spectral value (singular values
        of Z on types I-III, the polydisk radii of z on type IV) has
        1 - lambda_j^2 > m: when z / sqrt(1 - m) passes the closed form's
        test log N > -inf, after `_off_every_base`.  A margin >= 1 admits no
        row.  A point gives a bool, a stack (B, dim) a boolean array (B,).
        """
        z = np.asarray(coords, dtype=np.complex128)
        if z.ndim == 1:
            self._check_len(z)
            return bool(self.contains(z[None], margin)[0])
        self._check_stack(z)
        if not margin < 1.0:
            return np.zeros(len(z), dtype=bool)
        far = _off_every_base(z)
        scaled = _at_origin(z, far) / np.sqrt(1.0 - margin)
        return ~far & (self._log_norm(scaled, None, value_only=True).value > -np.inf)

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
            c = _det_power(self)
            return d if c == 1.0 else d**c
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
        margin 1 - shrink^2: every spectral value below shrink, so that
        z / shrink passes the closed form's test (see `contains`).

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
        """Deterministic interior point with spectral margin 1 - shrink^2 (see
        `_sample_stack`), drawn from the generator that the samplers' one
        stacked hash gives `seed`, the stream of `np.random.default_rng(seed)`."""
        from .hartogs import _seed_generators  # hartogs imports this module

        return self._sample_stack(shrink, _seed_generators([seed]))[0]

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


def _det_power(spec: DomainSpec) -> float:
    """c in N = det(I - Z Z*)^c: 1/2 on type II (each singular value twice)."""
    return 0.5 if spec.kind == "II" else 1.0


def _bergman(spec: DomainSpec, z):
    """Z = sum z_k E_k and A = I - Z Z* over a stack (B, dim)."""
    zm = _realize(spec, z)
    return zm, np.eye(zm.shape[1]) - zm @ _t(zm.conj())


def _gram(spec: DomainSpec, z):
    """Z and A = I - Z Z* over a stack (see `_bergman`), the Cholesky factor
    of A, and L = c log det A from its diagonal.

    The stacked factorisation is the fast path; when it fails,
    `is_positive_definite` (the test of `contains`) flags the points without
    a factor, which get L = -inf and are taken at the origin (Z = 0, A = I)
    for a second stacked factorisation.
    """
    zm, a = _bergman(spec, z)
    outside = np.zeros(len(z), dtype=bool)
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        outside = ~is_positive_definite(a)
        zm, a = _bergman(spec, _at_origin(z, outside))
        chol = np.linalg.cholesky(a)
    diag = np.diagonal(chol, axis1=-2, axis2=-1).real
    log_n = 2.0 * _det_power(spec) * np.sum(np.log(diag), axis=-1)
    return zm, a, chol, np.where(outside, -np.inf, log_n)


def _off_every_base(z: np.ndarray) -> np.ndarray:
    """Rows with a coordinate that is NaN or of modulus >= 2, infinite
    included: off every base (any |z_k| >= 1 is), and each form's own test
    decides the rest, whose squares cannot overflow, to the last bit."""
    return ~(np.abs(z).max(axis=-1) < 2.0)


def _at_origin(z: np.ndarray, outside: np.ndarray) -> np.ndarray:
    """The stack z with the rows flagged `outside` moved to the origin."""
    return np.where(outside[:, None], 0.0, z)


def _matrix_log_norm(spec: DomainSpec, z, x, value_only=False) -> Derivatives:
    """Types I-III: L = c log det A, A = I - Z Z*, c = `_det_power(spec)`.

    With R = A^-1 and P_i = R E_i Z*, the derivatives follow from
    dR = R (dA) R: L_i = -c tr P_i, L_ij = -c tr(P_i P_j) and
    L_{i lbar} = -c tr(E_l* R E_i S) with S = I + Z* R Z = (I - Z* Z)^-1.
    Every tensor carries the stack axis of z first.
    """
    e = _unit_matrices(spec)
    dim, m, n = e.shape
    c = _det_power(spec)
    zm, a, chol, value = _gram(spec, z)
    if value_only:
        return Derivatives(value, None, None)
    zh = _t(zm.conj())
    try:
        r = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        # a zero LU pivot, ulps from the boundary: R = (L L*)^-1 instead
        linv = np.linalg.inv(chol)
        r = _t(linv.conj()) @ linv
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
    the a_j of `_polydisk_log_norm`, whose signs decide membership."""
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
    np.abs(s)**2, the floats the closed form reads.
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
    """The standard rank-sized polydisk inside a domain, block by block over
    its irreducible factors.

    Types I-III put z_j at entry (j, j) of Z, or (j, n-1-j) on the
    antisymmetric type II, read from `_layout`; type IV embeds through
    (z1, z2) -> ((z1+z2)/2, i(z1-z2)/2, 0, ..., 0).
    In every case N(phi(z)) = prod_j (1 - |z_j|^2).
    """
    mat = np.zeros((spec.dim, spec.rank), dtype=np.complex128)
    row = col = 0
    for f in spec.irreducible_factors:
        block = mat[row : row + f.dim, col : col + f.rank]
        if f.kind == "IV":
            block[:2, :2] = [[0.5, 0.5], [0.5j, -0.5j]]
        else:
            j = np.arange(f.rank)
            entry = f.params[-1] - 1 - j if f.kind == "II" else j
            block[_layout(f)[j, entry], j] = 1.0
        row += f.dim
        col += f.rank
    return LinearEmbedding(DomainSpec.polydisk(spec.rank), spec, mat)


# the block combination for products, under its earlier name
product_embedding = polydisk_embedding


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
