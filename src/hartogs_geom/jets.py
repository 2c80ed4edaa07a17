"""Forward-mode truncated Taylor (jet) arithmetic over real directions.

A :class:`Jet` holds the Taylor coefficients of a smooth function along a
small set of designated real directions, truncated by a :class:`JetSpace`
degree policy: a cap on the total degree plus per-group caps on blocks of
directions.  Arithmetic (+, -, *, /, log, real powers) propagates the
coefficients exactly to rounding, which is what lets second- and third-order
derivatives of Kaehler potentials be computed without symbolic machinery.

Coefficients are stored as complex numbers; real-valued functions simply
carry (numerically) zero imaginary parts.  Complex coordinates enter as
pairs of real directions (x, y) with z = x + iy, and :func:`wirtinger`
assembles holomorphic / antiholomorphic derivatives from the real jet.

Grouped caps cover the fourth-order case needed for curvature: a jet capped
at degree 2 in each of two direction pairs is the flattened form of a
second-order jet whose coefficients are themselves second-order jets.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

__all__ = [
    "JetSpace",
    "Jet",
    "jet_space",
    "jet_constant",
    "jet_variable",
    "jet_eval",
    "wirtinger",
]


def _group_monomials(size: int, cap: int) -> list[tuple[int, ...]]:
    """All exponent tuples of length `size` with total degree <= cap."""
    if size == 0:
        return [()]
    out = []
    for head in range(cap + 1):
        for tail in _group_monomials(size - 1, cap - head):
            out.append((head,) + tail)
    return out


class JetSpace:
    """Descriptor of a truncated Taylor algebra.

    Directions are partitioned into contiguous groups; a monomial survives
    truncation iff its degree inside every group stays within that group's
    cap and its total degree stays within `total`.  The multiplication
    table (index triples i, j -> k with monomial_i * monomial_j =
    monomial_k) is built once and reused by every jet in the space.
    """

    __slots__ = ("groups", "caps", "total", "ndirs", "monomials", "index", "weights", "_table")

    def __init__(self, groups: tuple[int, ...], caps: tuple[int, ...], total: int):
        if len(groups) != len(caps):
            raise ValueError("groups and caps must have equal length")
        self.groups = groups
        self.caps = caps
        self.total = total
        self.ndirs = sum(groups)
        per_group = [_group_monomials(g, min(c, total)) for g, c in zip(groups, caps)]
        monos = []
        for combo in itertools.product(*per_group):
            exps = tuple(itertools.chain.from_iterable(combo))
            if sum(exps) <= total:
                monos.append(exps)
        monos.sort(key=lambda m: (sum(m), m))
        self.monomials = monos
        self.index = {m: i for i, m in enumerate(monos)}
        # weights[i] = prod(e!) over monomials[i]: Taylor coefficient -> derivative
        self.weights = np.array([math.prod(map(math.factorial, m)) for m in monos], dtype=float)
        self._table = None

    def __len__(self) -> int:
        return len(self.monomials)

    def _group_degrees(self, mono: tuple[int, ...]) -> tuple[int, ...]:
        out, pos = [], 0
        for g in self.groups:
            out.append(sum(mono[pos : pos + g]))
            pos += g
        return tuple(out)

    @property
    def table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index triples (I, J, K): coeff_out[K] += a[I] * b[J]."""
        if self._table is None:
            buckets: dict[tuple[int, ...], list[int]] = {}
            for i, m in enumerate(self.monomials):
                buckets.setdefault(self._group_degrees(m), []).append(i)
            ii, jj, kk = [], [], []
            for i, m in enumerate(self.monomials):
                dv = self._group_degrees(m)
                rem_total = self.total - sum(dv)
                rem_caps = [c - d for c, d in zip(self.caps, dv)]
                for dv2 in itertools.product(*(range(r + 1) for r in rem_caps)):
                    if sum(dv2) > rem_total or dv2 not in buckets:
                        continue
                    for j in buckets[dv2]:
                        m2 = self.monomials[j]
                        k = self.index[tuple(a + b for a, b in zip(m, m2))]
                        ii.append(i)
                        jj.append(j)
                        kk.append(k)
            self._table = (
                np.asarray(ii, dtype=np.intp),
                np.asarray(jj, dtype=np.intp),
                np.asarray(kk, dtype=np.intp),
            )
        return self._table


@lru_cache(maxsize=None)
def jet_space(groups: tuple[int, ...], caps: tuple[int, ...], total: int) -> JetSpace:
    """Cached JetSpace constructor (spaces are immutable and shareable)."""
    return JetSpace(groups, caps, total)


class Jet:
    """Truncated Taylor expansion with complex coefficients.

    coeffs[i] is the Taylor coefficient (derivative / multi-factorial) of
    the monomial space.monomials[i]; index 0 is the constant term.
    """

    __slots__ = ("space", "coeffs")

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.coeffs = coeffs

    # -- basic structure ---------------------------------------------------

    @property
    def value(self) -> complex:
        return complex(self.coeffs[0])

    def derivative(self, mono: tuple[int, ...]) -> complex:
        """Mixed partial derivative for the given exponent tuple."""
        idx = self.space.index.get(tuple(mono))
        if idx is None:
            raise ValueError(f"monomial {mono} not tracked by this jet space")
        return complex(self.coeffs[idx]) * self.space.weights[idx]

    def conjugate(self) -> "Jet":
        return Jet(self.space, np.conj(self.coeffs))

    def real_jet(self) -> "Jet":
        """Drop (numerically zero) imaginary coefficients."""
        return Jet(self.space, self.coeffs.real.astype(np.complex128))

    def imag_norm(self) -> float:
        return float(np.max(np.abs(self.coeffs.imag)))

    def __repr__(self) -> str:
        return f"Jet(value={self.value:.6g}, n={len(self.space)})"

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "Jet") -> None:
        if other.space is not self.space:
            raise ValueError("jets belong to different jet spaces")

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(self.space, self.coeffs + other.coeffs)
        c = self.coeffs.copy()
        c[0] += other
        return Jet(self.space, c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.coeffs)

    def __sub__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(self.space, self.coeffs - other.coeffs)
        c = self.coeffs.copy()
        c[0] -= other
        return Jet(self.space, c)

    def __rsub__(self, other):
        c = -self.coeffs
        c[0] += other
        return Jet(self.space, c)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.space, self.coeffs * other)
        self._check(other)
        ii, jj, kk = self.space.table
        prod = self.coeffs[ii] * other.coeffs[jj]
        n = len(self.space)
        out = np.bincount(kk, weights=prod.real, minlength=n).astype(np.complex128)
        out += 1j * np.bincount(kk, weights=prod.imag, minlength=n)
        return Jet(self.space, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return Jet(self.space, self.coeffs / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    # -- analytic functions via composition --------------------------------

    def _compose(self, derivs: list[complex]) -> "Jet":
        """Evaluate an analytic function given its derivatives at `value`.

        derivs[n] = f^(n)(value); uses Horner evaluation of the truncated
        series f(v + u) = sum_n derivs[n]/n! u^n with u = self - value.
        """
        u = Jet(self.space, self.coeffs.copy())
        u.coeffs[0] = 0.0
        k = self.space.total
        out = jet_constant(self.space, derivs[k] / math.factorial(k))
        for n in range(k - 1, -1, -1):
            out = out * u + (derivs[n] / math.factorial(n))
        return out

    def reciprocal(self) -> "Jet":
        v = self.value
        if v == 0:
            raise ZeroDivisionError("jet reciprocal at zero value")
        k = self.space.total
        derivs = [(-1) ** n * math.factorial(n) / v ** (n + 1) for n in range(k + 1)]
        return self._compose(derivs)

    def log(self) -> "Jet":
        v = self.value
        if v.real <= 0 and abs(v.imag) < 1e-300:
            raise ValueError("log of non-positive jet value (domain violation)")
        k = self.space.total
        derivs: list[complex] = [np.log(v)]
        for n in range(1, k + 1):
            derivs.append((-1) ** (n - 1) * math.factorial(n - 1) / v**n)
        return self._compose(derivs)

    def __pow__(self, alpha):
        if isinstance(alpha, int) or (isinstance(alpha, float) and alpha.is_integer()):
            a = int(alpha)
            if 0 <= a <= 4:
                # exact for small integer powers, valid at zero values too
                out = jet_constant(self.space, 1.0)
                for _ in range(a):
                    out = out * self
                return out
        v = self.value
        if v == 0:
            raise ValueError("fractional power of jet at zero value")
        k = self.space.total
        derivs, c = [], 1.0
        for n in range(k + 1):
            derivs.append(c * v ** (alpha - n))
            c *= alpha - n
        return self._compose(derivs)


def jet_constant(space: JetSpace, value: complex) -> Jet:
    c = np.zeros(len(space), dtype=np.complex128)
    c[0] = value
    return Jet(space, c)


def jet_variable(space: JetSpace, value: complex, seeds: dict[int, complex]) -> Jet:
    """A jet with given value and unit-degree coefficients `seeds[dir]`."""
    c = np.zeros(len(space), dtype=np.complex128)
    c[0] = value
    for d, w in seeds.items():
        mono = tuple(1 if i == d else 0 for i in range(space.ndirs))
        c[space.index[mono]] = w
    return Jet(space, c)


def jet_eval(f, point, directions, order: int = 3) -> Jet:
    """Order-<=3 Taylor data of f along up to six coordinate directions.

    `f` is called with a list of inputs matching `point`, where the active
    entries are jets and the rest are plain floats; it must be built from
    jet-compatible operations (+, *, /, log, powers, det).
    """
    directions = tuple(directions)
    if not 1 <= len(directions) <= 6:
        raise ValueError("between 1 and 6 active directions are supported")
    if order > 3:
        raise ValueError("jets are truncated at order 3")
    space = jet_space((len(directions),), (order,), order)
    args: list = list(point)
    for slot, d in enumerate(directions):
        args[d] = jet_variable(space, args[d], {slot: 1.0})
    out = f(args)
    if not isinstance(out, Jet):
        out = jet_constant(space, out)
    return out


def wirtinger(jet: Jet, holo=(), anti=()) -> complex:
    """Mixed Wirtinger derivative of a potential from its real jet.

    `holo` and `anti` are sequences of real-direction pairs (x_dir, y_dir),
    one per complex-derivative slot; each holo slot applies
    (1/2)(d/dx - i d/dy) and each anti slot (1/2)(d/dx + i d/dy).
    Repeated pairs are allowed (higher-order derivatives in one variable).
    """
    slots = [(p, -1j) for p in holo] + [(p, 1j) for p in anti]
    ndirs = jet.space.ndirs
    for pair, _ in slots:
        if not (0 <= pair[0] < ndirs and 0 <= pair[1] < ndirs):
            raise ValueError(f"direction pair {pair} not tracked by this jet space")
    acc: dict[tuple[int, ...], complex] = {}
    base = 0.5 ** len(slots)
    for choice in itertools.product((0, 1), repeat=len(slots)):
        coef = base
        expo = [0] * ndirs
        for (pair, sign), c in zip(slots, choice):
            expo[pair[c]] += 1
            if c == 1:
                coef *= sign
        key = tuple(expo)
        acc[key] = acc.get(key, 0.0) + coef
    out = 0.0 + 0.0j
    for expo, coef in acc.items():
        if coef == 0.0:
            continue
        out += coef * jet.derivative(expo)
    return out
