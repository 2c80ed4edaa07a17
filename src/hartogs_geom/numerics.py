"""Scalar and matrix numerics shared across the geometry modules.

Determinants take stacks of plain complex matrices and of object matrices
whose entries are :class:`~hartogs_geom.jets.Jet` values, so the one
generic-norm route can be evaluated numerically and differentiated.
:class:`Derivatives` carries closed-form derivative tensors of a real
function of complex coordinates through the chain rule and the sum rule
over coordinate blocks.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .jets import Jet

__all__ = ["det", "is_positive_definite", "gen_binomial", "DomainViolation", "Derivatives"]


class DomainViolation(ValueError):
    """A point lies outside the domain required by an operation.

    `index` names the offending point of a stacked evaluation (the first
    one, when several lie outside); a single point is the stack of one, so
    it carries 0.  Raisers that do not know the point leave it None.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


def _t(m: np.ndarray) -> np.ndarray:
    """Swap the last two axes: the transpose of every matrix of a stack."""
    return m.swapaxes(-1, -2)


@dataclass(frozen=True)
class Derivatives:
    """Closed-form derivatives of a real function F of complex coordinates.

    grad[i] = dF/dz_i and levi[i, l] = d^2F/dz_i dzbar_l; antiholomorphic
    derivatives are their conjugates because F is real.  The direction
    matrix x (d x k) sets how far an evaluation goes, and is given whenever
    grad is: hess[a, b] = F_ij x[i, a] x[j, b] and
    third[a, b, l] = F_{i j lbar} x[i, a] x[j, b] for every pair of its
    columns, so the metric alone is the evaluation along zero columns, with
    hess and third empty.  Contracting against directions keeps one pair at
    O(d^2) work instead of materializing the d^3 third-order tensor.

    A stack of B points carries a leading batch axis on every tensor: value
    (B,), grad (B, d), levi (B, d, d), hess (B, k, k) and third
    (B, k, k, d), with directions shared (d, k) or per point (B, d, k).
    `member(j)` gives point j with the unbatched shapes.  A value-only
    evaluation leaves x and every tensor None.
    """

    value: float | np.ndarray
    grad: np.ndarray | None
    levi: np.ndarray | None
    x: np.ndarray | None = None
    hess: np.ndarray | None = None
    third: np.ndarray | None = None

    def compose(self, f0, f1, f2, f3) -> "Derivatives":
        """Derivatives of phi(F) from phi and its first three derivatives at F.

        f0-f3 are scalars, or arrays shaped like `value` for a stack.
        """
        if self.grad is None:
            return Derivatives(f0, None, None)
        # f1-f3 scale vectors over the last axis; each f is folded into the
        # smallest factor of a product
        f1, f2, f3 = (np.asarray(f)[..., None] for f in (f1, f2, f3))
        g = self.grad
        gbar = g.conj()
        levi = f1[..., None] * self.levi + (f2 * g)[..., :, None] * gbar[..., None, :]
        xt = _t(self.x)
        fx, fxl = (xt @ g[..., None])[..., 0], xt @ self.levi
        hess = f1[..., None] * self.hess + (f2 * fx)[..., :, None] * fx[..., None, :]
        # phi(F)_{ab lbar} = f1 F_{ab lbar} + (f2 F_ab + f3 F_a F_b) Fbar_l
        #   + f2 (F_{a lbar} F_b + F_{b lbar} F_a), with F_a = F_i x^i_a
        cross = fxl[..., :, None, :] * (f2 * fx)[..., None, :, None]
        cross = cross + cross.swapaxes(-3, -2)
        curve = f2[..., None] * self.hess + (f3 * fx)[..., :, None] * fx[..., None, :]
        third = f1[..., None, None] * self.third + curve[..., None] * gbar[..., None, None, :] + cross
        return Derivatives(f0, f1 * g, levi, self.x, hess, third)

    @staticmethod
    def block_sum(parts) -> "Derivatives":
        """Derivatives of a sum over consecutive coordinate blocks, each part
        a function of its own block that carries the rows of x for it.

        Values and hess add, grad, x and third join block by block, and levi
        is block diagonal.
        """
        value = sum(part.value for part in parts)
        if parts[0].grad is None:
            return Derivatives(value, None, None)
        grad = np.concatenate([part.grad for part in parts], axis=-1)
        x = np.concatenate([part.x for part in parts], axis=-2)
        third = np.concatenate([part.third for part in parts], axis=-1)
        levi = np.zeros((*grad.shape, grad.shape[-1]), dtype=np.complex128)
        pos = 0
        for part in parts:
            block = slice(pos, pos + part.grad.shape[-1])
            levi[..., block, block] = part.levi
            pos = block.stop
        return Derivatives(value, grad, levi, x, sum(part.hess for part in parts), third)

    def member(self, j: int) -> "Derivatives":
        """Point j of a stack, with the unbatched shapes."""
        value = float(self.value[j])
        if self.grad is None:
            return Derivatives(value, None, None)
        x = self.x if self.x.ndim == 2 else self.x[j]
        return Derivatives(value, self.grad[j], self.levi[j], x, self.hess[j], self.third[j])


def _stack(p, n: int, dtype=np.complex128):
    """A point (n,) as the stack of one, or a stack (B, n) as it is, with
    whether it was a point: (rows (B, n), single).

    Every coordinate entry point reads its input here and unwraps row 0 of
    its result for a point.  Any other shape raises ValueError.  dtype None
    keeps an object (jet) array and casts plain input to complex128.
    """
    rows = np.asarray(p, dtype=dtype)
    if rows.dtype != object:
        rows = rows.astype(np.complex128, copy=False)
    if rows.ndim not in (1, 2) or rows.shape[-1] != n:
        raise ValueError(f"expected {n} coordinates, got shape {rows.shape}")
    single = rows.ndim == 1
    return (rows[None] if single else rows), single


def _directions(x, n: int) -> np.ndarray:
    """x, or for None the empty direction matrix (n, 0): the metric alone."""
    return np.zeros((n, 0), dtype=np.complex128) if x is None else x


def _value(x) -> complex:
    return x.value if isinstance(x, Jet) else complex(x)


def det(m: np.ndarray):
    """Determinant via LU with partial pivoting, over a stack of any dtype.

    A stack (..., n, n) gives (...); one matrix (n, n) is the stack of one
    and gives its entry.  1x1 and 2x2 matrices use exact closed forms.
    Plain complex matrices go through LAPACK; object matrices (jet entries)
    go one at a time through a generic LU with pivoting on the magnitude of
    the value part.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"determinant requires a square matrix, got {m.shape}")
    if m.ndim == 2:
        return det(m[None])[0]
    n = m.shape[-1]
    if n <= 2:
        a = np.moveaxis(m, (-2, -1), (0, 1))  # a[i, j]: the (i, j) entries of the stack
        return a[0, 0] if n == 1 else a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if m.dtype != object:
        return np.linalg.det(m.astype(np.complex128))
    dets = [_lu_det_generic(a, n) for a in m.reshape(-1, n, n)]
    return np.array(dets, dtype=object).reshape(m.shape[:-2])


def _lu_det_generic(m: np.ndarray, n: int):
    rows = [list(r) for r in m]
    sign = 1.0
    out = None
    for k in range(n):
        piv, piv_mag = k, abs(_value(rows[k][k]))
        for i in range(k + 1, n):
            mag = abs(_value(rows[i][k]))
            if mag > piv_mag:
                piv, piv_mag = i, mag
        if piv_mag == 0.0:
            return 0.0 * rows[0][0]
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pivot = rows[k][k]
        out = pivot if out is None else out * pivot
        if k + 1 < n:
            inv_p = 1.0 / pivot if not isinstance(pivot, Jet) else pivot.reciprocal()
            for i in range(k + 1, n):
                f = rows[i][k] * inv_p
                ri, rk = rows[i], rows[k]
                for j in range(k + 1, n):
                    ri[j] = ri[j] - f * rk[j]
    return sign * out


def is_positive_definite(m: np.ndarray, margin: float = 0.0):
    """True iff the Hermitian matrix m - margin I has a Cholesky factor
    (lambda_min(m) > margin up to rounding; the closed form's test of log N).

    A stack (B, n, n) gives (B,): one stacked factorisation, then one per
    matrix only when some has none.  A matrix holding NaN or an infinite
    entry, anywhere, reads False.  Raises ValueError when a finite matrix is
    not Hermitian within 1e-12 (relative to its largest entry).
    """
    h = np.asarray(m, dtype=np.complex128)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"positive-definiteness requires a square matrix, got {h.shape}")
    # the largest entry is NaN or infinite exactly when some entry is.  The
    # factorisation reads one triangle only: a non-finite matrix is checked
    # and factored as the identity, then reads False
    peak = np.max(np.abs(h), axis=(-2, -1))
    finite = np.isfinite(peak)
    if not finite.all():
        h = np.where(finite[..., None, None], h, np.eye(h.shape[-1]))
        peak = np.where(finite, peak, 1.0)
    scale = np.maximum(1.0, peak)
    asym = np.max(np.abs(h - _t(h.conj())), axis=(-2, -1))
    if np.any(asym > 1e-12 * scale):
        raise ValueError(f"matrix is not Hermitian (asymmetry {np.max(asym):.3e})")
    shifted = (h - margin * np.eye(h.shape[-1])).reshape(-1, *h.shape[-2:])
    try:
        diag = np.diagonal(np.linalg.cholesky(shifted), axis1=-2, axis2=-1)
    except np.linalg.LinAlgError:
        # one factorisation per matrix; a matrix without one keeps a zero
        diag = np.zeros(shifted.shape[:-1], dtype=np.complex128)
        for j, a in enumerate(shifted):
            with contextlib.suppress(np.linalg.LinAlgError):
                diag[j] = np.diagonal(np.linalg.cholesky(a))
    inside = np.all(diag.real > 0.0, axis=-1).reshape(h.shape[:-2]) & finite
    return bool(inside) if h.ndim == 2 else inside


def gen_binomial(x: float, k: int) -> float:
    """Generalized binomial coefficient binom(x + k - 1, k).

    Equals Gamma(x+k) / (Gamma(k+1) Gamma(x)); for positive non-integer x it
    is computed through log-gamma for stability, integral x > 0 uses exact
    integer arithmetic until float overflow.  Defined for any x via the
    rising-factorial product, which is used on the x <= 0 branch.
    """
    if k < 0:
        raise ValueError("k must be a nonnegative integer")
    if k == 0:
        return 1.0
    if x + k <= 0:
        raise ValueError("gamma pole: require x + k > 0")
    if x <= 0:
        out = 1.0
        for i in range(k):
            out *= (x + i) / (i + 1)
        return out
    if float(x).is_integer():
        try:
            return float(math.comb(int(x) + k - 1, k))
        except OverflowError:
            pass
    return math.exp(math.lgamma(x + k) - math.lgamma(k + 1) - math.lgamma(x))
