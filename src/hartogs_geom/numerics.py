"""Scalar and matrix numerics shared across the geometry modules.

Determinants work both on plain complex matrices and on object matrices
whose entries are :class:`~hartogs_geom.jets.Jet` values, so the same
generic-norm code can be evaluated numerically and differentiated.
:class:`Derivatives` carries closed-form derivative tensors of a real
function of complex coordinates through the chain rule.
"""

from __future__ import annotations

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
    derivatives are their conjugates because F is real.  Given direction
    matrices x (d x p) and y (d x q), hess[a, b] = F_ij x[i, a] y[j, b] and
    third[a, b, l] = F_{i j lbar} x[i, a] y[j, b]; without directions all
    four are None.  Contracting against directions keeps one direction pair
    at O(d^2) work instead of materializing the d^3 third-order tensor.

    A stack of B points carries a leading batch axis on every tensor: value
    (B,), grad (B, d), levi (B, d, d), hess (B, p, q) and third
    (B, p, q, d), with directions shared (d, p) or per point (B, d, p).
    `member(j)` gives point j with the unbatched shapes.
    """

    value: float | np.ndarray
    grad: np.ndarray
    levi: np.ndarray
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    hess: np.ndarray | None = None
    third: np.ndarray | None = None

    def compose(self, f0, f1, f2, f3) -> "Derivatives":
        """Derivatives of phi(F) from phi and its first three derivatives at F.

        f0-f3 are scalars, or arrays shaped like `value` for a stack.
        """
        # f1-f3 scale vectors over the last axis; each f is folded into the
        # smallest factor of a product
        f1, f2, f3 = (np.asarray(f)[..., None] for f in (f1, f2, f3))
        g = self.grad
        gbar = g.conj()
        levi = f1[..., None] * self.levi + (f2 * g)[..., :, None] * gbar[..., None, :]
        if self.x is None:
            return Derivatives(f0, f1 * g, levi)
        xt = _t(self.x)
        fx, fxl = (xt @ g[..., None])[..., 0], xt @ self.levi
        if self.y is self.x:
            fy, fyl = fx, fxl
        else:
            yt = _t(self.y)
            fy, fyl = (yt @ g[..., None])[..., 0], yt @ self.levi
        f2fx = f2 * fx
        hess = f1[..., None] * self.hess + f2fx[..., :, None] * fy[..., None, :]
        # phi(F)_{ij lbar} x^i y^j = f1 F_{ij lbar} x^i y^j
        #   + (f2 F_xy + f3 F_x F_y) Fbar_l + f2 (F_{x lbar} F_y + F_{y lbar} F_x)
        cross = fxl[..., :, None, :] * (f2 * fy)[..., None, :, None]
        if self.y is self.x:
            cross = cross + cross.swapaxes(-3, -2)
        else:
            cross = cross + fyl[..., None, :, :] * f2fx[..., :, None, None]
        curve = f2[..., None] * self.hess + (f3 * fx)[..., :, None] * fy[..., None, :]
        third = f1[..., None, None] * self.third + curve[..., None] * gbar[..., None, None, :] + cross
        return Derivatives(f0, f1 * g, levi, self.x, self.y, hess, third)

    def member(self, j: int) -> "Derivatives":
        """Point j of a stack, with the unbatched shapes."""

        def pick(a):
            return None if a is None else a[j]

        def direction(d):
            return d if d is None or d.ndim == 2 else d[j]

        return Derivatives(
            float(self.value[j]),
            self.grad[j],
            self.levi[j],
            direction(self.x),
            direction(self.y),
            pick(self.hess),
            pick(self.third),
        )


def _value(x) -> complex:
    return x.value if isinstance(x, Jet) else complex(x)


def det(m: np.ndarray):
    """Determinant via LU with partial pivoting.

    1x1 and 2x2 matrices use exact closed forms.  Plain complex matrices go
    through LAPACK; object matrices (jet entries) use a generic LU with
    pivoting on the magnitude of the value part.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"determinant requires a square matrix, got {m.shape}")
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    if n == 2:
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if m.dtype != object:
        return complex(np.linalg.det(m.astype(np.complex128)))
    return _lu_det_generic(m, n)


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


def is_positive_definite(m: np.ndarray, margin: float = 0.0) -> bool:
    """True iff the Hermitian matrix m has smallest eigenvalue > margin.

    Raises ValueError when m is not Hermitian within 1e-12 (relative to its
    largest entry).
    """
    h = np.asarray(m, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"positive-definiteness requires a square matrix, got {h.shape}")
    scale = max(1.0, float(np.max(np.abs(h))))
    asym = float(np.max(np.abs(h - h.conj().T)))
    if asym > 1e-12 * scale:
        raise ValueError(f"matrix is not Hermitian (asymmetry {asym:.3e})")
    lam_min = float(np.linalg.eigvalsh(h)[0])
    return lam_min > margin


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
