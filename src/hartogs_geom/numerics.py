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
    """A point lies outside the domain required by an operation."""


@dataclass(frozen=True)
class Derivatives:
    """Closed-form derivatives of a real function F of complex coordinates.

    grad[i] = dF/dz_i and levi[i, l] = d^2F/dz_i dzbar_l; antiholomorphic
    derivatives are their conjugates because F is real.  Given direction
    matrices x (d x p) and y (d x q), hess[a, b] = F_ij x[i, a] y[j, b] and
    third[a, b, l] = F_{i j lbar} x[i, a] y[j, b]; without directions all
    four are None.  Contracting against directions keeps one direction pair
    at O(d^2) work instead of materializing the d^3 third-order tensor.
    """

    value: float
    grad: np.ndarray
    levi: np.ndarray
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    hess: np.ndarray | None = None
    third: np.ndarray | None = None

    def compose(self, f0: float, f1: float, f2: float, f3: float) -> "Derivatives":
        """Derivatives of phi(F) from phi and its first three derivatives at F."""
        g = self.grad
        gbar = np.conj(g)
        levi = f1 * self.levi + f2 * np.outer(g, gbar)
        if self.x is None:
            return Derivatives(f0, f1 * g, levi)
        fx, fy = self.x.T @ g, self.y.T @ g
        fxl, fyl = self.x.T @ self.levi, self.y.T @ self.levi
        fxy = np.outer(fx, fy)
        hess = f1 * self.hess + f2 * fxy
        third = (
            f1 * self.third
            + f2
            * (
                self.hess[:, :, None] * gbar
                + fxl[:, None, :] * fy[None, :, None]
                + fyl[None, :, :] * fx[:, None, None]
            )
            + f3 * fxy[:, :, None] * gbar
        )
        return Derivatives(f0, f1 * g, levi, self.x, self.y, hess, third)


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
