"""Kaehler metric, Christoffel symbols, geodesics and curvature from a potential.

Everything is computed from a potential handle: any object exposing
`n_coords` (complex dimension), `derivatives(p, x, y)` (the metric and the
contracted third-order terms from one evaluation, see
`numerics.Derivatives`) and `interior_margin(p)` (positive inside the
domain), plus `__call__(coords)` on jet-valued coordinates for the order-4
curvature term only.  `HartogsPotential` and `DomainPotential` answer
`derivatives` in closed form; `FunctionPotential` answers it with jets.

Conventions.  The metric tensor is g_{i jbar} = d^2 Phi / dz_i dzbar_j with
no form factor; Christoffel symbols, geodesics and total geodesy are
invariant under constant rescaling of the potential, holomorphic sectional
curvature scales accordingly.  The fiber coordinate, where present, is the
last index.  Geodesics integrate the holomorphic second-order system
zddot^k + Gamma^k_ij zdot^i zdot^j = 0 valid for Kaehler metrics.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .jets import jet_space, jet_variable, wirtinger
from .numerics import Derivatives, DomainViolation

__all__ = [
    "MetricData",
    "Christoffel",
    "GeodesicTrace",
    "FunctionPotential",
    "metric_at",
    "christoffel_at",
    "geodesic_ivp",
    "tg_residual",
    "sectional_curvature",
    "hermitian_inner",
    "distance_to_span",
]

BOUNDARY_MARGIN = 1e-7


class FunctionPotential:
    """Ad-hoc potential handle from a plain callable over jet coordinates."""

    def __init__(self, fn: Callable, n_coords: int, margin_fn: Callable | None = None):
        self._fn = fn
        self.n_coords = n_coords
        self._margin = margin_fn

    def __call__(self, coords):
        return self._fn(coords)

    def value(self, p) -> float:
        return float(self._fn(list(np.asarray(p, dtype=np.complex128))))

    def derivatives(self, p, x=None, y=None) -> Derivatives:
        """Derivatives of the callable at p through jets (see `Derivatives`).

        Value, gradient and Levi form come from one order-2 jet; hess and
        third from one mixed order-3 jet per column pair (x[:, a], y[:, b]).
        """
        p = np.asarray(p, dtype=np.complex128)
        n = self.n_coords
        space = jet_space((2 * n,), (2,), 2)
        f = self._fn(
            [jet_variable(space, complex(p[i]), {2 * i: 1.0, 2 * i + 1: 1j}) for i in range(n)]
        )
        pairs = [(2 * i, 2 * i + 1) for i in range(n)]
        grad = np.array([wirtinger(f, holo=[pairs[i]]) for i in range(n)])
        levi = np.empty((n, n), dtype=np.complex128)
        for i in range(n):
            for j in range(i, n):
                levi[i, j] = wirtinger(f, holo=[pairs[i]], anti=[pairs[j]])
                levi[j, i] = np.conj(levi[i, j])
        if x is None:
            return Derivatives(f.value.real, grad, levi)
        hess = np.empty((x.shape[1], y.shape[1]), dtype=np.complex128)
        third = np.empty((x.shape[1], y.shape[1], n), dtype=np.complex128)
        for a in range(x.shape[1]):
            for b in range(y.shape[1]):
                if y is x and b < a:  # symmetric in (a, b): reuse the pair (b, a)
                    hess[a, b], third[a, b] = hess[b, a], third[b, a]
                else:
                    hess[a, b], third[a, b] = self._mixed(p, x[:, a], y[:, b])
        return Derivatives(f.value.real, grad, levi, x, y, hess, third)

    def _mixed(self, p, u, v):
        """Phi_ij u^i v^j and Phi_{i j lbar} u^i v^j for every l, from one jet.

        The jet runs along p + s u + t v + delta with complex s, t (real
        directions 0-3) and one first-order pair per coordinate for delta.
        """
        n = self.n_coords
        space = jet_space((2, 2, 2 * n), (1, 1, 1), 3)
        f = self._fn(
            [
                jet_variable(
                    space,
                    complex(p[i]),
                    {0: u[i], 1: 1j * u[i], 2: v[i], 3: 1j * v[i], 4 + 2 * i: 1.0, 5 + 2 * i: 1j},
                )
                for i in range(n)
            ]
        )
        st = [(0, 1), (2, 3)]
        third = [wirtinger(f, holo=st, anti=[(4 + 2 * l, 5 + 2 * l)]) for l in range(n)]
        return wirtinger(f, holo=st), np.array(third)

    def interior_margin(self, p) -> float:
        if self._margin is None:
            return math.inf
        return float(self._margin(np.asarray(p, dtype=np.complex128)))


@dataclass
class MetricData:
    """Metric matrix, its inverse, and the holomorphic derivative tensor.

    dg[i, j, l] = d g_{j lbar} / dz_i (symmetric in i, j); for Hartogs
    potentials the last index value n-1 is the fiber direction.
    """

    g: np.ndarray
    g_inv: np.ndarray
    dg: np.ndarray


@dataclass
class Christoffel:
    """gamma[k, i, j] = Gamma^k_{ij}, symmetric in (i, j)."""

    gamma: np.ndarray


@dataclass
class GeodesicTrace:
    """Accepted integrator steps with conserved-energy bookkeeping.

    The work counters are deterministic: `rhs_evals` counts right-hand-side
    evaluations (one potential evaluation each), `rejected_steps` the steps
    the error test refused, and `domain_retries` the steps retried because
    a trial stage left the domain.
    """

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    energies: np.ndarray
    status: str  # "completed" | "boundary_reached"
    rhs_evals: int
    rejected_steps: int
    domain_retries: int

    def energy_drift(self) -> float:
        e0 = self.energies[0]
        return float(np.max(np.abs(self.energies - e0)) / abs(e0))

    def write_csv(self, fh) -> None:
        n = self.positions.shape[1]
        writer = csv.writer(fh)
        header = ["t"]
        for i in range(n - 1):
            header += [f"re_z{i + 1}", f"im_z{i + 1}"]
        header += ["re_w", "im_w", "energy"]
        writer.writerow(header)
        for t, pos, e in zip(self.times, self.positions, self.energies):
            row = [f"{t:.16e}"]
            for c in pos:
                row += [f"{c.real:.16e}", f"{c.imag:.16e}"]
            row.append(f"{e:.16e}")
            writer.writerow(row)


# -- derivative plumbing ------------------------------------------------------------


def _hermitian(g: np.ndarray) -> np.ndarray:
    return 0.5 * (g + g.conj().T)


def _metric_matrix(pot, p) -> np.ndarray:
    """g_{i jbar} for all index pairs."""
    return _hermitian(pot.derivatives(p).levi)


def _directional_mixed(pot, p, x, y) -> np.ndarray:
    """D_l = d_s d_t dbar_l Phi(p + s x + t y + delta) for every index l.

    Contracts the holomorphic third-derivative tensor with directions x, y,
    leaving the antiholomorphic slot free: D_l = Phi_{i j lbar} x^i y^j.
    """
    return pot.derivatives(p, np.asarray(x)[:, None], np.asarray(y)[:, None]).third[0, 0]


def _directional_second(pot, p, x) -> np.ndarray:
    """D_l = d_s^2 dbar_l Phi(p + s x + delta): the geodesic contraction."""
    return _directional_mixed(pot, p, x, x)


def _fourth_holomorphic(pot, p, x) -> complex:
    """d_t dbar_t d_s dbar_s Phi(p + (t+s) x): the quartic curvature term.

    Polarization of the order-4 derivative along the complex line through x
    into two degree-2 blocks, evaluated with grouped jet caps.
    """
    n = pot.n_coords
    space = jet_space((2, 2), (2, 2), 4)
    coords = []
    for i in range(n):
        if x[i] != 0.0:
            seeds = {0: x[i], 1: 1j * x[i], 2: x[i], 3: 1j * x[i]}
            coords.append(jet_variable(space, complex(p[i]), seeds))
        else:
            coords.append(complex(p[i]))
    f = pot(coords)
    return wirtinger(f, holo=[(0, 1), (2, 3)], anti=[(0, 1), (2, 3)])


def _metric_and_third(pot, p, basis):
    """The metric and third[a, b, l] = Phi_{i j lbar} basis[i, a] basis[j, b]."""
    t = pot.derivatives(p, basis, basis)
    # rounding in the closed form breaks the exact (a, b) symmetry
    return _hermitian(t.levi), 0.5 * (t.third + t.third.transpose(1, 0, 2))


# -- public operations ---------------------------------------------------------------


def metric_at(pot, p, cond_limit: float = 1e12) -> MetricData:
    """Metric matrix, inverse, and dg tensor at an interior point."""
    p = np.asarray(p, dtype=np.complex128)
    g, dg = _metric_and_third(pot, p, np.eye(pot.n_coords, dtype=np.complex128))
    if np.linalg.cond(g) > cond_limit:
        raise ValueError("metric is numerically singular (too close to the boundary)")
    return MetricData(g=g, g_inv=np.linalg.inv(g), dg=dg)


def christoffel_at(pot, p) -> Christoffel:
    """Gamma^k_{ij} = sum_l g^{k lbar} d g_{j lbar} / dz_i."""
    md = metric_at(pot, p)
    h = np.conj(md.g_inv)  # g^{k lbar} as a matrix in (k, l)
    gamma = np.einsum("kl,ijl->kij", h, md.dg)
    return Christoffel(gamma=gamma)


def hermitian_inner(g: np.ndarray, u: np.ndarray, v: np.ndarray) -> complex:
    """<u, v>_g = g_{i jbar} u^i conj(v^j)."""
    return complex(np.dot(u, g @ np.conj(v)))


def _acceleration(pot, p, v) -> tuple[np.ndarray, np.ndarray]:
    """The geodesic acceleration at (p, v) and the metric g it solved with."""
    g, d = _metric_and_third(pot, p, v[:, None])
    return -np.linalg.solve(np.conj(g), d[0, 0]), g


def geodesic_ivp(
    pot,
    p0,
    v0,
    T: float,
    tol: float = 1e-10,
    boundary_margin: float = BOUNDARY_MARGIN,
    max_steps: int = 100_000,
) -> GeodesicTrace:
    """Adaptive Dormand-Prince 5(4) integration of the geodesic equation.

    Returns the accepted steps; stops early with status "boundary_reached"
    when a step would land closer to the boundary than `boundary_margin`.
    Raises ValueError for T <= 0 or a zero initial velocity, and
    RuntimeError on step-size underflow.

    First same as last (FSAL): stage 7 is evaluated at the fifth-order
    solution (its weights a[6] are the fifth-order weights), so an accepted
    step takes that stage point as its result, the stage's rhs as the next
    step's stage 1, and its energy from the metric the same evaluation
    built.  Each attempted step costs six rhs evaluations.
    """
    p0 = np.asarray(p0, dtype=np.complex128)
    v0 = np.asarray(v0, dtype=np.complex128)
    if np.all(v0 == 0):
        raise ValueError("geodesic needs a nonzero initial velocity")
    if not T > 0:
        raise ValueError("geodesic needs a positive end time T")
    n = pot.n_coords

    a = (
        (),
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    )
    b4 = np.array(
        [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
    )
    rhs_evals = 0

    def rhs(y):
        nonlocal rhs_evals
        rhs_evals += 1
        acc, g = _acceleration(pot, y[:n], y[n:])
        return np.concatenate([y[n:], acc]), g

    def energy(g, y):
        return float(np.real(hermitian_inner(g, y[n:], y[n:])))

    if pot.interior_margin(p0) < boundary_margin:
        raise ValueError("initial point is too close to the boundary")

    y = np.concatenate([p0, v0])
    k1, g = rhs(y)
    t = 0.0
    times, ys, energies = [0.0], [y], [energy(g, y)]
    status = "completed"
    rejected_steps = domain_retries = 0
    h = min(0.01, T)
    for _ in range(max_steps):
        if t >= T:
            break
        h = min(h, T - t)
        if h < 1e-14 * max(1.0, T):
            raise RuntimeError("geodesic step size underflow")
        try:
            k = [k1]
            # the last pass leaves y5 at stage 7: the fifth-order solution
            for s in range(1, 7):
                y5 = y + h * sum(c * k[m] for m, c in enumerate(a[s]))
                ks, g = rhs(y5)
                k.append(ks)
        except DomainViolation:
            # a trial stage overshot the boundary; retry with a shorter step
            domain_retries += 1
            h *= 0.25
            continue
        y4 = y + h * (b4 @ np.array(k))
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.max(np.abs(y5 - y4) / scale))
        if err <= 1.0:
            if pot.interior_margin(y5[:n]) < boundary_margin:
                status = "boundary_reached"
                break
            t += h
            y, k1 = y5, k[6]
            times.append(t)
            ys.append(y)
            energies.append(energy(g, y))
        else:
            rejected_steps += 1
        h *= float(np.clip(0.9 * (max(err, 1e-16)) ** (-0.2), 0.2, 5.0))
    else:
        raise RuntimeError("geodesic exceeded the step budget")

    ys = np.array(ys)
    return GeodesicTrace(
        times=np.array(times),
        positions=ys[:, :n],
        velocities=ys[:, n:],
        energies=np.array(energies),
        status=status,
        rhs_evals=rhs_evals,
        rejected_steps=rejected_steps,
        domain_retries=domain_retries,
    )


def tg_residual(pot, chart, q) -> float:
    """Second-fundamental-form residual of a chart at a parameter point.

    For every pair (X, Y) of chart tangent vectors, the connection vector
    Gamma(X, Y)^k = g^{k lbar} Phi_{i j lbar} X^i Y^j is projected onto the
    g-orthogonal complement of the tangent space; the maximum norm of that
    normal component is returned.  Zero (to tolerance) iff the chart is
    totally geodesic at the point.
    """
    p = chart.embed(q)
    t_basis = np.asarray(chart.tangent_basis(q), dtype=np.complex128)
    n, kdim = t_basis.shape
    sv = np.linalg.svd(t_basis, compute_uv=False)
    if sv[-1] < 1e-10 * max(1.0, sv[0]):
        raise ValueError("degenerate chart tangent basis")
    g, third = _metric_and_third(pot, p, t_basis)
    gram = t_basis.T @ g @ np.conj(t_basis)
    rows, cols = np.triu_indices(kdim)
    # one column per tangent pair (X, Y): v = Gamma(X, Y)
    v = np.linalg.solve(np.conj(g), third[rows, cols].T)
    # normal equations of the g-orthogonal projection onto the span
    coef = np.linalg.solve(np.conj(gram), (v.T @ g @ np.conj(t_basis)).T)
    resid = v - t_basis @ coef
    norm2 = np.real(np.sum(resid * (g @ np.conj(resid)), axis=0))
    return math.sqrt(max(float(np.max(norm2)), 0.0))


def sectional_curvature(pot, p, x) -> float:
    """Holomorphic sectional curvature R(X, Xbar, X, Xbar) / g(X, Xbar)^2."""
    p = np.asarray(p, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    if np.all(x == 0):
        raise ValueError("curvature direction must be nonzero")
    t = pot.derivatives(p, x[:, None], x[:, None])
    g = _hermitian(t.levi)
    b = t.third[0, 0]  # b_l = Phi_{i j lbar} x^i x^j
    e = float(np.real(hermitian_inner(g, x, x)))
    q4 = _fourth_holomorphic(pot, p, x)
    conn = complex(np.dot(np.conj(b), np.linalg.solve(np.conj(g), b)))
    r = -q4 + conn
    return float(np.real(r)) / e**2


def distance_to_span(p: np.ndarray, basis: np.ndarray) -> float:
    """Euclidean distance from p to the complex span of the basis columns."""
    coef, *_ = np.linalg.lstsq(basis, p, rcond=None)
    return float(np.linalg.norm(p - basis @ coef))
