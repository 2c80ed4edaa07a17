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
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .jets import jet_space, jet_variable, wirtinger
from .numerics import Derivatives, DomainViolation, _t

__all__ = [
    "MetricData",
    "Christoffel",
    "GeodesicTrace",
    "FunctionPotential",
    "metric_at",
    "christoffel_at",
    "geodesic_ivp",
    "geodesic_batch",
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

        Value, gradient and Levi form come from one order-2 jet, built when
        first read (`_directional_mixed` reads only `third`); hess and third
        from one mixed order-3 jet per column pair (x[:, a], y[:, b]).  A
        stack of points (B, n) is evaluated point by point and stacked.
        """
        p = np.asarray(p, dtype=np.complex128)
        if p.ndim == 2:
            return self._stacked(p, x, y)
        if x is None:
            return self._order2(p)
        hess = np.empty((x.shape[1], y.shape[1]), dtype=np.complex128)
        third = np.empty((x.shape[1], y.shape[1], self.n_coords), dtype=np.complex128)
        for a in range(x.shape[1]):
            for b in range(y.shape[1]):
                if y is x and b < a:  # symmetric in (a, b): reuse the pair (b, a)
                    hess[a, b], third[a, b] = hess[b, a], third[b, a]
                else:
                    hess[a, b], third[a, b] = self._mixed(p, x[:, a], y[:, b])
        return _JetDerivatives(lambda: self._order2(p), x, y, hess, third)

    def _order2(self, p) -> Derivatives:
        """Value, gradient and Levi form from one order-2 jet."""
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
        return Derivatives(f.value.real, grad, levi)

    def _stacked(self, p, x, y) -> Derivatives:
        parts = []
        for j, pj in enumerate(p):
            xj, yj = (d if d is None or d.ndim == 2 else d[j] for d in (x, y))
            try:
                parts.append(self.derivatives(pj, xj, yj))
            except DomainViolation as exc:
                raise DomainViolation(str(exc), j) from exc

        def stack(name):
            return None if x is None else np.stack([getattr(d, name) for d in parts])

        return Derivatives(
            np.array([d.value for d in parts]),
            np.stack([d.grad for d in parts]),
            np.stack([d.levi for d in parts]),
            x,
            y,
            stack("hess"),
            stack("third"),
        )

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


class _JetDerivatives(Derivatives):
    """`Derivatives` whose value, gradient and Levi form come from `order2()`
    on first read; hess and third are given."""

    def __init__(self, order2: Callable, x, y, hess, third):
        for name, v in (("_order2", order2), ("x", x), ("y", y), ("hess", hess), ("third", third)):
            object.__setattr__(self, name, v)

    @functools.cached_property
    def _low(self) -> Derivatives:
        return self._order2()

    value = property(lambda self: self._low.value)
    grad = property(lambda self: self._low.grad)
    levi = property(lambda self: self._low.levi)


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
    return 0.5 * (g + _t(g.conj()))


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
    """The metric and third[a, b, l] = Phi_{i j lbar} basis[i, a] basis[j, b].

    p and basis may be stacks (B, n) and (B, n, k); the results then carry
    the leading B axis.
    """
    t = pot.derivatives(p, basis, basis)
    # rounding in the closed form breaks the exact (a, b) symmetry
    return _hermitian(t.levi), 0.5 * (t.third + np.swapaxes(t.third, -3, -2))


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
    """The geodesic acceleration at (p, v) and the metric g it solved with.

    p and v may be stacks (B, n); the results then carry the B axis.
    """
    g, d = _metric_and_third(pot, p, v[..., None])
    return -np.linalg.solve(np.conj(g), d[..., 0, 0, :, None])[..., 0], g


# Dormand-Prince 5(4): stage weights a[s] and the fourth-order weights
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def geodesic_ivp(
    pot,
    p0,
    v0,
    T: float,
    tol: float = 1e-10,
    boundary_margin: float = BOUNDARY_MARGIN,
    max_steps: int = 100_000,
) -> GeodesicTrace:
    """One geodesic: `geodesic_batch` of a single member (see there)."""
    return geodesic_batch(pot, [p0], [v0], T, tol, boundary_margin, max_steps)[0]


def geodesic_batch(
    pot,
    p0s,
    v0s,
    T: float,
    tol: float = 1e-10,
    boundary_margin: float = BOUNDARY_MARGIN,
    max_steps: int = 100_000,
) -> list[GeodesicTrace]:
    """Adaptive Dormand-Prince 5(4) integration of independent geodesics.

    p0s and v0s are stacks (B, n) of initial points and velocities; the
    result holds one trace per member.  Each member keeps its own time, step
    size, accept/reject decisions, status, FSAL stage, energies and
    counters, so it takes exactly the steps, with the same floats, that it
    takes alone.  Every stage evaluates the right-hand side once for all
    members still integrating; a member whose trial stage leaves the domain
    retries its own step at a quarter of the step size, and the stage is
    evaluated again for the others.

    Returns the accepted steps; a member stops early with status
    "boundary_reached" when a step would land closer to the boundary than
    `boundary_margin`.  Raises ValueError for T <= 0, a zero initial
    velocity or a start point within the margin, and RuntimeError when any
    member's step size underflows or its step budget runs out.

    First same as last (FSAL): stage 7 is evaluated at the fifth-order
    solution (its weights a[6] are the fifth-order weights), so an accepted
    step takes that stage point as its result, the stage's rhs as the next
    step's stage 1, and its energy from the metric the same evaluation
    built.  Each attempted step costs six rhs evaluations.
    """
    p0s = np.atleast_2d(np.asarray(p0s, dtype=np.complex128))
    v0s = np.atleast_2d(np.asarray(v0s, dtype=np.complex128))
    if np.any(np.all(v0s == 0, axis=1)):
        raise ValueError("geodesic needs a nonzero initial velocity")
    if not T > 0:
        raise ValueError("geodesic needs a positive end time T")
    if any(pot.interior_margin(p) < boundary_margin for p in p0s):
        raise ValueError("initial point is too close to the boundary")

    members = range(len(p0s))
    rhs_evals = [1] * len(p0s)
    rejected_steps = [0] * len(p0s)
    domain_retries = [0] * len(p0s)
    h = [min(0.01, T)] * len(p0s)

    def energy(g, v):
        return float(np.real(hermitian_inner(g, v, v)))

    def evaluate(ys, att):
        """The rhs at the stacked states ys of the members att.

        Returns the positions in att that it reached, their rhs and their
        metrics.  A member whose state leaves the domain is charged its
        evaluation and a retry, its step size shrinks, and the others are
        evaluated again.
        """
        live, rows = list(range(len(att))), ys
        while live:
            try:
                acc, g = _acceleration(pot, rows[0], rows[1])
            except DomainViolation as exc:
                if exc.index is None and len(live) > 1:
                    raise
                j = att[live.pop(exc.index or 0)]
                rhs_evals[j] += 1
                domain_retries[j] += 1
                h[j] *= 0.25
                rows = ys[:, live]
                continue
            for pos in live:
                rhs_evals[att[pos]] += 1
            return live, np.stack([rows[1], acc]), g
        return live, None, None

    # states and rhs are stacked as (2, members, n): positions, then
    # velocities, each a contiguous block for `_acceleration`
    y = np.stack([p0s, v0s])
    acc, g = _acceleration(pot, y[0], y[1])
    k1 = np.stack([y[1], acc])
    t = [0.0] * len(p0s)
    times = [[0.0] for _ in members]
    ys = [[y[:, j].copy()] for j in members]
    energies = [[energy(g[j], y[1, j])] for j in members]
    status = ["completed"] * len(p0s)
    done = [False] * len(p0s)
    steps = [0] * len(p0s)
    while True:
        att = []
        for j in members:
            if done[j]:
                continue
            if steps[j] == max_steps:
                raise RuntimeError("geodesic exceeded the step budget")
            steps[j] += 1
            if t[j] >= T:
                done[j] = True
                continue
            h[j] = min(h[j], T - t[j])
            if h[j] < 1e-14 * max(1.0, T):
                raise RuntimeError("geodesic step size underflow")
            att.append(j)
        if not att:
            break
        y0, hs = y[:, att], np.array([h[j] for j in att])[:, None]
        k = [k1[:, att]]
        # the last pass leaves y5 at stage 7: the fifth-order solution
        for s in range(1, 7):
            y5 = y0 + hs * sum(c * k[m] for m, c in enumerate(_DP_A[s]))
            live, ks, g = evaluate(y5, att)
            if len(live) < len(att):
                # a trial stage overshot the boundary: those members retry
                att = [att[pos] for pos in live]
                y0, hs, y5 = y0[:, live], hs[live], y5[:, live]
                k = [km[:, live] for km in k]
                if not att:
                    break
            k.append(ks)
        if not att:
            continue
        y4 = y0 + hs * (_DP_B4 @ np.stack(k, axis=-2))
        scale = tol + tol * np.maximum(np.abs(y0), np.abs(y5))
        errs = (np.abs(y5 - y4) / scale).max(axis=(0, 2))
        for pos, j in enumerate(att):
            err = float(errs[pos])
            if err <= 1.0:
                if pot.interior_margin(y5[0, pos]) < boundary_margin:
                    status[j] = "boundary_reached"
                    done[j] = True
                    continue
                t[j] += h[j]
                y[:, j], k1[:, j] = y5[:, pos], k[6][:, pos]
                times[j].append(t[j])
                ys[j].append(y5[:, pos])
                energies[j].append(energy(g[pos], y5[1, pos]))
            else:
                rejected_steps[j] += 1
            h[j] *= min(max(0.9 * max(err, 1e-16) ** -0.2, 0.2), 5.0)

    traces = []
    for j in members:
        path = np.array(ys[j])
        traces.append(
            GeodesicTrace(
                times=np.array(times[j]),
                positions=path[:, 0],
                velocities=path[:, 1],
                energies=np.array(energies[j]),
                status=status[j],
                rhs_evals=rhs_evals[j],
                rejected_steps=rejected_steps[j],
                domain_retries=domain_retries[j],
            )
        )
    return traces


def tg_residual(pot, chart, q):
    """Second-fundamental-form residual of a chart at a parameter point.

    For every pair (X, Y) of chart tangent vectors, the connection vector
    Gamma(X, Y)^k = g^{k lbar} Phi_{i j lbar} X^i Y^j is projected onto the
    g-orthogonal complement of the tangent space; the maximum norm of that
    normal component is returned.  Zero (to tolerance) iff the chart is
    totally geodesic at the point.

    q is one parameter point (a float is returned) or a stack (B, k) (an
    array (B,) is returned): one derivative evaluation and stacked solves
    serve the whole stack, with each point's own tangent basis, and every
    point gets the floats it gets alone.
    """
    q = np.asarray(q)
    qs = q[None] if q.ndim == 1 else q
    p = np.stack([chart.embed(qj) for qj in qs])
    t_basis = np.stack([np.asarray(chart.tangent_basis(qj), dtype=np.complex128) for qj in qs])
    kdim = t_basis.shape[-1]
    sv = np.linalg.svd(t_basis, compute_uv=False)
    if np.any(sv[:, -1] < 1e-10 * np.maximum(1.0, sv[:, 0])):
        raise ValueError("degenerate chart tangent basis")
    g, third = _metric_and_third(pot, p, t_basis)
    gram = _t(t_basis) @ g @ np.conj(t_basis)
    rows, cols = np.triu_indices(kdim)
    # one column per tangent pair (X, Y): v = Gamma(X, Y)
    v = np.linalg.solve(np.conj(g), _t(third[:, rows, cols]))
    # normal equations of the g-orthogonal projection onto the span
    coef = np.linalg.solve(np.conj(gram), _t(_t(v) @ g @ np.conj(t_basis)))
    resid = v - t_basis @ coef
    norm2 = np.real(np.sum(resid * (g @ np.conj(resid)), axis=-2))
    out = np.sqrt(np.maximum(np.max(norm2, axis=-1), 0.0))
    return float(out[0]) if q.ndim == 1 else out


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


def distance_to_span(p, basis: np.ndarray):
    """Euclidean distance from p to the complex span of the basis columns.

    p is one point (n,), giving a float, or a stack (m, n), giving one
    distance per row from a single least-squares solve.
    """
    p = np.asarray(p)
    cols = (p[None] if p.ndim == 1 else p).T
    coef, *_ = np.linalg.lstsq(basis, cols, rcond=None)
    dist = np.linalg.norm(cols - basis @ coef, axis=0)
    return float(dist[0]) if p.ndim == 1 else dist
