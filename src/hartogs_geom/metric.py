"""Kaehler metric, Christoffel symbols, geodesics and curvature from a potential.

Everything is computed from a potential handle: any object exposing
`n_coords` (complex dimension) and `derivatives(p, x)` (Phi, the metric and
the third-order terms contracted over every pair of columns of one direction
matrix x, from one evaluation, see `numerics.Derivatives`), plus
`__call__(coords)` on jet-valued coordinates for the order-4 curvature term
only.  Geodesics read their distance to the boundary from the same
evaluation: the margin is e^{-Phi}.
`HartogsPotential` and `DomainPotential` answer `derivatives` in closed
form; `FunctionPotential` answers it with jets.  Geodesics step by Gauss-Legendre
collocation, whose stages share one stacked evaluation per fixed-point sweep.

Conventions.  The metric tensor is g_{i jbar} = d^2 Phi / dz_i dzbar_j with
no form factor; Christoffel symbols, geodesics and total geodesy are
invariant under constant rescaling of the potential, holomorphic sectional
curvature scales accordingly.  The fiber coordinate, where present, is the
last index.  Geodesics integrate the holomorphic second-order system
zddot^k + Gamma^k_ij zdot^i zdot^j = 0 valid for Kaehler metrics.
"""

from __future__ import annotations

import csv
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
    "IntegrationError",
]

BOUNDARY_MARGIN = 1e-7


class IntegrationError(RuntimeError):
    """A geodesic whose step size underflowed, whose step budget ran out, or
    whose sweep met a singular metric or an acceleration that is not finite."""


class FunctionPotential:
    """Ad-hoc potential handle from a plain callable Phi over jet coordinates;
    a geodesic reads its boundary margin e^{-Phi}, as on the closed forms."""

    def __init__(self, fn: Callable, n_coords: int):
        self._fn = fn
        self.n_coords = n_coords

    def __call__(self, coords):
        return self._fn(coords)

    def value(self, p) -> float:
        return float(self._fn(list(np.asarray(p, dtype=np.complex128))))

    def derivatives(self, p, x=None) -> Derivatives:
        """Derivatives of the callable through jets (see `Derivatives`).

        A stack of points (B, n) is evaluated point by point (`_point`) and
        stacked, and a point (n,) is the stack of one.  Raises
        DomainViolation, naming the first offending index, when the
        callable rejects a point.
        """
        p = np.asarray(p, dtype=np.complex128)
        if p.ndim == 1:
            return self.derivatives(p[None], x).member(0)
        parts = []
        for j, pj in enumerate(p):
            try:
                parts.append(self._point(pj, x if x is None or x.ndim == 2 else x[j]))
            except DomainViolation as exc:
                raise DomainViolation(str(exc), j) from exc

        def stack(name):
            vals = [getattr(d, name) for d in parts]
            return None if vals[0] is None else np.stack(vals)

        return Derivatives(
            stack("value"), stack("grad"), stack("levi"), x, stack("hess"), stack("third")
        )

    def _point(self, p, x) -> Derivatives:
        """Derivatives at one point p, with the unbatched shapes.

        Value, gradient and Levi form come from one order-2 jet; with a
        direction matrix x, hess and third from one mixed order-3 jet per
        column pair a <= b of x, mirrored to b < a.
        """
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
        hess = third = None
        if x is not None:
            k = x.shape[1]
            hess = np.empty((k, k), dtype=np.complex128)
            third = np.empty((k, k, n), dtype=np.complex128)
            for a in range(k):
                for b in range(a, k):
                    hess[a, b], third[a, b] = self._mixed(p, x[:, a], x[:, b])
                    hess[b, a], third[b, a] = hess[a, b], third[a, b]
        return Derivatives(f.value.real, grad, levi, x, hess, third)

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

    The work counters are deterministic: `rhs_evals` counts evaluated rows
    (one potential evaluation each), `sweeps` the stacked evaluations the
    member took part in, `rejected_steps` the steps refused by the error
    test, and `domain_retries` the steps retried because a row left the
    domain.
    """

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    energies: np.ndarray
    status: str  # "completed" | "boundary_reached"
    rhs_evals: int
    rejected_steps: int
    domain_retries: int
    sweeps: int

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
    return pot.derivatives(p, np.stack([x, y], -1)).third[0, 1]


def _directional_second(pot, p, x) -> np.ndarray:
    """D_l = d_s^2 dbar_l Phi(p + s x + delta): the geodesic contraction."""
    return pot.derivatives(p, np.asarray(x)[:, None]).third[0, 0]


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
    t = pot.derivatives(p, basis)
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


def _acceleration(pot, p, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The geodesic acceleration at (p, v), the metric g it solved with and Phi.

    p and v may be stacks (B, n); the results then carry the B axis.  One
    direction has no (a, b) pair to symmetrise, so `third` is read as it is.
    """
    t = pot.derivatives(p, v[..., None])
    g = _hermitian(t.levi)
    return -np.linalg.solve(np.conj(g), t.third[..., 0, 0, :, None])[..., 0], g, t.value


# s-stage Gauss-Legendre collocation (Butcher, Math. Comp. 18, 1964; Hairer,
# Lubich & Wanner, Geometric Numerical Integration, 2nd ed. 2006, II.1.3 and
# VIII.6): nodes c and weights b on [0, 1], and the stage matrix in the
# Legendre form a_ij = sum_k (2k+1) b_j P_k(c_j) int_0^{c_i} P_k, with P_k
# the Legendre polynomials shifted to [0, 1]
_STAGES = 8
_SWEEPS = 7  # sweeps per attempted step
_FIRST_STEP = 0.125  # the first step size, at most T
_CONTRACTION = 0.6  # the bound on h kappa, kappa = 2 |a|_g / |v|_g, at tol 1e-10


def _legendre(x, degree):
    """P_0 .. P_degree at the points x, one column each, by the three-term recurrence."""
    p = [np.ones_like(x), x]
    for k in range(1, degree):
        p.append(((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1))
    return np.stack(p, axis=-1)


# the roots of P_s by Newton's method from cos(pi (i - 1/4) / (s + 1/2)),
# with P_s' = s P_{s-1} / (1 - x^2) there; the weights are
# 2 (1 - x^2) / (s P_{s-1}(x))^2 on [-1, 1]
_x = np.cos(np.pi * (np.arange(_STAGES, 0, -1) - 0.25) / (_STAGES + 0.5))
for _ in range(6):
    _P = _legendre(_x, _STAGES)
    _x = _x - _P[:, -1] * (1 - _x**2) / (_STAGES * _P[:, -2])
_P = _legendre(_x, _STAGES)
_GL_C, _GL_B = (_x + 1) / 2, (1 - _x**2) / (_STAGES * _P[:, -2]) ** 2
# the Legendre coefficients (2k+1) sum_j b_j P_k(c_j) f_j of the polynomial
# through stage values f_j, one row per degree k (Gauss quadrature is exact)
_ODD = 2 * np.arange(_STAGES) + 1
_COEF = _ODD[:, None] * (_P[:, :-1] * _GL_B[:, None]).T
# int_0^{c_i} P_k = (P_{k+1} - P_{k-1})(x_i) / (2 (2k+1)), with P_{-1} = -1
_GL_A = (_P[:, 1:] - np.column_stack([-np.ones(_STAGES), _P[:, :-2]])) / (2 * _ODD) @ _COEF


def _stage_poly(x):
    """Weights on the stage values of their polynomial at the points x (in steps)."""
    return _legendre(2 * np.asarray(x) - 1, _STAGES - 1) @ _COEF


# Every sweep evaluates the s stage rows and the landing row (node 1, weights
# b): velocities from the rows of A, positions from those of A^2, the system
# being second order.  The last row of _SWEEP extrapolates the stage
# polynomial to node 1, for the gap at the landing row.
_ROW_C = np.append(_GL_C, 1.0)
_ROW_A = np.vstack([_GL_A, _GL_B])
_SWEEP = np.vstack([_ROW_A, _ROW_A @ _GL_A, _stage_poly(1.0)])


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


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # an overflow is the finding
def geodesic_batch(
    pot,
    p0s,
    v0s,
    T: float,
    tol: float = 1e-10,
    boundary_margin: float = BOUNDARY_MARGIN,
    max_steps: int = 100_000,
) -> list[GeodesicTrace]:
    """Adaptive 8-stage Gauss-Legendre collocation of independent geodesics.

    p0s and v0s are stacks (B, n); each member of the result takes exactly
    the steps, with the same floats, that it takes alone.  Every attempted
    step makes 7 fixed-point sweeps on the stage accelerations, from the last
    step's polynomial, extrapolated (the start acceleration for a first step
    of 0.125, at most T); each sweep is one stacked `_acceleration` over the
    stage rows and the landing row of every member still in the step.  A
    member retries at half the step when a row leaves the domain.  The error
    is the larger of the gap between the landing row's acceleration and the
    stage polynomial there, O(h^9) against tol (1 + |y|), and the last
    sweep's increment (landing-row metric, relative to the speed) against
    tol.  Above 1 it rejects the step; it sets the next one to
    0.9 err^(-1/9) times it, within [0.2, 4], and to at most
    0.6 (tol / 1e-10)^(1/7) / kappa, kappa = 2 |a|_g / |v|_g at the landing
    row.  A sweep contracts by about h kappa, so the fixed sweeps settle
    each step with room to spare, and the step count hangs far less on
    rounding in the evaluations than a count of sweeps that ends on a
    threshold would.  The landing row gives an accepted step its point,
    energy and margin e^{-Phi}; status "boundary_reached" stops a member
    whose step would land within `boundary_margin`.

    Raises ValueError for T <= 0, or, naming the first such member, a zero
    initial velocity, a start point outside the domain or within the margin,
    or a start energy or acceleration that overflows (all read from the
    start evaluation), and IntegrationError, naming the member, when its
    step size underflows, its step budget runs out, a sweep meets a singular
    metric, or a sweep's acceleration is not finite.  Overflow, division by
    zero and invalid values raise no RuntimeWarning anywhere in the
    integration: these checks are the finding.
    """
    p0s = np.atleast_2d(np.asarray(p0s, dtype=np.complex128))
    v0s = np.atleast_2d(np.asarray(v0s, dtype=np.complex128))
    zero = np.flatnonzero(np.all(v0s == 0, axis=1))
    if zero.size:
        raise ValueError(f"initial velocity v0 of member {zero[0]} is zero")
    if not T > 0:
        raise ValueError("geodesic needs a positive end time T")

    count, n = p0s.shape
    members = np.arange(count)
    rhs_evals, sweeps, rejected, retries = (np.zeros(count, dtype=int) for _ in range(4))
    h = np.full(count, min(_FIRST_STEP, T))

    def energy(g, v):
        return float(np.real(hermitian_inner(g, v, v)))

    def evaluate(att, rows_p, rows_v):
        """`_acceleration` over the rows (m, r, n) of the members att, without
        those with a row outside the domain (charged and retried) or raising
        IntegrationError for a singular metric: the positions reached, and
        their accelerations, metrics and Phi."""
        live, r = list(range(len(att))), rows_p.shape[1]
        while live:
            try:
                rows = (rows_p[live].reshape(-1, n), rows_v[live].reshape(-1, n))
                acc, g, phi = _acceleration(pot, *rows)
            except DomainViolation as exc:
                if exc.index is None and len(live) > 1:
                    raise
                j = att[live.pop((exc.index or 0) // r)]
                rhs_evals[j] += r
                sweeps[j] += 1
                retries[j] += 1
                h[j] *= 0.5
                continue
            except np.linalg.LinAlgError:
                # the stacked solve names no member: the first that fails alone
                for pos in live:
                    try:
                        _acceleration(pot, rows_p[pos], rows_v[pos])
                    except np.linalg.LinAlgError:
                        raise IntegrationError(
                            f"geodesic of member {att[pos]} met a singular metric"
                        ) from None
                raise
            rhs_evals[att[live]] += r
            sweeps[att[live]] += 1
            m = len(live)
            return live, acc.reshape(m, r, n), g.reshape(m, r, n, n), phi.reshape(m, r)
        return live, None, None, None

    live, acc, g, phi = evaluate(members, p0s[:, None], v0s[:, None])
    near = np.ones(count, dtype=bool)  # outside the domain counts as near
    if live:
        near[live] = ~(np.exp(-phi[:, 0]) >= boundary_margin)  # and so does NaN
    if near.any():
        raise ValueError(f"initial point of member {np.argmax(near)} is too close to the boundary")
    start = np.array([energy(g[j, 0], v0s[j]) for j in members])
    huge = np.flatnonzero(~(np.isfinite(start) & np.isfinite(acc).all(axis=(1, 2))))
    if huge.size:
        raise ValueError(
            f"initial velocity v0 of member {huge[0]} is too large: its energy or acceleration overflows"
        )

    # the sweeps shrink the predictor's error by about (h kappa)^7, and they
    # need to shrink it below tol
    reach = _CONTRACTION * (tol / 1e-10) ** (1 / _SWEEPS)
    y = np.stack([p0s, v0s])
    poly = np.repeat(acc, _STAGES, axis=1)  # the stage accelerations of the last accepted step
    h_poly = h.copy()
    t = np.zeros(count)
    times, energies = [[0.0] for _ in members], [[e] for e in start]
    ys = [[y[:, j].copy()] for j in members]
    status = ["completed"] * count
    done = [False] * count
    steps = [0] * count
    while True:
        att = []
        for j in members:
            if done[j]:
                continue
            if steps[j] == max_steps:
                raise IntegrationError(f"geodesic of member {j} exceeded the step budget")
            steps[j] += 1
            if t[j] >= T:
                done[j] = True
                continue
            h[j] = min(h[j], T - t[j])
            if h[j] < 1e-14 * max(1.0, T):
                raise IntegrationError(f"geodesic of member {j}: step size underflow")
            att.append(j)
        if not att:
            break
        att = np.array(att)
        y0, hs, speed = y[:, att], h[att], np.sqrt(start[att])
        k = _stage_poly(1.0 + (hs / h_poly[att])[:, None] * _GL_C) @ poly[att]
        base_p = y0[0, :, None] + hs[:, None, None] * _ROW_C[:, None] * y0[1, :, None]
        sweeping = np.arange(len(att))
        for _ in range(_SWEEPS):
            ks, hc = k[sweeping], hs[sweeping, None, None]
            mix = _SWEEP @ ks
            rows_v = y0[1, sweeping, None] + hc * mix[:, : _STAGES + 1]
            rows_p = base_p[sweeping] + hc**2 * mix[:, _STAGES + 1 : -1]
            live, acc, g, phi = evaluate(att[sweeping], rows_p, rows_v)
            sweeping, ks, mix = sweeping[live], ks[live], mix[live]
            if not live:
                break
            bad = ~np.isfinite(acc).all(axis=(1, 2))
            if bad.any():
                j = att[sweeping[np.argmax(bad)]]
                raise IntegrationError(f"geodesic of member {j} overflowed: a sweep is not finite")
            k[sweeping] = acc[:, :_STAGES]
        if not sweeping.size:
            continue
        # the landing rows, built from the iterate the last sweep started
        # from, and the gap there against tol (1 + |y|): h gap, h^2 gap / 2
        hl = hs[sweeping]
        y1 = np.stack([rows_p[live][:, _STAGES], rows_v[live][:, _STAGES]])
        scale = 1.0 + np.maximum(np.abs(y0[:, sweeping]), np.abs(y1))
        gap = hl[:, None] * np.abs(acc[:, _STAGES] - mix[:, -1]) / tol
        errs = (gap * np.maximum(1.0 / scale[1], 0.5 * hl[:, None] / scale[0])).max(axis=1)
        # the error is also the last increment, as a change h dk, h^2 dk / 2 of
        # the landing point, in the landing row's metric relative to the speed
        dk = acc[:, :_STAGES] - ks
        size = np.sqrt(np.maximum(((dk @ g[:, _STAGES]) * dk.conj()).sum(-1).real, 0)).max(1)
        errs = np.fmax(errs, size * np.maximum(hl / speed[sweeping], 0.5 * hl**2) / tol)
        for i, j in enumerate(att[sweeping]):
            err = float(errs[i])
            fac = min(max(0.9 * max(err, 1e-16) ** (-1 / (_STAGES + 1)), 0.2), 4.0)
            if err > 1.0:
                rejected[j] += 1
            elif not np.exp(-phi[i, _STAGES]) >= boundary_margin:
                status[j], done[j] = "boundary_reached", True
                continue
            else:
                t[j] += h[j]
                y[:, j], poly[j], h_poly[j] = y1[:, i], acc[i, :_STAGES], h[j]
                times[j].append(t[j])
                ys[j].append(y1[:, i])
                energies[j].append(energy(g[i, _STAGES], y1[1, i]))
                kappa = 2 * np.sqrt(energy(g[i, _STAGES], acc[i, _STAGES]) / start[j])
                fac = min(fac, reach / (h[j] * kappa))
            h[j] *= fac

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
                rhs_evals=int(rhs_evals[j]),
                rejected_steps=int(rejected[j]),
                domain_retries=int(retries[j]),
                sweeps=int(sweeps[j]),
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
    array (B,) is returned): one `embed`, one `tangent_basis` and one
    derivative evaluation, and stacked solves, serve the whole stack, with
    each point's own tangent basis, and every point gets the floats it gets
    alone.  A degenerate tangent basis raises ValueError naming the first
    such sample of the stack.
    """
    q = np.asarray(q)
    qs = q[None] if q.ndim == 1 else q
    p = chart.embed(qs)
    t_basis = np.asarray(chart.tangent_basis(qs), dtype=np.complex128)
    kdim = t_basis.shape[-1]
    sv = np.linalg.svd(t_basis, compute_uv=False)
    degenerate = sv[:, -1] < 1e-10 * np.maximum(1.0, sv[:, 0])
    if degenerate.any():
        raise ValueError(f"degenerate chart tangent basis at sample {np.argmax(degenerate)}")
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
    t = pot.derivatives(p, x[:, None])
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
