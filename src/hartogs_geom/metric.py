"""Kaehler metric, Christoffel symbols, geodesics and curvature from a potential.

Everything is computed from a potential handle: any object exposing
`n_coords` (complex dimension) and `derivatives(p, x)` (Phi, the metric and
the third-order terms contracted over every pair of columns of one direction
matrix x, from one evaluation, see `numerics.Derivatives`), plus
`__call__(coords)` on jet-valued coordinates for the order-4 curvature term
only.  Geodesics read their distance to the boundary from the same
evaluation: the margin is e^{-Phi}.
`HartogsPotential` and `DomainPotential` answer `derivatives` in closed
form; `FunctionPotential` answers it with jets.

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
    whose stage met a singular metric or an error estimate that is not finite."""


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


# Dormand-Prince 8(5,3) (DOP853; Hairer, Norsett & Wanner, Solving ODEs I,
# II.10): stage weights a[s], where the last row holds the eighth-order
# weights b, and the error weights E5 = b - b5 and E3 = b - b3 of the
# embedded fifth- and third-order solutions
_DP_A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
     4.45031289275240888144113950566, 1.89151789931450038304281599044,
     -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
     -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
     4.47106157277725905176885569043e-2),
)
_DP_E5 = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1, 0.0,
)
_DP_B3 = {0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
          11: 0.220588235294117647058823529412e-1}
_DP_E3 = (*(b - _DP_B3.get(i, 0.0) for i, b in enumerate(_DP_A[12])), 0.0)


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
    """Adaptive Dormand-Prince 8(5,3) integration of independent geodesics.

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
    `boundary_margin`, read as e^{-Phi} from its stage 13, evaluated there.
    Raises ValueError for T <= 0, or, naming the first such member, a zero
    initial velocity, a start point outside the domain or within the margin,
    or a start energy or acceleration that overflows (all read from the
    first rhs evaluation, on the stages' retry path), and IntegrationError,
    naming the member, when its step size underflows, its step budget runs
    out, a stage's metric is singular, or a step's error estimate is not
    finite (an overflowed stage, read once per step from the estimate).
    Overflow, division by zero and invalid values raise no RuntimeWarning
    anywhere in the integration: these checks are the finding.

    First same as last (FSAL): stage 13 is evaluated at the eighth-order
    solution (its weights a[12] are the eighth-order weights), so an
    accepted step takes that stage point as its result, the stage's rhs as
    the next step's stage 1, and its energy from the metric the same
    evaluation built.  Each attempted step costs twelve rhs evaluations.
    The error estimate combines the embedded fifth- and third-order
    solutions per component as h |e5|^2 / hypot(|e5|, 0.1 |e3|).
    """
    p0s = np.atleast_2d(np.asarray(p0s, dtype=np.complex128))
    v0s = np.atleast_2d(np.asarray(v0s, dtype=np.complex128))
    zero = np.flatnonzero(np.all(v0s == 0, axis=1))
    if zero.size:
        raise ValueError(f"initial velocity v0 of member {zero[0]} is zero")
    if not T > 0:
        raise ValueError("geodesic needs a positive end time T")

    # states and rhs are stacked as (2, members, n): positions, then
    # velocities, each a contiguous block for `_acceleration`
    y = np.stack([p0s, v0s])
    members = range(len(p0s))
    rhs_evals = [0] * len(p0s)
    rejected_steps = [0] * len(p0s)
    domain_retries = [0] * len(p0s)
    h = [min(0.01, T)] * len(p0s)

    def energy(g, v):
        return float(np.real(hermitian_inner(g, v, v)))

    def evaluate(ys, att):
        """The rhs at the stacked states ys of the members att.

        Returns the positions in att that it reached, their rhs, their
        metrics and their margins e^{-Phi}.  A member whose state leaves the
        domain is charged its evaluation and a retry, its step size shrinks,
        and the others are evaluated again; a singular stage metric raises
        IntegrationError naming its member.
        """
        live, rows = list(range(len(att))), ys
        while live:
            try:
                acc, g, phi = _acceleration(pot, rows[0], rows[1])
            except DomainViolation as exc:
                if exc.index is None and len(live) > 1:
                    raise
                j = att[live.pop(exc.index or 0)]
                rhs_evals[j] += 1
                domain_retries[j] += 1
                h[j] *= 0.25
                rows = ys[:, live]
                continue
            except np.linalg.LinAlgError:
                # the stacked solve names no member: the first that fails alone
                for pos in live:
                    try:
                        _acceleration(pot, rows[0, pos : pos + 1], rows[1, pos : pos + 1])
                    except np.linalg.LinAlgError:
                        raise IntegrationError(
                            f"geodesic of member {att[pos]} met a singular metric"
                        ) from None
                raise
            for pos in live:
                rhs_evals[att[pos]] += 1
            return live, np.stack([rows[1], acc]), g, np.exp(-phi)
        return live, None, None, None

    live, k1, g, margin = evaluate(y, list(members))
    near = np.ones(len(p0s), dtype=bool)  # outside the domain counts as near
    if live:
        near[live] = ~(margin >= boundary_margin)  # and so does NaN
    if near.any():
        raise ValueError(f"initial point of member {np.argmax(near)} is too close to the boundary")
    start = (v0s[:, None] @ g @ v0s.conj()[:, :, None])[:, 0, 0]
    huge = np.flatnonzero(~(np.isfinite(start) & np.isfinite(k1[1]).all(axis=1)))
    if huge.size:
        raise ValueError(
            f"initial velocity v0 of member {huge[0]} is too large: its energy or acceleration overflows"
        )

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
        y0, hs = y[:, att], np.array([h[j] for j in att])[:, None]
        k = [k1[:, att]]
        # the last pass leaves y8 at stage 13: the eighth-order solution
        for s in range(1, 13):
            y8 = y0 + hs * sum(c * k[m] for m, c in enumerate(_DP_A[s]) if c)
            live, ks, g, margin = evaluate(y8, att)
            if len(live) < len(att):
                # a trial stage overshot the boundary: those members retry
                att = [att[pos] for pos in live]
                y0, hs, y8 = y0[:, live], hs[live], y8[:, live]
                k = [km[:, live] for km in k]
                if not att:
                    break
            k.append(ks)
        if not att:
            continue
        e5, e3 = (np.abs(sum(c * km for c, km in zip(e, k) if c)) for e in (_DP_E5, _DP_E3))
        # a component that stays exactly 0 has e5 = e3 = 0 and no error
        den = np.hypot(e5, 0.1 * e3)
        scale = tol + tol * np.maximum(np.abs(y0), np.abs(y8))
        errs = (hs * e5**2 / np.where(den > 0, den, 1.0) / scale).max(axis=(0, 2))
        finite = np.isfinite(errs)
        if not finite.all():
            j = att[np.argmin(finite)]
            raise IntegrationError(f"geodesic of member {j} overflowed: its error estimate is not finite")
        for pos, j in enumerate(att):
            err = float(errs[pos])
            if err <= 1.0:
                # stage 13 was evaluated at the landing point y8
                if margin[pos] < boundary_margin:
                    status[j] = "boundary_reached"
                    done[j] = True
                    continue
                t[j] += h[j]
                y[:, j], k1[:, j] = y8[:, pos], k[12][:, pos]
                times[j].append(t[j])
                ys[j].append(y8[:, pos])
                energies[j].append(energy(g[pos], y8[1, pos]))
            else:
                rejected_steps[j] += 1
            h[j] *= min(max(0.9 * max(err, 1e-16) ** -0.125, 0.2), 5.0)

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
