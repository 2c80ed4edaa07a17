"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; the suite exercises the public operations
end to end at desk scale... run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import time
import zlib

import numpy as np
import pytest

from hartogs_geom.domains import DomainSpec, LinearEmbedding, polydisk_embedding
from hartogs_geom.hartogs import (
    HartogsPotential,
    HartogsSpec,
    h_contains,
    h_sample,
    lift_automorphism_polydisk,
    potential,
    slice_chart,
)
from hartogs_geom.l2embed import (
    GeodesicClass,
    Truncation,
    line_constraints,
    line_deviation,
    norm_residual,
    series_residual,
)
from hartogs_geom.metric import (
    _directional_mixed,
    _metric_matrix,
    distance_to_span,
    geodesic_ivp,
    hermitian_inner,
    sectional_curvature,
    tg_residual,
)

from _oracles import metric_fd


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _criterion1_specs():
    specs = []
    for m in range(1, 4):
        for n in range(m, 5):
            specs.append(DomainSpec.type_i(m, n))
    specs += [DomainSpec.type_ii(n) for n in range(2, 7)]
    specs += [DomainSpec.type_iii(m) for m in range(1, 4)]
    specs += [DomainSpec.type_iv(n) for n in (5, 6, 7)]
    return specs


def test_criterion_1_kahler_immersion_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for spec in _criterion1_specs():
        emb = polydisk_embedding(spec)
        r = spec.rank
        for mu in (0.5, 1.0, 2.0):
            h_poly = HartogsSpec(DomainSpec.polydisk(r), mu)
            amb_pot = HartogsPotential(HartogsSpec(spec, mu))
            poly_pot = HartogsPotential(h_poly)
            rng = np.random.default_rng(zlib.crc32(repr((spec.kind, spec.params, mu)).encode()))
            for _ in range(1000):
                zr = 0.9 * np.sqrt(rng.random(r)) * np.exp(2j * np.pi * rng.random(r))
                nmu = float(np.prod(1.0 - np.abs(zr) ** 2)) ** mu
                w = np.sqrt(nmu) * 0.9 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
                p = np.append(zr, w)
                img = np.append(emb(zr), w)
                worst = max(worst, abs(amb_pot.value(img) - poly_pot.value(p)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 30.0
    _report(
        "criterion-1 Kahler-immersion identities",
        ok,
        f"max |pullback gap| = {worst:.3e} (tol 1e-12), runtime {elapsed:.1f}s (< 30s)",
    )


TG_CASES = [
    (DomainSpec.type_i(2, 3), 1.5),
    (DomainSpec.type_ii(6), 0.7),
    (DomainSpec.type_iii(3), 2.0),
    (DomainSpec.type_iv(6), 1.1),
]


def _tg_and_confinement(chart, pot, n_points, seed0):
    worst_resid = 0.0
    for seed in range(n_points):
        q = chart.sample(0.7, seed0 + seed)
        worst_resid = max(worst_resid, tg_residual(pot, chart, q))
    basis = chart.tangent_basis(np.zeros(chart.n_params))
    rng = np.random.default_rng(seed0)
    worst_dev = 0.0
    for i in range(5):
        q = chart.sample(0.4, seed0 + 500 + i)
        p0 = chart.embed(q)
        v0 = basis @ (rng.normal(size=basis.shape[1]) + 1j * rng.normal(size=basis.shape[1]))
        g = _metric_matrix(pot, p0)
        v0 = v0 / np.sqrt(np.real(hermitian_inner(g, v0, v0))) * 0.4
        trace = geodesic_ivp(pot, p0, v0, 1.0, tol=1e-9)
        assert trace.status == "completed"
        worst_dev = max(worst_dev, max(distance_to_span(p, basis) for p in trace.positions))
    return worst_resid, worst_dev


def test_criterion_2_totally_geodesic_slices():
    t0 = time.perf_counter()
    worst_resid = worst_dev = 0.0
    for spec, mu in TG_CASES:
        hs = HartogsSpec(spec, mu)
        pot = HartogsPotential(hs)
        chart = slice_chart(hs, polydisk_embedding(spec))
        resid, dev = _tg_and_confinement(chart, pot, 100, 11)
        worst_resid = max(worst_resid, resid)
        worst_dev = max(worst_dev, dev)
    elapsed = time.perf_counter() - t0
    ok = worst_resid < 1e-9 and worst_dev < 1e-6 and elapsed < 120.0
    _report(
        "criterion-2 totally geodesic polydisk slices",
        ok,
        f"max residual = {worst_resid:.3e} (tol 1e-9), max confinement deviation = "
        f"{worst_dev:.3e} (tol 1e-6), runtime {elapsed:.1f}s (< 120s)",
    )


def test_criterion_3_factor_and_diagonal_slices():
    results = []
    base3 = DomainSpec.polydisk(3)
    hs3 = HartogsSpec(base3, 1.3)
    mat = np.zeros((3, 1), dtype=complex)
    mat[0, 0] = 1.0
    factor = slice_chart(hs3, LinearEmbedding(DomainSpec.polydisk(1), base3, mat))
    results.append(_tg_and_confinement(factor, HartogsPotential(hs3), 100, 23))

    base2 = DomainSpec.polydisk(2)
    hs2 = HartogsSpec(base2, 0.8)
    diag = slice_chart(
        hs2, LinearEmbedding(DomainSpec.polydisk(1), base2, np.ones((2, 1), dtype=complex))
    )
    results.append(_tg_and_confinement(diag, HartogsPotential(hs2), 100, 29))

    worst_resid = max(r for r, _ in results)
    worst_dev = max(d for _, d in results)
    ok = worst_resid < 1e-9 and worst_dev < 1e-6
    _report(
        "criterion-3 factor and diagonal slices",
        ok,
        f"max residual = {worst_resid:.3e} (tol 1e-9), max confinement deviation = "
        f"{worst_dev:.3e} (tol 1e-6)",
    )


def test_criterion_4_automorphism_lifts():
    mu = 1.3
    spec = HartogsSpec(DomainSpec.polydisk(2), mu)
    pot = HartogsPotential(spec)
    lift = lift_automorphism_polydisk([0.4, -0.25 + 0.1j], [0.8, -0.3], mu)

    rng = np.random.default_rng(0)
    inside = 0
    for i in range(10_000):
        z = 0.999 * np.sqrt(rng.random(2)) * np.exp(2j * np.pi * rng.random(2))
        nmu = float(np.prod(1 - np.abs(z) ** 2)) ** mu
        w = np.sqrt(nmu) * 0.999 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        p = np.append(z, w)
        inside += h_contains(spec, lift(p), 0.0)
    membership_ok = inside == 10_000

    rot = lift_automorphism_polydisk([0.0, 0.0], [0.9, -1.7], mu)
    worst_pull = 0.0
    for seed in range(100):
        p = h_sample(spec, 0.8, seed)
        for f in (lift, rot):
            jac = f.jacobian(p)
            pulled = jac.T @ _metric_matrix(pot, f(p)) @ np.conj(jac)
            worst_pull = max(worst_pull, float(np.max(np.abs(pulled - _metric_matrix(pot, p)))))

    # origin-fixing rotations leave the potential invariant to rounding
    worst_rot = 0.0
    for seed in range(100):
        p = h_sample(spec, 0.9, seed)
        worst_rot = max(worst_rot, abs(pot.value(rot(p)) - pot.value(p)))
        worst_rot = max(worst_rot, float(np.max(np.abs(rot.inverse()(rot(p)) - p))))

    ok = membership_ok and worst_pull < 1e-9 and worst_rot < 1e-13
    _report(
        "criterion-4 automorphism lifts",
        ok,
        f"membership {inside}/10000, metric pullback gap = {worst_pull:.3e} (tol 1e-9), "
        f"rotation gap = {worst_rot:.3e} (tol 1e-13)",
    )


def test_criterion_5_metric_engine_self_consistency():
    spec = DomainSpec.type_i(2, 2)
    hs = HartogsSpec(spec, 1.3)
    pot = HartogsPotential(hs)
    n = pot.n_coords

    worst_fd = 0.0
    for seed in range(5):
        p = h_sample(hs, 0.55, seed)
        worst_fd = max(worst_fd, float(np.max(np.abs(_metric_matrix(pot, p) - metric_fd(pot, p)))))

    # symmetry from independent evaluations with swapped direction order
    p = h_sample(hs, 0.6, 7)
    eye = np.eye(n)
    worst_sym = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            d_ij = _directional_mixed(pot, p, eye[i], eye[j])
            d_ji = _directional_mixed(pot, p, eye[j], eye[i])
            worst_sym = max(worst_sym, float(np.max(np.abs(d_ij - d_ji))))

    p0 = h_sample(hs, 0.5, 3)
    rng = np.random.default_rng(4)
    v0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    g = _metric_matrix(pot, p0)
    v0 = v0 / np.sqrt(np.real(hermitian_inner(g, v0, v0))) * 0.5
    trace = geodesic_ivp(pot, p0, v0, 1.0, tol=1e-10)
    drift = trace.energy_drift()

    ok = worst_fd < 1e-7 and worst_sym < 1e-12 and drift < 1e-8
    _report(
        "criterion-5 metric engine self-consistency",
        ok,
        f"jet-vs-FD gap = {worst_fd:.3e} (tol 1e-7), symmetry gap = {worst_sym:.3e} "
        f"(tol 1e-12), energy drift = {drift:.3e} (tol 1e-8)",
    )


def test_criterion_6_complex_hyperbolic_identification():
    pot = HartogsPotential(HartogsSpec(DomainSpec.polydisk(1), 1.0))
    rng = np.random.default_rng(21)
    vals = []
    for seed in range(200):
        p = h_sample(pot.spec, 0.75, seed)
        x = rng.normal(size=2) + 1j * rng.normal(size=2)
        vals.append(sectional_curvature(pot, p, x))
    spread = max(vals) - min(vals)
    ok = spread < 1e-6
    _report(
        "criterion-6 complex hyperbolic space form",
        ok,
        f"holomorphic sectional curvature spread = {spread:.3e} (tol 1e-6), "
        f"value ~ {np.mean(vals):.12f}",
    )


def test_criterion_7_l2_embedding_residuals():
    # fiber ratio |w|^2 / N^mu stays below ~0.6 on these cells, the regime
    # where the geometric tail bound applies
    cells = [
        (1, 0.5, [0.5], 0.5),
        (1, 1.0, [0.5], 0.5),
        (1, 2.0, [0.45], 0.5),
        (1, 3.0, [0.5], 0.5),
        (2, 0.5, [0.5, 0.5], 0.5),
        (2, 1.0, [0.5, -0.5j], 0.45),
        (3, 0.5, [0.4, 0.3, 0.5], 0.5),
    ]
    worst = 0.0
    for r, mu, z, w in cells:
        p = np.append(np.asarray(z, dtype=complex), w)
        worst = max(worst, norm_residual(r, mu, p, Truncation(60, 60)))
    bound_ok = worst < 1e-10

    p = np.array([0.5, 0.5])
    table = [norm_residual(1, 3.0, p, Truncation(k, k)) for k in (10, 20, 40, 60)]
    strict_ok = all(b < a for a, b in zip(table, table[1:]))
    ok = bound_ok and strict_ok
    _report(
        "criterion-7 l2 embedding residual",
        ok,
        f"max residual at 60 = {worst:.3e} (tol 1e-10), "
        f"table {['%.3e' % v for v in table]} strictly decreasing = {strict_ok}",
    )


def _grid_direction(kind: str, r: int) -> np.ndarray:
    xi = np.zeros(r + 1, dtype=complex)
    if kind == "pure-base":
        xi[0] = 1.0
    elif kind == "pure-fiber":
        xi[r] = 1.0
    elif kind == "mixed-equal":
        xi[:] = 1.0
    else:  # mixed-unequal
        xi[:r] = 1.0 + np.arange(r)
        xi[r] = 2.0
    return xi / np.linalg.norm(xi)


def _expected_class(kind: str, r: int, mu: float) -> GeodesicClass:
    # honest classification: the mixed branch needs equal base moduli with
    # r * mu = 1 (the direction is then tangent to a diagonal CH^2 slice);
    # see the decisions ledger for the corrected fifth-order comparison
    if kind == "pure-base":
        return GeodesicClass.IN_BASE
    if kind == "pure-fiber":
        return GeodesicClass.IN_FIBER
    if kind == "mixed-equal":
        return (
            GeodesicClass.HYPERBOLIC_SPACE
            if abs(r * mu - 1.0) < 1e-12
            else GeodesicClass.IMPOSSIBLE
        )
    if r == 1:  # single base component: moduli are trivially equal
        return (
            GeodesicClass.HYPERBOLIC_SPACE if abs(mu - 1.0) < 1e-12 else GeodesicClass.IMPOSSIBLE
        )
    return GeodesicClass.IMPOSSIBLE


def test_criterion_8_linear_support_classification():
    t0 = time.perf_counter()
    failures = []
    for mu in (0.5, 1.0, 2.0, 3.0):
        for r in (1, 2, 3):
            for kind in ("pure-base", "pure-fiber", "mixed-equal", "mixed-unequal"):
                xi = _grid_direction(kind, r)
                verdict = line_constraints(r, mu, xi)
                dev = line_deviation(r, mu, xi, 0.5)
                want = _expected_class(kind, r, mu)
                if verdict.klass != want:
                    failures.append(f"{kind} mu={mu} r={r}: {verdict.klass} != {want}")
                if verdict.klass == GeodesicClass.IMPOSSIBLE:
                    if dev <= 1e-5:
                        failures.append(f"{kind} mu={mu} r={r}: impossible but dev={dev:.2e}")
                elif dev >= 1e-6:
                    failures.append(f"{kind} mu={mu} r={r}: {verdict.klass} but dev={dev:.2e}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 180.0
    _report(
        "criterion-8 linear-support classification",
        ok,
        f"48 grid cells verdict+deviation consistent, runtime {elapsed:.1f}s (< 180s)"
        + ("" if not failures else f"; failures: {failures}"),
    )


def test_criterion_9_series_residual_oracle():
    xi = np.array([0.55, 0.35j, 0.6])
    r, mu = 2, 1.4
    a2 = np.abs(xi) ** 2
    worst = 0.0

    # order 0: residuals proportional to v''(0)
    c2 = 0.31
    got = series_residual(r, mu, xi, [0, 1, c2, 0, 0, 0], 0)
    want = 2 * c2 * np.array([mu * np.conj(xi[0]), mu * np.conj(xi[1]), np.conj(xi[2])])
    worst = max(worst, float(np.max(np.abs(got - want))))

    # order 1: the third-derivative closed forms
    v3 = -0.8
    got = series_residual(r, mu, xi, [0, 1, 0, v3 / 6, 0, 0], 1)
    s = a2[0] + a2[1]
    want = np.array(
        [
            mu * np.conj(xi[0]) * (v3 + 2 * a2[0] + 2 * a2[2]),
            mu * np.conj(xi[1]) * (v3 + 2 * a2[1] + 2 * a2[2]),
            np.conj(xi[2]) * (v3 + 2 * a2[2] + 2 * mu * s),
        ]
    )
    worst = max(worst, float(np.max(np.abs(got - want))))

    # order 3: fifth-order brackets built on [(v^2)''v]'''(0) = 26 v'''(0)
    # and [(v^3)''v^2]'''(0) = 36
    c3, c5 = -0.21, 0.037
    v3, v5 = 6 * c3, 120 * c5
    got = series_residual(r, mu, xi, [0, 1, 0, c3, 0, c5], 3)
    quad = (
        mu * (mu + 1) / 2 * (a2[0] ** 2 + a2[1] ** 2) + mu**2 * a2[0] * a2[1]
    )
    want = np.array(
        [
            mu
            * np.conj(xi[0])
            * (
                v5
                + 26 * v3 * (a2[0] + a2[2])
                + 36 * (a2[0] ** 2 + (mu + 1) * a2[0] * a2[2] + mu * a2[1] * a2[2] + a2[2] ** 2)
            ),
            mu
            * np.conj(xi[1])
            * (
                v5
                + 26 * v3 * (a2[1] + a2[2])
                + 36 * (a2[1] ** 2 + (mu + 1) * a2[1] * a2[2] + mu * a2[0] * a2[2] + a2[2] ** 2)
            ),
            np.conj(xi[2])
            * (v5 + 26 * v3 * (mu * s + a2[2]) + 36 * (quad + 2 * mu * a2[2] * s + a2[2] ** 2)),
        ]
    )
    worst = max(worst, float(np.max(np.abs(got - want))))

    # the base-side bracket reduces to v5 - 16 (|xi_s|^2 + |xi_0|^2)^2 under
    # the modulus constraint, fixing both published fifth-order forms
    m2 = 0.25
    xi_c = np.array([0.5, 0.5, 0.6])
    mu_c, r_c = 0.5, 2
    v3_c = -2 * (m2 + abs(xi_c[2]) ** 2)
    got = series_residual(r_c, mu_c, xi_c, [0, 1, 0, v3_c / 6, 0, 0.0], 3)
    bracket = -16 * (m2 + abs(xi_c[2]) ** 2) ** 2
    want_base = mu_c * np.conj(xi_c[0]) * bracket
    want_fiber = np.conj(xi_c[2]) * bracket
    worst = max(worst, abs(got[0] - want_base), abs(got[1] - want_base), abs(got[2] - want_fiber))

    ok = worst < 1e-10
    _report(
        "criterion-9 series residual oracle",
        ok,
        f"max gap to hand-expanded forms (orders 0, 1, 3) = {worst:.3e} (tol 1e-10)",
    )
