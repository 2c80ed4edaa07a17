"""Tests for the metric engine: tensors, geodesics, curvature, total geodesy."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartogs_geom.domains import (
    DomainSpec,
    LinearEmbedding,
    polydisk_embedding,
    product_embedding,
)
from hartogs_geom.hartogs import (
    DomainPotential,
    HartogsPotential,
    HartogsSpec,
    h_sample,
    lift_automorphism_polydisk,
    slice_chart,
)
from hartogs_geom.metric import (
    FunctionPotential,
    christoffel_at,
    distance_to_span,
    geodesic_ivp,
    metric_at,
    sectional_curvature,
    tg_residual,
)
from hartogs_geom.numerics import DomainViolation

from _oracles import christoffel_fd, metric_fd

DISK = DomainPotential(DomainSpec.polydisk(1))


def _hartogs(spec, mu):
    return HartogsPotential(HartogsSpec(spec, mu))


class TestMetricAt:
    def test_origin_of_hartogs_polydisk(self):
        mu = 1.7
        pot = _hartogs(DomainSpec.polydisk(3), mu)
        md = metric_at(pot, np.zeros(4))
        assert np.allclose(md.g, np.diag([mu, mu, mu, 1.0]), atol=1e-14)

    def test_disk_closed_form(self):
        md = metric_at(DISK, np.array([0.5]))
        assert md.g[0, 0].real == pytest.approx(16.0 / 9.0, rel=1e-13)

    @pytest.mark.parametrize(
        "spec", [DomainSpec.type_i(2, 2), DomainSpec.type_ii(4), DomainSpec.type_iv(5)], ids=str
    )
    def test_hermitian_positive_at_samples(self, spec):
        from hartogs_geom.metric import _metric_matrix

        pot = _hartogs(spec, 1.3)
        for seed in range(500):
            p = h_sample(pot.spec, 0.7, seed)
            g = _metric_matrix(pot, p)
            assert np.max(np.abs(g - g.conj().T)) < 1e-12
            assert np.min(np.linalg.eigvalsh(g)) > 0
        p = h_sample(pot.spec, 0.7, 0)
        md = metric_at(pot, p)
        assert np.max(np.abs(md.g_inv @ md.g - np.eye(len(p)))) < 1e-10

    @pytest.mark.parametrize(
        "spec,mu",
        [(DomainSpec.type_i(2, 2), 1.3), (DomainSpec.type_iii(2), 0.7), (DomainSpec.type_iv(5), 2.0)],
        ids=str,
    )
    def test_against_finite_differences(self, spec, mu):
        pot = _hartogs(spec, mu)
        p = h_sample(pot.spec, 0.6, 5)
        md = metric_at(pot, p)
        g_fd = metric_fd(pot, p)
        assert np.max(np.abs(md.g - g_fd)) < 1e-7

    def test_singular_near_boundary(self):
        pot = _hartogs(DomainSpec.polydisk(1), 1.0)
        with pytest.raises(ValueError):
            metric_at(pot, np.array([0.0, 1.0 - 1e-14]))


class TestChristoffel:
    def test_zero_at_origin(self):
        pot = _hartogs(DomainSpec.polydisk(2), 0.7)
        ch = christoffel_at(pot, np.zeros(3))
        assert np.max(np.abs(ch.gamma)) == 0.0

    def test_disk_closed_form(self):
        z = 0.5
        ch = christoffel_at(DISK, np.array([z]))
        assert ch.gamma[0, 0, 0] == pytest.approx(2 * z / (1 - z * z), rel=1e-13)

    def test_diagonal_point_normal_components_vanish(self):
        # ambient type I (2,2) Hartogs at Z = diag(z1, z2): the connection
        # keeps slice-tangent pairs inside the slice tangent space
        pot = _hartogs(DomainSpec.type_i(2, 2), 1.3)
        p = np.array([0.35 + 0.1j, 0, 0, -0.25 + 0.2j, 0.3])
        g = christoffel_at(pot, p).gamma
        tangent, normal = (0, 3, 4), (1, 2)
        worst = max(
            abs(g[k, i, j]) for k in normal for i in tangent for j in tangent
        )
        assert worst < 1e-10

    def test_symmetry_from_independent_evaluations(self):
        from hartogs_geom.metric import _directional_mixed

        pot = _hartogs(DomainSpec.type_ii(4), 1.1)
        p = h_sample(pot.spec, 0.6, 8)
        n = pot.n_coords
        eye = np.eye(n)
        worst = 0.0
        for i in range(0, n, 3):
            for j in range(1, n, 3):
                d_ij = _directional_mixed(pot, p, eye[i], eye[j])
                d_ji = _directional_mixed(pot, p, eye[j], eye[i])
                worst = max(worst, float(np.max(np.abs(d_ij - d_ji))))
        assert worst < 1e-12

    def test_against_finite_differences(self):
        pot = _hartogs(DomainSpec.type_i(2, 2), 1.3)
        p = h_sample(pot.spec, 0.5, 3)
        got = christoffel_at(pot, p).gamma
        want = christoffel_fd(pot, p)
        assert np.max(np.abs(got - want)) < 1e-7


class TestGeodesics:
    def test_fiber_direction_stays_in_fiber(self):
        pot = _hartogs(DomainSpec.type_i(2, 2), 1.5)
        v0 = np.zeros(5, dtype=complex)
        v0[-1] = 1.0
        tr = geodesic_ivp(pot, np.zeros(5), v0, 1.0, tol=1e-10)
        assert tr.status == "completed"
        assert np.max(np.abs(tr.positions[:, :-1])) < 1e-10

    def test_radial_tanh_profile(self):
        # r = 1, mu = 1 is the complex 2-ball; radial geodesics are tanh rays
        pot = _hartogs(DomainSpec.polydisk(1), 1.0)
        direction = np.array([0.6, 0.8])
        tr = geodesic_ivp(pot, np.zeros(2), direction, 1.0, tol=1e-10)
        worst = max(
            float(np.max(np.abs(pos - np.tanh(t) * direction)))
            for t, pos in zip(tr.times, tr.positions)
        )
        assert worst < 1e-8

    def test_energy_drift(self):
        pot = _hartogs(DomainSpec.type_iv(5), 0.9)
        p0 = h_sample(pot.spec, 0.5, 2)
        rng = np.random.default_rng(0)
        v0 = rng.normal(size=6) + 1j * rng.normal(size=6)
        v0 *= 0.3 / np.linalg.norm(v0)
        tr = geodesic_ivp(pot, p0, v0, 1.0, tol=1e-10)
        assert tr.status == "completed"
        assert tr.energy_drift() < 1e-8

    def test_boundary_reached(self):
        pot = _hartogs(DomainSpec.polydisk(1), 1.0)
        v0 = np.array([0.0, 1.0])
        tr = geodesic_ivp(pot, np.array([0.0, 0.9]), v0, 50.0, tol=1e-8)
        assert tr.status == "boundary_reached"
        assert tr.times[-1] < 50.0

    def test_zero_velocity_rejected(self):
        pot = _hartogs(DomainSpec.polydisk(1), 1.0)
        with pytest.raises(ValueError):
            geodesic_ivp(pot, np.zeros(2), np.zeros(2), 1.0)

    def test_isometry_maps_geodesics_to_geodesics(self):
        mu = 1.2
        pot = _hartogs(DomainSpec.polydisk(2), mu)
        lift = lift_automorphism_polydisk([0.3, -0.2j], [0.5, 1.0], mu)
        p0 = np.array([0.1, 0.2 - 0.1j, 0.15], dtype=complex)
        v0 = np.array([0.25, -0.1j, 0.2], dtype=complex)
        tr1 = geodesic_ivp(pot, p0, v0, 1.0, tol=1e-11)
        tr2 = geodesic_ivp(pot, lift(p0), lift.jacobian(p0) @ v0, 1.0, tol=1e-11)
        assert np.max(np.abs(lift(tr1.positions[-1]) - tr2.positions[-1])) < 1e-6

    def test_csv_schema(self):
        pot = _hartogs(DomainSpec.polydisk(1), 1.0)
        tr = geodesic_ivp(pot, np.zeros(2), np.array([0.3, 0.4]), 0.2, tol=1e-9)
        buf = io.StringIO()
        tr.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,re_z1,im_z1,re_w,im_w,energy"
        assert len(lines) == len(tr.times) + 1


class TestTotallyGeodesicResidual:
    def test_full_space_chart_is_exact(self):
        spec = HartogsSpec(DomainSpec.polydisk(2), 1.0)
        pot = HartogsPotential(spec)
        emb = LinearEmbedding(DomainSpec.polydisk(2), spec.base, np.eye(2, dtype=complex))
        chart = slice_chart(spec, emb)
        assert tg_residual(pot, chart, np.array([0.2, -0.1j, 0.3])) < 1e-14

    @pytest.mark.parametrize(
        "spec,mu",
        [
            (DomainSpec.type_i(2, 3), 1.5),
            (DomainSpec.type_ii(5), 0.7),
            (DomainSpec.type_iii(3), 2.0),
            (DomainSpec.type_iv(6), 1.1),
        ],
        ids=str,
    )
    def test_polydisk_slices(self, spec, mu):
        hs = HartogsSpec(spec, mu)
        pot = HartogsPotential(hs)
        chart = slice_chart(hs, polydisk_embedding(spec))
        for seed in range(10):
            q = chart.sample(0.7, seed)
            assert tg_residual(pot, chart, q) < 1e-9

    def test_diagonal_disk_slice(self):
        base = DomainSpec.polydisk(2)
        hs = HartogsSpec(base, 1.4)
        pot = HartogsPotential(hs)
        mat = np.array([[1.0], [1.0]], dtype=complex)
        chart = slice_chart(hs, LinearEmbedding(DomainSpec.polydisk(1), base, mat))
        for seed in range(10):
            q = chart.sample(0.7, seed)
            assert tg_residual(pot, chart, q) < 1e-9

    def test_non_geodesic_slice_flagged(self):
        base = DomainSpec.polydisk(2)
        hs = HartogsSpec(base, 1.0)
        pot = HartogsPotential(hs)
        mat = np.array([[1.0], [0.5]], dtype=complex)
        chart = slice_chart(hs, LinearEmbedding(DomainSpec.polydisk(1), base, mat))
        assert tg_residual(pot, chart, np.array([0.4, 0.2])) > 1e-2

    def test_degenerate_tangent_basis_rejected(self):
        from hartogs_geom.hartogs import HartogsChart

        hs = HartogsSpec(DomainSpec.polydisk(2), 1.0)
        pot = HartogsPotential(hs)
        basis = np.zeros((3, 2), dtype=complex)
        basis[:, 0] = [1.0, 0.0, 0.0]
        basis[:, 1] = [1.0, 0.0, 0.0]
        chart = HartogsChart(
            ambient=hs,
            source=DomainSpec.polydisk(1),
            embed=lambda q: np.array([q[0], q[0], q[1]]),
            tangent_basis=lambda q: basis,
        )
        with pytest.raises(ValueError, match="degenerate"):
            tg_residual(pot, chart, np.array([0.1, 0.1]))

    def test_confinement_follows_residual(self):
        # tangent initial data on a verified slice stays on the slice
        spec = DomainSpec.type_i(2, 2)
        hs = HartogsSpec(spec, 1.3)
        pot = HartogsPotential(hs)
        chart = slice_chart(hs, polydisk_embedding(spec))
        basis = chart.tangent_basis(np.zeros(3))
        q = chart.sample(0.4, 1)
        p0 = chart.embed(q)
        rng = np.random.default_rng(5)
        v0 = basis @ (rng.normal(size=3) + 1j * rng.normal(size=3))
        v0 *= 0.35 / np.linalg.norm(v0)
        tr = geodesic_ivp(pot, p0, v0, 1.0, tol=1e-9)
        dev = max(distance_to_span(p, basis) for p in tr.positions)
        assert dev < 1e-6


class TestSectionalCurvature:
    def test_disk_constant_minus_two(self):
        for z in (0.0, 0.4, 0.3 - 0.5j):
            k = sectional_curvature(DISK, np.array([z]), np.array([1.0]))
            assert k == pytest.approx(-2.0, abs=1e-11)

    def test_quartic_term_against_finite_differences(self):
        from hartogs_geom.metric import _fourth_holomorphic

        from _oracles import fd_richardson

        pot = _hartogs(DomainSpec.polydisk(1), 1.0)
        p = np.array([0.2 - 0.1j, 0.25], dtype=complex)
        x = np.array([0.7, 0.4j])

        def along_line(ts):
            q = p + complex(ts[0], ts[1]) * x
            return pot.value(q)

        # d^2/dt d/dtbar twice = (1/16)(dxx + dyy)^2 on the real pair
        h = 2e-2
        fd = 0.0
        for a in (0, 1):
            for b in (0, 1):
                fd += fd_richardson(along_line, [0.0, 0.0], (a, a, b, b), h)
        fd /= 16.0
        got = _fourth_holomorphic(pot, p, x)
        assert got.real == pytest.approx(fd, rel=2e-4)
        assert abs(got.imag) < 1e-12

    def test_hartogs_disk_mu_one_is_space_form(self):
        pot = _hartogs(DomainSpec.polydisk(1), 1.0)
        rng = np.random.default_rng(17)
        vals = []
        for seed in range(40):
            p = h_sample(pot.spec, 0.7, seed)
            x = rng.normal(size=2) + 1j * rng.normal(size=2)
            vals.append(sectional_curvature(pot, p, x))
        assert max(vals) - min(vals) < 1e-6

    def test_product_factor_direction(self):
        pot2 = DomainPotential(DomainSpec.polydisk(2))
        z = np.array([0.3 + 0.1j, -0.4j])
        k2 = sectional_curvature(pot2, z, np.array([1.0, 0.0]))
        k1 = sectional_curvature(DISK, z[:1], np.array([1.0]))
        assert k2 == pytest.approx(k1, rel=1e-11)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            sectional_curvature(DISK, np.array([0.1]), np.array([0.0]))


class TestFunctionPotential:
    def test_wrapper_matches_closed_form(self):
        # flat potential |z|^2: metric identically 1, curvature 0
        pot = FunctionPotential(
            lambda c: (c[0] * (c[0].conjugate() if hasattr(c[0], "conjugate") else np.conj(c[0]))),
            1,
        )
        md = metric_at(pot, np.array([0.3 + 0.2j]))
        assert md.g[0, 0] == pytest.approx(1.0)
        assert sectional_curvature(pot, np.array([0.1]), np.array([1.0])) == pytest.approx(0.0)


DUAL_ROUTE_SPECS = [
    DomainSpec.type_i(2, 3),
    DomainSpec.type_ii(4),
    DomainSpec.type_iii(3),
    DomainSpec.type_iv(6),
    DomainSpec.product(DomainSpec.type_i(1, 2), DomainSpec.type_iii(2)),
    DomainSpec.polydisk(2),
]


def _assert_rel_close(got, want, rtol=1e-12):
    err = float(np.max(np.abs(got - want)))
    assert err <= rtol * float(np.max(np.abs(want))), err


class TestClosedFormRoute:
    """The closed-form tensors of HartogsPotential against its jet route.

    Wrapping the potential in a FunctionPotential hides `derivatives`, so
    the metric engine falls back to jets on the same potential function.
    """

    @pytest.mark.parametrize("spec", DUAL_ROUTE_SPECS, ids=str)
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shrink=st.floats(0.05, 0.8),
        mu=st.floats(0.3, 3.0),
    )
    def test_matches_jets(self, spec, seed, shrink, mu):
        from hartogs_geom.metric import _directional_mixed, _directional_second, _metric_matrix

        pot = _hartogs(spec, mu)
        n = pot.n_coords
        jet = FunctionPotential(pot, n)
        p = h_sample(pot.spec, shrink, seed)
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        _assert_rel_close(_metric_matrix(pot, p), _metric_matrix(jet, p))
        _assert_rel_close(_directional_mixed(pot, p, x, y), _directional_mixed(jet, p, x, y))
        _assert_rel_close(_directional_second(pot, p, x), _directional_second(jet, p, x))
        _assert_rel_close(metric_at(pot, p).dg, metric_at(jet, p).dg)

    @pytest.mark.parametrize("spec", DUAL_ROUTE_SPECS, ids=str)
    def test_fiber_outside_raises(self, spec):
        from hartogs_geom.metric import _metric_matrix

        pot = _hartogs(spec, 1.3)
        p = h_sample(pot.spec, 0.5, 4)
        p[-1] = 1.01 * np.sqrt(spec.generic_norm(p[:-1]) ** 1.3)
        with pytest.raises(DomainViolation):
            _metric_matrix(pot, p)

    @pytest.mark.parametrize("spec", DUAL_ROUTE_SPECS, ids=str)
    def test_base_outside_raises(self, spec):
        # every polydisk coordinate 1.2: ||Z|| > 1, and N = (1 - 1.44)^rank is
        # positive at even rank, so the sign of N alone would not notice
        from hartogs_geom.metric import _directional_second

        emb = product_embedding(spec) if spec.kind == "product" else polydisk_embedding(spec)
        p = np.append(emb(np.full(spec.rank, 1.2)), 0.0)
        pot = _hartogs(spec, 1.3)
        with pytest.raises(DomainViolation):
            _directional_second(pot, p, np.ones(len(p)))


class TestMobiusPullback:
    """The closed-form metric is invariant under the lifted Moebius maps."""

    @pytest.mark.parametrize("r", [2, 3])
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        radii=st.lists(st.floats(0.0, 0.7), min_size=3, max_size=3),
        angles=st.lists(st.floats(0.0, 2 * np.pi), min_size=3, max_size=3),
        phases=st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3),
        mu=st.floats(0.3, 3.0),
    )
    def test_metric_pullback_invariance(self, r, seed, radii, angles, phases, mu):
        from hartogs_geom.metric import _metric_matrix

        centers = np.asarray(radii[:r]) * np.exp(1j * np.asarray(angles[:r]))
        lift = lift_automorphism_polydisk(centers, phases[:r], mu)
        pot = _hartogs(DomainSpec.polydisk(r), mu)
        p = h_sample(pot.spec, 0.8, seed)
        jac = lift.jacobian(p)
        pulled = jac.T @ _metric_matrix(pot, lift(p)) @ np.conj(jac)
        assert float(np.max(np.abs(pulled - _metric_matrix(pot, p)))) < 1e-9
