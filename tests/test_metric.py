"""Tests for the metric engine: tensors, geodesics, curvature, total geodesy."""

import io
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from hartogs_geom.domains import (
    DomainSpec,
    LinearEmbedding,
    polydisk_embedding,
)
from hartogs_geom.hartogs import (
    DomainPotential,
    HartogsPotential,
    HartogsSpec,
    h_contains,
    h_sample,
    lift_automorphism_polydisk,
    slice_chart,
)
from hartogs_geom.metric import (
    FunctionPotential,
    IntegrationError,
    christoffel_at,
    distance_to_span,
    geodesic_batch,
    geodesic_ivp,
    metric_at,
    sectional_curvature,
    tg_residual,
)
from hartogs_geom.numerics import DomainViolation

from _oracles import christoffel_fd, dop853_geodesic, metric_fd, third_fd

DISK = DomainPotential(DomainSpec.polydisk(1))

# the same examples in every process, and a failure reported at once: the
# shrink phase would spend minutes on these slow examples
PROPERTY_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[Phase.explicit, Phase.generate],
)


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

    def test_boundary_reached_through_jets(self):
        # the jet route reads its margin e^{-Phi} from its own evaluation, as
        # the closed form does, so both stop at the same step
        pot = _hartogs(DomainSpec.polydisk(1), 1.0)
        p0, v0 = np.array([0.0, 0.9]), np.array([0.0, 1.0])
        want = geodesic_ivp(pot, p0, v0, 50.0, tol=1e-8, max_steps=100)
        got = geodesic_ivp(FunctionPotential(pot, 2), p0, v0, 50.0, tol=1e-8, max_steps=100)
        assert got.status == want.status == "boundary_reached"
        assert (len(got.times), got.rhs_evals, got.rejected_steps) == (
            len(want.times),
            want.rhs_evals,
            want.rejected_steps,
        )

    def test_margin_comes_from_the_evaluations(self):
        # the start check and the boundary stop read e^{-Phi} from the rhs
        # evaluations; a separate margin call is never made
        class NoMargin(HartogsPotential):
            def interior_margin(self, p):
                raise AssertionError("geodesic_batch asked for interior_margin")

        pot = NoMargin(HartogsSpec(DomainSpec.polydisk(1), 1.0))
        tr = geodesic_ivp(pot, np.array([0.0, 0.9]), np.array([0.0, 1.0]), 50.0, tol=1e-8)
        assert tr.status == "boundary_reached"
        with pytest.raises(ValueError, match="member 1 is too close to the boundary"):
            geodesic_batch(pot, [[0.0, 0.3], [0.0, 1.0 - 1e-9]], np.ones((2, 2)), 1.0)

    def test_start_near_boundary_names_member(self):
        # one stacked margin call tests every start point
        pot = _hartogs(DomainSpec.polydisk(1), 1.0)
        p0s = [[0.1, 0.2], [0.0, 0.3], [0.0, 1.0 - 1e-9], [0.0, 1.5]]
        with pytest.raises(ValueError, match="member 2 is too close to the boundary"):
            geodesic_batch(pot, p0s, np.ones((4, 2)), 1.0)

    def test_nan_start_names_member(self):
        # a NaN coordinate gives a NaN margin, which no margin test passes
        pot = _hartogs(DomainSpec.type_i(2, 2), 1.0)
        p0s = np.zeros((3, 5), dtype=np.complex128)
        p0s[1, 2] = np.nan
        with pytest.raises(ValueError, match="member 1 is too close to the boundary"):
            geodesic_batch(pot, p0s, np.ones((3, 5)), 1.0)

    def test_coarse_step_across_polydisk_diagonal(self):
        # with a loose tolerance the trial stages overshoot the diagonal
        # corner, where both |z_j| > 1 leave N = (1 - |z|^2)^2 > 0
        hs = HartogsSpec(DomainSpec.polydisk(2), 1.0)
        crossings = []

        class Recording(HartogsPotential):
            def derivatives(self, p, x=None):
                # the integrator evaluates stacks of points, one row each
                for q in np.atleast_2d(p):
                    if np.all(np.abs(q[:-1]) > 1.0):
                        crossings.append(q)
                return super().derivatives(p, x)

        pot = Recording(hs)
        v0 = np.array([1.0, 1.0, 0.0], dtype=complex)
        tr = geodesic_ivp(pot, np.array([0.5, 0.5, 0.0]), v0, 50.0, tol=1.0)
        assert crossings
        assert tr.domain_retries > 0
        assert tr.status == "boundary_reached"
        assert all(h_contains(hs, p) for p in tr.positions)

    def test_zero_velocity_rejected(self):
        pot = _hartogs(DomainSpec.polydisk(1), 1.0)
        with pytest.raises(ValueError):
            geodesic_ivp(pot, np.zeros(2), np.zeros(2), 1.0)
        with pytest.raises(ValueError, match="member 1 is zero"):
            geodesic_batch(pot, np.zeros((2, 2)), [[0.1, 0.0], [0.0, 0.0]], 1.0)

    def test_overflowing_velocity_names_member(self):
        # the start energy overflows: rejected before any step, without a
        # RuntimeWarning (an error under the test filter)
        pot = _hartogs(DomainSpec.type_i(2, 2), 1.0)
        v0s = np.full((3, 5), 0.1, dtype=np.complex128)
        v0s[1] = 1e200
        with pytest.raises(ValueError, match="member 1 is too large"):
            geodesic_batch(pot, np.zeros((3, 5)), v0s, 1.0)
        with pytest.raises(ValueError, match="member 0 is too large"):
            geodesic_ivp(pot, np.zeros(5), v0s[1], 1.0)

    def test_step_budget_and_underflow_raise(self):
        pot = _hartogs(DomainSpec.polydisk(1), 1.0)
        v0 = np.array([0.3, 0.2j])
        with pytest.raises(IntegrationError, match="step budget"):
            geodesic_ivp(pot, np.zeros(2), v0, 1.0, max_steps=3)
        # the first step h = 0.125 lies below the underflow bound 1e-14 T
        with pytest.raises(IntegrationError, match="underflow"):
            geodesic_ivp(pot, np.zeros(2), v0, 1e15)

    @pytest.mark.parametrize(
        "mu,match", [(1e10, "member 1 overflowed"), (1e102, "member 1 met a singular metric")]
    )
    def test_non_finite_stage_raises_at_once(self, mu, match):
        # the pure-base member overflows its stages: at mu = 1e10 a sweep's
        # acceleration turns non-finite, at 1e102 its metric is singular;
        # either ends the batch within a few steps, without a RuntimeWarning
        evals = [0]

        class Counting(HartogsPotential):
            def derivatives(self, p, x=None):
                evals[0] += len(np.atleast_2d(p))
                assert evals[0] <= 1000, "the member ran on past its overflow"
                return super().derivatives(p, x)

        pot = Counting(HartogsSpec(DomainSpec.polydisk(1), mu))
        with pytest.raises(IntegrationError, match=match):
            geodesic_batch(pot, np.zeros((2, 2)), [[0.0, 1.0], [1.0, 0.0]], 0.5)

    @pytest.mark.parametrize("T", [0.0, -1.0])
    def test_nonpositive_end_time_rejected(self, T):
        pot = _hartogs(DomainSpec.polydisk(1), 1.0)
        with pytest.raises(ValueError):
            geodesic_ivp(pot, np.zeros(2), np.array([0.3, 0.4]), T)

    def test_nine_rows_per_sweep(self):
        # every sweep evaluates the 8 stage rows and the landing row, also a
        # sweep that leaves the domain; only the start point is one row.  An
        # attempted step that stays in the domain makes 7 sweeps
        pot = _hartogs(DomainSpec.polydisk(2), 1.3)
        v0 = 3.0 * np.array([0.6, -0.48j, 0.64])
        tr = geodesic_ivp(pot, np.zeros(3), v0, 1.0, tol=1e-8)
        assert tr.status == "completed"
        assert tr.domain_retries == 0
        assert tr.rejected_steps > 0
        assert tr.rhs_evals == 1 + 9 * (tr.sweeps - 1)
        assert tr.sweeps == 1 + 7 * (len(tr.times) - 1 + tr.rejected_steps)
        pot = _hartogs(DomainSpec.polydisk(2), 1.0)
        v0 = np.array([1.0, 1.0, 0.0], dtype=complex)
        tr = geodesic_ivp(pot, np.array([0.5, 0.5, 0.0]), v0, 50.0, tol=1.0)
        assert tr.domain_retries > 0
        assert tr.rhs_evals == 1 + 9 * (tr.sweeps - 1)

    @pytest.mark.parametrize(
        "spec,mu", [(DomainSpec.type_ii(4), 0.7), (DomainSpec.polydisk(2), 1.3)], ids=str
    )
    def test_energies_are_exact(self, spec, mu):
        # the energy of an accepted step comes from the metric its last
        # stage built: the same floats as a fresh metric at that point
        from hartogs_geom.metric import _metric_matrix, hermitian_inner

        pot = _hartogs(spec, mu)
        n = pot.n_coords
        rng = np.random.default_rng(5)
        v0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        tr = geodesic_ivp(pot, h_sample(pot.spec, 0.5, 1), v0 / np.linalg.norm(v0), 2.0)
        assert len(tr.times) > 10
        for p, v, e in zip(tr.positions, tr.velocities, tr.energies):
            assert e == float(np.real(hermitian_inner(_metric_matrix(pot, p), v, v)))

    def test_isometry_maps_geodesics_to_geodesics(self):
        mu = 1.2
        pot = _hartogs(DomainSpec.polydisk(2), mu)
        lift = lift_automorphism_polydisk([0.3, -0.2j], [0.5, 1.0], mu)
        p0 = np.array([0.1, 0.2 - 0.1j, 0.15], dtype=complex)
        v0 = np.array([0.25, -0.1j, 0.2], dtype=complex)
        tr1 = geodesic_ivp(pot, p0, v0, 1.0, tol=1e-11)
        tr2 = geodesic_ivp(pot, lift(p0), lift.jacobian(p0) @ v0, 1.0, tol=1e-11)
        assert np.max(np.abs(lift(tr1.positions[-1]) - tr2.positions[-1])) < 1e-6

    @pytest.mark.parametrize(
        "spec",
        [DomainSpec.type_i(2, 3), DomainSpec.type_iv(6), DomainSpec.type_iii(3), DomainSpec.type_ii(6)],
        ids=str,
    )
    def test_diagonal_ball_slice_is_a_tanh_ray(self, spec):
        # at r mu = 1 the diagonal of the embedded polydisk with the fiber is
        # the unit 2-ball, -log(1 - |t|^2 - |w|^2), and its geodesics from the
        # origin are tanh rays: every accepted step lies on the exact one
        a, b = 0.3 + 0.2j, 0.4 - 0.1j
        ones = polydisk_embedding(spec)(np.ones(spec.rank))
        direction = np.append(a * ones, b)
        speed = math.hypot(abs(a), abs(b))
        tr = geodesic_ivp(_hartogs(spec, 1.0 / spec.rank), np.zeros(spec.dim + 1), direction, 1.0)
        assert tr.status == "completed" and tr.times[-1] == 1.0
        exact = np.tanh(speed * tr.times)[:, None] / speed * direction
        assert np.max(np.abs(tr.positions - exact)) < 1e-11

    def test_off_ball_slice_is_no_tanh_ray(self):
        # the negative control: r mu = 1.4 on I(2,3) leaves the tanh ray; at
        # the probe's T = 1.5 the endpoint is 1.6e-2 off it
        spec = DomainSpec.type_i(2, 3)
        a, b = 0.3 + 0.2j, 0.4 - 0.1j
        direction = np.append(a * polydisk_embedding(spec)(np.ones(2)), b)
        speed = math.hypot(abs(a), abs(b))
        tr = geodesic_ivp(_hartogs(spec, 0.7), np.zeros(spec.dim + 1), direction, 1.5)
        exact = np.tanh(1.5 * speed) / speed * direction
        assert np.max(np.abs(tr.positions[-1] - exact)) > 1e-2

    def test_endpoints_against_the_oracle(self):
        # the four geodesics of the benchmark at seed 7: against a DOP853
        # reference at tol 1e-13, the endpoint error is no worse than the
        # oracle's own at the reports' tol 1e-10
        from perfbench import workloads

        def vec(arg):
            return np.array([complex(x) for x in arg.split("=")[1].split(",")])

        for report in workloads.geodesics(7).reports[:4]:
            spec = report.config["spec"]
            pot = _hartogs(DomainSpec.from_json(spec["base"]), spec["mu"])
            p0, v0, T = vec(report.argv[1]), vec(report.argv[2]), float(report.argv[4])
            _, ref_p, ref_v = dop853_geodesic(pot, p0, v0, T, tol=1e-13)
            _, dop_p, dop_v = dop853_geodesic(pot, p0, v0, T, tol=1e-10)
            tr = geodesic_ivp(pot, p0, v0, T, tol=1e-10)
            ref = np.append(ref_p[-1], ref_v[-1])
            dop = np.max(np.abs(np.append(dop_p[-1], dop_v[-1]) - ref))
            got = np.max(np.abs(np.append(tr.positions[-1], tr.velocities[-1]) - ref))
            assert got <= dop, report.name

    def test_csv_schema(self):
        pot = _hartogs(DomainSpec.polydisk(1), 1.0)
        tr = geodesic_ivp(pot, np.zeros(2), np.array([0.3, 0.4]), 0.2, tol=1e-9)
        buf = io.StringIO()
        tr.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,re_z1,im_z1,re_w,im_w,energy"
        assert len(lines) == len(tr.times) + 1


class TestGaussLegendreTableau:
    """The package's collocation tableau against the order conditions."""

    def test_simplifying_assumptions(self):
        # B(16): b integrates degree 15; C(8) and D(8): the stage order
        from hartogs_geom.metric import _GL_A, _GL_B, _GL_C

        a, b, c = _GL_A, _GL_B, _GL_C
        assert max(abs(b @ c ** (q - 1) - 1 / q) for q in range(1, 17)) < 1e-14
        assert max(np.max(np.abs(a @ c ** (q - 1) - c**q / q)) for q in range(1, 9)) < 1e-14
        for q in range(1, 9):
            assert np.max(np.abs(b * c ** (q - 1) @ a - b * (1 - c**q) / q)) < 1e-14

    def test_sweep_rows(self):
        # the landing row has node 1 and weights b; positions read A^2; the
        # last row extrapolates the stage polynomial to node 1
        from hartogs_geom.metric import _GL_A, _GL_B, _GL_C, _ROW_C, _SWEEP

        s = len(_GL_C)
        assert _SWEEP.shape == (2 * s + 3, s)
        assert np.array_equal(_SWEEP[s], _GL_B) and _ROW_C[s] == 1.0
        assert np.max(np.abs(_SWEEP[s + 1 : 2 * s + 2] @ np.ones(s) - _ROW_C**2 / 2)) < 1e-14
        assert np.max(np.abs(_SWEEP[2 * s + 1] - _GL_B * (1 - _GL_C))) < 1e-14
        assert abs(_SWEEP[-1] @ _GL_C**7 - 1.0) < 1e-12
        assert abs(_SWEEP[-1].sum() - 1.0) < 1e-13


class TestDop853Tableau:
    """The transcribed DOP853 coefficients of the oracle against the order
    conditions."""

    @staticmethod
    def _tableau():
        from _oracles import _DP_A, _DP_E3, _DP_E5

        a = np.zeros((13, 13))
        for i, row in enumerate(_DP_A):
            a[i, : len(row)] = row
        # the published nodes; stage 13 is the FSAL stage at the new solution
        r = np.sqrt(6.0)
        c = np.array(
            [0, 2 * (6 - r) / 135, (6 - r) / 45, (6 - r) / 30, (6 + r) / 30, 1 / 3, 1 / 4,
             4 / 13, 127 / 195, 3 / 5, 6 / 7, 1, 1]
        )
        return a, a[12], c, np.array(_DP_E5), np.array(_DP_E3)

    @staticmethod
    def _quadrature_errors(weights, c, orders):
        return [abs(weights @ c ** (q - 1) - 1 / q) for q in orders]

    def test_rows_sum_to_nodes(self):
        a, _, c, _, _ = self._tableau()
        assert np.max(np.abs(a.sum(axis=1) - c)) < 1e-14

    def test_eighth_order_weights(self):
        a, b, c, _, _ = self._tableau()
        assert max(self._quadrature_errors(b, c, range(1, 9))) < 1e-14
        # the tall tree of order 8 over the twelve stages
        tall = b[:12] @ np.linalg.matrix_power(a[:12, :12], 6) @ c[:12]
        assert abs(tall - 1 / math.factorial(8)) < 1e-14

    def test_embedded_weights(self):
        _, b, c, e5, e3 = self._tableau()
        assert e5[-1] == e3[-1] == 0.0
        fifth = self._quadrature_errors(b - e5, c, range(1, 7))
        assert max(fifth[:5]) < 1e-14
        assert fifth[5] > 1e-6
        assert max(self._quadrature_errors(b - e3, c, range(1, 4))) < 1e-14


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
            embed=lambda q: np.stack([q[..., 0], q[..., 0], q[..., 1]], axis=-1),
            tangent_basis=lambda q: np.broadcast_to(basis, (*q.shape[:-1], *basis.shape)),
        )
        with pytest.raises(ValueError, match="degenerate"):
            tg_residual(pot, chart, np.array([0.1, 0.1]))

    def test_degenerate_sample_named_in_stack(self):
        from hartogs_geom.hartogs import HartogsChart

        hs = HartogsSpec(DomainSpec.polydisk(2), 1.0)

        def tangent_basis(q):
            # the fiber tangent vanishes where Re w = 0
            basis = np.zeros((*q.shape[:-1], 3, 2), dtype=complex)
            basis[..., 0, 0] = 1.0
            basis[..., 2, 1] = q[..., 1].real
            return basis

        chart = HartogsChart(
            ambient=hs,
            source=DomainSpec.polydisk(1),
            embed=lambda q: np.stack([q[..., 0], np.zeros_like(q[..., 0]), q[..., 1]], axis=-1),
            tangent_basis=tangent_basis,
        )
        qs = np.array([[0.1, 0.2], [0.2, 0.1], [0.1, 0.0], [0.0, 0.0]])
        assert tg_residual(HartogsPotential(hs), chart, qs[:2]).shape == (2,)
        with pytest.raises(ValueError, match="degenerate chart tangent basis at sample 2"):
            tg_residual(HartogsPotential(hs), chart, qs)

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
    DomainSpec.polydisk(1),
    DomainSpec.polydisk(2),
    DomainSpec.polydisk(3),
    DomainSpec.product(DomainSpec.polydisk(1), DomainSpec.type_iii(2)),
]


def _assert_rel_close(got, want, rtol=1e-12):
    err = float(np.max(np.abs(got - want)))
    assert err <= rtol * float(np.max(np.abs(want))), err


class TestClosedFormRoute:
    """The closed-form tensors of the potentials against their jet route.

    A FunctionPotential around the potential answers `derivatives` with
    jets of the same potential function, so every metric operation on it
    is a second route to the closed form.
    """

    @pytest.mark.parametrize("kind", ["hartogs", "domain"])
    @pytest.mark.parametrize("spec", DUAL_ROUTE_SPECS, ids=str)
    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        shrink=st.floats(0.05, 0.8),
        mu=st.floats(0.3, 3.0),
    )
    def test_derivatives_match_jets(self, spec, kind, seed, shrink, mu):
        if kind == "hartogs":
            pot = _hartogs(spec, mu)
            p = h_sample(pot.spec, shrink, seed)
        else:
            pot = DomainPotential(spec)
            p = spec.sample(shrink, seed)
        n = pot.n_coords
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        y = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        xy = np.concatenate([x, y], -1)
        want = pot.derivatives(p, xy)
        got = FunctionPotential(pot, n).derivatives(p, xy)
        for field in ("value", "grad", "levi", "hess", "third"):
            g, w = np.asarray(getattr(got, field)), np.asarray(getattr(want, field))
            if field in ("hess", "third"):  # the pairs (x column, y column)
                g, w = g[:2, 2:], w[:2, 2:]
            _assert_rel_close(g, w)

    def test_jet_route_even_crossing_raises(self):
        from hartogs_geom.metric import _metric_matrix

        # Z = diag(1.2, 1.2) on I(2,3): N = 0.1936 > 0 outside the base
        spec = DomainSpec.type_i(2, 3)
        jet = FunctionPotential(_hartogs(spec, 1.3), spec.dim + 1)
        p = np.append(polydisk_embedding(spec)(np.full(2, 1.2)), 0.0)
        with pytest.raises(DomainViolation):
            _metric_matrix(jet, p)
        with pytest.raises(DomainViolation):
            sectional_curvature(jet, p, np.ones(len(p)))

    @pytest.mark.parametrize("spec", DUAL_ROUTE_SPECS, ids=str)
    @PROPERTY_SETTINGS
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

        emb = polydisk_embedding(spec)
        p = np.append(emb(np.full(spec.rank, 1.2)), 0.0)
        pot = _hartogs(spec, 1.3)
        with pytest.raises(DomainViolation):
            _directional_second(pot, p, np.ones(len(p)))


class TestEmbeddedJetRoute:
    """Jet coordinates through a polydisk embedding and the generic norm."""

    @pytest.mark.parametrize(
        "spec",
        [
            DomainSpec.type_i(2, 3),
            DomainSpec.type_ii(4),
            DomainSpec.type_iii(2),
            DomainSpec.type_iv(6),
        ],
        ids=str,
    )
    def test_pullback_is_polydisk_potential(self, spec):
        from hartogs_geom.metric import _metric_matrix

        # N(iota(z)) = prod (1 - |z_j|^2): Phi o (iota x id) is the potential
        # of the Hartogs 2-polydisk
        mu = 1.3
        emb = polydisk_embedding(spec)
        pot = _hartogs(spec, mu)
        pulled = FunctionPotential(lambda c: pot([*emb(c[:-1]), c[-1]]), 3)
        poly = _hartogs(DomainSpec.polydisk(2), mu)
        for seed in range(3):
            q = h_sample(poly.spec, 0.7, seed)
            _assert_rel_close(_metric_matrix(pulled, q), _metric_matrix(poly, q))


class TestMobiusPullback:
    """The closed-form metric is invariant under the lifted Moebius maps."""

    @pytest.mark.parametrize("r", [2, 3])
    @PROPERTY_SETTINGS
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


FD_SPECS = [
    (DomainSpec.type_i(2, 3), 1.5),
    (DomainSpec.type_ii(5), 0.7),
    (DomainSpec.type_iii(3), 2.0),
    (DomainSpec.type_iv(5), 1.1),
    (DomainSpec.polydisk(2), 1.3),
    (DomainSpec.product(DomainSpec.type_i(1, 2), DomainSpec.type_iii(2)), 0.9),
]


class TestClosedFormFiniteDifferences:
    """The stacked closed form against finite differences of potential values.

    The oracles differentiate `value`, which takes N**mu from a determinant,
    so they share no arithmetic with the closed form.  Bounds, fixed before
    the first run: levi within 1e-7 and third within 1e-6, relative to
    max(1, the largest finite-difference entry).
    """

    @pytest.mark.parametrize("spec,mu", FD_SPECS, ids=str)
    def test_stack_with_per_point_directions(self, spec, mu):
        pot = _hartogs(spec, mu)
        n = pot.n_coords
        p = np.stack([h_sample(pot.spec, 0.6, seed) for seed in (3, 4, 5)])
        rng = np.random.default_rng(21)
        x = rng.normal(size=(3, n, 2)) + 1j * rng.normal(size=(3, n, 2))
        y = rng.normal(size=(3, n, 1)) + 1j * rng.normal(size=(3, n, 1))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        got = pot.derivatives(p, np.concatenate([x, y], -1))
        assert got.levi.shape == (3, n, n) and got.third.shape == (3, 3, 3, n)
        for j in range(3):
            levi = metric_fd(pot, p[j])
            third = third_fd(pot, p[j], x[j], y[j])
            # the pairs (x column, y column)
            err = np.max(np.abs(got.third[j, :2, 2:] - third))
            assert np.max(np.abs(got.levi[j] - levi)) <= 1e-7 * max(1.0, np.max(np.abs(levi)))
            assert err <= 1e-6 * max(1.0, np.max(np.abs(third)))


class TestBatchEqualsSingle:
    """Stacked evaluations give every member the floats it gets alone."""

    @pytest.mark.parametrize("spec,mu", FD_SPECS, ids=str)
    def test_tg_residual_stack(self, spec, mu):
        hs = HartogsSpec(spec, mu)
        pot = HartogsPotential(hs)
        emb = polydisk_embedding(spec)
        chart = slice_chart(hs, emb)
        qs = np.stack([chart.sample(0.7, seed) for seed in range(7)])
        stacked = tg_residual(pot, chart, qs)
        assert stacked.shape == (7,)
        assert stacked.tolist() == [tg_residual(pot, chart, q) for q in qs]

    def test_tg_residual_stack_with_per_point_bases(self):
        from hartogs_geom.hartogs import transported_chart

        base = DomainSpec.polydisk(3)
        hs = HartogsSpec(base, 1.2)
        pot = HartogsPotential(hs)
        mat = np.zeros((3, 1), dtype=complex)
        mat[0, 0] = 1.0
        chart = slice_chart(hs, LinearEmbedding(DomainSpec.polydisk(1), base, mat))
        lift = lift_automorphism_polydisk([0.3, -0.2 + 0.25j, 0.15j], [0.4, 0.0, -1.0], 1.2)
        moved = transported_chart(chart, lift)
        qs = np.stack([moved.sample(0.6, seed) for seed in range(5)])
        bases = [moved.tangent_basis(q) for q in qs]
        assert not np.array_equal(bases[0], bases[1])
        stacked = tg_residual(pot, moved, qs)
        assert stacked.tolist() == [tg_residual(pot, moved, q) for q in qs]
        assert np.max(stacked) < 1e-9

    @staticmethod
    def _assert_same_trace(got, want):
        assert len(got.times) == len(want.times)
        assert (got.status, got.rhs_evals, got.sweeps, got.rejected_steps, got.domain_retries) == (
            want.status,
            want.rhs_evals,
            want.sweeps,
            want.rejected_steps,
            want.domain_retries,
        )
        for field in ("times", "positions", "velocities", "energies"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field

    @pytest.mark.parametrize("spec,mu", FD_SPECS[:4], ids=str)
    def test_geodesic_members_match_single_runs(self, spec, mu):
        pot = _hartogs(spec, mu)
        n = pot.n_coords
        p0 = np.stack([h_sample(pot.spec, 0.4, seed) for seed in range(4)])
        rng = np.random.default_rng(8)
        v0 = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
        v0 *= 0.5 / np.linalg.norm(v0, axis=1, keepdims=True)
        traces = geodesic_batch(pot, p0, v0, 1.0, tol=1e-9)
        assert len(traces) == 4
        for j, trace in enumerate(traces):
            self._assert_same_trace(trace, geodesic_ivp(pot, p0[j], v0[j], 1.0, tol=1e-9))

    def test_domain_retry_stays_with_its_member(self):
        # member 0 is the coarse-tolerance diagonal run of
        # test_coarse_step_across_polydisk_diagonal: its trial stages cross
        # the boundary and retry; the others must not notice.  Member 2 is
        # slow, so its retries differ from both
        pot = _hartogs(DomainSpec.polydisk(2), 1.0)
        p0 = np.array([[0.5, 0.5, 0.0], [0.1, -0.2j, 0.3], [0.0, 0.0, 0.0]], dtype=complex)
        v0 = np.array([[1.0, 1.0, 0.0], [0.5, 0.2, 0.1], [0.01, 0.01j, 0.02]], dtype=complex)
        traces = geodesic_batch(pot, p0, v0, 50.0, tol=1.0)
        singles = [geodesic_ivp(pot, p0[j], v0[j], 50.0, tol=1.0) for j in range(3)]
        assert singles[0].domain_retries > 0
        assert len({t.domain_retries for t in singles}) == 3
        for got, want in zip(traces, singles):
            self._assert_same_trace(got, want)

    @pytest.mark.parametrize("spec", DUAL_ROUTE_SPECS, ids=str)
    def test_outside_point_named_by_index(self, spec):
        from hartogs_geom.metric import _acceleration

        pot = _hartogs(spec, 1.3)
        p = np.stack([h_sample(pot.spec, 0.5, seed) for seed in range(5)])
        emb = polydisk_embedding(spec)
        fiber_out, base_out = p.copy(), p.copy()
        fiber_out[3, -1] = 1.01 * np.sqrt(spec.generic_norm(p[3, :-1]) ** 1.3)
        base_out[2] = np.append(emb(np.full(spec.rank, 1.2)), 0.0)
        # the base test runs first, over the whole stack, yet the earlier
        # point outside the fiber is the one named
        both = base_out.copy()
        both[1, -1] = 1.01 * np.sqrt(spec.generic_norm(p[1, :-1]) ** 1.3)
        for stack, index in ((fiber_out, 3), (base_out, 2), (both, 1)):
            with pytest.raises(DomainViolation) as info:
                pot.derivatives(stack)
            assert info.value.index == index
            with pytest.raises(DomainViolation) as info:
                _acceleration(pot, stack, np.ones_like(stack))
            assert info.value.index == index


class TestFunctionPotentialStacks:
    def test_stack_is_the_single_calls(self):
        pot = _hartogs(DomainSpec.polydisk(2), 1.3)
        jet = FunctionPotential(pot, 3)
        p = np.stack([h_sample(pot.spec, 0.5, seed) for seed in range(3)])
        x = np.ones((3, 3, 1), dtype=complex)
        got = jet.derivatives(p, x)
        for j in range(3):
            want = jet.derivatives(p[j], x[j])
            for field in ("value", "grad", "levi", "hess", "third"):
                assert np.array_equal(getattr(got, field)[j], getattr(want, field)), field
        p[1, -1] = 2.0
        with pytest.raises(DomainViolation) as info:
            jet.derivatives(p)
        assert info.value.index == 1
        # a point is the stack of one
        with pytest.raises(DomainViolation) as info:
            jet.derivatives(p[1])
        assert info.value.index == 0


class TestDistanceToSpan:
    def test_stack_matches_rows(self):
        rng = np.random.default_rng(2)
        basis = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
        pts = rng.normal(size=(9, 6)) + 1j * rng.normal(size=(9, 6))
        pts[:3] = (basis @ pts[:3, :2].T).T  # on the span
        stacked = distance_to_span(pts, basis)
        rows = np.array([distance_to_span(p, basis) for p in pts])
        assert stacked.shape == (9,)
        assert np.max(np.abs(stacked - rows)) <= 1e-14 * np.max(rows)
        assert np.max(stacked[:3]) < 1e-14
