"""Tests for the sequence-space embedding and linear-support classification."""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartogs_geom.domains import DomainSpec
from hartogs_geom.hartogs import HartogsSpec, potential
from hartogs_geom.l2embed import (
    GeodesicClass,
    Truncation,
    embed,
    line_constraints,
    line_deviation,
    norm_residual,
    norm_table,
    series_residual,
)
from hartogs_geom.l2embed import _binomial_rows, _multi_indices, _truncated_product

from _oracles import dop853_geodesic, series_residual_loops, truncated_product_loop


class TestEmbed:
    def test_pure_fiber_log_series(self):
        # at z = 0 only the k = 0 fiber components survive
        f = embed(1, 2.0, [0.0], 0.4, Truncation(8, 80))
        got = float(np.sum(np.abs(f) ** 2))
        assert got == pytest.approx(-np.log(1 - 0.16), rel=1e-12)

    def test_base_only_log_series(self):
        f = embed(2, 1.5, [0.3, -0.2j], 0.0, Truncation(80, 5))
        want = -1.5 * np.log((1 - 0.09) * (1 - 0.04))
        assert float(np.sum(np.abs(f) ** 2)) == pytest.approx(want, rel=1e-12)
        # every fiber-coupled component carries a power of w
        n_psi = 2 * 80
        assert np.all(f[n_psi:] == 0)

    def test_norm_identity_at_moderate_truncation(self):
        p = np.array([0.3, 0.2])
        assert norm_residual(1, 2.0, p, Truncation(40, 40)) < 1e-10
        f = embed(1, 2.0, p[:1], p[1], Truncation(40, 40))
        total = float(np.sum(np.abs(f) ** 2))
        assert total == pytest.approx(-np.log(0.91**2 - 0.04), abs=1e-10)
        assert total == pytest.approx(potential(HartogsSpec(DomainSpec.polydisk(1), 2.0), p), abs=1e-10)

    def test_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            embed(1, 2.0, [0.3], 0.95, Truncation(10, 10))

    def test_residual_zero_at_origin(self):
        assert norm_residual(2, 1.0, np.zeros(3), Truncation(10, 10)) == 0.0

    def test_residual_monotone_in_truncation(self):
        p = np.array([0.5, 0.5])
        vals = [norm_residual(1, 3.0, p, Truncation(k, k)) for k in (10, 20, 40, 60)]
        for a, b in zip(vals, vals[1:]):
            assert b < a or b < 1e-14

    def test_tail_bound_scaling(self):
        # residual shrinks at least geometrically when truncation doubles
        p = np.array([0.45, 0.4])
        r20 = norm_residual(1, 2.0, p, Truncation(20, 20))
        r40 = norm_residual(1, 2.0, p, Truncation(40, 40))
        assert r40 < r20 * 0.05


def _interior_point(r, mu, seed):
    rng = np.random.default_rng(seed)
    z = 0.7 * np.sqrt(rng.random(r)) * np.exp(2j * np.pi * rng.random(r))
    fiber = np.sqrt(np.prod(1 - np.abs(z) ** 2) ** mu)
    return z, 0.8 * fiber * np.exp(2j * np.pi * rng.random())


class TestNormTable:
    """Degree-summed squared norms against the explicit components of `embed`."""

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("mu", [0.5, 1.0, 1.5, 3.0])
    @pytest.mark.parametrize("where", ["interior", "z=0", "w=0", "origin"])
    def test_matches_embed(self, r, mu, where):
        z, w = _interior_point(r, mu, 10 * r + int(2 * mu))
        if where in ("z=0", "origin"):
            z = np.zeros(r)
        if where in ("w=0", "origin"):
            w = 0.0
        size = Truncation(9, 7)
        table = norm_table(r, mu, z, w, size)
        phi = potential(HartogsSpec(DomainSpec.polydisk(r), mu), np.append(z, w))
        # k_max = 0, k_max < a_max, k_max > a_max, and the full table
        for k_max, a_max in ((0, 4), (3, 7), (9, 2), (9, 7)):
            trunc = Truncation(k_max, a_max)
            want = float(np.sum(np.abs(embed(r, mu, z, w, trunc)) ** 2))
            got = table.norm_sq(trunc)
            assert abs(got - want) <= 1e-14 * want
            assert got == norm_table(r, mu, z, w, trunc).norm_sq(trunc)
            resid = norm_residual(r, mu, np.append(z, w), trunc)
            assert resid == pytest.approx(abs(want - phi), rel=1e-14, abs=1e-14 * phi)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.sampled_from([(1, 1), (1, 5), (7, 1), (6, 0), (5, 9), (12, 3), (61, 60)]),
        mu=st.sampled_from([1 / 3, 0.5, 1.5, 7.1]),
        x=st.tuples(st.sampled_from([0.0, 0.3, 0.99]), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_truncated_product_matches_loop(self, shape, mu, x, seed):
        # the strided Toeplitz contraction gives the shifted sum's floats,
        # bit for bit, on the coefficient columns that `norm_table` multiplies
        n, cols = shape
        binom = _binomial_rows(mu, max(cols, 1), n - 1).T[:, :cols]
        weights = np.random.default_rng(seed).random(cols)
        p = binom * (x[0] ** np.arange(n))[:, None] * weights
        c = binom * (x[1] ** np.arange(n))[:, None]
        got, want = _truncated_product(p, c), truncated_product_loop(p, c)
        assert got.shape == want.shape == (n, cols)
        assert np.array_equal(got, want)

    def test_truncation_beyond_table_rejected(self):
        table = norm_table(2, 1.0, [0.1, 0.2], 0.1, Truncation(5, 5))
        with pytest.raises(ValueError):
            table.norm_sq(Truncation(6, 5))
        with pytest.raises(ValueError):
            table.norm_sq(Truncation(5, 6))

    def test_overflowing_coefficients_rejected(self):
        # C(mu a + k - 1, k) overflows a float: a ValueError naming mu and
        # the table size, on both routes that read the coefficient table
        with pytest.raises(ValueError, match=r"mu = 1e\+10 .* a <= 60, k <= 60"):
            norm_table(2, 1e10, [0.0, 0.0], 0.05, Truncation(60, 60))
        with pytest.raises(ValueError, match="mu = 1.5"):
            embed(1, 1.5, [0.0], 0.05, Truncation(500, 500))

    def test_residual_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            norm_residual(1, 2.0, np.array([0.3, 0.95]), Truncation(10, 10))
        with pytest.raises(ValueError):
            norm_residual(2, 2.0, np.array([1.2, 1.2, 0.0]), Truncation(10, 10))


class TestSeriesResidual:
    def test_order_zero_forces_flat_second_derivative(self):
        xi = np.array([0.5, 0.3j, 0.7])
        c2 = 0.25
        res = series_residual(2, 1.3, xi, [0, 1, c2, 0, 0, 0], 0)
        want = np.array(
            [1.3 * np.conj(xi[0]) * 2 * c2, 1.3 * np.conj(xi[1]) * 2 * c2, np.conj(xi[2]) * 2 * c2]
        )
        assert np.max(np.abs(res - want)) < 1e-12
        res0 = series_residual(2, 1.3, xi, [0, 1, 0, 0, 0, 0], 0)
        assert np.max(np.abs(res0)) < 1e-14

    def test_order_one_closed_form(self):
        xi = np.array([0.5, 0.3j, 0.7])
        mu, v3 = 1.3, 0.37
        res = series_residual(2, mu, xi, [0, 1, 0, v3 / 6, 0, 0], 1)
        s = abs(xi[0]) ** 2 + abs(xi[1]) ** 2
        want_fiber = np.conj(xi[2]) * (v3 + 2 * abs(xi[2]) ** 2 + 2 * mu * s)
        want_base0 = mu * np.conj(xi[0]) * (v3 + 2 * abs(xi[0]) ** 2 + 2 * abs(xi[2]) ** 2)
        assert abs(res[2] - want_fiber) < 1e-12
        assert abs(res[0] - want_base0) < 1e-12

    @pytest.mark.parametrize(
        "r,mu,xi",
        [
            (1, 1.0, [0.7, 0.5]),
            (2, 0.5, [0.5, 0.5, 0.6]),
            (2, 1.7, [0.4, 0.3, 0.5]),
            (3, 2.0, [0.3, 0.4, 0.2, 0.5]),
        ],
    )
    def test_order_three_hand_expansion(self, r, mu, xi):
        # [(v^2)'' v]'''(0) = 26 v'''(0) and [(v^3)'' v^2]'''(0) = 36 feed the
        # fifth-order closed forms; binomial weights from (1-x)^(-mu a)
        xi = np.asarray(xi, dtype=complex)
        c3, c5 = -0.21, 0.037
        got = series_residual(r, mu, xi, [0, 1, 0, c3, 0, c5], 3)
        a2 = np.abs(xi) ** 2
        v3, v5 = 6 * c3, 120 * c5
        s = float(np.sum(a2[:r]))
        quad = sum(mu * (mu + 1) / 2 * a2[j] ** 2 for j in range(r)) + sum(
            mu**2 * a2[j] * a2[l] for j in range(r) for l in range(j + 1, r)
        )
        want = np.zeros(r + 1, dtype=complex)
        want[r] = np.conj(xi[r]) * (
            v5 + 26 * v3 * (mu * s + a2[r]) + 36 * (quad + 2 * mu * a2[r] * s + a2[r] ** 2)
        )
        for t in range(r):
            cross = sum(a2[l] for l in range(r) if l != t)
            want[t] = (
                mu
                * np.conj(xi[t])
                * (
                    v5
                    + 26 * v3 * (a2[t] + a2[r])
                    + 36
                    * (a2[t] ** 2 + (mu + 1) * a2[t] * a2[r] + mu * cross * a2[r] + a2[r] ** 2)
                )
            )
        assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), rank_one=st.booleans())
    def test_matches_the_term_loops(self, r, order, seed, rank_one):
        # random profiles and directions, some components exactly zero, and
        # mu on and off the hyperbolic-space condition r mu = 1
        rng = np.random.default_rng(seed)
        mu = 1.0 / r if rank_one else float(rng.uniform(0.2, 3.0))
        xi = rng.normal(size=r + 1) + 1j * rng.normal(size=r + 1)
        xi[rng.random(r + 1) < 0.3] = 0.0
        v = np.concatenate([[0.0, 1.0], rng.normal(size=4) + 1j * rng.normal(size=4)])
        got = series_residual(r, mu, xi, v, order)
        want = series_residual_loops(r, mu, xi, v, order)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            series_residual(1, 1.0, [1, 1], [0.1, 1, 0, 0, 0, 0], 1)
        with pytest.raises(ValueError):
            series_residual(1, 1.0, [1, 1], [0, 1, 0, 0, 0, 0], 4)


class TestLineConstraints:
    def test_pure_base(self):
        v = line_constraints(1, 2.0, [1.0, 0.0])
        assert v.klass == GeodesicClass.IN_BASE

    def test_pure_base_reads_the_active_moduli(self):
        # the base polydisk's geodesic tanh(c |xi_j| t) xi_j / |xi_j| leaves
        # the line unless the active moduli agree
        unequal = np.array([1.0, 2.0, 0.0]) / np.sqrt(5)
        v = line_constraints(2, 0.5, unequal)
        assert v.klass == GeodesicClass.IMPOSSIBLE
        assert v.constraints.third_spread == pytest.approx(2.0 * (4 - 1) / 5)
        assert line_deviation(2, 0.5, unequal, 0.5) > 1e-3
        equal = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        v = line_constraints(2, 0.5, equal)
        assert v.klass == GeodesicClass.IN_BASE
        assert v.constraints.third_derivative == pytest.approx(-1.0)
        assert line_deviation(2, 0.5, equal, 0.5) < 1e-6

    def test_pure_fiber(self):
        v = line_constraints(3, 0.5, [0, 0, 0, 1.0])
        assert v.klass == GeodesicClass.IN_FIBER
        assert v.constraints.third_derivative == pytest.approx(-2.0)

    def test_ball_case(self):
        v = line_constraints(1, 1.0, np.array([1.0, 1.0]) / np.sqrt(2))
        assert v.klass == GeodesicClass.HYPERBOLIC_SPACE
        # v''' = -2(|xi_s|^2 + |xi_0|^2) = -2 for a unit direction
        assert v.constraints.third_derivative == pytest.approx(-2.0)

    def test_modulus_mismatch_impossible(self):
        v = line_constraints(1, 2.0, np.array([1.0, 1.0]) / np.sqrt(2))
        assert v.klass == GeodesicClass.IMPOSSIBLE
        assert v.constraints.muxi_consistent is False

    def test_rank_mu_product_obstruction(self):
        v = line_constraints(2, 1.0, np.ones(3) / np.sqrt(3))
        assert v.klass == GeodesicClass.IMPOSSIBLE
        assert v.constraints.rank_mu == pytest.approx(2.0)

    def test_reciprocal_exponent_diagonal_case(self):
        # r mu = 1 with equal moduli: tangent to a diagonal CH^2 slice
        v = line_constraints(2, 0.5, np.ones(3) / np.sqrt(3))
        assert v.klass == GeodesicClass.HYPERBOLIC_SPACE
        assert v.constraints.fifth_consistent is True

    def test_phase_invariance(self):
        rng = np.random.default_rng(0)
        for mu, r in ((0.5, 2), (1.0, 1), (2.0, 3)):
            xi = np.ones(r + 1) / np.sqrt(r + 1)
            base = line_constraints(r, mu, xi).klass
            for _ in range(3):
                phases = np.exp(2j * np.pi * rng.random(r + 1))
                assert line_constraints(r, mu, xi * phases).klass == base

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            line_constraints(1, 1.0, [0.0, 0.0])

    @pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("k_max", [0, 1, 5, 8])
    def test_multi_indices_are_the_filtered_product(self, r, k_max):
        want = [k for k in itertools.product(range(k_max + 1), repeat=r) if sum(k) <= k_max]
        want.sort(key=lambda k: (sum(k), k))
        assert list(_multi_indices(r, k_max)) == want

    def test_high_rank_verdict_is_fast(self):
        # 6435 multi-indices at r = 7: enumerated by total degree, not
        # filtered from the 9^7 tuples of the product
        start = time.perf_counter()
        line_constraints(7, 1 / 7, np.ones(8) / np.sqrt(8))
        assert time.perf_counter() - start < 5.0


class TestLineDeviation:
    def test_scan_grid_against_the_oracle(self):
        # fewer, longer steps must not thin the check that reads the trace
        # points: on the benchmark's scan grid every curved cell's deviation
        # is within 1 % of the DOP853 oracle's, and every linear cell stays
        # below the scan's bound
        from hartogs_geom.cli import SCAN_LINEAR_MAX, _scan_directions
        from hartogs_geom.hartogs import HartogsPotential
        from hartogs_geom.metric import distance_to_span

        for mu, r in itertools.product([0.5, 2.0], [1, 2, 3]):
            dirs = np.stack([xi for _, xi in _scan_directions(r)])
            got = line_deviation(r, mu, dirs, 0.5)
            pot = HartogsPotential(HartogsSpec(DomainSpec.polydisk(r), mu))
            for xi, dev in zip(dirs, got):
                _, path, _ = dop853_geodesic(pot, np.zeros(r + 1), xi, 0.5)
                want = float(np.max(distance_to_span(path, xi[:, None])))
                if line_constraints(r, mu, xi).klass == GeodesicClass.IMPOSSIBLE:
                    assert dev == pytest.approx(want, rel=0.01), (mu, r, xi)
                else:
                    assert dev < SCAN_LINEAR_MAX, (mu, r, xi)

    def test_fiber_direction_linear(self):
        assert line_deviation(2, 1.5, [0, 0, 1.0], 1.0) < 1e-9

    def test_zero_step_cell_raises(self):
        # at mu = 1e6 the pure-base geodesic from the origin stops within the
        # boundary margin before its first step; its deviation would read a
        # vacuous 0, so the member that never moved is named instead
        from hartogs_geom.metric import IntegrationError

        dirs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        msg = "member 1 overflowed: it stopped within the boundary margin before its first step"
        with pytest.raises(IntegrationError, match=msg) as info:
            line_deviation(2, 1e6, dirs, 0.5)
        assert info.value.member == 1
        assert line_deviation(2, 1e6, dirs[0], 0.5) < 1e-9  # the fiber member alone moves

    def test_ball_mixed_direction_linear(self):
        assert line_deviation(1, 1.0, np.array([0.6, 0.8]), 1.0) < 1e-7

    def test_mismatch_curves_away(self):
        # regression fixture frozen from the tol=1e-10 integration
        dev = line_deviation(1, 2.0, np.array([1.0, 1.0]) / np.sqrt(2), 0.5)
        assert dev > 1e-4
        assert dev == pytest.approx(0.008480927483601984, abs=1e-7)

    @pytest.mark.parametrize(
        "r,mu,xi,linear",
        [
            (2, 0.5, np.ones(3) / np.sqrt(3), True),
            (2, 1.0, np.ones(3) / np.sqrt(3), False),
            (1, 1.0, np.array([1.0, 2.0]) / np.sqrt(5), True),
            (2, 0.5, np.array([1.0, 2.0, 1.0]) / np.sqrt(6), False),
            # reciprocal-exponent diagonals beyond the acceptance grid
            (3, 1.0 / 3.0, np.ones(4) / 2.0, True),
            (4, 0.25, np.ones(5) / np.sqrt(5), True),
            (4, 0.5, np.ones(5) / np.sqrt(5), False),
            # vanishing base components reduce the effective rank: the
            # direction lives in a smaller factor slice, where r_eff mu = 1
            (3, 0.5, np.array([0.5, 0.5, 0.0, 0.5 * np.sqrt(2)]), True),
            (3, 0.5, np.array([0.5, 0.0, 0.0, 0.5 * np.sqrt(3)]), False),
        ],
    )
    def test_agreement_with_constraints(self, r, mu, xi, linear):
        verdict = line_constraints(r, mu, xi)
        dev = line_deviation(r, mu, xi, 0.5)
        if linear:
            assert verdict.klass != GeodesicClass.IMPOSSIBLE
            assert dev < 1e-6
        else:
            assert verdict.klass == GeodesicClass.IMPOSSIBLE
            assert dev > 1e-5

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_agreement(self, seed):
        # random phases everywhere; moduli either exactly equal (with
        # mu = 1/r) or separated by >= 1.5x so the verdict is unambiguous
        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, 4))
        phases = np.exp(2j * np.pi * rng.random(r + 1))
        if seed % 2 == 0:
            mu = 1.0 / r
            moduli = np.full(r + 1, 0.5)
            moduli[r] = 0.4 + 0.4 * rng.random()
            expect_linear = True
        else:
            mu = float(rng.choice([0.5, 1.5, 2.5]))
            moduli = 0.4 * 1.5 ** np.arange(r + 1)
            rng.shuffle(moduli[:r])
            expect_linear = r == 1 and mu == 1.0
        xi = moduli * phases
        xi /= np.linalg.norm(xi)
        verdict = line_constraints(r, mu, xi)
        dev = line_deviation(r, mu, xi, 0.5)
        if expect_linear:
            assert verdict.klass == GeodesicClass.HYPERBOLIC_SPACE
            assert dev < 1e-6
        else:
            assert verdict.klass == GeodesicClass.IMPOSSIBLE
            assert dev > 1e-5
