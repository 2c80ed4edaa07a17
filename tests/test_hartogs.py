"""Tests for Cartan-Hartogs membership, potentials, lifts and slice charts."""

import numpy as np
import pytest

from hartogs_geom.domains import DomainSpec, LinearEmbedding, polydisk_embedding
from hartogs_geom.hartogs import (
    DomainPotential,
    HartogsPotential,
    HartogsSpec,
    fiber_margin,
    h_contains,
    h_sample,
    lift_automorphism_polydisk,
    lift_embedding,
    potential,
    slice_chart,
    transported_chart,
)
from hartogs_geom.metric import _metric_matrix, tg_residual
from hartogs_geom.numerics import DomainViolation

TYPES = [
    DomainSpec.type_i(2, 3),
    DomainSpec.type_ii(5),
    DomainSpec.type_iii(3),
    DomainSpec.type_iv(5),
]


class TestMembership:
    def test_origin(self):
        spec = HartogsSpec(DomainSpec.type_i(2, 2), 1.0)
        assert h_contains(spec, np.zeros(5))

    def test_fiber_inequality(self):
        spec = HartogsSpec(DomainSpec.polydisk(1), 2.0)
        # N^mu = 0.91^2 = 0.8281: |w|^2 = 0.81 < 0.8281 is inside
        assert h_contains(spec, np.array([0.3, 0.9]))
        assert not h_contains(spec, np.array([0.3, 0.91]))

    def test_boundary_is_excluded(self):
        spec = HartogsSpec(DomainSpec.polydisk(1), 1.0)
        # |w|^2 = N^mu exactly (z = 0, N = 1): strict inequality fails
        assert not h_contains(spec, np.array([0.0, 1.0]), 0.0)

    def test_mu_validation(self):
        with pytest.raises(ValueError):
            HartogsSpec(DomainSpec.polydisk(1), 0.0)

    def test_json_roundtrip(self):
        spec = HartogsSpec(DomainSpec.type_iv(6), 0.75)
        assert HartogsSpec.from_json(spec.to_json()) == spec


class TestFiberShell:
    """One expression decides fiber membership, to the last bit.

    Points on the shell |w| = N^(mu/2) (1 + k 1e-16), k in -3..3, straddle
    the fiber boundary within a few ulps; there N^mu computed as N**mu and
    as exp(mu log N) can fall on opposite sides of |w|^2.
    """

    @pytest.mark.parametrize(
        "base,mu", [(DomainSpec.type_i(2, 3), 1.3), (DomainSpec.polydisk(2), 1.7)], ids=str
    )
    def test_closed_form_and_membership_agree(self, base, mu):
        spec = HartogsSpec(base, mu)
        pot = HartogsPotential(spec)
        rng = np.random.default_rng(13)
        inside = disagree = 0
        for seed in range(300):
            z = base.sample(0.9, seed)
            radius = base.generic_norm(z) ** (mu / 2)
            phase = np.exp(2j * np.pi * rng.random())
            for k in range(-3, 4):
                p = np.append(z, radius * (1 + k * 1e-16) * phase)
                try:
                    pot.derivatives(p)
                    closed_form = True
                except DomainViolation:
                    closed_form = False
                inside += closed_form
                disagree += not (closed_form == h_contains(spec, p) == (fiber_margin(spec, p) > 0))
        assert disagree == 0
        # the shell really straddles the boundary
        assert 0 < inside < 300 * 7


class TestPotential:
    def test_value_at_origin(self):
        spec = HartogsSpec(DomainSpec.type_i(2, 2), 1.0)
        assert potential(spec, np.zeros(5)) == pytest.approx(0.0)

    def test_closed_form(self):
        spec = HartogsSpec(DomainSpec.polydisk(1), 2.0)
        got = potential(spec, np.array([0.3, 0.2]))
        assert got == pytest.approx(-np.log(0.8281 - 0.04), rel=1e-14)

    def test_outside_raises(self):
        spec = HartogsSpec(DomainSpec.polydisk(1), 1.0)
        with pytest.raises(DomainViolation):
            potential(spec, np.array([0.3, 1.0]))

    @pytest.mark.parametrize(
        "spec,z",
        [
            (DomainSpec.type_i(2, 3), polydisk_embedding(DomainSpec.type_i(2, 3))(np.full(2, 1.2))),
            (DomainSpec.polydisk(2), np.full(2, 1.2)),
        ],
        ids=["I(2,3)", "polydisk(2)"],
    )
    def test_even_crossing_base_point_rejected(self, spec, z):
        # two singular values 1.2 leave N = (1 - 1.44)^2 > 0 outside the base
        assert float(spec._norm(z)) == pytest.approx(0.1936, rel=1e-12)
        hs = HartogsSpec(spec, 1.3)
        pot = HartogsPotential(hs)
        for w in (0.0, 0.1j):
            p = np.append(z, w)
            assert pot.interior_margin(p) <= 0.0
            with pytest.raises(DomainViolation):
                pot.value(p)
            with pytest.raises(DomainViolation):
                potential(hs, p)

    def test_even_crossing_rejected_on_bare_base(self):
        # N = 0.1936 > 0 at Z = diag(1.2, 1.2), so the sign of N alone accepts it
        spec = DomainSpec.type_i(2, 3)
        pot = DomainPotential(spec)
        z = polydisk_embedding(spec)(np.full(2, 1.2))
        assert pot.interior_margin(z) <= 0.0
        with pytest.raises(DomainViolation):
            pot.value(z)

    @pytest.mark.parametrize("spec", TYPES, ids=str)
    def test_bare_base_interior_value_and_margin(self, spec):
        pot = DomainPotential(spec)
        for seed in range(4):
            z = spec.sample(0.9, seed)
            n = float(spec._norm(z))
            assert pot.interior_margin(z) == n
            assert pot.value(z) == -np.log(n)

    @pytest.mark.parametrize("spec", TYPES, ids=str)
    def test_interior_value_and_margin_formula(self, spec):
        hs = HartogsSpec(spec, 1.3)
        pot = HartogsPotential(hs)
        for seed in range(4):
            p = h_sample(hs, 0.9, seed)
            # the margin is the fiber argument that the closed form tests,
            # N^mu - |w|^2 with N^mu = exp(mu log N); the value route takes
            # N**mu - |w|^2
            margin = spec.norm_power_derivatives(p[:-1], 1.3).value - np.abs(p[-1]) ** 2
            d = float(spec._norm(p[:-1])) ** 1.3 - abs(p[-1]) ** 2
            assert pot.interior_margin(p) == margin
            assert pot.interior_margin(p) == pytest.approx(d, rel=1e-12)
            assert pot.value(p) == -np.log(d)
            assert potential(hs, p) == -np.log(d)

    @pytest.mark.parametrize("spec", TYPES, ids=str)
    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_pullback_identity(self, spec, mu):
        emb = polydisk_embedding(spec)
        r = spec.rank
        h_amb = HartogsSpec(spec, mu)
        h_poly = HartogsSpec(DomainSpec.polydisk(r), mu)
        for seed in range(20):
            p = h_sample(h_poly, 0.85, seed)
            img = np.append(emb(p[:-1]), p[-1])
            assert abs(potential(h_amb, img) - potential(h_poly, p)) < 1e-12

    def test_fiber_circle_symmetry(self):
        spec = HartogsSpec(DomainSpec.type_iii(2), 1.4)
        p = h_sample(spec, 0.8, 4)
        v0 = potential(spec, p)
        for alpha in (0.3, 1.1, 2.7):
            q = p.copy()
            q[-1] = np.exp(1j * alpha) * q[-1]
            assert abs(potential(spec, q) - v0) <= 5e-15 * max(1.0, abs(v0))

    def test_h_sample_deterministic_and_interior(self):
        spec = HartogsSpec(DomainSpec.type_ii(4), 0.8)
        p1 = h_sample(spec, 0.7, 13)
        p2 = h_sample(spec, 0.7, 13)
        assert np.array_equal(p1, p2)
        assert h_contains(spec, p1)


class TestLifts:
    def test_lift_embedding_identity_fiber(self):
        emb = polydisk_embedding(DomainSpec.type_i(2, 3))
        lifted = lift_embedding(emb)
        p = np.array([0.2, -0.3j, 0.1])
        img = lifted(p)
        assert img[-1] == p[-1]
        assert np.allclose(img[:-1], emb(p[:-1]))

    def test_identity_lift(self):
        lift = lift_automorphism_polydisk([0.0, 0.0], [0.0, 0.0], 1.5)
        p = np.array([0.1, -0.2j, 0.3])
        assert np.allclose(lift(p), p)

    def test_rotation_lift_has_unit_fiber_factor(self):
        lift = lift_automorphism_polydisk([0.0], [1.234], 2.0)
        p = np.array([0.5, 0.25j])
        img = lift(p)
        assert img[1] == p[1]
        assert img[0] == pytest.approx(np.exp(1.234j) * 0.5)

    def test_center_validation(self):
        with pytest.raises(ValueError):
            lift_automorphism_polydisk([1.0], [0.0], 1.0)

    def test_membership_preserved(self):
        spec = HartogsSpec(DomainSpec.polydisk(2), 1.3)
        lift = lift_automorphism_polydisk([0.4, -0.2 + 0.1j], [0.7, -0.4], 1.3)
        for seed in range(200):
            p = h_sample(spec, 0.95, seed)
            assert h_contains(spec, lift(p), 0.0)

    def test_metric_pullback_isometry(self):
        mu = 1.0
        spec = HartogsSpec(DomainSpec.polydisk(1), mu)
        pot = HartogsPotential(spec)
        lift = lift_automorphism_polydisk([0.4], [0.0], mu)
        for seed in range(25):
            p = h_sample(spec, 0.8, seed)
            g_here = _metric_matrix(pot, p)
            g_there = _metric_matrix(pot, lift(p))
            jac = lift.jacobian(p)
            pulled = jac.T @ g_there @ np.conj(jac)
            assert np.max(np.abs(pulled - g_here)) < 1e-9

    def test_rotation_composition_exact(self):
        p = np.array([0.3 - 0.2j, 0.1j, 0.4])
        l1 = lift_automorphism_polydisk([0, 0], [0.3, -0.8], 1.7)
        l2 = lift_automorphism_polydisk([0, 0], [1.1, 0.5], 1.7)
        l12 = lift_automorphism_polydisk([0, 0], [1.4, -0.3], 1.7)
        assert np.max(np.abs(l1(l2(p)) - l12(p))) < 1e-15

    def test_inverse_roundtrip(self):
        lift = lift_automorphism_polydisk([0.3 + 0.2j, -0.4], [0.9, 0.2], 0.7)
        spec = HartogsSpec(DomainSpec.polydisk(2), 0.7)
        p = h_sample(spec, 0.8, 21)
        assert np.max(np.abs(lift.inverse()(lift(p)) - p)) < 1e-14


class TestSliceCharts:
    def test_polydisk_slice_shape(self):
        spec = HartogsSpec(DomainSpec.type_i(2, 3), 1.5)
        chart = slice_chart(spec, polydisk_embedding(spec.base))
        assert chart.source.rank == 2
        q = np.array([0.2, -0.1j, 0.3])
        p = chart.embed(q)
        assert len(p) == 7
        assert p[-1] == q[-1]

    def test_factor_slice(self):
        base = DomainSpec.polydisk(2)
        spec = HartogsSpec(base, 1.0)
        mat = np.array([[1.0], [0.0]], dtype=complex)
        emb = LinearEmbedding(DomainSpec.polydisk(1), base, mat)
        chart = slice_chart(spec, emb)
        p = chart.embed(np.array([0.4, 0.2]))
        assert np.allclose(p, [0.4, 0.0, 0.2])

    def test_target_mismatch(self):
        spec = HartogsSpec(DomainSpec.type_i(2, 2), 1.0)
        with pytest.raises(ValueError):
            slice_chart(spec, polydisk_embedding(DomainSpec.type_i(2, 3)))

    def test_transported_chart_stays_totally_geodesic(self):
        # factor slice of the 3-polydisk pushed through a Moebius lift
        base = DomainSpec.polydisk(3)
        spec = HartogsSpec(base, 1.2)
        pot = HartogsPotential(spec)
        mat = np.zeros((3, 1), dtype=complex)
        mat[0, 0] = 1.0
        chart = slice_chart(spec, LinearEmbedding(DomainSpec.polydisk(1), base, mat))
        lift = lift_automorphism_polydisk([0.3, -0.2 + 0.25j, 0.15j], [0.4, 0.0, -1.0], 1.2)
        moved = transported_chart(chart, lift)
        for seed in range(5):
            q = moved.sample(0.6, seed)
            assert tg_residual(pot, moved, q) < 1e-9
