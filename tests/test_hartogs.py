"""Tests for Cartan-Hartogs membership, potentials, lifts and slice charts."""

import numpy as np
import pytest

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
    lift_embedding,
    potential,
    slice_chart,
    transported_chart,
    _draw_fiber,
    _seed_generators,
)
from hartogs_geom.metric import FunctionPotential, _metric_matrix, tg_residual
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

    @pytest.mark.parametrize(
        "base", [DomainSpec.type_i(2, 2), DomainSpec.polydisk(2), DomainSpec.type_iv(5)], ids=str
    )
    @pytest.mark.parametrize("w", [1e200, -1e200j, np.inf], ids=str)
    def test_far_fiber_coordinate(self, base, w):
        # |w| is capped at 2 before it is squared: no overflow warning, and
        # the row is outside on every route
        spec = HartogsSpec(base, 1.3)
        pot = HartogsPotential(spec)
        p = h_sample(spec, 0.9, [1, 2])
        p[1, -1] = w
        assert not h_contains(spec, p[1])
        assert pot.interior_margin(p[1]) <= 0.0
        with pytest.raises(DomainViolation) as exc:
            pot.derivatives(p)
        assert exc.value.index == 1

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
                disagree += not (closed_form == h_contains(spec, p) == (pot.interior_margin(p) > 0))
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

    @pytest.mark.parametrize("spec", TYPES + [DomainSpec.polydisk(2)], ids=str)
    def test_nan_point_rejected(self, spec):
        hs = HartogsSpec(spec, 1.3)
        p = h_sample(hs, 0.9, range(3))
        p[1, 0] = np.nan
        with pytest.raises(DomainViolation) as info:
            potential(hs, p)
        assert info.value.index == 1

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
            # the margin is D = N = exp(log N), the argument the closed form
            # tests; the determinant route agrees to rounding
            n = spec.norm_power_derivatives(z, 1.0).value
            assert pot.interior_margin(z) == n
            assert pot.interior_margin(z) == pytest.approx(float(spec._norm(z)), rel=1e-12)
            assert pot.value(z) == -np.log(n)

    @pytest.mark.parametrize("spec", TYPES, ids=str)
    def test_interior_value_and_margin_formula(self, spec):
        hs = HartogsSpec(spec, 1.3)
        pot = HartogsPotential(hs)
        for seed in range(4):
            p = h_sample(hs, 0.9, seed)
            # the margin is the fiber argument that the closed form tests,
            # N^mu - |w|^2 with N^mu = exp(mu log N), and the value is -log
            # of it; the determinant route N**mu - |w|^2 agrees to rounding
            margin = spec.norm_power_derivatives(p[:-1], 1.3).value - np.abs(p[-1]) ** 2
            d = float(spec._norm(p[:-1])) ** 1.3 - abs(p[-1]) ** 2
            assert pot.interior_margin(p) == margin
            assert pot.interior_margin(p) == pytest.approx(d, rel=1e-12)
            assert pot.value(p) == -np.log(pot.interior_margin(p))
            assert potential(hs, p) == pot.value(p)
            assert pot.value(p) == pytest.approx(-np.log(d), rel=1e-12)

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


STACK_SPECS = [
    DomainSpec.type_i(2, 3),
    DomainSpec.type_ii(5),
    DomainSpec.type_iii(3),
    DomainSpec.type_iv(5),
    DomainSpec.polydisk(2),
    DomainSpec.product(DomainSpec.type_i(1, 2), DomainSpec.type_iii(2)),
]


def _polydisk_point(spec, radius):
    """The embedded polydisk point with every coordinate `radius`."""
    emb = polydisk_embedding(spec)
    return emb(np.full(spec.rank, radius))


class TestStackedValue:
    """Plain evaluation and sampling over a stack (B, n)."""

    @pytest.mark.parametrize("spec", STACK_SPECS, ids=str)
    def test_stack_equals_single_calls(self, spec):
        hs = HartogsSpec(spec, 1.3)
        pot = HartogsPotential(hs)
        p = h_sample(hs, 0.9, range(40, 52))
        assert p.shape == (12, hs.n_coords)
        for j, seed in enumerate(range(40, 52)):
            assert np.array_equal(p[j], h_sample(hs, 0.9, seed))
        values = pot.value(p)
        assert values.shape == (12,)
        assert values.tolist() == [pot.value(q) for q in p]
        assert np.array_equal(potential(hs, p), values)
        assert np.array_equal(pot(p), values)

    @pytest.mark.parametrize("spec", STACK_SPECS, ids=str)
    def test_value_matches_jet_and_determinant_routes(self, spec):
        hs = HartogsSpec(spec, 1.3)
        pot = HartogsPotential(hs)
        jet = FunctionPotential(pot, hs.n_coords)
        p = h_sample(hs, 0.95, range(8))
        values = pot.value(p)
        for q, got in zip(p, values):
            det_route = -np.log(float(spec._norm(q[:-1])) ** 1.3 - abs(q[-1]) ** 2)
            assert got == pytest.approx(det_route, rel=1e-12, abs=0)
            assert got == pytest.approx(jet.derivatives(q).value, rel=1e-12, abs=0)

    @pytest.mark.parametrize("spec", STACK_SPECS, ids=str)
    def test_outside_point_named_by_index(self, spec):
        hs = HartogsSpec(spec, 1.3)
        p = h_sample(hs, 0.5, range(5))
        fiber_out, base_out = p.copy(), p.copy()
        fiber_out[2, -1] = 1.01 * np.sqrt(spec.generic_norm(p[2, :-1]) ** 1.3)
        base_out[3] = np.append(_polydisk_point(spec, 1.2), 0.0)
        if spec.rank % 2 == 0:
            # an even crossing: N > 0 although the point is outside the base
            assert float(spec._norm(base_out[3, :-1])) > 0.0
        for stack, index in ((fiber_out, 2), (base_out, 3)):
            for evaluate in (HartogsPotential(hs).value, lambda q: potential(hs, q)):
                with pytest.raises(DomainViolation) as info:
                    evaluate(stack)
                assert info.value.index == index

    def test_later_factor_after_fiber_point(self):
        # point 1 lies outside the fiber; point 3 lies outside the second
        # factor only, which is tested after the first factor and before the
        # fiber, yet point 1 is the one named
        spec = DomainSpec.product(DomainSpec.type_i(1, 2), DomainSpec.type_iii(2))
        hs = HartogsSpec(spec, 1.3)
        p = h_sample(hs, 0.5, range(5))
        p[1, -1] = 1.01 * np.sqrt(spec.generic_norm(p[1, :-1]) ** 1.3)
        p[3, 2:-1] = 1.2
        assert spec.irreducible_factors[0].contains(p[3, :2])
        with pytest.raises(DomainViolation) as info:
            potential(hs, p)
        assert info.value.index == 1

    @pytest.mark.parametrize("spec", STACK_SPECS, ids=str)
    def test_rejected_members_redraw_from_their_own_streams(self, spec, monkeypatch):
        # widened candidates get rejected; each member must still get the
        # point it gets alone, drawn again from its own generator
        draw = DomainSpec._draw
        drawn = []

        def wide(self, shrink, rngs):
            drawn.append(len(rngs))
            return 2.0 * draw(self, shrink, rngs)

        monkeypatch.setattr(DomainSpec, "_draw", wide)
        hs = HartogsSpec(spec, 1.3)
        p = h_sample(hs, 0.8, range(20))
        assert sum(drawn) > 20
        assert spec.contains(p[:, :-1], 1.0 - 0.8**2).all()
        for j in range(20):
            assert np.array_equal(p[j], h_sample(hs, 0.8, j))


# every word count from one to five, and the edges of one and two words
ORACLE_SEEDS = [*range(5000), 2**31 - 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 + 3]


class TestSeeding:
    """The stacked SeedSequence hash against NumPy's own, seed by seed."""

    def test_words_and_streams_equal_numpy(self):
        # one stack mixing word counts: the rounds of words past the fourth
        # must reach only the rows that have them
        rngs = _seed_generators(ORACLE_SEEDS)
        assert len(rngs) == len(ORACLE_SEEDS)
        for s, rng in zip(ORACLE_SEEDS, rngs):
            words = np.random.SeedSequence(s).generate_state(4, np.uint64)
            assert np.array_equal(rng.bit_generator.seed_seq.generate_state(4, np.uint64), words), s
            assert np.array_equal(rng.random(3), np.random.default_rng(s).random(3)), s

    @pytest.mark.parametrize("size", [1, 2, 17, 64])
    def test_stack_sizes(self, size):
        # the last members carry the wide seeds; every member's state row
        # must be read whole, not strided across its neighbours
        seeds = ORACLE_SEEDS[-size:]
        for s, rng in zip(seeds, _seed_generators(seeds)):
            ref = np.random.default_rng(s)
            assert rng.bit_generator.state == ref.bit_generator.state, s
            assert np.array_equal(rng.random(16), ref.random(16)), s

    def test_negative_and_non_integer_seeds_raise_as_numpy(self):
        for bad, error in ((-1, ValueError), (1.5, TypeError)):
            with pytest.raises(error):
                np.random.default_rng(bad)
            with pytest.raises(error):
                _seed_generators([3, bad])
        hs = HartogsSpec(DomainSpec.type_i(2, 3), 1.3)
        with pytest.raises(ValueError):
            h_sample(hs, 0.5, range(-2, 3))
        with pytest.raises(ValueError):
            hs.base.sample(0.5, -1)

    def test_samplers_draw_default_rng_streams(self):
        # the point of seed s is the one that default_rng(s) draws
        spec = DomainSpec.type_iii(3)
        for s in (0, 2**32 + 5):
            expected = spec._sample_stack(0.5, [np.random.default_rng(s)])[0]
            assert np.array_equal(spec.sample(0.5, s), expected)


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


def _stack_charts():
    """Slice charts of every family, factor and diagonal slices of the 2- and
    3-polydisk, and a factor slice pushed through a Moebius lift."""
    charts = {}
    for base, mu in [
        (DomainSpec.type_i(2, 3), 1.5),
        (DomainSpec.type_ii(4), 0.7),
        (DomainSpec.type_iii(3), 2.0),
        (DomainSpec.type_iv(6), 1.1),
    ]:
        name = f"polydisk-{base.kind}{base.params}"
        charts[name] = slice_chart(HartogsSpec(base, mu), polydisk_embedding(base))
    for r in (2, 3):
        base = DomainSpec.polydisk(r)
        factor = np.zeros((r, 1), dtype=complex)
        factor[0, 0] = 1.0
        diagonal = np.zeros((r, 1), dtype=complex)
        diagonal[:2, 0] = 1.0
        for name, mat in (("factor", factor), ("diagonal", diagonal)):
            emb = LinearEmbedding(DomainSpec.polydisk(1), base, mat)
            charts[f"{name}-polydisk{r}"] = slice_chart(HartogsSpec(base, 1.4), emb)
    lift = lift_automorphism_polydisk([0.3, -0.2 + 0.25j, 0.15j], [0.4, 0.0, -1.0], 1.4)
    charts["transported-polydisk3"] = transported_chart(charts["factor-polydisk3"], lift)
    return charts


STACK_CHARTS = _stack_charts()


class TestStackedCharts:
    """A chart samples, embeds and spans tangents over a stack, giving every
    row the floats it gets alone."""

    @pytest.mark.parametrize("name", STACK_CHARTS)
    def test_sample_over_seeds_is_the_single_samples(self, name):
        chart = STACK_CHARTS[name]
        qs = chart.sample(0.7, range(3, 15))
        assert qs.shape == (12, chart.n_params)
        for j, seed in enumerate(range(3, 15)):
            assert qs[j].tolist() == chart.sample(0.7, seed).tolist()
            assert h_contains(chart.ambient, chart.embed(qs[j]))

    @pytest.mark.parametrize(
        "base",
        [
            DomainSpec.type_i(2, 3),
            DomainSpec.type_iii(3),
            DomainSpec.type_iv(6),
            DomainSpec.type_ii(4),
            DomainSpec.polydisk(3),
        ],
        ids=str,
    )
    def test_identity_chart_samples_are_h_sample(self, base):
        # both samplers draw the fiber under the N^mu that decides membership
        spec = HartogsSpec(base, 1.3)
        identity = LinearEmbedding(base, base, np.eye(base.dim, dtype=complex))
        chart = slice_chart(spec, identity)
        seeds = range(300)
        assert chart.sample(0.7, seeds).tolist() == h_sample(spec, 0.7, seeds).tolist()

    @pytest.mark.parametrize("shrink", [0.0, 1.5])
    def test_shrink_outside_unit_interval_rejected(self, shrink):
        spec = HartogsSpec(DomainSpec.type_i(2, 3), 1.5)
        chart = slice_chart(spec, polydisk_embedding(spec.base))
        with pytest.raises(ValueError, match="shrink"):
            h_sample(spec, shrink, range(3))
        with pytest.raises(ValueError, match="shrink"):
            chart.sample(shrink, 1)

    @pytest.mark.parametrize("name", STACK_CHARTS)
    def test_embed_and_tangent_basis_on_stacks(self, name):
        chart = STACK_CHARTS[name]
        qs = chart.sample(0.7, range(9))
        points, bases = chart.embed(qs), chart.tangent_basis(qs)
        n = chart.ambient.n_coords
        assert points.shape == (9, n) and bases.shape == (9, n, chart.n_params)
        for j, q in enumerate(qs):
            assert points[j].tolist() == chart.embed(q).tolist()
            assert bases[j].tolist() == chart.tangent_basis(q).tolist()

    def test_lift_on_stacks(self):
        lift = lift_automorphism_polydisk([0.3 + 0.2j, -0.4], [0.9, 0.2], 0.7)
        p = h_sample(HartogsSpec(DomainSpec.polydisk(2), 0.7), 0.8, range(6))
        images, jacobians = lift(p), lift.jacobian(p)
        factors = lift.fiber_factor(p[:, :-1])
        for j, pj in enumerate(p):
            assert images[j].tolist() == lift(pj).tolist()
            assert jacobians[j].tolist() == lift.jacobian(pj).tolist()
            assert factors[j] == lift.fiber_factor(pj[:-1])


class TestEmptyFiberMessage:
    """A sampler that meets an empty fiber names the row's seed and the cause."""

    def _draw(self, spec, z):
        seeds = range(10, 10 + len(z))
        return _draw_fiber(spec, z, 1.0, 0.9, [np.random.default_rng(s) for s in seeds], seeds)

    def test_base_point_outside(self):
        z = np.zeros((3, 6), dtype=complex)
        z[1, 0] = 1.1  # sum |z|^2 > 1
        with pytest.raises(ValueError, match="sampled base point of seed 11 lies outside the base"):
            self._draw(HartogsSpec(DomainSpec.type_iv(6), 1.3), z)

    def test_mu_too_large(self):
        z = np.zeros((3, 4), dtype=complex)
        z[2, 0] = 0.6  # N = 0.64 inside, and 0.64^2000 underflows
        msg = r"mu = 2000 is too large: N\^mu is 0 at the sampled base point of seed 12"
        with pytest.raises(ValueError, match=msg):
            self._draw(HartogsSpec(DomainSpec.type_i(2, 2), 2000.0), z)

    def test_unscaled_type_iv_line(self):
        # e1 + i e2 / 2 leaves IV(6) at |t| > 0.89, inside the source disk
        base = DomainSpec.type_iv(6)
        mat = np.zeros((6, 1), dtype=complex)
        mat[:2, 0] = [1.0, 0.5j]
        chart = slice_chart(HartogsSpec(base, 1.3), LinearEmbedding(DomainSpec.polydisk(1), base, mat))
        with pytest.raises(ValueError, match="lies outside the base"):
            chart.sample(0.99, range(40))


def _closed_form_rejected_base_point(spec: DomainSpec) -> np.ndarray:
    """A type I point that the closed form rejects, and `contains` with it:
    its largest singular value lies within a few ulps below 1, where the
    Cholesky factor of I - Z Z* can fail although N > 0 in exact
    arithmetic."""
    rng = np.random.default_rng(0)
    m, n = spec.params
    for _ in range(20000):
        u, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
        v, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        s = np.zeros((m, n))
        s[0, 0] = 1.0 - rng.integers(0, 6) * 1.1e-16
        s[1, 1] = 0.5
        z = (u @ s @ v).ravel()
        try:
            spec.log_norm_derivatives(z, value_only=True)
        except DomainViolation:
            assert not spec.contains(z)
            return z
    raise AssertionError("no near-boundary base point found that the closed form rejects")


def _near_boundary_base_points(spec: DomainSpec, count: int, seed: int) -> np.ndarray:
    """Points of I(m, n) as U S V, or of III(m) as U S U^T, whose largest
    singular value is 1 + k 1.1e-16 with k in -5..5; the others lie in
    [0, 0.9)."""
    rng = np.random.default_rng(seed)
    m, n = spec.params if spec.kind == "I" else spec.params * 2
    rows, cols = np.triu_indices(m) if spec.kind == "III" else np.indices((m, n)).reshape(2, -1)
    out = []
    for _ in range(count):
        u, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
        v, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        s = np.zeros((m, n))
        s[np.arange(m), np.arange(m)] = 0.9 * rng.random(m)
        s[0, 0] = 1.0 + rng.integers(-5, 6) * 1.1e-16
        zm = u @ s @ (u.T if spec.kind == "III" else v)
        out.append(zm[rows, cols])
    # the coordinates realize the matrix they were read from
    assert np.allclose(spec.matrix_realization(out[-1]), zm, rtol=0.0, atol=1e-15)
    return np.array(out)


class TestOneBaseVerdict:
    """`contains`, the closed form of log N and every route of
    `DomainPotential` give one verdict on points within a few ulps of the
    boundary, where an eigenvalue test and a Cholesky factor can differ."""

    @pytest.mark.parametrize("spec", [DomainSpec.type_i(2, 3), DomainSpec.type_iii(3)], ids=str)
    def test_verdicts_agree_near_the_boundary(self, spec):
        z = _near_boundary_base_points(spec, 3000, 17)
        pot = DomainPotential(spec)

        def accepts(call, q):
            try:
                call(q)
            except DomainViolation:
                return False
            return True

        verdicts = np.stack([
            spec.contains(z),
            pot.interior_margin(z) > 0.0,
            [accepts(lambda q: spec.log_norm_derivatives(q, value_only=True), q) for q in z],
            [accepts(pot.value, q) for q in z],
            [accepts(pot.derivatives, q) for q in z],
        ])
        assert np.count_nonzero(np.any(verdicts != verdicts[0], axis=0)) == 0
        # the points straddle the boundary
        assert 0 < verdicts[0].sum() < len(z)


OUTSIDE_BASES = {
    "polydisk2": DomainSpec.polydisk(2),
    "I23": DomainSpec.type_i(2, 3),
    "IV6": DomainSpec.type_iv(6),
    "I12xIII2": DomainSpec.product(DomainSpec.type_i(1, 2), DomainSpec.type_iii(2)),
}


def _outside_rows(name: str) -> list:
    """Every kind of base point that the closed form of OUTSIDE_BASES[name] rejects."""
    spec = OUTSIDE_BASES[name]
    if name == "polydisk2":
        # a_1 <= 0, and the even crossing, where N = (1 - 1.44)^2 > 0
        return [np.array([1.2, 0.3]), np.full(2, 1.2)]
    if name == "I23":
        emb = polydisk_embedding(spec)
        # the even crossing, N < 0, and a near-boundary point that `contains` rejects
        return [emb(np.full(2, 1.2)), emb(np.array([1.2, 0.5])),
                _closed_form_rejected_base_point(spec)]
    if name == "IV6":
        # sum |z|^2 >= 1 with N = 0.0441 > 0, and N = 1 - 1.44 < 0
        return [np.array([1.1, 0, 0, 0, 0, 0]), np.array([0.6, 0.6j, 0, 0, 0, 0])]
    z = spec.sample(0.5, 9)
    z[2:] = 1.2  # outside the second factor only
    return [z]


class TestTotalNormPower:
    """N^mu is 0 off the base, on every kind of row its closed form rejects,
    and a stack gives each inside row the floats it gets alone."""

    @pytest.mark.parametrize("name", sorted(OUTSIDE_BASES))
    @pytest.mark.parametrize("directions", [False, True])
    def test_outside_rows_give_zero(self, name, directions):
        spec = OUTSIDE_BASES[name]
        rows, outside = [], []
        for j, row in enumerate(_outside_rows(name)):
            rows += [spec.sample(0.9, j), np.asarray(row, dtype=np.complex128)]
            outside += [False, True]
        rows.append(spec.sample(0.9, 99))
        outside.append(False)
        z = np.stack(rows)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(len(z), spec.dim, 2)) + 1j * rng.normal(size=(len(z), spec.dim, 2))
        x = x if directions else None
        got = spec.norm_power_derivatives(z, 1.3, x)
        with pytest.raises(DomainViolation) as info:
            spec.log_norm_derivatives(z, x)
        assert info.value.index == 1
        fields = ["value", "grad", "levi"] + (["hess", "third"] if directions else [])
        for j, out in enumerate(outside):
            member = got.member(j)
            alone = spec.norm_power_derivatives(z[j], 1.3, None if x is None else x[j])
            for field in fields:
                g = np.asarray(getattr(member, field))
                assert np.array_equal(g, np.asarray(getattr(alone, field))), (j, field)
                if out:
                    assert not np.any(g), (j, field)
            if not out:
                assert member.value > 0.0


class TestStackedMargins:
    """`interior_margin` over a stack gives every row the float it gets alone,
    inside the domain and on every kind of outside row."""

    SPEC = DomainSpec.type_i(2, 3)

    @classmethod
    def _base_rows(cls) -> dict:
        emb = polydisk_embedding(cls.SPEC)
        return {
            "inside": cls.SPEC.sample(0.9, 1),
            "even-crossing": emb(np.full(2, 1.2)),  # N = 0.1936 > 0 outside the base
            "negative-norm": emb(np.array([1.2, 0.5])),
            "closed-form-rejected": _closed_form_rejected_base_point(cls.SPEC),
            "origin": np.zeros(cls.SPEC.dim),
        }

    @staticmethod
    def _margins(pot, rows: dict, order) -> dict:
        stack = np.stack([rows[name] for name in order])
        stacked = pot.interior_margin(stack)
        assert stacked.shape == (len(order),)
        assert stacked.tolist() == [pot.interior_margin(p) for p in stack]
        return dict(zip(order, stacked))

    def test_hartogs_potential(self):
        spec = HartogsSpec(self.SPEC, 1.3)
        base = self._base_rows()
        radius = self.SPEC.generic_norm(base["inside"]) ** 0.65
        rows = {
            "inside": h_sample(spec, 0.9, 2),
            "outside-fiber": np.append(base["inside"], 1.5 * radius),
            "even-crossing": np.append(base["even-crossing"], 0.1j),
            "negative-norm": np.append(base["negative-norm"], 0.0),
            "closed-form-rejected": np.append(base["closed-form-rejected"], 0.01),
            "origin": np.append(base["origin"], 0.5),
        }
        order = ["outside-fiber", "inside", "closed-form-rejected", "even-crossing",
                 "origin", "negative-norm"]
        margins = self._margins(HartogsPotential(spec), rows, order)
        assert margins["inside"] > 0.0
        assert margins["origin"] == 0.75
        assert margins["closed-form-rejected"] == -(0.01**2)
        # a row outside the base gives -|w|^2 whatever its N
        assert margins["even-crossing"] == -(0.1**2)
        assert margins["outside-fiber"] < 0.0 and margins["negative-norm"] == 0.0

    def test_domain_potential(self):
        order = ["even-crossing", "inside", "closed-form-rejected", "negative-norm", "origin"]
        margins = self._margins(DomainPotential(self.SPEC), self._base_rows(), order)
        assert margins["inside"] > 0.0 and margins["origin"] == 1.0
        # a row outside the base gives 0.0 whatever its N
        assert margins["even-crossing"] == 0.0 and margins["negative-norm"] == 0.0

    @pytest.mark.parametrize(
        "spec",
        [
            DomainSpec.type_i(2, 3),
            DomainSpec.product(DomainSpec.type_i(1, 2), DomainSpec.type_iii(2)),
            DomainSpec.type_iii(2),
        ],
        ids=str,
    )
    def test_norm_rows_are_their_points(self, spec):
        # a point is the stack of one in `_norm` and in the closed form, so
        # Phi of a point and the stacked margin read the same N
        z = spec._sample_stack(0.95, [np.random.default_rng(seed) for seed in range(400)])
        pot = DomainPotential(spec)
        assert spec._norm(z).tolist() == [spec._norm(q) for q in z]
        assert (-np.log(pot.interior_margin(z))).tolist() == [pot.value(q) for q in z]

    def test_function_potential(self):
        # the jet route has no margin of its own: a geodesic reads e^{-Phi}
        # from its evaluation, which is D inside and a DomainViolation outside
        spec = HartogsSpec(self.SPEC, 1.3)
        pot = HartogsPotential(spec)
        jet = FunctionPotential(pot, spec.n_coords)
        inside = h_sample(spec, 0.9, [3, 4])
        margins = np.exp(-jet.derivatives(inside).value)
        assert margins == pytest.approx(pot.interior_margin(inside), rel=1e-12)
        crossing = np.append(self._base_rows()["even-crossing"], 0.0)
        with pytest.raises(DomainViolation) as info:
            jet.derivatives(np.stack([inside[0], crossing]))
        assert info.value.index == 1
