"""Tests for Cartan domain membership, norms, embeddings and triple products."""

import json

import numpy as np
import pytest

from hartogs_geom.domains import (
    DomainSpec,
    _bergman,
    _matrix_log_norm,
    _polydisk_log_norm,
    _trace_against,
    polydisk_embedding,
    product_embedding,
    subtriple_closure,
    triple_product,
)
from hartogs_geom.jets import Jet, jet_space, jet_variable
from hartogs_geom.numerics import Derivatives, DomainViolation, is_positive_definite

from _oracles import matrix_log_norm_dense

ALL_IRREDUCIBLE = [
    DomainSpec.type_i(1, 1),
    DomainSpec.type_i(2, 3),
    DomainSpec.type_i(3, 4),
    DomainSpec.type_ii(2),
    DomainSpec.type_ii(5),
    DomainSpec.type_ii(6),
    DomainSpec.type_iii(1),
    DomainSpec.type_iii(3),
    DomainSpec.type_iv(5),
    DomainSpec.type_iv(7),
]

PRODUCTS = [
    DomainSpec.polydisk(3),
    DomainSpec.product(DomainSpec.type_i(1, 2), DomainSpec.type_iii(2)),
]


class TestSpecMetadata:
    def test_type_i(self):
        s = DomainSpec.type_i(2, 3)
        assert (s.rank, s.genus, s.dim) == (2, 5, 6)

    def test_type_ii(self):
        s = DomainSpec.type_ii(6)
        assert (s.rank, s.genus, s.dim) == (3, 10, 15)

    def test_type_iii(self):
        s = DomainSpec.type_iii(3)
        assert (s.rank, s.genus, s.dim) == (3, 4, 6)

    def test_type_iv(self):
        s = DomainSpec.type_iv(6)
        assert (s.rank, s.genus, s.dim) == (2, 6, 6)

    def test_product(self):
        s = DomainSpec.product(DomainSpec.type_i(2, 2), DomainSpec.type_iv(5))
        assert (s.rank, s.dim) == (4, 9)
        with pytest.raises(ValueError):
            s.genus

    def test_validation(self):
        with pytest.raises(ValueError):
            DomainSpec.type_i(3, 2)
        with pytest.raises(ValueError):
            DomainSpec.type_iv(4)

    @pytest.mark.parametrize("params", [(2.5, 3), (2, 3.0), (True, 2)], ids=str)
    def test_non_integral_params_rejected(self, params):
        # a float passes the size checks and builds a spec with dim 7.5
        with pytest.raises(ValueError, match="must be integers"):
            DomainSpec("I", params)

    def test_numpy_integer_params_accepted(self):
        s = DomainSpec("I", (np.int64(2), np.int32(3)))
        assert s == DomainSpec.type_i(2, 3) and s.dim == 6
        assert json.dumps(s.to_json()) == json.dumps(DomainSpec.type_i(2, 3).to_json())

    def test_json_roundtrip(self):
        for s in ALL_IRREDUCIBLE + [DomainSpec.polydisk(3)]:
            assert DomainSpec.from_json(s.to_json()) == s


# (rank, dim, genus) from the per-family chains that each factor's invariants
# (r, a, b) replaced, written out; the same table passed before the change
METADATA_TABLE = {
    ("I", (1, 1)): (1, 1, 2), ("I", (1, 2)): (1, 2, 3), ("I", (2, 2)): (2, 4, 4),
    ("I", (1, 3)): (1, 3, 4), ("I", (2, 3)): (2, 6, 5), ("I", (3, 3)): (3, 9, 6),
    ("I", (1, 4)): (1, 4, 5), ("I", (2, 4)): (2, 8, 6), ("I", (3, 4)): (3, 12, 7),
    ("I", (4, 4)): (4, 16, 8), ("I", (1, 5)): (1, 5, 6), ("I", (2, 5)): (2, 10, 7),
    ("I", (3, 5)): (3, 15, 8), ("I", (4, 5)): (4, 20, 9), ("I", (5, 5)): (5, 25, 10),
    ("I", (1, 6)): (1, 6, 7), ("I", (2, 6)): (2, 12, 8), ("I", (3, 6)): (3, 18, 9),
    ("I", (4, 6)): (4, 24, 10), ("I", (5, 6)): (5, 30, 11), ("I", (6, 6)): (6, 36, 12),
    ("I", (1, 7)): (1, 7, 8), ("I", (2, 7)): (2, 14, 9), ("I", (3, 7)): (3, 21, 10),
    ("I", (4, 7)): (4, 28, 11), ("I", (5, 7)): (5, 35, 12), ("I", (6, 7)): (6, 42, 13),
    ("I", (7, 7)): (7, 49, 14), ("I", (1, 8)): (1, 8, 9), ("I", (2, 8)): (2, 16, 10),
    ("I", (3, 8)): (3, 24, 11), ("I", (4, 8)): (4, 32, 12), ("I", (5, 8)): (5, 40, 13),
    ("I", (6, 8)): (6, 48, 14), ("I", (7, 8)): (7, 56, 15), ("I", (8, 8)): (8, 64, 16),
    ("II", (2,)): (1, 1, 2), ("II", (3,)): (1, 3, 4), ("II", (4,)): (2, 6, 6),
    ("II", (5,)): (2, 10, 8), ("II", (6,)): (3, 15, 10), ("II", (7,)): (3, 21, 12),
    ("II", (8,)): (4, 28, 14), ("II", (9,)): (4, 36, 16), ("II", (10,)): (5, 45, 18),
    ("II", (11,)): (5, 55, 20),
    ("III", (1,)): (1, 1, 2), ("III", (2,)): (2, 3, 3), ("III", (3,)): (3, 6, 4),
    ("III", (4,)): (4, 10, 5), ("III", (5,)): (5, 15, 6), ("III", (6,)): (6, 21, 7),
    ("III", (7,)): (7, 28, 8), ("III", (8,)): (8, 36, 9), ("III", (9,)): (9, 45, 10),
    ("IV", (5,)): (2, 5, 5), ("IV", (6,)): (2, 6, 6), ("IV", (7,)): (2, 7, 7),
    ("IV", (8,)): (2, 8, 8), ("IV", (9,)): (2, 9, 9), ("IV", (10,)): (2, 10, 10),
    ("IV", (11,)): (2, 11, 11), ("IV", (12,)): (2, 12, 12), ("IV", (13,)): (2, 13, 13),
}


class TestSignature:
    """Rank, dim and genus read each factor's invariants (r, a, b)."""

    @pytest.mark.parametrize("key", sorted(METADATA_TABLE), ids=lambda k: f"{k[0]}{k[1]}")
    def test_metadata_table(self, key):
        s = DomainSpec(*key)
        assert (s.rank, s.dim, s.genus) == METADATA_TABLE[key]

    @pytest.mark.parametrize(
        "factors,rank,dim",
        [
            ([("I", (2, 3)), ("IV", (5,))], 4, 11),
            ([("II", (5,)), ("III", (3,)), ("I", (1, 1))], 6, 17),
        ],
    )
    def test_products(self, factors, rank, dim):
        s = DomainSpec.product(*(DomainSpec(*f) for f in factors))
        assert (s.rank, s.dim) == (rank, dim)
        with pytest.raises(ValueError, match="products per factor"):
            s.genus

    def test_isomorphic_pair_shares_invariants(self):
        # II(4) and IV(6) are one domain in two realizations
        assert DomainSpec.type_ii(4)._signature == DomainSpec.type_iv(6)._signature == (2, 4, 0)

    @pytest.mark.parametrize(
        "kind,params,factors",
        [
            ("I", (3, 2), ()),
            ("I", (0, 1), ()),
            ("II", (1,), ()),
            ("III", (0,), ()),
            ("IV", (3,), ()),
            ("IV", (4,), ()),
            ("I", (2,), ()),
            ("III", (2, 2), ()),
            ("II", (True,), ()),
            ("V", (2,), ()),
            ("product", (), ()),
            ("product", (), (DomainSpec.polydisk(2),)),
        ],
        ids=["I(3,2)", "I(0,1)", "II(1)", "III(0)", "IV(3)", "IV(4)", "I-one-param",
             "III-two-params", "II-bool", "unknown-kind", "empty-product", "nested-product"],
    )
    def test_refused_specs(self, kind, params, factors):
        with pytest.raises(ValueError):
            DomainSpec(kind, params, factors)


class TestContains:
    @pytest.mark.parametrize("spec", ALL_IRREDUCIBLE, ids=str)
    def test_origin(self, spec):
        assert spec.contains(np.zeros(spec.dim))

    def test_type_i_interior(self):
        assert DomainSpec.type_i(2, 2).contains([0.9, 0, 0, 0.9], 0.0)

    def test_type_iv_first_inequality(self):
        # second inequality holds (0.0784 > 0) but sum |z|^2 = 1.28 >= 1
        assert not DomainSpec.type_iv(5).contains([0.8, 0.8, 0, 0, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            DomainSpec.type_i(2, 2).contains([0.1, 0.2])

    @pytest.mark.parametrize("spec", ALL_IRREDUCIBLE + PRODUCTS, ids=str)
    def test_stack_matches_points(self, spec):
        # points on both sides of the boundary, and of the margin
        rng = np.random.default_rng(6)
        z = rng.normal(size=(60, spec.dim)) + 1j * rng.normal(size=(60, spec.dim))
        z *= rng.uniform(0.1, 1.6, size=(60, 1)) / np.linalg.norm(z, axis=1, keepdims=True)
        for margin in (0.0, 0.3):
            inside = spec.contains(z, margin)
            assert inside.shape == (60,)
            assert inside.tolist() == [spec.contains(q, margin) for q in z]
            assert 0 < inside.sum() < 60

    def test_disk_matches_spectral_test(self):
        # the disk skips the Cholesky factorisation; its answer must not change
        disk = DomainSpec.type_i(1, 1)
        rng = np.random.default_rng(3)
        phase = np.exp(2j * np.pi * rng.random(3000))
        radii = np.concatenate([rng.random(1000), 1 + 1e-15 * rng.standard_normal(1000)])
        radii = np.concatenate([radii, 1 - 1e-8 * rng.random(1000)])
        for z in radii * phase:
            for margin in (0.0, 1e-8):
                gram = _bergman(disk, np.array([[z]]))[1][0]
                assert disk.contains([z], margin) == is_positive_definite(gram, margin)


    @pytest.mark.parametrize(
        "spec",
        [
            DomainSpec.type_i(2, 3),
            DomainSpec.type_ii(4),
            DomainSpec.type_iii(3),
            DomainSpec.polydisk(3),
            DomainSpec.product(DomainSpec.type_i(1, 2), DomainSpec.type_iii(2)),
        ],
        ids=str,
    )
    def test_margin_matches_factor_cholesky(self, spec):
        # the second route: I - Z Z* - margin I has a Cholesky factor on every
        # factor, on stacks that straddle the margin
        rng = np.random.default_rng(5)
        z = rng.normal(size=(3000, spec.dim)) + 1j * rng.normal(size=(3000, spec.dim))
        z *= rng.uniform(0.1, 1.3, size=(3000, 1)) / np.linalg.norm(z, axis=1, keepdims=True)
        for margin in (0.0, 0.3):
            want = np.ones(len(z), dtype=bool)
            pos = 0
            for f in spec.irreducible_factors:
                want &= is_positive_definite(_bergman(f, z[:, pos : pos + f.dim])[1], margin)
                pos += f.dim
            inside = spec.contains(z, margin)
            assert inside.tolist() == want.tolist()
            assert 0 < inside.sum() < len(z)

    @pytest.mark.parametrize("spec", [DomainSpec.type_iv(5), DomainSpec.type_iv(7)], ids=str)
    def test_type_iv_margin_is_spectral(self, spec):
        # e^{i theta} Q iota(lam), Q real orthogonal, is inside with margin m
        # exactly when 1 - max(lam)^2 > m; lam = (0.9, 0.9) first
        rng = np.random.default_rng(11)
        lam = np.concatenate([[[0.9, 0.9]], rng.uniform(0.0, 1.1, size=(2000, 2))])
        q = np.linalg.qr(rng.normal(size=(len(lam), spec.dim, spec.dim)))[0]
        phase = np.exp(2j * np.pi * rng.random((len(lam), 1)))
        z = phase * (q @ polydisk_embedding(spec)(lam)[..., None])[..., 0]
        gap = 1.0 - lam.max(axis=1) ** 2
        for margin in (0.1, 0.3, 0.5):
            want = gap > margin
            # rows whose answer rounding could flip are not compared
            clear = np.abs(gap - margin) > 1e-9
            assert spec.contains(z, margin)[clear].tolist() == want[clear].tolist()
            assert 0 < want.sum() < len(z)
        assert spec.contains(z[0], 0.1)
        assert not spec.contains(z[0], 0.2)

    def test_margin_of_one_or_more_admits_nothing(self):
        spec = DomainSpec.product(DomainSpec.type_i(2, 2), DomainSpec.type_iv(5))
        z = np.zeros((2, spec.dim))
        for margin in (1.0, 1.5, np.inf, np.nan):
            assert spec.contains(z, margin).tolist() == [False, False]
        assert spec.contains(z, 0.999).tolist() == [True, True]


OFF_EVERY_BASE = [np.nan, np.inf, 1e200, -1e200j, 1.0]


@pytest.mark.parametrize(
    "spec",
    [
        DomainSpec.type_i(2, 2),
        DomainSpec.type_ii(4),
        DomainSpec.type_iii(2),
        DomainSpec.type_iv(5),
        DomainSpec.polydisk(2),
        DomainSpec.product(DomainSpec.type_i(1, 2), DomainSpec.type_iv(5)),
    ],
    ids=str,
)
def test_rows_off_every_base(spec):
    # a NaN, infinite or huge coordinate is decided before anything is
    # squared: no RuntimeWarning, and the row is outside with N^mu = 0
    z = np.full((len(OFF_EVERY_BASE) + 1, spec.dim), 0.1, dtype=np.complex128)
    for j, bad in enumerate(OFF_EVERY_BASE, 1):
        z[j, j % spec.dim] = bad
    assert spec.contains(z).tolist() == [True] + [False] * len(OFF_EVERY_BASE)
    for j in range(1, len(z)):
        with pytest.raises(DomainViolation) as exc:
            spec.log_norm_derivatives(z[[0, j]])
        assert exc.value.index == 1
    nmu = spec.norm_power_derivatives(z, 1.3, np.ones((spec.dim, 2)))
    assert nmu.value[0] > 0.0
    for t in (nmu.value, nmu.grad, nmu.levi, nmu.hess, nmu.third):
        assert not np.any(t[1:])


class TestGenericNorm:
    @pytest.mark.parametrize("spec", ALL_IRREDUCIBLE, ids=str)
    def test_norm_at_origin_is_one(self, spec):
        assert spec.generic_norm(np.zeros(spec.dim)) == pytest.approx(1.0)

    def test_disk(self):
        assert DomainSpec.type_i(1, 1).generic_norm([0.5]) == pytest.approx(0.75)

    def test_outside_raises(self):
        with pytest.raises(DomainViolation):
            DomainSpec.type_i(1, 1).generic_norm([1.5])

    def test_stack_names_first_outside_point_across_factors(self):
        # the factors are tested in turn, but point 1, outside the second
        # factor only, comes before point 3, outside the first factor only
        spec = DomainSpec.product(DomainSpec.type_i(1, 2), DomainSpec.type_iii(2))
        z = np.stack([spec.sample(0.5, seed) for seed in range(5)])
        z[1, 2:] = 1.2
        z[3, :2] = [1.2, 0.0]
        with pytest.raises(DomainViolation) as info:
            spec.log_norm_derivatives(z)
        assert info.value.index == 1

    def test_type_iv_on_embedded_bidisk(self):
        spec = DomainSpec.type_iv(5)
        emb = polydisk_embedding(spec)
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.uniform(0, 0.95, 2) * np.exp(2j * np.pi * rng.random(2))
            want = float(np.prod(1.0 - np.abs(z) ** 2))
            assert spec.generic_norm(emb(z)) == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("spec", ALL_IRREDUCIBLE + [DomainSpec.polydisk(2)], ids=str)
    def test_stacked_norm_matches_points(self, spec):
        # a point is the stack of one: every row gets its point's float
        z = np.stack([spec.sample(0.9, seed) for seed in range(6)])
        got = spec._norm(z)
        assert got.shape == (6,)
        for j in range(6):
            assert got[j] == spec._norm(z[j])

    def test_product_norm_factorizes(self):
        f1, f2 = DomainSpec.type_i(2, 2), DomainSpec.type_iii(2)
        spec = DomainSpec.product(f1, f2)
        rng = np.random.default_rng(1)
        z1 = f1.sample(0.8, 1)
        z2 = f2.sample(0.8, 2)
        z = np.concatenate([z1, z2])
        assert spec.generic_norm(z) == pytest.approx(
            f1.generic_norm(z1) * f2.generic_norm(z2), rel=1e-14
        )

    def test_type_ii_square_consistency(self):
        spec = DomainSpec.type_ii(5)
        z = spec.sample(0.8, 3)
        n = spec.generic_norm(z)
        a = _bergman(spec, z[None])[1][0]
        assert n * n == pytest.approx(float(np.linalg.det(a).real), rel=1e-12)

    @pytest.mark.parametrize("jet_factor", [0, 1])
    def test_jet_norm_with_a_plain_factor(self, jet_factor):
        # jets in one factor only: the other factor's object rows are plain
        spec = DomainSpec.product(DomainSpec.type_i(1, 2), DomainSpec.type_iv(5))
        z = spec.sample(0.8, 2)
        rows = slice(0, 2) if jet_factor == 0 else slice(2, 7)
        space = jet_space((2,), (2,), 2)
        coords = list(z)
        for k in range(rows.start, rows.stop):
            coords[k] = jet_variable(space, z[k], {0: 1.0, 1: 1j})
        got = spec._norm(coords)
        assert isinstance(got, Jet)
        assert got.value == pytest.approx(spec._norm(z), rel=1e-14, abs=0)

    def test_type_i_unitary_invariance(self):
        spec = DomainSpec.type_i(2, 3)
        rng = np.random.default_rng(7)
        z = spec.sample(0.8, 5)
        zm = spec.matrix_realization(z)
        for _ in range(5):
            u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            v, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            rotated = (u @ zm @ v.conj().T).ravel()
            assert spec.generic_norm(rotated) == pytest.approx(
                spec.generic_norm(z), rel=1e-12
            )

    def test_type_iv_global_phase_invariance(self):
        spec = DomainSpec.type_iv(6)
        z = spec.sample(0.8, 11)
        for th in (0.3, 1.2, 2.9):
            assert spec.generic_norm(np.exp(1j * th) * z) == pytest.approx(
                spec.generic_norm(z), rel=1e-12
            )


class TestProductLogNorm:
    """log N of a product is the sum of its factors' on their own blocks."""

    @pytest.mark.parametrize("directions", [0, 2])
    def test_factor_tensors_placed_block_by_block(self, directions):
        spec = DomainSpec.product(DomainSpec.type_i(1, 2), DomainSpec.type_iii(2), DomainSpec.type_iv(5))
        z = np.stack([spec.sample(0.8, j) for j in range(3)])
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, spec.dim, directions)) + 1j * rng.normal(size=(3, spec.dim, directions))
        got = spec.log_norm_derivatives(z, x)
        levi, pos, parts = np.zeros_like(got.levi), 0, []
        for f in spec.factors:
            rows = slice(pos, pos + f.dim)
            parts.append(f.log_norm_derivatives(z[:, rows], x[:, rows]))
            assert np.array_equal(got.grad[:, rows], parts[-1].grad)
            assert np.array_equal(got.third[..., rows], parts[-1].third)
            levi[:, rows, rows] = parts[-1].levi
            pos += f.dim
        assert np.array_equal(got.levi, levi)
        assert np.array_equal(got.value, sum(part.value for part in parts))
        assert np.array_equal(got.hess, sum(part.hess for part in parts))
        assert np.array_equal(got.x, x)


class TestPolydiskLogNorm:
    """The diagonal closed form of log N on polydisks."""

    def test_disk_matches_matrix_route(self):
        disk = DomainSpec.type_i(1, 1)
        rng = np.random.default_rng(11)
        for seed, shrink in enumerate((0.05, 0.3, 0.6, 0.9, 0.999)):
            z = disk.sample(shrink, seed)
            x = rng.normal(size=(1, 2)) + 1j * rng.normal(size=(1, 2))
            y = rng.normal(size=(1, 3)) + 1j * rng.normal(size=(1, 3))
            xy = np.concatenate([x, y], -1)
            # the routes take stacks; compare the one point's tensors, and
            # of hess and third the block of pairs (x column, y column)
            got = _polydisk_log_norm(z[None], xy).member(0)
            want = _matrix_log_norm(disk, z[None], xy).member(0)
            assert abs(got.value - want.value) <= 1e-14 * max(1.0, abs(want.value))
            for field in ("grad", "levi", "hess", "third"):
                g, w = getattr(got, field), getattr(want, field)
                if field in ("hess", "third"):
                    g, w = g[:2, 2:], w[:2, 2:]
                assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w)), field

    @pytest.mark.parametrize(
        "spec,z", [(DomainSpec.polydisk(1), [1.0001]), (DomainSpec.polydisk(2), [1.2, 1.2])]
    )
    def test_outside_raises(self, spec, z):
        # (1.2, 1.2) is the even crossing: N = (1 - 1.44)^2 > 0 there
        with pytest.raises(DomainViolation):
            spec.log_norm_derivatives(np.asarray(z, dtype=np.complex128))

    def test_raises_exactly_outside_contains(self):
        disk = DomainSpec.type_i(1, 1)
        rng = np.random.default_rng(4)
        phase = np.exp(2j * np.pi * rng.random(2000))
        radii = np.concatenate([1 + 1e-15 * rng.standard_normal(1000), 1 - 1e-15 * rng.random(1000)])
        for z in np.concatenate([[1.0, 1j, -1.0], radii * phase]):
            try:
                disk.log_norm_derivatives([z])
                inside = True
            except DomainViolation:
                inside = False
            assert inside == disk.contains([z])


DENSE_ROUTE_SPECS = [
    DomainSpec.type_i(2, 3),
    DomainSpec.type_i(3, 4),
    DomainSpec.type_ii(4),
    DomainSpec.type_ii(5),
    DomainSpec.type_ii(6),
    DomainSpec.type_iii(3),
    DomainSpec.type_i(1, 1),
    DomainSpec.product(DomainSpec.type_i(1, 2), DomainSpec.type_iii(2)),
]


class TestDenseRChain:
    """The gathered types I-III tensors against the dense R-chain, which
    multiplies R by the stack of unit matrices E_k and forms the third
    tensor from five matrix products (`_oracles.matrix_log_norm_dense`)."""

    @staticmethod
    def _factor_by_factor(route, spec, z, x):
        parts, pos = [], 0
        for f in spec.irreducible_factors:
            rows = slice(pos, pos + f.dim)
            parts.append(route(f, z[:, rows], x[..., rows, :]))
            pos += f.dim
        return Derivatives.block_sum(parts)

    @pytest.mark.parametrize("shape", ["per-point k=1", "shared k=4", "k=0"])
    @pytest.mark.parametrize("spec", DENSE_ROUTE_SPECS, ids=str)
    def test_matches_dense_route(self, spec, shape):
        rng = np.random.default_rng(spec.dim)
        z = np.stack([spec.sample(0.9, j) for j in range(5)])
        size = {
            "per-point k=1": (5, spec.dim, 1), "shared k=4": (spec.dim, 4), "k=0": (spec.dim, 0)
        }[shape]
        x = rng.normal(size=size) + 1j * rng.normal(size=size)
        got = self._factor_by_factor(_matrix_log_norm, spec, z, x)
        want = self._factor_by_factor(matrix_log_norm_dense, spec, z, x)
        for field in ("value", "grad", "levi", "hess", "third"):
            g, w = getattr(got, field), getattr(want, field)
            assert g.shape == w.shape, field
            if w.size:
                assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w)), field
        # a point alone gets the floats it gets inside the stack
        for j in range(len(z)):
            xj = x[j : j + 1] if x.ndim == 3 else x
            one = self._factor_by_factor(_matrix_log_norm, spec, z[j : j + 1], xj)
            for field in ("grad", "levi", "hess", "third"):
                assert np.array_equal(getattr(one, field)[0], getattr(got, field)[j]), field


def _loop_realization(spec, coords):
    """The realization written entry by entry: type I row by row, types II
    and III the upper triangle row by row (strict on II), mirrored with the
    sign flipped on II."""
    if spec.kind == "I":
        m, n = spec.params
        z = np.zeros((m, n), dtype=np.complex128)
        for k, u in enumerate(coords):
            z[k // n, k % n] = u
        return z
    (n,) = spec.params
    strict = spec.kind == "II"
    pairs = [(j, k) for j in range(n) for k in range(j + strict, n)]
    z = np.zeros((n, n), dtype=np.complex128)
    for u, (j, k) in zip(coords, pairs):
        z[j, k] = u
        z[k, j] = -u if strict else u
    return z


class TestMatrixRealization:
    @pytest.mark.parametrize(
        "spec", [DomainSpec.type_i(2, 3), DomainSpec.type_ii(5), DomainSpec.type_iii(3)], ids=str
    )
    def test_matches_entry_loops(self, spec):
        rng = np.random.default_rng(7)
        z = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
        assert np.array_equal(spec.matrix_realization(z), _loop_realization(spec, z))
        # tr(E_l* K) with the unit matrices E_l of the loops, over a stack of K
        e = np.stack([_loop_realization(spec, u) for u in np.eye(spec.dim)])
        k = rng.normal(size=(2, 3, *e.shape[1:])) + 1j * rng.normal(size=(2, 3, *e.shape[1:]))
        want = np.sum(e.conj() * k[:, :, None], axis=(-2, -1))
        assert np.array_equal(_trace_against(spec, k), want)

    @pytest.mark.parametrize(
        "spec", [DomainSpec.type_i(2, 3), DomainSpec.type_ii(5), DomainSpec.type_iii(3)], ids=str
    )
    def test_stack_gives_each_point_its_matrix(self, spec):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(4, spec.dim)) + 1j * rng.normal(size=(4, spec.dim))
        stacked = spec.matrix_realization(z)
        assert len(stacked) == 4
        for j in range(4):
            assert np.array_equal(stacked[j], spec.matrix_realization(z[j]))

    def test_type_ii_jet_zeros_stay_plain(self):
        # the structural zeros of Z (the diagonal on type II) are no jets,
        # so Z Z* does not multiply them through the jet table
        spec = DomainSpec.type_ii(4)
        space = jet_space((2 * spec.dim,), (2,), 2)
        z = [
            jet_variable(space, 0.1 * (k + 1), {2 * k: 1.0, 2 * k + 1: 1j})
            for k in range(spec.dim)
        ]
        zm = _bergman(spec, np.array([z], dtype=object))[0][0]
        for j in range(4):
            for k in range(4):
                assert isinstance(zm[j, k], Jet) == (j != k), (j, k)

    def test_type_ii_layout(self):
        z = DomainSpec.type_ii(2).matrix_realization([0.3 + 0.1j])
        assert z[0, 1] == 0.3 + 0.1j
        assert z[1, 0] == -(0.3 + 0.1j)
        assert z[0, 0] == z[1, 1] == 0.0

    def test_zero_maps_to_zero(self):
        for spec in (DomainSpec.type_i(2, 3), DomainSpec.type_ii(4), DomainSpec.type_iii(2)):
            assert np.all(spec.matrix_realization(np.zeros(spec.dim)) == 0)

    def test_type_iii_symmetric_fill(self):
        z = DomainSpec.type_iii(2).matrix_realization([1.0, 2.0, 3.0])
        assert np.array_equal(z, np.array([[1.0, 2.0], [2.0, 3.0]]))

    def test_type_iv_rejected(self):
        with pytest.raises(ValueError):
            DomainSpec.type_iv(5).matrix_realization(np.zeros(5))


class TestPolydiskEmbedding:
    def test_type_i_rectangular_padding(self):
        emb = polydisk_embedding(DomainSpec.type_i(2, 3))
        img = emb(np.array([0.3, -0.5j]))
        z = DomainSpec.type_i(2, 3).matrix_realization(img)
        assert z[0, 0] == 0.3 and z[1, 1] == -0.5j
        assert np.all(z[:, 2] == 0)

    @pytest.mark.parametrize("spec", ALL_IRREDUCIBLE + PRODUCTS, ids=str)
    def test_origin_fixed(self, spec):
        emb = polydisk_embedding(spec)
        assert np.all(emb(np.zeros(spec.rank)) == 0)

    @pytest.mark.parametrize("spec", ALL_IRREDUCIBLE + PRODUCTS, ids=str)
    def test_norm_identity(self, spec):
        emb = polydisk_embedding(spec)
        rng = np.random.default_rng(42)
        r = spec.rank
        worst = 0.0
        for _ in range(1000):
            z = rng.uniform(0, 0.95, r) * np.exp(2j * np.pi * rng.random(r))
            err = abs(float(spec._norm(emb(z))) - float(np.prod(1 - np.abs(z) ** 2)))
            worst = max(worst, err)
        assert worst < 1e-13

    def test_product_is_the_block_matrix_of_its_factors(self):
        spec = DomainSpec.product(
            DomainSpec.type_i(2, 2), DomainSpec.type_ii(4), DomainSpec.type_iv(5)
        )
        emb = polydisk_embedding(spec)
        # the earlier name of the product case gives the same matrix
        assert np.array_equal(product_embedding(spec).matrix, emb.matrix)
        assert emb.source == DomainSpec.polydisk(spec.rank) and emb.target == spec
        blocks = np.zeros_like(emb.matrix)
        row = col = 0
        for f in spec.factors:
            blocks[row : row + f.dim, col : col + f.rank] = polydisk_embedding(f).matrix
            row += f.dim
            col += f.rank
        assert np.array_equal(emb.matrix, blocks)


class TestTripleProduct:
    def test_zero_absorbing(self):
        v = np.ones((2, 2), dtype=complex)
        assert np.all(triple_product(np.zeros((2, 2)), v, v) == 0)

    def test_diagonal_formula(self):
        u = np.diag([0.3 + 0.4j, -0.2j])
        got = triple_product(u, u, u)
        want = np.diag([2 * abs(0.3 + 0.4j) ** 2 * (0.3 + 0.4j), 2 * abs(0.2j) ** 2 * (-0.2j)])
        assert np.allclose(got, want, atol=1e-15)

    @pytest.mark.parametrize("seed", range(3))
    def test_outer_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        u, v, w = (rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)) for _ in range(3))
        assert np.array_equal(triple_product(u, v, w), triple_product(w, v, u))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            triple_product(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)))


class TestSubtripleClosure:
    def setup_method(self):
        self.spec = DomainSpec.type_i(2, 2)
        e = np.zeros((2, 2), dtype=complex)
        self.basis = []
        for i in range(2):
            for j in range(2):
                b = e.copy()
                b[i, j] = 1.0
                self.basis.append(b)

    def test_diagonal_basis_closed(self):
        assert subtriple_closure(self.spec, [self.basis[0], self.basis[3]])

    def test_row_basis_closed(self):
        # span{E11, E12} is the row ball, a genuine subsystem:
        # {e1 u^T, e1 v^T, e1 w^T} = (u.vbar) e1 w^T + (w.vbar) e1 u^T
        assert subtriple_closure(self.spec, [self.basis[0], self.basis[1]])

    def test_full_tangent_space_closed(self):
        assert subtriple_closure(self.spec, self.basis)

    def test_non_closed_single_matrix(self):
        b = np.array([[1.0, 1.0], [1.0, 0.0]], dtype=complex)
        # {B,B,B} = [[3,2],[2,1]] (times scale) is not proportional to B
        assert not subtriple_closure(self.spec, [b])

    def test_embedded_polydisk_tangents_closed(self):
        for spec in (DomainSpec.type_i(2, 3), DomainSpec.type_ii(4), DomainSpec.type_iii(3)):
            emb = polydisk_embedding(spec)
            basis = [
                spec.matrix_realization(emb.matrix[:, j]) for j in range(spec.rank)
            ]
            assert subtriple_closure(spec, basis)

    def test_empty_basis(self):
        with pytest.raises(ValueError):
            subtriple_closure(self.spec, [])


class TestSample:
    @pytest.mark.parametrize("spec", ALL_IRREDUCIBLE, ids=str)
    def test_inside(self, spec):
        z = spec.sample(0.9, 123)
        assert spec.contains(z, 0.0)

    def test_deterministic(self):
        spec = DomainSpec.type_ii(5)
        assert np.array_equal(spec.sample(0.7, 9), spec.sample(0.7, 9))

    def test_spectral_margin(self):
        spec = DomainSpec.type_i(2, 2)
        for seed in range(20):
            z = spec.sample(0.9, seed)
            zm = spec.matrix_realization(z)
            assert np.linalg.norm(zm, 2) <= 0.9 + 1e-12

    def test_bad_shrink(self):
        with pytest.raises(ValueError):
            DomainSpec.type_i(1, 1).sample(0.0, 0)
