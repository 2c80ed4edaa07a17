"""Tests for Cartan domain membership, norms, embeddings and triple products."""

import json

import numpy as np
import pytest

from hartogs_geom.domains import (
    DomainSpec,
    _bergman,
    _matrix_log_norm,
    _polydisk_log_norm,
    _unit_matrices,
    polydisk_embedding,
    product_embedding,
    subtriple_closure,
    triple_product,
)
from hartogs_geom.jets import Jet, jet_space, jet_variable
from hartogs_geom.numerics import DomainViolation

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
        # the disk skips the eigenvalue solver; its answer must not change
        from hartogs_geom.numerics import is_positive_definite

        disk = DomainSpec.type_i(1, 1)
        rng = np.random.default_rng(3)
        phase = np.exp(2j * np.pi * rng.random(3000))
        radii = np.concatenate([rng.random(1000), 1 + 1e-15 * rng.standard_normal(1000)])
        radii = np.concatenate([radii, 1 - 1e-8 * rng.random(1000)])
        for z in radii * phase:
            for margin in (0.0, 1e-8):
                gram = _bergman(disk, np.array([[z]]))[1][0]
                assert disk.contains([z], margin) == is_positive_definite(gram, margin)


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
        want = np.stack([_loop_realization(spec, u) for u in np.eye(spec.dim)])
        assert np.array_equal(_unit_matrices(spec), want)

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

    @pytest.mark.parametrize("spec", ALL_IRREDUCIBLE, ids=str)
    def test_origin_fixed(self, spec):
        emb = polydisk_embedding(spec)
        assert np.all(emb(np.zeros(spec.rank)) == 0)

    @pytest.mark.parametrize("spec", ALL_IRREDUCIBLE, ids=str)
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

    def test_product_raises_and_combinator_works(self):
        spec = DomainSpec.product(DomainSpec.type_i(2, 2), DomainSpec.type_ii(4))
        with pytest.raises(ValueError):
            polydisk_embedding(spec)
        emb = product_embedding(spec)
        rng = np.random.default_rng(3)
        z = rng.uniform(0, 0.9, spec.rank) * np.exp(2j * np.pi * rng.random(spec.rank))
        assert float(spec._norm(emb(z))) == pytest.approx(
            float(np.prod(1 - np.abs(z) ** 2)), abs=1e-13
        )


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
