"""Tests for determinants, positive definiteness, generalized binomials and
the one reading of a point or a stack (`_stack`) at every entry point."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartogs_geom.domains import DomainSpec, polydisk_embedding
from hartogs_geom.hartogs import (
    HartogsPotential,
    HartogsSpec,
    lift_automorphism_polydisk,
    slice_chart,
)
from hartogs_geom.jets import Jet, jet_space, jet_variable
from hartogs_geom.l2embed import line_deviation
from hartogs_geom.metric import FunctionPotential, distance_to_span, tg_residual
from hartogs_geom.numerics import Derivatives, _stack, det, gen_binomial, is_positive_definite

from _oracles import cofactor_det


class TestDet:
    def test_identity(self):
        assert det(np.eye(3, dtype=complex)) == 1.0

    def test_diagonal_product(self):
        assert det(np.diag([0.91, 0.75]).astype(complex)) == pytest.approx(0.6825)

    def test_random_vs_cofactor(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        got = det(m)
        want = cofactor_det(m)
        assert abs(got - want) / abs(want) < 1e-12

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            det(np.zeros((2, 3)))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_stack_matches_matrices(self, n):
        rng = np.random.default_rng(n)
        m = rng.normal(size=(6, n, n)) + 1j * rng.normal(size=(6, n, n))
        got = det(m)
        assert got.shape == (6,)
        for j in range(6):
            assert got[j] == pytest.approx(det(m[j]), rel=1e-14, abs=0)

    def test_object_stack_matches_matrices(self):
        # jet entries: a stack goes through the generic LU one matrix at a time
        rng = np.random.default_rng(5)
        space = jet_space((2,), (2,), 2)
        vals = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
        seeds = rng.normal(size=(3, 3, 3, 2))
        m = np.empty((3, 3, 3), dtype=object)
        for idx in np.ndindex(m.shape):
            m[idx] = jet_variable(space, vals[idx], dict(enumerate(seeds[idx])))
        got = det(m)
        assert got.shape == (3,)
        for j in range(3):
            assert np.array_equal(got[j].coeffs, det(m[j]).coeffs)
            assert got[j].value == pytest.approx(np.linalg.det(vals[j]), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_multiplicative(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, size=(n, n)) + 1j * rng.uniform(-1, 1, size=(n, n))
        b = rng.uniform(-1, 1, size=(n, n)) + 1j * rng.uniform(-1, 1, size=(n, n))
        lhs = det(a @ b)
        rhs = det(a) * det(b)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


class TestPositiveDefinite:
    def test_identity(self):
        assert is_positive_definite(np.eye(4), 0.0)

    def test_outside_disk_matrix(self):
        z = np.diag([1.1, 0.0])
        a = np.eye(2) - z @ z.conj().T  # eigenvalues (-0.21, 1)
        assert not is_positive_definite(a, 0.0)

    def test_inside_disk_matrix(self):
        z = np.diag([0.5, 0.5])
        a = np.eye(2) - z @ z.conj().T  # eigenvalues 0.75
        assert is_positive_definite(a, 0.0)
        assert not is_positive_definite(a, 0.8)

    def test_nan_has_no_factor(self):
        # LAPACK factors a NaN matrix without an error; the verdict is still no
        a = np.stack([np.eye(2), np.diag([1.0, np.nan]), np.diag([0.5, -0.1])])
        assert is_positive_definite(a).tolist() == [True, False, False]
        assert is_positive_definite(a[:2]).tolist() == [True, False]
        assert not is_positive_definite(a[1])

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    @pytest.mark.parametrize("where", [(0, 2), (2, 0), (1, 1)])
    def test_non_finite_entry_reads_false(self, entry, where):
        # the factorisation reads the lower triangle alone, and the Hermitian
        # test passes NaN and an infinite scale: neither may decide the verdict
        a = np.eye(3, dtype=np.complex128)
        a[where] = entry
        assert is_positive_definite(a) is False
        stack = np.stack([np.eye(3), a, 2.0 * np.eye(3)])
        assert is_positive_definite(stack).tolist() == [True, False, True]
        assert is_positive_definite(stack, 0.5).tolist() == [True, False, True]

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            is_positive_definite(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="Hermitian"):
            is_positive_definite(np.stack([np.diag([1.0, np.nan]), [[1.0, 1.0], [0.0, 1.0]]]))

    def test_stack(self):
        a = np.stack([np.eye(2), np.diag([0.5, -0.1]), np.diag([0.9, 0.85])])
        assert is_positive_definite(a, 0.0).tolist() == [True, False, True]
        assert is_positive_definite(a, 0.86).tolist() == [True, False, False]
        with pytest.raises(ValueError, match="Hermitian"):
            is_positive_definite(np.stack([np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])]))


class TestGenBinomial:
    def test_integer_case(self):
        assert gen_binomial(3, 2) == 6.0

    def test_k_zero(self):
        assert gen_binomial(0.37, 0) == 1.0
        assert gen_binomial(123.4, 0) == 1.0

    def test_rising_factorial_oracle(self):
        # x(x+1)(x+2)/3! at x = 1.5
        assert gen_binomial(1.5, 3) == pytest.approx(1.5 * 2.5 * 3.5 / 6.0, rel=1e-14)

    def test_pole_guard(self):
        with pytest.raises(ValueError):
            gen_binomial(-3.0, 2)

    @given(
        x=st.floats(min_value=0.05, max_value=50.0),
        k=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_recurrence(self, x, k):
        lhs = gen_binomial(x, k)
        rhs = gen_binomial(x, k - 1) * (x + k - 1) / k
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def _entry_points() -> dict:
    """Every coordinate entry point that reads its input through `_stack`:
    name -> (coordinates per point, the call)."""
    base = DomainSpec.type_i(2, 2)
    spec = HartogsSpec(base, 1.5)
    pot = HartogsPotential(spec)
    lift = lift_automorphism_polydisk([0.1, 0.2j], [0.3, 0.4], 1.5)
    chart = slice_chart(spec, polydisk_embedding(base))
    return {
        "log_norm_derivatives": (4, base.log_norm_derivatives),
        "norm_power_derivatives": (4, lambda p: base.norm_power_derivatives(p, 1.5)),
        "contains": (4, base.contains),
        "_norm": (4, base._norm),
        "matrix_realization": (4, base.matrix_realization),
        "generic_norm": (4, base.generic_norm),
        "LinearEmbedding": (2, polydisk_embedding(base)),
        "HartogsPotential.value": (5, pot.value),
        "HartogsPotential.derivatives": (5, pot.derivatives),
        "interior_margin": (5, pot.interior_margin),
        "PolydiskMobiusLift": (3, lift),
        "PolydiskMobiusLift.jacobian": (3, lift.jacobian),
        "FunctionPotential.derivatives": (5, FunctionPotential(pot, 5).derivatives),
        "tg_residual": (3, lambda q: tg_residual(pot, chart, q)),
        "distance_to_span": (4, lambda p: distance_to_span(p, np.eye(4)[:, :2])),
        "line_deviation": (3, lambda xi: line_deviation(2, 1.0, xi, 0.1)),
    }


ENTRY_POINTS = _entry_points()
# point-only
NO_EMPTY_STACK = ("generic_norm",)


class TestStack:
    """A point is the stack of one, and every other shape gets one ValueError."""

    def test_point_and_stack(self):
        rows, single = _stack([0.1, 0.2], 2)
        assert single and rows.shape == (1, 2) and rows.dtype == np.complex128
        stack = np.zeros((3, 2), dtype=np.complex128)
        rows, single = _stack(stack, 2)
        assert not single and rows is stack

    def test_plain_dtype_none_is_complex_and_jets_stay_objects(self):
        rows, _ = _stack([1, 2], 2, None)
        assert rows.dtype == np.complex128
        space = jet_space((2,), (2,), 1)
        jets = [jet_variable(space, 0.1, {0: 1.0}), jet_variable(space, 0.2, {1: 1.0})]
        rows, single = _stack(jets, 2, None)
        assert single and rows.dtype == object and isinstance(rows[0, 1], Jet)

    @pytest.mark.parametrize("shape", [(), (3,), (2, 1), (2, 2, 2)])
    def test_other_shapes_raise(self, shape):
        match = f"expected 2 coordinates, got shape {re.escape(str(shape))}"
        with pytest.raises(ValueError, match=match):
            _stack(np.zeros(shape), 2)

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize("shape", ["point", "stack", "3-D"])
    def test_wrong_shape_at_every_entry_point(self, name, shape):
        n, call = ENTRY_POINTS[name]
        arg = {"point": (n + 2,), "stack": (2, n + 1), "3-D": (2, 2, n)}[shape]
        with pytest.raises(ValueError, match=f"expected {n} coordinates, got shape"):
            call(np.full(arg, 0.01))

    @pytest.mark.parametrize("name", [k for k in ENTRY_POINTS if k not in NO_EMPTY_STACK])
    def test_empty_stack_gives_empty_result(self, name):
        n, call = ENTRY_POINTS[name]
        out = call(np.zeros((0, n), dtype=np.complex128))
        if isinstance(out, Derivatives):
            out = out.value
        assert len(out) == 0

    @pytest.mark.parametrize("x", ["none", "shared", "per point"])
    def test_empty_derivatives_keep_the_stacked_shapes(self, x):
        # the jet route stacks one part per point; with no point it gives the
        # shapes of the closed form
        pot = HartogsPotential(HartogsSpec(DomainSpec.type_i(2, 2), 1.5))
        dirs = {"none": None, "shared": np.eye(5)[:, :2], "per point": np.zeros((0, 5, 2))}[x]
        empty = np.zeros((0, 5), dtype=np.complex128)
        got = FunctionPotential(pot, 5).derivatives(empty, dirs)
        want = pot.derivatives(empty, dirs)
        for name in ("value", "grad", "levi", "hess", "third"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.dtype == b.dtype, name
