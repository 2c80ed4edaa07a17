"""Tests for determinants, positive definiteness and generalized binomials."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartogs_geom.numerics import det, gen_binomial, is_positive_definite

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

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            is_positive_definite(np.array([[1.0, 1.0], [0.0, 1.0]]))

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
