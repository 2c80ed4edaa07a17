"""Tests for the truncated Taylor engine and Wirtinger assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartogs_geom.domains import DomainSpec
from hartogs_geom.hartogs import HartogsPotential, HartogsSpec
from hartogs_geom.jets import Jet, jet_eval, jet_space, jet_variable, wirtinger

from _oracles import fd_richardson

coeff = st.floats(min_value=-2.0, max_value=2.0)


def _poly(space, values):
    c = np.asarray(values, dtype=np.complex128)
    return Jet(space, c)


class TestJetEval:
    def test_square(self):
        j = jet_eval(lambda a: a[0] * a[0], [3.0], [0])
        assert j.value == 9.0
        assert j.derivative((1,)) == 6.0
        assert j.derivative((2,)) == 2.0
        assert j.derivative((3,)) == 0.0

    def test_log_series(self):
        j = jet_eval(lambda a: -((1.0 - a[0]).log()), [0.0], [0])
        assert j.derivative((1,)) == pytest.approx(1.0)
        assert j.derivative((2,)) == pytest.approx(1.0)
        assert j.derivative((3,)) == pytest.approx(2.0)

    def test_potential_against_finite_differences(self):
        # unit-disk Hartogs potential as a function of 4 real coordinates
        pot = HartogsPotential(HartogsSpec(DomainSpec.polydisk(1), 1.0))

        def f_real(args):
            z = args[0] + 1j * args[1]
            w = args[2] + 1j * args[3]
            return pot([z, w])

        x0 = [0.31, -0.22, 0.17, 0.09]
        j = jet_eval(f_real, x0, (0, 1, 2, 3))
        steps = {1: 1e-4, 2: 1e-3, 3: 4e-3}
        tols = {1: 1e-10, 2: 1e-8, 3: 1e-7}
        for mono in j.space.monomials:
            order = sum(mono)
            if order == 0:
                continue
            idx = [i for i, e in enumerate(mono) for _ in range(e)]
            want = fd_richardson(lambda xs: f_real(list(xs)), x0, tuple(idx), steps[order])
            got = j.derivative(mono)
            assert abs(got - want) < tols[order] * max(1.0, abs(want))

    def test_too_many_directions(self):
        with pytest.raises(ValueError):
            jet_eval(lambda a: a[0], [0.0] * 7, range(7))


class TestJetAlgebra:
    @given(st.lists(coeff, min_size=4, max_size=4), st.lists(coeff, min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    def test_leibniz_rule(self, av, bv):
        # d(fg) = f dg + g df, checked coefficient-wise through order 3
        space = jet_space((1,), (3,), 3)
        f = _poly(space, av)
        g = _poly(space, bv)
        prod = f * g
        want = np.zeros(4, dtype=np.complex128)
        for i in range(4):
            for j in range(4 - i):
                want[i + j] += av[i] * bv[j]
        assert np.max(np.abs(prod.coeffs - want)) < 1e-12

    def test_division_roundtrip(self):
        space = jet_space((2,), (3,), 3)
        f = jet_variable(space, 1.7, {0: 0.4, 1: -0.3}) * jet_variable(space, 0.9, {0: 0.1})
        g = jet_variable(space, 2.3, {1: 1.0})
        back = (f / g) * g
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-13

    def test_pow_matches_repeated_product(self):
        space = jet_space((1,), (3,), 3)
        f = jet_variable(space, 0.8, {0: 1.0})
        assert np.max(np.abs((f**3).coeffs - (f * f * f).coeffs)) < 1e-14

    def test_fractional_pow_vs_log_exp(self):
        space = jet_space((1,), (3,), 3)
        f = jet_variable(space, 1.21, {0: 0.7})
        half = f**0.5
        assert np.max(np.abs((half * half).coeffs - f.coeffs)) < 1e-13

    def test_log_domain_error(self):
        space = jet_space((1,), (2,), 2)
        with pytest.raises(ValueError):
            jet_variable(space, -0.5, {0: 1.0}).log()

    def test_integer_pow_at_zero_value(self):
        space = jet_space((1,), (3,), 3)
        f = jet_variable(space, 0.0, {0: 1.0})
        sq = f**2
        assert sq.derivative((2,)) == 2.0

    @pytest.mark.parametrize("seed", range(6))
    def test_grouped_truncation_against_dict_convolution(self, seed):
        # the grouped caps drive every directional-derivative evaluation;
        # compare against a brute-force truncated polynomial product
        rng = np.random.default_rng(seed)
        space = jet_space((2, 2), (1, 2), 3)
        a = Jet(space, rng.normal(size=len(space)) + 1j * rng.normal(size=len(space)))
        b = Jet(space, rng.normal(size=len(space)) + 1j * rng.normal(size=len(space)))
        got = (a * b).coeffs
        want: dict[tuple, complex] = {}
        monos = space.monomials
        for i, mi in enumerate(monos):
            for j, mj in enumerate(monos):
                s = tuple(x + y for x, y in zip(mi, mj))
                if sum(s[:2]) > 1 or sum(s[2:]) > 2 or sum(s) > 3:
                    continue
                want[s] = want.get(s, 0.0) + a.coeffs[i] * b.coeffs[j]
        for k, m in enumerate(monos):
            assert abs(got[k] - want.get(m, 0.0)) < 1e-12


class TestWirtinger:
    def test_abs_square(self):
        space = jet_space((2,), (2,), 2)
        z = jet_variable(space, 0.4 - 0.1j, {0: 1.0, 1: 1j})
        f = z * z.conjugate()
        assert wirtinger(f, holo=[(0, 1)], anti=[(0, 1)]) == pytest.approx(1.0)

    def test_real_part(self):
        space = jet_space((2,), (1,), 1)
        x = jet_variable(space, 0.3, {0: 1.0})
        assert wirtinger(x, holo=[(0, 1)]) == pytest.approx(0.5)

    def test_poincare_metric_value(self):
        space = jet_space((2,), (2,), 2)
        z = jet_variable(space, 0.5, {0: 1.0, 1: 1j})
        f = -((1.0 - z * z.conjugate()).log())
        got = wirtinger(f, holo=[(0, 1)], anti=[(0, 1)])
        assert got == pytest.approx(16.0 / 9.0, rel=1e-13)

    @pytest.mark.parametrize("seed", range(4))
    def test_holomorphic_polynomial_dbar_vanishes(self, seed):
        rng = np.random.default_rng(seed)
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        space = jet_space((2,), (3,), 3)
        z = jet_variable(space, complex(rng.normal(), rng.normal()), {0: 1.0, 1: 1j})
        f = ((c[3] * z + c[2]) * z + c[1]) * z + c[0]
        assert abs(wirtinger(f, anti=[(0, 1)])) < 1e-12
        assert abs(wirtinger(f, holo=[(0, 1)], anti=[(0, 1)])) < 1e-12

    def test_mismatched_directions(self):
        space = jet_space((2,), (2,), 2)
        z = jet_variable(space, 0.1, {0: 1.0, 1: 1j})
        with pytest.raises(ValueError):
            wirtinger(z, holo=[(2, 3)])
