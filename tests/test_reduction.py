"""The reduction: second field, the orbit at each band edge, vanishing boundary."""

import math
from fractions import Fraction

import numpy as np
import pytest

from kbwave.hierarchy import reduce_vanishing
from kbwave.quartic import (CaseTag, Params, RootMultiset, bands, classify, eval_F,
                            eval_F_deriv, params_from_roots, roots_of_F)
from kbwave.reduction import g_from_f
from kbwave.solutions import case1, solitary_double, solitary_triple

P_CASE1A = Params(2.0, -7 / 4, -7 / 2, -3 / 2)  # F = -(f+3)(f+2)^2(f+1)
ROOTS_CASE1A = RootMultiset(((-3.0, 1), (-2.0, 2), (-1.0, 1)))


class TestGFromF:
    def test_constant_term(self):
        assert g_from_f(0.0, 3.1, -0.4) == -0.4

    def test_case1a_values(self):
        # direct substitution, cross-checked by the coupled-system residual
        # of the solitary pair elsewhere
        assert g_from_f(-2.0, 2.0, -7 / 4) == pytest.approx(-3 / 4, abs=1e-15)
        assert g_from_f(-3.0, 2.0, -7 / 4) == pytest.approx(-5 / 2, abs=1e-15)

    def test_exact_rational(self):
        assert g_from_f(Fraction(-2), Fraction(2), Fraction(-7, 4)) == Fraction(-3, 4)


class TestLocalBehavior:
    """The orbit at each zero, read off the band table: a simple zero is a
    turning point, a double an exponential approach, a triple an algebraic
    one; a zero that bounds no band has no entry."""

    def test_simple_minimum(self):
        # a simple zero at a band's lower edge: the orbit's minimum
        lower, _ = bands(P_CASE1A, ROOTS_CASE1A)[0]
        assert lower[:2] == (-3.0, 1)
        # F'(-3) = 2 from the factored derivative, so f''(xi1) = 1
        assert lower.rate == eval_F_deriv(P_CASE1A, -3.0, 1) / 2.0
        assert lower.rate == pytest.approx(1.0, abs=1e-9)

    def test_simple_maximum(self):
        # a simple zero at a band's upper edge: the orbit's maximum
        _, upper = bands(P_CASE1A, ROOTS_CASE1A)[1]
        assert upper[:2] == (-1.0, 1)
        assert upper.rate == pytest.approx(-1.0, abs=1e-9)

    def test_double_exponential_rate_vs_second_difference(self):
        (_, below), (above, _) = bands(P_CASE1A, ROOTS_CASE1A)
        assert below == above and below[:2] == (-2.0, 2)
        assert below.rate == math.sqrt(eval_F_deriv(P_CASE1A, -2.0, 2) / 2.0)
        h = 1e-3  # second differences of F near a double zero are roundoff-bound below this
        fpp = (eval_F(P_CASE1A, -2 + h) - 2 * eval_F(P_CASE1A, -2.0)
               + eval_F(P_CASE1A, -2 - h)) / h**2
        assert below.rate == pytest.approx(math.sqrt(fpp / 2), abs=1e-5)
        assert below.rate == pytest.approx(1.0, abs=1e-9)

    def test_double_with_negative_curvature_rejected(self):
        # F = -f^2 (f-2)^2: both double zeros have F'' < 0 and bound no band
        p = Params(-1.0, 0.0, 0.0, 0.0)
        roots = roots_of_F(p)
        assert roots.entries == ((0.0, 2), (2.0, 2))
        assert all(eval_F_deriv(p, v, 2) < 0 for v in roots.values())
        assert bands(p, roots) == []

    def test_triple_orientation_flag(self):
        # F = -(f-0)^3 (f-1) has F'''(0) = 6 > 0: the triple is the band's
        # lower edge, approached from above
        p = params_from_roots(RootMultiset(((0.0, 3), (1.0, 1)))).as_floats()
        [(lower, upper)] = bands(p, RootMultiset(((0.0, 3), (1.0, 1))))
        assert lower[:2] == (0.0, 3) and upper[:2] == (1.0, 1)
        assert eval_F_deriv(p, 0.0, 3) > 0
        assert lower.rate == pytest.approx(1.0, abs=1e-12)  # sqrt(6/6)
        # mirrored, F = -(f+1)(f-0)^3: the upper edge, approached from below
        p = params_from_roots(RootMultiset(((-1.0, 1), (0.0, 3)))).as_floats()
        [(lower, upper)] = bands(p, RootMultiset(((-1.0, 1), (0.0, 3))))
        assert upper[:2] == (0.0, 3)
        assert eval_F_deriv(p, 0.0, 3) < 0
        assert upper.rate == pytest.approx(1.0, abs=1e-12)

    def test_double_rounded_below_zero_has_rate_zero(self):
        """A double edge whose computed F'' rounds below zero, next to simple
        zeros 1e-8 away, has rate 0; the orbit check reading the table still
        builds the wave."""
        sol = case1("cn", 1.0, 1.0 + 1e-8, 1.0 + 2e-8)
        (_, double), _ = bands(sol.params, sol.roots)
        assert double.mult == 2 and eval_F_deriv(sol.params, double.value, 2) < 0
        assert double.rate == 0.0

    def test_quadruple(self):
        # F = -f^4: only the constant f = 0 is real, so there is no band
        p = Params(0.0, 0.0, 0.0, 0.0)
        assert roots_of_F(p).entries == ((0.0, 4),)
        assert bands(p, RootMultiset(((0.0, 4),))) == []


class TestVanishingReduction:
    """All integration constants zero: Params(c, 0, 0, 0), the ell = 2 case
    of reduce_vanishing, with F = -f^2 (f + 2c)^2 <= 0."""

    def test_c2_evaluation(self):
        p = Params(2.0, 0.0, 0.0, 0.0)
        assert eval_F(p, 1.0) == -25.0  # = -(1)^2 (1+4)^2
        assert roots_of_F(p).entries == ((-4.0, 2), (0.0, 2))

    def test_degenerate_quadruple(self):
        roots = roots_of_F(Params(0.0, 0.0, 0.0, 0.0))
        assert roots.entries == ((0.0, 4),)
        assert classify(roots) is CaseTag.QUADRUPLE

    def test_negative_speed(self):
        roots = roots_of_F(Params(-1.0, 0.0, 0.0, 0.0))
        assert roots.entries == ((0.0, 2), (2.0, 2))
        assert classify(roots) is CaseTag.TWO_DOUBLES_ONLY

    def test_exact_rational(self):
        zero = Fraction(0)
        p = Params(Fraction(1, 3), zero, zero, zero)
        assert eval_F(p, Fraction(1)) == Fraction(-25, 9)
        # F is the recurrence's P_2 exactly, at every rational f and c
        P2 = reduce_vanishing(2).P
        for c in (Fraction(1, 3), Fraction(-7, 4), Fraction(5)):
            p = Params(c, zero, zero, zero)
            for f in (Fraction(1), Fraction(-2, 3), Fraction(9, 2)):
                assert eval_F(p, f) == P2(f, c)

    def test_nonpositive_everywhere(self):
        rng = np.random.default_rng(23)
        for c in rng.uniform(-5, 5, size=100):
            p = Params(float(c), 0.0, 0.0, 0.0)
            f = rng.uniform(-10, 10, size=100)
            assert np.all(eval_F(p, f) <= 1e-9)


class TestTails:
    def test_solitary_double_exponential_tail(self):
        """ln|f - f_dbl| is asymptotically linear with slope -rate."""
        sol = solitary_double(-3.0, -2.0, -1.0, branch="upper")
        rate = bands(P_CASE1A, ROOTS_CASE1A)[0][1].rate
        xi = np.linspace(8.0, 12.0, 81)
        f, _ = sol.profile(xi)
        slope = np.polyfit(xi, np.log(np.abs(f + 2.0)), 1)[0]
        assert abs(slope + rate) < 0.01 * rate

    def test_solitary_triple_algebraic_tail(self):
        """(f - f_triple) xi^2 -> 4/(f_simple - f_triple) = 4/rate^2."""
        ftr, fsv = 0.5, 2.5
        sol = solitary_triple(ftr, fsv)
        xi = 1e3
        f, _ = sol.evaluate(xi)
        limit = 4.0 / (fsv - ftr)
        assert abs((f - ftr) * xi**2 - limit) < 0.02 * abs(limit)
        [(triple, _)] = bands(sol.params, sol.roots)
        assert triple[:2] == (ftr, 3)
        assert 4.0 / triple.rate**2 == pytest.approx(limit, rel=1e-12)
