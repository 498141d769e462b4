"""Reduction layer: second field, local orbit behavior, vanishing boundary."""

import math
from fractions import Fraction

import numpy as np
import pytest

from kbwave.errors import InvalidConfiguration
from kbwave.quartic import CaseTag, Params, classify, eval_F
from kbwave.reduction import (
    DOUBLE_EXPONENTIAL,
    QUADRUPLE_CONSTANT,
    SIMPLE_MIN,
    TRIPLE_ALGEBRAIC,
    g_from_f,
    local_behavior,
    vanishing_reduction_l2,
)
from kbwave.solutions import solitary_double, solitary_triple

P_CASE1A = Params(2.0, -7 / 4, -7 / 2, -3 / 2)


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
    def test_simple_minimum(self):
        form = local_behavior(-3.0, 1, P_CASE1A)
        assert form.kind == SIMPLE_MIN
        # F'(-3) = 2 from the factored derivative, so f''(xi1) = 1
        assert form.rate == pytest.approx(1.0, abs=1e-9)

    def test_double_exponential_rate_vs_second_difference(self):
        form = local_behavior(-2.0, 2, P_CASE1A)
        assert form.kind == DOUBLE_EXPONENTIAL
        h = 1e-3  # second differences of F near a double zero are roundoff-bound below this
        fpp = (eval_F(P_CASE1A, -2 + h) - 2 * eval_F(P_CASE1A, -2.0)
               + eval_F(P_CASE1A, -2 - h)) / h**2
        assert form.rate == pytest.approx(math.sqrt(fpp / 2), abs=1e-5)
        assert form.rate == pytest.approx(1.0, abs=1e-9)

    def test_double_with_negative_curvature_rejected(self):
        # F = -f^2 (f-2)^2: both double zeros have F'' < 0
        p = Params(-1.0, 0.0, 0.0, 0.0)
        with pytest.raises(InvalidConfiguration, match="no real orbit"):
            local_behavior(0.0, 2, p)

    def test_triple_orientation_flag(self):
        # F = -(f-0)^3 (f-1) has F'''(0) = 6 > 0: approach from above
        from kbwave.quartic import RootMultiset, params_from_roots

        p = params_from_roots(RootMultiset(((0.0, 3), (1.0, 1)))).as_floats()
        form = local_behavior(0.0, 3, p)
        assert form.kind == TRIPLE_ALGEBRAIC
        assert form.from_above is True
        assert form.rate == pytest.approx(1.0, abs=1e-12)  # sqrt(6/6)

    def test_quadruple(self):
        form = local_behavior(0.0, 4, Params(0.0, 0.0, 0.0, 0.0))
        assert form.kind == QUADRUPLE_CONSTANT

    def test_not_a_zero_rejected(self):
        with pytest.raises(InvalidConfiguration):
            local_behavior(0.5, 1, P_CASE1A)


class TestVanishingReduction:
    def test_c2_evaluation(self):
        p, roots = vanishing_reduction_l2(2.0)
        assert eval_F(p, 1.0) == -25.0  # = -(1)^2 (1+4)^2
        assert roots.entries == ((-4.0, 2), (0.0, 2))

    def test_degenerate_quadruple(self):
        _, roots = vanishing_reduction_l2(0.0)
        assert roots.entries == ((0.0, 4),)
        assert classify(roots) is CaseTag.QUADRUPLE

    def test_negative_speed(self):
        _, roots = vanishing_reduction_l2(-1.0)
        assert roots.entries == ((0.0, 2), (2.0, 2))
        assert classify(roots) is CaseTag.TWO_DOUBLES_ONLY

    def test_exact_rational(self):
        p, roots = vanishing_reduction_l2(Fraction(1, 3))
        assert eval_F(p, Fraction(1)) == Fraction(-25, 9)

    def test_nonpositive_everywhere(self):
        rng = np.random.default_rng(23)
        for c in rng.uniform(-5, 5, size=100):
            p, _ = vanishing_reduction_l2(float(c))
            f = rng.uniform(-10, 10, size=100)
            assert np.all(eval_F(p, f) <= 1e-9)


class TestTails:
    def test_solitary_double_exponential_tail(self):
        """ln|f - f_dbl| is asymptotically linear with slope -rate."""
        sol = solitary_double(-3.0, -2.0, -1.0, branch="upper")
        rate = local_behavior(-2.0, 2, P_CASE1A).rate
        xi = np.linspace(8.0, 12.0, 81)
        f, _ = sol.profile(xi)
        slope = np.polyfit(xi, np.log(np.abs(f + 2.0)), 1)[0]
        assert abs(slope + rate) < 0.01 * rate

    def test_solitary_triple_algebraic_tail(self):
        """(f - f_triple) xi^2 -> 4/(f_simple - f_triple)."""
        ftr, fsv = 0.5, 2.5
        sol = solitary_triple(ftr, fsv)
        xi = 1e3
        f, _ = sol.evaluate(xi)
        limit = 4.0 / (fsv - ftr)
        assert abs((f - ftr) * xi**2 - limit) < 0.02 * abs(limit)
