"""Exact hierarchy reductions, the conjecture report, and the ell=3 profile."""

import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbwave import hierarchy
from kbwave.errors import OutOfBranchRange
from kbwave.hierarchy import (
    MAX_ELL,
    FieldStack,
    FPoly,
    conjecture_report,
    even_ell_nonexistence,
    l3_asymptotes,
    l3_fields,
    l3_implicit_profile,
    reduce_l3_full,
    reduce_vanishing,
)
from kbwave.quartic import Params

F = Fraction
_RATIONAL = st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**4))
_FLOAT = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def poly_from(coeffs):
    return FPoly(coeffs)


class TestFPoly:
    def test_arithmetic_exact(self):
        p = FPoly({(1, 0): 1})  # f
        q = FPoly({(0, 1): 2, (1, 0): 1})  # f + 2c
        prod = p * q
        assert prod == FPoly({(2, 0): 1, (1, 1): 2})
        assert (prod - prod).is_zero()
        assert p + FPoly() is p and FPoly() + p is p  # no copy for a zero term

    def test_integrate_and_derive(self):
        p = FPoly({(2, 1): F(3)})  # 3 c f^2
        assert p.integrate_f() == FPoly({(3, 1): 1})
        assert p.integrate_f().deriv_f() == p

    def test_coefficients_normalised(self):
        p = FPoly({(2.0, 1): 3, (1, 0): 0.5, (0, 2): F(0), (3, 0): F(2, 6)})
        assert p.coeffs == {(2, 1): F(3), (1, 0): F(1, 2), (3, 0): F(1, 3)}
        assert all(type(v) is F for v in p.coeffs.values())
        assert all(type(i) is int and type(j) is int for i, j in p.coeffs)

    def test_evaluation_paths(self):
        p = FPoly({(2, 0): F(1, 2), (0, 1): 1})
        assert p(F(2), F(3)) == F(5)
        assert p(2.0, 3.0) == pytest.approx(5.0)


class TestReduceVanishing:
    def test_ell2_display(self):
        stack = reduce_vanishing(2)
        # P_2 = -f^4 - 4c f^3 - 4c^2 f^2 = -f^2 (f + 2c)^2
        assert stack.P == FPoly({(4, 0): -1, (3, 1): -4, (2, 2): -4})

    def test_ell3_display(self):
        stack = reduce_vanishing(3)
        # P_3 = f^5/2 + 3c f^4 + 6c^2 f^3 + 4c^3 f^2
        assert stack.P == FPoly(
            {(5, 0): F(1, 2), (4, 1): 3, (3, 2): 6, (2, 3): 4}
        )

    def test_ell4_display(self):
        stack = reduce_vanishing(4)
        # P_4 = -f^2 (f + 2c)^4 / 4
        want = FPoly(
            {(6, 0): F(-1, 4), (5, 1): -2, (4, 2): -6, (3, 3): -8, (2, 4): -4}
        )
        assert stack.P == want

    def test_second_field_is_always_the_same(self):
        for ell in range(2, 7):
            stack = reduce_vanishing(ell)
            assert stack.fields[1] == FPoly({(1, 1): -1, (2, 0): F(-3, 4)})

    def test_step_matches_integral_form(self):
        """p_{j+1} = -(c + f/2) p_j - (1/2) int p_j, the recurrence's step,
        equals the integral form -int [(c + s/2) p_j' + p_j] exactly."""
        half_shift = FPoly({(0, 1): 1, (1, 0): F(1, 2)})
        fields = reduce_vanishing(12).fields
        for p, p_next in zip(fields, fields[1:]):
            assert p_next == -(half_shift * p.deriv_f() + p).integrate_f()

    def test_fields_do_not_depend_on_ell(self):
        """One run of the recurrence serves every ell: the fields of ell are
        the first ell fields of any larger ell."""
        longest = reduce_vanishing(12).fields
        for ell in range(2, 12):
            assert reduce_vanishing(ell).fields == longest[:ell]

    def test_degree_growth(self):
        for ell in range(2, 9):
            stack = reduce_vanishing(ell)
            for j, poly in enumerate(stack.fields, start=1):
                assert poly.degree_f() == j
            assert stack.P.degree_f() == ell + 2

    def test_double_zero_at_origin(self):
        for ell in range(2, 11):
            P = reduce_vanishing(ell).P
            assert P.coeff_f(0).is_zero()
            assert P.coeff_f(1).is_zero()

    def test_leading_sign_alternates(self):
        for ell in range(2, 5):  # asserted where the closed forms confirm it
            P = reduce_vanishing(ell).P
            lead = P.coeff_f(ell + 2).coeffs[(0, 0)]
            assert (lead > 0) == (ell % 2 == 1)

    def test_ell_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            reduce_vanishing(1)

    def test_ell_above_the_limit_refused_before_any_work(self, monkeypatch):
        monkeypatch.setattr(hierarchy, "_stacks", None)  # any run would raise TypeError
        with pytest.raises(ValueError, match=f"more than MAX_ELL = {MAX_ELL}"):
            reduce_vanishing(MAX_ELL + 1)
        with pytest.raises(ValueError, match=f"more than MAX_ELL = {MAX_ELL}"):
            conjecture_report(10 ** 5)


class TestConstants:
    """The recurrence with integration constants e_1, e_2, ...: P_ell(0) =
    8 e_(ell+1), fields free of ell, and the ell = 2 and 3 reductions."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.tuples(_RATIONAL, _RATIONAL, _RATIONAL, _RATIONAL))
    def test_P2_is_the_quartic(self, values):
        """P_2 at e = (d1, -d2, d3) is F of Params(c, d1, d2, d3) exactly."""
        c, d1, d2, d3 = values
        *_, stack = hierarchy._stacks(2, (d1, -d2, d3))
        got = tuple(stack.P.coeff_f(i)(0, c) for i in range(4, -1, -1))
        assert got == Params(c, d1, d2, d3).coefficients()

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(st.lists(_RATIONAL, max_size=8))
    def test_fields_free_of_ell_and_constant_terms(self, constants):
        """A run to ell gives the fields and P_ell of a longer run, p_(j+1)(0)
        = e_j, P_ell(0) = 8 e_(ell+1), and P_4 is a sextic led by -1/4."""
        e = [*constants, *[F(0)] * 8]
        stacks = list(hierarchy._stacks(6, constants))
        longest = stacks[-1].fields
        for stack in stacks:
            ell = stack.ell
            *_, alone = hierarchy._stacks(ell, constants)
            assert (alone.fields, alone.P) == (longest[:ell], stack.P)
            assert stack.P.coeff_f(0) == FPoly({(0, 0): 8 * e[ell]})
        for j, p in enumerate(longest[1:], start=1):
            assert p.coeff_f(0) == FPoly({(0, 0): e[j - 1]})
        P4 = stacks[2].P
        assert P4.degree_f() == 6 and P4.coeff_f(6) == FPoly({(0, 0): F(-1, 4)})

    def test_zero_constants_are_the_vanishing_reduction(self):
        stacks = hierarchy._stacks(30, (F(0),) * 31)
        for ell, stack in enumerate(stacks, start=2):
            want = reduce_vanishing(ell)
            assert (stack.fields, stack.P) == (want.fields, want.P)

    def test_field_stack_refuses_a_wrong_constant_term(self):
        constants = (F(1, 3), F(-2), F(5, 7))
        *_, stack = hierarchy._stacks(2, constants)
        assert stack.P.coeff_f(0) == FPoly({(0, 0): F(40, 7)})
        FieldStack(2, stack.fields, stack.P, constants)
        for P, e in ((stack.P + FPoly({(0, 0): 1}), constants), (stack.P, constants[:2]),
                     (reduce_vanishing(2).P + FPoly({(0, 0): 1}), ())):
            with pytest.raises(ValueError, match="P_ell"):
                FieldStack(2, stack.fields, P, e)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.tuples(*[_RATIONAL] * 4))
    def test_l3_fields_are_the_chain(self, values):
        """l3_fields at rationals is g and h as written out, exactly."""
        f, c, d1, d2 = values
        g = -c * f - F(3, 4) * f * f + d1
        h = F(3, 2) * c * f * f + f ** 3 / 2 + (c * c - d1) * f + d2
        got = l3_fields(f, c, d1, d2)
        assert got == (g, h) and all(type(v) is F for v in got)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.tuples(*[_FLOAT] * 6))
    def test_float_inputs_round_the_exact_values_once(self, values):
        f, c, d1, d2, d3, d4 = values
        got = reduce_l3_full(c, d1, d2, d3, d4) + l3_fields(f, c, d1, d2)
        want = reduce_l3_full(*map(F, values[1:])) + l3_fields(*map(F, values[:4]))
        assert all(type(v) is float for v in got)
        assert list(map(repr, got)) == [repr(float(v)) for v in want]

    def test_no_exact_value_refused(self):
        """A non-finite input has no exact value, and a result too large for
        a float cannot be rounded to one."""
        with pytest.raises(ValueError):
            reduce_l3_full(1.0, float("nan"), 0.0, 0.0, 0.0)
        with pytest.raises(OverflowError):
            l3_fields(0.0, float("inf"), 0.0, 0.0)
        with pytest.raises(OverflowError):
            l3_fields(1e300, 1.0, 0.0, 0.0)


class TestConjectureReport:
    def test_runs_to_ten_quickly(self):
        t0 = time.time()
        rep = conjecture_report(10)
        assert time.time() - t0 < 5.0
        assert [r["ell"] for r in rep.rows] == list(range(2, 11))

    def test_ell2_both_candidates_coincide(self):
        rep = conjecture_report(4)
        row = rep.rows[0]
        assert row["ell"] == 2
        assert row["printed_match"] and row["pattern_match"]

    def test_ell4_discrepancy_flagged(self):
        rep = conjecture_report(4)
        row = next(r for r in rep.rows if r["ell"] == 4)
        assert row["printed_match"] is False  # denominator 16 vs actual 4
        assert row["pattern_match"] is True

    def test_stacks_are_the_reductions(self):
        """The report keeps the FieldStack of every ell it walked."""
        rep = conjecture_report(10)
        assert [s.ell for s in rep.stacks] == list(range(2, 11))
        for ell in range(2, 11):
            assert rep.stacks[ell - 2] == reduce_vanishing(ell)

    def test_pattern_holds_to_ten(self):
        rep = conjecture_report(10)
        assert all(r["pattern_match"] for r in rep.rows)

    def test_serialization(self):
        rep = conjecture_report(4)
        assert '"rows"' in rep.to_json()
        assert "MISMATCH" in rep.to_text()


class TestNonexistence:
    def test_even_ell_verdicts(self):
        for ell in (2, 4, 6, 8):
            msg = even_ell_nonexistence(ell)
            assert "no non-constant real solution" in msg

    def test_p4_nonpositive_numerically(self):
        P = reduce_vanishing(4).P
        rng = np.random.default_rng(19)
        for c in rng.uniform(-4, 4, size=100):
            for f in rng.uniform(-8, 8, size=20):
                assert P(float(f), float(c)) <= 1e-9

    def test_odd_ell_rejected(self):
        with pytest.raises(ValueError):
            even_ell_nonexistence(3)


class TestL3Full:
    def test_vanishing_case(self):
        assert reduce_l3_full(1, 0, 0, 0, 0) == (F(1, 2), 3, 6, 4, 0, 0)

    def test_cubic_coefficient(self):
        coeffs = reduce_l3_full(0, 1, 0, 0, 0)
        assert coeffs[2] == -2  # f^3 coefficient is 6c^2 - 2 d1

    def test_resubstitution_identity(self):
        """Rebuild the quintic from the reduction chain at random rationals.

        With h the third field, (1/4) f'' = -int_0^f [(c+s/2) h'(s) + h(s)] ds
        + d3, and multiplying by 8 f' and integrating gives the quintic; check
        its coefficients exactly against reduce_l3_full.
        """
        rng = np.random.default_rng(29)
        for _ in range(100):
            c, d1, d2, d3, d4 = (F(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
                                 for _ in range(5))
            got = reduce_l3_full(c, d1, d2, d3, d4)
            # chain: g and h as polynomials in f (exact)
            g = FPoly({(1, 0): -c, (2, 0): F(-3, 4), (0, 0): d1})
            h = FPoly({(2, 0): F(3, 2) * c, (3, 0): F(1, 2),
                       (1, 0): c * c - d1, (0, 0): d2})
            shift = FPoly({(0, 0): c, (1, 0): F(1, 2)})
            integrand = shift * h.deriv_f() + h
            quarter_fpp = integrand.integrate_f() + FPoly({(0, 0): d3})
            quintic = 8 * quarter_fpp.integrate_f() + FPoly({(0, 0): 8 * d4})
            want = [quintic.coeff_f(i).coeffs.get((0, 0), F(0)) for i in range(5, -1, -1)]
            assert list(got) == want

    def test_matches_recurrence_fields(self):
        """g and h agree with the vanishing-reduction polynomials when d = 0."""
        stack = reduce_vanishing(3)
        rng = np.random.default_rng(37)
        for _ in range(100):
            f = F(int(rng.integers(-20, 21)), int(rng.integers(1, 9)))
            c = F(int(rng.integers(-20, 21)), int(rng.integers(1, 9)))
            g, h = l3_fields(f, c, 0, 0)
            assert g == stack.fields[1](f, c)
            assert h == stack.fields[2](f, c)


class TestL3Fields:
    def test_at_zero(self):
        assert l3_fields(0.0, 1.7, 0.25, -0.5) == (0.25, -0.5)

    def test_at_background(self):
        c = 1.3
        g, h = l3_fields(-2 * c, c, 0.0, 0.0)
        assert g == pytest.approx(-c * c, abs=1e-12)
        assert h == pytest.approx(0.0, abs=1e-12)


class TestL3Implicit:
    def test_residual_400_points(self):
        c = 1.0
        xi = np.linspace(-8.0, 8.0, 400)
        delta = 1e-5
        f, _ = l3_implicit_profile(c, xi, "+")
        f_p, _ = l3_implicit_profile(c, xi + delta, "+")
        f_m, _ = l3_implicit_profile(c, xi - delta, "+")
        fp = (f_p - f_m) / (2 * delta)
        res = np.abs(fp**2 - f**2 * (f + 2 * c) ** 3 / 2.0)
        assert np.max(res) < 1e-6

    def test_monotone_and_asymptotes(self):
        xi = np.linspace(-30.0, 30.0, 601)
        f, fp = l3_implicit_profile(1.0, xi, "+")
        assert np.all(np.diff(f) > 0)
        assert np.all(fp >= 0)
        lo, hi = l3_asymptotes(1.0, "+")
        # the -2c end is a triple zero of the quintic: algebraic tail 2c/xi^2
        assert abs((f[0] - lo) * xi[0] ** 2 - 2.0) < 0.2
        assert abs(f[-1] - hi) < 1e-12  # the f -> 0 end closes logarithmically fast
        g, _ = l3_implicit_profile(1.0, xi, "-")
        assert np.all(np.diff(g) < 0)

    def test_log_divergence_near_zero(self):
        # f -> 0 only as xi -> +inf on the '+' branch (log singularity)
        f, _ = l3_implicit_profile(1.0, np.array([50.0, 100.0, 200.0]), "+")
        assert np.all(f < 0)
        assert abs(f[-1]) < abs(f[0])
        assert abs(f[-1]) < 1e-10

    def test_out_of_range(self):
        with pytest.raises(OutOfBranchRange):
            l3_implicit_profile(1.0, np.array([1e6]), "+")

    def test_requires_positive_speed(self):
        with pytest.raises(ValueError):
            l3_implicit_profile(-1.0, np.array([0.0]), "+")
