"""Quartic first integral: evaluation, roots, parameter maps, taxonomy."""

import contextlib
import inspect
import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction
from dataclasses import astuple
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kbwave import quartic
from kbwave.quartic import (
    CaseTag,
    Params,
    RootMultiset,
    band_edges,
    bands,
    classify,
    eval_F,
    eval_F_deriv,
    existence,
    params_from_roots,
    quadratic_cofactor,
    roots_of_F,
)

S3 = math.sqrt(3.0)
S14 = math.sqrt(14.0)

P_CASE1A = Params(2.0, -7 / 4, -7 / 2, -3 / 2)          # F = -(f+3)(f+1)(f+2)^2
P_CASE1B = Params(2.0, -25 / 16, -25 / 8, -39 / 32)     # four simple zeros


def factored_F(f, roots):
    out = -1.0
    for r in roots:
        out *= f - r
    return out


class TestEvalF:
    def test_double_root_fixture(self):
        assert eval_F(P_CASE1A, -2.0) == 0.0

    def test_constant_term(self):
        p = Params(0.3, -1.1, 2.0, 0.7)
        assert eval_F(p, 0.0) == 8 * 0.7

    def test_factored_form_oracle(self):
        f = -2.5
        expected = factored_F(f, (-3.0, -1.0, -2.0, -2.0))
        assert eval_F(P_CASE1A, f) == pytest.approx(expected, rel=1e-14)

    def test_exact_rational_path(self):
        p = Params(Fraction(2), Fraction(-7, 4), Fraction(-7, 2), Fraction(-3, 2))
        assert eval_F(p, Fraction(-2)) == 0
        assert eval_F(p, Fraction(-5, 2)) == Fraction(3, 16)

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(11)
        p = Params(*rng.normal(size=4))
        h = 1e-6
        for f in rng.uniform(-3, 3, size=10):
            fd = (eval_F(p, f + h) - eval_F(p, f - h)) / (2 * h)
            assert abs(eval_F_deriv(p, f, 1) - fd) < 1e-6 * max(1, abs(fd))

    @staticmethod
    def hand_deriv(p, f, order):
        """F's derivatives written out by hand, the reference eval_F_deriv
        must match bit for bit."""
        c, d1, d2 = p.c, p.d1, p.d2
        if order == 0:
            return eval_F(p, f)
        if order == 1:
            return ((-4 * f - 12 * c) * f + 8 * (d1 - c * c)) * f + 8 * d2
        if order == 2:
            return (-12 * f - 24 * c) * f + 8 * (d1 - c * c)
        if order == 3:
            return -24 * f - 24 * c
        return -24 * (f * 0 + 1) if hasattr(f, "__len__") else -24.0

    @pytest.mark.parametrize("order", range(5))
    def test_derivatives_match_hand_formulas(self, order):
        rng = np.random.default_rng(order)
        for _ in range(2000):
            p = Params(*(rng.normal(size=4) * 10.0 ** rng.uniform(-3, 3, size=4)))
            f = rng.normal() * 10.0 ** rng.uniform(-3, 3)
            got, want = eval_F_deriv(p, f, order), self.hand_deriv(p, f, order)
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
            fs = rng.normal(size=9)
            got, want = eval_F_deriv(p, fs, order), self.hand_deriv(p, fs, order)
            assert got.shape == fs.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        p = Params(Fraction(2), Fraction(-7, 4), Fraction(-7, 2), Fraction(-3, 2))
        for f in (Fraction(-5, 2), Fraction(0), Fraction(13, 7)):
            assert eval_F_deriv(p, f, order) == self.hand_deriv(p, f, order)

    def test_derivative_order_checked(self):
        with pytest.raises(ValueError, match="order must be 0..4"):
            eval_F_deriv(P_CASE1A, 0.0, 5)


class TestRoots:
    def test_case1a_multiset(self):
        rm = roots_of_F(P_CASE1A)
        assert rm.multiplicities() == (1, 2, 1)
        vals = rm.values()
        assert vals[0] == pytest.approx(-3.0, abs=1e-8)
        assert vals[1] == pytest.approx(-2.0, abs=1e-8)
        assert vals[2] == pytest.approx(-1.0, abs=1e-8)

    def test_no_real_zeros(self):
        rm = roots_of_F(Params(0.0, 0.0, 0.0, -1 / 8))  # F = -f^4 - 1
        assert rm.entries == ()

    def test_case1b_four_simple(self):
        rm = roots_of_F(P_CASE1B)
        assert rm.multiplicities() == (1, 1, 1, 1)
        expected = (-3.0, -2.0 - 0.5 * S3, -2.0 + 0.5 * S3, -1.0)
        for got, want in zip(rm.values(), expected):
            assert got == pytest.approx(want, abs=1e-9)

    def test_reported_roots_are_zeros(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            roots = np.sort(rng.uniform(-4, 4, size=4))
            p = params_from_roots(RootMultiset(tuple((v, 1) for v in roots)))
            if min(np.diff(roots)) < 1e-3:
                continue  # keep the simple-root regime for this check
            rm = roots_of_F(p)
            scale = max(1.0, np.max(np.abs(roots))) ** 4
            for v, _ in rm.entries:
                assert abs(eval_F(p, v)) <= 1e-9 * scale

    def test_no_tolerance_to_set(self):
        """The float path's clustering tolerance is its own: roots_of_F takes
        the params alone."""
        assert list(inspect.signature(roots_of_F).parameters) == ["p"]
        assert not any("TOL" in name for name in quartic.__all__)


def _exact_params(zeros, pairs=()):
    """Params of F = -prod (f - z)^m * prod ((f - x)^2 + y^2), exactly."""
    poly = [Fraction(1)]  # -F, highest degree first
    factors = [[1, -z] for z, m in zeros for _ in range(m)]
    factors += [[1, -2 * x, x * x + y * y] for x, y in pairs]
    for fac in factors:
        out = [Fraction(0)] * (len(poly) + len(fac) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(fac):
                out[i + j] += a * b
        poly = out
    _, a3, a2, a1, a0 = poly
    c = a3 / 4
    return Params(c, c * c - a2 / 4, -a1 / 8, -a0 / 8)



class TestParams:
    @pytest.mark.parametrize("value", [
        math.nan, math.inf, np.float32("nan"), np.float16("inf"), np.longdouble("inf"),
        np.float64("-inf"),
    ], ids=["nan", "inf", "float32-nan", "float16-inf", "longdouble-inf", "float64-minus-inf"])
    @pytest.mark.parametrize("name", ["c", "d1", "d2", "d3"])
    def test_non_finite_refused(self, name, value):
        """Every real that is not rational is checked, numpy scalars too: a
        NaN or an infinity used to reach LAPACK from roots_of_F."""
        values = {"c": 0.0, "d1": 0.0, "d2": 0.0, "d3": 0.0, name: value}
        with pytest.raises(ValueError, match=f"parameter {name} must be finite, got "):
            Params(**values)

    def test_rationals_of_any_size_accepted(self):
        p = Params(10**400, Fraction(1, 10**400), Fraction(-3, 7), 0)
        assert p.c == 10**400


class TestAsFloats:
    def test_float_params_are_their_own_floats(self):
        assert P_CASE1A.as_floats() is P_CASE1A

    @pytest.mark.parametrize("params", [
        Params(Fraction(2), Fraction(-7, 4), Fraction(-7, 2), Fraction(-3, 2)),
        Params(2, -1.75, -3.5, -1.5),
        Params(np.float64(2.0), -1.75, -3.5, -1.5),
    ], ids=["fractions", "int", "numpy-scalar"])
    def test_other_params_become_floats(self, params):
        got = params.as_floats()
        assert got == P_CASE1A
        assert all(type(v) is float for v in (got.c, got.d1, got.d2, got.d3))


class TestZerosTooLarge:
    """Zeros so large that the bound of a check on F, scale^k, does not fit
    a float are refused with a ValueError (an OverflowError before)."""

    def test_scaled_bound(self):
        assert quartic.scaled_bound(1e-8, 10.0, 4) == 1e-8 * 10.0 ** 4
        with pytest.raises(ValueError, match=r"the bound 1e-08 \* 1e\+100\^4 does not fit"):
            quartic.scaled_bound(1e-8, 1e100, 4)

    @pytest.mark.parametrize("params", [
        Params(1e100, 1e199, 0.0, 0.0),
        Params(0, 0, 0, Fraction(int(np.finfo(float).max), 8)),
    ], ids=["simple-zeros-near-1e100", "largest-d3"])
    def test_roots_of_F_refuses(self, params):
        """The eigensolve's check on F refuses them; rational params reach
        it only where the closed form fails, forced here."""
        with _eigensolve_only():
            with pytest.raises(ValueError, match="are too large: the bound 0.001 \\* "):
                roots_of_F(params)

    def test_certified_zeros_need_no_bound(self):
        """-F = f^4 - 8 d3 with 8 d3 the largest float: the closed form's
        zeros +-(8 d3)^(1/4), about 1.16e77, are certified in integers, with
        no float check on F to overflow."""
        p = Params(0, 0, 0, Fraction(int(np.finfo(float).max), 8))
        rm = roots_of_F(p)
        assert classify(rm) is CaseTag.TWO_SIMPLE_ONLY
        _assert_brackets(p, rm)
        assert rm.values()[1] == pytest.approx(float(np.finfo(float).max) ** 0.25, rel=1e-15)

    def test_zeros_just_below_the_limit_accepted(self):
        rm = roots_of_F(params_from_roots(RootMultiset(((-1e76, 1), (0.0, 2), (1e76, 1)))))
        assert classify(rm) is CaseTag.DOUBLE_BETWEEN_SIMPLES


class TestCoefficientsTooLarge:
    @pytest.mark.parametrize("params, name, text", [
        (Params(1e200, 0.0, 0.0, 0.0), "4 (d1 - c^2)", "c=1e+200, d1=0, d2=0, d3=0"),
        (Params(0.0, 0.0, 1e308, 0.0), "8 d2", "c=0, d1=0, d2=1e+308, d3=0"),
        (Params(0.0, 0.0, 0.0, -1e308), "8 d3", "c=0, d1=0, d2=0, d3=-1e+308"),
        (Params(Fraction(10**400), Fraction(0), Fraction(0), Fraction(0)), "-4 c",
         "c=inf, d1=0, d2=0, d3=0"),
        (Params(Fraction(1, 3), Fraction(10**310, 7), Fraction(0), Fraction(0)),
         "4 (d1 - c^2)", "c=0.3333333333333333, d1=inf, d2=0, d3=0"),
        (Params(0, 0, 0, Fraction(-10**400, 3)), "8 d3", "c=0, d1=0, d2=0, d3=-inf"),
        (Params(Fraction(10**400), 0.0, 0.0, 0.0), "-4 c", "c=inf, d1=0, d2=0, d3=0"),
    ], ids=["float-c", "float-d2", "float-d3", "fraction-c", "fraction-d1", "int-d3", "mixed"])
    def test_refused_before_the_eigensolve(self, params, name, text):
        """A coefficient of F beyond the largest float is named with the
        params, each as its shortest double (an infinity past the largest),
        instead of a LAPACK or OverflowError message."""
        msg = f"coefficient {name} of F does not fit a float: {text}"
        with pytest.raises(ValueError) as err:
            roots_of_F(params)
        assert str(err.value) == msg

    def test_largest_fitting_coefficient_accepted(self):
        """An exact coefficient that rounds to the largest float still fits."""
        top = Fraction(int(np.finfo(float).max), 8)
        p = Params(Fraction(0), Fraction(0), Fraction(0), top)
        assert quartic._float_coefficients(p)[-1] == np.finfo(float).max


class TestMultipleZeros:
    """np.roots splits an m-fold zero into m roots about eps^(1/m) apart;
    roots_of_F must still report one m-fold zero."""

    F = Fraction
    # (real zeros with multiplicities, complex pairs (x, y)) per case tag
    SIGNATURES = {
        CaseTag.NO_REAL_ZEROS: ((), ((F(-1), F(1, 2)), (F(3, 4), F(5, 4)))),
        CaseTag.TWO_SIMPLE_ONLY: (((F(-3, 2), 1), (F(5, 4), 1)), ((F(1, 4), F(3, 4)),)),
        CaseTag.ONE_DOUBLE_ONLY: (((F(-5, 4), 2),), ((F(1, 2), F(7, 8)),)),
        CaseTag.TWO_DOUBLES_ONLY: (((F(-7, 4), 2), (F(3, 2), 2)), ()),
        CaseTag.QUADRUPLE: (((F(-5, 4), 4),), ()),
        CaseTag.DOUBLE_BELOW_SIMPLES: (((F(-2), 2), (F(-1, 4), 1), (F(3, 2), 1)), ()),
        CaseTag.DOUBLE_BETWEEN_SIMPLES: (((F(-2), 1), (F(-1, 4), 2), (F(3, 2), 1)), ()),
        CaseTag.DOUBLE_ABOVE_SIMPLES: (((F(-2), 1), (F(-1, 4), 1), (F(3, 2), 2)), ()),
        CaseTag.TRIPLE_WITH_SIMPLE_ABOVE: (((F(-3, 4), 3), (F(9, 8), 1)), ()),
        CaseTag.TRIPLE_WITH_SIMPLE_BELOW: (((F(-3, 4), 1), (F(9, 8), 3)), ()),
        CaseTag.FOUR_SIMPLE: (((F(-2), 1), (F(-1, 4), 1), (F(1, 2), 1), (F(3, 2), 1)), ()),
    }

    def test_every_tag_listed(self):
        assert set(self.SIGNATURES) == set(CaseTag)

    @pytest.mark.parametrize("shift", [Fraction(0), Fraction(29, 8), Fraction(-213, 64)])
    @pytest.mark.parametrize("tag", list(SIGNATURES), ids=lambda t: t.value)
    def test_exact_signature(self, tag, shift):
        zeros, pairs = self.SIGNATURES[tag]
        zeros = tuple((z + shift, m) for z, m in zeros)
        pairs = tuple((x + shift, y) for x, y in pairs)
        rm = roots_of_F(_exact_params(zeros, pairs))
        assert classify(rm) is tag
        scale = max([1.0] + [abs(float(z)) for z, _ in zeros])
        for (got, m), (want, n) in zip(rm.entries, zeros):
            assert m == n
            assert abs(got - float(want)) < 1e-8 * scale

    @pytest.mark.parametrize("zeros", [
        ((Fraction(-193, 64), 1), (Fraction(-385, 128), 2), (Fraction(277, 64), 1)),
        ((Fraction(-81, 128), 3), (Fraction(-5, 8), 1)),
    ], ids=["double", "triple"])
    def test_multiple_zero_next_to_a_close_zero(self, zeros):
        """A simple zero 1/128 away from the multiple zero joins its first
        group; the grouping must look again inside it."""
        rm = roots_of_F(_exact_params(zeros))
        assert rm.multiplicities() == tuple(m for _, m in zeros)
        for (got, _), (want, _) in zip(rm.entries, zeros):
            assert abs(got - float(want)) < 1e-7

    def test_found_quadruple_example(self):
        """F = -(f - 5)^4, which np.roots splits into two real roots and a
        complex pair about 1e-3 apart; it was tagged TwoSimpleOnly."""
        p = Params(Fraction(-5), Fraction(-25, 2), Fraction(125, 2), Fraction(-625, 8))
        assert _exact_params(((Fraction(5), 4),)) == p
        rm = roots_of_F(p)
        assert classify(rm) is CaseTag.QUADRUPLE
        assert rm.entries[0][0] == pytest.approx(5.0, abs=1e-12)

    def test_near_coincident_simple_zeros_stay_apart(self):
        """Zeros 1e-5 apart (relative) are two simple zeros, not a double."""
        zeros = ((-2.0, 1), (0.5, 1), (0.5 + 1e-5, 1), (3.0, 1))
        rm = roots_of_F(params_from_roots(RootMultiset(zeros)))
        assert rm.multiplicities() == (1, 1, 1, 1)

    def test_near_double_complex_pair_stays_complex(self):
        """A complex pair 1e-5 off the real axis is no double zero."""
        p = _exact_params(((Fraction(-2), 1), (Fraction(3), 1)),
                          ((Fraction(1, 2), Fraction(1, 100000)),))
        assert classify(roots_of_F(p)) is CaseTag.TWO_SIMPLE_ONLY


@st.composite
def _taxonomy_params(draw):
    """(params, tag): exact params of every signature in _TAGS, zeros on grids
    of 1/den shifted by up to 1e8, and, beside a multiple zero, one
    neighbour (a zero or a complex pair) 10^-U(2, 12) of its size away."""
    sig = draw(st.sampled_from(sorted(quartic._TAGS)))
    den = draw(st.sampled_from([1, 4, 64, 3, 7, 1000, 2**20]))
    shift = Fraction(draw(st.integers(-10**8 * den, 10**8 * den)), den)
    ticks = st.integers(-40 * den, 40 * den)
    values = sorted(draw(st.lists(ticks, min_size=len(sig), max_size=len(sig), unique=True)))
    zeros = [[Fraction(v, den) + shift, m] for v, m in zip(values, sig)]
    pairs = [[Fraction(x, den) + shift, Fraction(y, den)]
             for x, y in draw(st.lists(st.tuples(ticks, st.integers(1, 40 * den)),
                                       min_size=(4 - sum(sig)) // 2,
                                       max_size=(4 - sum(sig)) // 2))]
    if len(pairs) == 2 and draw(st.booleans()):
        pairs[1] = pairs[0]  # a complex double pair
    multiple = [z for z in zeros if z[1] > 1]
    # what may move next to the first multiple zero: a simple zero, the
    # second double, or a complex pair
    others = [z for z in zeros if z[1] == 1 or len(multiple) > 1 and z is multiple[-1]]
    if multiple and (others or pairs):
        anchor = multiple[0][0]
        gap = Fraction(10 ** -draw(st.floats(2, 12))) * max(1, abs(anchor))
        neighbour = draw(st.sampled_from(others + pairs))
        if neighbour in pairs:
            neighbour[:] = [anchor, gap]
        else:
            neighbour[0] = anchor + draw(st.sampled_from([-gap, gap]))
    zeros.sort()
    assume(all(a[0] < b[0] for a, b in zip(zeros, zeros[1:])))
    tag = quartic._TAGS[tuple(m for _, m in zeros)]
    return _exact_params(tuple(map(tuple, zeros)), tuple(map(tuple, pairs))), tag


class TestExactTaxonomy:
    """Rational params get their multiplicities exactly: no tolerance, and
    no eigensolve when F has a multiple zero or no real zero."""

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(_taxonomy_params())
    def test_exact_tags_next_to_close_neighbours(self, case):
        """A multiple zero or no real zero gets its exact tag and every zero
        rounded once; a square-free F with real zeros gets its tag or a
        refusal that names the params."""
        p, tag = case
        signature, zeros = _exact_truth(p)
        assert quartic._TAGS[signature] is tag
        if zeros is not None:
            _assert_exact_truth(p, zeros)
            return
        try:
            rm = roots_of_F(p)
        except ValueError as err:
            assert str(err).endswith(f"where F has {signature}: {quartic._params_text(p)}")
        else:
            assert classify(rm) is tag

    @pytest.mark.parametrize("zeros, tag", [
        # a triple zero 1/640 above its simple zero, which the eigensolve
        # splits into what the float path takes for two simple zeros
        (((Fraction(3, 2), 1), (Fraction(961, 640), 3)), CaseTag.TRIPLE_WITH_SIMPLE_BELOW),
        # a triple at 1000 with its simple zero at 1001: the float path
        # (and the CLI) still tags it TwoSimpleOnly
        (((Fraction(1000), 3), (Fraction(1001), 1)), CaseTag.TRIPLE_WITH_SIMPLE_ABOVE),
    ], ids=["found-triple", "triple-at-1000"])
    def test_pinned_triples(self, zeros, tag):
        p = _exact_params(zeros)
        if tag is CaseTag.TRIPLE_WITH_SIMPLE_ABOVE:
            assert p == Params(Fraction(-4001, 4), Fraction(-8003999, 16),
                               Fraction(500375000), Fraction(-125125000000))
        rm = roots_of_F(p)
        assert classify(rm) is tag
        assert rm.entries == tuple((float(z), m) for z, m in zeros)

    @pytest.mark.parametrize("poly, zeros", [
        ([1, 0, -4, 0, 4], ((-math.sqrt(2), 2), (math.sqrt(2), 2))),     # (f^2 - 2)^2
        ([1, -2, -2, 6, -3], ((-math.sqrt(3), 1), (1.0, 2), (math.sqrt(3), 1))),
        ([1, 0, 2, 0, 1], ()),                                          # (f^2 + 1)^2
    ], ids=["two-irrational-doubles", "irrational-simple-pair", "complex-double-pair"])
    def test_irrational_and_complex_pairs(self, poly, zeros):
        """-F = poly: irrational zeros within an ulp of the true ones."""
        _, a3, a2, a1, a0 = map(Fraction, poly)
        c = a3 / 4
        rm = roots_of_F(Params(c, c * c - a2 / 4, -a1 / 8, -a0 / 8))
        assert rm.multiplicities() == tuple(m for _, m in zeros)
        for (got, _), (want, _) in zip(rm.entries, zeros):
            assert abs(got - want) <= math.ulp(want)

    def test_no_eigensolve(self, monkeypatch):
        """Rational params take no grouping, and none of the fixtures takes
        float coefficients or the eigensolve: a multiple zero or no real
        zero never does, and a square-free F with real zeros gets certified
        closed-form zeros.  With the closed form forced to fail, a
        square-free F takes the eigensolve."""
        def refuse(name):
            def call(*args):
                raise AssertionError(name)
            return call
        for name in ("_multiple_zeros", "_clustered"):
            monkeypatch.setattr(quartic, name, refuse(name))
        for zeros, pairs in TestMultipleZeros.SIGNATURES.values():
            p = _exact_params(zeros, pairs)
            sig = tuple(m for _, m in zeros)
            with monkeypatch.context() as m:
                for name in ("_float_coefficients", "_companion_roots"):
                    m.setattr(quartic, name, refuse(name))
                assert roots_of_F(p).multiplicities() == sig
                if max(sig, default=2) > 1:
                    continue
                with _eigensolve_only(), pytest.raises(AssertionError, match="_float_coefficients"):
                    roots_of_F(p)
            with _eigensolve_only():
                assert roots_of_F(p).multiplicities() == sig

    @pytest.mark.parametrize("d2, zero, eigensolve", [
        (Fraction(1, 10000001), -1e-7,
         (-2.8284270747461937, -9.999999000000112e-08, 0.0, 2.828427174746184)),
        (Fraction(1, 1000000001), -1e-9,
         (-2.82842712424619, -9.99999999e-10, 0.0, 2.8284271252461903)),
    ], ids=["1e-7", "1e-9"])
    def test_close_simple_pair(self, d2, zero, eigensolve):
        """-F = f (f^3 - 8f - 8 d2): simple zeros at 0 and about -d2, a pair
        far closer than the float path's clustering tol, tagged FourSimple
        (they were refused), each zero certified, the one at the origin as
        +0.0.  The eigensolve's zeros, within two ulps, stay as they were."""
        p = Params(0, 2, d2, 0)
        rm = roots_of_F(p)
        assert classify(rm) is CaseTag.FOUR_SIMPLE
        _assert_brackets(p, rm)
        lo, near, origin, hi = rm.values()
        assert origin == 0.0 and math.copysign(1.0, origin) == 1.0
        assert near == pytest.approx(zero, rel=1e-6)
        assert -lo == pytest.approx(math.sqrt(8.0), rel=1e-7)
        assert hi == pytest.approx(math.sqrt(8.0), rel=1e-7)
        for got, want in zip(rm.values(), eigensolve):
            assert abs(got - want) <= 2 * math.ulp(want)
        with _eigensolve_only():
            assert roots_of_F(p).entries == tuple((v, 1) for v in eigensolve)

    def test_check_on_F_allows_its_rounding(self, monkeypatch):
        """-F = f^2 (f + 2c)^2 - 8 d3 with c about 7.8e14: its zeros about
        +-7.6e-9 lose every digit in the closed form's shift by c, so it
        takes the eigensolve.  F's float value there is within the rounding
        of its evaluation, not within 1e-3, and passes (it was refused); an
        eigenvalue moved 1e-6 off one (|F| = 2.4e18 against a rounding bound
        of 4.3e3) is still refused."""
        p = Params(Fraction(18014398509481982, 23), 0, 0, 17592186044416)
        assert quartic._exact_zeros(p) == ((1, 1, 1, 1), None)
        rm = roots_of_F(p)
        assert classify(rm) is CaseTag.FOUR_SIMPLE
        assert rm.values()[2:] == pytest.approx((-7.573261841801273e-09, 7.573261841801273e-09),
                                                rel=1e-12)
        eigenvalues = quartic._companion_roots
        monkeypatch.setattr(quartic, "_companion_roots", lambda coeffs: [
            z + 1e-6 if abs(z) < 1.0 else z for z in eigenvalues(coeffs)])
        with _eigensolve_only(), pytest.raises(ValueError, match="fails multiplicity-1 check"):
            roots_of_F(p)

    def test_distinct_zeros_on_one_double_are_refused(self):
        """-F = f^2 (f + 2^55 - 2)(f + 2^55 + 2): the simple zeros, 4 apart
        where doubles are 8 apart, round to one double.  The refusal names
        it and the params, where the multiset's order check spoke of root
        values.  With c = 2^52 the zeros -2^53 +- 2 are doubles, and stay
        apart."""
        p = Params(2 ** 54, 1, 0, 0)
        assert quartic._exact_zeros(p)[0] == (1, 1, 2)
        with pytest.raises(ValueError, match=re.escape(
                "two distinct zeros of F round to the same double, -3.602879701896397e+16: "
                "c=1.8014398509481984e+16, d1=1, d2=0, d3=0")):
            roots_of_F(p)
        rm = roots_of_F(Params(2 ** 52, 1, 0, 0))
        assert rm.entries == ((-2.0 ** 53 - 2, 1), (-2.0 ** 53 + 2, 1), (0.0, 2))


@contextlib.contextmanager
def _eigensolve_only():
    """roots_of_F with the closed form for a square-free F forced to fail,
    so that F takes the eigensolve as it did before there was one."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(quartic, "_certified_zeros", lambda *args: None)
        yield


def _exact_F(p, f):
    """F at the float or rational f, exactly, for any params."""
    return eval_F(Params(*map(Fraction, (p.c, p.d1, p.d2, p.d3))), Fraction(f))


def _assert_brackets(p, rm):
    """Each zero z of rm is within an ulp of an exact zero of F: F, in
    Fractions, has opposite signs at the floats next to z, and these
    brackets do not overlap, so each holds its own zero."""
    above = -math.inf
    for z in rm.values():
        lo, hi = math.nextafter(z, -math.inf), math.nextafter(z, math.inf)
        assert lo >= above, (p, rm)
        assert _exact_F(p, lo) * _exact_F(p, hi) < 0, (p, z)
        above = hi


@st.composite
def _square_free_params(draw):
    """(params, real zeros ascending): exact params of an F with signature
    (1, 1) or (1, 1, 1, 1).  Each real zero, and the complex pair's centre
    and half-width, is 0 (one in ten) or of size 10^U(-6, 8) over a
    denominator of 1, 3, 7 or 1000; in a third of draws a second real zero
    sits 10^-U(3, 12) of the first's size (or absolutely, at 0) above it."""
    n = draw(st.sampled_from([2, 4]))
    den = draw(st.sampled_from([1, 3, 7, 1000]))

    def value():
        if draw(st.integers(0, 9)) == 0:
            return Fraction(0)
        return draw(st.sampled_from([-1, 1])) * Fraction(10.0 ** draw(st.floats(-6, 8))) / den

    zeros = [value() for _ in range(n)]
    if draw(st.integers(0, 2)) == 0:
        zeros[1] = zeros[0] + Fraction(10.0 ** -draw(st.floats(3, 12))) * (abs(zeros[0]) or 1)
    zeros.sort()
    assume(len(set(zeros)) == n)
    pairs = [] if n == 4 else [(value(), abs(value()) or Fraction(1, den))]
    return _exact_params(tuple((z, 1) for z in zeros), tuple(pairs)), zeros


# (c, d1, d2, d3) of CHANGES.md's FOUND entry on _square_free_zeros: real
# zeros about 5.056e11, 2.7 apart, and a complex pair 6.6e-14 +- 1.8e-9 i
_FOUND_PARAMS = Params(
    Fraction(-9227754210085524680000000000, 36501570957980567),
    Fraction(96526990886447538, 219439558145317523),
    Fraction(57350387266417023000000000, 13609593879717259),
    Fraction(-683653757267252660000, 6277799351634859))


class TestCertifiedZeros:
    """A square-free F with real zeros and rational params gets closed-form
    zeros, each within an ulp of its exact zero by a sign change of the
    exact F, or, where that certificate fails, what the eigensolve gives."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_square_free_params())
    def test_each_zero_brackets_its_exact_zero(self, case):
        """Certified zeros: the exact signature, tag and verdict (the
        eigensolve's, where it answers), each exact zero strictly between
        the floats next to its float, and a zero at the origin as +0.0.
        Uncertified ones: the eigensolve's outcome, bit for bit."""
        p, zeros = case
        tag = quartic._TAGS[(1,) * len(zeros)]
        with _eigensolve_only():
            eigensolve = _outcome(roots_of_F, p)
        if quartic._exact_zeros(p)[1] is None:
            assert _outcome(roots_of_F, p) == eigensolve
            return
        rm = roots_of_F(p)
        assert classify(rm) is tag
        assert existence(classify(rm)) == existence(tag)
        if not isinstance(eigensolve, str):
            assert [m for *_, m in eigensolve] == list(rm.multiplicities())
        _assert_brackets(p, rm)
        for z, t in zip(rm.values(), zeros):
            assert math.nextafter(z, -math.inf) < t < math.nextafter(z, math.inf), (p, z, t)
            if z == 0.0:
                assert math.copysign(1.0, z) == 1.0, p

    @pytest.mark.parametrize("d1, d3, zeros", [
        (Fraction(3, 4), Fraction(1, 2), (-2.0, 2.0)),       # (f^2 - 4)(f^2 + 1)
        (Fraction(-3, 4), Fraction(1, 2), (-1.0, 1.0)),      # (f^2 - 1)(f^2 + 4)
        (Fraction(5, 4), Fraction(-1, 2), (-2.0, -1.0, 1.0, 2.0)),
    ])
    def test_biquadratic(self, d1, d3, zeros):
        """-F = f^4 - 4 d1 f^2 - 8 d3, whose factors in f^2 take the place
        of Ferrari's: each zero certified, exactly."""
        p = Params(0, d1, 0, d3)
        assert quartic._exact_zeros(p)[1] == [(z, 1) for z in zeros]
        assert roots_of_F(p).values() == zeros

    def test_found_params_take_the_eigensolve(self):
        """Real zeros 5e-12 apart (relative) next to a complex pair at the
        origin defeat the closed form; the eigensolve refuses them, as it
        did."""
        assert quartic._exact_zeros(_FOUND_PARAMS) == ((1, 1), None)
        with pytest.raises(ValueError, match=re.escape(
                "cluster at 6.593594956089871e-14 fails multiplicity-1 check "
                "(|F^(0)| = 8.712e+05)")):
            roots_of_F(_FOUND_PARAMS)

    def test_a_neighbour_that_is_the_zero(self, monkeypatch):
        """-F = f^4 + 3f^2 - 4 = (f^2 - 1)(f^2 + 4): a closed-form float one
        ulp off the zero 1 (or -1) has G vanish at the float next to it,
        which is returned as the zero, its own bracket."""
        assert quartic._bracket(3, 0, -4, 0, 1, math.nextafter(1.0, 2.0)) == (1.0, 1.0, 1.0)
        p = Params(0, Fraction(-3, 4), 0, Fraction(1, 2))
        polish = quartic._polish
        monkeypatch.setattr(quartic, "_polish", lambda *args: math.nextafter(
            polish(*args), math.inf))
        assert roots_of_F(p).values() == (-1.0, 1.0)

    def test_overlapping_brackets_refused(self, monkeypatch):
        """-F = f^4 - 2: two closed-form floats either side of the zero
        2^(1/4), next to each other, both bracket it; their brackets overlap,
        so they are refused and the eigensolve finds -2^(1/4) too."""
        p = Params(0, 0, 0, Fraction(1, 4))
        below = 2.0 ** 0.25
        if Fraction(below) ** 4 > 2:
            below = math.nextafter(below, 0.0)
        # psi = 4 f = 2^3 x
        monkeypatch.setattr(quartic, "_ferrari", lambda *args: [
            below / 2, math.nextafter(below, 2.0) / 2])
        monkeypatch.setattr(quartic, "_polish", lambda *args: args[-1])
        assert quartic._exact_zeros(p) == ((1, 1), None)
        lo, hi = roots_of_F(p).values()
        assert lo == pytest.approx(-(2.0 ** 0.25)) and hi == pytest.approx(2.0 ** 0.25)

    def test_zero_at_the_origin_is_positive(self, monkeypatch):
        """-F = f^4 - f: a closed-form float -5e-324 next to the zero 0 has
        -0.0 next to it, where G vanishes: the zero comes back as +0.0."""
        p = Params(0, 0, Fraction(1, 8), 0)
        bracket = quartic._bracket
        zero = bracket(0, -512, 0, 0, 8, -5e-324)[0]  # G = psi^4 - 512 psi, psi = 8 f
        assert zero == 0.0 and math.copysign(1.0, zero) == -1.0
        monkeypatch.setattr(quartic, "_bracket", lambda *args: bracket(
            *args[:-1], -5e-324 if abs(args[-1]) < 0.5 else args[-1]))
        origin, one = roots_of_F(p).values()
        assert (origin, one) == (0.0, 1.0) and math.copysign(1.0, origin) == 1.0

    def test_secant_step_on_the_exact_values(self, monkeypatch):
        """Closed-form floats far off (1e-9 relative) are moved onto their
        zeros by secant steps through G's exact values."""
        p = _exact_params(((Fraction(-3, 4), 1), (Fraction(5, 2), 1)), ((Fraction(1), Fraction(2)),))
        polish = quartic._polish
        monkeypatch.setattr(quartic, "_polish", lambda *args: polish(*args) * (1 + 1e-9))
        assert roots_of_F(p).values() == (-0.75, 2.5)


# The parent's roots_of_F, kept to check that the companion eigensolve and the
# integer coefficients give the same zeros to the bit: np.roots on the floats
# of the exact coefficients, and the grouping and Taylor helpers as they were;
# its check on F at a cluster allows the rounding of F's evaluation, as
# quartic._check_cluster does.
def _reference_taylor(coeffs, x, n):
    out = []
    for _ in range(n):
        v = m = 0.0
        for a in coeffs:
            v, m = v * x + a, m * abs(x) + abs(a)
        out.append((v, m))
        coeffs = quartic._derivative(coeffs)
    return out


def _reference_multiple_zero(coeffs, group, tol):
    m = len(group)
    mean = sum(group) / m
    if abs(mean.imag) > tol * max(1.0, abs(mean)):
        return None
    bounds = _reference_taylor(coeffs, mean.real, m - 1)
    if all(abs(v) <= quartic._ROUNDING * bound for v, bound in bounds):
        return mean.real
    return None


def _reference_multiple_zeros(coeffs, roots, tol, radius, floor):
    if not any(abs(a - b) <= radius for a, b in combinations(roots, 2)):
        return [], roots
    groups = []
    for z in roots:
        hit = [g for g in groups if any(abs(z - w) <= radius for w in g)]
        groups = [g for g in groups if g not in hit] + [[z, *(w for g in hit for w in g)]]
    found, rest = [], []
    for g in groups:
        x = _reference_multiple_zero(coeffs, g, tol) if len(g) > 1 else None
        if x is not None:
            found.append((x, len(g)))
        elif len(g) > 1 and radius > floor:
            more, left = _reference_multiple_zeros(coeffs, g, tol, 0.1 * radius, floor)
            found += more
            rest += left
        else:
            rest += g
    return found, rest


def _reference_roots_of_F(p, tol=quartic._CLUSTER_TOL):
    coeffs = [float(v) for v in p.coefficients()]
    raw = np.roots(coeffs).tolist()
    scale = max(1.0, *map(abs, raw))
    entries, rest = _reference_multiple_zeros(
        coeffs, raw, tol, quartic._NEAR * scale, tol * scale)
    real = [z.real for z in rest if abs(z.imag) <= tol * max(1.0, abs(z))]
    for members in quartic._clustered(real, tol):
        m = len(members)
        center = sum(members) / m
        scale = max(1.0, abs(center))
        for j, (v, bound) in enumerate(_reference_taylor(coeffs, center, m)):
            if abs(v) > 1e-3 * scale ** (4 - j) and abs(v) > quartic._ROUNDING * bound:
                raise ValueError(
                    f"cluster at {center} fails multiplicity-{m} check "
                    f"(|F^({j})| = {abs(v):.3e})"
                )
        entries.append((center, m))
    return RootMultiset(tuple(sorted(entries)))


def _outcome(roots, p):
    """The entries of roots(p) by repr and by type, or the error it raised."""
    try:
        return [(repr(v), type(v), m) for v, m in roots(p).entries]
    except ValueError as err:
        return str(err)


def _rational(p):
    return all(isinstance(v, (int, Fraction)) for v in (p.c, p.d1, p.d2, p.d3))


# An exact account of F's real zeros, independent of quartic's invariants:
# a square-free factorisation (repeated gcds) and a Sturm count, in Fraction
# arithmetic on the monic -F, highest degree first.
def _strip(a):
    while a and a[0] == 0:
        a = a[1:]
    return a


def _monic(a):
    a = _strip(a)
    return [Fraction(v) / a[0] for v in a]


def _divmod(a, b):
    a, quot = list(a), []
    while len(a) >= len(b):
        k = a[0] / b[0]
        quot.append(k)
        a = [u - k * w for u, w in zip(a, b + [0] * (len(a) - len(b)))][1:]
    return quot, a


def _gcd(a, b):
    a, b = _monic(a), _monic(b)
    while b:
        a, b = b, _monic(_divmod(a, b)[1])
    return a


def _yun(a):
    """[(square-free factor, multiplicity)] of the monic a."""
    out, k = [], 1
    c = _gcd(a, quartic._derivative(a))
    w = _divmod(a, c)[0]
    while len(c) > 1:
        y = _gcd(w, c)
        if len(w) > len(y):
            out.append((_divmod(w, y)[0], k))
        w, c, k = y, _divmod(c, y)[0], k + 1
    if len(w) > 1:
        out.append((w, k))
    return out


def _real_zero_count(a):
    """Distinct real zeros of a, by the signs of its Sturm sequence at -inf
    and +inf."""
    seq = [a, quartic._derivative(a)]
    while True:
        rem = _strip(_divmod(seq[-2], seq[-1])[1])
        if not rem:
            break
        seq.append([-v for v in rem])
    changes = lambda signs: sum(u * w < 0 for u, w in zip(signs, signs[1:]))
    return (changes([v[0] * (-1) ** (len(v) - 1) for v in seq])
            - changes([v[0] for v in seq]))


def _exact_truth(p):
    """The multiplicities of F's real zeros, ascending, for rational params,
    and the zeros [(value, multiplicity)] when F has a multiple zero or no
    real zero: a rational zero as a Fraction, an irrational one as a float
    within an ulp.  The zeros are None when F is square-free with real
    zeros."""
    neg_F = _monic([-Fraction(v) for v in p.coefficients()])
    factors = _yun(neg_F)
    if factors == [(neg_F, 1)]:
        count = _real_zero_count(neg_F)
        return (1,) * count, None if count else []
    zeros = []
    for fac, m in factors:
        if len(fac) == 2:
            zeros.append((-fac[1], m))
            continue
        _, b, c = fac  # every factor of a quartic with a multiple zero has degree <= 2
        disc = b * b - 4 * c
        if disc < 0:
            continue
        num, den = math.isqrt(disc.numerator), math.isqrt(disc.denominator)
        if num * num == disc.numerator and den * den == disc.denominator:
            zeros += [((-b - Fraction(num, den)) / 2, m), ((-b + Fraction(num, den)) / 2, m)]
        else:
            with localcontext() as ctx:
                ctx.prec = 100
                root = Decimal(disc.numerator).sqrt() / Decimal(disc.denominator).sqrt()
                mid = Decimal(-b.numerator) / Decimal(b.denominator)
                zeros += [(float((mid - root) / 2), m), (float((mid + root) / 2), m)]
    zeros.sort(key=lambda e: e[0])
    return tuple(m for _, m in zeros), zeros


def _assert_exact_truth(p, truth):
    """roots_of_F(p) has the multiplicities of ``truth`` and its zeros: a
    rational zero rounded once, bit for bit, an irrational one within an ulp."""
    rm = roots_of_F(p)
    assert rm.multiplicities() == tuple(m for _, m in truth), (p, rm, truth)
    for (got, _), (want, _) in zip(rm.entries, truth):
        assert type(got) is float
        if isinstance(want, Fraction):
            assert repr(got) == repr(float(want)), (p, got, want)
        else:
            assert abs(got - want) <= math.ulp(want), (p, got, want)


def _assert_reference_roots(p):
    """Rational params with a multiple zero or no real zero give the exact
    zeros, and a square-free F with real zeros gives the exact signature
    with each zero certified by ``_assert_brackets``, or, where the closed
    form fails, what the eigensolve gives.  Every other input gives the
    reference's entries, by repr and by type, or its error.
    Rational params also give the floats of their exact coefficients."""
    if not _rational(p):
        assert _outcome(roots_of_F, p) == _outcome(_reference_roots_of_F, p)
        return
    signature, zeros = _exact_truth(p)
    if zeros is not None:
        _assert_exact_truth(p, zeros)
    else:
        with _eigensolve_only():
            eigensolve = _outcome(roots_of_F, p)
            _assert_eigensolve_reference(p, signature)
        if quartic._exact_zeros(p)[1] is None:
            assert _outcome(roots_of_F, p) == eigensolve
        else:
            rm = roots_of_F(p)
            assert rm.multiplicities() == signature
            _assert_brackets(p, rm)
    want = [float(v) for v in p.coefficients()]
    assert list(map(repr, quartic._float_coefficients(p))) == list(map(repr, want))


def _assert_eigensolve_reference(p, signature):
    """The eigensolve of a square-free F with real zeros and rational params
    gives the reference's entries, by repr and by type, or its error, except
    where the reference gets the multiplicities wrong (other multiplicities
    than the exact ones, or roots merged into a cluster that fails its
    check): there roots_of_F gives the exact signature, every zero passing
    the check on F, or refuses, naming the params, or with the check on F of
    a simple zero (its bound included)."""
    want = _outcome(_reference_roots_of_F, p)
    if (re.search("fails multiplicity-[234] check", want) if isinstance(want, str)
            else tuple(m for *_, m in want) != signature):
        try:
            rm = roots_of_F(p)
        except ValueError as err:
            assert (str(err).endswith(f"where F has {signature}: {quartic._params_text(p)}")
                    or re.search("fails multiplicity-1 check|are too large", str(err))), err
        else:
            assert rm.multiplicities() == signature
            coeffs = [float(v) for v in p.coefficients()]
            for z in rm.values():
                (v, bound), = _reference_taylor(coeffs, z, 1)
                assert (abs(v) <= 1e-3 * max(1.0, abs(z)) ** 4
                        or abs(v) <= quartic._ROUNDING * bound), (p, z, v)
    else:
        assert _outcome(roots_of_F, p) == want


@st.composite
def _classify_params(draw):
    """Exact params from zeros with multiplicities and complex pairs, built as
    the classify benchmark builds them, on grids of 1/den."""
    sig = draw(st.sampled_from(sorted(quartic._TAGS)))
    den = draw(st.sampled_from([1, 4, 64, 3, 7, 1000, 2**20]))
    ticks = st.integers(-40 * den, 40 * den)
    zeros = sorted(draw(st.lists(ticks, min_size=len(sig), max_size=len(sig), unique=True)))
    pairs = draw(st.lists(st.tuples(ticks, st.integers(1, 40 * den)),
                          min_size=(4 - sum(sig)) // 2, max_size=(4 - sum(sig)) // 2))
    return _exact_params(tuple((Fraction(z, den), m) for z, m in zip(zeros, sig)),
                         tuple((Fraction(x, den), Fraction(y, den)) for x, y in pairs))


_BIG = st.builds(Fraction, st.integers(-10**60, 10**60), st.integers(1, 10**60))
_FLOAT = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def _trailing_zero_params(draw):
    """Params whose last k coefficients of F vanish, k = 1..4: d3 = 0;
    d2 = d3 = 0; d1 = c^2 too; c = 0 too.  Rational or float."""
    k = draw(st.integers(1, 4))
    value = draw(st.sampled_from([_FRACTION, _BIG, _FLOAT]))
    c, d1, d2 = draw(value), draw(value), draw(value)
    zero = 0 * c
    if k >= 4:
        c = zero
    if k >= 3:
        d1 = c * c
    if k >= 2:
        d2 = zero
    return Params(c, d1, d2, zero)


class TestReferenceRoots:
    """roots_of_F against the np.roots path it replaced, entry by entry, where
    it still takes that path: float params, and rational ones square-free
    with real zeros whose closed form fails (forced for every such input).
    Other rational params get the exact zeros, which move a multiple zero
    off the np.roots path's value by up to about 1e-11 relative, and a
    simple zero by up to a few hundred ulps."""

    @settings(max_examples=600, derandomize=True, deadline=None)
    @given(_classify_params())
    def test_exact_params_from_zeros(self, p):
        _assert_reference_roots(p)
        _assert_reference_roots(p.as_floats())

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.tuples(_FLOAT, _FLOAT, _FLOAT, _FLOAT))
    def test_float_params(self, values):
        _assert_reference_roots(Params(*values))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_trailing_zero_params())
    def test_trailing_zero_coefficients(self, p):
        _assert_reference_roots(p)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.tuples(_BIG, _BIG, _BIG, _BIG))
    def test_large_numerators_and_denominators(self, values):
        _assert_reference_roots(Params(*values))

    @pytest.mark.parametrize("values", [
        (0, 0, 0, 0), (0.0, 0.0, 0.0, 0.0), (-0.0, 0.0, -0.0, -0.0),
        (Fraction(1, 3), Fraction(1, 9), Fraction(0), Fraction(0)), (1 / 3, 1 / 9, 0.0, 0.0),
        (0.0, 1.0, 0.0, 0.0), (Fraction(-5), Fraction(-25, 2), Fraction(125, 2), Fraction(-625, 8)),
    ])
    def test_edge_cases(self, values):
        _assert_reference_roots(Params(*values))

    def test_eigensolve_failure_raises_linalg_error(self):
        """A failed eigensolve raises np.linalg.eigvals' LinAlgError, not a
        warning or an error of the caller's error state: np.roots refuses a
        NaN coefficient."""
        with np.errstate(invalid="raise"):
            with pytest.raises(np.linalg.LinAlgError, match="must not contain infs or NaNs"):
                quartic._companion_roots([-1.0, math.nan, 0.0, 1.0])

    def test_monomial_takes_no_eigensolve(self):
        """F = -f^4: four zero roots, the quadruple zero at 0."""
        assert quartic._companion_roots([-1.0, 0.0, 0.0, 0.0, 0.0]) == [0.0] * 4
        assert roots_of_F(Params(0, 0, 0, 0)).entries == ((0.0, 4),)


class TestParamsFromRoots:
    def test_case1a_exact(self):
        rm = RootMultiset(((Fraction(-3), 1), (Fraction(-2), 2), (Fraction(-1), 1)))
        p = params_from_roots(rm)
        assert p == Params(Fraction(2), Fraction(-7, 4), Fraction(-7, 2), Fraction(-3, 2))

    def test_quadruple_zero(self):
        p = params_from_roots(RootMultiset(((0, 4),)))
        assert (p.c, p.d1, p.d2, p.d3) == (0, 0, 0, 0)

    def test_case2bc_float(self):
        rm = RootMultiset(((8 - 2 * S14, 1), (1.0, 2), (8 + 2 * S14, 1)))
        p = params_from_roots(rm)
        assert p.c == pytest.approx(-9 / 2, abs=1e-12)
        assert p.d1 == pytest.approx(10.0, abs=1e-12)
        assert p.d2 == pytest.approx(4.0, abs=1e-12)
        assert p.d3 == pytest.approx(-1.0, abs=1e-12)

    def test_underdetermined(self):
        with pytest.raises(ValueError, match="underdetermined"):
            params_from_roots(RootMultiset(((0.0, 1), (1.0, 1))))

    def test_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            roots = np.sort(rng.uniform(-5, 5, size=4))
            if min(np.diff(roots)) < 1e-2:
                continue
            rm = RootMultiset(tuple((float(v), 1) for v in roots))
            p = params_from_roots(rm)
            back = params_from_roots(roots_of_F(p))
            for name in ("c", "d1", "d2", "d3"):
                want = getattr(p, name)
                assert abs(getattr(back, name) - want) < 1e-9 * max(1.0, abs(want))


class TestClassify:
    CASES = {
        CaseTag.NO_REAL_ZEROS: (),
        CaseTag.TWO_SIMPLE_ONLY: ((-1.0, 1), (1.0, 1)),
        CaseTag.ONE_DOUBLE_ONLY: ((0.5, 2),),
        CaseTag.TWO_DOUBLES_ONLY: ((0.0, 2), (2.0, 2)),
        CaseTag.QUADRUPLE: ((1.0, 4),),
        CaseTag.DOUBLE_BELOW_SIMPLES: ((-2.0, 2), (0.0, 1), (1.0, 1)),
        CaseTag.DOUBLE_BETWEEN_SIMPLES: ((-3.0, 1), (-2.0, 2), (-1.0, 1)),
        CaseTag.DOUBLE_ABOVE_SIMPLES: ((0.0, 1), (1.0, 1), (2.0, 2)),
        CaseTag.TRIPLE_WITH_SIMPLE_ABOVE: ((0.0, 3), (1.0, 1)),
        CaseTag.TRIPLE_WITH_SIMPLE_BELOW: ((-1.0, 1), (0.0, 3)),
        CaseTag.FOUR_SIMPLE: ((0.0, 1), (1.0, 1), (2.0, 1), (3.0, 1)),
    }

    def test_exhaustive_over_all_tags(self):
        seen = set()
        for tag, entries in self.CASES.items():
            got = classify(RootMultiset(entries))
            assert got is tag
            seen.add(got)
        assert seen == set(CaseTag)

    def test_taxonomy_fixtures(self):
        assert classify(RootMultiset(((-3, 1), (-2, 2), (-1, 1)))) is CaseTag.DOUBLE_BETWEEN_SIMPLES
        assert classify(
            RootMultiset(((-2 - S3, 1), (-2 + S3, 1), (0.0, 2)))
        ) is CaseTag.DOUBLE_ABOVE_SIMPLES
        assert classify(RootMultiset(((0, 3), (1, 1)))) is CaseTag.TRIPLE_WITH_SIMPLE_ABOVE

    def test_existence_dispatch(self):
        assert existence(CaseTag.NO_REAL_ZEROS) == "none"
        assert existence(CaseTag.ONE_DOUBLE_ONLY) == "none"
        assert existence(CaseTag.TWO_DOUBLES_ONLY) == "none"
        assert existence(CaseTag.QUADRUPLE) == "none"
        assert existence(CaseTag.DOUBLE_BETWEEN_SIMPLES) == "solitary"
        assert existence(CaseTag.TRIPLE_WITH_SIMPLE_ABOVE) == "solitary"
        assert existence(CaseTag.TRIPLE_WITH_SIMPLE_BELOW) == "solitary"
        assert existence(CaseTag.TWO_SIMPLE_ONLY) == "periodic"
        assert existence(CaseTag.DOUBLE_BELOW_SIMPLES) == "periodic"
        assert existence(CaseTag.DOUBLE_ABOVE_SIMPLES) == "periodic"
        assert existence(CaseTag.FOUR_SIMPLE) == "periodic"


def _compositions(n):
    """Every tuple of positive integers summing to n."""
    if n == 0:
        return [()]
    return [(k, *rest) for k in range(1, n + 1) for rest in _compositions(n - k)]


_FRACTION = st.builds(Fraction, st.integers(-96, 96), st.sampled_from([1, 2, 3, 7, 12]))


class TestBandRule:
    def test_signature_table_is_total(self):
        """Every multiplicity signature a RootMultiset can carry has a tag,
        and every tag one signature."""
        sigs = [c for n in (0, 2, 4) for c in _compositions(n)]
        assert len(sigs) == 11
        assert set(quartic._TAGS) == set(sigs)
        assert sorted(quartic._TAGS.values(), key=lambda t: t.value) == sorted(
            CaseTag, key=lambda t: t.value)

    @pytest.mark.parametrize("sig, edges", [
        ((), []), ((2,), []), ((4,), []), ((2, 2), []), ((1, 1), [(0, 1)]),
        ((2, 1, 1), [(1, 2)]), ((1, 2, 1), [(0, 1), (1, 2)]), ((1, 1, 2), [(0, 1)]),
        ((3, 1), [(0, 1)]), ((1, 3), [(0, 1)]), ((1, 1, 1, 1), [(0, 1), (2, 3)]),
    ])
    def test_band_edges(self, sig, edges):
        assert band_edges(sig) == edges

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(st.sampled_from(sorted(quartic._TAGS)),
           st.lists(_FRACTION, min_size=4, max_size=4, unique=True),
           _FRACTION, st.builds(Fraction, st.integers(1, 48), st.just(12)))
    def test_bands_are_where_F_is_positive(self, sig, values, u, w):
        """Exactly, in rationals: a gap between adjacent zeros is a band of
        band_edges iff F > 0 at its midpoint.  Zeros of total multiplicity
        below 4 are completed by the complex pair u +- i w."""
        rm = RootMultiset(tuple(zip(sorted(values[:len(sig)]), sig)))
        p = _exact_params(rm.entries, [(u, w)] * ((4 - rm.total()) // 2))
        if rm.total() == 4:
            assert p == params_from_roots(rm)
        zeros, edges = rm.values(), band_edges(sig)
        for i in range(len(zeros) - 1):
            mid = (zeros[i] + zeros[i + 1]) / 2
            assert ((i, i + 1) in edges) == (eval_F(p, mid) > 0)
        assert classify(rm) is quartic._TAGS[sig]

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.sampled_from(sorted(quartic._TAGS)),
           st.lists(_FRACTION, min_size=4, max_size=4, unique=True),
           _FRACTION, st.builds(Fraction, st.integers(1, 48), st.just(12)))
    def test_bands_carry_each_edge(self, sig, values, u, w):
        """bands pairs the entries of band_edges, each with its local rate:
        F'/2 at a simple edge, > 0 at a lower edge and < 0 at an upper one;
        sqrt(F''/2) > 0 at a double edge; sqrt(|F'''|/6) at a triple edge,
        where F''' > 0 at a lower edge (the orbit comes from above)."""
        rm = RootMultiset(tuple(zip(sorted(values[:len(sig)]), sig)))
        p = _exact_params(rm.entries, [(u, w)] * ((4 - rm.total()) // 2))
        table = bands(p, rm)
        assert [(lo[:2], hi[:2]) for lo, hi in table] == [
            (rm.entries[i], rm.entries[j]) for i, j in band_edges(sig)]
        pf = p.as_floats()
        for lo, hi in table:
            for (v, m, rate), side in ((lo, 1), (hi, -1)):
                d = eval_F_deriv(pf, float(v), m)
                if m == 1:
                    assert rate == d / 2.0 and side * rate > 0
                elif m == 2:
                    assert rate == math.sqrt(d / 2.0) > 0
                else:
                    assert m == 3 and rate == math.sqrt(abs(d) / 6.0)
                    assert side * d > 0


class TestCofactor:
    def test_one_double_only_has_negative_discriminant(self):
        # F = -(f-1)^2 (f^2+1): c=-1/2, d1=-1/4, d2=1/4, d3=-1/8
        p = Params(-0.5, -0.25, 0.25, -0.125)
        rm = roots_of_F(p)
        assert classify(rm) is CaseTag.ONE_DOUBLE_ONLY
        pf, qq, disc = quadratic_cofactor(p, rm.values()[0])
        assert disc < 0.0
        assert pf == pytest.approx(0.0, abs=1e-8)
        assert qq == pytest.approx(1.0, abs=1e-8)

    def test_not_a_double_root_rejected(self):
        with pytest.raises(ValueError):
            quadratic_cofactor(P_CASE1A, -3.0)  # simple root

    def test_two_simple_only_complex_pair(self):
        # F = -(f-1)(f+1)(f^2+1): TwoSimpleOnly with the pair recorded
        # implicitly by the resynthesized quadratic
        p = params_from_roots(RootMultiset(((-1.0, 2), (1.0, 2))))  # placeholder
        # build the real thing: -(f^2-1)(f^2+1) = -f^4 + 0 f^3 + 0 f^2 + 0 f + 1
        p = Params(0.0, 0.0, 0.0, 1.0 / 8.0)
        rm = roots_of_F(p)
        assert classify(rm) is CaseTag.TWO_SIMPLE_ONLY
        pf, qq, disc = quadratic_cofactor(p, rm.values()[0], rm.values()[1])
        assert pf == pytest.approx(0.0, abs=1e-9)
        assert qq == pytest.approx(1.0, abs=1e-9)
        assert disc < 0.0


class TestRootMultiset:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            RootMultiset(((1.0, 1), (0.0, 1)))

    def test_total_multiplicity_constraint(self):
        with pytest.raises(ValueError):
            RootMultiset(((0.0, 1), (1.0, 1), (2.0, 1)))  # total 3

    def test_expand(self):
        rm = RootMultiset(((0.0, 1), (1.0, 3)))
        assert rm.expand() == (0.0, 1.0, 1.0, 1.0)

    def test_scale(self):
        assert RootMultiset(((-3.0, 1), (0.5, 2), (2.0, 1))).scale() == 3.0
        assert RootMultiset(((-0.5, 2), (0.25, 2))).scale() == 1.0
        assert RootMultiset(()).scale() == 1.0
        assert RootMultiset(((Fraction(-7, 2), 4),)).scale() == 3.5


def _reference_entries(entries):
    """RootMultiset's checks as one loop each, in their order: the entries
    made (value, int(m)), then multiplicities, order and total."""
    entries = tuple([(v, int(m)) for v, m in entries])
    total = 0
    for _, m in entries:
        if m <= 0:
            raise ValueError("multiplicities must be positive")
        total += m
    for (a, _), (b, _) in zip(entries, entries[1:]):
        if float(a) >= float(b):
            raise ValueError("root values must be strictly increasing")
    if total not in (0, 2, 4):
        raise ValueError(f"total multiplicity {total} not in {{0, 2, 4}}")
    return entries


def _outcome_of(fn, *args):
    """("accepted", fn's result) or ("refused", the type and message of
    what it raised)."""
    try:
        return "accepted", fn(*args)
    except Exception as err:  # the refusal is the result
        return "refused", type(err), str(err)


_HUGE = Fraction(10 ** 400)
_NEXT = Fraction(1) + Fraction(1, 10 ** 30)  # 1 as a float
_ENTRIES = {
    "floats": ((-1.0, 1), (0.5, 2), (2.0, 1)),
    "empty": (),
    "quadruple": ((3.0, 4),),
    "list": [(-1.0, 2), (1.0, 2)],
    "list-entries": ([-1.0, 2], [1.0, 2]),
    "numpy-int": ((-1.0, np.int64(2)), (1.0, np.int32(2))),
    "bool": ((-1.0, True), (1.0, True)),
    "float-mult": ((-1.0, 1.0), (0.0, 2.0), (1.0, 1.0)),
    "fractions": ((Fraction(-3), 1), (Fraction(-2), 2), (Fraction(-1), 1)),
    "ints": ((-3, 1), (-2, 2), (-1, 1)),
    "numpy-floats": ((np.float64(-1.0), 2), (np.float64(1.0), 2)),
    "huge-fraction-alone": ((_HUGE, 4),),
    "zero-mult": ((0.0, 0), (1.0, 2)),
    "negative-mult": ((0.0, -2), (1.0, 2), (2.0, 2)),
    "decreasing": ((1.0, 1), (0.0, 1)),
    "equal": ((1.0, 2), (1.0, 2)),
    "equal-as-floats": ((Fraction(1), 2), (_NEXT, 2)),
    "total-3": ((0.0, 1), (1.0, 1), (2.0, 1)),
    "total-6": ((0.0, 2), (1.0, 4)),
    "zero-mult-and-decreasing": ((1.0, 0), (0.0, 2)),
    "decreasing-and-total-3": ((1.0, 1), (0.0, 2)),
    "three-tuple": ((0.0, 1, 2), (1.0, 1)),
    "later-three-tuple": ((0.0, 1), (1.0, 1, 2)),
    "scalar-entry": ((0.0,),),
    "not-iterable": 5,
    "entry-not-iterable": (1.0,),
    "mult-none": ((0.0, None), (1.0, 2)),
    "mult-word": ((0.0, 2), (1.0, "x")),
    "huge-fraction-pair": ((0.0, 2), (_HUGE, 2)),
    "nan-and-zero-mult": ((0.0, 0), (math.nan, 2)),
    "inf-above-then-total-3": ((0.0, 1), (math.inf, 2)),
}
# entries with a NaN or an infinity: the one refusal the reference lacks
_NON_FINITE = {
    "nan": ((0.0, 1), (math.nan, 1), (1.0, 2)),
    "inf": ((0.0, 2), (math.inf, 2)),
    "minus-inf": ((-math.inf, 2), (0.0, 2)),
    "numpy-nan": ((np.float64("nan"), 4),),
    "list-nan": [(math.nan, 2), (1.0, 2)],
}


class TestRootMultisetChecks:
    """The checks run once per construction and keep every outcome of
    ``_reference_entries``: each refusal with its type and message, each
    accepted input normalised to the same entries."""

    @pytest.mark.parametrize("case", _ENTRIES)
    def test_same_outcome_as_the_reference(self, case):
        entries = _ENTRIES[case]
        want = _outcome_of(_reference_entries, entries)
        got = _outcome_of(lambda e: RootMultiset(e).entries, entries)
        assert got == want
        if got[0] == "accepted":
            assert type(got[1]) is tuple
            assert [(type(e), type(e[0]), type(e[1])) for e in got[1]] == \
                [(tuple, type(v), int) for v, _ in want[1]]

    @pytest.mark.parametrize("case", _NON_FINITE)
    def test_non_finite_values_refused(self, case):
        entries = _NON_FINITE[case]
        assert isinstance(_reference_entries(entries), tuple)  # accepted before
        values = tuple(v for v, _ in entries)
        with pytest.raises(ValueError) as err:
            RootMultiset(entries)
        assert str(err.value) == f"root values must be finite, got {values}"

    @pytest.mark.parametrize("case", ["floats", "empty", "quadruple", "fractions", "ints"])
    def test_value_int_tuples_kept(self, case):
        entries = _ENTRIES[case]
        assert RootMultiset(entries).entries is entries


class TestOnePass:
    """What roots_of_F and the constructors build passes the one-pass check
    and is kept as built: ``_checked_entries``, the path that normalises, is
    not taken."""

    @pytest.fixture
    def general_path(self, monkeypatch):
        calls = []
        checked = quartic._checked_entries

        def spy(entries):
            calls.append(entries)
            return checked(entries)

        monkeypatch.setattr(quartic, "_checked_entries", spy)
        return calls

    @pytest.mark.parametrize("sig", list(quartic._TAGS), ids=str)
    def test_roots_of_F(self, general_path, sig):
        zeros = zip([Fraction(-5, 2), Fraction(-1, 3), Fraction(3, 4), Fraction(7, 2)], sig)
        rm = roots_of_F(_exact_params(list(zeros), [(0, 1)] * ((4 - sum(sig)) // 2)))
        assert rm.multiplicities() == sig
        assert general_path == []

    def test_constructors(self, general_path):
        from kbwave import solutions as S
        sols = [
            S.solitary_double(-3.0, -2.0, -1.0), S.periodic_trig(0.5, 1.5, 3.0),
            S.solitary_triple(1.0, 0.0), S.limiting_form("a", (-3.0, -2.0, -1.0)),
            S.limiting_form("d", (-1.0, -1.0, 1.0)), S.case1("dn", -3.0, -2.5, -1.0),
            S.case2("dn", 1.0, 2.0, 3.0), S.general_sn2((0.0, 1.0, 2.5, 4.0)),
        ]
        assert all(type(v) is float for s in sols for v in s.roots.values())
        assert general_path == []


_PARAMS = {
    "floats": (1.0, -2.0, 0.5, 0.0),
    "fractions": (Fraction(1, 3), Fraction(-2), 0, 5),
    "huge-int": (10 ** 400, 0.0, 0.0, 0.0),
    "numpy-floats": (np.float64(1.0), 2.0, 3.0, 4.0),
    "float32": (np.float32(1.5), 0.0, 0.0, 0.0),
    **{f"{name}-{label}": tuple(v if i == k else 0.0 for i in range(4))
       for k, name in enumerate(("c", "d1", "d2", "d3"))
       for label, v in (("nan", math.nan), ("inf", math.inf), ("numpy-inf", np.float64("-inf")))},
    "nan-after-fraction": (Fraction(1, 3), 0.0, math.nan, 0.0),
    "two-non-finite": (0.0, math.inf, math.nan, 0.0),
    "word": ("x", 0.0, 0.0, 0.0),
}


def _reference_params(*values):
    """Params' check as one loop over the names, the first refusal naming
    its parameter."""
    for name, v in zip(("c", "d1", "d2", "d3"), values):
        if (type(v) is float or not isinstance(v, (int, Fraction))) and not math.isfinite(v):
            raise ValueError(f"parameter {name} must be finite, got {v!r}")
    return values


@pytest.mark.parametrize("case", _PARAMS)
def test_params_same_outcome_as_the_reference(case):
    values = _PARAMS[case]
    want = _outcome_of(_reference_params, *values)
    got = _outcome_of(lambda *v: astuple(Params(*v)), *values)
    assert got == want
