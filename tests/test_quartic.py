"""Quartic first integral: evaluation, roots, parameter maps, taxonomy."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
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

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            roots_of_F(P_CASE1A, tol=0.0)


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
        with pytest.raises(ValueError, match="are too large: the bound 0.001 \\* "):
            roots_of_F(params)

    def test_zeros_just_below_the_limit_accepted(self):
        rm = roots_of_F(params_from_roots(RootMultiset(((-1e76, 1), (0.0, 2), (1e76, 1)))))
        assert classify(rm) is CaseTag.DOUBLE_BETWEEN_SIMPLES


class TestCoefficientsTooLarge:
    @pytest.mark.parametrize("params, name", [
        (Params(1e200, 0.0, 0.0, 0.0), "4 (d1 - c^2)"),
        (Params(0.0, 0.0, 1e308, 0.0), "8 d2"),
        (Params(0.0, 0.0, 0.0, -1e308), "8 d3"),
        (Params(Fraction(10**400), Fraction(0), Fraction(0), Fraction(0)), "-4 c"),
        (Params(Fraction(1, 3), Fraction(10**310, 7), Fraction(0), Fraction(0)),
         "4 (d1 - c^2)"),
        (Params(0, 0, 0, Fraction(-10**400, 3)), "8 d3"),
        (Params(Fraction(10**400), 0.0, 0.0, 0.0), "-4 c"),
    ], ids=["float-c", "float-d2", "float-d3", "fraction-c", "fraction-d1", "int-d3", "mixed"])
    def test_refused_before_the_eigensolve(self, params, name):
        """A coefficient of F beyond the largest float is named with the
        params, instead of a LAPACK or OverflowError message."""
        msg = f"coefficient {name} of F does not fit a float: {params}"
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


# The parent's roots_of_F, kept to check that the companion eigensolve and the
# integer coefficients give the same zeros to the bit: np.roots on the floats
# of the exact coefficients, and the grouping and Taylor helpers as they were.
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


def _reference_roots_of_F(p, tol=quartic.DEFAULT_CLUSTER_TOL):
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
        for j, (v, _) in enumerate(_reference_taylor(coeffs, center, m)):
            if abs(v) > 1e-3 * scale ** (4 - j):
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


def _assert_reference_roots(p):
    """roots_of_F(p) gives the reference's entries, by repr and by type, or
    its error, and rational params the floats of their exact coefficients."""
    assert _outcome(roots_of_F, p) == _outcome(_reference_roots_of_F, p)
    if all(isinstance(v, (int, Fraction)) for v in (p.c, p.d1, p.d2, p.d3)):
        want = [float(v) for v in p.coefficients()]
        assert list(map(repr, quartic._float_coefficients(p))) == list(map(repr, want))


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
    """roots_of_F against the parent's np.roots path, entry by entry."""

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
