"""Closed-form families: fixtures, residuals, coherence and corrections."""

import itertools
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from kbwave.elliptic import complete_K, jacobi
from kbwave.errors import (
    InfeasibleBranch,
    InvalidConfiguration,
    UnresolvedBranch,
)
from kbwave.presets import PRESETS, build_preset
from kbwave.quartic import Params, eval_F, eval_F_deriv, params_from_roots
from kbwave.solutions import (
    CASE2_KERNELS,
    CASE2_KINDS,
    Infeasible,
    _KERNELS,
    case1,
    case2,
    discrepancy_report,
    general_sn2,
    limiting_form,
    periodic_trig,
    solitary_double,
    solitary_triple,
    u_v_pair,
)

S3 = math.sqrt(3.0)
S14 = math.sqrt(14.0)
XI = np.linspace(-10.0, 10.0, 801)


def residual(sol, domain=(-10, 10), n=2000):
    xi = np.linspace(domain[0], domain[1], n)
    f, fp = sol.profile(xi)
    return float(np.max(np.abs(fp ** 2 - eval_F(sol.params, f))))


class TestSolitaryDouble:
    def test_lower_branch_touches_low_zero(self):
        sol = solitary_double(-3, -2, -1, branch="lower")
        f0, fp0 = sol.evaluate(0.0)
        assert f0 == pytest.approx(-3.0, abs=1e-14)
        assert fp0 == pytest.approx(0.0, abs=1e-14)
        f, _ = sol.profile(XI)
        assert np.max(np.abs(f - (-2.0 - 1.0 / np.cosh(XI)))) < 1e-12

    def test_upper_branch_touches_high_zero(self):
        sol = solitary_double(-3, -2, -1, branch="upper")
        assert sol.evaluate(0.0)[0] == pytest.approx(-1.0, abs=1e-14)
        f, _ = sol.profile(XI)
        assert np.max(np.abs(f - (-2.0 + 1.0 / np.cosh(XI)))) < 1e-12

    def test_far_tail_decay(self):
        sol = solitary_double(0.3, 1.7, 2.9, branch="upper")
        for xi in (-1e3, 1e3):
            f, fp = sol.evaluate(xi)
            assert abs(f - 1.7) < 1e-8
            assert abs(fp) < 1e-8

    def test_ordering_violation(self):
        with pytest.raises(InvalidConfiguration, match="solitary configuration"):
            solitary_double(-1, -2, -3)

    def test_params_match_roots(self):
        sol = solitary_double(-3, -2, -1)
        assert sol.params == Params(2.0, -7 / 4, -7 / 2, -3 / 2)
        assert sol.c == 2.0

    def test_defining_residual(self):
        sol = solitary_double(-1.3, 0.4, 2.2, branch="lower")
        assert residual(sol) < 1e-8 * sol.roots.scale() ** 4


class TestPeriodicTrig:
    def test_case2e_display(self):
        sol = periodic_trig(-1.0, 1.0 / 3.0, 1.0, branch="lower")
        b = 2 * S3 / 3
        f, _ = sol.profile(XI)
        assert np.max(np.abs(f - np.sin(b * XI) / (np.sin(b * XI) + 2))) < 1e-12
        assert sol.period == pytest.approx(S3 * math.pi, rel=1e-14)

    def test_case2a_both_signs(self):
        lo, hi = -2 - S3, -2 + S3
        for branch, expected_sign in (("lower", -1.0), ("upper", 1.0)):
            sol = periodic_trig(lo, hi, 0.0, branch=branch)
            f, _ = sol.profile(XI)
            ref = 1.0 / (-2.0 + expected_sign * S3 * np.sin(XI))
            assert np.max(np.abs(f - ref)) < 1e-12

    def test_band_extremes_hit_simple_zeros(self):
        sol = periodic_trig(0.5, 1.5, 3.0, branch="lower")
        xi = np.linspace(0.0, sol.period, 200_001)
        f, _ = sol.profile(xi)
        assert abs(f.min() - 0.5) < 1e-9
        assert abs(f.max() - 1.5) < 1e-9

    def test_double_inside_band_rejected(self):
        with pytest.raises(InvalidConfiguration):
            periodic_trig(-1.0, 1.0, 0.0)

    def test_residual(self):
        sol = periodic_trig(1.1, 2.7, 5.0)
        assert residual(sol) < 1e-8 * sol.roots.scale() ** 4


class TestSolitaryTriple:
    def test_displayed_values(self):
        sol = solitary_triple(0.0, 2.0)
        assert sol.evaluate(0.0)[0] == 2.0
        assert sol.evaluate(2.0)[0] == pytest.approx(0.4, abs=1e-15)

    def test_cubed_factor_residual(self):
        # (f')^2 = -(f - f_triple)^3 (f - f_simple)
        sol = solitary_triple(0.0, 2.0)
        f, fp = sol.profile(XI)
        res = np.abs(fp**2 + (f - 0.0) ** 3 * (f - 2.0))
        assert np.max(res) < 1e-9

    def test_reproduces_merge_limit(self):
        # the double->triple merge formula with the surviving simple zero below
        sol = solitary_triple(-1.0, -3.0)
        f, _ = sol.profile(XI)
        ref = -1.0 + (-3.0 + 1.0) / (1.0 + 0.25 * 4.0 * XI**2)
        assert np.max(np.abs(f - ref)) == 0.0

    def test_equal_zeros_rejected(self):
        with pytest.raises(InvalidConfiguration):
            solitary_triple(1.0, 1.0)


class TestLimitingForms:
    def test_case_a_amplitude(self):
        sol = limiting_form("a", (-3, -2, -1), branch="upper")
        # amplitude 2(f2-f1)(f3-f2)/(f3-f1) = 1
        assert sol.evaluate(0.0)[0] == pytest.approx(-1.0, abs=1e-14)
        gen = solitary_double(-3, -2, -1, branch="upper")
        fa, _ = sol.profile(XI)
        fg, _ = gen.profile(XI)
        assert np.max(np.abs(fa - fg)) < 1e-10

    @pytest.mark.parametrize("branch", ["upper", "lower"])
    def test_case_b_agrees_with_generic(self, branch):
        f1, f3 = 8 - 2 * S14, 8 + 2 * S14  # 2 f1 f3 = f2 (f1 + f3) with f2 = 1
        sol = limiting_form("b", (f1, 1.0, f3), branch=branch)
        gen = solitary_double(f1, 1.0, f3, branch=branch)
        fa, _ = sol.profile(XI)
        fg, _ = gen.profile(XI)
        assert np.max(np.abs(fa - fg)) < 1e-10

    @pytest.mark.parametrize("branch", ["upper", "lower"])
    def test_case_c_agrees_with_generic(self, branch):
        sol = limiting_form("c", (-1.0, 0.0, 1.0 / 3.0), branch=branch)
        gen = solitary_double(-1.0, 0.0, 1.0 / 3.0, branch=branch)
        fa, _ = sol.profile(XI)
        fg, _ = gen.profile(XI)
        assert np.max(np.abs(fa - fg)) < 1e-10

    def test_case_d_constant(self):
        sol = limiting_form("d", (-3.0, -3.0, -1.0))
        assert sol.variant == "constant"
        assert sol.evaluate(5.0) == (-3.0, 0.0)

    def test_case_d_triple_merge(self):
        sol = limiting_form("d", (-3.0, -1.0, -1.0))
        ref = solitary_triple(-1.0, -3.0)
        fa, _ = sol.profile(XI)
        fg, _ = ref.profile(XI)
        assert np.max(np.abs(fa - fg)) < 1e-10

    def test_constraint_violation(self):
        with pytest.raises(InvalidConfiguration, match="limiting constraint"):
            limiting_form("a", (-3, -2, -0.5))
        with pytest.raises(InvalidConfiguration, match="limiting constraint"):
            limiting_form("c", (-1.0, 0.2, 1.0))

    @pytest.mark.parametrize("case, roots", [
        ("a", (-3, -2, -1)),
        ("b", (8 - 2 * S14, 1.0, 8 + 2 * S14)),
        ("c", (-1.0, 0.0, 1.0 / 3.0)),
        ("d", (-3.0, -3.0, -1.0)),
    ])
    def test_unknown_branch_rejected(self, case, roots):
        with pytest.raises(ValueError, match="branch"):
            limiting_form(case, roots, branch="sideways")


def _outcome(build):
    """The wave ``build()`` returns, or the type and message of its refusal."""
    try:
        return build()
    except (InvalidConfiguration, UnresolvedBranch, ValueError) as err:
        return type(err), str(err)


class TestCase1:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.lists(st.integers(-40, 40).map(lambda k: k / 8)
                    | st.floats(-1e6, 1e6, allow_subnormal=False), min_size=3, max_size=3),
           st.sampled_from(["upper", "lower"]))
    def test_dn_is_the_same_wave_for_every_order(self, zeros, branch):
        """case1 sorts its zeros, so dn's span (f2 - f1)(f3 - f2) is never
        negative: every order gives the same wave, and none is infeasible."""
        outcomes = [_outcome(lambda: case1("dn", *order, branch=branch))
                    for order in itertools.permutations(zeros)]
        assert all(o == outcomes[0] for o in outcomes), outcomes
        assert not (isinstance(outcomes[0], tuple) and issubclass(outcomes[0][0], Infeasible))

    def test_cn_modulus_one_pulse(self):
        sol = case1("cn", -3.0, -2.0, -1.0, branch="upper")
        assert sol.modulus == 1.0
        gen = solitary_double(-3, -2, -1, branch="upper")
        fa, _ = sol.profile(XI)
        fg, _ = gen.profile(XI)
        assert np.max(np.abs(fa - fg)) < 1e-10
        lower = case1("cn", -3.0, -2.0, -1.0, branch="lower")
        assert lower.evaluate(0.0)[0] == pytest.approx(-3.0, abs=1e-12)

    def test_dn_fixture_modulus_half(self):
        sol = case1("dn", -3.0, -2.0 - 0.5 * S3, -1.0, branch="upper")
        assert sol.modulus == pytest.approx(0.5, abs=1e-12)
        assert sol.beta == pytest.approx(1.0, abs=1e-12)
        dn = jacobi(XI, 0.5, 0.5 * S3).dn
        f, _ = sol.profile(XI)
        assert np.max(np.abs(f - (dn - 2.0))) < 1e-12
        want = Params(2.0, -25 / 16, -25 / 8, -39 / 32)
        for name in ("c", "d1", "d2", "d3"):
            assert getattr(sol.params, name) == pytest.approx(getattr(want, name), abs=1e-12)

    def test_dn_band_selection(self):
        upper = case1("dn", -3.0, -2.0 - 0.5 * S3, -1.0, branch="upper")
        lower = case1("dn", -3.0, -2.0 - 0.5 * S3, -1.0, branch="lower")
        grid = np.linspace(0.0, upper.period, 200_001)
        fu, _ = upper.profile(grid)
        fl, _ = lower.profile(grid)
        # bands bounded by adjacent zeros of F
        assert fu.min() == pytest.approx(-2.0 + 0.5 * S3, abs=1e-9)
        assert fu.max() == pytest.approx(-1.0, abs=1e-9)
        assert fl.min() == pytest.approx(-3.0, abs=1e-9)
        assert fl.max() == pytest.approx(-2.0 - 0.5 * S3, abs=1e-9)

    def test_cn_generic_roots_infeasible(self):
        # modulus^2 > 1 strictly unless 2 f2 = f1 + f3
        with pytest.raises(InfeasibleBranch, match="modulus"):
            case1("cn", 0.0, 1.0, 3.0)

    def test_equal_extremes_constant(self):
        sol = case1("cn", 1.0, 1.0, 1.0)
        assert sol.variant == "constant"
        assert sol.evaluate(3.0) == (1.0, 0.0)

    def test_dn_modulus_zero_constant(self):
        sol = case1("dn", 1.0, 1.0, 3.0, branch="upper")  # f2 = f1
        assert sol.variant == "constant"
        assert sol.evaluate(0.0)[0] == 3.0

    @pytest.mark.parametrize("branch, edge", [("lower", 1.0), ("upper", 3.0)])
    def test_dn_modulus_zero_constant_records_branch(self, branch, edge):
        sol = case1("dn", 1, 1, 3, branch=branch)
        assert sol.evaluate(0.0)[0] == edge
        assert sol.branch == branch

    def test_cn_touching_zeros_infeasible(self):
        with pytest.raises(Infeasible) as err:
            case1("cn", 1, 1, 3)
        assert err.value.witness == {"span2": 0.0}

    def test_case1_constraint_d2_equals_c_d1(self):
        for args in ((-3.0, -2.0, -1.0), (-3.0, -2.0 - 0.5 * S3, -1.0), (0.5, 1.0, 4.0)):
            try:
                sol = case1("dn", *args, branch="upper")
            except InfeasibleBranch:
                continue
            p = sol.params
            assert abs(p.d2 - p.c * p.d1) < 1e-10 * max(1.0, abs(p.d2))

    def test_cn_k1_forces_midpoint_relation(self):
        sol = case1("cn", -3.0, -2.0, -1.0)
        f1, f2, f3 = -3.0, -2.0, -1.0
        assert sol.modulus == 1.0
        assert abs(2 * f2 - (f1 + f3)) < 1e-12

    def test_mu_coefficients_reproduce(self):
        sol = case1("dn", -3.0, -2.0 - 0.5 * S3, -1.0, branch="upper")
        e = sorted(sol.roots.expand())
        e1 = sum(e)
        e2 = sum(e[i] * e[j] for i in range(4) for j in range(i + 1, 4))
        e4 = e[0] * e[1] * e[2] * e[3]
        mu2 = 0.375 * e1**2 - e2
        mu0 = e1**2 / 16 * e2 - 5 / 256 * e1**4 - e4
        # the mu-form parameter displays agree with the root-expressed ones
        k2 = sol.modulus**2
        disc = math.sqrt(4 * mu0 + mu2**2)
        assert sol.beta**2 == pytest.approx(2 * mu0 / (-mu2 + disc), rel=1e-10)
        assert k2 == pytest.approx(2 + mu2**2 / (2 * mu0) - mu2 / (2 * mu0) * disc,
                                   rel=1e-9)


NAN = math.nan
FIT = "the form does not fit a float for these zeros"
ZERO_FREQUENCY = (8.84858260880352e-265, 1.7057872100159986e-264, 1.705787210016006e-264)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build, message", [
    # zeros that are not finite, refused before any arithmetic on them
    (lambda: periodic_trig(NAN, 1.0, 1.0), "zeros must be finite, got (nan, 1.0, 1.0)"),
    (lambda: general_sn2((NAN, 1.0, 2.0, 3.0)), "zeros must be finite"),
    (lambda: solitary_double(-math.inf, 0.0, 1.0), "zeros must be finite"),
    (lambda: case2("dn", 1.0, 2.0, math.inf), "zeros must be finite"),
    (lambda: limiting_form("a", (-1.0, 0.0, NAN)), "zeros must be finite"),
    # float errors, each caught at the one boundary of the constructor
    (lambda: case1("dn", 1e200, 2e200, 3e200), f"case1: {FIT} (Numerical result out of range)"),
    (lambda: case2("dn", 1e-300, 1e-152, 1e-152), f"case2: {FIT} (float division by zero)"),
    (lambda: case2("cn", 1e-8, 1e300, -2.0), f"case2: {FIT} (invalid value"),
    (lambda: solitary_double(-1.0, 0.0, 1e-300),
     f"solitary_double: {FIT} (overflow encountered in multiply)"),
    (lambda: periodic_trig(0.0, 1e-300, -1e-300), f"periodic_trig: {FIT} (float division by zero)"),
    # beta underflows to 0 and C, D ~ 1e278: refused before the samples
    # square the denominator, since a pulse of frequency 0 is no wave
    (lambda: solitary_double(*ZERO_FREQUENCY),
     f"solitary_double: {FIT} (its frequency 0.0 is not a positive normal double)"),
], ids=["nan-periodic_trig", "nan-general_sn2", "inf-solitary_double", "inf-case2",
        "nan-limiting_form", "case1-overflow", "case2-underflow", "case2-invalid",
        "thin-pulse", "zero-frequency", "squared-denominator"])
def test_float_errors_refused_at_the_boundary(build, message):
    """With numpy's float errors raised, as the CLI runs, each is refused
    at the constructor's boundary, and so is each of Python's."""
    with pytest.raises(InvalidConfiguration) as err, np.errstate(
            over="raise", invalid="raise", divide="raise"):
        build()
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("state", ["raise", "warn", "ignore"])
def test_zero_frequency_refused_in_any_error_state(state):
    """A pulse whose frequency underflows to 0 is refused whatever numpy's
    error state: before, only raised float errors refused it."""
    with pytest.raises(InvalidConfiguration, match="its frequency 0.0 is not a positive normal"), \
            np.errstate(all=state):
        solitary_double(*ZERO_FREQUENCY)


# two zeros 3.7e-10 apart (relative), once merged into a double by case1 and
# case2 as by general_sn2 (its test_close_zeros_stay_distinct)
CLOSE = (0.23357542427147937, 1.3412419361372696, 1.3412419366290624)


@pytest.mark.parametrize("build", [
    lambda z: case1("dn", *z, branch="upper"),
    lambda z: case1("dn", *z, branch="lower"),
    lambda z: case2("dn", *z),
], ids=["case1-dn-upper", "case1-dn-lower", "case2-dn"])
def test_close_zeros_stay_distinct(build):
    """Only zeros equal to rounding merge: the roots are the three given and
    the implied fourth, all simple, and the params are those of their
    quartic, not of a merged double's."""
    sol = build(CLOSE)
    assert sol.roots.multiplicities() == (1, 1, 1, 1)
    assert set(CLOSE) <= set(sol.roots.values())
    assert sol.params == params_from_roots(sol.roots)


class TestCase2:
    def test_equal_outer_zeros_give_the_constant(self):
        """f1 = f3 makes b = 0: the wave is the constant f1."""
        sol = case2("sn", 1.0, 2.0, 1.0)
        assert (sol.kernel, sol.variant) == ("const", "constant")
        assert sol.evaluate(0.3) == (1.0, 0.0)

    def test_2a_display(self):
        sol = case2("sn", -2 - S3, 0.0, -2 + S3)
        assert sol.modulus == 0.0
        assert sol.beta == pytest.approx(1.0, abs=1e-12)
        f, _ = sol.profile(XI)
        assert np.max(np.abs(f - 1.0 / (-2.0 - S3 * np.sin(XI)))) < 1e-12
        assert sol.c == pytest.approx(1.0, abs=1e-12)
        assert sol.evaluate(0.0)[0] == pytest.approx(-0.5, abs=1e-14)

    def test_2b_display(self):
        sol = case2("cn", 2 - S3, 0.0, 2 + S3)
        f, _ = sol.profile(XI)
        assert np.max(np.abs(f - 1.0 / (2.0 - S3 * np.cos(XI)))) < 1e-12
        assert sol.c == pytest.approx(-1.0, abs=1e-12)

    def test_2bc_modulus_one_display(self):
        f1, f3 = 8 - 2 * S14, 8 + 2 * S14
        for kind in ("dn", "cn"):
            sol = case2(kind, f1, 1.0, f3)
            assert sol.modulus == 1.0
            assert sol.beta == pytest.approx(math.sqrt(7.0), rel=1e-12)
            f, _ = sol.profile(XI)
            ref = 1.0 / (1.0 - math.sqrt(7.0 / 8.0) / np.cosh(math.sqrt(7.0) * XI))
            assert np.max(np.abs(f - ref)) < 1e-11
            assert sol.c == pytest.approx(-4.5, abs=1e-12)

    def test_2e_display(self):
        sol = case2("inv_sn", -1.0, 1.0, 1.0 / 3.0)
        b = 2 * S3 / 3
        assert sol.beta == pytest.approx(b, rel=1e-12)
        f, _ = sol.profile(XI)
        assert np.max(np.abs(f - np.sin(b * XI) / (np.sin(b * XI) + 2.0))) < 1e-12

    def test_2f_display(self):
        sol = case2("inv_cn", -1.0, 1.0, 1.0 / 3.0)
        b = 2 * S3 / 3
        f, _ = sol.profile(XI)
        assert np.max(np.abs(f - np.cos(b * XI) / (np.cos(b * XI) + 2.0))) < 1e-12

    def test_2f_modulus_one_display(self):
        sol = case2("inv_cn", -1.0, 0.0, 1.0 / 3.0)
        assert sol.modulus == 1.0
        b = S3 / 3
        sech = 1.0 / np.cosh(b * XI)
        f, _ = sol.profile(XI)
        assert np.max(np.abs(f - sech / (sech + 2.0))) < 1e-12
        assert sol.evaluate(0.0)[0] == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_constraint_d2_equals_minus_4_d3_a(self):
        for kind, f1, f2, f3 in (
            ("sn", -2 - S3, 0.0, -2 + S3),
            ("dn", 8 - 2 * S14, 1.0, 8 + 2 * S14),
            ("dn", 1.0, 2.0, 3.0),
            ("inv_sn", -1.0, 1.0, 1.0 / 3.0),
        ):
            p = case2(kind, f1, f2, f3).params
            a = (f1 + f3) / (2 * f1 * f3)
            assert abs(p.d2 + 4.0 * p.d3 * a) < 1e-10 * max(1.0, abs(p.d2))

    def test_k1_forces_harmonic_relation(self):
        # at modulus 1, 2 f1 f3 = f2 (f1 + f3)
        f1, f2, f3 = 8 - 2 * S14, 1.0, 8 + 2 * S14
        sol = case2("dn", f1, f2, f3)
        assert sol.modulus == 1.0
        assert abs(2 * f1 * f3 - f2 * (f1 + f3)) < 1e-10

    def test_generic_dn_family(self):
        sol = case2("dn", 1.0, 2.0, 3.0)
        assert 0.0 < sol.modulus < 1.0
        f, _ = sol.profile(np.linspace(0, sol.period, 4001))
        assert f.min() == pytest.approx(2.0, abs=1e-9)
        assert f.max() == pytest.approx(3.0, abs=1e-9)

    def test_tn_always_infeasible(self):
        rng = np.random.default_rng(31)
        count = 0
        while count < 100:
            f1, f2, f3 = np.sort(rng.uniform(-5, 5, size=3))
            if abs(f1) < 0.1 or abs(f3) < 0.1 or f2 - f1 < 0.05 or f3 - f2 < 0.05:
                continue
            if abs(f2 * f3 + f1 * f2 - f1 * f3) < 1e-6:
                continue
            with pytest.raises(Infeasible) as out:
                case2("tn", f1, f2, f3)
            assert out.value.witness["b2_required"] < 0  # the claim: b is never real
            count += 1

    def test_dn_tn_always_infeasible(self):
        rng = np.random.default_rng(32)
        count = 0
        while count < 100:
            f1, f2, f3 = np.sort(rng.uniform(-5, 5, size=3))
            if abs(f1) < 0.1 or abs(f3) < 0.1 or f2 - f1 < 0.05 or f3 - f2 < 0.05:
                continue
            if abs(f2 * f3 + f1 * f2 - f1 * f3) < 1e-6:
                continue
            with pytest.raises(Infeasible) as out:
                case2("dn_tn", f1, f2, f3)
            groups = out.value.witness["groups"]
            assert groups  # at least one sign group has a real coefficient
            for g in groups.values():
                assert not 0.0 <= g["k2"] < 1.0
            count += 1

    def test_nu_coefficients_reproduce_from_roots(self):
        sol = case2("dn", 1.0, 2.0, 3.0)
        e = sorted(sol.roots.expand())
        e1 = sum(e)
        e3 = sum(e[i] * e[j] * e[k]
                 for i in range(4) for j in range(i + 1, 4) for k in range(j + 1, 4))
        e4 = e[0] * e[1] * e[2] * e[3]
        a, b = (1.0 + 3.0) / (2 * 1.0 * 3.0), (1.0 - 3.0) / (2 * 1.0 * 3.0)
        # root-expressed displays, valid whenever e3, e4 are nonzero
        nu4 = -b * b * e4
        nu2 = e3 * e3 / (8 * e4) - 2 * e4 * e1 / e3
        nu0 = e1 * e3 / (8 * e4) - e3**4 / (256 * e4**3) - 1.0
        # the dn kernel's row: beta^2 = -nu4, k^2 = (2 nu4 + nu2)/nu4, and
        # nu0 = -beta^2 b^2 (1 - k^2)
        assert sol.beta**2 == pytest.approx(-nu4, rel=1e-10)
        assert sol.modulus**2 == pytest.approx((2 * nu4 + nu2) / nu4, rel=1e-9)
        assert nu0 == pytest.approx(-(sol.beta * b) ** 2 * (1 - sol.modulus**2), rel=1e-9)
        # a is the triple-product ratio of the zeros
        assert a == pytest.approx(e3 / (4 * e4), rel=1e-12)

    def test_sn_infeasible_on_generic_roots(self):
        with pytest.raises(Infeasible):
            case2("sn", 1.0, 2.0, 3.0)

    def test_zero_extreme_rejected(self):
        with pytest.raises(InvalidConfiguration):
            case2("sn", 0.0, 1.0, 2.0)

    def test_degenerate_fourth_root_rejected(self):
        # f2 (f1 + f3) = f1 f3 makes the implied fourth zero blow up
        with pytest.raises(InvalidConfiguration):
            case2("sn", 1.0, 2.0 / 3.0, 2.0)


def printed_sn2(roots, idx):
    """The classically printed sn^2 form of the sorted ``roots`` that starts
    at roots[idx - 1], as ClosedFormSolution fields: the adjacent pairing,
    per starting root the partner zero and b2/a2, with modulus^2 as printed."""
    f1, f2, f3, f4 = roots
    k2 = {
        1: (f2 - f3) * (f1 - f4) / ((f1 - f3) * (f2 - f4)),
        2: (f2 - f4) * (f1 - f3) / ((f1 - f4) * (f2 - f3)),
        3: (f4 - f1) * (f3 - f2) / ((f3 - f1) * (f4 - f2)),
        4: (f3 - f2) * (f4 - f1) / ((f3 - f1) * (f4 - f2)),
    }[idx]
    b = roots[{1: 1, 2: 0, 3: 3, 4: 2}[idx]]
    b2 = {
        1: (f4 - f1) / (f2 - f4),
        2: (f3 - f2) / (f1 - f3),
        3: (f2 - f3) / (f4 - f2),
        4: (f1 - f4) / (f3 - f1),
    }[idx]
    beta = 0.5 * math.sqrt((f3 - f1) * (f4 - f2))
    b1 = b * b2
    if k2 > 1.0:  # reciprocal-modulus normalization
        b1, b2, beta, k2 = b1 / k2, b2 / k2, beta * math.sqrt(k2), 1.0 / k2
    return dict(A=roots[idx - 1], B=b1, C=1.0, D=b2, beta=beta,
                modulus=math.sqrt(k2), comodulus=math.sqrt(1.0 - k2))


class TestGeneralSn2:
    @pytest.mark.parametrize("idx", [0, 5])
    def test_initial_index_out_of_range_refused(self, idx):
        with pytest.raises(ValueError, match="initial_index must be 1..4"):
            general_sn2((0.0, 1.0, 2.0, 3.0), initial_index=idx)

    @pytest.mark.parametrize("idx", [1, 2, 3, 4])
    def test_initial_condition(self, idx):
        roots = (0.0, 1.0, 2.0, 3.0)
        sol = general_sn2(roots, initial_index=idx)
        assert sol.evaluate(0.0)[0] == pytest.approx(roots[idx - 1], abs=1e-12)

    def test_band_and_period(self):
        sol = general_sn2((0.0, 1.0, 2.0, 3.0), initial_index=1)
        k2 = 0.25  # ((f2-f1)(f4-f3))/((f3-f1)(f4-f2))
        assert sol.modulus**2 == pytest.approx(k2, abs=1e-13)
        beta = 0.5 * math.sqrt(4.0)
        assert sol.period == pytest.approx(2 * complete_K(0.5 * S3) / beta, rel=1e-13)
        xi = np.linspace(0, sol.period, 8001)
        f, _ = sol.profile(xi)
        assert f.min() == pytest.approx(0.0, abs=1e-9)
        assert f.max() == pytest.approx(1.0, abs=1e-9)

    def test_correction_recorded(self):
        sol = general_sn2((0.0, 1.0, 2.0, 3.0), initial_index=1)
        assert "band-pairing-complementary" in sol.notes

    def test_residual_all_branches(self):
        for idx in (1, 2, 3, 4):
            sol = general_sn2((-2.3, -0.7, 1.1, 4.6), initial_index=idx)
            assert residual(sol, (0, sol.period), 2000) < 1e-8 * sol.roots.scale() ** 4

    def test_degenerate_limit_matches_solitary(self):
        eps = 1e-4
        roots = (0.0, 1.0, 1.0 + eps, 3.0)
        sol = general_sn2(roots, initial_index=1)
        ref = solitary_double(0.0, 1.0, 3.0, branch="lower")
        xi = np.linspace(-3, 3, 301)
        fa, _ = sol.profile(xi)
        fg, _ = ref.profile(xi)
        assert np.max(np.abs(fa - fg)) < 1e-3

    def test_distinct_roots_required(self):
        with pytest.raises(InvalidConfiguration):
            general_sn2((0.0, 1.0, 1.0, 3.0))

    @pytest.mark.parametrize("idx", [1, 2, 4])
    def test_close_zeros_stay_distinct(self, idx):
        """Zeros 3.7e-10 apart (relative) are distinct to the constructor, so
        its roots and params keep them apart: the form solves the quartic of
        the four zeros, not of a merged double.  (Start 3 is still refused
        here, by the residual gate.)"""
        roots = (0.23357542427147937, 1.3412419366290624, 1.3412419361372696,
                 4.751250423414138)
        sol = general_sn2(roots, initial_index=idx)
        assert sol.roots.entries == tuple((v, 1) for v in sorted(roots))
        assert sol.case_tag.value == "FourSimple"

    def test_omega_coefficients_reproduce(self):
        roots = (0.0, 1.0, 2.0, 3.0)
        sol = general_sn2(roots, initial_index=1)
        # the branch from f1 pairs it with f4; the other two zeros are r, s
        a, b = roots[0], roots[3]
        r, s = roots[1], roots[2]
        d2 = (a - b) ** 2
        omega1 = 0.25 * d2 * (a - r) * (a - s)
        omega3 = 0.25 * d2 * (b - r) * (b - s)
        omega2 = 0.5 * d2 * ((b - r) * (a - s) + (a - r) * (b - s))
        k2 = sol.modulus**2
        # generic frequency relation beta^4 = omega1 omega3 / (k^2 (b-a)^4)
        beta4 = omega1 * omega3 / (k2 * (b - a) ** 4)
        assert sol.beta**4 == pytest.approx(beta4, rel=1e-10)
        # generic coefficient ratio b2/a2 = D/C = -2 (1 + k^2) omega1 / omega2
        assert sol.D / sol.C == pytest.approx(-2 * (1 + k2) * omega1 / omega2,
                                              rel=1e-10)

    @pytest.mark.parametrize("idx, error", [
        (1, InvalidConfiguration),  # printed denominator crosses zero
        (2, UnresolvedBranch),
        (3, UnresolvedBranch),
        (4, InvalidConfiguration),
    ])
    def test_printed_adjacent_pairing_rejected(self, idx, error):
        """The printed sn^2 coefficients, built as an sn^2 Moebius form, are
        refused for sorted roots: by the defining residual gate, or at
        construction where the printed denominator has a pole."""
        from dataclasses import replace

        from kbwave.solutions import _residual_gate

        roots = (0.0, 1.0, 2.0, 3.0)
        ref = general_sn2(roots, initial_index=idx)
        with pytest.raises(error):
            _residual_gate(replace(ref, **printed_sn2(roots, idx)))


class TestOneConstructionPath:
    """Every constructor returns through _solution: the certificate on every
    form, the residual gate where it cannot vouch for it, no orbit, and one
    branch word for the two-branch families."""

    def test_constant_off_the_zeros_rejected(self):
        import kbwave.solutions as S
        from kbwave.quartic import RootMultiset

        roots = RootMultiset(((-3.0, 3), (-1.0, 1)))
        S._constant("solitary_double", roots, 0.0, -3.0)  # a zero of F: accepted
        with pytest.raises(UnresolvedBranch, match="failed the certificate"):
            S._constant("solitary_double", roots, 0.0, -2.0)

    TWO_BRANCH = {
        "solitary_double": lambda b: solitary_double(-3, -2, -1, branch=b),
        "periodic_trig": lambda b: periodic_trig(0.5, 1.5, 3.0, branch=b),
        "limiting_form-a": lambda b: limiting_form("a", (-3, -2, -1), branch=b),
        "limiting_form-b": lambda b: limiting_form("b", (8 - 2 * S14, 1.0, 8 + 2 * S14),
                                                   branch=b),
        "limiting_form-c": lambda b: limiting_form("c", (-1.0, 0.0, 1.0 / 3.0), branch=b),
        "case1-cn": lambda b: case1("cn", -3.0, -2.0, -1.0, branch=b),
        "case1-dn": lambda b: case1("dn", -3.0, -2.0 - 0.5 * S3, -1.0, branch=b),
    }

    @pytest.mark.parametrize("name", TWO_BRANCH)
    def test_branch_words(self, name):
        build = self.TWO_BRANCH[name]
        upper, lower = build("upper"), build("lower")
        assert (upper.branch, lower.branch) == ("upper", "lower")
        assert not np.array_equal(upper.profile(XI)[0], lower.profile(XI)[0])
        for word in ("+", "-", "plus", "minus", ""):
            with pytest.raises(ValueError, match="branch"):
                build(word)

    def test_orbit_check_runs_for_close_zeros_only(self, monkeypatch):
        """With the orbit engine made to raise, every preset and one wave of
        each ``KINDS`` row on zeros apart still build: there the certificate
        is the constructors' proof.  A wave of two close zeros follows its
        orbit."""
        from kbwave import orbit, verify
        from kbwave.presets import KINDS

        def refuse(*args, **kwargs):
            raise AssertionError("a constructor followed an orbit")

        for module in (orbit, verify):
            monkeypatch.setattr(module, "Orbit", refuse)
        for name in PRESETS:
            build_preset(name)
        zeros = {p.kind: p.zeros for p in PRESETS.values()}
        zeros.update({"periodic_trig": (0.5, 1.5, 3.0), "solitary_triple": (0.0, 2.0),
                      "case1-cn": (-3.0, -2.0, -1.0), "general-sn2": (0.0, 1.0, 2.0, 3.0)})
        assert set(zeros) == set(KINDS)
        for kind, row in KINDS.items():
            row.build(zeros[kind], row.options.get("branch"), 0.0, row.options.get("initial_index"))
        with pytest.raises(AssertionError, match="followed an orbit"):
            general_sn2((0.0, 1.0, 1.0 + 1e-4, 3.0))


class TestEvaluateAndPairs:
    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        sols = [
            solitary_double(-3, -2, -1, branch="upper"),
            periodic_trig(-1.0, 1 / 3, 1.0, branch="lower"),
            solitary_triple(0.0, 2.0),
            case1("dn", -3.0, -2.0 - 0.5 * S3, -1.0, branch="upper"),
            case2("inv_cn", -1.0, 0.0, 1.0 / 3.0),
            general_sn2((0.0, 1.0, 2.0, 3.0), initial_index=1),
        ]
        h = 1e-6
        for sol in sols:
            for xi in rng.uniform(-4, 4, size=100):
                f_m = sol(xi - h)
                f_p = sol(xi + h)
                _, fp = sol.evaluate(xi)
                assert abs((f_p - f_m) / (2 * h) - fp) < 1e-6 * max(1.0, abs(fp))

    # every preset, and a wave of each kernel no preset uses
    JET_WAVES = {
        **{name: lambda name=name: build_preset(name)[0] for name in sorted(PRESETS)},
        "general_sn2": lambda: general_sn2((-2.3, -0.7, 1.1, 4.6), initial_index=2),
        "periodic_trig": lambda: periodic_trig(0.5, 1.5, 3.0),
        "solitary_triple": lambda: solitary_triple(0.0, 2.0),
        "constant": lambda: limiting_form("d", (-3.0, -3.0, -1.0)),
    }

    @pytest.mark.parametrize("name", JET_WAVES)
    def test_jet_is_the_form_and_its_derivatives(self, name):
        """jet gives profile's f and f' to rounding, and an f''' that meets
        f''' = F''(f) f'/2, the derivative of f'' = F'(f)/2, to rounding of
        the largest f'''; with beta x (1 + 1e-6) it meets it only to about
        1e-6, unless the wave is a constant."""
        sol = self.JET_WAVES[name]()
        xi = np.linspace(*sol.window, 301) + sol.xi0
        f, fp = sol.profile(xi)
        jf, jfp, f3 = sol.jet(xi)
        assert np.max(np.abs(jf - f)) <= 1e-14 * max(1.0, float(np.max(np.abs(f))))
        assert np.max(np.abs(jfp - fp)) <= 1e-14 * max(1.0, float(np.max(np.abs(fp))))
        want = 0.5 * eval_F_deriv(sol.params, f, 2) * fp
        top = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(f3 - want)) <= 1e-13 * top
        off = replace(sol, beta=sol.beta * (1.0 + 1e-6)).jet(xi)[2]
        assert np.max(np.abs(off - want)) > 1e-7 * top or sol.kernel == "const"

    def test_translation_invariance_exact(self):
        base = solitary_double(-3, -2, -1, branch="upper")
        shifted = base.with_phase(1.375)
        xi = np.linspace(-5, 5, 101)
        f0, _ = base.profile(xi - 1.375)
        f1, _ = shifted.profile(xi)
        assert np.array_equal(f0, f1)

    def test_periodicity_sampled(self):
        sol = case2("dn", 1.0, 2.0, 3.0)
        T = sol.period
        xi = np.linspace(-3, 3, 41)
        f0, _ = sol.profile(xi)
        f1, _ = sol.profile(xi + T)
        assert np.max(np.abs(f0 - f1)) < 1e-8

    def test_u_v_pair_case1a(self):
        sol = solitary_double(-3, -2, -1, branch="upper")
        p = sol.params
        u, v = u_v_pair(sol, p)
        x = np.linspace(-4, 4, 41)
        t = 0.7
        uu = u(x, t)
        assert np.max(np.abs(uu - (1 / np.cosh(x - 2 * t) - 2))) < 1e-12
        assert np.max(np.abs(v(x, t) - (-2 * uu - 0.75 * uu**2 - 7 / 4))) < 1e-12

    def test_u_v_pair_constant(self):
        sol = limiting_form("d", (-3.0, -3.0, -1.0))
        u, v = u_v_pair(sol, sol.params)
        assert u(0.3, 1.2) == -3.0
        assert v(0.3, 1.2) == pytest.approx(
            -sol.params.c * -3.0 - 0.75 * 9.0 + sol.params.d1, abs=1e-12
        )

    def test_speed_mismatch_rejected(self):
        sol = solitary_double(-3, -2, -1)
        with pytest.raises(InvalidConfiguration):
            u_v_pair(sol, Params(1.0, 0.0, 0.0, 0.0))


class TestCoherence:
    """Limiting coherence across the constructor families."""

    def test_case1_cn_k1_equals_solitary_double(self):
        a = case1("cn", -3.0, -2.0, -1.0, branch="upper")
        b = solitary_double(-3.0, -2.0, -1.0, branch="upper")
        fa, _ = a.profile(XI)
        fb, _ = b.profile(XI)
        assert np.max(np.abs(fa - fb)) < 1e-10

    def test_case2_k1_equals_cosh_ratio_limit(self):
        f1, f3 = 8 - 2 * S14, 8 + 2 * S14
        a = case2("dn", f1, 1.0, f3)
        b = limiting_form("b", (f1, 1.0, f3), branch="upper")
        fa, _ = a.profile(XI)
        fb, _ = b.profile(XI)
        assert np.max(np.abs(fa - fb)) < 1e-10

    def test_case2_inv_cn_k1_equals_sech_ratio_limit(self):
        a = case2("inv_cn", -1.0, 0.0, 1.0 / 3.0)
        b = limiting_form("c", (-1.0, 0.0, 1.0 / 3.0), branch="upper")
        fa, _ = a.profile(XI)
        fb, _ = b.profile(XI)
        assert np.max(np.abs(fa - fb)) < 1e-10


def _general_form(sol, xi):
    """(f, f') of sol at xi by the general Moebius arithmetic, written out:
    x = beta (xi - xi0), f = (A + B y) / den, den = C + D y and
    f' = (B C - A D) beta y' / (den den)."""
    import kbwave.solutions as S

    x = np.array(xi, dtype=float)
    x -= sol.xi0
    x *= sol.beta
    y, yp = S._KERNELS[sol.kernel].fn(x, sol.modulus, sol.comodulus)
    den = y * sol.D + sol.C
    f = (y * sol.B + sol.A) / den
    fp = yp * ((sol.B * sol.C - sol.A * sol.D) * sol.beta) / (den * den)
    return f, fp


_COEFF = st.floats(-1e3, 1e3, allow_nan=False)
_NONZERO = st.one_of(st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(kernel=st.sampled_from(["sn", "cn", "dn", "sn2", "sin", "sech", "rational", "const"]),
       A=_COEFF, B=_COEFF, C=st.just(1.0) | _NONZERO, D=st.sampled_from([0.0, -0.0]),
       beta=st.floats(1e-3, 1e3), k=st.floats(0.0, 1.0), xi0=st.floats(-10.0, 10.0),
       xi=st.floats(-1e3, 1e3) | st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40))
def test_constant_denominator_profile_keeps_its_bits(kernel, A, B, C, D, beta, k, xi0, xi):
    """With D == 0 the denominator y D + C is C, for every finite kernel
    value y, so profile's one path gives the same bits as the general form
    divided by C, for every kernel, array or scalar xi."""
    from dataclasses import replace

    elliptic = kernel in ("sn", "cn", "dn", "sn2")
    sol = replace(solitary_triple(1.0, 0.0), A=A, B=B, C=C, D=D, kernel=kernel, beta=beta,
                  modulus=k if elliptic else None,
                  comodulus=math.sqrt((1 - k) * (1 + k)) if elliptic else None, xi0=xi0)
    for got, want in zip(sol.profile(xi), _general_form(sol, xi)):
        assert np.ndim(got) == np.ndim(xi)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_pole_crossing_form_rejected_at_construction():
    """A hand-built Moebius form whose denominator crosses zero is refused.

    Validated constructions never produce one (no real orbit of f'^2 = F(f)
    reaches a pole), so the check is exercised on a synthetic descriptor.
    """
    from dataclasses import replace

    base = case2("sn", -2 - S3, 0.0, -2 + S3)  # C + D sin, C = -2, D = -sqrt(3)
    with pytest.raises(InvalidConfiguration, match="vanishes"):
        replace(base, C=0.5)  # 0.5 - sqrt(3) sin crosses zero
    with pytest.raises(InvalidConfiguration, match="vanishes"):
        replace(base, C=-base.D)  # touches zero at the end of the range


@pytest.mark.parametrize("name", ["fig-case1b-k05", "fig-case2a", "fig-case2bc-k1"])
def test_modulus_and_comodulus_are_complementary(name):
    """A wave's (k, k') meets k^2 + k'^2 = 1 within 4 roundings: a preset's
    pair does, the same k with k' = sqrt((1 - k)(1 + k)) does, and k moved
    by 0.01 with its k' kept is refused."""
    wave = build_preset(name)[0]
    k, kp = wave.modulus, wave.comodulus
    assert abs(k * k + kp * kp - 1.0) <= 4.0 * 2.0 ** -53
    k = k + 0.01 if k < 0.99 else k - 0.01
    replace(wave, modulus=k, comodulus=math.sqrt((1.0 - k) * (1.0 + k)))
    with pytest.raises(ValueError, match="not complementary"):
        replace(wave, modulus=k)


@pytest.mark.parametrize("f1, f2, f3", [
    (0.024235265923505403, 0.8521119533033578, 0.024235189534825327),
    (223.51112610384573, 1882.441879538408, 223.50882004794505),
])
def test_snapped_cn_keeps_its_whole_span(f1, f2, f3):
    """Four simple zeros where inv_cn's k'^2 is -2.6e-12 and -3.4e-11: no
    real wave.  A snap of k^2 to 1 once built a form here whose pole, at
    y = -1.6e-6 and -5.2e-6, only cn's span [-1, 1] could see."""
    with pytest.raises(Infeasible, match=r"complementary modulus\^2 = -"):
        case2("inv_cn", f1, f2, f3)


def test_discrepancy_report_shape():
    rep = discrepancy_report()
    ids = {r["id"] for r in rep}
    assert "band-pairing-complementary" in ids
    assert "periodic-frequency-absolute-value" in ids
    assert all({"id", "applies_to", "detail"} <= set(r) for r in rep)


# ---------------------------------------------------------------------------
# property sweep over each constructor's feasible region
# ---------------------------------------------------------------------------


def _sweep(n):
    return settings(max_examples=n, derandomize=True, deadline=None,
                    suppress_health_check=list(HealthCheck))


ZERO = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


def _spread(vals, gap=0.05):
    """Sorted values, each pair at least ``gap`` apart."""
    vals = sorted(vals)
    assume(all(b - a > gap for a, b in zip(vals, vals[1:])))
    return vals


def _accepted(build):
    """The constructor's solution, skipping inputs outside its feasible
    region; a pole rejection or a failed validation gate fails."""
    try:
        sol = build()
    except InvalidConfiguration as err:
        assert "vanishes" not in str(err), err
        assume(False)
    except InfeasibleBranch:
        assume(False)
    return sol


def _check_representation(sol):
    """C + D y keeps one sign over the kernel's range, with the form inside
    the root band there (so the denominator stays away from zero), and the
    period is None exactly for the pulse kernels."""
    k = sol.modulus
    lo, hi = {
        "sn": (-1.0, 1.0), "cn": (0.0 if k == 1.0 else -1.0, 1.0),
        "dn": (math.sqrt(1.0 - k * k) if k is not None else 1.0, 1.0),
        "sn2": (0.0, 1.0), "sin": (-1.0, 1.0), "sech": (0.0, 1.0),
        "rational": (0.0, 1.0),
    }[sol.kernel]
    y = np.linspace(lo, hi, 257)
    den = sol.C + sol.D * y
    assert np.all(den > 0.0) or np.all(den < 0.0)
    f = (sol.A + sol.B * y) / den
    vals = sol.roots.values()
    tol = 1e-9 * sol.roots.scale()
    assert vals[0] - tol <= f.min() and f.max() <= vals[-1] + tol
    pulse = sol.kernel in ("sech", "rational") or k == 1.0
    assert (sol.period is None) == pulse
    assert (sol.decay_rate is not None) == pulse


@_sweep(30)
@given(st.lists(ZERO, min_size=3, max_size=3), st.sampled_from(["upper", "lower"]))
def test_solitary_double_representation(zeros, branch):
    lo, dbl, hi = _spread(zeros)
    _check_representation(_accepted(lambda: solitary_double(lo, dbl, hi, branch=branch)))


@_sweep(30)
@given(st.lists(ZERO, min_size=3, max_size=3), st.sampled_from(["upper", "lower"]))
def test_periodic_trig_representation(zeros, branch):
    s1, s2, dbl = zeros
    _spread(zeros)
    _check_representation(_accepted(lambda: periodic_trig(s1, s2, dbl, branch=branch)))


@_sweep(30)
@given(ZERO, ZERO)
def test_solitary_triple_representation(f_triple, f_simple):
    _spread([f_triple, f_simple])
    _check_representation(_accepted(lambda: solitary_triple(f_triple, f_simple)))


@_sweep(10)
@given(st.lists(ZERO, min_size=3, max_size=3), st.sampled_from(["upper", "lower"]),
       st.booleans())
def test_case1_representation(zeros, branch, midpoint):
    f1, f2, f3 = _spread(zeros)
    kind = "dn"
    if midpoint:  # the cn kernel exists only at 2 f2 = f1 + f3
        kind, f2 = "cn", 0.5 * (f1 + f3)
    _check_representation(_accepted(lambda: case1(kind, f1, f2, f3, branch=branch)))


@pytest.mark.parametrize("kind", ["sn", "cn", "dn", "inv_sn", "inv_cn"])
def test_case2_representation(kind):
    @_sweep(5)
    @given(st.lists(ZERO, min_size=3, max_size=3))
    def check(zeros):
        f1, f2, f3 = zeros
        _spread(zeros)
        assume(min(abs(f1), abs(f3)) > 0.05)
        _check_representation(_accepted(lambda: case2(kind, f1, f2, f3)))

    check()


@st.composite
def _case2_zeros(draw):
    """Three zeros of a size from 1e-100 to 1e100, two of them sometimes
    within 1e-15 to 1e-1 (relative) of each other."""
    size = 10.0 ** draw(st.floats(-100.0, 100.0))
    f = [draw(st.floats(0.001, 5.0)) * draw(st.sampled_from([-1.0, 1.0])) * size
         for _ in range(3)]
    if draw(st.booleans()):
        i, j = draw(st.permutations(range(3)))[:2]
        f[j] = f[i] * (1.0 + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** -draw(st.floats(1.0, 15.0)))
    return f


@_sweep(2000)
@given(_case2_zeros())
def test_case2_fourth_zero_kills_the_odd_coefficients(zeros):
    """Where the zeros' products stay in the floats, the implied fourth zero
    makes the odd coefficients of the reduced quartic vanish to rounding:
    max(|g1|, |g3|) <= 1e-9 max(1, max |g|), the bound of the check in
    ``_case2_shared``."""
    import kbwave.solutions as S

    try:
        *_, g, _ = S._case2_shared(*zeros)
    except InvalidConfiguration as err:
        assert "products leave the floats" not in str(err)
        return
    assert max(abs(g[1]), abs(g[3])) <= 1e-9 * max(1.0, float(np.max(np.abs(g))))


@pytest.mark.parametrize("zeros", [
    (-2.188189697408906e+150, -2.1852634460673866e+150, -1.743789615935012e+150),
    (2.114072185523566e-149, -1.332497087188616e-149, -5.475649033105313e-149),
])
def test_case2_zeros_whose_products_leave_the_floats_refused(zeros):
    """f1 f2 f3 overflows or underflows, so the fourth zero does not kill the
    odd coefficients; the check in ``_case2_shared`` refuses the zeros and
    names the cause, with the zeros' smallest and largest magnitudes."""
    sizes = sorted(abs(z) for z in zeros)
    text = (f"the zeros' products leave the floats (|zeros| from {sizes[0]:.6g} to "
            f"{sizes[-1]:.6g}), so the odd coefficients fail to vanish")
    for kind in CASE2_KINDS:
        with pytest.raises(InvalidConfiguration) as err:
            case2(kind, *zeros)
        assert str(err.value) == text


@_sweep(8)
@given(st.lists(ZERO, min_size=4, max_size=4), st.integers(1, 4))
def test_general_sn2_representation(zeros, idx):
    roots = _spread(zeros)
    _check_representation(_accepted(lambda: general_sn2(roots, initial_index=idx)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(halves=st.lists(st.integers(-10, 10), min_size=3, max_size=3, unique=True),
       exponent=st.floats(0.0, 3.0), triple=st.booleans(), flip=st.booleans(),
       branch=st.sampled_from(["upper", "lower"]))
def test_narrow_pulse_with_a_wrong_frequency_is_refused(halves, exponent, triple, flip,
                                                        branch):
    """The residual gate samples a pulse over +-10/beta, where its shape is:
    for zeros in [-5, 5] at least 0.5 apart, times 1 to 1e3, every pulse with
    beta >= 10 is refused with beta off by 1e-3.  (Sampled over +-10, the
    gate passed about half of these; where a pulse's zeros are much closer
    than their size, 1e-8 scale^4 is above the defect such a beta makes.)"""
    import kbwave.solutions as S

    zeros = sorted(h * 0.5 * 10.0 ** exponent for h in halves)
    if triple:
        sol = solitary_triple(*(zeros[:2][::-1] if flip else zeros[:2]))
    else:
        sol = solitary_double(*zeros, branch=branch)
    assume(sol.beta >= 10.0)
    with pytest.raises(UnresolvedBranch, match="defining residual gate"):
        S._residual_gate(replace(sol, beta=sol.beta * (1.0 + 1e-3)))


# ---------------------------------------------------------------------------
# k and k' from the zeros: a modulus of 0 or 1 only at a merged zero
# ---------------------------------------------------------------------------

MULTIPLE_ZERO_PRESETS = ("fig-case2a", "fig-case2b", "fig-case2bc-k1", "fig-case2e",
                         "fig-case2f", "fig-case2f-k1")
PAIR_KINDS = (*(f"case2-{k.replace('_', '-')}" for k in CASE2_KERNELS), "case1-dn",
              "general-sn2")


def _assert_pair(sol):
    """k and k' of a built wave lie in [0, 1], +0.0 for 0, with k^2 + k'^2
    = 1 to a few ulps."""
    k, kp = sol.modulus, sol.comodulus
    assert 0.0 <= k <= 1.0 and 0.0 <= kp <= 1.0
    assert math.copysign(1.0, k) == math.copysign(1.0, kp) == 1.0
    assert abs(k * k + kp * kp - 1.0) <= 4.0 * np.finfo(float).eps


@pytest.mark.parametrize("name", MULTIPLE_ZERO_PRESETS)
def test_merged_zero_gives_modulus_0_or_1(name):
    """Each elliptic preset with a multiple zero has k and k' exactly 0 and
    1, one each."""
    sol = build_preset(name)[0]
    assert max(sol.roots.multiplicities()) == 2
    assert {sol.modulus, sol.comodulus} == {0.0, 1.0}
    _assert_pair(sol)


@_sweep(300)
@given(zeros=st.lists(ZERO, min_size=4, max_size=4), kind=st.sampled_from(PAIR_KINDS),
       pull=st.sampled_from([0.0, 1e-3, 1e-7, 1e-12]))
def test_every_built_modulus_pair_is_complementary(zeros, kind, pull):
    """Every case2 row, case1 dn and general_sn2, on zeros in [-5, 5] with
    the second sometimes pulled within ``pull`` of the third: k, k' >= 0
    with k^2 + k'^2 = 1 to a few ulps on every wave built."""
    from kbwave.errors import KBWaveError
    from kbwave.presets import KINDS

    if pull:
        zeros[1] = zeros[2] + pull
    row = KINDS[kind]
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):  # as the CLI builds
            sol = row.build(zeros[:len(row.zeros.split(","))], "upper", 0.0, 1)
    except KBWaveError:
        assume(False)
    assume(sol.modulus is not None)
    _assert_pair(sol)


@_sweep(150)
@given(f1=ZERO, width=st.floats(0.1, 10.0), log_kp=st.floats(-14.0, 0.0),
       branch=st.sampled_from(["upper", "lower"]))
def test_case1_dn_is_periodic_down_to_tiny_comodulus(f1, width, log_kp, branch):
    """case1 dn with k' from 1e-14 to 1, on zeros that ``_SAME_ZERO`` keeps
    distinct, builds a periodic wave whose period is 2 K / beta of mpmath,
    from the same float zeros, to 1e-13."""
    kp = 10.0 ** log_kp
    sol = case1("dn", f1, f1 + 0.5 * width * (1.0 - kp), f1 + width, branch=branch)
    assume(len(sol.roots.entries) == 4)
    r1, r2, r3, r4 = (mpmath.mpf(v) for v in sol.roots.expand())
    with mpmath.workdps(40):
        want = 2 * mpmath.ellipk(1 - ((r3 - r2) / (r4 - r1)) ** 2) / ((r4 - r1) / 2)
    assert abs(sol.period - want) <= 1e-13 * want


@_sweep(150)
@given(f1=ZERO, p=st.floats(0.1, 5.0), q=st.floats(0.1, 5.0), log_kp=st.floats(-6.0, 0.0),
       idx=st.sampled_from([1, 4]))
def test_general_sn2_is_periodic_down_to_tiny_comodulus(f1, p, q, log_kp, idx):
    """general_sn2 with k' from about 1e-6 to 1 (its zeros lie more than
    1e-12 apart, so its k' cannot be smaller) builds a periodic wave whose
    period is 2 K / beta of mpmath, from the same float zeros, to 1e-13.
    Starts 1 and 4: on the closest zeros starts 2 and 3 fail the sampled
    residual gate, with or without a small k' (a FOUND line of CHANGES.md)."""
    gap = 10.0 ** (2.0 * log_kp) * p * q / (p + q)  # k'^2 is about gap (p + q) / (p q)
    zeros = (f1, f1 + p, f1 + p + gap, f1 + p + gap + q)
    try:
        sol = general_sn2(zeros, initial_index=idx)
    except InvalidConfiguration as err:
        assert "apart" in str(err)
        assume(False)
    r1, r2, r3, r4 = (mpmath.mpf(v) for v in sol.roots.expand())
    with mpmath.workdps(40):
        kp2 = (r3 - r2) * (r4 - r1) / ((r3 - r1) * (r4 - r2))
        want = 2 * mpmath.ellipk(1 - kp2) / (mpmath.sqrt((r3 - r1) * (r4 - r2)) / 2)
    assert abs(sol.period - want) <= 1e-13 * want


@pytest.mark.parametrize("f1, f2, f3", [(-3.0, -1.999997, -1.0), (0.0, 0.5 - 1e-6, 1.0)])
def test_case1_cn_on_four_simple_zeros_infeasible(f1, f2, f3):
    """Four simple zeros have no cn wave: k'^2 < 0.  A snap of k^2 within
    1e-9 of 1 once built a pulse here."""
    with pytest.raises(Infeasible, match=r"complementary modulus\^2 = -"):
        case1("cn", f1, f2, f3)


@pytest.mark.parametrize("f2", [-2.000001, -2.0 - 1e-7])
def test_case1_dn_on_close_simple_zeros_is_periodic(f2):
    """k' = 1e-6 and 1e-7: the dn wave of four simple zeros is periodic, and
    general_sn2 on the same four zeros gives its period.  A snap of k to 1
    once built a pulse here."""
    sol = case1("dn", -3.0, f2, -1.0)
    assert sol.case_tag.value == "FourSimple"
    same = general_sn2(sol.roots.expand(), initial_index=4)
    assert sol.period == pytest.approx(same.period, rel=1e-13)


# ---------------------------------------------------------------------------
# the kernel table's equations and the certificate they carry
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(_KERNELS))
def test_kernel_meets_its_equation(name):
    """Each kernel's computed pair (y, y') meets its row's equation
    y'^2 = Q(y) = lead prod_j (d_j y - n_j)^m_j, evaluated as that product
    of its zeros (cn's pair +-i k'/k included), to KERNEL_ROUNDING, with
    |y|, |y'| <= 1 inside its span, and y' is dy/dx; at pairs (k, k') as
    ``_moduli`` stores them, the smaller of k^2 and k'^2 drawn from
    {0, 1e-28, 0.25} or [0, 1/2], k' down to 1e-14 and k down to 1e-14.
    The certificate proves f'^2 = F(f) from Q's zeros, so its argument
    rests on these facts, and this ties it to ``jacobi``."""
    import kbwave.solutions as S

    row = _KERNELS[name]
    has_modulus = row.zeros(0.0, 1.0) != row.zeros(1.0, 0.0)
    eps = np.finfo(float).eps

    @_sweep(60)
    @given(x=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=40),
           small=st.one_of(st.sampled_from([0.0, 1e-28, 0.25]), st.floats(0.0, 0.5)),
           near_one=st.booleans())
    def check(x, small, near_one):
        squares = (1.0 - small, small) if near_one else (small, 1.0 - small)
        k, kp = S._moduli(name, *squares, 1.0) if has_modulus else (None, None)
        x = np.array(x)
        y, yp = row.fn(x.copy(), k, kp)
        lead, zeros = row.zeros(*((0.0, 1.0) if k is None else (k, kp)))
        Q = np.real(lead * math.prod((d * y - n) ** m for n, d, m in zeros))
        assert np.max(np.abs(yp * yp - Q)) <= S.KERNEL_ROUNDING
        lo, hi = row.span(kp)
        assert np.all((lo - 4 * eps <= y) & (y <= hi + 4 * eps))
        assert np.max(np.abs(y)) <= 1.0 + 4 * eps and np.max(np.abs(yp)) <= 1.0 + 4 * eps
        h = 1e-5
        up, _ = row.fn(x + h, k, kp)
        down, _ = row.fn(x - h, k, kp)
        assert np.max(np.abs((up - down) / (2 * h) - yp)) < 1e-8

    check()


# each kernel's equation y'^2 = sum_j q_j y^j as the textbooks print it
# (Byrd & Friedman), from k^2 and k'^2
PRINTED_EQUATIONS = {
    "sn": lambda k2, kp2: (1.0, 0.0, -1.0 - k2, 0.0, k2),
    "cn": lambda k2, kp2: (kp2, 0.0, k2 - kp2, 0.0, -k2),
    "dn": lambda k2, kp2: (-kp2, 0.0, 1.0 + kp2, 0.0, -1.0),
    "sn2": lambda k2, kp2: (0.0, 4.0, -4.0 - 4.0 * k2, 4.0 * k2, 0.0),
    "sin": lambda k2, kp2: (1.0, 0.0, -1.0, 0.0, 0.0),
    "sech": lambda k2, kp2: (0.0, 0.0, 1.0, 0.0, -1.0),
    "rational": lambda k2, kp2: (0.0, 0.0, 0.0, 4.0, -4.0),
    "const": lambda k2, kp2: (0.0, 0.0, 0.0, 0.0, 0.0),
}


@pytest.mark.parametrize("name", sorted(_KERNELS))
@pytest.mark.parametrize("k2", [0.0, 1e-20, 0.1, 0.5, 0.9, 1.0 - 1e-12, 1.0])
def test_kernel_zeros_give_back_its_equation(name, k2):
    """``jet`` multiplies out each row's factored equation,
    lead prod_j (d_j y - n_j)^m_j, at (k, k') as ``_moduli`` stores them,
    cn's complex pair included: on the form 1/(2 + y) of the bare kernel,
    its third derivative is the one the printed equation gives, through
    y'' = Q'(y)/2, y''' = Q''(y) y'/2 and the Moebius map, to rounding."""
    import kbwave.solutions as S

    row = _KERNELS[name]
    k, kp = S._moduli(name, k2, 1.0 - k2, 1.0)
    if row.zeros(0.0, 1.0) == row.zeros(1.0, 0.0):  # no modulus
        k = kp = None
    form = replace(solitary_triple(1.0, 0.0), A=1.0, B=0.0, C=2.0, D=1.0, kernel=name,
                   beta=1.0, modulus=k, comodulus=kp)
    x = np.linspace(-8.0, 8.0, 161)
    f, fp, f3 = form.jet(x)
    y, y1 = row.fn(x.copy(), k, kp)
    _, q1, q2, q3, q4 = PRINTED_EQUATIONS[name](*((0.0, 1.0) if k is None else (k * k, kp * kp)))
    y2 = 0.5 * (q1 + y * (2.0 * q2 + y * (3.0 * q3 + y * 4.0 * q4)))
    y3 = 0.5 * (2.0 * q2 + y * (6.0 * q3 + y * 12.0 * q4)) * y1
    # f = 1/den: f' = -y'/den^2 and f''' = -(y''' den^2 - 6 y' y'' den + 6 y'^3)/den^4
    den = 2.0 + y
    want = -(y3 * den * den - 6.0 * y1 * y2 * den + 6.0 * y1 ** 3) / den ** 4
    assert np.array_equal(f, 1.0 / den) and np.max(np.abs(fp + y1 / den ** 2)) <= 1e-15
    assert np.max(np.abs(f3 - want)) <= 1e-15 * max(1.0, float(np.max(np.abs(want))))


CLOSE_PULSE = (713.44839524, 3266.21568993, 3278.86574791)


def _gates(sol):
    import kbwave.solutions as S

    return S._gates(sol.with_phase(0.0))


class TestCertificate:
    """The constructor's gate proves f'^2 = F(f) from two readings of the
    form's floats: the zeros r_j~ they solve, the images of Q's zeros, against
    F's, and the frequency factor lam against -1.  It samples only where the
    certificate cannot vouch: close zeros, readings that are not numbers."""

    def test_wrong_pulse_with_close_zeros_refused(self):
        """A 1e-3 error in beta on a pulse whose zeros are close next to their
        size: the sampled gate's 1e-8 scale^4 lies above the defect it makes,
        the certificate does not."""
        import kbwave.solutions as S

        sol = solitary_double(*CLOSE_PULSE)
        wrong = replace(sol, beta=1.001 * sol.beta)
        S._residual_gate(wrong)  # the sampled gate's blind spot
        with pytest.raises(UnresolvedBranch, match="failed the certificate"):
            _gates(wrong)

    @pytest.mark.parametrize("shift", [0.0, 10.0, 100.0, 1e3, 1e4])
    @pytest.mark.parametrize("start", [1, 2, 3, 4])
    def test_shifted_general_sn2_with_a_wrong_beta_refused(self, shift, start):
        """The certificate works in the frame of the zeros, so a wave keeps
        the precision of its width wherever it sits."""
        sol = general_sn2([v + shift for v in (0.0, 0.3, 1.0, 1.7)], initial_index=start)
        with pytest.raises(UnresolvedBranch):
            _gates(replace(sol, beta=1.001 * sol.beta))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("build", [
        lambda: periodic_trig(1e-106, 2e-106, 4e-106),
        lambda: periodic_trig(0.0, 1.714429317016854e-297, -1.8966986416388227),
        lambda: solitary_double(*CLOSE_PULSE),
        # f2 and f4 = 0.5000000000000001 merged into a double zero: k' = 0
        lambda: case1("cn", 0.0, 0.49999999999999994, 1.0),
        # zeros within 1e-14 of each other: the constant f1, next to zeros that
        # RootMultiset.from_values merged within _SAME_ZERO max(1, |r|)
        lambda: case1("dn", -4.189753565604374e-15, -1.6451493327722633e-16,
                      -1.6451493256063085e-16),
    ], ids=["tiny-zeros", "tiny-band", "close-zeros", "merged-pulse", "merged-zeros"])
    def test_float_edges_accepted(self, build):
        """Zeros near the bottom of the floats, a band of width 1.7e-297, a
        pulse whose double zero the merge made, and merged zeros are
        certified in the wave's own frame, with numpy's float errors raised
        as the CLI raises them."""
        import kbwave.solutions as S

        with np.errstate(over="raise", invalid="raise", divide="raise"):
            wave = build().with_phase(0.0)
            zd, ze, ld, le, *_ = S._certificate(wave)
            assert zd <= ze and ld <= le

    @pytest.mark.parametrize("build", [
        lambda: solitary_double(-0.1487727709132648, -0.1487727707697996, 0.5355392810644393),
        lambda: general_sn2((-1.6584469536437858, 0.49033558189470516, 0.4903355950545854,
                             0.9146110489426641), initial_index=2),
    ])
    def test_ill_conditioned_forms_keep_the_sampled_verdict(self, build):
        """Forms whose algebra is right but whose floats are not, on two
        zeros within CLOSE_ZEROS of their spread: the readings' bound, which
        grows with the cancellation in the stored form, passes them, and the
        sampled gate refuses them as it did before the certificate."""
        import kbwave.solutions as S

        with pytest.raises(UnresolvedBranch, match="defining residual gate") as err:
            build()
        wave = err.value.candidate
        zd, ze, ld, le, *_ = S._certificate(wave)
        assert zd <= ze and ld <= le
        v = wave.roots.values()
        assert min(b - a for a, b in zip(v, v[1:])) < S.CLOSE_ZEROS * (v[-1] - v[0])

    def test_limiting_form_off_its_constraint_refused(self):
        """limiting_form checks its constraint to 1e-10; a form off it by
        more than rounding is not the wave of its zeros, and the certificate
        refuses it, while solitary_double builds that wave."""
        limiting_form("a", (-3.0, -2.0, -1.0 - 1e-15))
        with pytest.raises(UnresolvedBranch, match="failed the certificate"):
            limiting_form("a", (-3.0, -2.0, -1.0 - 1e-11))
        solitary_double(-3.0, -2.0, -1.0 - 1e-11)

    def test_certified_build_samples_nothing(self, monkeypatch):
        """A build on zeros apart never evaluates its profile: every KINDS
        row, on each branch and start, and every preset.  A build on two
        zeros within CLOSE_ZEROS of their spread samples its residual and
        follows its orbit."""
        import kbwave.solutions as S
        from kbwave.presets import KINDS

        apart = {
            "solitary_double": (-3.0, -2.0, -1.0),
            "periodic_trig": (0.5, 1.5, 3.0),
            "solitary_triple": (1.0, 0.0),
            "case1-cn": (-3.0, -2.0, -1.0),
            "case1-dn": (-3.0, -2.5, -1.0),
            "case2-sn": (-2.0 - S3, 0.0, -2.0 + S3),
            "case2-cn": (2.0 - S3, 0.0, 2.0 + S3),
            "case2-dn": (1.0, 2.0, 3.0),
            "case2-inv-sn": (-1.0, 1.0, 1.0 / 3.0),
            "case2-inv-cn": (-1.0, 0.0, 1.0 / 3.0),
            "general-sn2": (0.0, 0.3, 1.0, 1.7),
        }
        assert set(apart) == set(KINDS)
        calls = []
        profile = S.ClosedFormSolution.profile
        monkeypatch.setattr(S.ClosedFormSolution, "profile",
                            lambda self, xi: calls.append(self.kind) or profile(self, xi))
        for kind, zeros in apart.items():
            for branch in ("upper", "lower"):
                for index in (1, 2, 3, 4) if kind == "general-sn2" else (1,):
                    KINDS[kind].build(zeros, branch, 0.0, index)
        for name in PRESETS:
            build_preset(name)
        assert calls == []
        general_sn2((0.0, 1.0, 1.0 + 1e-4, 3.0))
        assert calls
        calls.clear()
        solitary_double(-1.0, 0.5, 0.5005)
        assert calls



@pytest.mark.parametrize("branch", ["upper", "lower"])
def test_overflowing_denominator_is_named(branch, recwarn):
    """1/(f_s1 - f_dbl) overflows for f_s1 = 1e-320, f_dbl = 0: C and D are
    infinite and an end of C + D y is inf or NaN.  Both branches are refused
    by name, with no numpy warning (a NaN end once read as no pole)."""
    with pytest.raises(InvalidConfiguration) as err:
        periodic_trig(1e-320, 1.0, 0.0, branch=branch)
    sign = "-" if branch == "lower" else ""
    assert str(err.value) == (f"periodic_trig: denominator C + D*y = inf + {sign}inf*y "
                              "overflows for y in [-1.0, 1.0]")
    assert len(recwarn) == 0
