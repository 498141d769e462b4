"""Closed-form families: fixtures, residuals, coherence and corrections."""

import itertools
import math
import time
from dataclasses import replace

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
from kbwave.presets import build_preset
from kbwave.quartic import Params, eval_F, eval_F_deriv, params_from_roots
from kbwave.solutions import (
    Infeasible,
    _orbit_check,
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
        dn = jacobi(XI, 0.5).dn
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
], ids=["nan-periodic_trig", "nan-general_sn2", "inf-solitary_double", "inf-case2",
        "nan-limiting_form", "case1-overflow", "case2-underflow", "case2-invalid",
        "thin-pulse", "zero-frequency"])
def test_float_errors_refused_at_the_boundary(build, message):
    """With numpy's float errors raised, as the CLI runs, each is refused
    at the constructor's boundary, and so is each of Python's."""
    with pytest.raises(InvalidConfiguration) as err, np.errstate(
            over="raise", invalid="raise", divide="raise"):
        build()
    assert str(err.value).startswith(message)


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
        assert sol.period == pytest.approx(2 * complete_K(0.5) / beta, rel=1e-13)
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

    # the classically printed adjacent pairing, per starting root: the partner
    # zero's index and b2/a2, with modulus^2 as printed
    @staticmethod
    def _printed(roots, idx):
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
                    modulus=math.sqrt(k2))

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
            _residual_gate(replace(ref, **self._printed(roots, idx)))


def _dop853_deviation(sol):
    """Largest |closed form - DOP853| / scale over one period centred on xi0,
    or 6 decay lengths either side of a pulse's xi0, integrating f'' =
    F'(f)/2 (rtol 1e-13) from the closed form's value and slope at xi0."""
    from scipy.integrate import solve_ivp

    p, scale = sol.params, sol.roots.scale()
    span = 0.5 * sol.period if sol.period is not None else 6.0 / sol.decay_rate
    worst = 0.0
    for end in (sol.xi0 + span, sol.xi0 - span):
        xi = np.linspace(sol.xi0, end, 129)
        ref = solve_ivp(lambda _, y: (y[1], 0.5 * eval_F_deriv(p, y[0])), (sol.xi0, end),
                        sol.evaluate(sol.xi0), method="DOP853", t_eval=xi,
                        rtol=1e-13, atol=1e-13 * scale)
        worst = max(worst, float(np.max(np.abs(ref.y[0] - sol.profile(xi)[0]))) / scale)
    return worst


def _abs_sn(x, k):
    s, c, d = jacobi(x, k)
    return np.abs(s), np.where(s < 0.0, -1.0, 1.0) * c * d  # right derivative at the kink


ELLIPTIC_PRESETS = ("fig-case1b-k05", "fig-case2a", "fig-case2b", "fig-case2bc-k1",
                    "fig-case2e", "fig-case2f", "fig-case2f-k1")
WIDE_FOUR = (-2.3, -0.7, 1.1, 4.6)


MUTATION_BASES = {
    **{name: build_preset(name)[0] for name in ELLIPTIC_PRESETS},
    **{f"general_sn2-f{i}": general_sn2(WIDE_FOUR, initial_index=i) for i in (1, 2, 3, 4)},
}


class TestOrbitCheck:
    """The quadrature orbit check: no false rejections, every mutation caught."""

    @pytest.mark.parametrize("f1, f2, f3", [
        (1.504592762678163, 1.8554198448069474, 1.8844673057094008),
        (1.8056260976959813, 1.807608241860267, 2.062353133613742),
        (3.0019257689350525, 4.294170006228567, 4.32479493058786),
        (-1.2081772252775136, -1.2077006995676074, 4.2821117592733025),
    ])
    def test_case1_dn_accepted(self, f1, f2, f3):
        # a fixed-step RK4 check rejected these; DOP853 agrees with them
        sol = case1("dn", f1, f2, f3)
        assert _orbit_check(sol) < 1e-12 * sol.roots.scale()
        assert _dop853_deviation(sol) < 1e-9

    @pytest.mark.parametrize("kind, f1, f2, f3", [
        ("inv_sn", -3.1933706513223035, 3.1560461282975467, 0.0006870581931064379),
        ("sn", -0.0010067437975607163, 4.68689723516292, -4.1858572716905655),
    ])
    def test_near_homoclinic_accepted(self, kind, f1, f2, f3):
        # a zero 1e-7 (relative) beyond a band edge: the graded panels resolve it
        sol = case2(kind, f1, f2, f3)
        gaps = np.diff(sol.roots.values()) / sol.roots.scale()
        assert gaps.min() < 1e-7
        assert _orbit_check(sol) < 1e-10 * sol.roots.scale()

    def test_unresolved_quadrature_is_loud(self, monkeypatch):
        """Without the graded panels the near-homoclinic band is not resolved,
        and the check says so rather than passing or failing on noise."""
        import kbwave.solutions as S

        sol = case2("inv_sn", -3.1933706513223035, 3.1560461282975467,
                    0.0006870581931064379)
        monkeypatch.setattr(S, "_halvings", lambda depth: [])
        with pytest.raises(UnresolvedBranch, match="did not converge"):
            _orbit_check(sol)

    def test_merged_zeros_tiny_band_accepted(self):
        # f2 - f1 = 9e-10, once merged into two doubles by case1: the four
        # zeros stay simple, and the wave, 1e-9 wide, follows its tiny band
        sol = case1("dn", -3.5693995947304504, -3.5693995938207603, -0.6228534466259203)
        assert sol.roots.multiplicities() == (1, 1, 1, 1)
        assert _orbit_check(sol) < 1e-9

    @pytest.mark.parametrize("name", MUTATION_BASES)
    def test_bases_match_to_rounding(self, name):
        # fig-case2bc-k1 starts 3e-14 inside its band edge: a start phase from
        # f(xi0) alone would be off by the square root of that
        sol = MUTATION_BASES[name]
        assert _orbit_check(sol) < 1e-10 * sol.roots.scale()

    @pytest.mark.parametrize("name", MUTATION_BASES)
    def test_wrong_beta_rejected(self, name):
        sol = MUTATION_BASES[name]
        with pytest.raises(UnresolvedBranch, match="orbit check"):
            _orbit_check(replace(sol, beta=sol.beta * 1.001))

    @pytest.mark.parametrize("name", [n for n, s in MUTATION_BASES.items() if s.modulus < 1.0])
    def test_wrong_modulus_rejected(self, name):
        sol = MUTATION_BASES[name]
        with pytest.raises(UnresolvedBranch, match="orbit check"):
            _orbit_check(replace(sol, modulus=sol.modulus + 0.01))

    @pytest.mark.parametrize("idx", [2, 3])
    def test_printed_adjacent_pairing_rejected(self, idx):
        roots = (0.0, 1.0, 2.0, 3.0)
        printed = replace(general_sn2(roots, initial_index=idx),
                          **TestGeneralSn2._printed(roots, idx))
        with pytest.raises(UnresolvedBranch, match="orbit check"):
            _orbit_check(printed)

    @pytest.mark.parametrize("build", [
        lambda: build_preset("fig-case2a")[0],
        lambda: build_preset("fig-case2e")[0],
        lambda: case2("sn", -0.0010067437975607163, 4.68689723516292, -4.1858572716905655),
    ])
    def test_abs_sn_kink_rejected(self, build, monkeypatch):
        """|sn| satisfies the same first-order equation away from its kink,
        so the residual gate passes it; the orbit check does not."""
        import kbwave.solutions as S

        monkeypatch.setitem(S._KERNELS, "abs_sn", S._KERNELS["sn"]._replace(fn=_abs_sn))
        kinked = replace(build(), kernel="abs_sn")
        S._residual_gate(kinked)
        with pytest.raises(UnresolvedBranch, match="orbit check"):
            _orbit_check(kinked)

    def test_seeded_sweep_has_no_false_rejections(self):
        """Every elliptic constructor on 500 random triples and quadruples:
        a rejection counts as false when DOP853 agrees with the candidate to
        1e-9 (relative to the zeros' scale); there must be none.  A sample of
        the accepted forms is refereed the same way at the check's bound."""
        rng = np.random.default_rng(0)
        accepted = []
        for _ in range(500):
            triple, quad = rng.uniform(-5.0, 5.0, 3), rng.uniform(-5.0, 5.0, 4)
            lo, mid, hi = np.sort(triple)
            builds = [lambda k=k, b=b: case1(k, lo, mid, hi, branch=b)
                      for k in ("cn", "dn") for b in ("upper", "lower")]
            builds += [lambda k=k: case2(k, *triple)
                       for k in ("sn", "cn", "dn", "inv_sn", "inv_cn")]
            builds += [lambda i=i: general_sn2(quad, initial_index=i) for i in (1, 2, 3, 4)]
            for build in builds:
                try:
                    sol = build()
                except UnresolvedBranch as err:
                    assert not _dop853_deviation(err.candidate) < 1e-9, err
                    continue
                except (InfeasibleBranch, InvalidConfiguration):
                    continue
                accepted.append(sol)
        assert len(accepted) > 2500
        for sol in accepted[::100]:
            assert _dop853_deviation(sol) < 1e-6

    def test_presets_construct_fast(self):
        for name in ELLIPTIC_PRESETS:
            best = math.inf
            for _ in range(20):
                t0 = time.perf_counter()
                build_preset(name)
                best = min(best, time.perf_counter() - t0)
            assert best < 5e-3, (name, best)


class TestOneConstructionPath:
    """Every constructor returns through _solution: the residual gate on
    every form, the orbit check on the forms with a modulus, and one branch
    word for the two-branch families."""

    def test_constant_off_the_zeros_rejected(self):
        import kbwave.solutions as S
        from kbwave.quartic import RootMultiset

        roots = RootMultiset(((-3.0, 3), (-1.0, 1)))
        S._constant("solitary_double", roots, 0.0, -3.0)  # a zero of F: accepted
        with pytest.raises(UnresolvedBranch, match="residual"):
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

    def test_orbit_check_runs_for_the_elliptic_forms_only(self, monkeypatch):
        import kbwave.solutions as S
        from kbwave.presets import PRESETS

        calls = []
        check = S._orbit_check
        monkeypatch.setattr(S, "_orbit_check", lambda sol: calls.append(sol.kind) or check(sol))
        for name in PRESETS:
            build_preset(name)
        periodic_trig(0.5, 1.5, 3.0)
        solitary_triple(0.0, 2.0)
        assert case1("dn", 1.0, 1.0, 3.0).variant == "constant"
        assert len(calls) == len(ELLIPTIC_PRESETS) == 7


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
                f_m = sol.evaluate(xi - h)[0]
                f_p = sol.evaluate(xi + h)[0]
                _, fp = sol.evaluate(xi)
                assert abs((f_p - f_m) / (2 * h) - fp) < 1e-6 * max(1.0, abs(fp))

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
    y, yp = S._KERNELS[sol.kernel].fn(x, sol.modulus)
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
    """With D == 0 profile divides by C alone (and not at all when C == 1):
    the same bits as the general form, for every kernel, array or scalar xi."""
    from dataclasses import replace

    modulus = k if kernel in ("sn", "cn", "dn", "sn2") else None
    sol = replace(solitary_triple(1.0, 0.0), A=A, B=B, C=C, D=D, kernel=kernel,
                  beta=beta, modulus=modulus, xi0=xi0)
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


@_sweep(8)
@given(st.lists(ZERO, min_size=4, max_size=4), st.integers(1, 4))
def test_general_sn2_representation(zeros, idx):
    roots = _spread(zeros)
    _check_representation(_accepted(lambda: general_sn2(roots, initial_index=idx)))
