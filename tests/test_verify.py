"""Verification layer: residual operators, RK4 orbit oracle, profile norms."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kbwave import verify
from kbwave.cli import PDE_RTOL, _solution_domain
from kbwave.errors import BlowUp, InvalidConfiguration, KBWaveError
from kbwave.presets import KINDS, PRESETS, build_preset
from kbwave.quartic import (
    Params,
    RootMultiset,
    eval_F,
    eval_F_deriv,
    params_from_roots,
    roots_of_F,
)
from kbwave.solutions import (
    case2,
    general_sn2,
    limiting_form,
    periodic_trig,
    solitary_double,
)
from kbwave.verify import (
    Profile,
    build_profile,
    compare_profiles,
    ode_residual,
    oracle_integrate,
    pde_residual,
)

S14 = math.sqrt(14.0)
P_CASE1A = Params(2.0, -7 / 4, -7 / 2, -3 / 2)


def multiset(*pairs):
    return RootMultiset(tuple(pairs))


class TestOdeResidual:
    def test_case1a_tight(self):
        sol = solitary_double(-3, -2, -1, branch="upper")
        assert ode_residual(sol, P_CASE1A, (-10, 10), 2000) < 1e-10

    def test_constant_solution_zero(self):
        sol = limiting_form("d", (-3.0, -3.0, -1.0))
        assert ode_residual(sol, sol.params, (-5, 5), 100) == 0.0

    def test_detector_sensitivity(self):
        """A 1% amplitude corruption must blow far past the gate."""
        sol = solitary_double(-3, -2, -1, branch="upper")
        xi = np.linspace(-10, 10, 2000)
        f, fp = sol.profile(xi)
        f_bad = -2.0 + 1.01 * (f + 2.0)
        res = np.max(np.abs(fp**2 - eval_F(P_CASE1A, f_bad)))
        assert res > 1e-3

    def test_needs_two_points(self):
        sol = solitary_double(-3, -2, -1)
        with pytest.raises(ValueError):
            ode_residual(sol, P_CASE1A, (-1, 1), 1)

    @pytest.mark.parametrize("name", ["fig-case1a", "fig-case1b-k05", "fig-case2bc-k1",
                                      "fig-case2f"])
    @pytest.mark.parametrize("n", [2, 201, 2001])
    def test_profile_residual_is_ode_residual(self, name, n):
        """The residual read off a written profile is the one ode_residual
        samples again on the same grid, to the bit."""
        sol, params = build_preset(name)
        domain = (sol.xi0 - 3.0, sol.xi0 + 4.0)
        got = build_profile(sol, params, domain, n).residual(params)
        assert repr(got) == repr(ode_residual(sol, params, domain, n))


class TestPdeResidual:
    def test_case1a(self):
        sol = solitary_double(-3, -2, -1, branch="upper")
        r_u, r_v, _ = pde_residual(sol, P_CASE1A, (-10, 10), 400)
        assert r_u < 1e-6 and r_v < 1e-6

    def test_constant_pair(self):
        """Constant samples give no length scale: the step is the length of
        the wave's window, (-10, 10) for a constant."""
        sol = limiting_form("d", (-3.0, -3.0, -1.0))
        r_u, r_v, h = pde_residual(sol, sol.params, (-5, 5), 100)
        assert r_u < 1e-14 and r_v < 1e-14
        assert h == verify.PDE_STEP * 20

    def test_case2bc_pair(self):
        sol = case2("dn", 8 - 2 * S14, 1.0, 8 + 2 * S14)
        r_u, r_v, _ = pde_residual(sol, sol.params, (-10, 10), 400)
        assert r_u < 1e-6 and r_v < 1e-6

    def test_domain_large_enough_for_stencils(self):
        """The u_xxx stencil divides by 8 h^3, which must be a normal double:
        a wave so long that the cube of its step overflows is refused, on
        any domain.  A domain as narrow as (0, 1e-110) takes the wave's step,
        and passes."""
        long = periodic_trig(1e-106, 2e-106, 4e-106)  # T = 2.6e106
        with pytest.raises(ValueError, match="too large for the stencils"):
            pde_residual(long, long.params, (0.0, 1.0), 10)
        sol = solitary_double(-3, -2, -1)
        r_u, r_v, h = pde_residual(sol, P_CASE1A, (0.0, 1e-110), 10)
        assert max(r_u, r_v) < PDE_RTOL and h > 1e-3

    @pytest.mark.parametrize("domain", [(1e200, 1e300), (1e15, 1e15 + 1.0),
                                        (-1e300, 0.0)])
    def test_far_domain_is_refused(self, domain):
        """Where t + h rounds to t at the domain's farthest phase t = xi - xi0,
        the stencils would sample one point seven times: refused, with the
        phase and the step named."""
        sol = solitary_double(-3, -2, -1)
        with pytest.raises(ValueError, match=r"domain too far from xi0 = 0 for the stencils: "
                                             r"at \|xi - xi0\| = .* rounds away"):
            pde_residual(sol, P_CASE1A, domain, 10)

    def test_far_domain_is_in_the_wave_s_phase(self):
        """The same absolute domain far out is no refusal for the wave whose
        xi0 sits there: the stencils sit at its phases."""
        sol = solitary_double(-3, -2, -1, xi0=1e15)
        r_u, r_v, h = pde_residual(sol, P_CASE1A, (1e15 - 8.0, 1e15 + 8.0), 500)
        assert max(r_u, r_v) < PDE_RTOL
        assert h == pde_residual(solitary_double(-3, -2, -1), P_CASE1A)[2]

    def test_narrow_domain_takes_the_step_of_the_wave_s_window(self):
        """A domain much narrower than the wave takes the step that samples
        of the wave's window give: one period, or 20 for this pulse."""
        sol = solitary_double(-3, -2, -1)
        r_u, r_v, h = pde_residual(sol, P_CASE1A, (-1e-3, 1e-3), 500)
        assert h == pde_residual(sol, P_CASE1A, (-10.0, 10.0), 500)[2]
        assert max(r_u, r_v) < PDE_RTOL
        periodic, params = build_preset("fig-case2a")
        own = (-0.5 * periodic.period, 0.5 * periodic.period)
        r_u, r_v, h = pde_residual(periodic, params, (1.0, 1.002), 500)
        assert h == pde_residual(periodic, params, own, 500)[2]
        assert max(r_u, r_v) < PDE_RTOL

    def test_one_period_keeps_the_domain_s_step(self):
        """The default domain (xi0, xi0 + T) keeps the step that its samples
        give at phase 0, also where its length rounds below T."""
        sol, params = build_preset("fig-case2a", 1000.0)
        domain = _solution_domain(sol, None)
        assert domain[1] - domain[0] < sol.period
        t = np.linspace(0.0, sol.period, 500)
        r_u, r_v, h = pde_residual(sol, params, domain, 500)
        assert h == verify.PDE_STEP * verify._length(t, *sol.with_phase(0.0).profile(t))
        assert max(r_u, r_v) < PDE_RTOL

    def test_step_is_at_most_the_domains_share(self):
        """Samples that see a pulse only at its peak and far tails take the
        step of the pulse's window, within the domain's share, and pass."""
        sol = solitary_double(-3, -2, -1)
        r_u, r_v, h = pde_residual(sol, P_CASE1A, (-700.0, 700.0), 3)
        assert h == pde_residual(sol, P_CASE1A)[2]
        assert h <= verify.PDE_STEP * 1400.0
        assert max(r_u, r_v) < 1e-6

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(name=st.sampled_from(sorted(PRESETS)), n=st.integers(2, 600),
           a=st.floats(-1e3, 1e3), width=st.floats(1e-9, 1e3),
           xi0=st.just(0.0) | st.sampled_from([1e3, 1e6, 1e10, 1e14]))
    def test_step_depends_on_the_wave_alone(self, name, n, a, width, xi0):
        """The step is PDE_STEP times the length that 500 points of the
        wave's window measure: the same bits for every domain, every n >= 2
        and every xi0 (a pulse seen at its peak and tails on (-700, 700)
        with n = 3, and fig-case1a on (-1e-3, 1e-3) with n = 2, included)."""
        sol, params = build_preset(name, xi0)
        own = np.linspace(*sol.window, 500)
        want = verify.PDE_STEP * verify._length(own, *build_preset(name)[0].profile(own))
        for domain, k in (((a, a + width), n), ((-700.0, 700.0), 3), ((-1e-3, 1e-3), 2)):
            domain = (xi0 + domain[0], xi0 + domain[1])
            assert pde_residual(sol, params, domain, k)[2] == want
        assert pde_residual(sol, params, None, n)[2] == want

    def test_step_scales_with_the_wave(self):
        """The image f -> lambda f(lambda xi) + a of a wave on the image of
        its window takes the step h / lambda and the same verdict."""
        sol = solitary_double(-3, -2, -1)
        r_u, r_v, h = pde_residual(sol, P_CASE1A, (-10, 10), 500)
        image = solitary_double(-250, -150, -50)  # lambda = 100, a = 50
        r_u2, r_v2, h2 = pde_residual(image, image.params, (-0.1, 0.1), 500)
        assert h == pytest.approx(0.006, rel=1e-3)
        assert h2 == pytest.approx(h / 100, rel=1e-12)
        assert max(r_u, r_v, r_u2, r_v2) < 1e-8


def _fixed_step_passes(sol, domain, n=500):
    """The PDE gate's verdict with the fixed step 1e-3, which it took until
    the step came from the wave: refused on a domain of 6e-3 or less."""
    if domain[1] - domain[0] <= 6e-3:
        return False
    xi = np.linspace(domain[0], domain[1], n)
    return max(verify._pde_defects(sol, sol.params, xi, 1e-3)) < PDE_RTOL


@settings(max_examples=400, derandomize=True, deadline=None)
@given(kind=st.sampled_from(sorted(KINDS)),
       base=st.lists(st.floats(-3, 3), min_size=4, max_size=4, unique=True),
       sign=st.sampled_from((-1.0, 1.0)), exponent=st.floats(-2, 3),
       shift=st.just(0.0) | st.floats(-10, 10))
def test_derived_step_keeps_every_pass_of_the_fixed_step(kind, base, sign, exponent, shift):
    """Over the affine images lambda z + a of each family's zeros, with
    |lambda| from 1e-2 to 1e3 and |a| <= 10 |lambda|, no correct wave that
    passes the PDE gate with the fixed step 1e-3 fails it with the step
    measured from the wave (a seeded sweep of 771 waves: 285 failed with the
    fixed step, 5 with the derived one)."""
    lam = sign * 10.0 ** exponent
    row = KINDS[kind]
    zeros = [lam * z + shift * abs(lam) for z in base[:len(row.zeros.split(","))]]
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            sol = row.build(zeros, row.options.get("branch"), 0.0,
                            row.options.get("initial_index"))
    except (KBWaveError, ValueError, FloatingPointError):
        return
    domain = _solution_domain(sol, None)
    r_u, r_v, _ = pde_residual(sol, sol.params, domain, 500)
    if _fixed_step_passes(sol, domain):
        assert max(r_u, r_v) < PDE_RTOL, (kind, zeros, r_u, r_v)


class TestOracle:
    def test_solitary_match(self):
        """Start on the tail, run through the peak, compare to the pulse."""
        sol = solitary_double(-3, -2, -1, branch="upper")
        xi0 = -10.0
        f0 = sol.evaluate(xi0)[0]
        prof = oracle_integrate(P_CASE1A, f0, +1, 20.0, h=1e-4)
        exact = sol.profile(xi0 + prof.xi)[0]
        assert np.max(np.abs(prof.f - exact)) < 1e-6

    def test_periodic_band_and_period(self):
        roots = (0.0, 1.0, 2.0, 3.0)
        p = params_from_roots(multiset(*((v, 1) for v in roots))).as_floats()
        sol = general_sn2(roots, initial_index=1)
        T = sol.period
        prof = oracle_integrate(p, 0.0, +1, 2.2 * T, h=1e-4)
        assert prof.f.min() > -1e-8 and prof.f.max() < 1.0 + 1e-8
        # two reflections per period
        assert len(prof.events) >= 4
        measured_T = prof.events[2] - prof.events[0]
        assert abs(measured_T - T) < 1e-6
        exact = sol.profile(prof.xi)[0]
        assert np.max(np.abs(prof.f - exact)) < 1e-6

    def test_first_step_from_simple_max_decreases(self):
        # start at the upper turning point: direction is forced downward
        prof = oracle_integrate(P_CASE1A, -1.0, -1, 0.5, h=1e-3)
        assert prof.f[1] < prof.f[0]

    def test_peak_start_decays_to_double_zero(self):
        # launched from the peak, the orbit decays toward -2 along -2 + sech
        prof = oracle_integrate(P_CASE1A, -1.0, -1, 10.0, h=1e-4)
        exact = -2.0 + 1.0 / np.cosh(prof.xi)
        assert np.max(np.abs(prof.f - exact)) < 1e-6
        assert abs(prof.f[-1] + 2.0) < 1e-4

    def test_double_zero_start_is_constant(self):
        prof = oracle_integrate(P_CASE1A, -2.0, +1, 1.0, h=1e-3)
        assert np.max(np.abs(prof.f + 2.0)) < 1e-12

    def test_infeasible_start_rejected(self):
        with pytest.raises(InvalidConfiguration, match="infeasible"):
            oracle_integrate(P_CASE1A, 0.5, +1, 1.0, h=1e-3)  # F(0.5) < 0

    def test_turning_point_start_on_wide_roots(self):
        """A start 1e-13 past a turning point near 0, with the other zeros
        near +-5, has F(f0) ~ -1e-11: rounding at the zeros' scale, accepted."""
        roots = (-4.75, -0.25, 4.5, 4.875)
        p = params_from_roots(RootMultiset.from_values(roots, tol=1e-9)).as_floats()
        f0 = -0.25 + 1e-13
        assert eval_F(p, f0) < -1e-12
        prof = oracle_integrate(p, f0, +1, 1.0, h=1e-3)
        assert prof.f.max() <= f0 and prof.f[-1] < -0.3
        sol = general_sn2(roots, initial_index=2)
        linf, _ = compare_profiles(prof, build_profile(sol, p, (0.0, 1.0), len(prof.xi)))
        assert linf < 1e-6

    def test_energy_identity_along_profile(self):
        sol = periodic_trig(-1.0, 1 / 3, 1.0, branch="lower")
        prof = oracle_integrate(sol.params, sol.evaluate(0.0)[0], +1, 5.0, h=1e-3)
        drift = np.abs(prof.f_prime**2 - eval_F(sol.params, prof.f))
        assert np.max(drift) < 1e-8

    def test_turning_reflection_continuity(self):
        prof = oracle_integrate(P_CASE1A, -2.9, +1, 6.0, h=1e-3)
        # profile stays continuous through the reflection: increments bounded
        # by the max slope, and f' vanishes near each event
        max_slope = np.max(np.abs(prof.f_prime))
        assert np.max(np.abs(np.diff(prof.f))) <= 1.1 * max_slope * prof.h + 1e-10
        for e in prof.events:
            idx = int(round(e / prof.h))
            if 0 <= idx < len(prof.f_prime):
                assert abs(prof.f_prime[idx]) < 0.05

    def test_fourth_order_convergence_away_from_turning(self):
        """Halve h on a segment that stops short of the turning point."""
        sol = solitary_double(-3, -2, -1, branch="upper")
        xi0 = -10.0
        f0 = sol.evaluate(xi0)[0]
        errs = {}
        for h in (0.02, 0.01):
            prof = oracle_integrate(P_CASE1A, f0, +1, 9.0, h=h)
            exact = sol.profile(xi0 + prof.xi)[0]
            errs[h] = np.max(np.abs(prof.f - exact))
        assert errs[0.02] / errs[0.01] >= 8.0

    def test_positive_step_required(self):
        with pytest.raises(ValueError):
            oracle_integrate(P_CASE1A, -2.5, 1, 1.0, h=0.0)

    def test_negative_length_refused(self):
        with pytest.raises(ValueError, match="length must be >= 0"):
            oracle_integrate(P_CASE1A, -2.5, 1, -1.0)

    @pytest.mark.parametrize("f0, length, h, message", [
        (-2.5, 1.0, math.inf, "h must be finite and positive, got inf"),
        (-2.5, 1.0, math.nan, "h must be finite and positive, got nan"),
        (-2.5, math.inf, 1e-3, "length must be finite, got inf"),
        (-2.5, math.nan, 1e-3, "length must be finite, got nan"),
        (math.nan, 1.0, 1e-3, "f0 must be finite, got nan"),
        (-math.inf, 1.0, 1e-3, "f0 must be finite, got -inf"),
    ])
    def test_non_finite_input_refused(self, f0, length, h, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            oracle_integrate(P_CASE1A, f0, 1, length, h=h)

    def test_grid_past_the_point_limit_refused(self, monkeypatch):
        """A grid of more than MAX_ORACLE_POINTS points is refused before it
        is allocated (a MemoryError from the lists before)."""
        with pytest.raises(ValueError, match="1.2e\\+09 grid points, more than MAX_ORACLE_POINTS"):
            oracle_integrate(P_CASE1A, -2.5, 1, 12.0, h=1e-8)
        monkeypatch.setattr(verify, "MAX_ORACLE_POINTS", 11)
        assert len(oracle_integrate(P_CASE1A, -2.5, 1, 0.01, h=1e-3).f) == 11
        with pytest.raises(ValueError, match="MAX_ORACLE_POINTS = 11"):
            oracle_integrate(P_CASE1A, -2.5, 1, 0.011, h=1e-3)

    @pytest.mark.parametrize("f0, sign, h, at", [
        (-2.9, 1, 12.0, 12.0),  # one step to f = -85157, where F < 0
        (-2.9, 1, 0.5, 3.5),    # across the double zero -2 into [-2, -1]
    ])
    def test_step_leaving_the_band_refused(self, f0, sign, h, at):
        """A step too coarse for the orbit that takes f out of its start
        band [-3, -2] is a BlowUp at the first such xi, not a profile."""
        with pytest.raises(BlowUp, match=r"left its band \[-3, -2\]") as err:
            oracle_integrate(P_CASE1A, f0, sign, 12.0, h=h)
        assert err.value.t == at

    @pytest.mark.parametrize("f0", [-1.0, -1.0 + 1e-13])
    def test_start_at_a_zero_takes_the_band_below(self, f0):
        """A start at the zero -1, or just past it (F(f0) ~ -2e-13, within
        rounding), is in no band's interior: the band check skips that zero
        and the orbit runs down through [-2, -1]."""
        prof = oracle_integrate(P_CASE1A, f0, -1, 1.0, h=1e-3)
        assert prof.f.min() < -1.1

    def test_series_constants_once_per_call(self, monkeypatch):
        """F's derivatives are taken for each zero's series once per call:
        their count does not grow with the number of steps."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return eval_F_deriv(*args, **kwargs)

        monkeypatch.setattr(verify, "eval_F_deriv", counted)
        counts = []
        for length in (0.5, 1.0):
            calls.clear()
            oracle_integrate(P_CASE1A, -2.9, +1, length)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


def _profile_sha256(prof):
    h = hashlib.sha256()
    for a in (prof.xi, prof.f, prof.f_prime, prof.g, np.asarray(prof.events, dtype=float)):
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


# sha256 of (xi, f, f', g, events) at h = 1e-4, from the step loop that went
# through q.F, rhs and rk4 calls and inverted the series on every plain step:
# (start, sign, length) -> digest; "readme" is the README's oracle input
ORACLE_GOLDEN = {
    ("readme", 1, 0.5): "af37aab5d722047613a2e6b24094674fa54544a57ef5ced4850262ddaaa7e761",
    ("readme", 1, 12.0): "04a97717e421e91df3dc2b45ca0d4027bcaffbfa44432d2fb6ddc8922ca1ed78",
    ("fig-case1a", 1, 0.5): "503167ba9d9f8f529f166a97b3e0337492ddc7d3184a0f12d5132188f4744ba7",
    ("fig-case1a", 1, 12.0): "983b73c32459c28b8829035f9351255ad7848903d00a9968837846d1d2f459e2",
    ("fig-case1a", -1, 0.5): "503167ba9d9f8f529f166a97b3e0337492ddc7d3184a0f12d5132188f4744ba7",
    ("fig-case1a", -1, 12.0): "983b73c32459c28b8829035f9351255ad7848903d00a9968837846d1d2f459e2",
    ("fig-case1b-k05", 1, 0.5): "d0e52c07b85fc65998262e52a1c00d16b8426ba7e40eef4da80b31895c6c0aa9",
    ("fig-case1b-k05", 1, 12.0): "456e1f9187ec672b20216bdbc25dea1777f5cda8cab64ba4d773512adba107db",
    ("fig-case1b-k05", -1, 0.5): "d0e52c07b85fc65998262e52a1c00d16b8426ba7e40eef4da80b31895c6c0aa9",
    ("fig-case1b-k05", -1, 12.0): "456e1f9187ec672b20216bdbc25dea1777f5cda8cab64ba4d773512adba107db",
    ("fig-case2a", 1, 0.5): "91109225d7f9b90b08b78fd46673ee6cf28d49aa1e8f0400d902df70c736e4a0",
    ("fig-case2a", 1, 12.0): "0817b16c9b08ce4766b97ce720b1d8ab1d04836fd33d8e820b52481e125ad626",
    ("fig-case2a", -1, 0.5): "a41fd5dc8764b822c5029a6fecf7add2aeee76ea4f9b41dea39335f9283014c3",
    ("fig-case2a", -1, 12.0): "d69f2e9b576a7325e2ea807fa4f18b5669871c374d6599df659c44b17e896679",
    ("fig-case2b", 1, 0.5): "81322800341b0345167e984b865d6ddb488527a0a2e8edffa05be693c549a21a",
    ("fig-case2b", 1, 12.0): "d297fef601235956be2c8ebd206277eaeaedcbccdd308cb8c51532c9992b0a6b",
    ("fig-case2b", -1, 0.5): "81322800341b0345167e984b865d6ddb488527a0a2e8edffa05be693c549a21a",
    ("fig-case2b", -1, 12.0): "d297fef601235956be2c8ebd206277eaeaedcbccdd308cb8c51532c9992b0a6b",
    ("fig-case2bc-k1", 1, 0.5): "4f651a77413eb4ff20f3c23c558c19c0b5983f157ad88f0119bbdf15acef1c95",
    ("fig-case2bc-k1", 1, 12.0): "e9c9adcccfc9d3a77956a119433f15ff941f5cb100d84bf178c7521fbbf0d9c3",
    ("fig-case2bc-k1", -1, 0.5): "4f651a77413eb4ff20f3c23c558c19c0b5983f157ad88f0119bbdf15acef1c95",
    ("fig-case2bc-k1", -1, 12.0): "e9c9adcccfc9d3a77956a119433f15ff941f5cb100d84bf178c7521fbbf0d9c3",
    ("fig-case2e", 1, 0.5): "730a5128101a26d55b2ce4b387273097f4dd569bbb781b85cfeda7a7ed19af22",
    ("fig-case2e", 1, 12.0): "14f3c20322d03fa855e0e1fcb382b17373f3b27db6ea94a49714c4627ba5a523",
    ("fig-case2e", -1, 0.5): "6b922df58bb9d9e3a45941a2a61b792f44b0ce6e261a9ec7deda7df13ec852e7",
    ("fig-case2e", -1, 12.0): "cee615f1565a6bc4f9a6f66f5d0889aacdb81a15ffbd5c9ad36de6e1d7e31597",
    ("fig-case2f", 1, 0.5): "4e852396975a0a50fae2b114b5efb713ff8562612ec7e9edb178a39b2f89e797",
    ("fig-case2f", 1, 12.0): "12a18864b71330a996e829d28f9264a80f02b47e990762c43dbbee91df5eb54c",
    ("fig-case2f", -1, 0.5): "4e852396975a0a50fae2b114b5efb713ff8562612ec7e9edb178a39b2f89e797",
    ("fig-case2f", -1, 12.0): "12a18864b71330a996e829d28f9264a80f02b47e990762c43dbbee91df5eb54c",
    ("fig-case2f-k1", 1, 0.5): "25fe7ea9ef96a4740d43a21f5606f51be16d8ed8f1eb0f8a00874b62a6f30f90",
    ("fig-case2f-k1", 1, 12.0): "d1f091508520f97e72c1dfd125a0c0bd02ba4590d15b1676da09666e5e6c335e",
    ("fig-case2f-k1", -1, 0.5): "25fe7ea9ef96a4740d43a21f5606f51be16d8ed8f1eb0f8a00874b62a6f30f90",
    ("fig-case2f-k1", -1, 12.0): "d1f091508520f97e72c1dfd125a0c0bd02ba4590d15b1676da09666e5e6c335e",
}


class TestOracleGolden:
    """The step loop's output is pinned bit for bit: the README input, and
    each preset's f(0) with both signs, at lengths 0.5 and 12."""

    @pytest.mark.parametrize("start,sign,length", sorted(ORACLE_GOLDEN))
    def test_profile_unchanged(self, start, sign, length):
        if start == "readme":
            p, f0 = P_CASE1A, -2.9
        else:
            sol, p = build_preset(start)
            f0 = float(sol.profile(np.array([0.0]))[0][0])
        prof = oracle_integrate(p, f0, sign, length)
        assert _profile_sha256(prof) == ORACLE_GOLDEN[(start, sign, length)]

    def test_series_inversion_only_near_a_zero(self, monkeypatch):
        """The README input drifts toward its double zero, far from both
        simple zeros: plain steps skip the inversion (one per step for each
        simple zero before the reach bound), so the count does not grow
        with the length."""
        calls = []
        time_to = verify._Turn.time_to

        def counted(self, f):
            calls.append(f)
            return time_to(self, f)

        monkeypatch.setattr(verify._Turn, "time_to", counted)
        counts = []
        for length in (0.5, 2.0):
            calls.clear()
            oracle_integrate(P_CASE1A, -2.9, +1, length)
            counts.append(len(calls))
        assert counts[0] == counts[1] < 100


def _params_of(roots):
    """Params of the quartic with these four zeros (complex ones in pairs)."""
    _, m1, e2, m3, e4 = np.poly(roots).real  # 1, -e1, e2, -e3, e4
    e1, e3 = -m1, -m3
    return Params(-e1 / 4, e1 * e1 / 16 - e2 / 4, e3 / 8, -e4 / 8)


_UNIT = st.floats(-1.0, 1.0)


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(st.lists(_UNIT, min_size=4, max_size=4), st.booleans(),
       st.floats(-2.0, 3.0), st.floats(-4.0, -2.0), st.floats(-12.0, 0.0))
def test_reach_bound_skips_only_outside_the_window(unit, pair, log_scale, log_h, log_theta):
    """Wherever a plain step skips the series inversion, ((f - r)/A2 beyond
    twice the window's reach), the inversion would have put f outside the
    window: f sweeps the band of F >= 0 next to each simple zero, for
    quartics with four real zeros or two and a complex pair."""
    scale, h = 10.0 ** log_scale, 10.0 ** log_h
    roots = [scale * v for v in unit]
    if pair:  # the last two values give the pair's real part and |imag|
        re, im = roots[2], scale * (1e-3 + abs(unit[3]))
        roots[2:] = [complex(re, im), complex(re, -im)]
    p = _params_of(roots)
    rm = roots_of_F(p)
    q = verify._Quartic(p, factor_roots=rm.expand() if rm.total() == 4 else None)
    real = [v for v, _ in rm.entries]
    thetas = np.concatenate([np.logspace(-12, 0, 400, endpoint=False), [10.0 ** log_theta]])
    for r, m in rm.entries:
        t = verify._Turn(q, r, h)
        if m != 1 or t.A2 == 0.0:
            continue
        # the band lies on the side where (f - r)/A2 > 0, up to the next zero
        side = [v for v in real if (v - r) * t.A2 > 0.0]
        if not side:
            continue
        edge = min(side, key=lambda v: abs(v - r))
        for theta in thetas:
            f = r + theta * (edge - r)
            if (f - r) / t.A2 > t.far:
                assert t.time_to(f) > t.window, (roots, h, r, f)


def _reference_step(q):
    """One RK4 step of f' = s sqrt(max(F(f), 0)) given its first stage k1,
    F written out as _Quartic.F writes it: step(f, hh, k1, s) -> (f + hh *
    slope, F there)."""
    sqrt = math.sqrt
    if q.factors is not None:
        r1, r2, r3, r4 = q.factors

        def F(x):
            return -(x - r1) * (x - r2) * (x - r3) * (x - r4)
    else:
        c4, c3, c2, c1, c0 = q.c4, q.c3, q.c2, q.c1, q.c0

        def F(x):
            return (((c4 * x + c3) * x + c2) * x + c1) * x + c0

    def step(f, hh, k1, s):
        v = F(f + 0.5 * hh * k1)
        k2 = s * sqrt(0.0 if v < 0.0 else v)
        v = F(f + 0.5 * hh * k2)
        k3 = s * sqrt(0.0 if v < 0.0 else v)
        v = F(f + hh * k3)
        k4 = s * sqrt(0.0 if v < 0.0 else v)
        x = f + hh / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return x, F(x)

    return step


def _reference_oracle(p, f0, sign, length, h):
    """oracle_integrate's step loop as it was before plain steps ran in
    guarded runs: every plain step is one step() call followed by the window
    and clamp tests, stored item by item into numpy arrays.  The oracle must
    reproduce it bit for bit."""
    rm = roots_of_F(p)
    q = verify._Quartic(p, factor_roots=rm.expand() if rm.total() == 4 else None)
    f0 = float(f0)
    if q.F(f0) < -1e-12 * rm.scale() ** 4:
        raise InvalidConfiguration("start point infeasible")
    simple = [v for v, m in rm.entries if m == 1]
    multi = [v for v, m in rm.entries if m >= 2]
    turns = {r: verify._Turn(q, r, h) for r in simple}
    approachable = [(t.r, t.A2, t.far, t) for t in turns.values() if t.A2 != 0.0]
    step = _reference_step(q)
    n = int(round(length / h))
    fs = np.empty(n + 1)
    fps = np.empty(n + 1)
    fs[0] = f0
    s = 1.0 if sign >= 0 else -1.0
    events = []
    f = f0
    k1 = fps[0] = s * math.sqrt(max(q.F(f0), 0.0))
    clamp_to = None
    mode = None
    for r in simple:
        if abs(f0 - r) <= 1e-12 * max(1.0, abs(r)):
            mode = (turns[r], 0.0)
            events.append(0.0)
            fps[0] = 0.0
            break
    i = 0
    while i < n:
        if clamp_to is not None:
            fs[i + 1] = clamp_to
            fps[i + 1] = 0.0
            i += 1
            continue
        if mode is None:
            for r, A2, far, t in approachable:
                u = f - r
                if not 0.0 <= u / A2 <= far:
                    continue
                tau = t.time_to(f)
                if not tau <= t.window:
                    continue
                if s * (r - f) > 0.0 or abs(u) <= 1e-12 * max(1.0, abs(r)):
                    mode = (t, -tau)
                    events.append(i * h + tau)
                    break
        if mode is not None:
            t, delta = mode
            delta += h
            f, fprime = t.at(delta)
            k1 = None
            fs[i + 1] = f
            fps[i + 1] = fprime
            i += 1
            if delta > t.window:
                s = math.copysign(1.0, fprime) if fprime != 0.0 else s
                mode = None
            else:
                mode = (t, delta)
            continue
        if k1 is None:
            k1 = s * math.sqrt(max(q.F(f), 0.0))
        ftrial, Ftrial = step(f, h, k1, s)
        if Ftrial < 0.0:
            lo, hi = 0.0, h
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if step(f, mid, k1, s)[1] < 0.0:
                    hi = mid
                else:
                    lo = mid
            fstar = step(f, lo, k1, s)[0]
            allr = simple + multi
            if not allr:
                raise InvalidConfiguration("F went negative with no real zeros")
            best = min(allr, key=lambda r_: abs(r_ - fstar))
            if best in multi:
                clamp_to = best
                fs[i + 1] = best
                fps[i + 1] = 0.0
                i += 1
                continue
            t = turns[best]
            tau = min(t.time_to(f), t.window)
            mode = (t, -tau)
            events.append(i * h + tau)
            continue
        f = ftrial
        k1 = fps[i + 1] = s * math.sqrt(Ftrial)
        fs[i + 1] = f
        i += 1
        for r in multi:
            if abs(f - r) < 1e-10:
                clamp_to = r
    xi = np.arange(n + 1) * h
    pf = p.as_floats()
    return Profile(xi=xi, f=fs, f_prime=fps, g=verify.g_from_f(fs, pf.c, pf.d1),
                   events=tuple(events))


def _profile_bytes(integrate, *args):
    """The bytes of (xi, f, f', g, events), or the error raised."""
    try:
        prof = integrate(*args)
    except InvalidConfiguration as err:
        return repr(err)
    return [np.asarray(a, dtype=float).tobytes() for a in
            (prof.xi, prof.f, prof.f_prime, prof.g, prof.events)]


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(st.sampled_from(["real", "double", "pair"]),
       st.lists(st.integers(-24, 24), min_size=4, max_size=4), st.integers(0, 5),
       st.integers(0, 3), st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0),
       st.sampled_from([1, -1]), st.floats(-4.0, -2.0), st.integers(1, 2000))
def test_guarded_runs_match_the_reference_loop(kind, ints, log2_scale, band, theta, sign, log_h, steps):
    """oracle_integrate gives the reference loop's profile bit for bit: four
    real zeros (factored F), a double zero (the clamp), two real zeros and a
    complex pair (Horner), starts anywhere in a band of F >= 0 or at either
    of its edges, both signs, h from 1e-4 to 1e-2.  Zeros scaled up to 2^5
    at the larger steps widen their windows to 3h, where ``far`` is inf."""
    zeros = [Fraction(k, 8) * 2 ** log2_scale for k in ints]
    if kind == "double":
        zeros[1] = zeros[0]
    if kind == "pair":  # the last two values give the pair's real part and |imag|
        re, im = float(zeros[2]), 1 / 8 + abs(float(zeros[3]))
        p = _params_of([float(zeros[0]), float(zeros[1]), complex(re, im), complex(re, -im)])
    else:
        p = params_from_roots(RootMultiset.from_values(zeros, tol=1e-9))
    q = verify._Quartic(p)
    real = sorted(v for v, _ in roots_of_F(p).entries)
    bands = [(a, b) for a, b in zip(real, real[1:]) if q.F(0.5 * (a + b)) > 0.0]
    if not bands:
        return
    lo, hi = bands[band % len(bands)]
    h = 10.0 ** log_h
    args = (p, lo + theta * (hi - lo), sign, steps * h, h)
    try:
        got = _profile_bytes(oracle_integrate, *args)
    except BlowUp:
        # a step too coarse for the orbit: the reference loop's profile does
        # not stay in the band
        f = _reference_oracle(*args).f
        slack = verify._BAND_SLACK * roots_of_F(p).scale()
        assert not lo - slack <= f.min() <= f.max() <= hi + slack
        return
    assert got == _profile_bytes(_reference_oracle, *args)


def test_clamp_to_a_multiple_zero_matches_the_reference_loop():
    """Zeros -1, 0 and a double at 1: the orbit from just below 1 reaches the
    double zero in its first step, the event clamps it there, and the profile
    is the reference loop's bit for bit."""
    args = (Params(-0.25, 0.3125, -0.125, 0.0), 0.999999999999, 1, 3.0, 0.01)
    roots = roots_of_F(args[0])
    assert roots.multiplicities() == (1, 1, 2)
    assert oracle_integrate(*args).f[-1] == roots.values()[-1]
    assert _profile_bytes(oracle_integrate, *args) == _profile_bytes(_reference_oracle, *args)


class TestCompareProfiles:
    def test_identical(self):
        xi = np.linspace(0, 1, 11)
        a = Profile(xi=xi, f=np.sin(xi))
        assert compare_profiles(a, a) == (0.0, 0.0)

    def test_shift_bound(self):
        sol = solitary_double(-3, -2, -1, branch="upper")
        h = 1e-3
        xi = np.arange(0, 5, h)
        f, fp = sol.profile(xi)
        f2, _ = sol.profile(xi + h)
        linf, _ = compare_profiles(Profile(xi=xi, f=f), Profile(xi=xi, f=f2))
        assert linf <= 1.05 * h * np.max(np.abs(fp))

    def test_resampling_path(self):
        """Profiles are compared on one grid and never resampled: a finer
        grid, a shifted one or a wider one is refused, however much the
        domains overlap."""
        xi_a = np.linspace(0, 2 * np.pi, 201)
        a = Profile(xi=xi_a, f=np.sin(xi_a))
        for xi in (np.linspace(0, 2 * np.pi, 401), xi_a + 0.01,
                   np.linspace(-1, 2 * np.pi + 1, 517)):
            with pytest.raises(InvalidConfiguration, match="different grids"):
                compare_profiles(a, Profile(xi=xi, f=np.sin(xi)))

    def test_disjoint_domains(self):
        a = Profile(xi=np.linspace(0, 1, 11), f=np.zeros(11))
        b = Profile(xi=np.linspace(5, 6, 11), f=np.zeros(11))
        with pytest.raises(InvalidConfiguration, match="different grids"):
            compare_profiles(a, b)


class TestProfileType:
    def test_grid_must_be_uniform(self):
        with pytest.raises(ValueError):
            Profile(xi=np.array([0.0, 0.1, 0.3]), f=np.zeros(3))

    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            Profile(xi=np.linspace(0, 1, 5), f=np.zeros(4))

    def test_build_profile_has_g_column(self):
        sol = solitary_double(-3, -2, -1, branch="upper")
        prof = build_profile(sol, P_CASE1A, (-2, 2), 41)
        assert prof.g is not None
        expected = -2.0 * prof.f - 0.75 * prof.f**2 - 7 / 4
        assert np.max(np.abs(prof.g - expected)) < 1e-12
