"""Verification layer: residual operators, RK4 orbit oracle, profile norms."""

import math

import numpy as np
import pytest

from kbwave.errors import InvalidConfiguration
from kbwave.quartic import Params, RootMultiset, eval_F, params_from_roots
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


class TestPdeResidual:
    def test_case1a(self):
        sol = solitary_double(-3, -2, -1, branch="upper")
        r_u, r_v = pde_residual(sol, P_CASE1A, (-10, 10), 400, 1e-3)
        assert r_u < 1e-6 and r_v < 1e-6

    def test_constant_pair(self):
        sol = limiting_form("d", (-3.0, -3.0, -1.0))
        r_u, r_v = pde_residual(sol, sol.params, (-5, 5), 100, 1e-3)
        assert r_u < 1e-14 and r_v < 1e-14

    def test_case2bc_pair(self):
        sol = case2("dn", 8 - 2 * S14, 1.0, 8 + 2 * S14)
        r_u, r_v = pde_residual(sol, sol.params, (-10, 10), 400, 1e-3)
        assert r_u < 1e-6 and r_v < 1e-6

    def test_domain_large_enough_for_stencils(self):
        sol = solitary_double(-3, -2, -1)
        with pytest.raises(ValueError, match="domain too small"):
            pde_residual(sol, P_CASE1A, (-1e-3, 1e-3), 10, 1e-3)


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

    def test_energy_identity_along_profile(self):
        sol = periodic_trig(-1.0, 1 / 3, 1.0, sign="lower")
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
        xi_a = np.linspace(0, 2 * np.pi, 201)
        xi_b = np.linspace(-1, 2 * np.pi + 1, 517)
        a = Profile(xi=xi_a, f=np.sin(xi_a))
        b = Profile(xi=xi_b, f=np.sin(xi_b))
        linf, rms = compare_profiles(a, b)
        assert linf < 1e-7 and rms <= linf

    def test_disjoint_domains(self):
        a = Profile(xi=np.linspace(0, 1, 11), f=np.zeros(11))
        b = Profile(xi=np.linspace(5, 6, 11), f=np.zeros(11))
        with pytest.raises(InvalidConfiguration):
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
