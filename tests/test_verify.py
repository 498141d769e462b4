"""Verification layer: residual operators, the orbit oracle, profile norms."""

import hashlib
import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kbwave import orbit, verify
from kbwave.cli import PDE_RTOL, _solution_domain
from kbwave.elliptic import jacobi
from kbwave.errors import InfeasibleBranch, InvalidConfiguration, KBWaveError, UnresolvedBranch
from kbwave.orbit import Orbit
from kbwave.orbit import band as orbit_band
from kbwave.presets import KINDS, PRESETS, build_preset
from kbwave.quartic import (
    Params,
    RootMultiset,
    bands,
    eval_F,
    eval_F_deriv,
    params_from_roots,
    roots_of_F,
)
from kbwave.reduction import g_from_f
from kbwave.solutions import (
    Infeasible,
    _certificate,
    _gates,
    case1,
    case2,
    general_sn2,
    limiting_form,
    periodic_trig,
    solitary_double,
    solitary_triple,
)
from kbwave.verify import (
    ORBIT_RTOL,
    Profile,
    build_profile,
    compare_profiles,
    ode_residual,
    oracle_integrate,
    orbit_deviation,
    pde_residual,
)
from test_solutions import printed_sn2

S14 = math.sqrt(14.0)
P_CASE1A = Params(2.0, -7 / 4, -7 / 2, -3 / 2)
P_EXACT = Params(2, Fraction(-7, 4), Fraction(-7, 2), Fraction(-3, 2))  # zeros exactly -3, -2, -1


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
        r_u, r_v = pde_residual(sol, P_CASE1A, (-10, 10), 400)
        assert r_u < 1e-13 and r_v < 1e-13

    def test_constant_pair(self):
        """A constant's derivatives are 0, and so is every term."""
        sol = limiting_form("d", (-3.0, -3.0, -1.0))
        assert pde_residual(sol, sol.params, (-5, 5), 100) == (0.0, 0.0)

    def test_case2bc_pair(self):
        sol = case2("dn", 8 - 2 * S14, 1.0, 8 + 2 * S14)
        r_u, r_v = pde_residual(sol, sol.params, (-10, 10), 400)
        assert r_u < 1e-13 and r_v < 1e-13

    def test_long_wave_and_narrow_domain_pass(self):
        """No step has to fit the wave or the domain: a wave so long that
        the stencils' 8 h^3 overflowed (T = 2.6e106), and a domain as narrow
        as (0, 1e-110), pass."""
        long = periodic_trig(1e-106, 2e-106, 4e-106)
        assert max(pde_residual(long, long.params, (0.0, 1.0), 10)) < 1e-13
        sol = solitary_double(-3, -2, -1)
        assert max(pde_residual(sol, P_CASE1A, (0.0, 1e-110), 10)) < 1e-13

    @pytest.mark.parametrize("domain", [(1e200, 1e300), (1e293, 1e294), (-1e300, 0.0)])
    def test_far_domain_is_refused(self, domain):
        """The one refusal: a domain whose phase beta t does not fit a float
        at its farthest point, named with that distance."""
        sol = solitary_double(-1e16, 0.0, 1e16)
        with pytest.raises(ValueError, match=r"the domain reaches \|xi - xi0\| = .*, too far "
                                             r"for a wave of frequency 1e\+16: its phase"):
            pde_residual(sol, sol.params, domain, 10)

    def test_far_domain_is_in_the_wave_s_phase(self):
        """A domain far out is checked at its phases about the wave's xi0."""
        sol = solitary_double(-3, -2, -1, xi0=1e15)
        assert max(pde_residual(sol, P_CASE1A, (1e15 - 8.0, 1e15 + 8.0), 500)) < 1e-13

    def test_narrow_domain_passes(self):
        """A domain much narrower than the wave, about its peak or anywhere
        in its period, passes."""
        sol = solitary_double(-3, -2, -1)
        assert max(pde_residual(sol, P_CASE1A, (-1e-3, 1e-3), 500)) < 1e-13
        periodic, params = build_preset("fig-case2a")
        assert max(pde_residual(periodic, params, (1.0, 1.002), 500)) < 1e-13

    def test_one_period_far_out_passes(self):
        """The default domain (xi0, xi0 + T) at xi0 = 1000, whose length
        rounds below T, passes; by default the phases are the window's own,
        so the residuals are those of the wave at xi0 = 0, to the bit."""
        sol, params = build_preset("fig-case2a", 1000.0)
        domain = _solution_domain(sol, None)
        assert domain[1] - domain[0] < sol.period
        assert max(pde_residual(sol, params, domain, 500)) < 1e-13
        assert pde_residual(sol, params) == pde_residual(build_preset("fig-case2a")[0], params)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(name=st.sampled_from(sorted(PRESETS)), n=st.integers(2, 600),
           a=st.floats(-1e3, 1e3), width=st.floats(1e-9, 1e3),
           xi0=st.just(0.0) | st.sampled_from([1e3, 1e6, 1e10, 1e14]))
    def test_every_domain_passes(self, name, n, a, width, xi0):
        """Every preset passes on every domain, with every n >= 2 and every
        xi0 (a pulse seen at its peak and tails on (-700, 700) with n = 3,
        and fig-case1a on (-1e-3, 1e-3) with n = 2, included), and by
        default reads the same bits for every xi0."""
        sol, params = build_preset(name, xi0)
        for domain, k in (((a, a + width), n), ((-700.0, 700.0), 3), ((-1e-3, 1e-3), 2)):
            domain = (xi0 + domain[0], xi0 + domain[1])
            assert max(pde_residual(sol, params, domain, k)) < 1e-13
        assert pde_residual(sol, params, None, n) == pde_residual(build_preset(name)[0], params,
                                                                  None, n)

    def test_affine_image_keeps_the_verdict(self):
        """The image f -> lambda f(lambda xi) + a of a wave passes as the
        wave does, and its beta x 1.001 mutant is refused as the wave's is."""
        sol = solitary_double(-3, -2, -1)
        image = solitary_double(-250, -150, -50)  # lambda = 100, a = 50
        for wave in (sol, image):
            assert max(pde_residual(wave, wave.params)) < 1e-13
            assert pde_residual(replace(wave, beta=wave.beta * 1.001), wave.params)[1] > 1e-5

    def test_close_zeros_of_small_modulus_pass(self):
        """A periodic wave of modulus 0.022 whose zeros lie 0.026 apart near
        -145.7 passes at rounding, where the stencils read 2.7e-5."""
        sol = case1("dn", -145.71648558370455, 71.75467622356052, -145.69086468777877)
        assert sol.modulus == pytest.approx(0.022, abs=1e-3)
        r_u, r_v = pde_residual(sol, sol.params)
        assert r_u <= 1e-13 and r_v <= 1e-13
        assert _stencil_residual(sol, sol.params)[1] > 2e-5

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_at_rounding_and_a_wrong_frequency_refused(self, name):
        """Every preset reads at most 1e-13, and with beta x 1.001 at least
        1e-5, against the stencils' 8.7e-11 to 2.7e-8 on the presets."""
        sol, params = build_preset(name)
        assert max(pde_residual(sol, params)) <= 1e-13
        assert pde_residual(replace(sol, beta=sol.beta * 1.001), params)[1] >= 1e-5


def _stencil_residual(sol, p):
    """The referee: (r_u, r_v) as pde_residual gives them on 500 points of
    the wave's window, with the derivatives from 4th-order central
    differences (first derivatives on 5 points, u_xxx on 7) and the step
    3e-3 times the wave's length scale there, (max f - min f) / max |f'|,
    at most the window's length."""
    t = np.linspace(*sol.window, 500)
    wave = sol.with_phase(0.0)
    f, fp = wave.profile(t)
    rise, slope = float(np.max(f) - np.min(f)), float(np.max(np.abs(fp)))
    noise = 1e-12 * (float(np.max(np.abs(f))) + slope * max(abs(t[0]), abs(t[-1])))
    span = t[-1] - t[0]
    h = 3e-3 * (min(span, rise / slope) if rise > noise and slope > 0.0 else span)
    pf = p.as_floats()
    c = pf.c
    u = wave.profile((t[:, None] + np.arange(-3, 4) * h).ravel())[0].reshape(len(t), 7)
    v = g_from_f(u, c, pf.d1)
    ux, vx = ((a[:, 1] - 8 * a[:, 2] + 8 * a[:, 4] - a[:, 5]) / (12 * h) for a in (u, v))
    uxxx = (u[:, 0] - 8 * u[:, 1] + 13 * u[:, 2] - 13 * u[:, 4] + 8 * u[:, 5] - u[:, 6]) / (
        8.0 * h * h * h)
    u, v = u[:, 3], v[:, 3]
    terms_u = (-c * ux, 1.5 * u * ux, vx)
    terms_v = (-c * vx, -0.25 * uxxx, v * ux, 0.5 * u * vx)
    r_u = terms_u[0] - terms_u[1] - terms_u[2]
    r_v = terms_v[0] - terms_v[1] - terms_v[2] - terms_v[3]
    return tuple(float(np.max(np.abs(r)) / max(1.0, *(float(np.max(np.abs(x))) for x in terms)))
                 for r, terms in ((r_u, terms_u), (r_v, terms_v)))


def _moved(sol, name, v):
    """sol with ``name`` set to v; a moved modulus k takes the comodulus
    sqrt((1 - k)(1 + k)), the wave at that k."""
    if name == "modulus":
        return replace(sol, modulus=v, comodulus=math.sqrt((1.0 - v) * (1.0 + v)))
    return replace(sol, **{name: v})


def _mutants(sol, moves=(1e-6,)):
    """sol with one of beta, A, B, C, D and k moved by each of ``moves``
    relative either way: each nonzero one, with k kept at most 1, where the
    form stays pole-free."""
    for name in ("beta", "A", "B", "C", "D", "modulus"):
        x = getattr(sol, name)
        for moved in (x * (1.0 + d * rel) for rel in moves for d in (-1.0, 1.0)) if x else ():
            if name == "modulus" and moved > 1.0:
                continue
            try:
                yield _moved(sol, name, moved)
            except InvalidConfiguration:
                continue


def _check_against_the_referee(sol, p):
    """The gate passes sol where the referee does, and refuses each mutant
    the referee refuses by more than twice its own reading on sol.  That
    reading is the stencils' error, whose rounding part moves by about its
    size from sol to a mutant; on waves of close zeros it alone reaches the
    bound, and so refuses correct waves (1.1e-6 on general_sn2 of -6060.79,
    -3023.68, -3210.36, -6065.07; 5.5e-5 on case1-dn of -20, -19.99999,
    -1e-5) and mutants whose defect is far below it."""
    own = max(_stencil_residual(sol, p))
    if own < PDE_RTOL:
        assert max(pde_residual(sol, p)) < PDE_RTOL
    for mutant in _mutants(sol):
        if max(_stencil_residual(mutant, p)) - 2.0 * own >= PDE_RTOL:
            assert max(pde_residual(mutant, p)) >= PDE_RTOL, (mutant, own)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_mutants_the_referee_refuses_are_refused(name):
    _check_against_the_referee(*build_preset(name))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(kind=st.sampled_from(sorted(KINDS)),
       base=st.lists(st.floats(-3, 3), min_size=4, max_size=4, unique=True),
       sign=st.sampled_from((-1.0, 1.0)), exponent=st.floats(-2, 3),
       shift=st.just(0.0) | st.floats(-10, 10))
def test_mutants_the_referee_refuses_are_refused(kind, base, sign, exponent, shift):
    """Over the affine images lambda z + a of each family's zeros, with
    |lambda| from 1e-2 to 1e3 and |a| <= 10 |lambda|, the gate passes every
    correct wave the stencil referee passes, and refuses every mutant of
    beta, A, B, C, D or k by 1e-6 that the referee refuses beyond its own
    error (``_check_against_the_referee``)."""
    lam = sign * 10.0 ** exponent
    row = KINDS[kind]
    zeros = [lam * z + shift * abs(lam) for z in base[:len(row.zeros.split(","))]]
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            sol = row.build(zeros, row.options.get("branch"), 0.0,
                            row.options.get("initial_index"))
    except (KBWaveError, ValueError, FloatingPointError):
        return
    _check_against_the_referee(sol, sol.params)


class TestOrbitDeviation:
    """``orbit_deviation``, verify's referee: every wave, pulses, trig
    waves and constants included, against the orbit through its start."""

    @pytest.mark.parametrize("build", [
        lambda: solitary_double(-3.0, -2.0, -1.0, branch="lower"),
        lambda: periodic_trig(0.5, 1.5, 3.0),
        lambda: solitary_triple(0.0, 2.0),
        lambda: limiting_form("c", (-1.0, 0.0, 1.0 / 3.0)),
        lambda: limiting_form("d", (-3.0, -3.0, -1.0)),
        lambda: case1("dn", 1.0, 1.0, 3.0),
    ])
    def test_every_kind_of_wave_passes(self, build):
        """sech, sin and rational waves match their orbits to rounding, and
        their beta x 1.001 mutants are refused; a constant sits at its rest
        point."""
        sol = build()
        scale = sol.roots.scale()
        assert orbit_deviation(sol).deviation < 1e-14 * scale
        if sol.kernel != "const":
            assert orbit_deviation(replace(sol, beta=sol.beta * 1.001)).deviation >= ORBIT_RTOL * scale

    def test_a_start_in_no_band_is_refused(self):
        """A form whose f(0) lies where F < 0 has no orbit to follow where F
        has only simple zeros, and is held to the rest point of the nearest
        multiple zero where it has one."""
        sol = replace(general_sn2((0.0, 1.0, 2.0, 3.0)), A=5.0)
        assert sol.evaluate(0.0)[0] == 5.0  # above every zero, where F < 0
        with pytest.raises(KBWaveError, match="lies in no band of F > 0: no orbit"):
            orbit_deviation(sol)
        sol = replace(solitary_double(-3.0, -2.0, -1.0), A=0.0)
        assert sol.evaluate(0.0)[0] == 1.0
        assert orbit_deviation(sol).deviation == pytest.approx(3.0)  # its distance from -2

    @pytest.mark.parametrize("sol", [
        periodic_trig(1e-106, 2e-106, 4e-106),
        solitary_triple(-13.813772423450997, -13.813772420838815),
    ])
    def test_waves_narrower_than_the_bound_follow_their_band(self, sol):
        """A wave narrower than 1e-6 max(1, |r|), whose start lies that close
        to its multiple zero, is followed on its own band, and not compared
        with the rest point there, which read its whole width (3.0e-106 and
        2.6e-9): it reads at most a few ulps of its zeros, and its
        beta x 1.001 mutant a share of its width."""
        zeros = sol.roots.values()
        width = max(zeros) - min(zeros)
        assert orbit_deviation(sol).deviation <= 16.0 * np.spacing(max(map(abs, zeros)))
        assert orbit_deviation(replace(sol, beta=sol.beta * 1.001)).deviation > 1e-4 * width

    def test_narrow_pulses_and_trig_waves_pass(self):
        """Seeded widths 10^U(-12, -6) max(1, |r|), with zeros near 0 or up
        to 500 out: no wave is refused, and each reads at most 1e-12 of its
        width, plus the few ulps of its largest zero that its values are
        rounded to."""
        rng = np.random.default_rng(5)
        for i in range(300):
            far = float(rng.uniform(-5.0, 5.0) * 10.0 ** rng.uniform(-3.0, 2.0))
            width = 10.0 ** rng.uniform(-12.0, -6.0) * max(1.0, abs(far))
            lo = far if i % 2 else float(rng.uniform(-3.0, 3.0)) * width
            hi = lo + width
            branch = ("upper", "lower")[i % 4 // 2]
            sol = (periodic_trig(lo, hi, hi + width * rng.uniform(0.1, 3.0), branch=branch),
                   solitary_double(lo, lo + width * rng.uniform(0.1, 0.9), hi, branch=branch),
                   solitary_triple(lo, hi) if i % 4 < 2 else solitary_triple(hi, lo))[i % 3]
            ulp = np.spacing(max(abs(lo), abs(hi)))
            reading = orbit_deviation(sol)
            assert reading.bound == ORBIT_RTOL * sol.roots.scale()
            assert reading.passed, (sol.kind, lo, hi)
            assert reading.deviation <= 1e-12 * width + 16.0 * ulp, (sol.kind, lo, hi, reading)


def _orbit_refuses(sol):
    """Whether the orbit check refuses sol: a reading at its bound or
    beyond, or an orbit it cannot follow."""
    try:
        return not orbit_deviation(sol).passed
    except KBWaveError:
        return True


def _gates_refuse(sol):
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _gates(sol.with_phase(0.0))
    except (KBWaveError, ArithmeticError):
        return True
    return False


@settings(max_examples=300, derandomize=True, deadline=None)
@given(kind=st.sampled_from(sorted(KINDS)),
       base=st.lists(st.floats(-3, 3), min_size=4, max_size=4, unique=True),
       pull=st.none() | st.tuples(st.permutations(range(4)), st.floats(-10, -2),
                                  st.floats(-10, -2)),
       sign=st.sampled_from((-1.0, 1.0)), exponent=st.floats(-2, 2),
       shift=st.just(0.0) | st.floats(-10, 10))
def test_mutants_the_orbit_check_refuses_are_refused(kind, base, pull, sign, exponent, shift):
    """Over the affine images lambda z + a of each family's zeros, with
    |lambda| from 1e-2 to 1e2 and |a| <= 10 |lambda|, and one pair of them
    sometimes pulled 1e-10..1e-2 together (as ``test_construction._zeros``
    does), every wave passes the orbit check and the constructor's gates,
    and every mutant of A, B, C, D, beta or k by 1e-6 or 1e-9 (relative,
    either way) that the orbit check refuses, the gates refuse too."""
    lam = sign * 10.0 ** exponent
    row = KINDS[kind]
    n = len(row.zeros.split(","))
    base = base[:n]
    if pull is not None:
        i, j = [m for m in pull[0] if m < n][:2]
        base[j] = base[i] * (1.0 + 10.0 ** pull[1]) + 10.0 ** pull[2]
    zeros = [lam * z + shift * abs(lam) for z in base]
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            sol = row.build(zeros, row.options.get("branch"), 0.0,
                            row.options.get("initial_index"))
    except (KBWaveError, ValueError, FloatingPointError):
        return
    assert not _orbit_refuses(sol) and not _gates_refuse(sol)
    for mutant in _mutants(sol, (1e-6, 1e-9)):
        if _orbit_refuses(mutant):
            assert _gates_refuse(mutant), mutant


NEAR_HOMOCLINIC_SN2 = general_sn2((79.60548070634992, 99.56422973614917, 99.56423116186201,
                                   103.04837167867333), initial_index=3)


@pytest.mark.parametrize("sol, move", [
    (periodic_trig(-2.0969155128599164, -1.385788345798525, -1.3857883456070763),
     {"beta": 1.0 + 1e-9}),
])
def test_near_homoclinic_mutants_are_refused_by_their_orbit(sol, move):
    """Where a zero lies 1.9e-10 beyond the band of a trig wave, whose
    period is 5.4e5, the stored form loses the width's digits to the
    cancellation of c1 and c2 (each about 5.2e9, c1 + c2 about 2.8), so the
    readings' bound covers a 1e-9 move of beta, which moves the wave by far
    more than the orbit bound.  Two distinct zeros that close make the
    constructor's gates follow the orbit too, and they refuse the mutant
    there; the wave itself passes both."""
    assert not _orbit_refuses(sol) and not _gates_refuse(sol)
    (name, rel), = move.items()
    mutant = _moved(sol, name, getattr(sol, name) * rel)
    zd, ze, ld, le, *_ = _certificate(mutant)
    assert zd <= ze and ld <= le  # the readings alone pass it
    reading = orbit_deviation(mutant)
    assert reading.deviation >= reading.bound
    with pytest.raises(UnresolvedBranch, match="failed the orbit check"):
        _gates(mutant)


@pytest.mark.parametrize("move", [{"modulus": 1.0 - 1e-9}, {"beta": 1.0 + 1e-6}])
def test_near_homoclinic_sn2_mutants_are_refused_by_the_readings(move):
    """Two zeros of an sn^2 wave 1.4e-6 apart (k'^2 = 4.8e-7): a 1e-9 move
    of k moves the image of 1/k^2, and a 1e-6 move of beta moves the
    frequency factor by 2e-6, far beyond the readings' bound, which the
    stored wave meets.  The beta mutant passed the coefficient certificate,
    the sampled gate and the orbit check (1e-6 of the scale is not built to
    see a 1e-6 error)."""
    sol = NEAR_HOMOCLINIC_SN2
    assert not _orbit_refuses(sol) and not _gates_refuse(sol)
    (name, rel), = move.items()
    mutant = _moved(sol, name, getattr(sol, name) * rel)
    zd, ze, ld, le, *_ = _certificate(mutant)
    assert ze < zd or le < ld
    with pytest.raises(UnresolvedBranch, match="failed the certificate"):
        _gates(mutant)


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


def _abs_sn(x, k, kp):
    s, c, d = jacobi(x, k, kp)
    return np.abs(s), np.where(s < 0.0, -1.0, 1.0) * c * d  # right derivative at the kink


ELLIPTIC_PRESETS = ("fig-case1b-k05", "fig-case2a", "fig-case2b", "fig-case2bc-k1",
                    "fig-case2e", "fig-case2f", "fig-case2f-k1")
WIDE_FOUR = (-2.3, -0.7, 1.1, 4.6)


MUTATION_BASES = {
    **{name: build_preset(name)[0] for name in ELLIPTIC_PRESETS},
    **{f"general_sn2-f{i}": general_sn2(WIDE_FOUR, initial_index=i) for i in (1, 2, 3, 4)},
}


def _read_as_refused(sol):
    """Whether the orbit check reads sol at its bound or beyond."""
    reading = orbit_deviation(sol)
    return reading.deviation >= reading.bound


class TestOrbitCheck:
    """The quadrature orbit check, ``verify.orbit_deviation``: no false
    rejections, every mutation caught."""

    @pytest.mark.parametrize("f1, f2, f3", [
        (1.504592762678163, 1.8554198448069474, 1.8844673057094008),
        (1.8056260976959813, 1.807608241860267, 2.062353133613742),
        (3.0019257689350525, 4.294170006228567, 4.32479493058786),
        (-1.2081772252775136, -1.2077006995676074, 4.2821117592733025),
    ])
    def test_case1_dn_accepted(self, f1, f2, f3):
        # a fixed-step RK4 check rejected these; DOP853 agrees with them
        sol = case1("dn", f1, f2, f3)
        assert orbit_deviation(sol).deviation < 1e-12 * sol.roots.scale()
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
        assert orbit_deviation(sol).deviation < 1e-10 * sol.roots.scale()

    def test_snapped_pulse_between_close_zeros_refused(self):
        """Four simple zeros, two of them +-3.37e-5: inv_cn's k'^2 is
        -2.0e-10, so it has no real wave here.  A snap of k^2 = 1 + 2.0e-10
        to 1 once built a sech pulse whose tails sit at 0, between those
        zeros, where F < 0."""
        with pytest.raises(Infeasible, match=r"complementary modulus\^2 = -2\.00004e-10$"):
            case2("inv_cn", 1.3418840482444512, -3.3708275678834276e-05, -10.651139653823092)

    def test_unresolved_quadrature_is_loud(self, monkeypatch):
        """Without the graded panels the near-homoclinic band is not resolved,
        and the check says so rather than passing or failing on noise."""
        from kbwave import orbit

        sol = case2("inv_sn", -3.1933706513223035, 3.1560461282975467,
                    0.0006870581931064379)
        monkeypatch.setattr(orbit, "_halvings", lambda depth: [])
        with pytest.raises(KBWaveError, match="did not converge"):
            orbit_deviation(sol)

    def test_triple_edge_pulses_follow_their_orbit(self):
        """A pulse that meets a triple zero: its panels run in tan(theta), on
        which the orbit's xi is linear, so every seeded draw matches its
        orbit to rounding and a 1e-3 error in beta is refused."""
        rng = np.random.default_rng(29)
        for f_triple, f_simple in rng.uniform(-5.0, 5.0, (200, 2)):
            sol = solitary_triple(f_triple, f_simple)
            assert orbit_deviation(sol).deviation < 1e-12 * sol.roots.scale()
            assert _read_as_refused(replace(sol, beta=sol.beta * 1.001))

    def test_merged_zeros_tiny_band_accepted(self):
        # f2 - f1 = 9e-10, once merged into two doubles by case1: the four
        # zeros stay simple, and the wave, 1e-9 wide, follows its tiny band
        sol = case1("dn", -3.5693995947304504, -3.5693995938207603, -0.6228534466259203)
        assert sol.roots.multiplicities() == (1, 1, 1, 1)
        assert orbit_deviation(sol).deviation < 1e-9

    @pytest.mark.parametrize("name", MUTATION_BASES)
    def test_bases_match_to_rounding(self, name):
        # fig-case2bc-k1 starts 3e-14 inside its band edge: a start phase from
        # f(xi0) alone would be off by the square root of that
        sol = MUTATION_BASES[name]
        assert orbit_deviation(sol).deviation < 1e-10 * sol.roots.scale()

    @pytest.mark.parametrize("name", MUTATION_BASES)
    def test_wrong_beta_rejected(self, name):
        sol = MUTATION_BASES[name]
        assert _read_as_refused(replace(sol, beta=sol.beta * 1.001))

    @pytest.mark.parametrize("name", [n for n, s in MUTATION_BASES.items() if s.modulus < 1.0])
    def test_wrong_modulus_rejected(self, name):
        sol = MUTATION_BASES[name]
        k = sol.modulus + 0.01
        assert _read_as_refused(replace(sol, modulus=k, comodulus=math.sqrt((1 - k) * (1 + k))))

    @pytest.mark.parametrize("idx", [2, 3])
    def test_printed_adjacent_pairing_rejected(self, idx):
        """The printed sn^2 coefficients are refused by the orbit check, and
        by the constructor's gates."""
        roots = (0.0, 1.0, 2.0, 3.0)
        printed = replace(general_sn2(roots, initial_index=idx),
                          **printed_sn2(roots, idx))
        assert _read_as_refused(printed)
        with pytest.raises(UnresolvedBranch):
            _gates(printed)

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
        assert _read_as_refused(kinked)

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


# zeros 1e6 and 1e6 + 1, and the pair 1e6 + 2 +- 1e-5 i: -F's float
# coefficients once put the pair on the axis
NEAR_PAIR = Params(Fraction(-4000005, 4), Fraction(-20000050000017500000001, 40000000000),
                   Fraction(40000150000160000040002000001, 80000000000),
                   Fraction(-10000050000080000040001000001, 80000))


def test_oracle_period_beside_a_pair_near_the_band():
    """The band [1e6, 1e6 + 1] beside the pair 1e6 + 2 +- 1e-5 i: its period
    is mpmath's 4 int_0^(pi/2) dtheta / sqrt(Q) with f = 1e6 + sin^2(theta),
    to rounding, and the oracle comes back to f0 after each of ten periods
    (the pair made real once read 3.0e-11 off, and drifted 9.3e-10)."""
    import mpmath

    with mpmath.workdps(30):
        want = 4 * mpmath.quad(lambda t: 1 / mpmath.sqrt((mpmath.sin(t) ** 2 - 2) ** 2
                                                         + mpmath.mpf(10) ** -10),
                               [0, mpmath.pi / 4, mpmath.pi / 2])
    rm = roots_of_F(NEAR_PAIR)
    e, o, pair = orbit_band(NEAR_PAIR, rm, 1000000.5, math.inf)
    assert Orbit(e, o, pair, 1000000.5).period == pytest.approx(float(want), rel=4e-16)
    T = float(want)
    prof = oracle_integrate(NEAR_PAIR, 1000000.5, 1, 10 * T, T)
    assert np.max(np.abs(prof.f - 1000000.5)) <= 2 * np.spacing(1e6)


def test_oracle_refuses_an_orbit_its_quadrature_does_not_resolve():
    """Zeros +-1 beside the pair +-i/16, whose singularity the panels are not
    graded toward: the quadrature's bound, 1.9e-4, is above 0.1 of
    ORBIT_RTOL * scale, orbit_deviation's rule, so the oracle refuses
    rather than print samples 7.7e-7 off the orbit."""
    p = Params(Fraction(0), Fraction(255, 1024), Fraction(0), Fraction(1, 2048))
    with pytest.raises(KBWaveError, match="the orbit quadrature did not converge: its error "
                                          "moves f by up to 1.946e-04, against the bound "
                                          "1.000e-07"):
        oracle_integrate(p, 0.0, 1, 2.0, 0.5)


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

    @pytest.mark.parametrize("zeros, f0, sign, length, sol", [
        # 2^-50 below the double zero -2: the pulse turns at -3 near xi = 35.4
        (((-3, 1), (-2, 2), (-1, 1)), -2.0 - 2.0 ** -50, -1, 40.0,
         lambda: solitary_double(-3, -2, -1, "lower", xi0=math.acosh(2.0 ** 50))),
        # 2^-50 above the triple zero -2: the pulse turns at -1 near xi = 2^26
        (((-2, 3), (-1, 1)), -2.0 + 2.0 ** -50, 1, 1.5e8,
         lambda: solitary_triple(-2.0, -1.0, xi0=2.0 * math.sqrt(2.0 ** 50 - 1.0))),
    ], ids=["double", "triple"])
    def test_start_within_the_pulse_cutoff(self, zeros, f0, sign, length, sol):
        """A start nearer its multiple zero than where the panels stop: the
        line that xi follows there places it, and the orbit leaves along the
        pulse."""
        p = params_from_roots(RootMultiset(tuple((Fraction(v), m) for v, m in zeros)))
        prof = oracle_integrate(p, f0, sign, length, h=length / 1000)
        sol = sol()
        assert np.max(np.abs(prof.f - sol.profile(prof.xi)[0])) < 1e-13 * sol.roots.scale()
        assert prof.events == pytest.approx((sol.xi0,), rel=1e-13)

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

    def test_samples_do_not_depend_on_h(self):
        """Each sample is the orbit's own value at its xi, whatever the
        spacing: at h = 0.02 and 0.01, through the turning point, every
        sample lies within 1e-13 * scale of the closed form."""
        sol = solitary_double(-3, -2, -1, branch="upper")
        xi0 = -3.0
        f0 = sol.evaluate(xi0)[0]
        for h in (0.02, 0.01):
            prof = oracle_integrate(P_EXACT, f0, +1, 9.0, h=h)
            exact = sol.profile(xi0 + prof.xi)[0]
            assert np.max(np.abs(prof.f - exact)) < 1e-13 * sol.roots.scale()

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

    @pytest.mark.parametrize("h", [12.0, 0.5])
    def test_coarse_h_samples_the_orbit(self, h):
        """h is the grid's spacing, not a step: from -2.9 in the band
        [-3, -2], h = 12 gives the start and the orbit's value at xi = 12,
        and h = 0.5 each half unit, all on the lower pulse."""
        prof = oracle_integrate(P_EXACT, -2.9, 1, 12.0, h=h)
        sol = solitary_double(-3, -2, -1, "lower", xi0=-math.acosh(1 / 0.9))
        assert len(prof.f) == round(12.0 / h) + 1
        assert np.max(np.abs(prof.f - sol.profile(prof.xi)[0])) < 1e-14

    @pytest.mark.parametrize("zeros, at", [
        # a complex pair beside the zeros -z and z, from the middle and from z
        ((), 0.0), ((), 1.0),
        # a pulse on the double zero 0 between them, from z
        (((0, 2),), 1.0),
    ])
    def test_g_finite_at_the_largest_zeros(self, zeros, at):
        """z = 2^256 (1 - 2^-53), the double below 2^256, is the largest
        zero whose z^4, F's constant term and the bound of the check on
        F(f0), fits a float: the oracle runs there with no overflow, and
        |g| = |c f + (3/4) f^2 - d1| stays near 1e154.  At 2^256 the params
        are refused."""
        for z in (math.nextafter(2.0 ** 256, 0.0), 2.0 ** 256):
            exact = Fraction(z)
            if zeros:
                p = params_from_roots(RootMultiset(((-exact, 1), *zeros, (exact, 1))))
            else:  # -F = f^4 - z^4 = (f^2 - z^2)(f^2 + z^2)
                p = Params(0, 0, 0, exact ** 4 / 8)
            if z == 2.0 ** 256:
                with pytest.raises(ValueError, match="does not fit a float"):
                    oracle_integrate(p, at * z, -1, 1e-76, h=1e-78)
                continue
            with np.errstate(all="raise"):
                prof = oracle_integrate(p, at * z, -1, 1e-76, h=1e-78)
            assert np.all(np.isfinite(prof.g)) and 1e153 < np.max(np.abs(prof.g)) < 2e154
            assert np.ptp(prof.f) > 0.99 * z  # across the band

    @pytest.mark.parametrize("f0", [-1.0, -1.0 + 1e-13])
    def test_start_at_a_zero_takes_the_band_below(self, f0):
        """A start at the zero -1, or just past it (F(f0) ~ -2e-13, within
        rounding), is in no band's interior: the band check skips that zero
        and the orbit runs down through [-2, -1]."""
        prof = oracle_integrate(P_CASE1A, f0, -1, 1.0, h=1e-3)
        assert prof.f.min() < -1.1


def _profile_sha256(prof):
    h = hashlib.sha256()
    for a in (prof.xi, prof.f, prof.f_prime, prof.g, np.asarray(prof.events, dtype=float)):
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


# sha256 of (xi, f, f', g, events) at h = 1e-4, from the quadrature in the
# band's angle: (start, sign, length) -> digest; "readme" is the README's
# oracle input
ORACLE_GOLDEN = {
    ("readme", 1, 0.5): "85f75443d869e136484e8460f133b1410e3f35be0077634953f7fe37ce582ace",
    ("readme", 1, 12.0): "0476787673a4747b2607feb6b6e11388f8a8f3b462e9cec8246a3661b5169894",
    ("fig-case1a", -1, 0.5): "a4067c6f1c862cd1b85e6317474d38b3f0d0c7e0d4ba802f04d17c6167699bbe",
    ("fig-case1a", -1, 12.0): "0ceba350304738bb224ff06611a5d0a946c584243a23f9d97eb724e55f0ed868",
    ("fig-case1a", 1, 0.5): "a4067c6f1c862cd1b85e6317474d38b3f0d0c7e0d4ba802f04d17c6167699bbe",
    ("fig-case1a", 1, 12.0): "0ceba350304738bb224ff06611a5d0a946c584243a23f9d97eb724e55f0ed868",
    ("fig-case1b-k05", -1, 0.5): "d7e2dd3612e78dfe2cb86ea617c49b58d94ca6b281397251a51b019e58831de6",
    ("fig-case1b-k05", -1, 12.0): "b26c5847523cec5e3ab6af2a065afed995f43c1c123ac186cb51c592b55c8cfd",
    ("fig-case1b-k05", 1, 0.5): "d7e2dd3612e78dfe2cb86ea617c49b58d94ca6b281397251a51b019e58831de6",
    ("fig-case1b-k05", 1, 12.0): "b26c5847523cec5e3ab6af2a065afed995f43c1c123ac186cb51c592b55c8cfd",
    ("fig-case2a", -1, 0.5): "2fc2f68d7bb5b1c9fc742d4fd61b132fa03daf1a1a386e3d6f37f6061458ee65",
    ("fig-case2a", -1, 12.0): "84dae830beb352141c27027a0bd04a07987c9791e62cde2ab88be59ff19ec157",
    ("fig-case2a", 1, 0.5): "f7af2d257aeacbb14a433d83577f2cc25ff7a8a9c3d9fba85be5125c171b6de0",
    ("fig-case2a", 1, 12.0): "306097ec0443eb0e9d91bf86b8927d1dbea43cf041f3df625f818770a3c2f155",
    ("fig-case2b", -1, 0.5): "30bce013553ed290e7109e315e910c4d07cbd2bfd9c44dcbc2ad12d213ac70ae",
    ("fig-case2b", -1, 12.0): "8892b3a4700319eb4a5ee289f3de72224333aaaeca9531df07f4de400167ed8f",
    ("fig-case2b", 1, 0.5): "30bce013553ed290e7109e315e910c4d07cbd2bfd9c44dcbc2ad12d213ac70ae",
    ("fig-case2b", 1, 12.0): "8892b3a4700319eb4a5ee289f3de72224333aaaeca9531df07f4de400167ed8f",
    ("fig-case2bc-k1", -1, 0.5): "84606004610bde46805fb7c0719daeae277098be8229b40b9c00632575ce224c",
    ("fig-case2bc-k1", -1, 12.0): "16fbc95315db39d4adb4e3a06b0eafbf8373b0f81fec8f9562369ebdd922870f",
    ("fig-case2bc-k1", 1, 0.5): "84606004610bde46805fb7c0719daeae277098be8229b40b9c00632575ce224c",
    ("fig-case2bc-k1", 1, 12.0): "16fbc95315db39d4adb4e3a06b0eafbf8373b0f81fec8f9562369ebdd922870f",
    ("fig-case2e", -1, 0.5): "5d14b9b872df218caa7c594265d4cc7b018b0bd455853a927b70d035de34fd7e",
    ("fig-case2e", -1, 12.0): "e0360383904d49794da82b9c29dc4ca6ba13ce0370a31f5ed6d4a7a313df67fe",
    ("fig-case2e", 1, 0.5): "0ce0354315eb9c9cfd8833a61ba989b95145d2b411a59385bb2bbe58d302cdc3",
    ("fig-case2e", 1, 12.0): "8e6ed80ca0fd16358352c99ea438680ff5f8f207555507bca3da5681188cbd50",
    ("fig-case2f", -1, 0.5): "2b4a0b2132ed4eafa715732b4eb7851e3292ff3e2c52841acdae9c992b9edce4",
    ("fig-case2f", -1, 12.0): "ee394a8b4c6abfdd8c2c2bf8872f48ee876e8d57110798a7714e5efac123184f",
    ("fig-case2f", 1, 0.5): "2b4a0b2132ed4eafa715732b4eb7851e3292ff3e2c52841acdae9c992b9edce4",
    ("fig-case2f", 1, 12.0): "e506ffb1dbe6d833a53df9a2cdf8f07888a00c0bf032638d3fc821b1297ecd26",
    ("fig-case2f-k1", -1, 0.5): "a1481a8c82ce62be6c127ca929434fad0b472ac78454a29f36a17e2f08b96b96",
    ("fig-case2f-k1", -1, 12.0): "7678f212225c01dba12817764fd65b2ec32713991ad62b5cd307f2b509cf6635",
    ("fig-case2f-k1", 1, 0.5): "a1481a8c82ce62be6c127ca929434fad0b472ac78454a29f36a17e2f08b96b96",
    ("fig-case2f-k1", 1, 12.0): "7678f212225c01dba12817764fd65b2ec32713991ad62b5cd307f2b509cf6635",
}


class TestOracleGolden:
    """The oracle's output is pinned bit for bit: the README input, and
    each preset's f(0) with both signs, at lengths 0.5 and 12.  A preset's
    params are those of its wave's zeros, each the rational it is: float
    params mean the F they spell, in which fig-case2e's double zero is two
    simple ones 1.6e-8 apart."""

    @pytest.mark.parametrize("start,sign,length", sorted(ORACLE_GOLDEN))
    def test_profile_unchanged(self, start, sign, length):
        if start == "readme":
            p, f0 = P_CASE1A, -2.9
        else:
            sol, _ = build_preset(start)
            p = params_from_roots(RootMultiset(
                tuple((Fraction(v), m) for v, m in sol.roots.entries)))
            f0 = float(sol.profile(np.array([0.0]))[0][0])
        prof = oracle_integrate(p, f0, sign, length)
        assert _profile_sha256(prof) == ORACLE_GOLDEN[(start, sign, length)]


def _params_of(real, pair):
    """Exact Params of F = -(f - r1)(f - r2)((f - a)^2 + b^2), pair = (a, b)."""
    (r1, r2), (a, b) = real, pair
    s, pr, m = r1 + r2, r1 * r2, a * a + b * b
    c3, c2, c1, c0 = -(s + 2 * a), pr + 2 * a * s + m, -(s * m + 2 * a * pr), pr * m
    c = c3 / 4
    return Params(c, c * c - c2 / 4, -c1 / 8, -c0 / 8)


def _dop853_hops(p, prof, rtol):
    """f at each sample but the first by DOP853 on f'' = F'(f)/2 (the
    integrator of _dop853_deviation) from the
    sample before, (f, f') there: every hop over h at once."""
    from scipy.integrate import solve_ivp

    pf, n = p.as_floats(), len(prof.f) - 1

    def rhs(_, y):
        return np.concatenate((y[n:], 0.5 * eval_F_deriv(pf, y[:n])))

    y0 = np.concatenate((prof.f[:-1], prof.f_prime[:-1]))
    ref = solve_ivp(rhs, (0.0, prof.h), y0, method="DOP853", rtol=rtol,
                    atol=rtol * roots_of_F(p).scale())
    return ref.y[:n, -1]


# (kind, band, start): both bands of four simple zeros, both pulses of a
# double zero between two simple ones, two simple zeros beside a complex
# pair, and a triple zero above and below a simple one
ORBITS = [(kind, band, start) for kind, count in (("four", 2), ("double", 2), ("pair", 1),
                                                  ("triple", 2))
          for band in range(count)
          for start in ("inside", "simple", "multiple")[:2 if kind in ("four", "pair") else 3]]


def _orbit_band(kind, band, ints):
    """(p, roots, lower edge, upper edge) of an ORBITS band, its zeros the
    eighths ints / 8."""
    z = sorted(Fraction(k, 8) for k in ints)
    if kind == "pair":
        p = _params_of(z[:2], (z[2], Fraction(1, 8) + abs(z[3])))
    else:
        mults = {"four": (1, 1, 1, 1), "double": (1, 2, 1), "triple": ((3, 1), (1, 3))[band]}[kind]
        p = params_from_roots(RootMultiset(tuple((v, m) for v, m in zip(z, mults))))
    rm = roots_of_F(p)
    return (p, rm, *bands(p, rm)[band % len(bands(p, rm))])


@pytest.mark.parametrize("kind, band, start", ORBITS)
@settings(max_examples=5, derandomize=True, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(ints=st.lists(st.integers(-24, 24), min_size=4, max_size=4, unique=True),
       frac=st.floats(0.02, 0.98), sign=st.sampled_from([1, -1]), turns=st.floats(0.2, 3.0))
def test_orbit_matches_dop853(kind, band, start, ints, frac, sign, turns):
    """The oracle against DOP853 (rtol 1e-13) within 1e-13 * scale plus
    DOP853's own error, measured against its run at rtol 1e-11, from a start
    inside the band, at its simple edge or at its multiple one, both signs.
    DOP853 runs from each sample to the next: over a few turns its own
    rounding, not bounded by that measure, exceeds the oracle's error, while
    over one step of the grid it stays far below 1e-13."""
    p, rm, lo, hi = _orbit_band(kind, band, ints)
    simple, other = (lo, hi) if lo.mult == 1 and (hi.mult > 1 or frac < 0.5) else (hi, lo)
    f0 = {"inside": float(lo.value + frac * (hi.value - lo.value)), "simple": float(simple.value),
          "multiple": float(other.value)}[start]
    # a quarter turn near the simple edge takes about sqrt(width / |f''|)
    length = turns * 4.0 * math.sqrt(float(hi.value - lo.value) / abs(simple.rate))
    prof = oracle_integrate(p, f0, sign, length, h=length / 200)
    assert prof.f_prime[0] ** 2 == pytest.approx(max(float(eval_F(p.as_floats(), f0)), 0.0),
                                                 abs=1e-13 * rm.scale() ** 4)
    fine, coarse = (_dop853_hops(p, prof, rtol) for rtol in (1e-13, 1e-11))
    own = np.abs(fine - coarse)
    assert np.all(np.abs(prof.f[1:] - fine) <= 1e-13 * rm.scale() + own), (p, f0, sign)


def _anchored_orbit(kind, band, ints):
    """An ORBITS band's orbit from its turn at e, where xi = 0, so that a
    sample's xi is the panels' own, and the zeros' scale."""
    p, rm, lo, hi = _orbit_band(kind, band, ints)
    picked = orbit_band(p, rm, float((lo.value + hi.value) / 2), math.inf)
    orb = Orbit(*picked, picked[0])
    assert orb.xi0 == 0.0
    return orb, rm.scale()


def _newton_f(orb, xi):
    """f of the orbit from its turn at e at 0 <= xi <= before[-1], each
    sample by three Newton steps on its panel's series of xi from a linear
    guess: the samples before the inverse series, their reference."""
    coeffs = orb.dxi @ orbit._TO_COEFFS.T
    integrals = coeffs @ orbit._INTEGRAL.T
    panel = np.minimum(np.searchsorted(orb.before, xi, side="right") - 1, len(orb.half) - 1)
    f = np.empty_like(xi)
    for j in np.unique(panel):
        at = panel == j
        target = (xi[at] - orb.before[j]) / orb.half[j]
        u = np.interp(target, orb.within[j] / orb.half[j], orbit._LOBATTO)
        for _ in range(3):
            u -= (chebval(u, integrals[j]) - target) / chebval(u, coeffs[j])
            np.clip(u, -1.0, 1.0, out=u)
        sin2, _ = orb._squares(orb.lo[j] + orb.step[j] * (u + 1.0), j >= orb.near_e)
        f[at] = orb.e + orb.w * sin2
    return f


PANEL_ORBITS = sorted({(kind, band) for kind, band, _ in ORBITS})


@pytest.mark.parametrize("kind, band", PANEL_ORBITS)
@settings(max_examples=5, derandomize=True, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(ints=st.lists(st.integers(-24, 24), min_size=4, max_size=4, unique=True))
def test_inverse_series_agree_with_newton(kind, band, ints):
    """Samples read off the panels' inverse series agree with Newton on the
    panels' series of xi to 16 ulps of the zeros' scale (11 at most over
    2100 seeded orbits of every band kind), over half a period or the
    pulse's panels."""
    orb, scale = _anchored_orbit(kind, band, ints)
    xi = np.linspace(0.0, orb.before[-1], 2001)
    f, _, _ = orb.sample(xi, 1.0)
    assert np.max(np.abs(f - _newton_f(orb, xi))) <= 16 * np.spacing(scale)


@pytest.mark.parametrize("kind, band", PANEL_ORBITS)
@settings(max_examples=5, derandomize=True, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(ints=st.lists(st.integers(-24, 24), min_size=4, max_size=4, unique=True))
def test_samples_agree_across_panel_edges(kind, band, ints):
    """Samples three ulps either side of each panel's end in xi, read off
    two panels' inverse series (past a pulse's last panel, off its line;
    past half a period, off the first panel again), agree to 4 ulps of the
    zeros' scale beyond what f' moves f over those six ulps."""
    orb, scale = _anchored_orbit(kind, band, ints)
    for end in orb.before[1:]:
        xi = [end]
        for _ in range(3):
            xi = [math.nextafter(xi[0], -math.inf), *xi, math.nextafter(xi[-1], math.inf)]
        f, fp, _ = orb.sample(np.array(xi), 1.0)
        moved = np.max(np.abs(fp)) * (xi[-1] - xi[0])
        assert np.ptp(f) <= 4 * np.spacing(scale) + moved, (kind, band, ints, end, f)


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
