"""Pseudo-spectral evolution: tendencies, permanence, conservation."""

import math

import numpy as np
import pytest

from kbwave import evolution
from kbwave.errors import BlowUp
from kbwave.evolution import (
    EvolutionState,
    evolve,
    kb_rhs,
    linearized_symbol,
    stability_limit,
    state_from_callable,
)
from kbwave.presets import build_preset

L = 40.0 * np.pi


def case1a_state(n=1024):
    sol, params = build_preset("fig-case1a")
    return sol, params, state_from_callable(lambda xi: sol.profile(xi)[0], params, L, n)


def bumped_case1a_state(n):
    """fig-case1a with 0.1 exp(-((x - 0.3 L)/2)^2) added to u and half of it
    to v: no longer a traveling wave, so conserved densities mean something."""
    _, _, state = case1a_state(n)
    bump = 0.1 * np.exp(-((state.x - 0.3 * L) / 2.0) ** 2)
    return EvolutionState(x=state.x, u=state.u + bump, v=state.v + 0.5 * bump,
                          t=0.0, L=L)


def test_spectral_derivative_of_single_mode():
    n = 256
    x = np.arange(n) * (L / n)
    u = np.sin(2 * np.pi * x / L)
    state = EvolutionState(x=x, u=u, v=np.zeros(n), t=0.0, L=L)
    du, _ = kb_rhs(state)
    # u_t = d/dx(3/4 u^2 + v); with v = 0 check the derivative of u alone via
    # the mean-zero quadratic flux identity at tiny amplitude instead: easier
    # to check the raw derivative operator directly
    k = 2 * np.pi / L
    uh = np.fft.rfft(u)
    kk = 2 * np.pi / L * np.fft.rfftfreq(n, d=1.0 / n)
    ux = np.fft.irfft(1j * kk * uh, n)
    assert np.max(np.abs(ux - k * np.cos(k * x))) < 1e-12


def test_constant_state_is_fixed():
    n = 128
    x = np.arange(n) * (L / n)
    state = EvolutionState(x=x, u=np.full(n, -2.0), v=np.full(n, -0.75), t=0.0, L=L)
    du, dv = kb_rhs(state)
    assert np.max(np.abs(du)) < 1e-14
    assert np.max(np.abs(dv)) < 1e-14
    out = evolve(state, 0.01, 1.0)
    assert np.max(np.abs(out.u + 2.0)) < 1e-12
    assert np.max(np.abs(out.v + 0.75)) < 1e-12


def test_traveling_ansatz_rhs():
    """For an exact traveling pair, the tendency is -c times the x-derivative."""
    sol, params, state = case1a_state()
    du, dv = kb_rhs(state)
    kk = 2 * np.pi / L * np.fft.rfftfreq(state.n, d=1.0 / state.n)
    ux = np.fft.irfft(1j * kk * np.fft.rfft(state.u), state.n)
    vx = np.fft.irfft(1j * kk * np.fft.rfft(state.v), state.n)
    c = params.c
    assert np.max(np.abs(du + c * ux)) < 1e-6
    assert np.max(np.abs(dv + c * vx)) < 1e-6


def test_dispersion_relation_single_mode():
    """kb_rhs on a linearized eigenmode matches the 2x2 eigenvalue oracle."""
    n = 256
    x = np.arange(n) * (L / n)
    u0, v0 = -2.0, -0.75
    m = 7
    k = 2 * np.pi * m / L
    M = np.array([[1.5 * u0, 1.0], [v0 + k * k / 4.0, 0.5 * u0]])
    lam, vecs = np.linalg.eig(M)
    # oracle eigenvalues agree with the closed-form symbol
    lp, lm_ = linearized_symbol(k, u0, v0)
    assert sorted(lam.real) == pytest.approx(sorted((lp, lm_)), rel=1e-12)
    eps = 1e-6
    vec = vecs[:, 0]
    phase = np.exp(1j * k * x)
    state = EvolutionState(
        x=x,
        u=u0 + eps * np.real(vec[0] * phase),
        v=v0 + eps * np.real(vec[1] * phase),
        t=0.0,
        L=L,
    )
    du, dv = kb_rhs(state)
    # project the tendency onto the excited mode: the quadratic contamination
    # lives at wavenumbers 0 and 2k, and the broadband FFT noise of the O(1)
    # background never aligns with mode m
    project = lambda a: 2.0 / n * np.sum(a * np.exp(-1j * k * x))
    want = 1j * k * lam[0]
    assert abs(project(du) / eps - want * vec[0]) < 1e-8
    assert abs(project(dv) / eps - want * vec[1]) < 1e-8
    # neutral stability: the growth rate (real part of the time eigenvalue)
    # vanishes
    assert abs(np.real(1j * k * lam[0])) < 1e-12


def test_soliton_permanence():
    sol, params, state = case1a_state(n=1024)
    T = 1.0
    final = evolve(state, 1e-3, T)
    exact = sol.profile(final.x - L / 2 - params.c * T)[0]
    assert np.max(np.abs(final.u - exact)) < 1e-3
    assert abs(np.mean(final.u) - np.mean(state.u)) < 1e-10


def test_time_reversal():
    _, _, state = case1a_state(n=512)
    fwd = evolve(state, 1e-3, 0.25)
    back = evolve(fwd, -1e-3, -0.25)
    assert np.max(np.abs(back.u - state.u)) < 1e-6
    assert np.max(np.abs(back.v - state.v)) < 1e-6


def test_grid_refinement_reduces_error():
    sol, params, _ = case1a_state()
    T, dt = 0.25, 5e-3
    errs = {}
    for n in (256, 512):
        state = state_from_callable(lambda xi: sol.profile(xi)[0], params, L, n)
        final = evolve(state, dt, T)
        exact = sol.profile(final.x - L / 2 - params.c * T)[0]
        errs[n] = np.max(np.abs(final.u - exact))
    assert errs[256] / errs[512] >= 4.0


def test_stability_limit_enforced():
    _, _, state = case1a_state(n=512)
    dt_max = stability_limit(state)
    with pytest.raises(ValueError, match="stability"):
        evolve(state, 2.0 * dt_max, 10.0 * dt_max)


@pytest.mark.parametrize("dt, T, message", [
    (1e-300, 0.01, "takes 1e\\+298 steps, more than MAX_STEPS"),
    (1e-3, math.inf, "T must be finite, got inf"),
    (math.nan, 1.0, "dt must be finite, got nan"),
    (0.0, 1.0, "dt must be nonzero"),
])
def test_run_refused_before_stepping(dt, T, message):
    """A run that cannot finish, or has no step count, is refused before
    its first step: 1e298 steps used to hang and T = inf to overflow."""
    _, _, state = case1a_state(n=64)
    with pytest.raises(ValueError, match=message):
        evolve(state, dt, T, enforce_stability=False)


def test_fractional_step_count_refused():
    _, _, state = case1a_state(n=64)
    with pytest.raises(ValueError, match="is not a whole number of steps of dt"):
        evolve(state, 3e-4, 1e-3)


def test_step_count():
    assert evolution.step_count(1.0, 0.3) == 4
    assert evolution.step_count(-0.05, 0.1) == 1
    assert evolution.step_count(0.05, -0.01) == 5
    assert evolution.step_count(float(evolution.MAX_STEPS), 1.0) == evolution.MAX_STEPS
    with pytest.raises(ValueError, match="more than MAX_STEPS"):
        evolution.step_count(float(evolution.MAX_STEPS) + 1.0, 1.0)
    with pytest.raises(ValueError, match="T must be nonzero"):
        evolution.step_count(0.0, 1.0)
    with pytest.raises(ValueError, match="T must be finite, got -inf"):
        evolution.step_count(-math.inf, 1.0)


def test_blow_up_detected_when_unchecked():
    _, _, state = case1a_state(n=512)
    dt = 4.0 * stability_limit(state)
    with pytest.raises(BlowUp) as err:
        evolve(state, dt, 400 * dt, enforce_stability=False)
    assert err.value.t is not None


def test_power_of_two_required():
    x = np.arange(100) * (L / 100)
    with pytest.raises(ValueError, match="power of two"):
        EvolutionState(x=x, u=np.zeros(100), v=np.zeros(100), t=0.0, L=L)


@pytest.mark.filterwarnings("error")
def test_grid_too_fine_refused_before_sampling():
    """A top wavenumber pi n / L above MAX_WAVENUMBER is refused before the
    profile is sampled: L = 1e-300 used to overflow k^2 in stability_limit.
    At the limit itself the operators, the limit and a step are finite."""
    n = 64
    edge = math.pi * n / evolution.MAX_WAVENUMBER * (1.0 + 1e-15)
    sampled = []

    def constant(xi):
        sampled.append(xi)
        return np.full_like(xi, -2.0)

    _, params = build_preset("fig-case1a")
    for length in (1e-300, edge * (1.0 - 1e-14)):
        with pytest.raises(ValueError, match=f"a grid of n = 64 points on L = {length} "
                                             "is too fine"):
            state_from_callable(constant, params, length, n)
    with pytest.raises(ValueError, match="n = 0 must be a power of two"):
        state_from_callable(constant, params, L, 0)
    assert sampled == []
    state = state_from_callable(constant, params, edge, n)
    dt = stability_limit(state)
    assert 0.0 < dt and np.all(evolve(state, dt, dt).u == -2.0)


def _rhs_eleven_ffts(u, v, n, mask, ik, ik3):
    """The tendencies as eleven separate FFTs, one field at a time: the
    reference the batched ``_rhs_arrays`` must equal bit for bit."""
    uh = np.fft.rfft(u)
    vh = np.fft.rfft(v)
    ud = np.fft.irfft(uh * mask, n)
    vd = np.fft.irfft(vh * mask, n)
    uxd = np.fft.irfft(ik * uh * mask, n)
    vxd = np.fft.irfft(ik * vh * mask, n)
    flux_h = np.fft.rfft(0.75 * ud * ud) * mask + vh
    du = np.fft.irfft(ik * flux_h, n)
    uxxx = np.fft.irfft(ik3 * uh, n)
    quad_h = np.fft.rfft(vd * uxd + 0.5 * ud * vxd) * mask
    dv = -0.25 * uxxx + np.fft.irfft(quad_h, n)
    return du, dv


def _states():
    rng = np.random.default_rng(7)
    for n, length in ((8, 1.0), (64, 10.0), (1024, L)):
        yield n, length, rng.standard_normal(n), rng.standard_normal(n)
    for name in ("fig-case1a", "fig-case1b-k05"):
        sol, params = build_preset(name)
        st = state_from_callable(lambda xi: sol.profile(xi)[0], params, L, 1024)
        yield st.n, st.L, st.u, st.v


@pytest.mark.parametrize("n,length,u,v", list(_states()))
def test_batched_ffts_equal_the_eleven_fft_formula(n, length, u, v):
    ops = evolution._operators(n, length)
    got = evolution._rhs_arrays(u, v, n, *ops)
    want = _rhs_eleven_ffts(u, v, n, *ops)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_four_ffts_per_stage(monkeypatch):
    calls = []
    for name in ("rfft", "irfft"):
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, fn=fn, **k: calls.append(1) or fn(*a, **k))
    _, _, state = case1a_state(64)
    kb_rhs(state)
    assert len(calls) == 4


def _classic_rk4(state, dt, steps):
    """Classic RK4 on ``kb_rhs`` in physical space: the reference the
    integrating-factor ``evolve`` must agree with to its time error."""

    def rhs(u, v):
        return kb_rhs(EvolutionState(x=state.x, u=u, v=v, t=0.0, L=state.L))

    u, v = state.u, state.v
    for _ in range(steps):
        du1, dv1 = rhs(u, v)
        du2, dv2 = rhs(u + 0.5 * dt * du1, v + 0.5 * dt * dv1)
        du3, dv3 = rhs(u + 0.5 * dt * du2, v + 0.5 * dt * dv2)
        du4, dv4 = rhs(u + dt * du3, v + dt * dv3)
        u = u + (dt / 6.0) * (du1 + 2 * du2 + 2 * du3 + du4)
        v = v + (dt / 6.0) * (dv1 + 2 * dv2 + 2 * dv3 + dv4)
    return u, v


def test_agrees_with_classic_rk4_on_non_traveling_data():
    state = bumped_case1a_state(256)
    final = evolve(state, 1e-3, 0.1)
    u, v = _classic_rk4(state, 1e-3, 100)
    assert np.max(np.abs(final.u - u)) < 1e-9
    assert np.max(np.abs(final.v - v)) < 1e-9


def test_eight_ffts_per_step_and_two_per_run(monkeypatch):
    calls = []
    for name in ("rfft", "irfft"):
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, fn=fn, **k: calls.append(1) or fn(*a, **k))
    _, _, state = case1a_state(64)
    evolve(state, 1e-3, 5e-3)
    assert len(calls) == 8 * 5 + 2


def test_conserved_density_on_perturbed_wave():
    """u^2 + 4v is a conserved density, d/dt (u^2 + 4v) = d/dx (u^3 + 4uv
    - u_xx), so its mean holds on data no closed form describes."""
    state = bumped_case1a_state(1024)
    steps = math.ceil(1.0 / stability_limit(state))  # the CLI's default step
    final = evolve(state, 1.0 / steps, 1.0)
    density = lambda s: np.mean(s.u ** 2 + 4.0 * s.v)
    assert abs(density(final) - density(state)) < 1e-11
    assert abs(np.mean(final.u) - np.mean(state.u)) < 1e-10
    # mean(v) is no invariant: it drifts by about 1.8e-6 over the same run
    assert abs(np.mean(final.v) - np.mean(state.v)) > 1e-7
