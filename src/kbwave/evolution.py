"""Direct time evolution of the coupled system on a periodic domain.

Pseudo-spectral in space (FFT derivatives, 2/3-rule dealiasing of the
quadratic products), integrating-factor RK4 in time:

    u_t = (3/2) u u_x + v_x = d/dx ( (3/4) u^2 + v )
    v_t = -(1/4) u_xxx + v u_x + (1/2) u v_x

The linear part u_t = v_x, v_t = -(1/4) u_xxx is advanced exactly, mode by
mode: its Fourier matrix M squares to -omega^2 I with omega = k^2/2, so
exp(hM) = cos(omega h) I + (sin(omega h)/omega) M.  Classic RK4 carries only
the quadratic terms through that frame (Lawson's integrating-factor RK4;
Cox & Matthews 2002, Kassam & Trefethen 2005), with the state kept in
Fourier space for the whole run.

The u equation is advanced in flux form, so the spatial mean of u is
conserved to rounding; u^2 + 4v is a conserved density too,
d/dt (u^2 + 4v) = d/dx (u^3 + 4uv - u_xx).  Solitary waves decay to the
nonzero constant at the double zero of F, never to zero (the
vanishing-boundary reduction admits no pulse), so the background u0 is
retained and the domain is sized to make the pulse tails negligible at the
boundary.

Stability: the linearization about constants (u0, v0) has purely imaginary
time eigenvalues i k lam(k) with

    lam(k) = u0 +- sqrt((u0/2)^2 + v0 + k^2/4),

growing like k^2/2 at large k (second-order dispersion, not the naive cubic
bound).  ``stability_limit`` returns dt_max = 2.8/max|k lam(k)| for a state's
grid, classic RK4's imaginary-axis limit on that whole frequency, and
``evolve`` enforces dt <= dt_max.  The integrating factor takes the k^2/2
part exactly, so its step meets that limit with margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUp
from .reduction import g_from_f

__all__ = [
    "EvolutionState",
    "state_from_callable",
    "kb_rhs",
    "evolve",
    "stability_limit",
    "step_count",
    "linearized_symbol",
    "RK4_IMAGINARY_LIMIT",
    "MAX_STEPS",
    "MAX_WAVENUMBER",
]

RK4_IMAGINARY_LIMIT = 2.8
# the longest run evolve takes: a step at n = 1024 costs about 0.4 ms, so
# this many take minutes, and a run that asks for more would not finish
MAX_STEPS = 10 ** 6


# the largest wavenumber a grid may have: its cube, the factor of u_xxx at
# the top mode, and the k^2 of the stability limit then fit a float
MAX_WAVENUMBER = float(np.finfo(float).max) ** (1.0 / 3.0)


def _check_grid(L: float, n: int) -> None:
    """Refuse a grid that is not n >= 8 points, a power of two, on a finite
    positive L, or whose top wavenumber pi n / L is above MAX_WAVENUMBER."""
    if not (np.isfinite(L) and L > 0):
        raise ValueError(f"L = {L} must be finite and positive")
    if n & (n - 1) != 0 or n < 8:
        raise ValueError(f"n = {n} must be a power of two >= 8")
    top = math.pi * n / L
    if not top <= MAX_WAVENUMBER:
        raise ValueError(
            f"a grid of n = {n} points on L = {L} is too fine: its top wavenumber "
            f"pi n / L = {top:.3g} is above MAX_WAVENUMBER = {MAX_WAVENUMBER:.3g}, "
            f"where its cube overflows")


@dataclass(frozen=True)
class EvolutionState:
    """Periodic grid state: x of length L with n points, fields u, v, time t."""

    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    t: float
    L: float

    def __post_init__(self):
        _check_grid(self.L, self.n)
        for name in ("u", "v"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if len(arr) != self.n:
                raise ValueError("field length mismatch")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")

    @property
    def n(self) -> int:
        return len(self.x)


def state_from_callable(f_of_xi, params, L: float, n: int, center=None,
                        t: float = 0.0) -> EvolutionState:
    """Sample u = f(x - center), v = g(u) on a periodic grid of length L."""
    L = float(L)
    _check_grid(L, n)  # before sampling, which an infinite or nan L spoils
    x = np.arange(n) * (L / n)
    if center is None:
        center = 0.5 * L
    pf = params.as_floats()
    u = np.asarray(f_of_xi(x - center - pf.c * t), dtype=float)
    v = g_from_f(u, pf.c, pf.d1)
    return EvolutionState(x=x, u=u, v=v, t=t, L=L)


def _wavenumbers(n: int, L: float):
    return 2.0 * np.pi / L * np.fft.rfftfreq(n, d=1.0 / n)


def _dealias_mask(n: int):
    k_index = np.arange(n // 2 + 1)
    return k_index <= n // 3


def _operators(n: int, L: float):
    """(dealias mask, ik, (ik)^3) of an n-point grid of length L, built once
    per ``evolve`` call rather than in each stage.

    ik is 0 at the Nyquist mode, where an odd derivative of a real field has
    no content (``irfft`` drops it): ``evolve``'s integrating factor then
    holds that mode still, as the tendencies of ``kb_rhs`` do.
    """
    ik = 1j * _wavenumbers(n, L)
    ik[-1] = 0.0
    return _dealias_mask(n), ik, ik ** 3


def _quadratic_spectra(wh, n: int, mask, ik):
    """Spectra of the two quadratic products, (3/4 u^2)^ and
    (v u_x + 1/2 u v_x)^, of the spectral state wh = (u^, v^) in two
    batched FFTs: the dealiased fields and x-derivatives, then the products
    of those 2/3-truncated fields."""
    wd = wh * mask
    ud, vd, uxd, vxd = np.fft.irfft(np.concatenate((wd, ik * wd)), n)
    return np.fft.rfft(np.stack((0.75 * ud * ud, vd * uxd + 0.5 * ud * vxd)))


def _rhs_arrays(u, v, n: int, mask, ik, ik3):
    """(du/dt, dv/dt) in four batched FFTs: the fields, the two quadratic
    products (``_quadratic_spectra``), and the tendencies' three spectral
    terms."""
    wh = np.fft.rfft(np.stack((u, v)))
    uh, vh = wh
    sq_h, quad_h = _quadratic_spectra(wh, n, mask, ik)
    flux_h = sq_h * mask + vh
    du, uxxx, quad = np.fft.irfft(np.stack((ik * flux_h, ik3 * uh, quad_h * mask)), n)
    dv = -0.25 * uxxx + quad
    return du, dv


def kb_rhs(state: EvolutionState):
    """Tendencies (du/dt, dv/dt) by spectral differentiation.

    Quadratic products are formed from 2/3-truncated fields and re-truncated,
    so the products are alias-free; the u tendency is the exact x-derivative
    of its flux (3/4 u^2 + v), conserving the mean of u.
    """
    return _rhs_arrays(state.u, state.v, state.n, *_operators(state.n, state.L))


def linearized_symbol(k, u0: float, v0: float):
    """Time eigenvalues i k lam(k) of the linearization about (u0, v0).

    Returns the pair of lam values (advection speeds); the modes are neutral
    (purely imaginary time eigenvalues) whenever (u0/2)^2 + v0 + k^2/4 >= 0.
    """
    disc = (0.5 * u0) ** 2 + v0 + 0.25 * np.asarray(k, dtype=float) ** 2
    root = np.sqrt(np.abs(disc)) * np.where(disc >= 0, 1.0, 1j)
    return u0 + root, u0 - root


def stability_limit(state: EvolutionState) -> float:
    """Largest step ``evolve`` takes on this grid: classic RK4's limit for
    the linearized symbol, 2.8 over its largest frequency.

    The integrating-factor step meets it with margin, since the k^2/2
    dispersion that sets it is integrated exactly: on fig-case1a, 400 steps
    at twice this limit stay stable at n = 512 (at three times they blow
    up), and at four times at n = 1024.
    """
    k = _wavenumbers(state.n, state.L)
    u0 = float(np.mean(state.u))
    v0 = float(np.mean(state.v))
    lp, lm = linearized_symbol(k, u0, v0)
    wmax = float(np.max(np.abs(k * lp)).real)
    wmax = max(wmax, float(np.max(np.abs(k * lm)).real), 1e-30)
    return RK4_IMAGINARY_LIMIT / wmax


def _steps_in(T: float, dt: float) -> float:
    """|T/dt|, after refusing a non-finite T or dt, a zero dt, and a run of
    more than MAX_STEPS steps."""
    for name, v in (("T", T), ("dt", dt)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    ratio = abs(T / dt)
    if not ratio <= MAX_STEPS:
        raise ValueError(f"T = {T} in steps of dt = {dt} takes {ratio:.3g} steps, "
                         f"more than MAX_STEPS = {MAX_STEPS}")
    return ratio


def step_count(T: float, dt: float) -> int:
    """ceil(|T/dt|), at least 1: the fewest equal steps no longer than |dt|
    that cover a nonzero T.  Raises ValueError for a zero T and as ``evolve``
    does for a non-finite T or dt, a zero dt or more than MAX_STEPS steps."""
    if T == 0.0:
        raise ValueError("T must be nonzero")
    return max(1, math.ceil(_steps_in(T, dt)))


def _half_step_propagator(ik, ik3, h: float):
    """exp((h/2) M) per mode as a (2, 2, modes) array, M = [[0, ik],
    [-(ik)^3/4, 0]] the Fourier matrix of u_t = v_x, v_t = -(1/4) u_xxx.

    M^2 = -omega^2 I with omega = k^2/2, so exp(tM) = cos(omega t) I
    + (sin(omega t)/omega) M, the identity at k = 0.
    """
    t = 0.5 * h
    omega = 0.5 * ik.imag ** 2
    c = np.cos(omega * t)
    s = t * np.sinc(omega * t / np.pi)  # sin(omega t)/omega, t at omega = 0
    return np.array([[c, s * ik], [-0.25 * s * ik3, c]])


def _propagate(E, w):
    """Apply the per-mode 2x2 propagator E to the spectral state w = (u^, v^)."""
    return E[:, 0] * w[0] + E[:, 1] * w[1]


def evolve(state0: EvolutionState, dt: float, T: float,
           enforce_stability: bool = True) -> EvolutionState:
    """Integrating-factor RK4 from t0 to t0 + T in round(T/dt) fixed steps.

    The state is carried in Fourier space: one ``rfft`` at the start, four
    stages of two batched FFTs each per step, one ``irfft`` at the end.  The
    linear part is advanced exactly by ``_half_step_propagator``; classic
    RK4 in Lawson's form takes the quadratic terms.

    Deterministic given inputs.  Negative dt with negative T runs time in
    reverse.  Raises ValueError, before any step, for a non-finite T or dt, a
    zero dt or more than MAX_STEPS steps, and BlowUp with the time stamp if
    non-finite values appear mid-run.
    """
    _steps_in(T, dt)
    steps = int(round(T / dt))
    if steps < 0 or abs(steps * dt - T) > 1e-9 * max(abs(T), abs(dt)):
        raise ValueError(f"T = {T} is not a whole number of steps of dt = {dt}")
    if enforce_stability:
        dt_max = stability_limit(state0)
        if abs(dt) > dt_max:
            raise ValueError(
                f"dt = {abs(dt):.3e} exceeds the stability limit "
                f"{dt_max:.3e} for this grid"
            )
    n = state0.n
    mask, ik, ik3 = _operators(n, state0.L)
    E = _half_step_propagator(ik, ik3, dt)
    to_tendency = np.stack((ik, np.ones_like(ik))) * mask

    def nonlinear(w):
        """The quadratic tendencies, 2/3-truncated: N_u = ik (3/4 u^2)^ and
        N_v = (v u_x + 1/2 u v_x)^."""
        return to_tendency * _quadratic_spectra(w, n, mask, ik)

    w = np.fft.rfft(np.stack((state0.u, state0.v)))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            # Lawson RK4 with every propagation written as a half step:
            # exp(dt M) w = E (E w)
            k1 = nonlinear(w)
            a = _propagate(E, w)
            b = _propagate(E, k1)
            k2 = nonlinear(a + (0.5 * dt) * b)
            k3 = nonlinear(a + (0.5 * dt) * k2)
            k4 = nonlinear(_propagate(E, a + dt * k3))
            w = (_propagate(E, a + (dt / 6.0) * b + (dt / 3.0) * (k2 + k3))
                 + (dt / 6.0) * k4)
            if not np.all(np.isfinite(w)):
                raise BlowUp(
                    f"blow-up detected at t = {state0.t + (i + 1) * dt}",
                    t=state0.t + (i + 1) * dt,
                )
    u, v = np.fft.irfft(w, n)
    return EvolutionState(x=state0.x, u=u, v=v, t=state0.t + steps * dt,
                          L=state0.L)
