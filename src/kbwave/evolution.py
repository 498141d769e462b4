"""Direct time evolution of the coupled system on a periodic domain.

Pseudo-spectral in space (FFT derivatives, 2/3-rule dealiasing of the
quadratic products), classic fixed-step RK4 in time:

    u_t = (3/2) u u_x + v_x = d/dx ( (3/4) u^2 + v )
    v_t = -(1/4) u_xxx + v u_x + (1/2) u v_x

The u equation is advanced in flux form, so the spatial mean of u is
conserved to rounding.  Solitary waves decay to the nonzero constant at the
double zero of F, never to zero (the vanishing-boundary reduction admits no
pulse), so the background u0 is retained and the domain is sized to make the
pulse tails negligible at the boundary.

Stability: the linearization about constants (u0, v0) has purely imaginary
time eigenvalues i k lam(k) with

    lam(k) = u0 +- sqrt((u0/2)^2 + v0 + k^2/4),

growing like k^2/2 at large k (second-order dispersion, not the naive cubic
bound).  ``stability_limit`` returns dt_max = 2.8/max|k lam(k)| for a state's
grid, the RK4 imaginary-axis limit, and ``evolve`` enforces dt <= dt_max.
"""

from __future__ import annotations

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
    "linearized_symbol",
    "RK4_IMAGINARY_LIMIT",
]

RK4_IMAGINARY_LIMIT = 2.8


@dataclass(frozen=True)
class EvolutionState:
    """Periodic grid state: x of length L with n points, fields u, v, time t."""

    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    t: float
    L: float

    def __post_init__(self):
        n = len(self.x)
        if n & (n - 1) != 0 or n < 8:
            raise ValueError(f"n = {n} must be a power of two >= 8")
        for name in ("u", "v"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if len(arr) != n:
                raise ValueError("field length mismatch")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")

    @property
    def n(self) -> int:
        return len(self.x)


def state_from_callable(f_of_xi, params, L: float, n: int, center=None,
                        t: float = 0.0) -> EvolutionState:
    """Sample u = f(x - center), v = g(u) on a periodic grid of length L."""
    x = np.arange(n) * (L / n)
    if center is None:
        center = 0.5 * L
    pf = params.as_floats()
    u = np.asarray(f_of_xi(x - center - pf.c * t), dtype=float)
    v = g_from_f(u, pf.c, pf.d1)
    return EvolutionState(x=x, u=u, v=v, t=t, L=float(L))


def _wavenumbers(n: int, L: float):
    return 2.0 * np.pi / L * np.fft.rfftfreq(n, d=1.0 / n)


def _dealias_mask(n: int):
    k_index = np.arange(n // 2 + 1)
    return k_index <= n // 3


def _operators(n: int, L: float):
    """(dealias mask, ik, (ik)^3) of an n-point grid of length L, built once
    per ``evolve`` call rather than in each RK4 stage."""
    ik = 1j * _wavenumbers(n, L)
    return _dealias_mask(n), ik, ik ** 3


def _rhs_arrays(u, v, n: int, mask, ik, ik3):
    """(du/dt, dv/dt) in four batched FFTs: the fields, their dealiased
    values and x-derivatives, the two quadratic products, and the
    tendencies' three spectral terms."""
    uh, vh = np.fft.rfft(np.stack((u, v)))
    ud, vd, uxd, vxd = np.fft.irfft(
        np.stack((uh * mask, vh * mask, ik * uh * mask, ik * vh * mask)), n)

    sq_h, quad_h = np.fft.rfft(np.stack((0.75 * ud * ud, vd * uxd + 0.5 * ud * vxd)))
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
    """Largest stable RK4 step for this grid, from the linearized symbol."""
    k = _wavenumbers(state.n, state.L)
    u0 = float(np.mean(state.u))
    v0 = float(np.mean(state.v))
    lp, lm = linearized_symbol(k, u0, v0)
    wmax = float(np.max(np.abs(k * lp)).real)
    wmax = max(wmax, float(np.max(np.abs(k * lm)).real), 1e-30)
    return RK4_IMAGINARY_LIMIT / wmax


def evolve(state0: EvolutionState, dt: float, T: float,
           enforce_stability: bool = True) -> EvolutionState:
    """Classic RK4 from t0 to t0 + T in round(T/dt) fixed steps.

    Deterministic given inputs.  Negative dt with negative T runs time in
    reverse (the discretization is time-reversible).  Raises BlowUp with the
    time stamp if non-finite values appear mid-run.
    """
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    steps = int(round(T / dt))
    if steps < 0 or abs(steps * dt - T) > 1e-9 * max(abs(T), abs(dt)):
        raise ValueError(f"T = {T} is not a whole number of steps of dt = {dt}")
    if enforce_stability:
        dt_max = stability_limit(state0)
        if abs(dt) > dt_max:
            raise ValueError(
                f"dt = {abs(dt):.3e} exceeds the RK4 stability limit "
                f"{dt_max:.3e} for this grid"
            )
    u, v = state0.u.copy(), state0.v.copy()
    n = state0.n
    ops = _operators(n, state0.L)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            du1, dv1 = _rhs_arrays(u, v, n, *ops)
            du2, dv2 = _rhs_arrays(u + 0.5 * dt * du1, v + 0.5 * dt * dv1, n, *ops)
            du3, dv3 = _rhs_arrays(u + 0.5 * dt * du2, v + 0.5 * dt * dv2, n, *ops)
            du4, dv4 = _rhs_arrays(u + dt * du3, v + dt * dv3, n, *ops)
            u = u + (dt / 6.0) * (du1 + 2 * du2 + 2 * du3 + du4)
            v = v + (dt / 6.0) * (dv1 + 2 * dv2 + 2 * dv3 + dv4)
            if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
                raise BlowUp(
                    f"blow-up detected at t = {state0.t + (i + 1) * dt}",
                    t=state0.t + (i + 1) * dt,
                )
    return EvolutionState(x=state0.x, u=u, v=v, t=state0.t + steps * dt,
                          L=state0.L)
