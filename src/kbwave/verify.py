"""Independent verification: residuals, brute-force orbit integration, norms.

The oracle here never trusts a closed form: it integrates f' = s sqrt(F(f))
directly with classic RK4, locating simple turning points by bisection on the
sign of F along the trial step and stepping across each turning through the
local series

    f(xi* + d) = r + A2 d^2 + A4 d^4 + A6 d^6,
    A2 = F'/4,  A4 = F'' F'/96,  A6 = F''^2 F'/5760 + F''' F'^2/1920,

evaluated inside a per-root window |d| <= max(3h, min(sqrt(h), 0.075 L_r)),
L_r the series' local convergence scale at the root.  The window is what
keeps the scheme effectively 4th order: the raw square-root field degrades
RK4 near its zeros, while the series is exact there to O(d^8).  Double and
triple zeros are only approached asymptotically; the integration clamps to
the zero once |f - zero| < 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import InvalidConfiguration
from .quartic import Params, eval_F, eval_F_deriv, roots_of_F
from .reduction import g_from_f
from .solutions import ClosedFormSolution

__all__ = [
    "Profile",
    "ode_residual",
    "pde_residual",
    "oracle_integrate",
    "compare_profiles",
    "build_profile",
]

_CLAMP_TOL = 1e-10
_EVENT_BISECTIONS = 60


@dataclass(frozen=True)
class Profile:
    """Uniformly sampled profile: grid xi, values f, optional f' and g."""

    xi: np.ndarray
    f: np.ndarray
    f_prime: np.ndarray | None = None
    g: np.ndarray | None = None
    events: tuple = ()  # xi locations of turning-point reflections

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "f", np.asarray(self.f, dtype=float))
        if len(xi) >= 2:
            steps = np.diff(xi)
            h = steps[0]
            if h <= 0 or np.max(np.abs(steps - h)) > 1e-12 * max(1.0, abs(h)):
                raise ValueError("grid must be uniform and strictly increasing")
        if len(self.f) != len(xi):
            raise ValueError("array lengths differ")
        for name in ("f_prime", "g"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                object.__setattr__(self, name, arr)
                if len(arr) != len(xi):
                    raise ValueError("array lengths differ")

    @property
    def h(self) -> float:
        return float(self.xi[1] - self.xi[0])


def build_profile(sol: ClosedFormSolution, p: Params, domain, n: int) -> Profile:
    """Sample a closed form (with g) on a uniform grid."""
    xi = np.linspace(domain[0], domain[1], n)
    f, fp = sol.profile(xi)
    pf = p.as_floats()
    return Profile(xi=xi, f=f, f_prime=fp, g=g_from_f(f, pf.c, pf.d1))


def ode_residual(sol: ClosedFormSolution, p: Params, domain=(-10.0, 10.0),
                 n: int = 2000) -> float:
    """Max over the grid of |f'^2 - F(f)| using the analytic derivative."""
    if n < 2:
        raise ValueError("need n >= 2")
    xi = np.linspace(domain[0], domain[1], n)
    f, fp = sol.profile(xi)
    return float(np.max(np.abs(fp ** 2 - eval_F(p.as_floats(), f))))


def pde_residual(sol: ClosedFormSolution, p: Params, domain=(-10.0, 10.0),
                 n: int = 500, h_fd: float = 1e-3):
    """Finite-difference residuals of the coupled system on the traveling pair.

    Builds u(x, t) = f(x - ct), v = g(u), replaces d/dt by -c d/xi, and
    evaluates both equations with 4th-order central differences of step h_fd
    (first derivatives on 5 points, u_xxx on 7).  Returns (r_u, r_v): the max
    absolute residual of each equation divided by the largest magnitude its
    individual terms reach on the grid (floored at 1).  The scaling keeps the
    defect meaningful for tall, narrow pulses whose raw third-derivative
    terms are orders of magnitude above 1.
    """
    if h_fd <= 0:
        raise ValueError("h_fd must be positive")
    if n < 2 or (domain[1] - domain[0]) <= 6 * h_fd:
        raise ValueError("domain too small for the stencils")
    pf = p.as_floats()
    c, d1 = pf.c, pf.d1
    xi = np.linspace(domain[0], domain[1], n)
    offs = np.arange(-3, 4) * h_fd
    grid = xi[:, None] + offs[None, :]
    u = sol.profile(grid.ravel())[0].reshape(grid.shape)
    v = g_from_f(u, c, d1)

    def d1_4th(a):  # 4th-order first derivative, 5-point
        return (a[:, 1] - 8 * a[:, 2] + 8 * a[:, 4] - a[:, 5]) / (12 * h_fd)

    def d3_4th(a):  # 4th-order third derivative, 7-point
        return (
            a[:, 0] - 8 * a[:, 1] + 13 * a[:, 2]
            - 13 * a[:, 4] + 8 * a[:, 5] - a[:, 6]
        ) / (8 * h_fd ** 3)

    u0, v0 = u[:, 3], v[:, 3]
    ux, vx, uxxx = d1_4th(u), d1_4th(v), d3_4th(u)
    # u_t = (3/2) u u_x + v_x   and   v_t = -(1/4) u_xxx + v u_x + (1/2) u v_x
    terms_u = (-c * ux, 1.5 * u0 * ux, vx)
    terms_v = (-c * vx, -0.25 * uxxx, v0 * ux, 0.5 * u0 * vx)
    r_u = terms_u[0] - terms_u[1] - terms_u[2]
    r_v = terms_v[0] - terms_v[1] - terms_v[2] - terms_v[3]
    scale_u = max(1.0, *(float(np.max(np.abs(t))) for t in terms_u))
    scale_v = max(1.0, *(float(np.max(np.abs(t))) for t in terms_v))
    return (
        float(np.max(np.abs(r_u)) / scale_u),
        float(np.max(np.abs(r_v)) / scale_v),
    )


# ---------------------------------------------------------------------------
# brute-force orbit oracle
# ---------------------------------------------------------------------------


class _Quartic:
    """Scalar helpers around F for the integration loop (plain floats).

    When all four zeros are real, F is evaluated in factored form
    -(f-r1)(f-r2)(f-r3)(f-r4): Horner on the expanded coefficients cancels
    catastrophically near a double zero, and orbits launched from such a
    neighborhood amplify that noise exponentially.
    """

    def __init__(self, p: Params, factor_roots=None):
        pf = p.as_floats()
        self.c4, self.c3, self.c2, self.c1, self.c0 = (
            float(v) for v in pf.coefficients()
        )
        self.p = pf
        self.factors = None
        if factor_roots is not None and len(factor_roots) == 4:
            self.factors = tuple(float(r) for r in factor_roots)

    def F(self, f):
        if self.factors is not None:
            r1, r2, r3, r4 = self.factors
            return -(f - r1) * (f - r2) * (f - r3) * (f - r4)
        return (((self.c4 * f + self.c3) * f + self.c2) * f + self.c1) * f + self.c0

    def dF(self, f, order=1):
        return eval_F_deriv(self.p, f, order)

    def series_coeffs(self, r):
        fp = self.dF(r, 1)
        fpp = self.dF(r, 2)
        fppp = self.dF(r, 3)
        A2 = fp / 4.0
        A4 = fpp * fp / 96.0
        A6 = fpp * fpp * fp / 5760.0 + fppp * fp * fp / 1920.0
        return A2, A4, A6

    def series_eval(self, r, delta):
        A2, A4, A6 = self.series_coeffs(r)
        d2 = delta * delta
        f = r + d2 * (A2 + d2 * (A4 + d2 * A6))
        fprime = delta * (2.0 * A2 + d2 * (4.0 * A4 + 6.0 * A6 * d2))
        return f, fprime

    def time_to_turn(self, r, f):
        """Series inversion: |delta| with series(r, delta) = f, or inf when f
        is outside the series' reach (wrong side, or inversion diverges)."""
        A2, A4, A6 = self.series_coeffs(r)
        u = f - r
        if u == 0.0:
            return 0.0
        if u / A2 < 0.0:
            return math.inf
        d2 = u / A2
        for _ in range(4):
            d2 = (u - d2 * d2 * (A4 + A6 * d2)) / A2
            if d2 < 0.0:
                return math.inf
        return math.sqrt(d2)

    def series_scale(self, r):
        """Local convergence scale of the turning series at root r (in xi)."""
        A2, A4, A6 = self.series_coeffs(r)
        ell = 1.0
        if A4 != 0.0:
            ell = min(ell, math.sqrt(abs(A2 / A4)))
        if A6 != 0.0:
            ell = min(ell, abs(A2 / A6) ** 0.25)
        return ell


def oracle_integrate(p: Params, f0: float, sign: int, length: float,
                     h: float = 1e-4) -> Profile:
    """Brute-force RK4 integration of f' = sign*sqrt(max(F(f), 0)).

    Simple turning points reflect the orbit (detected by a sign change of F
    along the trial step, refined by 60 bisections, crossed by the local
    series); approaches to double or triple zeros clamp to the asymptote once
    within 1e-10.  Starting at a simple zero is allowed: the launch direction
    is then forced by the local geometry, whatever ``sign`` says.

    Returns a Profile on the grid xi = 0, h, ..., length with f' = the signed
    square root (so f'^2 - F(f) vanishes identically along the profile) and
    the turning-point locations in ``events``.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    rm = roots_of_F(p)
    q = _Quartic(p, factor_roots=rm.expand() if rm.total() == 4 else None)
    f0 = float(f0)
    scale = max(1.0, abs(f0)) ** 4
    if q.F(f0) < -1e-12 * scale:
        raise InvalidConfiguration(
            f"start point infeasible: F({f0}) = {q.F(f0):.3e} < 0"
        )
    simple = [v for v, m in rm.entries if m == 1]
    multi = [v for v, m in rm.entries if m >= 2]

    n = int(round(length / h))
    fs = np.empty(n + 1)
    fps = np.empty(n + 1)
    fs[0] = f0
    s = 1.0 if sign >= 0 else -1.0
    # per-root analytic window: wide enough that RK4 never sees the
    # square-root singularity, narrow enough that the series stays exact
    window = {
        r: max(3.0 * h, min(math.sqrt(h), 0.075 * q.series_scale(r)))
        for r in (v for v, m in rm.entries if m == 1)
    }
    events: list[float] = []

    def rhs(x):
        return s * math.sqrt(max(q.F(x), 0.0))

    def rk4(fcur, hh):
        k1 = rhs(fcur)
        k2 = rhs(fcur + 0.5 * hh * k1)
        k3 = rhs(fcur + 0.5 * hh * k2)
        k4 = rhs(fcur + hh * k3)
        return fcur + hh / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    f = f0
    fps[0] = rhs(f0)
    clamp_to = None
    mode = None  # (root, delta): inside the series window, delta since xi*

    # starting exactly at a simple turning point: enter the window immediately
    for r in simple:
        if abs(f0 - r) <= 1e-12 * max(1.0, abs(r)):
            mode = (r, 0.0)
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
            for r in simple:
                A2, _, _ = q.series_coeffs(r)
                if A2 == 0.0:
                    continue
                tau = q.time_to_turn(r, f)
                if not tau <= window[r]:
                    continue  # outside the series window (or wrong side)
                moving_toward = s * (r - f) > 0.0 or abs(f - r) <= 1e-12 * max(1.0, abs(r))
                if moving_toward:
                    mode = (r, -tau)
                    events.append(i * h + tau)
                    break
        if mode is not None:
            r, delta = mode
            delta += h
            f, fprime = q.series_eval(r, delta)
            fs[i + 1] = f
            fps[i + 1] = fprime
            i += 1
            if delta > window[r]:
                s = math.copysign(1.0, fprime) if fprime != 0.0 else s
                mode = None
            else:
                mode = (r, delta)
            continue
        ftrial = rk4(f, h)
        if q.F(ftrial) < 0.0:
            # event inside this step: bisect the step length
            lo, hi = 0.0, h
            for _ in range(_EVENT_BISECTIONS):
                mid = 0.5 * (lo + hi)
                if q.F(rk4(f, mid)) < 0.0:
                    hi = mid
                else:
                    lo = mid
            fstar = rk4(f, lo)
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
            tau = min(q.time_to_turn(best, f), window[best])
            mode = (best, -tau)
            events.append(i * h + tau)
            continue
        f = ftrial
        fs[i + 1] = f
        fps[i + 1] = rhs(f)
        i += 1
        for r in multi:
            if abs(f - r) < _CLAMP_TOL:
                clamp_to = r
    xi = np.arange(n + 1) * h
    pf = p.as_floats()
    return Profile(
        xi=xi, f=fs, f_prime=fps, g=g_from_f(fs, pf.c, pf.d1),
        events=tuple(events),
    )


def compare_profiles(a: Profile, b: Profile):
    """Discrepancy norms (L_inf, rms) between two profiles.

    Grids must match to 1e-12 relative; otherwise b is resampled onto a's
    grid by cubic interpolation over the overlap.  Disjoint domains raise
    InvalidConfiguration.
    """
    xa, fa = a.xi, a.f
    if len(xa) == len(b.xi) and np.allclose(xa, b.xi, rtol=0.0, atol=1e-12 * max(1.0, abs(float(xa[-1])))):
        fb = b.f
        mask = np.isfinite(fa) & np.isfinite(fb)
    else:
        lo = max(xa[0], b.xi[0])
        hi = min(xa[-1], b.xi[-1])
        if not lo < hi:
            raise InvalidConfiguration("profiles cover disjoint domains")
        good = np.isfinite(b.f)
        spline = CubicSpline(b.xi[good], b.f[good])
        mask = (xa >= lo) & (xa <= hi) & np.isfinite(fa)
        fb = np.empty_like(fa)
        fb[mask] = spline(xa[mask])
    diff = fa[mask] - fb[mask]
    if diff.size == 0:
        raise InvalidConfiguration("no comparable samples")
    return float(np.max(np.abs(diff))), float(np.sqrt(np.mean(diff * diff)))
