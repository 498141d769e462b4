"""Independent verification: residuals, the orbit oracle, norms.

The oracle never trusts a closed form: ``oracle_integrate`` follows the
orbit of f'^2 = F(f) through a start value from F's zeros alone, by the
quadrature in the band's angle of ``orbit.Orbit``, and samples it on a
uniform grid, each sample the orbit's own value at its xi.  The residuals
check a closed form against the quartic (``ode_residual``) and against the
coupled system by finite differences (``pde_residual``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfiguration
from .orbit import Orbit, band
from .quartic import Params, eval_F, first_integral_residual, roots_of_F, scaled_bound
from .reduction import g_from_f
from .solutions import ClosedFormSolution

__all__ = [
    "Profile",
    "default_domain",
    "ode_residual",
    "pde_residual",
    "oracle_integrate",
    "compare_profiles",
    "build_profile",
]

# the most grid points oracle_integrate samples: its arrays and a CSV of
# them take some 200 bytes a point, so this many take about 200 MB
MAX_ORACLE_POINTS = 10 ** 6
# pde_residual's step in the wave's length scale: near where the 7-point
# u_xxx stencil's rounding, about eps |u| / h^3, meets its truncation, h^4
PDE_STEP = 3e-3


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

    def residual(self, p: Params) -> float:
        """max |f'^2 - F(f)| over the samples, F the quartic of p: for a
        ``build_profile`` profile, what ``ode_residual`` gives on its grid."""
        return first_integral_residual(p.as_floats(), self.f, self.f_prime)


def build_profile(sol: ClosedFormSolution, p: Params, domain, n: int) -> Profile:
    """Sample a closed form (with g) on a uniform grid."""
    xi = np.linspace(domain[0], domain[1], n)
    f, fp = sol.profile(xi)
    pf = p.as_floats()
    return Profile(xi=xi, f=f, f_prime=fp, g=g_from_f(f, pf.c, pf.d1))


def default_domain(sol: ClosedFormSolution) -> tuple:
    """The wave's window about its reference point, in xi: xi0 + ``sol.window``."""
    lo, hi = sol.window
    return sol.xi0 + lo, sol.xi0 + hi


def ode_residual(sol: ClosedFormSolution, p: Params, domain=None,
                 n: int = 2000) -> float:
    """Max over the grid of |f'^2 - F(f)| using the analytic derivative; the
    domain defaults to the wave's window about xi0."""
    if n < 2:
        raise ValueError("need n >= 2")
    lo, hi = default_domain(sol) if domain is None else domain
    return sol.residual(np.linspace(lo, hi, n), p)


def pde_residual(sol: ClosedFormSolution, p: Params, domain=None,
                 n: int = 500):
    """Finite-difference residuals of the coupled system on the traveling pair.

    Builds u(x, t) = f(x - ct), v = g(u), replaces d/dt by -c d/xi, and
    evaluates both equations at n points of the domain (by default the
    wave's window about xi0), at their phases t = xi - xi0 on the wave at
    phase 0, with 4th-order central differences (first derivatives on 5
    points, u_xxx on 7).  The step comes from the wave alone, the same for
    every domain and n, and scales with the wave under f -> lambda f + a:
    h = PDE_STEP * s, s its length scale on 500 points of its window
    (``_length``).  Returns (r_u, r_v, h): the max absolute residual of each
    equation divided by the largest magnitude its terms reach on the grid
    (floored at 1, so tall narrow pulses keep a meaningful defect), and the
    step.  Raises ValueError when n < 2, when 8 h^3 is not a normal double,
    or when t + h rounds to t at the domain's farthest point.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    lo, hi = default_domain(sol) if domain is None else domain
    t = np.linspace(lo, hi, n) - sol.xi0
    wave = sol.with_phase(0.0)
    own = np.linspace(*sol.window, 500)
    h = PDE_STEP * _length(own, *wave.profile(own))
    far = float(max(abs(t[0]), abs(t[-1])))
    if far + h == far:
        raise ValueError(f"domain too far from xi0 = {sol.xi0:g} for the stencils: at "
                         f"|xi - xi0| = {far:.6g} the step h = {h:.3g} rounds away")
    return (*_pde_defects(wave, p, t, h), h)


def _length(xi, f, fp):
    """A wave's length scale from its samples f, with slopes fp, at the
    points xi: (max f - min f) / max |f'|, at most the span of xi, which it
    is where the samples measure no length (a rise within their rounding,
    as for constant samples, or slopes all 0)."""
    lo, hi = float(xi[0]), float(xi[-1])
    rise, slope = float(np.max(f) - np.min(f)), float(np.max(np.abs(fp)))
    # the rounding of the samples: of f, and of f' times that of xi
    noise = 1e-12 * (float(np.max(np.abs(f))) + slope * max(abs(lo), abs(hi)))
    return min(hi - lo, rise / slope) if rise > noise and slope > 0.0 else hi - lo


def _pde_defects(sol: ClosedFormSolution, p: Params, xi, h: float):
    """pde_residual's (r_u, r_v) at the points xi with the step h."""
    h3 = 8.0 * h * h * h
    if not sys.float_info.min <= h3 < math.inf:
        raise ValueError(f"the step h = {h:.3g} is too {'small' if h3 < 1.0 else 'large'} "
                         f"for the stencils: 8 h^3 is not a normal double")
    pf = p.as_floats()
    c, d1 = pf.c, pf.d1
    offs = np.arange(-3, 4) * h
    u = sol.profile((xi[:, None] + offs).ravel())[0].reshape(len(xi), 7)  # xi - 3h .. xi + 3h
    v = g_from_f(u, c, d1)

    def d1_4th(a):  # 4th-order first derivative, 5-point
        return (a[:, 1] - 8 * a[:, 2] + 8 * a[:, 4] - a[:, 5]) / (12 * h)

    def d3_4th(a):  # 4th-order third derivative, 7-point
        return (
            a[:, 0] - 8 * a[:, 1] + 13 * a[:, 2]
            - 13 * a[:, 4] + 8 * a[:, 5] - a[:, 6]
        ) / h3

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


def oracle_integrate(p: Params, f0: float, sign: int, length: float,
                     h: float = 1e-4) -> Profile:
    """The orbit of f'^2 = F(f) through f0, sampled on xi = 0, h, ..., length.

    f' starts with the sign of ``sign``; the orbit turns at each simple zero
    of F it meets, and only nears a multiple one.  A start at a simple zero
    (within 1e-12 of it, relative) leaves it into its band, whatever
    ``sign`` says; a start at a multiple zero stays there.  Each sample is
    the orbit's own value at its xi, read off the inverse series of its
    panel (``orbit.Orbit.sample``), so h is the grid's spacing and not a
    step: a coarse h samples the same orbit.

    Returns a Profile with f' = (o - e) sin cos sqrt(Q) from the band's
    angle (so f'^2 = F(f) along the profile) and in ``events`` the xi of
    each turn from 0 to the grid's last point.  g is finite: f keeps to a
    band of zeros that ``roots_of_F`` holds below about 1.3e77.

    Raises ValueError unless h is finite and positive, length finite and
    >= 0, the grid at most MAX_ORACLE_POINTS points and f0 finite,
    InvalidConfiguration when F(f0) < 0, and KBWaveError where the inverse
    series of a panel the samples touch has not converged.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be finite and positive, got {h}")
    if not math.isfinite(length):
        raise ValueError(f"length must be finite, got {length}")
    if not length >= 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if not length / h + 1 <= MAX_ORACLE_POINTS:
        raise ValueError(f"length {length} in steps of h = {h} takes {length / h + 1:.7g} "
                         f"grid points, more than MAX_ORACLE_POINTS = {MAX_ORACLE_POINTS}")
    f0 = float(f0)
    if not math.isfinite(f0):
        raise ValueError(f"f0 must be finite, got {f0}")
    rm = roots_of_F(p)
    zeros = rm.expand()
    # factored where the zeros are all real: Horner cancels near a double zero
    F0 = -math.prod(f0 - r for r in zeros) if len(zeros) == 4 else float(eval_F(p.as_floats(), f0))
    # relative to the zeros' scale, like the residual gate: F near a zero
    # carries rounding of order eps * scale^4
    if F0 < -scaled_bound(1e-12, rm.scale(), 4):
        raise InvalidConfiguration(f"start point infeasible: F({f0}) = {F0:.3e} < 0")
    if not zeros:
        raise InvalidConfiguration("F has no real zeros: no orbit")
    xi = np.arange(int(round(length / h)) + 1) * float(h)
    # a start within rounding of its nearest zero z, or outside every band
    # (feasible there only near a zero), is at z: the orbit leaves a simple
    # zero into its band, and stays at a multiple one
    z, m = min(rm.entries, key=lambda entry: abs(entry[0] - f0))
    picked = band(p, rm, f0, math.inf)
    inside = picked is not None and min(picked[:2]) <= f0 <= max(picked[:2])
    near = abs(f0 - z) <= 1e-12 * max(1.0, abs(z)) if m == 1 else f0 == z
    at_zero = near or not inside
    if picked is None or at_zero and m > 1:
        f, fp, events = np.full(len(xi), float(z)), np.zeros(len(xi)), []
    else:
        orb = Orbit(*picked, z if at_zero else f0)
        # theta runs up from theta0 toward o where f' takes the sign of o - e
        toward_o = (1.0 if sign >= 0 else -1.0) * orb.w > 0.0
        f, fp, events = orb.sample(xi, 1.0 if toward_o else -1.0)
        if at_zero:
            fp[0] = 0.0
    f[0] = f0
    pf = p.as_floats()
    return Profile(xi=xi, f=f, f_prime=fp, g=g_from_f(f, pf.c, pf.d1), events=tuple(events))


def compare_profiles(a: Profile, b: Profile):
    """Discrepancy norms (L_inf, rms) between two profiles on one grid:
    their grids must match to 1e-12 relative, or InvalidConfiguration is
    raised, as it is when no sample is finite in both."""
    xa, fa = a.xi, a.f
    if not (len(xa) == len(b.xi) and np.allclose(
            xa, b.xi, rtol=0.0, atol=1e-12 * max(1.0, abs(float(xa[-1]))))):
        raise InvalidConfiguration("profiles on different grids")
    mask = np.isfinite(fa) & np.isfinite(b.f)
    diff = fa[mask] - b.f[mask]
    if diff.size == 0:
        raise InvalidConfiguration("no comparable samples")
    return float(np.max(np.abs(diff))), float(np.sqrt(np.mean(diff * diff)))
