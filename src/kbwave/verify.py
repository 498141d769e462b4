"""Independent verification: residuals, the orbit check and oracle, norms.

The oracle never trusts a closed form: ``oracle_integrate`` follows the
orbit of f'^2 = F(f) through a start value from F's zeros alone, by the
quadrature in the band's angle of ``orbit.Orbit``, and samples it on a
uniform grid; ``orbit_deviation`` holds a closed form to that orbit.  The
residuals check a closed form against the quartic (``ode_residual``) and
against the coupled system with its exact derivatives (``pde_residual``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidConfiguration, UnresolvedBranch
from .orbit import Orbit, band
from .quartic import Params, eval_F, first_integral_residual, roots_of_F, scaled_bound
from .reduction import g_from_f
from .solutions import ClosedFormSolution

__all__ = [
    "Profile",
    "default_domain",
    "ode_residual",
    "pde_residual",
    "OrbitReading",
    "orbit_deviation",
    "oracle_integrate",
    "compare_profiles",
    "build_profile",
]

# the most grid points oracle_integrate samples: its arrays and a CSV of
# them take some 200 bytes a point, so this many take about 200 MB
MAX_ORACLE_POINTS = 10 ** 6
ORBIT_RTOL = 1e-6  # orbit check: |closed form - orbit| < ORBIT_RTOL * scale


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
    """Residuals of the coupled system on the traveling pair, from the
    closed form's exact derivatives.

    Builds u(x, t) = f(x - ct), v = g(u), replaces d/dt by -c d/xi, and
    evaluates both equations on the wave at phase 0, at the phases
    t = xi - xi0 of n points of the domain, or by default at n points of
    the wave's window (``ClosedFormSolution.window``), the same phases for
    every xi0.  f, f' and f''' come from the kernel's equation
    (``ClosedFormSolution.jet``), and v_x = g'(f) f' = -(c + 3f/2) f'.
    Returns (r_u, r_v): the max absolute residual of each equation divided
    by the largest magnitude its terms reach on the grid (floored at 1, so
    tall narrow pulses keep a meaningful defect).  r_v is the check; r_u is
    0 up to rounding, since v = g(u) solves the first equation, and stays
    as the cross-check of that reduction.  Raises ValueError when n < 2 or
    when the phase beta t is not finite at the domain's farthest point.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    t = np.linspace(*sol.window, n) if domain is None else np.linspace(*domain, n) - sol.xi0
    far = float(np.max(np.abs(t)))
    if not math.isfinite(sol.beta * far):
        raise ValueError(f"the domain reaches |xi - xi0| = {far:g}, too far for a wave of "
                         f"frequency {sol.beta:g}: its phase does not fit a float")
    pf = p.as_floats()
    c, d1 = pf.c, pf.d1
    u, ux, uxxx = sol.with_phase(0.0).jet(t)
    v = g_from_f(u, c, d1)
    vx = -(c + 1.5 * u) * ux
    # u_t = (3/2) u u_x + v_x   and   v_t = -(1/4) u_xxx + v u_x + (1/2) u v_x
    terms_u = (-c * ux, 1.5 * u * ux, vx)
    terms_v = (-c * vx, -0.25 * uxxx, v * ux, 0.5 * u * vx)
    r_u = terms_u[0] - terms_u[1] - terms_u[2]
    r_v = terms_v[0] - terms_v[1] - terms_v[2] - terms_v[3]
    scale_u = max(1.0, *(float(np.max(np.abs(term))) for term in terms_u))
    scale_v = max(1.0, *(float(np.max(np.abs(term))) for term in terms_v))
    return (
        float(np.max(np.abs(r_u)) / scale_u),
        float(np.max(np.abs(r_v)) / scale_v),
    )


class OrbitReading(NamedTuple):
    """A wave's largest distance from its orbit, and whether it passed below
    the bound, ORBIT_RTOL * scale."""
    deviation: float
    bound: float
    passed: bool


def orbit_deviation(sol: ClosedFormSolution) -> OrbitReading:
    """max |closed form - orbit| of ``sol`` at phase 0 (the same for every
    xi0), with its bound: the orbit of f'^2 = F(f) through the form's value
    and slope at a turn (``orbit.Orbit``), run in f / w and w xi, w the
    power of two above the zeros' spread, over one period or until a pulse
    meets its multiple zero.  A constant, or a form that starts at a multiple
    zero or in no band, is held to the nearest multiple zero.  UnresolvedBranch
    where there is no band and no multiple zero, or the quadrature leaves the
    floats or moves f by 0.1 of the bound."""
    wave = sol.with_phase(0.0)
    gate = ORBIT_RTOL * wave.roots.scale()
    # sn and sin start mid-band, where f' fixes the orbit's phase badly beside
    # a band edge that Q nearly shares; they turn a quarter period on
    start = 0.25 * wave.period if wave.period and wave.evaluate(0.0)[1] else 0.0
    f0, fp0 = wave.evaluate(start)
    multiple = [v for v, m in wave.roots.entries if m > 1]
    rest = wave.kernel == "const" or f0 in multiple
    picked = None if rest else band(wave.params, wave.roots, f0, gate)
    if picked is None:
        if not multiple:
            raise UnresolvedBranch(f"{wave.kind}: f(xi0) = {f0!r} lies in no band of F > 0: "
                                   "no orbit", candidate=wave)
        z = min(multiple, key=lambda v: abs(f0 - v))  # whose orbit is that rest point
        dev = float(np.max(np.abs(wave.profile(np.linspace(*wave.window, 129))[0] - z)))
        return OrbitReading(dev, gate, dev < gate)
    zeros = wave.roots.values()
    w = math.ldexp(1.0, math.frexp(float(max(zeros) - min(zeros)))[1])
    try:
        orb = Orbit(*(v / w for v in picked[:2]), [v / w for v in picked[2]], f0 / w, fp0 / w / w)
    except (ArithmeticError, ValueError) as err:
        raise UnresolvedBranch(f"{wave.kind}: the orbit quadrature leaves the floats ({err})",
                               candidate=wave) from None
    if not orb.bound * w < 0.1 * gate:
        raise UnresolvedBranch(f"{wave.kind}: the orbit quadrature did not converge: its error "
                               f"moves f by up to {orb.bound * w:.3e}, against the bound "
                               f"{gate:.3e}", candidate=wave)
    # the orbit turns at e, at xi_e; f(xi_e +- xi(theta)) = f(theta)
    xi_e = start - orb.xi0 / w if fp0 * orb.w >= 0.0 else start + orb.xi0 / w
    xi, f = orb.xi / w, w * orb.f
    dev = max(float(np.max(np.abs(wave.profile(xi_e + sign * xi)[0] - f))) for sign in (1.0, -1.0))
    return OrbitReading(dev, gate, dev < gate)


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
