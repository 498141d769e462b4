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

Per call, not per step: the zeros of F, and for each simple zero its series
constants A2, A4, A6, its window and the window's reach (``_Turn``), which the
window test, the series inversion and the series steps read.  A plain step
inverts the series of a zero only while (f - r)/A2 is within twice the
window's reach; farther off the inversion cannot put f inside the window (see
``_Turn``).  So a plain step's tests can fire only while f lies in a watched
interval: [r, r + far A2] for each simple zero (a half-line when ``far`` is
inf) and r +- 1e-10 for each multiple zero.  Every RK4 stage slope has the
sign s, so f moves one way between events, and from a plain step outside
every watched interval the loop commits steps in one guarded run
(``_Quartic.rk4``): F written out in place, four evaluations of F per step,
the last at the new point, where it serves both the event test and the next
step's first stage, and no test but F >= 0 and the nearest watched edge
ahead.  The trial step that stops the run (an event, or the edge crossed) is
handed to the per-step tests unchanged, so every float operation, and the
profile, is the one a step-by-step loop gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUp, InvalidConfiguration
from .quartic import Params, eval_F_deriv, first_integral_residual, roots_of_F, scaled_bound
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

# the most grid points oracle_integrate samples: its lists, arrays and a
# CSV of them take some 200 bytes a point, so this many take about 200 MB
MAX_ORACLE_POINTS = 10 ** 6
_CLAMP_TOL = 1e-10
_EVENT_BISECTIONS = 60
_REACH_MARGIN = 2.0  # plain steps invert the series within twice its reach
_GUARD_PAD = 1e-12  # relative widening of the watched intervals
_BAND_SLACK = 1e-6  # how far (relative to the zeros' scale) f may leave its band


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


def ode_residual(sol: ClosedFormSolution, p: Params, domain=(-10.0, 10.0),
                 n: int = 2000) -> float:
    """Max over the grid of |f'^2 - F(f)| using the analytic derivative."""
    if n < 2:
        raise ValueError("need n >= 2")
    return sol.residual(np.linspace(domain[0], domain[1], n), p)


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

    def rk4(self):
        """A run of RK4 steps of f' = s sqrt(max(F(f), 0)), with F written
        out in the same form and order as ``F``:
        ``run(f, hh, k1, s, sg, i, n, fs, fps) -> (i, f, k1, x, v)``.

        From f and its first stage k1, each step of length hh takes the trial
        point x and v = F(x), and commits it (f = x, k1 = s sqrt(v), stored
        at fs[i + 1] and fps[i + 1], i += 1) while v >= 0 and s x < sg.  The
        run returns the last committed state with the trial that stopped it,
        or with x = v = None once i reaches n.  sg = -inf takes one trial step
        and commits nothing."""
        sqrt = math.sqrt
        if self.factors is not None:
            r1, r2, r3, r4 = self.factors

            def run(f, hh, k1, s, sg, i, n, fs, fps):
                h2 = 0.5 * hh
                h6 = hh / 6.0
                while i < n:
                    x = f + h2 * k1
                    v = -(x - r1) * (x - r2) * (x - r3) * (x - r4)
                    k2 = s * sqrt(0.0 if v < 0.0 else v)
                    x = f + h2 * k2
                    v = -(x - r1) * (x - r2) * (x - r3) * (x - r4)
                    k3 = s * sqrt(0.0 if v < 0.0 else v)
                    x = f + hh * k3
                    v = -(x - r1) * (x - r2) * (x - r3) * (x - r4)
                    k4 = s * sqrt(0.0 if v < 0.0 else v)
                    x = f + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                    v = -(x - r1) * (x - r2) * (x - r3) * (x - r4)
                    if v < 0.0 or not s * x < sg:
                        return i, f, k1, x, v
                    f = x
                    k1 = s * sqrt(v)
                    i += 1
                    fs[i] = f
                    fps[i] = k1
                return i, f, k1, None, None

            return run
        c4, c3, c2, c1, c0 = self.c4, self.c3, self.c2, self.c1, self.c0

        def run(f, hh, k1, s, sg, i, n, fs, fps):
            h2 = 0.5 * hh
            h6 = hh / 6.0
            while i < n:
                x = f + h2 * k1
                v = (((c4 * x + c3) * x + c2) * x + c1) * x + c0
                k2 = s * sqrt(0.0 if v < 0.0 else v)
                x = f + h2 * k2
                v = (((c4 * x + c3) * x + c2) * x + c1) * x + c0
                k3 = s * sqrt(0.0 if v < 0.0 else v)
                x = f + hh * k3
                v = (((c4 * x + c3) * x + c2) * x + c1) * x + c0
                k4 = s * sqrt(0.0 if v < 0.0 else v)
                x = f + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                v = (((c4 * x + c3) * x + c2) * x + c1) * x + c0
                if v < 0.0 or not s * x < sg:
                    return i, f, k1, x, v
                f = x
                k1 = s * sqrt(v)
                i += 1
                fs[i] = f
                fps[i] = k1
            return i, f, k1, None, None

        return run


class _Turn:
    """The turning series at one simple zero r, built once per oracle call:
    its constants A2, A4, A6, its window in xi, and ``far``, the value of
    (f - r)/A2 past which plain steps do not invert the series."""

    __slots__ = ("r", "A2", "A4", "A6", "window", "far")

    def __init__(self, q: _Quartic, r: float, h: float):
        fp, fpp, fppp = (eval_F_deriv(q.p, r, k) for k in (1, 2, 3))
        self.r = r
        self.A2 = A2 = fp / 4.0
        self.A4 = A4 = fpp * fp / 96.0
        self.A6 = A6 = fpp * fpp * fp / 5760.0 + fppp * fp * fp / 1920.0
        # the series' local convergence scale at r
        ell = 1.0
        if A4 != 0.0:
            ell = min(ell, math.sqrt(abs(A2 / A4)))
        if A6 != 0.0:
            ell = min(ell, abs(A2 / A6) ** 0.25)
        # wide enough that RK4 never sees the square-root singularity,
        # narrow enough that the series stays exact
        self.window = max(3.0 * h, min(math.sqrt(h), 0.075 * ell))
        # The window's reach in d^2 = (f - r)/A2 is (at(window) - r)/A2.
        # When the window lies within 0.075 ell, the fixed-point map of
        # time_to, d^2 -> ((f - r) - d^4 (A4 + A6 d^2))/A2, contracts over it
        # (|A4| d^2 and |A6| d^4 stay below 0.075^2 and 0.075^4 of |A2|), so
        # the inverted time grows with (f - r)/A2 and leaves the window with
        # the reach.  Past twice the reach f lies beyond the contraction
        # region, where the inversion means nothing: for f in the band of
        # F >= 0 next to r, all that an orbit reaches, time_to returns inf or
        # a time beyond the window there, so a plain step skips it
        # (tests/test_verify.py sweeps random quartics for this), and the
        # guarded runs of plain steps pass it by.  A window widened to 3h
        # past 0.075 ell has no contraction region: every f on its side is
        # inverted, and that whole side is watched, so plain steps there
        # take the per-step tests one at a time.
        self.far = math.inf
        if A2 != 0.0 and 3.0 * h <= 0.075 * ell:
            reach = (self.at(self.window)[0] - r) / A2
            if reach > 0.0:
                self.far = _REACH_MARGIN * reach

    def at(self, delta):
        """(f, f') a distance delta in xi past the turning point."""
        d2 = delta * delta
        f = self.r + d2 * (self.A2 + d2 * (self.A4 + d2 * self.A6))
        fprime = delta * (2.0 * self.A2 + d2 * (4.0 * self.A4 + 6.0 * self.A6 * d2))
        return f, fprime

    def time_to(self, f):
        """Series inversion: |delta| with at(delta)[0] = f, or inf when f is
        outside the series' reach (wrong side, or inversion diverges)."""
        A2, A4, A6 = self.A2, self.A4, self.A6
        u = f - self.r
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


def _watched(approachable, multi):
    """The intervals of f, (lo, hi), where a plain step's tests can fire:
    [r, r + far A2] (a half-line when far is inf) for each approachable
    simple zero, and r +- _CLAMP_TOL for each multiple zero.  Each is widened
    on both sides by _GUARD_PAD times |r| plus its width, far more than the
    rounding of the tests' own arithmetic, so that no f outside passes a
    test."""
    out = []
    for r, A2, far, _ in approachable:
        w = far * A2
        pad = _GUARD_PAD * (abs(r) + (abs(w) if far < math.inf else 0.0))
        lo, hi = (r, r + w) if A2 > 0.0 else (r + w, r)
        out.append((lo - pad, hi + pad))
    for r in multi:
        pad = _CLAMP_TOL + _GUARD_PAD * (abs(r) + _CLAMP_TOL)
        out.append((r - pad, r + pad))
    return out


def _guard(watched, f, s):
    """s times the nearest watched edge ahead of f in direction s (inf when
    none is ahead), or -inf when f lies in a watched interval."""
    sg = math.inf
    for lo, hi in watched:
        if lo <= f <= hi:
            return -math.inf
        near = s * (lo if s > 0.0 else hi)
        if s * f < near < sg:
            sg = near
    return sg


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

    Raises ValueError unless h is finite and positive, length finite and
    >= 0, the grid at most MAX_ORACLE_POINTS points and f0 finite,
    InvalidConfiguration when F(f0) < 0, and BlowUp when a step too coarse
    for the orbit takes f, f' or g past the floats, or f out of the band of
    F >= 0 it starts in by more than 1e-6 times the zeros' scale.
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
    q = _Quartic(p, factor_roots=rm.expand() if rm.total() == 4 else None)
    # relative to the zeros' scale, like the residual gate: F near a zero
    # carries rounding of order eps * scale^4
    if q.F(f0) < -scaled_bound(1e-12, rm.scale(), 4):
        raise InvalidConfiguration(
            f"start point infeasible: F({f0}) = {q.F(f0):.3e} < 0"
        )
    simple = [v for v, m in rm.entries if m == 1]
    multi = [v for v, m in rm.entries if m >= 2]
    turns = {r: _Turn(q, r, h) for r in simple}
    # the zeros whose window the plain steps test (A2 = 0 has no series)
    approachable = [(t.r, t.A2, t.far, t) for t in turns.values() if t.A2 != 0.0]
    watched = _watched(approachable, multi)
    run = q.rk4()

    n = int(round(length / h))
    # Python lists take item stores faster than numpy arrays
    fs = [0.0] * (n + 1)
    fps = [0.0] * (n + 1)
    fs[0] = f0
    s = 1.0 if sign >= 0 else -1.0
    events: list[float] = []

    f = f0
    # RK4's k1 = s sqrt(max(F(f), 0)), kept from the last plain step; None
    # once a series step has moved f (s flips only on leaving the series; a
    # clamp ends the stepping)
    k1 = fps[0] = s * math.sqrt(max(q.F(f0), 0.0))
    clamp_to = None
    mode = None  # (turn, delta): inside the series window, delta since xi*

    # starting exactly at a simple turning point: enter the window immediately
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
                    continue  # on the wrong side of this zero, or beyond reach
                tau = t.time_to(f)
                if not tau <= t.window:
                    continue  # outside the series window
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
        # f moves one way between events, so no test fires on a plain step
        # that stays short of the nearest watched edge ahead: commit those
        # steps in one run, and take the trial that stopped it (an event, a
        # crossed edge; the only trial when f is watched) through the tests
        i, f, k1, ftrial, Ftrial = run(f, h, k1, s, _guard(watched, f, s),
                                       i, n, fs, fps)
        if ftrial is None:
            break
        if Ftrial < 0.0:
            # event inside this step: bisect the step length (a run with
            # sg = -inf is one trial step)
            lo, hi = 0.0, h
            for _ in range(_EVENT_BISECTIONS):
                mid = 0.5 * (lo + hi)
                if run(f, mid, k1, s, -math.inf, 0, 1, None, None)[4] < 0.0:
                    hi = mid
                else:
                    lo = mid
            fstar = run(f, lo, k1, s, -math.inf, 0, 1, None, None)[3]
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
        # F(ftrial) is not negative here (or NaN, which max(F, 0.0) keeps)
        k1 = fps[i + 1] = s * math.sqrt(Ftrial)
        fs[i + 1] = f
        i += 1
        for r in multi:
            if abs(f - r) < _CLAMP_TOL:
                clamp_to = r
    xi = np.arange(n + 1) * h
    fs, fps = np.array(fs), np.array(fps)
    pf = p.as_floats()
    with np.errstate(over="ignore", invalid="ignore"):
        g = g_from_f(fs, pf.c, pf.d1)
    lost = ~(np.isfinite(g) & np.isfinite(fps))  # g is not finite where f is not
    if lost.any():
        at = float(xi[lost.argmax()])
        raise BlowUp(f"the orbit overflowed at xi = {at:.6g}: a step h = {h} is too "
                     f"coarse for it", t=at)
    # no orbit passes a zero of F (it turns at a simple one and only nears a
    # multiple one), so f stays between the nearest zeros below and above
    # f0; a zero within the slack of f0 (a start at that zero) bounds neither
    slack = _BAND_SLACK * rm.scale()
    lo = max([v for v in rm.values() if v < f0 - slack], default=-math.inf)
    hi = min([v for v in rm.values() if v > f0 + slack], default=math.inf)
    if fs.min() < lo - slack or fs.max() > hi + slack:
        at = float(xi[((fs < lo - slack) | (fs > hi + slack)).argmax()])
        raise BlowUp(f"the orbit left its band [{lo:.6g}, {hi:.6g}] at xi = {at:.6g}: "
                     f"a step h = {h} is too coarse for it", t=at)
    return Profile(xi=xi, f=fs, f_prime=fps, g=g, events=tuple(events))


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
        from scipy.interpolate import CubicSpline  # deferred: slow to import

        good = np.isfinite(b.f)
        spline = CubicSpline(b.xi[good], b.f[good])
        mask = (xa >= lo) & (xa <= hi) & np.isfinite(fa)
        fb = np.empty_like(fa)
        fb[mask] = spline(xa[mask])
    diff = fa[mask] - fb[mask]
    if diff.size == 0:
        raise InvalidConfiguration("no comparable samples")
    return float(np.max(np.abs(diff))), float(np.sqrt(np.mean(diff * diff)))
