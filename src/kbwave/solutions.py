"""Closed-form traveling waves: solitary, trigonometric and elliptic families.

Every constructor returns a :class:`ClosedFormSolution` in one representation,
a linear-fractional (Moebius) map of a Jacobi-type kernel,

    f(xi) = (A + B y) / (C + D y),   y = kernel(beta (xi - xi0), k),
    f'(xi) = (B C - A D) beta y' / (C + D y)^2,

with the kernel one of sn, cn, dn, sn^2, sin, sech, the triple-zero rational
kernel 1/(1 + x^2), or the constant 1 (Byrd & Friedman, Handbook of Elliptic
Integrals).  A form whose denominator C + D y can vanish over the kernel's
range is refused at construction with InvalidConfiguration: F(f) = -f^4 + ...
is negative for large |f|, so no real solution of f'^2 = F(f) reaches a pole.

Every constructor returns through ``_solution``, which runs the gates before
the object is surfaced: the first-integral residual f'(xi)^2 = F(f(xi)) on a
grid, for every form, constants included; and for a form with a modulus (the
Jacobi kernels sn, cn, dn, sn^2) the orbit through f(xi0), followed over one
period by quadrature of xi(f) = int df / sqrt(F) (see ``_orbit_check``).
Where the classical printed formulas for a family fail these gates, the
constructor applies a documented correction and records it in the solution's
provenance notes; the static :data:`DISCREPANCIES` table aggregates them.

Families
--------
* ``solitary_double``  pulse between a double zero and one simple zero,
  2/(c1 +- c2 cosh) profile, exponential decay to the double zero;
* ``periodic_trig``    bounded 2/(c1 +- c2 sin) orbit between two simple
  zeros when the double zero lies outside their band;
* ``solitary_triple``  algebraically decaying pulse at a triple zero;
* ``limiting_form``    the reduced sech / rational shapes of the solitary
  pulse under special root constraints;
* ``case1``            u = gamma + alpha * (cn | dn)(beta xi), requires the
  zero relation f4 = f1 + f3 - f2 (equivalently d2 = c d1);
* ``case2``            u = 1/(a + b * y(beta xi)) for y in sn, cn, dn, 1/sn,
  1/cn, requiring f4 = f1 f2 f3 / (f2 f3 + f1 f2 - f1 f3) (d2 = -4 d3 a),
  one ``CASE2_KERNELS`` row per kernel; the tn and dn*tn kernels admit no
  real parameters and raise Infeasible with the computed witness;
* ``general_sn2``      the general four-root family f = (a1 + b1 sn^2) /
  (a2 + b2 sn^2), one branch per initial root.

A constructor returns a validated solution or raises: :class:`Infeasible`
(an :class:`InfeasibleBranch`) when the requested member has no real
parameters for the zeros, InvalidConfiguration when the zeros do not fit the
family, are not finite, or give a form whose arithmetic leaves the floats
(each public constructor runs inside ``_in_floats``, the one place its
float errors are caught), UnresolvedBranch when a candidate fails a
validation gate.  The two-branch families take ``branch="upper"`` or
``"lower"``, no other word.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.chebyshev import chebint, chebvander

from .elliptic import complete_K, jacobi, normalize_modulus
from .errors import Infeasible, InvalidConfiguration, UnresolvedBranch
from .quartic import (Params, RootMultiset, bands, classify, eval_F,
                      first_integral_residual, params_from_roots, scaled_bound)
from .reduction import g_from_f

__all__ = [
    "ClosedFormSolution",
    "Infeasible",
    "solitary_double",
    "periodic_trig",
    "solitary_triple",
    "limiting_form",
    "case1",
    "case2",
    "general_sn2",
    "u_v_pair",
    "DISCREPANCIES",
    "discrepancy_report",
    "RESIDUAL_RTOL",
]

RESIDUAL_RTOL = 1e-8          # defining-residual gate: < RTOL * scale^4
ORBIT_RTOL = 1e-6             # orbit check: |closed form - orbit| < RTOL * scale
MODULUS_CLAMP = 1e-9          # k^2 in (1, 1+clamp] snaps to 1; in [-clamp, 0) to 0
# k^2 comes from the zeros in a few rounded operations, so a k^2 of 0 comes
# out within a few ulps of 0 (fig-case2f: 1.7e-16); its square root, ~1e-8,
# would pass the 1e-12 snap of k in normalize_modulus, so k^2 snaps first
K2_ROUNDING = 4.0 * np.finfo(float).eps
# case1's and case2's fourth zero comes from the other three in a few rounded
# operations, so one equal to another lands a few ulps off it (fig-case2e: 1
# ulp, fig-case2bc-k1: 2): their zeros merge, at the mean, only this close
# (relative); zeros farther apart are distinct
_SAME_ZERO = 8.0 * np.finfo(float).eps

DISCREPANCIES = (
    {
        "id": "periodic-frequency-absolute-value",
        "applies_to": "periodic_trig",
        "detail": (
            "the frequency of the 2/(c1 +- c2 sin) orbit is "
            "sqrt(|(f_dbl - f_s1)(f_s2 - f_dbl)|); the signed product is "
            "negative in every configuration where the orbit exists"
        ),
    },
    {
        "id": "cosh-ratio-scaled-by-double-root",
        "applies_to": "limiting_form(b)",
        "detail": (
            "the reduced cosh-ratio profile carries an overall factor of the "
            "double root f_dbl: f = f_dbl*c2*cosh/(c1 + c2*cosh); the "
            "unscaled ratio is correct only when f_dbl = 1"
        ),
    },
    {
        "id": "band-pairing-complementary",
        "applies_to": "general_sn2",
        "detail": (
            "bounded sn^2 branches pair each starting root with the opposite "
            "extreme (f1<->f4, f2<->f3) and use modulus^2 = "
            "((f2-f1)(f4-f3))/((f3-f1)(f4-f2)); adjacent pairing with the "
            "complementary modulus fails the defining residual for sorted roots"
        ),
    },
)


def discrepancy_report():
    """Machine-readable table of corrections applied to printed formulas."""
    return [dict(d) for d in DISCREPANCIES]


# ---------------------------------------------------------------------------
# kernels: y(x, k) and dy/dx, with the period in x and the range of y
# ---------------------------------------------------------------------------

# The elliptic kernels call ``jacobi`` through this module's global name.
# Every kernel may overwrite x, a fresh array (0-d for one point); the sin,
# sech and rational kernels do, and compute in place what the expression in
# their comment gives, bit for bit: its IEEE operations, in its order.


def _sn(x, k):
    s, c, d = jacobi(x, k)
    return s, c * d


def _cn(x, k):
    s, c, d = jacobi(x, k)
    return c, -s * d


def _dn(x, k):
    s, c, d = jacobi(x, k)
    return d, -(k * k) * s * c


def _sn2(x, k):
    s, c, d = jacobi(x, k)
    return s * s, 2.0 * s * c * d


def _sin(x, k):  # sin(x), cos(x)
    return np.sin(x), np.cos(x, out=x)


def _sech(x, k):  # y = 2 e / (1 + e e) with e = exp(-|x|), and -y tanh(x)
    # exp(-|x|) <= 1 form: no cosh overflow in the far tails
    e = np.abs(x, out=np.empty_like(x))
    np.negative(e, out=e)
    np.exp(e, out=e)
    y = e * 2.0
    e *= e
    e += 1.0
    y /= e
    np.negative(y, out=e)
    np.tanh(x, out=x)
    x *= e
    return y, x


def _rational(x, k):  # y = 1 / (1 + x x), and -2 x y y
    with np.errstate(over="ignore"):  # x * x = inf far out, where y is 0
        y = np.multiply(x, x, out=np.empty_like(x))
        y += 1.0
        np.divide(1.0, y, out=y)
    x *= -2.0
    x *= y
    x *= y
    return y, x


def _const(x, k):
    return np.ones_like(x), np.zeros_like(x)


def _none(_):
    return None


def _periods_K(n):
    """Period n K(k) in the argument; none at k = 1, where the kernel is a pulse."""
    return lambda k: n * complete_K(k) if k < 1.0 else None


def _algebraic_decay(beta):
    # rational kernel: f - f_triple ~ 4/(amp xi^2) with |amp| = 2 beta
    return math.sqrt(2.0 * abs(beta))


class _Kernel(NamedTuple):
    fn: Callable      # (x, k) -> (y, dy/dx)
    period: Callable  # k -> period in x, or None for a pulse
    span: Callable    # k -> (min y, max y) over the orbit
    decay: Callable   # beta -> decay rate of the pulse, or None


_KERNELS = {
    "sn": _Kernel(_sn, _periods_K(4.0), lambda k: (-1.0, 1.0), abs),
    "cn": _Kernel(_cn, _periods_K(4.0), lambda k: (0.0 if k == 1.0 else -1.0, 1.0), abs),
    "dn": _Kernel(_dn, _periods_K(2.0),
                  lambda k: (math.sqrt(max(0.0, (1.0 - k) * (1.0 + k))), 1.0), abs),
    "sn2": _Kernel(_sn2, _periods_K(2.0), lambda k: (0.0, 1.0), abs),
    "sin": _Kernel(_sin, lambda k: 2.0 * math.pi, lambda k: (-1.0, 1.0), abs),
    "sech": _Kernel(_sech, _none, lambda k: (0.0, 1.0), abs),
    "rational": _Kernel(_rational, _none, lambda k: (0.0, 1.0), _algebraic_decay),
    "const": _Kernel(_const, _none, lambda k: (1.0, 1.0), _none),
}


# ---------------------------------------------------------------------------
# the solution type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedFormSolution:
    """Evaluable closed-form traveling wave f(xi), xi = x - c t.

    f = (A + B y)/(C + D y) with y = kernel(beta (xi - xi0), modulus); the
    kernel names an entry of the kernel table (sn, cn, dn, sn2, sin, sech,
    rational, const).  Construction raises InvalidConfiguration when C + D y
    can vanish over the kernel's range, so every instance is pole-free.
    Immutable after construction and safe to share across threads.  The
    defining property, checked by ``_solution``, is (f')^2 = F(f) with F the
    quartic of ``params``.  ``variant`` labels the reduced forms (sech
    limits, constants).
    """

    kind: str
    roots: RootMultiset
    params: Params
    A: float
    B: float
    C: float
    D: float
    kernel: str
    beta: float = 0.0
    modulus: float | None = None
    xi0: float = 0.0
    branch: str = "upper"
    notes: tuple = ()
    variant: str | None = None

    def __post_init__(self):
        if not math.isfinite(self.xi0):
            raise ValueError(f"xi0 must be finite, got {self.xi0}")
        if self.kernel not in _KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}; expected one of {tuple(_KERNELS)}")
        lo, hi = _KERNELS[self.kernel].span(self.modulus)
        ends = (self.C + self.D * lo, self.C + self.D * hi)
        if not (min(ends) > 0.0 or max(ends) < 0.0):
            raise InvalidConfiguration(
                f"{self.kind}: denominator C + D*y = {self.C!r} + {self.D!r}*y "
                f"vanishes for y in [{lo!r}, {hi!r}]"
            )

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, xi):
        """Return (f, f') at xi (scalar or array)."""
        f, fp = self.profile(xi)
        if np.ndim(xi) == 0:
            return float(f), float(fp)
        return f, fp

    def profile(self, xi):
        """Vector evaluation returning (f, f_prime); numpy scalars for a
        scalar xi.

        With D == 0 the denominator C + D y is the constant C for every
        finite kernel value (y D is a zero, and C is not), so f is divided
        by C and f' by C C, and by nothing when C == 1: the same IEEE
        operations on the same numbers as the general form, so the same
        bits."""
        # in place, bit for bit x = beta (xi - xi0), f = (A + B y) / den
        # with den = C + D y, and f' = (B C - A D) beta y' / (den den)
        x = np.array(xi, dtype=float)
        x -= self.xi0
        x *= self.beta
        y, yp = _KERNELS[self.kernel].fn(x, self.modulus)
        C, D = self.C, self.D
        f = y * self.B
        f += self.A
        yp *= (self.B * C - self.A * D) * self.beta
        if D != 0.0:
            den = y * D
            den += C
            f /= den
            den *= den
            yp /= den
        elif C != 1.0:
            f /= C
            yp /= C * C
        if x.ndim == 0:
            return np.float64(f), np.float64(yp)
        return f, yp

    def __call__(self, xi):
        return self.evaluate(xi)[0]

    def residual(self, xi, params: Params | None = None) -> float:
        """max |f'^2 - F(f)| over the points xi, with F the quartic of
        ``params`` (default: the solution's own)."""
        f, fp = self.profile(xi)
        return first_integral_residual(self.params if params is None else params.as_floats(),
                                       f, fp)

    @property
    def residual_bound(self) -> float:
        """The defining-residual gate the constructors enforce: RESIDUAL_RTOL * scale^4.
        Raises ValueError when scale^4 does not fit a float."""
        return scaled_bound(RESIDUAL_RTOL, self.roots.scale(), 4)

    # -- descriptive properties ----------------------------------------------

    @property
    def c(self) -> float:
        """The wave speed, the c of ``params``."""
        return self.params.c

    @property
    def case_tag(self):
        return classify(self.roots)

    @property
    def non_global(self) -> bool:
        """Always False: construction refuses forms with a pole."""
        return False

    @property
    def period(self) -> float | None:
        """Fundamental period in xi, or None for non-periodic solutions."""
        P = _KERNELS[self.kernel].period(self.modulus)
        return None if P is None else P / abs(self.beta)

    @property
    def decay_rate(self) -> float | None:
        """Exponential decay rate toward the double zero, or the algebraic
        coefficient sqrt|f_simple - f_triple| for the triple-zero pulse;
        None for periodic and constant solutions."""
        if self.period is not None:
            return None
        return _KERNELS[self.kernel].decay(self.beta)

    def with_phase(self, xi0: float) -> "ClosedFormSolution":
        return replace(self, xi0=float(xi0))


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _in_floats(ctor):
    """The numeric boundary of a public constructor: a float error inside it
    leaves as InvalidConfiguration, since a form whose arithmetic leaves the
    floats has no wave to return.  Python's float errors always raise;
    numpy's raise where the caller's ``np.errstate`` says so, as the CLI's
    does, and otherwise warn, leaving inf or NaN to the gates."""

    @functools.wraps(ctor)
    def checked(*args, **kwargs):
        try:
            return ctor(*args, **kwargs)
        except ArithmeticError as err:  # FloatingPoint-, Overflow-, ZeroDivisionError
            raise InvalidConfiguration(
                f"{ctor.__name__}: the form does not fit a float for these zeros ({err.args[-1]})"
            ) from None

    return checked


def _zeros(*vals) -> tuple:
    """The zeros a constructor is given, as floats; each must be finite."""
    fs = tuple(map(float, vals))
    if not all(map(math.isfinite, fs)):
        raise InvalidConfiguration(f"zeros must be finite, got {fs}")
    return fs


def _pulse_frequency(f_lo, f_dbl, f_hi):
    return math.sqrt((f_dbl - f_lo) * (f_hi - f_dbl))


def _branch_sign(branch) -> float:
    """+1 on the upper branch, -1 on the lower; any other word is refused."""
    if branch not in ("upper", "lower"):
        raise ValueError(f"branch must be 'upper' or 'lower', got {branch!r}")
    return 1.0 if branch == "upper" else -1.0


def _modulus(k2) -> float:
    """The modulus of a computed k^2: rounding of 0 is 0, and k^2 is clamped
    to [0, 1] (each family refuses a k^2 farther outside itself)."""
    return normalize_modulus(math.sqrt(min(k2, 1.0))) if k2 > K2_ROUNDING else 0.0


# ---------------------------------------------------------------------------
# validation gate
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4)  # _residual_gate's 513 points and the orbit check's 129
def _ramp(n):
    """``np.arange(n, dtype=float)``, read-only: ``_window`` copies it."""
    x = np.arange(n, dtype=float)
    x.flags.writeable = False
    return x


def _window(sol, n):
    """n points over half a period either side of xi0, or +-10 for a pulse:
    bit for bit ``np.linspace(xi0 - half, xi0 + half, n)``, whose arithmetic
    this repeats without its wrapper."""
    T = sol.period
    half = 0.5 * T if T is not None else 10.0
    start, stop = sol.xi0 - half, sol.xi0 + half
    delta = stop - start
    x = _ramp(n).copy()
    step = delta / (n - 1)
    if step == 0.0:  # a subnormal step underflows: scale the ramp, then delta
        x /= n - 1
        x *= delta
    else:
        x *= step
    x += start
    x[-1] = stop
    return x


def _residual_gate(sol, n=513):
    """Max defining residual |f'^2 - F(f)| over a grid; raises if over gate.
    The gate comes first: zeros too large for it are refused unsampled."""
    gate = sol.residual_bound
    res = sol.residual(_window(sol, n))
    if not res < gate:
        raise UnresolvedBranch(
            f"{sol.kind} failed the defining residual gate: {res:.3e} >= {gate:.3e}",
            candidate=sol,
        )
    return res


# The orbit check follows the wave through f0 = f(xi0) by quadrature of
# xi(f) = int df / sqrt(F), with F = -prod(f - r) factored from sol.roots.
# In a band [e, o] of F > 0 the substitution f = e + (o - e) sin^2(theta)
# (Byrd & Friedman) removes both turning-point singularities:
#
#     d xi / d theta = 2 / sqrt(Q(f)),   Q = (f - r3)(f - r4),
#
# r3, r4 the zeros other than e and o.  Q is small only where r3 or r4 nearly
# meets a band edge, and vanishes there when that edge is a double zero (a
# pulse, whose xi diverges logarithmically).  Chebyshev-Lobatto panels, halved
# toward each such edge down to the width of its feature, integrate d xi /
# d theta to near machine precision; a pulse is followed until |f - o| is
# about 1e-14 |o - e|.

_PANEL = 16
_LOBATTO = -np.cos(np.pi * np.arange(_PANEL) / (_PANEL - 1))  # ascending on [-1, 1]
_TO_COEFFS = np.linalg.inv(chebvander(_LOBATTO, _PANEL - 1))
# values at the nodes -> integral from -1 to each node
_CUMULATIVE = (chebvander(_LOBATTO, _PANEL) @ chebint(np.eye(_PANEL), lbnd=-1.0)
               @ _TO_COEFFS)
_PULSE_CUTOFF = 1e-7  # pi/2 - theta where a pulse's quadrature stops
_QUADRANT = 0.25 * math.pi


def _halvings(depth):
    """Panel breaks pi/4 * 2**-j, ascending, the smallest no wider than depth."""
    m = max(0, math.ceil(math.log2(_QUADRANT / depth)))
    return [_QUADRANT * 0.5 ** j for j in range(m, 0, -1)]


def _band(sol, f0, gate):
    """The band (e, o) of F > 0 that holds f0, anchored at a simple zero e,
    and the two other zeros; raises when f0 lies outside every band."""
    zeros = sol.roots.expand()
    spans = [(lo.value, hi.value) for lo, hi in bands(sol.params, sol.roots)]
    dist = [max(lo - f0, f0 - hi, 0.0) for lo, hi in spans]
    if not dist or not min(dist) < gate:
        raise UnresolvedBranch(
            f"{sol.kind} failed the orbit check: f(xi0) = {f0!r} lies in no band "
            f"of F > 0 for the zeros {zeros}", candidate=sol)
    lo, hi = spans[dist.index(min(dist))]
    rest = list(zeros)
    rest.remove(lo)
    rest.remove(hi)
    # a double zero cannot bound the band on both sides (F <= 0 there), so
    # at least one edge is simple; anchor there, where the orbit turns
    if min(abs(r - lo) for r in rest) >= min(abs(r - hi) for r in rest):
        return lo, hi, rest
    return hi, lo, rest


def _orbit_check(sol):
    """Compare the closed form with the orbit of f'^2 = F(f) through f(xi0)
    over one period (or, for a pulse, until it meets its double zero), at
    the bound ORBIT_RTOL * scale; raises UnresolvedBranch with the solution
    as candidate.  Returns the largest deviation."""
    gate = ORBIT_RTOL * sol.roots.scale()
    f0, fp0 = sol.evaluate(sol.xi0)
    rest_point = [v for v, m in sol.roots.entries if m > 1 and abs(f0 - v) < gate]
    if rest_point:
        # the orbit through a double zero is that zero: the form must stay there
        f, _ = sol.profile(_window(sol, 129))
        return _orbit_verdict(sol, float(np.max(np.abs(f - rest_point[0]))), gate)

    e, o, (r3, r4) = _band(sol, f0, gate)
    w = o - e
    depth = {z: math.sqrt(min(abs(r3 - z), abs(r4 - z)) / abs(w)) for z in (e, o)}
    breaks = [0.0, *_halvings(depth[e]), _QUADRANT]
    if depth[o] > 0.0:
        breaks += [0.5 * math.pi - b for b in (*_halvings(depth[o]), 0.0)]
    else:  # a pulse: stop short of the double zero
        breaks += [0.5 * math.pi - b for b in _halvings(_PULSE_CUTOFF)]

    # theta0 from f0 in the middle of the band and from |f'(xi0)| near its
    # edges, where f0 alone fixes theta0 only to the square root of its error
    def minus(z, sin2, cos2):  # f - z without cancellation near either edge
        return (e - z) + w * sin2 if abs(e - z) <= abs(o - z) else (o - z) - w * cos2

    s2, c2 = (min(max(v / w, 0.0), 1.0) for v in (f0 - e, o - f0))  # sin^2, cos^2
    q0 = abs(minus(r3, s2, c2) * minus(r4, s2, c2))
    sc = abs(fp0) / (abs(w) * math.sqrt(q0)) if q0 > 0.0 else 0.0  # sin * cos
    theta0 = math.atan2(sc, c2) if s2 <= c2 else 0.5 * math.pi - math.atan2(sc, s2)
    theta0 = min(theta0, max(breaks))

    breaks = np.array(sorted({*breaks, theta0}))  # np.unique's array, without its cost
    half = 0.5 * np.diff(breaks)
    theta = (0.5 * (breaks[:-1] + breaks[1:]))[:, None] + half[:, None] * _LOBATTO
    sin2, cos2 = np.sin(theta) ** 2, np.cos(theta) ** 2
    dxi = 2.0 / np.sqrt(minus(r3, sin2, cos2) * minus(r4, sin2, cos2))
    within = half[:, None] * (dxi @ _CUMULATIVE.T)
    before = np.concatenate(([0.0], np.cumsum(within[:, -1])))
    xi = before[:-1, None] + within

    f = e + w * sin2
    speed = float(np.sqrt(np.max(np.abs(eval_F(sol.params, f)))))
    # the two highest Chebyshev coefficients per panel bound the error in xi
    tail = np.abs(dxi @ _TO_COEFFS[-2:].T).sum(axis=1)
    bound = speed * float(np.sum(half * tail))
    if not bound < 0.1 * gate:
        raise UnresolvedBranch(
            f"{sol.kind}: the orbit quadrature did not converge: its error moves "
            f"f by up to {bound:.3e}, against the bound {gate:.3e}", candidate=sol)

    # the orbit turns at e, at xi_e; f(xi_e +- xi(theta)) = f(theta)
    s = 1.0 if fp0 * w >= 0.0 else -1.0
    xi_e = sol.xi0 - s * before[int(np.searchsorted(breaks, theta0))]
    worst = max(float(np.max(np.abs(sol.profile(xi_e + sign * xi)[0] - f)))
                for sign in (1.0, -1.0))
    return _orbit_verdict(sol, worst, gate)


def _orbit_verdict(sol, worst, gate):
    if not worst < gate:
        raise UnresolvedBranch(
            f"{sol.kind} failed the orbit check: {worst:.3e} >= {gate:.3e}",
            candidate=sol,
        )
    return worst


def _solution(kind, roots, xi0, mobius, kernel, **kw):
    """The one way a constructor returns a wave: the form (A + B y)/(C + D y)
    on ``kernel`` with the params of ``roots``, after the residual gate and,
    when the form has a modulus (the Jacobi kernels), the orbit check."""
    params = params_from_roots(roots).as_floats()
    A, B, C, D = map(float, mobius)
    sol = ClosedFormSolution(kind=kind, roots=roots, params=params, A=A, B=B, C=C, D=D,
                             kernel=kernel, xi0=float(xi0), **kw)
    _residual_gate(sol)
    if sol.modulus is not None:
        _orbit_check(sol)
    return sol


def _constant(kind, roots, xi0, value, **kw):
    return _solution(kind, roots, xi0, (value, 0.0, 1.0, 0.0), "const",
                     variant="constant", **kw)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


@_in_floats
def solitary_double(f_lo, f_dbl, f_hi, branch="upper", xi0=0.0) -> ClosedFormSolution:
    """Solitary pulse for a double zero between two simple zeros.

    f = f_dbl + 2 / (c1 +- c2 cosh(w (xi - xi0))) with
    c1 = 1/(f_lo - f_dbl) + 1/(f_hi - f_dbl), c2 = 1/(f_lo - f_dbl) -
    1/(f_hi - f_dbl) and w = sqrt((f_dbl - f_lo)(f_hi - f_dbl)); the branch
    selects which simple zero the pulse touches at xi0 ('upper' -> f_hi).
    Decays exponentially to f_dbl in both directions.  Evaluated through the
    sech kernel: f = (f_dbl s c2 + (f_dbl c1 + 2) sech) / (s c2 + c1 sech),
    s = -1 on the upper branch.
    """
    f_lo, f_dbl, f_hi = _zeros(f_lo, f_dbl, f_hi)
    if not (f_lo < f_dbl < f_hi):
        raise InvalidConfiguration(
            "not the solitary configuration: need f_lo < f_dbl < f_hi"
        )
    c1 = 1.0 / (f_lo - f_dbl) + 1.0 / (f_hi - f_dbl)
    c2 = 1.0 / (f_lo - f_dbl) - 1.0 / (f_hi - f_dbl)
    s_c2 = -_branch_sign(branch) * c2
    return _solution(
        "solitary_double", RootMultiset(((f_lo, 1), (f_dbl, 2), (f_hi, 1))), xi0,
        (f_dbl * s_c2, f_dbl * c1 + 2.0, s_c2, c1), "sech",
        beta=_pulse_frequency(f_lo, f_dbl, f_hi), branch=branch,
    )


@_in_floats
def periodic_trig(f_s1, f_s2, f_dbl, branch="lower", xi0=0.0) -> ClosedFormSolution:
    """Periodic orbit between two simple zeros with the double zero outside.

    f = f_dbl + 2 / (c1 +- c2 sin(w (xi - xi0))), w = sqrt(|(f_dbl - f_s1)
    (f_s2 - f_dbl)|), period 2 pi / w, bounded in [min simple, max simple];
    the branch picks the sign ('upper' -> +).  The two branches are
    xi-translates of the same orbit.
    """
    f_s1, f_s2, f_dbl = _zeros(f_s1, f_s2, f_dbl)
    lo, hi = min(f_s1, f_s2), max(f_s1, f_s2)
    if lo <= f_dbl <= hi:
        raise InvalidConfiguration(
            "double zero inside the simple-zero band: use solitary_double"
        )
    u1, u3 = f_s1 - f_dbl, f_s2 - f_dbl
    c1 = 1.0 / u1 + 1.0 / u3
    s_c2 = _branch_sign(branch) * (1.0 / u1 - 1.0 / u3)
    return _solution(
        "periodic_trig", RootMultiset(tuple(sorted([(lo, 1), (hi, 1), (f_dbl, 2)]))),
        xi0, (f_dbl * c1 + 2.0, f_dbl * s_c2, c1, s_c2), "sin",
        beta=math.sqrt(abs((f_dbl - lo) * (hi - f_dbl))), branch=branch,
        notes=("periodic-frequency-absolute-value",),
    )


@_in_floats
def solitary_triple(f_triple, f_simple, xi0=0.0) -> ClosedFormSolution:
    """Algebraically decaying pulse at a triple zero.

    f = f_triple + (f_simple - f_triple) / (1 + (1/4)(f_simple - f_triple)^2
    (xi - xi0)^2); touches the simple zero at xi0 and decays to the triple
    zero like an inverse square.
    """
    f_triple, f_simple = _zeros(f_triple, f_simple)
    if f_triple == f_simple:
        raise InvalidConfiguration("triple and simple zeros must differ")
    amp = f_simple - f_triple
    return _solution(
        "solitary_triple", RootMultiset(tuple(sorted([(f_triple, 3), (f_simple, 1)]))),
        xi0, (f_triple, amp, 1.0, 0.0), "rational", beta=0.5 * abs(amp),
        branch="upper" if amp > 0 else "lower",
    )


@_in_floats
def limiting_form(case, roots, branch="upper", xi0=0.0) -> ClosedFormSolution:
    """Reduced forms of the solitary pulse under special root constraints.

    ``roots`` is (f1, f2, f3) with f2 the double zero, f1 < f2 < f3.

    (a) f1 + f3 = 2 f2: pure sech pulse of amplitude
        2 (f2 - f1)(f3 - f2) / (f3 - f1);
    (b) 2 f1 f3 = f2 (f1 + f3): cosh-ratio form
        f2 c2 cosh / (c1 +- c2 cosh);
    (c) f2 = 0 (requires f1 f3 < 0): sech-ratio form
        2 f1 f3 sech / ((f1 + f3) sech +- (f3 - f1));
    (d) f2 -> f1 gives the constant f1; f2 -> f3 gives the triple-zero pulse.

    Constraints are checked to 1e-10 (relative); each form agrees pointwise
    with the generic constructor under its constraint.
    """
    f1, f2, f3 = _zeros(*roots)
    scale = max(1.0, abs(f1), abs(f2), abs(f3))
    tol = 1e-10 * scale
    s = -_branch_sign(branch)  # checked for case d too, which has one form

    if case == "d":
        if abs(f2 - f1) <= tol:
            rm = RootMultiset(tuple(sorted([(f1, 3), (f3, 1)])))
            return _constant("solitary_double", rm, xi0, f1)
        if abs(f2 - f3) <= tol:
            return solitary_triple(f3, f1, xi0=xi0)
        raise InvalidConfiguration("limiting constraint unmet: f2 must meet f1 or f3")

    if not (f1 < f2 < f3):
        raise InvalidConfiguration("need f1 < f2 < f3 with f2 the double zero")
    if case == "a":
        if abs(f1 + f3 - 2.0 * f2) > tol:
            raise InvalidConfiguration("limiting constraint unmet: f1 + f3 = 2 f2")
        amp = 2.0 * (f2 - f1) * (f3 - f2) / (f3 - f1)
        mobius, variant, notes = ((f2, -s * amp, 1.0, 0.0), "sech_pulse", ())
    elif case == "b":
        if abs(2.0 * f1 * f3 - f2 * (f1 + f3)) > tol * scale:
            raise InvalidConfiguration(
                "limiting constraint unmet: 2 f1 f3 = f2 (f1 + f3)"
            )
        c1 = 1.0 / (f1 - f2) + 1.0 / (f3 - f2)
        c2 = 1.0 / (f1 - f2) - 1.0 / (f3 - f2)
        mobius, variant, notes = (
            (f2 * c2, 0.0, c2, s * c1), "cosh_ratio", ("cosh-ratio-scaled-by-double-root",))
    elif case == "c":
        if abs(f2) > tol:
            raise InvalidConfiguration("limiting constraint unmet: f2 = 0")
        if not f1 * f3 < 0:
            raise InvalidConfiguration("sech-ratio form requires f1 f3 < 0")
        mobius, variant, notes = (
            (0.0, 2.0 * f1 * f3, s * (f3 - f1), f1 + f3), "sech_ratio", ())
    else:
        raise ValueError(f"case must be one of 'a', 'b', 'c', 'd', got {case!r}")
    return _solution(
        "solitary_double", RootMultiset(((f1, 1), (f2, 2), (f3, 1))), xi0, mobius,
        "sech", beta=_pulse_frequency(f1, f2, f3), branch=branch, variant=variant,
        notes=notes,
    )


@_in_floats
def case1(kind, f1, f2, f3, branch="upper", xi0=0.0) -> ClosedFormSolution:
    """Elliptic family u = gamma + alpha * y(beta (xi - xi0)), y = cn or dn.

    Inputs are three zeros with f1 <= f2 <= f3; the fourth is implied,
    f4 = f1 + f3 - f2, which is exactly the zero relation forcing the odd
    coefficients of the reduced quartic to vanish (d2 = c d1).  gamma =
    (f1 + f3)/2 = -c and alpha = +-(f3 - f1)/2; the branch selects the upper
    (+) or lower (-) oscillation band.

    For the cn kernel the modulus satisfies k^2 = (f3 - f1)^2 /
    (4 (f2 - f1)(f3 - f2)) >= 1 with equality only when 2 f2 = f1 + f3, so
    the branch is feasible only at k = 1 (the sech pulse); out-of-range
    moduli raise Infeasible.  The dn kernel has
    k = 2 sqrt((f2 - f1)(f3 - f2)) / (f3 - f1) in [0, 1] and is the genuinely
    periodic member of the family.
    """
    if kind not in ("cn", "dn"):
        raise ValueError("case1 kind must be 'cn' or 'dn'")
    f1, f2, f3 = sorted(_zeros(f1, f2, f3))
    f4 = f1 + f3 - f2  # the implied fourth zero; makes d2 = c d1 hold
    roots = RootMultiset.from_values([f1, f2, f3, f4], tol=_SAME_ZERO)
    sigma = _branch_sign(branch)
    gamma = 0.5 * (f1 + f3)
    if f3 - f1 <= 1e-14 * max(1.0, abs(f1)):
        return _constant(f"case1_{kind}", roots, xi0, f1, branch=branch)
    span2 = (f2 - f1) * (f3 - f2)
    if kind == "cn":
        if span2 <= 0.0:
            raise Infeasible("case1_cn", "branch infeasible for these roots: "
                             "cn needs f1 < f2 < f3", {"span2": span2})
        k2 = (f3 - f1) ** 2 / (4.0 * span2)
        if k2 > 1.0 + MODULUS_CLAMP:
            raise Infeasible("case1_cn", "branch infeasible for these roots: "
                             f"cn modulus^2 = {k2:.6g} > 1", {"k2": k2})
        beta = math.sqrt(span2)
    else:
        k2 = 4.0 * span2 / (f3 - f1) ** 2
        beta = 0.5 * (f3 - f1)
    k = _modulus(k2)
    if k == 0.0:
        # dn only (cn has k^2 >= 1): f2 meets f1 or f3, dn == 1, a band edge
        return _constant("case1_dn", roots, xi0, gamma + sigma * 0.5 * (f3 - f1),
                         branch=branch)
    return _solution(
        f"case1_{kind}", roots, xi0, (gamma, sigma * 0.5 * (f3 - f1), 1.0, 0.0), kind,
        beta=beta, modulus=k, branch=branch,
    )


def _case2_shared(f1, f2, f3):
    f1, f2, f3 = _zeros(f1, f2, f3)
    if f1 == 0.0 or f3 == 0.0:
        raise InvalidConfiguration("case2 needs f1, f3 != 0 (b would be undefined)")
    D = f2 * f3 + f1 * f2 - f1 * f3
    if D == 0.0:
        raise InvalidConfiguration("division by zero in the implied fourth zero")
    f4 = f1 * f2 * f3 / D
    a = (f1 + f3) / (2.0 * f1 * f3)
    b = (f1 - f3) / (2.0 * f1 * f3)
    vals = [f1, f2, f3, f4]
    # even reduced quartic in y: G(y) = -prod((1 - a f_i) - b f_i y)
    poly = np.array([1.0])
    for fi in vals:
        poly = np.convolve(poly, np.array([1.0 - a * fi, -b * fi]))
    g = -poly  # ascending coefficients g0..g4
    gscale = max(1.0, float(np.max(np.abs(g))))
    if abs(g[1]) > 1e-9 * gscale or abs(g[3]) > 1e-9 * gscale:
        raise InvalidConfiguration("odd coefficients failed to vanish")  # unreachable
    return f1, f2, f3, a, b, g, RootMultiset.from_values(vals, tol=_SAME_ZERO)


class _Case2Kernel(NamedTuple):
    """How one case2 kernel matches the reduced quartic's coefficients nu4,
    nu2 and nu0: its frequency^2, its modulus^2, and the ratio
    nu0 / (beta^2 b^2) that the constant term must reach."""

    beta2: Callable  # (nu2, nu4) -> beta^2
    k2: Callable     # (nu2, nu4, beta2) -> k^2
    ratio: Callable  # k2 -> nu0 / (beta^2 b^2)


# the kernels with real parameters, in the order of CASE2_KINDS and of the
# case2-* kinds; an inv_ kernel is the Moebius form y/(b + a y) of its base
CASE2_KERNELS = {
    "sn": _Case2Kernel(lambda nu2, nu4: -nu4 - nu2,
                       lambda nu2, nu4, beta2: nu4 / beta2, lambda k2: 1.0),
    "cn": _Case2Kernel(lambda nu2, nu4: -2.0 * nu4 - nu2,
                       lambda nu2, nu4, beta2: -nu4 / beta2, lambda k2: 1.0 - k2),
    "dn": _Case2Kernel(lambda nu2, nu4: -nu4,
                       lambda nu2, nu4, beta2: (2.0 * nu4 + nu2) / nu4,
                       lambda k2: -(1.0 - k2)),
    "inv_sn": _Case2Kernel(lambda nu2, nu4: nu4,
                           lambda nu2, nu4, beta2: -(nu2 + nu4) / nu4, lambda k2: k2),
    "inv_cn": _Case2Kernel(lambda nu2, nu4: nu2 + 2.0 * nu4,
                           lambda nu2, nu4, beta2: (nu2 + nu4) / beta2, lambda k2: -k2),
}


def _tn_witness(f1, f2, f3, nu0, nu2, nu4):
    beta2 = nu2 - nu4
    return ("b is not real for any modulus: the constant-term match "
            "forces b^2 = nu0/(nu2 - nu4) < 0",
            {"b2_required": nu0 / beta2 if beta2 != 0 else math.inf})


def _dn_tn_witness(f1, f2, f3, nu0, nu2, nu4):
    # the kernel's coefficient match admits two sign groups for b; for
    # whichever group makes b real, the modulus lands outside [0, 1)
    D = f2 * f3 + f1 * f2 - f1 * f3
    prod = f2 * (f3 - f1) * (2.0 * f1 * f3 - f2 * (f1 + f3))
    groups = {}
    if -prod >= 0.0:  # first group: b^2 proportional to -prod
        groups["group1"] = {
            "beta2": prod / (4.0 * D),
            "k2": -(f3 ** 2) * (f1 - f2) ** 2 / prod if prod != 0 else math.inf,
        }
    if prod >= 0.0:
        groups["group2"] = {
            "beta2": -prod / (4.0 * D),
            "k2": f1 ** 2 * (f2 - f3) ** 2 / prod if prod != 0 else math.inf,
        }
    return ("modulus^2 >= 1 for every real coefficient choice; the "
            "limiting moduli collapse to two double zeros", {"groups": groups})


# the kernels with no real parameters: the reason and the witness
_NO_REAL_PARAMETERS = {"tn": _tn_witness, "dn_tn": _dn_tn_witness}
CASE2_KINDS = (*CASE2_KERNELS, *_NO_REAL_PARAMETERS)


@_in_floats
def case2(kind, f1, f2, f3, xi0=0.0) -> ClosedFormSolution:
    """Elliptic family u = 1/(a + b y(beta (xi - xi0))) and its inverses.

    The implied fourth zero is f4 = f1 f2 f3 / (f2 f3 + f1 f2 - f1 f3), the
    relation that kills the odd coefficients of the reduced quartic (and
    forces d2 = -4 d3 a with a = (f1 + f3)/(2 f1 f3)).  With b =
    (f1 - f3)/(2 f1 f3) the wave is

        u = 2 f1 f3 / ((f1 + f3) + (f1 - f3) y)          (y = sn, cn, dn)
        u = 2 f1 f3 y / ((f1 + f3) y + (f1 - f3))        (y = 1/sn, 1/cn)

    and the speed is c = -(f1 + f2 + f3 + f4)/4.  The inverse kinds are the
    Moebius forms y/(b + a y) of the base kernel sn or cn.

    Per-kind frequency and modulus come from matching the reduced quartic
    coefficients (nu4, nu2, nu0), as the kind's ``CASE2_KERNELS`` row
    states; a branch whose frequency^2, modulus^2 or constant-term
    consistency fails raises :class:`Infeasible` with the failed quantities
    as witness.  The tn and dn*tn kernels never admit real parameters (b^2 <
    0, respectively modulus^2 >= 1 for every real coefficient choice) and
    always raise Infeasible with the computed witness attached.
    """
    if kind not in CASE2_KINDS:
        raise ValueError(f"case2 kind must be one of {CASE2_KINDS}")
    f1, f2, f3, a, b, g, roots = _case2_shared(f1, f2, f3)
    if b == 0.0:
        return _constant(f"case2_{kind}", roots, xi0, f1)
    nu4 = g[4] / (b * b)
    nu2 = g[2] / (b * b)
    nu0 = g[0]
    if kind in _NO_REAL_PARAMETERS:
        reason, witness = _NO_REAL_PARAMETERS[kind](f1, f2, f3, nu0, nu2, nu4)
        raise Infeasible(f"case2_{kind}", reason,
                         {"nu0": nu0, "nu2": nu2, "nu4": nu4, **witness})

    row = CASE2_KERNELS[kind]
    beta2 = row.beta2(nu2, nu4)
    if not beta2 > scaled_bound(1e-14, roots.scale(), 2):
        raise Infeasible(f"case2_{kind}", "branch infeasible: frequency^2 is not positive",
                         {"beta2": beta2, "nu0": nu0, "nu2": nu2, "nu4": nu4})
    k2 = row.k2(nu2, nu4, beta2)
    if not -MODULUS_CLAMP <= k2 <= 1.0 + MODULUS_CLAMP:
        raise Infeasible(f"case2_{kind}",
                         f"branch infeasible: modulus^2 = {k2:.6g} outside [0, 1]",
                         {"k2": k2, "beta2": beta2})
    k2 = min(max(k2, 0.0), 1.0)
    r_resid = abs(nu0 - beta2 * b * b * row.ratio(k2))
    if r_resid > 1e-9 * max(1.0, abs(nu0), abs(beta2 * b * b)):
        raise Infeasible(f"case2_{kind}", "branch infeasible: constant term of the reduced "
                         "quartic is inconsistent with this kernel",
                         {"r_resid": r_resid, "k2": k2, "beta2": beta2})
    if kind.startswith("inv_"):
        mobius, kernel = (0.0, 1.0, b, a), kind[len("inv_"):]
    else:
        mobius, kernel = (1.0, 0.0, a, b), kind
    return _solution(
        f"case2_{kind}", roots, xi0, mobius, kernel, beta=math.sqrt(beta2),
        modulus=_modulus(k2),
    )


@_in_floats
def general_sn2(roots, initial_index=1, xi0=0.0) -> ClosedFormSolution:
    """General four-root family f = (a1 + b1 sn^2(beta xi)) / (a2 + b2 sn^2).

    ``roots`` are four distinct finite reals (sorted internally); the branch
    starts at f(xi0) = roots[initial_index - 1] and oscillates across the
    adjacent band, with beta = (1/2) sqrt((f3 - f1)(f4 - f2)) and period
    2 K(k)/beta.

    The classically printed per-branch coefficients pair adjacent roots
    (a = f1 with b = f2, etc.); validated against the defining residual they
    fail for sorted roots.  The constructor uses the complementary pairing
    (f1<->f4, f2<->f3), a1 = a, a2 = 1, b2 = (f_adj - a)/(b - f_adj), b1 =
    b b2 with f_adj the adjacent root of the band, and modulus^2 =
    ((f2 - f1)(f4 - f3))/((f3 - f1)(f4 - f2)), which lies in (0, 1) for
    distinct sorted roots; the correction is recorded in the provenance
    notes.  A branch that fails validation raises UnresolvedBranch with the
    candidate attached.
    """
    fs = tuple(sorted(_zeros(*roots)))
    if len(fs) != 4 or any(
        b_ - a_ <= 1e-12 * max(1.0, abs(b_)) for a_, b_ in zip(fs, fs[1:])
    ):
        raise InvalidConfiguration("need four distinct finite roots")
    if initial_index not in (1, 2, 3, 4):
        raise ValueError("initial_index must be 1..4")
    f1, f2, f3, f4 = fs
    i = initial_index - 1
    # start at fs[i], turn at its band neighbor fs[i ^ 1]; pair with fs[3 - i]
    a, b, f_adj = fs[i], fs[3 - i], fs[i ^ 1]
    b2 = (f_adj - a) / (b - f_adj)
    k2 = (f2 - f1) * (f4 - f3) / ((f3 - f1) * (f4 - f2))
    return _solution(
        "general_sn2", RootMultiset(tuple((v, 1) for v in fs)), xi0, (a, b * b2, 1.0, b2), "sn2",
        beta=0.5 * math.sqrt((f3 - f1) * (f4 - f2)), modulus=_modulus(k2),
        branch=f"initial_f{initial_index}", notes=("band-pairing-complementary",),
    )


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def u_v_pair(s: ClosedFormSolution, p: Params):
    """Traveling pair (u(x, t), v(x, t)) with u = f(x - ct), v = g(u)."""
    pf = p.as_floats()
    if abs(pf.c - s.c) > 1e-9 * max(1.0, abs(s.c)):
        raise InvalidConfiguration(
            f"solution speed {s.c} inconsistent with params speed {pf.c}"
        )

    def u(x, t):
        return s.evaluate(np.asarray(x, dtype=float) - pf.c * t)[0]

    def v(x, t):
        return g_from_f(u(x, t), pf.c, pf.d1)

    return u, v
