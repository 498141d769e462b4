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

Every constructor returns through ``_solution``, which runs the gates
(``_gates``) before the object is surfaced, on the wave at phase 0 (xi0 = 0),
so no verdict depends on xi0.  On every form, constants included, the
certificate (``_certificate``) compares the five coefficients of
(B C - A D)^2 beta^2 Q(y) = -prod((A - r C) + (B - r D) y), with y'^2 = Q(y)
the kernel's equation, which holds exactly when f'^2 = F(f) on the whole
line; a defect beyond its rounding bound refuses the form.  Where the
kernel meets its equation, the identity holds and the denominator has no
zero on the span, f'^2 = F(f) everywhere, so a nonconstant wave is its
band's orbit.  The certificate is the one proof on zeros that lie apart.
The first-integral residual f'(xi)^2 - F(f(xi)) is sampled over the wave's
window (``ClosedFormSolution.window``) against ``residual_bound``
(``_residual_gate``) only where the certificate cannot vouch: on close
zeros (``CLOSE_ZEROS``), where the orbit check runs too, and where it has
no spread to work in, is not met, or the period is not finite.

Each elliptic family computes k^2 and k'^2 from differences of its zeros
(``_moduli``), and the wave carries both k and k'.  One rule decides a
degenerate modulus: k or k' is 0 only where ``RootMultiset.from_values``
merged two zeros into a multiple zero.
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
import sys
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .elliptic import complete_K, jacobi
from .errors import Infeasible, InvalidConfiguration, UnresolvedBranch
from .quartic import (Params, RootMultiset, classify,
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

# The elliptic kernels call ``jacobi`` through this module's global name,
# with the modulus k and its complement k' as the solution carries them.
# Every kernel may overwrite x, a fresh array (0-d for one point); the sin,
# sech and rational kernels do, and compute in place what the expression in
# their comment gives, bit for bit: its IEEE operations, in its order.


def _sn(x, k, kp):
    s, c, d = jacobi(x, k, kp)
    return s, c * d


def _cn(x, k, kp):
    s, c, d = jacobi(x, k, kp)
    return c, -s * d


def _dn(x, k, kp):
    s, c, d = jacobi(x, k, kp)
    return d, -(k * k) * s * c


def _sn2(x, k, kp):
    s, c, d = jacobi(x, k, kp)
    return s * s, 2.0 * s * c * d


def _sin(x, k, kp):  # sin(x), cos(x)
    return np.sin(x), np.cos(x, out=x)


def _sech(x, k, kp):  # y = 2 e / (1 + e e) with e = exp(-|x|), and -y tanh(x)
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


def _rational(x, k, kp):  # y = 1 / (1 + x x), and -2 x y y
    with np.errstate(over="ignore"):  # x * x = inf far out, where y is 0
        y = np.multiply(x, x, out=np.empty_like(x))
        y += 1.0
        np.divide(1.0, y, out=y)
    x *= -2.0
    x *= y
    x *= y
    return y, x


def _const(x, k, kp):
    return np.ones_like(x), np.zeros_like(x)


def _none(_):
    return None


def _periods_K(n):
    """Period n K in the argument, from k'; none at k' = 0, where the kernel is a pulse."""
    return lambda kp: n * complete_K(kp) if kp > 0.0 else None


def _algebraic_decay(beta):
    # rational kernel: f - f_triple ~ 4/(amp xi^2) with |amp| = 2 beta
    return math.sqrt(2.0 * abs(beta))


def _fixed(*q):
    """The equation of a kernel without a modulus."""
    return lambda k2, kp2: q


class _Kernel(NamedTuple):
    fn: Callable      # (x, k, k') -> (y, dy/dx)
    q: Callable       # (k^2, k'^2) -> (q0, ..., q4): the kernel's equation y'^2 = sum_j q_j y^j
    period: Callable  # k' -> period in x, or None for a pulse
    span: Callable    # k' -> (min y, max y) over the orbit
    decay: Callable   # beta -> decay rate of the pulse, or None


_KERNELS = {
    # (1 - y^2)(1 - k^2 y^2)
    "sn": _Kernel(_sn, lambda k2, kp2: (1.0, 0.0, -1.0 - k2, 0.0, k2), _periods_K(4.0),
                  lambda kp: (-1.0, 1.0), abs),
    # (1 - y^2)(k'^2 + k^2 y^2)
    "cn": _Kernel(_cn, lambda k2, kp2: (kp2, 0.0, 2.0 * k2 - 1.0, 0.0, -k2), _periods_K(4.0),
                  lambda kp: (-1.0, 1.0), abs),
    # (1 - y^2)(y^2 - k'^2)
    "dn": _Kernel(_dn, lambda k2, kp2: (-kp2, 0.0, 2.0 - k2, 0.0, -1.0), _periods_K(2.0),
                  lambda kp: (kp, 1.0), abs),
    # 4 y (1 - y)(1 - k^2 y)
    "sn2": _Kernel(_sn2, lambda k2, kp2: (0.0, 4.0, -4.0 - 4.0 * k2, 4.0 * k2, 0.0),
                   _periods_K(2.0), lambda kp: (0.0, 1.0), abs),
    "sin": _Kernel(_sin, _fixed(1.0, 0.0, -1.0, 0.0, 0.0), lambda kp: 2.0 * math.pi,
                   lambda kp: (-1.0, 1.0), abs),  # 1 - y^2
    "sech": _Kernel(_sech, _fixed(0.0, 0.0, 1.0, 0.0, -1.0), _none,
                    lambda kp: (0.0, 1.0), abs),  # y^2 (1 - y^2)
    "rational": _Kernel(_rational, _fixed(0.0, 0.0, 0.0, 4.0, -4.0), _none,
                        lambda kp: (0.0, 1.0), _algebraic_decay),  # 4 y^3 (1 - y)
    "const": _Kernel(_const, _fixed(0.0, 0.0, 0.0, 0.0, 0.0), _none, lambda kp: (1.0, 1.0), _none),
}
# On every kernel's span |y| <= 1 and |y'| <= 1, and the computed pair (y, y')
# meets its equation to |y'^2 - Q(y)| <= KERNEL_ROUNDING: the certificate proves
# f'^2 = F(f) from Q, so its argument rests on both (test_kernel_meets_its_equation
# in tests/test_solutions.py checks each kernel against them).
KERNEL_ROUNDING = 1e-13


# ---------------------------------------------------------------------------
# the solution type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedFormSolution:
    """Evaluable closed-form traveling wave f(xi), xi = x - c t.

    f = (A + B y)/(C + D y) with y = kernel(beta (xi - xi0), modulus); the
    kernel names an entry of the kernel table (sn, cn, dn, sn2, sin, sech,
    rational, const), whose modulus k comes with ``comodulus`` k' = sqrt(1 -
    k^2), both from the zeros.  Construction raises InvalidConfiguration
    when C + D y can vanish over the kernel's range, so every instance is
    pole-free.
    Immutable after construction and safe to share across threads.  The
    defining property is (f')^2 = F(f) with F the quartic of ``params``;
    a constructor's wave has passed ``_gates``, whose certificate proves it
    from the coefficients of the Moebius form and the kernel's equation
    y'^2 = Q(y), to rounding.  ``variant`` labels the reduced forms (sech
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
    comodulus: float | None = None
    xi0: float = 0.0
    branch: str = "upper"
    notes: tuple = ()
    variant: str | None = None

    def __post_init__(self):
        if not math.isfinite(self.xi0):
            raise ValueError(f"xi0 must be finite, got {self.xi0}")
        if self.kernel not in _KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}; expected one of {tuple(_KERNELS)}")
        k, kp = self.modulus, self.comodulus
        if (k is None) != (kp is None):
            raise ValueError("a modulus comes with its comodulus")
        # the constructors' pairs meet k^2 + k'^2 = 1 within 2 roundings
        if k is not None and not abs(k * k + kp * kp - 1.0) <= 4.0 * _U:
            raise ValueError(f"modulus {k!r} and comodulus {kp!r} are not complementary: "
                             f"k^2 + k'^2 - 1 = {k * k + kp * kp - 1.0:.3e}")
        lo, hi = _KERNELS[self.kernel].span(kp)
        C, D = self.C, self.D
        den_lo, den_hi = C + D * lo, C + D * hi
        if not (min(den_lo, den_hi) > 0.0 or max(den_lo, den_hi) < 0.0):
            raise InvalidConfiguration(
                f"{self.kind}: denominator C + D*y = {C!r} + {D!r}*y "
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
        y, yp = _KERNELS[self.kernel].fn(x, self.modulus, self.comodulus)
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

    def jet(self, xi):
        """(f, f', f''') at the points xi, from the form and its kernel's
        equation y'^2 = Q(y), which gives y'' = Q'(y)/2 and
        y''' = Q''(y) y'/2 in x = beta (xi - xi0), and beta, beta^2 and
        beta^3 times those in xi.  The Moebius map then gives f' = N y'/den^2
        and f''' = N (y''' den^2 - 6 D y' y'' den + 6 D^2 y'^3)/den^4, with
        N = B C - A D and den = C + D y, taken as N/den^2 times a sum in
        s = D/den so that no power of den leaves the floats."""
        b = self.beta
        _, q1, q2, q3, q4 = self.equation
        x = np.array(xi, dtype=float)
        x -= self.xi0
        x *= b
        y, y1 = _KERNELS[self.kernel].fn(x, self.modulus, self.comodulus)
        y1 = y1 * b
        y2 = 0.5 * b * b * (q1 + y * (2.0 * q2 + y * (3.0 * q3 + y * (4.0 * q4))))
        y3 = 0.5 * b * b * (2.0 * q2 + y * (6.0 * q3 + y * (12.0 * q4))) * y1
        den = self.C + self.D * y
        s = self.D / den
        fp = (self.B * self.C - self.A * self.D) / den / den
        f3 = fp * (y3 - 6.0 * s * y1 * y2 + 6.0 * s * s * y1 * y1 * y1)
        return (self.A + self.B * y) / den, fp * y1, f3

    def __call__(self, xi):
        return self.evaluate(xi)[0]

    def residual(self, xi, params: Params | None = None) -> float:
        """max |f'^2 - F(f)| over the points xi, with F the quartic of
        ``params`` (default: the solution's own)."""
        f, fp = self.profile(xi)
        return first_integral_residual(self.params if params is None else params.as_floats(),
                                       f, fp)

    @property
    def equation(self) -> tuple:
        """(q0, ..., q4) of the kernel's equation y'^2 = sum_j q_j y^j at (k k, k' k')."""
        k, kp = self.modulus, self.comodulus
        return _KERNELS[self.kernel].q(*((0.0, 1.0) if k is None else (k * k, kp * kp)))

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
        P = _KERNELS[self.kernel].period(self.comodulus)
        return None if P is None else P / abs(self.beta)

    @property
    def window(self) -> tuple:
        """The window every check samples, in the phase t = xi - xi0: one
        period (0, T), or (-w, w), w = 10 / max(1, |beta|), for a pulse or a
        constant."""
        T = self.period
        if T is not None:
            return 0.0, T
        w = 10.0 / max(1.0, abs(self.beta))
        return -w, w

    @property
    def decay_rate(self) -> float | None:
        """Exponential decay rate toward the double zero, or the algebraic
        coefficient sqrt|f_simple - f_triple| for the triple-zero pulse;
        None for periodic and constant solutions."""
        if self.period is not None:
            return None
        return _KERNELS[self.kernel].decay(self.beta)

    def with_phase(self, xi0: float) -> "ClosedFormSolution":
        xi0 = float(xi0)
        return self if xi0 == self.xi0 else replace(self, xi0=xi0)


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


def _held(roots, vals):
    """Each of ``vals`` as ``roots = RootMultiset.from_values(vals, tol)`` holds
    it, the mean of its cluster (``expand`` lists sorted ``vals``' clusters)."""
    held = dict(zip(sorted(vals), roots.expand()))
    return [held[v] for v in vals]


def _moduli(kind, n, n_c, den):
    """(k, k') of k^2 = n / den and k'^2 = n_c / den, each good to a few ulps
    of itself: the smaller as it is (+0.0 for -0.0), the larger as 1 minus
    it, so that one is 1 exactly where the other is 0.  A negative one, or a
    zero denominator, has no real wave: Infeasible."""
    k2, kp2 = (n / den, n_c / den) if den else (math.nan, math.nan)
    if not (k2 >= 0.0 and kp2 >= 0.0):
        raise Infeasible(kind, f"branch infeasible for these roots: modulus^2 = {k2:.6g}, "
                         f"complementary modulus^2 = {kp2:.6g}", {"k2": k2, "kp2": kp2})
    if k2 <= kp2:
        return abs(math.sqrt(k2)), math.sqrt(1.0 - k2)
    return math.sqrt(1.0 - kp2), abs(math.sqrt(kp2))


# ---------------------------------------------------------------------------
# validation gate
# ---------------------------------------------------------------------------


def _residual_gate(sol, n=513):
    """Max defining residual |f'^2 - F(f)| over the window of ``sol``, a wave
    at phase 0; raises if over gate.  The gate comes first: zeros too large
    for it are refused unsampled."""
    gate = sol.residual_bound
    res = sol.residual(np.linspace(*sol.window, n))
    if not res < gate:
        raise UnresolvedBranch(
            f"{sol.kind} failed the defining residual gate: {res:.3e} >= {gate:.3e}",
            candidate=sol,
        )
    return res


# The certificate.  Every wave is f = (A + B y)/(C + D y) of a kernel with
# y'^2 = Q(y), so f'^2 = F(f) = -prod(f - r) holds on the whole line exactly
# when, as polynomials in y,
#
#     (B C - A D)^2 beta^2 Q(y) = -prod_r ((A - r C) + (B - r D) y):
#
# five coefficients, compared without sampling.  They are compared in the
# wave's own frame f -> (f - z0)/w, z0 = -c the centre of the zeros and w
# their spread about it, with C and D scaled to at most 1 (the identity holds
# in any such frame), so that no product leaves the floats where the wave's
# numbers do not, and a wave far from 0 keeps the precision of its width.
# Each side carries a running error bound (Wilkinson), in units of the unit
# roundoff: one rounding for every input (A, B, C, D, the zeros, beta, k and
# k', each computed from the zeros; a multiple zero may also have been
# merged) and for every operation.  A defect above CERTIFICATE_ULPS times that
# bound is not rounding: the form is wrong.

_U = 2.0 ** -53  # unit roundoff
CERTIFICATE_ULPS = 16.0
# the mean of a merged cluster (at most 4 zeros, each within _SAME_ZERO max(1, |r|)
# of the next) lies within 3 _SAME_ZERO max(1, |r|) of each
_MERGE_ULPS = float(3.0 * _SAME_ZERO / _U)
# As two distinct zeros close, the certificate's products cancel to a small
# G, so its rounding bound covers ever larger moves of beta and k; seeded
# sweeps saw it miss such moves only within 2.4e-5 of the spread (the
# presets' zeros lie 0.03 apart).  This one constant decides where
# ``_gates`` samples the residual and follows the orbit
CLOSE_ZEROS = 1e-3


def _certificate(wave):
    """(defect, rounding, scale, spread, gap) of ``wave``: the certificate's
    defect sum_j |LHS_j - RHS_j| in the frame and the rounding bound it is
    held to, both NaN where the zeros have no spread (a quadruple zero) or
    the frame is not finite; and, from the same walk over the four expanded
    zeros, their ``RootMultiset.scale``, their spread and the smallest gap
    between two distinct zeros (inf where fewer than three are distinct,
    so that no gap is small next to the spread)."""
    r1, r2, r3, r4 = wave.roots.expand()  # increasing
    scale, spread = max(1.0, abs(r1), abs(r4)), r4 - r1
    gap = min(r2 - r1 or math.inf, r3 - r2 or math.inf, r4 - r3 or math.inf)
    z0 = -wave.params.c
    w = max(abs(r1 - z0), abs(r2 - z0), abs(r3 - z0), abs(r4 - z0))
    if not 0.0 < w < math.inf:
        return math.nan, math.nan, scale, spread, gap
    s = max(abs(wave.C), abs(wave.D))
    A, B, C, D = wave.A / s, wave.B / s, wave.C / s, wave.D / s
    aC, aD, az = abs(C), abs(D), abs(z0)
    a, b = (A - z0 * C) / w, (B - z0 * D) / w  # the numerator's coefficients in the frame
    na, nb = abs(a), abs(b)
    ea = (2.0 * abs(A) + 3.0 * az * aC) / w + 2.0 * na
    eb = (2.0 * abs(B) + 3.0 * az * aD) / w + 2.0 * nb
    eab, aCD = ea + eb, aC + aD

    # -RHS = prod_r ((a - t C) + (b - t D) y), t = (r - z0)/w: one factor
    # x0 + x1 y per expanded zero (x = a, b, c, d in turn), multiplied in two
    # quadratics u = (a0 + a1 y)(b0 + b1 y) and v = (c0 + c1 y)(d0 + d1 y).
    # Its error, summed over the coefficients, is sum_i g_i prod_{k != i} m_k
    # with m = |x0| + |x1| and g the error of x0 plus that of x1.  A simple
    # zero carries one rounding; a multiple one (equal to a neighbour) may be
    # the mean of zeros that ``RootMultiset.from_values`` merged, each within
    # _SAME_ZERO max(1, |r|).  A zero equal to the one before takes its factor
    t = (r1 - z0) / w
    at = abs(t)
    et = (abs(r1) if r1 != r2 else _MERGE_ULPS * max(1.0, abs(r1))) / w + 2.0 * at
    a0, a1 = a - t * C, b - t * D
    na0, na1 = abs(a0), abs(a1)
    ga = eab + aCD * (3.0 * at + et) + na0 + na1
    if r2 == r1:
        b0, b1, nb0, nb1, gb = a0, a1, na0, na1, ga
    else:
        t = (r2 - z0) / w
        at = abs(t)
        et = (abs(r2) if r2 != r3 else _MERGE_ULPS * max(1.0, abs(r2))) / w + 2.0 * at
        b0, b1 = a - t * C, b - t * D
        nb0, nb1 = abs(b0), abs(b1)
        gb = eab + aCD * (3.0 * at + et) + nb0 + nb1
    if r3 == r2:
        c0, c1, nc0, nc1, gc = b0, b1, nb0, nb1, gb
    else:
        t = (r3 - z0) / w
        at = abs(t)
        et = (abs(r3) if r3 != r4 else _MERGE_ULPS * max(1.0, abs(r3))) / w + 2.0 * at
        c0, c1 = a - t * C, b - t * D
        nc0, nc1 = abs(c0), abs(c1)
        gc = eab + aCD * (3.0 * at + et) + nc0 + nc1
    if r4 == r3:
        d0, d1, nd0, nd1, gd = c0, c1, nc0, nc1, gc
    else:
        t = (r4 - z0) / w
        at = abs(t)
        et = abs(r4) / w + 2.0 * at
        d0, d1 = a - t * C, b - t * D
        nd0, nd1 = abs(d0), abs(d1)
        gd = eab + aCD * (3.0 * at + et) + nd0 + nd1
    u0, u1, u2 = a0 * b0, a0 * b1 + a1 * b0, a1 * b1
    v0, v1, v2 = c0 * d0, c0 * d1 + c1 * d0, c1 * d1
    ma, mb, mc, md = na0 + na1, nb0 + nb1, nc0 + nc1, nd0 + nd1
    mab, mcd = ma * mb, mc * md
    error = (ga * mb + gb * ma) * mcd + (gc * md + gd * mc) * mab + 8.0 * mab * mcd

    # LHS = G Q(y), G = (W beta)^2 with W = b C - a D in the frame
    W = b * C - a * D
    eW = nb * 2.0 * aC + aC * eb + na * 2.0 * aD + aD * ea + 2.0 * (abs(b * C) + abs(a * D))
    bt = wave.beta / w
    h = W * bt
    nh = abs(h)
    eh = abs(bt) * eW + 2.0 * nh
    G = h * h
    nG = abs(G)
    q0, q1, q2, q3, q4 = wave.equation
    defect = (abs(G * q0 + u0 * v0) + abs(G * q1 + (u0 * v1 + u1 * v0))
              + abs(G * q2 + (u0 * v2 + u1 * v1 + u2 * v0)) + abs(G * q3 + (u1 * v2 + u2 * v1))
              + abs(G * q4 + u2 * v2))
    error += (2.0 * nh * eh + nG) * (abs(q0) + abs(q1) + abs(q2) + abs(q3) + abs(q4))
    if wave.modulus is not None:
        # k^2 = k k and k'^2 = k' k' carry 3 roundings each, and each q_j
        # that reads them (at most 3) moves by at most 4 per rounding and adds
        # its own; k^2 + k'^2 = 1 holds to the roundings of k and k'
        error += 48.0 * nG
    return defect, CERTIFICATE_ULPS * _U * error, scale, spread, gap


def _gates(wave):
    """The constructor's gates on ``wave``, a wave at phase 0; each raises
    UnresolvedBranch with the wave as candidate, and float errors are left
    to the caller.  In order: zeros too large for the sampled gate are
    refused, unsampled, and a periodic form's zero frequency; a form that
    varies needs a frequency that is a positive normal double (a smaller one
    is the float error of a form that does not fit the floats); the
    certificate runs on every form, and a form it refutes is refused; the
    sampled residual gate, ``_residual_gate``, runs where the certificate
    cannot vouch for the form: two distinct zeros within CLOSE_ZEROS of
    their spread, zeros with no spread, a certificate not met, or a period
    not finite; the orbit check, on the same close zeros.  The sampled gate
    runs before a refutation is reported, so every form it fails keeps its
    message."""
    defect, rounding, scale, spread, gap = _certificate(wave)
    scaled_bound(RESIDUAL_RTOL, scale, 4)  # as wave.residual_bound: refuses zeros too large
    period = wave.period
    if wave.kernel != "const" and not sys.float_info.min <= wave.beta < math.inf:
        raise FloatingPointError(f"its frequency {wave.beta!r} is not a positive normal double")
    close = gap < CLOSE_ZEROS * spread
    if close or not (defect <= rounding and (period is None or period < math.inf)):
        _residual_gate(wave)
    if rounding < defect < math.inf:
        raise UnresolvedBranch(f"{wave.kind} failed the certificate: {defect:.3e} > {rounding:.3e}",
                               candidate=wave)
    if close:
        from .verify import orbit_deviation  # verify builds on this module
        dev, bound, passed = orbit_deviation(wave)
        if not passed:
            raise UnresolvedBranch(f"{wave.kind} failed the orbit check: {dev:.3e} >= {bound:.3e}",
                                   candidate=wave)


def _solution(kind, roots, xi0, mobius, kernel, **kw):
    """The one way a constructor returns a wave: the form (A + B y)/(C + D y)
    on ``kernel`` with the params of ``roots``, once ``_gates`` pass it at
    phase 0.  The constructors hand floats, zeros and ``mobius`` alike, so
    the params are floats too."""
    A, B, C, D = mobius
    sol = ClosedFormSolution(kind=kind, roots=roots, params=params_from_roots(roots),
                             A=A, B=B, C=C, D=D, kernel=kernel, xi0=float(xi0), **kw)
    _gates(sol.with_phase(0.0))
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
    with the generic constructor under its constraint.  A form whose
    constraint fails by more than rounding is not the wave of its zeros,
    and the certificate refuses it; ``solitary_double`` builds that wave.
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

    For the cn kernel k'^2 = -(f4 - f2)^2 / (4 (f2 - f1)(f3 - f2)) <= 0, 0
    only where f2 and f4 merged into a double zero, so the branch is
    feasible only at k = 1 (the sech pulse) and raises Infeasible elsewhere.
    The dn kernel has k^2 = 4 (f2 - f1)(f3 - f2) / (f3 - f1)^2 and
    k'^2 = (f4 - f2)^2 / (f3 - f1)^2 and is the genuinely periodic member of
    the family.
    """
    if kind not in ("cn", "dn"):
        raise ValueError("case1 kind must be 'cn' or 'dn'")
    f1, f2, f3 = sorted(_zeros(f1, f2, f3))
    f4 = f1 + f3 - f2  # the implied fourth zero; makes d2 = c d1 hold
    roots = RootMultiset.from_values([f1, f2, f3, f4], tol=_SAME_ZERO)
    sigma = _branch_sign(branch)
    if f3 - f1 <= 1e-14 * max(1.0, abs(f1)):
        return _constant(f"case1_{kind}", roots, xi0, f1, branch=branch)
    f1, f2, f3, f4 = _held(roots, (f1, f2, f3, f4))  # k or k' is 0 where two merged
    gamma = 0.5 * (f1 + f3)
    span2 = (f2 - f1) * (f3 - f2)
    if kind == "cn":
        if span2 <= 0.0:
            raise Infeasible("case1_cn", "branch infeasible for these roots: "
                             "cn needs f1 < f2 < f3", {"span2": span2})
        k, kp = _moduli("case1_cn", (f3 - f1) ** 2, -((f4 - f2) ** 2), 4.0 * span2)
        beta = math.sqrt(span2)
    else:
        k, kp = _moduli("case1_dn", 4.0 * span2, (f4 - f2) ** 2, (f3 - f1) ** 2)
        beta = 0.5 * (f3 - f1)
    if k == 0.0:
        # dn only (cn has k^2 >= 1): f2 meets f1 or f3, dn == 1, a band edge
        return _constant("case1_dn", roots, xi0, gamma + sigma * 0.5 * (f3 - f1),
                         branch=branch)
    return _solution(
        f"case1_{kind}", roots, xi0, (gamma, sigma * 0.5 * (f3 - f1), 1.0, 0.0), kind,
        beta=beta, modulus=k, comodulus=kp, branch=branch,
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
    # f4 makes g1 and g3 vanish to rounding while the products of the zeros
    # stay in the floats; zeros beyond about 1e102 or below 1e-102 leave them
    gscale = max(1.0, float(np.max(np.abs(g))))
    if abs(g[1]) > 1e-9 * gscale or abs(g[3]) > 1e-9 * gscale:
        sizes = [abs(f) for f in (f1, f2, f3) if f]
        raise InvalidConfiguration(
            f"the zeros' products leave the floats (|zeros| from {min(sizes):.6g} to "
            f"{max(sizes):.6g}), so the odd coefficients fail to vanish")
    return f1, f2, f3, f4, a, b, g, RootMultiset.from_values(vals, tol=_SAME_ZERO)


class _Case2Kernel(NamedTuple):
    """One case2 kernel: its frequency^2 from the reduced quartic's nu2 and
    nu4, and its k^2 and k'^2 from the zeros (``case2``)."""

    beta2: Callable   # (nu2, nu4) -> beta^2
    moduli: Callable  # (X^2, Y^2, Z) -> (n, n_c, den), k^2 = n / den, k'^2 = n_c / den


# the kernels with real parameters, in the order of CASE2_KINDS and of the
# case2-* kinds; an inv_ kernel is the Moebius form y/(b + a y) of its base
CASE2_KERNELS = {
    "sn": _Case2Kernel(lambda nu2, nu4: -nu4 - nu2,
                       lambda X2, Y2, Z: (X2, -Z, Y2)),
    "cn": _Case2Kernel(lambda nu2, nu4: -2.0 * nu4 - nu2,
                       lambda X2, Y2, Z: (X2, -Y2, Z)),
    "dn": _Case2Kernel(lambda nu2, nu4: -nu4,
                       lambda X2, Y2, Z: (Z, Y2, X2)),
    "inv_sn": _Case2Kernel(lambda nu2, nu4: nu4,
                           lambda X2, Y2, Z: (Y2, Z, X2)),
    "inv_cn": _Case2Kernel(lambda nu2, nu4: nu2 + 2.0 * nu4,
                           lambda X2, Y2, Z: (-Y2, X2, Z)),
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

    The frequency^2 of each kind comes from the reduced quartic's nu2 and
    nu4, and k^2 and k'^2 are ratios of X^2, Y^2 = X^2 - Z and -Z, X = f2
    (f1 - f3), Y = f2 (f1 + f3) - 2 f1 f3 = -D (f4 - f2) / f2 and Z = 4 f1 f3
    (f1 - f2)(f2 - f3), as the kind's ``CASE2_KERNELS`` row states; the
    constant term nu0 then matches identically.  A branch whose frequency^2,
    k^2 or k'^2 fails raises :class:`Infeasible` with the failed quantities
    as witness.  The tn and dn*tn kernels never admit real parameters (b^2 <
    0, respectively modulus^2 >= 1 for every real coefficient choice) and
    always raise Infeasible with the computed witness attached.
    """
    if kind not in CASE2_KINDS:
        raise ValueError(f"case2 kind must be one of {CASE2_KINDS}")
    f1, f2, f3, f4, a, b, g, roots = _case2_shared(f1, f2, f3)
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
    # X, Y, Z (of degree 2, 2, 4) of the zeros over a power of two, an exact
    # scaling; Z of the zeros as ``roots`` holds them, 0 where f2 merged with f1
    # or f3.  Where f2 and f4 merged, X Y = -(f4 - f2)(f1 - f3) D is 0, and the
    # smaller of X, Y is 0
    s = math.ldexp(1.0, math.frexp(roots.scale())[1])
    h1, h2, h3, h4 = (h / s for h in _held(roots, (f1, f2, f3, f4)))
    f1, f2, f3, f4 = f1 / s, f2 / s, f3 / s, f4 / s
    X = f2 * (f1 - f3)
    Y = -(f2 * f3 + f1 * f2 - f1 * f3) * (f4 - f2) / f2 if f2 else -2.0 * f1 * f3
    if h2 == h4:
        X, Y = (X, 0.0) if abs(Y) < abs(X) else (0.0, Y)
    Z = 4.0 * h1 * h3 * (h1 - h2) * (h2 - h3)
    k, kp = _moduli(f"case2_{kind}", *row.moduli(X * X, Y * Y, Z))
    if kind.startswith("inv_"):
        mobius, kernel = (0.0, 1.0, b, a), kind[len("inv_"):]
    else:
        mobius, kernel = (1.0, 0.0, a, b), kind
    return _solution(
        f"case2_{kind}", roots, xi0, mobius, kernel, beta=math.sqrt(beta2),
        modulus=k, comodulus=kp,
    )


@_in_floats
def general_sn2(roots, initial_index=1, xi0=0.0) -> ClosedFormSolution:
    """General four-root family f = (a1 + b1 sn^2(beta xi)) / (a2 + b2 sn^2).

    ``roots`` are four finite reals (sorted internally), each more than
    1e-12 * max(1, |r|) below the next, r the larger; the branch
    starts at f(xi0) = roots[initial_index - 1] and oscillates across the
    adjacent band, with beta = (1/2) sqrt((f3 - f1)(f4 - f2)) and period
    2 K(k)/beta.

    The classically printed per-branch coefficients pair adjacent roots
    (a = f1 with b = f2, etc.); validated against the defining residual they
    fail for sorted roots.  The constructor uses the complementary pairing
    (f1<->f4, f2<->f3), a1 = a, a2 = 1, b2 = (f_adj - a)/(b - f_adj), b1 =
    b b2 with f_adj the adjacent root of the band, and modulus^2 =
    ((f2 - f1)(f4 - f3))/((f3 - f1)(f4 - f2)) and its complement
    ((f3 - f2)(f4 - f1))/((f3 - f1)(f4 - f2)), which lie in (0, 1) for
    distinct sorted roots; the correction is recorded in the provenance
    notes.  A branch that fails validation raises UnresolvedBranch with the
    candidate attached.
    """
    fs = tuple(sorted(_zeros(*roots)))
    if len(fs) != 4:
        raise InvalidConfiguration(f"need four roots, got {len(fs)}")
    for a_, b_ in zip(fs, fs[1:]):
        if b_ - a_ <= 1e-12 * max(1.0, abs(b_)):
            raise InvalidConfiguration(
                f"general_sn2 needs zeros more than 1e-12 * max(1, |r|) apart: "
                f"{a_!r} and {b_!r} are not")
    if initial_index not in (1, 2, 3, 4):
        raise ValueError("initial_index must be 1..4")
    f1, f2, f3, f4 = fs
    i = initial_index - 1
    # start at fs[i], turn at its band neighbor fs[i ^ 1]; pair with fs[3 - i]
    a, b, f_adj = fs[i], fs[3 - i], fs[i ^ 1]
    b2 = (f_adj - a) / (b - f_adj)
    k, kp = _moduli("general_sn2", (f2 - f1) * (f4 - f3), (f3 - f2) * (f4 - f1),
                    (f3 - f1) * (f4 - f2))
    return _solution(
        "general_sn2", RootMultiset(tuple((v, 1) for v in fs)), xi0, (a, b * b2, 1.0, b2), "sn2",
        beta=0.5 * math.sqrt((f3 - f1) * (f4 - f2)), modulus=k, comodulus=kp,
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
