"""Traveling-wave reduction of the two-component system.

Inserting u = f(x - ct), v = g(x - ct) into the coupled system and integrating
the first equation once gives the second field algebraically,

    g = -c f - (3/4) f^2 + d1,

while the remaining equation integrates (with f' as integrating factor) to
(f')^2 = F(f), the quartic handled in :mod:`kbwave.quartic`.  This module
covers the local orbit behavior near a zero of F of each multiplicity and the
vanishing-boundary non-existence result: with all integration constants zero
the quartic collapses to -f^2 (f + 2c)^2 <= 0, so the only solutions decaying
to zero at both ends are constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .errors import InvalidConfiguration
from .quartic import Params, RootMultiset, eval_F, eval_F_deriv

__all__ = [
    "LocalForm",
    "SIMPLE_MIN",
    "SIMPLE_MAX",
    "DOUBLE_EXPONENTIAL",
    "TRIPLE_ALGEBRAIC",
    "QUADRUPLE_CONSTANT",
    "g_from_f",
    "local_behavior",
    "vanishing_reduction_l2",
    "ZERO_MEMBERSHIP_TOL",
]

SIMPLE_MIN = "SimpleMin"
SIMPLE_MAX = "SimpleMax"
DOUBLE_EXPONENTIAL = "DoubleExponentialApproach"
TRIPLE_ALGEBRAIC = "TripleAlgebraicApproach"
QUADRUPLE_CONSTANT = "QuadrupleConstantOnly"

# |F(f1)| <= tol * max(1, |f1|)^4: the same form as the residual gate, RESIDUAL_RTOL *
# scale^4 (root clustering is another test: 1e-7, relative, on root values)
ZERO_MEMBERSHIP_TOL = 1e-8


@dataclass(frozen=True)
class LocalForm:
    """Orbit behavior at a zero f1 of F.

    kind: SimpleMin/SimpleMax (turning point, f''(xi1) = F'(f1)/2),
    DoubleExponentialApproach (f -> f1 like exp(-rate |xi|)),
    TripleAlgebraicApproach (f - f1 ~ 24/(F''' xi^2), inverse-square tail), or
    QuadrupleConstantOnly (only the constant f = f1 is real).

    rate: the exponential rate sqrt(F''(f1)/2), the algebraic coefficient
    sqrt(|F'''(f1)|/6), or f''(xi1) = F'(f1)/2 for simple zeros; units 1/xi.

    from_above: for a triple zero, True when the orbit approaches from above
    (which requires F'''(f1) > 0); None for other kinds.
    """

    kind: str
    rate: float
    from_above: bool | None = None


def g_from_f(f, c, d1):
    """Second field from the first: g = -c f - (3/4) f^2 + d1."""
    if isinstance(f, Rational) and isinstance(c, Rational) and isinstance(d1, Rational):
        return -c * f - Fraction(3, 4) * f * f + d1
    return -c * f - 0.75 * f * f + d1


def local_behavior(f1: float, mult: int, p: Params) -> LocalForm:
    """Local orbit form at a zero f1 of F with multiplicity mult in 1..4.

    Raises InvalidConfiguration when f1 is not a zero of F to tolerance, and
    when mult = 2 with F''(f1) <= 0 (no real orbit approaches such a zero).
    """
    p = p.as_floats()
    f1 = float(f1)
    if abs(eval_F(p, f1)) > ZERO_MEMBERSHIP_TOL * max(1.0, abs(f1)) ** 4:
        raise InvalidConfiguration(f"{f1} is not a zero of F to tolerance")
    if mult == 1:
        d = eval_F_deriv(p, f1, 1)
        return LocalForm(SIMPLE_MIN if d > 0 else SIMPLE_MAX, d / 2.0)
    if mult == 2:
        d2 = eval_F_deriv(p, f1, 2)
        if d2 <= 0:
            raise InvalidConfiguration(
                f"no real orbit at this zero: F''({f1}) = {d2} <= 0"
            )
        return LocalForm(DOUBLE_EXPONENTIAL, math.sqrt(d2 / 2.0))
    if mult == 3:
        d3 = eval_F_deriv(p, f1, 3)
        return LocalForm(TRIPLE_ALGEBRAIC, math.sqrt(abs(d3) / 6.0), from_above=d3 > 0)
    if mult == 4:
        return LocalForm(QUADRUPLE_CONSTANT, 0.0)
    raise ValueError(f"mult must be 1..4, got {mult}")


def vanishing_reduction_l2(c):
    """Reduction with vanishing boundary conditions: all constants zero.

    Returns (Params(c, 0, 0, 0), RootMultiset) where the multiset certifies
    the factorization F = -f^2 (f + 2c)^2, which is <= 0 everywhere; the only
    real solutions are the constants f = 0 and f = -2c.
    """
    exact = isinstance(c, Rational)
    zero = Fraction(0) if exact else 0.0
    p = Params(c if exact else float(c), zero, zero, zero)
    # certify: expanded -f^2 (f+2c)^2 has coefficients (-1, -4c, -4c^2, 0, 0)
    expected = (-1, -4 * p.c, -4 * p.c * p.c, zero, zero)
    got = p.coefficients()
    if any(float(a) != float(b) for a, b in zip(expected, got)):
        raise AssertionError("factorization certificate failed")  # unreachable
    if float(c) == 0.0:
        roots = RootMultiset(((zero, 4),))
    else:
        pair = sorted([zero, -2 * p.c], key=float)
        roots = RootMultiset(((pair[0], 2), (pair[1], 2)))
    return p, roots
