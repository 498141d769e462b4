"""Traveling-wave reduction of the two-component system: the second field.

Inserting u = f(x - ct), v = g(x - ct) into the coupled system and integrating
the first equation once gives the second field algebraically,

    g = -c f - (3/4) f^2 + d1,

while the remaining equation integrates (with f' as integrating factor) to
(f')^2 = F(f), the quartic handled in :mod:`kbwave.quartic`, whose ``bands``
give the orbit near each zero.  With all integration constants zero F is
-f^2 (f + 2c)^2 <= 0, the ell = 2 case of :func:`kbwave.hierarchy.reduce_vanishing`.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

__all__ = ["g_from_f"]


def g_from_f(f, c, d1):
    """Second field from the first: g = -c f - (3/4) f^2 + d1."""
    if isinstance(f, Rational) and isinstance(c, Rational) and isinstance(d1, Rational):
        return -c * f - Fraction(3, 4) * f * f + d1
    return -c * f - 0.75 * f * f + d1
