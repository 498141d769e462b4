"""Traveling-wave reduction of the two-component system: the second field.

Inserting u = f(x - ct), v = g(x - ct) into the coupled system and integrating
the first equation once gives the second field algebraically,

    g = -c f - (3/4) f^2 + d1,

while the remaining equation integrates (with f' as integrating factor) to
(f')^2 = F(f), the quartic handled in :mod:`kbwave.quartic`, whose ``bands``
give the orbit near each zero.  Both are the ell = 2 case of the recurrence
in :mod:`kbwave.hierarchy`: g is its p_2 and F its P_2 at the integration
constants e = (d1, -d2, d3), by its sign rule e_ell = -d_ell and every other
e_j = d_j.  ``g_from_f`` and ``quartic.Params.coefficients`` write them out
for floats and arrays, and tests tie both to the recurrence.  With all
integration constants zero F is -f^2 (f + 2c)^2 <= 0, as
:func:`kbwave.hierarchy.reduce_vanishing` gives it.
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
