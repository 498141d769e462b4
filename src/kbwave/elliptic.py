"""Jacobi elliptic functions and the complete elliptic integral of the first kind.

Everything is built from scratch on the arithmetic-geometric mean: K(k) comes
straight from the AGM, and sn/cn/dn are computed by recursive descending
Landen transformations of the function values, which stay well conditioned
even where cn passes through zero.  Real argument, real modulus k in [0, 1].

Each function takes the complementary modulus k' (k^2 + k'^2 = 1) as its
caller computed it, never from k: near k = 1 a rounded k holds k' only to
about u/k'^2 of itself, while the AGM and the Landen descent need k' alone
(Byrd & Friedman).  At the degenerate moduli the functions reduce to

    k = 0:           sn = sin,  cn = cos,  dn = 1
    k' = 0 (k = 1):  sn = tanh, cn = dn = sech

The argument ``u`` may be a scalar or a numpy array.  All functions are pure
and hold no mutable state, so concurrent use is safe.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InfinitePeriod

__all__ = [
    "JacobiTriple",
    "normalize_modulus",
    "agm",
    "complete_K",
    "jacobi",
]

AGM_RTOL = 1e-15
AGM_MAX_ITER = 64
_LANDEN_FLOOR = 1e-10  # below this the trigonometric limit is exact to ~1e-20


class JacobiTriple(NamedTuple):
    """Values of (sn, cn, dn) at a common argument and modulus."""

    sn: float
    cn: float
    dn: float


def normalize_modulus(k: float) -> float:
    """A modulus (or a complementary one) as a float in [0, 1].

    Raises ValueError for non-finite input or values outside [0, 1].
    """
    k = float(k)
    if not 0.0 <= k <= 1.0:
        raise ValueError(f"modulus {k!r} outside [0, 1]")
    return k


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of two positive numbers.

    Iterates until successive means agree to 1e-15 relative, capped at 64
    iterations (double precision converges in well under 10).
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("agm requires positive arguments")
    for _ in range(AGM_MAX_ITER):
        an = 0.5 * (a + b)
        bn = math.sqrt(a * b)
        a, b = an, bn
        if abs(a - b) < AGM_RTOL * a:
            break
    return 0.5 * (a + b)


def complete_K(kp: float) -> float:
    """Complete elliptic integral of the first kind, K = pi / (2 AGM(1, k')),
    of the complementary modulus k'.

    Strictly decreasing in k'; diverges logarithmically as k' -> 0, so k' = 0
    raises InfinitePeriod (the corresponding wave degenerates to a sech pulse
    of infinite period).
    """
    kp = normalize_modulus(kp)
    if kp == 0.0:
        raise InfinitePeriod("infinite period: complete_K diverges at modulus 1")
    return math.pi / (2.0 * agm(1.0, kp))


def _jacobi_landen(u, k: float, kp: float):
    """Descending Landen recursion on function values; k in [0, 1).

    One level maps modulus k to k1 = (1 - k')/(1 + k') (quadratically smaller),
    its complement to k1' = 2 sqrt(k')/(1 + k'), and argument u to
    u/(1 + k1); the values come back through

        sn(u,k) = (1 + k1) s / (1 + k1 s^2)
        cn(u,k) = c d / (1 + k1 s^2)
        dn(u,k) = (1 - k1 s^2) / (1 + k1 s^2)

    with (s, c, d) at the smaller modulus.  The dn form is an exact algebraic
    consequence of dn^2 = 1 - k^2 sn^2 and is free of the cancellation that
    plagues the classical phi-recursion near the zeros of cn.
    """
    if k < _LANDEN_FLOOR:
        s = np.sin(u)
        c = np.cos(u)
        return s, c, np.sqrt(1.0 - (k * s) ** 2)
    k1 = (1.0 - kp) / (1.0 + kp)
    s, c, d = _jacobi_landen(u / (1.0 + k1), k1, 2.0 * math.sqrt(kp) / (1.0 + kp))
    t = k1 * s * s
    den = 1.0 + t
    return (1.0 + k1) * s / den, c * d / den, (1.0 - t) / den


def jacobi(u, k: float, kp: float) -> JacobiTriple:
    """Jacobi elliptic functions sn, cn, dn of real argument u, modulus k
    and complementary modulus kp, k^2 + kp^2 = 1.

    Satisfies sn^2 + cn^2 = 1 and dn^2 + k^2 sn^2 = 1, and the first-order
    equations (sn')^2 = (1-sn^2)(1-k^2 sn^2), (cn')^2 = (1-cn^2)(1-k^2+k^2 cn^2),
    (dn')^2 = (1-dn^2)(dn^2-1+k^2), derivatives in u.

    ``u`` may be a scalar or an ndarray; the triple's components then share
    u's shape.  Total on finite input.
    """
    k, kp = normalize_modulus(k), normalize_modulus(kp)
    scalar = np.isscalar(u) or (isinstance(u, np.ndarray) and u.ndim == 0)
    uu = np.asarray(u, dtype=float)
    if kp == 0.0:
        s = np.tanh(uu)
        # sech via exp(-|u|) <= 1 to avoid cosh overflow for large arguments
        e = np.exp(-np.abs(uu))
        c = 2.0 * e / (1.0 + e * e)
        d = c
    else:
        s, c, d = _jacobi_landen(uu, k, kp)
    if scalar:
        return JacobiTriple(float(s), float(c), float(d))
    return JacobiTriple(s, c, d)
