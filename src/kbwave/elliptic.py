"""Jacobi elliptic functions and the complete elliptic integral of the first kind.

Everything is built from scratch on the arithmetic-geometric mean: K(k) comes
straight from the AGM, and sn/cn/dn are computed by recursive descending
Landen transformations of the function values, which stay well conditioned
even where cn passes through zero.  Real argument, real modulus k in [0, 1].

At the degenerate moduli the functions reduce to

    k = 0:  sn = sin,  cn = cos,  dn = 1
    k = 1:  sn = tanh, cn = dn = sech

and arguments k within 1e-12 of those limits are snapped onto them before
evaluation, which avoids cancellation in the k' = sqrt(1-k^2) factors.

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
MODULUS_SNAP = 1e-12  # distance from {0, 1} inside which k snaps to the limit
_LANDEN_FLOOR = 1e-10  # below this the trigonometric limit is exact to ~1e-20


class JacobiTriple(NamedTuple):
    """Values of (sn, cn, dn) at a common argument and modulus."""

    sn: float
    cn: float
    dn: float


def normalize_modulus(k: float) -> float:
    """Clamp a modulus to [0, 1], snapping values within 1e-12 of the ends.

    Raises ValueError for non-finite input or values farther outside [0, 1].
    """
    k = float(k)
    if not math.isfinite(k):
        raise ValueError(f"modulus must be finite, got {k!r}")
    if k < 0.0:
        if k >= -MODULUS_SNAP:
            return 0.0
        raise ValueError(f"modulus {k!r} outside [0, 1]")
    if k > 1.0:
        if k <= 1.0 + MODULUS_SNAP:
            return 1.0
        raise ValueError(f"modulus {k!r} outside [0, 1]")
    if k < MODULUS_SNAP:
        return 0.0
    if 1.0 - k < MODULUS_SNAP:
        return 1.0
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


def complete_K(k: float) -> float:
    """Complete elliptic integral of the first kind, K(k) = pi / (2 AGM(1, k')).

    Strictly increasing in k; diverges logarithmically as k -> 1, so modulus 1
    raises InfinitePeriod (the corresponding wave degenerates to a sech pulse
    of infinite period).
    """
    k = normalize_modulus(k)
    if k == 1.0:
        raise InfinitePeriod("infinite period: complete_K diverges at modulus 1")
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    return math.pi / (2.0 * agm(1.0, kp))


def _jacobi_landen(u, k: float):
    """Descending Landen recursion on function values; k in (0, 1) strictly.

    One level maps modulus k to k1 = (1 - k')/(1 + k') (quadratically smaller)
    and argument u to u/(1 + k1); the values come back through

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
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    k1 = (1.0 - kp) / (1.0 + kp)
    s, c, d = _jacobi_landen(u / (1.0 + k1), k1)
    t = k1 * s * s
    den = 1.0 + t
    return (1.0 + k1) * s / den, c * d / den, (1.0 - t) / den


def jacobi(u, k: float) -> JacobiTriple:
    """Jacobi elliptic functions sn, cn, dn of real argument u and modulus k.

    Satisfies sn^2 + cn^2 = 1 and dn^2 + k^2 sn^2 = 1, and the first-order
    equations (sn')^2 = (1-sn^2)(1-k^2 sn^2), (cn')^2 = (1-cn^2)(1-k^2+k^2 cn^2),
    (dn')^2 = (1-dn^2)(dn^2-1+k^2), derivatives in u.

    ``u`` may be a scalar or an ndarray; the triple's components then share
    u's shape.  Total on finite input.
    """
    k = normalize_modulus(k)
    scalar = np.isscalar(u) or (isinstance(u, np.ndarray) and u.ndim == 0)
    uu = np.asarray(u, dtype=float)
    if k == 0.0:
        s, c, d = np.sin(uu), np.cos(uu), np.ones_like(uu)
    elif k == 1.0:
        s = np.tanh(uu)
        # sech via exp(-|u|) <= 1 to avoid cosh overflow for large arguments
        e = np.exp(-np.abs(uu))
        c = 2.0 * e / (1.0 + e * e)
        d = c
    else:
        s, c, d = _jacobi_landen(uu, k)
    if scalar:
        return JacobiTriple(float(s), float(c), float(d))
    return JacobiTriple(s, c, d)
