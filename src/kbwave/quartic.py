"""The quartic first integral F(f) of the traveling-wave reduction.

Reducing the two-component system along xi = x - c t gives

    (f')^2 = F(f) = -f^4 - 4 c f^3 + 4 (d1 - c^2) f^2 + 8 d2 f + 8 d3,

so everything about a wave -- existence, type, amplitude, speed -- is decided
by the real zeros of F and their multiplicities.  This module evaluates F and
its derivatives, extracts and clusters its real roots, maps root multisets
back to the constants (exactly, in rational arithmetic when the roots are
rational), and classifies the configuration into the case taxonomy that
drives the solution constructors.

For rational constants (int or Fraction) the multiplicities of the real
zeros are exact: the signs of integer invariants of F (its discriminant and
three more) give them with no tolerance, and a multiple zero, and every
zero when F has one, or no real zero, comes in closed form with no float
work at all.  When F is square-free with real zeros, they come in closed
form too: Ferrari's factoring of the depressed quartic in floats, polished
by Newton, each zero then certified within an ulp of the exact one by a
sign change of F, in integers, between the floats next to it (a float
that misses takes secant steps through those exact values).  On the
classify benchmark's inputs every zero is certified and correctly rounded
(the eigensolve gave 76 of 800 correctly rounded, the worst 281 ulps off).
Where the certificate fails (a pair closer than about 1e-8 of the zeros'
spread, or zeros of very different sizes: about a quarter of a harsh random
sweep), they are the eigenvalues of F's companion matrix (the matrix and the
eigensolve of ``numpy.roots``) within a tolerance of the real axis, taken
as they are: the signature says how many there are, so no grouping is
needed.  The matrix holds the exact coefficients each rounded once, from
one integer numerator over one integer denominator.  Float constants take
the same eigensolve, and their eigenvalues are grouped into multiple zeros
within a fixed tolerance, so two zeros closer than their rounding can tell
apart merge.  The command line reads ``--params`` and ``--roots`` exactly,
so no verb takes that path.

A wave lives in a band of F > 0 between adjacent real zeros.  The bands follow
from the multiplicities alone (``band_edges``): F < 0 above the top zero and
changes sign at each zero of odd multiplicity.  Each case tag's existence
verdict is read off its bands.  ``bands`` gives each band's two edges with
the orbit's local rate there: a turning point at a simple zero, an
exponential approach to a double, an algebraic one to a triple.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

__all__ = [
    "Params",
    "RootMultiset",
    "CaseTag",
    "eval_F",
    "eval_F_deriv",
    "first_integral_residual",
    "band_edges",
    "bands",
    "Edge",
    "roots_of_F",
    "params_from_roots",
    "classify",
    "existence",
    "quadratic_cofactor",
    "scaled_bound",
]

_CLUSTER_TOL = 1e-7  # double roots of a double-precision quartic keep ~8 digits
_NEAR = 1e-2  # roots this close (relative) may be one multiple zero split by the eigensolve
_ROUNDING = 8 * float(np.finfo(float).eps)  # twice Horner's bound 2n u = 4 eps (n = 4)
_INF = math.inf


@dataclass(frozen=True)
class Params:
    """Constants of the first integral: wave speed c and integration constants.

    Each is an int, a Fraction or a finite real; a NaN or an infinity raises
    ValueError naming the first such parameter.  Four floats, the common
    case, are checked in one chain."""

    c: float | Fraction
    d1: float | Fraction
    d2: float | Fraction
    d3: float | Fraction

    def __post_init__(self):
        c, d1, d2, d3 = self.c, self.d1, self.d2, self.d3
        # four finite floats, the common case, pass in one chain; anything
        # else takes the loop, whose refusal names the parameter
        if (type(c) is type(d1) is type(d2) is type(d3) is float and math.isfinite(c)
                and math.isfinite(d1) and math.isfinite(d2) and math.isfinite(d3)):
            return
        for name in ("c", "d1", "d2", "d3"):
            v = getattr(self, name)
            # a float skips the (slow, abstract) Fraction probe
            if (type(v) is float or not isinstance(v, (int, Fraction))) and not math.isfinite(v):
                raise ValueError(f"parameter {name} must be finite, got {v!r}")

    def as_floats(self) -> "Params":
        """These constants as floats: ``self`` when they already are."""
        if type(self.c) is type(self.d1) is type(self.d2) is type(self.d3) is float:
            return self
        return Params(float(self.c), float(self.d1), float(self.d2), float(self.d3))

    def coefficients(self):
        """Quartic coefficients of F, highest degree first: P_2 of
        :mod:`kbwave.hierarchy`'s recurrence at e = (d1, -d2, d3), written
        out."""
        c, d1, d2, d3 = self.c, self.d1, self.d2, self.d3
        return (-1, -4 * c, 4 * (d1 - c * c), 8 * d2, 8 * d3)


@dataclass(frozen=True)
class RootMultiset:
    """Sorted real zeros of F with multiplicities.

    Values are finite and strictly increase (as floats), and multiplicities
    are positive and sum to 0, 2 or 4: complex roots come in conjugate pairs
    and F has real coefficients and degree 4.  A tuple of ``(float, int)``
    entries, as ``roots_of_F`` and the constructors build, is checked in one
    pass and kept as it is; other entries (a list, numpy or bool
    multiplicities, non-float values) are made ``(value, int(m))`` tuples
    and checked in the order multiplicities, order, total, finiteness.  A
    refusal is a ValueError.
    """

    entries: tuple

    def __post_init__(self):
        # one pass accepts what roots_of_F and the constructors build; any
        # other input, and every refusal, is left to _checked_entries, which
        # normalises and refuses in the order stated above
        entries, total, last = self.entries, 0, -_INF
        if type(entries) is tuple:
            for e in entries:
                if type(e) is not tuple:
                    break
                v, m = e
                if not (type(v) is float and type(m) is int and m > 0 and last < v < _INF):
                    break
                total += m
                last = v
            else:
                if total in (0, 2, 4):
                    return
        object.__setattr__(self, "entries", _checked_entries(entries))

    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def values(self):
        return tuple(v for v, _ in self.entries)

    def multiplicities(self):
        return tuple(m for _, m in self.entries)

    def expand(self):
        """Roots repeated by multiplicity."""
        out = []
        for v, m in self.entries:
            out += (v,) * m
        return tuple(out)

    def scale(self) -> float:
        """max(1, |value|) over the entries, as a float."""
        s = 1.0
        for v, _ in self.entries:
            a = abs(float(v))
            if a > s:
                s = a
        return s

    @classmethod
    def from_values(cls, values, tol: float) -> "RootMultiset":
        """Cluster listed zeros (repeats allowed) into a multiset.

        Sorted values within tol*max(1, |value|) of their neighbor merge into
        one entry at the cluster mean, with the cluster size as multiplicity.
        """
        clusters = _clustered([float(v) for v in values], tol)
        return cls(tuple((float(np.mean(c)), len(c)) for c in clusters))


def _checked_entries(entries):
    """``RootMultiset``'s entries when they are not a tuple of ``(float,
    int)`` tuples: each made ``(value, int(m))`` (the tuple rebuilt only when
    one is not a ``(value, int)`` tuple already), then checked in turn for
    positive multiplicities, strictly increasing float values, a total of
    0, 2 or 4 and finite values."""
    if type(entries) is not tuple or not all(
            type(e) is tuple and len(e) == 2 and type(e[1]) is int for e in entries):
        entries = tuple([(v, int(m)) for v, m in entries])
    total = 0
    for _, m in entries:
        if m <= 0:
            raise ValueError("multiplicities must be positive")
        total += m
    for (a, _), (b, _) in zip(entries, entries[1:]):
        if float(a) >= float(b):
            raise ValueError("root values must be strictly increasing")
    if total not in (0, 2, 4):
        raise ValueError(f"total multiplicity {total} not in {{0, 2, 4}}")
    values = tuple(v for v, _ in entries)
    if any(v != v or v in (_INF, -_INF) for v in values):
        raise ValueError(f"root values must be finite, got {values}")
    return entries


def _clustered(values, tol):
    """Sorted values in runs where each is within tol*max(1, |value|) of the last."""
    clusters = []
    for v in sorted(values):
        if clusters and v - clusters[-1][-1] <= tol * max(1.0, abs(v)):
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return clusters


class CaseTag(enum.Enum):
    """Taxonomy of real-zero configurations of F."""

    NO_REAL_ZEROS = "NoRealZeros"
    TWO_SIMPLE_ONLY = "TwoSimpleOnly"
    ONE_DOUBLE_ONLY = "OneDoubleOnly"
    TWO_DOUBLES_ONLY = "TwoDoublesOnly"
    QUADRUPLE = "Quadruple"
    DOUBLE_BELOW_SIMPLES = "DoubleBelowSimples"
    DOUBLE_ABOVE_SIMPLES = "DoubleAboveSimples"
    DOUBLE_BETWEEN_SIMPLES = "DoubleBetweenSimples"
    TRIPLE_WITH_SIMPLE_ABOVE = "TripleWithSimpleAbove"
    TRIPLE_WITH_SIMPLE_BELOW = "TripleWithSimpleBelow"
    FOUR_SIMPLE = "FourSimple"


# The case tag of each multiplicity signature, every composition of 0, 2 or 4;
# a triple is named by where its simple zero sits.
_TAGS = {
    (): CaseTag.NO_REAL_ZEROS,
    (1, 1): CaseTag.TWO_SIMPLE_ONLY,
    (2,): CaseTag.ONE_DOUBLE_ONLY,
    (2, 2): CaseTag.TWO_DOUBLES_ONLY,
    (4,): CaseTag.QUADRUPLE,
    (2, 1, 1): CaseTag.DOUBLE_BELOW_SIMPLES,
    (1, 2, 1): CaseTag.DOUBLE_BETWEEN_SIMPLES,
    (1, 1, 2): CaseTag.DOUBLE_ABOVE_SIMPLES,
    (3, 1): CaseTag.TRIPLE_WITH_SIMPLE_ABOVE,
    (1, 3): CaseTag.TRIPLE_WITH_SIMPLE_BELOW,
    (1, 1, 1, 1): CaseTag.FOUR_SIMPLE,
}


def band_edges(multiplicities):
    """Index pairs (i - 1, i), ascending, of the adjacent real zeros that bound
    a band of F > 0: F < 0 above the top zero, and it changes sign at every
    zero of odd multiplicity."""
    return [(i - 1, i) for i in range(1, len(multiplicities))
            if sum(multiplicities[i:]) % 2]


class Edge(NamedTuple):
    """A band's edge: a zero of F, its multiplicity, and the orbit's rate there.

    The rate, by multiplicity:

    1. f'' = F'(value)/2 where the orbit turns: positive at a band's lower
       edge, negative at its upper one;
    2. sqrt(F''(value)/2): a pulse meets the double zero like
       exp(-rate |xi|) (F'' rounded to zero or below gives 0);
    3. sqrt(|F'''(value)|/6): a pulse meets the triple zero like
       1/(rate xi / 2)^2, from above when it is the band's lower edge.

    A double zero with F'' < 0 and a quadruple zero bound no band, so no
    edge has them.
    """

    value: float | Fraction
    mult: int
    rate: float


def _rate(pf: Params, f: float, mult: int) -> float:
    d = eval_F_deriv(pf, f, mult)
    if mult == 1:
        return d / 2.0
    if mult == 2:
        return math.sqrt(max(d, 0.0) / 2.0)
    return math.sqrt(abs(d) / 6.0)


def bands(p: Params, roots: RootMultiset):
    """The bands of F > 0 that ``band_edges`` finds, ascending: one
    (lower, upper) pair of Edges each, the rates from the float F of ``p``
    at the float zeros of ``roots``."""
    pf = p.as_floats()

    def edge(i):
        v, m = roots.entries[i]
        return Edge(v, m, _rate(pf, float(v), m))

    return [(edge(i), edge(j)) for i, j in band_edges(roots.multiplicities())]


def _verdict(sig):
    """'none' with no band, 'solitary' when a band ends at a multiple zero
    (a pulse), else 'periodic' (two simple edges)."""
    edges = [sig[k] for pair in band_edges(sig) for k in pair]
    return "none" if not edges else "solitary" if max(edges) > 1 else "periodic"


# Existence verdicts: which non-constant traveling waves each case admits.
_EXISTENCE = {tag: _verdict(sig) for sig, tag in _TAGS.items()}


def eval_F(p: Params, f):
    """Evaluate F(f) by Horner's scheme; exact for rational inputs."""
    c4, c3, c2, c1, c0 = p.coefficients()
    # (((c4 f + c3) f + c2) f + c1) f + c0, in place after its first step
    v = c4 * f + c3
    v *= f
    v += c2
    v *= f
    v += c1
    v *= f
    v += c0
    return v


def first_integral_residual(p: Params, f, fp) -> float:
    """max |f'^2 - F(f)| over samples f, f' (arrays) of a wave, F the quartic
    of the float params ``p``."""
    r = fp * fp
    r -= eval_F(p, f)
    return float(np.maximum.reduce(np.abs(r, out=r), axis=None))  # r.max(), without its wrapper


def _derivative(coeffs):
    """The derivative's coefficients, highest degree first like ``coeffs``."""
    return [a * (len(coeffs) - 1 - i) for i, a in enumerate(coeffs[:-1])]


def eval_F_deriv(p: Params, f, order: int = 1):
    """Derivative of F of the given order (0..4) at f, by Horner's scheme."""
    if order not in range(5):
        raise ValueError(f"order must be 0..4, got {order}")
    coeffs = p.coefficients()
    for _ in range(order):
        coeffs = _derivative(coeffs)
    v = 0 * f  # f's type and shape: exact for rationals, elementwise for arrays
    for a in coeffs:
        v = v * f + a
    return v


def _taylor(coeffs, x, n):
    """[(F^(j)(x), M_j)] for j < n, F the polynomial with ``coeffs`` (highest
    degree first) and M_j the same derivative of the polynomial with absolute
    coefficients at |x|: a few eps times M_j bounds the rounding of F^(j)(x)."""
    out = []
    ax = abs(x)
    for j in range(n):
        if j:
            coeffs = _derivative(coeffs)
        v = m = 0.0
        for a in coeffs:
            v, m = v * x + a, m * ax + abs(a)
        out.append((v, m))
    return out


def _multiple_zero(coeffs, group, tol):
    """The real m-fold zero of F that the m roots of ``group`` split from, or None.

    Their mean stays accurate, and there F and its derivatives below m - 1
    must vanish to within their rounding (F^(m-1) is not asked to: the
    mean's own error moves it by that error times F^(m)).
    """
    m = len(group)
    mean = sum(group) / m
    if abs(mean.imag) > tol * max(1.0, abs(mean)):
        return None
    if all(abs(v) <= _ROUNDING * bound for v, bound in _taylor(coeffs, mean.real, m - 1)):
        return mean.real
    return None


def _multiple_zeros(coeffs, roots, tol, radius, floor):
    """Split roots into multiple zeros [(value, m)] and the roots left over.

    Roots chained by distances of at most ``radius`` form a group; a group
    that is no multiple zero is split again at a tenth of the radius, down
    to ``floor``.
    """
    groups = []
    for z in roots:
        # z and the groups it reaches become one group, placed last, members
        # in this order: the mean sums them in it
        merged, kept = [z], []
        for g in groups:
            for w in g:
                if abs(z - w) <= radius:
                    merged += g
                    break
            else:
                kept.append(g)
        kept.append(merged)
        groups = kept
    if len(groups) == len(roots):
        return [], roots
    found, rest = [], []
    for g in groups:
        x = _multiple_zero(coeffs, g, tol) if len(g) > 1 else None
        if x is not None:
            found.append((x, len(g)))
        elif len(g) > 1 and radius > floor:
            more, left = _multiple_zeros(coeffs, g, tol, 0.1 * radius, floor)
            found += more
            rest += left
        else:
            rest += g
    return found, rest


# F's coefficients, highest degree first, as the error for one too large names them
_COEFFICIENT_NAMES = ("-1", "-4 c", "4 (d1 - c^2)", "8 d2", "8 d3")


def _too_large(name, p):
    return ValueError(f"coefficient {name} of F does not fit a float: {p}")


_EXACT = (int, Fraction)


def _rational(p: Params) -> bool:
    return (isinstance(p.c, _EXACT) and isinstance(p.d1, _EXACT)
            and isinstance(p.d2, _EXACT) and isinstance(p.d3, _EXACT))


def _ratios(values):
    """(numerator, denominator) of each of the rational ``values``."""
    return [v.as_integer_ratio() for v in values]


def _rounded_coefficients(p, ratios):
    """F's coefficients for the ``_ratios`` of rational (c, d1, d2, d3), each
    exact one as one integer numerator over one integer denominator: int /
    int rounds correctly, so each float is the exact coefficient rounded
    once.  Raises ValueError, naming the coefficient, when one does not fit
    a float."""
    (a, b), (e, g), (h, k), (m, n) = ratios
    ratios = ((-1, 1), (-4 * a, b), (4 * (e * b * b - a * a * g), g * b * b),
              (8 * h, k), (8 * m, n))
    coeffs = []
    for name, (x, y) in zip(_COEFFICIENT_NAMES, ratios):
        try:
            coeffs.append(x / y)
        except OverflowError:
            raise _too_large(name, p) from None
    return coeffs


# With |c|, |d1|, |d2|, |d3| below 2^(_SMALL + 1), every coefficient of F is
# below 2^(2 _SMALL + 5) < 2^1023 and so fits a float
_SMALL = 500


def _float_coefficients(p: Params):
    """F's coefficients as floats, highest degree first.

    Rational params give each exact coefficient rounded once; float params
    go through ``Params.coefficients`` in float arithmetic.  Raises
    ValueError, naming the coefficient, when one does not fit a float.
    """
    values = (p.c, p.d1, p.d2, p.d3)
    if _rational(p):
        return _rounded_coefficients(p, _ratios(values))
    try:
        coeffs = [float(v) for v in p.coefficients()]
    except OverflowError:  # a Fraction too large for float arithmetic among floats
        return _rounded_coefficients(p, _ratios(
            [v if isinstance(v, (int, Fraction)) else Fraction(float(v)) for v in values]))
    for name, v in zip(_COEFFICIENT_NAMES, coeffs):
        if not math.isfinite(v):
            raise _too_large(name, p)
    return coeffs


def _pair(B, S, M):
    """The zeros (-B - sqrt(S))/M < (-B + sqrt(S))/M as floats, for integers
    S > 0 and M > 0: each rounded once when S is a perfect square, else the
    one away from -B/M from |B| + sqrt(S) (no cancellation) and the other
    from the product of the two, (B^2 - S)/M^2, with sqrt(S) to at least 63
    bits, so each is within about half an ulp."""
    root = math.isqrt(S)
    if root * root == S:
        return (-B - root) / M, (-B + root) / M
    k = max(0, 64 - S.bit_length() // 2)
    W = (abs(B) << k) + math.isqrt(S << 2 * k)  # (|B| + sqrt(S)) 2^k, error < 1
    far = W / (M << k)
    near = ((B * B - S) << k) / (M * W)
    return (-far, -near) if B >= 0 else (near, far)


def _quadratic_zeros(b, c):
    """(discriminant, [two floats]) of x^2 + b x + c: its real zeros, the
    larger in size first (no cancellation) and the other from their product
    c, or for a complex pair its real part -+ its imaginary part."""
    disc = b * b - 4.0 * c
    if disc < 0.0:
        return disc, [-0.5 * (b + math.sqrt(-disc)), -0.5 * (b - math.sqrt(-disc))]
    w = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return disc, [w, c / w] if w else [0.0, 0.0]


def _ferrari(p, q, r, n):
    """Floats near the n real zeros of x^4 + p x^2 + q x + r, ascending,
    where n is 2 or 4, from the quartic's two quadratic factors.

    With y the largest zero of the resolvent cubic y^3 + 2p y^2 +
    (p^2 - 4r) y - q^2 (positive when q != 0: the cubic is -q^2 at 0), the
    quartic is (x^2 + a x + b)(x^2 - a x + g) with a = sqrt(y), b + g = p + y,
    g - b = q/a and b g = r; the larger of b and g in size comes from the
    sum and difference, the other from the product.  The cubic's zero is
    Cardano's, or the largest of its trigonometric three, shifted by -2p/3
    and polished by two Newton steps.  With two real zeros they are the
    zeros of the factor with the larger discriminant (exactly one factor has
    real zeros); a factor whose zeros rounding made complex gives its real
    part -+ its imaginary part, either side of a close pair.
    """
    if q == 0.0:  # x = +-sqrt(t) for both zeros t of t^2 + p t + r, or the larger
        out = []
        for t in sorted(_quadratic_zeros(p, r)[1])[2 - n // 2:]:
            x = math.sqrt(max(t, 0.0))
            out += [-x, x]
        return sorted(out)
    b, c, d = 2.0 * p, p * p - 4.0 * r, -q * q
    b3 = b / 3.0
    e = c - b * b3  # y = t - b/3: t^3 + e t + h
    h = (2.0 * b3 * b3 - c) * b3 + d
    D = 0.25 * h * h + e * e * e / 27.0
    if D >= 0.0:
        u = math.cbrt(-0.5 * h - math.copysign(math.sqrt(D), h))
        t = u - e / (3.0 * u) if u else 0.0
    else:  # three real zeros, so e < 0
        m = math.sqrt(-e / 3.0)
        t = 2.0 * m * math.cos(math.acos(max(-1.0, min(1.0, -0.5 * h / (m * m * m)))) / 3.0)
    y = t - b3
    for _ in range(2):
        slope = (3.0 * y + 2.0 * b) * y + c
        if slope:
            y -= (((y + b) * y + c) * y + d) / slope
    if not y > 0.0:
        return []
    a = math.sqrt(y)
    mid, half = 0.5 * (p + y), 0.5 * q / a
    lo, hi = mid - half, mid + half
    if abs(lo) < abs(hi):
        lo = r / hi
    elif lo:
        hi = r / lo
    first, second = _quadratic_zeros(a, lo), _quadratic_zeros(-a, hi)
    if n == 2:
        return sorted(max(first, second)[1])
    return sorted(first[1] + second[1])


def _polish(p, q, r, x):
    """x after Newton steps on x^4 + p x^2 + q x + r, for a zero |x| < 2:
    they stop where a step no longer shrinks, and none is 4 or more."""
    last = 4.0
    for _ in range(6):
        xx = x * x
        slope = (4.0 * xx + 2.0 * p) * x + q
        if not slope:
            break
        step = ((xx + p) * xx + q * x + r) / slope
        if not abs(step) < last:
            break
        x -= step
        last = abs(step)
    return x


def _bracket(P, Q, R, A, L, z):
    """(zero, lo, hi) for the float z near a simple zero of G = psi^4 +
    P psi^2 + Q psi + R at psi = L f + A: lo and hi are the floats next to
    the zero, where G, in integers, has opposite signs, or both the zero
    itself where G vanishes at a float next to z.  Where G has one sign at
    both, z takes a secant step through those two exact values (a Newton
    step on the exact G) and is tried again, up to five times; None when
    that fails."""
    for _ in range(6):
        lo, hi = math.nextafter(z, -math.inf), math.nextafter(z, math.inf)
        (u, v), (w, j) = lo.as_integer_ratio(), hi.as_integer_ratio()
        k = max(v, j).bit_length() - 1  # lo and hi over one power of two, 2^k
        # G(psi) 2^(4k) at psi = L lo + A and at L hi + A, integers
        Ak, Pk, Qk, Rk = A << k, P << 2 * k, Q << 3 * k, R << 4 * k
        N = L * (u << (k + 1 - v.bit_length())) + Ak
        below = ((N * N + Pk) * N + Qk) * N + Rk
        N = L * (w << (k + 1 - j.bit_length())) + Ak
        over = ((N * N + Pk) * N + Qk) * N + Rk
        if not below or not over:
            z = lo if not below else hi
            return z, z, z
        if (below < 0) != (over < 0):
            return z, lo, hi
        if below == over:
            return None
        z = lo - (hi - lo) * (below / (over - below))
    return None


def _certified_zeros(P, Q, R, A, L, n):
    """The n real zeros [(float zero, 1)] of a square-free F, from the
    integers of ``_exact_zeros`` (-F at f = (psi - A)/L is G(psi) / L^4,
    G = psi^4 + P psi^2 + Q psi + R), or None when they cannot be certified.

    With psi = 2^s x and s the least that makes every coefficient of the
    monic quartic in x less than 1 in size (so its zeros are below 2), the
    zeros x come from ``_ferrari`` and ``_polish`` in floats, and each one's
    f = (2^s x - A)/L is rounded once from the exact rational.  Each is then
    certified in integers by ``_bracket``, and the brackets must not
    overlap.  So each bracket holds a zero, and since F has exactly n real
    zeros, each holds one, within an ulp of its float.
    """
    s = max((P.bit_length() + 1) // 2, (Q.bit_length() + 2) // 3, (R.bit_length() + 3) // 4)
    p, q, r = P / (1 << 2 * s), Q / (1 << 3 * s), R / (1 << 4 * s)
    xs = _ferrari(p, q, r, n)
    if len(xs) != n:
        return None
    zeros, above = [], -math.inf
    try:
        for x in xs:
            u, v = _polish(p, q, r, x).as_integer_ratio()
            found = _bracket(P, Q, R, A, L, ((u << s) - A * v) / (L * v))
            if found is None or found[1] < above or zeros and found[0] <= zeros[-1][0]:
                return None
            zeros.append((found[0] + 0.0, 1))  # a zero at the origin as +0.0
            above = found[2]
    except OverflowError:  # a zero, or the float next to it, beyond the floats
        return None
    return zeros


def _exact_zeros(p):
    """For rational params p: the multiplicity signature of F's real zeros
    and its entries [(float zero, multiplicity)], or None for the entries
    when F is square-free with real zeros that ``_certified_zeros`` cannot
    certify from the integers P, Q, R, A and L below.  Raises
    ``_rounded_coefficients``' ValueError when a coefficient of F does not
    fit a float; the exact division is done only when a param's size, read
    off its bit lengths, comes near the limit.

    With f = phi - c, -F = phi^4 + p phi^2 + q phi + r, where p = -2c^2 - 4d1,
    q = 8 (c d1 - d2) and r = c^4 - 4c^2 d1 + 8c d2 - 8d3; scaled by L, the
    lcm of the denominators, psi = L phi has the integer coefficients
    P = p L^2, Q = q L^3, R = r L^4, and f = (psi - A)/L with A = c L.  The
    signs of the discriminant and of P, 64R - 16P^2 and P^2 + 12R (the
    standard nature-of-roots table) give the signature, and every multiple
    zero is rational or a pair +-sqrt(-P/2) in psi:
    quadruple psi = 0; triple t = -3Q/(4P) with its simple zero at -3t; two
    doubles psi^2 = -P/2; one double t = -Q (12R + P^2)/(2P^3 - 8PR + 9Q^2),
    whose cofactor psi^2 + 2t psi + (P + 3t^2) has the other two zeros.
    """
    (a, b), (e, g), (h, k), (m, n) = ratios = _ratios((p.c, p.d1, p.d2, p.d3))
    # a param past 2^_SMALL has a numerator past it too
    if (max(abs(a), abs(e), abs(h), abs(m)).bit_length() > _SMALL
            and max(x.bit_length() - y.bit_length() for x, y in ratios) > _SMALL):
        _rounded_coefficients(p, ratios)
    L = math.lcm(b, g, k, n)
    A = a * (L // b)
    D1 = e * (L // g) * L
    D2 = h * (L // k) * L * L
    D3 = m * (L // n) * L * L * L
    AA = A * A
    P = -2 * AA - 4 * D1
    Q = 8 * (A * D1 - D2)
    R = (AA - 4 * D1) * AA + 8 * (A * D2 - D3)
    PP, QQ = P * P, Q * Q
    # 256R^3 - 128P^2R^2 + 144PQ^2R - 27Q^4 + 16P^4R - 4P^3Q^2, by Horner in R
    disc = (((256 * R - 128 * PP) * R + (144 * QQ + 16 * PP * P) * P) * R
            - (27 * QQ + 4 * PP * P) * QQ)
    if disc < 0:
        return (1, 1), _certified_zeros(P, Q, R, A, L, 2)
    if disc > 0:
        if P < 0 and 4 * R < PP:  # 8p < 0 and 64r - 16p^2 < 0
            return (1, 1, 1, 1), _certified_zeros(P, Q, R, A, L, 4)
        return (), ()
    if P == 0 and Q == 0:  # and so R = 0
        return (4,), [(-a / b, 4)]
    if PP + 12 * R == 0:  # a triple zero t = -3Q/(4P), its simple zero at -3t
        triple = (3 * Q + 4 * P * A) / (-4 * P * L)  # a positive divisor: no -0.0
        simple = (4 * P * A - 9 * Q) / (-4 * P * L)
        # P < 0, so t < 0 exactly when Q < 0
        return ((3, 1), [(triple, 3), (simple, 1)]) if Q < 0 else \
            ((1, 3), [(simple, 1), (triple, 3)])
    if Q == 0 and 4 * R == PP:  # (psi^2 + P/2)^2
        if P > 0:
            return (), ()
        lo, hi = _pair(A, -P // 2, L)
        return (2, 2), [(lo, 2), (hi, 2)]
    # one double zero t = N/M in psi
    N = -Q * (12 * R + PP)
    M = 2 * PP * P - 8 * P * R + 9 * QQ
    if M < 0:
        N, M = -N, -M
    double = (N - A * M) / (M * L)
    S = -P * M * M - 2 * N * N  # the cofactor's discriminant / 4, times M^2
    if S < 0:
        return (2,), [(double, 2)]
    lo, hi = _pair(N + A * M, S, M * L)
    if 6 * N * N + P * M * M < 0:  # |2t| < sqrt(S)/M: the double between
        return (1, 2, 1), [(lo, 1), (double, 2), (hi, 1)]
    if N > 0:  # t above the cofactor's centre -t
        return (1, 1, 2), [(lo, 1), (hi, 1), (double, 2)]
    return (2, 1, 1), [(double, 2), (lo, 1), (hi, 1)]


def _nonconvergence(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


@functools.lru_cache(maxsize=4)
def _subdiagonal(n):
    """``np.eye(n, k=-1)``, read-only: the companion matrix copies it."""
    shift = np.eye(n, k=-1)
    shift.flags.writeable = False
    return shift


def _companion_roots(coeffs):
    """The complex roots of the polynomial with ``coeffs`` (highest degree
    first, the first nonzero) exactly as ``numpy.roots`` gives them: the
    eigenvalues of the companion matrix of the polynomial without its
    trailing zero coefficients, floats when every one is real, then one
    zero of the eigenvalues' type per trailing zero.

    The eigenvalues come from the gufunc that ``np.linalg.eigvals`` wraps,
    under the wrapper's error state, so they are the wrapper's to the bit
    and a failed eigensolve raises its LinAlgError; the wrapper's checks
    are left out, since the matrix is real and square, and finite when the
    coefficients and their ratios to the first are (F's first is -1).
    """
    n = len(coeffs)
    while n > 1 and coeffs[n - 1] == 0:
        n -= 1
    if n == 1:  # a monomial: every root is zero
        return [0.0] * (len(coeffs) - 1)
    companion = _subdiagonal(n - 1).copy()
    companion[0] = [-a / coeffs[0] for a in coeffs[1:n]]
    with np.errstate(call=_nonconvergence, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        roots = _umath_linalg.eigvals(companion, signature="d->D").tolist()
    if not any(z.imag for z in roots):
        roots = [z.real for z in roots]
    return roots + [type(roots[0])(0)] * (len(coeffs) - n)


def scaled_bound(rtol: float, scale: float, power: int) -> float:
    """The bound rtol * scale**power of a check on F near zeros of size
    ``scale``; raises ValueError when scale**power does not fit a float,
    where F's own values overflow and no such check can be made."""
    try:
        return rtol * scale ** power
    except OverflowError:
        raise ValueError(
            f"zeros of size {scale:.6g} are too large: the bound {rtol:g} * "
            f"{scale:.6g}^{power} does not fit a float") from None


def _check_cluster(coeffs, center, m):
    """Raise unless F and its derivatives below m nearly vanish at the
    cluster ``center`` of m roots: within 1e-3 * max(1, |center|)^(4 - j),
    or within the rounding of their own evaluation, as ``_multiple_zero``
    bounds it.  A loose gate: it guards against an eigenvalue taken as a
    zero that is none."""
    scale = max(1.0, abs(center))
    for j, (v, bound) in enumerate(_taylor(coeffs, center, m)):
        if abs(v) > scaled_bound(1e-3, scale, 4 - j) and abs(v) > _ROUNDING * bound:
            raise ValueError(
                f"cluster at {center} fails multiplicity-{m} check "
                f"(|F^({j})| = {abs(v):.3e})"
            )


def _square_free_zeros(p, coeffs, signature):
    """The real zeros of a square-free F with real zeros: the eigenvalues
    within _CLUSTER_TOL*max(1, |root|) of the real axis, each checked on F,
    which must be as many as ``signature`` has and strictly increase."""
    tol = _CLUSTER_TOL
    real = sorted([z.real + 0.0  # a zero real part as +0.0, as a mean gives it
                   for z in _companion_roots(coeffs) if abs(z.imag) <= tol * max(1.0, abs(z))])
    for z in real:
        _check_cluster(coeffs, z, 1)
    if len(real) != len(signature) or any(a >= b for a, b in zip(real, real[1:])):
        got = tuple(len(list(run)) for _, run in itertools.groupby(real))
        raise ValueError(
            f"the eigensolve resolves zeros of multiplicities {got} "
            f"where F has {signature}: {p}")
    return RootMultiset(tuple((z, 1) for z in real))


def roots_of_F(p: Params) -> RootMultiset:
    """Real roots of F, clustered into a multiset.

    Rational params (int or Fraction, as the command line reads
    ``--params`` and ``--roots``) get their multiplicities exactly, from integer
    invariants of F (see ``_exact_zeros``), before any float work: a
    multiple zero, and every zero when F has one, or no real zero, is found
    in closed form with no eigensolve, each rational zero the exact one
    rounded once.  When F is square-free with real zeros, they come in
    closed form too (Ferrari's, polished by Newton, see
    ``_certified_zeros``), each certified within an ulp of an exact zero by
    a sign change of F, in integers, between the floats next to it.  Where
    that certificate fails (a pair closer than about 1e-8 of the zeros'
    spread, or zeros of very different sizes; none of the classify
    benchmark's inputs), the zeros are the eigenvalues of the companion
    matrix of F's coefficients, each exact one rounded once, within
    1e-7*max(1, |root|) of the real axis, with no grouping, so a pair of
    zeros however close stays two simple zeros.  Each must pass the F check
    below, and when they are not as many as the exact signature says, or
    two coincide, a ValueError naming the params is raised in place of a
    wrong case tag.

    Float params: the raw roots are the eigenvalues of the companion
    matrix of F's float coefficients, as ``numpy.roots`` computes them (see
    ``_companion_roots``).  These split an m-fold zero into m roots about
    eps^(1/m) apart (up to 1e-3 relative for a quadruple zero), so roots
    within 1e-2 relative of each other are grouped, and a group of m
    becomes one m-fold zero when its mean is real and F and its lower
    derivatives vanish there to within rounding (see ``_multiple_zero``).
    The other roots are real when their imaginary part is within
    1e-7*max(1, |root|), and real roots closer than that merge into one
    entry with summed multiplicity, sanity-checked by the smallness of the
    lower derivatives of F at the cluster center.  The tolerances are
    measured from 0, so zeros far from it that the floats split or merge
    can get a wrong case tag; exact params cannot.  Raises ValueError when
    a coefficient, or the bound of that check, does not fit a float.
    """
    if _rational(p):
        signature, known = _exact_zeros(p)
        if known is not None:
            return RootMultiset(tuple(known))
        return _square_free_zeros(p, _float_coefficients(p), signature)
    tol = _CLUSTER_TOL
    coeffs = _float_coefficients(p)
    raw = _companion_roots(coeffs)
    scale = max(1.0, *map(abs, raw))
    entries, rest = _multiple_zeros(coeffs, raw, tol, _NEAR * scale, tol * scale)
    real = [z.real for z in rest if abs(z.imag) <= tol * max(1.0, abs(z))]
    for members in _clustered(real, tol):
        m = len(members)
        center = sum(members) / m
        _check_cluster(coeffs, center, m)
        entries.append((center, m))
    return RootMultiset(tuple(sorted(entries)))


def params_from_roots(r: RootMultiset) -> Params:
    """Constants (c, d1, d2, d3) from the four zeros of F.

    With e1..e4 the elementary symmetric functions of the zeros,

        c = -e1/4,  d1 = e1^2/16 - e2/4,  d2 = e3/8,  d3 = -e4/8.

    Exact in rational arithmetic when every root value is rational; raises
    ValueError("underdetermined") unless the total multiplicity is 4.
    """
    roots = r.expand()
    if len(roots) != 4:
        raise ValueError("underdetermined: need total multiplicity 4")
    # a float root is not rational: it skips the (slow, abstract) Rational probe
    if type(roots[0]) is not float and all(isinstance(v, Rational) for v in roots):
        f1, f2, f3, f4 = map(Fraction, roots)
    else:
        f1, f2, f3, f4 = map(float, roots)
    e1 = f1 + f2 + f3 + f4
    e2 = f1 * f2 + f1 * f3 + f1 * f4 + f2 * f3 + f2 * f4 + f3 * f4
    e3 = f1 * f2 * f3 + f1 * f2 * f4 + f1 * f3 * f4 + f2 * f3 * f4
    e4 = f1 * f2 * f3 * f4
    return Params(-e1 / 4, e1 * e1 / 16 - e2 / 4, e3 / 8, -e4 / 8)


def classify(r: RootMultiset) -> CaseTag:
    """Map a root multiset to its case tag; total and deterministic."""
    return _TAGS[r.multiplicities()]


def existence(tag: CaseTag) -> str:
    """Existence verdict for a case tag: 'none', 'solitary' or 'periodic'."""
    return _EXISTENCE[tag]


def quadratic_cofactor(p: Params, f1: float, f2: float | None = None):
    """Monic quadratic cofactor q(f) with F = -(f-f1)(f-f2) q(f).

    With one argument the division is by (f - f1)^2 (a double root); with two
    it is by the two given simple roots.  Returns (pf, qq, disc) for
    q = f^2 + pf f + qq, disc = pf^2 - 4 qq.  For a genuine OneDoubleOnly
    configuration disc < 0 (then F < 0 away from f1 and only the constant
    solution exists); for TwoSimpleOnly the cofactor records the
    complex-conjugate pair implicitly, again with disc < 0.
    """
    coeffs = [-float(a) for a in p.coefficients()]  # monic -F, divided by each root
    for root in (f1, f1 if f2 is None else f2):
        out = [coeffs[0]]
        for a in coeffs[1:]:
            out.append(a + root * out[-1])
        rem = out.pop()
        scale = max(1.0, abs(root)) ** (len(out))
        if abs(rem) > 1e-6 * scale:
            raise ValueError(f"{root} is not a root (remainder {rem:.3e})")
        coeffs = out
    _, pf, qq = coeffs
    return pf, qq, pf * pf - 4.0 * qq
