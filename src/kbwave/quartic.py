"""The quartic first integral F(f) of the traveling-wave reduction.

Reducing the two-component system along xi = x - c t gives

    (f')^2 = F(f) = -f^4 - 4 c f^3 + 4 (d1 - c^2) f^2 + 8 d2 f + 8 d3,

so everything about a wave -- existence, type, amplitude, speed -- is decided
by the real zeros of F and their multiplicities.  This module evaluates F and
its derivatives, extracts and clusters its real roots, maps root multisets
back to the constants (exactly, in rational arithmetic when the roots are
rational), and classifies the configuration into the case taxonomy that
drives the solution constructors.

The roots are the eigenvalues of F's companion matrix, the matrix and the
eigensolve of ``numpy.roots``.  Its float coefficients are, for rational
constants, the exact coefficients each rounded once, from one integer
numerator over one integer denominator.

A wave lives in a band of F > 0 between adjacent real zeros.  The bands follow
from the multiplicities alone (``band_edges``): F < 0 above the top zero and
changes sign at each zero of odd multiplicity.  Each case tag's existence
verdict is read off its bands.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

__all__ = [
    "Params",
    "RootMultiset",
    "CaseTag",
    "eval_F",
    "eval_F_deriv",
    "band_edges",
    "roots_of_F",
    "params_from_roots",
    "classify",
    "existence",
    "quadratic_cofactor",
    "DEFAULT_CLUSTER_TOL",
]

DEFAULT_CLUSTER_TOL = 1e-7  # double roots of a double-precision quartic keep ~8 digits
_NEAR = 1e-2  # roots this close (relative) may be one multiple zero split by the eigensolve
_ROUNDING = 8 * float(np.finfo(float).eps)  # twice Horner's bound 2n u = 4 eps (n = 4)


@dataclass(frozen=True)
class Params:
    """Constants of the first integral: wave speed c and integration constants."""

    c: float | Fraction
    d1: float | Fraction
    d2: float | Fraction
    d3: float | Fraction

    def __post_init__(self):
        for name in ("c", "d1", "d2", "d3"):
            v = getattr(self, name)
            if not isinstance(v, (int, Fraction)) and not math.isfinite(v):
                raise ValueError(f"parameter {name} must be finite, got {v!r}")

    def as_floats(self) -> "Params":
        return Params(float(self.c), float(self.d1), float(self.d2), float(self.d3))

    def coefficients(self):
        """Quartic coefficients of F, highest degree first."""
        c, d1, d2, d3 = self.c, self.d1, self.d2, self.d3
        return (-1, -4 * c, 4 * (d1 - c * c), 8 * d2, 8 * d3)


@dataclass(frozen=True)
class RootMultiset:
    """Sorted real zeros of F with multiplicities.

    Values strictly increase and multiplicities sum to 0, 2 or 4: complex
    roots come in conjugate pairs and F has real coefficients and degree 4.
    """

    entries: tuple

    def __post_init__(self):
        entries = tuple((v, int(m)) for v, m in self.entries)
        object.__setattr__(self, "entries", entries)
        vals = [v for v, _ in entries]
        if any(m <= 0 for _, m in entries):
            raise ValueError("multiplicities must be positive")
        if any(float(a) >= float(b) for a, b in zip(vals, vals[1:])):
            raise ValueError("root values must be strictly increasing")
        if self.total() not in (0, 2, 4):
            raise ValueError(f"total multiplicity {self.total()} not in {{0, 2, 4}}")

    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def values(self):
        return tuple(v for v, _ in self.entries)

    def multiplicities(self):
        return tuple(m for _, m in self.entries)

    def expand(self):
        """Roots repeated by multiplicity."""
        return tuple(v for v, m in self.entries for _ in range(m))

    def scale(self) -> float:
        return max([1.0] + [abs(float(v)) for v, _ in self.entries])

    @classmethod
    def from_values(cls, values, tol: float = 1e-9) -> "RootMultiset":
        """Cluster listed zeros (repeats allowed) into a multiset.

        Sorted values within tol*max(1, |value|) of their neighbor merge into
        one entry at the cluster mean, with the cluster size as multiplicity.
        """
        clusters = _clustered([float(v) for v in values], tol)
        return cls(tuple((float(np.mean(c)), len(c)) for c in clusters))


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
    return (((c4 * f + c3) * f + c2) * f + c1) * f + c0


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


def _rounded_coefficients(p, values):
    """F's coefficients for rational ``values`` (c, d1, d2, d3), each exact one
    as one integer numerator over one integer denominator: int / int rounds
    correctly, so each float is the exact coefficient rounded once."""
    (a, b), (e, g), (h, k), (m, n) = [(v.numerator, v.denominator) for v in values]
    ratios = ((-1, 1), (-4 * a, b), (4 * (e * b * b - a * a * g), g * b * b),
              (8 * h, k), (8 * m, n))
    coeffs = []
    for name, (x, y) in zip(_COEFFICIENT_NAMES, ratios):
        try:
            coeffs.append(x / y)
        except OverflowError:
            raise _too_large(name, p) from None
    return coeffs


def _float_coefficients(p: Params):
    """F's coefficients as floats, highest degree first.

    Rational params give each exact coefficient rounded once; float params
    go through ``Params.coefficients`` in float arithmetic.  Raises
    ValueError, naming the coefficient, when one does not fit a float.
    """
    values = (p.c, p.d1, p.d2, p.d3)
    if all(isinstance(v, (int, Fraction)) for v in values):
        return _rounded_coefficients(p, values)
    try:
        coeffs = [float(v) for v in p.coefficients()]
    except OverflowError:  # a Fraction too large for float arithmetic among floats
        return _rounded_coefficients(
            p, [v if isinstance(v, (int, Fraction)) else Fraction(float(v)) for v in values])
    for name, v in zip(_COEFFICIENT_NAMES, coeffs):
        if not math.isfinite(v):
            raise _too_large(name, p)
    return coeffs


def _companion_roots(coeffs):
    """The complex roots of the polynomial with ``coeffs`` (highest degree
    first, the first nonzero) exactly as ``numpy.roots`` gives them: the
    eigenvalues of the companion matrix of the polynomial without its
    trailing zero coefficients, then one zero of the eigenvalues' type per
    trailing zero."""
    n = len(coeffs)
    while n > 1 and coeffs[n - 1] == 0:
        n -= 1
    if n == 1:  # a monomial: every root is zero
        return [0.0] * (len(coeffs) - 1)
    companion = np.eye(n - 1, k=-1)
    companion[0] = [-a / coeffs[0] for a in coeffs[1:n]]
    roots = np.linalg.eigvals(companion).tolist()
    return roots + [type(roots[0])(0)] * (len(coeffs) - n)


def roots_of_F(p: Params, tol: float = DEFAULT_CLUSTER_TOL) -> RootMultiset:
    """Real roots of F, clustered into a multiset.

    The raw roots are the eigenvalues of the companion matrix of F's float
    coefficients (each exact coefficient rounded once for rational params;
    see ``_float_coefficients``), as ``numpy.roots`` computes them.  These
    split an m-fold zero into m roots about eps^(1/m) apart (up to 1e-3
    relative for a quadruple zero), so roots within 1e-2 relative of each
    other are grouped, and a group of m becomes one m-fold zero when its mean
    is real and F and its lower derivatives vanish there to within rounding
    (see ``_multiple_zero``).
    The other roots are real when their imaginary part is within
    tol*max(1, |root|), and real roots closer than that merge into one entry
    with summed multiplicity, sanity-checked by the smallness of the lower
    derivatives of F at the cluster center.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    coeffs = _float_coefficients(p)
    raw = _companion_roots(coeffs)
    scale = max(1.0, *map(abs, raw))
    entries, rest = _multiple_zeros(coeffs, raw, tol, _NEAR * scale, tol * scale)
    real = [z.real for z in rest if abs(z.imag) <= tol * max(1.0, abs(z))]
    for members in _clustered(real, tol):
        m = len(members)
        center = sum(members) / m
        # lower derivatives must vanish at an m-fold root; loose gate, this
        # only guards against a grossly mis-set clustering tolerance
        scale = max(1.0, abs(center))
        for j, (v, _) in enumerate(_taylor(coeffs, center, m)):
            if abs(v) > 1e-3 * scale ** (4 - j):
                raise ValueError(
                    f"cluster at {center} fails multiplicity-{m} check "
                    f"(|F^({j})| = {abs(v):.3e})"
                )
        entries.append((center, m))
    return RootMultiset(tuple(sorted(entries)))


def params_from_roots(r: RootMultiset) -> Params:
    """Constants (c, d1, d2, d3) from the four zeros of F.

    With e1..e4 the elementary symmetric functions of the zeros,

        c = -e1/4,  d1 = e1^2/16 - e2/4,  d2 = e3/8,  d3 = -e4/8.

    Exact in rational arithmetic when every root value is rational; raises
    ValueError("underdetermined") unless the total multiplicity is 4.
    """
    if r.total() != 4:
        raise ValueError("underdetermined: need total multiplicity 4")
    roots = r.expand()
    exact = all(isinstance(v, Rational) for v in roots)
    if exact:
        roots = tuple(Fraction(v) for v in roots)
        one = Fraction(1)
    else:
        roots = tuple(float(v) for v in roots)
        one = 1.0
    f1, f2, f3, f4 = roots
    e1 = f1 + f2 + f3 + f4
    e2 = f1 * f2 + f1 * f3 + f1 * f4 + f2 * f3 + f2 * f4 + f3 * f4
    e3 = f1 * f2 * f3 + f1 * f2 * f4 + f1 * f3 * f4 + f2 * f3 * f4
    e4 = f1 * f2 * f3 * f4
    return Params(-e1 / 4, e1 * e1 / 16 - e2 / 4, e3 / 8, -e4 * one / 8)


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
