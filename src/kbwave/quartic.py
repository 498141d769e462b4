"""The quartic first integral F(f) of the traveling-wave reduction.

Reducing the two-component system along xi = x - c t gives

    (f')^2 = F(f) = -f^4 - 4 c f^3 + 4 (d1 - c^2) f^2 + 8 d2 f + 8 d3,

so everything about a wave -- existence, type, amplitude, speed -- is decided
by the real zeros of F and their multiplicities.  This module evaluates F,
extracts and clusters its real roots, maps root multisets back to the
constants (exactly, in rational arithmetic when the roots are rational), and
classifies the configuration into the case taxonomy that drives the solution
constructors.
"""

from __future__ import annotations

import enum
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
    "roots_of_F",
    "params_from_roots",
    "classify",
    "existence",
    "quadratic_cofactor",
    "DEFAULT_CLUSTER_TOL",
]

DEFAULT_CLUSTER_TOL = 1e-7  # double roots of a double-precision quartic keep ~8 digits


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
            if isinstance(v, float) and not np.isfinite(v):
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
        out = []
        for v, m in self.entries:
            out.extend([v] * m)
        return tuple(out)

    def scale(self) -> float:
        return max([1.0] + [abs(float(v)) for v, _ in self.entries])

    @classmethod
    def from_values(cls, values, tol: float = 1e-9) -> "RootMultiset":
        """Cluster listed zeros (repeats allowed) into a multiset.

        Sorted values within tol*max(1, |value|) of their neighbor merge into
        one entry at the cluster mean, with the cluster size as multiplicity.
        """
        vals = sorted(float(v) for v in values)
        clusters = [[vals[0]]]
        for v in vals[1:]:
            if v - clusters[-1][-1] <= tol * max(1.0, abs(v)):
                clusters[-1].append(v)
            else:
                clusters.append([v])
        return cls(tuple((float(np.mean(c)), len(c)) for c in clusters))


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


# Existence verdicts: which non-constant traveling waves each case admits.
_EXISTENCE = {
    CaseTag.NO_REAL_ZEROS: "none",
    CaseTag.ONE_DOUBLE_ONLY: "none",
    CaseTag.TWO_DOUBLES_ONLY: "none",
    CaseTag.QUADRUPLE: "none",
    CaseTag.DOUBLE_BETWEEN_SIMPLES: "solitary",
    CaseTag.TRIPLE_WITH_SIMPLE_ABOVE: "solitary",
    CaseTag.TRIPLE_WITH_SIMPLE_BELOW: "solitary",
    CaseTag.TWO_SIMPLE_ONLY: "periodic",
    CaseTag.DOUBLE_BELOW_SIMPLES: "periodic",
    CaseTag.DOUBLE_ABOVE_SIMPLES: "periodic",
    CaseTag.FOUR_SIMPLE: "periodic",
}


def eval_F(p: Params, f):
    """Evaluate F(f) by Horner's scheme; exact for rational inputs."""
    c4, c3, c2, c1, c0 = p.coefficients()
    return (((c4 * f + c3) * f + c2) * f + c1) * f + c0


def eval_F_deriv(p: Params, f, order: int = 1):
    """Derivative of F of the given order (0..4), evaluated at f."""
    c, d1, d2 = p.c, p.d1, p.d2
    if order == 0:
        return eval_F(p, f)
    if order == 1:
        return ((-4 * f - 12 * c) * f + 8 * (d1 - c * c)) * f + 8 * d2
    if order == 2:
        return (-12 * f - 24 * c) * f + 8 * (d1 - c * c)
    if order == 3:
        return -24 * f - 24 * c
    if order == 4:
        return -24 * (f * 0 + 1) if hasattr(f, "__len__") else -24.0
    raise ValueError(f"order must be 0..4, got {order}")


def roots_of_F(p: Params, tol: float = DEFAULT_CLUSTER_TOL) -> RootMultiset:
    """Real roots of F, clustered into a multiset.

    Companion-matrix eigenvalues (numpy.roots) give the raw roots; roots
    closer than tol*max(1, |root|) are merged into one entry with summed
    multiplicity, and a root is treated as real when its imaginary part is
    within the same relative tolerance.  Multiplicities are sanity-checked by
    smallness of the lower derivatives of F at the cluster center.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    coeffs = [float(v) for v in p.coefficients()]
    raw = np.roots(coeffs)
    real = sorted(z.real for z in raw if abs(z.imag) <= tol * max(1.0, abs(z)))
    clusters: list[list[float]] = []
    for v in real:
        if clusters and v - clusters[-1][-1] <= tol * max(1.0, abs(v)):
            clusters[-1].append(v)
        else:
            clusters.append([v])
    entries = []
    fp = p.as_floats()
    for members in clusters:
        center = float(np.mean(members))
        m = len(members)
        # lower derivatives must vanish at an m-fold root; loose gate, this
        # only guards against a grossly mis-set clustering tolerance
        scale = max(1.0, abs(center))
        for j in range(m):
            bound = 1e-3 * scale ** (4 - j)
            if abs(eval_F_deriv(fp, center, j)) > bound:
                raise ValueError(
                    f"cluster at {center} fails multiplicity-{m} check "
                    f"(|F^({j})| = {abs(eval_F_deriv(fp, center, j)):.3e})"
                )
        entries.append((center, m))
    return RootMultiset(tuple(entries))


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
    sig = r.multiplicities()
    if sig == ():
        return CaseTag.NO_REAL_ZEROS
    if sig == (1, 1):
        return CaseTag.TWO_SIMPLE_ONLY
    if sig == (2,):
        return CaseTag.ONE_DOUBLE_ONLY
    if sig == (2, 2):
        return CaseTag.TWO_DOUBLES_ONLY
    if sig == (4,):
        return CaseTag.QUADRUPLE
    if sorted(sig) == [1, 1, 2]:
        pos = sig.index(2)
        return (
            CaseTag.DOUBLE_BELOW_SIMPLES,
            CaseTag.DOUBLE_BETWEEN_SIMPLES,
            CaseTag.DOUBLE_ABOVE_SIMPLES,
        )[pos]
    if sorted(sig) == [1, 3]:
        # named by where the simple zero sits relative to the triple
        return (
            CaseTag.TRIPLE_WITH_SIMPLE_ABOVE
            if sig == (3, 1)
            else CaseTag.TRIPLE_WITH_SIMPLE_BELOW
        )
    if sig == (1, 1, 1, 1):
        return CaseTag.FOUR_SIMPLE
    raise ValueError(f"unrecognized multiplicity signature {sig}")


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
    # -F = f^4 + 4c f^3 - 4(d1-c^2) f^2 - 8 d2 f - 8 d3; synthetic division
    c, d1, d2, d3 = (float(v) for v in (p.c, p.d1, p.d2, p.d3))
    coeffs = [1.0, 4.0 * c, -4.0 * (d1 - c * c), -8.0 * d2, -8.0 * d3]
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
