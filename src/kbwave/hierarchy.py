"""Exact traveling reductions of the multi-component hierarchy.

The ell-component traveling reduction is a polynomial recurrence in exact
rationals.  With integration constants e_1, e_2, ... (missing ones zero),
p_1 = f and

    p_{j+1}(f) = e_j - int_0^f [ (c + s/2) p_j'(s) + p_j(s) ] ds,      j = 1..ell,
               = e_j + c p_j(0) - (c + f/2) p_j(f) - (1/2) int_0^f p_j(s) ds,
    P_ell(f)   = -8 int_0^f p_{ell+1}(s) ds + 8 e_{ell+1},

the fields are h_j = p_j(f) (h_1 = u, h_2 = g, ...) and (f')^2 = P_ell(f).
The second form, computed here with no derivative, is the first integrated
by parts, with the boundary term c p_j(0).  The p_j do not depend on ell, so
one run of the recurrence gives every P_ell, and every ell-indexed result
here reads that one run.  The traveling wave's own constants d_1, d_2, ...
are e_ell = -d_ell and every other e_j = d_j (see ``_reduction``): P_2 is
``quartic.Params.coefficients``' F, P_3 is :func:`reduce_l3_full`'s quintic.

With every constant zero (:func:`reduce_vanishing`), the ell = 2, 3, 4
results

    P_2 = -f^2 (f + 2c)^2
    P_3 =  f^2 (f + 2c)^3 / 2
    P_4 = -f^2 (f + 2c)^4 / 4

are regression fixtures for it, and :func:`conjecture_report` compares every
P_ell against the two closed-form candidates

    (a)  -f^2 (f + 2c)^ell / 2^(2 ell - 4)
    (b)  (-1)^(ell-1) f^2 (f + 2c)^ell / 2^(ell - 2)

without asserting either; at ell = 4 candidate (a) has denominator 16 where
the recurrence gives 4, so (a) and (b) genuinely differ from ell = 3 on.

The ell = 3 implicit solitary profile (real branch -2c < f < 0 for c > 0)
lives here too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import OutOfBranchRange

__all__ = [
    "FPoly",
    "FieldStack",
    "MAX_ELL",
    "reduce_vanishing",
    "conjecture_report",
    "ConjectureReport",
    "even_ell_nonexistence",
    "reduce_l3_full",
    "l3_fields",
    "l3_implicit_profile",
    "l3_asymptotes",
]


class FPoly:
    """Polynomial in f with coefficients polynomial in c, exact rationals.

    Stored as a dict {(i, j): Fraction} for monomials f^i c^j.  Immutable in
    spirit: all operations return new instances.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        cleaned = {}
        for key, val in (coeffs or {}).items():
            val = val if isinstance(val, Fraction) else Fraction(val)
            if val:
                cleaned[(int(key[0]), int(key[1]))] = val
        self.coeffs = cleaned

    @classmethod
    def variable_f(cls):
        return cls({(1, 0): 1})

    def __eq__(self, other):
        return isinstance(other, FPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        out = dict(self.coeffs)
        for key, val in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) + val
        return FPoly(out)

    def __neg__(self):
        return FPoly({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FPoly):
            out = {}
            for (i1, j1), v1 in self.coeffs.items():
                for (i2, j2), v2 in other.coeffs.items():
                    key = (i1 + i2, j1 + j2)
                    out[key] = out.get(key, Fraction(0)) + v1 * v2
            return FPoly(out)
        scale = Fraction(other)
        return FPoly({k: v * scale for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def deriv_f(self):
        return FPoly({(i - 1, j): v * i for (i, j), v in self.coeffs.items() if i > 0})

    def integrate_f(self):
        """Antiderivative in f vanishing at f = 0."""
        return FPoly({(i + 1, j): v / (i + 1) for (i, j), v in self.coeffs.items()})

    def degree_f(self):
        return max((i for (i, _) in self.coeffs), default=-1)

    def coeff_f(self, i):
        """Coefficient of f^i as an FPoly in c."""
        return FPoly({(0, j): v for (fi, j), v in self.coeffs.items() if fi == i})

    def __call__(self, f, c):
        exact = isinstance(f, Rational) and isinstance(c, Rational)
        total = Fraction(0) if exact else 0.0
        for (i, j), v in self.coeffs.items():
            term = v if exact else float(v)
            total = total + term * (f ** i) * (c ** j)
        return total

    def is_zero(self):
        return not self.coeffs

    def as_strings(self):
        """JSON-friendly mapping 'f^i c^j' -> 'num/den'."""
        out = {}
        for (i, j) in sorted(self.coeffs):
            out[f"f^{i} c^{j}"] = str(self.coeffs[(i, j)])
        return out

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (i, j) in sorted(self.coeffs, reverse=True):
            v = self.coeffs[(i, j)]
            mono = []
            if i:
                mono.append(f"f^{i}" if i > 1 else "f")
            if j:
                mono.append(f"c^{j}" if j > 1 else "c")
            body = "*".join(mono) if mono else ""
            coeff = str(v)
            parts.append(f"{coeff}*{body}" if body else coeff)
        return " + ".join(parts).replace("+ -", "- ")


# (c + f/2) as an FPoly, used by the recurrence
_HALF_SHIFT = FPoly({(0, 1): 1, (1, 0): Fraction(1, 2)})

# the longest reduction reduce_vanishing and conjecture_report run: a
# report takes 0.03, 0.12 and 0.43 s at ell = 30, 60 and 120 on one Xeon
# core, about as ell^2, and its JSON 13, 58 and 320 kB (the ``reduce``
# verb's 29, 131 and 716 kB), faster still, so far larger ells would not finish
MAX_ELL = 120


@dataclass(frozen=True)
class FieldStack:
    """The reduced fields h_1..h_ell (as polynomials in f) plus P_ell, at the
    integration constants e_1, e_2, ... of ``constants`` (missing ones zero)."""

    ell: int
    fields: tuple
    P: FPoly
    constants: tuple = ()

    def __post_init__(self):
        if self.fields[0] != FPoly.variable_f():
            raise ValueError("h_1 must equal f exactly")
        e = self.constants[self.ell] if len(self.constants) > self.ell else 0
        if self.P.coeff_f(0) != FPoly({(0, 0): 8 * e}):
            raise ValueError(f"P_ell(0) must equal 8 e_(ell+1) = {8 * e}")


def _stacks(ell_max: int, constants=()):
    """FieldStack for ell = 2..ell_max, from one run of the recurrence at the
    integration constants e_1, e_2, ... (Fractions; missing ones are zero)."""
    constants = tuple(constants)
    e = [Fraction(0), *constants, *[Fraction(0)] * (ell_max + 1 - len(constants))]  # e[j] = e_j
    fields = [FPoly.variable_f()]
    for ell in range(1, ell_max + 1):
        p = fields[-1]
        # e_j + c p_j(0), with p_j(0) = e_(j-1): p_1(0) = 0, and the step gives p_(j+1)(0) = e_j
        boundary = FPoly({(0, 0): e[ell], (0, 1): e[ell - 1]})
        p_next = -(_HALF_SHIFT * p + Fraction(1, 2) * p.integrate_f()) + boundary
        if ell >= 2:
            P = (-8) * p_next.integrate_f() + FPoly({(0, 0): 8 * e[ell + 1]})
            yield FieldStack(ell=ell, fields=tuple(fields), P=P, constants=constants)
        fields.append(p_next)


def _check_ell(name: str, ell: int, least: int):
    """Refuse an ell below ``least`` or above MAX_ELL, before any work."""
    if ell < least:
        raise ValueError(f"{name} must be >= {least}")
    if ell > MAX_ELL:
        raise ValueError(f"ell = {ell} is more than MAX_ELL = {MAX_ELL}")


def reduce_vanishing(ell: int) -> FieldStack:
    """Exact reduction with all integration constants zero; 2 <= ell <= MAX_ELL."""
    _check_ell("ell", ell, 2)
    *_, stack = _stacks(ell)
    return stack


@dataclass(frozen=True)
class ConjectureReport:
    """Per-ell verdicts on P_ell against the two candidates, with the stacks read."""

    rows: tuple
    stacks: tuple

    def to_json(self) -> str:
        return json.dumps({"schema": 1, "rows": [dict(r) for r in self.rows]},
                          indent=2)

    def to_text(self) -> str:
        lines = ["ell  printed-form  power-pattern  leading  P_ell"]
        for r in self.rows:
            lines.append(
                f"{r['ell']:>3}  {'match' if r['printed_match'] else 'MISMATCH':<12}"
                f"  {'match' if r['pattern_match'] else 'MISMATCH':<13}"
                f"  {r['leading']:<7}  {r['P']}"
            )
        return "\n".join(lines)


def conjecture_report(ell_max: int) -> ConjectureReport:
    """Compare P_ell for 2 <= ell <= ell_max against both candidates.

    Candidate 'printed' is -f^2 (f+2c)^ell / 2^(2 ell - 4); candidate
    'pattern' is (-1)^(ell-1) f^2 (f+2c)^ell / 2^(ell-2).  The report states
    exact match/mismatch per ell; it is data, not a test verdict.
    Requires 4 <= ell_max <= MAX_ELL.
    """
    _check_ell("ell_max", ell_max, 4)
    shift = 2 * _HALF_SHIFT  # f + 2c
    power = FPoly({(2, 0): 1}) * shift  # f^2 (f + 2c)^ell, here at ell = 1
    rows, stacks = [], tuple(_stacks(ell_max))
    for stack in stacks:
        ell, P = stack.ell, stack.P
        power = power * shift
        lead = P.coeff_f(ell + 2)
        rows.append({
            "ell": ell,
            "printed_match": P == power * Fraction(-1, 2 ** (2 * ell - 4)),
            "pattern_match": P == power * Fraction((-1) ** (ell - 1), 2 ** (ell - 2)),
            "leading": str(lead.coeffs.get((0, 0), Fraction(0))),
            "P": repr(P),
        })
    return ConjectureReport(rows=tuple(rows), stacks=stacks)


def even_ell_nonexistence(ell: int) -> str:
    """Verdict for even ell: P_ell <= 0 with equality only at f in {0, -2c}.

    Verified by exact match against (-1)^(ell-1) f^2 (f+2c)^ell / 2^(ell-2),
    the report's power-pattern candidate; for even ell the sign is negative
    and the factor f^2 (f+2c)^ell is a perfect square times a nonnegative
    even power, so no non-constant real traveling wave with vanishing
    boundary conditions exists.
    """
    if ell < 2 or ell % 2 != 0:
        raise ValueError("nonexistence verdict applies to even ell >= 2")
    if not conjecture_report(max(ell, 4)).rows[ell - 2]["pattern_match"]:
        raise AssertionError(f"P_{ell} does not match -f^2 (f+2c)^{ell}/2^{ell - 2}")
    return (
        f"no non-constant real solution: P_{ell} = -f^2 (f+2c)^{ell}/"
        f"{2 ** (ell - 2)} <= 0 for all real f, c"
    )


def _reduction(ell: int, ds) -> FieldStack:
    """The stack of ell at the traveling wave's constants d_1, d_2, ...:
    e_ell = -d_ell and every other e_j = d_j."""
    *_, stack = _stacks(ell, tuple(-d if j == ell else d for j, d in enumerate(ds, 1)))
    return stack


def _exact_read(read, *values):
    """read(*values) in Fractions when every value is rational; else read of
    the values' floats, taken exactly, with each result rounded once."""
    if all(isinstance(v, Rational) for v in values):
        return read(*map(Fraction, values))
    return tuple(map(float, read(*(Fraction(float(v)) for v in values))))


def reduce_l3_full(c, d1, d2, d3, d4):
    """Quintic coefficients of the three-component reduction, degree 5 down to 0:

    (f')^2 = f^5/2 + 3c f^4 + (6c^2 - 2d1) f^3 + 4(c^3 - c d1 + d2) f^2
             + 8 d3 f + 8 d4,

    P_3 of the recurrence.  Exact when the inputs are rational; for float
    inputs each exact coefficient rounded once (a non-finite input, which
    has none, raises ValueError or OverflowError, as does a coefficient too
    large for a float).  Equals reduce_vanishing(3) when every d is zero.
    """
    def read(c, *ds):
        P = _reduction(3, ds).P
        return tuple(P.coeff_f(i)(0, c) for i in range(5, -1, -1))  # each a polynomial in c

    return _exact_read(read, c, d1, d2, d3, d4)


def l3_fields(f, c, d1, d2):
    """Second and third fields of the three-component reduction:

    g = -c f - (3/4) f^2 + d1,
    h = (3/2) c f^2 + (1/2) f^3 + (c^2 - d1) f + d2,

    p_2 and p_3 of the recurrence.  Exact when the inputs are rational; for
    float inputs each exact field rounded once (a non-finite input, which
    has none, raises ValueError or OverflowError, as does a field too large
    for a float).
    """
    def read(f, c, *ds):
        g, h = _reduction(3, ds).fields[1:]
        return g(f, c), h(f, c)

    return _exact_read(read, f, c, d1, d2)


def _l3_Phi_and_deriv(z: float, c: float):
    """Implicit relation in z = 1 - w, w = sqrt(1 + f/(2c)), f in (-2c, 0).

    Phi = (1/c^(3/2)) [ 1/w + (1/2) ln((1 - w)/(1 + w)) ]; strictly increasing
    in z, with Phi -> -inf as z -> 0 (f -> 0) and +inf as z -> 1 (f -> -2c).
    """
    w = 1.0 - z
    cm = c ** -1.5
    phi = cm * (1.0 / w + 0.5 * (math.log(z) - math.log1p(w)))
    dphi = cm * (1.0 / (w * w) + 0.5 * (1.0 / z + 1.0 / (1.0 + w)))
    return phi, dphi


_L3_MAX_ITER = 200
_L3_TOL = 1e-13  # relative to max(1, |target|)


def _l3_solve_f(target: float, c: float):
    """Solve Phi(z) = target by bisection-bracketed Newton; returns f."""
    z_lo, z_hi = 1e-300, 1.0 - 1e-9
    phi_lo, _ = _l3_Phi_and_deriv(z_lo, c)
    phi_hi, _ = _l3_Phi_and_deriv(z_hi, c)
    if not (phi_lo <= target <= phi_hi):
        raise OutOfBranchRange(
            f"out of branch range: target {target:.3e} outside "
            f"[{phi_lo:.3e}, {phi_hi:.3e}]"
        )
    z = 0.5 * (z_lo + z_hi)
    for _ in range(_L3_MAX_ITER):
        phi, dphi = _l3_Phi_and_deriv(z, c)
        err = phi - target
        if abs(err) <= _L3_TOL * max(1.0, abs(target)):
            break
        step = err / dphi
        z_new = z - step
        if not (z_lo < z_new < z_hi):
            # Newton left the bracket: bisect instead
            if err > 0.0:
                z_hi = z
            else:
                z_lo = z
            z_new = 0.5 * (z_lo + z_hi)
        else:
            if err > 0.0:
                z_hi = min(z_hi, z)
            else:
                z_lo = max(z_lo, z)
        z = z_new
    return -2.0 * c * z * (2.0 - z)  # in (-2c, 0); exact for z below epsilon


def l3_implicit_profile(c: float, xi_grid, branch: str = "+", xi0: float = 0.0):
    """Solve the implicit three-component solitary relation on a xi grid.

    Requires c > 0; the real branch keeps f in (-2c, 0) where
    (f')^2 = f^2 (f + 2c)^3 / 2 >= 0.  Branch '+' rises monotonically from
    -2c (xi -> -inf) to 0 (xi -> +inf); branch '-' is its mirror.  Returns
    (f, f_prime) arrays; f' is the signed square root of the quintic.
    """
    if c <= 0:
        raise ValueError("the real branch requires c > 0")
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    xi = np.asarray(xi_grid, dtype=float)
    sgn = 1.0 if branch == "+" else -1.0
    f = np.array([_l3_solve_f(-sgn * (x - xi0), c) for x in xi.ravel()])
    f = f.reshape(xi.shape)
    fp = sgn * np.sqrt(np.maximum(f * f * (f + 2.0 * c) ** 3 / 2.0, 0.0))
    return f, fp


def l3_asymptotes(c: float, branch: str = "+"):
    """Limits of the implicit branch as xi -> (-inf, +inf)."""
    if branch == "+":
        return (-2.0 * c, 0.0)
    if branch == "-":
        return (0.0, -2.0 * c)
    raise ValueError("branch must be '+' or '-'")
