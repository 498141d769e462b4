"""The family table, the ``--kind auto`` table and the figure presets.

``KINDS`` is the one table of solution families.  For each ``--kind`` it
names the zeros the family takes and its constructor call; the ``case2-*``
kinds come from the kernel table ``solutions.CASE2_KERNELS``.  The CLI and
``build_preset`` build through it, so each constructor call is written once.
``AUTO`` is the one statement of what ``--kind auto`` builds for each case tag.

``PRESETS`` are the parameter sets behind the reference plots: each is a row
of ``KINDS`` with its zeros and branch, the constants (c, d1, d2, d3) those
zeros give, and the closed form it reproduces.  These are the golden
configurations used by the CLI ``figures`` verb and by the regression suite.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .quartic import CaseTag, Params
from .solutions import (
    CASE2_KERNELS,
    ClosedFormSolution,
    case1,
    case2,
    general_sn2,
    periodic_trig,
    solitary_double,
    solitary_triple,
)

__all__ = ["AUTO", "KINDS", "Preset", "PRESETS", "build_preset"]


class _Kind(NamedTuple):
    """One --kind: the zeros it takes, in --roots order ("dbl" and "triple"
    name multiple zeros), and its constructor call."""

    zeros: str
    build: Callable  # (zeros, branch, xi0, initial_index) -> solution; raises if none


# the --kind choices after auto, in --help order; the constructors are looked
# up at call time, so wrappers installed on this module see the calls
KINDS = {
    "solitary_double": _Kind(
        "lo,dbl,hi", lambda z, branch, xi0, _: solitary_double(*z, branch=branch, xi0=xi0)),
    "periodic_trig": _Kind(
        "s1,s2,dbl", lambda z, branch, xi0, _: periodic_trig(*z, branch=branch, xi0=xi0)),
    "solitary_triple": _Kind(
        "triple,simple", lambda z, branch, xi0, _: solitary_triple(*z, xi0=xi0)),
    **{f"case1-{k}": _Kind(
        "f1,f2,f3", lambda z, branch, xi0, _, k=k: case1(k, *z, branch=branch, xi0=xi0))
       for k in ("cn", "dn")},
    **{f"case2-{k.replace('_', '-')}": _Kind(
        "f1,f2,f3", lambda z, branch, xi0, _, k=k: case2(k, *z, xi0=xi0))
       for k in CASE2_KERNELS},
    "general-sn2": _Kind(
        "f1,f2,f3,f4",
        lambda z, branch, xi0, index: general_sn2(z, initial_index=index, xi0=xi0)),
}

# --kind auto for each case tag with a closed form: the kind, the indices into
# roots_of_F(params).values() in its --roots order, the branch (None: --branch)
AUTO = {
    CaseTag.DOUBLE_BETWEEN_SIMPLES: ("solitary_double", (0, 1, 2), None),
    CaseTag.DOUBLE_BELOW_SIMPLES: ("periodic_trig", (1, 2, 0), "lower"),
    CaseTag.DOUBLE_ABOVE_SIMPLES: ("periodic_trig", (0, 1, 2), "lower"),
    CaseTag.TRIPLE_WITH_SIMPLE_ABOVE: ("solitary_triple", (0, 1), None),
    CaseTag.TRIPLE_WITH_SIMPLE_BELOW: ("solitary_triple", (1, 0), None),
    CaseTag.FOUR_SIMPLE: ("general-sn2", (0, 1, 2, 3), None),
}


class Preset(NamedTuple):
    kind: str        # a KINDS key
    zeros: tuple     # in the kind's --roots order
    branch: str
    params: Params   # the constants the zeros give, exactly
    display: str     # the closed form the preset reproduces


_S3 = math.sqrt(3.0)
_S14 = math.sqrt(14.0)

PRESETS = {
    "fig-case1a": Preset(
        "solitary_double", (-3.0, -2.0, -1.0), "upper",
        Params(2.0, -7.0 / 4.0, -7.0 / 2.0, -3.0 / 2.0), "sech(xi) - 2"),
    "fig-case1b-k05": Preset(
        "case1-dn", (-3.0, -2.0 - 0.5 * _S3, -1.0), "upper",
        Params(2.0, -25.0 / 16.0, -25.0 / 8.0, -39.0 / 32.0), "dn(xi; 0.5) - 2"),
    "fig-case2a": Preset(
        "case2-sn", (-2.0 - _S3, 0.0, -2.0 + _S3), "upper",
        Params(1.0, 3.0 / 4.0, 0.0, 0.0), "1/(-2 - sqrt(3) sin(xi))"),
    "fig-case2b": Preset(
        "case2-cn", (2.0 - _S3, 0.0, 2.0 + _S3), "upper",
        Params(-1.0, 3.0 / 4.0, 0.0, 0.0), "1/(2 - sqrt(3) cos(xi))"),
    "fig-case2bc-k1": Preset(
        "case2-dn", (8.0 - 2.0 * _S14, 1.0, 8.0 + 2.0 * _S14), "upper",
        Params(-4.5, 10.0, 4.0, -1.0), "1/(1 - sqrt(7/8) sech(sqrt(7) xi))"),
    "fig-case2e": Preset(
        "case2-inv-sn", (-1.0, 1.0, 1.0 / 3.0), "upper",
        Params(-1.0 / 3.0, 5.0 / 18.0, -1.0 / 6.0, 1.0 / 24.0),
        "sin(b xi)/(sin(b xi) + 2), b = 2 sqrt(3)/3"),
    "fig-case2f": Preset(
        "case2-inv-cn", (-1.0, 1.0, 1.0 / 3.0), "upper",
        Params(-1.0 / 3.0, 5.0 / 18.0, -1.0 / 6.0, 1.0 / 24.0),
        "cos(b xi)/(cos(b xi) + 2), b = 2 sqrt(3)/3"),
    "fig-case2f-k1": Preset(
        "case2-inv-cn", (-1.0, 0.0, 1.0 / 3.0), "upper",
        Params(1.0 / 6.0, 1.0 / 9.0, 0.0, 0.0),
        "sech(b xi)/(sech(b xi) + 2), b = sqrt(3)/3"),
}


def build_preset(name: str, xi0: float = 0.0) -> tuple[ClosedFormSolution, Params]:
    """Construct a preset's solution through KINDS and return it with its
    constants."""
    try:
        preset = PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    return KINDS[preset.kind].build(preset.zeros, preset.branch, xi0, 1), preset.params
