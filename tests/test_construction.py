"""The construction path ``solutions._solution`` against a reference copy.

``_reference_solution`` below is ``_solution`` as it stood before the
bookkeeping around its checks was taken out: a second float ``Params`` from
``as_floats``, the abstract ``Rational`` probe on every root, ``np.linspace``
for the residual gate's window and ``np.max(np.abs(.))`` for the residual.
The sweep builds every ``presets.KINDS`` row, with its branches and starts,
through both, and asks for the same numbers and the same verdict.
"""

from fractions import Fraction
from numbers import Rational
from types import SimpleNamespace

import numpy as np
import pytest

import kbwave.solutions as S
from kbwave.errors import KBWaveError, UnresolvedBranch
from kbwave.presets import KINDS, PRESETS, build_preset
from kbwave.quartic import Params, eval_F


def _reference_params_from_roots(r):
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


def _reference_gate(sol):
    """The residual over the gate's window and the gate, as computed before."""
    T = sol.period
    half = 0.5 * T if T is not None else 10.0
    f, fp = sol.profile(np.linspace(sol.xi0 - half, sol.xi0 + half, 513))
    res = float(np.max(np.abs(fp ** 2 - eval_F(sol.params, f))))
    return res, S.RESIDUAL_RTOL * sol.roots.scale() ** 4


def _reference_solution(kind, roots, xi0, mobius, kernel, **kw):
    p = _reference_params_from_roots(roots)
    params = Params(float(p.c), float(p.d1), float(p.d2), float(p.d3))
    A, B, C, D = (float(v) for v in mobius)
    sol = S.ClosedFormSolution(kind=kind, roots=roots, params=params, A=A, B=B, C=C, D=D,
                               kernel=kernel, xi0=float(xi0), **kw)
    res, gate = _reference_gate(sol)
    if not res < gate:
        raise UnresolvedBranch(
            f"{sol.kind} failed the defining residual gate: {res:.3e} >= {gate:.3e}",
            candidate=sol,
        )
    if sol.modulus is not None:
        S._orbit_check(sol)
    return sol


def _outcome(build):
    """What a build gives: the wave's numbers, or the refusal.  An accepted
    wave's gate residual and gate are also checked against the reference's."""
    try:
        sol = build()
    except KBWaveError as err:
        return "refused", type(err).__name__, str(err)
    assert all(type(v) is float for v in (sol.params.c, sol.params.d1, sol.params.d2,
                                          sol.params.d3))
    assert repr((S._residual_gate(sol), sol.residual_bound)) == repr(_reference_gate(sol))
    # repr tells -0.0 from 0.0 and shows every bit of each float
    return "accepted", repr((sol.A, sol.B, sol.C, sol.D, sol.params, sol.modulus, sol.beta,
                             sol.roots, sol.kernel, sol.variant))


def _zeros(rng, n):
    """n zeros: spread over [-5, 5] times a scale in [1e-2, 1e3], in random
    order, with one pair sometimes pulled 1e-10..1e-2 (relative) together."""
    z = rng.uniform(-5.0, 5.0, n) * 10.0 ** rng.uniform(-2.0, 3.0)
    if rng.random() < 0.3:
        i, j = rng.choice(n, 2, replace=False)
        z[j] = z[i] * (1.0 + 10.0 ** rng.uniform(-10.0, -2.0)) + 10.0 ** rng.uniform(-10.0, -2.0)
    if rng.random() < 0.5:
        z.sort()
    return [float(v) for v in z]


def _builds(rng):
    """(label, build) for every KINDS row on fresh zeros, each branch and
    each general-sn2 start, at a random phase."""
    out = []
    for kind, row in KINDS.items():
        zeros = _zeros(rng, len(row.zeros.split(",")))
        xi0 = float(rng.uniform(-3.0, 3.0)) if rng.random() < 0.5 else 0.0
        starts = (1, 2, 3, 4) if kind == "general-sn2" else (1,)
        for branch in ("upper", "lower"):
            for index in starts:
                out.append(((kind, zeros, branch, xi0, index),
                            lambda row=row, z=zeros, b=branch, x=xi0, i=index:
                            row.build(z, b, x, i)))
    return out


class TestReferenceConstruction:
    def test_seeded_sweep_matches_the_reference(self, monkeypatch):
        rng = np.random.default_rng(16)
        builds = [b for _ in range(120) for b in _builds(rng)]
        ours = [_outcome(build) for _, build in builds]
        calls = []
        monkeypatch.setattr(S, "_solution",
                            lambda *a, **kw: calls.append(a[0]) or _reference_solution(*a, **kw))
        theirs = [_outcome(build) for _, build in builds]
        assert len(calls) > len(builds) // 2
        for (label, _), got, want in zip(builds, ours, theirs):
            assert got == want, label
        verdicts = [o[0] if o[0] == "accepted" else o[1] for o in ours]
        # the sweep reaches acceptances and each kind of refusal
        assert {"accepted", "UnresolvedBranch", "InvalidConfiguration",
                "Infeasible"} <= set(verdicts)
        assert verdicts.count("accepted") > len(builds) // 4

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_match_the_reference(self, name, monkeypatch):
        ours = _outcome(lambda: build_preset(name)[0])
        monkeypatch.setattr(S, "_solution", _reference_solution)
        assert ours == _outcome(lambda: build_preset(name)[0])


class TestWindow:
    """The gate's window is bit for bit np.linspace over the same span."""

    @pytest.mark.parametrize("xi0, period, n", [
        (0.0, None, 513),
        (1.7, 6.3, 513),
        (-3.2, 2.0 * np.pi / 0.37, 129),
        (123.456, 1e-3, 513),
        (-7.5e12, 2.5e-3, 513),
        (0.1, 7e300, 513),
    ])
    def test_matches_linspace(self, xi0, period, n):
        self._check(xi0, period, n)

    @pytest.mark.parametrize("xi0, period", [
        (0.0, 1e-321),      # a subnormal span: its step underflows to 0
        (3e-322, 2e-322),
        (1e300, 1e-10),     # a span lost in xi0's rounding: delta is 0
    ])
    def test_step_underflow_matches_linspace(self, xi0, period):
        half = 0.5 * period
        assert (xi0 + half - (xi0 - half)) / 512 == 0.0
        self._check(xi0, period, 513)

    def test_random_spans_match_linspace(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            xi0 = float(rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-5.0, 5.0))
            period = float(10.0 ** rng.uniform(-8.0, 6.0))
            self._check(xi0, period, int(rng.choice([2, 3, 129, 513])))

    @staticmethod
    def _check(xi0, period, n):
        half = 0.5 * period if period is not None else 10.0
        want = np.linspace(xi0 - half, xi0 + half, n)
        got = S._window(SimpleNamespace(xi0=xi0, period=period), n)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
