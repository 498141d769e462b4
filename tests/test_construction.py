"""The construction path ``solutions._solution`` against a reference copy.

``_reference_solution`` below is ``_solution`` as it stood before the
bookkeeping around its checks was taken out: a second float ``Params`` from
``as_floats``, the abstract ``Rational`` probe on every root, ``np.linspace``
for the residual gate's window and ``np.max(np.abs(.))`` for the residual.
Its window is the one rule, restated here: the gates run on the wave at
phase 0, over one period (0, T), or (-w, w) with w = 10 / max(1, |beta|)
for a pulse or a constant.
The sweep builds every ``presets.KINDS`` row, with its branches and starts,
through both, and asks for the same numbers and the same verdict.
"""

from dataclasses import replace
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
    """The residual over the gate's window of the wave at phase 0, and the
    gate."""
    T = sol.period
    w = 10.0 / max(1.0, abs(sol.beta))
    t = np.linspace(0.0, T, 513) if T is not None else np.linspace(-w, w, 513)
    f, fp = replace(sol, xi0=0.0).profile(t)
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
        S._orbit_check(replace(sol, xi0=0.0))
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
    assert repr((S._residual_gate(sol.with_phase(0.0)), sol.residual_bound)) == repr(
        _reference_gate(sol))
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
    """The gate's window is the wave's window in its own phase, whatever xi0,
    sampled bit for bit as np.linspace samples it."""

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
        (1e300, 1e-10),     # a span that xi0's rounding would lose
    ])
    def test_step_underflow_matches_linspace(self, xi0, period):
        """A subnormal span, whose step underflows to 0, matches linspace;
        and a span far narrower than the spacing of the doubles at xi0 is
        kept whole, since the window never meets xi0."""
        got = self._check(xi0, period, 513)
        assert got[0] == 0.0 and got[-1] == period
        assert (period / 512 == 0.0) == (period < 1e-300)

    def test_random_spans_match_linspace(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            xi0 = float(rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-5.0, 5.0))
            period = float(10.0 ** rng.uniform(-8.0, 6.0))
            self._check(xi0, period, int(rng.choice([2, 3, 129, 513])))

    @pytest.mark.parametrize("build, window", [
        (lambda: build_preset("fig-case1a")[0], (-10.0, 10.0)),  # beta = 1
        (lambda: build_preset("fig-case2bc-k1")[0], (-10.0 / 7 ** 0.5, 10.0 / 7 ** 0.5)),
        (lambda: build_preset("fig-case2f-k1")[0], (-10.0, 10.0)),  # beta < 1
        (lambda: S.solitary_triple(0.0, 400.0), (-0.05, 0.05)),
        (lambda: S.limiting_form("d", (-3.0, -3.0, -1.0)), (-10.0, 10.0)),  # a constant
        (lambda: build_preset("fig-case2a")[0], (0.0, 2.0 * np.pi)),
    ])
    @pytest.mark.parametrize("xi0", [0.0, -2.5, 1e14])
    def test_one_window_rule(self, build, window, xi0):
        """One period (0, T), or (-w, w) with w = 10 / max(1, |beta|) for a
        pulse or a constant, the same at every xi0."""
        sol = build().with_phase(xi0)
        assert sol.window == pytest.approx(window, rel=1e-15)
        assert sol.window == build().window

    @staticmethod
    def _check(xi0, period, n):
        window = (0.0, period) if period is not None else (-10.0, 10.0)
        want = np.linspace(*window, n)
        got = S._window(SimpleNamespace(xi0=xi0, window=window), n)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        return got


def _mutants(sol, rel):
    """(field, build) for A, B, C, D, beta and the modulus moved by ``rel``
    either way; a number the move leaves as it is (0) is skipped, and so is
    a modulus moved above 1."""
    out = []
    for field in ("A", "B", "C", "D", "beta", "modulus"):
        v = getattr(sol, field)
        for moved in (() if v is None else (v * (1.0 + rel), v * (1.0 - rel))):
            if moved != v and not (field == "modulus" and moved > 1.0):
                out.append((field, lambda field=field, moved=moved: replace(sol, **{field: moved})))
    return out


class TestCertificateVerdicts:
    """The certificate and its a-priori bound on the presets and the
    sweep's waves."""

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_mutants_refused(self, name):
        """A, B, C, D, beta and k, each moved by 1e-6 either way (a modulus
        of 1 only inward), are refused on every preset; the a-priori bound,
        which holds for any form, covers what the sampled gate measures on
        each, where the certificate's defect is what it measures."""
        wave = build_preset(name)[0].with_phase(0.0)
        mutants = _mutants(wave, 1e-6)
        assert len(mutants) >= 8
        for field, mutant in mutants:
            with pytest.raises(KBWaveError):
                S._gates(mutant())
            wrong = mutant()
            bound = S._apriori_bound(wrong, S._certificate(wrong))
            assert not bound < wrong.residual(S._window(wrong, 513)), field

    def test_bound_covers_the_sampled_residual(self):
        """On every accepted wave of 300 draws the certificate passes, and
        wherever its a-priori bound is finite the bound is at least what the
        sampled gate measures; the gate samples about one wave in thirty."""
        rng = np.random.default_rng(31)
        certified = sampled = 0
        for _ in range(300):
            for label, build in _builds(rng):
                try:
                    wave = build().with_phase(0.0)
                except KBWaveError:
                    continue
                cert = S._certificate(wave)
                assert cert.defect <= cert.allowance, label
                bound = S._apriori_bound(wave, cert)
                assert not bound < S._residual_gate(wave), label
                if bound < wave.residual_bound:
                    certified += 1
                else:
                    sampled += 1
        assert certified + sampled > 4000
        assert sampled < 0.1 * certified

    def test_mutants_refused(self):
        """A, B, C, D, beta and k moved by 1e-6 either way are refused on
        every accepted wave of a seeded sweep.  The certificate resolves a
        change above its rounding bound, which grows with the centre of the
        zeros over their spread and with the spread over the narrowest gap
        between them, squared; the sweep keeps to zeros at least 1e-2 of
        their spread apart and centred within 1e2 spreads of 0, where that
        bound lies far below 1e-6."""
        rng = np.random.default_rng(32)
        waves = mutants = 0
        for _ in range(40):
            for label, build in _builds(rng):
                try:
                    wave = build().with_phase(0.0)
                except KBWaveError:
                    continue
                zeros = wave.roots.expand()
                values = wave.roots.values()
                spread = max(zeros) - min(zeros)
                gaps = [b - a for a, b in zip(values, values[1:])]
                if not gaps or min(gaps) < 1e-2 * spread or abs(sum(zeros)) > 400.0 * spread:
                    continue
                waves += 1
                for field, mutant in _mutants(wave, 1e-6):
                    mutants += 1
                    with pytest.raises(KBWaveError):
                        S._gates(mutant())
        assert waves > 300 and mutants > 10 * waves
