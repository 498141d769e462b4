"""The construction path ``solutions._solution`` against a reference copy.

``_reference_solution`` below is ``_solution`` as it stood before the
bookkeeping around its checks was taken out: a second float ``Params`` from
``as_floats``, the abstract ``Rational`` probe on every root and
``np.max(np.abs(.))`` for the residual.  Its window is the one rule,
restated here and sampled by ``np.linspace`` as the residual gate samples
it: the gates run on the wave at phase 0, over one period (0, T), or
(-w, w) with w = 10 / max(1, |beta|) for a pulse or a constant.
The sweep builds every ``presets.KINDS`` row, with its branches and starts,
through both, and asks for the same numbers and the same verdict.
``_reference_certificate`` and ``_reference_gates`` are the list-based
certificate and the gates' decision that the single-pass ``_certificate`` and
``_gates`` replaced: the same bits and the same verdicts are asked of those.
"""

import math
import struct
import sys
from dataclasses import replace
from fractions import Fraction
from numbers import Rational

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kbwave.solutions as S
from kbwave import verify
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
    orbit = verify.orbit_deviation(sol)
    if not orbit.passed:
        raise UnresolvedBranch(f"{sol.kind} failed the orbit check: {orbit.deviation:.3e} >= "
                               f"{orbit.bound:.3e}", candidate=sol)
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


def _image(rng, zeros):
    """The zeros under an affine map lambda z + a, |lambda| in [1e-3, 1e3] and
    |a| <= 1e4, three times in ten; scaled by 10^+-150 one time in ten."""
    z = np.array(zeros)
    u = rng.random()
    if u < 0.3:
        z = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0) * z + rng.uniform(-1e4, 1e4)
    elif u < 0.4:
        z = z * 10.0 ** (150.0 * rng.choice([-1.0, 1.0]))
    return [float(v) for v in z]


def _builds(rng, image=False):
    """(label, build) for every KINDS row on fresh zeros, each branch and
    each general-sn2 start, at a random phase; with ``image``, on the
    zeros' ``_image``."""
    out = []
    for kind, row in KINDS.items():
        zeros = _zeros(rng, len(row.zeros.split(",")))
        if image:
            zeros = _image(rng, zeros)
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
    """The gate's window is the wave's window in its own phase, whatever xi0."""

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


def _moved(sol, field, v):
    """sol with ``field`` set to v; a moved modulus k takes the comodulus
    sqrt((1 - k)(1 + k)), the wave at that k."""
    if field == "modulus":
        return replace(sol, modulus=v, comodulus=math.sqrt((1.0 - v) * (1.0 + v)))
    return replace(sol, **{field: v})


def _mutants(sol, rel):
    """(field, build) for A, B, C, D, beta and the modulus moved by ``rel``
    either way; a number the move leaves as it is (0) is skipped, and so is
    a modulus moved above 1."""
    out = []
    for field in ("A", "B", "C", "D", "beta", "modulus"):
        v = getattr(sol, field)
        for moved in (() if v is None else (v * (1.0 + rel), v * (1.0 - rel))):
            if moved != v and not (field == "modulus" and moved > 1.0):
                out.append((field, lambda field=field, moved=moved: _moved(sol, field, moved)))
    return out


class TestCertificateVerdicts:
    """The certificate on the presets and the sweep's waves, and the sampled
    gate on the forms it vouches for."""

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_mutants_refused(self, name):
        """A, B, C, D, beta and k, each moved by 1e-6 either way (a modulus
        of 1 only inward), are refused on every preset."""
        wave = build_preset(name)[0].with_phase(0.0)
        mutants = _mutants(wave, 1e-6)
        assert len(mutants) >= 8
        for field, mutant in mutants:
            with pytest.raises(KBWaveError):
                S._gates(mutant())

    @pytest.mark.parametrize("name, field", [("fig-case2bc-k1", "D"), ("fig-case2e", "C"),
                                             ("fig-case2f", "C")])
    @pytest.mark.parametrize("rel", [1e-9, -1e-9])
    def test_defect_only_the_snap_explains_is_sampled(self, name, field, rel):
        """A 1e-9 move of C or D on a preset whose modulus is 0 or 1, at a
        merged zero: a modulus snapped there once stood for other k^2 and
        covered the move.  The certificate refutes it, and the sampled gate,
        which runs first, refuses it."""
        wave = build_preset(name)[0].with_phase(0.0)
        wrong = replace(wave, **{field: getattr(wave, field) * (1.0 + rel)})
        defect, rounding, *_ = S._certificate(wrong)
        assert rounding < defect
        with pytest.raises(UnresolvedBranch, match="defining residual gate"):
            S._gates(wrong)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # zeros of size 1e150
    def test_unsampled_forms_pass_the_sampled_gate(self, monkeypatch):
        """Where ``_gates`` passes a form without sampling it, the sampled
        gate passes it too.  Every KINDS row on the sweep's zeros and their
        ``_image``, close pairs included, each build and each refused
        candidate, with A, B, C, D, beta and k moved by 1e-6, 1e-9 and 1e-12
        either way: the evidence that the certificate may stand alone on
        zeros apart."""
        sampled = []
        gate = S._residual_gate
        monkeypatch.setattr(S, "_residual_gate", lambda wave: sampled.append(wave) or gate(wave))
        rng = np.random.default_rng(21)
        forms = unsampled = 0
        for _ in range(40):
            for label, build in _builds(rng, image=True):
                try:
                    wave = build()
                except UnresolvedBranch as err:
                    wave = err.candidate
                except (KBWaveError, ValueError):
                    continue
                wave = wave.with_phase(0.0)
                mutants = [m for rel in (1e-6, 1e-9, 1e-12) for _, m in _mutants(wave, rel)]
                for form in [lambda: wave, *mutants]:
                    sampled.clear()
                    try:
                        form = form()
                        S._gates(form)
                    except (KBWaveError, ArithmeticError, ValueError):
                        continue
                    forms += 1
                    if not sampled:
                        unsampled += 1
                        gate(form)  # raises over the gate
        assert unsampled > 1500 and forms - unsampled > 1000

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


# The certificate and the gates' decision as they stood before they were
# written as one straight-line walk over the zeros: the referee of the
# single-pass ``_certificate`` and ``_gates``, which keep their IEEE
# operations in this order.  ``_sum`` adds left to right, as ``sum()`` does
# on floats before Python 3.12.


def _sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def _reference_certificate(wave):
    """(defect, rounding) of ``wave``, or None where its zeros have no
    spread or are not finite."""
    z0 = -wave.params.c
    r1, r2, r3, r4 = wave.roots.expand()
    w = max(abs(r1 - z0), abs(r2 - z0), abs(r3 - z0), abs(r4 - z0))
    if not 0.0 < w < math.inf:
        return None
    s = max(abs(wave.C), abs(wave.D))
    A, B, C, D = wave.A / s, wave.B / s, wave.C / s, wave.D / s
    aC, aD, az = abs(C), abs(D), abs(z0)
    a, b = (A - z0 * C) / w, (B - z0 * D) / w
    ea = (2.0 * abs(A) + 3.0 * az * aC) / w + 2.0 * abs(a)
    eb = (2.0 * abs(B) + 3.0 * az * aD) / w + 2.0 * abs(b)
    m, g = [], []
    for r, mult in wave.roots.entries:
        t = (r - z0) / w
        at = abs(t)
        et = (abs(r) if mult == 1 else S._MERGE_ULPS * max(1.0, abs(r))) / w + 2.0 * at
        c0, c1 = a - t * C, b - t * D
        m += [(c0, c1)] * mult
        g += [ea + eb + (aC + aD) * (3.0 * at + et) + abs(c0) + abs(c1)] * mult
    (a0, a1), (b0, b1), (c0, c1), (d0, d1) = m
    u0, u1, u2 = a0 * b0, a0 * b1 + a1 * b0, a1 * b1
    v0, v1, v2 = c0 * d0, c0 * d1 + c1 * d0, c1 * d1
    p = (u0 * v0, u0 * v1 + u1 * v0, u0 * v2 + u1 * v1 + u2 * v0, u1 * v2 + u2 * v1, u2 * v2)
    ma, mb, mc, md = abs(a0) + abs(a1), abs(b0) + abs(b1), abs(c0) + abs(c1), abs(d0) + abs(d1)
    mab, mcd = ma * mb, mc * md
    error = ((g[0] * mb + g[1] * ma) * mcd + (g[2] * md + g[3] * mc) * mab
             + 8.0 * mab * mcd)
    W = b * C - a * D
    eW = abs(b) * 2.0 * aC + aC * eb + abs(a) * 2.0 * aD + aD * ea + 2.0 * (abs(b * C) + abs(a * D))
    bt = wave.beta / w
    h = W * bt
    eh = abs(bt) * eW + 2.0 * abs(h)
    G = h * h
    q = wave.equation
    defect = _sum(abs(G * qj + pj) for qj, pj in zip(q, p))
    error += (2.0 * abs(h) * eh + abs(G)) * _sum(map(abs, q))
    if wave.modulus is not None:
        error += 48.0 * abs(G)
    return defect, S.CERTIFICATE_ULPS * S._U * error


def _reference_gates(wave):
    wave.residual_bound
    start, stop = wave.window
    if wave.kernel != "const" and not sys.float_info.min <= wave.beta < math.inf:
        raise FloatingPointError(f"its frequency {wave.beta!r} is not a positive normal double")
    cert = _reference_certificate(wave)
    v = wave.roots.values()
    close = len(v) > 2 and min(b - a for a, b in zip(v, v[1:])) < S.CLOSE_ZEROS * (v[-1] - v[0])
    vouched = cert is not None and cert[0] <= cert[1] and stop - start < math.inf
    if close or not vouched:
        S._residual_gate(wave)
    if cert is not None and cert[1] < cert[0] < math.inf:
        raise UnresolvedBranch(
            f"{wave.kind} failed the certificate: {cert[0]:.3e} > {cert[1]:.3e}",
            candidate=wave)
    if close:
        dev, bound, passed = verify.orbit_deviation(wave)
        if not passed:
            raise UnresolvedBranch(f"{wave.kind} failed the orbit check: {dev:.3e} >= {bound:.3e}",
                                   candidate=wave)


def _bits(*xs):
    return struct.pack(f"<{len(xs)}d", *xs)


def _verdict(gates, wave):
    """What ``gates`` says of ``wave``, with float errors raised as the CLI
    raises them: None, or the refusal's type and message."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            gates(wave)
    except (KBWaveError, ArithmeticError, ValueError) as err:
        return type(err).__name__, str(err)
    return None


def _matches_the_referee(wave):
    """The single-pass certificate reads the referee's (defect, rounding)
    bit for bit (NaN where the referee has none), and ``_gates`` gives the
    referee's verdict and message."""
    defect, rounding, *_ = S._certificate(wave)
    want = _reference_certificate(wave)
    if want is None:
        assert math.isnan(defect) and math.isnan(rounding)
    else:
        assert _bits(defect, rounding) == _bits(*want)
    assert _verdict(S._gates, wave) == _verdict(_reference_gates, wave)



class TestReferenceCertificate:

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_and_their_mutants_match_the_referee(self, name):
        wave = build_preset(name)[0].with_phase(0.0)
        _matches_the_referee(wave)
        mutants = [m for rel in (1e-6, 1e-9, 1e-12) for _, m in _mutants(wave, rel)]
        assert len(mutants) >= 24
        for mutant in mutants:
            _matches_the_referee(mutant())

    @settings(max_examples=600, derandomize=True, deadline=None)
    @given(kind=st.sampled_from(sorted(KINDS)), branch=st.sampled_from(("upper", "lower")),
           index=st.integers(1, 4),
           base=st.lists(st.floats(-5, 5), min_size=4, max_size=4, unique=True),
           pull=st.none() | st.tuples(st.permutations(range(4)), st.floats(-12, -2),
                                      st.floats(-12, -2)),
           sign=st.sampled_from((-1.0, 1.0)), exponent=st.floats(-3, 3),
           shift=st.just(0.0) | st.floats(-1e4, 1e4), descending=st.booleans(),
           field=st.sampled_from((None, "A", "B", "C", "D", "beta", "modulus")),
           rel=st.sampled_from((1e-6, -1e-6, 1e-9, -1e-9, 1e-12, -1e-12)))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a build's own float errors
    def test_kinds_images_and_mutants_match_the_referee(self, kind, branch, index, base, pull,
                                                        sign, exponent, shift, descending,
                                                        field, rel):
        """Every KINDS row on its branches and starts, on affine images
        lambda z + a of its zeros (|lambda| from 1e-3 to 1e3, |a| <= 1e4,
        one pair sometimes pulled 1e-12..1e-2 together), in increasing or
        decreasing order, each build or refused candidate as it is or with
        one of A, B, C, D, beta and (k, k') moved by 1e-6, 1e-9 or 1e-12
        either way."""
        row = KINDS[kind]
        n = len(row.zeros.split(","))
        base = base[:n]
        if pull is not None:
            i, j = [m for m in pull[0] if m < n][:2]
            base[j] = base[i] * (1.0 + 10.0 ** pull[1]) + 10.0 ** pull[2]
        zeros = sorted((sign * 10.0 ** exponent * z + shift for z in base), reverse=descending)
        try:
            wave = row.build(zeros, branch, 0.0, index)
        except UnresolvedBranch as err:
            wave = err.candidate
        except (KBWaveError, ValueError):
            return
        wave = wave.with_phase(0.0)
        if field is not None:
            v = getattr(wave, field)
            moved = v * (1.0 + rel) if v is not None else None
            if moved is None or moved == v or (field == "modulus" and moved > 1.0):
                return
            try:
                wave = _moved(wave, field, moved)
            except (KBWaveError, ValueError):
                return
        _matches_the_referee(wave)
