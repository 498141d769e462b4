"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (failures surface as ordinary pytest failures).
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import kbwave as kb
from kbwave import evolution
from kbwave.cli import main as cli_main
from kbwave.hierarchy import FPoly
from kbwave.quartic import CaseTag
from kbwave.solutions import Infeasible

S3 = math.sqrt(3.0)
S14 = math.sqrt(14.0)
F = Fraction


def _report(num, desc):
    print(f"ACCEPTANCE {num:02d} PASS - {desc}")


def test_criterion_01_parameter_map_exactness():
    rm = kb.RootMultiset(((F(-3), 1), (F(-2), 2), (F(-1), 1)))
    p = kb.params_from_roots(rm)
    assert (p.c, p.d1, p.d2, p.d3) == (F(2), F(-7, 4), F(-7, 2), F(-3, 2))

    rm2 = kb.RootMultiset(((8 - 2 * S14, 1), (1.0, 2), (8 + 2 * S14, 1)))
    p2 = kb.params_from_roots(rm2)
    for got, want in zip((p2.c, p2.d1, p2.d2, p2.d3), (-4.5, 10.0, 4.0, -1.0)):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    _report(1, "parameter map exact in rationals; float fixture to 1e-12")


def test_criterion_02_vanishing_nonexistence():
    # two-component: exact -f^2 (f + 2c)^2 and the classifier verdict
    rng = np.random.default_rng(101)
    for c in rng.uniform(-5, 5, size=100):
        c = float(c)
        p = kb.Params(c, 0.0, 0.0, 0.0)
        roots = kb.roots_of_F(p)
        expect = (-1.0, -4.0 * c, -4.0 * c * c, 0.0, 0.0)
        assert tuple(float(v) for v in p.coefficients()) == expect
        tag = kb.classify(roots)
        assert tag in (CaseTag.TWO_DOUBLES_ONLY, CaseTag.QUADRUPLE)
        assert kb.existence(tag) == "none"
    # four-component: exact -f^2 (f + 2c)^4 / 4 via the recurrence
    P4 = kb.reduce_vanishing(4).P
    assert P4 == FPoly({(6, 0): F(-1, 4), (5, 1): -2, (4, 2): -6,
                        (3, 3): -8, (2, 4): -4})
    assert "no non-constant real solution" in kb.even_ell_nonexistence(4)
    _report(2, "vanishing reductions exact; no non-constant solution verdicts")


def _all_closed_forms():
    """Every constructed family of the catalog, as (label, solution)."""
    forms = [
        ("solitary_double upper", kb.solitary_double(-3, -2, -1, branch="upper")),
        ("solitary_double lower", kb.solitary_double(-3, -2, -1, branch="lower")),
        ("periodic_trig 2a", kb.periodic_trig(-2 - S3, -2 + S3, 0.0, branch="lower")),
        ("periodic_trig 2e", kb.periodic_trig(-1.0, 1 / 3, 1.0, branch="lower")),
        ("solitary_triple", kb.solitary_triple(0.0, 2.0)),
        ("limiting a", kb.limiting_form("a", (-3, -2, -1), branch="upper")),
        ("limiting b", kb.limiting_form("b", (8 - 2 * S14, 1.0, 8 + 2 * S14),
                                        branch="upper")),
        ("limiting c", kb.limiting_form("c", (-1.0, 0.0, 1 / 3), branch="upper")),
        ("case1 cn k=1", kb.case1("cn", -3.0, -2.0, -1.0, branch="upper")),
        ("case1 dn k=0.5", kb.case1("dn", -3.0, -2.0 - 0.5 * S3, -1.0, branch="upper")),
        ("case2 sn k=0 (2a)", kb.case2("sn", -2 - S3, 0.0, -2 + S3)),
        ("case2 cn k=0 (2b)", kb.case2("cn", 2 - S3, 0.0, 2 + S3)),
        ("case2 cn k=1 (2b)", kb.case2("cn", 8 - 2 * S14, 1.0, 8 + 2 * S14)),
        ("case2 dn k=1 (2c)", kb.case2("dn", 8 - 2 * S14, 1.0, 8 + 2 * S14)),
        ("case2 dn generic", kb.case2("dn", 1.0, 2.0, 3.0)),
        ("case2 inv_sn k=0 (2e)", kb.case2("inv_sn", -1.0, 1.0, 1 / 3)),
        ("case2 inv_cn k=0 (2f)", kb.case2("inv_cn", -1.0, 1.0, 1 / 3)),
        ("case2 inv_cn k=1 (2f)", kb.case2("inv_cn", -1.0, 0.0, 1 / 3)),
    ]
    for idx in (1, 2, 3, 4):
        forms.append((f"general_sn2 idx{idx}",
                      kb.general_sn2((0.0, 1.0, 2.0, 3.0), initial_index=idx)))
    return forms


def test_criterion_03_defining_residual_gates():
    for label, sol in _all_closed_forms():
        T = sol.period
        domain = (sol.xi0, sol.xi0 + T) if T is not None else (-10.0, 10.0)
        res = kb.ode_residual(sol, sol.params, domain=domain, n=2000)
        gate = 1e-8 * sol.roots.scale() ** 4
        assert res < gate, f"{label}: {res:.3e} >= {gate:.3e}"
    _report(3, "defining residual < 1e-8 scale^4 on 2000 points, all kinds")


def test_criterion_04_pde_residuals_all_presets():
    for name in sorted(kb.PRESETS):
        sol, params = kb.build_preset(name)
        T = sol.period
        domain = (sol.xi0, sol.xi0 + T) if T is not None else (-10.0, 10.0)
        r_u, r_v = kb.pde_residual(sol, params, domain=domain, n=400, h_fd=1e-3)
        assert max(r_u, r_v) < 1e-6, f"{name}: ({r_u:.3e}, {r_v:.3e})"
    _report(4, "coupled-system residuals < 1e-6 at h_fd=1e-3 for all presets")


def test_criterion_05_oracle_equivalence():
    checks = []
    # solitary pulse over the full window
    sol, params = kb.build_preset("fig-case1a")
    f0 = sol.evaluate(-10.0)[0]
    prof = kb.oracle_integrate(params, f0, +1, 20.0, h=1e-4)
    exact = sol.profile(-10.0 + prof.xi)[0]
    checks.append(("fig-case1a", float(np.max(np.abs(prof.f - exact)))))
    # sharp solitary pulses: start at the peak of the even profile
    for name in ("fig-case2bc-k1", "fig-case2f-k1"):
        sol, params = kb.build_preset(name)
        f0, _ = sol.evaluate(0.0)
        prof = kb.oracle_integrate(params, f0, -1, 10.0, h=1e-4)
        exact = sol.profile(prof.xi)[0]
        checks.append((name, float(np.max(np.abs(prof.f - exact)))))
    # periodic kinds over one period
    for name in ("fig-case1b-k05", "fig-case2a", "fig-case2e"):
        sol, params = kb.build_preset(name)
        f0, fp0 = sol.evaluate(0.0)
        prof = kb.oracle_integrate(params, f0, 1 if fp0 >= 0 else -1,
                                   sol.period, h=1e-4)
        exact = sol.profile(prof.xi)[0]
        checks.append((name, float(np.max(np.abs(prof.f - exact)))))
    # the general four-root band orbit
    sol = kb.general_sn2((0.0, 1.0, 2.0, 3.0), initial_index=1)
    prof = kb.oracle_integrate(sol.params, 0.0, +1, sol.period, h=1e-4)
    exact = sol.profile(prof.xi)[0]
    checks.append(("general_sn2", float(np.max(np.abs(prof.f - exact)))))
    for name, err in checks:
        assert err < 1e-6, f"{name}: oracle mismatch {err:.3e}"
    # fourth-order convergence, measured away from turning points
    sol, params = kb.build_preset("fig-case1a")
    f0 = sol.evaluate(-10.0)[0]
    errs = {}
    for h in (0.02, 0.01):
        prof = kb.oracle_integrate(params, f0, +1, 9.0, h=h)
        exact = sol.profile(-10.0 + prof.xi)[0]
        errs[h] = float(np.max(np.abs(prof.f - exact)))
    assert errs[0.02] / errs[0.01] >= 8.0
    _report(5, "RK4 oracle matches closed forms to 1e-6; ratio >= 8 on h/2")


def test_criterion_06_elliptic_substrate():
    rng = np.random.default_rng(6)
    u = rng.uniform(-20, 20, size=10_000)
    k = rng.uniform(0.0, 1.0, size=10_000)
    for ui, ki in zip(u, k):
        s, c, d = kb.jacobi(ui, ki)
        assert abs(s * s + c * c - 1.0) <= 1e-12
        assert abs(d * d + ki * ki * s * s - 1.0) <= 1e-12
    # first-order equations, sampled away from poles
    h = 1e-5
    for kind in ("sn", "cn", "dn"):
        for _ in range(500):
            ki = rng.uniform(0.05, 0.95)
            ui = rng.uniform(-4, 4)
            trip_m = kb.jacobi(ui - h, ki)
            trip_p = kb.jacobi(ui + h, ki)
            y = getattr(kb.jacobi(ui, ki), kind)
            yp = (getattr(trip_p, kind) - getattr(trip_m, kind)) / (2 * h)
            k2 = ki * ki
            rhs = {
                "sn": (1 - y * y) * (1 - k2 * y * y),
                "cn": (1 - y * y) * (1 - k2 + k2 * y * y),
                "dn": (1 - y * y) * (y * y - 1 + k2),
            }[kind]
            assert abs(abs(yp) - math.sqrt(max(rhs, 0.0))) < 1e-6
    for ui in rng.uniform(-6, 6, size=50):
        s0, c0, d0 = kb.jacobi(ui, 0.0)
        assert abs(s0 - math.sin(ui)) <= 1e-12
        assert abs(c0 - math.cos(ui)) <= 1e-12
        assert abs(d0 - 1.0) <= 1e-12
        s1, c1, d1 = kb.jacobi(ui, 1.0)
        assert abs(s1 - math.tanh(ui)) <= 1e-12
        assert abs(c1 - 1.0 / math.cosh(ui)) <= 1e-12
        assert abs(d1 - c1) <= 1e-12
    _report(6, "identities to 1e-12 at 1e4 points; equations to 1e-6; limits exact")


def test_criterion_07_infeasibility_results():
    rng = np.random.default_rng(7)
    count = 0
    while count < 100:
        f1, f2, f3 = np.sort(rng.uniform(-5, 5, size=3))
        if abs(f1) < 0.1 or abs(f3) < 0.1 or f2 - f1 < 0.05 or f3 - f2 < 0.05:
            continue
        if abs(f2 * f3 + f1 * f2 - f1 * f3) < 1e-6:
            continue
        with pytest.raises(Infeasible):
            kb.case2("tn", f1, f2, f3)
        with pytest.raises(Infeasible):
            kb.case2("dn_tn", f1, f2, f3)
        count += 1
    # OneDoubleOnly and TwoDoublesOnly: F <= 0 everywhere, every feasible
    # start sits at a zero and the orbit is constant
    for p, zeros in (
        (kb.Params(-0.5, -0.25, 0.25, -0.125), (1.0,)),          # -(f-1)^2(f^2+1)
        (kb.Params(2.0, 0.0, 0.0, 0.0), (0.0, -4.0)),            # -f^2(f+4)^2
    ):
        grid = np.linspace(-12, 12, 4001)
        Fv = kb.eval_F(p, grid)
        near = np.min(np.abs(grid[:, None] - np.array(zeros)[None, :]), axis=1)
        assert np.all(Fv[near > 1e-2] < 0.0)
        for z in zeros:
            prof = kb.oracle_integrate(p, z, +1, 1.0, h=1e-3)
            assert np.max(np.abs(prof.f - z)) < 1e-10
    _report(7, "tn and dn*tn infeasible (100 triples); degenerate cases orbit-free")


def test_criterion_08_limiting_coherence():
    xi = np.linspace(-10, 10, 1001)
    pairs = [
        (kb.limiting_form("a", (-3, -2, -1), branch="upper"),
         kb.solitary_double(-3, -2, -1, branch="upper")),
        (kb.limiting_form("b", (8 - 2 * S14, 1.0, 8 + 2 * S14), branch="lower"),
         kb.solitary_double(8 - 2 * S14, 1.0, 8 + 2 * S14, branch="lower")),
        (kb.limiting_form("c", (-1.0, 0.0, 1 / 3), branch="upper"),
         kb.solitary_double(-1.0, 0.0, 1 / 3, branch="upper")),
        (kb.limiting_form("d", (-3.0, -1.0, -1.0)),
         kb.solitary_triple(-1.0, -3.0)),
        (kb.case1("cn", -3.0, -2.0, -1.0, branch="upper"),
         kb.solitary_double(-3, -2, -1, branch="upper")),
        (kb.case2("dn", 8 - 2 * S14, 1.0, 8 + 2 * S14),
         kb.limiting_form("b", (8 - 2 * S14, 1.0, 8 + 2 * S14), branch="upper")),
        (kb.case2("inv_cn", -1.0, 0.0, 1 / 3),
         kb.limiting_form("c", (-1.0, 0.0, 1 / 3), branch="upper")),
    ]
    for a, b in pairs:
        fa, _ = a.profile(xi)
        fb, _ = b.profile(xi)
        assert np.max(np.abs(fa - fb)) < 1e-10
    # the two consistency identities on accepted inputs
    c1 = kb.case1("dn", -3.0, -2.0 - 0.5 * S3, -1.0, branch="upper")
    assert abs(c1.params.d2 - c1.params.c * c1.params.d1) < 1e-10
    c2 = kb.case2("dn", 1.0, 2.0, 3.0)
    a = (1.0 + 3.0) / (2.0 * 1.0 * 3.0)  # (f1 + f3) / (2 f1 f3)
    assert abs(c2.params.d2 + 4.0 * c2.params.d3 * a) < 1e-10
    _report(8, "limit formulas agree to 1e-10; constraint identities hold")


def test_criterion_09_hierarchy_recurrence():
    assert kb.reduce_vanishing(2).P == FPoly({(4, 0): -1, (3, 1): -4, (2, 2): -4})
    assert kb.reduce_vanishing(3).P == FPoly(
        {(5, 0): F(1, 2), (4, 1): 3, (3, 2): 6, (2, 3): 4})
    assert kb.reduce_vanishing(4).P == FPoly(
        {(6, 0): F(-1, 4), (5, 1): -2, (4, 2): -6, (3, 3): -8, (2, 4): -4})
    t0 = time.time()
    rep = kb.conjecture_report(10)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    row4 = next(r for r in rep.rows if r["ell"] == 4)
    assert row4["printed_match"] is False  # 2^(2l-4) = 16 vs the actual 4
    assert row4["pattern_match"] is True   # 2^(l-2) = 4
    _report(9, f"recurrence exact at ell=2,3,4; report to 10 in {elapsed:.2f}s")


def test_criterion_10_l3_implicit_profile():
    c = 1.0
    xi = np.linspace(-8.0, 8.0, 400)
    delta = 1e-5
    f, _ = kb.l3_implicit_profile(c, xi, "+")
    f_p, _ = kb.l3_implicit_profile(c, xi + delta, "+")
    f_m, _ = kb.l3_implicit_profile(c, xi - delta, "+")
    fp = (f_p - f_m) / (2 * delta)
    res = np.max(np.abs(fp**2 - f**2 * (f + 2 * c) ** 3 / 2.0))
    assert res < 1e-6
    _report(10, f"implicit three-component profile residual {res:.2e} < 1e-6")


def test_criterion_11_evolution_permanence():
    t0 = time.time()
    sol, params = kb.build_preset("fig-case1a")
    L, n, T = 40.0 * np.pi, 1024, 1.0
    state0 = evolution.state_from_callable(
        lambda xi: sol.profile(xi)[0], params, L, n)
    final = evolution.evolve(state0, 1e-3, T)
    exact = sol.profile(final.x - L / 2 - params.c * T)[0]
    err = float(np.max(np.abs(final.u - exact)))
    drift = abs(float(np.mean(final.u) - np.mean(state0.u)))
    elapsed = time.time() - t0
    assert err < 1e-3
    assert drift < 1e-10
    assert elapsed < 60.0
    _report(11, f"permanence error {err:.2e}; mean drift {drift:.1e}; {elapsed:.1f}s")


def test_criterion_12_figure_reproduction(tmp_path):
    spots = {
        "fig-case1a": -1.0,
        "fig-case2f-k1": 1.0 / 3.0,
        "fig-case2a": -0.5,
    }
    for name, want in spots.items():
        out = tmp_path / f"{name}.csv"
        assert cli_main(["solve", "--preset", name, "--out", str(out)]) == 0
        with open(out) as fh:
            assert fh.readline().strip() == "xi,f,f_prime,g"
            rows = [tuple(float(t) for t in line.split(",")) for line in fh]
        row0 = min(rows, key=lambda r: abs(r[0]))
        assert row0[0] == 0.0
        assert abs(row0[1] - want) <= 1e-12
        sidecar = json.loads((tmp_path / f"{name}.json").read_text())
        assert sidecar["schema"] == 1 and sidecar["residual"]["passed"]
    _report(12, "preset CSVs reproduce the displayed spot values to 1e-12")
