"""Independent verification: residual operators and the brute-force oracle.

Nothing here trusts the closed forms: the first-integral residual uses only
the analytic derivative and the quartic; the coupled-system residual
rebuilds both equations with finite differences; the oracle integrates
f' = s sqrt(F(f)) from scratch, reflecting at simple turning points.
"""

import numpy as np

import kbwave as kb

print("== defining residual |f'^2 - F(f)| (2000-point grids) ==")
for name in sorted(kb.PRESETS):
    sol, params = kb.build_preset(name)
    T = sol.period
    domain = (0.0, T) if T is not None else (-10.0, 10.0)
    res = kb.ode_residual(sol, params, domain, 2000)
    gate = 1e-8 * sol.roots.scale() ** 4
    print(f"  {name:<18} {res:.3e}  (gate {gate:.1e})")

print()
print("== detector sanity: corrupt the pulse amplitude by 1% ==")
sol, params = kb.build_preset("fig-case1a")
xi = np.linspace(-10, 10, 2000)
f, fp = sol.profile(xi)
res_bad = np.max(np.abs(fp**2 - kb.eval_F(params, -2.0 + 1.01 * (f + 2.0))))
print(f"  corrupted residual: {res_bad:.3e}  (clean: {kb.ode_residual(sol, params):.3e})")

print()
print("== coupled-system residuals (4th-order stencils, step 3e-3 of the wave's length) ==")
for name in sorted(kb.PRESETS):
    sol, params = kb.build_preset(name)
    T = sol.period
    domain = (0.0, T) if T is not None else (-10.0, 10.0)
    r_u, r_v, h = kb.pde_residual(sol, params, domain, 400)
    print(f"  {name:<18} r_u = {r_u:.3e}   r_v = {r_v:.3e}   h = {h:.3e}")

print()
print("== brute-force oracle vs closed form ==")
sol, params = kb.build_preset("fig-case1a")
f0 = sol.evaluate(-10.0)[0]
prof = kb.oracle_integrate(params, f0, +1, 20.0, h=1e-4)
exact = sol.profile(-10.0 + prof.xi)[0]
print(f"  solitary pulse, xi in [-10, 10], h = 1e-4: "
      f"L_inf = {np.max(np.abs(prof.f - exact)):.2e}")
print(f"  turning events at xi = {[round(-10 + e, 6) for e in prof.events]}")

print()
print("== fourth-order convergence away from turning points ==")
errs = {}
for h in (0.04, 0.02, 0.01, 0.005):
    prof = kb.oracle_integrate(params, f0, +1, 9.0, h=h)
    exact = sol.profile(-10.0 + prof.xi)[0]
    errs[h] = np.max(np.abs(prof.f - exact))
hs = sorted(errs, reverse=True)
for a, b in zip(hs, hs[1:]):
    print(f"  h = {a:<6} -> {b:<6}: error {errs[a]:.3e} -> {errs[b]:.3e} "
          f"(ratio {errs[a] / errs[b]:.1f})")

print()
print("== energy along the oracle profile ==")
drift = np.max(np.abs(prof.f_prime**2 - kb.eval_F(params, prof.f)))
print(f"  max |f'^2 - F(f)| along the orbit: {drift:.2e}")
