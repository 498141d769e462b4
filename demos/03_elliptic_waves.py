"""Elliptic wave families and the reference figure catalog.

The two constrained elliptic families are u = gamma + alpha y(beta xi)
(kernels cn, dn; zero relation f4 = f1 + f3 - f2) and u = 1/(a + b y(beta xi))
(kernels sn, cn, dn and the reciprocals 1/sn, 1/cn; zero relation
f4 = f1 f2 f3 / (f2 f3 + f1 f2 - f1 f3)).  The tn and dn*tn kernels admit no
real parameters at all: case2 raises Infeasible with the witness.  The figure
presets reproduce the displayed closed forms exactly; each preset's profile is
verified to machine precision.
"""

import numpy as np

import kbwave as kb
from kbwave.solutions import Infeasible

print("== figure catalog ==")
print(f"{'preset':<18} {'kind':<14} {'k':>6} {'period':>10} {'residual':>10}")
for name in sorted(kb.PRESETS):
    sol, params = kb.build_preset(name)
    T = sol.period
    domain = (0.0, T) if T is not None else (-10.0, 10.0)
    res = kb.ode_residual(sol, params, domain, 2000)
    period = f"{T:.6f}" if T is not None else "inf"
    k = "-" if sol.modulus is None else f"{sol.modulus:.3f}"
    print(f"{name:<18} {sol.kind:<14} {k:>6} {period:>10} {res:>10.2e}")

print()
print("== first-family band structure (zeros -3, -2-s, -1 with s = sqrt(3)/2) ==")
s = np.sqrt(3) / 2
for branch in ("upper", "lower"):
    sol = kb.case1("dn", -3.0, -2.0 - s, -1.0, branch=branch)
    grid = np.linspace(0, sol.period, 40001)
    f = sol.profile(grid)[0]
    print(f"  dn {branch} band: f in [{f.min():+.6f}, {f.max():+.6f}], k = {sol.modulus:.3f}")

print()
print("== second family at a generic modulus (zeros 1, 2, 3) ==")
for kind in ("sn", "cn", "dn", "inv_sn", "inv_cn", "tn", "dn_tn"):
    try:
        out = kb.case2(kind, 1.0, 2.0, 3.0)
    except Infeasible as err:
        print(f"  {kind:<7}: infeasible - {err.reason.splitlines()[0][:64]}")
        continue
    grid = np.linspace(0, out.period, 20001)
    f = out.profile(grid)[0]
    print(f"  {kind:<7}: k = {out.modulus:.4f}, band [{f.min():.4f}, {f.max():.4f}], "
          f"period {out.period:.4f}")

print()
print("== modulus-1 collapses to the solitary shapes ==")
f1, f3 = 8 - 2 * np.sqrt(14), 8 + 2 * np.sqrt(14)
tall = kb.case2("dn", f1, 1.0, f3)
print(f"  harmonic zeros: peak u(0) = {tall.evaluate(0.0)[0]:.6f} "
      f"(= upper simple zero {f3:.6f})")
coh = kb.limiting_form("b", (f1, 1.0, f3), branch="upper")
xi = np.linspace(-6, 6, 301)
dev = np.max(np.abs(tall.profile(xi)[0] - coh.profile(xi)[0]))
print(f"  pointwise agreement with the cosh-ratio limit: {dev:.2e}")

print()
print("== elliptic substrate sanity ==")
rng = np.random.default_rng(1)
u = rng.uniform(-20, 20, 1000)
k = rng.uniform(0, 1, 1000)
worst = 0.0
for ui, ki in zip(u, k):
    sn, cn, dn = kb.jacobi(ui, ki)
    worst = max(worst, abs(sn * sn + cn * cn - 1), abs(dn * dn + ki * ki * sn * sn - 1))
print(f"  worst identity deviation over 1000 samples: {worst:.2e}")
print(f"  quarter period K(0.5) = {kb.complete_K(0.5):.15f}")
