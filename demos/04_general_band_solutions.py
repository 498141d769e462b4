"""The general four-root family and the branch correction it required.

With four distinct simple zeros f1 < f2 < f3 < f4 the bounded orbits live in
the bands [f1, f2] and [f3, f4], and every one of them is a ratio of the form
(a1 + b1 sn^2)/(a2 + b2 sn^2).  The classically printed per-branch
coefficients pair ADJACENT roots (start at f1, send sn^2 = 1 to a point
involving f2's partner) and fail the defining residual for sorted roots; the
validated assignment pairs each starting root with the OPPOSITE extreme
(f1 <-> f4, f2 <-> f3) and uses

    modulus^2 = ((f2 - f1)(f4 - f3)) / ((f3 - f1)(f4 - f2)),

the complementary value of the printed one.  The constructor builds that
pairing directly and records the correction in the solution's provenance
notes.
"""

import numpy as np

import kbwave as kb

ROOTS = (0.0, 1.0, 2.0, 3.0)

print(f"zeros: {ROOTS}")
print(f"{'start':<8} {'band':<16} {'k^2':>8} {'period':>10} {'residual':>10}  notes")
for idx in (1, 2, 3, 4):
    sol = kb.general_sn2(ROOTS, initial_index=idx)
    grid = np.linspace(0.0, sol.period, 20001)
    f = sol.profile(grid)[0]
    res = kb.ode_residual(sol, sol.params, (0.0, sol.period), 2000)
    print(f"f{idx} = {ROOTS[idx-1]:<3} [{f.min():.4f}, {f.max():.4f}]"
          f"  {sol.modulus**2:>8.4f} {sol.period:>10.6f} {res:>10.2e}  {sol.notes}")

print()
print("Cross-check against the orbit oracle (h = 1e-4):")
sol = kb.general_sn2(ROOTS, initial_index=1)
# a period and a half, so the grid holds the turn a period after the start
prof = kb.oracle_integrate(sol.params, 0.0, +1, 1.5 * sol.period, h=1e-4)
exact = sol.profile(prof.xi)[0]
print(f"  L_inf(closed form - oracle) over 1.5 periods: "
      f"{np.max(np.abs(prof.f - exact)):.2e}")
period_measured = prof.events[2] - prof.events[0]
print(f"  period from turning events: {period_measured:.8f} "
      f"vs 2K/beta = {sol.period:.8f}")

print()
print("Degeneration: as f3 -> f2 the band orbit becomes the solitary pulse")
for gap in (1e-1, 1e-2, 1e-3, 1e-4):
    merged = kb.general_sn2((0.0, 1.0, 1.0 + gap, 3.0), initial_index=1)
    ref = kb.solitary_double(0.0, 1.0, 3.0, branch="lower")
    xi = np.linspace(-3, 3, 121)
    dev = np.max(np.abs(merged.profile(xi)[0] - ref.profile(xi)[0]))
    print(f"  gap {gap:7.0e}: max deviation {dev:.3e}, k = {merged.modulus:.8f}")

print()
print("Documented corrections to printed formulas:")
for row in kb.discrepancy_report():
    print(f"  [{row['id']}] ({row['applies_to']})")
    print(f"      {row['detail']}")
