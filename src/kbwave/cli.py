"""Command-line front end.

Verbs:
    classify   roots, multiplicities, case tag and existence verdict
    solve      construct a closed form, verify it, emit profile + sidecar
    verify     residual report (first-integral and coupled-system defects)
    oracle     brute-force RK4 orbit profile
    evolve     pseudo-spectral time evolution, permanence summary
    reduce     exact hierarchy reduction and conjecture verdicts
    figures    emit the reference figure presets as golden CSV files

Outputs are deterministic: 17 significant digits, LF line endings, atomic
writes.  The environment variable KBWAVE_TOL overrides the residual gate
(relative to scale^4, default solutions.RESIDUAL_RTOL = 1e-8).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from fractions import Fraction

import numpy as np

from . import __version__, evolution
from .errors import KBWaveError
from .presets import PRESETS, build_preset
from .quartic import (
    CaseTag,
    Params,
    RootMultiset,
    classify,
    existence,
    params_from_roots,
    roots_of_F,
)
from .solutions import (
    RESIDUAL_RTOL,
    ClosedFormSolution,
    Infeasible,
    case1,
    case2,
    general_sn2,
    periodic_trig,
    solitary_double,
    solitary_triple,
)
from .verify import build_profile, ode_residual, oracle_integrate, pde_residual
from .hierarchy import conjecture_report, reduce_vanishing

CSV_HEADER = "xi,f,f_prime,g"
SCHEMA_VERSION = 1

KIND_CHOICES = (
    "auto", "solitary_double", "periodic_trig", "solitary_triple",
    "case1-cn", "case1-dn",
    "case2-sn", "case2-cn", "case2-dn", "case2-inv-sn", "case2-inv-cn",
    "general-sn2",
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".kbwave-")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _atomic_write(path, text)


def _parse_number(token: str) -> float:
    token = token.strip()
    try:
        if "/" in token:
            return float(Fraction(token))
        return float(token)
    except (ValueError, ZeroDivisionError):
        raise SystemExit(f"config error: {token!r} is not a number") from None


def _parse_list(text: str):
    return [_parse_number(t) for t in text.split(",") if t.strip()]


def residual_tolerance() -> float:
    raw = os.environ.get("KBWAVE_TOL")
    if raw is None:
        return RESIDUAL_RTOL
    try:
        val = float(raw)
    except ValueError:
        raise SystemExit(f"KBWAVE_TOL must be a float, got {raw!r}")
    if val <= 0:
        raise SystemExit("KBWAVE_TOL must be positive")
    return val


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _load_config(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise SystemExit(f"config {args.config}: expected a JSON object")
    for key in ("params", "roots", "kind", "domain", "n", "xi0", "branch",
                "format", "out", "preset", "initial_index"):
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            cfg[key] = val
    return cfg


def _resolve_problem(cfg):
    """Return (params, roots_multiset, explicit_roots_list) from a config.

    Exactly one of params/roots must be present unless they agree; a
    mismatched pair is rejected with a reconciliation hint.
    """
    params = cfg.get("params")
    roots = cfg.get("roots")
    if params is None and roots is None:
        raise SystemExit("config error: provide --params c,d1,d2,d3 or --roots r1,...")
    p = None
    if params is not None:
        vals = params if isinstance(params, list) else _parse_list(params)
        if len(vals) != 4:
            raise SystemExit(
                f"config error: --params needs 4 values c,d1,d2,d3; got {len(vals)}"
            )
        p = Params(*[float(v) for v in vals])
    root_list = None
    if roots is not None:
        root_list = roots if isinstance(roots, list) else _parse_list(roots)
        if not 2 <= len(root_list) <= 4:
            raise SystemExit("config error: --roots needs 2 to 4 values")
    if p is not None and root_list is not None and len(root_list) == 4:
        candidate = params_from_roots(RootMultiset.from_values(root_list)).as_floats()
        for name in ("c", "d1", "d2", "d3"):
            got, want = getattr(candidate, name), getattr(p, name)
            if abs(got - want) > 1e-9 * max(1.0, abs(want)):
                raise SystemExit(
                    "config error: params and roots disagree "
                    f"({name}: roots give {got!r}, params say {want!r}); "
                    "drop one of them or fix the values"
                )
    if p is None:
        if len(root_list) != 4:
            raise SystemExit(
                "config error: params can only be derived from exactly 4 roots"
            )
        p = params_from_roots(RootMultiset.from_values(root_list)).as_floats()
    return p, root_list


# ---------------------------------------------------------------------------
# solution construction
# ---------------------------------------------------------------------------


def _construct(cfg):
    """Build the requested solution; returns (solution, params) or raises."""
    if cfg.get("preset"):
        sol, params = build_preset(cfg["preset"], xi0=float(cfg.get("xi0", 0.0)))
        return sol, params
    kind = cfg.get("kind") or "auto"
    xi0 = float(cfg.get("xi0", 0.0))
    branch = cfg.get("branch") or "upper"
    if kind == "auto":
        params, _ = _resolve_problem(cfg)
        return _construct_auto(params, xi0, branch), params
    roots = cfg.get("roots")
    root_list = None
    if roots is not None:
        root_list = roots if isinstance(roots, list) else _parse_list(roots)
    if kind in ("case1-cn", "case1-dn", "case2-sn", "case2-cn", "case2-dn",
                "case2-inv-sn", "case2-inv-cn"):
        if root_list is None or len(root_list) != 3:
            raise SystemExit(f"config error: kind {kind} needs --roots f1,f2,f3")
        f1, f2, f3 = root_list
        if kind.startswith("case1"):
            sol = case1(kind.split("-")[1], f1, f2, f3,
                        sign="+" if branch == "upper" else "-", xi0=xi0)
        else:
            sol = case2(kind[len("case2-"):].replace("-", "_"), f1, f2, f3, xi0=xi0)
            if isinstance(sol, Infeasible):
                raise SystemExit(
                    f"infeasible: {sol.reason}\nfeasible kinds for these roots: "
                    + ", ".join(_feasible_case2_kinds(f1, f2, f3))
                )
        return sol, sol.params
    if kind == "general-sn2":
        if root_list is None or len(root_list) != 4:
            raise SystemExit("config error: general-sn2 needs --roots f1,f2,f3,f4")
        sol = general_sn2(root_list, initial_index=int(cfg.get("initial_index", 1)),
                          xi0=xi0)
        return sol, sol.params
    if kind == "solitary_double":
        if root_list is None or len(root_list) != 3:
            raise SystemExit("config error: solitary_double needs --roots lo,dbl,hi")
        sol = solitary_double(*root_list, branch=branch, xi0=xi0)
        return sol, sol.params
    if kind == "periodic_trig":
        if root_list is None or len(root_list) != 3:
            raise SystemExit("config error: periodic_trig needs --roots s1,s2,dbl")
        sol = periodic_trig(*root_list, sign="lower" if branch == "lower" else "upper",
                            xi0=xi0)
        return sol, sol.params
    if kind == "solitary_triple":
        if root_list is None or len(root_list) != 2:
            raise SystemExit("config error: solitary_triple needs --roots triple,simple")
        sol = solitary_triple(*root_list, xi0=xi0)
        return sol, sol.params
    raise SystemExit(f"config error: unknown kind {kind!r}")


def _feasible_case2_kinds(f1, f2, f3):
    out = []
    for k in ("sn", "cn", "dn", "inv_sn", "inv_cn"):
        try:
            if not isinstance(case2(k, f1, f2, f3), Infeasible):
                out.append(f"case2-{k.replace('_', '-')}")
        except KBWaveError:
            pass
    return out or ["(none)"]


def _construct_auto(params: Params, xi0: float, branch: str):
    rm = roots_of_F(params)
    tag = classify(rm)
    verdict = existence(tag)
    if verdict == "none":
        raise SystemExit(
            f"case {tag.value} admits no non-constant solution; nothing to solve"
        )
    entries = rm.entries
    if tag is CaseTag.DOUBLE_BETWEEN_SIMPLES:
        (lo, _), (dbl, _), (hi, _) = entries
        return solitary_double(lo, dbl, hi, branch=branch, xi0=xi0)
    if tag in (CaseTag.DOUBLE_BELOW_SIMPLES, CaseTag.DOUBLE_ABOVE_SIMPLES):
        dbl = next(v for v, m in entries if m == 2)
        s1, s2 = [v for v, m in entries if m == 1]
        return periodic_trig(s1, s2, dbl, sign="lower", xi0=xi0)
    if tag in (CaseTag.TRIPLE_WITH_SIMPLE_ABOVE, CaseTag.TRIPLE_WITH_SIMPLE_BELOW):
        tr = next(v for v, m in entries if m == 3)
        simple = next(v for v, m in entries if m == 1)
        return solitary_triple(tr, simple, xi0=xi0)
    if tag is CaseTag.FOUR_SIMPLE:
        return general_sn2([v for v, _ in entries], initial_index=1, xi0=xi0)
    # TwoSimpleOnly: a bounded periodic orbit exists (oracle-verified), but
    # no closed form in the implemented families covers it
    raise SystemExit(
        "case TwoSimpleOnly: periodic orbit exists but has no closed form here; "
        "use the 'oracle' verb to integrate it numerically"
    )


# ---------------------------------------------------------------------------
# output assembly
# ---------------------------------------------------------------------------


def _profile_csv(profile) -> str:
    lines = [CSV_HEADER]
    fp = profile.f_prime if profile.f_prime is not None else np.full_like(profile.f, np.nan)
    g = profile.g if profile.g is not None else np.full_like(profile.f, np.nan)
    for x, f, d, gg in zip(profile.xi, profile.f, fp, g):
        lines.append(f"{_fmt(x)},{_fmt(f)},{_fmt(d)},{_fmt(gg)}")
    return "\n".join(lines) + "\n"


def _sidecar(sol: ClosedFormSolution, params: Params, residual, gate, extra=None):
    pf = params.as_floats()
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": sol.kind,
        "variant": sol.variant,
        "case_tag": sol.case_tag.value,
        "branch": sol.branch,
        "speed": sol.c,
        "xi0": sol.xi0,
        "params": {"c": pf.c, "d1": pf.d1, "d2": pf.d2, "d3": pf.d3},
        "roots": [[v, m] for v, m in sol.roots.entries],
        "modulus": sol.modulus,
        "period": sol.period,
        "decay_rate": sol.decay_rate,
        "non_global": sol.non_global,
        "provenance": list(sol.notes),
        "residual": {"ode": residual, "gate": gate, "passed": bool(residual < gate)},
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _solution_domain(sol, cfg):
    if cfg.get("domain"):
        dom = cfg["domain"]
        vals = dom if isinstance(dom, list) else _parse_list(dom)
        if len(vals) != 2 or not vals[0] < vals[1]:
            raise SystemExit("config error: --domain needs a,b with a < b")
        return tuple(vals)
    T = sol.period
    if T is not None:
        return (sol.xi0, sol.xi0 + T)
    return (sol.xi0 - 10.0, sol.xi0 + 10.0)


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------


def cmd_classify(args) -> int:
    cfg = _load_config(args)
    params, root_list = _resolve_problem(cfg)
    if root_list is not None and len(root_list) == 4:
        rm = RootMultiset.from_values(root_list)
    else:
        rm = roots_of_F(params, tol=args.tol)
    tag = classify(rm)
    verdict = existence(tag)
    lines = [
        "params: c={} d1={} d2={} d3={}".format(
            _fmt(params.c), _fmt(params.d1), _fmt(params.d2), _fmt(params.d3)
        ),
        "roots: " + (
            " ".join(f"{_fmt(v)} (x{m})" for v, m in rm.entries) or "(none real)"
        ),
        f"case: {tag.value}",
        f"existence: {_verdict_text(tag, verdict)}",
    ]
    if tag in (CaseTag.ONE_DOUBLE_ONLY, CaseTag.TWO_SIMPLE_ONLY):
        from .quartic import quadratic_cofactor

        vals = rm.values()
        _, _, disc = (
            quadratic_cofactor(params, vals[0])
            if tag is CaseTag.ONE_DOUBLE_ONLY
            else quadratic_cofactor(params, vals[0], vals[1])
        )
        lines.append(
            f"cofactor: complex-pair quadratic, discriminant {_fmt(disc)}"
        )
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


def _verdict_text(tag: CaseTag, verdict: str) -> str:
    if verdict == "none":
        return "no non-constant real solution"
    if verdict == "solitary":
        if tag is CaseTag.DOUBLE_BETWEEN_SIMPLES:
            return "solitary: two solitary branches (upper and lower)"
        return "solitary: algebraically decaying pulse"
    return "periodic: bounded orbit between adjacent simple zeros"


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    sol, params = _construct(cfg)
    n = int(cfg.get("n", 2001))
    if n < 2:
        raise SystemExit("config error: sample count n must be >= 2")
    domain = _solution_domain(sol, cfg)
    profile = build_profile(sol, params, domain, n)
    res = ode_residual(sol, params, domain=domain, n=n)
    gate = residual_tolerance() * sol.roots.scale() ** 4
    out = cfg.get("out")
    fmt = cfg.get("format", "csv")
    if fmt == "json":
        rows = [
            {"xi": x, "f": f, "f_prime": d, "g": g}
            for x, f, d, g in zip(profile.xi, profile.f, profile.f_prime, profile.g)
        ]
        doc = json.loads(_sidecar(sol, params, res, gate))
        doc["profile"] = rows
        _emit(out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        _emit(out, _profile_csv(profile))
        if out:
            _atomic_write(os.path.splitext(out)[0] + ".json",
                          _sidecar(sol, params, res, gate))
    if not res < gate:
        print(f"residual gate FAILED: {res:.3e} >= {gate:.3e}", file=sys.stderr)
        return 2
    return 0


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    sol, params = _construct(cfg)
    domain = _solution_domain(sol, cfg)
    n = int(cfg.get("n", 2001))
    res = ode_residual(sol, params, domain=domain, n=n)
    r_u, r_v = pde_residual(sol, params, domain=domain,
                            n=min(n, 500), h_fd=args.h_fd)
    gate = residual_tolerance() * sol.roots.scale() ** 4
    doc = json.loads(_sidecar(sol, params, res, gate))
    doc["pde_residual"] = {"r_u": r_u, "r_v": r_v, "h_fd": args.h_fd,
                           "passed": bool(max(r_u, r_v) < 1e-6)}
    _emit(cfg.get("out"), json.dumps(doc, indent=2, sort_keys=True) + "\n")
    ok = res < gate and max(r_u, r_v) < 1e-6
    return 0 if ok else 2


def cmd_oracle(args) -> int:
    cfg = _load_config(args)
    params, _ = _resolve_problem(cfg)
    profile = oracle_integrate(params, args.f0, args.sign, args.length, h=args.h)
    _emit(cfg.get("out"), _profile_csv(profile))
    return 0


def cmd_evolve(args) -> int:
    cfg = _load_config(args)
    sol, params = _construct(cfg)
    L = cfg.get("L", args.L)
    if L is None:
        # a periodic wave needs a whole number of periods on the periodic grid
        T = sol.period
        L = 40.0 * math.pi if T is None else max(1, round(40.0 * math.pi / T)) * T
    L = float(L)
    n = int(cfg.get("n_grid", args.n_grid))
    state0 = evolution.state_from_callable(lambda xi: sol.profile(xi)[0], params, L, n)
    dt = args.dt if args.dt is not None else 0.5 * evolution.stability_limit(state0)
    steps = max(1, int(round(args.T / dt)))
    dt = args.T / steps
    final = evolution.evolve(state0, dt, args.T)
    pf = params.as_floats()
    exact = sol.profile(final.x - 0.5 * L - pf.c * args.T)[0]
    err = float(np.max(np.abs(final.u - exact)))
    mean_drift = abs(float(np.mean(final.u) - np.mean(state0.u)))
    base = cfg.get("out") or "evolve"
    root, ext = os.path.splitext(base)
    ext = ext or ".csv"

    def state_csv(state):
        lines = ["x,u,v"]
        for x, u, v in zip(state.x, state.u, state.v):
            lines.append(f"{_fmt(x)},{_fmt(u)},{_fmt(v)}")
        return "\n".join(lines) + "\n"

    _atomic_write(f"{root}-initial{ext}", state_csv(state0))
    _atomic_write(f"{root}-final{ext}", state_csv(final))
    summary = {
        "schema": SCHEMA_VERSION,
        "L": L, "n": n, "dt": dt, "T": args.T,
        "permanence_error": err,
        "mean_drift": mean_drift,
        "passed": bool(err < 1e-3),
    }
    _atomic_write(f"{root}-summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"permanence error {err:.3e}; mean drift {mean_drift:.3e}")
    return 0 if err < 1e-3 else 2


def cmd_reduce(args) -> int:
    stack = reduce_vanishing(args.ell)
    doc = {
        "schema": SCHEMA_VERSION,
        "ell": args.ell,
        "fields": [poly.as_strings() for poly in stack.fields],
        "P": stack.P.as_strings(),
    }
    report = conjecture_report(max(args.ell, 4))
    doc["conjecture"] = [dict(r) for r in report.rows]
    _emit(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_figures(args) -> int:
    from .solutions import discrepancy_report

    names = sorted(PRESETS) if args.preset in (None, "all") else [args.preset]
    outdir = args.out or "figures"
    _atomic_write(
        os.path.join(outdir, "DISCREPANCIES.json"),
        json.dumps({"schema": SCHEMA_VERSION, "corrections": discrepancy_report()},
                   indent=2, sort_keys=True) + "\n",
    )
    failures = 0
    for name in names:
        sol, params = build_preset(name)
        T = sol.period
        domain = (sol.xi0, sol.xi0 + T) if T is not None else (-10.0, 10.0)
        profile = build_profile(sol, params, domain, args.n)
        res = ode_residual(sol, params, domain=domain, n=args.n)
        gate = residual_tolerance() * sol.roots.scale() ** 4
        _atomic_write(os.path.join(outdir, f"{name}.csv"), _profile_csv(profile))
        _atomic_write(
            os.path.join(outdir, f"{name}.json"),
            _sidecar(sol, params, res, gate,
                     extra={"preset": name, "display": PRESETS[name].display}),
        )
        status = "ok" if res < gate else "RESIDUAL FAIL"
        print(f"{name}: {status} (residual {res:.3e})")
        if res >= gate:
            failures += 1
    return 0 if failures == 0 else 2


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_problem_args(sp, with_kind=True):
    sp.add_argument("--params", help="c,d1,d2,d3 (fractions like -7/4 accepted)")
    sp.add_argument("--roots", help="comma-separated roots (2 to 4 values)")
    sp.add_argument("--preset", choices=sorted(PRESETS), help="figure preset name")
    sp.add_argument("--config", help="JSON file mirroring the job configuration")
    if with_kind:
        sp.add_argument("--kind", choices=KIND_CHOICES, default=None)
        sp.add_argument("--initial-index", type=int, default=None,
                        help="starting root (1..4) for general-sn2")
        sp.add_argument("--branch", choices=("upper", "lower"), default=None)
        sp.add_argument("--xi0", type=float, default=None)
        sp.add_argument("--domain", help="a,b evaluation window")
        sp.add_argument("--n", type=int, default=None, help="sample count")
        sp.add_argument("--format", choices=("csv", "json"), default=None)
    sp.add_argument("--out", help="output path (stdout when omitted)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kbwave",
        description="Traveling waves of the two-component coupled KdV system",
    )
    ap.add_argument("--version", action="version", version=f"kbwave {__version__}")
    sub = ap.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("classify", help="case taxonomy of the quartic")
    _add_problem_args(sp, with_kind=False)
    sp.add_argument("--tol", type=float, default=1e-7, help="root clustering tolerance")
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("solve", help="construct and emit a closed form")
    _add_problem_args(sp)
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("verify", help="residual report for a closed form")
    _add_problem_args(sp)
    sp.add_argument("--h-fd", type=float, default=1e-3, help="finite-difference step")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("oracle", help="brute-force RK4 orbit profile")
    _add_problem_args(sp, with_kind=False)
    sp.add_argument("--f0", type=float, required=True, help="starting value")
    sp.add_argument("--sign", type=int, choices=(-1, 1), default=1)
    sp.add_argument("--length", type=float, default=20.0)
    sp.add_argument("--h", type=float, default=1e-4)
    sp.set_defaults(fn=cmd_oracle)

    sp = sub.add_parser("evolve", help="pseudo-spectral time evolution")
    _add_problem_args(sp)
    sp.add_argument("--L", type=float, default=None,
                    help="domain length (default: the whole number of periods "
                         "nearest 40 pi, or 40 pi for a pulse)")
    sp.add_argument("--n-grid", type=int, default=1024)
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--T", type=float, default=1.0)
    sp.set_defaults(fn=cmd_evolve)

    sp = sub.add_parser("reduce", help="exact hierarchy reduction")
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_reduce)

    sp = sub.add_parser("figures", help="emit the reference presets as CSV")
    sp.add_argument("--preset", default="all",
                    choices=sorted(PRESETS) + ["all"])
    sp.add_argument("--n", type=int, default=2001)
    sp.add_argument("--out", help="output directory (default ./figures)")
    sp.set_defaults(fn=cmd_figures)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit:
        raise
    except (KBWaveError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
