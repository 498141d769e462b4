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
writes.  ``solve``, ``verify`` and ``figures`` report the defining residual
against the bound the constructors enforce,
``ClosedFormSolution.residual_bound``.  The ``--kind`` choices, what
``--kind auto`` builds for each case tag, and the constructor each kind calls
come from the family table ``presets.KINDS``.  A kind with no real wave for
the given zeros exits with the reason and the kinds of its family that do
have one.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from fractions import Fraction

import numpy as np

from . import __version__, evolution
from .errors import InfeasibleBranch, KBWaveError
from .presets import KINDS, PRESETS, build_preset
from .quartic import (
    DEFAULT_CLUSTER_TOL,
    CaseTag,
    Params,
    RootMultiset,
    classify,
    existence,
    params_from_roots,
    quadratic_cofactor,
    roots_of_F,
)
from .solutions import ClosedFormSolution, discrepancy_report
from .verify import build_profile, ode_residual, oracle_integrate, pde_residual
from .hierarchy import conjecture_report

CSV_HEADER = "xi,f,f_prime,g"
SCHEMA_VERSION = 1

PDE_RTOL = 1e-6  # bound on the scaled coupled-system defects of pde_residual
PERMANENCE_TOL = 1e-3  # bound on max |u(T) - exact| after evolve


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
                "format", "out", "preset", "initial_index", "L", "n_grid"):
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            cfg[key] = val
    return cfg


def _numbers(cfg, key):
    """The list of numbers under ``key`` (a JSON list or a comma string), or None."""
    val = cfg.get(key)
    return val if val is None or isinstance(val, list) else _parse_list(val)


def _resolve_problem(cfg):
    """Return (params, explicit_roots_list) from a config.

    Params come from --params or else from exactly four --roots; when both
    are given they must agree, and a mismatched pair is rejected with a
    reconciliation hint.
    """
    vals, root_list = _numbers(cfg, "params"), _numbers(cfg, "roots")
    if vals is None and root_list is None:
        raise SystemExit("config error: provide --params c,d1,d2,d3 or --roots r1,...")
    if vals is not None and len(vals) != 4:
        raise SystemExit(f"config error: --params needs 4 values c,d1,d2,d3; got {len(vals)}")
    if root_list is not None and not 2 <= len(root_list) <= 4:
        raise SystemExit("config error: --roots needs 2 to 4 values")
    p = None if vals is None else Params(*[float(v) for v in vals])
    if root_list is not None and len(root_list) == 4:
        derived = params_from_roots(RootMultiset.from_values(root_list)).as_floats()
        for name in ("c", "d1", "d2", "d3"):
            got, want = getattr(derived, name), getattr(p or derived, name)
            if abs(got - want) > 1e-9 * max(1.0, abs(want)):
                raise SystemExit(
                    "config error: params and roots disagree "
                    f"({name}: roots give {got!r}, params say {want!r}); "
                    "drop one of them or fix the values"
                )
        p = p or derived
    if p is None:
        raise SystemExit("config error: params can only be derived from exactly 4 roots")
    return p, root_list


# ---------------------------------------------------------------------------
# solution construction
# ---------------------------------------------------------------------------


_MULTIPLICITY = {"dbl": 2, "triple": 3}


def _construct(cfg):
    """Build the requested solution; returns (solution, params) or raises."""
    if cfg.get("preset"):
        return build_preset(cfg["preset"], xi0=float(cfg.get("xi0", 0.0)))
    kind = cfg.get("kind") or "auto"
    branch, xi0 = cfg.get("branch") or "upper", float(cfg.get("xi0", 0.0))
    if kind == "auto":
        params, _ = _resolve_problem(cfg)
        rm = roots_of_F(params)
        tag = classify(rm)
        verdict = existence(tag)
        if verdict == "none":
            raise SystemExit(
                f"case {tag.value} admits no non-constant solution; nothing to solve"
            )
        entry = next((e for e in KINDS.values() if tag in e.auto), None)
        if entry is None:
            # TwoSimpleOnly: no implemented family covers its bounded orbit
            raise SystemExit(
                f"case {tag.value}: {verdict} orbit exists but has no closed form here; "
                "use the 'oracle' verb to integrate it numerically"
            )
        # each zero the kind takes is the lowest unused zero of its multiplicity
        left, zeros = list(rm.entries), []
        for name in entry.zeros.split(","):
            m = _MULTIPLICITY.get(name, 1)
            zeros.append(left.pop(next(i for i, e in enumerate(left) if e[1] == m))[0])
        return entry.build(zeros, entry.auto_branch or branch, xi0, 1), params
    if kind not in KINDS:
        raise SystemExit(f"config error: unknown kind {kind!r}")
    zeros = _numbers(cfg, "roots")
    if zeros is None or len(zeros) != len(KINDS[kind].zeros.split(",")):
        raise SystemExit(f"config error: kind {kind} needs --roots {KINDS[kind].zeros}")

    def build(k):
        return KINDS[k].build(zeros, branch, xi0, int(cfg.get("initial_index", 1)))

    try:
        sol = build(kind)
    except InfeasibleBranch as err:
        family = [k for k in KINDS if k.split("-")[0] == kind.split("-")[0]]
        raise SystemExit(f"infeasible: {err}\nfeasible kinds for these roots: "
                         + (", ".join(k for k in family if _feasible(build, k)) or "(none)"))
    return sol, sol.params


def _feasible(build, kind) -> bool:
    try:
        build(kind)
    except KBWaveError:
        return False
    return True


# ---------------------------------------------------------------------------
# output assembly
# ---------------------------------------------------------------------------


def _csv(header: str, *columns) -> str:
    """CSV text of float columns, each value as _fmt writes it."""
    row = ",".join(["{:.17g}"] * len(columns)).format
    values = (np.asarray(c, dtype=float).tolist() for c in columns)
    return "\n".join([header, *(row(*r) for r in zip(*values))]) + "\n"


def _profile_csv(profile) -> str:
    return _csv(CSV_HEADER, profile.xi, profile.f, profile.f_prime, profile.g)


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _sidecar(sol: ClosedFormSolution, params: Params, residual, **extra) -> dict:
    """The solution's JSON report, with the fields of ``extra`` added."""
    pf = params.as_floats()
    gate = sol.residual_bound
    return {
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
        **extra,
    }


def _solution_domain(sol, cfg):
    if cfg.get("domain"):
        vals = _numbers(cfg, "domain")
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
    lines = [
        "params: c={} d1={} d2={} d3={}".format(
            _fmt(params.c), _fmt(params.d1), _fmt(params.d2), _fmt(params.d3)
        ),
        "roots: " + (
            " ".join(f"{_fmt(v)} (x{m})" for v, m in rm.entries) or "(none real)"
        ),
        f"case: {tag.value}",
        f"existence: {_verdict_text(tag, existence(tag))}",
    ]
    if rm.total() == 2:
        # the double zero, or the two simple zeros
        _, _, disc = quadratic_cofactor(params, *rm.values())
        lines.append(f"cofactor: complex-pair quadratic, discriminant {_fmt(disc)}")
    _emit(cfg.get("out"), "\n".join(lines) + "\n")
    return 0


def _verdict_text(tag: CaseTag, verdict: str) -> str:
    if tag is CaseTag.DOUBLE_BETWEEN_SIMPLES:
        return "solitary: two solitary branches (upper and lower)"
    return {"none": "no non-constant real solution",
            "solitary": "solitary: algebraically decaying pulse",
            "periodic": "periodic: bounded orbit between adjacent simple zeros"}[verdict]


def _sample_count(n) -> int:
    n = int(n)
    if n < 2:
        raise SystemExit("config error: sample count n must be >= 2")
    return n


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    sol, params = _construct(cfg)
    n = _sample_count(cfg.get("n", 2001))
    domain = _solution_domain(sol, cfg)
    profile = build_profile(sol, params, domain, n)
    res = ode_residual(sol, params, domain=domain, n=n)
    gate = sol.residual_bound
    out = cfg.get("out")
    fmt = cfg.get("format", "csv")
    if fmt == "json":
        rows = [
            {"xi": x, "f": f, "f_prime": d, "g": g}
            for x, f, d, g in zip(profile.xi, profile.f, profile.f_prime, profile.g)
        ]
        _emit(out, _json(_sidecar(sol, params, res, profile=rows)))
    else:
        _emit(out, _profile_csv(profile))
        if out:
            _atomic_write(os.path.splitext(out)[0] + ".json",
                          _json(_sidecar(sol, params, res)))
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
    pde_ok = max(r_u, r_v) < PDE_RTOL
    doc = _sidecar(sol, params, res, pde_residual={"r_u": r_u, "r_v": r_v,
                                                   "h_fd": args.h_fd, "passed": bool(pde_ok)})
    _emit(cfg.get("out"), _json(doc))
    return 0 if doc["residual"]["passed"] and pde_ok else 2


def cmd_oracle(args) -> int:
    cfg = _load_config(args)
    params, _ = _resolve_problem(cfg)
    profile = oracle_integrate(params, args.f0, args.sign, args.length, h=args.h)
    _emit(cfg.get("out"), _profile_csv(profile))
    return 0


def cmd_evolve(args) -> int:
    for name in ("T", "dt"):
        if getattr(args, name) == 0:
            raise ValueError(f"{name} must be nonzero")
    cfg = _load_config(args)
    sol, params = _construct(cfg)
    L = cfg.get("L")
    if L is None:
        # a periodic wave needs a whole number of periods on the periodic grid
        T = sol.period
        L = 40.0 * math.pi if T is None else max(1, round(40.0 * math.pi / T)) * T
    L = float(L)
    n = int(cfg.get("n_grid", 1024))
    state0 = evolution.state_from_callable(lambda xi: sol.profile(xi)[0], params, L, n)
    dt = args.dt if args.dt is not None else evolution.stability_limit(state0)
    # round up, so the step T/steps is never longer than dt (by default the
    # limit evolve enforces)
    steps = max(1, math.ceil(abs(args.T / dt)))
    dt = args.T / steps
    final = evolution.evolve(state0, dt, args.T)
    pf = params.as_floats()
    exact = sol.profile(final.x - 0.5 * L - pf.c * args.T)[0]
    err = float(np.max(np.abs(final.u - exact)))
    mean_drift = abs(float(np.mean(final.u) - np.mean(state0.u)))
    base = cfg.get("out") or "evolve"
    root, ext = os.path.splitext(base)
    ext = ext or ".csv"
    for name, state in (("initial", state0), ("final", final)):
        _atomic_write(f"{root}-{name}{ext}", _csv("x,u,v", state.x, state.u, state.v))
    summary = {
        "schema": SCHEMA_VERSION,
        "L": L, "n": n, "dt": dt, "T": args.T,
        "permanence_error": err,
        "mean_drift": mean_drift,
        "passed": bool(err < PERMANENCE_TOL),
    }
    _atomic_write(f"{root}-summary.json", _json(summary))
    print(f"permanence error {err:.3e}; mean drift {mean_drift:.3e}")
    return 0 if err < PERMANENCE_TOL else 2


def cmd_reduce(args) -> int:
    if args.ell < 2:
        raise ValueError("ell must be >= 2")
    # one run of the recurrence gives the fields, P and every conjecture row
    report = conjecture_report(max(args.ell, 4))
    stack = report.stacks[args.ell - 2]
    _emit(args.out, _json({
        "schema": SCHEMA_VERSION,
        "ell": args.ell,
        "fields": [poly.as_strings() for poly in stack.fields],
        "P": stack.P.as_strings(),
        "conjecture": [dict(r) for r in report.rows],
    }))
    return 0


def cmd_figures(args) -> int:
    n = _sample_count(args.n)
    names = sorted(PRESETS) if args.preset in (None, "all") else [args.preset]
    outdir = args.out or "figures"
    _atomic_write(os.path.join(outdir, "DISCREPANCIES.json"),
                  _json({"schema": SCHEMA_VERSION, "corrections": discrepancy_report()}))
    failures = 0
    for name in names:
        sol, params = build_preset(name)
        domain = _solution_domain(sol, {})
        profile = build_profile(sol, params, domain, n)
        res = ode_residual(sol, params, domain=domain, n=n)
        _atomic_write(os.path.join(outdir, f"{name}.csv"), _profile_csv(profile))
        _atomic_write(os.path.join(outdir, f"{name}.json"),
                      _json(_sidecar(sol, params, res, preset=name,
                                     display=PRESETS[name].display)))
        passed = res < sol.residual_bound
        print(f"{name}: {'ok' if passed else 'RESIDUAL FAIL'} (residual {res:.3e})")
        failures += not passed
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
        sp.add_argument("--kind", choices=("auto", *KINDS), default=None)
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
    sp.add_argument("--tol", type=float, default=DEFAULT_CLUSTER_TOL,
                    help="root clustering tolerance")

    sp = sub.add_parser("solve", help="construct and emit a closed form")
    _add_problem_args(sp)

    sp = sub.add_parser("verify", help="residual report for a closed form")
    _add_problem_args(sp)
    sp.add_argument("--h-fd", type=float, default=1e-3, help="finite-difference step")

    sp = sub.add_parser("oracle", help="brute-force RK4 orbit profile")
    _add_problem_args(sp, with_kind=False)
    sp.add_argument("--f0", type=float, required=True, help="starting value")
    sp.add_argument("--sign", type=int, choices=(-1, 1), default=1)
    sp.add_argument("--length", type=float, default=20.0)
    sp.add_argument("--h", type=float, default=1e-4)

    sp = sub.add_parser("evolve", help="pseudo-spectral time evolution")
    _add_problem_args(sp)
    sp.add_argument("--L", type=float, default=None,
                    help="domain length (default: the whole number of periods "
                         "nearest 40 pi, or 40 pi for a pulse)")
    sp.add_argument("--n-grid", type=int, default=None,
                    help="grid points (default: the config's n_grid, else 1024)")
    sp.add_argument("--dt", type=float, default=None,
                    help="largest time step; the run takes ceil(|T|/|dt|) equal "
                         "steps (default: the grid's stability limit)")
    sp.add_argument("--T", type=float, default=1.0)

    sp = sub.add_parser("reduce", help="exact hierarchy reduction")
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--out")

    sp = sub.add_parser("figures", help="emit the reference presets as CSV")
    sp.add_argument("--preset", default="all",
                    choices=sorted(PRESETS) + ["all"])
    sp.add_argument("--n", type=int, default=2001)
    sp.add_argument("--out", help="output directory (default ./figures)")
    return ap


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call: building one costs
    about as much as a ``classify`` run, and parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # the verb's function is looked up per call, so wrappers installed on
    # this module see it
    cmd = globals()[f"cmd_{args.verb}"]
    try:
        return cmd(args)
    except (KBWaveError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
