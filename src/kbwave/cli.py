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
writes.  Every CSV comes from one writer, ``_csv``, which converts whole
arrays at once; its text is byte for byte ``format(v, ".17g")`` of each
value, joined by commas and newlines.  ``solve``, ``verify`` and ``figures``
report the defining residual against the bound the constructors enforce,
``ClosedFormSolution.residual_bound``.  The ``--kind`` choices and the
constructor each kind calls come from the family table ``presets.KINDS``;
what ``--kind auto`` builds for each case tag comes from ``presets.AUTO``.
A run exits 0 when its gates pass and 2, with the failed gate's line, when
one fails.  A refused run raises, and ``main`` prints one ``error: <reason>``
line and exits 1 with no file written; an infeasible kind's line names the
kinds of its family that have a wave.  argparse's usage errors exit 2.
A verb runs with numpy's float errors raised, so no run prints a numpy
warning: a constructor refuses a form that overflows.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__, evolution
from .errors import InfeasibleBranch, KBWaveError
from .presets import AUTO, KINDS, PRESETS, build_preset
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


_EXCLUSIVE = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC
_TMP_TRIES = 100


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` (UTF-8, newlines as given) to ``path`` atomically: into
    a new temporary file ``.kbwave-<random hex>`` in the target directory,
    created exclusively with mode 0666 so the kernel takes the umask off as
    ``open(path, "w")`` does, then renamed over ``path``.  A name already
    taken is drawn again.  When the write or the rename fails the temporary
    file is removed and the error raised.  The process umask is neither
    read nor set, so a file another thread creates meanwhile keeps its
    mode."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    data = memoryview(text.encode("utf-8"))
    for attempt in range(_TMP_TRIES):
        tmp = os.path.join(d, ".kbwave-" + os.urandom(8).hex())
        try:
            fd = os.open(tmp, _EXCLUSIVE, 0o666)
            break
        except FileExistsError:
            if attempt == _TMP_TRIES - 1:
                raise
    try:
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
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
        raise ValueError(f"{token!r} is not a number") from None


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
            raise ValueError(f"config {args.config}: expected a JSON object")
    for key in ("params", "roots", "kind", "domain", "n", "xi0", "branch",
                "format", "out", "preset", "initial_index", "L", "n_grid"):
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            cfg[key] = val
    return cfg


def _numbers(cfg, key):
    """The numbers under ``key`` (a JSON list or a comma string), or None;
    a list's entries are read as the flags' tokens are."""
    val = cfg.get(key)
    if isinstance(val, list):
        return [_parse_number(str(v)) for v in val]
    return val if val is None else _parse_list(val)


def _whole(value, name) -> int:
    """A flag's or a config's whole number; a non-finite float is refused."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be a whole number, got {value}")
    return int(value)


def _resolve_problem(cfg):
    """Return (params, explicit_roots_list) from a config.

    Params come from --params or else from exactly four --roots; when both
    are given they must agree, and a mismatched pair is rejected with a
    reconciliation hint.
    """
    vals, root_list = _numbers(cfg, "params"), _numbers(cfg, "roots")
    if vals is None and root_list is None:
        raise ValueError("provide --params c,d1,d2,d3 or --roots r1,...")
    if vals is not None and len(vals) != 4:
        raise ValueError(f"--params needs 4 values c,d1,d2,d3; got {len(vals)}")
    if root_list is not None and not 2 <= len(root_list) <= 4:
        raise ValueError("--roots needs 2 to 4 values")
    p = None if vals is None else Params(*vals)
    if root_list is not None and len(root_list) == 4:
        derived = params_from_roots(RootMultiset.from_values(root_list)).as_floats()
        for name in ("c", "d1", "d2", "d3"):
            got, want = getattr(derived, name), getattr(p or derived, name)
            if abs(got - want) > 1e-9 * max(1.0, abs(want)):
                raise ValueError(
                    "params and roots disagree "
                    f"({name}: roots give {got!r}, params say {want!r}); "
                    "drop one of them or fix the values"
                )
        p = p or derived
    if p is None:
        raise ValueError("params can only be derived from exactly 4 roots")
    return p, root_list


# ---------------------------------------------------------------------------
# solution construction
# ---------------------------------------------------------------------------


def _construct(cfg):
    """Build the requested solution; returns (solution, params) or raises."""
    preset = cfg.get("preset")
    if preset:
        if str(preset) not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}")
        return build_preset(preset, xi0=float(cfg.get("xi0", 0.0)))
    kind = cfg.get("kind") or "auto"
    branch, xi0 = cfg.get("branch") or "upper", float(cfg.get("xi0", 0.0))
    if kind == "auto":
        params, _ = _resolve_problem(cfg)
        rm = roots_of_F(params)
        tag = classify(rm)
        verdict = existence(tag)
        if verdict == "none":
            raise ValueError(
                f"case {tag.value} admits no non-constant solution; nothing to solve"
            )
        if tag not in AUTO:
            # TwoSimpleOnly: no implemented family covers its bounded orbit
            raise ValueError(
                f"case {tag.value}: {verdict} orbit exists but has no closed form here; "
                "use the 'oracle' verb to integrate it numerically"
            )
        kind, at, fixed = AUTO[tag]
        values = rm.values()
        return KINDS[kind].build([values[i] for i in at], fixed or branch, xi0, 1), params
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    zeros = _numbers(cfg, "roots")
    if zeros is None or len(zeros) != len(KINDS[kind].zeros.split(",")):
        raise ValueError(f"kind {kind} needs --roots {KINDS[kind].zeros}")

    def build(k):
        return KINDS[k].build(zeros, branch, xi0, _whole(cfg.get("initial_index", 1),
                                                         "initial_index"))

    try:
        sol = build(kind)
    except InfeasibleBranch as err:
        family = [k for k in KINDS if k.split("-")[0] == kind.split("-")[0]]
        raise ValueError(f"infeasible: {err}; feasible kinds for these roots: "
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


# The CSV writer gives, byte for byte, the text _fmt gives each value, in
# whole-array steps.  A finite v with 1e-6 <= |v| < 1e17 has a decimal
# exponent E in [-6, 16], and its 17 significant digits are the integer
# D = round-half-even(|v| * 10**k) with k = 16 - E in [0, 22].  Dekker's
# product splits |v| * 5**k exactly into p + err (5**k is an exact double for
# k <= 22), and scaling both by 2**k is exact.  P = p * 2**k lies in
# [1e16, 1e17], so it is an even integer (1e16 > 2**53), and
# D = P + rint(err * 2**k), the ties-to-even of rint being those of D.  No
# double in the range rounds up to a power of ten, so D < 1e17 keeps E.
# Every other value (zero, inf, nan, |v| out of the range) goes through _fmt.
_E_MIN, _E_MAX = -6, 16
_POW5 = 5.0 ** np.arange(_E_MAX - _E_MIN + 1)
_POW2 = 2.0 ** np.arange(_E_MAX - _E_MIN + 1)


def _ceil_pow10(e: int) -> float:
    """The smallest double >= 10**e."""
    t = 10.0 ** e
    return t if Fraction(t) >= Fraction(10) ** e else math.nextafter(t, math.inf)


def _veltkamp(v):
    """Split doubles exactly into high and low halves of 26 bits each."""
    c = 134217729.0 * v
    hi = c - (c - v)
    return hi, v - hi


_TEN = np.array([_ceil_pow10(e) for e in range(_E_MIN, _E_MAX + 2)])
_POW5_HI, _POW5_LO = _veltkamp(_POW5)


def _word(text: str, at: int = 0) -> int:
    """The little-endian 64-bit word holding ``text`` from byte ``at``."""
    return int.from_bytes(bytes(at) + text.encode(), "little")


# Each value is laid out in a cell of six little-endian words; zero bytes are
# holes, dropped from the text at the end:
#   word 0: the sign, then "0." and up to three zeros (fixed form below 1),
#           then the leading digit at byte 6 and a hole for the point;
#   words 1-4: the other 16 digits, four a word, each followed by a hole
#           for the point;
#   word 5: the exponent ("e-05") of the scientific form, then the separator.
# _DIGITS[v * 10000 + q] is the word of the four digits of q, less the
# trailing zeros past the first v; _DIGITS[_LEAD + d] is word 0's digit d.
_CELL = 48
_Q = np.arange(10000)
_Q_SIG = 4 - sum((_Q % 10 ** t == 0).astype(int) for t in range(1, 5))  # to the last nonzero
_Q_WORD = sum((ord("0") + _Q // 10 ** (3 - t) % 10).astype(np.uint64) << np.uint64(16 * t)
              for t in range(4))
_FIRST = np.array([(1 << 16 * m) - 1 for m in range(5)], np.uint64)  # the first m digits
_DIGITS = np.concatenate([_Q_WORD & _FIRST[np.maximum(v, _Q_SIG)] for v in range(5)]
                         + [(ord("0") + np.arange(10, dtype=np.uint64)) << np.uint64(48)])
_LEAD = 50000
# Per E, as E - _E_MIN: .17g writes -4 <= E < 17 in fixed form, with at
# least the E + 1 digits before the point, and E = -6, -5 as d.ddde-0d.
_ES = range(_E_MIN, _E_MAX + 1)
_KEEP = np.array([e + 1 if e >= 0 else 1 for e in _ES])
# the digits of words 1-4 kept even when zero, times 10000
_KEEP_Q = np.clip(_KEEP - np.arange(1, 17, 4)[:, None], 0, 4) * 10000
_HEAD = np.array([_word("0." + "0" * (-e - 1), 1) if -4 <= e < 0 else 0 for e in _ES],
                 np.uint64)
_TAIL = np.array([_word(f"e{e:+03d}") if e < -4 else 0 for e in _ES], np.uint64)
# the byte of the point, which it fills when a digit follows it; fixed forms
# below 1 have theirs in the head, and byte 46 is never filled
_POINT = np.array([7 + 2 * e if e >= 0 else 46 if e >= -4 else 7 for e in _ES])
_CSV_BLOCK = 4096  # values per block: the block's arrays stay in cache


def _csv_rows(block) -> str:
    """CSV lines of a 2-D float64 block, each value as _fmt writes it."""
    rows, cols = block.shape
    x = block.ravel()
    n = x.size
    a = np.abs(x)
    exact = (a >= _TEN[0]) & (a < _TEN[-1])
    np.copyto(a, 1.0, where=~exact)  # keeps inf and nan out of the arithmetic
    # floor(b log10 2), for the binary exponent b, is E or E - 1
    e = (((a.view(np.int64) >> 52) - 1023) * 78913 >> 18) - _E_MIN
    e += a >= _TEN.take(e + 1)  # now E - _E_MIN
    k = _E_MAX - _E_MIN - e
    p = a * _POW5.take(k)
    a_hi, a_lo = _veltkamp(a)
    y_hi, y_lo = _POW5_HI.take(k), _POW5_LO.take(k)
    err = ((a_hi * y_hi - p) + a_hi * y_lo + a_lo * y_hi) + a_lo * y_lo
    scale = _POW2.take(k)
    D = (p * scale).astype(np.int64) + np.rint(err * scale).astype(np.int64)
    # D = q0 q1 q2 q3 q4: the leading digit, then four 4-digit words
    q = np.empty((5, n), np.int64)
    hi = D // 100000000
    lo = D - hi * 100000000
    head = hi // 10000
    q[0] = head // 10000
    q[1] = head - q[0] * 10000
    q[2] = hi - head * 10000
    q[3] = lo // 10000
    q[4] = lo - q[3] * 10000
    cells = np.empty((n, 6), np.dtype("<u8"))
    later = np.zeros(n, bool)  # a nonzero digit follows the word
    for j in (4, 3, 2, 1):
        # all four digits when one follows, else the zeros E keeps
        variant = np.where(later, 4 * 10000, _KEEP_Q[j - 1].take(e))
        cells[:, j] = _DIGITS.take(variant + q[j])
        later |= q[j] != 0
    cells[:, 0] = _DIGITS.take(q[0] + _LEAD) | _HEAD.take(e) | (x < 0) * np.uint64(ord("-"))
    sep = np.full(cols, _word(",", 4), np.uint64)
    sep[-1] = _word("\n", 4)
    cells[:, 5] = (_TAIL.take(e).reshape(rows, cols) | sep).ravel()
    b = cells.view(np.uint8).ravel()
    point = np.arange(0, _CELL * n, _CELL) + _POINT.take(e)
    b[point] = (b[point + 1] != 0) * ord(".")
    other = np.flatnonzero(~exact)
    if other.size:
        # at most 24 characters, written over bytes 6-39
        text = b"".join(_fmt(v).encode().ljust(34, b"\0") for v in x[other].tolist())
        b = b.reshape(n, _CELL)
        b[other, :44] = 0
        b[other, 6:40] = np.frombuffer(text, np.uint8).reshape(-1, 34)
    return b.tobytes().translate(None, b"\0").decode("ascii")


def _csv(header: str, *columns) -> str:
    """CSV text of float columns, each value exactly as _fmt writes it."""
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    step = max(1, _CSV_BLOCK // table.shape[1])
    return "".join([header, "\n", *(_csv_rows(table[r:r + step])
                                    for r in range(0, len(table), step))])


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
            raise ValueError("--domain needs a,b with a < b")
        if not math.isfinite(sol.beta * max(abs(v - sol.xi0) for v in vals)):
            raise ValueError(f"--domain {vals[0]:g},{vals[1]:g} is too wide for a wave of "
                             f"frequency {sol.beta:g}: its phase does not fit a float")
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
    n = _whole(n, "sample count n")
    if n < 2:
        raise ValueError("sample count n must be >= 2")
    return n


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    sol, params = _construct(cfg)
    n = _sample_count(cfg.get("n", 2001))
    domain = _solution_domain(sol, cfg)
    profile = build_profile(sol, params, domain, n)
    res = profile.residual(params)
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
    n = _sample_count(cfg.get("n", 2001))
    res = ode_residual(sol, params, domain=domain, n=n)
    r_u, r_v = pde_residual(sol, params, domain=domain,
                            n=min(n, 500), h_fd=args.h_fd)
    pde_ok = max(r_u, r_v) < PDE_RTOL
    doc = _sidecar(sol, params, res, pde_residual={"r_u": r_u, "r_v": r_v,
                                                   "h_fd": args.h_fd, "passed": bool(pde_ok)})
    _emit(cfg.get("out"), _json(doc))
    if not doc["residual"]["passed"]:
        print(f"residual gate FAILED: {res:.3e} >= {sol.residual_bound:.3e}", file=sys.stderr)
    elif not pde_ok:
        print(f"PDE residual gate FAILED: {max(r_u, r_v):.3e} >= {PDE_RTOL:.3e}",
              file=sys.stderr)
    return 0 if doc["residual"]["passed"] and pde_ok else 2


def cmd_oracle(args) -> int:
    cfg = _load_config(args)
    params, _ = _resolve_problem(cfg)
    profile = oracle_integrate(params, args.f0, args.sign, args.length, h=args.h)
    _emit(cfg.get("out"), _profile_csv(profile))
    return 0


def cmd_evolve(args) -> int:
    # T and dt are refused before anything is sampled, and, given dt, so is
    # a run of more than evolution.MAX_STEPS steps
    for name in ("T", "dt"):
        v = getattr(args, name)
        if v is not None and not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
        if v == 0:
            raise ValueError(f"{name} must be nonzero")
    steps = None if args.dt is None else evolution.step_count(args.T, args.dt)
    cfg = _load_config(args)
    sol, params = _construct(cfg)
    L = cfg.get("L")
    if L is None:
        # a periodic wave needs a whole number of periods on the periodic grid
        T = sol.period
        L = 40.0 * math.pi if T is None else max(1, round(40.0 * math.pi / T)) * T
    L = float(L)
    n = _whole(cfg.get("n_grid", 1024), "n_grid")
    state0 = evolution.state_from_callable(lambda xi: sol.profile(xi)[0], params, L, n)
    if steps is None:
        # by default the step is the limit evolve enforces, and step_count
        # rounds up, so T/steps is never longer
        steps = evolution.step_count(args.T, evolution.stability_limit(state0))
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
        res = profile.residual(params)
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
                    help="root clustering tolerance, in (0, 1e-2]")

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
        # numpy's float errors raise, so a constructor refuses a form that
        # leaves the floats, and no run writes values behind a warning
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return cmd(args)
    except (KBWaveError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
