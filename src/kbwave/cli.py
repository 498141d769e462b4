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

Each option is one row of ``OPTIONS``: its flag, its parse, its choices,
its default, its help and the verbs that read it.  ``build_parser`` gives
each verb the flags of its rows, and ``_options`` gives each verb one
mapping of them: the flag when given, else the ``--config`` file's value,
else the row's default.  A config key that is no verb's option is refused.
A ``--branch`` or ``--initial-index`` that the kind built does not read is
refused too; the kind's row in ``presets.KINDS`` gives the default of each
it reads.

Each ``--params`` and ``--roots`` token is the rational it spells (``0.1``
is 1/10), so the params, and four zeros with their params, stay exact up to
``roots_of_F``, which finds the zeros of rational params with no tolerance;
an explicit ``--kind`` hands its constructor the double of each token.
``--domain`` and the other numbers are doubles.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, evolution
from .errors import InfeasibleBranch, KBWaveError
from .presets import AUTO, KINDS, PRESETS, build_preset
from .quartic import (
    CaseTag,
    Params,
    RootMultiset,
    classify,
    cofactor_discriminant,
    existence,
    params_from_roots,
    roots_of_F,
)
from .solutions import ClosedFormSolution, discrepancy_report
from .verify import build_profile, default_domain, ode_residual, oracle_integrate, pde_residual
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


# the parsers of flag tokens and config values raise ArgumentTypeError, whose
# reason argparse prints for a flag and _config_value for a config value
def _parse_float(token: str) -> float:
    """The double a token spells, as ``float`` reads it; for a fraction n/d,
    the double nearest n/d, or an infinity past the largest."""
    token = token.strip()
    try:
        if "/" not in token:
            return float(token)
        exact = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{token!r} is not a number") from None
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def _parse_number(token: str):
    """The rational a token spells, exactly: ``0.1`` is 1/10 and ``-7/4`` is
    -7/4.  Where its double is infinite or NaN (``inf``, ``nan``, ``1e400``)
    the token is that double, which the verbs refuse as not finite, and
    where its double is 0 (``-0``, ``1e-400``) it is 0, so no exponent is
    expanded that the doubles do not reach."""
    x = _parse_float(token)
    if x == 0:
        return Fraction(0)
    return Fraction(token.strip()) if math.isfinite(x) else x


def _tokens(value) -> list:
    """The tokens of a comma string, or the entries of a JSON list as tokens."""
    if isinstance(value, list):
        return [str(v) for v in value]
    return [t for t in str(value).split(",") if t.strip()]


def _numbers(value) -> list:
    """The exact numbers of a comma string or a JSON list."""
    return [_parse_number(t) for t in _tokens(value)]


def _floats(value) -> list:
    """The doubles of a comma string or a JSON list."""
    return [_parse_float(t) for t in _tokens(value)]


def _whole(value) -> int:
    """A whole number: a token ``int`` takes, or a number with no fraction."""
    try:
        if isinstance(value, float) and not value.is_integer():
            raise ValueError
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a whole number") from None


def _path(value) -> str | None:
    """A path; an empty one is no path, so the verb's default applies."""
    return str(value) or None


# ---------------------------------------------------------------------------
# options
# ---------------------------------------------------------------------------


class Option(NamedTuple):
    """One option of the verbs in ``verbs``: the flag ``--key`` (underscores
    as dashes), and the key ``key`` of a ``--config`` file.  ``parse`` reads
    a flag's token and a config's value alike; ``default`` is the value when
    neither gives one, and None when there is none."""

    key: str
    parse: Callable
    default: object
    help: str
    verbs: tuple
    choices: tuple | None = None
    required: bool = False

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


VERBS = {
    "classify": "case taxonomy of the quartic",
    "solve": "construct and emit a closed form",
    "verify": "residual report for a closed form",
    "oracle": "brute-force RK4 orbit profile",
    "evolve": "pseudo-spectral time evolution",
    "reduce": "exact hierarchy reduction",
    "figures": "emit the reference presets as CSV",
}
_PROBLEM = ("classify", "solve", "verify", "oracle", "evolve")
_WAVE = ("solve", "verify", "evolve")

OPTIONS = (
    Option("params", _numbers, None,
           "c,d1,d2,d3, each read exactly (0.1 is 1/10; fractions like -7/4 accepted)",
           _PROBLEM),
    Option("roots", _numbers, None,
           "comma-separated zeros: the ones --kind takes, as floats, or four that give "
           "the params, read exactly", _PROBLEM),
    Option("preset", str, None, "figure preset name", _WAVE, choices=tuple(sorted(PRESETS))),
    Option("config", str, None,
           "JSON object setting any other option of this verb; flags win", _PROBLEM),
    Option("kind", str, "auto", "family to build; auto takes it from the params' case", _WAVE,
           choices=("auto", *KINDS)),
    Option("initial_index", _whole, None, "starting root (1..4) for general-sn2 (default 1)",
           _WAVE),
    Option("branch", str, None, "band of a two-branch family (default upper)", _WAVE,
           choices=("upper", "lower")),
    Option("xi0", float, 0.0, "reference point of the wave", _WAVE),
    Option("domain", _floats, None,
           "a,b evaluation window (default: the wave's window from xi0: one period, or "
           "-+ 10/max(1, |beta|) for a pulse of frequency beta)", ("solve", "verify")),
    Option("n", _whole, 2001, "sample count", ("solve", "verify", "figures")),
    Option("out", _path, None, "output path (stdout when omitted)",
           ("classify", "solve", "verify", "oracle", "reduce")),
    Option("out", _path, "evolve.csv",
           "output path, whose stem takes -initial, -final and -summary", ("evolve",)),
    Option("out", _path, "figures", "output directory", ("figures",)),
    Option("preset", str, "all", "preset to emit", ("figures",),
           choices=(*sorted(PRESETS), "all")),
    Option("f0", float, None, "starting value", ("oracle",), required=True),
    Option("sign", _whole, 1, "sign of the starting slope", ("oracle",), choices=(-1, 1)),
    Option("length", float, 20.0, "span of xi integrated", ("oracle",)),
    Option("h", float, 1e-4, "integration step", ("oracle",)),
    Option("L", float, None,
           "domain length (default: the whole number of periods nearest 40 pi, "
           "or 40 pi for a pulse)", ("evolve",)),
    Option("n_grid", _whole, 1024, "grid points", ("evolve",)),
    Option("dt", float, None,
           "largest time step; the run takes ceil(|T|/|dt|) equal steps "
           "(default: the grid's stability limit)", ("evolve",)),
    Option("T", float, 1.0, "time span", ("evolve",)),
    Option("ell", _whole, None, "hierarchy level, from 2", ("reduce",), required=True),
)
VERB_OPTIONS = {verb: tuple(o for o in OPTIONS if verb in o.verbs) for verb in VERBS}
# the keys a config may hold: a key only other verbs read is ignored
_CONFIG_KEYS = frozenset(o.key for o in OPTIONS) - {"config"}
# the options a preset fixes, refused next to it
_PRESET_FIXES = ("kind", "roots", "params", "branch", "initial_index")


def _read_config(path) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"config {path}: expected a JSON object")
    for key in doc:
        if key not in _CONFIG_KEYS:
            raise ValueError(f"config {path}: no verb takes {key!r} from a config")
    return doc


def _config_value(option, value):
    try:
        value = option.parse(value)
    except (argparse.ArgumentTypeError, TypeError, ValueError, OverflowError) as err:
        raise ValueError(f"config {option.key}: {err}") from None
    if option.choices is not None and value not in option.choices:
        raise ValueError(f"unknown {option.key} {value!r}")
    return value


def _options(verb, args) -> dict:
    """The options the verb reads, one value a key: the flag's when given,
    else the config's (a JSON null is none), else the table's default."""
    path = getattr(args, "config", None)
    config = _read_config(path) if path else {}
    opts, fixed = {}, []
    for o in VERB_OPTIONS[verb]:
        if o.key == "config":
            continue
        value = getattr(args, o.key)
        if value is None and config.get(o.key) is not None:
            value = _config_value(o, config[o.key])
        if value is None:
            if o.required:
                raise ValueError(f"{verb} needs {o.flag}")
            value = o.default
        elif o.key in _PRESET_FIXES:
            fixed.append(o.flag)
        opts[o.key] = value
    if fixed and opts.get("preset") is not None:
        raise ValueError(f"{', '.join(fixed)} cannot go with --preset, which fixes the wave")
    return opts


def _resolve_problem(opts):
    """Return (params, zeros), exact: the params of --params, or of four
    --roots, whose multiset, equal values merged, is then the zeros; with
    no --roots the zeros are None.  When both are given the params must be
    those of the roots, and a mismatched pair is rejected with a
    reconciliation hint."""
    vals, root_list = opts["params"], opts["roots"]
    if vals is None and root_list is None:
        raise ValueError("provide --params c,d1,d2,d3 or --roots r1,...")
    if vals is not None and len(vals) != 4:
        raise ValueError(f"--params needs 4 values c,d1,d2,d3; got {len(vals)}")
    if root_list is not None and len(root_list) != 4:
        raise ValueError("four zeros give the params: --roots needs 4 values here, "
                         f"got {len(root_list)}")
    p = None if vals is None else Params(*vals)
    if root_list is None:
        return p, None
    # a token reads as a float only where it is not finite
    if any(type(v) is float for v in root_list):
        raise ValueError(f"root values must be finite, got {tuple(map(float, root_list))}")
    # the multiset orders its zeros as doubles, so distinct zeros need distinct ones
    seen = {}
    for v in root_list:
        other = seen.setdefault(float(v), v)
        if other != v:
            raise ValueError(f"--roots {_exact_text(other)} and {_exact_text(v)} are distinct "
                             f"but round to the same double, {_fmt(v)}")
    zeros = RootMultiset(tuple((v, len(list(run)))
                               for v, run in itertools.groupby(sorted(root_list))))
    derived = params_from_roots(zeros)
    try:
        derived.as_floats()
    except OverflowError:
        raise ValueError("the params of these --roots do not fit a float") from None
    for name in ("c", "d1", "d2", "d3"):
        got, want = getattr(derived, name), getattr(p or derived, name)
        if got != want:
            raise ValueError(
                "params and roots disagree "
                f"({name}: roots give {got}, params say {want}); "
                "drop one of them or fix the values"
            )
    return derived, zeros


def _exact_text(v: Fraction) -> str:
    """An exact number as the decimal that spells it, or as n/d when none
    of at most 28 digits does."""
    d = Decimal(v.numerator) / v.denominator
    return format(d, "f") if Fraction(d) == v else str(v)


def _zeros(opts):
    """(params, zeros) of the problem: the zeros of --roots, else roots_of_F's."""
    params, zeros = _resolve_problem(opts)
    return params, roots_of_F(params) if zeros is None else zeros


# ---------------------------------------------------------------------------
# solution construction
# ---------------------------------------------------------------------------


_KIND_OPTIONS = ("branch", "initial_index")  # the options a KINDS row may read


def _construct(opts):
    """Build the requested solution; returns (solution, params) or raises.

    A --branch or --initial-index, by flag or config, that the kind built
    does not read is refused.  For --kind auto that kind is the one AUTO
    gives the case, and a branch AUTO fixes is not read."""
    if opts["preset"] is not None:
        return build_preset(opts["preset"], xi0=opts["xi0"])
    kind, xi0, fixed = opts["kind"], opts["xi0"], None
    if kind == "auto":
        params, rm = _zeros(opts)
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
        zeros = [float(values[i]) for i in at]
        source = f"--kind auto here: case {tag.value} builds {kind}"
        if fixed:
            source += f" on its {fixed} branch"
    else:
        if opts["params"] is not None:
            raise ValueError(f"--params cannot go with --kind {kind}, which takes its "
                             "zeros from --roots")
        zeros = opts["roots"]
        if zeros is None or len(zeros) != len(KINDS[kind].zeros.split(",")):
            raise ValueError(f"kind {kind} needs --roots {KINDS[kind].zeros}")
        zeros = [float(v) for v in zeros]
        params, source = None, None
    row = KINDS[kind]
    unread = [o for o in _KIND_OPTIONS
              if opts[o] is not None and (o not in row.options or o == "branch" and fixed)]
    if unread:
        if source is None:
            source = f"--kind {kind}, which does not read {'them' if unread[1:] else 'it'}"
        flags = " and ".join("--" + o.replace("_", "-") for o in unread)
        raise ValueError(f"{flags} cannot go with {source}")
    branch, index = (row.options.get(o) if opts[o] is None else opts[o] for o in _KIND_OPTIONS)
    branch = fixed or branch

    def build(k):
        return KINDS[k].build(zeros, branch, xi0, index)

    if params is not None:
        return build(kind), params
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


def _solution_domain(sol, domain):
    """The window ``domain`` (a,b), checked, or by default the wave's window
    about xi0 (``verify.default_domain``)."""
    if domain:
        if len(domain) != 2 or not domain[0] < domain[1]:
            raise ValueError("--domain needs a,b with a < b")
        if not math.isfinite(sol.beta * max(abs(v - sol.xi0) for v in domain)):
            raise ValueError(f"--domain {domain[0]:g},{domain[1]:g} is too wide for a wave of "
                             f"frequency {sol.beta:g}: its phase does not fit a float")
        return tuple(domain)
    return default_domain(sol)


# ---------------------------------------------------------------------------
# verbs: each takes the mapping _options gives
# ---------------------------------------------------------------------------


def cmd_classify(opts) -> int:
    params, rm = _zeros(opts)
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
        disc = cofactor_discriminant(params, rm)
        lines.append(f"cofactor: complex-pair quadratic, discriminant {_fmt(disc)}")
    _emit(opts["out"], "\n".join(lines) + "\n")
    return 0


def _verdict_text(tag: CaseTag, verdict: str) -> str:
    if tag is CaseTag.DOUBLE_BETWEEN_SIMPLES:
        return "solitary: two solitary branches (upper and lower)"
    return {"none": "no non-constant real solution",
            "solitary": "solitary: algebraically decaying pulse",
            "periodic": "periodic: bounded orbit between adjacent simple zeros"}[verdict]


def _sample_count(n: int) -> int:
    if n < 2:
        raise ValueError("sample count n must be >= 2")
    return n


def cmd_solve(opts) -> int:
    sol, params = _construct(opts)
    n = _sample_count(opts["n"])
    domain = _solution_domain(sol, opts["domain"])
    try:
        profile = build_profile(sol, params, domain, n)
    except ValueError:  # Profile's check: the grid is not uniform
        if opts["domain"]:
            raise
        raise ValueError(f"--xi0 {sol.xi0:g} is too far out for a uniform grid of {n} points over "
                         f"the wave's window: the doubles there are "
                         f"{np.spacing(max(map(abs, domain))):.3g} apart") from None
    res = profile.residual(params)
    gate = sol.residual_bound
    out = opts["out"]
    _emit(out, _profile_csv(profile))
    if out:
        _atomic_write(os.path.splitext(out)[0] + ".json", _json(_sidecar(sol, params, res)))
    if not res < gate:
        print(f"residual gate FAILED: {res:.3e} >= {gate:.3e}", file=sys.stderr)
        return 2
    return 0


def cmd_verify(opts) -> int:
    sol, params = _construct(opts)
    domain = _solution_domain(sol, opts["domain"])
    n = _sample_count(opts["n"])
    res = ode_residual(sol, params, domain=domain, n=n)
    r_u, r_v, h_fd = pde_residual(sol, params, domain=domain, n=min(n, 500))
    pde_ok = max(r_u, r_v) < PDE_RTOL
    doc = _sidecar(sol, params, res, pde_residual={"r_u": r_u, "r_v": r_v,
                                                   "h_fd": h_fd, "passed": bool(pde_ok)})
    _emit(opts["out"], _json(doc))
    if not doc["residual"]["passed"]:
        print(f"residual gate FAILED: {res:.3e} >= {sol.residual_bound:.3e}", file=sys.stderr)
    elif not pde_ok:
        print(f"PDE residual gate FAILED: {max(r_u, r_v):.3e} >= {PDE_RTOL:.3e}",
              file=sys.stderr)
    return 0 if doc["residual"]["passed"] and pde_ok else 2


def cmd_oracle(opts) -> int:
    params, _ = _resolve_problem(opts)
    profile = oracle_integrate(params, opts["f0"], opts["sign"], opts["length"], h=opts["h"])
    _emit(opts["out"], _profile_csv(profile))
    return 0


def cmd_evolve(opts) -> int:
    # T and dt are refused before anything is sampled, and, given dt, so is
    # a run of more than evolution.MAX_STEPS steps
    T, dt = opts["T"], opts["dt"]
    for name, v in (("T", T), ("dt", dt)):
        if v is not None and not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
        if v == 0:
            raise ValueError(f"{name} must be nonzero")
    steps = None if dt is None else evolution.step_count(T, dt)
    sol, params = _construct(opts)
    L = opts["L"]
    if L is None:
        # a periodic wave needs a whole number of periods on the periodic grid
        period = sol.period
        L = 40.0 * math.pi if period is None else max(1, round(40.0 * math.pi / period)) * period
    n = opts["n_grid"]
    # the wave at phase 0, as every check samples it: --xi0 moves no sample
    wave = sol.with_phase(0.0)
    state0 = evolution.state_from_callable(lambda xi: wave.profile(xi)[0], params, L, n)
    if steps is None:
        # by default the step is the limit evolve enforces, and step_count
        # rounds up, so T/steps is never longer
        steps = evolution.step_count(T, evolution.stability_limit(state0))
    dt = T / steps
    final = evolution.evolve(state0, dt, T)
    pf = params.as_floats()
    exact = wave.profile(final.x - 0.5 * L - pf.c * T)[0]
    err = float(np.max(np.abs(final.u - exact)))
    mean_drift = abs(float(np.mean(final.u) - np.mean(state0.u)))
    root, ext = os.path.splitext(opts["out"])
    ext = ext or ".csv"
    for name, state in (("initial", state0), ("final", final)):
        _atomic_write(f"{root}-{name}{ext}", _csv("x,u,v", state.x, state.u, state.v))
    summary = {
        "schema": SCHEMA_VERSION,
        "L": L, "n": n, "dt": dt, "T": T,
        "permanence_error": err,
        "mean_drift": mean_drift,
        "passed": bool(err < PERMANENCE_TOL),
    }
    _atomic_write(f"{root}-summary.json", _json(summary))
    print(f"permanence error {err:.3e}; mean drift {mean_drift:.3e}")
    return 0 if err < PERMANENCE_TOL else 2


def cmd_reduce(opts) -> int:
    ell = opts["ell"]
    if ell < 2:
        raise ValueError("ell must be >= 2")
    # one run of the recurrence gives the fields, P and every conjecture row
    report = conjecture_report(max(ell, 4))
    stack = report.stacks[ell - 2]
    _emit(opts["out"], _json({
        "schema": SCHEMA_VERSION,
        "ell": ell,
        "fields": [poly.as_strings() for poly in stack.fields],
        "P": stack.P.as_strings(),
        "conjecture": [dict(r) for r in report.rows],
    }))
    return 0


def cmd_figures(opts) -> int:
    n = _sample_count(opts["n"])
    names = sorted(PRESETS) if opts["preset"] == "all" else [opts["preset"]]
    outdir = opts["out"]
    _atomic_write(os.path.join(outdir, "DISCREPANCIES.json"),
                  _json({"schema": SCHEMA_VERSION, "corrections": discrepancy_report()}))
    failures = 0
    for name in names:
        sol, params = build_preset(name)
        domain = _solution_domain(sol, None)
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


def _help(option: Option) -> str:
    if option.required:
        return f"{option.help} (required)"
    return option.help if option.default is None else f"{option.help} (default {option.default})"


def build_parser() -> argparse.ArgumentParser:
    """The parser of ``OPTIONS``: each verb offers the options it reads.  A
    flag keeps argparse's default None, so ``_options`` can tell it was not
    given, and is spelled in full: an abbreviation would take the meaning
    of whichever flag it is a prefix of."""
    ap = argparse.ArgumentParser(
        prog="kbwave",
        description="Traveling waves of the two-component coupled KdV system",
    )
    ap.add_argument("--version", action="version", version=f"kbwave {__version__}")
    sub = ap.add_subparsers(dest="verb", required=True)
    for verb, text in VERBS.items():
        sp = sub.add_parser(verb, help=text, allow_abbrev=False)
        for o in VERB_OPTIONS[verb]:
            sp.add_argument(o.flag, type=o.parse, choices=o.choices, help=_help(o))
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
        opts = _options(args.verb, args)
        # numpy's float errors raise, so a constructor refuses a form that
        # leaves the floats, and no run writes values behind a warning
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return cmd(opts)
    except (KBWaveError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
