"""The command-line contract, fuzzed over each verb's flags and ``--config``.

A run in process, with warnings as errors and a fresh output directory, ends
in one of three ways:

* exit 0, every file it wrote finite;
* exit 2, with the one line of the gate it failed, its files finite;
* exit 1, with one ``error:`` line on stderr and no file written.

Anything else -- a traceback, a numpy warning, a second line, a NaN in an
output, a file left by a refused run -- fails the test.  Each number is drawn
from edge values and ordinary ones.  The evolve step and oracle point limits
are lowered so that every drawn run stays short: a run past them is refused
like any other.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbwave import evolution, verify
from kbwave.cli import main
from kbwave.presets import KINDS, PRESETS
from test_cli import KIND_ROOTS

EDGES = ("0", "1", "-1", "1000", "-1000", "1e-8", "-1e-8", "1e8", "1e16", "1e100",
         "-1e100", "1e199", "1e200", "1e300", "1e-150", "1e-152", "1e-300",
         "inf", "-inf", "nan")
# half the draws are edge values, half ordinary ones; --params takes
# fractions, the float flags what float() takes
PARAM = st.sampled_from(EDGES) | st.sampled_from(("1/3", "-7/4", "2", "-7/2", "-3/2", "1/8"))
NUMBER = st.sampled_from(EDGES) | st.sampled_from(
    ("0.3333333333333333", "0.01", "0.5", "-2.9", "-1.5", "12", "40"))
FIXTURE = "2,-7/4,-7/2,-3/2"  # zeros -3, -2 (double), -1
# each of the fixture's values, or in its place a drawn one
NEAR_FIXTURE = st.tuples(*(st.just(v) | PARAM for v in FIXTURE.split(",")))
IN_BAND = st.sampled_from(EDGES) | st.sampled_from(("-3", "-2.9", "-2.5", "-2", "-1.5", "-1"))

# --roots: edge values, or zeros where most kinds have a wave
ROOT = st.sampled_from(EDGES) | st.sampled_from(("-3", "-2", "-1.5", "-1", "0.5", "1", "2", "3"))
KIND = st.sampled_from(("auto", *KINDS))
BRANCH = st.sampled_from(("upper", "lower"))
INDEX = st.sampled_from((-1, 0, 1, 2, 3, 4, 5))
SAMPLES = st.sampled_from(("1", "2", "3", "5"))

CONTRACT = settings(max_examples=150, derandomize=True, deadline=None)
GATE_LINES = ("residual gate FAILED: ", "PDE residual gate FAILED: ", "permanence error ")


def _finite_csv(text):
    _, *rows = text.splitlines()
    return all(math.isfinite(float(t)) for row in rows for t in row.split(","))


def _finite_json(text):
    def refuse(token):
        raise ValueError(token)
    try:
        json.loads(text, parse_constant=refuse)
    except ValueError:
        return False
    return True


def _finite(path):
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".csv"):
        return _finite_csv(text)
    if path.endswith(".json"):
        return _finite_json(text)
    return not {"nan", "inf", "-inf"} & set(text.split())


def run_contract(argv, out_name):
    """Run ``kbwave argv --out <fresh dir>/out_name`` and assert the contract."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--out", os.path.join(tmp, out_name)])
        out, err = out.getvalue(), err.getvalue()
        files = sorted(os.listdir(tmp))
        if code == 1:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (
                argv, out, err)
            assert files == [], (argv, files)
            return "error"
        assert code in (0, 2), (argv, code)
        lines = (out + err).splitlines()
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith(GATE_LINES), (argv, out, err)
        else:
            assert err == "", (argv, err)
        assert files and all(_finite(os.path.join(tmp, f)) for f in files), (argv, files)
        return "gate" if code == 2 else "ok"


def _params(values):
    return "--params=" + ",".join(values)


def _problem_flags(draw):
    """--kind and the flags solve and verify share, each drawn or left out.
    --roots are, three times in four, the kind's own zeros, each kept (two
    times in three) or replaced by a drawn one, else 2 to 4 drawn zeros."""
    kind = draw(KIND)
    if kind == "auto":
        argv = ["--kind=auto", _params(draw(st.lists(PARAM, min_size=4, max_size=4)
                                            | NEAR_FIXTURE))]
    else:
        near = st.tuples(*(st.just(v) | st.just(v) | ROOT
                           for v in KIND_ROOTS[kind][0].split(",")))
        drawn = draw(st.sampled_from((False, False, False, True)))
        zeros = draw(st.lists(ROOT, min_size=2, max_size=4) if drawn else near)
        argv = [f"--kind={kind}", "--roots=" + ",".join(zeros)]
    for flag, values in (("--branch", BRANCH), ("--initial-index", INDEX), ("--xi0", NUMBER),
                         ("--domain", st.lists(NUMBER, min_size=2, max_size=2).map(",".join))):
        value = draw(st.none() | values)
        argv += [] if value is None else [f"{flag}={value}"]
    return argv


PROBLEM = st.composite(_problem_flags)()


def _json_number(token):
    """An edge value as a JSON number: a whole one as an integer, however
    large (json writes inf and nan as Infinity and NaN, which it reads back)."""
    value = float(token)
    return int(value) if value.is_integer() else value


def _json_entries(tokens, **size):
    """A JSON list of numbers, of the tokens as strings, or of both, with now
    and then an entry no float can hold or no number at all."""
    entry = tokens.map(_json_number) | tokens | st.sampled_from((10 ** 400, None, "x"))
    return st.lists(entry, **size)


# the values of each --config key: a list as a comma string or a JSON list
FIELDS = {
    "kind": KIND | st.just("no-such-kind"),
    "preset": st.sampled_from((*PRESETS, "no-such-preset")),
    "params": st.lists(PARAM, min_size=4, max_size=4).map(",".join)
    | _json_entries(st.sampled_from(EDGES), min_size=4, max_size=4),
    "roots": st.lists(ROOT, min_size=2, max_size=4).map(",".join)
    | _json_entries(ROOT, min_size=1, max_size=5),
    "domain": st.lists(NUMBER, min_size=2, max_size=2).map(",".join)
    | _json_entries(NUMBER, min_size=1, max_size=3),
    "xi0": NUMBER.map(_json_number),
    "n": st.sampled_from((-1, 0, 1, 2, 3, "3", 2.5, "x", math.inf, math.nan)),
    "initial_index": INDEX | st.sampled_from((math.inf, math.nan, "2")),
    "branch": BRANCH | st.just("sideways"),
    "T": NUMBER.map(_json_number),
    "dt": NUMBER.map(_json_number),
    "L": NUMBER.map(_json_number),
    "n_grid": st.sampled_from((0, 1, 7, 8, 12, 16, 64, -8)) | NUMBER.map(_json_number),
    "f0": IN_BAND.map(_json_number) | NUMBER.map(_json_number),
    "sign": st.sampled_from((-1, 1, 0, 2, "1")) | NUMBER.map(_json_number),
    "length": NUMBER.map(_json_number),
    "h": NUMBER.map(_json_number),
}
# a --config object: each key one of its values
CONFIG = st.fixed_dictionaries({}, optional=FIELDS)
# a wave the verbs can build, with one to three drawn keys over it, now and
# then a key that no verb reads (verify has no step to set)
FIELD = st.sampled_from([*FIELDS, "n_gird", "h_fd"]).flatmap(
    lambda k: FIELDS.get(k, st.just(64)).map(lambda v: (k, v)))
JOB = st.builds(lambda wave, fields: {**wave, **dict(fields)},
                st.sampled_from(({"preset": "fig-case1a"}, {"params": FIXTURE})),
                st.lists(FIELD, min_size=1, max_size=3))
# flags that keep a run short, each left out when the config draws its key
SHORT = {"solve": {"n": "3"}, "verify": {"n": "3"},
         "oracle": {"f0": "-2.9", "length": "0.01"}, "evolve": {"T": "0.01", "n_grid": "16"}}


class TestContract:
    @CONTRACT
    @given(st.lists(PARAM, min_size=4, max_size=4) | NEAR_FIXTURE)
    def test_classify(self, values):
        run_contract(["classify", _params(values)], "out.txt")

    @CONTRACT
    @given(st.lists(PARAM, min_size=4, max_size=4) | NEAR_FIXTURE)
    def test_solve(self, values):
        run_contract(["solve", _params(values), "--n", "3"], "out.csv")

    @CONTRACT
    @given(PROBLEM, SAMPLES)
    def test_solve_kinds(self, flags, n):
        run_contract(["solve", *flags, f"--n={n}"], "out.csv")

    @CONTRACT
    @given(PROBLEM, SAMPLES)
    def test_verify_kinds(self, flags, n):
        run_contract(["verify", *flags, f"--n={n}"], "out.json")

    @CONTRACT
    @given(st.sampled_from(("classify", "solve", "verify", "oracle", "evolve")),
           JOB | CONFIG | st.lists(CONFIG, max_size=2))
    def test_config(self, verb, doc):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(evolution, "MAX_STEPS", 50)
            mp.setattr(verify, "MAX_ORACLE_POINTS", 2000)
            path = os.path.join(tmp, "job.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            argv = [verb, "--config", path]
            for key, token in SHORT.get(verb, {}).items():
                if not (isinstance(doc, dict) and key in doc):
                    argv.append(f"--{key.replace('_', '-')}={token}")
            run_contract(argv, "out.csv" if verb == "evolve" else "out.txt")

    @CONTRACT
    @given(f0=IN_BAND, length=NUMBER, h=NUMBER)
    def test_oracle(self, f0, length, h):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "MAX_ORACLE_POINTS", 2000)
            run_contract(["oracle", f"--params={FIXTURE}", f"--f0={f0}",
                          f"--length={length}", f"--h={h}"], "out.csv")

    @CONTRACT
    @given(T=NUMBER, dt=st.none() | NUMBER, L=st.none() | NUMBER,
           n=st.sampled_from([0, 1, 7, 8, 12, 16, 64, -8]))
    def test_evolve(self, T, dt, L, n):
        argv = ["evolve", "--preset", "fig-case1a", f"--T={T}", f"--n-grid={n}"]
        argv += [] if dt is None else [f"--dt={dt}"]
        argv += [] if L is None else [f"--L={L}"]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evolution, "MAX_STEPS", 50)
            run_contract(argv, "out.csv")

    def test_each_outcome_is_reached(self):
        """The contract's three outcomes all occur, so none of its branches
        is vacuous."""
        P = _params(FIXTURE.split(","))
        assert run_contract(["classify", P], "out.txt") == "ok"
        assert run_contract(["solve", P, "--n", "3"], "out.csv") == "ok"
        assert run_contract(["classify", "--params=1e200,0,0,0"], "out.txt") == "error"
        assert run_contract(["solve", "--params=0,0,0,-1/8"], "out.csv") == "error"
        assert run_contract(["evolve", "--preset", "fig-case1a", "--n-grid=16",
                             "--T=0.5", "--L=20"], "out.csv") == "gate"
