"""The command-line contract, fuzzed over each verb's numeric flags.

A run in process, with warnings as errors and a fresh output directory, ends
in one of four ways:

* exit 0, every file it wrote finite;
* exit 2, with the one line of the gate it failed, its files finite;
* exit 1, with one ``error:`` line on stderr and no file written;
* a ``SystemExit`` whose message is one line, with no file written.

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

CONTRACT = settings(max_examples=150, derandomize=True, deadline=None)
GATE_LINES = ("residual gate FAILED: ", "permanence error ")


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
            try:
                code = main([*argv, "--out", os.path.join(tmp, out_name)])
            except SystemExit as refusal:
                code = refusal
        out, err = out.getvalue(), err.getvalue()
        files = sorted(os.listdir(tmp))
        if isinstance(code, SystemExit):
            message = code.code
            assert isinstance(message, str) and "\n" not in message, (argv, message)
            assert out == err == "" and files == [], (argv, out, err, files)
            return "refused"
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
        """The contract's four outcomes all occur, so none of its branches
        is vacuous."""
        P = _params(FIXTURE.split(","))
        assert run_contract(["classify", P], "out.txt") == "ok"
        assert run_contract(["solve", P, "--n", "3"], "out.csv") == "ok"
        assert run_contract(["classify", "--params=1e200,0,0,0"], "out.txt") == "error"
        assert run_contract(["solve", "--params=0,0,0,-1/8"], "out.csv") == "refused"
        assert run_contract(["evolve", "--preset", "fig-case1a", "--n-grid=16",
                             "--T=0.5", "--L=20"], "out.csv") == "gate"
