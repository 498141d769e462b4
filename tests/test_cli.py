"""Command-line surface: verbs, golden formats, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kbwave
from kbwave import cli, orbit, presets, verify
from kbwave.cli import main
from kbwave.quartic import Params
from kbwave.solutions import solitary_double
from kbwave.verify import oracle_integrate

S3 = math.sqrt(3.0)


def _no_umask(mask):
    raise AssertionError("os.umask called")


def run(argv, capsys=None):
    code = main(argv)
    out = capsys.readouterr().out if capsys else ""
    return code, out


def refusal(argv, capsys):
    """The message of the one ``error:`` line of a refused run, which exits 1."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err[len("error: "):-1]


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip()
        rows = [tuple(float(t) for t in line.split(",")) for line in fh if line.strip()]
    return header, rows


class TestClassify:
    def test_solitary_fixture(self, capsys):
        code, out = run(["classify", "--params", "2,-7/4,-7/2,-3/2"], capsys)
        assert code == 0
        assert "DoubleBetweenSimples" in out
        assert "two solitary branches" in out

    def test_no_real_zeros(self, capsys):
        code, out = run(["classify", "--params", "0,0,0,-1/8"], capsys)
        assert code == 0
        assert "NoRealZeros" in out
        assert "no non-constant real solution" in out

    def test_four_simple_periodic(self, capsys):
        code, out = run(["classify", "--params", "2,-25/16,-25/8,-39/32"], capsys)
        assert code == 0
        assert "FourSimple" in out
        assert "periodic" in out

    def test_roots_input(self, capsys):
        code, out = run(["classify", "--roots", "0,1,2,3"], capsys)
        assert code == 0
        assert "FourSimple" in out

    @pytest.mark.parametrize("params, case", [
        ("0,0,0,1/8", "TwoSimpleOnly"),
        ("0,-1/4,0,0", "OneDoubleOnly"),
    ])
    def test_complex_pair_cofactor(self, capsys, params, case):
        code, out = run(["classify", "--params", params], capsys)
        assert code == 0
        assert f"case: {case}" in out
        line = out.splitlines()[-1]
        assert line.startswith("cofactor: complex-pair quadratic, discriminant ")
        assert float(line.rsplit(" ", 1)[1]) == pytest.approx(-4.0, abs=1e-9)

    @pytest.mark.parametrize("shift", [0, 10 ** 6, 10 ** 9, 10 ** 12, 10 ** 15,
                                       Fraction(-7, 3) * 10 ** 12])
    @pytest.mark.parametrize("zeros, pairs, disc", [
        ([(0, 1), (1, 1)], [(Fraction(1, 2), 1)], -4),  # --params=-1/2,-5/16,5/32,0
        ([(0, 1), (1, 1)], [(3, Fraction(3, 2))], -9),
        ([(0, 2)], [(1, 1)], -4),
        ([(0, 2)], [(Fraction(1, 3), Fraction(2, 7))], -16 / 49),
    ])
    def test_cofactor_discriminant_ignores_a_shift(self, capsys, shift, zeros, pairs, disc):
        """F = -(real factors) ((f - x)^2 + y^2) with every zero shifted: the
        cofactor's discriminant -4 y^2 comes from F's shift-free integers, so
        a shift leaves it as it is (it read 0 at 1e9 and -536870912 at 1e12)."""
        zeros = [(z + shift, m) for z, m in zeros]
        pairs = [(x + shift, y) for x, y in pairs]
        _, a3, a2, a1, a0 = _minus_F(zeros, pairs)
        c = a3 / 4
        tokens = ",".join(str(v) for v in (c, c * c - a2 / 4, -a1 / 8, -a0 / 8))
        code, out = run(["classify", f"--params={tokens}"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == (f"cofactor: complex-pair quadratic, discriminant "
                                        f"{format(disc, '.17g')}")

    def test_quadruple_zero(self, capsys):
        """F = -(f - 5)^4, which numpy.roots splits about 1e-3 apart: the
        exact params give one zero of multiplicity 4."""
        code, out = run(["classify", "--params=-5,-25/2,125/2,-625/8"], capsys)
        assert code == 0
        assert "roots: 5 (x4)" in out
        assert "case: Quadruple" in out

    @pytest.mark.parametrize("params, lines", [
        # two real zeros near 5.06e11 beside a complex pair at the origin
        ("-9227754210085524680000000000/36501570957980567,96526990886447538/219439558145317523,"
         "57350387266417023000000000/13609593879717259,-683653757267252660000/6277799351634859",
         ["roots: 505608606308.12598 (x1) 505608606310.82874 (x1)", "case: TwoSimpleOnly",
          "cofactor: complex-pair quadratic, discriminant -1.3631694242808741e-17"]),
        # the zeros -3, 0, 1 and 1 + 1e-12
        ("999999999999/4000000000000,21000000000006000000000001/16000000000000000000000000,"
         "-3000000000003/8000000000000,0",
         ["roots: -3 (x1) 0 (x1) 1 (x1) 1.0000000000010001 (x1)", "case: FourSimple"]),
        # fig-case2e's params as decimals: the double zero at 1 is two simple
        # zeros, each within an ulp of mpmath's
        ("-0.3333333333333333,0.2777777777777778,-0.16666666666666666,0.041666666666666664",
         ["roots: -1 (x1) 0.33333333333333337 (x1) 0.9999999924281221 (x1) "
          "1.0000000075718778 (x1)", "case: FourSimple"]),
    ], ids=["found-65", "close-pair", "fig-case2e-decimals"])
    def test_zeros_the_eigensolve_got_wrong(self, capsys, params, lines):
        """Inputs the eigensolve refused (FOUND 65) or printed 1e-8 off
        (the close pair) get their zeros from the Sturm chain, each the
        exact zero rounded once."""
        code, out = run(["classify", f"--params={params}"], capsys)
        assert code == 0
        assert set(lines) <= set(out.splitlines())

    def test_readme_output(self, capsys):
        """The params of -(f + 3)(f + 2)^2(f + 1) give exactly -3, -2 (x2)
        and -1 (-3.0000000000000071, -1.9999999999999978 (x2) and
        -1.0000000000000016 as floats)."""
        assert run(["classify", "--params", "2,-7/4,-7/2,-3/2"], capsys) == (0, (
            "params: c=2 d1=-1.75 d2=-3.5 d3=-1.5\n"
            "roots: -3 (x1) -2 (x2) -1 (x1)\n"
            "case: DoubleBetweenSimples\n"
            "existence: solitary: two solitary branches (upper and lower)\n"))

    def test_triple_far_from_the_origin(self, capsys):
        """-(f - 1000)^3 (f - 1001), whose params are exact doubles: as
        floats it read as TwoSimpleOnly with zeros 999.916 and 1001.0006."""
        code, out = run(["classify", "--params=-4001/4,-8003999/16,500375000,-125125000000"],
                        capsys)
        assert code == 0
        assert "roots: 1000 (x3) 1001 (x1)\ncase: TripleWithSimpleAbove\n" in out

    def test_huge_zeros(self, capsys):
        """Zeros near -2.6e100 and -1.4e100 and a double at 0: the exact
        invariants need no check on F, whose bound does not fit a float."""
        code, out = run(["classify", "--params", "1e100,1e199,0,0"], capsys)
        assert code == 0
        assert ("roots: -2.6324555320336758e+100 (x1) -1.3675444679663242e+100 (x1) 0 (x2)\n"
                "case: DoubleAboveSimples\n") in out

    def test_tokens_read_exactly(self):
        """A token is the rational it spells; one whose double is 0 is 0, and
        one whose double is not finite is that double."""
        got = cli._numbers("0.1, -7/4,1e-3,-0,1e-400,1e400,-inf,2")
        assert got[:5] == [Fraction(1, 10), Fraction(-7, 4), Fraction(1, 1000), 0, 0]
        assert all(type(v) is Fraction for v in got[:5]) and got[7] == 2
        assert got[5:7] == [math.inf, -math.inf]
        assert math.isnan(cli._numbers([1, "nan"])[1])
        assert cli._numbers(["0.1", 0.1, "1/10"]) == [Fraction(1, 10)] * 3
        # a fraction past the largest double is an infinity (a traceback before)
        assert cli._numbers("-1" + "0" * 400 + "/3") == [-math.inf]
        # --domain is read as doubles, the sign of a zero kept
        assert [math.copysign(1, v) for v in cli._floats("-0,1/3")] == [-1, 1]
        assert cli._floats("1e-400,1" + "0" * 400 + "/3") == [0.0, math.inf]

    def test_roots_merge_only_when_equal(self, capsys):
        """Four --roots 1e-10 apart stay four simple zeros (they merged into
        a double within 1e-9), and equal ones merge."""
        code, out = run(["classify", "--roots", "1,1.0000000001,2,3"], capsys)
        assert code == 0
        assert "roots: 1 (x1) 1.0000000001 (x1) 2 (x1) 3 (x1)\ncase: FourSimple\n" in out
        code, out = run(["classify", "--roots", "2,1,2,1"], capsys)
        assert "params: c=-1.5 d1=-1 d2=1.5 d3=-0.5\n" in out
        assert "roots: 1 (x2) 2 (x2)\ncase: TwoDoublesOnly\n" in out

    @pytest.mark.parametrize("verb", [["classify"], ["solve", "--n", "3"]])
    def test_coefficient_beyond_float_refused(self, capsys, verb):
        """c = 1e200 puts 4 (d1 - c^2) beyond the largest float: the error
        names it and the params, each as its double (numpy's "Array must not
        contain infs or NaNs" before, then the repr of the exact params)."""
        code = main([*verb, "--params", "1e200,0,0,0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("error: coefficient 4 (d1 - c^2) of F does not fit a float: "
                                "c=1e+200, d1=0, d2=0, d3=0\n")

    def test_params_in_an_error_line_take_a_double_each(self, capsys):
        """However many digits an exact param has, the line that names the
        params writes each as its shortest double (a 341-character line
        spelled out all 201 digits of c before)."""
        from kbwave.quartic import roots_of_F

        assert len(f"error: {refusal(['classify', '--params', '1e200,0,0,0'], capsys)}\n") < 120
        for c, text in ((Fraction(-10 ** 200, 3), "-3.3333333333333334e+199"),
                        (Fraction(10 ** 400), "inf")):
            with pytest.raises(ValueError) as err:
                roots_of_F(Params(c, Fraction(1, 3), Fraction(0), Fraction(-7, 4)))
            assert str(err.value).endswith(f": c={text}, d1=0.3333333333333333, d2=0, d3=-1.75")


def _minus_F(zeros, pairs):
    """Coefficients of -F = prod (f - z)^m * prod ((f - x)^2 + y^2), highest
    degree first."""
    poly = [Fraction(1)]
    factors = [[1, -z] for z, m in zeros for _ in range(m)]
    factors += [[1, -2 * x, x * x + y * y] for x, y in pairs]
    for factor in factors:
        out = [Fraction(0)] * (len(poly) + len(factor) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        poly = out
    return poly


# each multiplicity signature, with the complex pairs that make degree 4
SIGNATURES = [((), 2), ((1, 1), 1), ((2,), 1), ((2, 2), 0), ((4,), 0), ((2, 1, 1), 0),
              ((1, 2, 1), 0), ((1, 1, 2), 0), ((3, 1), 0), ((1, 3), 0), ((1, 1, 1, 1), 0)]
CASES = ["NoRealZeros", "TwoSimpleOnly", "OneDoubleOnly", "TwoDoublesOnly", "Quadruple",
         "DoubleBelowSimples", "DoubleBetweenSimples", "DoubleAboveSimples",
         "TripleWithSimpleAbove", "TripleWithSimpleBelow", "FourSimple"]
HUNDREDTHS = st.integers(-500, 500).map(lambda k: Fraction(k, 100))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(range(len(SIGNATURES))), st.sampled_from([0, 100, 1000, 10000]),
       st.lists(HUNDREDTHS, min_size=4, max_size=4, unique=True),
       st.lists(st.tuples(HUNDREDTHS, HUNDREDTHS.filter(bool)), min_size=2, max_size=2))
def test_classify_reads_the_zeros_of_exact_params(i, shift, values, pairs):
    """Params of two-decimal zeros of each signature, shifted by up to 1e4
    and passed as exact tokens: classify prints their tag and their zeros.
    A multiple zero, and every zero of an F that has one, is rounded once;
    a zero of a square-free F is certified within an ulp.  (The doubles
    of such params got 27 tags in 400 wrong at a shift of 1e3, and 264 at
    1e4.)"""
    sig, n_pairs = SIGNATURES[i]
    zeros = list(zip(sorted(v + shift for v in values), sig))
    pairs = [(x + shift, abs(y)) for x, y in pairs[:n_pairs]]
    _, a3, a2, a1, a0 = _minus_F(zeros, pairs)
    c = a3 / 4
    tokens = ",".join(str(v) for v in (c, c * c - a2 / 4, -a1 / 8, -a0 / 8))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["classify", f"--params={tokens}"]) == 0
    lines = out.getvalue().splitlines()
    assert lines[2] == f"case: {CASES[i]}"
    printed = lines[1].split()[1:]
    if not zeros:
        assert printed == ["(none", "real)"]
        return
    assert printed[1::2] == [f"(x{m})" for m in sig]
    for (z, _), text in zip(zeros, printed[::2]):
        if max(sig) > 1:
            assert text == format(float(z), ".17g")
        else:
            assert abs(float(text) - z) <= math.ulp(float(z))


class TestSolve:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_outputs_take_the_umask_mode(self, tmp_path, monkeypatch, umask, mode):
        """Each output has the mode open(path, "w") gives, 0666 less the
        umask, which the kernel takes off: the run never calls os.umask."""
        old = os.umask(umask)
        try:
            monkeypatch.setattr(os, "umask", _no_umask)
            assert main(["solve", "--preset", "fig-case1a", "--n", "5",
                         "--out", str(tmp_path / "a.csv")]) == 0
        finally:
            monkeypatch.undo()
            os.umask(old)
        for name in ("a.csv", "a.json"):
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode
        assert sorted(os.listdir(tmp_path)) == ["a.csv", "a.json"]

    @pytest.mark.parametrize("fails", ["write", "replace"])
    def test_atomic_write_failure_leaves_no_temporary(self, tmp_path, monkeypatch, fails):
        target = tmp_path / "a.csv"
        target.write_text("before\n")

        def broken(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, fails, broken)
        with pytest.raises(OSError, match="No space left"):
            cli._atomic_write(str(target), "after\n")
        monkeypatch.undo()
        assert os.listdir(tmp_path) == ["a.csv"]
        assert target.read_text() == "before\n"

    def test_atomic_write_draws_a_taken_name_again(self, tmp_path, monkeypatch):
        taken = tmp_path / ".kbwave-0000000000000000"
        taken.write_text("someone else's\n")
        draws = iter([bytes(8), bytes([1] * 8)])
        monkeypatch.setattr(os, "urandom", lambda n: next(draws))
        cli._atomic_write(str(tmp_path / "a.csv"), "x\n")
        assert taken.read_text() == "someone else's\n"
        assert sorted(os.listdir(tmp_path)) == [taken.name, "a.csv"]
        assert (tmp_path / "a.csv").read_text() == "x\n"

    def test_preset_profile_and_sidecar(self, tmp_path):
        out = tmp_path / "c1a.csv"
        code = main(["solve", "--preset", "fig-case1a", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == "xi,f,f_prime,g"
        mid = min(rows, key=lambda r: abs(r[0]))
        assert mid[0] == 0.0
        assert mid[1] == pytest.approx(-1.0, abs=1e-12)
        sidecar = json.loads((tmp_path / "c1a.json").read_text())
        assert sidecar["schema"] == 1
        assert sidecar["kind"] == "solitary_double"
        assert sidecar["residual"]["passed"] is True
        assert sidecar["params"]["c"] == 2.0

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["solve", "--preset", "fig-case2e", "--out", str(a)]) == 0
        assert main(["solve", "--preset", "fig-case2e", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert a.read_bytes().decode().splitlines()[0] == "xi,f,f_prime,g"
        assert b"\r" not in a.read_bytes()

    def test_explicit_kind_from_roots(self, tmp_path):
        out = tmp_path / "dn.csv"
        code = main(["solve", "--kind", "case2-dn", "--roots", "1,2,3",
                     "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        f_vals = [r[1] for r in rows]
        assert min(f_vals) >= 2.0 - 1e-6 and max(f_vals) <= 3.0 + 1e-6

    def test_auto_kind_periodic(self, tmp_path):
        out = tmp_path / "auto.csv"
        code = main(["solve", "--params", "1,3/4,0,0", "--out", str(out)])
        assert code == 0

    def test_infeasible_kind_lists_alternatives(self, capsys):
        assert "feasible kinds" in refusal(["solve", "--kind", "case2-sn", "--roots", "1,2,3"],
                                           capsys)

    def test_no_solution_case_message(self, capsys):
        assert "no non-constant solution" in refusal(["solve", "--params", "0,0,0,-1/8"], capsys)

    def test_mismatched_params_and_roots_rejected(self, capsys):
        assert "disagree" in refusal(["solve", "--params", "1,0,0,0", "--roots", "0,1,2,3"],
                                     capsys)

    def test_residual_gate_is_the_constructors(self, tmp_path):
        """The sidecar reports against the bound the constructors enforce."""
        from kbwave.presets import build_preset
        from kbwave.solutions import RESIDUAL_RTOL

        for preset in ("fig-case1a", "fig-case2bc-k1"):
            out = tmp_path / f"{preset}.csv"
            assert main(["solve", "--preset", preset, "--out", str(out)]) == 0
            sidecar = json.loads((tmp_path / f"{preset}.json").read_text())
            sol = build_preset(preset)[0]
            assert sidecar["residual"]["gate"] == sol.residual_bound
            assert sol.residual_bound == RESIDUAL_RTOL * sol.roots.scale() ** 4

    def test_impossible_gate_fails_in_the_constructor(self, tmp_path, monkeypatch, capsys):
        """One bound: with an impossible RESIDUAL_RTOL a constructor that
        samples the residual, as on two close zeros, refuses the wave; a
        wave the certificate alone vouches for is built, and the CLI's
        report of the same bound fails it.  Either way the CLI cannot report
        a pass the bound refuses."""
        monkeypatch.setattr("kbwave.solutions.RESIDUAL_RTOL", 1e-30)
        assert main(["solve", "--kind", "solitary_double", "--roots=-1,0.5,0.5005",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert "defining residual gate" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()
        assert main(["solve", "--preset", "fig-case1a", "--out", str(tmp_path / "y.csv")]) == 2
        assert "residual gate FAILED" in capsys.readouterr().err
        assert main(["verify", "--preset", "fig-case1a"]) == 2
        assert capsys.readouterr().err.startswith("residual gate FAILED: ")

    def test_explicit_domain_samples(self, tmp_path):
        out = tmp_path / "win.csv"
        assert main(["solve", "--preset", "fig-case1a", "--domain=-1,1", "--n", "3",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [r[0] for r in rows] == [-1.0, 0.0, 1.0]

    def test_empty_domain_rejected(self, capsys):
        assert (refusal(["solve", "--preset", "fig-case1a", "--domain=1,1"], capsys)
                == "--domain needs a,b with a < b")

    def test_infeasible_case1_cn_lists_dn(self, capsys):
        assert "feasible kinds for these roots: case1-dn" in refusal(
            ["solve", "--kind", "case1-cn", "--roots", "1,1,3"], capsys)

    def test_constant_records_requested_branch(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["solve", "--kind", "case1-dn", "--roots", "1,1,3", "--branch", "lower",
                     "--out", str(out)]) == 0
        assert json.loads((tmp_path / "c.json").read_text())["branch"] == "lower"
        assert {row[1] for row in read_csv(out)[1]} == {1.0}


# every --kind with valid --roots, and the kind its sidecar reports
KIND_ROOTS = {
    "solitary_double": ("-3,-1,1", "solitary_double"),
    "periodic_trig": ("1,2,0", "periodic_trig"),
    "solitary_triple": ("0,1", "solitary_triple"),
    "case1-cn": ("0,1,2", "case1_cn"),
    "case1-dn": ("0,1,3", "case1_dn"),
    "case2-sn": ("-3,-1,-2", "case2_sn"),
    "case2-cn": ("-3,-2,-1.5", "case2_cn"),
    "case2-dn": ("1,2,3", "case2_dn"),
    "case2-inv-sn": ("-3,1,0.5", "case2_inv_sn"),
    "case2-inv-cn": ("-3,3,1", "case2_inv_cn"),
    "general-sn2": ("0,1,2,3", "general_sn2"),
}

# --params of each case tag with a closed form, and the kind and branch auto builds
AUTO_PARAMS = {
    "DoubleBetweenSimples": ("2,-7/4,-7/2,-3/2", "solitary_double", "upper"),
    "DoubleBelowSimples": ("-1/4,13/16,-1/8,-1/4", "periodic_trig", "lower"),
    "DoubleAboveSimples": ("-9/4,-35/16,39/8,-9/4", "periodic_trig", "lower"),
    "TripleWithSimpleAbove": ("-1/4,1/16,0,0", "solitary_triple", "upper"),
    "TripleWithSimpleBelow": ("1/4,1/16,0,0", "solitary_triple", "lower"),
    "FourSimple": ("2,-25/16,-25/8,-39/32", "general_sn2", "initial_f1"),
}


def _solve_choices():
    from kbwave.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "verb")
    return tuple(next(a for a in sub.choices["solve"]._actions if a.dest == "kind").choices)


class TestKindChoices:
    def test_choices_and_order(self):
        assert _solve_choices() == ("auto", *KIND_ROOTS)

    @pytest.mark.parametrize("kind", list(KIND_ROOTS))
    def test_each_kind(self, kind, tmp_path):
        roots, want = KIND_ROOTS[kind]
        out = tmp_path / "k.csv"
        assert main(["solve", "--kind", kind, f"--roots={roots}", "--n", "101",
                     "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "k.json").read_text())
        assert sidecar["kind"] == want
        assert sidecar["residual"]["passed"] is True

    @pytest.mark.parametrize("kind", list(KIND_ROOTS))
    def test_wrong_root_count(self, kind, capsys):
        roots = "0,1,2" if kind in ("solitary_triple", "general-sn2") else "0,1"
        assert "--roots" in refusal(["solve", "--kind", kind, "--roots", roots], capsys)

    @pytest.mark.parametrize("tag", list(AUTO_PARAMS))
    def test_auto_per_tag(self, tag, tmp_path):
        params, kind, branch = AUTO_PARAMS[tag]
        out = tmp_path / "a.csv"
        assert main(["solve", "--kind", "auto", f"--params={params}", "--n", "101",
                     "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "a.json").read_text())
        assert (sidecar["kind"], sidecar["case_tag"], sidecar["branch"]) == (kind, tag, branch)
        # auto reports the caller's params, not the constructor's rounding of them
        assert [sidecar["params"][k] for k in ("c", "d1", "d2", "d3")] == [
            float(v) for v in cli._numbers(params)]

    def test_auto_shifted_triple(self, tmp_path):
        """F = -(f - 1)^3 (f - 2): a triple zero away from 0 builds the pulse."""
        out = tmp_path / "t.csv"
        assert main(["solve", "--params=-5/4,-11/16,7/8,-1/4", "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "t.json").read_text())
        assert (sidecar["kind"], sidecar["case_tag"]) == ("solitary_triple",
                                                          "TripleWithSimpleAbove")

    def test_auto_four_simple_far_from_the_origin(self, tmp_path):
        """Zeros 1000, 1000.25, 1001 and 1001.75, whose params are exact
        doubles: as floats the zeros came out up to 2.1e-3 off, with modulus
        0.35069 and period 5.2976."""
        out = tmp_path / "w.csv"
        assert main(["solve", "--params=-4003/4,-32048003/64,64144078007/128,"
                     "-2006004875875/16", "--n", "3", "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "w.json").read_text())
        assert sidecar["roots"] == [[1000.0, 1], [1000.25, 1], [1001.0, 1], [1001.75, 1]]
        assert sidecar["modulus"] == 0.3535533905932738 == math.sqrt(1 / 8)
        assert sidecar["period"] == 5.302873212365192

    def test_auto_passes_the_initial_index_on(self, tmp_path):
        """FourSimple builds general-sn2 from the start --initial-index names."""
        from kbwave.solutions import general_sn2

        args = ["solve", "--params", "2,-25/16,-25/8,-39/32", "--n", "3"]
        rows = {}
        for index in (1, 3):
            out = tmp_path / f"{index}.csv"
            assert main([*args, "--initial-index", str(index), "--out", str(out)]) == 0
            doc = json.loads((tmp_path / f"{index}.json").read_text())
            zeros = [v for v, _ in doc["roots"]]
            assert zeros == [-3.0, -2.866025403784439, -1.1339745962155612, -1.0]
            want = general_sn2(zeros, initial_index=index)
            xi, rows[index] = np.array(read_csv(out)[1])[:, :2].T.tolist()
            assert rows[index] == want.profile(np.array(xi))[0].tolist()
        assert rows[1] != rows[3]

    def test_auto_two_simple_only(self, capsys):
        msg = refusal(["solve", "--params=-1/4,-3/16,1/8,0"], capsys)
        assert "TwoSimpleOnly" in msg
        assert "oracle" in msg

    @pytest.mark.parametrize("params", ["0,0,0,-1/8", "0,0,0,0"])
    def test_auto_no_solution(self, params, capsys):
        assert "no non-constant solution" in refusal(["solve", "--params", params], capsys)

    def test_infeasible_hint_lists_feasible_kinds(self, capsys):
        msg = refusal(["solve", "--kind", "case2-sn", "--roots", "1,2,3"], capsys)
        assert msg.startswith("infeasible: ")
        assert msg.endswith("; feasible kinds for these roots: case2-dn")

    def test_infeasible_case1_lists_feasible_kinds(self, capsys):
        """case1's infeasible exits refuse the same way as case2's."""
        msg = refusal(["solve", "--kind", "case1-cn", "--roots", "0,1,3"], capsys)
        assert msg.startswith("infeasible: ")
        assert msg.endswith("; feasible kinds for these roots: case1-dn")


class TestVerifyVerb:
    def test_report(self, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["verify", "--preset", "fig-case1a", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["residual"]["passed"] is True
        assert doc["pde_residual"]["passed"] is True
        assert doc["pde_residual"]["r_u"] < 1e-6

    def test_failed_gate_prints_its_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("kbwave.cli.PDE_RTOL", 1e-30)
        out = tmp_path / "rep.json"
        assert main(["verify", "--preset", "fig-case1a", "--n", "50", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("PDE residual gate FAILED: ") and err.count("\n") == 1
        assert json.loads(out.read_text())["pde_residual"]["passed"] is False

    # waves far from unit size: the PDE gate read 4.1e-5, 8.4e-6, 1.0e-5 and
    # 1.0e-4 with a fixed step of 1e-3
    @pytest.mark.parametrize("flags", [
        ["--kind", "solitary_triple", "--roots=100,0"],
        ["--kind", "solitary_triple", "--roots=1000,0"],
        ["--kind", "case1-cn", "--roots", "100,200,300"],
        ["--kind", "general-sn2", "--roots", "0,30,100,170"],
    ])
    def test_large_waves_pass(self, flags, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["verify", *flags, "--n", "501", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["pde_residual"]["passed"] is True

    @pytest.mark.parametrize("flags", [
        ["--preset", "fig-case2bc-k1"],
        ["--kind", "case1-cn", "--roots", "100,200,300", "--n", "120", "--domain=0,0.5"],
    ])
    def test_report_gives_the_bound_used(self, flags, tmp_path):
        """The record is pde_residual's (r_u, r_v) on the --domain, or by
        default on the wave's window, with the bound they were held to."""
        from kbwave.verify import pde_residual

        opts = cli._options("verify", cli._parser().parse_args(["verify", *flags]))
        sol, params = cli._construct(opts)
        r_u, r_v = pde_residual(sol, params, domain=opts["domain"], n=min(opts["n"], 500))
        out = tmp_path / "rep.json"
        assert main(["verify", *flags, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["pde_residual"] == {
            "r_u": r_u, "r_v": r_v, "bound": cli.PDE_RTOL, "passed": True}
        assert cli.PDE_RTOL == 1e-6 and max(r_u, r_v) <= 1e-13

    @pytest.mark.parametrize("flags", [
        # modulus 0.022 and zeros 0.026 apart near -145.7: the stencils read 2.7e-5
        ["--kind", "case1-dn",
         "--roots=-145.71648558370455,71.75467622356052,-145.69086468777877"],
        # zeros of 1e60: the stencils' fixed step 1e-3 read 1.40
        ["--kind", "solitary_triple", "--roots=1e60,0", "--n", "3"],
    ])
    def test_waves_the_stencils_refused_pass(self, flags, capsys):
        assert main(["verify", *flags]) == 0
        record = json.loads(capsys.readouterr().out)["pde_residual"]
        assert record["passed"] is True and record["r_v"] <= 1e-13

    @pytest.mark.parametrize("flags", [
        ["--preset", "fig-case1b-k05"],
        ["--preset", "fig-case2bc-k1", "--xi0", "1e3"],
        ["--kind", "periodic_trig", "--roots", "0.5,1.5,3", "--branch", "lower"],
        ["--kind", "solitary_triple", "--roots=1e60,0", "--n", "3"],
        ["--kind", "case1-dn", "--roots", "1,1,3"],  # a constant, at its rest point
    ])
    def test_orbit_record(self, flags, tmp_path):
        """The record is orbit_deviation's reading with its bound,
        ORBIT_RTOL * scale, on every wave."""
        from kbwave.verify import ORBIT_RTOL, orbit_deviation

        sol, _ = cli._construct(cli._options("verify", cli._parser().parse_args(["verify", *flags])))
        out = tmp_path / "rep.json"
        assert main(["verify", *flags, "--out", str(out)]) == 0
        record = json.loads(out.read_text())["orbit"]
        assert record == {"deviation": orbit_deviation(sol).deviation,
                          "bound": ORBIT_RTOL * sol.roots.scale(), "passed": True}
        assert record["deviation"] <= 1e-13 * sol.roots.scale()

    def test_failed_orbit_check_exits_2(self, monkeypatch, tmp_path, capsys):
        """A failed record is written, and the run exits 2 with one line."""
        from kbwave.verify import OrbitReading

        monkeypatch.setattr(verify, "orbit_deviation", lambda sol: OrbitReading(1.0, 3e-06, False))
        out = tmp_path / "rep.json"
        assert main(["verify", "--preset", "fig-case1a", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "orbit check FAILED: 1.000e+00 >= 3.000e-06\n"
        assert json.loads(out.read_text())["orbit"] == {"deviation": 1.0, "bound": 3e-06,
                                                         "passed": False}

    def test_orbit_that_cannot_be_followed_writes_nothing(self, monkeypatch, tmp_path, capsys):
        """Without its graded panels the orbit of a near-homoclinic band
        does not converge: verify refuses with one error line and no file.
        Its zeros are close, so the constructor follows the orbit first
        unless CLOSE_ZEROS is 0, as here, where verify's own call refuses.
        The line names the bound the check applies, 0.1 of ORBIT_RTOL * scale,
        as the oracle's does."""
        from kbwave import solutions

        monkeypatch.setattr(orbit, "_halvings", lambda depth: [])
        monkeypatch.setattr(solutions, "CLOSE_ZEROS", 0.0)
        out = tmp_path / "rep.json"
        argv = ["verify", "--kind", "case2-inv-sn", "--out", str(out),
                "--roots=-3.1933706513223035,3.1560461282975467,0.0006870581931064379"]
        assert refusal(argv, capsys) == (
            "case2_inv_sn: the orbit quadrature did not converge: its error moves f by up to "
            "2.321e+02, against the bound 3.193e-07")
        assert not out.exists()

    @pytest.mark.parametrize("n", ["2", "3"])
    @pytest.mark.parametrize("preset", sorted(presets.PRESETS))
    def test_few_samples_pass(self, preset, n, capsys):
        """Samples too few to show the wave's length (equal values up to
        rounding, or a pulse seen only at its peak and tails) pass."""
        assert main(["verify", "--preset", preset, "--n", n]) == 0
        assert json.loads(capsys.readouterr().out)["pde_residual"]["passed"] is True

    @pytest.mark.parametrize("preset", sorted(presets.PRESETS))
    def test_narrow_window_passes(self, preset, capsys):
        """A window 2e-3 wide about xi0 passes, with 500 samples or 2: with
        a finite-difference step of the window's length it read r_v up to 1.0."""
        sol, _ = presets.build_preset(preset)
        domain = f"--domain={sol.xi0 - 1e-3!r},{sol.xi0 + 1e-3!r}"
        for n in ("2001", "2"):
            assert main(["verify", "--preset", preset, domain, "--n", n]) == 0
            assert json.loads(capsys.readouterr().out)["pde_residual"]["passed"] is True

    @pytest.mark.parametrize("xi0", ["1e3", "1e6", "1e10", "1e14"])
    @pytest.mark.parametrize("preset", sorted(presets.PRESETS))
    def test_far_reference_point_passes(self, preset, xi0, capsys):
        """Every preset builds with its reference point far out, and verify
        passes there with the PDE and orbit records of its xi0 = 0 run, to
        the bit: the checks run on the wave's own phase.  (The PDE gate
        failed from xi0 = 1e3 for fig-case2bc-k1, and the orbit check refused
        fig-case2a at 1e10.)"""
        assert presets.build_preset(preset, float(xi0))[0].xi0 == float(xi0)
        reports = []
        for x in ("0", xi0):
            assert main(["verify", "--preset", preset, "--xi0", x]) == 0
            doc = json.loads(capsys.readouterr().out)
            reports.append((doc["pde_residual"], doc["orbit"]))
        assert reports[1][0]["passed"] is True and reports[1][1]["passed"] is True
        assert repr(reports[1]) == repr(reports[0])

    def test_step_is_no_option(self, tmp_path, capsys):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"preset": "fig-case1a", "h_fd": 1e-3}))
        assert refusal(["verify", "--config", str(cfg)], capsys) == (
            f"config {cfg}: no verb takes 'h_fd' from a config")

    def test_too_few_samples_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert refusal(["verify", "--preset", "fig-case1a", "--n", "1", "--out", str(out)],
                       capsys) == "sample count n must be >= 2"
        assert list(tmp_path.iterdir()) == []


class TestOracleVerb:
    # the bytes `oracle` writes: toward a double zero, through the turn at a
    # simple one, and three turns of a band whose other two zeros are complex
    @pytest.mark.parametrize("argv, digest", [
        (["--params", "2,-7/4,-7/2,-3/2", "--f0", "-2.9", "--length", "0.5"],
         "b66f27849240b8fba8e286b884094af165ab451bc8dd320012153ff8419ab916"),
        (["--params", "2,-7/4,-7/2,-3/2", "--f0", "-2.9", "--sign", "-1",
          "--length", "2", "--h", "1e-3"],
         "9fd9172ab22bf36c46f6a3df4b8d32e704446b1a16d0e93edd3be7f67c163922"),
        (["--params", "0,0,0,1/8", "--f0", "0", "--length", "8", "--h", "1e-3"],
         "86b60789afd7ce16e4526b05d81363aec58ded3a2661a5e9eec1d1f2b7ee4ca5"),
    ], ids=["toward-double-zero", "through-a-turn", "complex-pair"])
    def test_output_digest(self, tmp_path, argv, digest):
        out = tmp_path / "orc.csv"
        assert main(["oracle", *argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_readme_orbit_is_the_lower_pulse(self, tmp_path):
        """The README's orbit from -2.9 over 12 is solitary_double(-3, -2, -1,
        "lower") placed where it equals -2.9."""
        out = tmp_path / "orbit.csv"
        assert main(["oracle", "--params", "2,-7/4,-7/2,-3/2", "--f0", "-2.9", "--length", "12",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        xi, f = np.array(rows)[:, :2].T
        sol = solitary_double(-3, -2, -1, "lower", xi0=-math.acosh(1 / 0.9))
        assert np.max(np.abs(sol.profile(xi)[0] - f)) < 1e-14

    @pytest.mark.parametrize("argv, at, sol", [
        # one sample past the start, on the lower pulse
        (["--f0", "-2.9", "--length", "12", "--h", "12"], 12.0,
         lambda: solitary_double(-3, -2, -1, "lower", xi0=-math.acosh(1 / 0.9))),
        # from the simple zero -1 into the band [-2, -1], far past its cut-off
        (["--f0=-1", "--length", "1e100", "--h", "1e100"], 1e100,
         lambda: solitary_double(-3, -2, -1, "upper")),
    ], ids=["h-12", "h-1e100"])
    def test_coarse_h_samples_the_orbit(self, tmp_path, argv, at, sol):
        """--h is the grid's spacing: two rows, the start and the orbit's own
        value at xi = --length."""
        out = tmp_path / "orbit.csv"
        assert main(["oracle", "--params", "2,-7/4,-7/2,-3/2", *argv, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        (xi0, f0, *_), (xi1, f1, *_) = rows
        assert (xi0, xi1) == (0.0, at)
        assert abs(f1 - sol().profile(np.array([at]))[0][0]) < 1e-14

    def test_no_negative_zero_at_rest(self, capsys):
        """Where the orbit has reached its double zero in floats, f' is 0,
        not -0 (the row read 1e+100,-2,-0,-0.75)."""
        code, out = run(["oracle", "--params", "2,-7/4,-7/2,-3/2", "--f0=-1", "--length",
                         "1e100", "--h", "1e100"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "1e+100,-2,0,-0.75"
        for sign in (1, -1):
            prof = oracle_integrate(Params(2, Fraction(-7, 4), Fraction(-7, 2), Fraction(-3, 2)),
                                    -1.0, sign, 1e100, h=1e99)
            assert (prof.f_prime[1:] == 0.0).all() and not np.signbit(prof.f_prime).any()

    def test_unconverged_inverse_series_refused(self, tmp_path, capsys, monkeypatch):
        """The zeros 0, 1, 1 + 2^-20 and 3 need panels halved toward the
        edge 1; with none, the inverse series of the panel there does not
        converge in 192 terms, and the run exits 1 with one error line and
        no file.  (The quadrature's own bound, 13.6, refuses the run first
        at ORBIT_RTOL; it is set to 1e8 here to reach the series.)"""
        from kbwave import verify

        monkeypatch.setattr(orbit, "_halvings", lambda depth: [])
        monkeypatch.setattr(verify, "ORBIT_RTOL", 1e8)
        out = tmp_path / "orc.csv"
        message = refusal(["oracle", "--params=-5242881/4194304,-3298541174783/17592186044416,"
                           "3145731/8388608,0", "--f0", "0.5", "--length", "10", "--h", "1e-2",
                           "--out", str(out)], capsys)
        assert message.startswith("the orbit's inverse series did not converge: with 192 terms "
                                  "its tail moves f by up to ")
        assert message.endswith(", against the bound 3.331e-16")
        assert list(tmp_path.iterdir()) == []

    def test_unresolved_quadrature_refused(self, tmp_path, capsys):
        """Zeros +-1 beside the pair +-i/16: the quadrature's bound is above
        what the oracle may print, and the run exits 1 with one error line
        and no file."""
        out = tmp_path / "orc.csv"
        message = refusal(["oracle", "--params", "0,255/1024,0,1/2048", "--f0", "0", "--length",
                           "2", "--h", "0.5", "--out", str(out)], capsys)
        assert message.startswith("the orbit quadrature did not converge: its error moves f ")
        assert list(tmp_path.iterdir()) == []

    def test_f0_is_read_like_params(self, tmp_path):
        """--f0 takes what --params takes: 1/2 is the double nearest 1/2."""
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for f0, out in zip(("1/2", "0.5"), outs):
            assert main(["oracle", "--params=-1/2,-5/16,5/32,0", "--f0", f0, "--length", "1",
                         "--h", "0.1", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_profile_emitted(self, tmp_path):
        out = tmp_path / "orc.csv"
        code = main(["oracle", "--params", "2,-7/4,-7/2,-3/2", "--f0", "-2.9",
                     "--sign", "1", "--length", "2.0", "--h", "1e-3",
                     "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == "xi,f,f_prime,g"
        assert len(rows) == 2001

    def test_zero_length_is_the_start_row(self, tmp_path):
        out = tmp_path / "orc.csv"
        assert main(["oracle", "--params", "2,-7/4,-7/2,-3/2", "--f0", "-2.9",
                     "--length", "0", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [r[:2] for r in rows] == [(0.0, -2.9)]

    def test_negative_length_rejected(self, tmp_path, capsys):
        assert main(["oracle", "--params", "2,-7/4,-7/2,-3/2", "--f0", "-2.9",
                     "--length=-1", "--out", str(tmp_path / "orc.csv")]) == 1
        assert capsys.readouterr().err == "error: length must be >= 0, got -1.0\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value, message", [
        ("--h", "inf", "h must be finite and positive, got inf"),
        ("--h", "nan", "h must be finite and positive, got nan"),
        ("--f0", "nan", "f0 must be finite, got nan"),
        ("--length", "inf", "length must be finite, got inf"),
    ])
    def test_non_finite_input_rejected(self, tmp_path, capsys, flag, value, message):
        argv = {"--params": "2,-7/4,-7/2,-3/2", "--f0": "-2.9", "--length": "0.5",
                flag: value, "--out": str(tmp_path / "orc.csv")}
        assert main(["oracle", *(t for kv in argv.items() for t in kv)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []


class TestEvolveVerb:
    def test_quick_run(self, tmp_path):
        base = tmp_path / "evo.csv"
        code = main(["evolve", "--preset", "fig-case1a", "--n-grid", "256",
                     "--T", "0.05", "--out", str(base)])
        assert code == 0
        summary = json.loads((tmp_path / "evo-summary.json").read_text())
        assert summary["passed"] is True
        header, rows = read_csv(tmp_path / "evo-initial.csv")
        assert header == "x,u,v"
        assert len(rows) == 256

    def test_xi0_moves_no_sample(self, tmp_path):
        """evolve samples the wave at phase 0, as every check does: at --xi0
        1000 it checks the pulse, not its flat tail, and writes the same
        states and the same nonzero permanence error as at --xi0 0."""
        out = {}
        for xi0 in ("0", "1000"):
            assert main(["evolve", "--preset", "fig-case1a", "--T", "1", "--xi0", xi0,
                         "--out", str(tmp_path / f"evo{xi0}.csv")]) == 0
            summary = json.loads((tmp_path / f"evo{xi0}-summary.json").read_text())
            out[xi0] = (summary["permanence_error"],
                        (tmp_path / f"evo{xi0}-initial.csv").read_bytes(),
                        (tmp_path / f"evo{xi0}-final.csv").read_bytes())
        assert out["1000"] == out["0"]
        assert 1e-10 < out["0"][0] < 1e-8

    def test_periodic_preset_default_length(self, tmp_path):
        """Without --L a periodic wave gets the whole number of periods
        nearest 40 pi, so the periodic grid carries it without a seam."""
        from kbwave.presets import build_preset

        base = tmp_path / "evo.csv"
        code = main(["evolve", "--preset", "fig-case1b-k05", "--T", "0.05",
                     "--out", str(base)])
        assert code == 0
        summary = json.loads((tmp_path / "evo-summary.json").read_text())
        periods = summary["L"] / build_preset("fig-case1b-k05")[0].period
        assert periods == pytest.approx(round(periods), abs=1e-9)
        assert abs(summary["L"] - 40 * math.pi) <= 0.5 * summary["L"] / periods
        assert summary["permanence_error"] < 1e-8

    def test_explicit_flags_beat_config(self, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"preset": "fig-case1a", "L": 50, "n_grid": 128}))
        base = tmp_path / "evo.csv"
        code = main(["evolve", "--config", str(cfg), "--L", "60", "--n-grid", "256",
                     "--T", "0.05", "--out", str(base)])
        assert code == 0
        summary = json.loads((tmp_path / "evo-summary.json").read_text())
        assert (summary["L"], summary["n"]) == (60.0, 256)

    def test_config_fills_missing_flags(self, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"preset": "fig-case1a", "L": 50, "n_grid": 128}))
        base = tmp_path / "evo.csv"
        code = main(["evolve", "--config", str(cfg), "--T", "0.05", "--out", str(base)])
        assert code == 0
        summary = json.loads((tmp_path / "evo-summary.json").read_text())
        assert (summary["L"], summary["n"]) == (50.0, 128)

    @pytest.mark.parametrize("flags,dt", [
        (["--T=-0.05"], -0.05),  # one step: the n = 256 limit is about 0.059
        (["--T", "0.05", "--dt=-0.01"], 0.01),
    ])
    def test_step_takes_the_sign_of_T(self, tmp_path, flags, dt):
        """The run takes ceil(|T|/|dt|) steps of T/steps, whatever the signs."""
        base = tmp_path / "evo.csv"
        code = main(["evolve", "--preset", "fig-case1a", "--n-grid", "256",
                     *flags, "--out", str(base)])
        assert code == 0
        summary = json.loads((tmp_path / "evo-summary.json").read_text())
        assert summary["dt"] == pytest.approx(dt, rel=1e-12)

    @pytest.mark.parametrize("flag", ["T", "dt"])
    def test_zero_T_or_dt_rejected(self, capsys, flag):
        assert main(["evolve", "--preset", "fig-case1a", f"--{flag}", "0"]) == 1
        assert capsys.readouterr().err == f"error: {flag} must be nonzero\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("L", ["-5", "0", "inf", "nan"])
    def test_nonpositive_length_rejected(self, tmp_path, capsys, L):
        """A grid of length L <= 0, inf or nan is refused before it is
        sampled, so without a warning, and before anything is written."""
        assert main(["evolve", "--preset", "fig-case1a", f"--L={L}",
                     "--out", str(tmp_path / "evo.csv")]) == 1
        assert capsys.readouterr().err == f"error: L = {float(L)} must be finite and positive\n"
        assert list(tmp_path.iterdir()) == []


class TestReduceVerb:
    def test_ell4_exact_coefficients(self, tmp_path):
        out = tmp_path / "red.json"
        assert main(["reduce", "--ell", "4", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["P"] == {
            "f^2 c^4": "-4", "f^3 c^3": "-8", "f^4 c^2": "-6",
            "f^5 c^1": "-2", "f^6 c^0": "-1/4",
        }
        row4 = next(r for r in doc["conjecture"] if r["ell"] == 4)
        assert row4["printed_match"] is False and row4["pattern_match"] is True

    def test_ell7_verdicts(self, tmp_path):
        out = tmp_path / "red7.json"
        assert main(["reduce", "--ell", "7", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert [r["ell"] for r in doc["conjecture"]] == list(range(2, 8))
        assert len(doc["fields"]) == 7

    def test_one_run_of_the_recurrence(self, tmp_path, monkeypatch):
        """The verb's fields, P and rows come from one run: six FieldStacks
        (ell = 2..7) for --ell 7."""
        from kbwave.hierarchy import FieldStack

        built = []
        check = FieldStack.__post_init__
        monkeypatch.setattr(FieldStack, "__post_init__",
                            lambda self: built.append(self.ell) or check(self))
        assert main(["reduce", "--ell", "7", "--out", str(tmp_path / "r.json")]) == 0
        assert built == list(range(2, 8))

    def test_ell_below_two_rejected(self, capsys):
        assert main(["reduce", "--ell", "1"]) == 1
        assert capsys.readouterr().err == "error: ell must be >= 2\n"

    def test_ell_above_the_limit_rejected(self, tmp_path, capsys):
        """--ell past hierarchy.MAX_ELL is refused before the recurrence
        runs, which at 1e5 would not finish."""
        assert main(["reduce", "--ell", "100000", "--out", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err == "error: ell = 100000 is more than MAX_ELL = 120\n"
        assert list(tmp_path.iterdir()) == []

    # the bytes `reduce` writes: the fields, P and every conjecture row
    @pytest.mark.parametrize("ell, digest", [
        (7, "643d59c002cdf2080323430b31ea15765ec506eff380efbdc277dacfa9679f2e"),
        (30, "1d3622ec87a9ffa6c8e75154feb1c007b831de51670349499f1d20c3d18a87c7"),
    ])
    def test_output_digest(self, tmp_path, ell, digest):
        out = tmp_path / f"red{ell}.json"
        assert main(["reduce", "--ell", str(ell), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestFiguresVerb:
    def test_single_preset(self, tmp_path, capsys):
        outdir = tmp_path / "figs"
        code, out = run(["figures", "--preset", "fig-case2a", "--n", "801",
                         "--out", str(outdir)], capsys)
        assert code == 0
        assert "fig-case2a: ok" in out
        header, rows = read_csv(outdir / "fig-case2a.csv")
        assert header == "xi,f,f_prime,g"
        assert rows[0][0] == 0.0
        assert rows[0][1] == pytest.approx(-0.5, abs=1e-12)
        doc = json.loads((outdir / "fig-case2a.json").read_text())
        assert doc["preset"] == "fig-case2a"

    def test_too_few_samples_writes_nothing(self, tmp_path, capsys):
        outdir = tmp_path / "figs"
        assert refusal(["figures", "--n", "1", "--out", str(outdir)],
                       capsys) == "sample count n must be >= 2"
        assert not outdir.exists()


class TestConfigFile:
    def test_json_config(self, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({
            "preset": "fig-case1a", "n": 101,
            "out": str(tmp_path / "from_config.csv"),
        }))
        assert main(["solve", "--config", str(cfg)]) == 0
        header, rows = read_csv(tmp_path / "from_config.csv")
        assert len(rows) == 101

    def test_classify_config_out(self, tmp_path, capsys):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"params": "2,-7/4,-7/2,-3/2",
                                   "out": str(tmp_path / "cls.txt")}))
        code, out = run(["classify", "--config", str(cfg)], capsys)
        assert code == 0 and out == ""
        assert "case: DoubleBetweenSimples" in (tmp_path / "cls.txt").read_text()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"preset": "fig-case1a", "n": 101}))
        out = tmp_path / "o.csv"
        assert main(["solve", "--config", str(cfg), "--n", "51",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 51

    def test_missing_problem_rejected(self, capsys):
        assert refusal(["classify"], capsys) == "provide --params c,d1,d2,d3 or --roots r1,..."

    def test_list_entries_read_as_the_flags_tokens(self, tmp_path, capsys):
        """A JSON list may hold numbers or strings, fractions included; each
        gives what the same token gives on the command line."""
        _, want = run(["classify", "--params", "2,-7/4,-7/2,-3/2"], capsys)
        for params in (["2", "-1.75", "-3.5", "-1.5"], [2, "-7/4", -3.5, "-3/2"]):
            cfg = tmp_path / "job.json"
            cfg.write_text(json.dumps({"params": params}))
            assert run(["classify", "--config", str(cfg)], capsys) == (0, want)


class _Recording(dict):
    """An options mapping that records the keys read from it."""

    def __init__(self, opts):
        super().__init__(opts)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


class TestOptionTable:
    """``cli.OPTIONS`` is the command line: each verb's parser offers its
    rows, each row is read on some path of its verb, and a config sets any
    of them, an explicit flag winning."""

    P = "2,-7/4,-7/2,-3/2"
    WAVE_PATHS = (["--preset", "fig-case1a"], ["--kind", "general-sn2", "--roots", "0,1,2,3"],
                  ["--params", P])
    PATHS = {
        "classify": (["--params", P], ["--roots", "0,1,2,3"]),
        "solve": tuple([*flags, "--n", "3"] for flags in WAVE_PATHS),
        "verify": tuple([*flags, "--n", "3"] for flags in WAVE_PATHS),
        "oracle": (["--params", P, "--f0", "-2.9", "--length", "0.01"],),
        "evolve": tuple([*flags, "--n-grid", "16", "--T", "0.01"] for flags in WAVE_PATHS),
        "reduce": (["--ell", "2"],),
        "figures": (["--preset", "fig-case1a", "--n", "3"],),
    }
    # per key, a config value and a flag token, neither the default
    VALUES = {
        "params": ([2, "-7/4", -3.5, -1.5], "0,0,0,1/8"),
        "roots": ("0,1,2,3", "1,2,3"),
        "preset": ("fig-case1a", "fig-case2a"),
        "kind": ("case2-dn", "case1-dn"),
        "initial_index": (2, "3"),
        "branch": ("lower", "upper"),
        "xi0": (0.5, "1.5"),
        "domain": ([0, 1], "2,3"),
        "n": (11, "12"),
        "out": ("a.txt", "b.txt"),
        "f0": (0.5, "-2"),
        "sign": (-1, "1"),
        "length": (3, "4"),
        "h": (1e-3, "1e-2"),
        "L": (50, "60"),
        "n_grid": (128, "256"),
        "dt": (0.01, "0.02"),
        "T": (0.05, "0.5"),
    }
    SETTABLE = [(verb, o.key) for verb, rows in cli.VERB_OPTIONS.items()
                if any(o.key == "config" for o in rows) for o in rows if o.key != "config"]

    @pytest.mark.parametrize("verb", list(cli.VERBS))
    def test_parser_offers_the_verbs_rows(self, verb):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "verb")
        actions = [a for a in sub.choices[verb]._actions if a.dest != "help"]
        assert [(a.option_strings, a.dest, a.type, a.choices, a.default) for a in actions] == [
            ([o.flag], o.key, o.parse, o.choices, None) for o in cli.VERB_OPTIONS[verb]]

    @pytest.mark.parametrize("verb", list(cli.VERBS))
    def test_every_option_is_read(self, verb, tmp_path, capsys):
        read = set()
        for i, flags in enumerate(self.PATHS[verb]):
            argv = [verb, *flags, "--out", str(tmp_path / str(i) / "out.txt")]
            opts = _Recording(cli._options(verb, cli._parser().parse_args(argv)))
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                assert getattr(cli, f"cmd_{verb}")(opts) in (0, 2)
            read |= opts.read
        assert read == {o.key for o in cli.VERB_OPTIONS[verb]} - {"config"}

    @pytest.mark.parametrize("verb, key", SETTABLE)
    def test_config_sets_each_option_and_the_flag_wins(self, verb, key, tmp_path):
        option = next(o for o in cli.VERB_OPTIONS[verb] if o.key == key)
        value, token = self.VALUES[key]
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"f0": 0, key: value} if verb == "oracle" else {key: value}))

        def opts(*flags):
            return cli._options(verb, cli._parser().parse_args(
                [verb, "--config", str(path), *flags]))

        assert opts()[key] == option.parse(value) != option.default
        assert opts(option.flag, token)[key] == option.parse(token) != option.parse(value)

    @pytest.mark.parametrize("argv", [
        # the zeros are exact: there is no clustering tolerance to set
        ["classify", "--params", P, "--tol", "1e-3"],
        ["classify", "--params", P, "--preset", "fig-case1a"],
        ["oracle", "--params", P, "--f0", "0", "--preset", "fig-case1a"],
        ["verify", "--preset", "fig-case1a", "--format", "csv"],
        ["evolve", "--preset", "fig-case1a", "--domain", "0,1"],
        # not an abbreviation of --n-grid: flags are spelled in full
        ["evolve", "--preset", "fig-case1a", "--n", "64"],
        ["evolve", "--preset", "fig-case1a", "--format", "json"],
        # verify has no finite-difference step to set, and solve writes CSV
        # only
        ["verify", "--preset", "fig-case1a", "--h-fd", "1e-3"],
        ["solve", "--preset", "fig-case1a", "--format", "json"],
    ])
    def test_flags_no_verb_reads_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit:
            main(argv)
        assert exit.value.code == 2
        assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err

    @pytest.mark.parametrize("flag, token, reason", [
        ("--params", "2,x,1,1", "'x' is not a number"),
        ("--n", "2.5", "'2.5' is not a whole number"),
    ])
    def test_flag_token_that_does_not_parse_is_a_usage_error(self, capsys, flag, token, reason):
        """The row's parse reads the token, and argparse names its reason."""
        with pytest.raises(SystemExit) as exit:
            main(["solve", "--preset", "fig-case1a", flag, token])
        assert exit.value.code == 2
        assert f"argument {flag}: {reason}" in capsys.readouterr().err

    def test_config_key_of_another_verb_is_ignored(self, tmp_path, capsys):
        """One job file serves solve, verify and evolve: evolve's T is no
        option of solve, which ignores it."""
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"preset": "fig-case1a", "n": 5, "T": 0.05}))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "a.csv")]) == 0
        assert len(read_csv(tmp_path / "a.csv")[1]) == 5


def _fresh_process(probe):
    """The last line ``probe`` prints, run by a fresh interpreter on this kbwave."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(kbwave.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    return out.strip().splitlines()[-1]


# the README's command-line script, one argv per line
README_SCRIPT = (
    ["classify", "--params", "2,-7/4,-7/2,-3/2"],
    ["solve", "--preset", "fig-case1a", "--out", "case1a.csv"],
    ["solve", "--kind", "case2-dn", "--roots", "1,2,3", "--out", "dn.csv"],
    ["verify", "--preset", "fig-case2bc-k1", "--out", "report.json"],
    ["oracle", "--params", "2,-7/4,-7/2,-3/2", "--f0", "-2.9", "--length", "12",
     "--out", "orbit.csv"],
    ["evolve", "--preset", "fig-case1a", "--T", "1", "--out", "evolve.csv"],
    ["reduce", "--ell", "7", "--out", "reduction.json"],
    ["figures", "--out", "figures/"],
)


def test_readme_script_runs_without_scipy(tmp_path):
    """The runtime is numpy and the standard library: with scipy made
    unimportable, every verb of the README script exits 0."""
    probe = ("import os, sys; sys.modules['scipy'] = None; from kbwave.cli import main; "
             f"os.chdir({str(tmp_path)!r}); print([main(argv) for argv in {README_SCRIPT!r}])")
    assert _fresh_process(probe) == str([0] * len(README_SCRIPT))


EXACT_RUNS = (
    ["classify", "--params", "2,-7/4,-7/2,-3/2"],
    ["classify", "--params=-1/2,-5/16,5/32,0"],  # TwoSimpleOnly: adds the cofactor line
    ["reduce", "--ell", "7", "--out", "reduction.json"],
)


def test_exact_verbs_run_without_numpy(tmp_path, monkeypatch, capsys):
    """classify and reduce run on exact arithmetic alone: with numpy made
    unimportable they exit, print and write what they do with it."""
    for side in ("with", "without"):
        (tmp_path / side).mkdir()
    probe = f"""
import contextlib, io, json, os, sys
sys.modules["numpy"] = None
from kbwave.cli import main
os.chdir({str(tmp_path / "without")!r})
runs = []
for argv in {EXACT_RUNS!r}:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""
    without = json.loads(_fresh_process(probe))
    monkeypatch.chdir(tmp_path / "with")
    runs = []
    for argv in EXACT_RUNS:
        code = main(argv)
        runs.append([code, *capsys.readouterr()])
    assert without == runs
    assert [code for code, *_ in runs] == [0, 0, 0]
    assert "cofactor: complex-pair quadratic" in runs[1][1]
    assert ((tmp_path / "without" / "reduction.json").read_bytes()
            == (tmp_path / "with" / "reduction.json").read_bytes())


def test_verify_leaves_numpy_ma_unloaded():
    """The orbit check sorts its panel breaks without np.unique, whose first
    call imports numpy.ma (over 10 ms in a fresh process)."""
    probe = ("import sys; from kbwave.cli import main; "
             "main(['verify', '--preset', 'fig-case2bc-k1']); print('numpy.ma' in sys.modules)")
    assert _fresh_process(probe) == "False"


class TestParserReuse:
    """``main`` builds its parser once per process; consecutive calls with
    different verbs and flags must leave nothing behind in it."""

    P = "2,-7/4,-7/2,-3/2"
    ARGVS = (
        ["classify", "--roots", "0,1,2,3"],
        ["oracle", "--params", P, "--f0", "-2.9", "--sign", "-1", "--length", "0.01", "--h", "1e-3"],
        ["classify", "--params", P],
        ["oracle", "--params", P, "--f0", "-2.9", "--length", "0.01"],
        ["solve", "--preset", "fig-case1a", "--n", "5", "--xi0", "0.5"],
        ["solve", "--kind", "case2-dn", "--roots", "1,2,3", "--n", "5"],
        ["verify", "--preset", "fig-case1a", "--n", "50", "--domain=-5,5"],
        ["reduce", "--ell", "3"],
    )

    def test_parsed_arguments_match_a_fresh_parser(self):
        from kbwave.cli import _parser, build_parser

        for argv in self.ARGVS + self.ARGVS[::-1]:
            assert vars(_parser().parse_args(argv)) == vars(build_parser().parse_args(argv))

    def test_outputs_do_not_depend_on_earlier_calls(self, capsys):
        from kbwave.cli import _parser

        def outputs(argvs):
            got = {}
            for argv in argvs:
                code, out = run(argv, capsys)
                got[tuple(argv)] = (code, out)
            return got

        _parser.cache_clear()
        forward = outputs(self.ARGVS)
        backward = outputs(self.ARGVS[::-1])
        assert _parser.cache_info().misses == 1
        assert forward == backward
        assert all(code == 0 and out for code, out in forward.values())

    def test_rejected_argv_leaves_parser_usable(self, capsys):
        with pytest.raises(SystemExit):
            main(["oracle", "--params", self.P, "--f0", "-2.9", "--no-such-flag"])
        code, out = run(["classify", "--params", self.P], capsys)
        assert code == 0 and "DoubleBetweenSimples" in out


class TestRefusals:
    """Inputs a verb cannot serve exit 1 with one ``error:`` line, in process
    and with warnings as errors: no traceback, no warning, no file written.
    Each class is refused where it arises: zeros too large for the bounds
    of F's checks, an evolve run that cannot finish or a grid too fine for
    float wavenumbers, an oracle grid too large to allocate, zeros so close that
    a wave's form or frequency does not fit a float, non-finite --roots,
    --xi0 or --domain, a --domain too wide for the wave's phase, and
    --config values the flags' parsers never let through."""

    P = "2,-7/4,-7/2,-3/2"
    HUGE = "1e100,1e199,0,0"  # zeros near -2.6e100, -1.4e100 and 0 (double)
    CASES = {
        "solve-huge-zeros": (["solve", "--params", HUGE], "zeros of size 2.63246e+100"),
        "oracle-huge-zeros": (["oracle", "--params", HUGE, "--f0", "0"],
                              "zeros of size 2.63246e+100"),
        "solve-huge-roots": (["solve", "--kind", "solitary_double", "--roots=-1e100,0,1e100"],
                             "the bound 1e-08 * 1e+100^4 does not fit a float"),
        # refused before the gate samples a profile that would overflow
        "solve-huge-band": (["solve", "--kind", "periodic_trig", "--roots=1e90,2e90,0"],
                            "the bound 1e-08 * 2e+90^4 does not fit a float"),
        "evolve-T-inf": (["evolve", "--preset", "fig-case1a", "--T=inf"],
                         "T must be finite, got inf"),
        "evolve-dt-nan": (["evolve", "--preset", "fig-case1a", "--dt", "nan"],
                          "dt must be finite, got nan"),
        "evolve-tiny-dt": (["evolve", "--preset", "fig-case1a", "--T", "0.01", "--dt", "1e-300"],
                           "takes 1e+298 steps, more than MAX_STEPS = 1000000"),
        "evolve-long-T": (["evolve", "--preset", "fig-case1a", "--T", "1e9"],
                          "steps, more than MAX_STEPS = 1000000"),
        # refused before k^2 of the stability limit overflows
        "evolve-tiny-L": (["evolve", "--preset", "fig-case1a", "--L", "1e-300"],
                          "a grid of n = 1024 points on L = 1e-300 is too fine"),
        "evolve-n-grid-0": (["evolve", "--preset", "fig-case1a", "--n-grid", "0"],
                            "n = 0 must be a power of two >= 8"),
        "oracle-huge-grid": (["oracle", "--params", P, "--f0", "-2.9", "--length", "12",
                              "--h", "1e-8"],
                             "takes 1.2e+09 grid points, more than MAX_ORACLE_POINTS = 1000000"),
        # the constructors' float errors, each refused at their one boundary:
        # (f3 - f1)**2 in case1 raised OverflowError
        "solve-case1-huge-roots": (["solve", "--kind", "case1-dn", "--roots", "1e200,2e200,3e200"],
                                   "case1: the form does not fit a float for these zeros (Numerical result out of range)"),
        # products of the zeros overflow, or a and b ~ 1/f overflow case2's quartic in y
        # (case2-inv-sn takes k and k' from the zeros, not from that quartic,
        # and refuses the tiny root as Infeasible: its k'^2 is -4e-152)
        "solve-case2-huge-roots": (["solve", "--kind", "case2-cn", "--roots=1e-8,1e300,-2"],
                                   "case2: the form does not fit a float for these zeros (invalid value"),
        "solve-case2-tiny-root": (["solve", "--kind", "case2-inv-cn", "--roots=1e-152,-1,1e8"],
                                  "case2: the form does not fit a float for these zeros (invalid value"),
        # 2 f1 f3 underflows to 0
        "solve-case2-product-underflows": (["solve", "--kind", "case2-dn",
                                            "--roots=1e-300,1e-152,1e-152"],
                                           "case2: the form does not fit a float for these zeros (float division by zero)"),
        # zeros 1e-300 apart: the gate's arithmetic overflows, or beta is 0
        "solve-thin-pulse": (["solve", "--kind", "solitary_double", "--roots=-1,0,1e-300"],
                             "solitary_double: the form does not fit a float for these zeros (overflow encountered in multiply)"),
        "solve-zero-frequency": (["solve", "--kind", "periodic_trig", "--roots=0,1e-300,-1e-300"],
                                 "periodic_trig: the form does not fit a float for these zeros (float division by zero)"),
        "solve-nan-root": (["solve", "--kind", "periodic_trig", "--roots=nan,1,1"],
                           "zeros must be finite, got (nan, 1.0, 1.0)"),
        # four roots make the params: a NaN root named a parameter before
        "classify-nan-root": (["classify", "--roots", "0,1,2,nan"],
                              "root values must be finite, got (0.0, 1.0, 2.0, nan)"),
        "solve-nan-root-4": (["solve", "--roots", "0,1,2,nan"],
                             "root values must be finite, got (0.0, 1.0, 2.0, nan)"),
        "solve-xi0-inf": (["solve", "--kind", "solitary_double", "--roots=-3,-2,-1", "--xi0", "inf"],
                          "xi0 must be finite, got inf"),
        # the doubles at xi0 are too far apart for a uniform grid over the
        # wave's window
        "solve-far-xi0": (["solve", "--preset", "fig-case1a", "--xi0", "1e17", "--n", "5"],
                          "--xi0 1e+17 is too far out for a uniform grid of 5 points over the "
                          "wave's window: the doubles there are 16 apart"),
        "solve-far-xi0-period": (["solve", "--preset", "fig-case2a", "--xi0", "1e10", "--n", "3"],
                                 "--xi0 1e+10 is too far out for a uniform grid of 3 points "
                                 "over the wave's window: the doubles there are 1.91e-06 apart"),
        # the largest double: the spacing above it overflowed, with a traceback
        "solve-largest-xi0": (["solve", "--kind", "solitary_double", "--roots=-3,-2,-1", "--xi0",
                               "1.7976931348623157e308", "--n", "5"],
                              "--xi0 1.79769e+308 is too far out for a uniform grid of 5 points "
                              "over the wave's window: the doubles there are 2e+292 apart"),
        # beta (xi - xi0) overflows at the far end of the domain
        "verify-far-domain": (["verify", "--kind", "solitary_double", "--roots=-1e16,0,1e16",
                               "--domain=1e293,1e294"],
                              "--domain 1e+293,1e+294 is too wide for a wave of frequency "
                              "1e+16: its phase does not fit a float"),
        "solve-infinite-domain": (["solve", "--preset", "fig-case1a", "--domain=-inf,inf",
                                   "--n", "3"], "--domain -inf,inf is too wide for a wave of "
                                                "frequency 1: its phase does not fit a float"),
        # beta (xi - xi0) overflows
        "solve-domain-too-wide": (["solve", "--kind", "solitary_double", "--roots=-1e16,0,1e16",
                                   "--domain=-1e300,1e300"],
                                  "is too wide for a wave of frequency 1e+16"),
        # problem options the chosen source would ignore: a preset fixes the
        # wave, an explicit kind takes its zeros, and only four zeros give
        # the params (a wave of fig-case1a, dn or the fixture before)
        "solve-preset-kind": (["solve", "--preset", "fig-case1a", "--kind", "case2-dn",
                               "--roots", "1,2,3"], "--roots, --kind cannot go with --preset"),
        "verify-preset-roots": (["verify", "--preset", "fig-case1a", "--roots", "1,2,3"],
                                "--roots cannot go with --preset"),
        "evolve-preset-params": (["evolve", "--preset", "fig-case1a", "--params", P],
                                 "--params cannot go with --preset"),
        "solve-preset-branch": (["solve", "--preset", "fig-case1a", "--branch", "lower"],
                                "--branch cannot go with --preset"),
        "solve-preset-initial-index": (["solve", "--preset", "fig-case1a", "--initial-index", "2"],
                                       "--initial-index cannot go with --preset"),
        "solve-kind-params": (["solve", "--kind", "case2-dn", "--roots", "1,2,3", "--params", P],
                              "--params cannot go with --kind case2-dn"),
        # an option the kind built does not read (the same wave with or
        # without it before); auto fixes the branch of periodic_trig
        "solve-auto-fixed-branch": (["solve", "--params=-1/4,13/16,-1/8,-1/4", "--n", "3",
                                     "--branch", "upper"],
                                    "--branch cannot go with --kind auto here: case "
                                    "DoubleBelowSimples builds periodic_trig on its lower branch"),
        "solve-auto-triple-index": (["solve", "--params=-1/4,1/16,0,0", "--initial-index", "2"],
                                    "--initial-index cannot go with --kind auto here: case "
                                    "TripleWithSimpleAbove builds solitary_triple"),
        "solve-triple-branch": (["solve", "--kind", "solitary_triple", "--roots", "1,0",
                                 "--branch", "lower"],
                                "--branch cannot go with --kind solitary_triple, which does "
                                "not read it"),
        "verify-case2-both": (["verify", "--kind", "case2-dn", "--roots", "1,2,3", "--branch",
                               "lower", "--initial-index", "2"],
                              "--branch and --initial-index cannot go with --kind case2-dn, "
                              "which does not read them"),
        # four zeros the floats hold whose params they do not: e4 = 2.4e401
        "classify-roots-huge-params": (["classify", "--roots", "1e100,2e100,3e100,4e100"],
                                       "the params of these --roots do not fit a float"),
        "classify-disagree": (["classify", "--params", P, "--roots=-3,-2,-2,-0.9"],
                              "params and roots disagree (c: roots give 79/40, params say 2)"),
        # distinct zeros the floats cannot tell apart ("root values must be
        # strictly increasing" before)
        "classify-roots-one-double": (["classify", "--roots", "0.1,0.10000000000000000001,1,2"],
                                      "--roots 0.1 and 0.10000000000000000001 are distinct but "
                                      "round to the same double, 0.10000000000000001"),
        "solve-roots-one-double": (["solve", "--roots", "1,2,1/3,0.3333333333333333333"],
                                   "--roots 1/3 and 0.3333333333333333333 are distinct but "
                                   "round to the same double, 0.33333333333333331"),
        # exact zeros 0 (x2) and -2^55 +- 2, the last two one double
        # ("root values must be strictly increasing" before)
        "classify-zeros-one-double": (["classify", "--params", "18014398509481984,1,0,0"],
                                      "two distinct zeros of F round to the same double, "
                                      "-3.602879701896397e+16: c=1.8014398509481984e+16, d1=1, "
                                      "d2=0, d3=0"),
        # four simple zeros to classify, too close for general_sn2 ("need
        # four distinct finite roots" before)
        "solve-general-sn2-close-zeros": (["solve", "--kind", "general-sn2", "--roots",
                                           "1e-20,2e-20,1,2"],
                                          "general_sn2 needs zeros more than 1e-12 * max(1, |r|) "
                                          "apart: 1e-20 and 2e-20 are not"),
        "solve-auto-close-zeros": (["solve", "--kind", "auto", "--roots", "1e-20,2e-20,1,2"],
                                   "general_sn2 needs zeros more than 1e-12 * max(1, |r|) "
                                   "apart: 1e-20 and 2e-20 are not"),
        "classify-three-params": (["classify", "--params", "2,-7/4,-7/2"],
                                  "--params needs 4 values c,d1,d2,d3; got 3"),
        "classify-two-roots": (["classify", "--params", P, "--roots", "5,6"],
                               "four zeros give the params: --roots needs 4 values here, got 2"),
        "oracle-three-roots": (["oracle", "--roots=-3,-2,-1", "--f0", "-2.9"],
                               "four zeros give the params: --roots needs 4 values here, got 3"),
        "solve-auto-three-roots": (["solve", "--kind", "auto", "--roots=-3,-2,-1"],
                                   "four zeros give the params: --roots needs 4 values here, got 3"),
        # required after the merge, so a config may give it
        "oracle-no-f0": (["oracle", "--params", P], "oracle needs --f0"),
    }
    # --config values the flags' parsers never let through
    CONFIG_CASES = {
        "json-list": ([{"preset": "fig-case1a"}], "expected a JSON object"),
        "unknown-preset": ({"preset": "no-such-preset"}, "unknown preset 'no-such-preset'"),
        "params-not-a-number": ({"params": ["2", "x", "-3.5", "-1.5"]}, "'x' is not a number"),
        "params-null": ({"params": [2, None, -3.5, -1.5]}, "'None' is not a number"),
        # json writes 10**400 as an integer, which float() cannot take
        "params-huge-integer": ({"params": [2, -1.75, -3.5, 10 ** 400]},
                                "parameter d3 must be finite, got inf"),
        "n-inf": ({"preset": "fig-case1a", "n": math.inf},
                  "config n: inf is not a whole number"),
        "initial-index-inf": ({"kind": "general-sn2", "roots": "0,1,2,3",
                               "initial_index": math.inf},
                              "config initial_index: inf is not a whole number"),
        "n-fraction": ({"preset": "fig-case1a", "n": 2.5},
                       "config n: 2.5 is not a whole number"),
        "branch-unknown": ({"kind": "solitary_double", "roots": "-3,-2,-1", "branch": "sideways"},
                           "unknown branch 'sideways'"),
        "preset-with-kind": ({"preset": "fig-case1a", "kind": "case2-dn"},
                             "--kind cannot go with --preset"),
        "index-not-read": ({"kind": "solitary_double", "roots": "-3,-2,-1", "initial_index": 2},
                           "--initial-index cannot go with --kind solitary_double"),
        # a key that is no verb's option, and the one option a config cannot set
        "misspelt-key": ({"preset": "fig-case1a", "n_gird": 64},
                         "no verb takes 'n_gird' from a config"),
        "config-key": ({"config": "other.json"}, "no verb takes 'config' from a config"),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", CASES)
    def test_refused_with_one_error_line(self, tmp_path, capsys, case):
        argv, message = self.CASES[case]
        assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", CONFIG_CASES)
    def test_config_refused_with_one_error_line(self, tmp_path, capsys, case):
        doc, message = self.CONFIG_CASES[case]
        config = tmp_path / "job.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert message in refusal(["solve", "--config", str(config), "--out", str(out / "o.csv")],
                                  capsys)
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_far_tail_of_an_algebraic_pulse(self, tmp_path):
        """x * x overflows in the rational kernel far out, where the pulse is
        its triple zero: no warning, and the profile is that zero."""
        out = tmp_path / "far.csv"
        assert main(["solve", "--kind", "solitary_triple", "--roots=1,-1e-8",
                     "--domain=1e16,1e199", "--n", "3", "--out", str(out)]) == 0
        rows = read_csv(out)[1]
        assert [row[1] for row in rows] == [1.0] * 3 and rows[-1][2] == 0.0

    def test_oracle_point_limit_is_inclusive(self, tmp_path, monkeypatch):
        monkeypatch.setattr(verify, "MAX_ORACLE_POINTS", 101)
        argv = ["oracle", "--params", self.P, "--f0", "-2.9", "--h", "1e-3", "--out"]
        assert main([*argv, str(tmp_path / "a.csv"), "--length", "0.1"]) == 0
        assert len(read_csv(tmp_path / "a.csv")[1]) == 101
        assert main([*argv, str(tmp_path / "b.csv"), "--length", "0.101"]) == 1
        assert not (tmp_path / "b.csv").exists()

    def test_evolve_step_limit_is_inclusive(self, tmp_path, monkeypatch):
        from kbwave import evolution

        monkeypatch.setattr(evolution, "MAX_STEPS", 4)
        argv = ["evolve", "--preset", "fig-case1a", "--n-grid", "256", "--T", "0.02"]
        assert main([*argv, "--dt", "0.005", "--out", str(tmp_path / "a.csv")]) == 0
        assert main([*argv, "--dt", "0.0049", "--out", str(tmp_path / "b.csv")]) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a-final.csv", "a-initial.csv", "a-summary.json"]


@pytest.mark.parametrize("branch", ["upper", "lower"])
def test_overflowing_denominator_is_refused_by_name(branch, capsys):
    """The lower branch once failed on numpy's 'invalid value encountered in
    multiply', the upper one on a pole it does not have."""
    sign = "-" if branch == "lower" else ""
    assert main(["solve", "--kind", "periodic_trig", "--roots", "1e-320,1,0",
                 "--branch", branch]) == 1
    assert capsys.readouterr().err == (
        f"error: periodic_trig: denominator C + D*y = inf + {sign}inf*y overflows "
        "for y in [-1.0, 1.0]\n")
