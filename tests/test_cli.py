"""Command-line surface: verbs, golden formats, determinism, exit codes."""

import json
import math
import os

import numpy as np
import pytest

from kbwave.cli import main

S3 = math.sqrt(3.0)


def run(argv, capsys=None):
    code = main(argv)
    out = capsys.readouterr().out if capsys else ""
    return code, out


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


class TestSolve:
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
        with pytest.raises(SystemExit) as err:
            main(["solve", "--kind", "case2-sn", "--roots", "1,2,3"])
        assert "feasible kinds" in str(err.value)

    def test_no_solution_case_message(self):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--params", "0,0,0,-1/8"])
        assert "no non-constant solution" in str(err.value)

    def test_mismatched_params_and_roots_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--params", "1,0,0,0", "--roots", "0,1,2,3"])
        assert "disagree" in str(err.value)

    def test_residual_gate_env_override(self, tmp_path, monkeypatch):
        out = tmp_path / "x.csv"
        monkeypatch.setenv("KBWAVE_TOL", "1e-30")
        code = main(["solve", "--preset", "fig-case1a", "--out", str(out)])
        assert code == 2  # impossible gate: emits but signals failure
        monkeypatch.setenv("KBWAVE_TOL", "1e-3")
        assert main(["solve", "--preset", "fig-case1a", "--out", str(out)]) == 0

    def test_json_format(self, tmp_path):
        out = tmp_path / "prof.json"
        code = main(["solve", "--preset", "fig-case2f-k1", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        row0 = min(doc["profile"], key=lambda r: abs(r["xi"]))
        assert row0["f"] == pytest.approx(1.0 / 3.0, abs=1e-12)


class TestVerifyVerb:
    def test_report(self, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["verify", "--preset", "fig-case1a", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["residual"]["passed"] is True
        assert doc["pde_residual"]["passed"] is True
        assert doc["pde_residual"]["r_u"] < 1e-6


class TestOracleVerb:
    def test_profile_emitted(self, tmp_path):
        out = tmp_path / "orc.csv"
        code = main(["oracle", "--params", "2,-7/4,-7/2,-3/2", "--f0", "-2.9",
                     "--sign", "1", "--length", "2.0", "--h", "1e-3",
                     "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == "xi,f,f_prime,g"
        assert len(rows) == 2001


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

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"preset": "fig-case1a", "n": 101}))
        out = tmp_path / "o.csv"
        assert main(["solve", "--config", str(cfg), "--n", "51",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 51

    def test_missing_problem_rejected(self):
        with pytest.raises(SystemExit):
            main(["classify"])
