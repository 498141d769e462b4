"""Start-up: each kbwave module runs its body when first used.

A fresh interpreter records, by an audit hook on ``exec``, which kbwave
module bodies run: ``import kbwave.cli`` runs only the package, its errors
and the CLI, and each verb adds the modules it calls (the oracle no wave
module); ``classify`` and ``reduce`` import no numpy.  The package still
answers every name it exports, and ``tools/startup.py`` reports the same
modules, and no numpy, for the README's verbs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PROBE = r"""
import json, os, pickle, sys
ran = []
def hook(event, args):
    if event == "exec":
        path = getattr(args[0], "co_filename", "")
        if os.path.basename(os.path.dirname(path)) == "kbwave":
            name = os.path.splitext(os.path.basename(path))[0]
            ran.append("kbwave" if name == "__init__" else "kbwave." + name)
sys.addaudithook(hook)
report = {"numpy": {}}
import kbwave, kbwave.cli
report["import"] = list(ran)
report["numpy"]["import"] = "numpy" in sys.modules
del ran[:]
import contextlib, io
with contextlib.redirect_stdout(io.StringIO()):
    assert kbwave.cli.main(["classify", "--params", "2,-7/4,-7/2,-3/2"]) == 0
report["classify"] = list(ran)
report["numpy"]["classify"] = "numpy" in sys.modules
del ran[:]
with contextlib.redirect_stdout(io.StringIO()):
    assert kbwave.cli.main(["reduce", "--ell", "3"]) == 0
report["reduce"] = list(ran)
report["numpy"]["reduce"] = "numpy" in sys.modules
del ran[:]
with contextlib.redirect_stdout(io.StringIO()):
    assert kbwave.cli.main(["oracle", "--params", "2,-7/4,-7/2,-3/2", "--f0", "-2.9",
                            "--length", "1"]) == 0
report["oracle"] = list(ran)
star = {}
exec("from kbwave import *", star)
report["star"] = sorted(k for k in star if k != "__builtins__")
report["star_same"] = all(star[k] is getattr(kbwave, k) for k in kbwave.__all__)
report["dir"] = dir(kbwave)
import kbwave.quartic
report["quartic"] = sys.modules["kbwave.quartic"] is kbwave.quartic
report["case2_kinds"] = list(kbwave.solutions.CASE2_KINDS)
sol = kbwave.solitary_double(-3.0, -2.0, -1.0)
report["numpy"]["waves"] = "numpy" in sys.modules
again = pickle.loads(pickle.dumps(sol))
report["pickle"] = again == sol and type(again) is kbwave.ClosedFormSolution
report["missing"] = not hasattr(kbwave, "no_such_name")
print(json.dumps(report))
"""

SUBMODULES = {"elliptic", "errors", "evolution", "hierarchy", "orbit", "presets", "quartic",
              "reduction", "solutions", "verify", "csvtext", "cli"}


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))


def _probe():
    proc = subprocess.run([sys.executable, "-c", PROBE], env=_env(), capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


class TestLazyModules:
    report = None

    def setup_method(self):
        if TestLazyModules.report is None:
            TestLazyModules.report = _probe()

    def test_import_runs_only_the_cli_and_its_errors(self):
        assert self.report["import"] == ["kbwave", "kbwave.errors", "kbwave.cli"]

    def test_each_verb_runs_the_modules_it_calls(self):
        """The oracle, which follows an orbit from F's zeros alone, runs no
        wave module (solutions, elliptic) and no family table (presets)."""
        assert self.report["classify"] == ["kbwave.quartic"]
        assert self.report["reduce"] == ["kbwave.hierarchy"]
        assert self.report["oracle"] == ["kbwave.verify", "kbwave.orbit", "kbwave.reduction",
                                         "kbwave.csvtext"]

    def test_the_exact_verbs_load_no_numpy(self):
        """Nor the CSV writer, which the lists above would name.  Once the
        wave modules have run, numpy is loaded."""
        assert self.report["numpy"] == {"import": False, "classify": False, "reduce": False,
                                        "waves": True}

    def test_the_package_answers_as_before(self):
        import kbwave

        r = self.report
        assert r["star"] == sorted(kbwave.__all__) and r["star_same"]
        public = {n for n in r["dir"] if not n.startswith("_")}
        assert public == (set(kbwave.__all__) - {"__version__"}) | SUBMODULES
        assert {"__all__", "__version__", "__path__", "__spec__"} <= set(r["dir"])
        assert r["quartic"] and r["pickle"] and r["missing"]
        assert r["case2_kinds"] == list(kbwave.solutions.CASE2_KINDS)


def test_python_m_cli_prints_no_warning():
    """``python -m kbwave.cli`` finds no ``kbwave.cli`` loaded ahead of it,
    which runpy would warn of."""
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "kbwave.cli", "classify",
                           "--params", "2,-7/4,-7/2,-3/2"], env=_env(), capture_output=True,
                          text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    assert "case: DoubleBetweenSimples\n" in proc.stdout


def test_startup_tool_lists_the_modules_of_each_verb():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "startup.py"), "--repeat", "1",
                           "classify", "reduce"], capture_output=True, text=True, check=True)
    header, *rows = proc.stdout.splitlines()
    assert header.split()[:4] == ["command", "best", "ms", "numpy"]
    modules = {row.split()[0]: row.split("  ")[-1].split() for row in rows}
    assert modules == {
        "classify": ["kbwave", "kbwave.errors", "kbwave.cli", "kbwave.quartic"],
        "reduce": ["kbwave", "kbwave.errors", "kbwave.cli", "kbwave.hierarchy"],
    }
    assert all(float(row[44:53]) > 0 for row in rows)
    assert [row[54:59] for row in rows] == ["   no", "   no"]
