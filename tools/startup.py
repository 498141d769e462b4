"""Start-up of the README's command-line script, one fresh process a command.

    python tools/startup.py [--repeat N] [VERB ...]

For each command of the README script (only those of the VERBs given, when
any are), it runs ``kbwave.cli.main`` in a new interpreter N times (default
5) and prints the best wall time, process start to exit, whether the
command imported numpy, and the kbwave modules whose bodies it ran.  The
modules come from one more run under an audit hook on ``exec``, which names
each module by its code's file, so the timed runs carry no hook.  Each
command runs in a new temporary directory, with this checkout's ``src``
first on PYTHONPATH; nothing is written elsewhere.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the README's command-line script
SCRIPT = (
    ("classify", "--params", "2,-7/4,-7/2,-3/2"),
    ("solve", "--preset", "fig-case1a", "--out", "case1a.csv"),
    ("solve", "--kind", "case2-dn", "--roots", "1,2,3", "--out", "dn.csv"),
    ("verify", "--preset", "fig-case2bc-k1", "--out", "report.json"),
    ("oracle", "--params", "2,-7/4,-7/2,-3/2", "--f0", "-2.9", "--length", "12",
     "--out", "orbit.csv"),
    ("evolve", "--preset", "fig-case1a", "--T", "1", "--out", "evolve.csv"),
    ("reduce", "--ell", "7", "--out", "reduction.json"),
    ("figures", "--out", "figures/"),
)

RUN = "import sys; from kbwave.cli import main; sys.exit(main(sys.argv[1:]))"
# the same run, printing on its last line whether it imported numpy, then
# the modules it ran
AUDITED = """import os, sys
ran = []
def hook(event, args):
    if event == "exec":
        path = getattr(args[0], "co_filename", "")
        if os.path.basename(os.path.dirname(path)) == "kbwave":
            name = os.path.splitext(os.path.basename(path))[0]
            ran.append("kbwave" if name == "__init__" else "kbwave." + name)
sys.addaudithook(hook)
from kbwave.cli import main
code = main(sys.argv[1:])
print("yes" if "numpy" in sys.modules else "no", *dict.fromkeys(ran))
sys.exit(code)
"""


def run(code: str, argv, env) -> tuple[float, str]:
    """Seconds from start to exit of one process, and its stdout; raises
    when the command exits nonzero."""
    with tempfile.TemporaryDirectory(prefix="kbwave-startup-") as cwd:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"kbwave {' '.join(argv)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    return seconds, proc.stdout


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("verbs", nargs="*", help="the verbs to run (default: every command)")
    ap.add_argument("--repeat", type=int, default=5, help="timed runs of each command")
    args = ap.parse_args(argv)
    unknown = set(args.verbs) - {argv[0] for argv in SCRIPT}
    if unknown:
        ap.error(f"no README command runs {', '.join(sorted(unknown))}")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    print(f"{'command':<44} {'best ms':>8} {'numpy':>5}  modules run")
    for argv in SCRIPT:
        if args.verbs and argv[0] not in args.verbs:
            continue
        best = min(run(RUN, argv, env)[0] for _ in range(args.repeat))
        numpy, modules = run(AUDITED, argv, env)[1].splitlines()[-1].split(" ", 1)
        print(f"{' '.join(argv)[:44]:<44} {1e3 * best:8.1f} {numpy:>5}  {modules}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
