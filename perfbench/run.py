"""kbwave benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload classify --seed 0 --seconds 45 --trace 0

Run from the root of a checkout.  Workers run with BLAS/OpenMP threads pinned
to 1 and the checkout's own src/ on the path, one at a time.  With --trace 0
SETUPS - 1 workers only set up and exit, then one more sets up and measures
the workload; the last line of output holds the end-to-end metrics of
BENCHMARK.json, with setup_s the median of the SETUPS set-up times.  With
--trace 1 one worker runs the traced ops and the last line holds the
per-layer metrics.  The line before it holds the run's details: machine
facts, failure counts, the tail percentile and output fingerprints.  The
result is also written to perfbench/out/.  NOTES.md explains the workloads
and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5  # set-up samples per untraced run; setup_s is their median
TIME_LIMIT = 175.0  # seconds for the whole run, worker processes included
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker(argv, env, deadline):
    """Run worker.py to completion and return its last output line as JSON."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv], env=env, cwd=ROOT,
            stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        sys.exit(f"worker did not finish within {TIME_LIMIT:.0f} s of the start")
    if proc.returncode != 0:
        sys.exit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "kbwave" / "__init__.py").is_file():
        sys.exit(f"no kbwave sources under {ROOT / 'src'}")
    env = dict(os.environ, **{k: "1" for k in PINNED})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env.pop("KBWAVE_TOL", None)  # the benchmark measures the default gate

    deadline = start + TIME_LIMIT
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        res = worker(argv, env, deadline)
    else:
        setups = [worker(argv + ["--setup-only"], env, deadline)["setup_s"]
                  for _ in range(SETUPS - 1)]
        res = worker(argv, env, deadline)
        setups.append(res["setup_s"])
        res["metrics"]["setup_s"] = statistics.median(setups)
        res["detail"]["setup_samples_s"] = setups
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in res["metrics"]]
    if missing:
        sys.exit(f"worker did not report {missing}")
    (HERE / "out").mkdir(exist_ok=True)
    with open(HERE / "out" / f"result-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(res, fh, indent=2, sort_keys=True)
    print(json.dumps({"detail": res["detail"]}, sort_keys=True))
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
