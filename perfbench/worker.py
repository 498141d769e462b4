"""One workload process: set up, drive the closed loop, check, report.

run.py starts this with BLAS/OpenMP threads pinned to 1 and the checkout's
src/ first on PYTHONPATH.  It prints one JSON object on its last line.
With --setup-only it sets up, reports the set-up time and exits.  With
--trace 0 it runs the workload's passes over its base inputs (see
workloads.py) and reports the end-to-end metrics.  An input's latency is the
median of its ops across the passes, which are spread over the whole run, or
on workloads with FASTEST set, the fastest of them.  On a shared host the
speed of the same code swings by up to 1.8 times, between moments a second
apart and between stretches of tens of minutes.  The median op follows the
stretches.  An op of a fraction of a millisecond, as on classify, fits
wholly in the host's fast moments, which recur in slow stretches too, so its
fastest of many runs measures the program rather than the host's load.  An
op of a tenth of a second or more, as on cli, spans many swings: its fastest
of ten runs is the luckiest of ten averages and scatters more between runs
than their median does.
With --trace 1 it runs a fixed number of ops, TRACE_OPS, so that counts
repeat exactly for a seed.  Each op then runs twice, untraced and traced, in
alternating order; the difference in op time between the two passes is the
tracing overhead on identical work.
"""

import time

T_START = time.perf_counter()  # set-up is timed from before numpy and kbwave load

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# op_tail_ms is the highest of these percentiles with at least ten input
# latencies beyond it, or the slowest input when none has
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)


class Record:
    """Per-op seconds and failure flags, plus failure counts by category.

    Compact, so that the benchmark's own memory barely moves peak_rss_mb."""

    def __init__(self):
        self.seconds, self.failed = array("d"), array("b")
        self.by_category, self.examples = {}, []

    def add(self, dt, reasons):
        self.seconds.append(dt)
        self.failed.append(bool(reasons))
        for cat, detail in reasons:
            self.by_category[cat] = self.by_category.get(cat, 0) + 1
            if len(self.examples) < 8:
                self.examples.append(f"{cat}: {detail}")

    def failures(self, known):
        """Counts, examples, and the categories outside the known defects."""
        return {"by_category": self.by_category, "examples": self.examples,
                "unexplained": sorted(set(self.by_category) - set(known))}


def op(w, inp, rec, check=True, tracer=None, op_id=0):
    """One timed op, then its checks; adds it to rec and returns its seconds."""
    span = tracer.begin_op(op_id) if tracer else None
    t0 = time.perf_counter()
    try:
        res, err = w.run(inp), None
    except Exception as exc:  # the op crashed: a failed op, the loop goes on
        res, err = None, exc
    dt = time.perf_counter() - t0
    if tracer:
        tracer.end_op(span)
    if err is not None:
        reasons = [("crash", f"{type(err).__name__}: {err}")]
    else:
        reasons = w.check(inp, res) if check else []
    rec.add(dt, reasons)
    return dt


def measure(w, passes):
    """Closed loop over ``passes`` passes of the base inputs.  Returns every
    op's record and each base input's latency in seconds."""
    rec = Record()
    for p in range(passes):
        for inp in w.pass_inputs(p):
            op(w, inp, rec)
    per_input = np.frombuffer(rec.seconds, dtype=float).reshape(passes, -1)
    latency = per_input.min(axis=0) if w.FASTEST else np.median(per_input, axis=0)
    return rec, latency.tolist()


def traced(w, tracer):
    """The traced run: each op untraced and traced, alternating which goes
    first.  Returns the traced pass's record and the untraced op seconds."""
    rec, untraced = Record(), 0.0
    for i in range(w.TRACE_OPS):
        inp = w.next_input()
        for pass_traced in ((False, True) if i % 2 == 0 else (True, False)):
            if not pass_traced:
                untraced += op(w, inp, Record(), check=False)
                continue
            tracer.install()
            try:
                op(w, inp, rec, tracer=tracer, op_id=i)
            finally:
                tracer.uninstall()
    return rec, untraced


def percentile(values, p):
    """Linear interpolation between order statistics, as numpy's default."""
    v = sorted(values)
    x = p / 100 * (len(v) - 1)
    i = int(x)
    return v[i] if i + 1 == len(v) else v[i] + (x - i) * (v[i + 1] - v[i])


def harrell_davis_median(values):
    """The Harrell-Davis estimate of the median: a mean of the sorted values
    weighted by a beta density centred on the middle.  The plain median is
    the middle one or two values; where the op costs form two clusters of
    equal size, as on classify, those fall in the gap between the clusters
    and move by a quarter from seed to seed, while this estimate averages the
    values on both sides of the gap."""
    from scipy.special import betainc

    v = np.sort(np.asarray(values, dtype=float))
    a = (len(v) + 1) / 2
    return float(np.diff(betainc(a, a, np.arange(len(v) + 1) / len(v))) @ v)


def end_to_end(rec, latency, passes):
    """The end-to-end metrics from the per-input latencies, and details."""
    attempted, failed, n = len(rec.seconds), sum(rec.failed), len(latency)
    pct = max((p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10), default=100)
    metrics = {
        # successful ops per second of op time, each op at its input's latency
        "ops_per_s": (attempted - failed) / (passes * math.fsum(latency)),
        "op_p50_ms": 1e3 * harrell_davis_median(latency),
        "op_tail_ms": 1e3 * percentile(latency, pct),
        "failed_share": failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "inputs": n, "passes": passes, "tail_percentile": pct,
        "tail_samples_beyond": sum(b > percentile(latency, pct) for b in latency),
        # every op as timed, not per input: not bounded
        "as_timed": {"ops_per_s": (attempted - failed) / math.fsum(rec.seconds),
                     "op_p50_ms": 1e3 * statistics.median(rec.seconds)},
    }
    return metrics, detail


def machine():
    import scipy

    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                    "MKL_NUM_THREADS")},
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import kbwave as kb
    import kbwave.cli  # noqa: F401  (the cli workload and the tracer need it)

    src = (ROOT / "src").resolve()
    if Path(kb.__file__).resolve().parent.parent != src:
        sys.exit(f"kbwave was imported from {kb.__file__}, not from {src}")
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT, prefix=f"work-{args.workload}-")
    try:
        w = WORKLOADS[args.workload](kb, np.random.default_rng(args.seed), workdir)
        if not args.trace:
            passes = w.passes(args.seconds)
            w.prepare()
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return
        detail = {"workload": args.workload, "seed": args.seed, "machine": machine()}
        fingerprints = {}
        if args.trace:
            tracer = Tracer(kb)
            rec, untraced = traced(w, tracer)
            metrics = tracer.layer_metrics()
            metrics["trace.overhead_share"] = sum(rec.seconds) / untraced - 1.0
            metrics["cli.bytes_written"] = getattr(w, "bytes_written", 0)
            fingerprints["verify.oracle_integrate.steps"] = metrics[
                "verify.oracle_integrate.steps"]
            np.savez(OUT / f"trace-{args.workload}.npz", **tracer.arrays())
        else:
            rec, latency = measure(w, passes)
            metrics, more = end_to_end(rec, latency, passes)
            detail.update(more)
        if getattr(w, "figures_sha", None):
            fingerprints["figures_sha256"] = w.figures_sha
        detail["fingerprints"] = fingerprints
        detail["failures"] = rec.failures(w.KNOWN_DEFECTS)
        result = {
            "attempted": len(rec.seconds),
            "failed": sum(rec.failed),
            "correct": not detail["failures"]["unexplained"],
            "setup_s": setup_s,
            "metrics": metrics,
            "detail": detail,
        }
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
