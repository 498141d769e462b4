"""The benchmark's workloads: seeded inputs, one op, and the op's checks.

Each workload is driven as a closed loop by one caller: the next op starts
when the previous one has returned.  A run is a fixed number of passes over
``INPUTS`` base inputs drawn from the seed.  Pass p runs every base input
shifted by ``shift(p)``: where a workload's inputs are zeros of F, every zero
moves by the same dyadic amount, which keeps the configuration, and so the
work, the same while the values differ; where the inputs are a fixed script
or preset list, pass p repeats it.  ``run`` is the timed op; ``check`` runs
after the op's timer has stopped and returns why the op failed, as
(category, detail) pairs (none when it passed).  ``KNOWN_DEFECTS`` lists the
categories NOTES.md records as defects of the program at the time the
benchmark was defined; a failure in any other category makes the run
incorrect.  NOTES.md also records why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
from fractions import Fraction

import numpy as np

from tracer import ctor_outcome

RESIDUAL_RTOL = 1e-8  # |f'^2 - F(f)| bound relative to scale^4 (README contract)
REFEREE_RTOL = 1e-6   # closed form against DOP853, relative to scale (README contract)
PERMANENCE_TOL = 1e-3
MEAN_DRIFT_TOL = 1e-10


def _domain(sol):
    T = sol.period
    return (sol.xi0, sol.xi0 + T) if T is not None else (sol.xi0 - 10.0, sol.xi0 + 10.0)


def residual_ok(kb, sol) -> bool:
    res = kb.ode_residual(sol, sol.params, domain=_domain(sol), n=2000)
    return res < RESIDUAL_RTOL * sol.roots.scale() ** 4


def referee_ok(sol) -> bool:
    """A periodic closed form against scipy DOP853 on f'' = F'(f)/2 over one
    period centred on xi0, integrated forward and backward from the closed
    form's value and slope there.  Pulses are not refereed: from a turning
    point the second-order form runs into the saddle at the double zero,
    where any error grows exponentially."""
    from scipy.integrate import solve_ivp

    if sol.period is None or sol.non_global:
        return True
    p = sol.params
    c, d1, d2 = p.c, p.d1, p.d2

    def rhs(_, y):
        f = y[0]
        return (y[1], 0.5 * (((-4.0 * f - 12.0 * c) * f + 8.0 * (d1 - c * c)) * f + 8.0 * d2))

    scale = sol.roots.scale()
    y0 = sol.evaluate(sol.xi0)
    for end in (sol.xi0 + 0.5 * sol.period, sol.xi0 - 0.5 * sol.period):
        xi = np.linspace(sol.xi0, end, 129)
        ref = solve_ivp(rhs, (sol.xi0, end), y0, method="DOP853", t_eval=xi,
                        rtol=1e-13, atol=1e-13 * scale)
        if not (ref.success and np.max(np.abs(ref.y[0] - sol.profile(xi)[0])) < REFEREE_RTOL * scale):
            return False
    return True


def _valid(kb, sol) -> bool:
    return residual_ok(kb, sol) and referee_ok(sol)


def shift(p: int) -> Fraction:
    """The shift of pass p: 0, -1/64, 1/64, -2/64, 2/64, ...  Dyadic, so
    shifted zeros and the Params built from them stay exact in floats."""
    return Fraction((-1) ** p * ((p + 1) // 2), 64)


class Workload:
    """Base inputs, their shifted variants, and the number of passes."""

    INPUTS = 1  # base inputs per run, one op each per pass
    PASS_S = 1.0  # nominal seconds of one pass, ops and checks together
    # an input's latency is its median op over the passes, or with FASTEST
    # its fastest op; worker.py says which workloads need which, and why
    FASTEST = False

    def passes(self, seconds: float) -> int:
        """Passes in a run of ``seconds``: fixed for a given length, so that
        a run's ops, and its attempted and failed counts, repeat exactly."""
        return max(3, round(seconds / self.PASS_S))

    def prepare(self):
        self.base = [self.draw() for _ in range(self.INPUTS)]

    def pass_inputs(self, p: int):
        return [self.variant(b, shift(p)) for b in self.base]

    def next_input(self):
        """A fresh unshifted input, for the traced run."""
        return self.variant(self.draw(), Fraction(0))


class Sweep(Workload):
    """One op: a random root set through every family constructor."""

    name = "sweep"
    INPUTS = 12
    PASS_S = 8.0
    TRACE_OPS = 36  # ops in a traced run, each run twice (see worker.py)
    KNOWN_DEFECTS = ("false-rejection",)

    def __init__(self, kb, rng, workdir):
        self.kb, self.rng = kb, rng

    def draw(self):
        return self.rng.uniform(-5.0, 5.0, 3), self.rng.uniform(-5.0, 5.0, 4)

    def variant(self, base, s):
        # the orbits depend on the differences of the zeros only
        return base[0] + float(s), base[1] + float(s)

    def run(self, inp):
        kb = self.kb
        triple, quad = inp
        lo, mid, hi = sorted(triple)
        calls = [("case1", (kind, lo, mid, hi), {}) for kind in ("cn", "dn")]
        calls += [("case2", (kind, *triple), {}) for kind in kb.solutions.CASE2_KINDS]
        calls += [("general_sn2", (quad,), {"initial_index": i}) for i in (1, 2, 3, 4)]
        calls += [("solitary_double", (lo, mid, hi), {}),
                  ("periodic_trig", (lo, mid, hi), {}),
                  ("solitary_triple", (lo, hi), {})]
        out = []
        for ctor, args, kwargs in calls:
            try:
                res = getattr(kb, ctor)(*args, **kwargs)
            except kb.KBWaveError as err:
                res = err
            out.append((ctor, args, kwargs, res))
        return out

    def check(self, inp, results):
        kb, bad = self.kb, []
        for ctor, args, kwargs, res in results:
            verdict = ctor_outcome(kb, ctor, res)
            where = f"{ctor}{args}{kwargs or ''}"
            if verdict == "accepted" and not _valid(kb, res):
                bad.append(("false-acceptance", f"{where}: fails the residual or the referee"))
            elif verdict == "rejected":
                cand = getattr(res, "candidate", None)
                # a rejection is wrong when the rejected closed form passes both
                # checks; a rejection with no closed form to referee (the
                # general_sn2 candidate is a coefficient dict, the oracle's
                # InvalidConfiguration carries none) is counted as wrong too,
                # since these families have a closed form for every input drawn
                if not isinstance(cand, kb.ClosedFormSolution) or _valid(kb, cand):
                    bad.append(("false-rejection", f"{where}: {type(res).__name__}: {res}"))
        return bad


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class Classify(Workload):
    """One op: exact Params of a known configuration -> roots, case, verdict."""

    name = "classify"
    # few inputs and many passes: an input's fastest op must land in one of
    # the host's fast moments, which are rare in its slow stretches; 1000
    # still leaves ten latencies beyond p99
    INPUTS = 1000
    PASS_S = 0.5
    FASTEST = True
    TRACE_OPS = 20000
    KNOWN_DEFECTS = ("wrong-tag",)

    # tag -> (multiplicities of the real zeros in increasing order, complex
    # pairs, verdict, constructor of the closed form or None)
    CONFIGS = {
        "NoRealZeros": ((), 2, "none", None),
        "TwoSimpleOnly": ((1, 1), 1, "periodic", None),
        "OneDoubleOnly": ((2,), 1, "none", None),
        "TwoDoublesOnly": ((2, 2), 0, "none", None),
        "Quadruple": ((4,), 0, "none", None),
        "DoubleBelowSimples": ((2, 1, 1), 0, "periodic", "periodic_trig"),
        "DoubleBetweenSimples": ((1, 2, 1), 0, "solitary", "solitary_double"),
        "DoubleAboveSimples": ((1, 1, 2), 0, "periodic", "periodic_trig"),
        "TripleWithSimpleAbove": ((3, 1), 0, "solitary", "solitary_triple"),
        "TripleWithSimpleBelow": ((1, 3), 0, "solitary", "solitary_triple"),
    }

    def __init__(self, kb, rng, workdir):
        self.kb, self.rng = kb, rng
        self.tags = sorted(self.CONFIGS)

    def _quarters(self, lo, hi):
        """A uniform multiple of 1/4 in [lo/4, hi/4]."""
        return Fraction(int(self.rng.integers(lo, hi + 1)), 4)

    def prepare(self):
        # exactly equal shares of the tags, in a seeded order: the five tags
        # with a closed form cost about twice the other five, so with shares
        # drawn at random the median op would land on either side of that
        # gap depending on the seed
        tags = [t for t in self.tags for _ in range(self.INPUTS // len(self.tags))]
        self.base = [self.draw(tags[i]) for i in self.rng.permutation(len(tags))]

    def draw(self, tag=None):
        if tag is None:
            tag = self.tags[int(self.rng.integers(len(self.tags)))]
        mults, pairs, _, _ = self.CONFIGS[tag]
        steps = sorted(self.rng.choice(41, size=len(mults), replace=False))
        zeros = [Fraction(int(s) - 20, 4) for s in steps]  # distinct, in [-5, 5]
        # (f - x)^2 + y^2 with y > 0
        cpairs = [(self._quarters(-20, 20), self._quarters(1, 20)) for _ in range(pairs)]
        return tag, zeros, cpairs

    def variant(self, base, s):
        tag, zeros, cpairs = base
        mults, _, verdict, ctor = self.CONFIGS[tag]
        zeros = [z + s for z in zeros]
        # -F in integers: every zero is a multiple of 1/64, so coefficient j
        # of the monic polynomial, highest degree first, is poly[j] / 64^j
        poly = [1]
        for z, m in zip(zeros, mults):
            for _ in range(m):
                poly = _poly_mul(poly, [1, -int(z * 64)])
        for x, y in cpairs:  # (f - x)^2 + y^2
            x, y = int((x + s) * 64), int(y * 64)
            poly = _poly_mul(poly, [1, -2 * x, x * x + y * y])
        _, a3, a2, a1, a0 = (Fraction(a, 64 ** j) for j, a in enumerate(poly))
        c = a3 / 4
        params = self.kb.Params(c, c * c - a2 / 4, -a1 / 8, -a0 / 8)
        args = None
        if ctor == "solitary_double":
            args = tuple(float(z) for z in zeros)
        elif ctor == "periodic_trig":
            dbl = zeros[mults.index(2)]
            args = tuple(float(z) for z in zeros if z != dbl) + (float(dbl),)
        elif ctor == "solitary_triple":
            tri = zeros[mults.index(3)]
            args = (float(tri), float(next(z for z in zeros if z != tri)))
        return params, tag, verdict, ctor, args

    def run(self, inp):
        kb = self.kb
        params, _, _, ctor, args = inp
        tag = kb.classify(kb.roots_of_F(params))
        verdict = kb.existence(tag)
        sol = getattr(kb, ctor)(*args) if ctor else None
        return tag, verdict, sol

    def check(self, inp, res):
        params, tag, verdict, _, _ = inp
        got_tag, got_verdict, sol = res
        bad = []
        where = "--params=" + ",".join(str(getattr(params, k)) for k in ("c", "d1", "d2", "d3"))
        if got_tag.value != tag:
            bad.append(("wrong-tag", f"{where}: {got_tag.value}, truth {tag}"))
        elif got_verdict != verdict:
            bad.append(("wrong-verdict", f"{where}: {got_verdict}, truth {verdict}"))
        if sol is not None and not residual_ok(self.kb, sol):
            bad.append(("residual", f"{where}: {sol.kind} fails ode_residual"))
        return bad


class Evolve(Workload):
    """One op: a preset evolved to T = 1 at n = 1024 with dt = 1/2 the RK4 limit."""

    name = "evolve"
    TRACE_OPS = 35
    KNOWN_DEFECTS = ()
    # fig-case2bc-k1 is left out: see NOTES.md
    PRESETS = ("fig-case1a", "fig-case1b-k05", "fig-case2a", "fig-case2b",
               "fig-case2e", "fig-case2f", "fig-case2f-k1")
    INPUTS = len(PRESETS)
    PASS_S = 3.0
    N, T = 1024, 1.0

    def __init__(self, kb, rng, workdir):
        self.kb = kb
        self.order = [self.PRESETS[i] for i in rng.permutation(len(self.PRESETS))]
        self.i = 0

    def draw(self):
        name = self.order[self.i % len(self.order)]
        self.i += 1
        return name

    def variant(self, name, s):
        return name

    def run(self, name):
        kb = self.kb
        sol, params = kb.build_preset(name)
        period = sol.period
        L = 40.0 * math.pi
        if period is not None:  # a whole number of periods keeps the grid periodic
            L = max(1, round(L / period)) * period
        state0 = kb.state_from_callable(lambda xi: sol.profile(xi)[0], params, L, self.N)
        steps = max(1, round(self.T / (0.5 * kb.stability_limit(state0))))
        final = kb.evolve(state0, self.T / steps, self.T)
        return sol, state0, final

    def check(self, name, res):
        sol, state0, final = res
        exact = sol.profile(final.x - 0.5 * state0.L - sol.c * self.T)[0]
        err = float(np.max(np.abs(final.u - exact)))
        drift = abs(float(np.mean(final.u) - np.mean(state0.u)))
        bad = []
        if not err < PERMANENCE_TOL:
            bad.append(("permanence", f"{name}: error {err:.3e}"))
        if not drift < MEAN_DRIFT_TOL:
            bad.append(("mean-drift", f"{name}: drift {drift:.3e}"))
        return bad


class Cli(Workload):
    """One op: one verb of the README's command-line script, in process."""

    name = "cli"
    SCRIPT = (
        ("classify", "--params", "2,-7/4,-7/2,-3/2"),
        ("solve", "--preset", "fig-case1a", "--out", "{out}/case1a.csv"),
        ("solve", "--kind", "case2-dn", "--roots", "1,2,3", "--out", "{out}/dn.csv"),
        ("verify", "--preset", "fig-case2bc-k1", "--out", "{out}/report.json"),
        ("oracle", "--params", "2,-7/4,-7/2,-3/2", "--f0", "-2.9", "--length", "12",
         "--out", "{out}/orbit.csv"),
        ("evolve", "--preset", "fig-case1a", "--T", "1", "--out", "{out}/evolve.csv"),
        ("evolve", "--preset", "fig-case1b-k05", "--T", "1", "--out", "{out}/evolve-k05.csv"),
        ("reduce", "--ell", "30", "--out", "{out}/reduction.json"),
        ("figures", "--out", "{out}/figures"),
    )
    INPUTS = len(SCRIPT)
    PASS_S = 5.0
    TRACE_OPS = 2 * len(SCRIPT)
    KNOWN_DEFECTS = ("exit evolve --preset fig-case1b-k05",)

    def __init__(self, kb, rng, workdir):
        self.kb = kb
        self.workdir = workdir
        self.i = 0
        self.runs = 0
        self.figures_sha = None
        self.bytes_written = 0

    def draw(self):
        argv = self.SCRIPT[self.i % len(self.SCRIPT)]
        self.i += 1
        return argv

    def variant(self, argv, s):
        return argv

    def run(self, argv):
        self.runs += 1
        out = os.path.join(self.workdir, f"op{self.runs}")
        os.makedirs(out)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = self.kb.cli.main([a.format(out=out) for a in argv])
            except SystemExit as exc:
                code = exc.code
        return code, stdout.getvalue(), stderr.getvalue(), out

    def check(self, argv, res):
        code, stdout, stderr, out = res
        bad = []
        if code != 0:
            bad.append(("exit " + " ".join(argv[:3]), f"code {code}: {stderr.strip()[-200:]}"))
        files = sorted(os.path.join(d, f) for d, _, fs in os.walk(out) for f in fs)
        self.bytes_written += len(stdout.encode()) + sum(os.path.getsize(f) for f in files)
        if argv[0] == "figures":
            h = hashlib.sha256()
            for f in files:
                h.update(os.path.relpath(f, out).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
            sha = h.hexdigest()
            if self.figures_sha is None:
                self.figures_sha = sha
            elif sha != self.figures_sha:
                bad.append(("figures-changed", f"sha256 {sha}, first {self.figures_sha}"))
        shutil.rmtree(out)
        return bad


class CliShort(Cli):
    """The same script with each verb shrunk to tens of milliseconds, so that
    an op's fastest of many passes measures the program (see worker.py).
    The oracle, evolve and figures verbs keep their steps and grids and run
    shorter spans or fewer presets; reduce takes the README's size."""

    name = "cli-short"
    SCRIPT = (
        ("classify", "--params", "2,-7/4,-7/2,-3/2"),
        ("solve", "--preset", "fig-case1a", "--out", "{out}/case1a.csv"),
        ("solve", "--kind", "case2-dn", "--roots", "1,2,3", "--out", "{out}/dn.csv"),
        ("verify", "--preset", "fig-case2bc-k1", "--out", "{out}/report.json"),
        ("oracle", "--params", "2,-7/4,-7/2,-3/2", "--f0", "-2.9", "--length", "0.5",
         "--out", "{out}/orbit.csv"),
        ("evolve", "--preset", "fig-case1a", "--T", "0.05", "--out", "{out}/evolve.csv"),
        ("evolve", "--preset", "fig-case1b-k05", "--T", "0.05", "--out", "{out}/evolve-k05.csv"),
        ("reduce", "--ell", "7", "--out", "{out}/reduction.json"),
        ("figures", "--preset", "fig-case1a", "--n", "201", "--out", "{out}/figures"),
    )
    INPUTS = len(SCRIPT)
    PASS_S = 0.6
    FASTEST = True
    TRACE_OPS = 20 * len(SCRIPT)  # ops are short: more of them steady the self times


WORKLOADS = {w.name: w for w in (Sweep, Classify, Evolve, Cli, CliShort)}
