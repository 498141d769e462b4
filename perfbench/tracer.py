"""In-memory span tracer that wraps kbwave's public functions from outside.

A wrapper replaces a function at every module attribute bound to it, so calls
that resolve through a ``from ... import`` binding (``kbwave.solutions.jacobi``,
``kbwave.cli.oracle_integrate``, ``kbwave.presets.case1``) are traced too.
Private helpers such as ``_residual_gate`` or ``_rhs_arrays`` are not wrapped:
their time is part of the self time of the public function that calls them.

Spans live in flat arrays (name, start, end, parent, op) until the run ends.
Recording is off outside ops, so the benchmark's own checks leave no spans.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

CTORS = ("case1", "case2", "general_sn2", "solitary_double", "periodic_trig",
         "solitary_triple")
# constructors whose InvalidConfiguration states an unmet input precondition
# (no such wave for these zeros) rather than a failed validation gate
_PRECONDITION_CTORS = ("solitary_double", "periodic_trig", "solitary_triple")
CLI_VERBS = ("classify", "solve", "verify", "oracle", "evolve", "reduce", "figures")


def _size(x):
    return int(np.size(x))


def _arg(args, kwargs, i, name, default):
    return args[i] if len(args) > i else kwargs.get(name, default)


# (module, function) -> units of work in one call (points or steps), or None
TARGETS = {
    ("elliptic", "jacobi"): lambda a, k: _size(_arg(a, k, 0, "u", 0.0)),
    ("quartic", "roots_of_F"): None,
    ("quartic", "params_from_roots"): None,
    ("quartic", "eval_F"): lambda a, k: _size(_arg(a, k, 1, "f", 0.0)),
    ("reduction", "g_from_f"): lambda a, k: _size(_arg(a, k, 0, "f", 0.0)),
    **{("solutions", c): None for c in CTORS},
    ("verify", "oracle_integrate"):
        lambda a, k: round(_arg(a, k, 3, "length", 0.0) / _arg(a, k, 4, "h", 1e-4)),
    ("verify", "ode_residual"): lambda a, k: int(_arg(a, k, 3, "n", 2000)),
    ("verify", "pde_residual"): None,
    ("verify", "build_profile"): None,
    ("evolution", "evolve"):
        lambda a, k: round(_arg(a, k, 2, "T", 0.0) / _arg(a, k, 1, "dt", 1.0)),
    ("evolution", "stability_limit"): None,
    ("evolution", "state_from_callable"): None,
    ("hierarchy", "reduce_vanishing"): None,
    ("hierarchy", "conjecture_report"): None,
    ("presets", "build_preset"): None,
    **{("cli", "cmd_" + v): None for v in CLI_VERBS},
}


def ctor_outcome(kb, ctor: str, result) -> str:
    """'accepted', 'infeasible' or 'rejected' for a constructor's return
    value or the exception it raised."""
    if isinstance(result, kb.ClosedFormSolution):
        return "accepted"
    if isinstance(result, (kb.Infeasible, kb.InfeasibleBranch)):
        return "infeasible"
    if isinstance(result, kb.InvalidConfiguration) and ctor in _PRECONDITION_CTORS:
        return "infeasible"
    return "rejected"


def layer_name(module: str, fn: str) -> str:
    return f"cli.{fn[4:]}" if module == "cli" else f"{module}.{fn}"


class Tracer:
    """Wraps the TARGETS in every loaded kbwave module and records spans.

    ``install`` and ``uninstall`` only swap attributes found at construction,
    so a run can switch tracing on and off around single ops.
    """

    def __init__(self, kb):
        self.kb = kb
        self.names = ["op"] + [layer_name(m, f) for m, f in TARGETS]
        self.units = [0] * len(self.names)
        self.outcomes = {c: {"accepted": 0, "infeasible": 0, "rejected": 0} for c in CTORS}
        self.name, self.parent, self.op = array("i"), array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.stack = [-1]
        self.op_id = -1
        self.active = False
        self.fft_calls = 0
        self.fft_points = 0
        self._bindings = self._find_bindings()

    # -- installation ----------------------------------------------------------

    def _find_bindings(self):
        """(module, attribute, original, wrapper) for every binding to wrap."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "kbwave" or n.startswith("kbwave."))]
        out = []
        for idx, ((mod, fn), units) in enumerate(TARGETS.items(), start=1):
            orig = getattr(sys.modules[f"kbwave.{mod}"], fn)
            ctor = fn if mod == "solutions" else None
            wrapper = self._wrap(idx, orig, units, ctor)
            out += [(m, attr, orig, wrapper)
                    for m in modules for attr, val in vars(m).items() if val is orig]
        for fn in ("rfft", "irfft"):
            orig = getattr(np.fft, fn)
            out.append((np.fft, fn, orig, self._count_fft(orig, fn == "irfft")))
        return out

    def install(self):
        for m, attr, _, wrapper in self._bindings:
            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, orig, _ in self._bindings:
            setattr(m, attr, orig)

    def _wrap(self, idx, fn, units, ctor):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if units is not None:
                tracer.units[idx] += units(args, kwargs)
            i = tracer._open(idx)
            try:
                out = fn(*args, **kwargs)
            except Exception as err:
                if ctor:
                    tracer._outcome(ctor, err)
                raise
            finally:
                tracer._close(i)
            if ctor:
                tracer._outcome(ctor, out)
            return out

        return traced

    def _count_fft(self, fn, inverse):
        tracer = self

        @functools.wraps(fn)
        def counted(a, n=None, *args, **kwargs):
            if tracer.active:
                tracer.fft_calls += 1
                tracer.fft_points += n if n is not None else (
                    2 * (len(a) - 1) if inverse else len(a))
            return fn(a, n, *args, **kwargs)

        return counted

    # -- spans -------------------------------------------------------------------

    def _open(self, idx):
        i = len(self.name)
        self.name.append(idx)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i):
        self.end[i] = perf_counter()
        self.stack.pop()

    def _outcome(self, ctor, result):
        self.outcomes[ctor][ctor_outcome(self.kb, ctor, result)] += 1

    def begin_op(self, op_id):
        self.op_id = op_id
        self.active = True
        return self._open(0)

    def end_op(self, span):
        self._close(span)
        self.active = False

    # -- results -----------------------------------------------------------------

    def arrays(self):
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def self_times(self):
        """(calls, self seconds) per span name; self = span minus child spans."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        own = np.bincount(a["name"], weights=dur - child, minlength=k)
        return ({n: int(calls[i]) for i, n in enumerate(self.names)},
                {n: float(own[i]) for i, n in enumerate(self.names)})

    def layer_metrics(self):
        """The per-layer metrics named in BENCHMARK.json, zero where unused."""
        calls, own = self.self_times()
        units = dict(zip(self.names, self.units))

        def ratio(a, b, scale=1.0):
            return scale * a / b if b else 0.0

        m = {}
        o = "verify.oracle_integrate"
        m.update({f"{o}.calls": calls[o], f"{o}.steps": units[o], f"{o}.self_s": own[o],
                  f"{o}.us_per_step": ratio(own[o], units[o], 1e6)})
        r = "quartic.roots_of_F"
        m.update({f"{r}.calls": calls[r], f"{r}.self_s": own[r],
                  f"{r}.us_per_call": ratio(own[r], calls[r], 1e6)})
        m["quartic.params_from_roots.calls"] = calls["quartic.params_from_roots"]
        m["quartic.params_from_roots.self_s"] = own["quartic.params_from_roots"]
        m["quartic.eval_F.points"] = units["quartic.eval_F"]
        m["quartic.eval_F.self_s"] = own["quartic.eval_F"]
        accepted = rejected = 0
        for c in CTORS:
            s = f"solutions.{c}"
            m[f"{s}.calls"] = calls[s]
            m[f"{s}.self_s"] = own[s]
            m.update({f"{s}.{k}": v for k, v in self.outcomes[c].items()})
            accepted += self.outcomes[c]["accepted"]
            rejected += self.outcomes[c]["rejected"]
        m["solutions.accept_ratio"] = ratio(accepted, accepted + rejected)
        j = "elliptic.jacobi"
        m.update({f"{j}.calls": calls[j], f"{j}.points": units[j], f"{j}.self_s": own[j],
                  f"{j}.ns_per_point": ratio(own[j], units[j], 1e9)})
        e = "evolution.evolve"
        m.update({f"{e}.calls": calls[e], f"{e}.steps": units[e], f"{e}.self_s": own[e],
                  f"{e}.ms_per_step": ratio(own[e], units[e], 1e3)})
        m["evolution.fft_calls"] = self.fft_calls
        m["evolution.fft_points"] = self.fft_points
        for n in ("evolution.stability_limit", "evolution.state_from_callable",
                  "verify.pde_residual", "verify.build_profile",
                  "hierarchy.conjecture_report"):
            m[f"{n}.self_s"] = own[n]
        m["verify.ode_residual.points"] = units["verify.ode_residual"]
        m["verify.ode_residual.self_s"] = own["verify.ode_residual"]
        m["reduction.g_from_f.points"] = units["reduction.g_from_f"]
        m["reduction.g_from_f.self_s"] = own["reduction.g_from_f"]
        for n in ("presets.build_preset", "hierarchy.reduce_vanishing"):
            m[f"{n}.calls"] = calls[n]
            m[f"{n}.self_s"] = own[n]
        for v in CLI_VERBS:
            m[f"cli.{v}.self_s"] = own[f"cli.{v}"]
        m["trace.spans"] = len(self.name)
        m["trace.op_self_s"] = own["op"]
        return m
