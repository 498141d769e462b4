"""kbwave: traveling waves of the two-component Kaup-Boussinesq coupled KdV system.

Library layout:

* :mod:`kbwave.elliptic`   Jacobi elliptic functions and K(k) from the AGM;
* :mod:`kbwave.quartic`    the quartic first integral (f')^2 = F(f): roots,
  parameters, case taxonomy, and its bands with the orbit's rate at each
  edge;
* :mod:`kbwave.reduction`  second-field reconstruction g(f);
* :mod:`kbwave.solutions`  every closed-form family (solitary, trigonometric,
  elliptic) as validated evaluable descriptors;
* :mod:`kbwave.orbit`      the orbit of one band by quadrature in the band's
  angle, which verify's orbit check and oracle both follow;
* :mod:`kbwave.verify`     residual checks, the orbit check and the oracle;
* :mod:`kbwave.evolution`  pseudo-spectral time evolution on a periodic
  domain;
* :mod:`kbwave.hierarchy`  exact-rational reductions of the ell-component
  hierarchy and the even-ell nonexistence checks;
* :mod:`kbwave.presets`    the family table behind ``--kind`` and the reference
  figure configurations;
* :mod:`kbwave.csvtext`    CSV text of float columns, each value as
  ``format(v, ".17g")`` writes it;
* :mod:`kbwave.cli`        command-line front end (``kbwave --help``).

Each submodule but ``cli`` is loaded when it is first used: ``kbwave.<name>``
runs the body of the module that exports ``name``, and a module's body, once
run, binds all its exports here, so a process runs only the modules it calls.
"""

import sys as _sys
from importlib.util import LazyLoader as _LazyLoader
from importlib.util import find_spec as _find_spec
from importlib.util import module_from_spec as _module_from_spec

from .errors import (
    BlowUp,
    InfeasibleBranch,
    InfinitePeriod,
    InvalidConfiguration,
    KBWaveError,
    OutOfBranchRange,
    UnresolvedBranch,
)

__version__ = "0.1.0"

# each submodule and the names it exports, in the order of __all__
_EXPORTS = {
    "elliptic": ("JacobiTriple", "complete_K", "jacobi", "normalize_modulus"),
    "quartic": ("CaseTag", "Edge", "Params", "RootMultiset", "bands", "classify", "eval_F",
                "eval_F_deriv", "existence", "params_from_roots", "roots_of_F"),
    "reduction": ("g_from_f",),
    "solutions": ("ClosedFormSolution", "Infeasible", "case1", "case2",
                  "discrepancy_report", "general_sn2", "limiting_form",
                  "periodic_trig", "solitary_double", "solitary_triple", "u_v_pair"),
    "verify": ("Profile", "build_profile", "compare_profiles", "ode_residual",
               "oracle_integrate", "pde_residual"),
    "evolution": ("EvolutionState", "evolve", "kb_rhs", "stability_limit",
                  "state_from_callable"),
    "hierarchy": ("FPoly", "FieldStack", "conjecture_report", "even_ell_nonexistence",
                  "l3_asymptotes", "l3_fields", "l3_implicit_profile", "reduce_l3_full",
                  "reduce_vanishing"),
    "presets": ("PRESETS", "build_preset"),
    "orbit": (),
    "csvtext": (),
    "errors": ("KBWaveError", "InfinitePeriod", "InvalidConfiguration",
               "InfeasibleBranch", "UnresolvedBranch", "BlowUp", "OutOfBranchRange"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


class _BindingLoader:
    """A submodule's own loader, which binds the module's exports in the
    package once the module's body has run."""

    def __init__(self, loader):
        self.loader = loader

    def __getattr__(self, name):
        return getattr(self.loader, name)

    def exec_module(self, module):
        self.loader.exec_module(module)
        names = _EXPORTS[module.__name__.rpartition(".")[2]]
        globals().update({name: getattr(module, name) for name in names})


def _register(module: str) -> None:
    """Put the submodule in sys.modules and here, to run its body on the
    first touch of one of its attributes."""
    spec = _find_spec(f"{__name__}.{module}")
    spec.loader = _LazyLoader(_BindingLoader(spec.loader))
    lazy = _module_from_spec(spec)
    _sys.modules[spec.name] = lazy
    globals()[module] = lazy
    spec.loader.exec_module(lazy)


for _module in _EXPORTS:
    if _module != "errors":
        _register(_module)
del _module


def __getattr__(name):
    try:
        module = globals()[_MODULE_OF[name]]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(module, name)


def __dir__():
    # the package's dunders, submodules and exports, loaded or not
    return sorted(n for n in {*globals(), *_MODULE_OF} if n[:2] == "__" or n[0] != "_")
