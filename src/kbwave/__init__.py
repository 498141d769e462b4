"""kbwave: traveling waves of the two-component Kaup-Boussinesq coupled KdV system.

Library layout:

* :mod:`kbwave.elliptic`   Jacobi elliptic functions and K(k) from the AGM;
* :mod:`kbwave.quartic`    the quartic first integral (f')^2 = F(f): roots,
  parameters, case taxonomy;
* :mod:`kbwave.reduction`  second-field reconstruction and local orbit
  behavior near zeros of F;
* :mod:`kbwave.solutions`  every closed-form family (solitary, trigonometric,
  elliptic) as validated evaluable descriptors;
* :mod:`kbwave.verify`     residual checks and the brute-force RK4 orbit
  oracle;
* :mod:`kbwave.evolution`  pseudo-spectral time evolution on a periodic
  domain;
* :mod:`kbwave.hierarchy`  exact-rational reductions of the ell-component
  hierarchy and the even-ell nonexistence checks;
* :mod:`kbwave.presets`    the family table behind ``--kind`` and the reference
  figure configurations;
* :mod:`kbwave.cli`        command-line front end (``kbwave --help``).
"""

from .elliptic import JacobiTriple, complete_K, jacobi, normalize_modulus
from .errors import (
    BlowUp,
    InfeasibleBranch,
    InfinitePeriod,
    InvalidConfiguration,
    KBWaveError,
    OutOfBranchRange,
    UnresolvedBranch,
)
from .evolution import EvolutionState, evolve, kb_rhs, stability_limit, state_from_callable
from .hierarchy import (
    FieldStack,
    FPoly,
    conjecture_report,
    even_ell_nonexistence,
    l3_asymptotes,
    l3_fields,
    l3_implicit_profile,
    reduce_l3_full,
    reduce_vanishing,
)
from .presets import PRESETS, build_preset
from .quartic import (
    CaseTag,
    Params,
    RootMultiset,
    classify,
    eval_F,
    eval_F_deriv,
    existence,
    params_from_roots,
    quadratic_cofactor,
    roots_of_F,
)
from .reduction import LocalForm, g_from_f, local_behavior, vanishing_reduction_l2
from .solutions import (
    ClosedFormSolution,
    Infeasible,
    case1,
    case2,
    discrepancy_report,
    general_sn2,
    limiting_form,
    periodic_trig,
    solitary_double,
    solitary_triple,
    u_v_pair,
)
from .verify import Profile, build_profile, compare_profiles, ode_residual, oracle_integrate, pde_residual

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # elliptic
    "JacobiTriple", "complete_K", "jacobi", "normalize_modulus",
    # quartic
    "CaseTag", "Params", "RootMultiset", "classify", "eval_F", "eval_F_deriv",
    "existence", "params_from_roots", "quadratic_cofactor", "roots_of_F",
    # reduction
    "LocalForm", "g_from_f", "local_behavior", "vanishing_reduction_l2",
    # solutions
    "ClosedFormSolution", "Infeasible", "case1", "case2",
    "discrepancy_report", "general_sn2", "limiting_form",
    "periodic_trig", "solitary_double", "solitary_triple", "u_v_pair",
    # verify
    "Profile", "build_profile", "compare_profiles", "ode_residual",
    "oracle_integrate", "pde_residual",
    # evolution
    "EvolutionState", "evolve", "kb_rhs", "stability_limit", "state_from_callable",
    # hierarchy
    "FPoly", "FieldStack", "conjecture_report", "even_ell_nonexistence",
    "l3_asymptotes", "l3_fields", "l3_implicit_profile", "reduce_l3_full",
    "reduce_vanishing",
    # presets
    "PRESETS", "build_preset",
    # errors
    "KBWaveError", "InfinitePeriod", "InvalidConfiguration",
    "InfeasibleBranch", "UnresolvedBranch", "BlowUp",
    "OutOfBranchRange",
]
