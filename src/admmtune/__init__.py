"""Splitting solver with closed-form optimal step sizes and a benchmark zoo.

The pieces, bottom up:

- :mod:`admmtune.quartic`: the step-size optimality quartic and its
  closed-form positive root.
- :mod:`admmtune.prox`: proximal operators in the classical and the
  right-scaled parameterization, translations between them, and a catalog
  of standard functions.
- :mod:`admmtune.engine`: the two-block splitting loop, its averaged
  fixed-point form, and the single-parameter contradiction report.
- :mod:`admmtune.tuner`: step-size plans (fixed, successively estimated,
  closed-form optimal) and one-sweep start/step pairs.
- :mod:`admmtune.problems`: reproducible benchmark instances in desk and
  full size profiles.
- :mod:`admmtune.cli`: the ``admmtune`` command.
"""

from .quartic import (
    DegenerateProblemError,
    QuarticCoefficients,
    build_coefficients,
    optimal_gamma,
    solve_quartic,
)
from .prox import (
    CLASSICAL,
    NEW,
    PROX_KINDS,
    ConjugatePair,
    ProxHandle,
    catalog_prox,
    moreau_complement,
    translate_classical_to_new,
    translate_new_to_classical,
)
from .engine import (
    ContradictionReport,
    ProblemSpec,
    RunRecord,
    SolverState,
    TerminationRule,
    contradiction_demo,
    drs_step,
    solve,
)
from .tuner import (
    ESTIMATED,
    FIXED,
    ORACLE,
    OptimalPair,
    StepSizePlan,
    asymptotic_pair,
    estimate_step,
    gamma_general,
    gamma_zero_init,
    optimal_pair,
)
from .problems import (
    KINDS,
    PROFILES,
    OracleSolution,
    ProblemInstance,
    compute_oracle,
    generate,
    generate_data,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateProblemError",
    "QuarticCoefficients",
    "build_coefficients",
    "optimal_gamma",
    "solve_quartic",
    "CLASSICAL",
    "NEW",
    "PROX_KINDS",
    "ConjugatePair",
    "ProxHandle",
    "catalog_prox",
    "moreau_complement",
    "translate_classical_to_new",
    "translate_new_to_classical",
    "ContradictionReport",
    "ProblemSpec",
    "RunRecord",
    "SolverState",
    "TerminationRule",
    "contradiction_demo",
    "drs_step",
    "solve",
    "ESTIMATED",
    "FIXED",
    "ORACLE",
    "OptimalPair",
    "StepSizePlan",
    "asymptotic_pair",
    "estimate_step",
    "gamma_general",
    "gamma_zero_init",
    "optimal_pair",
    "KINDS",
    "PROFILES",
    "OracleSolution",
    "ProblemInstance",
    "compute_oracle",
    "generate",
    "generate_data",
    "__version__",
]
