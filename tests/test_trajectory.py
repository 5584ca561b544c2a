"""Trajectory snapshot: sweeps to tolerance per desk kind and step-size plan.

Each entry is ``[iterations_to_tol, converged]`` at tol 1e-6 and the
acceptance seeds, for the plans ``fixed`` (gamma 1), ``estimated`` (gamma0 1),
``oracle`` (zero start) and ``pair`` (beta 1).  A change that claims to keep
the arithmetic of the solver must keep every entry.
"""

import pytest

from admmtune import StepSizePlan, TerminationRule, gamma_general, optimal_pair, solve

SNAPSHOT = {
    "lp": {"fixed": [1871, True], "estimated": [1816, True], "oracle": [1704, True], "pair": [1, True]},
    "qp": {"fixed": [88, True], "estimated": [31, True], "oracle": [26, True], "pair": [1, True]},
    "lad": {"fixed": [116, True], "estimated": [29, True], "oracle": [25, True], "pair": [1, True]},
    "huber": {"fixed": [23, True], "estimated": [40, True], "oracle": [40, True], "pair": [1, True]},
    "bp": {"fixed": [122, True], "estimated": [114, True], "oracle": [113, True], "pair": [1, True]},
    "lasso": {"fixed": [80, True], "estimated": [117, True], "oracle": [116, True], "pair": [1, True]},
    "tv": {"fixed": [849, True], "estimated": [205, True], "oracle": [204, True], "pair": [1, True]},
    "sics": {"fixed": [61, True], "estimated": [34, True], "oracle": [34, True], "pair": [1, True]},
}

RULE = TerminationRule(tol=1e-6, max_iter=10_000)


@pytest.mark.parametrize("kind", sorted(SNAPSHOT))
def test_iterations_to_tol_snapshot(desk, oracle, kind):
    spec = desk(kind).spec
    sol = oracle(kind)
    pair = optimal_pair(sol.ax, sol.lam, 1.0)
    runs = {
        "fixed": (StepSizePlan.fixed(1.0), None),
        "estimated": (StepSizePlan.estimated(), None),
        "oracle": (StepSizePlan.fixed(gamma_general(sol.ax, sol.lam)), None),
        "pair": (StepSizePlan.fixed(pair.gamma), pair.zeta0),
    }
    got = {}
    for plan_name, (plan, init) in runs.items():
        rec = solve(spec, plan, init=init, rule=RULE)
        got[plan_name] = [rec.iterations_to_tol, rec.converged]
    assert got == SNAPSHOT[kind]
