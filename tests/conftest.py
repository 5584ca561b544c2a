"""Shared fixtures: cached desk instances, their oracles, the criterion report,
and the textbook alternating recursion that ``solve`` is checked against."""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

import admmtune as at

# Per-kind seeds for the pinned benchmark instances used across the suite.
ACCEPT_SEEDS = {
    "lp": 0,
    "qp": 0,
    "lad": 18,
    "huber": 0,
    "bp": 10,
    "lasso": 4,
    "tv": 8,
    "sics": 0,
}


@dataclass
class ReferenceState:
    """Iterates of the textbook recursion.

    ``zeta_unscaled`` is ``sqrt(gamma) A x^{k+1} + lam^k / sqrt(gamma)``, the
    vector whose successive distances form ``residue_history``; it pairs the
    newest primal point with the multiplier from before the dual step.
    ``zeta_gamma`` records the step size that produced it so residues are
    only chained across steps taken at one and the same gamma.
    """

    x: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    gamma: float
    k: int = 0
    ax: np.ndarray = None
    zeta_unscaled: np.ndarray = None
    zeta_gamma: float = None
    residue_history: list = field(default_factory=list)


def reference_step(state, spec):
    """Advance the textbook x, z, multiplier recursion by one sweep, in place.

    This is the alternating scheme of Boyd et al. (2011): the x step, the
    z step, and the dual update at ``state.gamma``.  It increments
    ``state.k``, refreshes ``state.zeta_unscaled``, and appends the distance
    to the previous unscaled vector to ``state.residue_history`` (only when
    the previous vector was formed at the same gamma).
    """
    g = float(state.gamma)
    if not g > 0.0:
        raise ValueError(f"state.gamma must be positive, got {g}")
    lam = state.lam
    x = spec.prox_f(spec.c - spec.apply_B(state.z) - lam / g, g)
    ax = spec.apply_A(x)
    rg = math.sqrt(g)
    zeta = rg * ax + lam / rg
    z = spec.prox_g(spec.c - ax - lam / g, g)
    lam_new = lam + g * (ax + spec.apply_B(z) - spec.c)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z)) and np.all(np.isfinite(lam_new))):
        raise ArithmeticError(f"non-finite iterate at sweep {state.k + 1}")
    if state.zeta_unscaled is not None and state.zeta_gamma == g:
        state.residue_history.append(float(np.linalg.norm(zeta - state.zeta_unscaled)))
    state.x, state.z, state.lam, state.ax = x, z, lam_new, ax
    state.zeta_unscaled, state.zeta_gamma = zeta, g
    state.k += 1
    return state


_instances = {}
_criterion_lines = []


def _desk_instance(kind):
    inst = _instances.get(kind)
    if inst is None:
        inst = at.generate(kind, profile="desk", seed=ACCEPT_SEEDS[kind])
        _instances[kind] = inst
    return inst


def _desk_oracle(kind):
    inst = _desk_instance(kind)
    if inst.oracle is None:
        at.compute_oracle(inst)
    return inst.oracle


@pytest.fixture(scope="session")
def desk():
    """Callable kind -> cached desk ProblemInstance at its pinned seed."""
    return _desk_instance


@pytest.fixture(scope="session")
def oracle():
    """Callable kind -> cached high-accuracy OracleSolution for the desk instance."""
    return _desk_oracle


@pytest.fixture(scope="session")
def record_criterion():
    """Callable (label, passed, detail) -> None; lines echo in the terminal summary."""

    def _record(label, passed, detail=""):
        verdict = "PASS" if passed else "FAIL"
        line = f"{label}: {verdict}" + (f"  [{detail}]" if detail else "")
        _criterion_lines.append(line)
        print(line)

    return _record


def pytest_terminal_summary(terminalreporter):
    if not _criterion_lines:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in _criterion_lines:
        terminalreporter.write_line(line)
