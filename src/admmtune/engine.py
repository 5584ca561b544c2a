"""Two-block splitting solver for  minimize f(x) + g(z)  s.t.  A x + B z = c.

The solver alternates partial minimizations of the augmented Lagrangian at
penalty ``gamma`` and a dual ascent step:

    x step:   argmin_x f(x) + (gamma/2) ||A x - (c - B z - lam/gamma)||^2
    z step:   argmin_z g(z) + (gamma/2) ||B z - (c - A x - lam/gamma)||^2
    lam step: lam + gamma (A x + B z - c)

Internally the loop iterates the equivalent fixed-point map on the scaled
vector ``sigma = A x + lam/gamma``; the unscaled counterpart
``zeta = sqrt(gamma) A x + lam/sqrt(gamma)`` is what step-size selection
reasons about.  That map is the Douglas-Rachford map averaged at 1/2, whose
iterates the alternating scheme above traces exactly.  Its step between
consecutive unscaled vectors is ``sqrt(gamma) (A x + B z - c)``, so the
recorded residue, the distance between them, is ``sqrt(gamma)`` times the
infeasibility ``||A x + B z - c||``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from numpy.linalg import svd

from . import tuner as _tuner
from .prox import _check_full_rank
from .quartic import _require_finite

__all__ = [
    "ProblemSpec",
    "SolverState",
    "TerminationRule",
    "RunRecord",
    "drs_step",
    "solve",
]


def _read_only_copy(M):
    """A read-only float copy of ``M``, Fortran-ordered where ``M`` is and C-ordered elsewhere.

    That is the layout ``M.dot`` runs its gemv on, so products round as on ``M``.
    """
    M = np.array(M, dtype=float, order="A")
    M.setflags(write=False)
    return M


class ProblemSpec:
    """Data and oracles for one instance of the two-block problem.

    Parameters
    ----------
    prox_f : callable
        ``prox_f(w, gamma) -> x`` solving argmin f(x) + (gamma/2)||A x - w||^2.
    prox_g : callable
        ``prox_g(w, gamma) -> z`` solving argmin g(z) + (gamma/2)||B z - w||^2.
    objective : callable or None
        ``objective(x, z) -> float`` for reporting; None records nan.
    A : ndarray or None
        Constraint map for x, shape (p, n).  None means the identity (n = p).
    B : ndarray or None
        Constraint map for z, shape (p, m).  None means minus the identity
        (m = p).
    c : ndarray or None
        Right-hand side, shape (p,).  None means zero.  A, B and c must be
        finite (ValueError otherwise).  The spec holds read-only copies of
        them, so a later write to the caller's arrays does not reach it.
    p : int or None
        Constraint dimension; required only when none of A, B, c is given.
        The variable dimensions ``n`` and ``m`` are the column counts of A
        and B, or ``p`` where the map is None.
    rank_check : bool
        When True (default), dense A and B are required to have full column
        rank (smallest/largest singular value ratio above 1e-10).  Builders
        whose f keeps the x step single-valued anyway, or whose x step
        checks the rank itself, may disable it.
    """

    def __init__(self, prox_f, prox_g, objective=None, A=None, B=None, c=None,
                 p=None, rank_check=True):
        self.prox_f = prox_f
        self.prox_g = prox_g
        self.objective = objective
        self.A = None if A is None else _read_only_copy(A)
        self.B = None if B is None else _read_only_copy(B)
        c = None if c is None else np.ravel(c)

        p_candidates = {}
        if self.A is not None:
            if self.A.ndim != 2:
                raise ValueError(f"A must be 2-d, got shape {self.A.shape}")
            p_candidates["A"] = self.A.shape[0]
        if self.B is not None:
            if self.B.ndim != 2:
                raise ValueError(f"B must be 2-d, got shape {self.B.shape}")
            p_candidates["B"] = self.B.shape[0]
        if c is not None:
            p_candidates["c"] = c.size
        if p is not None:
            p_candidates["p"] = int(p)
        if not p_candidates:
            raise ValueError("cannot infer the constraint dimension; pass p (or A, B, or c)")
        sizes = set(p_candidates.values())
        if len(sizes) > 1:
            raise ValueError(f"inconsistent constraint dimensions: {p_candidates}")
        self.p = sizes.pop()

        self.n = self.p if self.A is None else self.A.shape[1]
        self.m = self.p if self.B is None else self.B.shape[1]
        self.c = _read_only_copy(np.zeros(self.p) if c is None else c)
        for name, M in (("A", self.A), ("B", self.B), ("c", self.c)):
            if M is not None:
                _require_finite(name, M)
        if rank_check:
            for name, M in (("A", self.A), ("B", self.B)):
                if M is None:
                    continue
                _check_full_rank(svd(M, compute_uv=False), M.shape[1],
                                 f"constraint matrix {name} does not have full column rank")


@dataclass
class SolverState:
    """The iterates ``estimate_step`` reads after a completed sweep.

    ``ax`` is ``A @ x`` for the current x, ``lam`` the dual multiplier,
    ``gamma`` the step size in use and ``k`` the number of completed sweeps.
    ``solve`` keeps one per estimated run, refreshed in place each sweep, to
    pass the iterates to ``estimate_step``.
    """

    ax: np.ndarray
    lam: np.ndarray
    gamma: float
    k: int = 0


@dataclass(frozen=True)
class TerminationRule:
    """Stop when the unscaled residue drops to ``tol`` or after ``max_iter`` sweeps."""

    tol: float = 1e-6
    max_iter: int = 10_000

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive (inf allowed), got {self.tol}")
        _tuner._check_count("max_iter", self.max_iter)


@dataclass
class RunRecord:
    """Outcome of one ``solve`` call.

    ``rows`` holds one tuple ``(k, gamma, residue, objective, infeasibility)``
    per sweep, with k starting at 1 and strictly increasing.  The residue is
    the unscaled fixed-point gap ``sqrt(gamma) ||A x + B z - c||``, which is
    sqrt(gamma) times the infeasibility; within a block of consecutive rows
    sharing one gamma it is non-increasing.  ``iterations_to_tol`` is the
    first k at or below the tolerance, None if never reached.
    """

    plan: str
    rows: list
    iterations: int
    iterations_to_tol: int
    converged: bool
    wall_time: float
    final_gamma: float
    x: np.ndarray = None
    z: np.ndarray = None
    lam: np.ndarray = None
    ax: np.ndarray = None
    zeta_unscaled: np.ndarray = None

    @property
    def residues(self):
        return [row[2] for row in self.rows]

    def first_k_below(self, tol):
        """First recorded k whose residue is at or below ``tol``, else None."""
        for row in self.rows:
            if row[2] <= tol:
                return row[0]
        return None


def _drs_sweep(spec):
    """The half-averaged fixed-point sweep of ``spec`` as ``sweep(sigma, gamma)``.

    ``sweep`` returns ``(sigma_new, x, z, y_half, y_one, gap)`` with
    ``gap = y_one - y_half``, which the update of the scaled vector reads and
    whose norm is the residue and the infeasibility column.
    """
    prox_f, prox_g, A, B, c = spec.prox_f, spec.prox_g, spec.A, spec.B, spec.c
    # B = None is minus the identity: c - (-z) is c + z in IEEE arithmetic,
    # which for a zero c is z itself up to the sign of a zero entry
    y_half_is_z = B is None and not c.any()

    def sweep(sigma, gamma):
        z = prox_g(c - sigma, gamma)
        if y_half_is_z:
            y_half = z
        else:
            y_half = c + z if B is None else c - B.dot(z)
        # y + y is 2 y exactly, with no scalar operand to convert
        x = prox_f(y_half + y_half - sigma, gamma)
        y_one = x if A is None else A.dot(x)
        gap = y_one - y_half
        return sigma + gap, x, z, y_half, y_one, gap

    return sweep


def drs_step(zeta, spec: ProblemSpec, gamma: float):
    """One sweep of the half-averaged splitting map on the scaled vector ``zeta``.

    This is exactly the map whose iterates the alternating x, z and
    multiplier steps trace through ``zeta^k = A x^{k+1} + lam^k / gamma``.
    A non-finite ``zeta``, or a ``gamma`` whose reciprocal overflows, raises
    ValueError.
    """
    _tuner._check_gamma("gamma", gamma)
    zeta = np.asarray(zeta, dtype=float).ravel()
    if zeta.size != spec.p:
        raise ValueError(f"zeta must have length {spec.p}, got {zeta.size}")
    _require_finite("zeta", zeta)
    return _drs_sweep(spec)(zeta, gamma)[0]


# an overflow is reported through the run's outcomes (an infinite residue,
# or ArithmeticError for a non-finite iterate), not as a numpy warning
@np.errstate(over="ignore", invalid="ignore")
def solve(spec: ProblemSpec, plan, init=None, rule: TerminationRule = None,
          *, columns: bool = True) -> RunRecord:
    """Run the splitting solver under a step-size plan.

    Parameters
    ----------
    spec : ProblemSpec
    plan : StepSizePlan
        Fixed gamma or successive estimation.  The closed-form optimal gamma
        is the fixed plan ``StepSizePlan.fixed(gamma_general(ax, lam, zeta0))``
        run with ``init=zeta0``.
    init : None or ndarray
        The unscaled fixed-point vector
        ``zeta^0 = sqrt(gamma) A x + lam / sqrt(gamma)`` to start from, of
        length ``spec.p``.  None starts from the zero vector.  A start of
        another length or with a non-finite entry raises ValueError before
        any sweep.
    rule : TerminationRule
        Defaults to tol 1e-6 and max_iter 10000.  tol = inf returns
        immediately after 0 sweeps with an empty history.
    columns : bool, keyword-only
        When True (default) each row carries the objective and the
        infeasibility ``||A x + B z - c||``; the residue is sqrt(gamma) times
        the infeasibility either way.  When False both columns are recorded
        as nan and ``spec.objective`` is never called; residues, iterates and
        step sizes keep every bit.  A caller that reads only the iterates,
        such as a reference run, saves the objective's cost.

    Returns
    -------
    RunRecord
    """
    if rule is None:
        rule = TerminationRule()
    t0 = time.perf_counter()
    gamma = float(plan.gamma0)
    rg = math.sqrt(gamma)

    # the newest iterates; ax caches A @ x
    x = z = lam = ax = None
    zeta_u = np.zeros(spec.p) if init is None else np.asarray(init, dtype=float).ravel()
    if zeta_u.size != spec.p:
        raise ValueError(f"zeta0 must have length {spec.p}, got {zeta_u.size}")
    _require_finite("zeta0", zeta_u)
    sigma = zeta_u / rg

    rows = []
    # tol = inf is met by the start itself: no sweep runs
    iterations_to_tol = 0 if math.isinf(rule.tol) else None
    max_iter = 0 if math.isinf(rule.tol) else rule.max_iter
    state = SolverState(ax=None, lam=None, gamma=gamma) if plan.mode == _tuner.ESTIMATED else None
    sweep = _drs_sweep(spec)
    objective, tol = (spec.objective if columns else None), rule.tol
    sigma_new = sigma
    for k in range(1, max_iter + 1):
        if state is not None and k >= 2:
            # the estimator reads lam; other plans form it once, after the loop
            lam = gamma * (sigma - y_half)
            state.ax, state.lam, state.gamma, state.k = ax, lam, gamma, k - 1
            new_gamma = _tuner.estimate_step(state, plan)
            if new_gamma != gamma:
                gamma = new_gamma
                rg = math.sqrt(gamma)
                sigma_new = ax + lam / gamma
        sigma = sigma_new
        sigma_new, x, z, y_half, ax, gap = sweep(sigma, gamma)
        # gap = A x + B z - c is sigma_new - sigma before rounding: one norm
        # is the residue, the infeasibility column and the finiteness test.
        # A finite norm bounds each gap entry by sqrt(max float), below half
        # an ulp of the largest float, so sigma + gap is finite where sigma
        # is.  A rescaled sigma is finite (estimate_step's step lies in
        # (0, inf)); only the start, scaled by 1/sqrt(gamma), can overflow,
        # so the first sweep is always scanned.  ndarray.dot skips @'s dispatch
        gap_norm = math.sqrt(gap.dot(gap))
        if (k == 1 or not math.isfinite(gap_norm)) and not np.all(np.isfinite(sigma_new)):
            raise ArithmeticError(f"non-finite iterate at sweep {k}")
        residue = rg * gap_norm
        rows.append((k, gamma, residue,
                     math.nan if objective is None else float(objective(x, z)),
                     gap_norm if columns else math.nan))
        if residue <= tol:
            iterations_to_tol = k
            break
    if rows:
        lam = gamma * (sigma - y_half)

    return RunRecord(
        plan=plan.describe(), rows=rows, iterations=len(rows),
        iterations_to_tol=iterations_to_tol, converged=iterations_to_tol is not None,
        wall_time=time.perf_counter() - t0, final_gamma=gamma,
        x=x, z=z, lam=lam, ax=ax, zeta_unscaled=rg * sigma_new,
    )

