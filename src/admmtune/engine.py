"""Two-block splitting solver for  minimize f(x) + g(z)  s.t.  A x + B z = c.

The solver alternates partial minimizations of the augmented Lagrangian at
penalty ``gamma`` and a dual ascent step:

    x step:   argmin_x f(x) + (gamma/2) ||A x - (c - B z - lam/gamma)||^2
    z step:   argmin_z g(z) + (gamma/2) ||B z - (c - A x - lam/gamma)||^2
    lam step: lam + gamma (A x + B z - c)

Internally the loop iterates the equivalent fixed-point map on the scaled
vector ``sigma = A x + lam/gamma``; the unscaled counterpart
``zeta = sqrt(gamma) A x + lam/sqrt(gamma)`` is what step-size selection
reasons about, and recorded residues are distances between consecutive
unscaled vectors.  The relaxation weight ``theta`` averages the fixed-point
map; ``theta = 0.5`` reproduces the alternating scheme above exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import svdvals

from . import tuner as _tuner
from .quartic import _require_finite

__all__ = [
    "ProblemSpec",
    "SolverState",
    "TerminationRule",
    "RunRecord",
    "ContradictionReport",
    "drs_step",
    "solve",
    "contradiction_demo",
]

_RANK_TOL = 1e-10


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
        Right-hand side, shape (p,).  None means zero.
    n, m, p : int or None
        Dimensions; required only when not inferable from A, B, c.
    rank_check : bool
        When True (default), dense A and B are required to have full column
        rank (smallest/largest singular value ratio above 1e-10).  Builders
        whose f keeps the x step single-valued anyway may disable it.
    """

    def __init__(self, prox_f, prox_g, objective=None, A=None, B=None, c=None,
                 n=None, m=None, p=None, rank_check=True):
        self.prox_f = prox_f
        self.prox_g = prox_g
        self.objective = objective
        self.A = None if A is None else np.asarray(A, dtype=float)
        self.B = None if B is None else np.asarray(B, dtype=float)
        c = None if c is None else np.asarray(c, dtype=float).ravel()

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

        self.n = self.A.shape[1] if self.A is not None else (int(n) if n is not None else self.p)
        if self.A is None and self.n != self.p:
            raise ValueError(f"A=None means the identity map, which needs n == p, got n={self.n}, p={self.p}")
        if n is not None and int(n) != self.n:
            raise ValueError(f"n={n} contradicts A with {self.A.shape[1]} columns")

        self.m = self.B.shape[1] if self.B is not None else (int(m) if m is not None else self.p)
        if self.B is None and self.m != self.p:
            raise ValueError(f"B=None means minus the identity, which needs m == p, got m={self.m}, p={self.p}")
        if m is not None and int(m) != self.m:
            raise ValueError(f"m={m} contradicts B with {self.B.shape[1]} columns")

        self.c = np.zeros(self.p) if c is None else c
        self.rank_check = bool(rank_check)
        if self.rank_check:
            for name, M in (("A", self.A), ("B", self.B)):
                if M is None:
                    continue
                s = svdvals(M)
                if M.shape[0] < M.shape[1] or s[-1] < _RANK_TOL * s[0] or s[0] == 0.0:
                    raise ValueError(f"constraint matrix {name} does not have full column rank")

    def apply_A(self, x):
        return x if self.A is None else self.A @ x

    def apply_B(self, z):
        return -z if self.B is None else self.B @ z

    def constraint_gap(self, x, z):
        """A x + B z - c."""
        return self.apply_A(x) + self.apply_B(z) - self.c

    def eval_objective(self, x, z):
        return float(self.objective(x, z)) if self.objective is not None else float("nan")


@dataclass
class SolverState:
    """The iterates ``estimate_step`` reads after a completed sweep.

    ``lam`` is the dual multiplier and ``ax`` caches ``A @ x`` for the
    current x.  ``solve`` keeps one per estimated run, refreshed in place
    each sweep, to pass the iterates to ``estimate_step``.
    """

    x: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    gamma: float
    k: int = 0
    ax: np.ndarray = None


@dataclass(frozen=True)
class TerminationRule:
    """Stop when the unscaled residue drops to ``tol`` or after ``max_iter`` sweeps."""

    tol: float = 1e-6
    max_iter: int = 10_000
    theta: float = 0.5

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive (inf allowed), got {self.tol}")
        if not (isinstance(self.max_iter, int) and self.max_iter >= 0):
            raise ValueError(f"max_iter must be a nonnegative integer, got {self.max_iter!r}")
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")


@dataclass
class RunRecord:
    """Outcome of one ``solve`` call.

    ``rows`` holds one tuple ``(k, gamma, residue, objective, infeasibility)``
    per sweep, with k starting at 1 and strictly increasing.  The residue is
    the unscaled fixed-point gap; within a block of consecutive rows sharing
    one gamma it is non-increasing.  ``iterations_to_tol`` is the first k at
    or below the tolerance, None if never reached.
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
    kind: str = None
    seed: int = None
    dims: dict = None
    trace: dict = None

    @property
    def residues(self):
        return [row[2] for row in self.rows]

    def first_k_below(self, tol):
        """First recorded k whose residue is at or below ``tol``, else None."""
        for row in self.rows:
            if row[2] <= tol:
                return row[0]
        return None


def _drs_sweep(sigma, spec, gamma, theta):
    """One averaged fixed-point sweep on the scaled vector sigma."""
    z = spec.prox_g(spec.c - sigma, gamma)
    y_half = spec.c - spec.apply_B(z)
    x = spec.prox_f(2.0 * y_half - sigma, gamma)
    y_one = spec.apply_A(x)
    sigma_new = sigma + 2.0 * theta * (y_one - y_half)
    return sigma_new, x, z, y_half, y_one


def drs_step(zeta, spec: ProblemSpec, gamma: float, theta: float = 0.5):
    """One sweep of the averaged splitting map on the scaled vector ``zeta``.

    At ``theta = 0.5`` this is exactly the map whose iterates the alternating
    x, z and multiplier steps trace through ``zeta^k = A x^{k+1} + lam^k / gamma``.
    A non-finite ``zeta`` raises ValueError.
    """
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    zeta = np.asarray(zeta, dtype=float).ravel()
    if zeta.size != spec.p:
        raise ValueError(f"zeta must have length {spec.p}, got {zeta.size}")
    _require_finite("zeta", zeta)
    return _drs_sweep(zeta, spec, gamma, theta)[0]


def _resolve_initial_gamma(plan):
    if plan.mode in (_tuner.FIXED, _tuner.ESTIMATED):
        return plan.gamma0
    if plan.mode == _tuner.ORACLE:
        return _tuner.gamma_general(plan.ax_star, plan.lambda_star, plan.zeta0)
    raise ValueError(f"unknown plan mode {plan.mode!r}")


def solve(spec: ProblemSpec, plan, init=None, rule: TerminationRule = None,
          trace: bool = False) -> RunRecord:
    """Run the splitting solver under a step-size plan.

    Parameters
    ----------
    spec : ProblemSpec
    plan : StepSizePlan
        Fixed gamma, successive estimation, or the closed-form optimal gamma
        from a known solution pair.
    init : None, ndarray, or (x0, z0, lam0)
        None starts from the zero vector.  A bare array is the unscaled
        fixed-point vector ``zeta^0 = sqrt(gamma) A x + lam / sqrt(gamma)``
        to start from (an oracle plan with its own ``zeta0`` supplies that
        vector when ``init`` is None).  A triple is mapped into the loop by
        one priming x step so that recorded residues are genuine fixed-point
        gaps from the first sweep on.  A start with a non-finite entry raises
        ValueError before any sweep.
    rule : TerminationRule
        Defaults to tol 1e-6, max_iter 10000, theta 0.5.  tol = inf returns
        immediately after 0 sweeps with an empty history.
    trace : bool
        When True the record carries the scaled iterate and primal-image
        sequences (keys "sigma", "y_one") for diagnostics.

    Returns
    -------
    RunRecord
    """
    if rule is None:
        rule = TerminationRule()
    t0 = time.perf_counter()
    gamma = float(_resolve_initial_gamma(plan))
    if not gamma > 0.0:
        raise ValueError(f"initial gamma must be positive, got {gamma}")
    theta = rule.theta
    rg = math.sqrt(gamma)

    ax_last = None
    lam_last = None
    x_cur = z_cur = None
    if init is not None and not isinstance(init, np.ndarray) and isinstance(init, (tuple, list)):
        x0, z0, lam0 = (np.asarray(a, dtype=float).ravel() for a in init)
        for name, v, size in (("x0", x0, spec.n), ("z0", z0, spec.m), ("lam0", lam0, spec.p)):
            if v.size != size:
                raise ValueError(f"{name} must have length {size}, got {v.size}")
            _require_finite(name, v)
        x_cur = spec.prox_f(spec.c - spec.apply_B(z0) - lam0 / gamma, gamma)
        z_cur = z0
        lam_last = lam0
        ax_last = spec.apply_A(x_cur)
        sigma = ax_last + lam0 / gamma
    else:
        if init is None:
            zeta_u = plan.zeta0 if getattr(plan, "zeta0", None) is not None and plan.mode == _tuner.ORACLE else None
            zeta_u = np.zeros(spec.p) if zeta_u is None else np.asarray(zeta_u, dtype=float).ravel()
        else:
            zeta_u = np.asarray(init, dtype=float).ravel()
        if zeta_u.size != spec.p:
            raise ValueError(f"zeta0 must have length {spec.p}, got {zeta_u.size}")
        _require_finite("zeta0", zeta_u)
        sigma = zeta_u / rg

    lam_cur = lam_last
    rows = []
    sig_trace = [sigma.copy()] if trace else None
    y_trace = [None] if trace else None

    if math.isinf(rule.tol):
        return RunRecord(
            plan=plan.describe(), rows=[], iterations=0, iterations_to_tol=0,
            converged=True, wall_time=time.perf_counter() - t0, final_gamma=gamma,
            x=x_cur, z=z_cur, lam=lam_cur, ax=ax_last,
            zeta_unscaled=rg * sigma,
            trace={"sigma": sig_trace, "y_one": y_trace} if trace else None,
        )

    iterations_to_tol = None
    converged = False
    k_done = 0
    est_state = None
    if plan.mode == _tuner.ESTIMATED:
        # the estimator reads one state per run, refreshed in place each sweep
        est_state = SolverState(x=None, z=None, lam=None, gamma=gamma)
    for k in range(1, rule.max_iter + 1):
        if est_state is not None and k >= 2:
            est_state.x, est_state.z, est_state.lam, est_state.ax = x_cur, z_cur, lam_cur, ax_last
            est_state.gamma, est_state.k = gamma, k - 1
            new_gamma = _tuner.estimate_step(est_state, plan)
            if new_gamma != gamma:
                gamma = new_gamma
                rg = math.sqrt(gamma)
                sigma = ax_last + lam_last / gamma
        sigma_new, x, z, y_half, y_one = _drs_sweep(sigma, spec, gamma, theta)
        # sigma is finite, so a non-finite entry of sigma_new makes step_norm
        # non-finite: the full scan is needed only then (an overflowing norm
        # of finite entries is recorded as an infinite residue)
        step = sigma_new - sigma
        step_norm = math.sqrt(step @ step)
        if not math.isfinite(step_norm) and not np.all(np.isfinite(sigma_new)):
            raise ArithmeticError(f"non-finite iterate at sweep {k}")
        lam_cur = gamma * (sigma - y_half)
        residue = rg * step_norm
        gap = y_one - y_half
        rows.append((k, gamma, residue, spec.eval_objective(x, z), math.sqrt(gap @ gap)))
        x_cur, z_cur = x, z
        ax_last, lam_last = y_one, lam_cur
        sigma = sigma_new
        k_done = k
        if trace:
            sig_trace.append(sigma_new.copy())
            y_trace.append(y_one.copy())
        if residue <= rule.tol:
            iterations_to_tol = k
            converged = True
            break

    return RunRecord(
        plan=plan.describe(), rows=rows, iterations=k_done,
        iterations_to_tol=iterations_to_tol, converged=converged,
        wall_time=time.perf_counter() - t0, final_gamma=gamma,
        x=x_cur, z=z_cur, lam=lam_cur, ax=ax_last,
        zeta_unscaled=rg * sigma,
        trace={"sigma": sig_trace, "y_one": y_trace} if trace else None,
    )


@dataclass(frozen=True)
class ContradictionReport:
    """Why no single step size matches both fixed-point families.

    ``gamma_dagger_primal`` makes the primal-view fixed point
    ``A x* + lam*/gamma`` closest to the starting vector; ``gamma_dagger_dual``
    does the same for the dual view ``lam* + gamma A x*``.  Unless the optimal
    pair is anti-parallel these disagree or leave the feasible range, while
    the quadratic change of variables always admits the positive optimum
    ``gamma_star = alpha_star**2``.
    """

    gamma_dagger_primal: float
    gamma_dagger_dual: float
    daggers_agree: bool
    contradiction: bool
    alpha_star: float
    gamma_star: float
    ax_norm: float
    lam_norm: float
    inner: float
    zeta0_norm: float

    def as_text(self) -> str:
        lines = [
            "single-parameter matching of the two fixed-point views",
            f"  ||A x*||            = {self.ax_norm:.12g}",
            f"  ||lam*||            = {self.lam_norm:.12g}",
            f"  <A x*, lam*>        = {self.inner:.12g}",
            f"  ||zeta0||           = {self.zeta0_norm:.12g}",
            f"  primal-view gamma   = {_fmt_gamma(self.gamma_dagger_primal)}",
            f"  dual-view gamma     = {_fmt_gamma(self.gamma_dagger_dual)}",
            f"  views agree         = {self.daggers_agree}",
            f"  contradiction       = {self.contradiction}",
            "change of variables (always consistent)",
            f"  alpha_star          = {self.alpha_star:.12g}",
            f"  gamma_star          = {self.gamma_star:.12g}  (= alpha_star**2 > 0)",
        ]
        return "\n".join(lines)


def _fmt_gamma(v):
    return "undefined (zero denominator)" if v is None else f"{v:.12g}"


def contradiction_demo(spec: ProblemSpec, zeta0=None, *, ax_star=None,
                       lambda_star=None, rule: TerminationRule = None) -> ContradictionReport:
    """Contrast naive single-gamma matching with the quadratic substitution.

    Matching the starting vector directly against either fixed-point family
    gives two least-squares step sizes that in general disagree or come out
    nonpositive; the substitution ``gamma = alpha**2`` always yields a valid
    optimum.  The solution pair is taken from ``ax_star`` and ``lambda_star``
    when given, otherwise computed by a high-accuracy reference run (zero
    start, gamma 1).
    """
    if (ax_star is None) != (lambda_star is None):
        raise ValueError("pass both ax_star and lambda_star, or neither")
    if ax_star is None:
        if rule is None:
            rule = TerminationRule(tol=1e-10, max_iter=200_000)
        ref = solve(spec, _tuner.StepSizePlan.fixed(1.0), init=None, rule=rule)
        ax_star, lambda_star = ref.ax, ref.lam
    ax = np.asarray(ax_star, dtype=float).ravel()
    lam = np.asarray(lambda_star, dtype=float).ravel()
    z0 = np.zeros(ax.size) if zeta0 is None else np.asarray(zeta0, dtype=float).ravel()
    if not (ax.size == lam.size == z0.size):
        raise ValueError("ax_star, lambda_star, and zeta0 must have one common length")

    ax_nrm2 = float(ax @ ax)
    lam_nrm2 = float(lam @ lam)
    den1 = float((ax - z0) @ lam)
    g1 = None if den1 == 0.0 else -lam_nrm2 / den1
    g2 = float((z0 - lam) @ ax) / ax_nrm2

    agree = (
        g1 is not None
        and abs(g1 - g2) <= 1e-6 * max(abs(g1), abs(g2), 1e-300)
    )
    contradiction = (g1 is None) or (g1 <= 0.0) or (g2 <= 0.0) or not agree

    coeffs = _tuner.build_coefficients(ax, lam, None if zeta0 is None else z0)
    alpha = _tuner.solve_quartic(coeffs)
    return ContradictionReport(
        gamma_dagger_primal=g1,
        gamma_dagger_dual=g2,
        daggers_agree=agree,
        contradiction=contradiction,
        alpha_star=alpha,
        gamma_star=alpha * alpha,
        ax_norm=math.sqrt(ax_nrm2),
        lam_norm=math.sqrt(lam_nrm2),
        inner=float(ax @ lam),
        zeta0_norm=float(np.linalg.norm(z0)),
    )
