"""Step-size plans: fixed, successively estimated, and closed-form optimal.

The closed-form route squares a positive root of the quartic from
:mod:`admmtune.quartic`; the successive route re-reads that formula off the
current iterates for the zero start, where it collapses to the ratio
``||lam|| / ||A x||``.  ``optimal_pair`` inverts the question and returns a
start vector and step size from which the solver's fixed-point iteration
lands on its fixed point in a single sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quartic import (
    DegenerateProblemError,
    _biquadratic_root,
    _require_finite,
    build_coefficients,
    optimal_gamma,
    solve_quartic,
)

__all__ = [
    "FIXED",
    "ESTIMATED",
    "ORACLE",
    "StepSizePlan",
    "OptimalPair",
    "gamma_zero_init",
    "gamma_general",
    "estimate_step",
    "optimal_pair",
    "asymptotic_pair",
]

FIXED = "fixed"
ESTIMATED = "estimated"
ORACLE = "oracle"

# iterate norms below this are treated as still-degenerate; keep the old gamma
_DEGENERATE_NORM = 1e-12


@dataclass(frozen=True)
class StepSizePlan:
    """How the solver picks its penalty parameter.

    Attributes
    ----------
    mode : str
        FIXED runs at ``gamma0`` throughout.  ESTIMATED starts at ``gamma0``
        and re-estimates from the iterates before every sweep after the
        first.  ORACLE computes the optimal value once from a known solution
        pair before the run starts.
    gamma0 : float
        Starting penalty (default 1), positive and finite.
    update_threshold : float
        ESTIMATED only: relative change below which a new estimate is
        discarded and the current value kept (default 0, always update);
        nonnegative and finite.
    freeze_after : int or None
        ESTIMATED only: stop updating once this many sweeps are done; a
        nonnegative integer (not a bool).
    ax_star, lambda_star, zeta0 : ndarray or None
        ORACLE only: the solution pair, and the start vector the optimum is
        computed for (None means the zero start).
    """

    mode: str
    gamma0: float = 1.0
    update_threshold: float = 0.0
    freeze_after: int = None
    ax_star: np.ndarray = None
    lambda_star: np.ndarray = None
    zeta0: np.ndarray = None

    def __post_init__(self):
        if self.mode not in (FIXED, ESTIMATED, ORACLE):
            raise ValueError(f"unknown plan mode {self.mode!r}")
        if not (math.isfinite(self.gamma0) and self.gamma0 > 0.0):
            raise ValueError(f"gamma0 must be positive and finite, got {self.gamma0}")
        if not (math.isfinite(self.update_threshold) and self.update_threshold >= 0.0):
            raise ValueError(
                f"update_threshold must be nonnegative and finite, got {self.update_threshold}")
        f = self.freeze_after
        if f is not None and (isinstance(f, bool) or not isinstance(f, (int, np.integer)) or f < 0):
            raise ValueError(f"freeze_after must be a nonnegative integer, got {f!r}")
        if self.mode == ORACLE and (self.ax_star is None or self.lambda_star is None):
            raise ValueError("an oracle plan needs ax_star and lambda_star")

    @classmethod
    def fixed(cls, gamma: float) -> "StepSizePlan":
        return cls(mode=FIXED, gamma0=float(gamma))

    @classmethod
    def estimated(cls, gamma0: float = 1.0, update_threshold: float = 0.0,
                  freeze_after: int = None) -> "StepSizePlan":
        return cls(mode=ESTIMATED, gamma0=float(gamma0),
                   update_threshold=float(update_threshold), freeze_after=freeze_after)

    @classmethod
    def oracle(cls, ax_star, lambda_star, zeta0=None) -> "StepSizePlan":
        return cls(
            mode=ORACLE,
            ax_star=np.asarray(ax_star, dtype=float).ravel(),
            lambda_star=np.asarray(lambda_star, dtype=float).ravel(),
            zeta0=None if zeta0 is None else np.asarray(zeta0, dtype=float).ravel(),
        )

    def describe(self) -> str:
        if self.mode == FIXED:
            return f"fixed(gamma={self.gamma0:.6g})"
        if self.mode == ESTIMATED:
            frozen = "" if self.freeze_after is None else f", freeze_after={self.freeze_after}"
            return f"estimated(gamma0={self.gamma0:.6g}, threshold={self.update_threshold:.3g}{frozen})"
        start = "zero" if self.zeta0 is None else "given"
        return f"oracle(zeta0={start})"


@dataclass(frozen=True)
class OptimalPair:
    """A start vector and step size that give one-sweep convergence.

    ``zeta0`` is the unscaled fixed-point vector to start from and ``gamma``
    always equals ``beta**2``.
    """

    beta: float
    zeta0: np.ndarray
    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if abs(self.gamma - self.beta * self.beta) > 1e-12 * self.gamma:
            raise ValueError("gamma must equal beta**2")


def gamma_zero_init(ax_star, lambda_star) -> float:
    """Optimal step size for the zero start, ``||lambda_star|| / ||ax_star||``.

    This is the closed form the quartic reduces to when both mixed
    coefficients vanish.  A non-finite entry in either vector raises
    ValueError.
    """
    ax = np.asarray(ax_star, dtype=float).ravel()
    lam = np.asarray(lambda_star, dtype=float).ravel()
    _require_finite("ax_star", ax)
    _require_finite("lambda_star", lam)
    ax_nrm = float(np.linalg.norm(ax))
    lam_nrm = float(np.linalg.norm(lam))
    if ax_nrm == 0.0:
        raise DegenerateProblemError("ax_star is zero; the optimal step size is undefined")
    if lam_nrm == 0.0:
        raise DegenerateProblemError("lambda_star is zero; the optimal step size is undefined")
    return lam_nrm / ax_nrm


def gamma_general(ax_star, lambda_star, zeta0=None) -> float:
    """Optimal step size for an arbitrary start, via the quartic root."""
    return optimal_gamma(build_coefficients(ax_star, lambda_star, zeta0))


def estimate_step(state, plan: StepSizePlan) -> float:
    """Next step size from the current iterates under an ESTIMATED plan.

    The estimate is optimal for the zero start, ``||lam|| / ||A x||``: two
    dot products, ``a = ||A x||^2`` and ``e = -||lam||^2``, and the
    biquadratic root ``alpha = (-e/a)**(1/4)``; the estimate is
    ``alpha * alpha``, the same bits ``gamma_general`` returns.

    Parameters
    ----------
    state : SolverState
        Must have completed at least one sweep (``state.k >= 1``).  Reads
        ``state.ax`` (falling back to ``state.x`` when the constraint map is
        the identity and ``ax`` was never filled), ``state.lam``, and
        ``state.gamma``.
    plan : StepSizePlan
        Mode must be ESTIMATED.

    Returns
    -------
    float
        The re-estimated step size, or ``state.gamma`` unchanged when the
        plan is frozen, the iterates are still degenerate (either norm below
        1e-12), or the relative change is within ``plan.update_threshold``.

    Raises
    ------
    ValueError
        If ``||A x||^2`` or ``||lam||^2`` is not finite (an overflowing or
        non-finite iterate).
    """
    if plan.mode != ESTIMATED:
        raise ValueError(f"estimate_step needs an ESTIMATED plan, got mode {plan.mode!r}")
    if state.k < 1:
        raise ValueError("estimate_step needs at least one completed sweep")
    current = float(state.gamma)
    if plan.freeze_after is not None and state.k >= plan.freeze_after:
        return current
    ax = np.asarray(state.ax if state.ax is not None else state.x, dtype=float).ravel()
    lam = np.asarray(state.lam, dtype=float).ravel()
    ax2 = float(ax @ ax)
    lam2 = float(lam @ lam)
    if math.sqrt(ax2) < _DEGENERATE_NORM or math.sqrt(lam2) < _DEGENERATE_NORM:
        return current
    # the quartic's b = d = 0 case: a = ||A x||^2 and e = -||lam||^2 are
    # its whole input, checked as QuarticCoefficients checks them
    if not math.isfinite(ax2):
        raise ValueError(f"coefficient a must be finite, got {ax2!r}")
    if not math.isfinite(lam2):
        raise ValueError(f"coefficient e must be finite, got {-lam2!r}")
    alpha = _biquadratic_root(ax2, -lam2)
    new = alpha * alpha
    if plan.update_threshold > 0.0 and abs(new - current) <= plan.update_threshold * current:
        return current
    return new


def optimal_pair(ax_star, lambda_star, beta: float) -> OptimalPair:
    """Start vector and step size from which one sweep reaches the fixed point.

    For any ``beta > 0`` the vector ``beta * ax_star + lambda_star / beta``
    is itself the fixed point of the sweep at ``gamma = beta**2``, so the
    iteration started there converges immediately; equivalently ``beta`` is
    a root of the step-size quartic built from this start.
    """
    beta = float(beta)
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    ax = np.asarray(ax_star, dtype=float).ravel()
    lam = np.asarray(lambda_star, dtype=float).ravel()
    if ax.shape != lam.shape:
        raise ValueError(f"ax_star and lambda_star must have matching sizes, got {ax.size} and {lam.size}")
    return OptimalPair(beta=beta, zeta0=beta * ax + lam / beta, gamma=beta * beta)


def asymptotic_pair(side: str, vector, beta: float) -> OptimalPair:
    """Large- or small-step limit of ``optimal_pair`` recentered to stay finite.

    As the step size grows the optimal start vector is dominated by its
    primal part ``beta * ax_star``; as it shrinks, by its dual part
    ``lambda_star / beta``.  This returns the corresponding one-sided start.

    Parameters
    ----------
    side : str
        "primal" scales the given vector by ``beta``; "dual" divides by it.
    vector : array_like
        ``ax_star`` for the primal side, ``lambda_star`` for the dual side.
    beta : float
        Positive root parameter; the step size is its square.
    """
    beta = float(beta)
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    v = np.asarray(vector, dtype=float).ravel()
    if side == "primal":
        return OptimalPair(beta=beta, zeta0=beta * v, gamma=beta * beta)
    if side == "dual":
        return OptimalPair(beta=beta, zeta0=v / beta, gamma=beta * beta)
    raise ValueError(f"side must be 'primal' or 'dual', got {side!r}")
