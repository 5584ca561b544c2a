"""Step-size plans, fixed and successively estimated, and the closed-form step.

The closed-form step ``gamma_general`` squares a positive root of the quartic
from :mod:`admmtune.quartic`; a run at it is a fixed plan started from the
vector the quartic was built for.  The successive route re-reads that formula
off the current iterates for the zero start, where it collapses to the ratio
``||lam|| / ||A x||``.  ``optimal_pair`` inverts the question and returns a
start vector and step size from which the solver's fixed-point iteration
lands on its fixed point in a single sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quartic
from .quartic import _finite_coefficient, build_coefficients

__all__ = [
    "FIXED",
    "ESTIMATED",
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

# iterate norms below this are treated as still-degenerate; keep the old gamma
_DEGENERATE_NORM = 1e-12
_FLOAT = np.dtype(float)


def _check_gamma(name, value):
    """Raise ValueError unless the step size ``value`` is positive and finite with a finite reciprocal."""
    # the engine divides by gamma, so its reciprocal must be finite too
    if not (0.0 < value < math.inf and math.isfinite(1.0 / float(value))):
        raise ValueError(f"{name} must be positive and finite with a finite reciprocal, got {value}")


@dataclass(frozen=True)
class StepSizePlan:
    """How the solver picks its penalty parameter.

    Attributes
    ----------
    mode : str
        FIXED runs at ``gamma0`` throughout.  ESTIMATED starts at ``gamma0``
        and re-estimates from the iterates before every sweep after the
        first.
    gamma0 : float
        Starting penalty (default 1), positive and finite, with a finite
        reciprocal.
    update_threshold : float
        ESTIMATED only: relative change below which a new estimate is
        discarded and the current value kept (default 0, always update);
        nonnegative and finite.
    freeze_after : int or None
        ESTIMATED only: stop updating once this many sweeps are done; a
        nonnegative integer (not a bool).
    """

    mode: str
    gamma0: float = 1.0
    update_threshold: float = 0.0
    freeze_after: int = None

    def __post_init__(self):
        if self.mode not in (FIXED, ESTIMATED):
            raise ValueError(f"unknown plan mode {self.mode!r}")
        _check_gamma("gamma0", self.gamma0)
        if not (math.isfinite(self.update_threshold) and self.update_threshold >= 0.0):
            raise ValueError(
                f"update_threshold must be nonnegative and finite, got {self.update_threshold}")
        f = self.freeze_after
        if f is not None and (isinstance(f, bool) or not isinstance(f, (int, np.integer)) or f < 0):
            raise ValueError(f"freeze_after must be a nonnegative integer, got {f!r}")

    @classmethod
    def fixed(cls, gamma: float) -> "StepSizePlan":
        return cls(mode=FIXED, gamma0=float(gamma))

    @classmethod
    def estimated(cls, gamma0: float = 1.0, update_threshold: float = 0.0,
                  freeze_after: int = None) -> "StepSizePlan":
        return cls(mode=ESTIMATED, gamma0=float(gamma0),
                   update_threshold=float(update_threshold), freeze_after=freeze_after)

    def describe(self) -> str:
        if self.mode == FIXED:
            return f"fixed(gamma={self.gamma0:.6g})"
        frozen = "" if self.freeze_after is None else f", freeze_after={self.freeze_after}"
        return f"estimated(gamma0={self.gamma0:.6g}, threshold={self.update_threshold:.3g}{frozen})"


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
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        # written so that a NaN gap fails
        if not abs(self.gamma - self.beta * self.beta) <= 1e-12 * self.gamma:
            raise ValueError("gamma must equal beta**2")


def gamma_zero_init(ax_star, lambda_star) -> float:
    """Optimal step size for the zero start, ``||lambda_star|| / ||ax_star||``.

    This is the closed form the quartic reduces to when both mixed
    coefficients vanish, ``sqrt(-e) / sqrt(a)``.  Its input is checked as
    ``build_coefficients`` checks it: vectors of different sizes, a
    non-finite entry or a squared norm that overflows raise ValueError; a
    zero vector raises DegenerateProblemError.
    """
    c = build_coefficients(ax_star, lambda_star)
    return math.sqrt(-c.e) / math.sqrt(c.a)


def gamma_general(ax_star, lambda_star, zeta0=None) -> float:
    """Optimal step size for an arbitrary start, the square of the quartic root."""
    # the module attribute, so that a wrapper set on quartic.solve_quartic sees the call
    alpha = quartic.solve_quartic(build_coefficients(ax_star, lambda_star, zeta0))
    return alpha * alpha


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
        ``state.ax``, ``state.lam``, and ``state.gamma``.
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
    ax, lam = state.ax, state.lam
    # solve passes 1-D float64 arrays; anything else is converted first, so
    # an integer iterate is squared in floating point and cannot wrap around
    if not (type(ax) is np.ndarray and ax.ndim == 1 and ax.dtype is _FLOAT):
        ax = np.asarray(ax, dtype=float).ravel()
    if not (type(lam) is np.ndarray and lam.ndim == 1 and lam.dtype is _FLOAT):
        lam = np.asarray(lam, dtype=float).ravel()
    # the quartic's b = d = 0 case: a = ||A x||^2 and e = -||lam||^2 are its
    # whole input, checked as build_coefficients checks them; np.vdot raises
    # no floating-point flag, so an overflow needs no error context
    ax2 = float(np.vdot(ax, ax))
    lam2 = float(np.vdot(lam, lam))
    if not (math.isfinite(ax2) and math.isfinite(lam2)):
        _finite_coefficient("a", ax2)
        _finite_coefficient("e", -lam2)
    if math.sqrt(ax2) < _DEGENERATE_NORM or math.sqrt(lam2) < _DEGENERATE_NORM:
        return current
    # the biquadratic root (-e/a)**(1/4), with the bits solve_quartic returns
    alpha = (lam2 / ax2) ** 0.25
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
