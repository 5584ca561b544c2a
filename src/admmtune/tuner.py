"""Step-size plans, fixed and successively estimated, and the closed-form step.

The closed-form step ``gamma_general`` squares a positive root of the quartic
from :mod:`admmtune.quartic`; a run at it is a fixed plan started from the
vector the quartic was built for.  The successive route re-reads that formula
off the current iterates for the zero start, where it collapses to the ratio
``||lam|| / ||A x||``.  ``optimal_pair`` inverts the question and returns a
start vector and step size from which the solver's fixed-point iteration
lands on its fixed point in a single sweep.  ``contradiction_demo`` shows
why the quartic works in ``alpha = sqrt(gamma)``: matching the start against
either fixed-point view in ``gamma`` itself gives two step sizes that disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quartic
from .quartic import _finite_coefficient, _pair_coefficients, _solution_pair, build_coefficients

__all__ = [
    "FIXED",
    "ESTIMATED",
    "StepSizePlan",
    "OptimalPair",
    "gamma_zero_init",
    "gamma_general",
    "estimate_step",
    "optimal_pair",
    "ContradictionReport",
    "contradiction_demo",
]

FIXED = "fixed"
ESTIMATED = "estimated"

# iterate norms below this are treated as still-degenerate; keep the old gamma
_DEGENERATE_NORM = 1e-12
_FLOAT = np.dtype(float)


def _check_count(name, value):
    """Raise ValueError unless ``value`` is a nonnegative integer, Python or numpy, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer (not a bool), got {value!r}")


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
    freeze_after : int or None, keyword-only
        ESTIMATED only: stop updating once this many sweeps are done; a
        nonnegative integer (not a bool).  A penalty that keeps varying is
        proven to converge only once it stops changing (Boyd et al. 2011,
        section 3.4.1; He, Yang & Wang, JOTA 2000), so a run that needs the
        guarantee freezes it.
    """

    mode: str
    gamma0: float = 1.0
    freeze_after: int = field(default=None, kw_only=True)

    def __post_init__(self):
        if self.mode not in (FIXED, ESTIMATED):
            raise ValueError(f"unknown plan mode {self.mode!r}")
        _check_gamma("gamma0", self.gamma0)
        if self.freeze_after is not None:
            _check_count("freeze_after", self.freeze_after)

    @classmethod
    def fixed(cls, gamma: float) -> "StepSizePlan":
        return cls(mode=FIXED, gamma0=float(gamma))

    @classmethod
    def estimated(cls, gamma0: float = 1.0, *, freeze_after: int = None) -> "StepSizePlan":
        return cls(mode=ESTIMATED, gamma0=float(gamma0), freeze_after=freeze_after)

    def describe(self) -> str:
        if self.mode == FIXED:
            return f"fixed(gamma={self.gamma0:.6g})"
        frozen = "" if self.freeze_after is None else f", freeze_after={self.freeze_after}"
        return f"estimated(gamma0={self.gamma0:.6g}{frozen})"


def _check_beta(beta):
    """Raise ValueError unless ``beta`` and the step size ``beta**2`` are positive and finite."""
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    if not 0.0 < beta * beta < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {beta * beta}")


@dataclass(frozen=True)
class OptimalPair:
    """A start vector and step size that give one-sweep convergence.

    ``zeta0`` is the unscaled fixed-point vector to start from and the step
    size ``gamma`` is ``beta**2``.
    """

    beta: float
    zeta0: np.ndarray

    def __post_init__(self):
        _check_beta(self.beta)

    @property
    def gamma(self) -> float:
        return self.beta * self.beta


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


def contradiction_demo(ax_star, lambda_star, zeta0=None) -> ContradictionReport:
    """Contrast naive single-gamma matching with the quadratic substitution.

    Matching the starting vector directly against either fixed-point family
    gives two least-squares step sizes that in general disagree or come out
    nonpositive; the substitution ``gamma = alpha**2`` always yields a valid
    optimum.  ``ax_star`` and ``lambda_star`` are the solution pair (for a
    generated instance, from ``problems.compute_oracle``) and ``zeta0`` the
    start, None for the zero vector; their sizes and entries are checked as
    ``build_coefficients`` checks them.
    """
    ax, lam = _solution_pair(ax_star, lambda_star)
    coeffs = _pair_coefficients(ax, lam, zeta0)
    z0 = np.zeros(ax.size) if zeta0 is None else np.asarray(zeta0, dtype=float).ravel()

    ax_nrm2, lam_nrm2 = coeffs.a, -coeffs.e
    den1 = float((ax - z0) @ lam)
    g1 = None if den1 == 0.0 else -lam_nrm2 / den1
    g2 = float((z0 - lam) @ ax) / ax_nrm2

    agree = (
        g1 is not None
        and abs(g1 - g2) <= 1e-6 * max(abs(g1), abs(g2), 1e-300)
    )
    contradiction = (g1 is None) or (g1 <= 0.0) or (g2 <= 0.0) or not agree

    # the module attribute, as in gamma_general
    alpha = quartic.solve_quartic(coeffs)
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
        plan is frozen or the iterates are still degenerate (either norm
        below 1e-12).

    Raises
    ------
    ValueError
        If ``||A x||^2`` or ``||lam||^2`` is not finite (an overflowing or
        non-finite iterate).
    ArithmeticError
        If the estimate is not in (0, inf): the ratio of the two squared
        norms underflows or overflows, and ``solve`` could not rescale by it.
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
    gamma = alpha * alpha
    if not 0.0 < gamma < math.inf:
        raise ArithmeticError(f"estimated step size {gamma} is not positive and finite")
    return gamma


def optimal_pair(ax_star, lambda_star, beta: float) -> OptimalPair:
    """Start vector and step size from which one sweep reaches the fixed point.

    For any ``beta > 0`` the vector ``beta * ax_star + lambda_star / beta``
    is itself the fixed point of the sweep at ``gamma = beta**2``, so the
    iteration started there converges immediately; equivalently ``beta`` is
    a root of the step-size quartic built from this start.

    A zero ``lambda_star`` gives the one-sided start ``beta * ax_star`` and a
    zero ``ax_star`` gives ``lambda_star / beta``: the large- and small-step
    limits of the matched start, which approach its direction as ``beta``
    grows or shrinks.  The solution pair is checked as ``build_coefficients``
    checks it, except that either side may be zero.
    """
    beta = float(beta)
    _check_beta(beta)
    ax, lam = _solution_pair(ax_star, lambda_star)
    with np.errstate(over="ignore"):
        zeta0 = beta * ax + lam / beta
    if not np.all(np.isfinite(zeta0)):
        raise ValueError(f"beta * ax_star + lambda_star / beta overflows for beta = {beta!r}")
    return OptimalPair(beta=beta, zeta0=zeta0)
