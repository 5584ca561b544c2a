"""Closed-form step-size selection via a depressed-quadratic quartic.

Choosing the penalty parameter that minimizes the distance from a starting
point ``zeta0`` to the solver's fixed point leads to a quartic polynomial

    p(alpha) = a*alpha**4 + b*alpha**3 + d*alpha + e

whose quadratic term is identically zero.  The coefficients come from four
inner products of the optimal primal image ``A @ x_star``, the optimal
multiplier ``lambda_star``, and ``zeta0``.  With ``a > 0`` and ``e < 0`` a
positive real root always exists, and the optimal step size is its square.

From the zero start (b = d = 0) the root is ``(-e/a)**(1/4)``.  Every other
quartic is solved through the eigenvalues of its companion matrix, polished
by Newton steps and checked against the size of its own terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateProblemError",
    "QuarticCoefficients",
    "build_coefficients",
    "solve_quartic",
]

# roots with |Im| below this (relative) are treated as real
_REAL_TOL = 1e-8
# Newton-polish a root while |p| exceeds this times the size of its terms
_POLISH_TOL = 1e-12
# relative gap under which two positive roots are considered the same root
_MERGE_TOL = 1e-7


class DegenerateProblemError(ValueError):
    """An input vector that must be nonzero is (numerically) zero."""


@dataclass(frozen=True)
class QuarticCoefficients:
    """Coefficients of ``p(alpha) = a*alpha**4 + b*alpha**3 + d*alpha + e``.

    The ``alpha**2`` coefficient is identically zero for this family.
    ``a`` is the squared norm of the optimal primal image and ``-e`` the
    squared norm of the optimal multiplier.  Only ``a > 0 > e`` is admitted:
    then p(0) < 0 and p grows like a*alpha**4, so a positive root exists.

    Attributes
    ----------
    a, b, d, e : float
        Polynomial coefficients.
    """

    a: float
    b: float
    d: float
    e: float

    def __post_init__(self):
        for name in ("a", "b", "d", "e"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"coefficient {name} must be finite, got {v!r}")
        if not self.a > 0.0:
            raise ValueError(f"coefficient a must be positive, got {self.a}")
        if not self.e < 0.0:
            raise ValueError(f"coefficient e must be negative, got {self.e}")

    def poly(self, alpha: float) -> float:
        """Evaluate p(alpha)."""
        return ((self.a * alpha + self.b) * alpha * alpha + self.d) * alpha + self.e

    def poly_deriv(self, alpha: float) -> float:
        """Evaluate p'(alpha)."""
        return (4.0 * self.a * alpha + 3.0 * self.b) * alpha * alpha + self.d

    def objective(self, alpha: float) -> float:
        """Distance-to-fixed-point objective whose critical points are roots of p.

        h(alpha) = a*alpha**2 + 2*b*alpha - 2*d/alpha - e/alpha**2, alpha > 0.
        """
        if alpha <= 0.0:
            raise ValueError("objective is defined for alpha > 0")
        return (self.a * alpha + 2.0 * self.b) * alpha - (2.0 * self.d + self.e / alpha) / alpha

    def scale(self) -> float:
        """Magnitude of the largest coefficient."""
        return max(abs(self.a), abs(self.b), abs(self.d), abs(self.e))


def _require_finite(name, v):
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")


def _finite_coefficient(name, value):
    """``value`` as a float; ValueError naming coefficient ``name`` unless it is finite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"coefficient {name} must be finite, got {value!r}")
    return value


def _solution_pair(ax_star, lambda_star):
    """``ax_star`` and ``lambda_star`` as flat float arrays; ValueError unless equal-sized and finite."""
    ax = np.asarray(ax_star, dtype=float).ravel()
    lam = np.asarray(lambda_star, dtype=float).ravel()
    if ax.shape != lam.shape:
        raise ValueError(
            f"ax_star and lambda_star must have matching sizes, got {ax.size} and {lam.size}"
        )
    _require_finite("ax_star", ax)
    _require_finite("lambda_star", lam)
    return ax, lam


def build_coefficients(ax_star, lambda_star, zeta0=None) -> QuarticCoefficients:
    """Assemble the quartic for a given solution pair and starting point.

    Parameters
    ----------
    ax_star : array_like
        Image of the optimal primal point under the constraint map, ``A @ x_star``.
    lambda_star : array_like
        Optimal multiplier, same shape as ``ax_star``.
    zeta0 : array_like or None
        Starting point of the fixed-point iteration.  None means the zero
        vector, which makes b = d = 0.

    Returns
    -------
    QuarticCoefficients
        a = ||ax_star||^2, b = -<ax_star, zeta0>, d = <lambda_star, zeta0>,
        e = -||lambda_star||^2.

    Raises
    ------
    ValueError
        If ``ax_star``, ``lambda_star`` or ``zeta0`` has a non-finite
        entry, or a squared norm or an inner product with ``zeta0``
        overflows.
    DegenerateProblemError
        If ``ax_star`` or ``lambda_star`` is numerically zero.
    """
    return _pair_coefficients(*_solution_pair(ax_star, lambda_star), zeta0)


def _pair_coefficients(ax, lam, zeta0):
    """``build_coefficients`` for a pair that ``_solution_pair`` returned."""
    # np.vdot raises no floating-point flag, so an overflowing inner product
    # is reported here as the coefficient it makes, never as a numpy warning
    a = _finite_coefficient("a", np.vdot(ax, ax))
    e = _finite_coefficient("e", -np.vdot(lam, lam))
    if not a > 0.0:
        raise DegenerateProblemError("ax_star is zero; the quartic has no positive root")
    if not e < 0.0:
        raise DegenerateProblemError("lambda_star is zero; the quartic has no positive root")
    b = d = 0.0
    if zeta0 is not None:
        z = np.asarray(zeta0, dtype=float).ravel()
        if z.shape != ax.shape:
            raise ValueError(f"zeta0 must have size {ax.size}, got {z.size}")
        _require_finite("zeta0", z)
        b = _finite_coefficient("b", -np.vdot(ax, z))
        d = _finite_coefficient("d", np.vdot(lam, z))
    return QuarticCoefficients(a=a, b=b, d=d, e=e)


@np.errstate(over="ignore")
def _companion_roots(a: float, b: float, d: float, e: float):
    """All four roots of a*x^4 + b*x^3 + d*x + e as ``np.roots`` finds them; empty on overflow."""
    companion = np.diag(np.ones(3), -1)
    companion[0] = -np.array([b, 0.0, d, e]) / a
    try:
        return list(np.linalg.eigvals(companion))
    except np.linalg.LinAlgError:
        return []


def _terms(c: QuarticCoefficients, alpha: float) -> float:
    """Size ``a*alpha**4 + |b|*alpha**3 + |d|*alpha + |e|`` of the terms that cancel in p(alpha)."""
    return ((c.a * alpha + abs(c.b)) * alpha * alpha + abs(c.d)) * alpha + abs(c.e)


def _polish(alpha: float, c: QuarticCoefficients) -> float:
    """Up to three Newton steps; keeps the best iterate seen."""
    best = alpha
    best_res = abs(c.poly(alpha))
    cur = alpha
    for _ in range(3):
        if best_res <= _POLISH_TOL * _terms(c, best):
            break
        deriv = c.poly_deriv(cur)
        if deriv == 0.0 or not math.isfinite(deriv):
            break
        cur = cur - c.poly(cur) / deriv
        if not math.isfinite(cur) or cur <= 0.0:
            break
        res = abs(c.poly(cur))
        if res < best_res:
            best, best_res = cur, res
    return best


def solve_quartic(coefficients: QuarticCoefficients) -> float:
    """Positive real root of the step-size quartic.

    With ``b = d = 0`` the root is ``(-e/a)**(1/4)``.  Otherwise each positive
    real eigenvalue of the companion matrix is Newton-polished and kept if it
    passes the residual check below.

    Parameters
    ----------
    coefficients : QuarticCoefficients
        Has ``a > 0`` and ``e < 0`` by construction, which guarantees at
        least one positive real root.

    Returns
    -------
    float
        A positive root with ``|p(root)| <= 1e-9 * m``, where
        ``m = a*root**4 + |b|*root**3 + |d|*root + |e|`` is the size of the
        terms that cancel in ``p(root)``.
        In the rare case of several positive roots, the one minimizing the
        distance objective ``coefficients.objective`` is returned.

    Raises
    ------
    ArithmeticError
        If no positive real root passes the residual check.
    """
    c = coefficients
    if c.b == 0.0 and c.d == 0.0:
        # biquadratic case a*alpha**4 + e, the zero start's closed form
        return (-c.e / c.a) ** 0.25

    candidates = _positive_real(_companion_roots(c.a, c.b, c.d, c.e), c)
    if not candidates:
        raise ArithmeticError(
            f"no positive real root passed validation for coefficients {c!r}"
        )
    return min(candidates, key=c.objective)


def _positive_real(roots, c: QuarticCoefficients):
    """Filter complex roots to validated positive reals, merging duplicates."""
    out = []
    for r in roots:
        if abs(r.imag) > _REAL_TOL * (1.0 + abs(r.real)):
            continue
        alpha = float(r.real)
        if alpha <= 0.0:
            continue
        alpha = _polish(alpha, c)
        # p(alpha) is judged against its own terms, not the coefficients:
        # a small root's terms can be far below the largest coefficient
        if alpha > 0.0 and abs(c.poly(alpha)) <= 1e-9 * _terms(c, alpha):
            out.append(alpha)
    out.sort()
    merged = []
    for alpha in out:
        if merged and abs(alpha - merged[-1]) <= _MERGE_TOL * max(1.0, alpha):
            continue
        merged.append(alpha)
    return merged
