"""Closed-form step-size selection via a depressed-quadratic quartic.

Choosing the penalty parameter that minimizes the distance from a starting
point ``zeta0`` to the solver's fixed point leads to a quartic polynomial

    p(alpha) = a*alpha**4 + b*alpha**3 + d*alpha + e

whose quadratic term is identically zero.  The coefficients come from four
inner products of the optimal primal image ``A @ x_star``, the optimal
multiplier ``lambda_star``, and ``zeta0``.  With ``a > 0`` and ``e < 0`` a
positive real root always exists, and the optimal step size is its square.

The roots are computed in closed form (Ferrari's method specialized to the
vanishing quadratic term) with a companion-matrix fallback for the branch
points of the radical formulas.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateProblemError",
    "QuarticCoefficients",
    "build_coefficients",
    "solve_quartic",
    "optimal_gamma",
]

# roots with |Im| below this (relative) are treated as real
_REAL_TOL = 1e-8
# Newton-polish a root while |p| exceeds this times the coefficient scale
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
    squared norm of the optimal multiplier, so ``a >= 0 >= e`` always.

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
        if self.a < 0.0:
            raise ValueError(f"coefficient a must be nonnegative, got {self.a}")
        if self.e > 0.0:
            raise ValueError(f"coefficient e must be nonpositive, got {self.e}")

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
        """Magnitude of the largest coefficient, used for residual tolerances."""
        return max(abs(self.a), abs(self.b), abs(self.d), abs(self.e))


def _require_finite(name, v):
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")


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
        If ``ax_star`` or ``lambda_star`` has a non-finite entry.
    DegenerateProblemError
        If ``ax_star`` or ``lambda_star`` is numerically zero.
    """
    ax = np.asarray(ax_star, dtype=float).ravel()
    lam = np.asarray(lambda_star, dtype=float).ravel()
    if ax.shape != lam.shape:
        raise ValueError(
            f"ax_star and lambda_star must have matching sizes, got {ax.size} and {lam.size}"
        )
    _require_finite("ax_star", ax)
    _require_finite("lambda_star", lam)
    ax_nrm2 = float(ax @ ax)
    lam_nrm2 = float(lam @ lam)
    if not ax_nrm2 > 0.0:
        raise DegenerateProblemError("ax_star is zero; the quartic has no positive root")
    if not lam_nrm2 > 0.0:
        raise DegenerateProblemError("lambda_star is zero; the quartic has no positive root")
    b = d = 0.0
    if zeta0 is not None:
        z = np.asarray(zeta0, dtype=float).ravel()
        if z.shape != ax.shape:
            raise ValueError(f"zeta0 must have size {ax.size}, got {z.size}")
        b = -float(ax @ z)
        d = float(lam @ z)
    return QuarticCoefficients(a=ax_nrm2, b=b, d=d, e=-lam_nrm2)


def _biquadratic_root(a: float, e: float) -> float:
    """Positive root of ``a*alpha**4 + e`` for ``a > 0 > e``: the b = d = 0 quartic."""
    return (-e / a) ** 0.25


def _ferrari_roots(a: float, b: float, d: float, e: float):
    """All four roots of a*x^4 + b*x^3 + d*x + e by radicals.

    Returns an empty list when the formulas hit a branch point (the caller
    falls back to a companion-matrix solve).
    """
    bd4ae = b * d - 4.0 * a * e
    u1 = 0.5 * math.sqrt(27.0) * (a * d * d + b * b * e)
    u2 = u1 + cmath.sqrt(complex(bd4ae**3 + u1 * u1))
    if u2 == 0:
        return []
    cbrt = u2 ** (1.0 / 3.0)
    u3 = (cbrt - bd4ae / cbrt) / (math.sqrt(3.0) * a)
    b2a = b / (2.0 * a)
    u4 = cmath.sqrt(b2a * b2a + u3)
    if abs(u4) <= 1e-14 * (1.0 + abs(b2a)):
        return []
    u5 = 2.0 * b2a * b2a - u3
    u6 = -(8.0 * b2a**3 + 8.0 * d / a) / (4.0 * u4)
    s1 = cmath.sqrt(u5 - u6)
    s2 = cmath.sqrt(u5 + u6)
    return [
        0.5 * (-b2a - u4 - s1),
        0.5 * (-b2a - u4 + s1),
        0.5 * (-b2a + u4 - s2),
        0.5 * (-b2a + u4 + s2),
    ]


def _companion_roots(a: float, b: float, d: float, e: float):
    """Eigenvalue fallback for the rare branch-point inputs."""
    return list(np.roots([a, b, 0.0, d, e]))


def _polish(alpha: float, c: QuarticCoefficients, scale: float) -> float:
    """Up to three Newton steps; keeps the best iterate seen."""
    best = alpha
    best_res = abs(c.poly(alpha))
    cur = alpha
    for _ in range(3):
        if best_res <= _POLISH_TOL * scale:
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

    Parameters
    ----------
    coefficients : QuarticCoefficients
        Must have ``a > 0`` and ``e < 0``, which guarantees at least one
        positive real root (p(0) < 0 and p grows like a*alpha**4).

    Returns
    -------
    float
        A positive root with ``|p(root)| <= 1e-9 * max(|a|,|b|,|d|,|e|)``.
        In the rare case of several positive roots, the one minimizing the
        distance objective ``coefficients.objective`` is returned.

    Raises
    ------
    ValueError
        If the sign conditions on a and e fail.
    ArithmeticError
        If no positive real root passes the residual check.
    """
    c = coefficients
    if not c.a > 0.0:
        raise ValueError(f"solve_quartic requires a > 0, got a={c.a}")
    if not c.e < 0.0:
        raise ValueError(f"solve_quartic requires e < 0, got e={c.e}")
    scale = c.scale()
    if c.b == 0.0 and c.d == 0.0:
        # biquadratic case: the radical formulas divide by zero here
        return _biquadratic_root(c.a, c.e)

    roots = _ferrari_roots(c.a, c.b, c.d, c.e)
    candidates = _positive_real(roots, c, scale)
    if not candidates:
        candidates = _positive_real(_companion_roots(c.a, c.b, c.d, c.e), c, scale)
    if not candidates:
        raise ArithmeticError(
            f"no positive real root passed validation for coefficients {c!r}"
        )
    if len(candidates) == 1:
        return candidates[0]
    return min(candidates, key=c.objective)


def _positive_real(roots, c: QuarticCoefficients, scale: float):
    """Filter complex roots to validated positive reals, merging duplicates."""
    out = []
    for r in roots:
        if abs(r.imag) > _REAL_TOL * (1.0 + abs(r.real)):
            continue
        alpha = r.real
        if alpha <= 0.0:
            continue
        alpha = _polish(alpha, c, scale)
        if alpha > 0.0 and abs(c.poly(alpha)) <= 1e-9 * scale:
            out.append(alpha)
    out.sort()
    merged = []
    for alpha in out:
        if merged and abs(alpha - merged[-1]) <= _MERGE_TOL * max(1.0, alpha):
            continue
        merged.append(alpha)
    return merged


def optimal_gamma(coefficients: QuarticCoefficients) -> float:
    """Optimal step size, the square of the selected quartic root."""
    alpha = solve_quartic(coefficients)
    return alpha * alpha
