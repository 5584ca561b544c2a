"""Proximal operators in two parameterizations, with translations between them.

The classical operator of a convex function ``f`` at penalty ``gamma > 0`` is

    prox(v, gamma) = argmin_z  gamma * f(z) + 0.5 * ||z - v||^2.

This module also supports a right-scaled parameterization where the parameter
multiplies the argument instead of the function value:

    prox(v, rho) = argmin_z  f(rho * z) + 0.5 * ||z - v||^2,   rho != 0.

Both forms carry the same information and translate into each other exactly;
the right-scaled form composes cleanly with the conjugate through the Moreau
identity ``prox_f(v, rho) + prox_fstar(v, 1/rho) = v``, which is how
``moreau_complement`` produces conjugate operators without ever touching the
conjugate function itself.

``catalog_prox`` builds classical handles for a collection of standard
functions.  The quadratic entries eigendecompose their matrix once, when the
handle is built, and then solve at any penalty with two matrix-vector
products.  A wide ``lstsq`` (fewer rows than columns) decomposes the small
Gram matrix ``A A^T`` and folds its eigenbasis into ``A``, so each solve is
two passes over one m x n matrix.  ``affine_set``, whose system does not depend on the penalty,
Cholesky-factors it once and then solves with one LAPACK call per
evaluation.  Handles hold only read-only arrays and are safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigh
from scipy.linalg import cho_factor, get_lapack_funcs, solveh_banded, svd, svdvals

__all__ = [
    "CLASSICAL",
    "NEW",
    "ProxHandle",
    "ConjugatePair",
    "translate_classical_to_new",
    "translate_new_to_classical",
    "moreau_complement",
    "catalog_prox",
    "PROX_KINDS",
]

CLASSICAL = "classical"
NEW = "new"

_RANK_TOL = 1e-10
# smallest accepted eigenvalue of a shifted system: a subnormal pivot
# overflows the division it feeds
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class ProxHandle:
    """A proximal operator together with its parameter convention.

    Attributes
    ----------
    evaluate : callable
        ``evaluate(v, t) -> ndarray``.  For convention CLASSICAL the
        parameter is the penalty ``gamma > 0``; for NEW it is the argument
        scale ``rho != 0``.
    convention : str
        Either ``CLASSICAL`` or ``NEW``.
    dim : int
        Length of the (flattened) argument vector.
    """

    evaluate: callable
    convention: str
    dim: int

    def __post_init__(self):
        if self.convention not in (CLASSICAL, NEW):
            raise ValueError(f"unknown convention {self.convention!r}")
        if not isinstance(self.dim, int) or self.dim <= 0:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")

    def __call__(self, v, t):
        v = np.asarray(v, dtype=float).ravel()
        if v.size != self.dim:
            raise ValueError(f"expected a vector of length {self.dim}, got {v.size}")
        t = float(t)
        if not np.isfinite(t):
            raise ValueError(f"parameter must be finite, got {t}")
        return self.evaluate(v, t)


@dataclass(frozen=True)
class ConjugatePair:
    """A right-scaled operator bundled with its convex-conjugate counterpart.

    Satisfies ``primal(v, rho) + conjugate(v, 1/rho) == v`` for every v and
    every ``rho != 0``.
    """

    primal: ProxHandle
    conjugate: ProxHandle

    def __post_init__(self):
        if self.primal.convention != NEW or self.conjugate.convention != NEW:
            raise ValueError("both handles of a ConjugatePair must use the NEW convention")
        if self.primal.dim != self.conjugate.dim:
            raise ValueError("primal and conjugate handles must share a dimension")

    @classmethod
    def from_primal(cls, primal: ProxHandle) -> "ConjugatePair":
        """Derive the conjugate operator through the Moreau identity."""
        return cls(primal=primal, conjugate=moreau_complement(primal))


def translate_classical_to_new(handle: ProxHandle) -> ProxHandle:
    """Re-express a classical handle in the right-scaled convention.

    Uses ``prox_new(v, rho) = (1/rho) * prox_classical(rho*v, rho**2)``.
    The returned handle rejects ``rho == 0``.
    """
    if handle.convention != CLASSICAL:
        raise ValueError(f"expected a {CLASSICAL} handle, got {handle.convention}")

    def evaluate(v, rho):
        if rho == 0.0:
            raise ValueError("right-scaled parameter rho must be nonzero")
        return handle.evaluate(rho * v, rho * rho) / rho

    return ProxHandle(evaluate=evaluate, convention=NEW, dim=handle.dim)


def translate_new_to_classical(handle: ProxHandle) -> ProxHandle:
    """Re-express a right-scaled handle in the classical convention.

    Uses ``prox_classical(v, gamma) = sqrt(gamma) * prox_new(v/sqrt(gamma), sqrt(gamma))``.
    The returned handle rejects ``gamma <= 0``.
    """
    if handle.convention != NEW:
        raise ValueError(f"expected a {NEW} handle, got {handle.convention}")

    def evaluate(v, gamma):
        if not gamma > 0.0:
            raise ValueError(f"penalty gamma must be positive, got {gamma}")
        s = np.sqrt(gamma)
        return s * handle.evaluate(v / s, s)

    return ProxHandle(evaluate=evaluate, convention=CLASSICAL, dim=handle.dim)


def moreau_complement(handle: ProxHandle) -> ProxHandle:
    """Right-scaled operator of the convex conjugate.

    For a NEW-convention handle of ``f`` this returns the NEW-convention
    handle of ``f*`` via ``prox_fstar(v, sigma) = v - prox_f(v, 1/sigma)``.
    """
    if handle.convention != NEW:
        raise ValueError(f"expected a {NEW} handle, got {handle.convention}")

    def evaluate(v, sigma):
        if sigma == 0.0:
            raise ValueError("right-scaled parameter sigma must be nonzero")
        return v - handle.evaluate(v, 1.0 / sigma)

    return ProxHandle(evaluate=evaluate, convention=NEW, dim=handle.dim)


def _shifted_solver(G):
    """Return ``solve(a, b, r) = (a*I + b*G)^-1 r`` for a symmetric ``G``.

    ``G`` is eigendecomposed once, ``G = U diag(s) U^T``, so a solve at any
    ``(a, b)`` costs two matrix-vector products and builds no factorization.
    The eigenpairs are read-only, so ``solve`` may be shared across threads.
    ``solve`` raises ValueError when an eigenvalue of ``a*I + b*G`` is not
    above the smallest normal float.
    """
    s, U = eigh(G)
    s.setflags(write=False)
    U.setflags(write=False)

    def solve(a, b, r):
        # s is sorted ascending, so a + b*s is smallest at one of its ends;
        # an empty s (a point constraint leaves a 0x0 reduced Hessian) passes
        if s.size and not (a + b * s[0] > _TINY and a + b * s[-1] > _TINY):
            raise ValueError(
                f"a*I + b*G is not positive definite above the smallest normal float at a={a}, b={b}")
        return U @ ((U.T @ r) / (a + b * s))

    return solve


def _wide_gram_solver(A, d):
    """Return ``solve(a, b, r) -> (x, t)`` with ``x = (a*I + b*A^T A)^-1 r`` for a wide ``A``.

    ``A A^T = U diag(s) U^T`` is eigendecomposed once and the m x m
    eigenbasis is folded into ``W = U^T A``.  By the matrix-inversion lemma
    ``x = (r - b W^T t) / a`` with ``t = (W r) / (a + b s)``: two passes over
    the one m x n matrix ``W`` and none over ``U``, which is dropped.  Since
    ``A x = U t``, the residual of a data vector ``d`` has the norm of
    ``t - U^T d``; the second return value is ``U^T d`` for the ``d`` given
    here.  ``W`` and ``s`` are read-only, so ``solve`` may be shared across
    threads.  ``solve`` raises ValueError unless ``a`` and every eigenvalue
    of ``a*I + b*A^T A`` are above the smallest normal float.
    """
    s, U = eigh(A @ A.T)
    W = U.T @ A
    ud = U.T @ d
    for v in (s, W, ud):
        v.setflags(write=False)

    def solve(a, b, r):
        # s is sorted ascending, so a + b*s is smallest at one of its ends
        if not (a > _TINY and (not s.size or (a + b * s[0] > _TINY and a + b * s[-1] > _TINY))):
            raise ValueError(
                f"a*I + b*A^T A is not positive definite above the smallest normal float at a={a}, b={b}")
        t = (W @ r) / (a + b * s)
        return (r - b * (W.T @ t)) / a, t

    return solve, ud


def _cholesky_solver(M):
    """Return ``solve(r) = M^-1 r`` for a symmetric positive definite ``M``.

    ``M`` is Cholesky-factored once; each solve is one LAPACK ``potrs`` call
    on the read-only factor, the same call ``scipy.linalg.cho_solve`` makes
    after its per-call argument checks.  ``solve`` may be shared across
    threads.  It raises ValueError when LAPACK reports an illegal argument.
    """
    factor, lower = cho_factor(M)
    factor.setflags(write=False)
    potrs, = get_lapack_funcs(("potrs",), (factor,))

    def solve(r):
        x, info = potrs(factor, r, lower=lower)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK potrs")
        return x

    return solve


def _require_positive(gamma):
    if not gamma > 0.0:
        raise ValueError(f"penalty gamma must be positive, got {gamma}")


def _check_full_row_rank(s, what):
    """Reject a matrix whose singular values ``s`` show a deficient row rank."""
    if s.size == 0 or s[-1] < _RANK_TOL * s[0] or s[0] == 0.0:
        raise ValueError(f"{what} is rank deficient (min/max singular value ratio below {_RANK_TOL})")


def _soft_threshold(v, t):
    # exact zero on ties |v| == t
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _entry_l1(dim, weight=1.0):
    weight = float(weight)
    if weight < 0.0:
        raise ValueError(f"weight must be nonnegative, got {weight}")

    def evaluate(v, gamma):
        _require_positive(gamma)
        return _soft_threshold(v, gamma * weight)

    return ProxHandle(evaluate, CLASSICAL, int(dim))


def _entry_nonneg(dim):
    def evaluate(v, gamma):
        _require_positive(gamma)
        return np.maximum(v, 0.0)

    return ProxHandle(evaluate, CLASSICAL, int(dim))


def _entry_box(dim, lower, upper):
    dim = int(dim)
    lo = np.broadcast_to(np.asarray(lower, dtype=float), (dim,)).copy()
    hi = np.broadcast_to(np.asarray(upper, dtype=float), (dim,)).copy()
    if np.any(lo > hi):
        raise ValueError("box bounds must satisfy lower <= upper elementwise")

    def evaluate(v, gamma):
        _require_positive(gamma)
        return np.clip(v, lo, hi)

    return ProxHandle(evaluate, CLASSICAL, dim)


def _entry_affine_set(A, b):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if A.ndim != 2 or A.shape[0] != b.size:
        raise ValueError(f"need A (p, n) and b (p,), got {A.shape} and {b.shape}")
    _check_full_row_rank(svdvals(A), "affine-set matrix A")
    gram_solve = _cholesky_solver(A @ A.T)

    def evaluate(v, gamma):
        _require_positive(gamma)
        return v - A.T @ gram_solve(A @ v - b)

    return ProxHandle(evaluate, CLASSICAL, A.shape[1])


def _entry_quad_affine(P, q=None, A=None, b=None):
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"P must be square, got shape {P.shape}")
    n = P.shape[0]
    asym = np.max(np.abs(P - P.T))
    if asym > 1e-10 * max(1.0, np.max(np.abs(P))):
        raise ValueError(f"P must be symmetric (asymmetry {asym:.3e})")
    q = np.zeros(n) if q is None else np.asarray(q, dtype=float).ravel()
    if q.size != n:
        raise ValueError(f"q must have length {n}, got {q.size}")
    if A is None:
        if b is not None:
            raise ValueError("b given without A")
        solve = _shifted_solver(P)

        def evaluate(v, gamma):
            _require_positive(gamma)
            return solve(1.0, gamma, v - gamma * q)

        return ProxHandle(evaluate, CLASSICAL, n)

    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if A.ndim != 2 or A.shape[1] != n or A.shape[0] != b.size:
        raise ValueError(f"need A (p, {n}) and b (p,), got {A.shape} and {b.shape}")
    U_a, sv, Vt = svd(A)
    _check_full_row_rank(sv, "constraint matrix A")
    p = A.shape[0]
    # x = x0 + N y with x0 = pinv(A) b and N an orthonormal basis of null(A);
    # since N^T x0 = 0, the prox reduces to (I + gamma N^T P N) y = N^T (v - gamma (q + P x0))
    x0 = Vt[:p].T @ ((U_a.T @ b) / sv)
    N = Vt[p:].T
    c = q + P @ x0
    solve = _shifted_solver(N.T @ P @ N)

    def evaluate(v, gamma):
        _require_positive(gamma)
        return x0 + N @ solve(1.0, gamma, N.T @ (v - gamma * c))

    return ProxHandle(evaluate, CLASSICAL, n)


def _entry_lstsq(A, b):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if A.ndim != 2 or A.shape[0] != b.size:
        raise ValueError(f"need A (m, n) and b (m,), got {A.shape} and {b.shape}")
    m, n = A.shape
    atb = A.T @ b
    if m >= n:
        solve = _shifted_solver(A.T @ A)

        def evaluate(v, gamma):
            _require_positive(gamma)
            return solve(1.0, gamma, v + gamma * atb)

    else:
        solve, _ = _wide_gram_solver(A, b)

        def evaluate(v, gamma):
            _require_positive(gamma)
            return solve(1.0, gamma, v + gamma * atb)[0]

    return ProxHandle(evaluate, CLASSICAL, n)


def _entry_huber(dim, delta=1.0, weight=1.0):
    delta = float(delta)
    weight = float(weight)
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if weight < 0.0:
        raise ValueError(f"weight must be nonnegative, got {weight}")

    def evaluate(v, gamma):
        _require_positive(gamma)
        t = gamma * weight
        quad = v / (1.0 + t)
        lin = v - t * delta * np.sign(v)
        return np.where(np.abs(v) <= delta * (1.0 + t), quad, lin)

    return ProxHandle(evaluate, CLASSICAL, int(dim))


def _difference_apply(x):
    return x[1:] - x[:-1]


def _difference_apply_t(w, n):
    out = np.zeros(n)
    out[:-1] -= w
    out[1:] += w
    return out


def _tridiag_banded(n, gamma):
    """Upper banded form of I + gamma * D^T D for the first-difference D."""
    ab = np.zeros((2, n))
    ab[1, :] = 1.0 + 2.0 * gamma
    ab[1, 0] = 1.0 + gamma
    ab[1, -1] = 1.0 + gamma
    ab[0, 1:] = -gamma
    return ab


def _entry_tv_quad(n, target=None):
    n = int(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    u = np.zeros(n - 1) if target is None else np.asarray(target, dtype=float).ravel()
    if u.size != n - 1:
        raise ValueError(f"target must have length {n - 1}, got {u.size}")

    # O(n) per call with no factorization kept, so nothing grows with the
    # number of distinct penalties
    shift = _difference_apply_t(u, n)

    def evaluate(v, gamma):
        _require_positive(gamma)
        return solveh_banded(_tridiag_banded(n, gamma), v + gamma * shift)

    return ProxHandle(evaluate, CLASSICAL, n)


def _entry_logdet_quad(n, S=None):
    n = int(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if S is None:
        S = np.zeros((n, n))
    else:
        S = np.asarray(S, dtype=float)
        if S.shape != (n, n):
            raise ValueError(f"S must be ({n}, {n}), got {S.shape}")
        if np.max(np.abs(S - S.T)) > 1e-10 * max(1.0, np.max(np.abs(S))):
            raise ValueError("S must be symmetric")

    def evaluate(v, gamma):
        _require_positive(gamma)
        V = v.reshape(n, n)
        M = 0.5 * (V + V.T) - gamma * S
        w, Q = np.linalg.eigh(M)
        xi = 0.5 * (w + np.sqrt(w * w + 4.0 * gamma))
        X = (Q * xi) @ Q.T
        return (0.5 * (X + X.T)).ravel()

    return ProxHandle(evaluate, CLASSICAL, n * n)


def catalog_prox(kind: str, **params) -> ProxHandle:
    """Build a classical-convention handle for a cataloged function.

    Parameters
    ----------
    kind : str
        One of ``PROX_KINDS``:

        - ``"l1"``: weight * ||z||_1; params dim, weight (default 1).
        - ``"nonneg"``: indicator of the nonnegative orthant; params dim.
        - ``"box"``: indicator of [lower, upper]; params dim, lower, upper
          (scalars or vectors).
        - ``"affine_set"``: indicator of {z : A z = b}; params A, b.  A must
          have full row rank.
        - ``"quad_affine"``: 0.5 z'Pz + q'z, optionally restricted to
          {z : A z = b}; params P, q, A, b.  P must be symmetric.
        - ``"lstsq"``: 0.5 ||A z - b||^2; params A, b.
        - ``"huber"``: weight * sum_i huber_delta(z_i) with the quadratic
          zone |t| <= delta; params dim, delta (default 1), weight (default 1).
        - ``"tv_quad"``: 0.5 ||D z - target||^2 for the first-difference map
          D; params n, target (default zero).
        - ``"logdet_quad"``: trace(S Z) - logdet Z on flattened symmetric
          positive definite matrices; params n, S (default zero).
    **params
        Kind-specific parameters, see above.

    Returns
    -------
    ProxHandle
        Classical convention.  The quadratic entries (``quad_affine``,
        ``lstsq``) eigendecompose their matrix once, here, and serve every
        penalty value from it; a wide ``lstsq`` folds the eigenbasis of
        ``A A^T`` into ``A``, so a call is two passes over one m x n matrix;
        ``affine_set`` Cholesky-factors ``A A^T`` once,
        here; ``tv_quad`` solves its tridiagonal system per call.  No handle
        writes to the data it holds, so every handle may be shared across
        threads.
    """
    try:
        builder = _CATALOG[kind]
    except KeyError:
        raise ValueError(f"unknown prox kind {kind!r}; known kinds: {sorted(_CATALOG)}") from None
    return builder(**params)


_CATALOG = {
    "l1": _entry_l1,
    "nonneg": _entry_nonneg,
    "box": _entry_box,
    "affine_set": _entry_affine_set,
    "quad_affine": _entry_quad_affine,
    "lstsq": _entry_lstsq,
    "huber": _entry_huber,
    "tv_quad": _entry_tv_quad,
    "logdet_quad": _entry_logdet_quad,
}

PROX_KINDS = tuple(sorted(_CATALOG))
