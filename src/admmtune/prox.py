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
functions; the problem zoo builds its proximal maps from them.  The
quadratic entries eigendecompose their matrix once, when the handle is
built, and then solve at any penalty with two matrix-vector products.  A
wide ``lstsq`` (fewer rows than columns) decomposes the small Gram matrix
``A A^T`` and folds its eigenbasis into ``A``, so each solve is two passes
over one m x n matrix.  ``affine_set`` and a constrained ``quad_affine``
split space along one SVD of the constraint matrix: ``affine_set``
projects with its row-space basis, ``quad_affine`` solves in its null
space.  Handles hold only read-only arrays, copied from the caller's at
build, and are safe to share across threads.  An entry rejects matrix or
vector data holding NaN or inf, and scalar parameters that are NaN, with
ValueError before it decomposes anything.

Every matrix-vector product a handle evaluates is written ``M.dot(v)``: it
runs the BLAS gemv of ``M @ v`` without the ufunc dispatch, to the same
bits, as long as ``M`` is C- or Fortran-contiguous.  ``dot`` copies a
strided view to C order first, and gemv rounds differently on the copy, so
a factor sliced from a decomposition is held as a contiguous copy in the
memory order of that slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigh, svd

from .quartic import _require_finite

__all__ = [
    "CLASSICAL",
    "NEW",
    "ProxHandle",
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
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class ProxHandle:
    """A proximal operator together with its parameter convention.

    Calling the handle, ``handle(v, t)``, is the checked path: it flattens
    ``v`` and raises ValueError unless ``v`` has length ``dim`` and ``t`` is
    finite, positive for CLASSICAL and nonzero for NEW.  ``evaluate`` is the
    unchecked path for callers that guarantee both, such as the zoo's
    solver steps.

    Attributes
    ----------
    evaluate : callable
        ``evaluate(v, t) -> ndarray`` for a flat float vector ``v``.  For
        convention CLASSICAL the parameter is the penalty ``gamma > 0``; for
        NEW it is the argument scale ``rho != 0``.
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
        if self.convention == CLASSICAL and not t > 0.0:
            raise ValueError(f"penalty gamma must be positive, got {t}")
        if t == 0.0:
            raise ValueError("right-scaled parameter must be nonzero")
        return self.evaluate(v, t)


def translate_classical_to_new(handle: ProxHandle) -> ProxHandle:
    """Re-express a classical handle in the right-scaled convention.

    Uses ``prox_new(v, rho) = (1/rho) * prox_classical(rho*v, rho**2)``.
    """
    if handle.convention != CLASSICAL:
        raise ValueError(f"expected a {CLASSICAL} handle, got {handle.convention}")

    def evaluate(v, rho):
        return handle.evaluate(rho * v, rho * rho) / rho

    return ProxHandle(evaluate=evaluate, convention=NEW, dim=handle.dim)


def translate_new_to_classical(handle: ProxHandle) -> ProxHandle:
    """Re-express a right-scaled handle in the classical convention.

    Uses ``prox_classical(v, gamma) = sqrt(gamma) * prox_new(v/sqrt(gamma), sqrt(gamma))``.
    """
    if handle.convention != NEW:
        raise ValueError(f"expected a {NEW} handle, got {handle.convention}")

    def evaluate(v, gamma):
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
        return v - handle.evaluate(v, 1.0 / sigma)

    return ProxHandle(evaluate=evaluate, convention=NEW, dim=handle.dim)


def _shifted_solver(G, gram=False):
    """Return ``solve(a, b, r) = (a*I + b*G)^-1 r`` for a symmetric ``G``.

    ``G`` is eigendecomposed once, ``G = U diag(s) U^T``, so a solve at any
    ``(a, b)`` costs two matrix-vector products and builds no factorization.
    With ``gram``, ``G`` is a Gram matrix ``M^T M``: its spectrum is clamped
    at 0, since ``eigh`` may return a zero eigenvalue as a tiny negative one
    that a large ``b`` would turn into an indefinite shift.  The eigenpairs
    are read-only, so ``solve`` may be shared across threads.  ``solve``
    raises ValueError when an eigenvalue of ``a*I + b*G`` is not above the
    smallest normal float.
    """
    s, U = eigh(G)
    if gram:
        s = np.maximum(s, 0.0)
    s.setflags(write=False)
    U.setflags(write=False)
    # s is sorted ascending, so a + b*s is smallest at one of its ends, read
    # once as floats; an empty s (a point constraint leaves a 0x0 reduced
    # Hessian) passes
    lo, hi = (float(s[0]), float(s[-1])) if s.size else (None, None)

    def solve(a, b, r):
        if lo is not None and not (a + b * lo > _TINY and a + b * hi > _TINY):
            raise ValueError(
                f"a*I + b*G is not positive definite above the smallest normal float at a={a}, b={b}")
        return U.dot(U.T.dot(r) / (a + b * s))

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
    # s is sorted ascending, so a + b*s is smallest at one of its ends, read
    # once as floats
    lo, hi = (float(s[0]), float(s[-1])) if s.size else (None, None)

    def solve(a, b, r):
        if not (a > _TINY and (lo is None or (a + b * lo > _TINY and a + b * hi > _TINY))):
            raise ValueError(
                f"a*I + b*A^T A is not positive definite above the smallest normal float at a={a}, b={b}")
        t = W.dot(r) / (a + b * s)
        return (r - b * W.T.dot(t)) / a, t

    return solve, ud


def _check_full_rank(s, rank, message):
    """Raise ValueError(message) unless the descending singular values ``s`` show rank ``rank``."""
    if s.size != rank or rank == 0 or s[-1] < _RANK_TOL * s[0] or s[0] == 0.0:
        raise ValueError(message)


def _affine_frame(A, b, full_matrices):
    """Read-only right singular vectors ``Vt`` of a full-row-rank ``A`` and ``x0 = A^+ b``.

    The first p rows of ``Vt`` span the row space of the p x n matrix ``A``;
    with ``full_matrices`` the remaining n - p span its null space.
    """
    _require_finite("A", A)
    _require_finite("b", b)
    U, s, Vt = svd(A, full_matrices=full_matrices)
    # LAPACK's column-major layout: the later matrix-vector products round
    # differently on a C-ordered copy
    U, Vt = np.asfortranarray(U), np.asfortranarray(Vt)
    p = A.shape[0]
    _check_full_rank(s, p, f"constraint matrix A ({p} x {A.shape[1]}) does not have full row rank")
    x0 = Vt[:p].T @ ((U.T @ b) / s)
    for arr in (Vt, x0):
        arr.setflags(write=False)
    return Vt, x0


def _soft_threshold(v, t):
    # v minus its clip to [-t, t]: +0 exactly on |v| <= t, ties included, and
    # the values of sign(v) * max(|v| - t, 0) in three calls instead of five
    return v - np.maximum(np.minimum(v, t), -t)


def _entry_l1(dim, weight=1.0):
    weight = float(weight)
    if not weight >= 0.0:
        raise ValueError(f"weight must be nonnegative, got {weight}")

    def evaluate(v, gamma):
        return _soft_threshold(v, gamma * weight)

    return ProxHandle(evaluate, CLASSICAL, int(dim))


def _entry_nonneg(dim):
    dim = int(dim)
    # an array operand spares the conversion of a scalar 0.0 on every call
    zero = np.zeros(dim)
    zero.setflags(write=False)

    def evaluate(v, gamma):
        return np.maximum(v, zero)

    return ProxHandle(evaluate, CLASSICAL, dim)


def _entry_box(dim, lower, upper):
    dim = int(dim)
    lo = np.broadcast_to(np.asarray(lower, dtype=float), (dim,)).copy()
    hi = np.broadcast_to(np.asarray(upper, dtype=float), (dim,)).copy()
    # written so that a NaN bound fails; infinite bounds pass
    if not np.all(lo <= hi):
        raise ValueError("box bounds must satisfy lower <= upper elementwise")
    # lower = upper = +inf (or -inf) passes the order check but holds no real point
    if np.any(lo == np.inf) or np.any(hi == -np.inf):
        raise ValueError("box lower bounds must be below +inf and upper bounds above -inf")
    lo.setflags(write=False)
    hi.setflags(write=False)

    def evaluate(v, gamma):
        # np.clip's values, NaN included, at less than half its call cost
        return np.minimum(np.maximum(v, lo), hi)

    return ProxHandle(evaluate, CLASSICAL, dim)


def _entry_affine_set(A, b):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if A.ndim != 2 or A.shape[0] != b.size:
        raise ValueError(f"need A (p, n) and b (p,), got {A.shape} and {b.shape}")
    Vt, x0 = _affine_frame(A, b, full_matrices=False)

    def evaluate(v, gamma):
        # v - A^+ (A v - b), with A^+ A = V V^T the row-space projector
        return v - Vt.T.dot(Vt.dot(v)) + x0

    return ProxHandle(evaluate, CLASSICAL, A.shape[1])


def _entry_quad_affine(P, q=None, A=None, b=None):
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"P must be square, got shape {P.shape}")
    _require_finite("P", P)
    n = P.shape[0]
    asym = np.max(np.abs(P - P.T))
    if asym > 1e-10 * max(1.0, np.max(np.abs(P))):
        raise ValueError(f"P must be symmetric (asymmetry {asym:.3e})")
    q = np.zeros(n) if q is None else np.array(q, dtype=float).ravel()
    if q.size != n:
        raise ValueError(f"q must have length {n}, got {q.size}")
    _require_finite("q", q)
    q.setflags(write=False)
    if A is None:
        if b is not None:
            raise ValueError("b given without A")
        solve = _shifted_solver(P)

        def evaluate(v, gamma):
            return solve(1.0, gamma, v - gamma * q)

        return ProxHandle(evaluate, CLASSICAL, n)

    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if A.ndim != 2 or A.shape[1] != n or A.shape[0] != b.size:
        raise ValueError(f"need A (p, {n}) and b (p,), got {A.shape} and {b.shape}")
    Vt, x0 = _affine_frame(A, b, full_matrices=True)
    # x = x0 + N y with x0 = pinv(A) b and N an orthonormal basis of null(A);
    # since N^T x0 = 0, the prox reduces to (I + gamma N^T P N) y = N^T (v - gamma (q + P x0))
    N = Vt[A.shape[0]:].T
    c = q + P @ x0
    H = N.T @ P @ N
    # the per-call products keep each factor in the memory order of the view
    # N, since gemv rounds differently in the other order: N^T = Vt[p:] as a
    # Fortran-ordered copy and N as its C-ordered transpose; H stays on the
    # view, whose gemm rounds differently from the copy's at some sizes
    Nt = np.asfortranarray(Vt[A.shape[0]:])
    N = Nt.T
    for arr in (c, Nt, N):
        arr.setflags(write=False)
    if not np.any(H):
        # a zero reduced Hessian (P = 0, as in a linear program): eigh would
        # give U = I and s = 0 exactly, so the shifted solve is the identity
        def evaluate(v, gamma):
            return x0 + N.dot(Nt.dot(v - gamma * c))

        return ProxHandle(evaluate, CLASSICAL, n)

    solve = _shifted_solver(H)

    def evaluate(v, gamma):
        return x0 + N.dot(solve(1.0, gamma, Nt.dot(v - gamma * c)))

    return ProxHandle(evaluate, CLASSICAL, n)


def _entry_lstsq(A, b):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if A.ndim != 2 or A.shape[0] != b.size:
        raise ValueError(f"need A (m, n) and b (m,), got {A.shape} and {b.shape}")
    _require_finite("A", A)
    _require_finite("b", b)
    m, n = A.shape
    atb = A.T @ b
    atb.setflags(write=False)
    if m >= n:
        solve = _shifted_solver(A.T @ A, gram=True)

        def evaluate(v, gamma):
            return solve(1.0, gamma, v + gamma * atb)

    else:
        solve, _ = _wide_gram_solver(A, b)

        def evaluate(v, gamma):
            return solve(1.0, gamma, v + gamma * atb)[0]

    return ProxHandle(evaluate, CLASSICAL, n)


def _entry_huber(dim, delta=1.0, weight=1.0):
    delta = float(delta)
    weight = float(weight)
    # an infinite delta or weight makes inf * 0 in the linear branch at v = 0
    if not 0.0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if not 0.0 <= weight < np.inf:
        raise ValueError(f"weight must be nonnegative and finite, got {weight}")

    def evaluate(v, gamma):
        t = gamma * weight
        quad = v / (1.0 + t)
        lin = v - t * delta * np.sign(v)
        return np.where(np.abs(v) <= delta * (1.0 + t), quad, lin)

    return ProxHandle(evaluate, CLASSICAL, int(dim))


def _difference_apply_t(w, n):
    out = np.zeros(n)
    out[:-1] -= w
    out[1:] += w
    return out


def _entry_tv_quad(n, target=None):
    n = int(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    u = np.zeros(n - 1) if target is None else np.asarray(target, dtype=float).ravel()
    if u.size != n - 1:
        raise ValueError(f"target must have length {n - 1}, got {u.size}")
    _require_finite("target", u)

    # I + gamma D^T D is the Neumann second difference, which the DCT-II
    # diagonalizes; the DCT of w is the real FFT of its even extension, whose
    # circulant second difference has eigenvalues 2 - 2cos(pi k / n), k = 0..n
    shift = _difference_apply_t(u, n)
    s = 2.0 - 2.0 * np.cos(np.pi * np.arange(n + 1) / n)
    for arr in (shift, s):
        arr.setflags(write=False)

    def evaluate(v, gamma):
        w = v + gamma * shift
        return np.fft.irfft(np.fft.rfft(np.concatenate([w, w[::-1]])) / (1.0 + gamma * s), 2 * n)[:n]

    return ProxHandle(evaluate, CLASSICAL, n)


def _entry_logdet_quad(n, S=None):
    n = int(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if S is None:
        S = np.zeros((n, n))
    else:
        S = np.array(S, dtype=float)
        if S.shape != (n, n):
            raise ValueError(f"S must be ({n}, {n}), got {S.shape}")
        _require_finite("S", S)
        if np.max(np.abs(S - S.T)) > 1e-10 * max(1.0, np.max(np.abs(S))):
            raise ValueError("S must be symmetric")
    S.setflags(write=False)

    def evaluate(v, gamma):
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
          have full row rank (so no more rows than columns).
        - ``"quad_affine"``: 0.5 z'Pz + q'z, optionally restricted to
          {z : A z = b}; params P, q, A, b.  P must be symmetric and A, when
          given, of full row rank.
        - ``"lstsq"``: 0.5 ||A z - b||^2; params A, b.
        - ``"huber"``: weight * sum_i huber_delta(z_i) with the quadratic
          zone |t| <= delta; params dim, delta (default 1), weight (default 1).
        - ``"tv_quad"``: 0.5 ||D z - target||^2 for the first-difference map
          D; params n, target (default zero).  The zoo's tv does not use it:
          its x-step solves the same ``(I + gamma D^T D) x = v`` from a
          dense eigenbasis of ``D^T D``, which at n = 100, the size of both
          tv profiles, took 7.4 us against 29.6 us for this FFT pair (BLAS
          1 thread, fastest of 200 solves).  By n = 1000 the FFT wins, 65
          against 706 us, and the dense basis costs O(n^2) memory, so both
          stay.
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
        a ``quad_affine`` whose reduced Hessian is zero (``P = 0``) skips
        the eigenbasis altogether;
        ``affine_set`` takes one thin SVD of ``A`` here and projects with
        two passes over its p x n row-space basis; ``tv_quad`` takes one
        real FFT pair per call, O(n) memory.  No handle writes to the data
        it holds, so every handle may be shared across threads.

    Raises
    ------
    ValueError
        For an unknown kind or parameters of the wrong shape, sign or rank,
        for a NaN weight, delta or box bound, an infinite huber delta or
        weight, a box lower bound of +inf or upper bound of -inf, and,
        before any decomposition, for data A, b, P, q, S or target holding
        NaN or inf (a box may be unbounded: -inf below, +inf above).
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
