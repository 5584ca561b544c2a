"""Benchmark problem generators with reproducible data and cached solves.

Every family draws its data from ``numpy.random.default_rng(seed)`` in a
fixed documented order, then builds the split form

    minimize  f(x) + g(z)   subject to   A x + B z = c

from that data alone as a :class:`~admmtune.engine.ProblemSpec`.
:func:`generate` runs both steps and wraps the spec in a
:class:`ProblemInstance` together with the raw arrays, which it sets
read-only; :func:`generate_data` runs only the draw, for exports that never
solve.  Two size profiles are bundled: "desk" instances solve in seconds and
back the test suite, "paper" instances are the full-size counterparts.

The proximal maps are catalog handles (:func:`~admmtune.prox.catalog_prox`)
behind two adapters from the engine's convention to the classical one.  lad
and huber, whose f is zero under a data matrix A, take ``x = A^+ w``.  Two
x-steps are written here instead: the wide lasso's, whose image under A the
objective reads, and tv's, whose constraint map is not the identity.

:func:`compute_oracle` gives each instance its reference pair (A x*, lam*)
from the unit-step run.  lp, lasso and tv polish that run with one linear
solve on the active set guessed from its iterate: lp's support of z,
lasso's support and signs of z, tv's jump set and signs.

Families
--------
lp      linear program over the nonnegative orthant, equality constrained
qp      box-constrained convex quadratic
lad     least absolute deviations regression
huber   huber regression
bp      minimum-l1 solution of an underdetermined linear system
lasso   l1-penalized least squares
tv      quadratic data fit with an l1 penalty on first differences
sics    sparse inverse covariance selection
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import ProblemSpec, TerminationRule, drs_step, solve
from .prox import _check_full_rank, _shifted_solver, _wide_gram_solver, catalog_prox
from . import tuner

__all__ = [
    "KINDS",
    "PROFILES",
    "ProblemInstance",
    "OracleSolution",
    "generate",
    "generate_data",
    "compute_oracle",
]

KINDS = ("lp", "qp", "lad", "huber", "bp", "lasso", "tv", "sics")

PROFILES = {
    "lp": {"desk": {"m": 40, "n": 50}, "paper": {"m": 400, "n": 500}},
    "qp": {"desk": {"n": 30}, "paper": {"n": 100}},
    "lad": {"desk": {"m": 500, "n": 50}, "paper": {"m": 1000, "n": 100}},
    "huber": {"desk": {"m": 500, "n": 50}, "paper": {"m": 5000, "n": 200}},
    "bp": {"desk": {"m": 10, "n": 30}, "paper": {"m": 10, "n": 30}},
    "lasso": {"desk": {"m": 150, "n": 500}, "paper": {"m": 1500, "n": 5000}},
    "tv": {"desk": {"n": 100}, "paper": {"n": 100}},
    "sics": {"desk": {"n": 20, "samples": 200}, "paper": {"n": 100, "samples": 1000}},
}

_DEFAULT_PARAMS = {
    "lp": {},
    "qp": {},
    "lad": {"corrupt_count": None},
    "huber": {"noise_density": 0.04},
    "bp": {"density": 0.1, "alpha": 1.0},
    "lasso": {"density": 0.02, "alpha": None},
    "tv": {"alpha": 5.0, "spike_fraction": 0.1, "spike_scale": 10.0},
    "sics": {"alpha": 1.0},
}


@dataclass(frozen=True)
class OracleSolution:
    """High-accuracy solution pair from a reference run.

    ``residue`` is the run's last residue, or for a polished pair the
    distance one unit-step sweep moves ``ax + lam``; ``iterations`` counts
    the unit-step sweeps the pair rests on, a prefix's included.
    """

    x: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    ax: np.ndarray
    residue: float
    iterations: int


@dataclass
class ProblemInstance:
    """A generated benchmark problem plus everything needed to rerun it."""

    kind: str
    seed: int
    dims: dict
    params: dict
    spec: ProblemSpec
    data: dict = field(repr=False)
    oracle: OracleSolution = field(default=None, repr=False)

    def structure_start(self) -> np.ndarray:
        """Start vector built from the family's structure instead of zero.

        lp starts at the minimum-norm feasible point of ``A x = b``, qp at the
        box midpoint, and every other family at the zero vector.  The vector
        has the constraint-block length ``spec.p``.
        """
        return _FAMILIES[self.kind][2](self.data, self.spec)

    def to_dict(self) -> dict:
        """JSON-ready description: scalars as-is, arrays as nested lists."""
        return _describe(self.kind, self.seed, self.dims, self.params, self.data)


def _describe(kind, seed, dims, params, data):
    return {
        "schema": 1,
        "kind": kind,
        "seed": seed,
        "dims": dict(dims),
        "params": {k: v for k, v in params.items()},
        "data": {k: np.asarray(v).tolist() for k, v in data.items()},
    }


def _count(fraction, total):
    return max(1, int(round(fraction * total)))


# the engine's steps from a catalog handle; ``evaluate`` skips the handle's
# per-call argument checks
def _x_step(handle):
    """``prox_f`` for A = I: argmin f(x) + (g/2)||x - w||^2 is the classical prox at penalty 1/g."""
    evaluate = handle.evaluate
    return lambda w, g: evaluate(w, 1.0 / g)


def _z_step(handle):
    """``prox_g`` for B = -I: argmin h(z) + (g/2)||z + w||^2 is the classical prox of -w at 1/g."""
    evaluate = handle.evaluate
    return lambda w, g: evaluate(-w, 1.0 / g)


def _pinv_step(A):
    """``prox_f`` for f = 0 and a full-column-rank ``A``: ``x = A^+ w`` at every g."""
    # one thin SVD checks the rank and forms A^+
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    _check_full_rank(s, A.shape[1], "constraint matrix A does not have full column rank")
    A_pinv = Vt.T @ ((1.0 / s)[:, None] * U.T)
    A_pinv.setflags(write=False)
    return lambda w, g: A_pinv.dot(w)


def _draw_lp(rng, dims, params):
    m, n = dims["m"], dims["n"]
    cost = rng.uniform(0.5, 1.5, n)
    x_feas = np.abs(rng.standard_normal(n))
    A = np.abs(rng.standard_normal((m, n)))
    b = A @ x_feas
    return {"cost": cost, "A": A, "b": b}, dict(params)


def _spec_lp(dims, data, params):
    cost, A, b = data["cost"], data["A"], data["b"]
    n = dims["n"]

    def objective(x, z):
        return float(cost.dot(x))

    return ProblemSpec(_x_step(catalog_prox("quad_affine", P=np.zeros((n, n)), q=cost, A=A, b=b)),
                       _z_step(catalog_prox("nonneg", dim=n)), objective, p=n)


def _start_lp(data, spec):
    A = data["A"]
    return A.T @ np.linalg.solve(A @ A.T, data["b"])


def _polish_lp(data, params, z):
    """The vertex on the support S = {z > 0}, or None where no vertex fits.

    Solves ``A_S x_S = b`` and ``A_S^T nu = -cost_S``; the multiplier of the
    orthant is ``-cost - A^T nu`` with its S entries zero.  The pair stands
    only with ``x_S > 0`` and a nonpositive multiplier off S.
    """
    A, b, cost = data["A"], data["b"], data["cost"]
    S = z > 0.0
    if np.count_nonzero(S) > b.size:
        return None
    A_S = A[:, S]
    x_S = np.linalg.lstsq(A_S, b, rcond=None)[0]
    nu = np.linalg.lstsq(A_S.T, -cost[S], rcond=None)[0]
    lam = -cost - A.T @ nu
    lam[S] = 0.0
    if not (np.all(x_S > 0.0) and np.all(lam <= 0.0)):
        return None
    x = np.zeros(cost.size)
    x[S] = x_S
    return x, x, lam, x


def _draw_qp(rng, dims, params):
    n = dims["n"]
    M = rng.uniform(0.0, 1.0, (n, n))
    w_eig, Q = np.linalg.eigh(0.5 * (M + M.T))
    # shift the spectrum nonnegative, then lift each eigenvalue by U[0,1]
    w_eig = w_eig + max(0.0, -w_eig[0]) + rng.uniform(0.0, 1.0, n)
    P = (Q * w_eig) @ Q.T
    P = 0.5 * (P + P.T)
    q = rng.standard_normal(n)
    r = float(rng.standard_normal())
    lower, upper = np.sort([rng.standard_normal(n), rng.standard_normal(n)], axis=0)
    return {"P": P, "q": q, "r": r, "lower": lower, "upper": upper}, dict(params)


def _spec_qp(dims, data, params):
    P, q, r = data["P"], data["q"], data["r"]
    n = dims["n"]

    def objective(x, z):
        return float((0.5 * x).dot(P.dot(x)) + q.dot(x) + r)

    return ProblemSpec(_x_step(catalog_prox("quad_affine", P=P, q=q)),
                       _z_step(catalog_prox("box", dim=n, lower=data["lower"], upper=data["upper"])),
                       objective, p=n)


def _start_qp(data, spec):
    return 0.5 * (data["lower"] + data["upper"])


def _draw_lad(rng, dims, params):
    m, n = dims["m"], dims["n"]
    A = rng.standard_normal((m, n))
    x_true = 10.0 * rng.standard_normal(n)
    b = A @ x_true
    k = params["corrupt_count"]
    k = _count(0.02, m) if k is None else int(k)
    idx = rng.choice(m, size=k, replace=False)
    b[idx] += 100.0 * rng.standard_normal(k)
    return {"A": A, "b": b, "x_true": x_true}, dict(params, corrupt_count=k)


def _spec_lad(dims, data, params):
    A, b = data["A"], data["b"]

    def objective(x, z):
        return float(np.abs(z).sum())

    return ProblemSpec(_pinv_step(A), _z_step(catalog_prox("l1", dim=b.size)), objective,
                       A=A, c=b)


def _draw_huber(rng, dims, params):
    m, n = dims["m"], dims["n"]
    A = rng.standard_normal((m, n))
    A = A / np.linalg.norm(A, axis=0)
    x_true = rng.standard_normal(n)
    eps_dense = 0.1 * rng.standard_normal(m)
    k = _count(params["noise_density"], m)
    idx = rng.choice(m, size=k, replace=False)
    eps_sparse = np.zeros(m)
    eps_sparse[idx] = rng.uniform(0.0, 1.0, k)
    b = A @ x_true + eps_dense + eps_sparse
    return {"A": A, "b": b, "x_true": x_true}, dict(params)


def _spec_huber(dims, data, params):
    A, b = data["A"], data["b"]

    def objective(x, z):
        a = np.abs(z)
        return float(np.where(a <= 1.0, 0.5 * z * z, a - 0.5).sum())

    return ProblemSpec(_pinv_step(A), _z_step(catalog_prox("huber", dim=b.size)), objective,
                       A=A, c=b)


def _draw_bp(rng, dims, params):
    m, n = dims["m"], dims["n"]
    A = rng.standard_normal((m, n))
    k = _count(params["density"], n)
    idx = rng.choice(n, size=k, replace=False)
    x_true = np.zeros(n)
    x_true[idx] = rng.standard_normal(k)
    b = A @ x_true
    return {"A": A, "b": b, "x_true": x_true}, dict(params)


def _spec_bp(dims, data, params):
    A, b = data["A"], data["b"]
    n = dims["n"]
    alpha = float(params["alpha"])

    def objective(x, z):
        return float(alpha * np.abs(z).sum())

    return ProblemSpec(_x_step(catalog_prox("affine_set", A=A, b=b)),
                       _z_step(catalog_prox("l1", dim=n, weight=alpha)), objective, p=n)


def _draw_lasso(rng, dims, params):
    m, n = dims["m"], dims["n"]
    A = rng.standard_normal((m, n))
    A = A / np.linalg.norm(A, axis=0)
    k = _count(params["density"], n)
    idx = rng.choice(n, size=k, replace=False)
    x_true = np.zeros(n)
    x_true[idx] = rng.standard_normal(k)
    b = A @ x_true + math.sqrt(0.001) * rng.standard_normal(m)
    alpha = params["alpha"]
    alpha = 0.1 * float(np.abs(A.T @ b).max()) if alpha is None else float(alpha)
    return {"A": A, "b": b, "x_true": x_true}, dict(params, alpha=alpha)


def _spec_lasso(dims, data, params):
    A, b = data["A"], data["b"]
    m, n = dims["m"], dims["n"]
    alpha = params["alpha"]
    if m >= n:
        prox_f = _x_step(catalog_prox("lstsq", A=A, b=b))

        def residual(x):
            return A.dot(x) - b

    else:
        # the catalog's wide lstsq drops the image t = U^T A x of its
        # x-step, which the objective below reads instead of a pass over A
        atb = A.T @ b
        atb.setflags(write=False)
        x_solve, ub = _wide_gram_solver(A, b)
        # the newest (x, t) pair, bound in one assignment so that no thread
        # reads one call's x with another call's t
        last = (None, None)

        def prox_f(w, g):
            nonlocal last
            x, t = x_solve(g, 1.0, atb + g * w)
            # read-only, so that t stays the image of this x
            x.setflags(write=False)
            last = (x, t)
            return x

        def residual(x):
            # for the x that prox_f returned last, A x = U t and so
            # ||A x - b|| = ||t - U^T b||: no pass over A
            x_last, t = last
            return t - ub if x is x_last else A.dot(x) - b

    def objective(x, z):
        res = residual(x)
        return float((0.5 * res).dot(res) + alpha * np.abs(z).sum())

    return ProblemSpec(prox_f, _z_step(catalog_prox("l1", dim=n, weight=alpha)), objective, p=n)


def _polish_lasso(data, params, z):
    """The pair on the support S = {z != 0} with the signs of z, or None.

    Solves ``A_S^T A_S x_S = A_S^T b - alpha sign(z_S)``; the multiplier is
    ``A^T (b - A_S x_S)``, which is ``alpha sign(z_S)`` on S.  The pair stands
    only with a nonsingular ``A_S^T A_S`` (so |S| <= m), x_S keeping the
    signs of z and ``|lam| <= alpha`` off S.
    """
    A, b, alpha = data["A"], data["b"], float(params["alpha"])
    S = z != 0.0
    if np.count_nonzero(S) > b.size:
        return None
    A_S = A[:, S]
    signs = np.sign(z[S])
    try:
        x_S = np.linalg.solve(A_S.T @ A_S, A_S.T @ b - alpha * signs)
    except np.linalg.LinAlgError:
        return None
    lam = A.T @ (b - A_S @ x_S)
    if not (np.array_equal(np.sign(x_S), signs) and np.all(np.abs(lam[~S]) <= alpha)):
        return None
    x = np.zeros(z.size)
    x[S] = x_S
    return x, x, lam, x


def _difference_matrix(n):
    F = np.zeros((n - 1, n))
    idx = np.arange(n - 1)
    F[idx, idx] = -1.0
    F[idx, idx + 1] = 1.0
    return F


def _draw_tv(rng, dims, params):
    n = dims["n"]
    x_true = np.ones(n)
    k = _count(params["spike_fraction"], n)
    idx = rng.choice(n, size=k, replace=False)
    x_true[idx] *= params["spike_scale"] * rng.standard_normal(k)
    b = x_true + rng.standard_normal(n)
    return {"b": b, "x_true": x_true}, dict(params)


def _spec_tv(dims, data, params):
    b = data["b"]
    n = dims["n"]
    alpha = float(params["alpha"])
    F = _difference_matrix(n)
    # a dense n x n eigenbasis of F^T F costs memory of the same order as F
    x_solve = _shifted_solver(F.T @ F, gram=True)

    # the constraint map is F, not I, so this x-step is no prox of f alone
    def prox_f(w, g):
        gw = g * w
        rhs = b.copy()
        rhs[:-1] -= gw
        rhs[1:] += gw
        return x_solve(1.0, g, rhs)

    def objective(x, z):
        d = x - b
        return float((0.5 * d).dot(d) + alpha * np.abs(z).sum())

    # F is (n-1) x n and can never have full column rank; the quadratic
    # data fit keeps the x step single-valued regardless
    return ProblemSpec(prox_f, _z_step(catalog_prox("l1", dim=n - 1, weight=alpha)), objective,
                       A=F, c=np.zeros(n - 1))


def _polish_tv(data, params, z):
    """The pair on the jump set J = {z != 0} with the signs of z, or None.

    The multiplier is ``alpha sign(z)`` on J; on the complement C it solves
    ``(F_C F_C^T) lam_C = F_C (b - F_J^T lam_J)``, so that ``x = b - F^T lam``
    has no jump on C.  The pair stands only with ``|lam_C| <= alpha`` and
    ``F x`` keeping the signs of z on J.
    """
    b, alpha = data["b"], float(params["alpha"])
    F = _difference_matrix(b.size)
    J = z != 0.0
    C = ~J
    lam = np.where(J, alpha * np.sign(z), 0.0)
    F_C = F[C]
    lam[C] = np.linalg.solve(F_C @ F_C.T, F_C @ (b - F.T @ lam))
    x = b - F.T @ lam
    ax = F @ x
    if not (np.all(np.abs(lam[C]) <= alpha) and np.array_equal(np.sign(ax[J]), np.sign(z[J]))):
        return None
    return x, np.where(J, ax, 0.0), lam, ax


def _draw_sics(rng, dims, params):
    n, samples = dims["n"], dims["samples"]
    D = rng.standard_normal((samples, n))
    return {"S": np.cov(D, rowvar=False)}, dict(params)


def _spec_sics(dims, data, params):
    S = data["S"]
    n = dims["n"]
    alpha = float(params["alpha"])

    def objective(x, z):
        X = x.reshape(n, n)
        sign, logdet = np.linalg.slogdet(X)
        if sign <= 0:
            return float("inf")
        return float(np.trace(S @ X) - logdet + alpha * np.abs(z).sum())

    return ProblemSpec(_x_step(catalog_prox("logdet_quad", n=n, S=S)),
                       _z_step(catalog_prox("l1", dim=n * n, weight=alpha)), objective, p=n * n)


def _zero_start(data, spec):
    return np.zeros(spec.p)


# per family: the data draw, the spec build that reads only its output, the
# structure start, and the reference run's polish (None: the run goes to tol)
_FAMILIES = {
    "lp": (_draw_lp, _spec_lp, _start_lp, _polish_lp),
    "qp": (_draw_qp, _spec_qp, _start_qp, None),
    "lad": (_draw_lad, _spec_lad, _zero_start, None),
    "huber": (_draw_huber, _spec_huber, _zero_start, None),
    "bp": (_draw_bp, _spec_bp, _zero_start, None),
    "lasso": (_draw_lasso, _spec_lasso, _zero_start, _polish_lasso),
    "tv": (_draw_tv, _spec_tv, _zero_start, _polish_tv),
    "sics": (_draw_sics, _spec_sics, _zero_start, None),
}


def _draw(kind, dims, seed, params, profile):
    """Validated dims, the drawn data and the resolved parameters."""
    if kind not in _FAMILIES:
        raise ValueError(f"unknown problem kind {kind!r}; known kinds: {sorted(_FAMILIES)}")
    if dims is None:
        profile = "paper" if profile is None else profile
        if profile not in PROFILES[kind]:
            raise ValueError(f"unknown profile {profile!r}; known profiles: {sorted(PROFILES[kind])}")
        dims = PROFILES[kind][profile]
    dims = {k: int(v) for k, v in dims.items()}
    expected = set(PROFILES[kind]["desk"])
    if set(dims) != expected:
        raise ValueError(f"dims for {kind} needs keys {sorted(expected)}, got {sorted(dims)}")
    for key, value in dims.items():
        if value < 1:
            raise ValueError(f"dims[{key!r}] for {kind} must be at least 1, got {value}")
    merged = dict(_DEFAULT_PARAMS[kind])
    for key, value in (params or {}).items():
        if key not in merged:
            raise ValueError(f"unknown parameter {key!r} for kind {kind}; known: {sorted(merged)}")
        merged[key] = value
    data, params_out = _FAMILIES[kind][0](np.random.default_rng(seed), dims, merged)
    # read-only without a copy, so that no write splits the data from the
    # spec, the objective or a cached oracle built on it
    for value in data.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return dims, data, params_out


def generate(kind: str, dims: dict = None, seed: int = 0, params: dict = None,
             profile: str = None) -> ProblemInstance:
    """Generate a reproducible benchmark instance.

    Parameters
    ----------
    kind : str
        One of ``KINDS``.
    dims : dict or None
        Size keys per family (see ``PROFILES``).  None picks the profile.
    seed : int
        Seed for ``numpy.random.default_rng``.
    params : dict or None
        Family-specific overrides merged over ``_DEFAULT_PARAMS`` entries,
        for example ``alpha`` for the penalized families.
    profile : str or None
        "desk" or "paper"; only read when ``dims`` is None.  None means
        "paper", the full-size recipe.

    Returns
    -------
    ProblemInstance
    """
    dims, data, params_out = _draw(kind, dims, seed, params, profile)
    spec = _FAMILIES[kind][1](dims, data, params_out)
    return ProblemInstance(kind=kind, seed=int(seed), dims=dims, params=params_out,
                           spec=spec, data=data)


def generate_data(kind: str, dims: dict = None, seed: int = 0, params: dict = None,
                  profile: str = None) -> dict:
    """``generate(...).to_dict()`` without building the solver.

    Takes the arguments of :func:`generate` and draws the same data, but
    builds no ``ProblemSpec``: no eigendecomposition, factorization or rank
    check, so a data-only export of a paper-size instance costs its draw
    alone.
    """
    dims, data, params_out = _draw(kind, dims, seed, params, profile)
    return _describe(kind, int(seed), dims, params_out, data)


# the reference run behind every oracle pair
_ORACLE_RULE = TerminationRule(tol=1e-10, max_iter=200_000)
# the residues at which a family with a polish tries it on the run's iterate
_POLISH_RUNGS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9)


def compute_oracle(instance: ProblemInstance, *, prefix=None) -> OracleSolution:
    """High-accuracy solution pair, cached on the instance.

    Runs the solver from the zero start at unit step size until the unscaled
    residue drops to ``tol = 1e-10``, for at most ``max_iter = 200000``
    sweeps.  The run records no objective or infeasibility column, which
    nothing here reads.  A run that ends above ``tol`` after ``max_iter``
    sweeps raises ArithmeticError.  A cached pair is returned as it is; set
    ``instance.oracle = None`` to recompute it.

    lp, lasso and tv polish the run (the solution polishing of OSQP,
    Stellato et al. 2020).  Their run stops at each residue of a ladder
    1e-3, 1e-4, ..., 1e-9 and guesses the active set from its iterate: lp
    the support of z, lasso the support and signs of z, tv its jump set and
    signs.  One linear solve on that set gives a pair (lasso: none where
    ``A_S^T A_S`` is singular), which is accepted if it keeps the family's
    sign conditions and passes the fixed-point test: one sweep at unit step
    size from ``zeta = A x* + lam*`` moves it by at most ``tol``.  An
    accepted pair carries that distance as ``residue`` and, as
    ``iterations``, the sweeps of the run it was guessed from.  Otherwise
    the run resumes from its ``zeta_unscaled`` to the next rung, so a pair
    never accepted leaves the run to ``tol`` as it is for every other
    family, bit for bit.

    ``prefix`` (keyword-only) is a record of the start of that same run:
    ``solve(instance.spec, StepSizePlan.fixed(1.0), init=None, rule)`` at
    any tol and max_iter.  That it ran on this instance is the caller's
    contract; a record whose plan or final step size is not exactly
    fixed(1.0), or whose ``zeta_unscaled`` does not have length ``spec.p``,
    raises ValueError.  When no row before its last reaches ``tol`` and it
    took at most ``max_iter`` sweeps, the run resumes from its
    ``zeta_unscaled`` (at unit step size, the loop's scaled iterate itself),
    or ends on its own iterates when its last row meets ``tol``; otherwise
    it starts from scratch.  Neither record is changed.  Without a polish,
    the result, sweep count included, is bit-identical to a run from
    scratch.  With one, the polish is first tried on the prefix's last
    iterate once that is below a rung, so the arrays equal the scratch
    result whenever both guess the same active set; the sweep counts may
    differ.

    Where the optimal multiplier is not unique (lad and bp), the pair is the
    one this run ends at, and the oracle step sizes derived from it belong
    to it: an estimated-plan reference run to the same ``tol`` ends at
    another multiplier, whose zero-start step size differs by about 1%.
    """
    tol, max_iter = _ORACLE_RULE.tol, _ORACLE_RULE.max_iter
    unit = tuner.StepSizePlan.fixed(1.0)
    if prefix is not None:
        # describe() rounds gamma to 6 digits, so the exact value is checked too
        if prefix.final_gamma != 1.0 or prefix.plan != unit.describe():
            raise ValueError(f"a reference-run prefix must be a fixed(1.0) record, "
                             f"got {prefix.plan} ending at gamma {prefix.final_gamma!r}")
        if prefix.zeta_unscaled is None or np.size(prefix.zeta_unscaled) != instance.spec.p:
            raise ValueError(f"a reference-run prefix needs zeta_unscaled of length "
                             f"{instance.spec.p}, got {np.size(prefix.zeta_unscaled)}")
    if instance.oracle is not None:
        return instance.oracle
    polish = _FAMILIES[instance.kind][3]
    # rec holds the newest iterates, `done` sweeps into the run at `residue`
    rec, done, residue = None, 0, math.nan
    if prefix is not None and prefix.rows and prefix.iterations <= max_iter:
        if prefix.first_k_below(tol) in (None, prefix.iterations):
            rec, done, residue = prefix, prefix.iterations, prefix.rows[-1][2]
    # a rung the iterate already meets runs no sweep and tries no new polish
    tried = None
    for rung in (_POLISH_RUNGS if polish is not None else ()) + (tol,):
        if not residue <= rung and done < max_iter:
            rec = solve(instance.spec, unit, init=None if rec is None else rec.zeta_unscaled,
                        rule=TerminationRule(tol=rung, max_iter=max_iter - done), columns=False)
            done += rec.iterations
            residue = rec.rows[-1][2]
        if not residue <= rung:
            raise ArithmeticError(
                f"reference run for kind {instance.kind!r} stalled at residue "
                f"{residue:.3e} after {done} sweeps"
            )
        if rung > tol and rec is not tried:
            tried = rec
            oracle = _polished(instance.spec, polish(instance.data, instance.params, rec.z), tol, done)
            if oracle is not None:
                break
    else:
        oracle = OracleSolution(x=rec.x, z=rec.z, lam=rec.lam, ax=rec.ax,
                                residue=residue, iterations=done)
    instance.oracle = oracle
    return oracle


def _polished(spec, pair, tol, iterations):
    """The polish's ``(x, z, lam, ax)`` as an oracle pair if its fixed-point test passes, else None."""
    if pair is None:
        return None
    x, z, lam, ax = pair
    zeta = ax + lam
    step = drs_step(zeta, spec, 1.0) - zeta
    residue = math.sqrt(step.dot(step))
    if not residue <= tol:
        return None
    return OracleSolution(x=x, z=z, lam=lam, ax=ax, residue=residue, iterations=iterations)
