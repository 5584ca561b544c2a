"""Benchmark problem generators with reproducible data and cached solves.

Every family draws its data from ``numpy.random.default_rng(seed)`` in a
fixed documented order, then builds the split form

    minimize  f(x) + g(z)   subject to   A x + B z = c

from that data alone as a :class:`~admmtune.engine.ProblemSpec`.
:func:`generate` runs both steps and wraps the spec in a
:class:`ProblemInstance` together with the raw arrays; :func:`generate_data`
runs only the draw, for exports that never solve.  Two size profiles are
bundled: "desk" instances solve in seconds and back the test suite, "paper"
instances are the full-size counterparts.

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

from .engine import ProblemSpec, TerminationRule, solve
from .prox import _cholesky_solver, _shifted_solver, _soft_threshold, _wide_gram_solver, catalog_prox
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
    """High-accuracy solution pair from a reference run."""

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
    gram_solve = _cholesky_solver(A @ A.T)
    a_cost = A @ cost

    def prox_f(w, g):
        nu = gram_solve(g * (A @ w - b) - a_cost)
        return w - (cost + A.T @ nu) / g

    def prox_g(w, g):
        return np.maximum(-w, 0.0)

    def objective(x, z):
        return float(cost @ x)

    return ProblemSpec(prox_f, prox_g, objective, n=n, p=n)


def _start_lp(data, spec):
    A = data["A"]
    return A.T @ np.linalg.solve(A @ A.T, data["b"])


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
    b1 = rng.standard_normal(n)
    b2 = rng.standard_normal(n)
    lower = np.minimum(b1, b2)
    upper = np.maximum(b1, b2)
    return {"P": P, "q": q, "r": r, "lower": lower, "upper": upper}, dict(params)


def _spec_qp(dims, data, params):
    P, q, r = data["P"], data["q"], data["r"]
    lower, upper = data["lower"], data["upper"]
    n = dims["n"]
    x_solve = _shifted_solver(P)

    def prox_f(w, g):
        return x_solve(g, 1.0, g * w - q)

    def prox_g(w, g):
        return np.clip(-w, lower, upper)

    def objective(x, z):
        return float(0.5 * x @ (P @ x) + q @ x + r)

    return ProblemSpec(prox_f, prox_g, objective, n=n, p=n)


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
    gram_solve = _cholesky_solver(A.T @ A)

    def prox_f(w, g):
        return gram_solve(A.T @ w)

    def prox_g(w, g):
        return _soft_threshold(-w, 1.0 / g)

    def objective(x, z):
        return float(np.abs(z).sum())

    return ProblemSpec(prox_f, prox_g, objective, A=A, c=b)


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
    gram_solve = _cholesky_solver(A.T @ A)

    def prox_f(w, g):
        return gram_solve(A.T @ w)

    def prox_g(w, g):
        t = 1.0 / g
        v = -w
        return np.where(np.abs(v) <= 1.0 + t, v / (1.0 + t), v - t * np.sign(v))

    def objective(x, z):
        a = np.abs(z)
        return float(np.where(a <= 1.0, 0.5 * z * z, a - 0.5).sum())

    return ProblemSpec(prox_f, prox_g, objective, A=A, c=b)


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
    gram_solve = _cholesky_solver(A @ A.T)

    def prox_f(w, g):
        return w - A.T @ gram_solve(A @ w - b)

    def prox_g(w, g):
        return _soft_threshold(-w, alpha / g)

    def objective(x, z):
        return float(alpha * np.abs(z).sum())

    return ProblemSpec(prox_f, prox_g, objective, n=n, p=n)


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
    atb = A.T @ b
    if m >= n:
        x_solve = _shifted_solver(A.T @ A)

        def prox_f(w, g):
            return x_solve(g, 1.0, atb + g * w)

        def residual(x):
            return A @ x - b

    else:
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
            return t - ub if x is x_last else A @ x - b

    def prox_g(w, g):
        return _soft_threshold(-w, alpha / g)

    def objective(x, z):
        res = residual(x)
        return float(0.5 * res @ res + alpha * np.abs(z).sum())

    return ProblemSpec(prox_f, prox_g, objective, n=n, p=n)


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
    x_solve = _shifted_solver(F.T @ F)

    def prox_f(w, g):
        rhs = b.copy()
        rhs[:-1] -= g * w
        rhs[1:] += g * w
        return x_solve(1.0, g, rhs)

    def prox_g(w, g):
        return _soft_threshold(-w, alpha / g)

    def objective(x, z):
        d = x - b
        return float(0.5 * d @ d + alpha * np.abs(z).sum())

    # F is (n-1) x n and can never have full column rank; the quadratic
    # data fit keeps the x step single-valued regardless
    return ProblemSpec(prox_f, prox_g, objective, A=F, c=np.zeros(n - 1), rank_check=False)


def _draw_sics(rng, dims, params):
    n, samples = dims["n"], dims["samples"]
    D = rng.standard_normal((samples, n))
    return {"S": np.cov(D, rowvar=False)}, dict(params)


def _spec_sics(dims, data, params):
    S = data["S"]
    n = dims["n"]
    alpha = float(params["alpha"])
    logdet_handle = catalog_prox("logdet_quad", n=n, S=S)

    def prox_f(w, g):
        return logdet_handle.evaluate(w, 1.0 / g)

    def prox_g(w, g):
        return _soft_threshold(-w, alpha / g)

    def objective(x, z):
        X = x.reshape(n, n)
        sign, logdet = np.linalg.slogdet(X)
        if sign <= 0:
            return float("inf")
        return float(np.trace(S @ X) - logdet + alpha * np.abs(z).sum())

    return ProblemSpec(prox_f, prox_g, objective, n=n * n, p=n * n)


def _zero_start(data, spec):
    return np.zeros(spec.p)


# per family: the data draw, the spec build that reads only its output, and
# the structure start
_FAMILIES = {
    "lp": (_draw_lp, _spec_lp, _start_lp),
    "qp": (_draw_qp, _spec_qp, _start_qp),
    "lad": (_draw_lad, _spec_lad, _zero_start),
    "huber": (_draw_huber, _spec_huber, _zero_start),
    "bp": (_draw_bp, _spec_bp, _zero_start),
    "lasso": (_draw_lasso, _spec_lasso, _zero_start),
    "tv": (_draw_tv, _spec_tv, _zero_start),
    "sics": (_draw_sics, _spec_sics, _zero_start),
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
    merged = dict(_DEFAULT_PARAMS[kind])
    for key, value in (params or {}).items():
        if key not in merged:
            raise ValueError(f"unknown parameter {key!r} for kind {kind}; known: {sorted(merged)}")
        merged[key] = value
    data, params_out = _FAMILIES[kind][0](np.random.default_rng(seed), dims, merged)
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


def compute_oracle(instance: ProblemInstance, tol: float = 1e-10,
                   max_iter: int = 200_000, refresh: bool = False) -> OracleSolution:
    """High-accuracy solution pair, cached on the instance.

    Runs the solver from the zero start at unit step size until the unscaled
    residue drops to ``tol``.
    """
    if instance.oracle is not None and not refresh:
        return instance.oracle
    rec = solve(instance.spec, tuner.StepSizePlan.fixed(1.0), init=None,
                rule=TerminationRule(tol=tol, max_iter=max_iter))
    if not rec.converged:
        raise ArithmeticError(
            f"reference run for kind {instance.kind!r} stalled at residue "
            f"{rec.rows[-1][2]:.3e} after {rec.iterations} sweeps"
        )
    oracle = OracleSolution(x=rec.x, z=rec.z, lam=rec.lam, ax=rec.ax,
                            residue=rec.rows[-1][2], iterations=rec.iterations)
    instance.oracle = oracle
    return oracle
