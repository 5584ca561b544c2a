import json

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import admmtune as at
from admmtune import (
    KINDS,
    PROFILES,
    StepSizePlan,
    TerminationRule,
    compute_oracle,
    generate,
)

from conftest import ACCEPT_SEEDS


def test_registry_covers_every_kind():
    assert KINDS == ("lp", "qp", "lad", "huber", "bp", "lasso", "tv", "sics")
    for kind in KINDS:
        assert {"desk", "paper"} <= set(PROFILES[kind])


def test_generation_is_deterministic():
    a = generate("lasso", profile="desk", seed=3)
    b = generate("lasso", profile="desk", seed=3)
    for key in a.data:
        assert np.array_equal(np.asarray(a.data[key]), np.asarray(b.data[key])), key
    c = generate("lasso", profile="desk", seed=4)
    assert not np.array_equal(a.data["A"], c.data["A"])


def test_generate_validation():
    with pytest.raises(ValueError):
        generate("nope")
    with pytest.raises(ValueError):
        generate("lp", profile="huge")
    with pytest.raises(ValueError):
        generate("lp", dims={"m": 5})
    with pytest.raises(ValueError):
        generate("lp", dims={"m": 5, "n": 8, "extra": 1})
    with pytest.raises(ValueError):
        generate("lasso", profile="desk", params={"mystery": 1.0})


def test_instance_serialization_round_trip():
    inst = generate("bp", profile="desk", seed=1)
    blob = json.dumps(inst.to_dict())
    back = json.loads(blob)
    assert back["schema"] == 1
    assert back["kind"] == "bp" and back["seed"] == 1
    assert np.allclose(np.asarray(back["data"]["A"]), inst.data["A"])


def test_linear_program_data_shape(desk):
    inst = desk("lp")
    A, b, cost = inst.data["A"], inst.data["b"], inst.data["cost"]
    m, n = PROFILES["lp"]["desk"]["m"], PROFILES["lp"]["desk"]["n"]
    assert A.shape == (m, n) and b.shape == (m,) and cost.shape == (n,)
    # the recipe plants a nonnegative feasible point, so the program is feasible
    x = np.linalg.lstsq(A, b, rcond=None)[0]
    assert np.allclose(A @ x, b, atol=1e-8)
    assert np.all(cost >= 0.5) and np.all(cost <= 1.5)


def test_quadratic_program_is_convex(desk):
    P = desk("qp").data["P"]
    w = np.linalg.eigvalsh(0.5 * (P + P.T))
    assert w.min() >= 0.0
    lo, hi = desk("qp").data["lower"], desk("qp").data["upper"]
    assert np.all(lo <= hi)


def test_robust_regression_corruption_count():
    inst = generate("lad", profile="desk", seed=2)
    A, b, x_true = inst.data["A"], inst.data["b"], inst.data["x_true"]
    clean = A @ x_true
    corrupted = np.flatnonzero(np.abs(b - clean) > 1e-9)
    assert corrupted.size == max(1, round(0.02 * b.size))


def test_sparse_signal_support_counts():
    bp = generate("bp", profile="desk", seed=3)
    assert np.count_nonzero(bp.data["x_true"]) == max(1, round(0.1 * bp.data["x_true"].size))
    lasso = generate("lasso", profile="desk", seed=3)
    support = np.count_nonzero(lasso.data["x_true"])
    assert support == max(1, round(0.02 * lasso.data["x_true"].size))


def test_lasso_penalty_default():
    inst = generate("lasso", profile="desk", seed=5)
    A, b = inst.data["A"], inst.data["b"]
    assert inst.params["alpha"] == pytest.approx(0.1 * np.max(np.abs(A.T @ b)))
    custom = generate("lasso", profile="desk", seed=5, params={"alpha": 0.7})
    assert custom.params["alpha"] == 0.7


def test_piecewise_signal_spikes():
    inst = generate("tv", profile="desk", seed=1)
    x_true = inst.data["x_true"]
    spiked = np.flatnonzero(x_true != 1.0)
    assert spiked.size == max(1, round(0.1 * x_true.size))


def test_covariance_selection_input_is_spd(desk):
    S = desk("sics").data["S"]
    assert np.allclose(S, S.T)
    assert np.linalg.eigvalsh(S).min() > 0.0


def test_every_desk_instance_solves_to_high_accuracy(desk):
    rule = TerminationRule(tol=1e-8, max_iter=100_000)
    for kind in KINDS:
        rec = at.solve(desk(kind).spec, StepSizePlan.fixed(1.0), rule=rule)
        assert rec.converged, kind
        gap = desk(kind).spec.constraint_gap(rec.x, rec.z)
        assert np.linalg.norm(gap) <= 1e-5, kind


def _x_step_system(inst, w, gamma):
    """Dense matrix and right-hand side of the x-step that each builder solves."""
    data = inst.data
    if inst.kind == "lasso":
        A = data["A"]
        return A.T @ A + gamma * np.eye(A.shape[1]), A.T @ data["b"] + gamma * w
    if inst.kind == "qp":
        return data["P"] + gamma * np.eye(w.size), gamma * w - data["q"]
    F = inst.spec.A
    return np.eye(F.shape[1]) + gamma * F.T @ F, data["b"] + gamma * F.T @ w


@pytest.mark.parametrize("kind, dims", [
    ("lasso", None),
    ("lasso", {"m": 60, "n": 40}),
    ("qp", None),
    ("tv", None),
])
def test_quadratic_x_step_matches_dense_solve(desk, kind, dims):
    inst = desk(kind) if dims is None else generate(kind, dims=dims, seed=1)
    rng = np.random.default_rng(13)
    for gamma in np.geomspace(1e-3, 1e3, 13):
        w = rng.normal(size=inst.spec.p)
        want = np.linalg.solve(*_x_step_system(inst, w, gamma))
        got = inst.spec.prox_f(w, gamma)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want), gamma


def _cho_solve_x_step(inst, w, gamma):
    """The x-step of lp, lad, huber and bp written with ``scipy.linalg.cho_solve``."""
    A, b = inst.data["A"], inst.data["b"]
    if inst.kind == "lp":
        cost = inst.data["cost"]
        nu = cho_solve(cho_factor(A @ A.T), gamma * (A @ w - b) - A @ cost)
        return w - (cost + A.T @ nu) / gamma
    if inst.kind == "bp":
        return w - A.T @ cho_solve(cho_factor(A @ A.T), A @ w - b)
    return cho_solve(cho_factor(A.T @ A), A.T @ w)


@pytest.mark.parametrize("kind", ["lp", "lad", "huber", "bp"])
def test_cholesky_x_step_is_the_cho_solve_arithmetic(desk, kind):
    inst = desk(kind)
    rng = np.random.default_rng(17)
    for gamma in np.geomspace(1e-3, 1e3, 13):
        w = rng.normal(size=inst.spec.p)
        assert np.array_equal(inst.spec.prox_f(w, gamma), _cho_solve_x_step(inst, w, gamma)), gamma


def test_objective_is_finite_at_oracle(desk, oracle):
    for kind in KINDS:
        inst, o = desk(kind), oracle(kind)
        assert np.isfinite(inst.spec.eval_objective(o.x, o.z)), kind
    # for the regularized regression the zero start is feasible, so the
    # solver must not end above it
    inst, o = desk("lasso"), oracle("lasso")
    start = inst.spec.eval_objective(np.zeros(inst.spec.n), np.zeros(inst.spec.m))
    assert inst.spec.eval_objective(o.x, o.z) <= start + 1e-9


def test_oracle_is_cached_and_refreshable(desk):
    inst = generate("bp", profile="desk", seed=6)
    first = compute_oracle(inst)
    assert compute_oracle(inst) is first
    again = compute_oracle(inst, refresh=True)
    assert again is not first
    assert np.allclose(again.x, first.x, atol=1e-9)
    assert first.residue <= 1e-10 and first.iterations >= 1


def test_paper_profile_dimensions_differ():
    desk_inst = generate("lasso", profile="desk", seed=0)
    assert desk_inst.dims == PROFILES["lasso"]["desk"]
    assert PROFILES["lasso"]["paper"]["n"] > PROFILES["lasso"]["desk"]["n"]


def test_acceptance_seeds_cover_all_kinds():
    assert set(ACCEPT_SEEDS) == set(KINDS)


def _textbook_lasso_objective(inst, x, z):
    A, b = inst.data["A"], inst.data["b"]
    res = A @ x - b
    return 0.5 * res @ res + inst.params["alpha"] * np.abs(z).sum()


def test_lasso_objective_reads_the_x_step_image():
    inst = generate("lasso", profile="desk", seed=3)
    spec = inst.spec
    rng = np.random.default_rng(19)
    for gamma in np.geomspace(1e-2, 1e2, 9):
        w = rng.normal(size=spec.p)
        z = rng.normal(size=spec.m)
        x = spec.prox_f(w, gamma)
        want = _textbook_lasso_objective(inst, x, z)
        # the x prox_f returned last takes the folded route, a copy the textbook one
        for got in (spec.objective(x, z), spec.objective(x.copy(), z)):
            assert abs(got - want) <= 1e-12 * abs(want), gamma
    with pytest.raises(ValueError):
        x[0] = 1.0


def test_lasso_objective_is_safe_across_threads():
    from concurrent.futures import ThreadPoolExecutor

    inst = generate("lasso", profile="desk", seed=3)
    spec = inst.spec
    rng = np.random.default_rng(23)
    tasks = [(rng.normal(size=spec.p), rng.normal(size=spec.m), g)
             for g in np.geomspace(1e-2, 1e2, 64)]

    def run(task):
        w, z, gamma = task
        x = spec.prox_f(w, gamma)
        return x, z, spec.objective(x, z)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(run, tasks))
    for x, z, got in results:
        want = _textbook_lasso_objective(inst, x, z)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_tall_lasso_objective_is_the_textbook_form():
    inst = generate("lasso", dims={"m": 60, "n": 40}, seed=1)
    rng = np.random.default_rng(29)
    x = inst.spec.prox_f(rng.normal(size=40), 0.7)
    z = rng.normal(size=40)
    assert inst.spec.objective(x, z) == float(_textbook_lasso_objective(inst, x, z))
