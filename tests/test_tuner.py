import numpy as np
import pytest

import admmtune as at
import admmtune.quartic as quartic_mod
import admmtune.tuner as tuner_mod
from admmtune import (
    DegenerateProblemError,
    OptimalPair,
    SolverState,
    StepSizePlan,
    TerminationRule,
    asymptotic_pair,
    build_coefficients,
    estimate_step,
    gamma_general,
    gamma_zero_init,
    optimal_pair,
)


def test_zero_start_closed_form_matches_general_route():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        u = rng.normal(size=n) * rng.uniform(0.1, 10.0)
        v = rng.normal(size=n) * rng.uniform(0.1, 10.0)
        direct = gamma_zero_init(u, v)
        assert direct == pytest.approx(np.linalg.norm(v) / np.linalg.norm(u), rel=1e-14)
        assert gamma_general(u, v, np.zeros(n)) == pytest.approx(direct, rel=1e-10)
        assert gamma_general(u, v) == pytest.approx(direct, rel=1e-10)


def test_zero_start_rejects_degenerate_vectors():
    with pytest.raises(DegenerateProblemError):
        gamma_zero_init(np.zeros(3), np.ones(3))
    with pytest.raises(DegenerateProblemError):
        gamma_zero_init(np.ones(3), np.zeros(3))


def test_matched_start_vector_is_a_root():
    # starting from beta*u + v/beta, the distance polynomial vanishes at beta
    # and the selected penalty is exactly beta squared
    rng = np.random.default_rng(1)
    for beta in (0.5, 1.0, 2.0, 10.0):
        u = rng.normal(size=12)
        v = rng.normal(size=12)
        zeta0 = beta * u + v / beta
        c = build_coefficients(u, v, zeta0)
        assert abs(c.poly(beta)) <= 1e-9 * c.scale()
        assert gamma_general(u, v, zeta0) == pytest.approx(beta * beta, rel=1e-8)


def test_optimal_pair_contents_and_invariant():
    rng = np.random.default_rng(2)
    u = rng.normal(size=9)
    v = rng.normal(size=9)
    pair = optimal_pair(u, v, 2.0)
    assert pair.gamma == pytest.approx(4.0, rel=1e-14)
    assert np.allclose(pair.zeta0, 2.0 * u + v / 2.0, atol=1e-14)
    with pytest.raises(ValueError):
        OptimalPair(beta=2.0, zeta0=pair.zeta0, gamma=3.9)


def test_asymptotic_pairs():
    rng = np.random.default_rng(3)
    u = rng.normal(size=7)
    v = rng.normal(size=7)
    p = asymptotic_pair("primal", u, 10.0)
    assert p.gamma == pytest.approx(100.0) and np.allclose(p.zeta0, 10.0 * u)
    d = asymptotic_pair("dual", v, 0.1)
    assert d.gamma == pytest.approx(0.01) and np.allclose(d.zeta0, v / 0.1)
    with pytest.raises(ValueError):
        asymptotic_pair("sideways", u, 1.0)


def test_asymptotic_start_iterations_shrink_with_scale(desk, oracle):
    inst = desk("lp")
    o = oracle("lp")
    rule = TerminationRule(tol=1e-6, max_iter=100_000)
    primal_iters = []
    for beta in (10.0, 100.0, 1000.0):
        pair = asymptotic_pair("primal", o.ax, beta)
        rec = at.solve(inst.spec, StepSizePlan.fixed(pair.gamma), init=pair.zeta0, rule=rule)
        primal_iters.append(rec.iterations_to_tol)
    assert primal_iters[2] <= primal_iters[1] <= primal_iters[0]
    dual_iters = []
    for beta in (0.1, 0.01, 0.001):
        pair = asymptotic_pair("dual", o.lam, beta)
        rec = at.solve(inst.spec, StepSizePlan.fixed(pair.gamma), init=pair.zeta0, rule=rule)
        dual_iters.append(rec.iterations_to_tol)
    assert dual_iters[2] <= dual_iters[1] <= dual_iters[0]
    # the matching fixed point is approached in direction as the scale grows
    rel = []
    for beta in (10.0, 100.0, 1000.0):
        pair = asymptotic_pair("primal", o.ax, beta)
        star = np.sqrt(pair.gamma) * o.ax + o.lam / np.sqrt(pair.gamma)
        rel.append(np.linalg.norm(pair.zeta0 - star) / np.linalg.norm(pair.zeta0))
    assert rel[2] < rel[1] < rel[0]


def test_plan_validation_and_description():
    with pytest.raises(ValueError):
        StepSizePlan(mode="magic")
    with pytest.raises(ValueError):
        StepSizePlan.fixed(0.0)
    with pytest.raises(ValueError):
        StepSizePlan.estimated(gamma0=-1.0)
    with pytest.raises(ValueError):
        StepSizePlan(mode=at.ORACLE)
    assert "fixed" in StepSizePlan.fixed(2.0).describe()
    assert "freeze_after=5" in StepSizePlan.estimated(freeze_after=5).describe()
    assert "zero" in StepSizePlan.oracle(np.ones(2), np.ones(2)).describe()


def test_estimate_step_guards():
    plan = StepSizePlan.estimated()
    good = SolverState(x=np.ones(4), z=np.ones(4), lam=2.0 * np.ones(4), gamma=1.0, k=3)
    assert estimate_step(good, plan) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        estimate_step(good, StepSizePlan.fixed(1.0))
    fresh = SolverState(x=np.ones(4), z=np.ones(4), lam=np.ones(4), gamma=1.0, k=0)
    with pytest.raises(ValueError):
        estimate_step(fresh, plan)


def test_estimate_step_freeze_and_threshold():
    state = SolverState(x=np.ones(4), z=np.ones(4), lam=2.0 * np.ones(4), gamma=1.0, k=10)
    frozen = StepSizePlan.estimated(freeze_after=5)
    assert estimate_step(state, frozen) == 1.0
    coarse = StepSizePlan.estimated(update_threshold=2.0)
    assert estimate_step(state, coarse) == 1.0  # |2 - 1| <= 2 * 1 keeps the old value
    fine = StepSizePlan.estimated(update_threshold=0.5)
    assert estimate_step(state, fine) == pytest.approx(2.0)


def test_estimate_step_degenerate_iterates_keep_gamma():
    plan = StepSizePlan.estimated()
    state = SolverState(x=np.zeros(4), z=np.zeros(4), lam=np.ones(4), gamma=0.7, k=2)
    assert estimate_step(state, plan) == 0.7
    state = SolverState(x=np.ones(4), z=np.zeros(4), lam=1e-14 * np.ones(4), gamma=0.7, k=2)
    assert estimate_step(state, plan) == 0.7


def test_estimate_step_accepts_array_like_iterates():
    plan = StepSizePlan.estimated()
    want = estimate_step(SolverState(x=np.ones(4), z=np.ones(4), lam=2.0 * np.ones(4),
                                     gamma=1.0, k=3), plan)
    for x, lam in (([1, 1, 1, 1], [2, 2, 2, 2]),
                   (np.ones((2, 2)), 2.0 * np.ones((2, 2))),
                   (np.ones(4, dtype=int), np.full(4, 2, dtype=int))):
        state = SolverState(x=x, z=np.ones(4), lam=lam, gamma=1.0, k=3)
        assert estimate_step(state, plan) == want


def test_estimate_step_prefers_cached_constraint_image():
    plan = StepSizePlan.estimated()
    state = SolverState(x=np.ones(4), z=np.ones(4), lam=np.ones(4), gamma=1.0, k=2,
                        ax=4.0 * np.ones(4))
    assert estimate_step(state, plan) == pytest.approx(0.25)


def test_estimated_run_moves_gamma_and_converges(desk):
    inst = desk("lasso")
    rec = at.solve(inst.spec, StepSizePlan.estimated(),
                   rule=TerminationRule(tol=1e-6, max_iter=50_000))
    assert rec.converged
    assert rec.final_gamma != 1.0
    gammas = {row[1] for row in rec.rows}
    assert len(gammas) > 1


def test_structure_guesses(desk):
    lp = desk("lp")
    A, b = lp.data["A"], lp.data["b"]
    assert np.array_equal(lp.structure_start(), A.T @ np.linalg.solve(A @ A.T, b))
    qp = desk("qp")
    assert np.array_equal(qp.structure_start(), 0.5 * (qp.data["lower"] + qp.data["upper"]))
    for kind in ("lad", "huber", "bp", "lasso", "tv", "sics"):
        inst = desk(kind)
        start = inst.structure_start()
        assert start.shape == (inst.spec.p,) and not start.any()


def test_structure_guess_feasibility(desk):
    lp = desk("lp")
    A, b = lp.data["A"], lp.data["b"]
    assert np.allclose(A @ lp.structure_start(), b, atol=1e-10)


def test_plan_rejects_non_finite_and_non_integer_settings():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="gamma0"):
            StepSizePlan.fixed(bad)
        with pytest.raises(ValueError, match="gamma0"):
            StepSizePlan.estimated(gamma0=bad)
        with pytest.raises(ValueError, match="update_threshold"):
            StepSizePlan.estimated(update_threshold=bad)
    for bad in (2.5, True, -1, "3"):
        with pytest.raises(ValueError, match="freeze_after"):
            StepSizePlan.estimated(freeze_after=bad)
    assert StepSizePlan.estimated(freeze_after=0).freeze_after == 0
    assert StepSizePlan.estimated(freeze_after=np.int64(3)).freeze_after == 3


def test_non_finite_solution_vectors_are_named(desk):
    with pytest.raises(ValueError, match="ax_star must be finite"):
        gamma_zero_init([np.inf, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="lambda_star must be finite"):
        gamma_zero_init([1.0, 1.0], [np.nan, 1.0])
    with pytest.raises(ValueError, match="ax_star must be finite"):
        build_coefficients([np.nan, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="lambda_star must be finite"):
        gamma_general([1.0, 1.0], [1.0, np.inf], np.ones(2))
    spec = desk("qp").spec
    bad = StepSizePlan.oracle(np.full(spec.p, np.nan), np.ones(spec.p))
    with pytest.raises(ValueError, match="ax_star must be finite"):
        at.solve(spec, bad)
    u, v = np.array([3.0, 4.0]), np.array([6.0, 8.0])
    assert gamma_zero_init(u, v) == 2.0


def test_zero_start_estimate_is_the_gamma_general_bits():
    rng = np.random.default_rng(5)
    plan = StepSizePlan.estimated()
    for _ in range(500):
        n = int(rng.integers(1, 50))
        ax = rng.normal(size=n) * 10.0 ** rng.uniform(-5.0, 5.0)
        lam = rng.normal(size=n) * 10.0 ** rng.uniform(-5.0, 5.0)
        state = SolverState(x=None, z=None, lam=lam, gamma=1.0, k=1, ax=ax)
        assert estimate_step(state, plan) == gamma_general(ax, lam)


def test_estimate_step_overflowing_iterates_raise():
    plan = StepSizePlan.estimated()
    big = SolverState(x=np.full(4, 1e200), z=np.ones(4), lam=np.ones(4), gamma=1.0, k=2)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="coefficient a must be finite"):
        estimate_step(big, plan)
    big = SolverState(x=np.ones(4), z=np.ones(4), lam=np.full(4, 1e200), gamma=1.0, k=2)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="coefficient e must be finite"):
        estimate_step(big, plan)


def _gamma_general_estimate(state, plan):
    """estimate_step's rules, with every estimate taken through gamma_general."""
    current = float(state.gamma)
    if plan.freeze_after is not None and state.k >= plan.freeze_after:
        return current
    ax = state.ax if state.ax is not None else state.x
    if np.linalg.norm(ax) < 1e-12 or np.linalg.norm(state.lam) < 1e-12:
        return current
    new = gamma_general(ax, state.lam)
    if plan.update_threshold > 0.0 and abs(new - current) <= plan.update_threshold * current:
        return current
    return new


@pytest.mark.parametrize("kind", ["lp", "tv"])
@pytest.mark.parametrize("plan", [StepSizePlan.estimated(), StepSizePlan.estimated(0.5, 0.01, 30)],
                         ids=["default", "threshold-freeze"])
def test_estimated_gamma_column_is_the_gamma_general_loop(desk, monkeypatch, kind, plan):
    spec = desk(kind).spec
    rule = TerminationRule(tol=1e-6, max_iter=100_000)
    got = at.solve(spec, plan, rule=rule)
    monkeypatch.setattr(tuner_mod, "estimate_step", _gamma_general_estimate)
    want = at.solve(spec, plan, rule=rule)
    gammas = [row[1] for row in got.rows]
    assert gammas == [row[1] for row in want.rows]
    assert len(set(gammas)) > 1


def test_solve_estimates_once_per_sweep_after_the_first(desk, monkeypatch):
    real_estimate, real_quartic = tuner_mod.estimate_step, quartic_mod.solve_quartic
    seen, quartic_calls = [], []

    def estimate(state, plan, *args):
        seen.append((state, state.k))
        return real_estimate(state, plan, *args)

    def quartic(coefficients):
        quartic_calls.append(coefficients)
        return real_quartic(coefficients)

    monkeypatch.setattr(tuner_mod, "estimate_step", estimate)
    monkeypatch.setattr(quartic_mod, "solve_quartic", quartic)
    rec = at.solve(desk("tv").spec, StepSizePlan.estimated(),
                   rule=TerminationRule(tol=1e-6, max_iter=100_000))
    assert len(seen) == rec.iterations - 1
    assert [k for _, k in seen] == list(range(1, rec.iterations))
    # one state per run, refreshed in place
    assert all(state is seen[0][0] for state, _ in seen)
    # zero-start estimates take the biquadratic root without the quartic solver
    assert not quartic_calls
