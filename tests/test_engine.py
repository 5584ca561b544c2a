import numpy as np
import pytest

import admmtune as at
from admmtune import (
    ProblemSpec,
    RunRecord,
    StepSizePlan,
    TerminationRule,
    catalog_prox,
    contradiction_demo,
    drs_step,
    solve,
)
from conftest import ReferenceState, reference_step


def small_spec(seed=0, n=6):
    """Identity-split problem: smooth quadratic for x, shrinkage for z."""
    rng = np.random.default_rng(seed)
    A_data = rng.normal(size=(2 * n, n))
    b_data = rng.normal(size=2 * n)
    fh = catalog_prox("lstsq", A=A_data, b=b_data)
    gh = catalog_prox("l1", dim=n, weight=0.4)
    return ProblemSpec(
        prox_f=lambda w, g: fh(w, 1.0 / g),
        prox_g=lambda w, g: gh(-w, 1.0 / g),
        objective=lambda x, z: 0.5 * np.sum((A_data @ x - b_data) ** 2) + 0.4 * np.sum(np.abs(z)),
        p=n,
    )


def test_dimension_inference_and_defaults():
    spec = small_spec()
    assert (spec.n, spec.m, spec.p) == (6, 6, 6)
    v = np.arange(6.0)
    assert np.allclose(spec.apply_A(v), v)
    assert np.allclose(spec.apply_B(v), -v)
    assert np.allclose(spec.constraint_gap(v, v), np.zeros(6))


def test_dimension_conflicts_rejected():
    with pytest.raises(ValueError):
        ProblemSpec(prox_f=None, prox_g=None)
    with pytest.raises(ValueError):
        ProblemSpec(prox_f=None, prox_g=None, A=np.ones((3, 2)), c=np.ones(4))


def test_rank_check_toggle():
    deficient = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    with pytest.raises(ValueError):
        ProblemSpec(prox_f=None, prox_g=None, A=deficient, c=np.zeros(3))
    spec = ProblemSpec(prox_f=None, prox_g=None, A=deficient, c=np.zeros(3), rank_check=False)
    assert spec.n == 2
    wide = np.ones((1, 3))
    with pytest.raises(ValueError):
        ProblemSpec(prox_f=None, prox_g=None, A=wide, c=np.zeros(1))


def test_sweep_matches_reference_recursion():
    # drive the reference stepper and an inline textbook recursion side by side
    spec = small_spec(seed=3)
    g = 0.9
    state = ReferenceState(x=np.zeros(6), z=np.zeros(6), lam=np.zeros(6), gamma=g)
    x = np.zeros(6)
    z = np.zeros(6)
    lam = np.zeros(6)
    for _ in range(30):
        reference_step(state, spec)
        x = spec.prox_f(spec.c - spec.apply_B(z) - lam / g, g)
        z = spec.prox_g(spec.c - spec.apply_A(x) - lam / g, g)
        lam = lam + g * (spec.apply_A(x) + spec.apply_B(z) - spec.c)
        assert np.allclose(state.x, x, atol=1e-12)
        assert np.allclose(state.z, z, atol=1e-12)
        assert np.allclose(state.lam, lam, atol=1e-12)
    assert state.k == 30


def test_divergent_iterates_raise():
    spec = ProblemSpec(
        prox_f=lambda w, g: w * 1e200,
        prox_g=lambda w, g: -w,
        p=2,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ArithmeticError):
            solve(spec, StepSizePlan.fixed(1.0), init=(np.zeros(2), np.ones(2), np.zeros(2)),
                  rule=TerminationRule(max_iter=5))


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_solve_rejects_non_finite_iterate(value):
    spec = ProblemSpec(
        prox_f=lambda w, g: np.full_like(w, value),
        prox_g=lambda w, g: -w,
        p=2,
    )
    with np.errstate(invalid="ignore"):
        with pytest.raises(ArithmeticError):
            solve(spec, StepSizePlan.fixed(1.0), rule=TerminationRule(max_iter=5))


def test_solve_records_overflowing_residue_of_finite_iterates():
    # every entry stays near 1e200, but the squared step norm overflows
    spec = ProblemSpec(
        prox_f=lambda w, g: np.full_like(w, 1e200),
        prox_g=lambda w, g: np.zeros_like(w),
        p=2,
    )
    with np.errstate(over="ignore"):
        rec = solve(spec, StepSizePlan.fixed(1.0), rule=TerminationRule(max_iter=3))
    assert rec.iterations == 3 and not rec.converged
    assert all(np.isinf(row[2]) for row in rec.rows)
    assert np.all(np.isfinite(rec.zeta_unscaled))


@pytest.mark.parametrize("kind", ["lp", "lasso"])
def test_non_finite_start_is_rejected(desk, kind):
    spec = desk(kind).spec
    plan = StepSizePlan.fixed(1.0)
    for value in (np.nan, np.inf):
        bad = np.zeros(spec.p)
        bad[0] = value
        with pytest.raises(ValueError):
            solve(spec, plan, init=bad)
        with pytest.raises(ValueError):
            drs_step(bad, spec, 1.0)
        for slot in range(3):
            triple = [np.zeros(spec.n), np.zeros(spec.m), np.zeros(spec.p)]
            triple[slot] = np.full_like(triple[slot], value)
            with pytest.raises(ValueError):
                solve(spec, plan, init=tuple(triple))


def test_halved_averaging_reproduces_sweeps():
    spec = small_spec(seed=5)
    g = 1.7
    state = ReferenceState(x=np.zeros(6), z=np.zeros(6), lam=np.zeros(6), gamma=g)
    sigmas = []
    for _ in range(25):
        reference_step(state, spec)
        sigmas.append(state.zeta_unscaled / np.sqrt(g))
    sig = sigmas[0].copy()
    for j in range(1, 25):
        sig = drs_step(sig, spec, g)
        assert np.linalg.norm(sig - sigmas[j]) <= 1e-10


def test_drs_step_validation():
    spec = small_spec()
    with pytest.raises(ValueError):
        drs_step(np.zeros(6), spec, -1.0)
    with pytest.raises(ValueError):
        drs_step(np.zeros(6), spec, 1.0, theta=1.0)
    with pytest.raises(ValueError):
        drs_step(np.zeros(5), spec, 1.0)


def test_termination_rule_validation():
    with pytest.raises(ValueError):
        TerminationRule(tol=0.0)
    with pytest.raises(ValueError):
        TerminationRule(theta=0.0)
    with pytest.raises(ValueError):
        TerminationRule(max_iter=-1)
    with pytest.raises(ValueError):
        TerminationRule(max_iter=2.5)
    assert TerminationRule(tol=np.inf).tol == np.inf
    assert TerminationRule(max_iter=0).max_iter == 0


def test_solve_record_contents():
    spec = small_spec(seed=6)
    rule = TerminationRule(tol=1e-8, max_iter=5000)
    rec = solve(spec, StepSizePlan.fixed(1.0), rule=rule)
    assert isinstance(rec, RunRecord)
    assert rec.converged and rec.iterations == rec.iterations_to_tol
    assert rec.final_gamma == 1.0
    assert len(rec.rows) == rec.iterations
    k, gamma, residue, objective, infeas = rec.rows[-1]
    assert k == rec.iterations and gamma == 1.0
    assert residue == rec.residues[-1] <= 1e-8
    assert np.isfinite(objective)
    assert infeas <= 1e-6
    assert rec.wall_time >= 0.0
    assert rec.first_k_below(1e-4) <= rec.iterations


def test_solve_residues_match_stepper():
    spec = small_spec(seed=7)
    rule = TerminationRule(tol=1e-300, max_iter=40)
    rec = solve(spec, StepSizePlan.fixed(0.8), rule=rule)
    state = ReferenceState(x=np.zeros(6), z=np.zeros(6), lam=np.zeros(6), gamma=0.8)
    for _ in range(40):
        reference_step(state, spec)
    assert np.allclose(rec.x, state.x, atol=1e-10)
    assert np.allclose(rec.lam, state.lam, atol=1e-10)
    # the stepper has no start-of-run baseline, so its chained distances begin
    # one sweep later than the solver's
    assert np.allclose(rec.residues[1:], state.residue_history, atol=1e-10)


def test_infinite_tolerance_returns_before_any_sweep():
    spec = small_spec()
    rec = solve(spec, StepSizePlan.fixed(1.0), rule=TerminationRule(tol=np.inf))
    assert rec.iterations == 0 and rec.rows == [] and rec.converged


def test_max_iter_without_convergence():
    spec = small_spec(seed=8)
    rec = solve(spec, StepSizePlan.fixed(1.0), rule=TerminationRule(tol=1e-300, max_iter=7))
    assert rec.iterations == 7 and not rec.converged and rec.iterations_to_tol is None


def test_zero_triple_runs_one_sweep_ahead():
    # a triple start consumes one priming x step, so its run is the default
    # run advanced by exactly one sweep
    spec = small_spec(seed=9)
    rule = TerminationRule(tol=1e-300, max_iter=20)
    base = solve(spec, StepSizePlan.fixed(1.1), rule=rule)
    primed = solve(spec, StepSizePlan.fixed(1.1),
                   init=(np.zeros(6), np.zeros(6), np.zeros(6)), rule=rule)
    assert np.allclose(primed.residues[:-1], base.residues[1:], atol=1e-12)


def test_bare_vector_start_is_the_unscaled_iterate():
    spec = small_spec(seed=10)
    g = 2.5
    zeta0 = np.ones(6)
    rec = solve(spec, StepSizePlan.fixed(g), init=zeta0,
                rule=TerminationRule(tol=1e-300, max_iter=1), trace=True)
    assert np.allclose(rec.trace["sigma"][0], zeta0 / np.sqrt(g), atol=1e-14)


def test_trace_shapes():
    spec = small_spec(seed=11)
    rec = solve(spec, StepSizePlan.fixed(1.0),
                rule=TerminationRule(tol=1e-300, max_iter=9), trace=True)
    assert len(rec.trace["sigma"]) == 10  # initial point plus one per sweep
    assert rec.trace["y_one"][0] is None
    assert len(rec.trace["y_one"]) == 10
    no_trace = solve(spec, StepSizePlan.fixed(1.0),
                     rule=TerminationRule(tol=1e-300, max_iter=9))
    assert no_trace.trace is None


def test_residue_monotone_under_fixed_gamma():
    spec = small_spec(seed=12)
    rec = solve(spec, StepSizePlan.fixed(1.0), rule=TerminationRule(tol=1e-10, max_iter=5000))
    res = rec.residues
    assert all(res[i + 1] <= res[i] + 1e-12 for i in range(len(res) - 1))


def test_contradiction_report_with_supplied_solution():
    rng = np.random.default_rng(13)
    spec = small_spec(seed=13)
    u = rng.normal(size=6)
    v = rng.normal(size=6)
    rep = contradiction_demo(spec, ax_star=u, lambda_star=v)
    g1 = -np.dot(v, v) / np.dot(u, v)
    g2 = -np.dot(v, u) / np.dot(u, u)
    assert rep.gamma_dagger_primal == pytest.approx(g1, rel=1e-12)
    assert rep.gamma_dagger_dual == pytest.approx(g2, rel=1e-12)
    assert rep.gamma_star == pytest.approx(np.linalg.norm(v) / np.linalg.norm(u), rel=1e-10)
    assert rep.contradiction
    text = rep.as_text()
    assert "gamma" in text and str() != text


def test_contradiction_handles_vanishing_denominator():
    spec = small_spec(seed=14)
    u = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    zeta0 = u.copy()  # <Ax* - zeta0, lam*> = 0 kills the primal-view formula
    rep = contradiction_demo(spec, zeta0, ax_star=u, lambda_star=v)
    assert rep.gamma_dagger_primal is None
    assert rep.contradiction
    assert rep.gamma_star > 0.0
