import math

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
from conftest import ReferenceState, apply_A, apply_B, reference_step


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
    assert spec.A is None and spec.B is None
    assert np.array_equal(spec.c, np.zeros(6))


def test_dimension_conflicts_rejected():
    with pytest.raises(ValueError):
        ProblemSpec(prox_f=None, prox_g=None)
    with pytest.raises(ValueError):
        ProblemSpec(prox_f=None, prox_g=None, A=np.ones((3, 2)), c=np.ones(4))


@pytest.mark.parametrize("maps, message", [
    (dict(A=np.ones(3)), r"A must be 2-d, got shape \(3,\)"),
    (dict(B=np.ones((2, 2, 2))), r"B must be 2-d, got shape \(2, 2, 2\)"),
])
def test_constraint_maps_must_be_matrices(maps, message):
    with pytest.raises(ValueError, match=message):
        ProblemSpec(prox_f=None, prox_g=None, **maps)


def test_spec_holds_read_only_copies_of_its_maps():
    A, B, c = np.eye(3)[:, :2], -np.eye(3), np.arange(3.0)
    fortran = np.asfortranarray(np.ones((3, 2)) + np.eye(3, 2))
    spec = ProblemSpec(prox_f=None, prox_g=None, A=A, B=B, c=c)
    for name, held, given in (("A", spec.A, A), ("B", spec.B, B), ("c", spec.c, c)):
        assert not np.shares_memory(held, given), name
        with pytest.raises(ValueError, match="read-only"):
            held[...] = 5.0
        given[...] = 5.0
        assert not np.any(held == 5.0), name
    # the layout M.dot runs its gemv on: Fortran stays Fortran, a strided view goes C
    assert ProblemSpec(prox_f=None, prox_g=None, A=fortran).A.flags.f_contiguous
    assert ProblemSpec(prox_f=None, prox_g=None, A=fortran[:, ::-1]).A.flags.c_contiguous
    assert not small_spec().c.flags.writeable


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
        x = spec.prox_f(spec.c - apply_B(spec, z) - lam / g, g)
        z = spec.prox_g(spec.c - apply_A(spec, x) - lam / g, g)
        lam = lam + g * (apply_A(spec, x) + apply_B(spec, z) - spec.c)
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
    with pytest.raises(ArithmeticError, match="at sweep 2"):
        solve(spec, StepSizePlan.fixed(1.0), init=np.ones(2), rule=TerminationRule(max_iter=5))


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_solve_rejects_non_finite_iterate(value):
    spec = ProblemSpec(
        prox_f=lambda w, g: np.full_like(w, value),
        prox_g=lambda w, g: -w,
        p=2,
    )
    with pytest.raises(ArithmeticError):
        solve(spec, StepSizePlan.fixed(1.0), rule=TerminationRule(max_iter=5))


def test_solve_records_overflowing_residue_of_finite_iterates():
    # every entry stays near 1e200, but the squared step norm overflows
    spec = ProblemSpec(
        prox_f=lambda w, g: np.full_like(w, 1e200),
        prox_g=lambda w, g: np.zeros_like(w),
        p=2,
    )
    rec = solve(spec, StepSizePlan.fixed(1.0), rule=TerminationRule(max_iter=3))
    assert rec.iterations == 3 and not rec.converged
    assert all(np.isinf(row[2]) for row in rec.rows)
    assert np.all(np.isfinite(rec.zeta_unscaled))


def _box_spec(f_bound, g_bound, p=3):
    """Box proxes on both sides with A, B and c the defaults: gap = x - z."""
    fh = catalog_prox("box", dim=p, lower=-f_bound, upper=f_bound)
    gh = catalog_prox("box", dim=p, lower=-g_bound, upper=g_bound)
    return ProblemSpec(prox_f=fh.evaluate, prox_g=gh.evaluate, p=p)


@pytest.mark.parametrize("kind", at.KINDS)
@pytest.mark.parametrize("plan", [StepSizePlan.fixed(1.0), StepSizePlan.estimated()], ids=["fixed", "estimated"])
def test_residue_is_sqrt_gamma_times_infeasibility(desk, kind, plan):
    # the step between unscaled fixed-point vectors is sqrt(gamma) (A x + B z - c)
    rec = solve(desk(kind).spec, plan)
    assert rec.converged
    for k, gamma, residue, _, infeasibility in rec.rows:
        assert residue == math.sqrt(gamma) * infeasibility, k


def test_start_that_overflows_its_scaling_raises_at_sweep_one():
    # zeta0 / sqrt(1e-300) is inf; the clipped iterates leave a finite gap
    spec = _box_spec(1.0, 2.0)
    with pytest.raises(ArithmeticError, match="non-finite iterate at sweep 1"):
        solve(spec, StepSizePlan.fixed(1e-300), init=np.full(3, 1e300))


def test_sigma_near_the_largest_float_keeps_a_finite_row():
    # sigma + gap stays finite: a finite gap is far below half an ulp of sigma
    big = np.finfo(float).max
    rec = solve(_box_spec(2.0, 1.0), StepSizePlan.fixed(1.0), init=np.full(3, big),
                rule=TerminationRule(max_iter=3))
    assert rec.iterations == 3 and not rec.converged
    # x = -2 and z = -1 in every entry, so each row reads a gap of norm sqrt(3)
    assert all(row[2] == row[4] == math.sqrt(3.0) for row in rec.rows)
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
    with pytest.raises(ValueError, match="reciprocal"):
        drs_step(np.zeros(6), spec, 1e-320)
    assert np.all(np.isfinite(drs_step(np.zeros(6), spec, 1e-300)))
    with pytest.raises(ValueError):
        drs_step(np.zeros(5), spec, 1.0)


def test_termination_rule_validation():
    with pytest.raises(ValueError):
        TerminationRule(tol=0.0)
    with pytest.raises(ValueError):
        TerminationRule(max_iter=-1)
    with pytest.raises(ValueError):
        TerminationRule(max_iter=2.5)
    for flag in (True, False):
        with pytest.raises(ValueError, match="not a bool"):
            TerminationRule(max_iter=flag)
    assert TerminationRule(tol=np.inf).tol == np.inf
    assert TerminationRule(max_iter=0).max_iter == 0


def test_sweep_counts_share_one_check():
    # max_iter and freeze_after refuse the same values with the same message
    # and both take numpy integers
    for bad in (True, np.bool_(True), -1, 2.5, "3"):
        with pytest.raises(ValueError, match="max_iter must be a nonnegative integer"):
            TerminationRule(max_iter=bad)
        with pytest.raises(ValueError, match="freeze_after must be a nonnegative integer"):
            StepSizePlan.estimated(freeze_after=bad)
    assert StepSizePlan.estimated(freeze_after=np.int64(5)).freeze_after == 5
    rule = TerminationRule(tol=1e-300, max_iter=np.int64(5))
    rec = solve(small_spec(seed=8), StepSizePlan.fixed(1.0), rule=rule)
    assert rec.iterations == 5 and [row[0] for row in rec.rows] == [1, 2, 3, 4, 5]


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


def test_columns_off_keeps_every_bit_and_never_calls_the_objective():
    spec = small_spec(seed=6)
    rule = TerminationRule(tol=1e-8, max_iter=5000)
    full = solve(spec, StepSizePlan.estimated(), rule=rule)

    def refuse(x, z):
        raise AssertionError("objective called with columns off")

    spec.objective = refuse
    bare = solve(spec, StepSizePlan.estimated(), rule=rule, columns=False)
    assert [r[:3] for r in bare.rows] == [r[:3] for r in full.rows]
    assert all(np.isnan(r[3]) and np.isnan(r[4]) for r in bare.rows)
    for name in ("x", "z", "lam", "ax", "zeta_unscaled"):
        assert np.array_equal(getattr(bare, name), getattr(full, name)), name
    assert bare.final_gamma == full.final_gamma


@pytest.mark.parametrize("kind", at.KINDS)
def test_frozen_estimate_forms_lam_each_sweep_and_matches_fixed(desk, kind):
    # the estimated plan forms lam every sweep, the fixed plan once after the
    # loop; frozen at once, the estimated plan runs at gamma0 throughout
    spec = desk(kind).spec
    fixed = solve(spec, StepSizePlan.fixed(1.0))
    frozen = solve(spec, StepSizePlan.estimated(freeze_after=0))
    assert frozen.rows == fixed.rows
    for name in ("x", "z", "lam", "ax", "zeta_unscaled"):
        assert np.array_equal(getattr(frozen, name), getattr(fixed, name)), name


def test_explicit_minus_identity_b_sweeps_as_the_default(desk):
    # B = None is minus the identity; spelled out, the sweep takes its
    # explicit-B branch and must land on the same bits
    spec = desk("qp").spec
    explicit = ProblemSpec(spec.prox_f, spec.prox_g, spec.objective, B=-np.eye(spec.p))
    assert explicit.B is not None and spec.B is None
    for plan in (StepSizePlan.fixed(1.0), StepSizePlan.estimated()):
        want, got = solve(spec, plan), solve(explicit, plan)
        assert got.rows == want.rows
        for name in ("x", "z", "lam", "ax", "zeta_unscaled"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_infinite_tolerance_returns_before_any_sweep():
    spec = small_spec()
    rec = solve(spec, StepSizePlan.fixed(1.0), rule=TerminationRule(tol=np.inf))
    assert rec.iterations == 0 and rec.rows == [] and rec.converged


def test_max_iter_without_convergence():
    spec = small_spec(seed=8)
    rec = solve(spec, StepSizePlan.fixed(1.0), rule=TerminationRule(tol=1e-300, max_iter=7))
    assert rec.iterations == 7 and not rec.converged and rec.iterations_to_tol is None


def test_bare_vector_start_is_the_unscaled_iterate():
    spec = small_spec(seed=10)
    g = 2.5
    zeta0 = np.ones(6)
    rec = solve(spec, StepSizePlan.fixed(g), init=zeta0,
                rule=TerminationRule(tol=1e-300, max_iter=1))
    sigma1 = drs_step(zeta0 / np.sqrt(g), spec, g)
    assert np.array_equal(rec.zeta_unscaled, np.sqrt(g) * sigma1)


def test_residue_monotone_under_fixed_gamma():
    spec = small_spec(seed=12)
    rec = solve(spec, StepSizePlan.fixed(1.0), rule=TerminationRule(tol=1e-10, max_iter=5000))
    res = rec.residues
    assert all(res[i + 1] <= res[i] + 1e-12 for i in range(len(res) - 1))


def test_contradiction_report_with_supplied_solution():
    rng = np.random.default_rng(13)
    u = rng.normal(size=6)
    v = rng.normal(size=6)
    rep = contradiction_demo(u, v)
    g1 = -np.dot(v, v) / np.dot(u, v)
    g2 = -np.dot(v, u) / np.dot(u, u)
    assert rep.gamma_dagger_primal == pytest.approx(g1, rel=1e-12)
    assert rep.gamma_dagger_dual == pytest.approx(g2, rel=1e-12)
    assert rep.gamma_star == pytest.approx(np.linalg.norm(v) / np.linalg.norm(u), rel=1e-10)
    assert rep.contradiction
    text = rep.as_text()
    assert "gamma" in text and str() != text


def test_contradiction_handles_vanishing_denominator():
    u = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    zeta0 = u.copy()  # <Ax* - zeta0, lam*> = 0 kills the primal-view formula
    rep = contradiction_demo(u, v, zeta0)
    assert rep.gamma_dagger_primal is None
    assert rep.contradiction
    assert rep.gamma_star > 0.0
    # a zero ax_star leaves the dual-view quotient undefined
    with pytest.raises(at.DegenerateProblemError):
        contradiction_demo(np.zeros(6), np.ones(6))


def test_contradiction_needs_the_solution_pair_at_the_constraint_length():
    with pytest.raises(TypeError):
        contradiction_demo(np.ones(6))
    # the pair and the start must share one length, checked as the quartic checks it
    with pytest.raises(ValueError, match="matching sizes, got 6 and 5"):
        contradiction_demo(np.ones(6), np.ones(5))
    with pytest.raises(ValueError, match="zeta0 must have size 6, got 5"):
        contradiction_demo(np.ones(6), np.ones(6), np.ones(5))


def test_closed_form_step_that_rounds_to_zero_is_rejected_by_the_plan():
    e1 = np.eye(6)[0]
    # a = 1e300, b = -1, d = 1e-300, e = -1e-300: the true root is about
    # 1e-150, which the companion route does not reach; the roots it
    # returns fail the term-size check, so the solve raises
    with pytest.raises(ArithmeticError, match="no positive real root"):
        at.gamma_general(1e150 * e1, 1e-150 * e1, 1e-150 * e1)
    # a = 1e300, e = -1e-320: the zero-start root (-e/a)**0.25 underflows to 0.0
    gamma = at.gamma_general(1e150 * e1, 1e-160 * e1)
    assert gamma == 0.0
    with pytest.raises(ValueError, match="gamma0 must be positive and finite"):
        StepSizePlan.fixed(gamma)


def test_start_vector_must_fit_the_spec(desk):
    spec = desk("qp").spec
    with pytest.raises(ValueError, match="zeta0 must have length 30, got 3"):
        solve(spec, StepSizePlan.fixed(1.0), init=np.ones(3))
