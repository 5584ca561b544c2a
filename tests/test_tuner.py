import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import admmtune as at
import admmtune.quartic as quartic_mod
import admmtune.tuner as tuner_mod
from admmtune import (
    DegenerateProblemError,
    OptimalPair,
    SolverState,
    StepSizePlan,
    TerminationRule,
    build_coefficients,
    contradiction_demo,
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
    # a pair of two sizes is no solution pair, as on the quartic route
    with pytest.raises(ValueError, match="matching sizes"):
        gamma_zero_init([3.0, 4.0], [5.0])
    with pytest.raises(ValueError, match="zeta0 must have size 30"):
        gamma_general(np.ones(30), np.ones(30), np.ones(3))
    # squared norms that overflow, which the quartic route rejects too
    with pytest.raises(ValueError, match="must be finite"):
        gamma_zero_init([1e200] * 2, [1e200] * 2)
    with pytest.raises(ValueError, match="coefficient a must be finite"):
        gamma_general([1e200] * 2, [1e200] * 2)
    # each coefficient reports its own value: e = -||lam||^2 is -inf
    with pytest.raises(ValueError, match="coefficient e must be finite, got -inf"):
        gamma_zero_init([1.0] * 2, [1e200] * 2)
    # finite squares whose inner products with the start overflow
    with pytest.raises(ValueError, match="coefficient b must be finite, got -inf"):
        gamma_general([1e150], [1.0], [1e200])
    with pytest.raises(ValueError, match="coefficient d must be finite"):
        gamma_general([1.0], [1e150], [1e200])
    # an infinite start entry facing a zero of ax_star would make a NaN
    with pytest.raises(ValueError, match="zeta0 must be finite"):
        gamma_general([1.0, 0.0], [1.0, 1.0], [1.0, np.inf])


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
    # gamma is derived from beta, never stored next to it
    assert [f.name for f in dataclasses.fields(OptimalPair)] == ["beta", "zeta0"]
    for beta in (0.3, 2.0, 7.0):
        assert OptimalPair(beta=beta, zeta0=pair.zeta0).gamma == beta * beta


_ONES = np.ones(3)
_ZEROS = np.zeros(3)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: OptimalPair(beta=1e200, zeta0=_ONES),
                 "gamma must be positive and finite", id="pair-gamma-overflows"),
    pytest.param(lambda: OptimalPair(beta=0.0, zeta0=_ONES),
                 "beta must be positive and finite", id="zero-beta"),
    # the one-sided starts: optimal_pair with the other side zero
    pytest.param(lambda: optimal_pair(_ONES, _ZEROS, 0.0),
                 "beta must be positive and finite", id="asymptotic-zero-beta"),
    pytest.param(lambda: optimal_pair(_ZEROS, _ONES, -1.0),
                 "beta must be positive and finite", id="asymptotic-negative-beta"),
    pytest.param(lambda: optimal_pair(_ONES, _ZEROS, np.nan),
                 "beta must be positive and finite", id="asymptotic-nan-beta"),
    pytest.param(lambda: optimal_pair(_ONES, _ONES, 1e200),
                 "gamma must be positive and finite", id="gamma-overflows"),
    pytest.param(lambda: optimal_pair(_ONES, _ONES, 1e-200),
                 "gamma must be positive and finite", id="gamma-underflows"),
    pytest.param(lambda: optimal_pair(_ONES, _ZEROS, 1e200),
                 "gamma must be positive and finite", id="asymptotic-gamma-overflows"),
    pytest.param(lambda: optimal_pair(_ZEROS, _ONES, 1e-200),
                 "gamma must be positive and finite", id="asymptotic-gamma-underflows"),
    pytest.param(lambda: optimal_pair(_ONES, np.ones(4), 1.0),
                 "matching sizes, got 3 and 4", id="mismatched-sizes"),
    # the messages gamma_general gives for the same pair
    pytest.param(lambda: optimal_pair([np.inf, 1.0], [1.0, 1.0], 1.0),
                 "ax_star must be finite", id="infinite-ax-star"),
    pytest.param(lambda: optimal_pair([1.0, 1.0], [1.0, np.nan], 1.0),
                 "lambda_star must be finite", id="nan-lambda-star"),
    pytest.param(lambda: optimal_pair([1.0, -np.inf], [0.0, 0.0], 1.0),
                 "ax_star must be finite", id="asymptotic-infinite-vector"),
    pytest.param(lambda: optimal_pair([0.0, 0.0], [np.nan, 1.0], 1.0),
                 "lambda_star must be finite", id="asymptotic-nan-vector"),
])
def test_pairs_reject_bad_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_optimal_pair_refuses_an_overflowing_start_without_a_warning():
    # beta and the pair are each admissible; their product overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"beta \* ax_star \+ lambda_star / beta overflows"):
            optimal_pair([1e300], [1.0], 1e10)
        with pytest.raises(ValueError, match=r"beta \* ax_star \+ lambda_star / beta overflows"):
            optimal_pair([1.0], [1e300], 1e-10)


def test_asymptotic_pairs():
    rng = np.random.default_rng(3)
    u = rng.normal(size=7)
    v = rng.normal(size=7)
    zero = np.zeros(7)
    p = optimal_pair(u, zero, 10.0)
    assert p.gamma == pytest.approx(100.0) and np.array_equal(p.zeta0, 10.0 * u)
    d = optimal_pair(zero, v, 0.1)
    assert d.gamma == pytest.approx(0.01) and np.array_equal(d.zeta0, v / 0.1)


def test_asymptotic_start_iterations_shrink_with_scale(desk, oracle):
    inst = desk("lp")
    o = oracle("lp")
    rule = TerminationRule(tol=1e-6, max_iter=100_000)
    primal_iters = []
    for beta in (10.0, 100.0, 1000.0):
        pair = optimal_pair(o.ax, np.zeros_like(o.lam), beta)
        rec = at.solve(inst.spec, StepSizePlan.fixed(pair.gamma), init=pair.zeta0, rule=rule)
        primal_iters.append(rec.iterations_to_tol)
    assert primal_iters[2] <= primal_iters[1] <= primal_iters[0]
    dual_iters = []
    for beta in (0.1, 0.01, 0.001):
        pair = optimal_pair(np.zeros_like(o.ax), o.lam, beta)
        rec = at.solve(inst.spec, StepSizePlan.fixed(pair.gamma), init=pair.zeta0, rule=rule)
        dual_iters.append(rec.iterations_to_tol)
    assert dual_iters[2] <= dual_iters[1] <= dual_iters[0]
    # the matching fixed point is approached in direction as the scale grows
    rel = []
    for beta in (10.0, 100.0, 1000.0):
        pair = optimal_pair(o.ax, np.zeros_like(o.lam), beta)
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
        StepSizePlan(mode="oracle")
    assert "fixed" in StepSizePlan.fixed(2.0).describe()
    assert "freeze_after=5" in StepSizePlan.estimated(freeze_after=5).describe()


def test_estimate_step_guards():
    plan = StepSizePlan.estimated()
    good = SolverState(ax=np.ones(4), lam=2.0 * np.ones(4), gamma=1.0, k=3)
    assert estimate_step(good, plan) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        estimate_step(good, StepSizePlan.fixed(1.0))
    fresh = SolverState(ax=np.ones(4), lam=np.ones(4), gamma=1.0, k=0)
    with pytest.raises(ValueError):
        estimate_step(fresh, plan)


def test_estimate_step_freeze_and_threshold():
    state = SolverState(ax=np.ones(4), lam=2.0 * np.ones(4), gamma=1.0, k=10)
    frozen = StepSizePlan.estimated(freeze_after=5)
    assert estimate_step(state, frozen) == 1.0
    assert estimate_step(state, StepSizePlan.estimated(freeze_after=11)) == pytest.approx(2.0)
    # a second positional argument was the update threshold: taken as
    # freeze_after, estimated(1.0, 0) would freeze at once
    with pytest.raises(TypeError):
        StepSizePlan.estimated(1.0, 0)
    with pytest.raises(TypeError):
        StepSizePlan(at.ESTIMATED, 1.0, 0)


def test_estimate_step_degenerate_iterates_keep_gamma():
    plan = StepSizePlan.estimated()
    state = SolverState(ax=np.zeros(4), lam=np.ones(4), gamma=0.7, k=2)
    assert estimate_step(state, plan) == 0.7
    state = SolverState(ax=np.ones(4), lam=1e-14 * np.ones(4), gamma=0.7, k=2)
    assert estimate_step(state, plan) == 0.7


def test_estimate_step_accepts_array_like_iterates():
    plan = StepSizePlan.estimated()
    want = estimate_step(SolverState(ax=np.ones(4), lam=2.0 * np.ones(4), gamma=1.0, k=3), plan)
    for ax, lam in (([1, 1, 1, 1], [2, 2, 2, 2]),
                    (np.ones((2, 2)), 2.0 * np.ones((2, 2))),
                    (np.ones(4, dtype=int), np.full(4, 2, dtype=int))):
        state = SolverState(ax=ax, lam=lam, gamma=1.0, k=3)
        assert estimate_step(state, plan) == want


def test_estimate_step_reads_the_constraint_image():
    plan = StepSizePlan.estimated()
    state = SolverState(ax=4.0 * np.ones(4), lam=np.ones(4), gamma=1.0, k=2)
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
    for bad in (2.5, True, -1, "3"):
        with pytest.raises(ValueError, match="freeze_after"):
            StepSizePlan.estimated(freeze_after=bad)
    # the engine divides by gamma: a subnormal one overflows its reciprocal
    with pytest.raises(ValueError, match="gamma0"):
        StepSizePlan.fixed(1e-320)
    assert StepSizePlan.fixed(1e-300).gamma0 == 1e-300
    assert StepSizePlan.estimated(freeze_after=0).freeze_after == 0
    assert StepSizePlan.estimated(freeze_after=np.int64(3)).freeze_after == 3


def test_non_finite_solution_vectors_are_named():
    with pytest.raises(ValueError, match="ax_star must be finite"):
        gamma_zero_init([np.inf, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="lambda_star must be finite"):
        gamma_zero_init([1.0, 1.0], [np.nan, 1.0])
    with pytest.raises(ValueError, match="ax_star must be finite"):
        build_coefficients([np.nan, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="lambda_star must be finite"):
        gamma_general([1.0, 1.0], [1.0, np.inf], np.ones(2))
    u, v = np.array([3.0, 4.0]), np.array([6.0, 8.0])
    assert gamma_zero_init(u, v) == 2.0


def test_zero_start_estimate_is_the_gamma_general_bits():
    rng = np.random.default_rng(5)
    plan = StepSizePlan.estimated()
    for _ in range(500):
        n = int(rng.integers(1, 50))
        ax = rng.normal(size=n) * 10.0 ** rng.uniform(-5.0, 5.0)
        lam = rng.normal(size=n) * 10.0 ** rng.uniform(-5.0, 5.0)
        state = SolverState(ax=ax, lam=lam, gamma=1.0, k=1)
        assert estimate_step(state, plan) == gamma_general(ax, lam)


def test_estimate_step_overflowing_iterates_raise():
    plan = StepSizePlan.estimated()
    # called outside solve, whose error context would hide a numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        big = SolverState(ax=np.full(4, 1e200), lam=np.ones(4), gamma=1.0, k=2)
        with pytest.raises(OverflowError, match="coefficient a must be finite, got inf"):
            estimate_step(big, plan)
        # e = -||lam||^2 overflows to its own value, -inf
        big = SolverState(ax=np.ones(4), lam=np.full(4, 1e200), gamma=1.0, k=2)
        with pytest.raises(OverflowError, match="coefficient e must be finite, got -inf"):
            estimate_step(big, plan)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("ax, lam, estimate", [
    # ||lam||^2 / ||A x||^2 = 1e-324 underflows to 0, and its mirror overflows
    pytest.param(1e150, 1e-12, 0.0, id="underflow"),
    pytest.param(1e-12, 1e150, np.inf, id="overflow"),
])
def test_estimate_step_refuses_a_step_outside_zero_to_inf(ax, lam, estimate):
    # solve would rescale by the step: lam / 0 or lam / inf
    state = SolverState(ax=np.full(4, ax), lam=np.full(4, lam), gamma=1.0, k=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ArithmeticError, match=f"estimated step size {estimate} is not positive and finite"):
            estimate_step(state, StepSizePlan.estimated())
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_estimate_step_squares_integer_iterates_in_floating_point():
    # 4 * (3e9)**2 = 3.6e19 wraps around in int64; as floats it is exact
    plan = StepSizePlan.estimated()
    big = [3_000_000_000] * 4
    for ax in (big, np.array(big, dtype=np.int64)):
        state = SolverState(ax=ax, lam=np.full(4, 6e9), gamma=1.0, k=2)
        assert estimate_step(state, plan) == gamma_general(np.array(big, dtype=float), np.full(4, 6e9))
        state = SolverState(ax=np.full(4, 6e9), lam=ax, gamma=1.0, k=2)
        assert estimate_step(state, plan) == gamma_general(np.full(4, 6e9), np.array(big, dtype=float))


def test_overflowing_quartic_raises_arithmetic_error():
    # a = 1e-300 and b*d = -1e300: the companion matrix overflows
    with pytest.raises(ArithmeticError, match="no positive real root"):
        gamma_general([1e-150], [1e150], [1e150])


def _gamma_general_estimate(state, plan):
    """estimate_step's rules, with every estimate taken through gamma_general."""
    current = float(state.gamma)
    if plan.freeze_after is not None and state.k >= plan.freeze_after:
        return current
    if np.linalg.norm(state.ax) < 1e-12 or np.linalg.norm(state.lam) < 1e-12:
        return current
    return gamma_general(state.ax, state.lam)


@pytest.mark.parametrize("kind", ["lp", "qp", "lad", "huber", "bp", "lasso", "tv", "sics"])
# the second case keeps the id it had when its plan also set an update threshold
@pytest.mark.parametrize("plan", [StepSizePlan.estimated(),
                                  StepSizePlan.estimated(0.5, freeze_after=30)],
                         ids=["default", "threshold-freeze"])
def test_estimated_gamma_column_is_the_gamma_general_loop(desk, monkeypatch, kind, plan):
    spec = desk(kind).spec
    rule = TerminationRule(tol=1e-6, max_iter=100_000)
    got = at.solve(spec, plan, rule=rule)
    monkeypatch.setattr(tuner_mod, "estimate_step", _gamma_general_estimate)
    want = at.solve(spec, plan, rule=rule)
    # every column of every row and the final iterates, bit for bit
    assert np.asarray(got.rows).tobytes() == np.asarray(want.rows).tobytes()
    assert got.final_gamma == want.final_gamma
    for name in ("x", "z", "lam", "zeta_unscaled"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert len({row[1] for row in got.rows}) > 1


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


@pytest.mark.parametrize("kind", ["lp", "qp"])
def test_start_aware_estimate_reaches_the_start_oracle_in_more_sweeps(desk, oracle, monkeypatch,
                                                                      kind):
    # re-solving the full quartic with the run's own start, not the zero
    # start's ratio, ends at that start's oracle step size (lp 0.9136, qp
    # 5.5786, against 0.2934 and 3.1634) but takes more sweeps (lp 1813
    # against 1759, qp 48 against 32)
    inst, o = desk(kind), oracle(kind)
    start = inst.structure_start()
    rule = TerminationRule(tol=1e-6, max_iter=100_000)
    zero_start = at.solve(inst.spec, StepSizePlan.estimated(), init=start, rule=rule)

    def start_aware(state, plan):
        if np.linalg.norm(state.ax) < 1e-12 or np.linalg.norm(state.lam) < 1e-12:
            return state.gamma
        return gamma_general(state.ax, state.lam, start)

    monkeypatch.setattr(tuner_mod, "estimate_step", start_aware)
    aware = at.solve(inst.spec, StepSizePlan.estimated(), init=start, rule=rule)
    assert zero_start.converged and aware.converged
    assert aware.final_gamma == pytest.approx(gamma_general(o.ax, o.lam, start), rel=1e-4)
    assert zero_start.final_gamma == pytest.approx(gamma_general(o.ax, o.lam), rel=1e-4)
    assert aware.final_gamma > 1.5 * zero_start.final_gamma
    assert aware.iterations_to_tol > zero_start.iterations_to_tol


@st.composite
def _report_inputs(draw):
    p = draw(st.integers(1, 6))
    vector = arrays(np.float64, p, elements=st.floats(-1e3, 1e3))
    zeta0 = draw(st.one_of(st.none(), vector))
    return draw(vector), draw(vector), zeta0


@settings(max_examples=200, deadline=None)
@given(_report_inputs())
def test_contradiction_report_takes_gamma_general_root(vectors):
    ax, lam, zeta0 = vectors
    try:
        want = gamma_general(ax, lam, zeta0)
    except (ValueError, ArithmeticError) as err:
        # a zero vector, or a quartic whose every root is refused
        with pytest.raises(type(err)):
            contradiction_demo(ax, lam, zeta0)
        return
    report = contradiction_demo(ax, lam, zeta0)
    assert report.gamma_star == want
    # the library squares as alpha * alpha, which can differ from alpha ** 2 by an ulp
    assert report.gamma_star == report.alpha_star * report.alpha_star
