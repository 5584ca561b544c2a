import json
import math
from pathlib import Path

import numpy as np
import pytest

import admmtune as at
from admmtune import (
    KINDS,
    PROFILES,
    StepSizePlan,
    TerminationRule,
    compute_oracle,
    generate,
)

from conftest import ACCEPT_SEEDS, apply_A, apply_B
from test_trajectory import SNAPSHOT


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
    for dims, key in (({"m": 0, "n": 5}, "'m'"), ({"m": 3, "n": 0}, "'n'"), ({"m": -1, "n": 5}, "'m'")):
        with pytest.raises(ValueError, match=key):
            generate("lasso", dims=dims)
    with pytest.raises(ValueError, match="'samples'"):
        at.generate_data("sics", dims={"n": 3, "samples": 0})


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
        spec = desk(kind).spec
        gap = apply_A(spec, rec.x) + apply_B(spec, rec.z) - spec.c
        assert np.linalg.norm(gap) <= 1e-5, kind


def _x_step_system(inst, w, gamma):
    """Dense matrix and right-hand side of each family's x-step.

    The x-step is the first ``spec.n`` entries of the solution: the equality
    constrained families (lp, bp) solve a KKT system for (x, multiplier).
    """
    data = inst.data
    if inst.kind == "lasso":
        A = data["A"]
        return A.T @ A + gamma * np.eye(A.shape[1]), A.T @ data["b"] + gamma * w
    if inst.kind == "qp":
        return data["P"] + gamma * np.eye(w.size), gamma * w - data["q"]
    if inst.kind in ("lp", "bp"):
        A = data["A"]
        m, n = A.shape
        cost = data["cost"] if inst.kind == "lp" else np.zeros(n)
        kkt = np.block([[gamma * np.eye(n), A.T], [A, np.zeros((m, m))]])
        return kkt, np.concatenate([gamma * w - cost, data["b"]])
    if inst.kind in ("lad", "huber"):
        # f = 0, so the x-step is least squares: the normal equations
        A = data["A"]
        return A.T @ A, A.T @ w
    F = inst.spec.A
    return np.eye(F.shape[1]) + gamma * F.T @ F, data["b"] + gamma * F.T @ w


@pytest.mark.parametrize("kind, dims", [
    ("lasso", None),
    ("lasso", {"m": 60, "n": 40}),
    ("qp", None),
    ("tv", None),
    ("lp", None),
    ("bp", None),
    ("lad", None),
    ("huber", None),
])
def test_quadratic_x_step_matches_dense_solve(desk, kind, dims):
    inst = desk(kind) if dims is None else generate(kind, dims=dims, seed=1)
    rng = np.random.default_rng(13)
    for gamma in np.geomspace(1e-3, 1e3, 13):
        w = rng.normal(size=inst.spec.p)
        want = np.linalg.solve(*_x_step_system(inst, w, gamma))[:inst.spec.n]
        got = inst.spec.prox_f(w, gamma)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want), gamma


def test_tv_x_step_at_huge_gamma(desk):
    # eigh returns the zero eigenvalue of F^T F as a tiny negative number;
    # unclamped, the shift 1 + gamma * s[0] is indefinite from gamma ~ 1e15
    inst = desk("tv")
    F, b = inst.spec.A, inst.data["b"]
    w = np.random.default_rng(19).normal(size=inst.spec.p)
    gamma = 1e15
    x = inst.spec.prox_f(w, gamma)
    # stationarity of 0.5 ||x - b||^2 + (gamma / 2) ||F x - w||^2
    grad = (x - b) + gamma * (F.T @ (F @ x - w))
    assert np.linalg.norm(grad) <= 1e-12 * (np.linalg.norm(b) + gamma * np.linalg.norm(F.T @ w))
    # at 1e300 the mean of x is lost to rounding: only finiteness is checked
    assert np.all(np.isfinite(inst.spec.prox_f(w, 1e300)))


def _closed_form_z_step(inst, w, gamma):
    """Each family's z-step, argmin h(z) + (gamma/2)||z + w||^2, written out."""
    v = -w
    if inst.kind == "lp":
        return np.maximum(v, 0.0)
    if inst.kind == "qp":
        return np.clip(v, inst.data["lower"], inst.data["upper"])
    if inst.kind == "huber":
        t = 1.0 / gamma
        return np.where(np.abs(v) <= 1.0 + t, v / (1.0 + t), v - t * np.sign(v))
    alpha = 1.0 if inst.kind == "lad" else inst.params["alpha"]
    return np.sign(v) * np.maximum(np.abs(v) - alpha / gamma, 0.0)


@pytest.mark.parametrize("kind", KINDS)
def test_z_steps_are_the_closed_forms(desk, kind):
    inst = desk(kind)
    rng = np.random.default_rng(17)
    for gamma in np.geomspace(1e-3, 1e3, 13):
        w = rng.normal(size=inst.spec.p)
        got = inst.spec.prox_g(w, gamma)
        want = _closed_form_z_step(inst, w, gamma)
        if kind in ("lasso", "tv"):
            # the catalog thresholds at (1/gamma) * alpha, not alpha / gamma
            ulps = np.spacing(inst.params["alpha"] / gamma) + np.spacing(np.abs(w))
            assert np.all(np.abs(got - want) <= 2.0 * ulps), gamma
        else:
            assert np.array_equal(got, want), gamma


def test_objective_is_finite_at_oracle(desk, oracle):
    for kind in KINDS:
        inst, o = desk(kind), oracle(kind)
        assert np.isfinite(inst.spec.objective(o.x, o.z)), kind
    # off the positive definite cone the covariance-selection objective is inf
    inst, o = desk("sics"), oracle("sics")
    n = math.isqrt(inst.spec.n)
    for X in (np.zeros((n, n)), np.diag([-1.0] + [1.0] * (n - 1))):
        assert inst.spec.objective(X.ravel(), o.z) == math.inf
    # for the regularized regression the zero start is feasible, so the
    # solver must not end above it
    inst, o = desk("lasso"), oracle("lasso")
    start = inst.spec.objective(np.zeros(inst.spec.n), np.zeros(inst.spec.m))
    assert inst.spec.objective(o.x, o.z) <= start + 1e-9


# the families whose reference run ends in one linear solve on a guessed active set
POLISHED = ("lp", "lasso", "tv")


def _run_to_reference_tol(inst):
    """The unit fixed run from the zero start to 1e-10, as an oracle pair."""
    rec = at.solve(inst.spec, StepSizePlan.fixed(1.0),
                   rule=TerminationRule(tol=1e-10, max_iter=200_000))
    return at.OracleSolution(x=rec.x, z=rec.z, lam=rec.lam, ax=rec.ax,
                             residue=rec.rows[-1][2], iterations=rec.iterations)


def _reject_polish(monkeypatch, kind):
    """Make ``kind``'s polish reject every iterate."""
    draw, spec, start, _ = at.problems._FAMILIES[kind]
    monkeypatch.setitem(at.problems._FAMILIES, kind,
                        (draw, spec, start, lambda data, params, z: None))


@pytest.mark.parametrize("kind", KINDS)
def test_reference_run_keeps_every_bit_without_its_columns(desk, kind, monkeypatch):
    want = _run_to_reference_tol(desk(kind))
    got = compute_oracle(desk(kind))
    if kind in POLISHED:
        # the polished pair is the run's to its tolerance, from far fewer sweeps
        for name in ("x", "z", "lam", "ax"):
            ref = getattr(want, name)
            assert np.linalg.norm(getattr(got, name) - ref) <= 1e-9 * np.linalg.norm(ref), name
        assert got.residue <= 1e-10 and got.iterations < want.iterations
        # a polish that rejects every iterate leaves the run as it was
        _reject_polish(monkeypatch, kind)
        got = compute_oracle(generate(kind, profile="desk", seed=ACCEPT_SEEDS[kind]))
    _assert_same_oracle(got, want)


def _count_x_steps(spec):
    """Wrap ``spec.prox_f`` in place; the returned list grows by one per call."""
    calls = []
    prox_f = spec.prox_f

    def counting(w, g):
        calls.append(g)
        return prox_f(w, g)

    spec.prox_f = counting
    return calls


def _assert_same_oracle(got, want):
    for name in ("x", "z", "lam", "ax"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.residue == want.residue
    assert got.iterations == want.iterations


@pytest.mark.parametrize("kind", KINDS)
def test_reference_run_resumes_from_a_unit_fixed_prefix(oracle, kind, monkeypatch):
    fresh = generate(kind, profile="desk", seed=ACCEPT_SEEDS[kind])
    prefix = at.solve(fresh.spec, StepSizePlan.fixed(1.0), init=None, rule=TerminationRule())
    rows, zeta = list(prefix.rows), prefix.zeta_unscaled.copy()
    want = oracle(kind)
    if kind in POLISHED:
        # the polish guesses the scratch run's active set from the prefix's
        # last iterate; only its fixed-point test sweeps
        calls = _count_x_steps(fresh.spec)
        got = compute_oracle(fresh, prefix=prefix)
        for name in ("x", "z", "lam", "ax"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.residue == want.residue
        assert got.iterations == prefix.iterations and len(calls) == 1
        # a polish that rejects every iterate resumes the run as it was
        _reject_polish(monkeypatch, kind)
        fresh = generate(kind, profile="desk", seed=ACCEPT_SEEDS[kind])
        want = _run_to_reference_tol(fresh)
    calls = _count_x_steps(fresh.spec)
    got = compute_oracle(fresh, prefix=prefix)
    _assert_same_oracle(got, want)
    # only the sweeps past the prefix ran, and the prefix is left as it was
    assert len(calls) == got.iterations - prefix.iterations > 0
    assert prefix.rows == rows and np.array_equal(prefix.zeta_unscaled, zeta)


def test_reference_run_prefix_past_or_at_the_tolerance(oracle):
    want = oracle("qp")
    # a prefix that ran past the reference tolerance is no prefix of the run
    fresh = generate("qp", profile="desk", seed=ACCEPT_SEEDS["qp"])
    past = at.solve(fresh.spec, StepSizePlan.fixed(1.0),
                    rule=TerminationRule(tol=1e-12, max_iter=200_000))
    calls = _count_x_steps(fresh.spec)
    _assert_same_oracle(compute_oracle(fresh, prefix=past), want)
    assert len(calls) == want.iterations < past.iterations
    # a prefix that stops on the reference tolerance is the whole run
    fresh = generate("qp", profile="desk", seed=ACCEPT_SEEDS["qp"])
    whole = at.solve(fresh.spec, StepSizePlan.fixed(1.0),
                     rule=TerminationRule(tol=1e-10, max_iter=200_000))
    calls = _count_x_steps(fresh.spec)
    _assert_same_oracle(compute_oracle(fresh, prefix=whole), want)
    assert calls == []


def test_reference_run_prefix_must_be_the_unit_fixed_run():
    inst = generate("qp", profile="desk", seed=ACCEPT_SEEDS["qp"])
    rule = TerminationRule(max_iter=5)
    for plan in (StepSizePlan.fixed(2.0), StepSizePlan.estimated(),
                 StepSizePlan.fixed(1.0 + 1e-9)):
        rec = at.solve(inst.spec, plan, rule=rule)
        with pytest.raises(ValueError, match="fixed\\(1.0\\) record"):
            compute_oracle(inst, prefix=rec)
    other = generate("lp", profile="desk", seed=ACCEPT_SEEDS["lp"])
    rec = at.solve(other.spec, StepSizePlan.fixed(1.0), rule=rule)
    with pytest.raises(ValueError, match="zeta_unscaled of length 30"):
        compute_oracle(inst, prefix=rec)
    assert inst.oracle is None


def test_reference_run_typed_errors(monkeypatch):
    inst = generate("qp", profile="desk", seed=ACCEPT_SEEDS["qp"])
    monkeypatch.setattr(at.problems, "_ORACLE_RULE", TerminationRule(tol=1e-10, max_iter=0))
    with pytest.raises(ArithmeticError, match="stalled at residue nan after 0 sweeps"):
        compute_oracle(inst)
    # a prefix as long as max_iter leaves the continuation no sweep to run
    prefix = at.solve(inst.spec, StepSizePlan.fixed(1.0), rule=TerminationRule())
    monkeypatch.setattr(at.problems, "_ORACLE_RULE",
                        TerminationRule(tol=1e-10, max_iter=prefix.iterations))
    stalled = f"stalled at residue {prefix.rows[-1][2]:.3e} after {prefix.iterations} sweeps"
    with pytest.raises(ArithmeticError, match=stalled):
        compute_oracle(inst, prefix=prefix)
    assert inst.oracle is None


def test_zero_start_step_belongs_to_the_returned_pair(desk, oracle):
    # lad and bp have more than one optimal multiplier, so two reference runs
    # to the same tolerance can end at pairs whose zero-start step sizes differ
    for kind in KINDS:
        o = oracle(kind)
        rec = at.solve(desk(kind).spec, StepSizePlan.estimated(),
                       rule=TerminationRule(tol=1e-10, max_iter=200_000), columns=False)
        assert rec.converged, kind
        ref = at.gamma_zero_init(o.ax, o.lam)
        gap = abs(at.gamma_zero_init(rec.ax, rec.lam) - ref) / ref
        if kind in ("lad", "bp"):
            assert gap > 5e-3, (kind, gap)
        else:
            assert gap < 1e-8, (kind, gap)


def test_paper_lp_oracle_is_a_fixed_point():
    # the paper lp's run to 1e-10 stalls at seeds 0 and 2; the polish does not
    for seed in range(3):
        inst = generate("lp", profile="paper", seed=seed)
        o = compute_oracle(inst)
        zeta = o.ax + o.lam
        assert np.linalg.norm(at.drs_step(zeta, inst.spec, 1.0) - zeta) <= 1e-10, seed


@pytest.mark.parametrize("kind", [kind for kind in KINDS if kind != "lp"])
def test_paper_oracle_is_a_fixed_point(kind):
    inst = generate(kind, profile="paper", seed=0)
    o = compute_oracle(inst)
    assert o.residue <= 1e-10
    zeta = o.ax + o.lam
    assert np.linalg.norm(at.drs_step(zeta, inst.spec, 1.0) - zeta) <= 1e-10


def test_lasso_polish_of_an_empty_support():
    # at alpha = ||A^T b||_inf the solution is zero, and its multiplier A^T b
    inst = generate("lasso", profile="desk", seed=ACCEPT_SEEDS["lasso"])
    A, b = inst.data["A"], inst.data["b"]
    alpha = float(np.abs(A.T @ b).max())
    for scale in (1.0, 2.0):
        o = compute_oracle(generate("lasso", profile="desk", seed=ACCEPT_SEEDS["lasso"],
                                    params={"alpha": scale * alpha}))
        assert not (np.any(o.x) or np.any(o.z) or np.any(o.ax)), scale
        assert np.array_equal(o.lam, A.T @ b), scale
        assert o.residue <= 1e-10


def test_lasso_polish_keeps_the_sign_conditions():
    # with A = I the solution is soft(b, alpha) = (2, 0), and its multiplier b - x = (1, 0.5)
    data, params = {"A": np.eye(2), "b": np.array([3.0, 0.5])}, {"alpha": 1.0}
    x, z, lam, ax = at.problems._polish_lasso(data, params, np.array([0.7, 0.0]))
    assert x.tolist() == z.tolist() == ax.tolist() == [2.0, 0.0]
    assert lam.tolist() == [1.0, 0.5]
    # on S = {0, 1} with signs (+, +), x_1 = 0.5 - 1 comes out negative
    assert at.problems._polish_lasso(data, params, np.array([0.7, 0.1])) is None
    # on the empty support, the multiplier b = (3, 0.5) exceeds alpha
    assert at.problems._polish_lasso(data, params, np.zeros(2)) is None


def test_tall_lasso_polishes():
    # m >= n: the x-step is the catalog's tall lstsq, and every support fits
    dims = {"m": 60, "n": 40}
    want = _run_to_reference_tol(generate("lasso", dims=dims, seed=0))
    inst = generate("lasso", dims=dims, seed=0)
    got = compute_oracle(inst)
    zeta = got.ax + got.lam
    assert got.residue <= 1e-10 and got.iterations < want.iterations
    assert np.linalg.norm(at.drs_step(zeta, inst.spec, 1.0) - zeta) <= 1e-10


def _lasso_with_a_repeated_column():
    """The desk lasso with the column of its first planted entry copied over the next column."""
    inst = generate("lasso", profile="desk", seed=ACCEPT_SEEDS["lasso"])
    A = inst.data["A"]
    i = int(np.flatnonzero(inst.data["x_true"])[0])
    A[:, i + 1] = A[:, i]
    inst.spec = at.problems._FAMILIES["lasso"][1](inst.dims, inst.data, inst.params)
    return inst, i


def test_lasso_polish_rejects_a_singular_normal_matrix():
    inst, i = _lasso_with_a_repeated_column()
    rec = at.solve(inst.spec, StepSizePlan.fixed(1.0),
                   rule=TerminationRule(tol=1e-3, max_iter=200_000), columns=False)
    # both copies of the column carry the same entry, so A_S^T A_S is singular
    S = rec.z != 0.0
    assert S[i] and S[i + 1]
    A_S = inst.data["A"][:, S]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(A_S.T @ A_S, np.ones(A_S.shape[1]))
    assert at.problems._polish_lasso(inst.data, inst.params, rec.z) is None
    # so the reference run goes on to its tolerance, bit for bit
    want = _run_to_reference_tol(_lasso_with_a_repeated_column()[0])
    _assert_same_oracle(compute_oracle(inst), want)


def test_oracle_is_cached_and_refreshable(desk):
    inst = generate("bp", profile="desk", seed=6)
    first = compute_oracle(inst)
    assert compute_oracle(inst) is first
    inst.oracle = None
    again = compute_oracle(inst)
    assert again is not first
    assert np.allclose(again.x, first.x, atol=1e-9)
    assert first.residue <= 1e-10 and first.iterations >= 1


def test_paper_profile_dimensions_differ():
    desk_inst = generate("lasso", profile="desk", seed=0)
    assert desk_inst.dims == PROFILES["lasso"]["desk"]
    assert PROFILES["lasso"]["paper"]["n"] > PROFILES["lasso"]["desk"]["n"]


def test_lad_and_huber_rank_check_rides_on_the_pseudoinverse_svd(monkeypatch):
    calls = []
    real = at.engine.svd

    def counting(M, **kwargs):
        calls.append(M.shape)
        return real(M, **kwargs)

    monkeypatch.setattr(at.engine, "svd", counting)
    for kind in ("lad", "huber"):
        generate(kind, profile="desk", seed=ACCEPT_SEEDS[kind])
    assert calls == []
    with pytest.raises(ValueError, match="full column rank"):
        at.problems._pinv_step(np.ones((4, 2)))


def test_acceptance_seeds_cover_all_kinds():
    assert set(ACCEPT_SEEDS) == set(KINDS)


def test_trajectory_snapshot_is_the_benchmark_zoo_table():
    # two pinned copies of the same sweep counts must not drift apart
    path = Path(__file__).resolve().parents[1] / "perfbench" / "snapshot.json"
    assert json.loads(path.read_text())["zoo"] == SNAPSHOT


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
