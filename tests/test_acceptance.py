"""Acceptance gate: nine numbered criteria plus trend reproduction.

Each test exercises one end-to-end guarantee on the pinned desk instances
and reports a single PASS/FAIL line through ``record_criterion``; the lines
are echoed together at the end of the pytest run.
"""

import time

import numpy as np

import admmtune as at

from conftest import ReferenceState, reference_step
from test_prox import build_catalog_handles

BETAS = (0.5, 1.0, 2.0, 10.0)
GRID_KINDS = ("lp", "lad", "bp", "lasso", "tv")


def test_one_sweep_convergence_from_matched_start(desk, oracle, record_criterion):
    worst = 0.0
    failures = []
    for kind in at.KINDS:
        inst, o = desk(kind), oracle(kind)
        limit = max(1e-6, 10.0 * o.residue)
        for beta in BETAS:
            pair = at.optimal_pair(o.ax, o.lam, beta)
            rec = at.solve(inst.spec, at.StepSizePlan.fixed(pair.gamma),
                           init=pair.zeta0,
                           rule=at.TerminationRule(tol=1e-300, max_iter=1))
            ratio = rec.residues[0] / limit
            worst = max(worst, ratio)
            if ratio > 1.0:
                failures.append((kind, beta, ratio))
    record_criterion(
        "criterion 1 (matched start converges in one sweep, 8 kinds x 4 scales)",
        not failures, f"worst residue/limit {worst:.2e}")
    assert not failures, failures


def test_closed_form_root_against_bisection(record_criterion):
    rng = np.random.default_rng(2024)
    total = 10_000
    a = np.empty(0)
    b = np.empty(0)
    d = np.empty(0)
    e = np.empty(0)
    while a.size < total:
        k = 2 * (total - a.size)
        ca = rng.uniform(0.1, 10.0, k)
        cb = 3.0 * rng.standard_normal(k)
        cd = 3.0 * rng.standard_normal(k)
        ce = -rng.uniform(0.1, 10.0, k)
        keep = ~((cb < 0.0) & (cd > 0.0))  # region where several roots coexist
        a = np.concatenate([a, ca[keep]])
        b = np.concatenate([b, cb[keep]])
        d = np.concatenate([d, cd[keep]])
        e = np.concatenate([e, ce[keep]])
    a, b, d, e = a[:total], b[:total], d[:total], e[:total]
    coeffs = [at.QuarticCoefficients(a=a[i], b=b[i], d=d[i], e=e[i])
              for i in range(total)]

    start = time.perf_counter()
    roots = np.array([at.solve_quartic(c) for c in coeffs])
    elapsed = time.perf_counter() - start

    def poly(alpha):
        return a * alpha ** 4 + b * alpha ** 3 + d * alpha + e

    hi = np.ones(total)
    for _ in range(200):
        mask = poly(hi) < 0.0
        if not mask.any():
            break
        hi[mask] *= 2.0
    lo = np.full(total, 1e-12)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        neg = poly(mid) < 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    reference = 0.5 * (lo + hi)

    rel = np.max(np.abs(roots - reference) / reference)
    scale = np.array([c.scale() for c in coeffs])
    residual_ok = bool(np.all(np.abs(poly(roots)) <= 1e-9 * scale))

    def n_positive(i):
        rts = np.roots([a[i], b[i], 0.0, d[i], e[i]])
        keep = (np.abs(rts.imag) <= 1e-8 * (1 + np.abs(rts.real))) & (rts.real > 0)
        return int(np.count_nonzero(keep))

    all_unique = all(n_positive(i) == 1 for i in range(total))
    passed = rel <= 1e-8 and residual_ok and all_unique and elapsed < 1.0
    record_criterion(
        "criterion 2 (closed-form quartic root vs bisection, 10^4 draws)",
        passed,
        f"max rel gap {rel:.1e}, single-rooted {all_unique}")
    assert passed


def test_zero_start_closed_form_matches_quartic(record_criterion):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 40))
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        closed = at.gamma_zero_init(u, v)
        general = at.gamma_general(u, v, np.zeros(n))
        worst = max(worst, abs(closed - general) / closed)
    passed = worst <= 1e-10
    record_criterion(
        "criterion 3 (zero-start norm ratio equals quartic route, 100 pairs)",
        passed, f"worst rel gap {worst:.2e}")
    assert passed


def test_prox_identities_random_sweep(record_criterion):
    handles, _ = build_catalog_handles(seed=13)
    rng = np.random.default_rng(13)
    worst = 0.0
    for name, handle in handles.items():
        new = at.translate_classical_to_new(handle)
        comp = at.moreau_complement(new)
        back = at.translate_new_to_classical(new)
        for _ in range(100):
            v = 2.0 * rng.standard_normal(handle.dim)
            rho = float(rng.uniform(0.2, 5.0))
            split_gap = np.max(np.abs(new(v, rho) + comp(v, 1.0 / rho) - v))
            round_trip_gap = np.max(np.abs(back(v, rho) - handle(v, rho)))
            worst = max(worst, float(split_gap), float(round_trip_gap))
    passed = worst <= 1e-10
    record_criterion(
        "criterion 4 (conjugate split and translation identities, 100/entry)",
        passed, f"worst gap {worst:.2e} across {len(handles)} catalog entries")
    assert passed


def test_residue_monotonicity_rate_and_sandwich(desk, oracle, record_criterion):
    worst_mono = -np.inf
    worst_sandwich = -np.inf
    rate_ok = True
    for kind in at.KINDS:
        inst, o = desk(kind), oracle(kind)
        zeta_star = o.ax + o.lam  # unscaled fixed point at unit step size
        rec = at.solve(inst.spec, at.StepSizePlan.fixed(1.0), init=None,
                       rule=at.TerminationRule(tol=1e-6, max_iter=10_000),
                       trace=True)
        res = rec.residues
        worst_mono = max(worst_mono,
                         max((res[i + 1] - res[i] for i in range(len(res) - 1)),
                             default=-np.inf))
        d0_sq = float(zeta_star @ zeta_star)
        rate_ok &= all(res[k - 1] ** 2 <= d0_sq / k + 1e-12
                       for k in range(1, len(res) + 1))
        sigma, y_one = rec.trace["sigma"], rec.trace["y_one"]
        for j in range(1, len(y_one) - 1):
            lhs = float(np.linalg.norm(y_one[j + 1] - y_one[j]) ** 2)
            rhs = float(np.linalg.norm(sigma[j] - sigma[j - 1]) ** 2)
            worst_sandwich = max(worst_sandwich, lhs - rhs)
    passed = worst_mono <= 1e-12 and rate_ok and worst_sandwich <= 1e-12
    record_criterion(
        "criterion 5 (residue monotone, rate bound, per-sweep sandwich)",
        passed,
        f"worst mono {worst_mono:.1e}, rate ok {rate_ok}, "
        f"worst sandwich {worst_sandwich:.1e}")
    assert passed


def test_zero_start_step_tracks_grid_minimum(desk, oracle, record_criterion):
    rule = at.TerminationRule(tol=1e-4, max_iter=10_000)
    worst = 0.0
    parts = []
    passed = True
    for kind in GRID_KINDS:
        inst, o = desk(kind), oracle(kind)
        g_star = at.gamma_zero_init(o.ax, o.lam)
        iters_star = at.solve(inst.spec, at.StepSizePlan.fixed(g_star),
                              init=None, rule=rule).iterations_to_tol
        best = None
        for g in np.geomspace(1e-3, 1e3, 50):
            it = at.solve(inst.spec, at.StepSizePlan.fixed(float(g)),
                          init=None, rule=rule).iterations_to_tol
            if it is not None and (best is None or it < best):
                best = it
        if iters_star is None or best is None:
            passed = False
            parts.append(f"{kind} stalled")
            continue
        ratio = iters_star / best
        worst = max(worst, ratio)
        parts.append(f"{kind} {ratio:.2f}")
    passed = passed and worst <= 2.0
    record_criterion(
        "criterion 6 (zero-start step within 2x of 50-point grid minimum)",
        passed, ", ".join(parts))
    assert passed


def test_estimated_step_tracks_oracle(desk, oracle, record_criterion):
    rule = at.TerminationRule(tol=1e-6, max_iter=100_000)
    worst_rel = 0.0
    worst_ratio = 0.0
    for kind in GRID_KINDS:
        inst, o = desk(kind), oracle(kind)
        g_star = at.gamma_zero_init(o.ax, o.lam)
        est = at.solve(inst.spec, at.StepSizePlan.estimated(), init=None, rule=rule)
        opt = at.solve(inst.spec, at.StepSizePlan.fixed(g_star), init=None, rule=rule)
        worst_rel = max(worst_rel, abs(est.final_gamma - g_star) / g_star)
        k_est = est.first_k_below(1e-4)
        k_opt = opt.first_k_below(1e-4)
        assert k_est is not None and k_opt is not None, kind
        worst_ratio = max(worst_ratio, k_est / k_opt)
    passed = worst_rel <= 0.05 and worst_ratio <= 1.5
    record_criterion(
        "criterion 7 (estimated step within 5% and 1.5x sweeps of oracle)",
        passed,
        f"worst step gap {worst_rel:.2%}, worst sweep ratio {worst_ratio:.2f}")
    assert passed


def test_single_step_matching_contradiction(desk, oracle, record_criterion):
    o = oracle("lp")
    report = at.contradiction_demo(desk("lp").spec, None,
                                   ax_star=o.ax, lambda_star=o.lam)

    def fmt(value):
        return "none" if value is None else f"{value:.4g}"

    passed = report.contradiction and report.gamma_star > 0.0
    record_criterion(
        "criterion 8 (naive single-step matching fails, squared route succeeds)",
        passed,
        f"daggers {fmt(report.gamma_dagger_primal)} vs "
        f"{fmt(report.gamma_dagger_dual)}, gamma* {report.gamma_star:.4g}")
    assert passed


def test_sweeps_match_halved_averaging(desk, record_criterion):
    spec = desk("lasso").spec
    gamma = 1.0
    state = ReferenceState(x=np.zeros(spec.n), z=np.zeros(spec.m),
                           lam=np.zeros(spec.p), gamma=gamma)
    sigmas = []
    for _ in range(50):
        reference_step(state, spec)
        sigmas.append(state.zeta_unscaled / np.sqrt(gamma))
    sigma = sigmas[0].copy()
    worst = 0.0
    for j in range(1, 50):
        sigma = at.drs_step(sigma, spec, gamma)
        worst = max(worst, float(np.linalg.norm(sigma - sigmas[j])))
    passed = worst <= 1e-8
    record_criterion(
        "criterion 9 (sweep and averaged fixed-point iterates agree, 50 steps)",
        passed, f"max gap {worst:.2e}")
    assert passed


def test_structured_start_trend_reproduction(desk, oracle, record_criterion):
    rule = at.TerminationRule(tol=1e-6, max_iter=100_000)
    counts = {}
    for kind in ("qp", "lp"):
        inst, o = desk(kind), oracle(kind)
        base = at.solve(inst.spec, at.StepSizePlan.oracle(o.ax, o.lam),
                        init=None, rule=rule)
        guess = inst.structure_start()
        warm = at.solve(inst.spec, at.StepSizePlan.oracle(o.ax, o.lam, zeta0=guess),
                        init=None, rule=rule)
        counts[kind] = (base.iterations_to_tol, warm.iterations_to_tol)
    qp_worse = counts["qp"][1] > counts["qp"][0]
    lp_better = counts["lp"][1] < counts["lp"][0]
    passed = qp_worse and lp_better
    record_criterion(
        "trend (structured start slows qp, speeds lp; each at its own step)",
        passed,
        f"qp {counts['qp'][0]} vs {counts['qp'][1]}, "
        f"lp {counts['lp'][0]} vs {counts['lp'][1]}")
    assert passed
