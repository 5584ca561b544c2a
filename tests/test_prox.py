import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scipy.linalg import cho_factor, cho_solve

import admmtune.prox as prox_mod
from admmtune import (
    CLASSICAL,
    NEW,
    PROX_KINDS,
    ConjugatePair,
    ProxHandle,
    catalog_prox,
    moreau_complement,
    translate_classical_to_new,
    translate_new_to_classical,
)


def build_catalog_handles(seed=0):
    rng = np.random.default_rng(seed)
    A_row = rng.normal(size=(3, 7))
    P = rng.normal(size=(5, 5))
    P = P @ P.T + np.eye(5)
    A_eq = rng.normal(size=(2, 5))
    A_tall = rng.normal(size=(9, 5))
    A_wide = rng.normal(size=(4, 8))
    S = rng.normal(size=(4, 4))
    S = S @ S.T / 4.0 + np.eye(4)
    return {
        "l1": catalog_prox("l1", dim=7, weight=1.3),
        "nonneg": catalog_prox("nonneg", dim=7),
        "box": catalog_prox("box", dim=7, lower=-1.0, upper=2.0),
        "affine_set": catalog_prox("affine_set", A=A_row, b=rng.normal(size=3)),
        "quad_affine": catalog_prox("quad_affine", P=P, q=rng.normal(size=5),
                                    A=A_eq, b=rng.normal(size=2)),
        "lstsq": catalog_prox("lstsq", A=A_tall, b=rng.normal(size=9)),
        "huber": catalog_prox("huber", dim=7, delta=1.0, weight=1.0),
        "tv_quad": catalog_prox("tv_quad", n=12, target=rng.normal(size=11)),
        "logdet_quad": catalog_prox("logdet_quad", n=4, S=S),
    }, {"A_wide": A_wide, "A_tall": A_tall, "S": S, "P": P}


HANDLES, EXTRAS = build_catalog_handles()

GAMMAS = np.geomspace(1e-3, 1e3, 13)


def test_catalog_names_match_registry():
    assert PROX_KINDS == tuple(sorted(HANDLES))
    with pytest.raises(ValueError):
        catalog_prox("not_a_kind", dim=3)


def test_soft_threshold_values_and_exact_tie():
    h = catalog_prox("l1", dim=3, weight=2.0)
    out = h(np.array([5.0, -0.5, 2.0]), 1.0)
    assert np.allclose(out, [3.0, 0.0, 0.0])
    # the kink itself maps to exactly zero, no sign leakage
    assert h(np.array([2.0, -2.0, 0.0]), 1.0).tolist() == [0.0, 0.0, 0.0]


def test_right_scaled_shrinkage_scalar():
    h = translate_classical_to_new(catalog_prox("l1", dim=1))
    assert h(np.array([3.0]), 2.0)[0] == pytest.approx(1.0, abs=1e-12)
    # negative scaling is legal in the right-scaled form; absolute value is even
    assert h(np.array([3.0]), -2.0)[0] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        h(np.array([3.0]), 0.0)


def test_complement_of_shrinkage_is_clipping():
    new_l1 = translate_classical_to_new(catalog_prox("l1", dim=1))
    comp = moreau_complement(new_l1)
    for v in np.linspace(-3.0, 3.0, 25):
        assert comp(np.array([v]), 1.0)[0] == pytest.approx(np.clip(v, -1.0, 1.0), abs=1e-12)


def test_complement_identity_random():
    rng = np.random.default_rng(1)
    for name, handle in HANDLES.items():
        new = translate_classical_to_new(handle)
        comp = moreau_complement(new)
        for rho in (0.3, 1.0, 2.5):
            for _ in range(20):
                v = rng.normal(size=handle.dim)
                gap = new(v, rho) + comp(v, 1.0 / rho) - v
                assert np.max(np.abs(gap)) <= 1e-10, name


def test_complement_matches_conjugate_closed_form():
    # the conjugate of the huber penalty is a squared norm restricted to a box,
    # whose operator has the closed form clip(t*v / (1 + t*t), [-1, 1]) / t
    new_huber = translate_classical_to_new(catalog_prox("huber", dim=5))
    comp = moreau_complement(new_huber)
    rng = np.random.default_rng(2)
    for tau in (0.5, 1.0, 2.0):
        v = 3.0 * rng.normal(size=5)
        want = np.clip(tau * v / (1.0 + tau * tau), -1.0, 1.0) / tau
        assert np.allclose(comp(v, tau), want, atol=1e-12)


def test_conjugate_pair_bundles_complement():
    new_l1 = translate_classical_to_new(catalog_prox("l1", dim=4))
    pair = ConjugatePair.from_primal(new_l1)
    rng = np.random.default_rng(3)
    v = rng.normal(size=4)
    assert np.allclose(pair.primal(v, 2.0) + pair.conjugate(v, 0.5), v, atol=1e-12)
    with pytest.raises(ValueError):
        ConjugatePair(primal=HANDLES["l1"], conjugate=new_l1)


def test_translation_round_trips():
    rng = np.random.default_rng(4)
    for name, handle in HANDLES.items():
        back = translate_new_to_classical(translate_classical_to_new(handle))
        assert back.convention == CLASSICAL
        for gamma in (0.1, 1.0, 10.0):
            for _ in range(10):
                v = rng.normal(size=handle.dim)
                assert np.allclose(back(v, gamma), handle(v, gamma), atol=1e-10), name


def test_translation_direction_checks():
    new_l1 = translate_classical_to_new(HANDLES["l1"])
    with pytest.raises(ValueError):
        translate_classical_to_new(new_l1)
    with pytest.raises(ValueError):
        translate_new_to_classical(HANDLES["l1"])
    back = translate_new_to_classical(new_l1)
    with pytest.raises(ValueError):
        back(np.zeros(7), 0.0)
    with pytest.raises(ValueError):
        back(np.zeros(7), -1.0)


def test_firm_nonexpansiveness_all_entries():
    rng = np.random.default_rng(5)
    for name, handle in HANDLES.items():
        for t in (0.3, 1.0, 4.0):
            for _ in range(100):
                x = 2.0 * rng.normal(size=handle.dim)
                y = 2.0 * rng.normal(size=handle.dim)
                px = handle(x, t)
                py = handle(y, t)
                inner = np.dot(px - py, x - y)
                assert inner >= np.dot(px - py, px - py) - 1e-10, name


def test_projection_entries_idempotent_and_penalty_free():
    rng = np.random.default_rng(6)
    for name in ("nonneg", "box", "affine_set"):
        handle = HANDLES[name]
        v = 3.0 * rng.normal(size=handle.dim)
        p = handle(v, 0.5)
        assert np.allclose(handle(p, 0.5), p, atol=1e-12), name
        assert np.allclose(handle(v, 7.0), p, atol=1e-12), name


def test_box_broadcasts_and_validates():
    h = catalog_prox("box", dim=3, lower=np.array([-1.0, 0.0, 1.0]), upper=2.0)
    assert np.allclose(h(np.array([-5.0, -5.0, 5.0]), 1.0), [-1.0, 0.0, 2.0])
    with pytest.raises(ValueError):
        catalog_prox("box", dim=2, lower=1.0, upper=0.0)


def test_constrained_quadratic_pinned_point():
    h = catalog_prox("quad_affine", P=np.eye(2), q=np.zeros(2),
                     A=np.array([[1.0, 1.0]]), b=np.array([2.0]))
    assert np.allclose(h(np.zeros(2), 1.0), [1.0, 1.0], atol=1e-12)
    # a square full-rank A leaves an empty null space: the prox is A^-1 b
    b = np.array([0.3, -1.2])
    h = catalog_prox("quad_affine", P=np.eye(2), A=np.eye(2), b=b)
    assert np.array_equal(h(np.array([5.0, 7.0]), 1.0), b)
    A = np.array([[2.0, 1.0], [0.5, 3.0]])
    h = catalog_prox("quad_affine", P=np.eye(2), A=A, b=b)
    assert np.allclose(h(np.array([5.0, 7.0]), 0.4), np.linalg.solve(A, b), atol=1e-12)


def test_quadratic_validation():
    with pytest.raises(ValueError):
        catalog_prox("quad_affine", P=np.array([[1.0, 1.0], [0.0, 1.0]]))
    h = catalog_prox("quad_affine", P=-2.0 * np.eye(2))
    with pytest.raises(ValueError):
        h(np.zeros(2), 1.0)  # 1 + gamma * (-2) is not positive definite
    with pytest.raises(ValueError):
        catalog_prox("quad_affine", P=np.eye(2), A=np.array([[1.0, 1.0], [1.0, 1.0]]),
                     b=np.array([1.0, 1.0]))


def test_affine_set_requires_full_row_rank():
    with pytest.raises(ValueError):
        catalog_prox("affine_set", A=np.array([[1.0, 0.0], [2.0, 0.0]]), b=np.zeros(2))


def test_affine_set_is_the_cho_solve_arithmetic():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(3, 7))
    b = rng.normal(size=3)
    h = catalog_prox("affine_set", A=A, b=b)
    gram = cho_factor(A @ A.T)
    for gamma in GAMMAS:
        v = rng.normal(size=7)
        assert np.array_equal(h(v, gamma), v - A.T @ cho_solve(gram, A @ v - b)), gamma


def test_lstsq_matches_dense_solve_both_shapes():
    rng = np.random.default_rng(7)
    for A in (EXTRAS["A_tall"], EXTRAS["A_wide"]):
        m, n = A.shape
        b = rng.normal(size=m)
        h = catalog_prox("lstsq", A=A, b=b)
        for gamma in GAMMAS:
            v = rng.normal(size=n)
            want = np.linalg.solve(np.eye(n) + gamma * A.T @ A, v + gamma * A.T @ b)
            assert np.allclose(h(v, gamma), want, atol=1e-9)


def test_quadratic_entries_match_dense_solve():
    rng = np.random.default_rng(12)
    P = EXTRAS["P"]
    n = P.shape[0]
    q = rng.normal(size=n)
    A_eq = rng.normal(size=(2, n))
    b_eq = rng.normal(size=2)
    free = catalog_prox("quad_affine", P=P, q=q)
    pinned = catalog_prox("quad_affine", P=P, q=q, A=A_eq, b=b_eq)
    m = 12
    target = rng.normal(size=m - 1)
    D = np.diff(np.eye(m), axis=0)
    tv = catalog_prox("tv_quad", n=m, target=target)
    for gamma in GAMMAS:
        v = rng.normal(size=n)
        want = np.linalg.solve(np.eye(n) + gamma * P, v - gamma * q)
        assert np.allclose(free(v, gamma), want, atol=1e-9)
        kkt = np.block([[np.eye(n) + gamma * P, A_eq.T], [A_eq, np.zeros((2, 2))]])
        want = np.linalg.solve(kkt, np.concatenate([v - gamma * q, b_eq]))[:n]
        assert np.allclose(pinned(v, gamma), want, atol=1e-9)
        v = rng.normal(size=m)
        want = np.linalg.solve(np.eye(m) + gamma * D.T @ D, v + gamma * D.T @ target)
        assert np.allclose(tv(v, gamma), want, atol=1e-9)


@st.composite
def _shifted_systems(draw):
    n = draw(st.integers(1, 8))
    M = draw(arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)))
    G = M @ M.T + draw(st.floats(1e-2, 1.0)) * np.eye(n)
    a = draw(st.floats(1e-3, 1e3))
    b = draw(st.floats(1e-3, 1e3))
    r = draw(arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
    return G, a, b, r


@settings(max_examples=200, deadline=None)
@given(_shifted_systems())
def test_shifted_solver_residual(system):
    G, a, b, r = system
    x = prox_mod._shifted_solver(G)(a, b, r)
    resid = (a * np.eye(G.shape[0]) + b * G) @ x - r
    assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(r)


@st.composite
def _symmetric_shifts(draw):
    n = draw(st.integers(1, 8))
    M = draw(arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)))
    a = draw(st.floats(-1e3, 1e3))
    b = draw(st.floats(-1e3, 1e3))
    return M + M.T, a, b


@settings(max_examples=200, deadline=None)
@given(_symmetric_shifts())
def test_shifted_solver_rejects_exactly_the_indefinite_shifts(system):
    G, a, b = system
    s = np.linalg.eigh(G)[0]
    solve = prox_mod._shifted_solver(G)
    if np.any(a + b * s <= np.finfo(float).tiny):
        with pytest.raises(ValueError):
            solve(a, b, np.ones(G.shape[0]))
    else:
        assert np.all(np.isfinite(solve(a, b, np.ones(G.shape[0]))))


def test_shifted_solvers_reject_subnormal_shifts():
    tiny = np.finfo(float).tiny
    solve = prox_mod._shifted_solver(np.diag([1.0, 2.0]))
    wide, _ = prox_mod._wide_gram_solver(np.array([[1.0, 0.0, 1.0]]), np.zeros(1))
    for a, b in ((5e-324, 0.0), (tiny, 0.0), (0.0, 1e-310)):
        with pytest.raises(ValueError):
            solve(a, b, np.ones(2))
        with pytest.raises(ValueError):
            wide(a, b, np.ones(3))
    # the null space of a wide A leaves a itself as an eigenvalue
    with pytest.raises(ValueError):
        wide(5e-324, 1.0, np.ones(3))
    assert np.all(np.isfinite(solve(2.0 * tiny, 0.0, np.ones(2))))
    assert np.all(np.isfinite(wide(2.0 * tiny, 0.0, np.ones(3))[0]))


def test_huber_piecewise_form():
    h = catalog_prox("huber", dim=1, delta=1.0)
    t = 0.7
    inside = np.array([0.9 * (1.0 + t)])
    outside = np.array([-3.0])
    assert h(inside, t)[0] == pytest.approx(inside[0] / (1.0 + t), abs=1e-14)
    assert h(outside, t)[0] == pytest.approx(outside[0] + t, abs=1e-14)
    # the weight folds into the penalty scale
    hw = catalog_prox("huber", dim=1, delta=1.0, weight=2.0)
    v = np.array([1.7])
    assert hw(v, t)[0] == pytest.approx(h(v, 2.0 * t)[0], abs=1e-14)


def test_smooth_entry_stationarity():
    rng = np.random.default_rng(8)
    gamma = 0.8

    A = EXTRAS["A_tall"]
    b = rng.normal(size=9)
    h = catalog_prox("lstsq", A=A, b=b)
    v = rng.normal(size=5)
    p = h(v, gamma)
    assert np.max(np.abs(p - v + gamma * (A.T @ (A @ p - b)))) <= 1e-10

    n = 12
    u = np.zeros(n - 1)
    tv = catalog_prox("tv_quad", n=n)
    v = rng.normal(size=n)
    x = tv(v, gamma)
    grad = np.zeros(n)
    d = x[1:] - x[:-1] - u
    grad[:-1] -= d
    grad[1:] += d
    assert np.max(np.abs(x - v + gamma * grad)) <= 1e-10

    S = EXTRAS["S"]
    ld = HANDLES["logdet_quad"]
    v = rng.normal(size=16)
    X = ld(v, gamma).reshape(4, 4)
    w = np.linalg.eigvalsh(X)
    assert w.min() > 0.0
    Vs = v.reshape(4, 4)
    Vs = 0.5 * (Vs + Vs.T)
    resid = X - Vs + gamma * (S - np.linalg.inv(X))
    assert np.max(np.abs(resid)) <= 1e-9 * max(1.0, np.max(np.abs(Vs)))


def test_finite_difference_optimality_certificate():
    # independent route: the prox point must satisfy p - v + gamma * grad f(p) = 0
    # with the gradient taken by central differences on the target function
    rng = np.random.default_rng(9)
    gamma = 1.3
    step = 1e-6

    def fd_grad(f, p):
        g = np.zeros_like(p)
        for i in range(p.size):
            ei = np.zeros_like(p)
            ei[i] = step
            g[i] = (f(p + ei) - f(p - ei)) / (2.0 * step)
        return g

    A, b = EXTRAS["A_tall"], np.zeros(9)
    h = catalog_prox("lstsq", A=A, b=b)
    v = rng.normal(size=5)
    p = h(v, gamma)
    g = fd_grad(lambda z: 0.5 * np.dot(A @ z - b, A @ z - b), p)
    assert np.max(np.abs(p - v + gamma * g)) <= 1e-8

    def huber_value(z):
        az = np.abs(z)
        return float(np.sum(np.where(az <= 1.0, 0.5 * z * z, az - 0.5)))

    hh = catalog_prox("huber", dim=6)
    v = 3.0 * rng.normal(size=6)
    p = hh(v, gamma)
    g = fd_grad(huber_value, p)
    assert np.max(np.abs(p - v + gamma * g)) <= 1e-8


def test_shrinkage_optimality_certificate_exact():
    h = catalog_prox("l1", dim=20, weight=1.3)
    rng = np.random.default_rng(10)
    v = 2.0 * rng.normal(size=20)
    gamma = 0.9
    p = h(v, gamma)
    on = p != 0.0
    assert np.allclose(p[on] - v[on] + gamma * 1.3 * np.sign(p[on]), 0.0, atol=1e-12)
    assert np.all(np.abs(v[~on]) <= gamma * 1.3 + 1e-12)


def test_lstsq_decomposes_once_for_every_penalty(monkeypatch):
    calls = []
    real = prox_mod.eigh

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(prox_mod, "eigh", counting)
    rng = np.random.default_rng(11)
    for m, n in ((6, 4), (4, 6)):  # tall, then wide
        calls.clear()
        A = rng.normal(size=(m, n))
        h = catalog_prox("lstsq", A=A, b=rng.normal(size=m))
        assert len(calls) == 1
        v = rng.normal(size=n)
        for gamma in (0.1, 0.5, 1.0, 2.0, 3.0):
            h(v, gamma)
        gammas = 0.25 * np.arange(1, 41)
        with ThreadPoolExecutor(max_workers=8) as pool:
            shared = list(pool.map(lambda gamma: h(v, gamma), gammas))
        assert len(calls) == 1
        for gamma, out in zip(gammas, shared):
            assert np.array_equal(out, h(v, gamma))


@st.composite
def _wide_systems(draw):
    m = draw(st.integers(1, 6))
    n = m + draw(st.integers(1, 6))
    A = draw(arrays(np.float64, (m, n), elements=st.floats(-1.0, 1.0)))
    A[:, :m] += 2.0 * np.eye(m)  # full row rank
    a = draw(st.floats(1e-3, 1e3))
    b = draw(st.floats(1e-3, 1e3))
    r = draw(arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
    d = draw(arrays(np.float64, m, elements=st.floats(-1e3, 1e3)))
    return A, a, b, r, d


@settings(max_examples=200, deadline=None)
@given(_wide_systems())
def test_wide_gram_solver_residual_and_image(system):
    A, a, b, r, d = system
    solve, ud = prox_mod._wide_gram_solver(A, d)
    x, t = solve(a, b, r)
    norm_a = np.linalg.norm(A, 2)
    # rounding scale of x = (r - b W^T t) / a, which cancels when a is small
    x_err = 1e-12 * (np.linalg.norm(r) + b * norm_a * np.linalg.norm(t)) / a
    resid = (a * np.eye(A.shape[1]) + b * A.T @ A) @ x - r
    assert np.linalg.norm(resid) <= (a + b * norm_a**2) * x_err
    # A x = U t with U orthogonal, so the data residual keeps its norm
    gap = abs(np.linalg.norm(t - ud) - np.linalg.norm(A @ x - d))
    assert gap <= 1e-12 * (np.linalg.norm(t) + np.linalg.norm(d)) + norm_a * x_err


def test_wide_gram_solver_rejects_non_positive_definite_shifts():
    rng = np.random.default_rng(14)
    A = rng.normal(size=(3, 7))
    solve, _ = prox_mod._wide_gram_solver(A, np.zeros(3))
    s = np.linalg.eigvalsh(A @ A.T)
    r = np.ones(7)
    solve(1.0, 2.0, r)
    for a, b in ((0.0, 1.0), (-1.0, 1.0), (1.0, -1.0 / s[0]), (1.0, -2.0 / s[-1])):
        with pytest.raises(ValueError):
            solve(a, b, r)


def test_handle_validates_inputs():
    h = HANDLES["l1"]
    assert h.convention == CLASSICAL and h.dim == 7
    with pytest.raises(ValueError):
        h(np.zeros(6), 1.0)
    with pytest.raises(ValueError):
        h(np.zeros(7), np.inf)
    with pytest.raises(ValueError):
        ProxHandle(lambda v, t: v, "sideways", 3)
    with pytest.raises(ValueError):
        catalog_prox("l1", dim=5, weight=-1.0)
