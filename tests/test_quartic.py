import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admmtune import (
    DegenerateProblemError,
    QuarticCoefficients,
    build_coefficients,
    solve_quartic,
)


def bisection_root(c, lo=1e-12, hi=1.0):
    # One sign change is bracketed by doubling; 200 halvings pin ~1e-15 relative.
    while c.poly(hi) < 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if c.poly(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def positive_real_roots(c):
    roots = np.roots([c.a, c.b, 0.0, c.d, c.e])
    keep = roots[(np.abs(roots.imag) <= 1e-8 * (1 + np.abs(roots.real))) & (roots.real > 0)]
    return np.sort(keep.real)


def test_pure_even_coefficients_reduce_to_fourth_root():
    c = QuarticCoefficients(a=1.0, b=0.0, d=0.0, e=-9.0)
    assert solve_quartic(c) == pytest.approx(np.sqrt(3.0), rel=1e-12)
    assert solve_quartic(c) ** 2 == pytest.approx(3.0, rel=1e-12)


def test_known_general_root():
    c = QuarticCoefficients(a=1.0, b=-2.0, d=4.5, e=-9.0)
    root = solve_quartic(c)
    assert root == pytest.approx(2.0, rel=1e-10)
    assert abs(c.poly(root)) <= 1e-9 * c.scale()


def test_unit_root_exact():
    c = QuarticCoefficients(a=4.0, b=0.0, d=0.0, e=-4.0)
    assert solve_quartic(c) == 1.0


def test_matches_bisection_on_randomized_coefficients():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        a = rng.uniform(0.1, 10.0)
        e = -rng.uniform(0.1, 10.0)
        b = 3.0 * rng.normal()
        d = 3.0 * rng.normal()
        if b < 0.0 and d > 0.0:
            continue  # region where several positive roots can coexist
        c = QuarticCoefficients(a=a, b=b, d=d, e=e)
        root = solve_quartic(c)
        assert root == pytest.approx(bisection_root(c), rel=1e-8)
        assert abs(c.poly(root)) <= 1e-9 * c.scale()


def test_three_positive_roots_resolved_by_objective():
    c = QuarticCoefficients(a=1.0, b=-10.0, d=0.1, e=-0.001)
    roots = positive_real_roots(c)
    assert len(roots) == 3
    chosen = solve_quartic(c)
    best = min(roots, key=c.objective)
    assert chosen == pytest.approx(best, rel=1e-8)


def test_sign_constraints_rejected():
    with pytest.raises(ValueError):
        QuarticCoefficients(a=-1.0, b=0.0, d=0.0, e=-1.0)
    with pytest.raises(ValueError):
        QuarticCoefficients(a=1.0, b=0.0, d=0.0, e=1.0)
    # a = 0 or e = 0 leaves no positive root, so the quartic is refused when built
    with pytest.raises(ValueError, match="coefficient a must be positive, got 0.0"):
        QuarticCoefficients(a=0.0, b=0.0, d=0.0, e=-1.0)
    with pytest.raises(ValueError, match="coefficient e must be negative, got 0.0"):
        QuarticCoefficients(a=1.0, b=0.0, d=0.0, e=0.0)
    with pytest.raises(ValueError):
        QuarticCoefficients(a=np.nan, b=0.0, d=0.0, e=-1.0)
    with pytest.raises(ValueError, match="defined for alpha > 0"):
        QuarticCoefficients(a=1.0, b=0.0, d=0.0, e=-1.0).objective(0.0)


def test_build_coefficients_from_vectors():
    rng = np.random.default_rng(5)
    u = rng.normal(size=8)
    v = rng.normal(size=8)
    w = rng.normal(size=8)
    c = build_coefficients(u, v, w)
    assert c.a == pytest.approx(np.dot(u, u), rel=1e-14)
    assert c.e == pytest.approx(-np.dot(v, v), rel=1e-14)
    assert c.b == pytest.approx(-np.dot(u, w), rel=1e-14)
    assert c.d == pytest.approx(np.dot(v, w), rel=1e-14)


def test_build_coefficients_zero_start_is_even():
    rng = np.random.default_rng(6)
    c = build_coefficients(rng.normal(size=5), rng.normal(size=5))
    assert c.b == 0.0 and c.d == 0.0


def test_build_coefficients_rejects_vanishing_vectors():
    v = np.ones(4)
    with pytest.raises(DegenerateProblemError):
        build_coefficients(np.zeros(4), v)
    with pytest.raises(DegenerateProblemError):
        build_coefficients(v, np.zeros(4))


def test_root_invariant_under_joint_rescaling():
    rng = np.random.default_rng(7)
    u = rng.normal(size=6)
    v = rng.normal(size=6)
    w = rng.normal(size=6)
    base = solve_quartic(build_coefficients(u, v, w))
    for t in (0.01, 0.5, 40.0):
        scaled = solve_quartic(build_coefficients(t * u, t * v, t * w))
        assert scaled == pytest.approx(base, rel=1e-10)


def dense_bisection_roots(c, points=4000):
    """Every sign change of p on a log grid spanning the positive-root bounds, bisected."""
    hi = 2.0 * (1.0 + max(abs(c.b), abs(c.d), abs(c.e)) / c.a)
    lo = 0.5 * abs(c.e) / (abs(c.e) + max(c.a, abs(c.b), abs(c.d)))
    grid = np.geomspace(lo, hi, points)
    p = c.poly(grid)
    roots = []
    for i in np.flatnonzero(np.sign(p[:-1]) != np.sign(p[1:])):
        left, right = grid[i], grid[i + 1]
        left_negative = c.poly(left) < 0.0
        for _ in range(200):
            mid = 0.5 * (left + right)
            if (c.poly(mid) < 0.0) == left_negative:
                left = mid
            else:
                right = mid
        roots.append(0.5 * (left + right))
    return roots


# a mantissa in [1, 10) times 10**k: each coefficient spans thirteen decades
_MAGNITUDE = st.builds(lambda m, k: m * 10.0 ** k,
                       st.floats(1.0, 10.0, exclude_max=True), st.integers(-6, 6))
_SIGN = st.sampled_from([-1.0, 0.0, 1.0])


@settings(max_examples=300, deadline=None)
@given(a=_MAGNITUDE, b=_MAGNITUDE, d=_MAGNITUDE, e=_MAGNITUDE, sign_b=_SIGN, sign_d=_SIGN)
# a root near 1e-9 whose terms are ~2e-3 against coefficients up to ~1.6e6
@example(a=1e-4, b=1575281.4262307093, d=1e6, e=1e-3, sign_b=1.0, sign_d=1.0)
def test_root_is_valid_and_minimizes_the_objective(a, b, d, e, sign_b, sign_d):
    c = QuarticCoefficients(a=a, b=sign_b * b, d=sign_d * d, e=-e)
    alpha = solve_quartic(c)
    assert alpha > 0.0
    # the terms that cancel in p(alpha) bound its rounding error
    terms = ((c.a * alpha + abs(c.b)) * alpha * alpha + abs(c.d)) * alpha + abs(c.e)
    assert abs(c.poly(alpha)) <= 1e-9 * max(c.scale(), terms)
    best = c.objective(alpha)
    for root in dense_bisection_roots(c):
        size = c.a * root * root + 2.0 * abs(c.b) * root + 2.0 * abs(c.d) / root + abs(c.e) / (root * root)
        assert c.objective(root) >= best - 1e-9 * size


def test_roots_far_from_one_pass_validation():
    # the only positive root is ~1408; p there cancels terms of size ~6e11
    c = QuarticCoefficients(a=0.14248420256061475, b=-200.6931467784062,
                            d=-0.6292068598559348, e=-86.60249584243542)
    assert solve_quartic(c) == pytest.approx(bisection_root(c), rel=1e-10)
    # roots ~2.7e-3, ~0.59 and ~357: the largest minimizes the objective
    c = QuarticCoefficients(a=0.26599366596845375, b=-95.07795874141935,
                            d=33.0720416149593, e=-0.08789953846295122)
    assert solve_quartic(c) == pytest.approx(positive_real_roots(c)[-1], rel=1e-10)
    # a root ~5.7e-7 that closed-form radicals lose to cancellation
    c = QuarticCoefficients(a=0.007498315065860046, b=-5572.346662636607,
                            d=8647.316038442246, e=-0.004902964699748021)
    assert solve_quartic(c) == pytest.approx(5.669926573693578e-07, rel=1e-8, abs=0.0)
    # roots ~5.7e-11, ~1.3 and ~5.7e9: the smallest minimizes the objective,
    # and p there cancels terms of size ~2e-5 against coefficients up to 1.75e5
    c = QuarticCoefficients(a=1.75e-5, b=-1e5, d=1.75e5, e=-1e-5)
    assert solve_quartic(c) == pytest.approx(1e-5 / 1.75e5, rel=1e-12, abs=0.0)
