import math

import numpy as np
import pytest

from specincl.errors import DegenerateError, DomainError
from specincl.penalty import (
    PenaltyParams,
    eps_pi,
    eps_tau,
    eps_tau1,
    eta,
    functionals,
    solve_theta,
)

from support import optimal_weights


def theta_residual(t, n, r_L, r_U):
    r = r_L + r_U
    return (2 * math.sin(t / 2) * math.cos((n + 0.5) * t)
            + (r_L * r_U / r**2) * math.sin((n - 1) * t))


# ---------------------------------------------------------------------------
# the root angle
# ---------------------------------------------------------------------------

def test_theta_one_sided_is_left_endpoint():
    for n in (1, 2, 5, 13):
        assert solve_theta(n, 0.0, 1.0) == math.pi / (2 * n + 1)
        assert solve_theta(n, 2.5, 0.0) == math.pi / (2 * n + 1)


def test_theta_n1_is_pi_over_3():
    for r_L, r_U in [(1, 1), (0.3, 2.0), (5, 0.1)]:
        assert solve_theta(1, r_L, r_U) == math.pi / 3


def test_theta_n2_balanced_closed_form():
    got = solve_theta(2, 1.0, 1.0)
    assert got == pytest.approx(2 * math.acos(math.sqrt(7 / 8)), abs=1e-12)


def test_theta_degenerate():
    with pytest.raises(DegenerateError):
        solve_theta(3, 0.0, 0.0)


def test_theta_tiny_offdiagonal_ratio():
    # at q = 1e-17 the computed theta equation is not positive at the left
    # end of the bracket at n = 12, although it is in exact arithmetic; the
    # root is then the bisection point just above that end.  At n = 2 and
    # 5 it is positive there, and the secant polish must not return the end
    # itself, which lies below the root
    for n in (2, 5, 12):
        lo = math.pi / (2 * n + 1)
        for r_L, r_U in ((1e-17, 1.0), (1.0, 1e-17)):
            assert lo < solve_theta(n, r_L, r_U) <= lo + 1e-15


def test_theta_bracket_and_residual():
    rng = np.random.default_rng(2024)
    count = 0
    for n in range(1, 65):
        for _ in range(16):
            r_L, r_U = rng.uniform(0.01, 10.0, 2)
            t = solve_theta(n, r_L, r_U)
            assert math.pi / (2 * n + 1) - 1e-14 <= t <= math.pi / (n + 2) + 1e-14
            assert abs(theta_residual(t, n, r_L, r_U)) < 1e-10
            count += 1
    assert count == 64 * 16


# ---------------------------------------------------------------------------
# the three penalties
# ---------------------------------------------------------------------------

def test_eps_tau_n1_closed_form():
    p = PenaltyParams.from_offdiag(0.4, 1.1, 0.3, 1)
    assert eps_tau(p) == pytest.approx(1.5 + 0.3, abs=1e-14)


def test_eps_tau_laplacian_small_n():
    assert eps_tau(PenaltyParams.from_offdiag(1, 1, 0, 1)) == pytest.approx(2.0, abs=1e-12)
    assert eps_tau(PenaltyParams.from_offdiag(1, 1, 0, 2)) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert eps_tau(PenaltyParams.from_offdiag(1, 1, 0, 4)) == pytest.approx(0.9364, abs=5e-4)


def test_eps_tau_degenerate_r():
    p = PenaltyParams.from_offdiag(0.0, 0.0, 0.7, 5)
    assert eps_tau(p) == 0.7
    assert eps_pi(p) == 0.7
    assert eps_tau1(p) == 0.7


def test_eps_pi_values():
    assert eps_pi(PenaltyParams.from_offdiag(0.5, 1.0, 0.2, 1)) == pytest.approx(3.0 + 0.2)
    jordan4 = PenaltyParams.from_offdiag(0, 1, 0, 4)
    assert eps_pi(jordan4) == pytest.approx(2 * math.sin(math.pi / 8), abs=1e-14)
    assert eps_pi(jordan4) == pytest.approx(0.7654, abs=5e-4)
    lap4 = PenaltyParams.from_offdiag(1, 1, 0, 4)
    assert eps_pi(lap4) == pytest.approx(4 * math.sin(math.pi / 8), abs=1e-14)


def test_eps_tau1_values():
    p1 = PenaltyParams.from_offdiag(0.25, 0.75, 0.1, 1)
    assert eps_tau1(p1) == pytest.approx(math.sqrt(2) + 0.1, abs=1e-14)
    jordan4 = PenaltyParams.from_offdiag(0, 1, 0, 4)
    assert eps_tau1(jordan4) == pytest.approx(2 * math.sin(math.pi / 10), abs=1e-14)
    assert eps_tau1(jordan4) == pytest.approx(0.6180, abs=5e-4)


def test_penalty_chain_and_bounds():
    rng = np.random.default_rng(99)
    for _ in range(200):
        r_L, r_U, c = rng.uniform(0.0, 4.0, 3)
        if r_L + r_U == 0:
            continue
        n = int(rng.integers(1, 30))
        p = PenaltyParams.from_offdiag(r_L, r_U, c, n)
        t, t1, pi_ = eps_tau(p), eps_tau1(p), eps_pi(p)
        assert t <= t1 + 1e-12 <= pi_ + 2e-12
        r = r_L + r_U
        assert t <= 2 * r * math.sin(math.pi / (2 * n + 4)) + c + 1e-12
        assert pi_ <= math.pi * r / n + c + 1e-12
        assert t1 <= math.pi * r / (n + 1) + c + 1e-12


def test_penalty_monotone_decay_in_n():
    r_L, r_U = 0.7, 1.3
    for fn in (eps_tau, eps_pi, eps_tau1):
        prev = None
        for n in range(1, 40):
            val = fn(PenaltyParams.from_offdiag(r_L, r_U, 0.0, n))
            if prev is not None:
                assert val < prev
            prev = val


def test_penalty_params_validation():
    assert PenaltyParams.from_offdiag(0.7, 1.3, 0.0, 2).r == 0.7 + 1.3
    with pytest.raises(DomainError):
        PenaltyParams.from_offdiag(-1.0, 1.0, 0.0, 2)
    with pytest.raises(DomainError):
        PenaltyParams.from_offdiag(1.0, 1.0, 0.0, 0)


# ---------------------------------------------------------------------------
# weight functionals
# ---------------------------------------------------------------------------

def test_functionals_singleton():
    S, tm, tp, tper, t = functionals([1.0])
    assert (S, tm, tp, tper, t) == (1.0, 1.0, 1.0, 4.0, 2.0)


def test_functionals_pair_of_ones():
    S, tm, tp, tper, t = functionals([1.0, 1.0])
    assert (S, tm, tp, tper, t) == (2.0, 1.0, 1.0, 4.0, 2.0)


def test_functionals_constant_boundary_terms():
    for n in (3, 10, 50):
        S, tm, tp, _, _ = functionals(np.ones(n))
        assert tm / S == pytest.approx(1.0 / n, abs=1e-15)
        assert tp / S == pytest.approx(1.0 / n, abs=1e-15)


def test_weights_validation():
    with pytest.raises(DomainError):
        functionals(np.zeros(4))
    with pytest.raises(DomainError):
        functionals([])


# ---------------------------------------------------------------------------
# eta minimization (closed forms of the penalty minima)
# ---------------------------------------------------------------------------

from support import eta_batch, sampled_minimum


def test_eta_batch_matches_library():
    rng = np.random.default_rng(12)
    W = rng.standard_normal((20, 5))
    for variant in ("tau", "pi", "tau1"):
        batch = eta_batch(W, 0.6, 1.7, variant)
        for row, expect in zip(W, batch):
            assert eta(row, 0.6, 1.7, variant) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_pi_weights_achieve_closed_form(n):
    r_L, r_U = 0.9, 1.4
    w = optimal_weights(n, "pi")
    closed = 2 * (r_L + r_U) * math.sin(math.pi / (2 * n))
    assert eta(w, r_L, r_U, "pi") == pytest.approx(closed, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_tau1_weights_achieve_closed_form(n):
    r_L, r_U = 1.2, 0.4
    w = optimal_weights(n, "tau1")
    closed = 2 * (r_L + r_U) * math.sin(math.pi / (2 * n + 2))
    assert eta(w, r_L, r_U, "tau1") == pytest.approx(closed, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_sampled_minima_match_equality_cases(n):
    r_L, r_U = 0.8, 1.9
    r = r_L + r_U
    got = sampled_minimum(n, r_L, r_U, "pi")
    assert abs(got - 2 * r * math.sin(math.pi / (2 * n))) <= 1e-8
    got = sampled_minimum(n, r_L, r_U, "tau1")
    assert abs(got - 2 * r * math.sin(math.pi / (2 * n + 2))) <= 1e-8
    # one-sided case: the tau minimum hits 2 r sin(theta_n / 2) exactly
    got = sampled_minimum(n, 0.0, r, "tau")
    theta = solve_theta(n, 0.0, r)
    assert abs(got - 2 * r * math.sin(theta / 2)) <= 1e-8


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("r_L,r_U", [(1.0, 1.0), (0.5, 2.0), (3.0, 0.7)])
def test_sampled_minimum_below_tau_bound(n, r_L, r_U):
    # with both off-diagonals present the closed form is only an upper bound
    theta = solve_theta(n, r_L, r_U)
    bound = 2 * (r_L + r_U) * math.sin(theta / 2)
    assert sampled_minimum(n, r_L, r_U, "tau") <= bound + 1e-8


@pytest.mark.parametrize("n", [2, 4, 7])
def test_balanced_tau_weights_hit_bound_exactly(n):
    r = 1.3
    theta = solve_theta(n, r, r)
    w = optimal_weights(n, "tau", r, r)
    assert eta(w, r, r, "tau") == pytest.approx(4 * r * math.sin(theta / 2),
                                                abs=1e-12)
