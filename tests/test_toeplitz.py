import math

import numpy as np
import pytest

from specincl import inclusion as inc
from specincl import pseudospec as ps
from specincl.errors import DomainError
from specincl.matrixcore import make_view, split_tridiagonal
from specincl.penalty import solve_theta
from specincl.pseudospec import eig, smin
from specincl.toeplitz import (
    banded_partition,
    build_toeplitz,
    convergence_study,
    jordan,
    jordan_alpha,
    jordan_annulus,
    jordan_phi,
    jordan_symbol,
    jordan_vn,
    laplacian,
    laplacian_spectrum,
    laplacian_symbol,
    laplacian_theta,
    spec_from_json,
    spec_to_json,
    toeplitz_spec,
    wiener_tail,
)

from support import full_sweep_mask, reference_pseudospectrum


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_build_superdiagonal():
    spec = toeplitz_spec({-1: 1.0})
    assert np.array_equal(build_toeplitz(spec, 3), jordan(3))


def test_build_laplacian():
    spec = toeplitz_spec({-1: 1.0, 1: 1.0})
    assert np.array_equal(build_toeplitz(spec, 4), laplacian(4))


def test_build_diagonal():
    spec = toeplitz_spec({0: 2.0})
    assert np.array_equal(build_toeplitz(spec, 2), 2.0 * np.eye(2))


def test_builtin_symbols():
    assert np.array_equal(build_toeplitz(jordan_symbol(), 5), jordan(5))
    assert np.array_equal(build_toeplitz(laplacian_symbol(), 5), laplacian(5))
    assert laplacian_symbol().hermitian
    assert not jordan_symbol().hermitian


def test_spec_hermitian_flag_verified():
    # the flag is read from the coefficients, never from the document
    s = spec_from_json('{"coeffs": [[-1, 1.0, 0.0], [1, 0.5, 0.0]], '
                       '"hermitian": true}')
    assert s == toeplitz_spec({-1: 1.0, 1: 0.5})
    assert not s.hermitian
    s = toeplitz_spec({-1: 0.5 + 0.25j, 1: 0.5 - 0.25j, 0: 1.0})
    assert s.hermitian


def test_spec_json_hermitian_false_on_hermitian_table():
    # a Hermitian table stays Hermitian, so eps = 0 studies accept it
    s = spec_from_json('{"coeffs": [[-1, 1.0, 0.0], [1, 1.0, 0.0]], '
                       '"hermitian": false}')
    assert s == laplacian_symbol() and s.hermitian
    assert spec_to_json(s) == spec_to_json(laplacian_symbol())


def test_builtins_are_their_symbols_at_every_order():
    # entries bit for bit as the hand-built np.eye forms: 1+0j and +0
    for M in (1, 2, 7):
        assert jordan(M).tobytes() == (
            np.eye(M, k=1, dtype=np.complex128).tobytes())
        assert laplacian(M).tobytes() == (
            (np.eye(M, k=1) + np.eye(M, k=-1)).astype(np.complex128)
            .tobytes())
    assert build_toeplitz(jordan_symbol(), 1).shape == (1, 1)
    for build in (jordan, laplacian):
        with pytest.raises(DomainError):
            build(0)


def test_spec_json_roundtrip():
    s = toeplitz_spec({-2: 0.5j, -1: 1.0, 3: 0.25})
    back = spec_from_json(spec_to_json(s))
    assert back == s


def test_spec_json_ignores_bandwidth_key():
    # documents written while a spec still stored its bandwidth load as the
    # spec of their coefficients
    old = ('{"bandwidth": 2, "coeffs": [[-1, 1.0, 0.0], [1, 0.25, 0.0], '
           '[2, 0.0, 0.5]], "hermitian": false}')
    s = spec_from_json(old)
    assert s == toeplitz_spec({-1: 1.0, 1: 0.25, 2: 0.5j})
    assert s == spec_from_json(old.replace('"bandwidth": 2, ', ""))
    assert "bandwidth" not in spec_to_json(s)


# ---------------------------------------------------------------------------
# banded partition recipe
# ---------------------------------------------------------------------------

def test_banded_partition_exact_multiple():
    assert banded_partition(12, 3).sizes == (3, 3, 3, 3)
    assert banded_partition(8, 4).sizes == (4, 4)


def test_banded_partition_remainder():
    assert banded_partition(10, 3).sizes == (3, 3, 4)


def test_banded_partition_requires_two_blocks():
    with pytest.raises(DomainError):
        banded_partition(5, 3)
    with pytest.raises(DomainError):
        banded_partition(4, 0)


def test_banded_partition_makes_block_tridiagonal():
    spec = toeplitz_spec({-3: 0.2, -1: 1.0, 2: 0.5, 3: 0.1})
    for M in (12, 13, 17):
        A = build_toeplitz(spec, M)
        view = make_view(A, banded_partition(M, 3))
        _, C = split_tridiagonal(view)
        assert not np.any(C)


# ---------------------------------------------------------------------------
# Wiener tails
# ---------------------------------------------------------------------------

def test_wiener_tail_banded_vanishes():
    spec = toeplitz_spec({-2: 0.5, 1: 1.0})
    assert wiener_tail(spec, 2) == 0.0


def test_wiener_tail_geometric():
    coeffs = {j: 2.0 ** (-abs(j)) for j in range(-20, 21) if j != 0}
    spec = toeplitz_spec(coeffs)
    # sum_{j=3..20} 2 * 2^-j  ==  2^-1 - 2^-19
    assert wiener_tail(spec, 2) == pytest.approx(2.0 ** -1 - 2.0 ** -19,
                                                 abs=1e-15)


def test_wiener_tail_bounds_remainder_norm():
    coeffs = {j: 1.5 ** (-abs(j)) * (1 + 0.3j) for j in range(-6, 7)}
    spec = toeplitz_spec(coeffs)
    w = 2
    A = build_toeplitz(spec, 12)
    view = make_view(A, banded_partition(12, w))
    _, C = split_tridiagonal(view)
    c_norm = np.linalg.norm(C, 2)
    assert c_norm <= wiener_tail(spec, w) + 1e-12


# ---------------------------------------------------------------------------
# Jordan closed forms
# ---------------------------------------------------------------------------

def test_jordan_phi_at_one():
    for n in (1, 2, 5, 11):
        assert jordan_phi(n, 1.0) == math.pi / (2 * n + 1)


def test_jordan_phi_residual_and_bracket():
    for n in (1, 3, 6, 10):
        for s in (1.0, 1.2, 2.0, 10.0):
            t = jordan_phi(n, s)
            assert math.pi / (2 * n + 1) - 1e-14 <= t < math.pi / (n + 1)
            assert abs(s * math.sin((n + 1) * t) - math.sin(n * t)) < 1e-10


def test_jordan_phi_n1_closed_form():
    # 2 sin(2t) = sin(t)  =>  cos(t) = 1/4
    assert jordan_phi(1, 2.0) == pytest.approx(math.acos(0.25), abs=1e-12)


def test_jordan_phi_domain():
    with pytest.raises(DomainError):
        jordan_phi(3, 0.5)


def test_jordan_vn_values():
    for n in (1, 2, 4, 9):
        assert jordan_vn(n, 1.0) == pytest.approx(
            2 * math.sin(math.pi / (4 * n + 2)), abs=1e-12)
        assert jordan_vn(n, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_jordan_vn_matches_svd():
    for n in range(1, 13):
        for s in (0.3, 0.8, 1.0, 1.2, 2.0):
            direct = smin(jordan(n) - s * np.eye(n))
            assert abs(jordan_vn(n, s) - direct) < 1e-9


def test_jordan_vn_rotation_invariance():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(1, 13))
        s = rng.uniform(1.0, 3.0)
        lam = s * np.exp(1j * rng.uniform(0, 2 * math.pi))
        direct = smin(jordan(n) - lam * np.eye(n))
        assert abs(jordan_vn(n, s) - direct) < 1e-9


def test_jordan_alpha_fixed_points():
    for n in (1, 3, 5, 10):
        eps_n = 2 * math.sin(math.pi / (4 * n + 2))
        assert jordan_alpha(n, eps_n) == pytest.approx(1.0, abs=1e-12)


def test_jordan_alpha_bracket():
    for n in range(1, 11):
        eps_n = 2 * math.sin(math.pi / (4 * n + 2))
        for e in (0.0, 0.05, 0.15, 0.5):
            a = jordan_alpha(n, eps_n + e)
            assert 1 + e - 1e-10 <= a
            assert a <= 1 + e + min(eps_n, math.sqrt(2 * eps_n * e)) + 1e-10


def test_jordan_alpha_widens_a_drooping_lower_bracket():
    # just above eps_1 the computed v_1 already exceeds eps at the analytic
    # lower end 1 + e, so the root lies below it and the bracket widens
    n, eps = 1, 1.0000000000000033
    lower = 1.0 + (eps - 2 * math.sin(math.pi / (4 * n + 2)))
    assert jordan_vn(n, lower) > eps
    a = jordan_alpha(n, eps)
    assert 1.0 <= a < lower
    assert jordan_vn(n, a) - eps == 0.0


def test_jordan_alpha_residual():
    for n in (2, 4, 7):
        for eps in (0.05, 0.2, 0.6, 1.5):
            a = jordan_alpha(n, eps)
            assert abs(jordan_vn(n, a) - eps) < 1e-10


def test_jordan_annulus():
    n = 4
    s = math.sin(math.pi / (n + 1))
    c = math.cos(math.pi / (n + 1))
    assert jordan_annulus(n, 0.5 * s) is None
    a_minus, a_plus = jordan_annulus(n, s)
    assert a_minus == pytest.approx(c, abs=1e-14)
    assert a_plus == pytest.approx(c, abs=1e-14)
    for nn in range(1, 11):
        for e in (0.0, 0.15):
            eps_n = 2 * math.sin(math.pi / (4 * nn + 2))
            ann = jordan_annulus(nn, eps_n + e)
            if ann is not None:
                assert ann[1] < jordan_alpha(nn, eps_n + e)


# ---------------------------------------------------------------------------
# Laplacian closed forms
# ---------------------------------------------------------------------------

def test_laplacian_spectrum_values():
    assert np.allclose(laplacian_spectrum(1), [0.0], atol=1e-15)
    got = laplacian_spectrum(4)
    phi = (1 + math.sqrt(5)) / 2
    assert np.allclose(got, [phi, phi - 1, 1 - phi, -phi], atol=1e-4)
    assert np.allclose(got, sorted(got, reverse=True))


def test_laplacian_spectrum_matches_eig():
    for M in (2, 5, 17, 50):
        expected = np.sort(laplacian_spectrum(M))
        got = np.sort(eig(laplacian(M)).real)
        assert np.allclose(got, expected, atol=1e-10)


def test_laplacian_theta_small_n():
    assert laplacian_theta(1) == math.pi / 3
    assert laplacian_theta(2) == pytest.approx(2 * math.acos(math.sqrt(7 / 8)),
                                               abs=1e-12)


def test_laplacian_theta_matches_general_root():
    for n in range(1, 65):
        assert abs(laplacian_theta(n) - solve_theta(n, 1.0, 1.0)) < 1e-10


def test_laplacian_eps4_value():
    eps4 = 4 * math.sin(laplacian_theta(4) / 2)
    assert eps4 == pytest.approx(0.9364, abs=5e-4)


def test_cn_identity():
    # cos(pi/(n+1)) == 1 - eps''_n(V)^2 / 2 with r = 1, c = 0
    from specincl.penalty import PenaltyParams, eps_tau1
    for n in range(1, 20):
        p = PenaltyParams.from_offdiag(0.0, 1.0, 0.0, n)
        c_n = math.cos(math.pi / (n + 1))
        assert abs(c_n - (1 - eps_tau1(p) ** 2 / 2)) < 1e-14


# ---------------------------------------------------------------------------
# convergence studies (desk scale here; full scale in acceptance)
# ---------------------------------------------------------------------------

def test_convergence_study_banded_tau():
    spec = toeplitz_spec({-1: 1.0, 2: 0.5})
    schedule = [(48, n, 2) for n in (2, 4, 6)]
    result = convergence_study(spec, 0.1, schedule, grid_nodes=96)
    assert all(r.method == "tau" for r in result.rows)
    d = [r.d_h for r in result.rows]
    assert d[2] <= d[1] + 2 * result.rows[0].cell
    assert result.monotone_within_slack


def test_convergence_study_wiener_tau1_route():
    coeffs = {j: 2.0 ** (-abs(j)) for j in range(-5, 6)}
    spec = toeplitz_spec(coeffs)
    result = convergence_study(spec, 0.3, [(24, 2, 2), (24, 4, 2)],
                               grid_nodes=64)
    assert all(r.method == "tau1" for r in result.rows)
    assert all(np.isfinite(r.d_h) for r in result.rows)


def full_sweep_rows(spec, eps, schedule, grid_nodes):
    """Study rows from masks of every grid node (``full_sweep_mask`` and
    reference pseudospectra), on the grid ``convergence_study`` builds."""
    plan = []
    for M, n, w in schedule:
        view = make_view(build_toeplitz(spec, M), banded_partition(M, w))
        method = "tau" if wiener_tail(spec, w) == 0.0 else "tau1"
        plan.append((M, n, w, view, method))
    pad = max(inc.levels(inc.penalty_params(view, n), method, eps)[0]
              for _, n, _, view, method in plan)
    A_big = build_toeplitz(spec, max(M for M, _, _ in schedule))
    grid = ps.default_grid(A_big, pad=pad, nx=grid_nodes, ny=grid_nodes)
    rows = []
    for M, n, w, view, method in plan:
        region = ps.Region(grid, full_sweep_mask(view, method, n, eps, grid))
        A = build_toeplitz(spec, M)
        ref = (reference_pseudospectrum(A, eps, grid) if eps > 0
               else ps.region_from_points(grid, eig(A)))
        rows.append((M, n, w, eps, method, ps.hausdorff(region, ref),
                     grid.cell_diag))
    return rows


@pytest.mark.parametrize("spec, eps, schedule", [
    (jordan_symbol(), 0.15, [(32, n, 1) for n in (2, 4, 8)]),
    (laplacian_symbol(), 0.0, [(24, 2, 1), (32, 4, 1)]),
    (toeplitz_spec({j: 2.0 ** (-abs(j)) for j in range(-5, 6)}), 0.3,
     [(24, 2, 2), (24, 4, 2)]),
], ids=["jordan-tau", "laplacian-eps0", "wiener-tau1"])
def test_convergence_study_rows_equal_full_sweeps(spec, eps, schedule):
    result = convergence_study(spec, eps, schedule, grid_nodes=72)
    rows = [(r.M, r.n, r.w, r.eps, r.method, r.d_h, r.cell)
            for r in result.rows]
    assert rows == full_sweep_rows(spec, eps, schedule, 72)


def test_convergence_study_rejects_eps0_nonhermitian():
    with pytest.raises(DomainError):
        convergence_study(jordan_symbol(), 0.0, [(16, 2, 1)])


def test_convergence_study_eps0_hermitian_runs():
    result = convergence_study(laplacian_symbol(), 0.0,
                               [(32, n, 1) for n in (2, 4)], grid_nodes=96)
    assert result.rows[1].d_h < result.rows[0].d_h
