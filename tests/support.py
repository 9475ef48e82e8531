"""Shared oracle helpers for the test suite.

The eta batch evaluator re-implements the weight functionals independently
of the library so the two can cross-check each other.
"""

import numpy as np

from specincl import inclusion as inc
from specincl.penalty import optimal_weights


def eta_batch(W, r_L, r_U, variant):
    """Vectorized eta over rows of W (independent re-implementation)."""
    n = W.shape[1]
    S = np.sum(W * W, axis=1)
    padded = np.zeros((W.shape[0], n + 2))
    padded[:, 1:n + 1] = W
    tm = np.sum((padded[:, 0:n] - padded[:, 1:n + 1]) ** 2, axis=1)
    tp = np.sum((padded[:, 2:n + 2] - padded[:, 1:n + 1]) ** 2, axis=1)
    diffs = np.sum((W[:, 1:] - W[:, :-1]) ** 2, axis=1)
    tper = (W[:, 0] + W[:, -1]) ** 2 + diffs
    tt = W[:, 0] ** 2 + W[:, -1] ** 2 + diffs
    if variant == "tau":
        return r_L * np.sqrt(tm / S) + r_U * np.sqrt(tp / S)
    if variant == "pi":
        return (r_L + r_U) * np.sqrt(tper / S)
    return (r_L + r_U) * np.sqrt(tt / S)


def sampled_minimum(n, r_L, r_U, variant, samples=10_000, seed=0):
    """Minimum of eta over random unit weights plus the analytic candidates."""
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((samples, n))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    cands = [optimal_weights(n, v, r_L, r_U) for v in ("pi", "tau1", "tau")]
    W = np.vstack([W] + [c / np.linalg.norm(c) for c in cands])
    return float(np.min(eta_batch(W, r_L, r_U, variant)))


def masks_agree_off_boundary(region, analytic_dist, level, slack):
    """Masks may disagree only within slack of the analytic threshold."""
    analytic = analytic_dist <= level
    disagree = region.mask ^ analytic
    return not np.any(disagree & (np.abs(analytic_dist - level) > slack))


def full_sweep_mask(view, method, n, eps, grid, t=None):
    """Reference mask of a family method from every grid node: each term's
    ``min_field`` against its level, intersected over the terms."""
    nodes = grid.nodes()
    lvls = inc.levels(inc.penalty_params(view, n), method, eps)
    mask = np.ones(nodes.shape, dtype=bool)
    for terms, level in zip(inc.family(view, method, n, t), lvls):
        mask &= inc.min_field(terms, nodes) <= level
    return mask
