"""Seeded matrix corpus and containment verification harness.

The verifier draws random dense, banded, and Toeplitz matrices, assigns each
a block partition, and checks that every eigenvalue lies in each method's
inclusion set (pointwise membership, which is sharper than any grid).  The
rectangular method's sandwich bound is checked at the eigenvalues and at
random probe points.  An adversarial mode rescales the penalties to confirm
that the harness actually detects violations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import inclusion as inc
from . import pseudospec as ps
from .matrixcore import BlockPartition, make_view
from .toeplitz import build_toeplitz, toeplitz_spec

__all__ = ["CorpusItem", "build_corpus", "VerifyRecord", "verify_containment"]


@dataclass(frozen=True)
class CorpusItem:
    name: str
    kind: str
    matrix: np.ndarray
    partition: BlockPartition


def _partition_for(order: int, rng) -> BlockPartition:
    """Scalar partition for small orders, blocks of 3 (or a 3/4 mix when the
    order is not divisible) otherwise, keeping the block count moderate."""
    if order <= 12:
        return BlockPartition((1,) * order)
    for m in (3, 4, 5):
        if order % m == 0:
            return BlockPartition((m,) * (order // m))
    N = order // 3
    r = order - 3 * N
    return BlockPartition((3,) * (N - r) + (4,) * r)


def build_corpus(seed: int = 1, count: int = 60,
                 orders=(6, 40)) -> list[CorpusItem]:
    """Deterministic mix of dense, banded, and Toeplitz matrices."""
    rng = np.random.default_rng(seed)
    lo, hi = orders
    items = []
    kinds = ["dense", "banded", "toeplitz"]
    for i in range(count):
        kind = kinds[i % 3]
        order = int(rng.integers(lo, hi + 1))
        if kind == "dense":
            A = rng.standard_normal((order, order)) \
                + 1j * rng.standard_normal((order, order))
            A /= np.sqrt(order)
        elif kind == "banded":
            w = int(rng.integers(1, max(2, order // 4)))
            A = np.zeros((order, order), dtype=np.complex128)
            for k in range(-w, w + 1):
                diag = rng.standard_normal(order - abs(k)) \
                    + 1j * rng.standard_normal(order - abs(k))
                A += np.diag(diag, k)
        else:
            width = int(rng.integers(1, 4))
            coeffs = {}
            for j in range(-width, width + 1):
                coeffs[j] = complex(rng.standard_normal(), rng.standard_normal())
            A = build_toeplitz(toeplitz_spec(coeffs), order)
        items.append(CorpusItem(f"{kind}-{i:02d}-M{order}", kind,
                                np.asarray(A, dtype=np.complex128),
                                _partition_for(order, rng)))
    return items


@dataclass(frozen=True)
class VerifyRecord:
    matrix: str
    method: str
    n: int
    t: complex | None
    eps: float
    contained: bool
    margin: float


# absolute allowance of the verifier's level comparisons
_LEVEL_SLACK = 1e-12


def verify_containment(items, eps_values=(0.0, 0.1), t_values=(1, -1, 1j),
                       penalty_scale: float = 1.0,
                       max_n: int | None = None,
                       rng_seed: int = 7) -> list[VerifyRecord]:
    """Containment records for every (matrix, method, n, eps) combination.

    ``penalty_scale`` < 1 shrinks the inclusion levels (negative control:
    Theorem-guaranteed containment should then start to fail).  The sandwich
    side of the rectangular method is checked at the eigenvalues plus a few
    random probe points inside the inclusion set.  Each term's smin field at
    the eigenvalues does not depend on eps, so it is evaluated once per
    (matrix, n) and thresholded for every eps.
    """
    rng = np.random.default_rng(rng_seed)
    records = []
    for item in items:
        view = make_view(item.matrix, item.partition)
        lams = ps.eig(item.matrix)
        plan = [("tau", None)]
        if view.partition.uniform:
            plan += [("pi", t) for t in t_values]
        plan.append(("tau1", None))
        N = view.block_count
        for n in range(1, N if max_n is None else min(N, max_n + 1)):
            p = inc.penalty_params(view, n)
            families = [inc.family(view, m, n, t) for m, t in plan]
            cache: dict = {}
            fields = [[inc.min_field(terms, lams, cache=cache)
                       for terms in fam] for fam in families]
            for eps in eps_values:
                for (m, t), f in zip(plan, fields):
                    lvls = inc.levels(p, m, eps, penalty_scale)
                    contained = all(bool(np.all(v <= lvl + _LEVEL_SLACK))
                                    for v, lvl in zip(f, lvls))
                    records.append(VerifyRecord(
                        item.name, m, n, None if t is None else complex(t),
                        eps, contained, float(lvls[0] - f[0].max())))
                records.extend(_check_sandwich(
                    item, view, n, eps, p, lams, families[-1][0],
                    fields[-1][0], penalty_scale, rng))
    return records


def _check_sandwich(item, view, n, eps, p, lams, terms, field, scale, rng):
    """Sandwich record of the rectangular method: the eigenvalues and random
    probes inside its inclusion set must lie in the outer pseudospectrum."""
    level = inc.levels(p, "tau1", eps, scale)[0]
    probes = lams[field <= level + _LEVEL_SLACK]
    if not probes.size:
        return []
    box = np.abs(item.matrix).sum(axis=1).max() + eps
    extra = rng.uniform(-box, box, 8) + 1j * rng.uniform(-box, box, 8)
    inner = inc.min_field(terms, extra)
    probes = np.concatenate([probes, extra[inner <= level + _LEVEL_SLACK]])
    outer_level = inc.tau1_outer_level(p, eps, scale)
    outer_vals = ps.smin_grid(view.matrix, probes)
    ok = bool(np.all(outer_vals <= outer_level + _LEVEL_SLACK))
    return [VerifyRecord(item.name, "tau1-sandwich", n, None, eps, ok,
                         float(outer_level - outer_vals.max()))]
