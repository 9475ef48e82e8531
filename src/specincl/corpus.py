"""Seeded matrix corpus and containment verification harness.

The verifier draws random dense, banded, and Toeplitz matrices, assigns each
a block partition, and checks that every eigenvalue lies in each method's
inclusion set (pointwise membership, which is sharper than any grid).  The
rectangular method's sandwich bound is checked at the eigenvalues and at
random probe points.  Each matrix is verified in one batched pass over
every n, one ``ps.TermFields`` over every term of every n, in at most five
kernel calls: two at the eigenvalues, two at the probes and one sweep of the
full matrix.  A record reads a term only through its largest value and its
comparisons with a level, so ``TermFields.bounded`` evaluates a
(contribution, point) pair only where it can change one of them: on the
benchmark's seed-1 corpus (11 matrices of order 12) that is 17,404 SVDs at
the eigenvalues and probes instead of 53,356.  An adversarial mode
rescales the penalties to confirm that the harness actually detects
violations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import inclusion as inc
from . import pseudospec as ps
from .errors import DomainError
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
    random probe points inside the inclusion set.  The items are verified
    one at a time, each in one batched pass: see ``_item_records``.
    """
    rng = np.random.default_rng(rng_seed)
    records = []
    for item in items:
        records.extend(_item_records(item, eps_values, t_values,
                                     penalty_scale, max_n, rng))
    return records


def _item_records(item, eps_values, t_values, scale, max_n, rng):
    """Records of one corpus item, in (n, eps) order: tau, pi per t, tau1,
    then the sandwich record when some eigenvalue lies in the tau1 set.

    The term fields at the eigenvalues depend neither on n's penalty nor on
    eps, so one ``ps.TermFields`` holds every content-distinct contribution
    of every n (the tau edge truncations at n are the main ones at a
    smaller n).  The levels of each n are computed once, at eps = 0, and
    shifted by each eps (``0.0 + y == y``, so the floats are those of
    ``levels(p, m, eps)``).  A record reads a term only through its largest
    value and through comparisons with a level, at the least eps or above,
    so ``TermFields.bounded`` gives the fields at the eigenvalues in two
    kernel calls: it skips a (contribution, eigenvalue) pair wherever the
    term's least value found there is already at or below both an exact
    value of the term and its level at the least eps.

    The probes are drawn in the (n, eps) order of the records, each draw
    made only when an eigenvalue lies in the tau1 set, so the random stream
    does not depend on the probe values.  Two more ``bounded`` kernel calls
    then decide which probes of every n lie in the tau1 set.  One sweep of
    the full matrix serves every sandwich record.
    """
    A = item.matrix
    view = make_view(A, item.partition)
    lams = ps.eig(A)
    plan = [("tau", None)]
    if view.partition.uniform:
        plan += [("pi", t) for t in t_values]
    plan.append(("tau1", None))
    N = view.block_count
    ns = range(1, N if max_n is None else min(N, max_n + 1))
    params = {n: inc.penalty_params(view, n) for n in ns}
    base = {n: {m: inc.levels(params[n], m, 0.0, scale) for m, _ in plan}
            for n in ns}
    families = {n: [inc.family(view, m, n, t) for m, t in plan] for n in ns}
    # every term of every n in this order, with its level at the least eps
    low = min(eps_values, default=0.0)
    terms, lows, tau1_row = [], [], {}
    for n in ns:
        for (m, _), fam in zip(plan, families[n]):
            terms += fam
            lows += [low + lvl + _LEVEL_SLACK for lvl in base[n][m]]
        tau1_row[n] = len(terms) - 1
    fields = ps.TermFields(terms)
    at_lams = iter(fields.bounded(lams, lows))
    row_sum = float(np.abs(A).sum(axis=1).max())

    records, draws = [], []
    for n in ns:
        f_n = [[next(at_lams) for _ in fam] for fam in families[n]]
        for eps in eps_values:
            for (m, t), f in zip(plan, f_n):
                lvls = [eps + lvl for lvl in base[n][m]]
                contained = all(bool(np.all(v <= lvl + _LEVEL_SLACK))
                                for v, lvl in zip(f, lvls))
                records.append(VerifyRecord(
                    item.name, m, n, None if t is None else complex(t),
                    eps, contained, float(lvls[0] - f[0].max())))
            level = eps + base[n]["tau1"][0]
            inside = f_n[-1][0] <= level + _LEVEL_SLACK
            if inside.any():
                box = row_sum + eps
                if not math.isfinite(2.0 * box):
                    raise DomainError(f"eps {eps!r} overflows the probe box "
                                      "of the tau1 sandwich check")
                extra = (rng.uniform(-box, box, 8)
                         + 1j * rng.uniform(-box, box, 8))
                draws.append((len(records), n, eps, level, inside, extra))
                records.append(None)  # the sandwich record, made below
    if not draws:
        return records
    extras = np.concatenate([d[-1] for d in draws])
    spans = np.split(np.arange(extras.size), len(draws))
    want = np.zeros((len(terms), extras.size), dtype=bool)
    cut = np.zeros(want.shape)
    for (_, n, _, level, _, _), cols in zip(draws, spans):
        want[tau1_row[n], cols] = True
        cut[tau1_row[n], cols] = level + _LEVEL_SLACK
    inner = fields.bounded(extras, cut, want)
    sandwiches, probes = [], [lams]
    for (at, n, eps, level, inside, extra), cols in zip(draws, spans):
        extra = extra[inner[tau1_row[n], cols] <= level + _LEVEL_SLACK]
        sandwiches.append((at, n, eps, inside, len(extra),
                           eps + inc.tau1_outer_level(params[n], 0.0, scale)))
        probes.append(extra)
    outer = ps.smin_grid(view.matrix, np.concatenate(probes))
    at_lams, outer = outer[:lams.size], outer[lams.size:]
    for at, n, eps, inside, count, outer_level in sandwiches:
        vals = np.concatenate([at_lams[inside], outer[:count]])
        outer = outer[count:]
        ok = bool(np.all(vals <= outer_level + _LEVEL_SLACK))
        records[at] = VerifyRecord(item.name, "tau1-sandwich", n, None,
                                   eps, ok, float(outer_level - vals.max()))
    return records

