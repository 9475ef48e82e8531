"""Verifier power audit: a catalogue of defects injected into the inclusion
sets, and the violations ``verify_containment`` finds on the README corpus
(seed 1, 20 matrices of orders 6-16, eps 0 and 0.1: 1,332 checks).

Each defect replaces ``inclusion.penalty_params``, ``inclusion.levels`` or
``inclusion.family``, which the corpus calls through the module.  The clean
run must find no violation and the two gross defects some; the counts of
the others are recorded in CHANGES.md, not pinned: a defect the verifier
misses may still leave a correct set.  ``python tests/test_mutations.py``
prints the table.
"""

from collections import Counter

import pytest

from specincl import inclusion as inc
from specincl.corpus import build_corpus, verify_containment
from specincl.matrixcore import submatrix_tau
from specincl.penalty import PenaltyParams

_penalty_params, _levels, _family = inc.penalty_params, inc.levels, inc.family


def scaled_penalties(s):
    # every penalty, the sandwich level too, is linear in (r_L, r_U, ||C||)
    def penalty_params(view, n):
        p = _penalty_params(view, n)
        return PenaltyParams.from_offdiag(s * p.r_L, s * p.r_U, s * p.c_norm,
                                          n)
    return {"penalty_params": penalty_params}


def without_c_norm(view, n):
    p = _penalty_params(view, n)
    return PenaltyParams.from_offdiag(p.r_L, p.r_U, 0.0, n)


def sigma_hat_at_eps_n(p, method, eps, scale=1.0):
    out = _levels(p, method, eps, scale)
    return out[:1] * len(out) if method == "tau" else out


def square_truncations(kind):
    # the kind's truncations replaced by the square ones at the same level
    def family(view, method, n, t=None):
        if method != kind:
            return _family(view, method, n, t)
        return [[((kind, n, k), submatrix_tau(view, n, k), None)
                 for k in range(view.block_count - n + 1)]]
    return {"family": family}


def tau_without_edges(view, method, n, t=None):
    terms = _family(view, method, n, t)
    if method == "tau":
        terms[0] = [c for c in terms[0] if c[0][1] == n]
    return terms


DEFECTS = {
    "none": {},
    "penalties-x0.9": scaled_penalties(0.9),
    "penalties-x0.75": scaled_penalties(0.75),
    "penalties-x0.5": scaled_penalties(0.5),
    "c-norm-dropped": {"penalty_params": without_c_norm},
    "tau-without-edges": {"family": tau_without_edges},
    "sigma-hat-at-eps-n": {"levels": sigma_hat_at_eps_n},
    "pi-without-corners": square_truncations("pi"),
    "tau1-cut-to-square": square_truncations("tau1"),
}
CAUGHT = ("penalties-x0.5", "c-norm-dropped")


def violations(install, defect):
    """Violations by record method with ``defect`` installed by
    ``install(inc, name, fn)``, on the README corpus."""
    for name, fn in DEFECTS[defect].items():
        install(inc, name, fn)
    records = verify_containment(
        build_corpus(seed=1, count=20, orders=(6, 16)), eps_values=(0.0, 0.1))
    assert len(records) == 1332
    return Counter(r.method for r in records if not r.contained)


@pytest.mark.parametrize("defect", DEFECTS)
def test_injected_defect(monkeypatch, defect):
    found = sum(violations(monkeypatch.setattr, defect).values())
    if defect == "none":
        assert found == 0
    elif defect in CAUGHT:
        assert found > 0


if __name__ == "__main__":
    for defect in DEFECTS:
        try:
            counts = violations(setattr, defect)
        finally:
            inc.penalty_params, inc.levels, inc.family = (
                _penalty_params, _levels, _family)
        print(f"{defect:20s} {sum(counts.values()):4d} {dict(counts)}")
