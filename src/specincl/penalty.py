"""Truncation penalties and the weight functionals behind them.

The three inclusion-set methods inflate the pseudospectral level of each
submatrix by a penalty: ``2 r sin(theta_n / 2) + ||C||`` for square
truncations (theta_n a transcendental root), ``2 r sin(pi/(2n)) + ||C||``
for periodised ones, ``2 r sin(pi/(2n+2)) + ||C||`` for rectangular ones.
The weight functionals let tests verify those closed forms as minima over
weight profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, DomainError

__all__ = [
    "PenaltyParams",
    "solve_theta",
    "eps_tau",
    "eps_pi",
    "eps_tau1",
    "as_weights",
    "functionals",
    "eta",
]


@dataclass(frozen=True)
class PenaltyParams:
    """Off-diagonal norms, remainder-norm bound, and the truncation size."""

    r_L: float
    r_U: float
    c_norm: float
    n: int

    def __post_init__(self):
        vals = (self.r_L, self.r_U, self.r, self.c_norm)
        if any(not math.isfinite(v) or v < 0 for v in vals):
            raise DomainError("penalty parameters must be finite and >= 0")
        if self.n < 1:
            raise DomainError("n must be a positive integer")

    @property
    def r(self) -> float:
        return self.r_L + self.r_U

    @classmethod
    def from_offdiag(cls, r_L: float, r_U: float, c_norm: float, n: int):
        return cls(float(r_L), float(r_U), float(c_norm), int(n))


def _theta_equation(t: float, n: int, q: float) -> float:
    return 2.0 * math.sin(t / 2.0) * math.cos((n + 0.5) * t) \
        + q * math.sin((n - 1) * t)


def bisect(f, lo: float, hi: float, flo: float | None = None) -> float:
    """A root of f on ``[lo, hi]``, where f changes sign: the midpoint of
    the bracket once it is narrower than 1e-15, or a point where f
    vanishes.  ``flo`` stands for f(lo), of which only the sign is read."""
    flo = f(lo) if flo is None else flo
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise DomainError("no sign change on bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or (hi - lo) < 1e-15:
            return mid
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def solve_theta(n: int, r_L: float, r_U: float) -> float:
    """Root angle of the square-truncation penalty.

    Solves ``f(t) = 2 sin(t/2) cos((n + 1/2) t) + q sin((n-1) t) = 0``,
    q = r_L r_U / r^2 <= 1/4, on the bracket ``[pi/(2n+1), pi/(n+2)]`` by
    bisection with a secant polish, to well under 1e-12 absolute.  The
    bracket holds a sign change for every n >= 2: f(pi/(2n+1)) = q sin((n-1)
    pi/(2n+1)) > 0, and f(pi/(n+2)) < 0 with a margin of a quarter, because
    sin(1.5 t) <= 3 sin(t/2).  Below q of about 1e-16 the computed
    f(pi/(2n+1)) can round to 0 or below; it is then taken as positive, and
    the bisection point, in (pi/(2n+1), pi/(2n+1) + 1e-15], is returned
    unpolished, at or above the root.  With one off-diagonal absent the
    product term vanishes and the root is the left endpoint exactly; n = 1
    collapses the bracket to pi/3.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if r_L < 0 or r_U < 0:
        raise DomainError("off-diagonal norms must be nonnegative")
    r = r_L + r_U
    if r == 0.0:
        raise DegenerateError("theta undefined when r = 0 (penalty is just ||C||)")
    if n == 1:
        return math.pi / 3.0
    if r_L == 0.0 or r_U == 0.0:
        return math.pi / (2 * n + 1)

    q = (r_L * r_U) / (r * r)
    first, last = math.pi / (2 * n + 1), math.pi / (n + 2)
    flo = _theta_equation(first, n, q)
    t = bisect(lambda t: _theta_equation(t, n, q), first, last,
               flo if flo > 0.0 else 1.0)
    if flo <= 0.0:
        # rounding hid the sign at the left end, and so it hides the root,
        # which lies closer to it than the bisection point
        return t
    # secant polish squeezes the last bits out of the bisection point; it
    # never steps back to the left end, which lies below the root
    t0, t1 = t, t + 1e-15
    f0, f1 = _theta_equation(t0, n, q), _theta_equation(t1, n, q)
    for _ in range(4):
        if f1 == f0:
            break
        t2 = t1 - f1 * (t1 - t0) / (f1 - f0)
        if not (first < t2 <= last):
            break
        t0, f0, t1, f1 = t1, f1, t2, _theta_equation(t2, n, q)
        t = t2
    return t


def eps_tau(params: PenaltyParams) -> float:
    """Square-truncation penalty ``2 r sin(theta_n/2) + ||C||``."""
    if params.r == 0.0:
        return params.c_norm
    theta = solve_theta(params.n, params.r_L, params.r_U)
    return 2.0 * params.r * math.sin(theta / 2.0) + params.c_norm


def eps_pi(params: PenaltyParams) -> float:
    """Periodised-truncation penalty ``2 r sin(pi/(2n)) + ||C||``."""
    return 2.0 * params.r * math.sin(math.pi / (2 * params.n)) + params.c_norm


def eps_tau1(params: PenaltyParams) -> float:
    """Rectangular-truncation penalty ``2 r sin(pi/(2n+2)) + ||C||``."""
    return 2.0 * params.r * math.sin(math.pi / (2 * params.n + 2)) + params.c_norm


def as_weights(w) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64).ravel()
    if w.size == 0 or not np.any(w):
        raise DomainError("weight vector must have a nonzero component")
    if not np.all(np.isfinite(w)):
        raise DomainError("weights must be finite")
    return w


def functionals(w) -> tuple[float, float, float, float, float]:
    """The five weight functionals (S, T-, T+, Tper, T), with the convention
    that the weights are padded by zeros at both ends."""
    w = as_weights(w)
    n = w.size
    ext = np.zeros(n + 2)
    ext[1:n + 1] = w
    S = float(np.sum(w * w))
    T_minus = float(np.sum((ext[0:n] - ext[1:n + 1]) ** 2))
    T_plus = float(np.sum((ext[2:n + 2] - ext[1:n + 1]) ** 2))
    diffs = float(np.sum((w[1:] - w[:-1]) ** 2))
    T_per = float((w[0] + w[-1]) ** 2) + diffs
    T = float(w[0] ** 2 + w[-1] ** 2) + diffs
    return S, T_minus, T_plus, T_per, T


def eta(w, r_L: float, r_U: float, variant: str) -> float:
    """Penalty functional of a weight profile for one truncation flavour."""
    S, T_minus, T_plus, T_per, T = functionals(w)
    r = r_L + r_U
    if variant == "tau":
        return r_L * math.sqrt(T_minus / S) + r_U * math.sqrt(T_plus / S)
    if variant == "pi":
        return r * math.sqrt(T_per / S)
    if variant == "tau1":
        return r * math.sqrt(T / S)
    raise DomainError(f"unknown eta variant {variant!r}")
