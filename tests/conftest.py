"""Shared builders for seeded random test instances, and references: H(r, S),
the plain golden-section search and a two-way mixture entry."""

import math
from typing import Iterable

import numpy as np

from probemax import Instance
from probemax.instance_io import gen_instance
from probemax.minmax import INV_PHI, BoundResult, h_max


def random_discrete_instance(seed: int, n_lo: int = 2, n_hi: int = 6) -> Instance:
    """Discrete instance with seeded size n in [n_lo, n_hi] and k in [1, n]."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_lo, n_hi + 1))
    k = int(rng.integers(1, n + 1))
    return gen_instance(n, k, "discrete", seed)


def random_continuous_instance(seed: int, n_lo: int = 3, n_hi: int = 8) -> Instance:
    """Mixed uniform/exponential instance with seeded n and k."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_lo, n_hi + 1))
    k = int(rng.integers(1, n + 1))
    return gen_instance(n, k, "mixed", seed)


def h_value(inst: Instance, r: float, subset: Iterable[int]) -> float:
    """H(r, S) = r + sum_{i in S} E[(X_i - r)^+], the reference for h_max.

    fsum over the same tail moments as h_max, so on a maximizing set the two
    agree bit for bit.
    """
    idx = inst.subset(subset)
    return r + math.fsum(inst.dists[i].g_value(r) for i in idx)


def golden_section_reference(inst: Instance, xi: float) -> BoundResult:
    """minimize_hmax without pruning: every search point is a full h_max.

    The reference for the pruned search, which must return the same
    BoundResult bit for bit.
    """
    lo, hi = 0.0, inst.n * inst.mu_max
    iterations = 0
    if hi - lo > xi:
        c = hi - INV_PHI * (hi - lo)
        d = lo + INV_PHI * (hi - lo)
        fc = h_max(inst, c)
        fd = h_max(inst, d)
        while hi - lo > xi:
            width = hi - lo
            if fc < fd:
                hi, d, fd = d, c, fc
                c = hi - INV_PHI * (hi - lo)
                fc = h_max(inst, c)
            else:
                lo, c, fc = c, d, fd
                d = lo + INV_PHI * (hi - lo)
                fd = h_max(inst, d)
            iterations += 1
            if hi - lo >= width:
                break
    r_hat = 0.5 * (lo + hi)
    return BoundResult(r_minus=lo, r_plus=hi, r_hat=r_hat, u_star=h_max(inst, r_hat),
                       xi=float(xi), iterations=iterations)


class TwoWay:
    """X = left with probability w, else right, as one policy entry.

    It has the two oracles `evaluate` reads, each the w-mix of the
    branches' values; it is the reference for the randomized policy of a
    fractional pair.
    """

    def __init__(self, w: float, left, right) -> None:
        self.w, self.left, self.right = w, left, right

    def survival(self, r: float) -> float:
        return self.w * self.left.survival(r) + (1.0 - self.w) * self.right.survival(r)

    def tail_moment_one(self, r: float) -> float:
        return (self.w * self.left.tail_moment_one(r)
                + (1.0 - self.w) * self.right.tail_moment_one(r))
