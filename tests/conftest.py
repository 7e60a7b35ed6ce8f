"""Shared builders for seeded random test instances, and references: H(r, S),
the plain golden-section search, the plain rho bisection, the psi* and
policy builds over Python sets and scalar oracles, the recursive adaptive
DP, and a two-way mixture entry."""

import math
from typing import Iterable

import numpy as np

from probemax import Instance, ValidationError
from probemax.gap2 import tie_class_at
from probemax.gap_continuous import (
    _SNAP, CONT_TIE_TOL, TOL_PSI, PsiSolution, _require_continuous)
from probemax.instance_io import gen_instance
from probemax.minmax import INV_PHI, RHO_TOL_SCALE, BoundResult, h_max
from probemax.policy_eval import ThresholdPolicy


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


def rho_reference(inst: Instance, subset: Iterable[int]) -> float:
    """rho as a plain bisection: every member's G at every midpoint."""
    idx = inst.subset(subset)
    packed = inst._packed.take(np.array(idx, dtype=np.intp))
    mu_sum = math.fsum(packed.mean().tolist())
    if mu_sum <= 0.0:
        raise ValidationError("subset with zero total mean has root 0 and no guarantee")
    lo, hi = 0.0, mu_sum
    while hi - lo > RHO_TOL_SCALE * mu_sum:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if math.fsum(packed.g_value(mid).tolist()) > mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def psi_star_reference(inst: Instance, r_star: float) -> PsiSolution:
    """compute_psi_star over the TieClass tuples and Python sets; the
    columnar build must give every field."""
    _require_continuous(inst)
    tc = tie_class_at(inst, r_star, tol=CONT_TIE_TOL)
    surv = inst._packed.survival(r_star)
    s_minus, s_plus = tc.fill(-surv), tc.fill(surv)
    shared = set(s_minus) & set(s_plus)
    d = len(s_minus) - len(shared)
    if d > 1:
        def by_survival(members):
            members = np.array(sorted(members), dtype=np.intp)
            return members[np.argsort(surv[members], kind="stable")]

        row = np.concatenate((by_survival(set(s_minus) - shared),
                              by_survival(set(s_plus) - shared))).tolist()
        lo, hi = -1, d + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if math.fsum(surv[list(shared) + row[mid:mid + d]].tolist()) <= 1.0:
                lo = mid
            else:
                hi = mid
        lo = min(max(lo, 0), d - 1)
        s_minus, s_plus = (tuple(sorted(shared.union(row[j:j + d]))) for j in (lo, lo + 1))
    p_minus = math.fsum(surv[list(s_minus)].tolist())
    p_plus = math.fsum(surv[list(s_plus)].tolist())
    alpha = 1.0 if p_plus == p_minus else min(max((1.0 - p_minus) / (p_plus - p_minus), 0.0), 1.0)
    alpha = 0.0 if alpha <= _SNAP else 1.0 if alpha >= 1.0 - _SNAP else alpha
    if abs(alpha * p_plus + (1.0 - alpha) * p_minus - 1.0) > TOL_PSI:
        raise ValidationError(
            f"survival sums {p_minus!r} and {p_plus!r} do not straddle 1 "
            f"within {TOL_PSI}; r_star={r_star!r} is too far from a minimizer")
    psi = [0.0] * inst.n
    plus = set(s_plus)
    for i in s_plus:
        psi[i] = alpha
    for i in s_minus:
        psi[i] = 1.0 if i in plus else 1.0 - alpha
    frac_pair = None
    if 0.0 < alpha < 1.0 and s_plus != s_minus:
        (ell,), (m,) = plus - set(s_minus), set(s_minus) - plus
        frac_pair = (ell, m)
    return PsiSolution(r_star=float(r_star), s_minus=s_minus, s_plus=s_plus, alpha=alpha,
                       frac_pair=frac_pair, psi=tuple(psi))


def build_policy_reference(inst: Instance, sol: PsiSolution):
    """build_policy over scalar oracle calls and a Python sort of (key, label)."""
    r = sol.r_star
    slots = []  # (survival, tail moment, label, the slot's index in each branch)
    for i, w in enumerate(sol.psi):
        if w == 1.0:
            d = inst.dists[i]
            slots.append((d.survival(r), d.tail_moment_one(r), i, (i, i)))
    if sol.frac_pair is not None:
        ell, m = sol.frac_pair
        w, left, right = sol.psi[ell], inst.dists[ell], inst.dists[m]
        surv = w * left.survival(r) + (1.0 - w) * right.survival(r)
        tail = w * left.tail_moment_one(r) + (1.0 - w) * right.tail_moment_one(r)
        slots.append((surv, tail, min(ell, m), (ell, m)))
    slots.sort(key=lambda s: (-(s[1] / s[0]) if s[0] > 0.0 else -0.0, s[2]))
    orders = [tuple(s[3][b] for s in slots) for b in range(1 if sol.frac_pair is None else 2)]
    return tuple((ThresholdPolicy([inst.dists[i] for i in order], r), order) for order in orders)


def adaptive_dp_reference(inst: Instance) -> float:
    """adaptive_optimum_dp as a recursion memoized over (best value, unprobed mask).

    One math.fsum per (state, variable); with one probe left, E[max(r, X_i)]
    is cached per (variable, best value).  The level-wise DP must return its
    bits.
    """
    supports = [(i, 1 << i, list(zip(d.values.tolist(), d.probs.tolist())))
                for i, d in enumerate(inst.dists)]
    memo: dict[tuple[float, int], float] = {}
    last: dict[tuple[int, float], float] = {}

    def best(kappa: int, r: float, mask: int) -> float:
        # kappa <= popcount(mask) in every state, so no base case is needed.
        value = r
        for i, bit, support in supports:
            if not mask & bit:
                continue
            if kappa == 1:
                exp = last.get((i, r))
                if exp is None:
                    exp = last[i, r] = math.fsum([p * (v if v > r else r) for v, p in support])
            else:
                nxt = mask ^ bit
                terms = []
                for v, p in support:
                    top = v if v > r else r
                    after = memo.get((top, nxt))
                    if after is None:
                        after = memo[top, nxt] = best(kappa - 1, top, nxt)
                    terms.append(p * after)
                exp = math.fsum(terms)
            if exp > value:
                value = exp
        return value

    try:
        return best(inst.k, 0.0, (1 << inst.n) - 1)
    finally:
        # `best` refers to itself; clearing the caches frees them without the
        # cyclic collector, so a traced peak does not depend on when it runs.
        memo.clear()
        last.clear()


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
