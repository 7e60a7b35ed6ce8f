"""Brute-force ground truth for desk-scale instances.

The adaptive optimum comes from the exact dynamic program over states
(best value seen, unprobed set); the remaining budget follows from the
unprobed set, and the best-seen coordinate only ever equals 0 or a realized
support value, so the state space is finite for discrete instances with no
discretization error.  The static optimum enumerates every size-k subset of
a discrete instance and scores each one exactly, a block of subsets at a time.
"""

from __future__ import annotations

import math
from itertools import combinations, islice

import numpy as np

from .distributions import DiscreteFinite
from .errors import InstanceTooLarge, ValidationError
from .minmax import Instance
from .policy_eval import _expected_maxima

MAX_DP_STATES = 5_000_000
MAX_ENUM_SUBSETS = 100_000

# Subsets times grid points per enumeration block: each of the block's arrays
# stays within 512 KB, whatever the number of subsets.
_BLOCK_CELLS = 1 << 16


def _require_discrete(inst: Instance) -> tuple[DiscreteFinite, ...]:
    for i, d in enumerate(inst.dists):
        if not isinstance(d, DiscreteFinite):
            raise ValidationError(f"variable {i} is not finite discrete")
    return inst.dists


def adaptive_optimum_dp(inst: Instance) -> float:
    """Exact expected maximum of an optimal adaptive probing policy.

    Memoized over (best value, unprobed bitmask); the remaining budget is k
    minus the number of probed variables, so the mask fixes it.  The value
    of a state is the best over unprobed variables of the expected value
    after sampling that variable and keeping the better reward.  With one
    probe left that value is E[max(r, X_i)], whatever else is unprobed, so it
    is cached per (variable, best value) and the last level does not recurse.
    """
    members = _require_discrete(inst)
    grid_size = 1 + sum(len(d.values) for d in members)
    state_bound = (inst.k + 1) * (2 ** inst.n) * grid_size
    if state_bound > MAX_DP_STATES:
        raise InstanceTooLarge(f"state bound {state_bound} exceeds budget {MAX_DP_STATES}")
    supports = [
        (i, 1 << i, list(zip(d.values.tolist(), d.probs.tolist())))
        for i, d in enumerate(members)
    ]
    memo: dict[tuple[float, int], float] = {}
    last: dict[tuple[int, float], float] = {}

    def best(kappa: int, r: float, mask: int) -> float:
        # kappa <= popcount(mask) in every state, so no base case is needed.
        # `v if v > r else r` is max(r, v), written out for speed.
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
        # `best` refers to itself, so without this only the cyclic garbage
        # collector would free the caches, and the peak memory would depend on
        # when that collector runs.
        memo.clear()
        last.clear()


def static_optimum_enum(inst: Instance) -> tuple[float, tuple[int, ...]]:
    """Best size-k subset of a discrete instance by exhaustive enumeration.

    Every subset is scored by its exact expected maximum, as
    `expected_max_exact_discrete` scores it; ties keep the lexicographically
    first witness.
    """
    members = _require_discrete(inst)
    total = math.comb(inst.n, inst.k)
    if total > MAX_ENUM_SUBSETS:
        raise InstanceTooLarge(f"{total} subsets exceed budget {MAX_ENUM_SUBSETS}")
    grid_size = len({v for d in members for v in d.values.tolist()})
    subsets = combinations(range(inst.n), inst.k)
    best_value, best_subset = -math.inf, None
    while block := list(islice(subsets, max(1, _BLOCK_CELLS // grid_size))):
        for subset, value in zip(block, _expected_maxima(members, np.array(block))):
            if value > best_value:
                best_value, best_subset = value, subset
    return best_value, best_subset
