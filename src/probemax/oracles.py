"""Brute-force ground truth for desk-scale instances.

The adaptive optimum comes from the exact dynamic program over states
(remaining probes, best value seen, unprobed set); the best-seen coordinate
only ever equals 0 or a realized support value, so the state space is finite
for discrete instances with no discretization error.  The static optimum
enumerates every size-k subset of a discrete instance and scores each one
exactly.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable

from .distributions import DiscreteFinite
from .errors import InstanceTooLarge, NotDiscrete
from .minmax import Instance
from .policy_eval import expected_max_exact_discrete

MAX_DP_STATES = 5_000_000
MAX_ENUM_SUBSETS = 100_000


def _require_discrete(inst: Instance) -> list[DiscreteFinite]:
    members = []
    for i, d in enumerate(inst.dists):
        if not isinstance(d, DiscreteFinite):
            raise NotDiscrete(f"variable {i} is not finite discrete")
        members.append(d)
    return members


def adaptive_optimum_dp(inst: Instance, max_states: int = MAX_DP_STATES) -> float:
    """Exact expected maximum of an optimal adaptive probing policy.

    Memoized over (remaining probes, best value, unprobed bitmask); the value
    of a state is the best over unprobed variables of the expected value
    after sampling that variable and keeping the better reward.
    """
    members = _require_discrete(inst)
    grid_size = 1 + sum(len(d.values) for d in members)
    state_bound = (inst.k + 1) * (2 ** inst.n) * grid_size
    if state_bound > max_states:
        raise InstanceTooLarge(
            f"state bound {state_bound} exceeds budget {max_states}"
        )
    supports = [list(zip(d.values.tolist(), d.probs.tolist())) for d in members]
    memo: dict[tuple[int, float, int], float] = {}

    def best(kappa: int, r: float, mask: int) -> float:
        if kappa == 0 or mask == 0:
            return r
        key = (kappa, r, mask)
        cached = memo.get(key)
        if cached is not None:
            return cached
        value = r
        for i in range(inst.n):
            bit = 1 << i
            if not mask & bit:
                continue
            nxt = mask ^ bit
            exp = math.fsum(
                p * best(kappa - 1, max(r, v), nxt) for v, p in supports[i]
            )
            if exp > value:
                value = exp
        memo[key] = value
        return value

    value = best(inst.k, 0.0, (1 << inst.n) - 1)
    # `best` refers to itself, so without this only the cyclic garbage
    # collector would free the memo, and its peak memory would depend on when
    # that collector runs.
    memo.clear()
    return value


def static_optimum_enum(
    inst: Instance, max_subsets: int = MAX_ENUM_SUBSETS
) -> tuple[float, tuple[int, ...]]:
    """Best size-k subset of a discrete instance by exhaustive enumeration.

    Every subset is scored by its exact expected maximum; ties keep the
    lexicographically first witness.
    """
    _require_discrete(inst)
    total = math.comb(inst.n, inst.k)
    if total > max_subsets:
        raise InstanceTooLarge(f"{total} subsets exceed budget {max_subsets}")
    best_value, best_subset = -math.inf, None
    for subset in combinations(range(inst.n), inst.k):
        value = expected_max_exact_discrete(inst.dists, subset)
        if value > best_value:
            best_value, best_subset = value, subset
    return best_value, tuple(best_subset)
