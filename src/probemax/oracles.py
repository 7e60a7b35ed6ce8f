"""Brute-force ground truth for desk-scale instances.

The adaptive optimum is an exact DP over (probed set M, best value r), one
level |M| at a time on the grid of 0 and the positive atoms.  A policy only
reaches states whose r is 0 or an atom of a member of M and at least every
member's lowest atom, so the DP fills those alone, in blocks of states; the
last probe reads one table C[i, r] = E[max(r, X_i)] for every M.  The static
optimum enumerates every size-k subset and scores each one exactly, a block
of subsets at a time.
"""

from __future__ import annotations

import math
from itertools import combinations, islice

import numpy as np

from .distributions import _DISCRETE, DiscreteFinite
from .errors import InstanceTooLarge, ValidationError
from .minmax import Instance
from .policy_eval import _expected_maxima

MAX_DP_STATES = 5_000_000
MAX_ENUM_SUBSETS = 100_000

# Subsets times grid points per enumeration block: each of the block's arrays
# stays within 512 KB, whatever the number of subsets.
_BLOCK_CELLS = 1 << 16


def _require_discrete(inst: Instance) -> tuple[DiscreteFinite, ...]:
    others = np.flatnonzero(inst._packed.kind != _DISCRETE)
    if others.size:
        raise ValidationError(f"variable {others[0]} is not finite discrete")
    return inst.dists


def _two_sum(a, b):
    """a + b rounded, and its exact rounding error (Knuth's TwoSum)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite column goes to math.fsum
def _fsum_columns(terms: np.ndarray) -> np.ndarray:
    """math.fsum down each column of `terms`, bit for bit.

    Two TwoSum chains, the second over the first one's errors, leave the
    exact sum as s + c plus the second chain's errors (Ogita, Rump and Oishi,
    SISC 2005).  One rounding of s + c is fsum's result if those are all 0,
    or if its residual plus a bound on them is below half the gap under it.
    Other columns, non-finite ones too, go to math.fsum.
    """
    s, c, lost = terms[0], 0.0, 0.0
    for t in terms[1:]:
        s, e = _two_sum(s, t)
        c, e = _two_sum(c, e)
        lost = lost + np.abs(e)
    y, d = _two_sum(s, c)
    gap = np.abs(y) - np.nextafter(np.abs(y), 0.0)
    bound = lost * (1.0 + len(terms) * 2.0 ** -52)  # covers the rounding of lost's sum
    ok = np.isfinite(y) & ((lost == 0.0) | (np.abs(d) + bound < 0.5 * gap))
    for col in np.flatnonzero(~ok).tolist():
        y[col] = math.fsum(terms[:, col].tolist())
    return y


def adaptive_optimum_dp(inst: Instance) -> float:
    """Exact expected maximum of an optimal adaptive probing policy.

    A state (M, r) has k - |M| probes left; its value is the larger of r and
    the best over unprobed i of the expected value of (M + i, max(r, X_i)).
    The table V[M, r] fills from level k - 1 down to 0 over the reachable
    states (module docstring); level k - 1 reads C, and the others sum
    p_ia * V[M + i, max(r, v_ia)] over i's atoms with math.fsum's bits.
    """
    _require_discrete(inst)
    rows, n, k = inst._packed.batches[_DISCRETE], inst.n, inst.k
    state_bound = (k + 1) * (2 ** n) * (1 + rows.values.size)
    if state_bound > MAX_DP_STATES:
        raise InstanceTooLarge(f"state bound {state_bound} exceeds budget {MAX_DP_STATES}")
    # Equal atoms share the first of their grid points; the others stay unreached.
    grid = np.sort(np.append(rows.values[rows.values > 0.0], 0.0))
    g, col, width = grid.size, np.arange(grid.size), int(rows.sizes.max())
    at = np.searchsorted(grid, rows.values)  # each atom's grid index; 0 for a zero
    owner, lowest = np.repeat(np.arange(n), rows.sizes), at[rows._starts]
    # (slot, variable) tables; a padding slot adds probability 0 times a finite value.
    prob, where = np.zeros((width, n)), np.zeros((width, n), dtype=np.intp)
    slot = (np.arange(owner.size) - rows._starts[owner], owner)
    prob[slot], where[slot] = rows.probs, at
    holders = np.zeros(g, dtype=np.int64)  # the variables with an atom at each grid point
    np.bitwise_or.at(holders, at, np.left_shift(1, owner))
    size, low = np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp)
    for i in range(n):  # |M| and M's largest lowest-atom index, for every M < 2^(i+1)
        size, low = np.append(size, size + 1), np.append(low, np.maximum(low, lowest[i]))
    rank, last, table = np.zeros(size.size, dtype=np.intp), None, None
    for level in reversed(range(k)):
        masks = np.flatnonzero(size == level)
        rank[masks] = np.arange(masks.size)
        free = np.nonzero(~(masks[:, None] >> np.arange(n)) & 1)[1].reshape(masks.size, -1)
        reach = (((masks[:, None] & holders) != 0) | (col == 0)) & (col >= low[masks, None])
        if last is None:  # C at every r that a state of the last level holds
            last, cols = np.zeros((n, g)), np.flatnonzero(reach.any(axis=0))
            step = max(1, _BLOCK_CELLS // (width * n))
            for block in (cols[start:start + step] for start in range(0, cols.size, step)):
                terms = prob[:, :, None] * grid[np.maximum(where[:, :, None], block)]
                last[:, block] = _fsum_columns(terms.reshape(width, -1)).reshape(n, -1)
        else:
            child = rank[masks[:, None] | (1 << free)]
        after, table, states = table, np.zeros(reach.size), np.flatnonzero(reach)
        step = max(1, _BLOCK_CELLS // (width * free.shape[1]))
        for block in (states[start:start + step] for start in range(0, states.size, step)):
            row, r = np.divmod(block, g)
            members = free[row].T
            if level == k - 1:
                best = last[members, r]
            else:
                index = child[row].T * g + np.maximum(r, where[:, members])
                terms = prob[:, members] * after[index]
                best = _fsum_columns(terms.reshape(width, -1)).reshape(members.shape)
            table[block] = np.maximum(grid[r], best.max(axis=0))
    return float(table[0])


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
