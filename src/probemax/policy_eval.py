"""Analytic and Monte-Carlo evaluation of threshold stopping policies.

A threshold policy inspects its entries in order and accepts the first
sample at or above the threshold.  With p_i = P(entry_i >= threshold) and
c_i = E[entry_i | entry_i >= threshold], every statistic of interest has a
closed form thanks to independence:

    E[reward]   = sum_t prod_{j<t} (1 - p_j) * p_t * c_t
    E[B]        = sum_i p_i                  (B = number of entries >= threshold)
    P(B >= 1)   = sum_t prod_{j<t} (1 - p_j) * p_t = 1 - prod_i (1 - p_i)
    E[sum]      = sum_i p_i * c_i            (accept every qualifying sample)
    E[(B-1)^+]  = sum_i p_i * P(B_{<i} >= 1) (B_{<i} counts the entries before i)

One pass over the entries gives them all in O(k).  P(B_{<i} >= 1) is kept
as a running sum of non-negative terms, never as 1 - prod(1 - p_j): when
every p is tiny that difference cancels and loses about half the digits.
`bernoulli_count_pmf`, the exact O(k^2) pmf of B, is no longer on this path;
it stays as the reference the tests check these sums against.

The Monte-Carlo path exists to cross-check the analytic one.  It draws one
uniform per entry and trial from a single Philox stream keyed by the seed,
streams the trials in blocks of fixed size, one entry at a time, and keeps
only per-block sums, so its memory grows with neither the number of trials
nor that of entries.  Per entry and block it costs one Philox fill of a
reused buffer, the entry's draw and six branch-free passes; a discrete
draw adds one comparison pass per atom, up to a cutover above which it is
one binary search whatever the atom count.  The Philox fill is the largest
single cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .distributions import DiscreteFinite, Distribution
from .errors import ValidationError
from .minmax import check_subset

# Trials per simulation block.  The simulator holds a few arrays of this
# length (512 KB each), allocated once, and the draws' temporaries, whatever
# the number of trials or entries.
_BLOCK_TRIALS = 1 << 16


@dataclass(frozen=True)
class ThresholdPolicy:
    """An ordered list of variables inspected against a fixed threshold."""

    entries: tuple[Distribution, ...]
    threshold: float

    def __init__(self, entries: Sequence[Distribution], threshold: float) -> None:
        entries = tuple(entries)
        if not entries:
            raise ValidationError("policy needs at least one entry")
        threshold = float(threshold)
        if not math.isfinite(threshold) or threshold < 0.0:
            raise ValidationError(f"threshold {threshold!r} must be finite and non-negative")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "threshold", threshold)


@dataclass(frozen=True)
class PolicyStats:
    """Closed-form statistics of a threshold policy."""

    expected_reward: float
    expected_b: float
    prob_stop: float
    expected_sum: float
    expected_excess: float


class SimResult(NamedTuple):
    mean_reward: float
    mean_max: float
    stderr: float


def bernoulli_count_pmf(ps: Sequence[float]) -> list[float]:
    """Exact pmf of a sum of independent Bernoulli(p_i) by O(k^2) convolution.

    `evaluate` does not call it; it is the reference for E[(B-1)^+].
    """
    pmf = [1.0]
    for p in ps:
        q = 1.0 - p
        nxt = [0.0] * (len(pmf) + 1)
        for b, m in enumerate(pmf):
            nxt[b] += m * q
            nxt[b + 1] += m * p
        pmf = nxt
    return pmf


def evaluate(policy: ThresholdPolicy) -> PolicyStats:
    """All five policy statistics, computed in closed form (no sampling).

    One O(k) pass: `hit` is P(B_{<i} >= 1), summed as hit += p_i * miss,
    where miss is prod_{j<i} (1 - p_j): every term is non-negative, so it
    keeps its relative accuracy at any scale of p.  Each entry adds
    p_i * hit to E[(B-1)^+].  P(B >= 1) is `hit` while hit < 0.5 and
    1 - miss above, where miss <= 0.5 leaves that difference nothing to
    cancel; it never exceeds 1.  This pass replaces the O(k^2)
    `bernoulli_count_pmf`, which stays public as the exact reference the
    tests compare it with.
    """
    r = policy.threshold
    ps = [d.survival(r) for d in policy.entries]
    # p * c = E[X 1{X >= r}]; safe even when the tail is empty.
    pcs = [d.tail_moment_one(r) for d in policy.entries]
    reward_terms = []
    excess_terms = []
    miss = 1.0
    hit = 0.0
    for p, pc in zip(ps, pcs):
        reward_terms.append(miss * pc)
        excess_terms.append(p * hit)
        hit += p * miss
        miss *= 1.0 - p
    try:
        expected_sum = math.fsum(pcs)
    except OverflowError:
        raise ValidationError(
            "expected sum of the tail moments E[X 1{X >= threshold}] overflows; "
            "the variables' values exceed the floating-point range"
        ) from None
    return PolicyStats(
        expected_reward=math.fsum(reward_terms),
        expected_b=math.fsum(ps),
        prob_stop=hit if hit < 0.5 else 1.0 - miss,
        expected_sum=expected_sum,
        expected_excess=math.fsum(excess_terms),
    )


def simulate(policy: ThresholdPolicy, trials: int, seed: int) -> SimResult:
    """Monte-Carlo estimates of the expected reward and expected maximum.

    Trials run in blocks of _BLOCK_TRIALS.  Each block draws one column of
    uniforms per entry, in entry order, from one Philox stream keyed by the
    seed, so the result is deterministic per seed.  Only per-block sums of
    deviations from the first trial are kept.  They are taken at scale
    2**-e, with 2**e the power of two just above the largest entry mean, so
    that neither they nor their squares overflow or underflow; scaling by a
    power of two is exact.  stderr is the sample standard deviation of the
    per-trial reward divided by sqrt(trials).
    """
    for name, value in (("trials", trials), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValidationError(f"{name}={value!r} must be an integer")
    if trials < 1:
        raise ValidationError(f"trials={trials!r} must be at least 1")
    if not 0 <= seed < 2**128:
        raise ValidationError(f"seed {seed!r} must lie in [0, 2**128)")
    gen = np.random.Generator(np.random.Philox(key=seed))
    e = math.frexp(max(d.mean() for d in policy.entries))[1]
    threshold = policy.threshold
    size = min(trials, _BLOCK_TRIALS)
    uniforms, rewards, maxima = np.empty(size), np.empty(size), np.empty(size)
    waiting, hit = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    shift = None
    sums = []
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, trials, _BLOCK_TRIALS):
            m = min(_BLOCK_TRIALS, trials - start)
            u, reward, best, wait, accept = (
                buf[:m] for buf in (uniforms, rewards, maxima, waiting, hit)
            )
            reward.fill(0.0)
            best.fill(0.0)
            wait.fill(True)  # no entry accepted yet
            for d in policy.entries:
                x = d.draw(gen.random(m, out=u))
                np.maximum(best, x, out=best)
                np.greater_equal(x, threshold, out=accept)
                accept &= wait
                wait ^= accept
                # reward is +0.0, all bits clear, wherever wait held, and
                # accept is a subset of it: OR-ing in the bits of x where
                # accept holds stores x exactly, without a branch per trial.
                # The uniforms are spent, so their buffer holds those bits.
                pick = np.multiply(x.view(np.int64), accept, out=u.view(np.int64))
                np.bitwise_or(reward.view(np.int64), pick, out=reward.view(np.int64))
            np.ldexp(reward, -e, out=reward)
            np.ldexp(best, -e, out=best)
            if shift is None:
                # Deviations from the first trial are exactly zero when every
                # trial is the same, so the means are then exact and stderr 0.
                shift = reward[0], best[0]
            reward -= shift[0]
            best -= shift[1]
            reward_sum = reward.sum()
            sums.append((reward_sum, np.square(reward, out=reward).sum(), best.sum()))
        dev_sum, dev_sq, max_dev = (math.fsum(col) for col in zip(*sums))
        var = (dev_sq - dev_sum * dev_sum / trials) / max(trials - 1, 1)
        result = np.ldexp([shift[0] + dev_sum / trials, shift[1] + max_dev / trials,
                           math.sqrt(max(var, 0.0) / trials)], e)
    if not np.isfinite(result).all():
        raise ValidationError(
            "Monte-Carlo sums overflow; the variables' samples exceed the "
            "floating-point range"
        )
    return SimResult(*result.tolist())


def expected_max_exact_discrete(
    dists: Sequence[Distribution], subset: Iterable[int]
) -> float:
    """Exact E[max_{i in S} X_i] for finite discrete variables.

    Works on the merged support grid via P(M <= v) = prod_i P(X_i <= v).
    """
    idx = check_subset(subset, len(dists))
    for i in idx:
        if not isinstance(dists[i], DiscreteFinite):
            raise ValidationError(f"variable {i} is not finite discrete; exact E[max] unavailable")
    if not idx:
        raise ValidationError("empty subset")
    return _expected_maxima(dists, np.array([idx]))[0]


def _expected_maxima(dists: Sequence[DiscreteFinite], subsets: np.ndarray) -> list[float]:
    """Exact E[max] over each row of `subsets`, a 2-D array of ascending indices.

    The rows' CDFs are built on the grid of every value the block uses: each
    variable's cumulative sums, multiplied into its rows' products in index
    order.  A grid point outside a row's support adds 0.0, so the row's pmf
    terms are 0.0 there and elsewhere equal those on its own grid; one
    math.fsum, correctly rounded, then gives the bits the subset gets alone.
    Memory is a few arrays of the size of `subsets` times the grid.
    """
    used = set(subsets.ravel().tolist())
    grid = np.array(sorted({v for i in used for v in dists[i].values.tolist()}))
    cdf = np.ones((len(subsets), grid.size))
    for col in subsets.T:
        ids = sorted(set(col.tolist()))
        pmf = np.zeros((len(ids), grid.size))
        for row, i in enumerate(ids):
            pmf[row, np.searchsorted(grid, dists[i].values)] = dists[i].probs
        cdf *= np.cumsum(pmf, axis=1)[np.searchsorted(ids, col)]
    terms = np.diff(cdf, axis=1, prepend=0.0) * grid
    try:
        return [math.fsum(row.tolist()) for row in terms]  # one row's floats at a time
    except OverflowError:
        raise ValidationError("exact E[max] overflows the floating-point range") from None
