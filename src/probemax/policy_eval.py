"""Analytic and Monte-Carlo evaluation of threshold stopping policies.

A threshold policy inspects its entries in order and accepts the first
sample at or above the threshold.  With p_i = P(entry_i >= threshold) and
c_i = E[entry_i | entry_i >= threshold], every statistic of interest has a
closed form thanks to independence:

    E[reward]   = sum_t prod_{j<t} (1 - p_j) * p_t * c_t
    E[B]        = sum_i p_i                  (B = number of entries >= threshold)
    P(B >= 1)   = 1 - prod_i (1 - p_i)
    E[sum]      = sum_i p_i * c_i            (accept every qualifying sample)
    E[(B-1)^+]  = from the exact Bernoulli-count convolution

The Monte-Carlo path exists to cross-check the analytic one.  It draws one
uniform per entry and trial from a single Philox stream keyed by the seed,
streams the trials in blocks of fixed size, one entry at a time, and keeps
only per-block sums, so its memory grows with neither the number of trials
nor that of entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .distributions import DiscreteFinite, Distribution
from .errors import NotDiscrete, ValidationError

# Trials per simulation block.  The simulator holds a few arrays of this
# length (512 KB each), whatever the number of trials or entries.
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
    """Exact pmf of a sum of independent Bernoulli(p_i) by O(k^2) convolution."""
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
    """All five policy statistics, computed in closed form (no sampling)."""
    r = policy.threshold
    ps = [d.survival(r) for d in policy.entries]
    # p * c = E[X 1{X >= r}]; safe even when the tail is empty.
    pcs = [d.tail_moment_one(r) for d in policy.entries]

    reward_terms = []
    miss = 1.0
    for p, pc in zip(ps, pcs):
        reward_terms.append(miss * pc)
        miss *= 1.0 - p
    expected_reward = math.fsum(reward_terms)
    expected_b = math.fsum(ps)
    prob_stop = 1.0 - miss
    try:
        expected_sum = math.fsum(pcs)
    except OverflowError:
        raise ValidationError(
            "expected sum of the tail moments E[X 1{X >= threshold}] overflows; "
            "the variables' values exceed the floating-point range"
        ) from None
    pmf = bernoulli_count_pmf(ps)
    expected_excess = math.fsum((b - 1) * m for b, m in enumerate(pmf) if b >= 2)
    return PolicyStats(
        expected_reward=expected_reward,
        expected_b=expected_b,
        prob_stop=prob_stop,
        expected_sum=expected_sum,
        expected_excess=expected_excess,
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
    if trials < 1:
        raise ValidationError(f"trials={trials!r} must be at least 1")
    if not 0 <= seed < 2**128:
        raise ValidationError(f"seed {seed!r} must lie in [0, 2**128)")
    gen = np.random.Generator(np.random.Philox(key=seed))
    e = math.frexp(max(d.mean() for d in policy.entries))[1]
    shift = None
    sums = []
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, trials, _BLOCK_TRIALS):
            m = min(_BLOCK_TRIALS, trials - start)
            rewards = np.zeros(m)
            maxima = np.zeros(m)
            waiting = np.ones(m, dtype=bool)  # no entry accepted yet
            for d in policy.entries:
                x = d.draw(gen.random(m))
                hit = waiting & (x >= policy.threshold)
                np.copyto(rewards, x, where=hit)
                waiting &= ~hit
                np.maximum(maxima, x, out=maxima)
            rewards = np.ldexp(rewards, -e)
            maxima = np.ldexp(maxima, -e)
            if shift is None:
                # Deviations from the first trial are exactly zero when every
                # trial is the same, so the means are then exact and stderr 0.
                shift = rewards[0], maxima[0]
            dev = rewards - shift[0]
            sums.append((dev.sum(), np.square(dev).sum(), (maxima - shift[1]).sum()))
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
    idx = sorted(set(subset))
    members = []
    for i in idx:
        d = dists[i]
        if not isinstance(d, DiscreteFinite):
            raise NotDiscrete(f"variable {i} is not finite discrete; exact E[max] unavailable")
        members.append(d)
    if not members:
        raise NotDiscrete("empty subset")
    grid = np.array(sorted(set(v for d in members for v in d.values.tolist())))
    cdf = np.ones_like(grid)
    for d in members:
        atoms = np.searchsorted(grid, d.values)
        member_cdf = np.zeros_like(grid)
        np.add.at(member_cdf, atoms, d.probs)
        cdf = cdf * np.cumsum(member_cdf)
    pmf = np.diff(np.concatenate([[0.0], cdf]))
    return float(np.dot(grid, pmf))
