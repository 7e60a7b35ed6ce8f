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

The Monte-Carlo path exists to cross-check the analytic one.  Its random
stream is counter-based (Philox keyed by the seed, counter advanced per
trial), so any partition of the trial range reproduces bitwise-identical
draws; results do not depend on chunking or parallelism degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .distributions import DiscreteFinite, Distribution
from .errors import NotDiscrete, ValidationError

# Philox emits 64-bit words in blocks of 4 and advance() steps whole blocks,
# so per-trial draw counts are padded to a multiple of 4.
_PHILOX_BLOCK = 4


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


def _trial_uniforms(seed: int, start: int, stop: int, per_trial: int) -> np.ndarray:
    """Uniform draws for trials [start, stop), bitwise independent of chunking.

    Trial t occupies counter positions [t * per_trial, (t+1) * per_trial);
    per_trial must be a multiple of the Philox block size.
    """
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(start * per_trial // _PHILOX_BLOCK)
    return np.random.Generator(bitgen).random((stop - start, per_trial))


def _per_trial_columns(n_entries: int) -> int:
    cols = 2 * n_entries  # one branch coin + one value per entry
    return -(-cols // _PHILOX_BLOCK) * _PHILOX_BLOCK


def _draw_values(
    dists: Sequence[Distribution], seed: int, start: int, stop: int
) -> np.ndarray:
    """Samples of every variable for trials [start, stop); one column each."""
    u = _trial_uniforms(seed, start, stop, _per_trial_columns(len(dists)))
    values = np.empty((stop - start, len(dists)))
    for j, d in enumerate(dists):
        values[:, j] = d.draw(u[:, 2 * j], u[:, 2 * j + 1])
    return values


def _simulate_chunk(policy: ThresholdPolicy, seed: int, start: int, stop: int):
    """Per-trial (reward, max) for trials [start, stop)."""
    values = _draw_values(policy.entries, seed, start, stop)
    hits = values >= policy.threshold
    stopped = hits.any(axis=1)
    first = hits.argmax(axis=1)
    rewards = np.where(stopped, values[np.arange(len(values)), first], 0.0)
    return rewards, values.max(axis=1)


def simulate(
    policy: ThresholdPolicy, trials: int, seed: int, chunk_size: int = 1 << 16
) -> SimResult:
    """Monte-Carlo estimates of the expected reward and expected maximum.

    Deterministic for a fixed seed; chunk_size only bounds memory and has no
    effect on the result.  stderr is the sample standard deviation of the
    per-trial reward divided by sqrt(trials).
    """
    if trials < 1:
        raise ValidationError(f"trials={trials!r} must be at least 1")
    rewards = np.empty(trials)
    maxima = np.empty(trials)
    for start in range(0, trials, chunk_size):
        stop = min(start + chunk_size, trials)
        rewards[start:stop], maxima[start:stop] = _simulate_chunk(policy, seed, start, stop)
    # fsum is the correctly-rounded sum, hence independent of partition order.
    mean_reward = math.fsum(rewards) / trials
    mean_max = math.fsum(maxima) / trials
    if trials > 1:
        var = math.fsum((rewards - mean_reward) ** 2) / (trials - 1)
        stderr = math.sqrt(max(var, 0.0) / trials)
    else:
        stderr = 0.0
    return SimResult(mean_reward=mean_reward, mean_max=mean_max, stderr=stderr)


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
