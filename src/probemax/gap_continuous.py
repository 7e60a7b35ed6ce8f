"""The 1 - 1/e pipeline for instances with continuous CDFs.

Relaxing the inner maximization of the min-max bound to fractional subsets
(coordinates in [0, 1] summing to k) changes nothing about its value, but at
a minimizer r* the relaxation admits an almost-integer optimal solution psi*
whose survival probabilities are calibrated to exactly one expected hit:

    sum_i P(X_i >= r*) * psi_i = 1,  with at most two fractional coordinates.

psi* is built from two envelope-achieving sets: among the maximizers at r*,
S- maximizes d/dr H(r*, .) (so its derivative is >= 0) and S+ minimizes it
(derivative <= 0).  Sliding a window from S- to S+ one member at a time
passes through envelope maximizers that overlap in k-1, and the adjacent
pair at the derivative's sign change replaces S- and S+; a mixing weight
alpha then places the blended survival sum exactly at 1.

The resulting policy inspects the psi-support in weakly-decreasing
conditional tail expectation, treating the fractional pair as a two-way
mixture variable, and accepts the first sample at or above r*.  Its expected
reward is at least (1 - 1/e) * U*, and replacing the mixture by whichever
branch has the larger conditional reward derandomizes the policy without
losing that guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .distributions import Distribution, Mixture
from .errors import ValidationError
from .gap2 import TIE_TOL, tie_class_at
from .minmax import BoundResult, Instance, minimize_hmax
from .policy_eval import PolicyStats, ThresholdPolicy, _reward_chain, evaluate

#: Tolerance on fractional-solution identities (survival sums, alpha clamping).
TOL_PSI = 1e-4

#: Minimizer-bracket width for the pipeline, relative to mu_max.
XI_SCALE = 1e-8

#: Tie tolerance at the approximate minimizer, relative to mu_max.  A genuine
#: tie at the true minimizer separates by at most twice the bracket width at
#: the approximate one, so 4x that width keeps every true tie inside the class
#: while any spurious member changes the envelope value by a comparably
#: negligible amount.
CONT_TIE_TOL = TIE_TOL + 4.0 * XI_SCALE

#: Coordinates this close to 0 or 1 are snapped; the survival-sum identity
#: moves by at most the same amount, far below TOL_PSI.
_SNAP = 1e-12


def _require_continuous(inst: Instance) -> None:
    i = inst._first_discontinuous
    if i is not None:
        raise ValidationError(f"variable {i} has a discontinuous CDF")


@dataclass(frozen=True)
class PsiSolution:
    """Almost-integer maximizer of the relaxed inner problem at r_star."""

    r_star: float
    s_minus: tuple[int, ...]
    s_plus: tuple[int, ...]
    alpha: float
    frac_pair: tuple[int, int] | None
    psi: tuple[float, ...]


def construct_s_minus_plus(
    inst: Instance, r_star: float
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Extreme-derivative envelope maximizers at r_star.

    Both sets fill the slots of the tie class by survival at r_star: the
    first with the lowest (maximizing the derivative of H), the second with
    the highest (minimizing it).  Ties break toward the lowest index.
    """
    _require_continuous(inst)
    tc = tie_class_at(inst, r_star, tol=CONT_TIE_TOL)
    surv = inst._packed.survival(r_star)
    return tc.fill(-surv), tc.fill(surv)


def maximize_overlap(
    inst: Instance,
    r_star: float,
    s_minus: Iterable[int],
    s_plus: Iterable[int],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two envelope maximizers overlapping in >= k-1 whose derivatives straddle 0.

    The d members only s_minus holds, then the d only s_plus holds, each
    sorted by (survival at r_star, index), form a row; window j is the shared
    members plus row[j : j + d].  Window 0 is s_minus, window d is s_plus,
    adjacent windows overlap in k-1, and every window is an envelope
    maximizer when both inputs are.  Bisection keeps "survival sum <= 1"
    (derivative >= 0) true at its low end and false at its high end, in at
    most ceil(log2(d)) + 1 sign tests, and returns the adjacent pair at the
    sign change: the first two windows if every derivative is negative, the
    last two if none is.  With d <= 1 the inputs come back unchanged.
    """
    s_minus = inst.subset(s_minus)
    s_plus = inst.subset(s_plus)
    shared = set(s_minus) & set(s_plus)
    d = len(s_minus) - len(shared)
    if d <= 1:
        return s_minus, s_plus

    surv = inst._packed.survival(r_star)

    def by_survival(members):
        members = np.array(sorted(members), dtype=np.intp)
        return members[np.argsort(surv[members], kind="stable")]  # ties by index

    row = np.concatenate((by_survival(set(s_minus) - shared), by_survival(set(s_plus) - shared)))
    row_surv = surv[row].tolist()
    shared_surv = surv[list(shared)].tolist()
    row = row.tolist()

    def window(j: int) -> tuple[int, ...]:
        return tuple(sorted(shared.union(row[j : j + d])))

    lo, hi = -1, d + 1  # virtual windows beyond both ends pass and fail the test
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if math.fsum(shared_surv + row_surv[mid : mid + d]) <= 1.0:
            lo = mid
        else:
            hi = mid
    lo = min(max(lo, 0), d - 1)
    return window(lo), window(lo + 1)


def compute_psi_star(inst: Instance, r_star: float) -> PsiSolution:
    """Build the calibrated almost-integer solution at r_star.

    alpha solves alpha * sum_{S+} P + (1 - alpha) * sum_{S-} P = 1.  When the
    two sums fail to straddle 1 by at most TOL_PSI (threshold imprecision),
    alpha clamps to the nearer endpoint and the solution degrades to an
    integer one; a larger failure raises ValidationError.
    """
    s_minus, s_plus = construct_s_minus_plus(inst, r_star)
    s_minus, s_plus = maximize_overlap(inst, r_star, s_minus, s_plus)
    surv = inst._packed.survival(r_star)
    p_minus = math.fsum(surv[list(s_minus)].tolist())
    p_plus = math.fsum(surv[list(s_plus)].tolist())
    if p_plus == p_minus:
        alpha = 1.0
    else:
        alpha = (1.0 - p_minus) / (p_plus - p_minus)
        alpha = min(max(alpha, 0.0), 1.0)
    if alpha <= _SNAP:
        alpha = 0.0
    elif alpha >= 1.0 - _SNAP:
        alpha = 1.0
    achieved = alpha * p_plus + (1.0 - alpha) * p_minus
    if abs(achieved - 1.0) > TOL_PSI:
        raise ValidationError(
            f"survival sums {p_minus!r} and {p_plus!r} do not straddle 1 "
            f"within {TOL_PSI}; r_star={r_star!r} is too far from a minimizer"
        )
    psi = [0.0] * inst.n
    for i in s_plus:
        psi[i] = alpha
    plus = set(s_plus)
    for i in s_minus:
        psi[i] = 1.0 if i in plus else 1.0 - alpha
    frac_pair = None
    if 0.0 < alpha < 1.0 and s_plus != s_minus:
        (ell,) = plus - set(s_minus)
        (m,) = set(s_minus) - plus
        frac_pair = (ell, m)
    return PsiSolution(
        r_star=float(r_star),
        s_minus=s_minus,
        s_plus=s_plus,
        alpha=alpha,
        frac_pair=frac_pair,
        psi=tuple(psi),
    )


def build_policy(
    inst: Instance, sol: PsiSolution
) -> tuple[ThresholdPolicy, tuple[int, ...]]:
    """Threshold policy over the psi-support at r_star, plus its index labels.

    Entries are the integral variables plus one mixture entry for the
    fractional pair, sorted by weakly-decreasing conditional tail
    expectation (zero-tail entries last, ties by lowest original index).
    The labels give each entry's original index in inspection order; the
    mixture is labelled by the lower index of its pair.
    """
    entries = [(inst.dists[i], i) for i, w in enumerate(sol.psi) if w == 1.0]
    if sol.frac_pair is not None:
        ell, m = sol.frac_pair
        mix = Mixture(sol.psi[ell], inst.dists[ell], inst.dists[m])
        entries.append((mix, min(ell, m)))

    def sort_key(entry: tuple[Distribution, int]):
        d, label = entry
        cond = d.cond_exp_ge(sol.r_star) if d.survival(sol.r_star) > 0.0 else 0.0
        return (-cond, label)

    entries.sort(key=sort_key)
    policy = ThresholdPolicy([d for d, _ in entries], threshold=sol.r_star)
    return policy, tuple(label for _, label in entries)


def derandomize(
    inst: Instance, sol: PsiSolution, policy: ThresholdPolicy, order: tuple[int, ...]
) -> tuple[tuple[int, ...], float]:
    """Replace the mixture entry by its better branch, keeping the order.

    The reward of each branch is the policy's conditional expected reward
    given the branch coin, so the better branch earns at least the
    unconditional expectation; a tie keeps the first branch.  Needs a
    fractional pair; returns the derandomized inspection order and its
    expected reward.
    """
    slot = order.index(min(sol.frac_pair))
    branches = []
    for branch in sol.frac_pair:
        entries = list(policy.entries)
        entries[slot] = inst.dists[branch]
        reward = _reward_chain(entries, policy.threshold)[2]
        swapped = order[:slot] + (branch,) + order[slot + 1 :]
        branches.append((swapped, reward))
    return max(branches, key=lambda b: b[1])


@dataclass(frozen=True)
class ContinuousResult:
    """Everything the pipeline produces for one instance."""

    bound: BoundResult
    solution: PsiSolution
    policy: ThresholdPolicy
    stats: PolicyStats
    derandomized_order: tuple[int, ...]
    derandomized_reward: float


def solve_continuous(inst: Instance) -> ContinuousResult:
    """End-to-end pipeline: bound, psi*, policy, statistics, derandomized order.

    The minimizer bracket runs at width XI_SCALE * mu_max, and ties at its
    midpoint use CONT_TIE_TOL.  Without a fractional pair the policy is
    already deterministic, so it is its own derandomization.
    """
    _require_continuous(inst)
    bound = minimize_hmax(inst, XI_SCALE * inst.mu_max)
    sol = compute_psi_star(inst, bound.r_hat)
    policy, order = build_policy(inst, sol)
    stats = evaluate(policy)
    if sol.frac_pair is None:
        der_order, der_reward = order, stats.expected_reward
    else:
        der_order, der_reward = derandomize(inst, sol, policy, order)
    return ContinuousResult(
        bound=bound, solution=sol, policy=policy, stats=stats,
        derandomized_order=der_order, derandomized_reward=der_reward,
    )
