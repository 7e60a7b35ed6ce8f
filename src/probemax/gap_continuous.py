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
conditional tail expectation and accepts the first sample at or above r*.
A fractional pair (l, m) makes it randomized: with probability alpha it
probes l at the pair's slot, else m.  So it is two deterministic branch
policies, and its statistics are their alpha-mix.  Its expected reward is
at least (1 - 1/e) * U*, and keeping whichever branch has the larger
reward derandomizes the policy without losing that guarantee.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .gap2 import TIE_TOL, tie_class_at
from .minmax import BoundResult, Instance, minimize_hmax
from .policy_eval import PolicyStats, ThresholdPolicy, evaluate

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
    s_minus, s_plus = (np.array(inst.subset(s), dtype=np.intp) for s in (s_minus, s_plus))
    lo, hi = _overlap(inst._packed.survival(r_star), s_minus, s_plus)
    return tuple(lo.tolist()), tuple(hi.tolist())


def _overlap(surv: np.ndarray, s_minus: np.ndarray, s_plus: np.ndarray):
    """maximize_overlap over sorted index arrays and the survival column."""
    side = _sides(surv.size, s_minus, s_plus)
    shared = s_minus[side[s_minus] == 3]
    d = s_minus.size - shared.size
    if d <= 1:
        return s_minus, s_plus

    def by_survival(members):  # sorted members, so ties stay in index order
        return members[np.argsort(surv[members], kind="stable")]

    row = np.concatenate((by_survival(s_minus[side[s_minus] == 1]),
                          by_survival(s_plus[side[s_plus] == 2])))
    row_surv = surv[row].tolist()
    shared_surv = surv[shared].tolist()
    lo, hi = -1, d + 1  # virtual windows beyond both ends pass and fail the test
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if math.fsum(shared_surv + row_surv[mid : mid + d]) <= 1.0:
            lo = mid
        else:
            hi = mid
    lo = min(max(lo, 0), d - 1)
    return tuple(np.sort(np.concatenate((shared, row[j : j + d]))) for j in (lo, lo + 1))


def _sides(n: int, s_minus: np.ndarray, s_plus: np.ndarray) -> np.ndarray:
    """Per variable: 1 in s_minus only, 2 in s_plus only, 3 in both, else 0."""
    side = np.zeros(n, dtype=np.intp)
    side[s_minus] = 1
    side[s_plus] += 2
    return side


def compute_psi_star(inst: Instance, r_star: float) -> PsiSolution:
    """Build the calibrated almost-integer solution at r_star.

    alpha solves alpha * sum_{S+} P + (1 - alpha) * sum_{S-} P = 1.  When the
    two sums fail to straddle 1 by at most TOL_PSI (threshold imprecision),
    alpha clamps to the nearer endpoint and the solution degrades to an
    integer one; a larger failure raises ValidationError.  The window pair
    and psi are built over index arrays and the survival column.
    """
    s_minus, s_plus = construct_s_minus_plus(inst, r_star)
    surv = inst._packed.survival(r_star)
    s_minus, s_plus = _overlap(surv, *(np.array(s, dtype=np.intp) for s in (s_minus, s_plus)))
    p_minus = math.fsum(surv[s_minus].tolist())
    p_plus = math.fsum(surv[s_plus].tolist())
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
    side = _sides(inst.n, s_minus, s_plus)
    psi = np.array([0.0, 1.0 - alpha, alpha, 1.0])[side]
    frac_pair = None
    if 0.0 < alpha < 1.0 and s_plus.size > np.count_nonzero(side == 3):
        (ell,), (m,) = np.flatnonzero(side == 2).tolist(), np.flatnonzero(side == 1).tolist()
        frac_pair = (ell, m)
    return PsiSolution(
        r_star=float(r_star),
        s_minus=tuple(s_minus.tolist()),
        s_plus=tuple(s_plus.tolist()),
        alpha=alpha,
        frac_pair=frac_pair,
        psi=tuple(psi.tolist()),
    )


def build_policy(
    inst: Instance, sol: PsiSolution
) -> tuple[tuple[ThresholdPolicy, tuple[int, ...]], ...]:
    """Threshold policies over the psi-support at r_star, with their index labels.

    An integral solution gives one policy.  A fractional pair (l, m) gives
    two branch policies, the l branch first, with l and m at one shared
    slot; the randomized policy runs the l branch with probability
    psi[l] = alpha.  Slots sort by weakly-decreasing conditional tail
    expectation at r_star (zero-survival slots last, ties by lowest index);
    the pair's slot sorts by the mixture's, w * T_l + (1 - w) * T_m over
    w * P_l + (1 - w) * P_m with w = psi[l] = alpha, and by min(l, m).  The
    labels give each entry's original index in inspection order.  psi is 1
    on S- and S+ both, alpha on S+ only and 1 - alpha on S- only, so the
    support comes from those k-sized sets, and one np.lexsort over its rows
    of the survival and tail moment columns orders the slots.
    """
    r, alpha = sol.r_star, sol.alpha
    ones = np.array(sorted(set(sol.s_minus).intersection(sol.s_plus)) if 0.0 < alpha < 1.0
                    else sol.s_plus if alpha else sol.s_minus, dtype=np.intp)
    pair = sol.frac_pair or ()
    rows = np.concatenate((ones, np.array(pair, dtype=np.intp)))
    surv = inst._packed.survival(r)[rows].tolist()
    tail = inst._packed.tail_moment_one(r)[rows].tolist()
    branches = [ones]
    if pair:
        surv[-2:] = [alpha * surv[-2] + (1.0 - alpha) * surv[-1]]
        tail[-2:] = [alpha * tail[-2] + (1.0 - alpha) * tail[-1]]
        branches = [np.append(ones, i) for i in pair]
    surv, tail = np.array(surv), np.array(tail)
    key = np.full(surv.size, -0.0)
    hit = surv > 0.0
    key[hit] = -(tail[hit] / surv[hit])
    slots = np.lexsort((np.append(ones, min(pair)) if pair else ones, key))
    orders = [tuple(branch[slots].tolist()) for branch in branches]
    return tuple((ThresholdPolicy(inst._variables(order), r), order) for order in orders)


def derandomize(
    branches: Sequence[tuple[ThresholdPolicy, tuple[int, ...]]],
    branch_stats: Sequence[PolicyStats],
) -> tuple[tuple[int, ...], float]:
    """The order and expected reward of the branch with the larger reward.

    A branch's reward is the randomized policy's expected reward given its
    coin, so the better branch earns at least the randomized policy; a tie
    keeps the first (the l branch).  One branch is its own
    derandomization.
    """
    best = max(range(len(branches)), key=lambda b: branch_stats[b].expected_reward)
    return branches[best][1], branch_stats[best].expected_reward


@dataclass(frozen=True)
class ContinuousResult:
    """Everything the pipeline produces for one instance.

    `branches` holds build_policy's (policy, order) pairs and `stats` the
    randomized policy's statistics, the alpha-mix of theirs.
    """

    bound: BoundResult
    solution: PsiSolution
    branches: tuple[tuple[ThresholdPolicy, tuple[int, ...]], ...]
    stats: PolicyStats
    derandomized_order: tuple[int, ...]
    derandomized_reward: float


def solve_continuous(inst: Instance) -> ContinuousResult:
    """End-to-end pipeline: bound, psi*, policy, statistics, derandomized order.

    The minimizer bracket runs at width XI_SCALE * mu_max, and ties at its
    midpoint use CONT_TIE_TOL.  Each of the five statistics is affine in
    the pair slot's survival and tail moment, so the randomized policy's
    statistics are alpha * stats(l branch) + (1 - alpha) * stats(m branch).
    """
    _require_continuous(inst)
    bound = minimize_hmax(inst, XI_SCALE * inst.mu_max)
    sol = compute_psi_star(inst, bound.r_hat)
    branches = build_policy(inst, sol)
    branch_stats = [evaluate(policy) for policy, _ in branches]
    stats = branch_stats[0]
    if len(branches) == 2:
        w = sol.alpha
        stats = PolicyStats(*(
            w * a + (1.0 - w) * b
            for a, b in zip(astuple(branch_stats[0]), astuple(branch_stats[1]))
        ))
    der_order, der_reward = derandomize(branches, branch_stats)
    return ContinuousResult(
        bound=bound, solution=sol, branches=branches, stats=stats,
        derandomized_order=der_order, derandomized_reward=der_reward,
    )
