"""Deterministic probing sets with a factor-2 guarantee for general variables.

Pipeline: bracket a minimizer of the upper envelope to width
xi = epsilon * mu_max / (20 k); at each bracket endpoint, build the envelope-
achieving size-k set that additionally maximizes the tail moments at a probe
point xi beyond the endpoint (outward on each side); keep whichever of the
two sets has the larger root threshold rho.  The chosen set S satisfies

    U* <= (2 + epsilon) * rho(S),

and the stopping policy with threshold rho(S) earns at least rho(S) in
expectation under any inspection order, so E[max of S] is within a factor
2 + epsilon of the upper bound (hence of the adaptive optimum).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import GuaranteeViolation, ValidationError
from .minmax import BoundResult, Instance, g_values, minimize_hmax, rho

#: Tolerance for declaring two tail moments tied at an anchor point, relative
#: to mu_max.  Exact closed-form oracles make genuine ties representable; this
#: only guards float rounding.
TIE_TOL = 1e-12

#: Relative slack for the internal factor-(2 + epsilon) assertion.
GUARANTEE_RTOL = 1e-9

XI_DENOMINATOR = 20.0


@dataclass(frozen=True)
class TieClass:
    """Structure of the envelope maximizers at an anchor point.

    Every envelope-achieving size-k set is the forced prefix plus `slots`
    members of the tied block.  Both hold indices by weakly-decreasing
    G_i(anchor), ties by lowest index, so prefix + tied[:slots] is the k
    largest G values.
    """

    prefix: tuple[int, ...]
    tied: tuple[int, ...]
    slots: int

    def fill(self, key) -> tuple[int, ...]:
        """The maximizer whose `slots` tied members have the largest key[i].

        `key` holds one number per variable.  Ties in key break toward the
        lowest index; the set comes back sorted.
        """
        # Index order first, so the stable sort breaks ties by index.
        tied = np.sort(np.array(self.tied, dtype=np.intp))
        chosen = tied[np.argsort(-np.asarray(key, dtype=float)[tied], kind="stable")]
        prefix = np.array(self.prefix, dtype=np.intp)
        return tuple(np.sort(np.concatenate((prefix, chosen[: self.slots]))).tolist())


def tie_class_at(inst: Instance, r_anchor: float, tol: float = TIE_TOL) -> TieClass:
    """Tie class of the size-k envelope maximizers at r_anchor.

    Tail moments within tol * mu_max of the k-th largest one are tied.
    """
    gs = g_values(inst, r_anchor)
    order = np.argsort(-gs, kind="stable")  # ties by index
    ranked = gs[order]
    k = inst.k
    # The tie class is the run of values around the k-th largest one that
    # lie within the tolerance of it.
    far = ~(np.abs(ranked - ranked[k - 1]) <= tol * inst.mu_max)
    before = np.flatnonzero(far[: k - 1])
    after = np.flatnonzero(far[k:])
    start = int(before[-1]) + 1 if before.size else 0
    end = k + int(after[0]) if after.size else inst.n
    return TieClass(
        prefix=tuple(order[:start].tolist()),
        tied=tuple(order[start:end].tolist()),
        slots=k - start,
    )


@dataclass(frozen=True)
class Gap2Result:
    """The two candidate sets, their root thresholds, and the winner.

    The stopping policy over the chosen set,
    ThresholdPolicy([inst.dists[i] for i in chosen], threshold), earns at
    least `threshold` in expectation under any inspection order.
    """

    s_tilde_plus: tuple[int, ...]
    s_tilde_minus: tuple[int, ...]
    rho_plus: float
    rho_minus: float
    chosen: tuple[int, ...]
    threshold: float
    bound: BoundResult
    epsilon: float


def check_epsilon(epsilon: float) -> float:
    """epsilon as a float; raise ValidationError unless it is a real with 0 < epsilon < 1."""
    if (isinstance(epsilon, bool) or not isinstance(epsilon, numbers.Real)
            or not 0.0 < epsilon < 1.0):
        raise ValidationError(f"epsilon={epsilon!r} must lie strictly inside (0, 1)")
    return float(epsilon)


def narrow_interval(inst: Instance, epsilon: float) -> BoundResult:
    """Bracket a minimizer of the envelope to width epsilon * mu_max / (20 k)."""
    epsilon = check_epsilon(epsilon)
    xi = epsilon * inst.mu_max / (XI_DENOMINATOR * inst.k)
    return minimize_hmax(inst, xi)


def build_tilde_set(inst: Instance, r_anchor: float, r_probe: float) -> tuple[int, ...]:
    """The envelope maximizer at r_anchor that maximizes tail moments at r_probe.

    The tie class at r_anchor fixes a forced prefix; its slots are filled by
    the largest G_i(r_probe), ties by lowest index.
    """
    return tie_class_at(inst, r_anchor).fill(g_values(inst, r_probe))


def select_gap2_set(inst: Instance, epsilon: float = 0.05) -> Gap2Result:
    """Run the full construction and verify its factor-(2 + epsilon) guarantee.

    The final inequality is a theorem, so its failure beyond float slack
    means an implementation bug and raises GuaranteeViolation.
    """
    epsilon = check_epsilon(epsilon)
    bound = narrow_interval(inst, epsilon)
    xi = bound.xi
    s_plus = build_tilde_set(inst, bound.r_plus, bound.r_plus + xi)
    s_minus = build_tilde_set(inst, bound.r_minus, bound.r_minus - xi)
    rho_plus = rho(inst, s_plus)
    rho_minus = rho(inst, s_minus)
    if rho_plus >= rho_minus:
        chosen, threshold = s_plus, rho_plus
    else:
        chosen, threshold = s_minus, rho_minus
    if bound.u_star > (2.0 + epsilon) * threshold + GUARANTEE_RTOL * bound.u_star:
        raise GuaranteeViolation(
            f"u_star={bound.u_star!r} exceeds (2 + {epsilon}) * rho={threshold!r}"
        )
    return Gap2Result(
        s_tilde_plus=s_plus,
        s_tilde_minus=s_minus,
        rho_plus=rho_plus,
        rho_minus=rho_minus,
        chosen=chosen,
        threshold=threshold,
        bound=bound,
        epsilon=epsilon,
    )
