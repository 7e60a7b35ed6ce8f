"""The min-max upper bound on the adaptive probing optimum.

For a threshold r and a variable subset S, H(r, S) = r + sum_{i in S} G_i(r)
with G_i(r) = E[(X_i - r)^+].  The upper envelope H_max(r) maximizes H(r, .)
over all subsets of size k (equivalently: the k largest G_i(r)), and the
bound of interest is U* = min_r H_max(r).  H_max is convex and attains its
minimum inside [0, n * mu_max], so golden-section search brackets a minimizer
to any requested width.  As the bracket narrows, the search drops the
variables that provably cannot enter the top k on it and skips points past
every remaining support, with every value bit for bit h_max's.

Also provided: the unique root rho(S) of sum_{i in S} G_i(r) = r, which is
the threshold whose stopping policy earns at least rho(S) in expectation, and
the derivative d/dr H(r, S) = 1 - sum_{i in S} P(X_i >= r), valid whenever
every member of S is continuous.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .distributions import _DISCRETE, _EXPONENTIAL, Distribution, _Packed, _real
from .errors import ValidationError

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi, golden-section shrink factor

#: Bisection width for rho, relative to the subset's mean sum.
RHO_TOL_SCALE = 1e-12

#: Up to this many terms fsum costs less than a plain sum and its error
#: interval (README, the envelope search, gives the timings per size).
_FSUM_TERMS = 48


class Instance:
    """n independent variables of the three families plus the probe budget k.

    The variables are held as columns, one set per family plus the index
    map (see distributions._Packed), which the envelope layers read; an
    instance made from objects gathers their columns and keeps no reference
    to them.  The scalar objects are views of those columns, made on
    demand: `dists` builds all of them on first read, and `_variables` only
    the ones it is asked for.
    """

    def __init__(self, dists: Sequence[Distribution], k: int) -> None:
        self._fill(_Packed.gather(tuple(dists)), k)

    @classmethod
    def _of_columns(cls, packed: _Packed, k: int) -> Instance:
        """An instance of columns built and checked already."""
        inst = cls.__new__(cls)
        inst._fill(packed, k)
        return inst

    def _fill(self, packed: _Packed, k: int) -> None:
        _check_budget(k, packed.n)
        mu_max = float(packed.mean().max())
        if mu_max <= 0.0:
            raise ValidationError("all-zero instance rejected: max mean must be positive")
        self._packed, self._k, self._mu_max = packed, int(k), mu_max
        self._views: dict[int, Distribution] = {}

    @cached_property
    def dists(self) -> tuple[Distribution, ...]:
        """The variables as scalar objects, made on first read."""
        return tuple(self._variables(range(self.n)))

    def _variables(self, indices: Iterable[int]) -> list[Distribution]:
        """The scalar objects of the variables at `indices`, in that order.

        Each is made once, on its first request, so no more are made than
        are asked for.
        """
        indices = list(indices)
        views = self._views
        missing = [i for i in indices if i not in views]
        if missing:
            views.update(zip(missing, self._packed.views(missing)))
        return [views[i] for i in indices]

    @cached_property
    def _first_discontinuous(self) -> int | None:
        """Index of the first variable with a discontinuous CDF, or None."""
        hits = np.flatnonzero(self._packed.kind == _DISCRETE)
        return int(hits[0]) if hits.size else None

    @property
    def n(self) -> int:
        return self._packed.n

    @property
    def k(self) -> int:
        return self._k

    @property
    def mu_max(self) -> float:
        return self._mu_max

    def subset(self, indices: Iterable[int]) -> tuple[int, ...]:
        return check_subset(indices, self.n)

    def __eq__(self, other) -> bool:
        return isinstance(other, Instance) and (self.k, self.dists) == (other.k, other.dists)

    def __repr__(self) -> str:
        return f"Instance(dists={self.dists!r}, k={self.k!r})"


def _check_budget(k: int, n: int) -> None:
    if not n:
        raise ValidationError("instance needs at least one distribution")
    if not isinstance(k, numbers.Integral) or isinstance(k, bool):
        raise ValidationError(f"budget k={k!r} must be an integer")
    if not 1 <= k <= n:
        raise ValidationError(f"budget k={k} must satisfy 1 <= k <= n={n}")


def check_subset(indices: Iterable[int], n: int) -> tuple[int, ...]:
    """Validate a subset of distinct integer indices in [0, n); return it sorted."""
    indices = list(indices)
    # Distinct Python ints in range are checked in numpy; the loop names a bad index.
    if set(map(type, indices)) <= {int} and (
        not indices or (min(indices) >= 0 and max(indices) < n)
    ):
        idx = np.sort(np.array(indices, dtype=np.intp))
        if not (idx[1:] == idx[:-1]).any():
            return tuple(idx.tolist())
    idx = []
    for i in indices:
        if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
            raise ValidationError(f"index {i!r} is not an integer")
        if not 0 <= i < n:
            raise ValidationError(f"index {i!r} outside [0, {n})")
        idx.append(int(i))
    if len(set(idx)) != len(idx):
        raise ValidationError(f"duplicate indices in subset {tuple(idx)!r}")
    return tuple(sorted(idx))


@dataclass(frozen=True)
class BoundResult:
    """Outcome of bracketing a minimizer of the upper envelope.

    [r_minus, r_plus] contains at least one true minimizer, r_hat is the
    midpoint, u_star = H_max(r_hat) (an upper bound on the exact min-max
    value), and xi is the width tolerance the search was run with.
    """

    r_minus: float
    r_plus: float
    r_hat: float
    u_star: float
    xi: float
    iterations: int


def g_values(inst: Instance, r: float) -> np.ndarray:
    """G_i(r) for every variable of the instance, as a length-n array."""
    return inst._packed.g_value(r)


def h_max(inst: Instance, r: float) -> float:
    """Upper envelope H_max(r) = r + the sum of the k largest G_i(r).

    fsum is correctly rounded, so the value depends only on the multiset of
    the k largest values, which np.partition finds without a full sort;
    gap2.tie_class_at gives the maximizing sets.
    """
    cut = inst.n - inst.k
    return r + math.fsum(np.partition(g_values(inst, r), cut)[cut:].tolist())


def minimize_hmax(inst: Instance, xi_target: float) -> BoundResult:
    """Golden-section search for a minimizer of H_max over [0, n * mu_max].

    Shrinks the bracket until its width is at most xi_target, or until it
    stops shrinking at floating-point resolution; the returned interval
    contains a minimizer because H_max is convex.  Runs
    O(log(n * mu_max / xi_target)) envelope evaluations, each h_max's bits
    from the variables the bracket has not ruled out (see _Candidates).
    Raises ValidationError when the bracket or the bound overflows to a
    non-finite value.
    """
    real = isinstance(xi_target, numbers.Real) and not isinstance(xi_target, bool)
    xi = _real(xi_target) if real else math.nan
    if not 0.0 < xi < math.inf:
        raise ValidationError(f"xi_target={xi_target!r} must be a positive real")
    lo, hi = 0.0, inst.n * inst.mu_max
    if not math.isfinite(hi):
        raise ValidationError(
            f"search bracket n * mu_max = {hi!r} overflows; "
            "the variables' values exceed the floating-point range"
        )
    live = _Candidates(inst)
    iterations = 0
    if hi - lo > xi:
        c = hi - INV_PHI * (hi - lo)
        d = lo + INV_PHI * (hi - lo)
        fc = live.h_max(c, lo, hi)
        fd = live.h_max(d, lo, hi)
        while hi - lo > xi:
            width = hi - lo
            if _less(fc, fd):
                hi, d, fd = d, c, fc
                c = hi - INV_PHI * (hi - lo)
                fc = live.h_max(c, lo, hi)
            else:
                lo, c, fc = c, d, fd
                d = lo + INV_PHI * (hi - lo)
                fd = live.h_max(d, lo, hi)
            iterations += 1
            if hi - lo >= width:
                break  # the bracket is a few ulps wide and cannot shrink further
    r_hat = 0.5 * (lo + hi)
    u_star = _exact(live.h_max(r_hat, lo, hi))
    if not math.isfinite(u_star):
        raise ValidationError(
            f"upper bound U* overflows to {u_star!r} at r_hat={r_hat!r}; "
            "the variables' values exceed the floating-point range"
        )
    return BoundResult(
        r_minus=lo, r_plus=hi, r_hat=r_hat, u_star=u_star, xi=xi,
        iterations=iterations,
    )


class _Candidates:
    """The variables that can still enter the top k on the search bracket.

    Exponentials first: for r > 0, G = exp(-rate * r) / rate falls as the
    rate rises, and so do its bits for rates over 2^-50 apart relative: the
    product and the division round monotonically and math.exp errs by under
    an ulp (or, subnormal, is monotone).  So with at least 2k exponentials,
    where a gather pays, those over about 8 ulps above the k-th smallest
    rate, never above the k smallest in G, are dropped at once.

    Then G_i never increases.  On [lo, hi] variable i is dropped when its
    support top is <= lo, where G_i is exactly 0, or when G_i(lo) lies over
    1e-11 * mu_max below T, the k-th largest G at hi, as the k kept variables
    at or above T stay above it on the bracket.  The margin covers G's
    rounding: a rise of a few ulps at an atom or a uniform's `a`, and of
    PROB_SUM_TOL of the lowest atom of a row whose probabilities sum under 1.
    So the k largest kept G, padded with exact zeros, are h_max's multiset,
    and past every kept top the envelope is r (README, Command line).
    """

    def __init__(self, inst: Instance) -> None:
        self.k, self.margin = inst.k, 1e-11 * inst.mu_max  # several times G's rounding
        packed, top = inst._packed, inst._packed.top()
        exp = packed.batches[_EXPONENTIAL]
        if exp is not None and exp.rate.size >= 2 * self.k:
            cap = np.partition(exp.rate, self.k - 1)[self.k - 1] * (1.0 + 2.0**-49)
            slow = np.flatnonzero(packed.kind == _EXPONENTIAL)[exp.rate > cap]
            if slow.size:
                rows = np.delete(np.arange(packed.n), slow)
                packed, top = packed.take(rows), top[rows]
        self._keep(packed, top)
        # Evaluated points: r -> (G of the kept variables, and the k-th largest
        # G, or 0 when at most k are kept).  G at 0 is the mean.
        self.seen = {0.0: (packed.mean(), 0.0)}

    def _keep(self, packed, top: np.ndarray) -> None:
        self.packed, self.top = packed, top
        self.top_min = float(top.min(initial=math.inf))
        self.top_max = float(top.max(initial=-math.inf))

    def h_max(self, r: float, lo: float, hi: float) -> list:
        """H_max(r) as a point (see _less).

        r lies in a bracket [lo, hi] that holds every later point.
        """
        self._prune(lo, hi)
        if r >= self.top_max:
            self.seen[r] = (np.zeros(self.top.size), 0.0)
            return [r, 0.0, r, None]
        g = self.packed.g_value(r)
        cut = g.size - self.k
        top = np.partition(g, cut)[cut:] if cut > 0 else g  # the k-th largest first
        self.seen[r] = (g, float(top[0]) if cut > 0 else 0.0)
        if top.size <= _FSUM_TERMS:
            return [r + math.fsum(top.tolist()), 0.0, r, None]
        value = r + float(top.sum())
        return [value, (top.size + 4) * 2.0**-52 * value, r, top]

    def _prune(self, lo: float, hi: float) -> None:
        self.seen = {r: point for r, point in self.seen.items() if lo <= r <= hi}
        # T at hi less the margin; at n * mu_max, never evaluated, T >= 0 as G >= 0.
        floor = self.seen.get(hi, (None, 0.0))[1] - self.margin
        if lo < self.top_min and floor <= 0.0:
            return  # neither rule can drop a variable
        keep = (self.top > lo) & (self.seen[lo][0] >= floor)
        if 2 * np.count_nonzero(keep) > keep.size:
            return  # a gather pays once it halves the evaluations
        rows = np.flatnonzero(keep)
        self._keep(self.packed.take(rows), self.top[rows])
        self.seen = {r: (g[rows], t) for r, (g, t) in self.seen.items()}


def _less(p: list, q: list) -> bool:
    """Whether h_max at point p is below h_max at point q, as floats compare.

    A point [v, e, r, terms] is exact when e = 0 (up to _FSUM_TERMS terms).
    Else v = fl(r + P), P a plain sum of the m terms g_j >= 0 (the k largest
    G), and e = (m + 4) * 2^-52 * v.  With u = 2^-53 and S their exact sum,
    |P - S| <= (m - 1) * u * S / (1 - (m - 1) * u) in any order, fsum is S
    rounded once and h_max's f = fl(r + fsum), so |f - v| <= (m + 1) * u *
    (r + S) * (1 + O(m * u)), under half of e.  A float sum cannot underflow:
    one below 2^-1021 is exact.  So either r + S < 2^-1021 and f = v, or e
    exceeds the bound by over 2^-1075, the most underflow takes from e.  The
    slack also covers rounding v +- e, so disjoint intervals order the
    floats exactly; otherwise, or at an overflowed or NaN end, the fsum
    values decide, computed once per point.
    """
    if p[0] + p[1] < q[0] - q[1]:
        return True
    if p[0] - p[1] >= q[0] + q[1]:
        return False
    return _exact(p) < _exact(q)


def _exact(point: list) -> float:
    """h_max at the point: r + fsum of its terms, computed once."""
    if point[1]:
        point[0], point[1] = point[2] + math.fsum(point[3].tolist()), 0.0
    return point[0]


def rho(inst: Instance, subset: Iterable[int]) -> float:
    """The unique non-negative root of sum_{i in S} G_i(r) = r.

    G(., S) is continuous and weakly decreasing from sum of the means down to
    0, so [0, sum of means] brackets the root; bisection refines it to
    width 1e-12 * (sum of means), so the root scales with the instance.
    A member whose support top is <= lo adds an exact +0.0 at every later
    midpoint, which fsum ignores: such rows go once they are half the set,
    and a midpoint past every top is "not above" with no G call.
    """
    idx = inst.subset(subset)
    if not idx:
        raise ValidationError("empty subset has no root threshold")
    packed = inst._packed.take(np.array(idx, dtype=np.intp))
    try:
        mu_sum = math.fsum(packed.mean().tolist())
    except OverflowError:
        raise ValidationError(
            "mean sum of the subset overflows; "
            "the variables' values exceed the floating-point range"
        ) from None
    if mu_sum <= 0.0:
        raise ValidationError("subset with zero total mean has root 0 and no guarantee")
    top = packed.top()
    top_min, top_max = float(top.min()), float(top.max())
    tol = RHO_TOL_SCALE * mu_sum
    lo, hi = 0.0, mu_sum
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # a subnormal mean sum rounds tol to 0; stop at one ulp
        if mid < top_max and math.fsum(packed.g_value(mid).tolist()) > mid:
            lo = mid
            if lo >= top_min:  # a member adds exact zeros from here on
                live = top > lo
                if 2 * np.count_nonzero(live) <= live.size:
                    packed, top = packed.take(np.flatnonzero(live)), top[live]
                top_min = float(top[top > lo].min())  # top_max > lo is kept
        else:
            hi = mid
    return 0.5 * (lo + hi)


def h_derivative_continuous(inst: Instance, r: float, subset: Iterable[int]) -> float:
    """d/dr H(r, S) = 1 - sum_{i in S} P(X_i >= r) for continuous members."""
    idx = list(inst.subset(subset))
    jumps = np.flatnonzero(inst._packed.kind[idx] == _DISCRETE)
    if jumps.size:
        raise ValidationError(
            f"variable {idx[jumps[0]]} has a discontinuous CDF; derivative undefined")
    return 1.0 - math.fsum(inst._packed.survival(r)[idx].tolist())
