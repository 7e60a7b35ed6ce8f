"""Non-negative random variables with closed-form evaluation oracles.

Every family exposes the two oracles all downstream constructions rely on,
the inclusive survival probability P(X >= r) and the conditional tail
expectation E[X | X >= r], plus the tail moment E[(X - r)^+] and `draw`,
which maps one uniform to one sample.  All oracle values are closed-form; no
quadrature is involved, so numerical error budgets downstream are dominated
by search tolerances.

Supported families: finite discrete, uniform, exponential, and a two-way
mixture that nests at most one level deep (used for the fractional pair in
the continuous construction).
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from bisect import bisect_left
from itertools import accumulate

import numpy as np

from .errors import ValidationError, ZeroTail

PROB_SUM_TOL = 1e-12
_BELOW_ONE = np.nextafter(1.0, 0.0)


class Distribution(ABC):
    """A non-negative random variable with closed-form oracles."""

    #: True when the CDF is continuous everywhere.
    is_continuous: bool = False

    @abstractmethod
    def mean(self) -> float:
        """E[X]."""

    @abstractmethod
    def survival(self, r: float) -> float:
        """P(X >= r), inclusive at atoms; weakly decreasing in r."""

    @abstractmethod
    def tail_moment_one(self, r: float) -> float:
        """E[X * 1{X >= r}]."""

    @abstractmethod
    def draw(self, u):
        """Map uniforms u in [0, 1) to samples, one each; vectorized."""

    def cond_exp_ge(self, r: float) -> float:
        """E[X | X >= r].

        Raises ZeroTail when the conditioning event has probability zero.
        """
        s = self.survival(r)
        if s <= 0.0:
            raise ZeroTail(f"P(X >= {r!r}) = 0, conditional expectation undefined")
        return self.tail_moment_one(r) / s

    def g_value(self, r: float) -> float:
        """E[(X - r)^+] = P(X >= r) * (E[X | X >= r] - r).

        Returns 0 on an empty tail, absorbing the ZeroTail case.  Weakly
        decreasing and convex in r; equals mean() at r <= 0.
        """
        s = self.survival(r)
        if s <= 0.0:
            return 0.0
        return max(self.tail_moment_one(r) - r * s, 0.0)


class DiscreteFinite(Distribution):
    """Finite-support distribution given as (value, probability) atoms.

    Atoms are sorted and duplicate values merged.  Values must be
    non-negative, probabilities in (0, 1] summing to 1 within 1e-12.
    """

    is_continuous = False

    def __init__(self, atoms) -> None:
        items = [(float(v), float(p)) for v, p in atoms]
        if not items:
            raise ValidationError("discrete distribution needs at least one atom")
        for v, p in items:
            if not math.isfinite(v) or v < 0.0:
                raise ValidationError(f"support value {v!r} must be finite and non-negative")
            if not 0.0 < p <= 1.0:
                raise ValidationError(f"atom probability {p!r} must lie in (0, 1]")
        total = math.fsum(p for _, p in items)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"atom probabilities sum to {total!r}, not 1")
        merged: dict[float, float] = {}
        for v, p in items:
            merged[v] = merged.get(v, 0.0) + p
        values = sorted(merged)
        probs = [merged[v] for v in values]
        self.values = np.array(values, dtype=float)
        self.probs = np.array(probs, dtype=float)
        # Suffix sums make survival and the tail moment one bisect each.  They
        # are Python floats, summed from the top atom down in sequence, so
        # every bit matches a cumulative sum over the reversed atoms.
        self._vals = tuple(values)
        self._tail_p = tuple(accumulate(reversed(probs)))[::-1] + (0.0,)
        self._tail_pv = tuple(accumulate(
            p * v for v, p in zip(reversed(values), reversed(probs))
        ))[::-1] + (0.0,)

    def __repr__(self) -> str:
        pairs = ", ".join(f"({v!r}, {p!r})" for v, p in zip(self.values, self.probs))
        return f"DiscreteFinite([{pairs}])"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiscreteFinite)
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.probs, other.probs)
        )

    def mean(self) -> float:
        return float(np.dot(self.values, self.probs))

    def survival(self, r: float) -> float:
        idx = bisect_left(self._vals, r)
        if idx == 0:
            return 1.0  # full mass; suffix float sums may fall 1 ulp short
        return self._tail_p[idx]

    def tail_moment_one(self, r: float) -> float:
        return self._tail_pv[bisect_left(self._vals, r)]

    def g_value(self, r: float) -> float:
        # Distribution.g_value with one shared lookup.
        idx = bisect_left(self._vals, r)
        s = 1.0 if idx == 0 else self._tail_p[idx]
        if s <= 0.0:
            return 0.0
        return max(self._tail_pv[idx] - r * s, 0.0)

    def draw(self, u):
        idx = np.searchsorted(np.cumsum(self.probs), u, side="right")
        idx = np.minimum(idx, len(self.values) - 1)
        return self.values[idx]


class Uniform(Distribution):
    """Uniform distribution on [a, b] with 0 <= a < b."""

    is_continuous = True

    def __init__(self, a: float, b: float) -> None:
        a, b = float(a), float(b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValidationError("uniform endpoints must be finite")
        if a < 0.0:
            raise ValidationError(f"uniform lower endpoint {a!r} must be non-negative")
        if b <= a:
            raise ValidationError(f"uniform needs b > a, got a={a!r}, b={b!r}")
        self.a = a
        self.b = b

    def __repr__(self) -> str:
        return f"Uniform({self.a!r}, {self.b!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Uniform) and (self.a, self.b) == (other.a, other.b)

    def mean(self) -> float:
        return 0.5 * (self.a + self.b)

    def survival(self, r: float) -> float:
        if r <= self.a:
            return 1.0
        if r >= self.b:
            return 0.0
        return (self.b - r) / (self.b - self.a)

    def tail_moment_one(self, r: float) -> float:
        if r <= self.a:
            return self.mean()
        if r >= self.b:
            return 0.0
        # integral of x/(b-a) over [r, b]
        num = self.b * self.b - r * r
        if num < sys.float_info.min:
            # b*b and r*r underflow at tiny scales; this form does not.
            d = self.b - r
            return (d / (self.b - self.a)) * (r + 0.5 * d)
        return num / (2.0 * (self.b - self.a))

    def g_value(self, r: float) -> float:
        if r <= self.a:
            return self.mean() - r
        if r >= self.b:
            return 0.0
        d = self.b - r
        if d * d < sys.float_info.min:
            return (d / (self.b - self.a)) * (0.5 * d)  # d*d underflows
        return d * d / (2.0 * (self.b - self.a))

    def draw(self, u):
        return self.a + u * (self.b - self.a)


class Exponential(Distribution):
    """Exponential distribution with the given positive rate."""

    is_continuous = True

    def __init__(self, rate: float) -> None:
        rate = float(rate)
        if not math.isfinite(rate) or rate <= 0.0:
            raise ValidationError(f"exponential rate {rate!r} must be positive")
        self.rate = rate

    def __repr__(self) -> str:
        return f"Exponential({self.rate!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Exponential) and self.rate == other.rate

    def mean(self) -> float:
        return 1.0 / self.rate

    def survival(self, r: float) -> float:
        if r <= 0.0:
            return 1.0
        return math.exp(-self.rate * r)

    def tail_moment_one(self, r: float) -> float:
        if r <= 0.0:
            return self.mean()
        # memorylessness: E[X | X >= r] = r + 1/rate
        return math.exp(-self.rate * r) * (r + 1.0 / self.rate)

    def g_value(self, r: float) -> float:
        if r <= 0.0:
            return self.mean() - r
        return math.exp(-self.rate * r) / self.rate

    def draw(self, u):
        return -np.log1p(-u) / self.rate


class Mixture(Distribution):
    """Two-way mixture: X = L with probability weight, else R.

    Children may not themselves be mixtures; one nesting level suffices for
    the fractional-pair variable of the continuous construction.
    """

    def __init__(self, weight: float, left: Distribution, right: Distribution) -> None:
        weight = float(weight)
        if not 0.0 <= weight <= 1.0:
            raise ValidationError(f"mixture weight {weight!r} must lie in [0, 1]")
        if isinstance(left, Mixture) or isinstance(right, Mixture):
            raise ValidationError("mixtures nest at most one level deep")
        self.weight = weight
        self.left = left
        self.right = right
        self.is_continuous = left.is_continuous and right.is_continuous

    def __repr__(self) -> str:
        return f"Mixture({self.weight!r}, {self.left!r}, {self.right!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mixture)
            and self.weight == other.weight
            and self.left == other.left
            and self.right == other.right
        )

    def mean(self) -> float:
        return self.weight * self.left.mean() + (1.0 - self.weight) * self.right.mean()

    def survival(self, r: float) -> float:
        return (
            self.weight * self.left.survival(r)
            + (1.0 - self.weight) * self.right.survival(r)
        )

    def tail_moment_one(self, r: float) -> float:
        return (
            self.weight * self.left.tail_moment_one(r)
            + (1.0 - self.weight) * self.right.tail_moment_one(r)
        )

    def g_value(self, r: float) -> float:
        return (
            self.weight * self.left.g_value(r)
            + (1.0 - self.weight) * self.right.g_value(r)
        )

    def draw(self, u):
        # u < weight picks the left branch; either part, rescaled to [0, 1),
        # is again uniform and drives that branch.  The right part can round
        # up to 1.0, where an Exponential draw is infinite.
        w = self.weight
        out = np.empty_like(u)
        left = u < w
        out[left] = self.left.draw(u[left] / w)
        right = np.minimum((u[~left] - w) / (1.0 - w), _BELOW_ONE)
        out[~left] = self.right.draw(right)
        return out


def point_mass(value: float) -> DiscreteFinite:
    """Degenerate distribution putting all mass on one value."""
    return DiscreteFinite([(value, 1.0)])
