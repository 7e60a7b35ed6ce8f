"""Non-negative random variables with closed-form evaluation oracles.

Every family exposes the two oracles all downstream constructions rely on,
the inclusive survival probability P(X >= r) and the conditional tail
expectation E[X | X >= r], plus the tail moment E[(X - r)^+] and `draw`,
which maps one uniform to one sample.  All oracle values are closed-form; no
quadrature is involved, so numerical error budgets downstream are dominated
by search tolerances.

Supported families: finite discrete, uniform and exponential.  An
`Instance` holds its variables as columns, one set per family (`_Packed`
below), whose batches evaluate a whole family at once; a scalar object is
a view of one row, made on demand.  The scalar methods are the bit-level
reference for the batches.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from .errors import ValidationError

PROB_SUM_TOL = 1e-12
# Largest atom count DiscreteFinite.draw counts cuts for (its uint8 index
# holds up to 255).  On 2^16 uniforms (2-vCPU Xeon, numpy 2.4) counting
# costs 0.2-0.4 ms up to 32 atoms and about 1 ms at 128, against 0.5-2.4 ms
# for searchsorted; at 256 atoms the two were even.
_COUNT_DRAW_MAX_ATOMS = 128
# Rounding in a plain sum of m probabilities is at most (m - 1) * 2**-53 of
# their total; at 2048 atoms that is under PROB_SUM_TOL / 4.
_PLAIN_SUM_MAX_ATOMS = 2048


def _real(r) -> float:
    """r as a float; a real beyond the float range, such as 10**400, is +-inf."""
    try:
        return float(r)
    except OverflowError:
        return math.inf if r > 0 else -math.inf


class Distribution(ABC):
    """A non-negative random variable with closed-form oracles."""

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
        """Map uniforms u in [0, 1) to float64 samples, one each; vectorized.

        Each sample depends on its own uniform only.
        """

    def cond_exp_ge(self, r: float) -> float:
        """E[X | X >= r].

        Raises ValidationError when the conditioning event has probability zero.
        """
        r = _real(r)
        s = self.survival(r)
        if s <= 0.0:
            raise ValidationError(f"P(X >= {r!r}) = 0, conditional expectation undefined")
        return self.tail_moment_one(r) / s

    @abstractmethod
    def g_value(self, r: float) -> float:
        """E[(X - r)^+] = P(X >= r) * (E[X | X >= r] - r).

        Returns 0 on an empty tail, where cond_exp_ge is undefined.  Weakly
        decreasing and convex in r; equals mean() - r at r <= 0.
        """


class DiscreteFinite(Distribution):
    """Finite-support distribution given as (value, probability) atoms.

    Atoms are sorted and duplicate values merged.  Values must be
    non-negative, probabilities in (0, 1] summing to 1 within 1e-12.
    """

    def __init__(self, atoms) -> None:
        items = [(_real(v), _real(p)) for v, p in atoms]
        row = _DiscreteBatch.checked([v for v, _ in items], [p for _, p in items], [len(items)])
        self.values, self.probs, self._tails = row.values, row.probs, row.tails

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"({v!r}, {p!r})" for v, p in zip(self.values.tolist(), self.probs.tolist())
        )
        return f"DiscreteFinite([{pairs}])"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiscreteFinite)
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.probs, other.probs)
        )

    def mean(self) -> float:
        return float(self._tails[1, 0])  # the top suffix sum of P * v

    def _tail(self, r: float) -> list[float]:
        """[P(X >= r), E[X * 1{X >= r}]]: the tail slots at the count of values < r."""
        return self._tails[:, np.count_nonzero(self.values < r)].tolist()

    def survival(self, r: float) -> float:
        return self._tail(_real(r))[0]

    def tail_moment_one(self, r: float) -> float:
        return self._tail(_real(r))[1]

    def g_value(self, r: float) -> float:
        r = _real(r)
        s, moment = self._tail(r)
        g = moment - r * s
        # A -0.0 stays; NaN, on the empty tail at r = inf or at r = NaN, is 0.0.
        return g if g >= 0.0 else 0.0

    def draw(self, u):
        """Samples values[min(searchsorted(cumsum(probs), u, "right"), m - 1)].

        Exactness contract: for every u that is not NaN, of any shape
        (0-d included), the result equals that reference bit for bit.  The
        index is the number of interior cumulative sums (all but the last)
        at or below u; since the sums never decrease, that count is the
        clipped searchsorted.  Up to _COUNT_DRAW_MAX_ATOMS atoms it is
        counted with one comparison pass per cut, which costs less than a
        binary search whose branches mispredict on random keys; above,
        searchsorted runs over the interior cuts.
        """
        u = np.asarray(u)
        cuts = np.cumsum(self.probs)[:-1]
        if len(self.values) > _COUNT_DRAW_MAX_ATOMS:
            return self.values[np.searchsorted(cuts, u, side="right")]
        idx = np.zeros(u.shape, dtype=np.uint8)
        above = np.empty(u.shape, dtype=bool)
        for cut in cuts.tolist():
            np.greater_equal(u, cut, out=above)
            idx += above.view(np.uint8)
        return self.values.take(idx)


def _first_invalid_row(values, probs, sizes) -> tuple[int, str] | None:
    """The first row DiscreteFinite would reject, with its message, or None.

    A row is rejected when it is empty, when an atom has a value that is
    not finite and non-negative or a probability outside (0, 1] (the first
    such atom names the error, its value before its probability), or when
    abs(math.fsum(probs) - 1.0) exceeds PROB_SUM_TOL.
    """
    ends = np.cumsum(sizes)
    found = None
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        found = (int(empty[0]), "discrete distribution needs at least one atom")
    ok_value = np.isfinite(values) & (values >= 0.0)
    bad = np.flatnonzero(~(ok_value & (probs > 0.0) & (probs <= 1.0)))
    if bad.size:
        i = int(bad[0])
        row = int(np.searchsorted(ends, i, side="right"))
        if found is None or row < found[0]:
            v, p = values[i].item(), probs[i].item()
            if ok_value[i]:
                found = (row, f"atom probability {p!r} must lie in (0, 1]")
            else:
                found = (row, f"support value {v!r} must be finite and non-negative")
    checked = len(sizes) if found is None else found[0]
    if checked == 0:
        return found
    # A row whose plain sum lies within TOL/2 of 1 passes without fsum: for
    # at most _PLAIN_SUM_MAX_ATOMS probabilities in (0, 1], in any order of
    # addition, that sum is within TOL/4 of the exact one, so fsum's
    # correctly rounded total is within TOL of 1 as well.
    sizes = sizes[:checked]
    plain = np.add.reduceat(probs[:ends[checked - 1]], ends[:checked] - sizes)
    unsure = (np.abs(plain - 1.0) > 0.5 * PROB_SUM_TOL) | (sizes > _PLAIN_SUM_MAX_ATOMS)
    for row in np.flatnonzero(unsure).tolist():
        total = math.fsum(probs[ends[row] - sizes[row]:ends[row]].tolist())
        if abs(total - 1.0) > PROB_SUM_TOL:
            return row, f"atom probabilities sum to {total!r}, not 1"
    return found


def _sort_rows(values, probs, sizes):
    """Sort each row by value and merge repeated values, as DiscreteFinite does.

    A merged atom keeps the value seen first and adds the probabilities in
    input order, as a dict keyed by value would (so -0.0 and 0.0 merge); a
    sum that rounds above 1 is 1, so the merged row is a valid one again.
    """
    row = np.repeat(np.arange(len(sizes)), sizes)
    same_row = row[1:] == row[:-1]
    if not np.any(same_row & (values[1:] <= values[:-1])):
        return values, probs, sizes
    order = np.lexsort((values, row))  # stable: equal values stay in input order
    values, probs = values[order], probs[order]
    repeat = np.flatnonzero(same_row & (values[1:] == values[:-1])) + 1
    if repeat.size:
        first = np.arange(len(values))
        first[repeat] = 0
        np.maximum.accumulate(first, out=first)
        np.add.at(probs, first[repeat], probs[repeat])  # unbuffered: in index order
        np.minimum(probs, 1.0, out=probs)  # a merged 1 + ulp stays a valid probability
        keep = np.ones(len(values), dtype=bool)
        keep[repeat] = False
        values, probs = values[keep], probs[keep]
        sizes = sizes - np.bincount(row[repeat], minlength=len(sizes))
    return values, probs, sizes


def _tail_sums(values, probs, sizes) -> np.ndarray:
    """The suffix sums of P and P * v of every row, in two lines of one array.

    Row j's m_j + 1 sums start at starts[j] + j and end in 0.0.  Each adds
    one atom at a time from the top down, as accumulate over the reversed
    row does, so every bit matches a build row by row; one np.cumsum runs
    per group of rows of equal length, so no row is padded to the longest.
    The first P slot holds 1.0, the full mass, which a float sum may fall
    1 ulp short of.
    """
    terms = np.stack((probs, probs * values))
    starts = np.cumsum(sizes) - sizes
    tails = np.zeros((2, len(values) + len(sizes)))
    for m in set(sizes.tolist()):
        rows = np.flatnonzero(sizes == m)
        top_down = starts[rows][:, None] + np.arange(m - 1, -1, -1)
        tails[:, top_down + rows[:, None]] = np.cumsum(terms[:, top_down], axis=2)
    tails[0, starts + np.arange(len(sizes))] = 1.0
    return tails


class Uniform(Distribution):
    """Uniform distribution on [a, b] with 0 <= a < b.

    Inside the support every oracle is one product of d = b - r and the
    survival d / (b - a), with no square of a value: nothing overflows or
    underflows unless the true value does, and nothing cancels near b.
    """

    def __init__(self, a: float, b: float) -> None:
        a, b = _real(a), _real(b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValidationError("uniform endpoints must be finite")
        if a < 0.0:
            raise ValidationError(f"uniform lower endpoint {a!r} must be non-negative")
        if b <= a:
            raise ValidationError(f"uniform needs b > a, got a={a!r}, b={b!r}")
        if not math.isfinite(0.5 * (a + b)):
            raise ValidationError(
                f"uniform endpoints a={a!r}, b={b!r} are too large: their mean overflows"
            )
        self.a = a
        self.b = b

    def __repr__(self) -> str:
        return f"Uniform({self.a!r}, {self.b!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Uniform) and (self.a, self.b) == (other.a, other.b)

    def mean(self) -> float:
        return 0.5 * (self.a + self.b)

    def survival(self, r: float) -> float:
        r = _real(r)
        if r <= self.a:
            return 1.0
        if r >= self.b:
            return 0.0
        return (self.b - r) / (self.b - self.a)

    def tail_moment_one(self, r: float) -> float:
        r = _real(r)
        if r <= self.a:
            return self.mean()
        if r >= self.b:
            return 0.0
        # integral of x/(b-a) over [r, b]: the survival times the midpoint of [r, b]
        d = self.b - r
        return (d / (self.b - self.a)) * (r + 0.5 * d)

    def cond_exp_ge(self, r: float) -> float:
        r = _real(r)
        if self.a < r < self.b:
            return r + 0.5 * (self.b - r)  # the midpoint of [r, b], which stays inside it
        return super().cond_exp_ge(r)

    def g_value(self, r: float) -> float:
        r = _real(r)
        if r <= self.a:
            return self.mean() - r
        if r >= self.b:
            return 0.0
        d = self.b - r
        return (d / (self.b - self.a)) * (0.5 * d)

    def draw(self, u):
        return self.a + u * (self.b - self.a)


class Exponential(Distribution):
    """Exponential distribution with the given positive rate."""

    def __init__(self, rate: float) -> None:
        rate = _real(rate)
        if not math.isfinite(rate) or rate <= 0.0:
            raise ValidationError(f"exponential rate {rate!r} must be positive")
        if not math.isfinite(1.0 / rate):
            raise ValidationError(
                f"exponential rate {rate!r} is too small: its mean 1/rate overflows"
            )
        self.rate = rate

    def __repr__(self) -> str:
        return f"Exponential({self.rate!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Exponential) and self.rate == other.rate

    def mean(self) -> float:
        return 1.0 / self.rate

    def survival(self, r: float) -> float:
        r = _real(r)
        if r <= 0.0:
            return 1.0
        return math.exp(-self.rate * r)

    def tail_moment_one(self, r: float) -> float:
        r = _real(r)
        if r <= 0.0:
            return self.mean()
        if r == math.inf:
            return 0.0  # exp(-inf) * inf would be NaN
        # memorylessness: E[X | X >= r] = r + 1/rate
        return math.exp(-self.rate * r) * (r + 1.0 / self.rate)

    def g_value(self, r: float) -> float:
        r = _real(r)
        if r <= 0.0:
            return self.mean() - r
        return math.exp(-self.rate * r) / self.rate

    def draw(self, u):
        # -log1p(-u) / rate, computed in one new array: a second temporary
        # of a simulation block's size makes the allocator hand its pages
        # back and fault them in again on every call.
        x = np.empty_like(u, dtype=float)
        np.negative(u, out=x)
        np.log1p(x, out=x)
        x /= -self.rate
        return x[()]  # a scalar for a 0-d u, as a plain ufunc call gives


def point_mass(value: float) -> DiscreteFinite:
    """Degenerate distribution putting all mass on one value."""
    return DiscreteFinite([(value, 1.0)])




def _raise_first_bad(ok, build) -> None:
    """Raise the error of the first row that a scalar constructor rejects.

    `ok` flags the rows a bulk check accepts; only the others are built
    again one at a time, by `build(row)`.  The error carries the row as its
    `row` attribute, as _DiscreteBatch.checked's does.
    """
    for row in np.flatnonzero(~ok).tolist():
        try:
            build(row)
        except ValidationError as exc:
            exc.row = row
            raise


def _ranges(starts, lengths) -> np.ndarray:
    """The indices start, ..., start + length - 1 of each pair, concatenated."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum()))


class _UniformBatch:
    """Uniform rows as the columns `a` and `b`; G is Uniform.g_value elementwise."""

    def __init__(self, a, b) -> None:
        self.a, self.b = a, b
        self._width = b - a
        self.mean = 0.5 * (a + b)
        self.top = b
        # An r below every b, or above every a, needs no mask for that end.
        self._b_min = float(np.min(b, initial=math.inf))
        self._a_max = float(np.max(a, initial=-math.inf))

    @classmethod
    def checked(cls, a, b) -> _UniformBatch:
        """The rows (a[j], b[j]), checked by Uniform's rules in bulk.

        The first row Uniform rejects raises its ValidationError, with the
        row as the error's `row` attribute.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            ok = (np.isfinite(a) & np.isfinite(b) & (a >= 0.0) & (b > a)
                  & np.isfinite(0.5 * (a + b)))
        _raise_first_bad(ok, lambda j: Uniform(a[j], b[j]))
        return cls(a, b)

    @classmethod
    def gather(cls, dists) -> _UniformBatch:
        return cls(np.array([d.a for d in dists]), np.array([d.b for d in dists]))

    def take(self, rows) -> _UniformBatch:
        return _UniformBatch(self.a[rows], self.b[rows])

    def views(self, rows) -> list[Uniform]:
        out = []
        for a, b in zip(self.a[rows].tolist(), self.b[rows].tolist()):
            d = Uniform.__new__(Uniform)
            d.a, d.b = a, b
            out.append(d)
        return out

    def g_value(self, r: float) -> np.ndarray:
        d = self.b - r
        g = d / self._width
        g *= 0.5 * d
        return self._ends(g, r, lambda low: self.mean[low] - r)

    def survival(self, r: float) -> np.ndarray:
        return self._ends((self.b - r) / self._width, r, lambda low: 1.0)

    def tail_moment_one(self, r: float) -> np.ndarray:
        d = self.b - r
        t = d / self._width
        t *= r + 0.5 * d
        return self._ends(t, r, lambda low: self.mean[low])

    def _ends(self, x: np.ndarray, r: float, below) -> np.ndarray:
        """x, the closed form inside (a, b), with 0 at r >= b and below(rows) at r <= a."""
        if r >= self._b_min:
            x[r >= self.b] = 0.0
        if r <= self._a_max:
            low = r <= self.a
            x[low] = below(low)
        return x


class _ExponentialBatch:
    """Exponential rows as the column `rate`."""

    def __init__(self, rate) -> None:
        self.rate = rate
        self._neg_rate = -rate
        self.mean = 1.0 / rate
        self.top = np.full(len(rate), math.inf)

    @classmethod
    def checked(cls, rate) -> _ExponentialBatch:
        """The rows rate[j], checked by Exponential's rules in bulk, as _UniformBatch.checked."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ok = np.isfinite(rate) & (rate > 0.0) & np.isfinite(1.0 / rate)
        _raise_first_bad(ok, lambda j: Exponential(rate[j]))
        return cls(rate)

    @classmethod
    def gather(cls, dists) -> _ExponentialBatch:
        return cls(np.array([d.rate for d in dists]))

    def take(self, rows) -> _ExponentialBatch:
        return _ExponentialBatch(self.rate[rows])

    def views(self, rows) -> list[Exponential]:
        out = []
        for rate in self.rate[rows].tolist():
            d = Exponential.__new__(Exponential)
            d.rate = rate
            out.append(d)
        return out

    def _exp(self, r: float) -> np.ndarray:
        args = (self._neg_rate * r).tolist()
        return np.fromiter(map(math.exp, args), dtype=float, count=len(args))

    def g_value(self, r: float) -> np.ndarray:
        if r <= 0.0:
            return self.mean - r
        return self._exp(r) / self.rate

    def survival(self, r: float) -> np.ndarray:
        if r <= 0.0:
            return np.ones(len(self.rate))
        return self._exp(r)

    def tail_moment_one(self, r: float) -> np.ndarray:
        if r <= 0.0:
            return self.mean.copy()
        if r == math.inf:
            return np.zeros(len(self.rate))
        return self._exp(r) * (r + self.mean)


class _DiscreteBatch:
    """Discrete rows in one CSR layout.

    Row j's sorted values and their probabilities are the sizes[j] entries
    of `values` and `probs` from starts[j] on, and its m_j + 1 tail slots
    (see _tail_sums) start at heads[j] = starts[j] + j of both lines of
    `tails`.  The count of row values < r is the index the scalar methods
    read.
    """

    def __init__(self, values, probs, sizes, tails) -> None:
        self.values, self.probs, self.sizes, self.tails = values, probs, sizes, tails
        self._starts = np.cumsum(sizes) - sizes
        self._heads = self._starts + np.arange(len(sizes))
        self._tail_p, self._tail_pv = tails  # contiguous rows index faster
        self.mean = self._tail_pv[self._heads]  # each row's top suffix sum of P * v
        self.top = values[self._starts + sizes - 1]

    @classmethod
    def checked(cls, values, probs, sizes) -> _DiscreteBatch:
        """Check, sort and sum rows of packed atoms, as DiscreteFinite does.

        Row i holds the next sizes[i] entries of `values` and `probs`.  All
        rows are checked together by DiscreteFinite's rules; the first row
        it would reject raises ValidationError with the same message, and
        the row's index as the error's `row` attribute.  A row whose mean
        overflows is rejected too, as Uniform and Exponential reject theirs.
        The batch may hold the arrays passed in; the caller must not change
        them afterwards.
        """
        values = np.asarray(values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        sizes = np.asarray(sizes, dtype=np.intp)
        invalid = _first_invalid_row(values, probs, sizes)
        # Only the rows before the first invalid one are sorted and summed;
        # the first of them whose mean, its top P * v suffix sum, overflows
        # is rejected instead.
        rows = len(sizes) if invalid is None else invalid[0]
        atoms = int(sizes[:rows].sum())
        values, probs, sizes = _sort_rows(values[:atoms], probs[:atoms], sizes[:rows])
        with np.errstate(over="ignore"):
            tails = _tail_sums(values, probs, sizes)
        batch = cls(values, probs, sizes, tails)
        huge = np.flatnonzero(batch.mean == math.inf)
        if huge.size:
            row = int(huge[0])
            top = values[batch._starts[row] + sizes[row] - 1].item()
            invalid = (row, f"support values up to {top!r} are too large: their mean overflows")
        if invalid is not None:
            exc = ValidationError(invalid[1])
            exc.row = invalid[0]
            raise exc
        return batch

    @classmethod
    def gather(cls, dists) -> _DiscreteBatch:
        return cls(
            np.concatenate([d.values for d in dists]),
            np.concatenate([d.probs for d in dists]),
            np.array([len(d.values) for d in dists], dtype=np.intp),
            np.concatenate([d._tails for d in dists], axis=1),
        )

    def take(self, rows) -> _DiscreteBatch:
        sizes = self.sizes[rows]
        atoms = _ranges(self._starts[rows], sizes)
        slots = _ranges(self._heads[rows], sizes + 1)
        return _DiscreteBatch(self.values[atoms], self.probs[atoms], sizes, self.tails[:, slots])

    def views(self, rows) -> list[DiscreteFinite]:
        """One DiscreteFinite per row, whose arrays are views of the batch's."""
        out = []
        for j, start, m in zip(rows.tolist(), self._starts[rows].tolist(),
                               self.sizes[rows].tolist()):
            # Made and filled one at a time: objects made before the class has
            # seen its attribute names get a full dict each, about 3x the memory.
            d = DiscreteFinite.__new__(DiscreteFinite)
            d.values = self.values[start:start + m]
            d.probs = self.probs[start:start + m]
            d._tails = self.tails[:, start + j:start + j + m + 1]
            out.append(d)
        return out

    def _index(self, r: float) -> np.ndarray:
        idx = np.add.reduceat(self.values < r, self._starts, dtype=np.intp)
        idx += self._heads
        return idx

    def g_value(self, r: float) -> np.ndarray:
        idx = self._index(r)
        s = self._tail_p[idx]
        g = self._tail_pv[idx]
        g -= r * s
        g[~(g >= 0.0)] = 0.0  # as in the scalar form
        return g

    def survival(self, r: float) -> np.ndarray:
        return self._tail_p[self._index(r)]

    def tail_moment_one(self, r: float) -> np.ndarray:
        return self._tail_pv[self._index(r)]


#: The families in the order of their codes in _Packed.kind, with their batches.
_FAMILIES = (DiscreteFinite, Uniform, Exponential)
_BATCHES = {DiscreteFinite: _DiscreteBatch, Uniform: _UniformBatch, Exponential: _ExponentialBatch}
#: DiscreteFinite's code in _Packed.kind: the one family whose CDF jumps.
_DISCRETE = _FAMILIES.index(DiscreteFinite)
#: Exponential's code: the one family whose support has no top.
_EXPONENTIAL = _FAMILIES.index(Exponential)


class _Packed:
    """Variables as columns: one batch per family, plus the index map.

    `kind[i]` is variable i's family, an index into _FAMILIES, and
    `batches[kind[i]]` holds it at the row that counts the variables of
    that family before i; a family with no variable has None.  Each batch
    evaluates G_i(r), P(X_i >= r) and E[X_i 1{X_i >= r}] of its family in
    one numpy pass per call and equals the scalar methods bit for bit: it repeats each scalar
    expression elementwise, and computes exp with math.exp, whose bits,
    unlike np.exp's, do not depend on the host's SIMD dispatch; this holds
    for every r that is not NaN.  The batches are called here only, under
    muted numpy overflow and invalid warnings, as Python's float arithmetic
    is silent on both.
    """

    def __init__(self, kind, batches) -> None:
        """Columns built already: `kind` and one batch or None per family."""
        self.kind = kind
        self.batches = batches
        self._row = np.empty(len(kind), dtype=np.intp)
        self._parts = []
        for c, batch in enumerate(batches):
            if batch is not None:
                idx = np.flatnonzero(kind == c)
                self._row[idx] = np.arange(idx.size)
                self._parts.append((idx, batch))
        # One family needs no scatter; its batch answers in list order.
        self._only = self._parts[0][1] if len(self._parts) == 1 else None

    @classmethod
    def gather(cls, dists) -> _Packed:
        """The columns of a sequence of variable objects, which they do not reference.

        Raises ValidationError for the first variable whose exact type is
        not one of _FAMILIES.
        """
        code = {family: c for c, family in enumerate(_FAMILIES)}
        kind = np.array([code.get(type(d), -1) for d in dists], dtype=np.int8)
        if (kind < 0).any():
            i = int((kind < 0).argmax())
            raise ValidationError(f"variable {i} is a {type(dists[i]).__name__}, "
                                  "not a DiscreteFinite, Uniform or Exponential")
        batches = []
        for c, family in enumerate(_FAMILIES):
            members = [dists[i] for i in np.flatnonzero(kind == c).tolist()]
            batches.append(_BATCHES[family].gather(members) if members else None)
        return cls(kind, batches)

    @property
    def n(self) -> int:
        return len(self.kind)

    def take(self, indices) -> _Packed:
        """The variables at `indices`, in that order, as columns of their own."""
        kind = self.kind[indices]
        rows = self._row[indices]
        batches = []
        for c, batch in enumerate(self.batches):
            picked = rows[kind == c]  # empty where the family has no variable
            batches.append(batch.take(picked) if picked.size else None)
        return _Packed(kind, batches)

    def views(self, indices) -> list[Distribution]:
        """New scalar objects of the variables at `indices`, in that order."""
        indices = np.asarray(indices, dtype=np.intp)
        kind, rows = self.kind[indices], self._row[indices]
        out: list = [None] * len(indices)
        for c, batch in enumerate(self.batches):
            if batch is not None:
                at = np.flatnonzero(kind == c)
                for pos, d in zip(at.tolist(), batch.views(rows[at])):
                    out[pos] = d
        return out

    def mean(self) -> np.ndarray:
        """E[X_i] of every variable, as its scalar mean() computes it."""
        if self._only is not None:
            return self._only.mean
        return self._gather([batch.mean for _, batch in self._parts])

    def top(self) -> np.ndarray:
        """Each support's top (largest atom, b or inf); G_i(r) is 0 at r >= top[i]."""
        if self._only is not None:
            return self._only.top
        return self._gather([batch.top for _, batch in self._parts])

    def g_value(self, r: float) -> np.ndarray:
        return self._each("g_value", r)

    def survival(self, r: float) -> np.ndarray:
        return self._each("survival", r)

    def tail_moment_one(self, r: float) -> np.ndarray:
        return self._each("tail_moment_one", r)

    def _each(self, oracle: str, r: float) -> np.ndarray:
        """One oracle of every variable at r, each family's batch called once."""
        with np.errstate(over="ignore", invalid="ignore"):
            if self._only is not None:
                return getattr(self._only, oracle)(r)
            return self._gather([getattr(batch, oracle)(r) for _, batch in self._parts])

    def _gather(self, values: list[np.ndarray]) -> np.ndarray:
        out = np.empty(self.n)
        for (idx, _), part in zip(self._parts, values):
            out[idx] = part
        return out
