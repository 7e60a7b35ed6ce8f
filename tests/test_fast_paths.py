"""Property tests: the fast paths equal their reference forms bit for bit.

``DiscreteFinite`` answers ``survival``, ``tail_moment_one`` and ``g_value``
by indexing its slots of the batch's suffix-sum arrays at the count of
values below r; the reference kept here builds its own arrays per variable
(``np.searchsorted`` over ``np.cumsum`` suffix sums).  The tie class and
``TieClass.fill`` use a stable numpy argsort of the negated keys, and the
envelope takes its k largest G values with ``np.partition``; the reference
is a sort by the explicit ``(-g, i)`` key.
The exact oracles run a DP keyed by (best value, unprobed set) with cached
last-probe values, and score blocks of subsets on the block's merged grid;
the references are the DP keyed by (budget, best value, unprobed set) and
the E[max] of one subset on its own merged grid, one ``math.fsum``.
"""

import math
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import h_value
from probemax import (
    DiscreteFinite,
    Instance,
    Uniform,
    adaptive_optimum_dp,
    expected_max_exact_discrete,
    point_mass,
    static_optimum_enum,
)
from probemax import oracles
from probemax.gap2 import TIE_TOL, build_tilde_set, tie_class_at
from probemax.gap_continuous import CONT_TIE_TOL, construct_s_minus_plus
from probemax.minmax import h_max

SETTINGS = settings(max_examples=200, deadline=None)

# A small grid makes duplicate values (merged atoms) and tied G values common.
GRID = (0.0, -0.0, 0.5, 1.0, 2.5, 3.0, 1e-300, 1e300)
VALUES = st.one_of(
    st.sampled_from(GRID),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)
# Values a few ulps of the tie tolerance apart: a tie class then holds
# unequal G values, so its members are not in index order.
NEAR_TIES = st.sampled_from((0.0, 0.5, 1.0, 1.0 + 1e-13, 1.0 + 3e-13, 2.5))


class SearchsortedReference:
    """The numpy suffix-sum oracles of a discrete distribution."""

    def __init__(self, d: DiscreteFinite) -> None:
        probs, values = d.probs, d.values
        self.values = values
        self.tail_p = np.concatenate([np.cumsum(probs[::-1])[::-1], [0.0]])
        self.tail_pv = np.concatenate([np.cumsum((probs * values)[::-1])[::-1], [0.0]])

    def _index(self, r: float) -> int:
        return int(np.searchsorted(self.values, r, side="left"))

    def survival(self, r: float) -> float:
        idx = self._index(r)
        return 1.0 if idx == 0 else float(self.tail_p[idx])

    def tail_moment_one(self, r: float) -> float:
        return float(self.tail_pv[self._index(r)])

    def g_value(self, r: float) -> float:
        s = self.survival(r)
        if s <= 0.0:
            return 0.0
        return max(self.tail_moment_one(r) - r * s, 0.0)


@st.composite
def discrete(draw, max_atoms=6, values=VALUES):
    values = draw(st.lists(values, min_size=1, max_size=max_atoms))
    weights = draw(st.lists(st.integers(1, 10), min_size=len(values), max_size=len(values)))
    total = sum(weights)
    return DiscreteFinite([(v, w / total) for v, w in zip(values, weights)])


def probe_points(d: DiscreteFinite) -> list[float]:
    """Points at, between, just beside, below and above the atoms."""
    vals = d.values.tolist()
    points = [-0.0, 0.0, -1.0, vals[0] - 1.0, vals[-1] + 1.0, vals[-1] * 2.0]
    for v in vals:
        points += [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]
    points += [0.5 * (a + b) for a, b in zip(vals, vals[1:])]
    return points


def bits(x) -> str:
    assert type(x) is float
    return x.hex()


@SETTINGS
@given(discrete(), st.floats(allow_nan=False, allow_infinity=False))
def test_discrete_oracles_match_searchsorted(d, extra):
    ref = SearchsortedReference(d)
    for r in probe_points(d) + [extra]:
        assert bits(d.survival(r)) == bits(ref.survival(r)), r
        assert bits(d.tail_moment_one(r)) == bits(ref.tail_moment_one(r)), r
        assert bits(d.g_value(r)) == bits(ref.g_value(r)), r


def reference_order(gs: list[float]) -> list[int]:
    return sorted(range(len(gs)), key=lambda i: (-gs[i], i))


@st.composite
def tied_point_masses(draw):
    """Point masses on a tiny grid, one positive; G at 0 is the value itself."""
    values = draw(st.lists(st.sampled_from((0.0, -0.0, 1.0, 2.0, 3.0)), min_size=1, max_size=30))
    values.insert(draw(st.integers(0, len(values))), 2.0)
    k = draw(st.integers(1, len(values)))
    return Instance([point_mass(v) for v in values], k)


@SETTINGS
@given(tied_point_masses(), st.sampled_from((0.0, -0.0, 0.5, 1.0, 2.0, 2.5)))
def test_envelope_and_tie_class_sort_like_the_index_key(inst, r):
    gs = [d.g_value(r) for d in inst.dists]
    order = reference_order(gs)
    tc = tie_class_at(inst, r)
    ranked = tc.prefix + tc.tied
    assert ranked == tuple(order[: len(ranked)])
    assert len(tc.prefix) + tc.slots == inst.k
    pivot = gs[order[inst.k - 1]]
    assert all(gs[i] > pivot for i in tc.prefix)
    assert all(gs[i] == pivot for i in tc.tied)
    assert all(gs[i] < pivot for i in order[len(ranked):])
    value = h_max(inst, r)
    assert bits(value) == bits(r + math.fsum(gs[i] for i in order[: inst.k]))
    assert bits(value) == bits(h_value(inst, r, tc.prefix + tc.tied[: tc.slots]))


@SETTINGS
@given(
    st.lists(discrete(max_atoms=2, values=NEAR_TIES), min_size=1, max_size=12).filter(
        lambda ds: max(d.mean() for d in ds) > 0.0),
    st.data(),
)
def test_tilde_set_fills_slots_like_the_index_key(dists, data):
    inst = Instance(dists, data.draw(st.integers(1, len(dists))))
    r_anchor = data.draw(st.sampled_from((0.0, 0.5, 1.0, 2.5)))
    r_probe = data.draw(st.sampled_from((0.0, 0.75, 1.0, 3.0)))
    tc = tie_class_at(inst, r_anchor)
    gs_probe = [d.g_value(r_probe) for d in inst.dists]
    fill = sorted(tc.tied, key=lambda i: (-gs_probe[i], i))[: tc.slots]
    assert build_tilde_set(inst, r_anchor, r_probe) == tuple(sorted(tc.prefix + tuple(fill)))


@SETTINGS
@given(
    # Means 1e-9 apart tie within CONT_TIE_TOL without being equal.
    st.lists(st.tuples(st.sampled_from((0.0, 0.25, 0.25 + 1e-9, 0.5)),
                       st.sampled_from((1.0, 1.0 + 2e-9, 1.5, 2.0))),
             min_size=1, max_size=12),
    st.data(),
)
def test_s_minus_plus_fill_slots_like_the_index_key(ends, data):
    inst = Instance([Uniform(a, b) for a, b in ends], data.draw(st.integers(1, len(ends))))
    r_star = data.draw(st.sampled_from((0.0, 0.25, 0.75, 1.25)))
    tc = tie_class_at(inst, r_star, tol=CONT_TIE_TOL)
    surv = {i: inst.dists[i].survival(r_star) for i in tc.tied}
    lo_first = sorted(tc.tied, key=lambda i: (surv[i], i))[: tc.slots]
    hi_first = sorted(tc.tied, key=lambda i: (-surv[i], i))[: tc.slots]
    s_minus, s_plus = construct_s_minus_plus(inst, r_star)
    assert s_minus == tuple(sorted(tc.prefix + tuple(lo_first)))
    assert s_plus == tuple(sorted(tc.prefix + tuple(hi_first)))


@SETTINGS
@given(
    st.lists(discrete(max_atoms=2, values=NEAR_TIES), min_size=1, max_size=12).filter(
        lambda ds: max(d.mean() for d in ds) > 0.0),
    st.data(),
)
def test_every_fill_is_an_envelope_maximizer(dists, data):
    inst = Instance(dists, data.draw(st.integers(1, len(dists))))
    r = data.draw(st.sampled_from((0.0, 0.5, 1.0, 2.5)))
    tol = data.draw(st.sampled_from((TIE_TOL, CONT_TIE_TOL)))
    keys = data.draw(st.lists(st.sampled_from((-1.0, 0.0, 0.5, 2.0)),
                              min_size=inst.n, max_size=inst.n))
    chosen = tie_class_at(inst, r, tol=tol).fill(keys)
    assert len(chosen) == inst.k and chosen == tuple(sorted(set(chosen)))
    # Each slot trades a tied member for one within 2 * tol * mu_max of it.
    assert abs(h_value(inst, r, chosen) - h_max(inst, r)) <= 2 * inst.k * tol * inst.mu_max


def reference_dp(inst: Instance) -> float:
    """The adaptive optimum as a DP memoized over (budget, best value, mask)."""
    supports = [list(zip(d.values.tolist(), d.probs.tolist())) for d in inst.dists]
    memo: dict[tuple[int, float, int], float] = {}

    def best(kappa: int, r: float, mask: int) -> float:
        if kappa == 0 or mask == 0:
            return r
        key = (kappa, r, mask)
        if key not in memo:
            value = r
            for i in range(inst.n):
                bit = 1 << i
                if mask & bit:
                    exp = math.fsum(
                        p * best(kappa - 1, max(r, v), mask ^ bit) for v, p in supports[i]
                    )
                    if exp > value:
                        value = exp
            memo[key] = value
        return memo[key]

    return best(inst.k, 0.0, (1 << inst.n) - 1)


def reference_expected_max(dists, subset) -> float:
    """E[max] of one subset on the merged grid of its own members' values."""
    members = [dists[i] for i in sorted(set(subset))]
    grid = np.array(sorted(set(v for d in members for v in d.values.tolist())))
    cdf = np.ones_like(grid)
    for d in members:
        member_cdf = np.zeros_like(grid)
        np.add.at(member_cdf, np.searchsorted(grid, d.values), d.probs)
        cdf = cdf * np.cumsum(member_cdf)
    pmf = np.diff(np.concatenate([[0.0], cdf]))
    return math.fsum((grid * pmf).tolist())


def reference_static(inst: Instance) -> tuple[float, tuple[int, ...]]:
    best_value, best_subset = -math.inf, None
    for subset in combinations(range(inst.n), inst.k):
        value = reference_expected_max(inst.dists, subset)
        if value > best_value:
            best_value, best_subset = value, subset
    return best_value, best_subset


COIN = DiscreteFinite([(0.0, 0.5), (1.0, 0.5)])
# Signed zeros, shared atoms and a few free values; one atom makes a point mass.
ORACLE_VALUES = st.one_of(
    st.sampled_from((0.0, -0.0, 0.5, 1.0, 2.0, 3.5)),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def oracle_instances(draw, max_atoms=4):
    """Small discrete instances; copies from a pool of variables make tied subsets."""
    variables = discrete(max_atoms=max_atoms, values=ORACLE_VALUES)
    pool = draw(st.lists(variables, min_size=1, max_size=3))
    dists = draw(st.lists(
        st.one_of(st.sampled_from(pool), variables), min_size=1, max_size=6,
    ).filter(lambda ds: max(d.mean() for d in ds) > 0.0))
    return Instance(dists, draw(st.integers(1, len(dists))))


@SETTINGS
@given(oracle_instances())
@example(Instance([point_mass(0.0), point_mass(-0.0), point_mass(2.0)], 2))
@example(Instance([DiscreteFinite([(-0.0, 0.5), (1.0, 0.5)]), point_mass(0.0)], 1))
@example(Instance([point_mass(3.0)], 1))
def test_adaptive_dp_matches_the_budget_keyed_dp(inst):
    assert bits(adaptive_optimum_dp(inst)) == bits(reference_dp(inst))


def scored_enum(inst: Instance, cells: int):
    """static_optimum_enum at `cells` per block, and each subset it scored with its score."""
    scores = {}
    score = oracles._expected_maxima

    def record(members, subsets):
        values = score(members, subsets)
        scores.update(zip(map(tuple, subsets.tolist()), values))
        return values

    with mock.patch.object(oracles, "_BLOCK_CELLS", cells), \
            mock.patch.object(oracles, "_expected_maxima", record):
        return static_optimum_enum(inst), scores


@SETTINGS
@given(oracle_instances(max_atoms=12),
       st.one_of(st.integers(1, 256), st.just(oracles._BLOCK_CELLS)))
@example(Instance([COIN] * 5, 2), 1)
@example(Instance([point_mass(1.0)] * 4, 4), 64)
@example(Instance([point_mass(-0.0), point_mass(0.0), point_mass(0.0), point_mass(1.0)], 2), 256)
def test_static_enum_matches_the_per_subset_scan(inst, cells):
    # Few cells per block put the subsets in many blocks; the first witness
    # of the best value must still win across block boundaries, and each
    # subset gets the bits it gets when scored alone, whatever its block.
    (value, witness), scores = scored_enum(inst, cells)
    ref_value, ref_witness = reference_static(inst)
    assert bits(value) == bits(ref_value)
    assert witness == ref_witness
    assert len(scores) == math.comb(inst.n, inst.k)
    for subset, score in scores.items():
        assert bits(score) == bits(expected_max_exact_discrete(inst.dists, subset))


@SETTINGS
@given(st.lists(discrete(max_atoms=4, values=ORACLE_VALUES), min_size=1, max_size=6), st.data())
def test_expected_max_matches_the_per_subset_grid(dists, data):
    subset = data.draw(st.lists(st.integers(0, len(dists) - 1), min_size=1, unique=True))
    assert bits(expected_max_exact_discrete(dists, subset)) == bits(
        reference_expected_max(dists, subset))


@pytest.mark.parametrize("values", [(-0.0,), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0, 0.0)])
def test_expected_max_of_zeros_is_positive_zero(values):
    # fsum of zeros is +0.0, whichever zero the grid keeps and in any block.
    dists = [point_mass(v) for v in values] + [point_mass(1.0)]
    subset = tuple(range(len(values)))
    assert bits(expected_max_exact_discrete(dists, subset)) == bits(0.0)
    for cells in (1, 2, 64):
        assert bits(scored_enum(Instance(dists, len(values)), cells)[1][subset]) == bits(0.0)
