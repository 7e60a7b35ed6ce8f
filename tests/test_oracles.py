"""Ground-truth oracle tests: exact DP optimum and subset enumeration."""

import gc
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from conftest import random_discrete_instance
from probemax import (
    DiscreteFinite,
    Instance,
    Uniform,
    ValidationError,
    adaptive_optimum_dp,
    expected_max_exact_discrete,
    minimize_hmax,
    point_mass,
    static_optimum_enum,
)
from probemax.errors import InstanceTooLarge
from probemax.instance_io import gen_instance

COIN = DiscreteFinite([(0, 0.5), (1, 0.5)])


def _enumerate_policy_trees(dists, avail, kappa):
    """Every deterministic adaptive policy as an explicit decision tree.

    A tree is (probe index, tuple of subtrees, one per support value of the
    probed variable); None is the stop leaf.
    """
    if kappa == 0 or not avail:
        yield None
        return
    for i in sorted(avail):
        branches = list(_enumerate_policy_trees(dists, avail - {i}, kappa - 1))
        for combo in product(branches, repeat=len(dists[i].values)):
            yield (i, combo)


def _best_policy_tree_value(dists, k):
    """Max expected reward over all policy trees, scored on joint outcomes."""
    supports = [list(zip(d.values.tolist(), d.probs.tolist())) for d in dists]

    def tree_value(tree):
        total = 0.0
        for joint in product(*supports):
            prob = math.prod(p for _, p in joint)
            reward, node = 0.0, tree
            while node is not None:
                i, combo = node
                value = joint[i][0]
                reward = max(reward, value)
                node = combo[dists[i].values.tolist().index(value)]
            total += prob * reward
        return total

    return max(
        tree_value(tree)
        for tree in _enumerate_policy_trees(dists, set(range(len(dists))), k)
    )


class TestAdaptiveOptimumDP:
    def test_single_point_mass(self):
        assert adaptive_optimum_dp(Instance([point_mass(1.0)], 1)) == 1.0

    def test_one_probe_picks_better_mean(self):
        inst = Instance([COIN, point_mass(0.6)], 1)
        assert adaptive_optimum_dp(inst) == pytest.approx(0.6, abs=1e-12)

    def test_two_probes_collect_expected_max(self):
        inst = Instance([COIN, point_mass(0.6)], 2)
        # E[max] = 0.5 * 1 + 0.5 * 0.6; order is irrelevant at k = n
        assert adaptive_optimum_dp(inst) == pytest.approx(0.8, abs=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_explicit_policy_tree_enumeration(self, seed):
        # independent oracle: enumerate every deterministic decision tree and
        # score each one over the full joint outcome space
        rng = np.random.default_rng(seed + 200)
        dists = []
        for _ in range(3):
            m = int(rng.integers(1, 4))
            w = rng.integers(1, 6, m).astype(float)
            dists.append(
                DiscreteFinite(list(zip(rng.uniform(0, 8, m).tolist(), (w / w.sum()).tolist())))
            )
        inst = Instance(dists, 2)
        assert adaptive_optimum_dp(inst) == pytest.approx(
            _best_policy_tree_value(dists, 2), abs=1e-12
        )

    def test_adaptivity_strictly_helps_somewhere(self):
        # seed 3731 of the generator family has a ~4% adaptive advantage
        inst = random_discrete_instance(3731)
        a_star = adaptive_optimum_dp(inst)
        s_star, _ = static_optimum_enum(inst)
        assert a_star > 1.03 * s_star
        assert a_star == pytest.approx(_best_policy_tree_value(list(inst.dists), inst.k), abs=1e-12)

    def test_continuous_rejected(self):
        with pytest.raises(ValidationError, match="^variable 0 is not finite discrete$"):
            adaptive_optimum_dp(Instance([Uniform(0, 1)], 1))

    def test_memo_is_freed_without_the_cyclic_collector(self):
        # About 4000 (best value, mask) memo entries and 200 (variable, best
        # value) last-probe entries; each key is a tuple the collector would
        # count if either cache outlived the call.
        inst = gen_instance(11, 6, "discrete", 5)
        gc.collect()
        gc.disable()
        try:
            adaptive_optimum_dp(inst)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable < 100  # the recursive closure, not the caches' entries

    def test_state_budget(self):
        # (k + 1) * 2^n * (1 + atoms) = 11 * 2^20 * 41, about 4.7e8 states.
        inst = Instance([COIN] * 20, 10)
        with pytest.raises(InstanceTooLarge, match="exceeds budget 5000000"):
            adaptive_optimum_dp(inst)


class TestStaticOptimumEnum:
    def test_full_set_is_expected_max(self):
        inst = Instance([COIN, point_mass(0.6)], 2)
        value, argmax = static_optimum_enum(inst)
        assert argmax == (0, 1)
        assert value == pytest.approx(0.8, abs=1e-12)

    def test_point_masses_pick_largest(self):
        inst = Instance([point_mass(1.0), point_mass(2.0), point_mass(3.0)], 1)
        value, argmax = static_optimum_enum(inst)
        assert (value, argmax) == (pytest.approx(3.0), (2,))

    def test_subset_budget(self):
        inst = Instance([COIN] * 20, 10)
        with pytest.raises(InstanceTooLarge, match="184756 subsets exceed budget 100000"):
            static_optimum_enum(inst)

    def test_memory_bounded_in_the_number_of_subsets(self):
        # Every variable has atoms on one 1500-point grid, so both instances
        # score subsets over the same grid; 924 subsets must not need more
        # memory than 70 (one table of all subsets would take 13x more).
        rng = np.random.default_rng(11)
        grid = np.linspace(0.0, 10.0, 1500)

        def inst(n, k):
            dists = []
            for _ in range(n):
                w = rng.random(grid.size) + 0.1
                dists.append(DiscreteFinite(list(zip(grid.tolist(), (w / w.sum()).tolist()))))
            return Instance(dists, k)

        peaks = []
        for case in (inst(8, 4), inst(12, 6)):  # 70 and 924 subsets
            tracemalloc.start()
            try:
                static_optimum_enum(case)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    @pytest.mark.parametrize("seed", range(8))
    def test_against_direct_recomputation(self, seed):
        inst = random_discrete_instance(seed + 7000, n_lo=4, n_hi=4)
        value, argmax = static_optimum_enum(inst)
        # second path: joint-outcome enumeration over the chosen subset
        members = [inst.dists[i] for i in argmax]
        direct = math.fsum(
            max(vals) * math.prod(ps)
            for combo in product(*(range(len(d.values)) for d in members))
            for vals, ps in [(
                [members[i].values[j] for i, j in enumerate(combo)],
                [members[i].probs[j] for i, j in enumerate(combo)],
            )]
        )
        assert value == pytest.approx(direct, abs=1e-12)
        from itertools import combinations

        for subset in combinations(range(inst.n), inst.k):
            assert value >= expected_max_exact_discrete(inst.dists, subset) - 1e-12

    def test_continuous_rejected(self):
        # An exact continuous E[max] would answer S* = E[max(U(0,2), U(0,3))]
        # = 3/2 + 2/9 (by direct integration) with witness (1, 2) here.
        inst = Instance([Uniform(0, 1), Uniform(0, 2), Uniform(0, 3)], 2)
        with pytest.raises(ValidationError, match="^variable 0 is not finite discrete$"):
            static_optimum_enum(inst)


class TestSandwichAndMonotonicity:
    @pytest.mark.parametrize("seed", range(40))
    def test_sandwich(self, seed):
        inst = random_discrete_instance(seed + 8000)
        s_star, _ = static_optimum_enum(inst)
        a_star = adaptive_optimum_dp(inst)
        u_star = minimize_hmax(inst, 1e-6 * inst.mu_max).u_star
        assert s_star <= a_star + 1e-6
        assert a_star <= u_star + 1e-6
        assert a_star >= inst.mu_max - 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_monotone_in_budget(self, seed):
        base = random_discrete_instance(seed + 9000, n_lo=3, n_hi=5)
        prev_a, prev_s = 0.0, 0.0
        for k in range(1, base.n + 1):
            inst = Instance(base.dists, k)
            a_star = adaptive_optimum_dp(inst)
            s_star, _ = static_optimum_enum(inst)
            assert a_star >= prev_a - 1e-12
            assert s_star >= prev_s - 1e-12
            prev_a, prev_s = a_star, s_star
        full = expected_max_exact_discrete(base.dists, range(base.n))
        assert prev_a == pytest.approx(full, abs=1e-9)
        assert prev_s == pytest.approx(full, abs=1e-9)
