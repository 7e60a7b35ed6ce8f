"""Analytic policy statistics, Monte-Carlo agreement, and exact E[max]."""

import math
import tracemalloc
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TwoWay, random_discrete_instance
from test_packed import NO_AVX512, has_x86_v4, run_child
from probemax import (
    DiscreteFinite,
    Exponential,
    Instance,
    ThresholdPolicy,
    Uniform,
    ValidationError,
    evaluate,
    expected_max_exact_discrete,
    point_mass,
    rho,
    simulate,
)
from probemax.policy_eval import bernoulli_count_pmf


class TestEvaluate:
    def test_single_point_mass(self):
        stats = evaluate(ThresholdPolicy([point_mass(1.0)], 0.5))
        assert stats.expected_reward == 1.0
        assert stats.expected_b == 1.0
        assert stats.prob_stop == 1.0
        assert stats.expected_sum == 1.0
        assert stats.expected_excess == 0.0

    def test_two_uniform_enumeration(self):
        # frozen from enumerating the 2-Bernoulli outcome space at p = 0.5:
        # E[Y_T] = (0.5 + 0.25) * 0.75, E[B] = 1, P(B>=1) = 0.75,
        # E[sum] = 0.75, E[(B-1)^+] = P(B=2) = 0.25
        stats = evaluate(ThresholdPolicy([Uniform(0, 1), Uniform(0, 1)], 0.5))
        assert stats.expected_reward == pytest.approx(0.5625, abs=1e-12)
        assert stats.expected_b == pytest.approx(1.0, abs=1e-12)
        assert stats.prob_stop == pytest.approx(0.75, abs=1e-12)
        assert stats.expected_sum == pytest.approx(0.75, abs=1e-12)
        assert stats.expected_excess == pytest.approx(0.25, abs=1e-12)

    def test_empty_tail_policy(self):
        stats = evaluate(ThresholdPolicy([Uniform(0, 1), point_mass(2.0)], 3.0))
        assert stats.expected_reward == 0.0
        assert stats.expected_b == 0.0
        assert stats.prob_stop == 0.0
        assert stats.expected_sum == 0.0
        assert stats.expected_excess == 0.0

    def test_mixture_integrates_the_coin(self):
        mix = TwoWay(0.3, Uniform(0, 2), Exponential(1.0))
        split = evaluate(ThresholdPolicy([mix], 0.8))
        left = evaluate(ThresholdPolicy([Uniform(0, 2)], 0.8))
        right = evaluate(ThresholdPolicy([Exponential(1.0)], 0.8))
        assert split.expected_reward == pytest.approx(
            0.3 * left.expected_reward + 0.7 * right.expected_reward, abs=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValidationError):
            ThresholdPolicy([], 0.5)
        with pytest.raises(ValidationError):
            ThresholdPolicy([point_mass(1.0)], -0.1)


def _bernoulli(p):
    """Variable with P(X >= 1) = p exactly: atoms 0 and 1 (either may be absent)."""
    atoms = [(v, m) for v, m in ((0.0, 1.0 - p), (1.0, p)) if m > 0.0]
    return DiscreteFinite(atoms)


def _exact_counts(ps):
    """(P(B >= 1), E[(B-1)^+]) of independent Bernoulli(p_i), in exact arithmetic."""
    miss = Fraction(1)
    excess = Fraction(0)
    for p in map(Fraction, ps):
        excess += p * (1 - miss)
        miss *= 1 - p
    return 1 - miss, excess


def _rel_err(x, exact):
    return abs(Fraction(x) - exact) / exact


def _scaled_ps(scale):
    """Sixty survival probabilities in [scale/2, scale), seeded by the scale."""
    rng = np.random.default_rng(int(-math.log2(scale)))
    return (scale * rng.uniform(0.5, 1.0, 60)).tolist()


class TestCountStatistics:
    """P(B >= 1) and E[(B-1)^+] in one O(k) pass, accurate at every scale of p."""

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e-2, 0.5])
    def test_against_exact_arithmetic(self, scale):
        # At 1e-12, 1 - prod(1 - p) cancels to about 1e-5 relative error;
        # a sum of non-negative terms does not.
        ps = _scaled_ps(scale)
        stats = evaluate(ThresholdPolicy([_bernoulli(p) for p in ps], 1.0))
        prob_stop, excess = _exact_counts(ps)
        assert _rel_err(stats.prob_stop, prob_stop) <= 1e-14
        assert _rel_err(stats.expected_excess, excess) <= 1e-14

    def test_one_minus_product_misses_the_bound_at_tiny_p(self):
        # The data above can tell the forms apart: the product form fails it.
        ps = _scaled_ps(1e-12)
        prob_stop, excess = _exact_counts(ps)
        miss = math.prod(1.0 - p for p in ps)
        assert _rel_err(1.0 - miss, prob_stop) > 1e-6
        assert _rel_err(math.fsum(ps) - (1.0 - miss), excess) > 1e-6

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-30, 1.0)),
                    min_size=1, max_size=40))
    def test_matches_the_count_pmf(self, ps):
        stats = evaluate(ThresholdPolicy([_bernoulli(p) for p in ps], 1.0))
        pmf = bernoulli_count_pmf(ps)
        excess = math.fsum((b - 1) * m for b, m in enumerate(pmf) if b >= 2)
        prob_stop = math.fsum(pmf[1:])
        assert abs(stats.expected_excess - excess) <= 1e-13 * excess
        assert abs(stats.prob_stop - prob_stop) <= 1e-13 * prob_stop
        assert 0.0 <= stats.prob_stop <= 1.0

    def test_prob_stop_never_exceeds_one(self):
        # The running hit sum rounds up to 1 + 2**-52 on these; 1 - miss cannot.
        ps = [0.0874511069101035, 0.4253904299998196, 0.9999999999999993, 0.9999999999999993]
        hit, miss = 0.0, 1.0
        for p in ps:
            hit += p * miss
            miss *= 1.0 - p
        assert hit > 1.0
        assert evaluate(ThresholdPolicy([_bernoulli(p) for p in ps], 1.0)).prob_stop <= 1.0

    def test_evaluate_runs_no_convolution(self):
        entries = [_bernoulli(p) for p in (0.2, 0.5, 0.9)] + [Uniform(0, 3), Exponential(1.0)]
        with mock.patch("probemax.policy_eval.bernoulli_count_pmf",
                        side_effect=AssertionError("evaluate needs no count pmf")):
            stats = evaluate(ThresholdPolicy(entries, 1.0))
        ps = [d.survival(1.0) for d in entries]
        pmf = bernoulli_count_pmf(ps)
        assert stats.expected_excess == pytest.approx(
            math.fsum((b - 1) * m for b, m in enumerate(pmf) if b >= 2), rel=1e-14)


class TestBernoulliConvolution:
    @pytest.mark.parametrize("seed", range(10))
    def test_against_outcome_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        ps = rng.uniform(0, 1, int(rng.integers(1, 6))).tolist()
        pmf = bernoulli_count_pmf(ps)
        for b, mass in enumerate(pmf):
            direct = math.fsum(
                math.prod(p if hit else 1 - p for p, hit in zip(ps, hits))
                for hits in product((0, 1), repeat=len(ps))
                if sum(hits) == b
            )
            assert mass == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_min_identity(self, seed):
        rng = np.random.default_rng(seed + 100)
        dists = [Uniform(0, float(rng.uniform(0.5, 4))) for _ in range(int(rng.integers(1, 6)))]
        stats = evaluate(ThresholdPolicy(dists, float(rng.uniform(0, 2))))
        # E[min(B, 1)] = E[B] - E[(B-1)^+] = P(B >= 1)
        assert abs(stats.expected_b - stats.expected_excess - stats.prob_stop) <= 1e-12


def _many_atoms(m):
    weights = [i % 5 + 1 for i in range(m)]
    total = sum(weights)
    return DiscreteFinite(
        [(0.1 * i + (i % 7) * 0.013, w / total) for i, w in enumerate(weights)]
    )


_TWO = DiscreteFinite([(1.0, 0.5), (3.0, 0.5)])
_THREE = DiscreteFinite([(0.5, 0.2), (2.25, 0.3), (6.0, 0.5)])
_FOUR = DiscreteFinite([(0.0, 0.1), (1.5, 0.4), (4.0, 0.3), (9.75, 0.2)])
# (entries, threshold); the discrete draw counts cuts up to 128 atoms and
# runs searchsorted above: "cutover" has a variable on each side of it,
# "wide_atoms" one far above.
PINNED_POLICIES = {
    "point_mass": ([point_mass(2.5)], 1.0),
    "small_discrete": ([_TWO, _THREE, _FOUR], 2.0),
    "many_atoms": ([_many_atoms(20), _many_atoms(100)], 5.0),
    "uniform": ([Uniform(0.0, 1.0), Uniform(1.5, 4.0)], 0.5),
    "exponential": ([Exponential(2.0), Exponential(0.5)], 1.0),
    "cutover": ([_many_atoms(128), _many_atoms(129)], 5.0),
    "wide_atoms": ([_many_atoms(300), Uniform(0.0, 4.0)], 6.0),
    "all_families": ([_THREE, Uniform(0.0, 5.0), point_mass(0.75), Exponential(0.8),
                      _many_atoms(100), _TWO], 2.5),
}
# float.hex of (mean_reward, mean_max, stderr), keyed by (policy, trials, seed).
# 200929 = 3 * 2**16 + 4321 trials end in a partial block.
PINNED_SIMULATIONS = {
    ("point_mass", 1000, 7): ('0x1.4000000000000p+1', '0x1.4000000000000p+1', '0x0.0p+0'),
    ("point_mass", 200929, 1267650600228229401496703205387): ('0x1.4000000000000p+1', '0x1.4000000000000p+1', '0x0.0p+0'),
    ("small_discrete", 1000, 7): ('0x1.d083126e978d5p+1', '0x1.5ced916872b02p+2', '0x1.d1ba3364c1218p-5'),
    ("small_discrete", 200929, 1267650600228229401496703205387): ('0x1.d38f0a36dd50dp+1', '0x1.6441d6e69212dp+2', '0x1.09360dff4ba4dp-8'),
    ("many_atoms", 1000, 7): ('0x1.d8ea4a8c154cap+1', '0x1.47a98244e93e2p+2', '0x1.001e4929fdc48p-3'),
    ("many_atoms", 200929, 1267650600228229401496703205387): ('0x1.e4e371fa502ebp+1', '0x1.4823589ea8e68p+2', '0x1.1dfb12d366554p-7'),
    ("uniform", 1000, 7): ('0x1.c0b9e88d54fc2p+0', '0x1.5ff776a9f57a6p+1', '0x1.21bba59de5762p-5'),
    ("uniform", 200929, 1267650600228229401496703205387): ('0x1.c03f17fe18e28p+0', '0x1.602ba0b976825p+1', '0x1.499669d11b8b0p-9'),
    ("exponential", 1000, 7): ('0x1.cbb4267c21c22p+0', '0x1.10327e37bd39bp+1', '0x1.10b6b70849267p-4'),
    ("exponential", 200929, 1267650600228229401496703205387): ('0x1.c6fc7dadfadefp+0', '0x1.0cfffb8ad9798p+1', '0x1.23b91c5a504e7p-8'),
    ("cutover", 1000, 7): ('0x1.d77b890d5a5bap+2', '0x1.0e64ead0c3d25p+3', '0x1.fda0f8c9f38b6p-4'),
    ("cutover", 200929, 1267650600228229401496703205387): ('0x1.e2e8a4317d4d2p+2', '0x1.11f23cfee5004p+3', '0x1.16cd471cb0ce0p-7'),
    ("wide_atoms", 1000, 7): ('0x1.c3b7bf1e8e609p+3', '0x1.da32f4dee39dcp+3', '0x1.34a1c63a2311cp-2'),
    ("wide_atoms", 200929, 1267650600228229401496703205387): ('0x1.cdc43d4029ffcp+3', '0x1.e40b265573f7ap+3', '0x1.5b58c04bbf967p-6'),
    ("all_families", 1000, 7): ('0x1.472cd51fdbde3p+2', '0x1.8832af0088eafp+2', '0x1.c774881f0ad7dp-5'),
    ("all_families", 200929, 1267650600228229401496703205387): ('0x1.4a73d9c513c6ap+2', '0x1.8dd41b3cf2d4fp+2', '0x1.f295328f4643dp-9'),
}


def pinned_hex(key: tuple) -> tuple:
    """float.hex of (mean_reward, mean_max, stderr) of one pinned simulation."""
    name, trials, seed = key
    entries, threshold = PINNED_POLICIES[name]
    return tuple(float.hex(x) for x in simulate(ThresholdPolicy(entries, threshold), trials, seed))


# Reruns every pinned simulation and prints its hex floats as JSON.
PINNED_CHILD = """
import json, sys
from numpy._core._multiarray_umath import __cpu_features__
from test_policy_eval import PINNED_SIMULATIONS, pinned_hex

json.dump({"x86_v4": bool(__cpu_features__.get("X86_V4")),
           "pinned": {repr(key): pinned_hex(key) for key in PINNED_SIMULATIONS}}, sys.stdout)
"""


class TestSimulate:
    def test_point_mass_exact(self):
        result = simulate(ThresholdPolicy([point_mass(1.0)], 0.5), trials=100, seed=0)
        assert result.mean_reward == 1.0
        assert result.mean_max == 1.0
        assert result.stderr == 0.0

    @pytest.mark.parametrize("value", [0.3, 0.7, 1.1])
    def test_constant_samples_give_exact_means(self, value):
        result = simulate(ThresholdPolicy([point_mass(value)], 0.0), trials=1000, seed=0)
        assert result == (value, value, 0.0)

    def test_two_uniform_against_analytic(self):
        policy = ThresholdPolicy([Uniform(0, 1), Uniform(0, 1)], 0.5)
        result = simulate(policy, trials=10**6, seed=0)
        assert abs(result.mean_reward - 0.5625) <= 3 * result.stderr
        assert result.mean_max >= result.mean_reward

    def test_deterministic_per_seed(self):
        policy = ThresholdPolicy([Uniform(0, 1), Exponential(2.0)], 0.4)
        assert simulate(policy, 5000, seed=9) == simulate(policy, 5000, seed=9)
        assert simulate(policy, 5000, seed=9) != simulate(policy, 5000, seed=10)

    def test_memory_bounded_in_trials(self):
        # Ten times the trials must not need more memory: trials stream in
        # blocks of a fixed size.
        policy = ThresholdPolicy([Uniform(0, 1), Exponential(1.0)], 0.6)
        peaks = []
        for trials in (10**5, 10**6):
            tracemalloc.start()
            try:
                simulate(policy, trials, seed=4)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_memory_bounded_in_entries(self):
        # Ten times the entries must not need more memory: the block buffers
        # are reused from entry to entry.
        entries = [Uniform(0, 1), _THREE, Exponential(1.0), _many_atoms(100)]
        peaks = []
        for copies in (1, 10):
            tracemalloc.start()
            try:
                simulate(ThresholdPolicy(entries * copies, 0.6), 10**5, seed=4)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_trials_validation(self):
        with pytest.raises(ValidationError):
            simulate(ThresholdPolicy([point_mass(1.0)], 0.5), trials=0, seed=0)

    @pytest.mark.parametrize("trials, seed", [
        (10.5, 0), (10.0, 0), (True, 0), ("10", 0),
        (10, 1.5), (10, True), (10, None), (10, "0"),
    ])
    def test_non_integer_trials_or_seed_rejected(self, trials, seed):
        with pytest.raises(ValidationError, match="must be an integer"):
            simulate(ThresholdPolicy([point_mass(1.0)], 0.5), trials, seed)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_range(self, seed):
        with pytest.raises(ValidationError, match="must lie in"):
            simulate(ThresholdPolicy([point_mass(1.0)], 0.5), 10, seed)

    @pytest.mark.parametrize("key", sorted(PINNED_SIMULATIONS))
    def test_pinned_bits(self, key):
        # Samples and sums are fixed per seed, bit for bit, across versions.
        assert pinned_hex(key) == PINNED_SIMULATIONS[key]

    @pytest.mark.skipif(not has_x86_v4(),
                        reason="host has no X86_V4 (AVX-512) dispatch to turn off")
    def test_pinned_bits_do_not_depend_on_simd_dispatch(self):
        """Every pinned simulation, rerun in a child with AVX-512 dispatch off."""
        child = run_child({"NPY_DISABLE_CPU_FEATURES": NO_AVX512}, PINNED_CHILD)
        assert not child["x86_v4"]
        assert child["pinned"] == {repr(key): list(bits)
                                   for key, bits in PINNED_SIMULATIONS.items()}

    @pytest.mark.parametrize("seed", range(12))
    def test_agreement_random_policies(self, seed):
        rng = np.random.default_rng(seed + 500)
        n = int(rng.integers(1, 5))
        dists = []
        for _ in range(n):
            if rng.random() < 0.5:
                a = float(rng.uniform(0, 3))
                dists.append(Uniform(a, a + float(rng.uniform(0.5, 3))))
            else:
                dists.append(Exponential(float(rng.uniform(0.3, 2))))
        threshold = float(rng.uniform(0, 3))
        policy = ThresholdPolicy(dists, threshold)
        stats = evaluate(policy)
        result = simulate(policy, trials=200_000, seed=seed)
        slack = max(4 * result.stderr, 1e-9)
        assert abs(stats.expected_reward - result.mean_reward) <= slack


class TestSamuelCahnFloor:
    @pytest.mark.parametrize("seed", range(30))
    def test_root_threshold_earns_the_root(self, seed):
        inst = random_discrete_instance(seed + 3000)
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, inst.n + 1))
        subset = sorted(rng.choice(inst.n, size=size, replace=False).tolist())
        if math.fsum(inst.dists[i].mean() for i in subset) == 0.0:
            return
        threshold = rho(inst, subset)
        stats = evaluate(ThresholdPolicy([inst.dists[i] for i in subset], threshold))
        assert stats.expected_reward >= threshold - 1e-9


class TestDominance:
    @pytest.mark.parametrize("seed", range(15))
    def test_sum_and_max_dominate_reward(self, seed):
        inst = random_discrete_instance(seed + 4000)
        rng = np.random.default_rng(seed)
        threshold = float(rng.uniform(0, 2 * inst.mu_max))
        policy = ThresholdPolicy(inst.dists, threshold)
        stats = evaluate(policy)
        assert stats.expected_sum >= stats.expected_reward - 1e-12
        assert stats.prob_stop <= min(stats.expected_b, 1.0) + 1e-12
        exact_max = expected_max_exact_discrete(inst.dists, range(inst.n))
        assert exact_max >= stats.expected_reward - 1e-9


class TestExpectedMaxExactDiscrete:
    def test_two_point_masses(self):
        dists = [point_mass(1.0), point_mass(2.0)]
        assert expected_max_exact_discrete(dists, [0, 1]) == pytest.approx(2.0)

    def test_two_coins(self):
        d = DiscreteFinite([(0, 0.5), (1, 0.5)])
        assert expected_max_exact_discrete([d, d], [0, 1]) == pytest.approx(0.75, abs=1e-12)

    def test_singleton_is_mean(self):
        d = DiscreteFinite([(1, 0.25), (3, 0.75)])
        assert expected_max_exact_discrete([d], [0]) == pytest.approx(d.mean(), abs=1e-12)

    def test_continuous_rejected(self):
        with pytest.raises(ValidationError, match="^variable 0 is not finite discrete; "
                           r"exact E\[max\] unavailable$"):
            expected_max_exact_discrete([Uniform(0, 1)], [0])

    @pytest.mark.parametrize("seed", range(10))
    def test_against_joint_enumeration(self, seed):
        rng = np.random.default_rng(seed + 50)
        dists = []
        for _ in range(3):
            m = int(rng.integers(1, 4))
            w = rng.integers(1, 6, m).astype(float)
            dists.append(
                DiscreteFinite(list(zip(rng.uniform(0, 5, m).tolist(), (w / w.sum()).tolist())))
            )
        direct = math.fsum(
            max(vs) * math.prod(ps)
            for vs, ps in (
                (
                    [dists[i].values[j] for i, j in enumerate(combo)],
                    [dists[i].probs[j] for i, j in enumerate(combo)],
                )
                for combo in product(*(range(len(d.values)) for d in dists))
            )
        )
        assert expected_max_exact_discrete(dists, [0, 1, 2]) == pytest.approx(direct, abs=1e-12)
