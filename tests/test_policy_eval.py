"""Analytic policy statistics, Monte-Carlo agreement, and exact E[max]."""

import math
from itertools import product

import numpy as np
import pytest

from conftest import random_discrete_instance
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
from probemax.distributions import Mixture
from probemax.errors import NotDiscrete
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
        mix = Mixture(0.3, Uniform(0, 2), Exponential(1.0))
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


class TestSimulate:
    def test_point_mass_exact(self):
        result = simulate(ThresholdPolicy([point_mass(1.0)], 0.5), trials=100, seed=0)
        assert result.mean_reward == 1.0
        assert result.mean_max == 1.0
        assert result.stderr == 0.0

    def test_two_uniform_against_analytic(self):
        policy = ThresholdPolicy([Uniform(0, 1), Uniform(0, 1)], 0.5)
        result = simulate(policy, trials=10**6, seed=0)
        assert abs(result.mean_reward - 0.5625) <= 3 * result.stderr
        assert result.mean_max >= result.mean_reward

    def test_deterministic_per_seed(self):
        policy = ThresholdPolicy([Uniform(0, 1), Exponential(2.0)], 0.4)
        assert simulate(policy, 5000, seed=9) == simulate(policy, 5000, seed=9)
        assert simulate(policy, 5000, seed=9) != simulate(policy, 5000, seed=10)

    def test_independent_of_chunking(self):
        # chunk size models the parallel partition of the trial space
        policy = ThresholdPolicy(
            [Uniform(0, 1), Mixture(0.5, Uniform(0, 2), Exponential(1.0))], 0.6
        )
        full = simulate(policy, 30_000, seed=4, chunk_size=30_000)
        tiny = simulate(policy, 30_000, seed=4, chunk_size=977)
        assert full == tiny

    def test_trials_validation(self):
        with pytest.raises(ValidationError):
            simulate(ThresholdPolicy([point_mass(1.0)], 0.5), trials=0, seed=0)

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
        with pytest.raises(NotDiscrete):
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
