"""Acceptance suite: every guarantee checked at its stated tolerance.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them all
at once).  The random suites are fully seeded, so every run evaluates the
same instances.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from conftest import h_value, random_continuous_instance, random_discrete_instance
from probemax import (
    Instance,
    ThresholdPolicy,
    Uniform,
    adaptive_optimum_dp,
    evaluate,
    expected_max_exact_discrete,
    rho,
    select_gap2_set,
    simulate,
    solve_continuous,
    static_optimum_enum,
)
from probemax.instance_io import gen_instance, iid_uniform01
from probemax.minmax import h_derivative_continuous

E_FLOOR = 1.0 - 1.0 / math.e
EPSILON = 0.05

DISCRETE_SEEDS = range(500)
CONTINUOUS_SEEDS = range(1000, 1100)


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def discrete_suite():
    """500 seeded discrete instances with oracle values and gap-2 output."""
    started = time.perf_counter()
    results = []
    for seed in DISCRETE_SEEDS:
        inst = random_discrete_instance(seed)
        gap = select_gap2_set(inst, EPSILON)
        a_star = adaptive_optimum_dp(inst)
        s_star, _ = static_optimum_enum(inst)
        exact_max = expected_max_exact_discrete(inst.dists, gap.chosen)
        results.append((inst, gap, a_star, s_star, exact_max))
    elapsed = time.perf_counter() - started
    return results, elapsed


@pytest.fixture(scope="module")
def continuous_suite():
    """100 seeded mixed uniform/exponential instances through the pipeline."""
    results = []
    for seed in CONTINUOUS_SEEDS:
        inst = random_continuous_instance(seed)
        results.append((inst, solve_continuous(inst)))
    return results


def test_criterion_1_theorem_sweep(discrete_suite):
    results, elapsed = discrete_suite
    worst = 0.0
    for _, gap, a_star, s_star, _ in results:
        worst = max(worst, s_star - a_star, a_star - gap.bound.u_star)
    ok = worst <= 1e-6 and elapsed < 120.0
    report(
        "criterion 1: S* <= A* <= U* on 500 discrete instances",
        ok,
        f"worst slack {worst:.2e}, runtime {elapsed:.1f}s",
    )


def test_criterion_2_gap2_end_to_end(discrete_suite):
    results, _ = discrete_suite
    worst_ratio, worst_lemma = math.inf, -math.inf
    for _, gap, a_star, _, exact_max in results:
        worst_ratio = min(worst_ratio, exact_max / a_star)
        u_star = gap.bound.u_star
        worst_lemma = max(
            worst_lemma, u_star - (2 + EPSILON) * gap.threshold - 1e-9 * u_star
        )
    ok = worst_ratio >= 0.5 - EPSILON and worst_lemma <= 0.0
    report(
        "criterion 2: E[M(S)] >= 0.45 A* and U* <= 2.05 rho(S)",
        ok,
        f"min ratio {worst_ratio:.4f}, max bound residual {worst_lemma:.2e}",
    )


def test_criterion_3_samuel_cahn_floor():
    worst = -math.inf
    checked = 0
    for seed in range(5000, 5200):
        family = "discrete" if seed % 2 == 0 else "uniform"
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        inst = gen_instance(n, int(rng.integers(1, n + 1)), family, seed)
        size = int(rng.integers(1, n + 1))
        subset = sorted(rng.choice(n, size=size, replace=False).tolist())
        threshold = rho(inst, subset)
        stats = evaluate(ThresholdPolicy([inst.dists[i] for i in subset], threshold))
        worst = max(worst, threshold - stats.expected_reward)
        checked += 1
    ok = checked == 200 and worst <= 1e-9
    report(
        "criterion 3: threshold-rho policy earns >= rho on 200 subsets",
        ok,
        f"max shortfall {worst:.2e}",
    )


def test_criterion_4_uniform_closed_forms():
    ok = True
    details = []
    for k in (2, 3, 5, 10):
        result = solve_continuous(iid_uniform01(k, k))
        r_hat = result.bound.r_hat
        u_star = result.bound.u_star
        reward = result.stats.expected_reward
        expected_reward = (1.0 - (1.0 - 1.0 / k) ** k) * (1.0 - 1.0 / (2.0 * k))
        ok &= abs(r_hat - (1.0 - 1.0 / k)) <= 1e-4
        ok &= abs(u_star - (1.0 - 1.0 / (2.0 * k))) <= 1e-6
        ok &= abs(reward - expected_reward) <= 1e-4
        ok &= reward / u_star >= E_FLOOR
        details.append(f"k={k}: E[Y_T]/U*={reward / u_star:.4f}")
    report("criterion 4: iid Uniform(0,1) closed-form anchors", ok, "; ".join(details))


def test_criterion_5_psi_invariants(continuous_suite):
    worst_hit, worst_opt = 0.0, -math.inf
    ok = True
    for inst, result in continuous_suite:
        sol = result.solution
        hit_rate = math.fsum(
            inst.dists[i].survival(sol.r_star) * sol.psi[i] for i in range(inst.n)
        )
        worst_hit = max(worst_hit, abs(hit_rate - 1.0))
        ok &= sum(1 for w in sol.psi if 0.0 < w < 1.0) <= 2
        ok &= len(set(sol.s_minus) & set(sol.s_plus)) >= inst.k - 1
        h_bar = sol.r_star + math.fsum(
            inst.dists[i].g_value(sol.r_star) * sol.psi[i] for i in range(inst.n)
        )
        for subset in combinations(range(inst.n), inst.k):
            worst_opt = max(worst_opt, h_value(inst, sol.r_star, subset) - h_bar)
    ok &= worst_hit <= 1e-4 and worst_opt <= 1e-6
    report(
        "criterion 5: psi* invariants on 100 continuous instances",
        ok,
        f"max |hit rate - 1| {worst_hit:.2e}, max optimality residual {worst_opt:.2e}",
    )


def test_criterion_6_reward_chain(continuous_suite):
    ok = True
    worst_floor = math.inf
    for _, result in continuous_suite:
        stats, u_star = result.stats, result.bound.u_star
        ok &= abs(stats.expected_b - 1.0) <= 1e-4
        ok &= stats.prob_stop >= E_FLOOR - 1e-4
        ok &= abs(stats.expected_sum - u_star) <= 1e-4 * u_star
        ok &= (
            stats.expected_sum - stats.expected_reward
            <= stats.expected_excess * u_star + 1e-6
        )
        floor = (stats.expected_reward - E_FLOOR * u_star) / u_star
        worst_floor = min(worst_floor, floor)
        ok &= floor >= -1e-4
    report(
        "criterion 6: hit-count and reward chain on 100 instances",
        ok,
        f"min (E[Y_T] - (1-1/e)U*)/U* = {worst_floor:.4f}",
    )


def test_criterion_7_derandomized_monte_carlo(continuous_suite):
    ok = True
    worst = math.inf
    for inst, result in continuous_suite:
        policy = ThresholdPolicy(
            entries=[inst.dists[i] for i in result.derandomized_order],
            threshold=result.solution.r_star,
        )
        sim = simulate(policy, trials=10**6, seed=131)
        u_star = result.bound.u_star
        margin = sim.mean_max - (E_FLOOR * u_star - 3 * sim.stderr - 1e-4 * u_star)
        worst = min(worst, margin / u_star)
        ok &= margin >= 0.0
    report(
        "criterion 7: Monte-Carlo E[M] of derandomized sets",
        ok,
        f"min normalized margin {worst:.4f}",
    )


def test_criterion_8_derivative_check():
    delta = 1e-5
    worst = 0.0
    checked = 0
    seed = 6000
    while checked < 50:
        seed += 1
        inst = random_continuous_instance(seed)
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, inst.n + 1))
        subset = sorted(rng.choice(inst.n, size=size, replace=False).tolist())
        endpoints = {0.0}
        for d in inst.dists:
            if isinstance(d, Uniform):
                endpoints.update((d.a, d.b))
        r = float(rng.uniform(0.0, inst.n * inst.mu_max))
        if any(abs(r - e) < 10 * delta for e in endpoints):
            continue
        central = (
            h_value(inst, r + delta, subset) - h_value(inst, r - delta, subset)
        ) / (2 * delta)
        worst = max(worst, abs(h_derivative_continuous(inst, r, subset) - central))
        checked += 1
    ok = worst <= 1e-4
    report(
        "criterion 8: derivative vs central difference at 50 triples",
        ok,
        f"max deviation {worst:.2e}",
    )


def test_criterion_9_analytic_monte_carlo_agreement():
    ok = True
    worst = 0.0
    policies = []
    for seed in range(7000, 7050):
        rng = np.random.default_rng(seed)
        family = ("discrete", "uniform", "exponential", "mixed")[seed % 4]
        n = int(rng.integers(1, 6))
        inst = gen_instance(n, 1, family, seed)
        threshold = float(rng.uniform(0.0, 1.5 * inst.mu_max))
        policies.append(ThresholdPolicy(inst.dists, threshold))
    for seed, policy in enumerate(policies):
        stats = evaluate(policy)
        sim = simulate(policy, trials=10**6, seed=seed)
        slack = max(4 * sim.stderr, 1e-9)
        deviation = abs(stats.expected_reward - sim.mean_reward)
        worst = max(worst, deviation - slack)
        ok &= deviation <= slack
    probe = policies[0]
    reference = simulate(probe, trials=10**6, seed=0)
    ok &= simulate(probe, trials=10**6, seed=0) == reference
    report(
        "criterion 9: analytic/Monte-Carlo agreement and bitwise determinism",
        ok,
        f"max (deviation - 4 stderr) {worst:.2e}",
    )
