"""Tests for the continuous pipeline: psi*, threshold policy, derandomization."""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    TwoWay,
    build_policy_reference,
    h_value,
    psi_star_reference,
    random_continuous_instance,
)
from probemax import (
    Exponential,
    Instance,
    ThresholdPolicy,
    Uniform,
    ValidationError,
    evaluate,
    minimize_hmax,
    point_mass,
    solve_continuous,
)
from probemax.gap_continuous import (
    CONT_TIE_TOL,
    TOL_PSI,
    XI_SCALE,
    PsiSolution,
    build_policy,
    compute_psi_star,
    construct_s_minus_plus,
    derandomize,
    maximize_overlap,
)
from probemax.minmax import h_max

E_FLOOR = 1.0 - 1.0 / math.e


def uniform_through(r, g, s):
    """Uniform with tail moment E[(X-r)^+] = g and survival s at the probe r.

    Solving (b - r)^2 / (2 (b - a)) = g and (b - r) / (b - a) = s gives
    b = r + 2 g / s and b - a = 2 g / s^2.
    """
    b = r + 2.0 * g / s
    return Uniform(b - 2.0 * g / (s * s), b)


# Three uniforms tying in G at r = 2 with survivals 0.3, 0.5, 0.7.
TRIO = Instance([uniform_through(2.0, 0.05, s) for s in (0.3, 0.5, 0.7)], 2)

# Four uniforms tying in G at r = 1, survivals 0.5, 0.5, 1.0, 1.0.
QUAD = Instance(
    [Uniform(0, 2), Uniform(0, 2), Uniform(1, 1.5), Uniform(1, 1.5)], 2
)


class TestConstructSMinusPlus:
    def test_full_budget_is_identity(self):
        inst = Instance([Uniform(0, 1), Uniform(0, 2), Uniform(1, 3)], 3)
        s_minus, s_plus = construct_s_minus_plus(inst, 0.7)
        assert s_minus == s_plus == (0, 1, 2)

    def test_generic_point_top_k(self):
        inst = Instance([Uniform(0, 2), Uniform(0, 1), Uniform(0, 1)], 2)
        s_minus, s_plus = construct_s_minus_plus(inst, 0.5)
        assert s_minus == s_plus == (0, 1)

    def test_tie_splits_by_survival(self):
        # G ties at 0.25 for r = 1 while survivals are 0.5 vs 1.0
        inst = Instance([Uniform(0, 2), Uniform(1, 1.5)], 1)
        assert inst.dists[0].g_value(1.0) == pytest.approx(0.25, abs=1e-12)
        assert inst.dists[1].g_value(1.0) == pytest.approx(0.25, abs=1e-12)
        s_minus, s_plus = construct_s_minus_plus(inst, 1.0)
        assert s_minus == (0,)  # smaller survival maximizes the derivative
        assert s_plus == (1,)

    def test_discrete_rejected(self):
        inst = Instance([point_mass(1.0), Uniform(0, 1)], 1)
        with pytest.raises(ValidationError, match="^variable 0 has a discontinuous CDF$"):
            construct_s_minus_plus(inst, 0.5)


class TestMaximizeOverlap:
    def test_overlap_k_minus_one_is_noop(self):
        s_minus, s_plus = maximize_overlap(TRIO, 2.0, (0, 1), (1, 2))
        assert (s_minus, s_plus) == ((0, 1), (1, 2))

    def test_identical_sets_are_noop(self):
        s_minus, s_plus = maximize_overlap(TRIO, 2.0, (0, 1), (0, 1))
        assert s_minus == s_plus == (0, 1)

    def test_disjoint_slots_need_one_swap(self):
        s_minus, s_plus = construct_s_minus_plus(QUAD, 1.0)
        assert s_minus == (0, 1) and s_plus == (2, 3)
        s_minus, s_plus = maximize_overlap(QUAD, 1.0, s_minus, s_plus)
        assert len(set(s_minus) & set(s_plus)) >= QUAD.k - 1
        assert h_value(QUAD, 1.0, s_minus) == pytest.approx(h_max(QUAD, 1.0), abs=1e-10)
        assert h_value(QUAD, 1.0, s_plus) == pytest.approx(h_max(QUAD, 1.0), abs=1e-10)
        # derivative signs survive the swap
        surv = lambda subset: sum(QUAD.dists[i].survival(1.0) for i in subset)
        assert 1.0 - surv(s_minus) >= -1e-10
        assert 1.0 - surv(s_plus) <= 1e-10


class TestComputePsiStar:
    def test_full_budget_uniform_is_integral(self):
        k = 3
        inst = Instance([Uniform(0, 1) for _ in range(k)], k)
        sol = compute_psi_star(inst, 1.0 - 1.0 / k)
        assert sol.psi == (1.0,) * k
        assert sol.alpha == 1.0
        assert sol.frac_pair is None

    def test_alpha_zero_degenerates_to_integral(self):
        # after one swap the survival sums are exactly (1.0, 1.5)
        sol = compute_psi_star(QUAD, 1.0)
        assert sol.alpha == 0.0
        assert sol.frac_pair is None
        assert sol.psi == (1.0, 1.0, 0.0, 0.0)

    def test_balanced_tie_gives_half_half(self):
        sol = compute_psi_star(TRIO, 2.0)
        assert sol.alpha == pytest.approx(0.5, abs=1e-9)
        assert sol.frac_pair == (2, 0)
        assert sol.psi[0] == pytest.approx(0.5, abs=1e-9)
        assert sol.psi[1] == 1.0
        assert sol.psi[2] == pytest.approx(0.5, abs=1e-9)
        hit_rate = math.fsum(
            TRIO.dists[i].survival(2.0) * sol.psi[i] for i in range(3)
        )
        assert hit_rate == pytest.approx(1.0, abs=1e-9)

    def test_far_from_minimizer_raises(self):
        inst = Instance([Uniform(0, 1), Uniform(0, 1)], 2)
        message = (
            "survival sums 0.19999999999999996 and 0.19999999999999996 do not straddle 1 "
            "within 0.0001; r_star=0.9 is too far from a minimizer"
        )
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            compute_psi_star(inst, 0.9)

    def test_discrete_rejected(self):
        inst = Instance([point_mass(1.0)], 1)
        with pytest.raises(ValidationError, match="^variable 0 has a discontinuous CDF$"):
            compute_psi_star(inst, 0.3)


class TestBuildPolicy:
    def test_integral_solution_gives_plain_entries(self):
        k = 2
        inst = Instance([Uniform(0, 1) for _ in range(k)], k)
        sol = compute_psi_star(inst, 0.5)
        ((policy, order),) = build_policy(inst, sol)
        assert order == (0, 1)
        assert all(d is inst.dists[i] for d, i in zip(policy.entries, order))
        assert policy.threshold == 0.5

    def test_pair_members_share_one_slot(self):
        sol = compute_psi_star(TRIO, 2.0)
        (l_policy, l_order), (m_policy, m_order) = build_policy(TRIO, sol)
        ell, m = sol.frac_pair
        slot = l_order.index(ell)
        assert m_order == l_order[:slot] + (m,) + l_order[slot + 1:]
        for policy, order in ((l_policy, l_order), (m_policy, m_order)):
            assert policy.entries == tuple(TRIO.dists[i] for i in order)
            assert policy.threshold == 2.0

    def test_sorted_by_conditional_tail(self):
        for seed in range(20):
            inst = random_continuous_instance(seed + 40)
            result = solve_continuous(inst)
            entries = randomized_entries(inst, result)
            r = result.solution.r_star
            conds = []
            for d in entries:
                s = d.survival(r)
                conds.append(d.tail_moment_one(r) / s if s > 0 else 0.0)
            assert all(a >= b - 1e-12 for a, b in zip(conds, conds[1:]))


def randomized_entries(inst, result) -> list:
    """The l branch's entries with a TwoWay entry at the fractional pair's slot."""
    policy, order = result.branches[0]
    entries = list(policy.entries)
    if result.solution.frac_pair is not None:
        ell, m = result.solution.frac_pair
        entries[order.index(ell)] = TwoWay(result.solution.alpha, inst.dists[ell], inst.dists[m])
    return entries


class TestDerandomize:
    def test_integral_pass_through(self):
        k = 2
        inst = Instance([Uniform(0, 1) for _ in range(k)], k)
        result = solve_continuous(inst)
        assert result.solution.frac_pair is None
        ((policy, order),) = result.branches
        assert result.derandomized_order == order == build_policy(inst, result.solution)[0][1]
        assert sorted(result.derandomized_order) == [0, 1]
        assert result.derandomized_reward == evaluate(policy).expected_reward
        assert result.stats == evaluate(policy)

    def test_symmetric_pair_keeps_first_branch(self):
        inst = Instance([Uniform(0, 2), Uniform(0, 2), Uniform(0, 2)], 2)
        sol = PsiSolution(
            r_star=1.0, s_minus=(0, 1), s_plus=(0, 2), alpha=0.5,
            frac_pair=(2, 1), psi=(1.0, 0.5, 0.5),
        )
        branches = build_policy(inst, sol)
        stats = [evaluate(policy) for policy, _ in branches]
        assert stats[0] == stats[1]
        der_order, _ = derandomize(branches, stats)
        assert 2 in der_order and 1 not in der_order

    def test_tail_dominant_branch_wins(self):
        sol = compute_psi_star(TRIO, 2.0)
        branches = build_policy(TRIO, sol)
        ell, m = sol.frac_pair
        tail = lambda i: TRIO.dists[i].tail_moment_one(2.0)
        assert tail(ell) > tail(m)
        der_order, der_reward = derandomize(branches, [evaluate(p) for p, _ in branches])
        assert ell in der_order and m not in der_order
        slot = der_order.index(ell)
        entries = [TRIO.dists[i] for i in der_order]
        entries[slot] = TwoWay(sol.alpha, TRIO.dists[ell], TRIO.dists[m])
        unconditional = evaluate(ThresholdPolicy(entries, 2.0)).expected_reward
        assert der_reward >= unconditional - 1e-12

    def test_branch_reward_is_the_closed_form_reward_without_the_convolution(self):
        with mock.patch("probemax.policy_eval.bernoulli_count_pmf",
                        side_effect=AssertionError("E[reward] needs no count pmf")):
            result = solve_continuous(TRIO)
        assert result.solution.frac_pair is not None
        chosen = ThresholdPolicy([TRIO.dists[i] for i in result.derandomized_order],
                                 result.solution.r_star)
        assert result.derandomized_reward == evaluate(chosen).expected_reward


class TestPipeline:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_iid_uniform_closed_form(self, k):
        inst = Instance([Uniform(0, 1) for _ in range(k)], k)
        result = solve_continuous(inst)
        expected = (1.0 - (1.0 - 1.0 / k) ** k) * (1.0 - 1.0 / (2.0 * k))
        assert result.stats.expected_reward == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("seed", range(30))
    def test_solution_invariants(self, seed):
        inst = random_continuous_instance(seed)
        result = solve_continuous(inst)
        sol, stats, u_star = result.solution, result.stats, result.bound.u_star
        psi = sol.psi

        assert math.fsum(psi) == pytest.approx(inst.k, abs=1e-9)
        assert sum(1 for w in psi if 0.0 < w < 1.0) <= 2
        assert len(set(sol.s_minus) & set(sol.s_plus)) >= inst.k - 1
        hit_rate = math.fsum(
            inst.dists[i].survival(sol.r_star) * psi[i] for i in range(inst.n)
        )
        assert abs(hit_rate - 1.0) <= 1e-4

        h_bar = sol.r_star + math.fsum(
            inst.dists[i].g_value(sol.r_star) * psi[i] for i in range(inst.n)
        )
        assert h_bar == pytest.approx(h_max(inst, sol.r_star), abs=1e-6)

        # expected-hit-count, stopping, and total-reward identities
        assert stats.expected_b == pytest.approx(1.0, abs=1e-4)
        assert stats.prob_stop >= E_FLOOR - 1e-4
        assert stats.expected_sum == pytest.approx(u_star, rel=1e-4)
        assert (
            stats.expected_sum - stats.expected_reward
            <= stats.expected_excess * u_star + 1e-6
        )
        assert stats.expected_reward >= E_FLOOR * u_star - 1e-4 * u_star

        # derandomized reward never falls below the randomized policy
        assert result.derandomized_reward >= stats.expected_reward - 1e-12

    @pytest.mark.parametrize("seed", range(12))
    def test_psi_beats_every_integral_subset(self, seed):
        from itertools import combinations

        inst = random_continuous_instance(seed + 70, n_lo=3, n_hi=8)
        result = solve_continuous(inst)
        sol = result.solution
        h_bar = sol.r_star + math.fsum(
            inst.dists[i].g_value(sol.r_star) * sol.psi[i] for i in range(inst.n)
        )
        for subset in combinations(range(inst.n), inst.k):
            assert h_bar >= h_value(inst, sol.r_star, subset) - 1e-6

    def test_kink_minimizer_yields_two_branches(self):
        # the envelope of TRIO has its unique minimizer at the three-way tie
        result = solve_continuous(TRIO)
        assert result.solution.frac_pair == (2, 0)
        assert result.solution.alpha == pytest.approx(0.5, abs=1e-6)
        (l_policy, l_order), (_, m_order) = result.branches
        assert 2 in l_order and 0 in m_order
        assert result.derandomized_order == l_order  # the l branch wins

    def test_discrete_instance_rejected(self):
        inst = Instance([point_mass(1.0), Uniform(0, 1)], 1)
        with pytest.raises(ValidationError, match="^variable 0 has a discontinuous CDF$"):
            solve_continuous(inst)

    def test_first_discontinuous_variable_named_and_found_once(self):
        dists = [Uniform(0, 1), Uniform(0, 2), point_mass(1.0), point_mass(2.0)]
        inst = Instance(dists, 2)
        with pytest.raises(ValidationError, match=r"^variable 2 has a discontinuous CDF$"):
            solve_continuous(inst)
        assert vars(inst)["_first_discontinuous"] == 2
        with pytest.raises(ValidationError, match=r"^variable 2 has a discontinuous CDF$"):
            construct_s_minus_plus(inst, 0.5)
        assert Instance(dists[:2], 1)._first_discontinuous is None


R_KINK = 200.0


def kink_instance(seed: int) -> Instance:
    """Uniforms whose envelope has a kink at R_KINK, plus exponential fillers.

    k - 1 of them, k in 3..6, have the largest G at R_KINK and survivals of
    0.05-0.15; 2-4 more tie there in G with survivals of 0.3-0.7.  When the
    survival sums with the tied members straddle 1, the minimizer sits at
    the tie with a fractional pair.  The fillers have a tiny G.
    """
    rng = np.random.default_rng(seed)
    k = int(rng.integers(3, 7))
    dists = [uniform_through(R_KINK, 0.2, float(rng.choice((0.05, 0.1, 0.15))))
             for _ in range(k - 1)]
    dists += [uniform_through(R_KINK, 0.05, float(rng.choice((0.3, 0.4, 0.5, 0.6, 0.7))))
              for _ in range(int(rng.integers(2, 5)))]
    dists += [Exponential(float(rng.uniform(0.05, 0.2))) for _ in range(int(rng.integers(0, 3)))]
    return Instance([dists[i] for i in rng.permutation(len(dists))], k)


def ulps(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def test_randomized_stats_are_the_alpha_mix_of_the_branches():
    """Each statistic is affine in the pair slot's survival and tail moment.

    So the alpha-mix of the branches' statistics equals `evaluate` of the
    policy with a TwoWay entry at the slot, up to rounding: within 4 ulps
    (2 measured) on every kink instance with a fractional pair.
    """
    fractional = 0
    for seed in range(400):
        inst = kink_instance(seed)
        result = solve_continuous(inst)
        if result.solution.frac_pair is None:
            continue
        assert 0.0 < result.solution.alpha < 1.0
        fractional += 1
        reference = evaluate(ThresholdPolicy(randomized_entries(inst, result),
                                             result.solution.r_star))
        for field in ("expected_reward", "expected_b", "prob_stop", "expected_sum",
                      "expected_excess"):
            mixed, ref = getattr(result.stats, field), getattr(reference, field)
            assert ulps(mixed, ref) <= 4, (seed, field, mixed, ref)
        assert result.derandomized_reward >= result.stats.expected_reward
    assert fractional >= 100


# Survivals at R_TIE on a coarse grid, so survival ties are common too.
R_TIE = 8.0
SURVIVALS = st.sampled_from((0.1, 0.125, 0.2, 0.25, 0.4, 0.5, 1.0))


@st.composite
def tie_heavy(draw):
    """Uniforms whose G at R_TIE takes one of three values, most of them tied.

    The larger value forms a forced prefix, the middle one the tie class and
    the smaller one the members no maximizer takes.
    """
    sizes = [draw(st.integers(0, 3)), draw(st.integers(1, 14)), draw(st.integers(0, 4))]
    dists = [
        uniform_through(R_TIE, g, draw(SURVIVALS))
        for g, size in zip((0.04, 0.02, 0.01), sizes)
        for _ in range(size)
    ]
    dists = draw(st.permutations(dists))
    # a few members' survivals sum to about 1, so straddling pairs are common
    return Instance(dists, draw(st.integers(1, min(len(dists), 8))))


def survival_sum(inst, subset):
    return math.fsum(inst.dists[i].survival(R_TIE) for i in subset)


@settings(max_examples=400, deadline=None)
@given(tie_heavy())
def test_window_pair_on_tie_heavy_instances(inst):
    s_minus, s_plus = construct_s_minus_plus(inst, R_TIE)
    with mock.patch("math.fsum", wraps=math.fsum) as fsum:
        lo, hi = maximize_overlap(inst, R_TIE, s_minus, s_plus)
    d = len(set(s_minus) - set(s_plus))
    assert fsum.call_count <= (0 if d <= 1 else (d - 1).bit_length() + 1)
    assert len(lo) == len(hi) == inst.k
    assert len(set(lo) & set(hi)) >= inst.k - 1

    envelope = h_max(inst, R_TIE)
    for subset in (lo, hi):
        assert abs(h_value(inst, R_TIE, subset) - envelope) <= inst.k * CONT_TIE_TOL * inst.mu_max

    p_minus, p_plus = survival_sum(inst, s_minus), survival_sum(inst, s_plus)
    if p_minus <= 1.0 < p_plus:
        assert survival_sum(inst, lo) <= 1.0 < survival_sum(inst, hi)
    if p_minus > 1.0:
        assert lo == s_minus
    if p_plus <= 1.0:
        assert hi == s_plus

    if p_minus - 1.0 > TOL_PSI or 1.0 - p_plus > TOL_PSI:
        message = (
            f"survival sums {survival_sum(inst, lo)!r} and {survival_sum(inst, hi)!r} do not "
            f"straddle 1 within {TOL_PSI}; r_star={R_TIE!r} is too far from a minimizer"
        )
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            compute_psi_star(inst, R_TIE)
        return
    sol = compute_psi_star(inst, R_TIE)
    assert (sol.s_minus, sol.s_plus) == (lo, hi)
    assert math.fsum(sol.psi) == pytest.approx(inst.k, abs=1e-9)
    assert sum(1 for w in sol.psi if 0.0 < w < 1.0) <= 2


# The columnar psi* and policy order against the builds over Python sets and
# scalar oracles they replaced, field for field.

def _psi_outcome(build, inst, r):
    try:
        return build(inst, r)
    except ValidationError as exc:
        return type(exc), str(exc)


def assert_psi_and_policy_match_the_references(inst, r):
    got, want = _psi_outcome(compute_psi_star, inst, r), _psi_outcome(psi_star_reference, inst, r)
    assert got == want
    if isinstance(got, PsiSolution):
        assert got.alpha.hex() == want.alpha.hex()
        assert [w.hex() for w in got.psi] == [w.hex() for w in want.psi]
        assert build_policy(inst, got) == build_policy_reference(inst, want)
        return got.frac_pair is not None
    return False


def _minimizer(inst):
    return minimize_hmax(inst, XI_SCALE * inst.mu_max).r_hat


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.builds(lambda inst: (inst, R_TIE), tie_heavy()),
    st.builds(lambda seed: (lambda inst: (inst, _minimizer(inst)))(kink_instance(seed)),
              st.integers(0, 10**6)),
    st.builds(lambda seed: (lambda inst: (inst, _minimizer(inst)))(
        random_continuous_instance(seed, 3, 40)), st.integers(0, 10**6)),
))
def test_columnar_psi_and_policy_are_the_reference_builds(case):
    assert_psi_and_policy_match_the_references(*case)


def test_columnar_psi_and_policy_take_the_fractional_pair_path():
    """No benchmark op reaches a fractional pair; the kink instances do."""
    pairs = sum(assert_psi_and_policy_match_the_references(inst, _minimizer(inst))
                for inst in map(kink_instance, range(120)))
    assert pairs >= 30
