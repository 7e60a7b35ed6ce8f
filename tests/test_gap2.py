"""Tests for the factor-(2 + eps) construction on general variables."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import h_value, random_discrete_instance
from probemax import (
    DiscreteFinite,
    Instance,
    ThresholdPolicy,
    Uniform,
    ValidationError,
    adaptive_optimum_dp,
    evaluate,
    expected_max_exact_discrete,
    point_mass,
    rho,
    select_gap2_set,
)
from probemax.cli import main
from probemax.gap2 import GUARANTEE_RTOL, build_tilde_set, narrow_interval, tie_class_at
from probemax.instance_io import emit_instance
from probemax.minmax import h_max

TWO_UNIFORM = Instance([Uniform(0, 1), Uniform(0, 1)], 2)


def gap2_policy(inst, result) -> ThresholdPolicy:
    """The stopping policy over the chosen set at the root threshold."""
    return ThresholdPolicy([inst.dists[i] for i in result.chosen], result.threshold)


def epsilon_message(eps) -> str:
    """Pattern of the whole message that rejects epsilon `eps`."""
    return f"^epsilon={re.escape(repr(eps))} must lie strictly inside \\(0, 1\\)$"


class TestNarrowInterval:
    def test_width_formula_two_uniform(self):
        bound = narrow_interval(TWO_UNIFORM, 0.05)
        assert bound.xi == pytest.approx(0.05 * 0.5 / 40)
        assert bound.r_plus - bound.r_minus <= 0.05 * 0.5 / 40

    def test_width_formula_point_mass(self):
        inst = Instance([point_mass(1.0)], 1)
        bound = narrow_interval(inst, 0.2)
        assert bound.r_plus - bound.r_minus <= 0.01

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, 1.5])
    def test_epsilon_rejected(self, eps):
        with pytest.raises(ValidationError, match=epsilon_message(eps)):
            narrow_interval(TWO_UNIFORM, eps)


class TestTieClass:
    def test_no_tie(self):
        inst = Instance([point_mass(3.0), point_mass(2.0), point_mass(1.0)], 2)
        tc = tie_class_at(inst, 0.0)
        assert tc.prefix == (0,)
        assert tc.tied == (1,)
        assert tc.slots == 1

    def test_tie_block(self):
        inst = Instance([point_mass(2.0), point_mass(1.0), point_mass(1.0)], 2)
        tc = tie_class_at(inst, 0.0)
        assert tc.prefix == (0,)
        assert tc.tied == (1, 2)
        assert tc.slots == 1
        assert len(tc.prefix) + tc.slots == inst.k

    def test_tied_in_anchor_order(self):
        # G values 1e-13 apart tie within TIE_TOL * mu_max; the larger one leads.
        inst = Instance([point_mass(2.0), point_mass(1.0), point_mass(1.0 + 1e-13)], 2)
        tc = tie_class_at(inst, 0.0)
        assert tc.prefix == (0,)
        assert tc.tied == (2, 1)
        assert tc.slots == 1
        assert tc.fill([0.0] * inst.n) == (0, 1)


class TestBuildTildeSet:
    def test_no_ties_top_k(self):
        inst = Instance([point_mass(3.0), point_mass(2.0), point_mass(1.0)], 2)
        assert build_tilde_set(inst, 0.0, 0.01) == (0, 1)

    def test_probe_tie_breaks_by_index(self):
        inst = Instance([point_mass(2.0), point_mass(1.0), point_mass(1.0)], 2)
        # both tied members have G = 0 at the probe point
        assert build_tilde_set(inst, 0.0, 1.5) == (0, 1)

    def test_probe_value_decides_slot(self):
        # G of Uniform(0,2) and point_mass(1) tie exactly at the anchor 0
        # (both equal 1); the uniform wins the slot at probe +xi and ties
        # are broken toward it at probe -xi as well.
        inst = Instance([point_mass(2.0), Uniform(0, 2), point_mass(1.0)], 2)
        assert inst.dists[1].g_value(0.0) == inst.dists[2].g_value(0.0) == 1.0
        assert build_tilde_set(inst, 0.0, 0.01) == (0, 1)
        assert build_tilde_set(inst, 0.0, -0.01) == (0, 1)

    def test_membership_in_envelope_argmax(self):
        for seed in range(20):
            inst = random_discrete_instance(seed)
            bound = narrow_interval(inst, 0.05)
            for anchor, probe in (
                (bound.r_plus, bound.r_plus + bound.xi),
                (bound.r_minus, bound.r_minus - bound.xi),
            ):
                chosen = build_tilde_set(inst, anchor, probe)
                assert len(chosen) == inst.k
                assert h_value(inst, anchor, chosen) >= h_max(inst, anchor) - 1e-10


class TestSelectGap2Set:
    def test_two_uniform_closed_form(self):
        result = select_gap2_set(TWO_UNIFORM, 0.05)
        assert result.chosen == (0, 1)
        assert result.threshold == pytest.approx(0.381966, abs=1e-5)
        assert result.bound.u_star == pytest.approx(0.75, abs=1e-6)
        assert result.bound.u_star <= 2.05 * result.threshold

    def test_point_mass_boundary(self):
        inst = Instance([point_mass(1.0)], 1)
        result = select_gap2_set(inst, 0.1)
        assert result.chosen == (0,)
        assert result.threshold == pytest.approx(0.5, abs=1e-9)
        assert result.bound.u_star <= 2.1 * result.threshold + 1e-9

    def test_threshold_is_max_rho(self):
        for seed in range(10):
            inst = random_discrete_instance(seed + 600)
            result = select_gap2_set(inst, 0.05)
            assert result.threshold == max(result.rho_plus, result.rho_minus)
            assert result.rho_plus == pytest.approx(rho(inst, result.s_tilde_plus))
            assert result.rho_minus == pytest.approx(rho(inst, result.s_tilde_minus))

    def test_small_instance_against_dp(self):
        rng = np.random.default_rng(77)
        values = rng.uniform(0, 10, 3)
        dists = [point_mass(float(v)) for v in values]
        inst = Instance(dists, 2)
        result = select_gap2_set(inst, 0.05)
        exact = expected_max_exact_discrete(inst.dists, result.chosen)
        assert exact >= (0.5 - 0.05) * adaptive_optimum_dp(inst)

    @pytest.mark.parametrize("eps", [0.0, 1.0])
    def test_epsilon_validation(self, eps):
        with pytest.raises(ValidationError, match=epsilon_message(eps)):
            select_gap2_set(TWO_UNIFORM, eps)


class TestGap2Policy:
    def test_point_mass_floor(self):
        inst = Instance([point_mass(1.0)], 1)
        result = select_gap2_set(inst, 0.1)
        stats = evaluate(gap2_policy(inst, result))
        assert stats.expected_reward == pytest.approx(1.0)
        assert stats.expected_reward >= result.threshold

    def test_two_uniform_floor(self):
        result = select_gap2_set(TWO_UNIFORM, 0.05)
        stats = evaluate(gap2_policy(TWO_UNIFORM, result))
        assert stats.expected_reward >= result.threshold - 1e-9

    def test_single_two_point_variable(self):
        # root of (2 - r)/2 = r is 2/3; accepting the only atom in the tail
        # pays 0.5 * 2 = 1
        inst = Instance([DiscreteFinite([(0.0, 0.5), (2.0, 0.5)])], 1)
        result = select_gap2_set(inst, 0.05)
        assert result.threshold == pytest.approx(2.0 / 3.0, abs=1e-9)
        stats = evaluate(gap2_policy(inst, result))
        assert stats.expected_reward == pytest.approx(1.0, abs=1e-12)


class TestGuarantees:
    @pytest.mark.parametrize("seed", range(60))
    def test_lemma_bound_and_prophet_floor(self, seed):
        inst = random_discrete_instance(seed)
        eps = 0.05
        result = select_gap2_set(inst, eps)
        u_star = result.bound.u_star
        assert u_star <= (2 + eps) * result.threshold + 1e-9 * u_star
        stats = evaluate(gap2_policy(inst, result))
        assert stats.expected_reward >= result.threshold - 1e-9

    @pytest.mark.parametrize("seed", range(40))
    def test_end_to_end_gap_against_dp(self, seed):
        inst = random_discrete_instance(seed + 1000, n_lo=2, n_hi=6)
        if inst.k > 3:
            inst = Instance(inst.dists, 3)
        eps = 0.05
        result = select_gap2_set(inst, eps)
        exact = expected_max_exact_discrete(inst.dists, result.chosen)
        assert exact >= (0.5 - eps) * adaptive_optimum_dp(inst)

    @pytest.mark.parametrize("seed", [3, 14, 159])
    def test_determinism(self, seed):
        inst = random_discrete_instance(seed)
        first = select_gap2_set(inst, 0.05)
        second = select_gap2_set(inst, 0.05)
        assert first == second

    def test_determinism_under_ties(self):
        dists = [point_mass(1.0) for _ in range(4)]
        inst = Instance(dists, 2)
        first = select_gap2_set(inst, 0.05)
        second = select_gap2_set(inst, 0.05)
        assert first == second
        assert first.chosen == (0, 1)


@st.composite
def zero_atom_instances(draw):
    """Small discrete instances where about half the rows start with a zero atom.

    n in 2..6, k in 1..n, 1-3 atoms per row with values Exp(1) * 10^U(0, 2)
    rounded to 3 decimals, and probabilities floored at 1e-4 and renormalized.
    """
    n = draw(st.integers(2, 6))
    dists = []
    for _ in range(n):
        m = draw(st.integers(1, 3))
        values = [round(draw(st.floats(0.0, 5.0)) * 10.0 ** draw(st.floats(0.0, 2.0)), 3)
                  for _ in range(m)]
        if draw(st.booleans()):
            values[0] = 0.0
        weights = draw(st.lists(st.floats(1e-4, 1.0), min_size=m, max_size=m))
        dists.append(DiscreteFinite([(v, w / sum(weights)) for v, w in zip(values, weights)]))
    assume(any(d.mean() > 0.0 for d in dists))
    return Instance(dists, draw(st.integers(1, n)))


@settings(max_examples=200, deadline=None)
@given(zero_atom_instances(), st.sampled_from([0.05, 1e-3, 1e-6, 1e-9]))
def test_gap2_answers_every_instance_with_zero_atoms(inst, epsilon):
    """A tilde set of zero-mean variables loses to the other set instead of
    ending the run, and the factor-(2 + eps) guarantee holds."""
    res = select_gap2_set(inst, epsilon)
    assert res.bound.u_star <= (2.0 + epsilon) * res.threshold * (1.0 + GUARANTEE_RTOL)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "zero.inst"
        path.write_text(emit_instance(inst))
        assert main(["gap2", str(path), "--epsilon", repr(epsilon),
                     "--out", str(Path(tmp) / "out.csv")]) == 0
