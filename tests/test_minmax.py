"""Envelope, bound bracketing, root threshold, and derivative tests."""

import math
from itertools import combinations

import numpy as np
import pytest

from conftest import h_value, random_continuous_instance, random_discrete_instance
from probemax import (
    DiscreteFinite,
    Exponential,
    Instance,
    Uniform,
    ValidationError,
    minimize_hmax,
    point_mass,
    rho,
)
from probemax.gap2 import tie_class_at
from probemax.minmax import h_derivative_continuous, h_max

TWO_UNIFORM = Instance([Uniform(0, 1), Uniform(0, 1)], 2)


def envelope_witness(inst, r):
    """The k largest G_i(r), taken from the tie class at r."""
    tc = tie_class_at(inst, r)
    return tc.prefix + tc.tied[: tc.slots]


class TestInstance:
    def test_k_bounds(self):
        with pytest.raises(ValidationError):
            Instance([Uniform(0, 1)], 0)
        with pytest.raises(ValidationError):
            Instance([Uniform(0, 1)], 2)

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError):
            Instance([point_mass(0.0)], 1)

    def test_mu_max(self):
        inst = Instance([point_mass(2.0), Uniform(0, 1)], 1)
        assert inst.mu_max == 2.0


class TestHValue:
    def test_point_mass_at_zero(self):
        inst = Instance([point_mass(1.0)], 1)
        assert h_value(inst, 0.0, [0]) == pytest.approx(1.0, abs=1e-12)

    def test_two_uniforms(self):
        # 0.5 + 2 * (1 - 0.5)^2 / 2
        assert h_value(TWO_UNIFORM, 0.5, [0, 1]) == pytest.approx(0.75, abs=1e-12)

    def test_empty_subset(self):
        assert h_value(TWO_UNIFORM, 0.0, []) == 0.0

    def test_bad_subset(self):
        with pytest.raises(ValidationError, match=r"^index 2 outside \[0, 2\)$"):
            h_value(TWO_UNIFORM, 0.0, [2])
        with pytest.raises(ValidationError, match=r"^duplicate indices in subset \(0, 0\)$"):
            h_value(TWO_UNIFORM, 0.0, [0, 0])


class TestHMax:
    def test_both_in(self):
        value = h_max(TWO_UNIFORM, 0.5)
        assert value == pytest.approx(0.75, abs=1e-12)
        witness = envelope_witness(TWO_UNIFORM, 0.5)
        assert sorted(witness) == [0, 1]
        assert value.hex() == h_value(TWO_UNIFORM, 0.5, witness).hex()

    def test_larger_mean_wins(self):
        inst = Instance([point_mass(2.0), point_mass(1.0)], 1)
        assert h_max(inst, 0.0) == pytest.approx(2.0)
        assert envelope_witness(inst, 0.0) == (0,)
        assert h_max(inst, 0.0).hex() == h_value(inst, 0.0, (0,)).hex()

    def test_tie_breaks_low_index(self):
        inst = Instance([point_mass(1.0), point_mass(1.0)], 1)
        assert h_max(inst, 0.0) == pytest.approx(1.0)
        assert envelope_witness(inst, 0.0) == (0,)
        assert h_max(inst, 0.0).hex() == h_value(inst, 0.0, (0,)).hex()


class TestMinimizeHmax:
    def test_single_point_mass(self):
        inst = Instance([point_mass(1.0)], 1)
        bound = minimize_hmax(inst, 1e-6)
        assert bound.u_star == pytest.approx(1.0, abs=1e-6)
        assert bound.r_plus - bound.r_minus <= 1e-6

    def test_two_uniform_closed_form(self):
        # k iid Uniform(0,1) with k = n: r* = 1 - 1/k, U* = 1 - 1/(2k)
        bound = minimize_hmax(TWO_UNIFORM, 1e-6)
        assert bound.r_hat == pytest.approx(0.5, abs=1e-4)
        assert bound.u_star == pytest.approx(0.75, abs=1e-6)

    def test_five_uniform_closed_form(self):
        inst = Instance([Uniform(0, 1) for _ in range(5)], 5)
        bound = minimize_hmax(inst, 1e-6)
        assert bound.u_star == pytest.approx(0.9, abs=1e-6)

    def test_invalid_tolerance(self):
        with pytest.raises(ValidationError, match=r"^xi_target=0\.0 must be a positive real$"):
            minimize_hmax(TWO_UNIFORM, 0.0)
        with pytest.raises(ValidationError, match=r"^xi_target=-0\.001 must be a positive real$"):
            minimize_hmax(TWO_UNIFORM, -1e-3)

    def test_iteration_budget(self):
        bound = minimize_hmax(TWO_UNIFORM, 1e-9)
        # golden section: iterations ~ log(n mu_max / xi) / log(phi)
        expected = math.log(2 * 0.5 / 1e-9) / math.log((1 + math.sqrt(5)) / 2)
        assert bound.iterations <= expected + 3

    def test_bracket_stops_at_float_resolution(self):
        # H_max(r) = 0.5 + r^2 / 2 rounds to 0.5 for r below about 1e-8; ties
        # keep the bracket inside that flat stretch, where its width stalls at
        # one ulp, far above 1e-300.
        bound = minimize_hmax(Instance([Uniform(0, 1)] * 2, 1), 1e-300)
        assert 0.0 <= bound.r_minus <= bound.r_hat <= bound.r_plus
        assert bound.r_plus - bound.r_minus <= 4.0 * math.ulp(bound.r_plus)
        assert bound.u_star == 0.5

    def test_bound_fields(self):
        bound = minimize_hmax(TWO_UNIFORM, 1e-5)
        assert 0.0 <= bound.r_minus <= bound.r_hat <= bound.r_plus <= 2 * 0.5
        assert bound.r_plus - bound.r_minus <= bound.xi
        assert bound.u_star >= TWO_UNIFORM.mu_max


class TestRho:
    def test_point_mass(self):
        inst = Instance([point_mass(1.0)], 1)
        assert rho(inst, [0]) == pytest.approx(0.5, abs=1e-10)

    def test_two_uniforms_quadratic_root(self):
        # (1 - r)^2 = r has root (3 - sqrt(5)) / 2
        assert rho(TWO_UNIFORM, [0, 1]) == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-10)

    def test_piecewise_linear_root(self):
        inst = Instance([point_mass(0.6), DiscreteFinite([(0, 0.5), (1, 0.5)])], 1)
        # (0.6 - r) + 0.5 (1 - r) = r for r <= 0.6
        assert rho(inst, [0, 1]) == pytest.approx(0.44, abs=1e-10)

    def test_subnormal_scale_terminates(self):
        # 1e-12 * 1e-315 rounds to 0, so the width test alone never stops
        inst = Instance([point_mass(1e-315)], 1)
        assert rho(inst, [0]) == pytest.approx(0.5e-315, rel=1e-6)

    def test_degenerate_set(self):
        inst = Instance([point_mass(0.0), point_mass(1.0)], 1)
        with pytest.raises(ValidationError, match="^subset with zero total mean has root 0 "
                           "and no guarantee$"):
            rho(inst, [0])
        with pytest.raises(ValidationError, match="^empty subset has no root threshold$"):
            rho(inst, [])


class TestDerivative:
    def test_two_uniforms_at_half(self):
        assert h_derivative_continuous(TWO_UNIFORM, 0.5, [0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_empty_tail(self):
        assert h_derivative_continuous(TWO_UNIFORM, 1.5, [0]) == pytest.approx(1.0)

    def test_exponential_at_zero(self):
        inst = Instance([Exponential(1.0)], 1)
        assert h_derivative_continuous(inst, 0.0, [0]) == pytest.approx(0.0)

    def test_discrete_rejected(self):
        inst = Instance([point_mass(1.0), Uniform(0, 1)], 1)
        with pytest.raises(ValidationError, match="^variable 0 has a discontinuous CDF; "
                           "derivative undefined$"):
            h_derivative_continuous(inst, 0.5, [0, 1])


class TestProperties:
    @pytest.mark.parametrize("seed", range(15))
    def test_envelope_convexity(self, seed):
        inst = random_discrete_instance(seed)
        rng = np.random.default_rng(seed)
        hi = inst.n * inst.mu_max
        for _ in range(10):
            r1, r2 = sorted(rng.uniform(0, hi, 2))
            mid_value = h_max(inst, 0.5 * (r1 + r2))
            assert mid_value <= 0.5 * (h_max(inst, r1) + h_max(inst, r2)) + 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_minimizer_location(self, seed):
        # u_star = H_max(r_hat) overshoots the true minimum by at most k * xi
        # (the envelope slopes lie in [1 - k, 1]), so points outside the
        # bracketing domain must not undercut it by more than that.
        inst = random_discrete_instance(seed + 50)
        hi = inst.n * inst.mu_max
        bound = minimize_hmax(inst, 1e-7 * inst.mu_max)
        slack = inst.k * bound.xi + 1e-10
        assert h_max(inst, 0.0) <= hi + 1e-9
        rng = np.random.default_rng(seed)
        for r in rng.uniform(hi + 1.0, 3 * hi + 1.0, 5):
            assert h_max(inst, r) > bound.u_star
        for r in rng.uniform(-hi, -1e-9, 5):
            assert h_max(inst, r) >= bound.u_star - slack

    @pytest.mark.parametrize("seed", range(15))
    def test_derivative_matches_central_difference(self, seed):
        inst = random_continuous_instance(seed)
        rng = np.random.default_rng(seed + 1)
        subset = sorted(rng.choice(inst.n, size=inst.k, replace=False).tolist())
        delta = 1e-5
        endpoints = set()
        for d in inst.dists:
            if isinstance(d, Uniform):
                endpoints.update((d.a, d.b))
            else:
                endpoints.add(0.0)
        for _ in range(50):
            r = float(rng.uniform(0, inst.n * inst.mu_max))
            if any(abs(r - e) < 10 * delta for e in endpoints):
                continue
            central = (h_value(inst, r + delta, subset) - h_value(inst, r - delta, subset)) / (2 * delta)
            assert abs(h_derivative_continuous(inst, r, subset) - central) <= 1e-4

    @pytest.mark.parametrize("seed", range(15))
    def test_root_sign_property(self, seed):
        inst = random_discrete_instance(seed + 150)
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, inst.n + 1))
        subset = sorted(rng.choice(inst.n, size=size, replace=False).tolist())
        root = rho(inst, subset)
        delta = 1e-6 * (1 + root)

        def g_sum(r):
            return math.fsum(inst.dists[i].g_value(r) for i in subset)

        assert g_sum(root - delta) > root - delta
        assert g_sum(root + delta) < root + delta

    @pytest.mark.parametrize("seed", range(8))
    def test_envelope_dominates_every_subset(self, seed):
        inst = random_discrete_instance(seed + 300, n_lo=4, n_hi=8)
        rng = np.random.default_rng(seed)
        for r in rng.uniform(0, inst.n * inst.mu_max, 5):
            value = h_max(inst, r)
            witness = envelope_witness(inst, r)
            assert len(witness) == inst.k
            assert value.hex() == h_value(inst, r, witness).hex()
            for subset in combinations(range(inst.n), inst.k):
                assert value >= h_value(inst, r, subset) - 1e-12
