"""Distribution oracle tests: closed forms against independent integration."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from probemax import DiscreteFinite, Exponential, Uniform, ValidationError, point_mass
from probemax.distributions import Mixture
from probemax.errors import ZeroTail

ATOL = 1e-12


def quad_tail_oracle(density, lo, hi, r):
    """E[(X - r)^+] by quadrature over the density, splitting at the kink."""
    kink = [r] if lo < r < hi else None
    g, _ = integrate.quad(
        lambda x: max(x - r, 0.0) * density(x), lo, hi, points=kink, limit=200
    )
    return g


class TestMean:
    def test_two_point(self):
        assert DiscreteFinite([(0, 0.5), (1, 0.5)]).mean() == pytest.approx(0.5, abs=ATOL)

    def test_uniform_midpoint(self):
        assert Uniform(0, 1).mean() == pytest.approx(0.5, abs=ATOL)

    def test_mixture_of_point_masses(self):
        d = Mixture(0.3, point_mass(1.0), point_mass(0.0))
        assert d.mean() == pytest.approx(0.3, abs=ATOL)

    def test_exponential(self):
        assert Exponential(2.0).mean() == pytest.approx(0.5, abs=ATOL)


class TestSurvival:
    def test_atom_inclusive(self):
        assert DiscreteFinite([(0, 0.5), (1, 0.5)]).survival(1.0) == pytest.approx(0.5)

    def test_uniform_linear(self):
        assert Uniform(0, 1).survival(0.25) == pytest.approx(0.75, abs=ATOL)

    def test_exponential_full_mass(self):
        assert Exponential(2.0).survival(0.0) == 1.0

    def test_below_support(self):
        assert DiscreteFinite([(2, 1.0)]).survival(-1.0) == 1.0
        assert Uniform(1, 2).survival(0.5) == 1.0

    def test_above_support(self):
        assert Uniform(0, 1).survival(1.0) == 0.0
        assert DiscreteFinite([(1, 1.0)]).survival(1.5) == 0.0


class TestCondExpGe:
    def test_uniform_tail_midpoint(self):
        assert Uniform(0, 1).cond_exp_ge(0.5) == pytest.approx(0.75, abs=ATOL)

    def test_single_atom_in_tail(self):
        d = DiscreteFinite([(0, 0.5), (1, 0.5)])
        assert d.cond_exp_ge(0.5) == pytest.approx(1.0, abs=ATOL)

    def test_exponential_memoryless(self):
        # frozen from the quadrature oracle below: r + 1/rate = 3.0
        d = Exponential(1.0)
        assert d.cond_exp_ge(2.0) == pytest.approx(3.0, abs=1e-9)
        num, _ = integrate.quad(lambda x: x * math.exp(-x), 2.0, 60.0)
        den, _ = integrate.quad(lambda x: math.exp(-x), 2.0, 60.0)
        assert d.cond_exp_ge(2.0) == pytest.approx(num / den, abs=1e-8)

    def test_zero_tail_raises(self):
        with pytest.raises(ZeroTail):
            point_mass(1.0).cond_exp_ge(2.0)
        with pytest.raises(ZeroTail):
            Uniform(0, 1).cond_exp_ge(1.0)


class TestGValue:
    def test_empty_tail(self):
        assert point_mass(1.0).g_value(2.0) == 0.0

    def test_equals_mean_at_zero(self):
        assert DiscreteFinite([(0, 0.5), (1, 0.5)]).g_value(0.0) == pytest.approx(0.5, abs=ATOL)

    def test_uniform_quadratic(self):
        # frozen from integrating the survival 1 - x over [0.5, 1]: (1-r)^2/2
        assert Uniform(0, 1).g_value(0.5) == pytest.approx(0.125, abs=ATOL)

    @pytest.mark.parametrize("r", [-0.5, 0.0, 0.3, 0.9, 1.7, 2.0, 2.5])
    def test_uniform_matches_quadrature(self, r):
        d = Uniform(0.3, 2.0)
        g_ref = quad_tail_oracle(lambda x: 1.0 / 1.7 if 0.3 <= x <= 2.0 else 0.0, 0.3, 2.0, r)
        assert d.g_value(r) == pytest.approx(g_ref, abs=1e-9)

    @pytest.mark.parametrize("r", [-1.0, 0.0, 0.4, 1.3, 4.0])
    def test_exponential_matches_quadrature(self, r):
        d = Exponential(1.7)
        g_ref = quad_tail_oracle(lambda x: 1.7 * math.exp(-1.7 * x), 0.0, 50.0, r)
        assert d.g_value(r) == pytest.approx(g_ref, abs=1e-9)


def philox_draws(d, trials, seed):
    """Samples of d from a Philox stream keyed by the seed, one uniform each."""
    return d.draw(np.random.Generator(np.random.Philox(key=seed)).random(trials))


class TestSampling:
    def test_point_mass_deterministic(self):
        assert philox_draws(point_mass(1.0), 1, 123)[0] == 1.0

    def test_uniform_range(self):
        draws = philox_draws(Uniform(0, 1), 1000, 7)
        assert np.all((0.0 <= draws) & (draws < 1.0))

    def test_exponential_law_of_large_numbers(self):
        draws = philox_draws(Exponential(1.0), 10**6, 42)
        assert abs(draws.mean() - 1.0) < 0.01

    def test_discrete_frequencies(self):
        d = DiscreteFinite([(0.0, 0.25), (1.0, 0.5), (4.0, 0.25)])
        draws = philox_draws(d, 200_000, 5)
        assert abs((draws == 1.0).mean() - 0.5) < 0.005
        assert abs(draws.mean() - d.mean()) < 0.01

    def test_mixture_coin_then_delegate(self):
        d = Mixture(0.25, point_mass(1.0), point_mass(3.0))
        draws = philox_draws(d, 100_000, 11)
        assert set(np.unique(draws)) == {1.0, 3.0}
        assert abs((draws == 1.0).mean() - 0.25) < 0.01

    @pytest.mark.parametrize("weight, branch", [(0.0, "right"), (1.0, "left")])
    def test_mixture_degenerate_weight_draws_one_branch(self, weight, branch):
        d = Mixture(weight, Uniform(0, 1), Uniform(2, 3))
        u = np.random.default_rng(3).random(1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = d.draw(u)
        assert np.array_equal(draws, getattr(d, branch).draw(u))

    def test_mixture_right_branch_top_uniform_is_finite(self):
        d = Mixture(0.3, Uniform(0, 1), Exponential(1.0))
        assert np.isfinite(d.draw(np.array([np.nextafter(1.0, 0.0)]))).all()

    def test_sample_deterministic_per_seed(self):
        d = Mixture(0.5, Uniform(0, 1), Exponential(2.0))
        a = philox_draws(d, 3, 9)
        b = philox_draws(d, 3, 9)
        assert np.array_equal(a, b)


class TestIsContinuous:
    def test_families(self):
        assert Uniform(0, 1).is_continuous
        assert Exponential(1.0).is_continuous
        assert not DiscreteFinite([(1, 1.0)]).is_continuous

    def test_mixture_of_continuous(self):
        assert Mixture(0.5, Uniform(0, 1), Exponential(1.0)).is_continuous

    def test_mixture_with_discrete(self):
        assert not Mixture(0.5, Uniform(0, 1), point_mass(1.0)).is_continuous


class TestValidation:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            DiscreteFinite([(0, 0.5), (1, 0.4)])

    def test_negative_support_rejected(self):
        with pytest.raises(ValidationError):
            DiscreteFinite([(-1.0, 1.0)])

    def test_zero_prob_atom_rejected(self):
        with pytest.raises(ValidationError):
            DiscreteFinite([(0, 0.0), (1, 1.0)])

    def test_uniform_bounds(self):
        with pytest.raises(ValidationError):
            Uniform(-0.1, 1.0)
        with pytest.raises(ValidationError):
            Uniform(1.0, 1.0)

    def test_exponential_rate(self):
        with pytest.raises(ValidationError):
            Exponential(0.0)

    def test_mixture_nesting_depth(self):
        inner = Mixture(0.5, Uniform(0, 1), Uniform(0, 2))
        with pytest.raises(ValidationError):
            Mixture(0.5, inner, Uniform(0, 1))

    def test_mixture_weight_range(self):
        with pytest.raises(ValidationError):
            Mixture(1.5, Uniform(0, 1), Uniform(0, 2))


def _random_distribution(rng):
    kind = rng.integers(0, 4)
    if kind == 0:
        m = int(rng.integers(1, 5))
        w = rng.integers(1, 10, m).astype(float)
        return DiscreteFinite(list(zip(rng.uniform(0, 10, m).tolist(), (w / w.sum()).tolist())))
    if kind == 1:
        a = float(rng.uniform(0, 4))
        return Uniform(a, a + float(rng.uniform(0.2, 4)))
    if kind == 2:
        return Exponential(float(rng.uniform(0.2, 3)))
    return Mixture(float(rng.uniform(0, 1)),
                   Uniform(0, float(rng.uniform(1, 5))),
                   Exponential(float(rng.uniform(0.5, 2))))


class TestInvariants:
    @pytest.mark.parametrize("seed", range(25))
    def test_monotonicity_in_r(self, seed):
        rng = np.random.default_rng(seed)
        d = _random_distribution(rng)
        rs = np.sort(rng.uniform(-1, 12, 20))
        for r1, r2 in zip(rs, rs[1:]):
            assert d.survival(r1) >= d.survival(r2) - ATOL
            assert d.g_value(r1) >= d.g_value(r2) - ATOL

    @pytest.mark.parametrize("seed", range(25))
    def test_g_value_convexity(self, seed):
        rng = np.random.default_rng(seed + 100)
        d = _random_distribution(rng)
        for _ in range(20):
            r1, r2 = sorted(rng.uniform(-1, 12, 2))
            mid = 0.5 * (r1 + r2)
            assert d.g_value(mid) <= 0.5 * (d.g_value(r1) + d.g_value(r2)) + ATOL

    @pytest.mark.parametrize("seed", range(25))
    def test_oracle_consistency(self, seed):
        rng = np.random.default_rng(seed + 200)
        d = _random_distribution(rng)
        for r in rng.uniform(-1, 12, 20):
            s = d.survival(r)
            if s > 0.0:
                assert abs(d.g_value(r) - s * (d.cond_exp_ge(r) - r)) <= ATOL

    @pytest.mark.parametrize("seed", range(10))
    def test_mixture_law_exact(self, seed):
        rng = np.random.default_rng(seed + 300)
        left = Uniform(0, float(rng.uniform(1, 5)))
        right = Exponential(float(rng.uniform(0.5, 2)))
        w = float(rng.uniform(0, 1))
        mix = Mixture(w, left, right)
        for r in rng.uniform(-1, 8, 20):
            assert mix.survival(r) == w * left.survival(r) + (1 - w) * right.survival(r)

    @pytest.mark.parametrize("seed", range(10))
    def test_discrete_direct_summation(self, seed):
        rng = np.random.default_rng(seed + 400)
        m = int(rng.integers(1, 5))
        w = rng.integers(1, 10, m).astype(float)
        atoms = list(zip(rng.uniform(0, 10, m).tolist(), (w / w.sum()).tolist()))
        d = DiscreteFinite(atoms)
        for r in rng.uniform(-1, 12, 20):
            direct = math.fsum(p * (v - r) for v, p in atoms if v >= r)
            assert abs(d.g_value(r) - direct) <= ATOL


class TestUniformTinyScale:
    """Closed forms stay exact-to-rounding where b*b or (b-r)**2 underflows."""

    @pytest.mark.parametrize("t", [0.0, 0.1, 0.5, 0.9, 0.999])
    def test_scaled_oracles_match_unit_scale(self, t):
        unit, tiny = Uniform(0.5, 2.0), Uniform(0.5e-200, 2.0e-200)
        r = 0.5 + 1.5 * t
        assert tiny.g_value(r * 1e-200) == pytest.approx(unit.g_value(r) * 1e-200, rel=1e-14)
        assert tiny.tail_moment_one(r * 1e-200) == pytest.approx(
            unit.tail_moment_one(r) * 1e-200, rel=1e-14)
