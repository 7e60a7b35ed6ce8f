"""Distribution oracle tests: closed forms against independent integration."""

import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from probemax import DiscreteFinite, Exponential, Uniform, ValidationError, point_mass
from probemax.distributions import _COUNT_DRAW_MAX_ATOMS
from test_packed import NO_AVX512, VARIABLES, has_x86_v4, run_child

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
        d = DiscreteFinite([(1.0, 0.3), (0.0, 0.7)])
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
        with pytest.raises(ValidationError, match=r"^P\(X >= 2\.0\) = 0, "
                           "conditional expectation undefined$"):
            point_mass(1.0).cond_exp_ge(2.0)
        with pytest.raises(ValidationError, match=r"^P\(X >= 1\.0\) = 0, "
                           "conditional expectation undefined$"):
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


#: Rates of the Exponential.draw ulp check, from a thousandth to a thousand.
ULP_RATES = (1e-3, 0.2, 1.0, 1.7, 3.0, 1e3)
#: README's bound on Exponential.draw: its numpy log1p may round differently
#: from math.log1p, depending on the SIMD code numpy dispatches to.
DRAW_ULPS = 2


def draw_ulps(count: int = 100_000, seed: int = 2024) -> int:
    """The most ulps Exponential.draw lies from -math.log1p(-u) / rate.

    Over `count` Philox uniforms per rate in ULP_RATES; every sample is
    non-negative, so the distance is the difference of the bit patterns.
    """
    gen = np.random.Generator(np.random.Philox(key=seed))
    worst = 0
    for rate in ULP_RATES:
        u = gen.random(count)
        got = Exponential(rate).draw(u)
        ref = np.array([-math.log1p(-x) / rate for x in u.tolist()])
        worst = max(worst, int(np.abs(got.view(np.int64) - ref.view(np.int64)).max()))
    return worst


DRAW_CHILD = """
import json, sys
from numpy._core._multiarray_umath import __cpu_features__
from test_distributions import draw_ulps

json.dump({"x86_v4": bool(__cpu_features__.get("X86_V4")), "ulps": draw_ulps()}, sys.stdout)
"""


def test_exponential_draw_is_within_its_ulp_bound():
    assert draw_ulps() <= DRAW_ULPS


@pytest.mark.skipif(not has_x86_v4(), reason="host has no X86_V4 (AVX-512) dispatch to turn off")
def test_exponential_draw_is_within_its_ulp_bound_without_avx512():
    child = run_child({"NPY_DISABLE_CPU_FEATURES": NO_AVX512}, DRAW_CHILD)
    assert not child["x86_v4"]
    assert child["ulps"] <= DRAW_ULPS


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

    def test_sample_deterministic_per_seed(self):
        d = Exponential(2.0)
        a = philox_draws(d, 3, 9)
        b = philox_draws(d, 3, 9)
        assert np.array_equal(a, b)



def reference_draw(d, u):
    """The clipped-searchsorted discrete draw over the full cumulative sums."""
    idx = np.searchsorted(np.cumsum(d.probs), u, side="right")
    return d.values[np.minimum(idx, len(d.values) - 1)]


def same_bits(a, b):
    return type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@st.composite
def discretes(draw, max_atoms=_COUNT_DRAW_MAX_ATOMS + 32):
    """m atoms with integer weights, a share of them tiny.

    Tiny weights leave some cumulative sums equal (flat steps) and put cuts
    a few ulps apart.  The weights come from a seeded numpy stream, which
    keeps examples with many atoms cheap to generate.
    """
    m = draw(st.integers(1, max_atoms))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.integers(1, 11, m).astype(float)
    tiny = rng.random(m) < draw(st.sampled_from((0.0, 0.1, 0.5)))
    weights[tiny] = 10.0 ** -rng.uniform(6.0, 20.0, int(tiny.sum()))
    values = rng.permutation(m) * draw(st.sampled_from((1.0, 0.375, 1e-300)))
    probs = weights / math.fsum(weights)
    return DiscreteFinite(list(zip(values.tolist(), probs.tolist())))


def edge_uniforms(d):
    """0, every cumulative sum, its float neighbours and the top uniform."""
    cuts = np.cumsum(d.probs)
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cuts,
                        np.nextafter(cuts, 0.0), np.nextafter(cuts, 2.0)])
    return u[(0.0 <= u) & (u < 1.0)]


class TestDrawMatchesReference:
    """The fast draws equal their reference forms bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(discretes(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
    @example(point_mass(0.0), [])
    @example(DiscreteFinite([(1.0, 0.5), (1e-300, 0.5 - 1e-18), (2.0, 1e-18)]), [0.5])
    def test_discrete(self, d, extra):
        u = np.concatenate([edge_uniforms(d), extra])
        assert same_bits(d.draw(u), reference_draw(d, u))
        for one in u[:8]:
            assert same_bits(d.draw(np.array(one)), reference_draw(d, np.array(one)))
            assert same_bits(d.draw(float(one)), reference_draw(d, float(one)))

    @pytest.mark.parametrize("m", [1, 2, _COUNT_DRAW_MAX_ATOMS, _COUNT_DRAW_MAX_ATOMS + 1, 300])
    def test_discrete_both_sides_of_the_cutover(self, m):
        d = DiscreteFinite([(float(i), 1.0 / m) for i in range(m)])
        u = np.concatenate([edge_uniforms(d), np.random.default_rng(m).random(1000)])
        assert same_bits(d.draw(u), reference_draw(d, u))
        grid = u[: u.size // 2 * 2].reshape(2, -1)
        assert same_bits(d.draw(grid), reference_draw(d, grid))

    def test_exponential(self):
        d = Exponential(0.37)
        u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], np.random.default_rng(1).random(1000)])
        assert same_bits(d.draw(u), -np.log1p(-u) / d.rate)
        for one in (np.array(u[5]), float(u[5])):
            assert same_bits(d.draw(one), -np.log1p(-one) / d.rate)


@pytest.mark.parametrize(
    "d",
    [
        DiscreteFinite([(0.0, 0.25), (1.5, 0.75)]),
        Uniform(0.1, 2.0),
        Exponential(0.7),
    ],
    ids=["discrete", "uniform", "exponential"],
)
def test_repr_round_trips(d):
    names = {"DiscreteFinite": DiscreteFinite, "Uniform": Uniform, "Exponential": Exponential}
    assert eval(repr(d), names) == d


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

    def test_exponential_rate_whose_mean_overflows(self):
        with pytest.raises(ValidationError, match=r"rate 5e-324 is too small: its mean 1/rate"):
            Exponential(5e-324)
        edge = 1.0 / sys.float_info.max  # subnormal, and 1.0 / edge rounds up to inf
        with pytest.raises(ValidationError, match="too small"):
            Exponential(edge)
        assert math.isfinite(Exponential(math.nextafter(edge, 1.0)).mean())

    def test_uniform_whose_mean_overflows(self):
        with pytest.raises(ValidationError, match=r"^uniform endpoints a=1e\+308, b=1\.5e\+308 "
                           "are too large: their mean overflows$"):
            Uniform(1e308, 1.5e308)
        top = sys.float_info.max
        with pytest.raises(ValidationError, match="their mean overflows"):
            Uniform(math.nextafter(top, 0.0), top)  # a + b overflows, though b - a is finite
        assert Uniform(0.0, top).mean() == 0.5 * top
        assert Uniform(top / 4, top / 2).mean() == 0.375 * top

    def test_discrete_whose_mean_overflows(self):
        top = sys.float_info.max
        atoms = [(math.nextafter(top, 0.0), 0.5), (top, 0.5000000000001)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"^support values up to "
                               r"1\.7976931348623157e\+308 are too large: their mean overflows$"):
                DiscreteFinite(atoms)
        assert DiscreteFinite([(top, 1.0)]).mean() == top
        assert DiscreteFinite([(top, 0.5), (top / 2, 0.5)]).mean() == 0.75 * top


def _random_distribution(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        m = int(rng.integers(1, 5))
        w = rng.integers(1, 10, m).astype(float)
        return DiscreteFinite(list(zip(rng.uniform(0, 10, m).tolist(), (w / w.sum()).tolist())))
    if kind == 1:
        a = float(rng.uniform(0, 4))
        return Uniform(a, a + float(rng.uniform(0.2, 4)))
    return Exponential(float(rng.uniform(0.2, 3)))


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
        """The w-mixture of two discrete rows, as one row of their scaled atoms.

        Values are small integers and every probability and weight a
        multiple of 1/16, so every sum is exact: shared values merge, and
        survival and tail moment are the w-mix of the rows' bit for bit.
        """
        rng = np.random.default_rng(seed + 300)
        rows = []
        for _ in range(2):
            m = int(rng.integers(1, 5))
            weights = rng.multinomial(16 - m, [1.0 / m] * m) + 1
            rows.append([(float(v), w / 16) for v, w in zip(rng.integers(0, 6, m), weights)])
        w = int(rng.integers(1, 16)) / 16
        left, right = (DiscreteFinite(atoms) for atoms in rows)
        mix = DiscreteFinite([(v, w * p) for v, p in rows[0]]
                             + [(v, (1 - w) * p) for v, p in rows[1]])
        for r in [*range(-1, 7), *rng.uniform(-1, 7, 12)]:
            assert mix.survival(r) == w * left.survival(r) + (1 - w) * right.survival(r)
            assert mix.tail_moment_one(r) == (w * left.tail_moment_one(r)
                                              + (1 - w) * right.tail_moment_one(r))

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


def lowest(d) -> float:
    """The lowest point of d's support."""
    if isinstance(d, DiscreteFinite):
        return d.values[0].item()
    return d.a if isinstance(d, Uniform) else 0.0


@settings(max_examples=300, deadline=None)
@given(VARIABLES, st.floats(max_value=0.0, allow_nan=False))
@example(DiscreteFinite([(3.8367755426188346, 0.375), (6.1538511148125385, 0.4166666666666667),
                         (6.471895115742501, 0.20833333333333334)]), -1.0)
@example(DiscreteFinite([(1.0, 0.9999999999999999)]), 0.0)
def test_mean_is_the_tail_moment_below_the_support(d, shift):
    """One mean: at every r at or below the lowest support point,
    tail_moment_one(r) is mean() bit for bit, and g_value(r) is mean() - r.

    A discrete row whose probabilities sum to just under 1 has its mean
    below its lowest atom; there g_value clamps mean() - r < 0 to 0.0.
    """
    low = lowest(d)
    for r in [r for r in (low, low + shift, -0.0, 0.0) if r <= low]:
        assert d.tail_moment_one(r).hex() == d.mean().hex()
        assert d.g_value(r).hex() == max(d.mean() - r, 0.0).hex()


class TestUniformTinyScale:
    """Closed forms stay exact-to-rounding where b*b or (b-r)**2 underflows."""

    @pytest.mark.parametrize("t", [0.0, 0.1, 0.5, 0.9, 0.999])
    def test_scaled_oracles_match_unit_scale(self, t):
        unit, tiny = Uniform(0.5, 2.0), Uniform(0.5e-200, 2.0e-200)
        r = 0.5 + 1.5 * t
        assert tiny.g_value(r * 1e-200) == pytest.approx(unit.g_value(r) * 1e-200, rel=1e-14)
        assert tiny.tail_moment_one(r * 1e-200) == pytest.approx(
            unit.tail_moment_one(r) * 1e-200, rel=1e-14)


@st.composite
def uniform_and_inner_r(draw):
    """Uniform(a, b) at scale 1e-200, 1 or 1e200, and a float r with a < r < b.

    Half the draws put r 1e-16 to 1e-8 relative below b, where b*b - r*r
    cancels.
    """
    scale = draw(st.sampled_from([1e-200, 1.0, 1e200]))
    a = draw(st.floats(0.0, 1e3)) * scale
    b = a + draw(st.floats(1e-6, 1e3)) * scale
    if draw(st.booleans()):
        r = b * (1.0 - 10.0 ** draw(st.floats(-16.0, -8.0)))
    else:
        r = a + draw(st.floats(0.0, 1.0)) * (b - a)
    assume(a < r < b)
    return Uniform(a, b), r


@settings(max_examples=500, deadline=None)
@given(uniform_and_inner_r())
@example((Uniform(2.0, 3.0), 3.0 - 1e-13))
def test_uniform_oracles_are_exact_to_rounding_at_every_scale(case):
    """G(r), E[X * 1{X >= r}] and E[X | X >= r] inside (a, b) lie within
    1e-15 relative of their exact values (b-r)^2 / (2(b-a)),
    (b^2 - r^2) / (2(b-a)) and (r+b) / 2, at every scale and for r as
    close as 1e-16 relative below b."""
    d, r = case
    a, b, x = Fraction(d.a), Fraction(d.b), Fraction(r)
    exact = {
        "g_value": (b - x) ** 2 / (2 * (b - a)),
        "tail_moment_one": (b * b - x * x) / (2 * (b - a)),
        "cond_exp_ge": (x + b) / 2,
    }
    for name, value in exact.items():
        got = getattr(d, name)(r)
        assert abs(Fraction(got) - value) <= Fraction(1, 10**15) * value, (name, got)


def test_uniform_cond_exp_ge_stays_below_b_one_ulp_from_it():
    """The tail moment over the survival landed 1 ulp above b here."""
    b = 13.205137423560831
    r = 13.20513742356083
    assert r < Uniform(6.859572319726135, b).cond_exp_ge(r) <= b


@settings(max_examples=500, deadline=None)
@given(st.floats(0.0, 1e3), st.floats(1e-6, 1e3), st.floats(-16.0, -14.0),
       st.sampled_from([2.0**-60, 1.0, 2.0**60]))
def test_uniform_cond_exp_ge_lies_in_its_tail(a, width, log_gap, scale):
    """r <= E[X | X >= r] <= b for r 1e-16 to 1e-14 relative below b."""
    a, b = a * scale, (a + width) * scale
    r = b * (1.0 - 10.0**log_gap)
    assume(a < r < b)
    assert r <= Uniform(a, b).cond_exp_ge(r) <= b


@pytest.mark.parametrize("d", [point_mass(2.0), Uniform(0, 1), Exponential(1.0)],
                         ids=["discrete", "uniform", "exponential"])
@pytest.mark.parametrize("sign", [1, -1], ids=["above", "below"])
def test_oracles_take_an_int_beyond_the_float_range(d, sign):
    """10**400 does not fit a float; the oracles read it as +-inf."""
    r = sign * 10**400
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if sign > 0:
            assert (d.survival(r), d.tail_moment_one(r), d.g_value(r)) == (0.0, 0.0, 0.0)
            with pytest.raises(ValidationError, match=r"^P\(X >= inf\) = 0, "):
                d.cond_exp_ge(r)
        else:
            assert (d.survival(r), d.tail_moment_one(r), d.g_value(r)) == (1.0, d.mean(), math.inf)
            assert d.cond_exp_ge(r) == d.mean()
