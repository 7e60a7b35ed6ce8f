"""Envelope, bound bracketing, root threshold, and derivative tests."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    golden_section_reference,
    h_value,
    random_continuous_instance,
    random_discrete_instance,
)
from probemax import (
    DiscreteFinite,
    Exponential,
    Instance,
    Uniform,
    ValidationError,
    gen_instance,
    minimize_hmax,
    point_mass,
    rho,
)
from probemax.distributions import _Packed
from probemax.gap2 import XI_DENOMINATOR, tie_class_at
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


# The search drops the variables its bracket rules out of the top k and
# skips points past every support; the plain search is the reference.

def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _zero_atom_rows():
    """A zero atom and one or two positive ones."""
    return st.builds(
        lambda p0, q, v1, v2: DiscreteFinite([(0.0, p0), (v1, q * (1 - p0)),
                                              (v2, (1 - q) * (1 - p0))]),
        _floats(0.01, 0.99), _floats(0.01, 0.99), _floats(0.01, 100.0),
        _floats(0.01, 100.0))


def _needles():
    """{0, v/p} with p log-uniform in [1e-3, 1]; a point mass at p = 1."""
    def needle(v, log_p):
        p = 10.0**log_p
        return point_mass(v) if p >= 1.0 else DiscreteFinite([(0.0, 1.0 - p), (v / p, p)])
    return st.builds(needle, _floats(0.5, 2.0), _floats(-3.0, 0.0))


def _variables():
    return st.one_of(
        _zero_atom_rows(),
        _needles(),
        st.builds(point_mass, st.sampled_from([0.0, 1.0, 2.5, 10.0])),
        st.builds(lambda a, w: Uniform(a, a + w), _floats(0.0, 5.0), _floats(0.5, 5.0)),
        st.builds(Exponential, _floats(0.2, 2.0)),
    )


@st.composite
def search_instances(draw):
    """(instance, xi) over the shapes that stress the pruning rules, at scales 2^-60 to 2^60.

    xi runs from epsilon = 0.05 down to 1e-12 in gap2's terms, and in one
    case of five to the smallest float, where the bracket ends a few ulps
    apart and the rounded G values at its two ends can tie.
    """
    kind = draw(st.sampled_from(["mixed", "close-rates", "iid-uniform"]))
    n = draw(st.integers(1, 30))
    if kind == "mixed":
        dists = draw(st.lists(_variables(), min_size=n, max_size=n))
    elif kind == "close-rates":  # rates a few ulps apart
        rate = draw(_floats(0.2, 2.0))
        steps = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        dists = [Exponential(rate + j * math.ulp(rate)) for j in steps]
    else:  # every variable tied
        dists = [Uniform(0.0, 1.0)] * n
    assume(any(d.mean() > 0.0 for d in dists))
    scale = 2.0 ** draw(st.sampled_from([-60, 0, 60]))
    dists = [_scaled(d, scale) for d in dists]
    inst = Instance(dists, draw(st.integers(1, n)))
    if draw(st.integers(0, 4)) == 0:
        return inst, math.ulp(0.0)  # until the bracket stops at float resolution
    epsilon = 10.0 ** draw(_floats(-12.0, math.log10(0.05)))
    return inst, epsilon * inst.mu_max / (XI_DENOMINATOR * inst.k)


def _scaled(d, c):
    """d times a power of two, which is exact."""
    if isinstance(d, DiscreteFinite):
        return DiscreteFinite(zip((d.values * c).tolist(), d.probs.tolist()))
    if isinstance(d, Uniform):
        return Uniform(d.a * c, d.b * c)
    return Exponential(d.rate / c)


def _assert_search_matches_the_reference(inst, xi):
    got, want = minimize_hmax(inst, xi), golden_section_reference(inst, xi)
    assert got == want
    assert got.u_star.hex() == want.u_star.hex()


@settings(max_examples=400, deadline=None)
@given(search_instances())
def test_pruned_search_is_the_plain_search_bit_for_bit(case):
    _assert_search_matches_the_reference(*case)


@pytest.mark.parametrize("family, k", [("discrete", 10_000), ("mixed", 20_000)])
def test_pruned_search_is_the_plain_search_at_n_1e5(family, k):
    inst = gen_instance(100_000, k, family, 5)
    _assert_search_matches_the_reference(inst, 0.05 * inst.mu_max / (XI_DENOMINATOR * k))


@pytest.mark.parametrize("family, k, share", [("discrete", 1000, 0.05), ("mixed", 2000, 0.60)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_search_evaluates_only_live_candidates(monkeypatch, family, k, share, seed):
    """G evaluations (one variable at one point) stay below `share` of n per search point.

    On discrete files every support ends near 10 and the minimizer sits at
    the top atom, so past the first evaluations below 10 few variables are
    live; on mixed files the exponentials never leave through their top.
    """
    inst = gen_instance(10_000, k, family, seed)
    xi = 0.05 * inst.mu_max / (XI_DENOMINATOR * k)
    want = golden_section_reference(inst, xi)
    evaluated = 0
    g_value = _Packed.g_value

    def counting(self, r):
        nonlocal evaluated
        out = g_value(self, r)
        evaluated += len(out)
        return out

    monkeypatch.setattr(_Packed, "g_value", counting)
    got = minimize_hmax(inst, xi)
    assert got.iterations == want.iterations
    assert evaluated <= share * inst.n * (got.iterations + 3)
