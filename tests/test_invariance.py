"""Scale and permutation invariance of the two constructions.

The problem is positively homogeneous: multiplying every variable by c > 0
multiplies U*, every threshold and every reward by c and changes no
decision.  Multiplying by a power of two is exact in binary floating point,
so with every tolerance relative to the instance the scaled run must make
the same decisions and return floats that are exactly c times the unscaled
ones.  Permuting the variables must leave U* bitwise unchanged.
"""

import numpy as np
import pytest

from probemax import (
    DiscreteFinite,
    Exponential,
    Instance,
    ThresholdPolicy,
    Uniform,
    gen_instance,
    select_gap2_set,
    simulate,
    solve_continuous,
)

SEEDS = range(40)
EXPONENTS = (-60, -43, -30, -10, 10, 30, 60)


def scaled(inst, c):
    """The instance with every variable multiplied by c."""

    def scale(d):
        if isinstance(d, DiscreteFinite):
            return DiscreteFinite(zip(d.values * c, d.probs))
        if isinstance(d, Uniform):
            return Uniform(d.a * c, d.b * c)
        if isinstance(d, Exponential):
            return Exponential(d.rate / c)
        raise TypeError(d)

    return Instance([scale(d) for d in inst.dists], inst.k)


def permuted(inst, perm):
    return Instance([inst.dists[i] for i in perm], inst.k)


def gap2_fields(inst):
    """(decisions, floats) of select_gap2_set."""
    res = select_gap2_set(inst)
    b = res.bound
    decisions = (res.chosen, res.s_tilde_plus, res.s_tilde_minus, b.iterations)
    floats = (b.u_star, b.r_minus, b.r_plus, b.r_hat, b.xi,
              res.threshold, res.rho_plus, res.rho_minus)
    return decisions, floats


def cont_fields(inst):
    """(decisions, floats) of solve_continuous."""
    res = solve_continuous(inst)
    b, sol, st = res.bound, res.solution, res.stats
    decisions = (sol.s_minus, sol.s_plus, sol.alpha, sol.frac_pair, sol.psi,
                 res.derandomized_order, b.iterations,
                 st.expected_b, st.prob_stop, st.expected_excess)
    floats = (b.u_star, b.r_minus, b.r_plus, b.r_hat, sol.r_star,
              st.expected_reward, st.expected_sum, res.derandomized_reward)
    return decisions, floats


CASES = [
    ("gap2-discrete", "discrete", gap2_fields),
    ("gap2-mixed", "mixed", gap2_fields),
    ("cont-mixed", "mixed", cont_fields),
]


@pytest.mark.parametrize("j", EXPONENTS)
@pytest.mark.parametrize("name,family,fields", CASES, ids=[c[0] for c in CASES])
def test_power_of_two_scaling_is_exact(name, family, fields, j):
    c = 2.0**j
    bad = []
    for seed in SEEDS:
        inst = gen_instance(8, 3, family, seed)
        decisions, floats = fields(inst)
        s_decisions, s_floats = fields(scaled(inst, c))
        if s_decisions != decisions or s_floats != tuple(c * x for x in floats):
            bad.append(seed)
    assert bad == [], f"{name} at scale 2**{j}: seeds {bad} differ"


@pytest.mark.parametrize("j", EXPONENTS + (-600, 600))
@pytest.mark.parametrize("family", ["discrete", "mixed"])
def test_simulate_scales_exactly(family, j):
    # Draws at scale 2**j are exactly 2**j times the unit draws, and the
    # simulator sums at the scale of the largest mean, so every output must
    # scale exactly too, far beyond where the squared deviations overflow.
    c = 2.0**j
    bad = []
    for seed in SEEDS:
        inst = gen_instance(8, 3, family, seed)
        unit = simulate(ThresholdPolicy(inst.dists, 0.5 * inst.mu_max), 2000, seed)
        big = scaled(inst, c)
        result = simulate(ThresholdPolicy(big.dists, 0.5 * big.mu_max), 2000, seed)
        if result != tuple(c * x for x in unit):
            bad.append(seed)
    assert bad == [], f"simulate at scale 2**{j}: seeds {bad} differ"


@pytest.mark.parametrize("name,family,fields", CASES, ids=[c[0] for c in CASES])
def test_u_star_is_permutation_invariant(name, family, fields):
    bad = []
    for seed in SEEDS:
        inst = gen_instance(8, 3, family, seed)
        perm = np.random.default_rng(seed).permutation(inst.n)
        (_, floats), (_, p_floats) = fields(inst), fields(permuted(inst, perm))
        if p_floats[0] != floats[0]:
            bad.append(seed)
    assert bad == [], f"{name}: u_star changes under permutation for seeds {bad}"
