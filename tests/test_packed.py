"""The packed oracles equal the scalar methods bit for bit, on every host.

``Instance`` holds its variables as columns by family, so that G_i(r) and
P(X_i >= r) of all n variables cost one numpy pass per family; ``rho``
gathers its subset's rows of those columns.  The parser and
``gen_instance`` build the columns directly, an instance made from objects
gathers their columns and keeps no reference to them, and a scalar
variable object is a view made on demand.  The scalar ``Distribution``
methods are the reference: every packed value must carry the same bits,
and the packed code must stay silent wherever the scalar arithmetic is.

Numerics: the packed code uses only numpy's basic arithmetic, comparisons
and sorts, whose results do not depend on the SIMD code numpy dispatches
to, plus ``math.exp``.  So envelope values, tie classes and sets are the
same on every host.  The child-process test checks this by turning
AVX-512 dispatch off (``NPY_DISABLE_CPU_FEATURES``, set in the child's
environment only).
"""

import gc
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from bisect import bisect_left
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import probemax
from probemax import DiscreteFinite, Exponential, Instance, Uniform
from probemax.distributions import _Packed
from probemax.gap2 import TIE_TOL, TieClass, select_gap2_set, tie_class_at
from probemax.gap_continuous import CONT_TIE_TOL
from probemax.instance_io import emit_instance, gen_instance, parse_instance_text
from probemax.minmax import RHO_TOL_SCALE, g_values, h_max, rho

SETTINGS = settings(max_examples=300, deadline=None)

# Tiny scales reach the Uniform underflow branch and huge ones the
# overflowing squares; 1e308 and 1.5e308 are the huge-* transcript scales.
SCALES = (1e-300, 1e-200, 1e-10, 1.0, 3.0, 1e154, 1e200, 1e307)


@st.composite
def uniforms(draw):
    scale = draw(st.sampled_from(SCALES))
    lo, hi = sorted(draw(st.lists(st.floats(0.0, 1.7), min_size=2, max_size=2)))
    a, b = lo * scale, hi * scale
    if not (b > a and math.isfinite(0.5 * (a + b))):
        return Uniform(0.0, scale)
    return Uniform(a, b)


@st.composite
def exponentials(draw):
    rate = draw(st.sampled_from((1e-308, 1e-200, 1e-10, 0.5, 1.0, 3.0, 1e10, 1e300)))
    return Exponential(rate * draw(st.floats(1.0, 2.0)))


@st.composite
def discretes(draw):
    grid = (0.0, -0.0, 0.5, 1.0, 2.5, 1e-300, 1e300, 1e308, 1.5e308)
    values = draw(st.lists(
        st.one_of(st.sampled_from(grid), st.floats(0.0, 1e6)), min_size=1, max_size=5))
    weights = draw(st.lists(st.integers(1, 10), min_size=len(values), max_size=len(values)))
    total = sum(weights)
    return DiscreteFinite([(v, w / total) for v, w in zip(values, weights)])


VARIABLES = st.one_of(uniforms(), exponentials(), discretes())


def probe_points(dists) -> list[float]:
    """0.0, -0.0, negatives, every atom and endpoint with its neighbours, and past the top."""
    points = [0.0, -0.0, -1.0, -1e308]
    tops = []
    for d in dists:
        if isinstance(d, Uniform):
            marks = [d.a, d.b, d.mean()]
        elif isinstance(d, Exponential):
            marks = [d.mean(), min(30.0 * d.mean(), sys.float_info.max)]
        else:
            marks = d.values.tolist()
        tops.append(max(marks))
        for v in marks:
            points += [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]
    top = max(tops)
    points += [math.nextafter(top, math.inf), top + 1.0, min(2.0 * top, sys.float_info.max)]
    return points


def assert_same_bits(packed: np.ndarray, scalar: list[float], r: float) -> None:
    reference = np.array(scalar, dtype=float)
    assert packed.dtype == np.float64 and packed.shape == reference.shape
    assert np.array_equal(packed.view(np.uint64), reference.view(np.uint64)), (r, packed, scalar)


@SETTINGS
@given(st.lists(VARIABLES, min_size=1, max_size=8),
       st.floats(allow_nan=False, allow_infinity=False))
@example([Uniform(0.0, 1e308), Uniform(0.0, 1.7e308)], 5e307)
@example([Uniform(0.0, 1e-200), Uniform(0.0, 2e-200), DiscreteFinite([(-0.0, 1.0)])], 0.0)
@example([DiscreteFinite([(1e308, 1.0)]), DiscreteFinite([(1.5e308, 1.0)]),
          Exponential(1e-308)], 1e308)
def test_packed_oracles_equal_the_scalar_methods(dists, extra):
    packed = _Packed.gather(dists)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in probe_points(dists) + [extra]:
            assert_same_bits(packed.g_value(r), [d.g_value(r) for d in dists], r)
            assert_same_bits(packed.survival(r), [d.survival(r) for d in dists], r)


@SETTINGS
@given(st.lists(VARIABLES, min_size=1, max_size=8),
       st.floats(allow_nan=False, allow_infinity=False))
@example([Exponential(0.5), Uniform(1.0, 3.0), DiscreteFinite([(0.0, 0.5), (2.0, 0.5)])], 2.0)
def test_packed_tail_moment_equals_the_scalar_method(dists, extra):
    """At r <= 0, at and beside every atom, a and b, inside, past the top,
    and at r = +-inf, where an exponential's exp(-inf) * inf would be NaN."""
    packed = _Packed.gather(dists)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in probe_points(dists) + [extra, math.inf, -math.inf]:
            assert_same_bits(packed.tail_moment_one(r), [d.tail_moment_one(r) for d in dists], r)


def valid_instance(dists) -> bool:
    """A positive largest mean and a finite mean sum."""
    try:
        return max(d.mean() for d in dists) > 0.0 and math.fsum(d.mean() for d in dists) < math.inf
    except OverflowError:
        return False


def reference_tie_class(inst: Instance, r: float, tol: float) -> TieClass:
    """The tie class by a Python sort of the scalar G values and two walks."""
    gs = [d.g_value(r) for d in inst.dists]
    order = sorted(range(inst.n), key=lambda i: (-gs[i], i))
    pivot = gs[order[inst.k - 1]]
    start = inst.k - 1
    while start > 0 and abs(gs[order[start - 1]] - pivot) <= tol * inst.mu_max:
        start -= 1
    end = inst.k
    while end < inst.n and abs(gs[order[end]] - pivot) <= tol * inst.mu_max:
        end += 1
    return TieClass(prefix=tuple(order[:start]), tied=tuple(order[start:end]),
                    slots=inst.k - start)


@SETTINGS
@given(st.lists(VARIABLES, min_size=1, max_size=10).filter(valid_instance), st.data())
def test_envelope_tie_classes_and_rho_equal_the_scalar_forms(dists, data):
    inst = Instance(dists, data.draw(st.integers(1, len(dists))))
    # The envelope's domain is r >= 0, where the mean sum bounds every sum.
    r = data.draw(st.sampled_from([r for r in probe_points(dists) if r >= 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gs = [d.g_value(r) for d in dists]
        assert_same_bits(g_values(inst, r), gs, r)
        top_k = sorted(gs, reverse=True)[: inst.k]
        assert h_max(inst, r).hex() == (r + math.fsum(top_k)).hex()
        for tol in (TIE_TOL, CONT_TIE_TOL):
            assert tie_class_at(inst, r, tol=tol) == reference_tie_class(inst, r, tol)
        members = [i for i in range(inst.n) if data.draw(st.booleans())]
        if sum(dists[i].mean() for i in members) > 0.0:
            assert rho(inst, members).hex() == scalar_rho(inst, members).hex()


def scalar_rho(inst: Instance, members: list[int]) -> float:
    """rho's bisection over the scalar g_value of each member."""
    dists = [inst.dists[i] for i in members]
    mu_sum = math.fsum(d.mean() for d in dists)
    lo, hi = 0.0, mu_sum
    while hi - lo > RHO_TOL_SCALE * mu_sum:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if math.fsum(d.g_value(mid) for d in dists) > mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


#: A file whose discrete rows have one to five atoms, repeated values, -0.0
#: and the float edges, with a uniform and an exponential line between them.
SHARED_TEXT = """k 3
dist discrete values 0 1 2.5 probs 0.25 0.5 0.25
dist uniform a 0 b 2
dist discrete values -0.0 probs 1
dist discrete values 3 1 3 0 probs 0.125 0.25 0.5 0.125
dist discrete values 1e-300 1e300 probs 0.5 0.5
dist exponential rate 0.5
dist discrete values 2.5 0.5 1 7 0 probs 0.2 0.2 0.2 0.2 0.2
dist discrete values 1.5e308 probs 1
"""


@pytest.mark.parametrize("inst", [
    parse_instance_text(SHARED_TEXT),
    gen_instance(60, 6, "discrete", 3),
], ids=["parsed", "generated"])
def test_rows_of_one_batch_give_the_scalar_bits(inst):
    """Variables built in one batch hold views of one array, which packing copies.

    Both read the same slots: at NaN, at both zeros, at and beside every
    atom, the packed G and survival equal the scalar methods bit for bit,
    and so does rho of a subset.  The scalar slot is the one bisect_left
    finds among the values.
    """
    discretes = [d for d in inst.dists if isinstance(d, DiscreteFinite)]
    assert len({id(d._tails.base) for d in discretes}) == 1
    packed = _Packed.gather(inst.dists)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in [math.nan, 0.0, -0.0] + probe_points(inst.dists):
            assert_same_bits(packed.g_value(r), [d.g_value(r) for d in inst.dists], r)
            assert_same_bits(packed.survival(r), [d.survival(r) for d in inst.dists], r)
            for d in discretes:  # the slot is bisect_left's, NaN included
                tail = d._tails[:, bisect_left(d.values.tolist(), r)].tolist()
                assert [d.survival(r), d.tail_moment_one(r)] == tail
        members = list(range(0, inst.n, 2))
        assert rho(inst, members).hex() == scalar_rho(inst, members).hex()


# Recomputes envelopes, G values and both tie classes on seeded instances and
# prints them as JSON: hex floats and index tuples.
CHILD = """
import json, sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from probemax.gap2 import TIE_TOL, tie_class_at
from probemax.gap_continuous import CONT_TIE_TOL
from probemax.instance_io import gen_instance
from probemax.minmax import g_values, h_max

out = {"x86_v4": bool(__cpu_features__.get("X86_V4"))}
for family in ("mixed", "discrete"):
    inst = gen_instance(3000, 300, family, 11)
    for j in range(12):
        r = inst.mu_max * j / 8.0
        out[f"{family} {j}"] = [
            h_max(inst, r).hex(),
            g_values(inst, r).tobytes().hex(),
            [[list(tc.prefix), list(tc.tied), tc.slots]
             for tc in (tie_class_at(inst, r, tol=TIE_TOL),
                        tie_class_at(inst, r, tol=CONT_TIE_TOL))],
        ]
json.dump(out, sys.stdout)
"""

NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"


def run_child(extra_env: dict, code: str = CHILD) -> dict:
    """The JSON that `code` prints in a child process; the tests import as modules."""
    env = {**os.environ, **extra_env,
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(Path(probemax.__file__).parents[1]), str(Path(__file__).parent),
               os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return json.loads(done.stdout)


def has_x86_v4() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get("X86_V4"))


@pytest.mark.skipif(not has_x86_v4(), reason="host has no X86_V4 (AVX-512) dispatch to turn off")
def test_envelopes_and_tie_classes_do_not_depend_on_simd_dispatch():
    with_avx512 = run_child({})
    without = run_child({"NPY_DISABLE_CPU_FEATURES": NO_AVX512})
    assert with_avx512.pop("x86_v4") and not without.pop("x86_v4")
    assert with_avx512 == without


def reference_draws(n: int, family: str, seed: int) -> list:
    """gen_instance's variables, drawn in its order and built one at a time."""
    rng = np.random.default_rng(seed)
    dists = []
    for _ in range(n):
        if family == "discrete":
            size = int(rng.integers(1, 5))
            values = rng.uniform(0.0, 10.0, size)
            weights = rng.integers(1, 11, size).astype(float)
            dists.append(DiscreteFinite(zip(values.tolist(), (weights / weights.sum()).tolist())))
        elif family == "uniform" or (family == "mixed" and rng.random() < 0.5):
            a = float(rng.uniform(0.0, 5.0))
            dists.append(Uniform(a, a + float(rng.uniform(0.5, 5.0))))
        else:
            dists.append(Exponential(float(rng.uniform(0.2, 2.0))))
    return dists


def dist_line(d) -> str:
    """The file line of one variable, written without probemax.instance_io."""
    if isinstance(d, Uniform):
        return f"dist uniform a {d.a!r} b {d.b!r}"
    if isinstance(d, Exponential):
        return f"dist exponential rate {d.rate!r}"
    return ("dist discrete values " + " ".join(map(repr, d.values.tolist()))
            + " probs " + " ".join(map(repr, d.probs.tolist())))


def fields(d) -> tuple:
    """The type, repr and every stored float of a variable, floats as hex."""
    if isinstance(d, DiscreteFinite):
        floats = [x for a in (d.values, d.probs, *d._tails) for x in a.tolist()]
    else:
        floats = [d.a, d.b] if isinstance(d, Uniform) else [d.rate]
        assert {type(x) for x in floats} == {float}
    return type(d), repr(d), [x.hex() for x in floats]


def assert_columns_match(inst: Instance, reference: list) -> None:
    """Columns against the scalar objects of `reference`, bit for bit."""
    assert inst.n == len(reference)
    assert inst.mu_max.hex() == max(d.mean() for d in reference).hex()
    assert inst._first_discontinuous == next(
        (i for i, d in enumerate(reference) if isinstance(d, DiscreteFinite)), None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in probe_points(reference):
            assert_same_bits(g_values(inst, r), [d.g_value(r) for d in reference], r)
            assert_same_bits(inst._packed.survival(r), [d.survival(r) for d in reference], r)
    assert [fields(d) for d in inst.dists] == [fields(d) for d in reference]
    assert inst.dists == tuple(reference)


GEN_FAMILIES = ("discrete", "uniform", "exponential", "mixed")


@pytest.mark.parametrize("family", GEN_FAMILIES)
def test_generated_columns_equal_objects_built_one_at_a_time(family):
    reference = reference_draws(70, family, 5)
    assert_columns_match(gen_instance(70, 7, family, 5), reference)


@pytest.mark.parametrize("family", GEN_FAMILIES + ("shuffled",))
def test_parsed_columns_equal_objects_built_one_at_a_time(family):
    """The shuffled file interleaves all three families in a seeded order."""
    if family == "shuffled":
        reference = [d for f in GEN_FAMILIES[:3] for d in reference_draws(30, f, 6)]
        reference += parse_instance_text(SHARED_TEXT).dists
        order = np.random.default_rng(6).permutation(len(reference)).tolist()
        reference = [reference[i] for i in order]
    else:
        reference = reference_draws(70, family, 6)
    text = "k 5\n" + "\n".join(map(dist_line, reference)) + "\n"
    inst = parse_instance_text(text)
    assert_columns_match(inst, reference)
    assert rho(inst, range(0, inst.n, 3)).hex() == scalar_rho(inst, list(range(0, inst.n, 3))).hex()


def test_gap2_on_a_large_file_makes_at_most_k_variable_objects():
    """Parse and select_gap2_set read the columns only; no variable object is made.

    Asking for the chosen set then makes its k views, once.
    """
    text = emit_instance(gen_instance(10_000, 1000, "discrete", 23))

    def count() -> int:
        return sum(isinstance(o, probemax.distributions.Distribution) for o in gc.get_objects())

    before = count()
    inst = parse_instance_text(text)
    result = select_gap2_set(inst, 0.05)
    assert count() == before
    chosen = inst._variables(result.chosen)
    assert count() - before == inst.k
    assert inst._variables(result.chosen) == chosen
    assert count() - before == inst.k  # asking again makes none


def test_an_instance_keeps_no_reference_to_the_objects_it_was_made_from():
    dists = [DiscreteFinite([(0.0, 0.25), (3.0, 0.75)]), Uniform(1.0, 2.0), Exponential(0.5)]
    copies = [DiscreteFinite([(0.0, 0.25), (3.0, 0.75)]), Uniform(1.0, 2.0), Exponential(0.5)]
    refs = [weakref.ref(d) for d in dists]
    inst = Instance(dists, 2)
    del dists
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]
    assert [fields(d) for d in inst.dists] == [fields(d) for d in copies]
