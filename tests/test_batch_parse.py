"""Property tests: the batch parser equals the line-by-line parser bit for bit.

``parse_instance_text`` structure-checks each line once, converts the
numbers of every discrete line in one float pass and checks and builds
those variables in one batch; ``DiscreteFinite(atoms)`` is a one-row call
of the same batch.  The references kept here are the parser that converted
and built one line at a time, matching each line against the fixed layouts
with no code of ``probemax.instance_io``, and the ``DiscreteFinite``
constructor that checked, merged and summed one variable at a time.  Both
must raise the same error class and message on every text, and build the
same bits on every valid one: the arrays, both lines of tail sums and
``mean()``.
"""

import math
import re
import tracemalloc
import warnings
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probemax import DiscreteFinite, Exponential, Instance, ProbemaxError, Uniform
from probemax.distributions import PROB_SUM_TOL
from probemax.errors import ValidationError
from probemax import instance_io
from probemax.instance_io import gen_instance, parse_instance_text
from test_cli import FILE_LINES, LAYOUTS

SETTINGS = settings(max_examples=300, deadline=None)


def reference_discrete(atoms) -> DiscreteFinite:
    """The DiscreteFinite constructor that built one variable at a time."""
    items = [(float(v), float(p)) for v, p in atoms]
    if not items:
        raise ValidationError("discrete distribution needs at least one atom")
    for v, p in items:
        if not math.isfinite(v) or v < 0.0:
            raise ValidationError(f"support value {v!r} must be finite and non-negative")
        if not 0.0 < p <= 1.0:
            raise ValidationError(f"atom probability {p!r} must lie in (0, 1]")
    total = math.fsum(p for _, p in items)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValidationError(f"atom probabilities sum to {total!r}, not 1")
    merged: dict[float, float] = {}
    for v, p in items:
        merged[v] = merged.get(v, 0.0) + p
    values = sorted(merged)
    probs = [min(merged[v], 1.0) for v in values]  # a point mass's rounded sum is 1
    d = DiscreteFinite.__new__(DiscreteFinite)
    d.values = np.array(values, dtype=float)
    d.probs = np.array(probs, dtype=float)
    tail_p = tuple(accumulate(reversed(probs)))[::-1] + (0.0,)
    tail_pv = tuple(accumulate(
        p * v for v, p in zip(reversed(values), reversed(probs))
    ))[::-1] + (0.0,)
    if tail_pv[0] == math.inf:
        raise ValidationError(
            f"support values up to {values[-1]!r} are too large: their mean overflows")
    d._tails = np.array([(1.0, *tail_p[1:]), tail_pv])  # the full mass heads P's sums
    return d


def reference_float(token: str, field: str) -> float:
    """A token of printable ASCII other than `_` that `float` reads."""
    try:
        if re.fullmatch(r"[!-^`-~]+", token):
            return float(token)
    except ValueError:
        pass
    raise ValidationError(f"field {field!r}: not a number: {token!r}")


def reference_parse_dist(tokens: list[str]):
    """One `dist` line after its head, matched against the fixed layouts."""
    match tokens:
        case []:
            raise ValidationError("field 'kind' missing after 'dist'")
        case ["uniform", "a", a, "b", b]:
            return Uniform(reference_float(a, "a"), reference_float(b, "b"))
        case ["exponential", "rate", rate]:
            return Exponential(reference_float(rate, "rate"))
        case ["discrete", "values", *rest] if len(rest) >= 3 and len(rest) % 2:
            m = len(rest) // 2
            if rest[m] == "probs":
                values = [reference_float(tok, "values") for tok in rest[:m]]
                probs = [reference_float(tok, "probs") for tok in rest[m + 1:]]
                return reference_discrete(list(zip(values, probs)))
    if tokens[0] in LAYOUTS:
        raise ValidationError(f"dist {tokens[0]}: expected {LAYOUTS[tokens[0]]!r}")
    raise ValidationError(f"field 'kind': unknown kind {tokens[0]!r}")


def reference_k(tokens: list[str]) -> int:
    """One optional minus and ASCII decimal digits, as `int` reads them."""
    if len(tokens) != 2 or not re.fullmatch(r"-?[0-9]+", tokens[1]):
        raise ValidationError("field 'k': expected one integer")
    return int(tokens[1])


def reference_parse(text: str) -> Instance:
    """The parser that converted and built one line at a time.

    Lines end at LF, CR LF or CR; any other whitespace separates tokens.
    """
    k = None
    dists = []
    for line_no, raw in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            if tokens[0] == "k":
                if k is not None:
                    raise ValidationError("field 'k' repeated")
                k = reference_k(tokens)
            elif tokens[0] == "dist":
                dists.append(reference_parse_dist(tokens[1:]))
            else:
                raise ValidationError(f"expected 'k' or 'dist', got {tokens[0]!r}")
        except ValidationError as exc:
            raise ValidationError(f"line {line_no}: {exc}") from exc
    if k is None:
        raise ValidationError("field 'k' missing")
    if not dists:
        raise ValidationError("no 'dist' lines found")
    return Instance(dists, k)


def hexes(xs) -> list[str]:
    return [float(x).hex() for x in xs]


def fingerprint(d) -> tuple:
    """Every field of a variable, floats as float.hex."""
    if not isinstance(d, DiscreteFinite):
        return (type(d).__name__, repr(d))
    assert d.values.dtype == d.probs.dtype == d._tails.dtype == np.float64
    assert d._tails.shape == (2, len(d.values) + 1)
    return (
        hexes(d.values.tolist()), hexes(d.probs.tolist()),
        hexes(d._tails[0].tolist()), hexes(d._tails[1].tolist()), d.mean().hex(),
    )


def outcome(build, arg):
    """The error class and message, or the fingerprint of what was built."""
    try:
        built = build(arg)
    except ProbemaxError as exc:
        return type(exc), str(exc)
    if isinstance(built, Instance):
        return built.k, [fingerprint(d) for d in built.dists], built.mu_max.hex()
    return fingerprint(built)


def assert_same_parse(text: str):
    expected = outcome(reference_parse, text)
    assert outcome(parse_instance_text, text) == expected
    return expected


#: Number tokens, good and bad, that make every check of a discrete line fire.
NUMBERS = st.sampled_from((
    "0", "-0.0", "0.25", "0.5", "0.75", "1", "1.0", "2", "1e-300", "1e300", "5e-324",
    "-1", "1.5", "nan", "inf", "x", "1_0", "١", "١٢", "１", "values", "probs",
))
#: Probability lists that sum to 1, so many discrete lines are valid.
PARTITIONS = st.sampled_from((
    ("1",), ("0.5", "0.5"), ("0.25", "0.75"), ("0.25", "0.25", "0.5"),
    ("0.5", "0.25", "0.125", "0.125"),
))


@st.composite
def discrete_lines(draw) -> str:
    """A `dist discrete` line: mostly well formed, often invalid."""
    probs = list(draw(st.one_of(PARTITIONS, st.lists(NUMBERS, max_size=4).map(tuple))))
    m = draw(st.sampled_from((len(probs), len(probs), len(probs) + 1, max(len(probs) - 1, 0))))
    values = draw(st.lists(st.one_of(NUMBERS, st.sampled_from(("0.5", "2.5", "3"))),
                           min_size=m, max_size=m))
    fields = [["values", *values], ["probs", *probs]]
    if draw(st.integers(0, 9)) == 0:
        fields.reverse()
    return " ".join(["dist", "discrete", *fields[0], *fields[1]])


@SETTINGS
@given(st.lists(st.one_of(FILE_LINES, discrete_lines(), st.just("k 2")), max_size=8))
@example(["k 1", "dist discrete values 1 probs 1", "dist discrete values x probs 1",
          "dist uniform 0 b 1"])
def test_fuzzed_text_gives_the_reference_outcome(lines):
    assert_same_parse("\n".join(lines))


@SETTINGS
@given(st.lists(st.one_of(FILE_LINES, discrete_lines(), st.just("k 2")), max_size=8),
       st.lists(st.sampled_from(("\n", "\r\n", "\r", "\n\n", "\r\r\n")), min_size=1),
       st.integers(1, 60))
@example(["k 1", "dist uniform a 0 b 1", "dist uniform a x b 1", "dist discrete values -1 probs 1"],
         ["\r\n"], 18)
def test_blocks_of_any_size_give_the_reference_outcome(lines, ends, block_chars):
    """The parser reads lines in blocks; no block edge moves a line or an error."""
    text = "".join(line + ends[i % len(ends)] for i, line in enumerate(lines))
    with mock.patch.object(instance_io, "_BLOCK_CHARS", block_chars):
        assert_same_parse(text)


VALID = ("dist uniform a 0 b 1", "dist exponential rate 2",
         "dist discrete values 0 1 probs 0.5 0.5", "dist discrete values 3 probs 1")
EARLY = ("dist discrete values x probs 1", "dist discrete values -1 probs 1",
         "dist discrete values 1 2 probs 0.5 0.4", "dist discrete values 1 probs 1.5",
         "dist discrete values inf probs 1", "dist discrete values 1 probs nan",
         "dist discrete values 1 2 probs 1 x", "dist exponential rate 5e-324",
         "dist discrete values 1_0 probs 1", "dist discrete values 1 probs \uff11",
         "dist uniform a 1 b nan", "dist uniform a x b 1", "dist uniform a 1e308 b 1.7e308",
         "dist exponential rate -2", "dist exponential rate 1_0")
LATE = ("dist uniform 0 b 1", "dist discrete values 1 probs", "dist", "var 1", "k 3",
        "dist discrete values 1 2 probs 1", "dist gaussian mu 0",
        "dist discrete values 1 values 2 probs 1", "dist uniform a 2 b 1",
        "dist uniform b 1 a 0", "dist exponential rate 1 2")


@SETTINGS
@given(
    st.lists(st.sampled_from(VALID), max_size=4),
    st.sampled_from(EARLY),
    st.lists(st.sampled_from(VALID), max_size=4),
    st.sampled_from(LATE),
    st.lists(st.sampled_from(VALID), max_size=2),
)
def test_an_early_bad_line_beats_a_later_structure_error(before, early, between, late, after):
    lines = ["k 1", *before, early, *between, late, *after]
    error = assert_same_parse("\n".join(lines))
    assert error[0] is ValidationError
    assert error[1].startswith(f"line {len(before) + 2}: ")


#: Values that repeat, merge at -0.0 and 0.0, and sit at the float edges.
GRID = np.array([0.0, -0.0, 0.5, 1.0, 2.5, 3.0, 1e-300, 1e300, 7.25])


@st.composite
def atom_rows(draw) -> tuple[list[float], list[float]]:
    """The atoms of one variable, unsorted, some values repeated.

    The probabilities are normalized weights, one of them then moved by up
    to 2e-12, so the sums straddle 1 +- PROB_SUM_TOL.  Rows longer than 128
    atoms come from a seeded numpy stream to keep them cheap.
    """
    m = draw(st.one_of(st.integers(1, 6), st.integers(125, 140)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    on_grid = rng.random(m) < draw(st.sampled_from((0.0, 0.5, 1.0)))
    values = np.where(on_grid, rng.choice(GRID, m), rng.uniform(0.0, 10.0, m))
    weights = rng.integers(1, 11, m).astype(float)
    probs = weights / weights.sum()
    probs[rng.integers(m)] += draw(st.sampled_from((0.0, 0.0, 1e-12, -1e-12, 0.9e-12, -1.1e-12,
                                                    2e-12)))
    return values.tolist(), probs.tolist()


def discrete_line(values: list[float], probs: list[float]) -> str:
    return ("dist discrete values " + " ".join(map(repr, values))
            + " probs " + " ".join(map(repr, probs)))


@SETTINGS
@given(st.lists(st.one_of(atom_rows(), st.sampled_from(VALID[:2])), min_size=1, max_size=8),
       st.integers(1, 8), st.sampled_from((1, 1, 1, 64)))
def test_valid_files_build_the_reference_bits(rows, k, copies):
    """Copied 64 times, a file has many rows of each length in one batch."""
    lines = [row if isinstance(row, str) else discrete_line(*row) for row in rows] * copies
    text = f"k {min(k, len(rows))}\n" + "\n".join(lines) + "\n"
    assert_same_parse(text)


@SETTINGS
@given(atom_rows())
@example(([2.0, 0.0, -0.0, 2.0, 1.0], [0.125, 0.25, 0.125, 0.25, 0.25]))
@example(([-0.0, 0.0], [0.5, 0.5]))
@example(([1e300, 1e-300, 1e300], [0.1, 0.7, 0.2]))
@example(([0.0, 0.0], [0.5, 0.5000000000000002]))
@example(([2.5, 2.5, 2.5], [0.2, 0.3, 0.5 + 1e-12]))
def test_constructor_builds_the_reference_bits(row):
    atoms = list(zip(*row))
    assert outcome(DiscreteFinite, atoms) == outcome(reference_discrete, atoms)


@pytest.mark.parametrize("atoms", [
    [], [(1.0, 0.5)], [(-1.0, 1.0)], [(1.0, 0.0)], [(float("nan"), 1.0)], [(1.0, float("nan"))],
    [(1.0, 0.5), (float("inf"), 0.5)], [(0.5, 0.5), (1.0, 1.5)], [("2", "1")],
    [(1.7976931348623155e308, 0.5), (1.7976931348623157e308, 0.5000000000001)],
])
def test_constructor_raises_the_reference_error(atoms):
    assert outcome(DiscreteFinite, atoms) == outcome(reference_discrete, atoms)


#: A row whose mean, its top P * v suffix sum, overflows.
OVERFLOWING = "dist discrete values 1.7976931348623157e308 1.7976931348623155e308 " \
              "probs 0.5000000000001 0.5"


@pytest.mark.parametrize("first, second, line", [
    (OVERFLOWING, "dist discrete values 1 2 probs 0.5 0.4", 3),
    ("dist discrete values 1 probs 1.5", OVERFLOWING, 3),
    ("dist discrete values 1 probs 1", OVERFLOWING, 4),
])
def test_an_overflowing_mean_is_rejected_in_file_order(first, second, line):
    text = f"k 1\ndist uniform a 0 b 1\n{first}\n{second}\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        error = assert_same_parse(text)
    assert error[0] is ValidationError
    assert error[1].startswith(f"line {line}: ")


def reference_gen_discrete(n: int, k: int, seed: int) -> Instance:
    rng = np.random.default_rng(seed)
    dists = []
    for _ in range(n):
        size = int(rng.integers(1, 5))
        values = rng.uniform(0.0, 10.0, size)
        weights = rng.integers(1, 11, size).astype(float)
        probs = weights / weights.sum()
        dists.append(reference_discrete(list(zip(values.tolist(), probs.tolist()))))
    return Instance(dists, k)


@pytest.mark.parametrize("seed", range(5))
def test_generated_discrete_instances_keep_their_bits(seed):
    n = 40 * (seed + 1)
    assert outcome(lambda s: gen_instance(n, 3, "discrete", s), seed) == outcome(
        lambda s: reference_gen_discrete(n, 3, s), seed)


def test_a_merged_point_mass_is_written_and_read_back():
    """Atoms of one value whose probabilities sum to 1 + ulp are one atom of
    probability 1, which emit_instance writes and the parser reads back."""
    inst = Instance([DiscreteFinite([(0.0, 0.5), (0.0, 0.5000000000000002)]),
                     DiscreteFinite([(1.0, 1.0)])], 1)
    assert inst.dists[0].probs.tolist() == [1.0]
    assert parse_instance_text(instance_io.emit_instance(inst)) == inst


def test_parse_memory_grows_with_the_atoms_not_the_widest_row():
    """One 10^5-atom variable and 10^4 point masses: no row is padded.

    Padding every row to the widest would take 10^4 x 10^5 x 8 bytes (8 GB)
    per array.  Measured with tracemalloc, the parse peaks near 160 bytes
    per atom (tokens, floats and the packed arrays), and the line-by-line
    parser near 520.
    """
    wide = 100_000
    values = np.arange(wide, dtype=float).tolist()
    lines = ["k 1", discrete_line(values, [1.0 / wide] * wide)]
    lines += ["dist discrete values 1.5 probs 1.0"] * 10_000
    text = "\n".join(lines)
    atoms = wide + 10_000
    tracemalloc.start()
    try:
        inst = parse_instance_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.n == 10_001 and len(inst.dists[0].values) == wide
    assert peak < 1_000 * atoms
