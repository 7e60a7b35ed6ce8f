"""Command-line interface tests: parsing, round trips, commands, exit codes."""

import argparse
import csv
import io
import math
from itertools import takewhile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from probemax import (
    DiscreteFinite,
    Exponential,
    Instance,
    ProbemaxError,
    Uniform,
    ValidationError,
    point_mass,
)
from probemax import gap2 as gap2_mod
from probemax import oracles
from probemax.cli import BENCH_FAMILIES, main
from probemax.instance_io import (
    emit_instance,
    gen_instance,
    parse_instance_text,
)

TWO_UNIFORM_TEXT = """\
# two standard uniforms
k 2
dist uniform a 0.0 b 1.0
dist uniform a 0.0 b 1.0
"""

DISCRETE_TEXT = """\
k 2
dist discrete values 0.0 1.0 probs 0.5 0.5
dist discrete values 0.6 probs 1.0
"""


#: Keywords, numbers at the float edges and stray text after a line head, so
#: fuzzed lines reach every branch of the parser.
FILE_TOKENS = st.one_of(
    st.sampled_from((
        "k", "dist", "discrete", "uniform", "exponential", "values", "probs", "a",
        "b", "rate", "#", "0", "-0", "1", "2", "0.5", "-1", "1e308", "1e309", "5e-324",
        "nan", "inf", "-inf", "1_0", "0x10", "--2", "\u00b2", "\u0661", "\uff11",
    )),
    st.text(max_size=4),
)

#: The one layout of each kind, as the error for any other layout names it.
LAYOUTS = {
    "discrete": "values <v1> ... <vm> probs <p1> ... <pm>",
    "uniform": "a <a> b <b>",
    "exponential": "rate <rate>",
}

#: The fields of each kind in its one layout.
LAYOUT_FIELDS = {
    "discrete": (("values", "1", "2"), ("probs", "0.5", "0.5")),
    "uniform": (("a", "0"), ("b", "1")),
    "exponential": (("rate", "2"),),
}


@st.composite
def layout_lines(draw) -> str:
    """A `dist` line whose fields are reordered, renamed, repeated or extended."""
    kind = draw(st.sampled_from(sorted(LAYOUT_FIELDS)))
    fields = list(draw(st.permutations(LAYOUT_FIELDS[kind])))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(fields) - 1))
        fields[i] = (draw(st.sampled_from(("values", "probs", "a", "b", "rate", "c"))),
                     *fields[i][1:])
    fields += draw(st.lists(st.one_of(st.sampled_from(fields), st.just(("c", "3")),
                                      st.just(("4",))), max_size=2))
    return " ".join(["dist", kind, *(tok for field in fields for tok in field)])


FILE_LINES = st.one_of(
    layout_lines(),
    st.builds("k {}".format, FILE_TOKENS),
    st.builds(
        lambda head, rest: " ".join([head] + rest),
        st.sampled_from(("", "k", "dist", "dist discrete values", "dist uniform a",
                         "dist exponential rate")),
        st.lists(FILE_TOKENS, max_size=6),
    ),
)


#: Floats at both ends of the range, both zeros included, in increasing order.
EDGE_FLOATS = (-0.0, 0.0, 5e-324, 1e-300, 1.0, 1.7e308)
#: Probability rows that sum to 1 within the tolerance, subnormal atoms included.
EDGE_PROBS = ((1.0,), (0.5, 0.5), (5e-324, 1.0), (1e-300, 0.25, 0.75))
#: Exponential rates from the smallest whose mean 1/rate is finite to the largest float.
EDGE_RATES = (5.56268464626801e-309, 1e-300, 1.0, 1.7e308, 1.7976931348623157e308)


@st.composite
def edge_variables(draw):
    """A variable of any file kind whose numbers sit at the float edges."""
    kind = draw(st.sampled_from(("discrete", "uniform", "exponential")))
    if kind == "discrete":
        probs = draw(st.sampled_from(EDGE_PROBS))
        values = draw(st.lists(st.sampled_from(EDGE_FLOATS), min_size=len(probs),
                               max_size=len(probs)))
        return DiscreteFinite(list(zip(values, probs)))
    if kind == "uniform":
        b = draw(st.sampled_from(EDGE_FLOATS[2:]))
        return Uniform(draw(st.sampled_from([a for a in EDGE_FLOATS if a < b])), b)
    return Exponential(draw(st.sampled_from(EDGE_RATES)))


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(out: str):
    return list(csv.DictReader(io.StringIO(out)))


class TestInstanceFiles:
    def test_parse_two_uniform(self):
        inst = parse_instance_text(TWO_UNIFORM_TEXT)
        assert inst.n == 2 and inst.k == 2
        assert inst.dists[0] == Uniform(0, 1)

    def test_round_trip_generated(self):
        for seed in range(30):
            for family in ("discrete", "uniform", "exponential", "mixed"):
                inst = gen_instance(4, 2, family, seed)
                assert parse_instance_text(emit_instance(inst)) == inst

    @settings(max_examples=200, deadline=None)
    @given(st.lists(edge_variables(), min_size=1, max_size=6), st.integers(1, 6))
    def test_round_trip_at_the_float_edges(self, dists, k):
        assume(max(d.mean() for d in dists) > 0.0)
        inst = Instance(dists, min(k, len(dists)))
        text = emit_instance(inst)
        assert parse_instance_text(text) == inst
        assert emit_instance(parse_instance_text(text)) == text  # -0.0 keeps its sign

    def test_error_names_line_and_field(self):
        with pytest.raises(ValidationError, match="line 2.*rate"):
            parse_instance_text("k 1\ndist exponential rate x\n")
        with pytest.raises(ValidationError, match="line 3.*probs"):
            parse_instance_text("k 1\ndist uniform a 0 b 1\ndist discrete values 1 probs\n")
        with pytest.raises(ValidationError, match="kind"):
            parse_instance_text("k 1\ndist gaussian mu 0\n")

    def test_k_must_be_present_and_valid(self):
        with pytest.raises(ValidationError, match="'k' missing"):
            parse_instance_text("dist uniform a 0 b 1\n")
        for k in ("--2", "\u00b2", "1.0"):
            with pytest.raises(ValidationError, match="line 1: field 'k'"):
                parse_instance_text(f"k {k}\ndist uniform a 0 b 1\n")
        with pytest.raises(ValidationError, match="k=3"):
            parse_instance_text("k 3\ndist uniform a 0 b 1\n")

    def test_prob_mismatch_is_flagged(self):
        with pytest.raises(ValidationError, match="line 2"):
            parse_instance_text("k 1\ndist discrete values 1 2 probs 1.0\n")

    @pytest.mark.parametrize(
        "line, field, count",
        [("dist uniform a 0 5 b 1", "a", 2), ("dist uniform a 0 b 1 2", "b", 2),
         ("dist exponential rate 1 2 3", "rate", 3)],
    )
    def test_scalar_field_takes_one_number(self, line, field, count):
        """`count` numbers after `field` break the kind's one layout."""
        tokens = line.split()
        after = tokens[tokens.index(field) + 1:]
        assert len(list(takewhile(str.isdigit, after))) == count
        with pytest.raises(ValidationError) as info:
            parse_instance_text(f"k 1\n{line}\n")
        assert str(info.value) == f"line 2: dist {tokens[1]}: expected {LAYOUTS[tokens[1]]!r}"

    @pytest.mark.parametrize("line", [
        "dist uniform b 1 a 0", "dist uniform c 0 b 1", "dist uniform a 0 a 1",
        "dist uniform a 0 a 1 b 2", "dist uniform a 0 b 1 c 2",
        "dist exponential rate 1 rate 2", "dist exponential scale 1",
        "dist discrete probs 1 values 1", "dist discrete probs 1 probs 1",
        "dist discrete values 1 values 1", "dist discrete values 1 probs 1 values 1 probs 1",
        "dist discrete values probs", "dist discrete values 1 2 probs 1",
        "dist discrete values 1 probs 1 2",
    ])
    def test_each_kind_has_one_layout(self, line):
        kind = line.split()[1]
        with pytest.raises(ValidationError) as info:
            parse_instance_text(f"k 1\ndist uniform a 0 b 1\n{line}\n")
        assert str(info.value) == f"line 3: dist {kind}: expected {LAYOUTS[kind]!r}"

    def test_only_newlines_end_a_line(self):
        """A form feed or U+2028 in a comment does not end its line."""
        with pytest.raises(ValidationError) as info:
            parse_instance_text("k 1\n# a\fb\u2028c\x85d\ndist exponential rate x\r\n")
        assert str(info.value) == "line 3: field 'rate': not a number: 'x'"
        with pytest.raises(ValidationError) as info:
            parse_instance_text("k 1\rdist uniform a 0 b 1\r\n\rk 2\n")
        assert str(info.value) == "line 4: field 'k' repeated"
        inst = parse_instance_text("k\f1\ndist\vuniform a\u20280 b\x851\n")
        assert inst.dists == (Uniform(0, 1),)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(FILE_LINES, max_size=6))
    def test_fuzzed_text_raises_only_probemax_errors(self, lines):
        try:
            parse_instance_text("\n".join(lines))
        except ProbemaxError:
            pass


class TestGen:
    def test_deterministic(self):
        first = emit_instance(gen_instance(4, 2, "discrete", 7))
        second = emit_instance(gen_instance(4, 2, "discrete", 7))
        assert first == second

    def test_parses_back(self):
        inst = gen_instance(3, 1, "uniform", 1)
        assert inst.n == 3 and inst.k == 1

    def test_many_seeds_valid(self):
        for seed in range(100):
            inst = gen_instance(5, 2, "discrete", seed)
            assert inst.mu_max > 0

    def test_unknown_family(self):
        with pytest.raises(ValidationError):
            gen_instance(3, 1, "gaussian", 0)


class TestCommands:
    @pytest.fixture
    def uniform_file(self, tmp_path):
        path = tmp_path / "u.inst"
        path.write_text(TWO_UNIFORM_TEXT)
        return str(path)

    @pytest.fixture
    def discrete_file(self, tmp_path):
        path = tmp_path / "d.inst"
        path.write_text(DISCRETE_TEXT)
        return str(path)

    def test_bound(self, uniform_file, capsys):
        code, out, _ = run_cli(["bound", uniform_file, "--epsilon", "0.05"], capsys)
        assert code == 0
        row = read_rows(out)[0]
        assert float(row["u_star"]) == pytest.approx(0.75, abs=1e-6)
        assert float(row["r_plus"]) - float(row["r_minus"]) <= float(row["xi"])

    def test_gap2(self, uniform_file, capsys):
        code, out, _ = run_cli(["gap2", uniform_file], capsys)
        assert code == 0
        row = read_rows(out)[0]
        assert row["chosen"] == "1|2"
        assert float(row["threshold"]) == pytest.approx(0.381966, abs=1e-5)

    def test_gapcont(self, uniform_file, capsys):
        code, out, _ = run_cli(["gap-cont", uniform_file], capsys)
        assert code == 0
        row = read_rows(out)[0]
        assert float(row["expected_reward"]) == pytest.approx(0.5625, abs=1e-6)
        assert row["derandomized_set"] == "1|2"

    def test_gapcont_refuses_discrete(self, discrete_file, capsys):
        code, _, err = run_cli(["gap-cont", discrete_file], capsys)
        assert code == 1
        assert "discontinuous" in err

    def test_oracle(self, discrete_file, capsys):
        code, out, _ = run_cli(["oracle", discrete_file], capsys)
        assert code == 0
        row = read_rows(out)[0]
        assert float(row["a_star"]) == pytest.approx(0.8, abs=1e-9)
        assert float(row["s_star"]) <= float(row["a_star"]) + 1e-9
        assert float(row["a_star"]) <= float(row["u_star"]) + 1e-9

    @pytest.mark.parametrize("command", [
        ["oracle"], ["bench", "--count", "1", "--family", "discrete", "--seed", "3"]])
    def test_oracle_checks_its_sandwich(self, discrete_file, command, monkeypatch, capsys):
        # An A* above U* breaks S* <= A* <= U*, which the oracle and bench
        # commands check as gap2 checks its theorem: exit 2, both values named.
        monkeypatch.setattr(oracles, "adaptive_optimum_dp", lambda inst: 1e6)
        argv = command + [discrete_file] if command == ["oracle"] else command
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("internal guarantee violation: ") and err.count("\n") == 1
        assert "a_star=1000000.0" in err and "u_star=" in err
        if command == ["oracle"]:
            assert "u_star=0.8" in err  # U* of the two-variable file

    def test_eval_uses_rho_by_default(self, uniform_file, capsys):
        code, out, _ = run_cli(["eval", uniform_file, "--indices", "1,2"], capsys)
        assert code == 0
        row = read_rows(out)[0]
        assert float(row["threshold"]) == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-9)
        assert float(row["expected_reward"]) >= float(row["threshold"]) - 1e-9

    def test_eval_explicit_threshold(self, uniform_file, capsys):
        code, out, _ = run_cli(
            ["eval", uniform_file, "--indices", "1,2", "--threshold", "0.5"], capsys
        )
        assert code == 0
        assert float(read_rows(out)[0]["expected_reward"]) == pytest.approx(0.5625, abs=1e-12)

    def test_simulate(self, uniform_file, capsys):
        code, out, _ = run_cli(
            ["simulate", uniform_file, "--indices", "1,2", "--threshold", "0.5",
             "--trials", "200000", "--seed", "1"],
            capsys,
        )
        assert code == 0
        row = read_rows(out)[0]
        assert abs(float(row["mean_reward"]) - 0.5625) <= 4 * float(row["stderr"])
        assert float(row["mean_max"]) >= float(row["mean_reward"])

    def test_malformed_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.inst"
        path.write_text("k 1\ndist exponential rate oops\n")
        code, _, err = run_cli(["bound", str(path)], capsys)
        assert code == 1
        assert "line 2" in err and "rate" in err
        for k in ("--2", "\u00b2"):
            path.write_text(f"k {k}\ndist uniform a 0 b 1\n", encoding="utf-8")
            code, _, err = run_cli(["bound", str(path)], capsys)
            assert code == 1
            assert "line 1" in err and "'k'" in err

    def test_overflowing_bound_exit_code(self, tmp_path, capsys):
        # The search bracket n * mu_max = 4.5e308 overflows.
        path = tmp_path / "huge.inst"
        path.write_text("k 1\n" + "".join(
            f"dist discrete values {v} probs 1.0\n" for v in ("1e308", "1.5e308", "1e308")))
        code, out, err = run_cli(["gap2", str(path)], capsys)
        assert code == 1
        assert out == "" and "overflows" in err

    def test_uniforms_near_the_float_limit_get_an_answer(self, tmp_path, capsys):
        # b*b overflows here, but G and the tail moment are finite.
        path = tmp_path / "huge.inst"
        path.write_text("k 1\ndist uniform a 0 b 1e308\ndist uniform a 0 b 1.7e308\n")
        code, out, _ = run_cli(["gap2", str(path)], capsys)
        assert code == 0
        row = read_rows(out)[0]
        assert row["chosen"] == "2"
        assert float(row["u_star"]) <= 2.05 * float(row["threshold"])
        code, out, _ = run_cli(["eval", str(path), "--indices", "1,2", "--threshold", "0.5"],
                               capsys)
        assert code == 0
        row = read_rows(out)[0]
        assert float(row["expected_reward"]) == 0.5e308  # the first variable's mean
        assert float(row["expected_sum"]) == 0.5e308 + 0.85e308

    def test_guarantee_violation_exit_code(self, uniform_file, tmp_path, monkeypatch, capsys):
        # A negative slack makes the proven inequality U* <= (2 + eps) rho fail.
        monkeypatch.setattr(gap2_mod, "GUARANTEE_RTOL", -1.0)
        out_path = tmp_path / "gap2.csv"
        code, out, err = run_cli(["gap2", uniform_file, "--out", str(out_path)], capsys)
        assert code == 2
        assert out == "" and not out_path.exists()
        assert err.startswith("internal guarantee violation: u_star=") and err.count("\n") == 1

    def test_k_too_large_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.inst"
        path.write_text("k 3\ndist uniform a 0 b 1\n")
        code, _, err = run_cli(["bound", str(path)], capsys)
        assert code == 1
        assert "k=3" in err

    def test_non_utf8_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.inst"
        path.write_bytes(b"k 1\ndist uniform a 0 b 1\n\xff\xfe\n")
        code, out, err = run_cli(["bound", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err and "byte 25" in err and "UTF-8" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["bound", "/nonexistent/file.inst"], capsys)
        assert code == 1

    def test_bad_indices(self, uniform_file, capsys):
        code, _, err = run_cli(["eval", uniform_file, "--indices", "1,9"], capsys)
        assert code == 1
        assert err == "error: --indices '1,9': index 9 outside [1, 2]\n"

    @pytest.mark.parametrize("spec, err", [
        ("1,1", "error: --indices '1,1': index 1 repeated\n"),
        ("2, 1,2", "error: --indices '2, 1,2': index 2 repeated\n"),
        ("0", "error: --indices '0': index 0 outside [1, 2]\n"),
        ("1,1,-3", "error: --indices '1,1,-3': index 1 repeated\n"),
    ])
    def test_indices_errors_name_the_typed_number(self, uniform_file, capsys, spec, err):
        assert run_cli(["eval", uniform_file, "--indices", spec], capsys) == (1, "", err)

    @pytest.mark.parametrize("spec", ["1_0,2", "\u0661,2", "+1", "1.0", "0x1"])
    def test_indices_read_numbers_as_the_file_parser_does(self, tmp_path, capsys, spec):
        """`1_0` is not 10 and an Arabic-Indic one is not 1, as in the file's `k` line."""
        path = tmp_path / "ten.inst"
        path.write_text("k 2\n" + "dist uniform a 0 b 1\n" * 10)
        err = f"error: --indices {spec!r}: expected comma-separated integers\n"
        assert run_cli(["eval", str(path), "--indices", spec], capsys) == (1, "", err)

    def test_gen_round_trip_via_files(self, tmp_path, capsys):
        out_path = tmp_path / "gen.inst"
        code, _, _ = run_cli(
            ["gen", "--n", "4", "--k", "2", "--family", "discrete", "--seed", "7",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        code, out, _ = run_cli(["bound", str(out_path)], capsys)
        assert code == 0


class TestBench:
    def test_empty_suite_header_only(self, capsys):
        code, out, _ = run_cli(["bench", "--count", "0", "--family", "uniform"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("instance_id,")

    def test_discrete_suite_sandwich_and_ratios(self, capsys):
        code, out, _ = run_cli(
            ["bench", "--count", "8", "--family", "discrete", "--seed", "3"], capsys
        )
        assert code == 0
        rows = read_rows(out)
        data = [r for r in rows if r["instance_id"] not in ("min", "mean")]
        assert len(data) == 8
        for row in data:
            assert float(row["a_star"]) <= float(row["u_star"]) + 1e-9
            # ratio columns recompute from the raw columns in the same row
            assert float(row["ratio_a_over_u"]) == pytest.approx(
                float(row["a_star"]) / float(row["u_star"]), abs=1e-9
            )
            assert float(row["ratio_gap2_over_a"]) == pytest.approx(
                float(row["gap2_exact_max"]) / float(row["a_star"]), abs=1e-9
            )
        summary = {r["instance_id"]: r for r in rows if r["instance_id"] in ("min", "mean")}
        ratios = [float(r["ratio_a_over_u"]) for r in data]
        assert float(summary["min"]["ratio_a_over_u"]) == pytest.approx(min(ratios), abs=1e-12)
        assert float(summary["mean"]["ratio_a_over_u"]) == pytest.approx(
            sum(ratios) / len(ratios), abs=1e-12
        )

    def test_uniform01_kn_suite_closed_form(self, capsys):
        code, out, _ = run_cli(
            ["bench", "--count", "4", "--family", "uniform01", "--kn",
             "--n-min", "2", "--n-max", "6", "--seed", "0"],
            capsys,
        )
        assert code == 0
        for row in read_rows(out):
            if row["instance_id"] in ("min", "mean"):
                continue
            k = int(row["k"])
            assert int(row["n"]) == k
            expected = 1.0 - (1.0 - 1.0 / k) ** k
            assert float(row["ratio_cont_over_u"]) == pytest.approx(expected, abs=1e-4)

    def test_determinism(self, capsys):
        code, first, _ = run_cli(
            ["bench", "--count", "3", "--family", "mixed", "--seed", "11"], capsys
        )
        assert code == 0
        code, second, _ = run_cli(
            ["bench", "--count", "3", "--family", "mixed", "--seed", "11"], capsys
        )
        assert code == 0
        # runtime column varies; everything else must match
        strip = lambda text: [
            ",".join(col for name, col in zip(header.split(","), line.split(",")) if name != "runtime_s")
            for header, line in ((text.splitlines()[0], l) for l in text.splitlines())
        ]
        assert strip(first) == strip(second)

    def test_too_large_rows_keep_bound_and_gap2_columns(self, capsys):
        code, out, _ = run_cli(
            ["bench", "--count", "3", "--family", "discrete",
             "--n-min", "16", "--n-max", "17"],
            capsys,
        )
        assert code == 0
        rows = read_rows(out)
        assert list(rows[0])[-2:] == ["runtime_s", "status"]
        data = [r for r in rows if r["instance_id"] not in ("min", "mean")]
        assert len(data) == 3
        for row in data:
            assert row["status"] == "too_large"
            assert float(row["u_star"]) >= float(row["gap2_rho"]) > 0.0
            assert float(row["gap2_exact_max"]) >= float(row["gap2_rho"])
            for col in ("a_star", "s_star", "ratio_s_over_a", "ratio_a_over_u",
                        "ratio_gap2_over_a"):
                assert row[col] == ""
        code, out, _ = run_cli(["bench", "--count", "2", "--family", "discrete"], capsys)
        assert code == 0
        assert [r["status"] for r in read_rows(out)] == ["ok", "ok", "", ""]

    def test_epsilon_checked_for_every_family(self, capsys):
        for family in BENCH_FAMILIES:
            code, out, err = run_cli(
                ["bench", "--count", "1", "--family", family, "--epsilon", "2"], capsys
            )
            assert (code, out) == (1, "")
            assert err == "error: epsilon=2.0 must lie strictly inside (0, 1)\n"

    def test_negative_count_rejected(self, capsys):
        code, out, err = run_cli(["bench", "--count", "-2", "--family", "uniform"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: --count -2 must be non-negative\n"


class TestExtremeScales:
    """Valid inputs near the ends of the float range: an answer or a clean exit 1."""

    TINY_TEXT = "k 2\ndist uniform a 0 b 1e-200\ndist uniform a 0 b 2e-200\n"
    UNIT_TEXT = "k 2\ndist uniform a 0 b 1\ndist uniform a 0 b 2\n"

    def _run(self, tmp_path, capsys, command, text):
        path = tmp_path / "inst.txt"
        path.write_text(text)
        code, out, err = run_cli([command, str(path)], capsys)
        assert code == 0, err
        return read_rows(out)[0]

    def test_tiny_uniforms_bound(self, tmp_path, capsys):
        row = self._run(tmp_path, capsys, "bound", self.TINY_TEXT)
        unit = self._run(tmp_path, capsys, "bound", self.UNIT_TEXT)
        assert float(row["u_star"]) >= 1e-200  # mu_max
        assert float(row["u_star"]) == pytest.approx(float(unit["u_star"]) * 1e-200,
                                                     rel=1e-12, abs=0.0)

    def test_tiny_uniforms_gap2(self, tmp_path, capsys):
        row = self._run(tmp_path, capsys, "gap2", self.TINY_TEXT)
        unit = self._run(tmp_path, capsys, "gap2", self.UNIT_TEXT)
        assert float(row["u_star"]) >= 1e-200
        for col in ("chosen", "s_tilde_plus", "s_tilde_minus"):
            assert row[col] == unit[col]
        assert float(row["threshold"]) == pytest.approx(float(unit["threshold"]) * 1e-200,
                                                        rel=1e-12, abs=0.0)

    def test_tiny_uniforms_gapcont(self, tmp_path, capsys):
        row = self._run(tmp_path, capsys, "gap-cont", self.TINY_TEXT)
        unit = self._run(tmp_path, capsys, "gap-cont", self.UNIT_TEXT)
        assert float(row["u_star"]) >= 1e-200
        for col in ("derandomized_set", "derandomized_order", "frac_pair"):
            assert row[col] == unit[col]
        assert float(row["expected_reward"]) == pytest.approx(
            float(unit["expected_reward"]) * 1e-200, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("command", ["bound", "gap2"])
    def test_overflowing_search_bracket_exit_code(self, tmp_path, capsys, command):
        path = tmp_path / "huge.inst"
        path.write_text(
            "k 1\n"
            "dist discrete values 1e308 probs 1.0\n"
            "dist discrete values 1.5e308 probs 1.0\n"
            "dist discrete values 1e308 probs 1.0\n"
        )
        code, out, err = run_cli([command, str(path)], capsys)
        assert code == 1
        assert out == "" and "overflows" in err and "search bracket" in err

    @pytest.mark.parametrize(
        "command, extra, overflowing",
        [
            ("eval", ["--threshold", "0.5"], "expected sum of the tail moments"),
            ("simulate", [], "mean sum of the subset"),
        ],
    )
    def test_overflowing_sum_exit_code(self, tmp_path, capsys, command, extra, overflowing):
        path = tmp_path / "huge.inst"
        path.write_text(
            "k 2\n"
            "dist discrete values 1.5e308 probs 1.0\n"
            "dist discrete values 1.5e308 probs 1.0\n"
        )
        code, out, err = run_cli([command, str(path), "--indices", "1,2", *extra], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert overflowing in err and "overflows" in err

    def test_simulate_near_the_float_limit(self, tmp_path, capsys):
        path = tmp_path / "huge.inst"
        path.write_text(
            "k 1\n"
            "dist discrete values 1e308 probs 1.0\n"
            "dist discrete values 1e308 probs 1.0\n"
        )
        code, out, err = run_cli(
            ["simulate", str(path), "--indices", "1", "--trials", "1000"], capsys
        )
        assert code == 0 and err == ""
        row = read_rows(out)[0]
        assert float(row["mean_reward"]) == float(row["mean_max"]) == 1e308
        assert float(row["stderr"]) == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", ["e200", "e-200"])
    def test_simulate_varying_rewards_at_extreme_scales(self, tmp_path, capsys, scale):
        rows = []
        for suffix in (scale, ""):
            path = tmp_path / f"pair{suffix}.inst"
            path.write_text(
                "k 2\n"
                f"dist discrete values 0 1{suffix} probs 0.5 0.5\n"
                f"dist discrete values 0 3{suffix} probs 0.5 0.5\n"
            )
            code, out, err = run_cli(
                ["simulate", str(path), "--indices", "1,2", "--trials", "1000"], capsys
            )
            assert code == 0 and err == ""
            rows.append(read_rows(out)[0])
        factor = float("1" + scale)
        for col in ("mean_reward", "mean_max", "stderr"):
            assert float(rows[1][col]) > 0.0
            assert float(rows[0][col]) == pytest.approx(float(rows[1][col]) * factor,
                                                         rel=1e-12, abs=0.0)

    @pytest.mark.filterwarnings("error")
    def test_simulate_overflowing_samples_exit_code(self, tmp_path, capsys):
        # About one Exponential(1e-308) draw in six exceeds the float range.
        path = tmp_path / "huge.inst"
        path.write_text("k 1\ndist exponential rate 1e-308\n")
        code, out, err = run_cli(
            ["simulate", str(path), "--indices", "1", "--threshold", "1", "--trials", "1000"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflow" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "{file}", "--indices", "1", "--seed", "-1"],
        ["simulate", "{file}", "--indices", "1", "--seed", str(2**128)],
        ["gen", "--n", "2", "--k", "1", "--family", "uniform", "--seed", "-1"],
        ["bench", "--count", "1", "--family", "uniform", "--seed", "-5"],
    ],
    ids=["simulate-negative", "simulate-2**128", "gen-negative", "bench-negative"],
)
def test_seed_out_of_range_exit_code(tmp_path, capsys, argv):
    path = tmp_path / "u.inst"
    path.write_text(TWO_UNIFORM_TEXT)
    code, out, err = run_cli([str(path) if a == "{file}" else a for a in argv], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "seed" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gap2", "{file}", "--epsilon", "abc"],
        ["simulate", "{file}", "--indices", "1", "--trials", "1e6"],
        ["nosuch"],
        ["eval", "{file}"],
    ],
    ids=["bad-float", "bad-int", "unknown-command", "missing-required"],
)
def test_usage_error_exit_code(tmp_path, capsys, argv):
    path = tmp_path / "u.inst"
    path.write_text(TWO_UNIFORM_TEXT)
    with pytest.raises(SystemExit) as exc:
        main([str(path) if a == "{file}" else a for a in argv])
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage: probemax")
    last = captured.err.splitlines()[-1]
    assert last.startswith("probemax") and ": error: " in last


def test_help_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gap2", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: probemax gap2")


def test_main_reuses_one_parser(monkeypatch, tmp_path, capsys):
    path = tmp_path / "gen.inst"
    argv = ["gen", "--n", "3", "--k", "1", "--family", "uniform", "--out", str(path)]
    assert main(argv) == 0
    built = []
    original = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(argv) == 0
    assert run_cli(["bound", str(path)], capsys)[0] == 0
    assert built == []
