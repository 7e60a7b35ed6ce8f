"""CLI transcript: every command writes a committed record byte for byte.

``tests/data/cli_transcript.json`` holds, for each case below, what
``probemax.cli.main`` wrote to stdout, to the ``--out`` file and to stderr,
the code it returned and the warnings it raised.  The instance files are
seeded ``gen_instance`` outputs of all four families plus malformed and
extreme-scale texts, and ``{dir}`` stands for the directory that holds
them.  ``bench`` output drops its ``runtime_s`` column, the one field that
varies between runs.  A change that is meant to move this output
regenerates the record with

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

import io
import json
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from probemax.cli import main
from probemax.instance_io import GEN_FAMILIES, emit_instance, gen_instance

RECORD = Path(__file__).parent / "data" / "cli_transcript.json"

#: label -> instance text; the seeded files are probed with every command.
SEEDED = {
    f"{family}-{seed}": emit_instance(gen_instance(3 + seed, seed, family, seed))
    for family in GEN_FAMILIES
    for seed in (1, 2, 3)
}

#: label -> (instance text, --indices for eval and simulate).
EDGE = {
    "two-uniform": ("# two standard uniforms\nk 2\ndist uniform a 0.0 b 1.0\n"
                    "dist uniform a 0.0 b 1.0\n", "1,2"),
    "discrete-pair": ("k 2\ndist discrete values 0.0 1.0 probs 0.5 0.5\n"
                      "dist discrete values 0.6 probs 1.0\n", "1,2"),
    "crlf": ("k 1\r\ndist uniform a 0 b 1\r\n\r\ndist exponential rate 2 # c\r\n", "2,1"),
    "empty": ("", "1"),
    "comment-separators": ("k 1\n# note\u2028more\u2029\x85\v\f\x1c\x1d\x1e end\n"
                           "dist uniform a 0 b 1\n", "1"),
    "bad-rate": ("k 1\ndist exponential rate oops\n", "1"),
    "k-dashes": ("k --2\ndist uniform a 0 b 1\n", "1"),
    "k-superscript": ("k ²\ndist uniform a 0 b 1\n", "1"),
    "k-float": ("k 1.0\ndist uniform a 0 b 1\n", "1"),
    "k-arabic-indic": ("k \u0661\ndist uniform a 0 b 1\n", "1"),
    "rate-underscore": ("k 1\ndist exponential rate 1_0\n", "1"),
    "values-arabic-indic": ("k 1\ndist discrete values \u0661\u0662 probs 1\n", "1"),
    "b-fullwidth": ("k 1\ndist uniform a 0 b \uff11\n", "1"),
    "k-missing": ("dist uniform a 0 b 1\n", "1"),
    "k-repeated": ("k 1\n\nk 1\ndist uniform a 0 b 1\n", "1"),
    "k-too-large": ("k 3\ndist uniform a 0 b 1\n", "1"),
    "k-zero": ("k 0\ndist uniform a 0 b 1\n", "1"),
    "no-dists": ("k 1\n# nothing here\n", "1"),
    "unknown-line": ("k 1\nvar uniform a 0 b 1\n", "1"),
    "no-kind": ("k 1\ndist uniform a 0 b 1\ndist\n", "1"),
    "unknown-kind": ("k 1\ndist gaussian mu 0\n", "1"),
    "empty-probs": ("k 1\ndist uniform a 0 b 1\ndist discrete values 1 probs\n", "1"),
    "probs-mismatch": ("k 1\ndist discrete values 1 2 probs 1.0\n", "1"),
    "field-repeated": ("k 1\ndist uniform a 0 a 1 b 2\n", "1"),
    "field-unkeyed": ("k 1\ndist uniform 0 b 1\n", "1"),
    "field-missing": ("k 1\ndist exponential\n", "1"),
    "field-extra-number": ("k 1\ndist uniform a 0 5 b 1\n", "1"),
    "field-extra-numbers": ("k 1\ndist exponential rate 1 2 3\n", "1"),
    "uniform-reversed": ("k 1\ndist uniform a 2 b 1\n", "1"),
    "uniform-infinite": ("k 1\ndist uniform a 0 b inf\n", "1"),
    "probs-sum": ("k 1\ndist discrete values 1 2 probs 0.5 0.4\n", "1"),
    "negative-value": ("k 1\ndist discrete values -1 probs 1\n", "1"),
    "zero-rate": ("k 1\ndist uniform a 0 b 1\ndist exponential rate 0\n", "1"),
    "huge-uniforms": ("k 1\ndist uniform a 0 b 1e308\ndist uniform a 0 b 1.7e308\n", "1,2"),
    "huge-bracket": ("k 1\ndist discrete values 1e308 probs 1.0\n"
                     "dist discrete values 1.5e308 probs 1.0\n"
                     "dist discrete values 1e308 probs 1.0\n", "1"),
    "huge-sum": ("k 2\ndist discrete values 1.5e308 probs 1.0\n"
                 "dist discrete values 1.5e308 probs 1.0\n", "1,2"),
    "near-limit": ("k 1\ndist discrete values 1e308 probs 1.0\n"
                   "dist discrete values 1e308 probs 1.0\n", "1"),
    "huge-exponential": ("k 1\ndist exponential rate 1e-308\n", "1"),
    "overflowing-mean": ("k 1\ndist uniform a 0 b 1\ndist exponential rate 5e-324\n", "1"),
    "uniform-overflowing-mean": ("k 1\ndist uniform a 1e308 b 1.5e308\n", "1"),
    "discrete-overflowing-mean": ("k 1\ndist discrete values 1.7976931348623155e308 "
                                  "1.7976931348623157e308 probs 0.5 0.5000000000001\n", "1"),
    "uniform-e200": ("k 1\ndist uniform a 0 b 1e200\n", "1"),
    "tiny-uniforms": ("k 2\ndist uniform a 0 b 1e-200\ndist uniform a 0 b 2e-200\n", "1,2"),
    "pair-e200": ("k 2\ndist discrete values 0 1e200 probs 0.5 0.5\n"
                  "dist discrete values 0 3e200 probs 0.5 0.5\n", "1,2"),
    "pair-e-200": ("k 2\ndist discrete values 0 1e-200 probs 0.5 0.5\n"
                   "dist discrete values 0 3e-200 probs 0.5 0.5\n", "1,2"),
    # S+ is the zero-mean variable when it comes first; S- wins in both orders.
    "zero-mean-first": ("k 1\ndist discrete values 0.0 probs 1.0\n"
                        "dist discrete values 12.74 probs 1.0\n", "1,2"),
    "zero-mean-last": ("k 1\ndist discrete values 12.74 probs 1.0\n"
                       "dist discrete values 0.0 probs 1.0\n", "1,2"),
}


def _file_commands(indices: str, out: bool) -> list[list[str]]:
    commands = [
        ["bound", "{file}"],
        ["gap2", "{file}", "--epsilon", "0.1"],
        ["gap-cont", "{file}"],
        ["oracle", "{file}"],
        ["eval", "{file}", "--indices", indices],
        ["eval", "{file}", "--indices", indices, "--threshold", "0.5"],
        ["simulate", "{file}", "--indices", indices, "--trials", "3000", "--seed", "5"],
    ]
    return [argv + ["--out", "{out}"] if out else argv for argv in commands]


def _cases() -> dict[str, tuple]:
    """Case id -> (instance text or None, argv with {file}/{out} placeholders)."""
    cases = {}
    for label, text in SEEDED.items():
        for argv in _file_commands("1,2", out=label.endswith("-1")):
            cases[f"{label}: {' '.join(argv[:1] + argv[2:])}"] = (text, argv)
    for label, (text, indices) in EDGE.items():
        for argv in _file_commands(indices, out=False):
            cases[f"{label}: {' '.join(argv[:1] + argv[2:])}"] = (text, argv)
    text = EDGE["two-uniform"][0]
    for argv in (
        ["bound", "{dir}/missing.inst"],
        ["gap2", "{file}", "--out", "{dir}/no/such/dir.csv"],
        ["eval", "{file}", "--indices", "1,9"],
        ["eval", "{file}", "--indices", "1,1"],
        ["eval", "{file}", "--indices", "a,b"],
        ["eval", "{file}", "--indices", " , "],
        ["simulate", "{file}", "--indices", "1", "--seed", "-1"],
        ["simulate", "{file}", "--indices", "1", "--seed", str(2**128)],
        ["simulate", "{file}", "--indices", "1", "--trials", "0"],
        ["gap2", "{file}", "--epsilon", "1.5"],
        ["bound", "{file}", "--epsilon", "0"],
        ["gen", "--n", "2", "--k", "1", "--family", "uniform", "--seed", "-1"],
        ["gen", "--n", "0", "--k", "1", "--family", "uniform"],
        ["gen", "--n", "3", "--k", "1", "--family", "uniform", "--out", "{dir}/no/such/dir"],
        ["bench", "--count", "1", "--family", "uniform", "--seed", "-5"],
        ["bench", "--count", "1", "--family", "uniform", "--n-min", "3", "--n-max", "2"],
        ["bench", "--count", "0", "--family", "mixed"],
        ["bench", "--count", "3", "--family", "uniform01", "--kn", "--out", "{out}"],
        ["bench", "--count", "2", "--family", "discrete", "--n-min", "16", "--n-max", "16"],
    ):
        cases[" ".join(argv)] = (text, argv)
    for family in GEN_FAMILIES:
        for argv in (
            ["gen", "--n", "4", "--k", "2", "--family", family, "--seed", "7"],
            ["gen", "--n", "3", "--k", "3", "--family", family, "--out", "{out}"],
            ["bench", "--count", "3", "--family", family, "--seed", "11"],
        ):
            cases[" ".join(argv)] = (None, argv)
    return cases


CASES = _cases()


def _drop_runtime(csv_text: str) -> str:
    lines = csv_text.splitlines(keepends=True)
    if not lines:
        return csv_text
    col = lines[0].split(",").index("runtime_s")
    return "".join(
        ",".join(f for i, f in enumerate(line.split(",")) if i != col) for line in lines
    )


def transcript(case_id: str, workdir: Path) -> dict:
    """Run one case in `workdir`; the paths in its output read ``{dir}``."""
    text, argv = CASES[case_id]
    path, out = workdir / "inst.txt", workdir / "out.csv"
    out.unlink(missing_ok=True)
    if text is not None:
        path.write_text(text, encoding="utf-8", newline="")
    subs = {"{file}": str(path), "{out}": str(out), "{dir}": str(workdir)}
    for key, value in subs.items():
        argv = [arg.replace(key, value) for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
    record = {
        "code": code,
        "warnings": [str(w.message) for w in caught],
        "stdout": stdout.getvalue(),
        "out": out.read_text(encoding="utf-8") if out.exists() else None,
        "stderr": stderr.getvalue().replace(str(workdir), "{dir}"),
    }
    if argv[0] == "bench" and code == 0:
        for key in ("stdout", "out"):
            if record[key]:
                record[key] = _drop_runtime(record[key])
    return record


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORD.read_text(encoding="utf-8"))


def test_record_covers_every_case(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("case_id", list(CASES))
def test_transcript_matches_record(recorded, tmp_path, case_id):
    assert transcript(case_id, tmp_path) == recorded[case_id]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        records = {case_id: transcript(case_id, Path(tmp)) for case_id in CASES}
    lines = ",\n".join(f"{json.dumps(key)}: {json.dumps(rec)}" for key, rec in records.items())
    RECORD.write_text("{\n" + lines + "\n}\n", encoding="utf-8")
