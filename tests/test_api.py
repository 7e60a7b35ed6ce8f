"""The public API is exactly the README's "Library API" table, and its quick start
and command-line examples run."""

import contextlib
import csv
import io
import re
import shlex
from pathlib import Path

import pytest

import probemax
from probemax import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_api_names():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library API", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(\w+)` \|", section, flags=re.M)


def test_all_matches_the_readme_table():
    assert readme_api_names() == probemax.__all__


def test_every_listed_name_resolves():
    for name in readme_api_names():
        assert getattr(probemax, name).__name__ == name


def readme_quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_prints_what_its_comments_say():
    """Each print line's output matches its comment.

    A comment `# x = ...` that starts with a number asks for that number
    within 1e-8 relative; one with `...` asks for the text before it as a
    prefix of the output.
    """
    code = readme_quick_start()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    comments = [line.partition("# ")[2] for line in code.splitlines()
                if line.startswith("print(")]
    assert len(printed) == len(comments)
    checked = 0
    for line, comment in zip(printed, comments):
        if number := re.match(r"([0-9.]+) = ", comment):
            assert float(line) == pytest.approx(float(number[1]), rel=1e-8, abs=0.0)
            checked += 1
        elif "..." in comment:
            assert line.startswith(comment.split("...", 1)[0])
            checked += 1
    assert checked >= 4


def readme_command_lines() -> list[list[str]]:
    """The arguments of each `probemax` line of the "Command line" block."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert all(line[0] == "probemax" for line in lines)
    return [line[1:] for line in lines]


def test_command_line_examples_run(tmp_path, monkeypatch, capsys):
    """Each line, in order, exits 0 and writes its output: an instance for
    `gen`, which the later lines read, and a CSV header plus rows for the
    others, on stdout or in the --out file."""
    monkeypatch.chdir(tmp_path)
    lines = readme_command_lines()
    assert len(lines) == 9
    for argv in lines:
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        if "--out" in argv:
            assert out == ""
            out = (tmp_path / argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
        if argv[0] == "gen":
            assert out.startswith("k ")
            continue
        header, *rows = list(csv.reader(io.StringIO(out)))
        assert all(re.fullmatch(r"[a-z_][a-z0-9_]*", name) for name in header), argv
        assert rows and all(len(row) == len(header) for row in rows), argv
