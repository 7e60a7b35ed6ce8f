"""The public API is exactly the README's "Library API" table."""

import re
from pathlib import Path

import probemax

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
