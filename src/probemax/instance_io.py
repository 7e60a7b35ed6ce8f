"""Line-oriented instance files and seeded random instance generation.

Format: one `k <int>` line plus one `dist <kind> ...` line per variable, in
order.  Each kind has exactly one layout:

    dist discrete values <v1> ... <vm> probs <p1> ... <pm>    (m >= 1)
    dist uniform a <a> b <b>
    dist exponential rate <rate>

A line whose fields are missing, repeated, reordered or extended is
rejected with its kind's layout.  Lines end at `\\n`, `\\r\\n` or `\\r` only;
within a line any whitespace separates tokens.  Blank lines and `#`
comments are ignored.  Numbers are rendered with repr(), so emit -> parse
round-trips every float exactly.

Parsing is one pass over the lines plus one batch that checks and builds
all discrete variables (see parse_instance_text); `gen_instance` builds its
discrete variables in the same batch, the one `DiscreteFinite(atoms)` runs
on one row.
"""

from __future__ import annotations

from array import array

import numpy as np

from .distributions import (
    DiscreteFinite,
    Distribution,
    Exponential,
    Uniform,
    _discrete_rows,
)
from .errors import ValidationError
from .minmax import Instance

GEN_FAMILIES = ("discrete", "uniform", "exponential", "mixed")

#: The one layout of each kind's fields, named by the error for any other.
_LAYOUTS = {
    "discrete": "values <v1> ... <vm> probs <p1> ... <pm>",
    "uniform": "a <a> b <b>",
    "exponential": "rate <rate>",
}


def _parse_float(token: str, field: str) -> float:
    # float() also reads `1_0` and non-ASCII digits, which repr() never writes.
    try:
        if token.isascii() and "_" not in token:
            return float(token)
    except ValueError:
        pass
    raise ValidationError(f"field {field!r}: not a number: {token!r}")


def _parse_k(tokens: list[str]) -> int:
    # isdigit() also admits non-ASCII digits, such as "²" and "١".
    if len(tokens) == 2 and tokens[1].isascii() and tokens[1].removeprefix("-").isdigit():
        return int(tokens[1])
    raise ValidationError("field 'k': expected one integer")


def parse_instance_text(text: str) -> Instance:
    """Parse an instance file, reporting the offending line and field.

    Each line is tokenized once and checked against its kind's layout by
    token position; uniform and exponential variables are built in the
    scan.  The numbers of the discrete lines are converted in one float
    pass after the scan, and their variables are checked and built in one
    batch.  The error raised is the one the first bad line gives, as if
    lines were parsed one by one: the scan stops at a structure error, and
    a bad number or atom on an earlier discrete line wins over it.
    """
    k = None
    dists: list[Distribution | None] = []
    slots: list[int] = []  # per batched discrete line: its index in dists,
    lines: list[int] = []  # its line number,
    sizes: list[int] = []  # and its atom count
    value_tokens: list[str] = []
    prob_tokens: list[str] = []
    error = None
    # Only \n, \r\n and \r end a line; str.splitlines would also split at
    # \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029, say inside a comment.
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    for line_no, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        try:
            if tokens[0] == "k":
                if k is not None:
                    raise ValidationError("field 'k' repeated")
                k = _parse_k(tokens)
            elif tokens[0] != "dist":
                raise ValidationError(f"expected 'k' or 'dist', got {tokens[0]!r}")
            elif len(tokens) == 1:
                raise ValidationError("field 'kind' missing after 'dist'")
            elif tokens[1] not in _LAYOUTS:
                raise ValidationError(f"field 'kind': unknown kind {tokens[1]!r}")
            elif (
                tokens[1] == "discrete"
                and (m := (len(tokens) - 4) // 2) > 0
                and len(tokens) % 2 == 0
                and tokens[2] == "values"
                and tokens[3 + m] == "probs"
            ):
                value_tokens += tokens[3:3 + m]
                prob_tokens += tokens[4 + m:]
                slots.append(len(dists))
                lines.append(line_no)
                sizes.append(m)
                dists.append(None)
            elif (
                tokens[1] == "uniform" and len(tokens) == 6
                and tokens[2] == "a" and tokens[4] == "b"
            ):
                dists.append(Uniform(_parse_float(tokens[3], "a"), _parse_float(tokens[5], "b")))
            elif tokens[1] == "exponential" and len(tokens) == 4 and tokens[2] == "rate":
                dists.append(Exponential(_parse_float(tokens[3], "rate")))
            else:
                raise ValidationError(f"dist {tokens[1]}: expected {_LAYOUTS[tokens[1]]!r}")
        except ValidationError as exc:
            error = (line_no, exc)
            break
    numbers = "".join(value_tokens) + "".join(prob_tokens)
    plain = numbers.isascii() and "_" not in numbers  # as _parse_float checks each token
    try:
        values = np.fromiter(map(float, value_tokens), float, len(value_tokens))
        probs = np.fromiter(map(float, prob_tokens), float, len(prob_tokens))
    except ValueError:
        plain = False
    if not plain:  # find the first line with a bad number; build the lines before it
        values, probs = [], []
        for row, (line_no, m) in enumerate(zip(lines, sizes)):
            start = len(values)
            try:
                row_values = [_parse_float(tok, "values") for tok in value_tokens[start:start + m]]
                row_probs = [_parse_float(tok, "probs") for tok in prob_tokens[start:start + m]]
            except ValidationError as exc:
                error = (line_no, exc)
                del sizes[row:]
                break
            values += row_values
            probs += row_probs
    del value_tokens, prob_tokens, numbers  # the variables take their place in memory
    if sizes:
        try:
            built = _discrete_rows(values, probs, sizes)
        except ValidationError as exc:
            error = (lines[exc.row], exc)
        else:
            for slot, d in zip(slots, built):
                dists[slot] = d
    if error is not None:
        line_no, exc = error
        raise ValidationError(f"line {line_no}: {exc}") from exc
    if k is None:
        raise ValidationError("field 'k' missing")
    if not dists:
        raise ValidationError("no 'dist' lines found")
    return Instance(dists, k)


def parse_instance_file(path: str) -> Instance:
    # Decoded whole, so a decode error's offset counts from the file's start.
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: byte {exc.start}: not UTF-8 ({exc.reason})") from None
    return parse_instance_text(text)


def emit_instance(inst: Instance) -> str:
    """Render an instance in the file format with full-precision floats."""
    lines = [f"k {inst.k}"]
    for d in inst.dists:
        if isinstance(d, DiscreteFinite):
            values = " ".join(repr(v) for v in d.values.tolist())
            probs = " ".join(repr(p) for p in d.probs.tolist())
            lines.append(f"dist discrete values {values} probs {probs}")
        elif isinstance(d, Uniform):
            lines.append(f"dist uniform a {d.a!r} b {d.b!r}")
        else:
            lines.append(f"dist exponential rate {d.rate!r}")
    return "\n".join(lines) + "\n"


def _gen_discrete(rng: np.random.Generator) -> tuple[list[float], list[float]]:
    """The values and probabilities of one discrete variable, unsorted."""
    size = int(rng.integers(1, 5))
    values = rng.uniform(0.0, 10.0, size)
    weights = rng.integers(1, 11, size).astype(float)
    return values.tolist(), (weights / weights.sum()).tolist()


def _gen_uniform(rng: np.random.Generator) -> Uniform:
    a = float(rng.uniform(0.0, 5.0))
    return Uniform(a, a + float(rng.uniform(0.5, 5.0)))


def _gen_exponential(rng: np.random.Generator) -> Exponential:
    return Exponential(float(rng.uniform(0.2, 2.0)))


def gen_instance(n: int, k: int, family: str, seed: int) -> Instance:
    """Deterministic random instance of the requested family.

    Discrete variables have at most 4 support values drawn from [0, 10];
    `mixed` draws each variable as uniform or exponential with equal odds.
    """
    if family not in GEN_FAMILIES:
        raise ValidationError(f"unknown family {family!r}; expected one of {GEN_FAMILIES}")
    for name, value in (("n", n), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValidationError(f"{name}={value!r} must be an integer")
    if seed < 0:
        raise ValidationError(f"seed {seed!r} must be non-negative")
    rng = np.random.default_rng(seed)
    if family == "discrete":
        values, probs, sizes = array("d"), array("d"), []  # raw doubles: no float objects
        for _ in range(n):
            row_values, row_probs = _gen_discrete(rng)
            values.extend(row_values)
            probs.extend(row_probs)
            sizes.append(len(row_values))
        return Instance(_discrete_rows(values, probs, sizes), k)
    dists: list[Distribution] = []
    for _ in range(n):
        if family == "uniform":
            dists.append(_gen_uniform(rng))
        elif family == "exponential":
            dists.append(_gen_exponential(rng))
        else:
            if rng.random() < 0.5:
                dists.append(_gen_uniform(rng))
            else:
                dists.append(_gen_exponential(rng))
    return Instance(dists, k)


def iid_uniform01(n: int, k: int) -> Instance:
    """n independent Uniform(0, 1) variables; the closed-form anchor family."""
    return Instance([Uniform(0.0, 1.0) for _ in range(n)], k)
