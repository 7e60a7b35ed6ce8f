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

Parsing reads the lines in blocks, converting each block's numbers as it
goes, and then checks and builds each family's columns in one batch (see
parse_instance_text); `gen_instance` draws into the same columns.  No
variable object is made until one is asked for.
"""

from __future__ import annotations

import numbers
from array import array

import numpy as np

from .distributions import _DiscreteBatch, _ExponentialBatch, _Packed, _UniformBatch
from .errors import ValidationError
from .minmax import Instance

GEN_FAMILIES = ("discrete", "uniform", "exponential", "mixed")

#: Characters per block of lines that parse_instance_text reads at a time:
#: each block's tokens are converted and dropped before the next is read.
_BLOCK_CHARS = 1 << 20

#: The one layout of each kind's fields, named by the error for any other.
#: The kinds are in the order of their family codes (distributions._FAMILIES).
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


def _numbers(fields, ends) -> tuple[list[np.ndarray], tuple[int, ValidationError] | None]:
    """Convert the (name, tokens) fields of one kind's rows to float arrays.

    Row j holds each field's tokens up to ends[j].  Each field is converted
    in one numpy pass, whose str conversion is float()'s.  When a token is
    not a number, the first row holding one comes back with the error a
    line-by-line parse gives, which reads a row's fields in order, and the
    arrays hold the rows before it only.
    """
    arrays, bad = [], None
    for name, tokens in fields:
        numbers = "".join(tokens)
        try:
            if numbers.isascii() and "_" not in numbers:  # as _parse_float checks each token
                arrays.append(np.array(tokens, dtype=float))
                continue
        except ValueError:
            pass
        for i, token in enumerate(tokens):  # find the first bad token
            try:
                _parse_float(token, name)
            except ValidationError as exc:
                row = int(np.searchsorted(ends, i, side="right"))
                if bad is None or row < bad[0]:
                    bad = (row, exc)
                break
    if bad is None:
        return arrays, None
    cut = int(ends[bad[0] - 1]) if bad[0] else 0
    return [np.array(tokens[:cut], dtype=float) for _, tokens in fields], bad


def _blocks(text: str):
    """The text in blocks of whole lines, each with its line ends made `\\n`.

    Only \\n, \\r\\n and \\r end a line; str.splitlines would also split at
    \\v, \\f, \\x1c-\\x1e, \\x85, \\u2028 and \\u2029, say inside a comment.  A
    block stops just before a `\\n`, so no line end spans two blocks.
    """
    start = 0
    while True:
        end = text.find("\n", start + _BLOCK_CHARS)
        block = text[start:] if end < 0 else text[start:end].removesuffix("\r")
        yield block.replace("\r\n", "\n").replace("\r", "\n")
        if end < 0:
            return
        start = end + 1


def parse_instance_text(text: str) -> Instance:
    """Parse an instance file, reporting the offending line and field.

    Each line is tokenized once and checked against its kind's layout by
    token position.  The lines are read in blocks; after each, every
    field's number tokens are converted in one float pass and dropped.
    Each kind's rows are then checked and built as columns in one batch.
    The error raised is the one the first bad line gives, as if lines were
    parsed one by one: the scan stops at a structure error or after a
    block with a bad number, and an earlier bad line wins over either.
    """
    k = None
    kinds = bytearray()  # per dist line: its kind's index in _LAYOUTS
    lines = (array("q"), array("q"), array("q"))  # per kind: the line number of each row
    sizes: list[int] = []  # per discrete row: its atom count
    values, probs, a, b, rate = [], [], [], [], []  # the block's number tokens, per field
    fields = ((("values", values), ("probs", probs)), (("a", a), ("b", b)), (("rate", rate),))
    columns = ([[], []], [[], []], [[]])  # per kind and field: the blocks' float arrays
    rows = [0, 0, 0]  # per kind: the rows converted, up to the first with a bad number
    error = None  # the first bad line found, and its error

    def note(line_no: int, exc: ValidationError) -> None:
        nonlocal error
        if error is None or line_no < error[0]:
            error = (line_no, exc)

    blocks = _blocks(text)
    del text  # the blocks' reference is dropped once they are read
    line_no = 0
    for block in blocks:
        for raw in block.split("\n"):
            line_no += 1
            tokens = raw.split("#", 1)[0].split()
            if not tokens:
                continue
            try:
                if tokens[0] == "k":
                    if k is not None:
                        raise ValidationError("field 'k' repeated")
                    k = _parse_k(tokens)
                    continue
                if tokens[0] != "dist":
                    raise ValidationError(f"expected 'k' or 'dist', got {tokens[0]!r}")
                if len(tokens) == 1:
                    raise ValidationError("field 'kind' missing after 'dist'")
                if tokens[1] not in _LAYOUTS:
                    raise ValidationError(f"field 'kind': unknown kind {tokens[1]!r}")
                if (
                    tokens[1] == "discrete"
                    and (m := (len(tokens) - 4) // 2) > 0
                    and len(tokens) % 2 == 0
                    and tokens[2] == "values"
                    and tokens[3 + m] == "probs"
                ):
                    values += tokens[3:3 + m]
                    probs += tokens[4 + m:]
                    sizes.append(m)
                    kind = 0
                elif (
                    tokens[1] == "uniform" and len(tokens) == 6
                    and tokens[2] == "a" and tokens[4] == "b"
                ):
                    a.append(tokens[3])
                    b.append(tokens[5])
                    kind = 1
                elif tokens[1] == "exponential" and len(tokens) == 4 and tokens[2] == "rate":
                    rate.append(tokens[3])
                    kind = 2
                else:
                    raise ValidationError(f"dist {tokens[1]}: expected {_LAYOUTS[tokens[1]]!r}")
                kinds.append(kind)
                lines[kind].append(line_no)
            except ValidationError as exc:
                note(line_no, exc)
                break
        for kind, kind_fields in enumerate(fields):
            counts = sizes[rows[kind]:] if kind == 0 else [1] * (len(lines[kind]) - rows[kind])
            if not counts:
                continue
            arrays, bad = _numbers(kind_fields, np.cumsum(counts, dtype=np.intp))
            for column, part in zip(columns[kind], arrays):
                column.append(part)
            for _, tokens in kind_fields:
                tokens.clear()
            rows[kind] += len(counts) if bad is None else bad[0]
            if bad is not None:
                note(lines[kind][rows[kind]], bad[1])
        if error is not None:
            break
    batches = [None, None, None]
    for kind, build in enumerate((
        lambda values, probs: _DiscreteBatch.checked(values, probs, sizes[:rows[0]]),
        _UniformBatch.checked,
        _ExponentialBatch.checked,
    )):
        if not rows[kind]:
            continue  # no row to check
        joined = []
        for column in columns[kind]:
            joined.append(np.concatenate(column))
            column.clear()  # the joined array takes the blocks' place in memory
        try:
            batches[kind] = build(*joined)
        except ValidationError as exc:
            note(lines[kind][exc.row], exc)
    if error is not None:
        line_no, exc = error
        raise ValidationError(f"line {line_no}: {exc}") from exc
    if k is None:
        raise ValidationError("field 'k' missing")
    if not kinds:
        raise ValidationError("no 'dist' lines found")
    return Instance._of_columns(_Packed(np.frombuffer(kinds, dtype=np.int8), batches), k)


def parse_instance_file(path: str) -> Instance:
    # The text goes to the parser with no other reference, so that the
    # parser can free it once its lines are read (CPython 3.11 and later).
    return parse_instance_text(_read_text(path))


def _read_text(path: str) -> str:
    # Decoded whole, so a decode error's offset counts from the file's start.
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: byte {exc.start}: not UTF-8 ({exc.reason})") from None


def emit_instance(inst: Instance) -> str:
    """Render an instance in the file format with full-precision floats."""
    discrete, uniform, exponential = inst._packed.batches
    rows: list[list[str]] = [[], [], []]  # per kind: its lines, in row order
    if discrete is not None:
        values = list(map(repr, discrete.values.tolist()))
        probs = list(map(repr, discrete.probs.tolist()))
        start = 0
        for end in np.cumsum(discrete.sizes).tolist():
            rows[0].append(f"dist discrete values {' '.join(values[start:end])} "
                           f"probs {' '.join(probs[start:end])}")
            start = end
    if uniform is not None:
        rows[1] = [f"dist uniform a {a!r} b {b!r}"
                   for a, b in zip(uniform.a.tolist(), uniform.b.tolist())]
    if exponential is not None:
        rows[2] = [f"dist exponential rate {rate!r}" for rate in exponential.rate.tolist()]
    lines = [iter(kind_rows) for kind_rows in rows]
    body = [next(lines[kind]) for kind in inst._packed.kind.tolist()]
    return "\n".join([f"k {inst.k}", *body]) + "\n"


def _gen_discrete(rng: np.random.Generator) -> tuple[list[float], list[float]]:
    """The values and probabilities of one discrete variable, unsorted."""
    size = int(rng.integers(1, 5))
    values = rng.uniform(0.0, 10.0, size)
    weights = rng.integers(1, 11, size).astype(float)
    return values.tolist(), (weights / weights.sum()).tolist()


def gen_instance(n: int, k: int, family: str, seed: int) -> Instance:
    """Deterministic random instance of the requested family.

    Discrete variables have at most 4 support values drawn from [0, 10];
    `mixed` draws each variable as uniform or exponential with equal odds.
    The draws go straight into the family columns.
    """
    if family not in GEN_FAMILIES:
        raise ValidationError(f"unknown family {family!r}; expected one of {GEN_FAMILIES}")
    for name, value in (("n", n), ("seed", seed)):
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValidationError(f"{name}={value!r} must be an integer")
    if seed < 0:
        raise ValidationError(f"seed {seed!r} must be non-negative")
    rng = np.random.default_rng(seed)
    kinds = bytearray()
    batches = [None, None, None]
    if family == "discrete":
        values, probs, sizes = array("d"), array("d"), []  # raw doubles: no float objects
        for _ in range(n):
            row_values, row_probs = _gen_discrete(rng)
            values.extend(row_values)
            probs.extend(row_probs)
            sizes.append(len(row_values))
        kinds = bytes(len(sizes))
        batches[0] = _DiscreteBatch.checked(values, probs, sizes)
    else:
        a, b, rate = array("d"), array("d"), array("d")
        for _ in range(n):
            if family == "uniform" or (family == "mixed" and rng.random() < 0.5):
                lo = float(rng.uniform(0.0, 5.0))
                a.append(lo)
                b.append(lo + float(rng.uniform(0.5, 5.0)))
                kinds.append(1)
            else:
                rate.append(float(rng.uniform(0.2, 2.0)))
                kinds.append(2)
        if a:
            batches[1] = _UniformBatch.checked(np.array(a), np.array(b))
        if rate:
            batches[2] = _ExponentialBatch.checked(np.array(rate))
    return Instance._of_columns(_Packed(np.frombuffer(kinds, dtype=np.int8), batches), k)


def iid_uniform01(n: int, k: int) -> Instance:
    """n independent Uniform(0, 1) variables; the closed-form anchor family."""
    n = max(n, 0)
    batch = _UniformBatch(np.zeros(n), np.ones(n))
    return Instance._of_columns(_Packed(np.ones(n, dtype=np.int8), [None, batch, None]), k)
