"""Line-oriented instance files and seeded random instance generation.

Format: one `k <int>` line plus one `dist <kind> ...` line per variable, in
order.  Kinds and their fields:

    dist discrete values <v1> <v2> ... probs <p1> <p2> ...
    dist uniform a <a> b <b>
    dist exponential rate <rate>

Blank lines and `#` comments are ignored.  Numbers are rendered with repr(),
so emit -> parse round-trips every float exactly.
"""

from __future__ import annotations

import numpy as np

from .distributions import DiscreteFinite, Distribution, Exponential, Uniform
from .errors import ValidationError
from .minmax import Instance

GEN_FAMILIES = ("discrete", "uniform", "exponential", "mixed")


def _parse_float(token: str, line_no: int, field: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValidationError(f"line {line_no}: field {field!r}: not a number: {token!r}")


def _parse_keyed_floats(tokens: list[str], keys: tuple[str, ...], line_no: int) -> dict:
    """Parse `key value [key value ...]` pairs, scalar or list-valued per key."""
    out: dict[str, list[float]] = {}
    current = None
    for tok in tokens:
        if tok in keys:
            if tok in out:
                raise ValidationError(f"line {line_no}: field {tok!r} repeated")
            current = tok
            out[tok] = []
        elif current is None:
            raise ValidationError(f"line {line_no}: expected one of {keys}, got {tok!r}")
        else:
            out[current].append(_parse_float(tok, line_no, current))
    for key in keys:
        if key not in out or not out[key]:
            raise ValidationError(f"line {line_no}: missing field {key!r}")
    return out


def _parse_dist(tokens: list[str], line_no: int) -> Distribution:
    if not tokens:
        raise ValidationError(f"line {line_no}: field 'kind' missing after 'dist'")
    kind, rest = tokens[0], tokens[1:]
    try:
        if kind == "discrete":
            fields = _parse_keyed_floats(rest, ("values", "probs"), line_no)
            if len(fields["values"]) != len(fields["probs"]):
                raise ValidationError(
                    f"line {line_no}: field 'probs': expected "
                    f"{len(fields['values'])} entries, got {len(fields['probs'])}"
                )
            return DiscreteFinite(list(zip(fields["values"], fields["probs"])))
        if kind == "uniform":
            fields = _parse_keyed_floats(rest, ("a", "b"), line_no)
            return Uniform(fields["a"][0], fields["b"][0])
        if kind == "exponential":
            fields = _parse_keyed_floats(rest, ("rate",), line_no)
            return Exponential(fields["rate"][0])
    except ValidationError as exc:
        if str(exc).startswith("line "):
            raise
        raise ValidationError(f"line {line_no}: {exc}") from exc
    raise ValidationError(f"line {line_no}: field 'kind': unknown kind {kind!r}")


def _parse_k(tokens: list[str], line_no: int) -> int:
    # isdigit() admits strings int() rejects, such as "--2" and "²".
    try:
        if len(tokens) == 2 and tokens[1].lstrip("-").isdigit():
            return int(tokens[1])
    except ValueError:
        pass
    raise ValidationError(f"line {line_no}: field 'k': expected one integer")


def parse_instance_text(text: str) -> Instance:
    """Parse an instance file, reporting the offending line and field."""
    k = None
    dists: list[Distribution] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "k":
            if k is not None:
                raise ValidationError(f"line {line_no}: field 'k' repeated")
            k = _parse_k(tokens, line_no)
        elif tokens[0] == "dist":
            dists.append(_parse_dist(tokens[1:], line_no))
        else:
            raise ValidationError(f"line {line_no}: expected 'k' or 'dist', got {tokens[0]!r}")
    if k is None:
        raise ValidationError("field 'k' missing")
    if not dists:
        raise ValidationError("no 'dist' lines found")
    return Instance(dists, k)


def parse_instance_file(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_instance_text(handle.read())


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
        elif isinstance(d, Exponential):
            lines.append(f"dist exponential rate {d.rate!r}")
        else:
            raise ValidationError(f"distribution {d!r} has no file representation")
    return "\n".join(lines) + "\n"


def _gen_discrete(rng: np.random.Generator) -> DiscreteFinite:
    size = int(rng.integers(1, 5))
    values = rng.uniform(0.0, 10.0, size)
    weights = rng.integers(1, 11, size).astype(float)
    probs = weights / weights.sum()
    return DiscreteFinite(list(zip(values.tolist(), probs.tolist())))


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
    if seed < 0:
        raise ValidationError(f"seed {seed!r} must be non-negative")
    rng = np.random.default_rng(seed)
    dists: list[Distribution] = []
    for _ in range(n):
        if family == "discrete":
            dists.append(_gen_discrete(rng))
        elif family == "uniform":
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
