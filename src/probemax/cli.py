"""Command-line front end: bounds, probing sets, oracles, and benchmarks.

Output is CSV on stdout (or --out) so results stay diffable.  Variable
indices are 1-based in all command input and output, matching the order of
`dist` lines in the instance file; index sets are rendered `1|3|4`.

Exit codes: 0 success, 1 validation, input or usage error, 2 internal
guarantee violation (a proven inequality failed, i.e. a bug).
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
import time
from dataclasses import asdict

import numpy as np

from . import gap2 as gap2_mod
from . import gap_continuous as cont_mod
from . import oracles
from .errors import GuaranteeViolation, InstanceTooLarge, ProbemaxError, ValidationError
from .instance_io import (
    GEN_FAMILIES,
    emit_instance,
    gen_instance,
    iid_uniform01,
    parse_instance_file,
)
from .minmax import Instance, rho
from .policy_eval import (
    ThresholdPolicy,
    evaluate,
    expected_max_exact_discrete,
    simulate,
)

BENCH_FAMILIES = GEN_FAMILIES + ("uniform01",)


def _render_set(indices) -> str:
    return "|".join(str(i + 1) for i in indices)


def _parse_indices(spec: str, inst: Instance) -> tuple[int, ...]:
    """The sorted 0-based subset that 1-based `--indices` names.

    An error names the index as the user typed it.
    """
    try:
        raw = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"--indices {spec!r}: expected comma-separated integers")
    if not raw:
        raise ValidationError("--indices is empty")
    seen = set()
    for i in raw:
        if not 1 <= i <= inst.n:
            raise ValidationError(f"--indices {spec!r}: index {i} outside [1, {inst.n}]")
        if i in seen:
            raise ValidationError(f"--indices {spec!r}: index {i} repeated")
        seen.add(i)
    return inst.subset([i - 1 for i in raw])


def _csv_text(rows: list[dict], fieldnames: list[str]) -> str:
    """Render rows as CSV under `fieldnames`; missing keys stay empty."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _policy_from_args(inst: Instance, args) -> ThresholdPolicy:
    subset = _parse_indices(args.indices, inst)
    threshold = args.threshold if args.threshold is not None else rho(inst, subset)
    return ThresholdPolicy(entries=inst._variables(subset), threshold=threshold)


def cmd_bound(inst: Instance, args) -> dict:
    return asdict(gap2_mod.narrow_interval(inst, args.epsilon))


def cmd_gap2(inst: Instance, args) -> dict:
    result = gap2_mod.select_gap2_set(inst, args.epsilon)
    return {
        "chosen": _render_set(result.chosen),
        "threshold": result.threshold,
        "s_tilde_plus": _render_set(result.s_tilde_plus),
        "s_tilde_minus": _render_set(result.s_tilde_minus),
        "rho_plus": result.rho_plus,
        "rho_minus": result.rho_minus,
        "u_star": result.bound.u_star,
        "epsilon": result.epsilon,
    }


def cmd_gapcont(inst: Instance, args) -> dict:
    result = cont_mod.solve_continuous(inst)
    sol = result.solution
    return {
        "r_star": sol.r_star,
        "u_star": result.bound.u_star,
        "alpha": sol.alpha,
        "frac_pair": _render_set(sol.frac_pair) if sol.frac_pair else "",
        "expected_reward": result.stats.expected_reward,
        "expected_b": result.stats.expected_b,
        "derandomized_set": _render_set(sorted(result.derandomized_order)),
        "derandomized_order": _render_set(result.derandomized_order),
        "derandomized_reward": result.derandomized_reward,
    }


def cmd_oracle(inst: Instance, args) -> dict:
    a_star = oracles.adaptive_optimum_dp(inst)
    s_star, s_set = oracles.static_optimum_enum(inst)
    u_star = gap2_mod.narrow_interval(inst, args.epsilon).u_star
    return {
        "a_star": a_star,
        "s_star": s_star,
        "u_star": u_star,
        "s_witness": _render_set(s_set),
    }


def cmd_eval(inst: Instance, args) -> dict:
    policy = _policy_from_args(inst, args)
    return {"threshold": policy.threshold, **asdict(evaluate(policy))}


def cmd_simulate(inst: Instance, args) -> dict:
    policy = _policy_from_args(inst, args)
    result = simulate(policy, trials=args.trials, seed=args.seed)
    return {"threshold": policy.threshold, **result._asdict(),
            "trials": args.trials, "seed": args.seed}


def cmd_gen(args) -> str:
    return emit_instance(gen_instance(args.n, args.k, args.family, args.seed))


BENCH_FIELDS = [
    "instance_id", "family", "n", "k", "u_star", "a_star", "s_star",
    "gap2_rho", "gap2_exact_max", "cont_reward", "cont_set",
    "ratio_s_over_a", "ratio_a_over_u", "ratio_gap2_over_a",
    "ratio_cont_over_u", "runtime_s", "status",
]


def _bench_row(instance_id: int, family: str, inst: Instance, epsilon: float) -> dict:
    """One suite row.

    A discrete instance too large for the exact oracles keeps its bound and
    gap2 columns, leaves the oracle and ratio columns empty, and gets status
    too_large; every other error aborts the suite.
    """
    started = time.perf_counter()
    row: dict = {"instance_id": instance_id, "family": family, "n": inst.n, "k": inst.k}
    row["status"] = "ok"
    if family == "discrete":
        result = gap2_mod.select_gap2_set(inst, epsilon)
        exact_max = expected_max_exact_discrete(inst.dists, result.chosen)
        row.update(
            u_star=result.bound.u_star,
            gap2_rho=result.threshold,
            gap2_exact_max=exact_max,
        )
        try:
            a_star = oracles.adaptive_optimum_dp(inst)
            s_star, _ = oracles.static_optimum_enum(inst)
        except InstanceTooLarge:
            row["status"] = "too_large"
        else:
            row.update(
                a_star=a_star,
                s_star=s_star,
                ratio_s_over_a=s_star / a_star,
                ratio_a_over_u=a_star / result.bound.u_star,
                ratio_gap2_over_a=exact_max / a_star,
            )
    else:
        result = cont_mod.solve_continuous(inst)
        row.update(
            u_star=result.bound.u_star,
            cont_reward=result.stats.expected_reward,
            cont_set=_render_set(sorted(result.derandomized_order)),
            ratio_cont_over_u=result.stats.expected_reward / result.bound.u_star,
        )
    row["runtime_s"] = time.perf_counter() - started
    return row


def _summary_rows(rows: list[dict]) -> list[dict]:
    ratio_cols = [f for f in BENCH_FIELDS if f.startswith("ratio_")]
    out = []
    for label, combine in (("min", min), ("mean", lambda xs: math.fsum(xs) / len(xs))):
        summary: dict = {"instance_id": label}
        for col in ratio_cols:
            values = [row[col] for row in rows if col in row]
            if values:
                summary[col] = combine(values)
        out.append(summary)
    return out


def cmd_bench(args) -> str:
    if args.count < 0:
        raise ValidationError(f"--count {args.count!r} must be non-negative")
    if args.n_min < 1 or args.n_max < args.n_min:
        raise ValidationError(f"bad size range [{args.n_min}, {args.n_max}]")
    if args.seed < 0:
        raise ValidationError(f"seed {args.seed!r} must be non-negative")
    gap2_mod.check_epsilon(args.epsilon)  # for every family, though only discrete rows use it
    rows = []
    for instance_id in range(args.count):
        seed = args.seed + instance_id
        picker = np.random.default_rng(seed)
        n = int(picker.integers(args.n_min, args.n_max + 1))
        k = n if args.kn else int(picker.integers(1, n + 1))
        if args.family == "uniform01":
            inst = iid_uniform01(n, k)
        else:
            inst = gen_instance(n, k, args.family, seed)
        rows.append(_bench_row(instance_id, args.family, inst, args.epsilon))
    if rows:
        rows.extend(_summary_rows(rows))
    return _csv_text(rows, BENCH_FIELDS)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting 1: exit 2 means a guarantee failed."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="probemax",
        description="Min-max bounds and threshold probing sets for ProbeMax instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("file", help="instance file path")
        p.add_argument("--out", default=None, help="write CSV here instead of stdout")

    p = sub.add_parser("bound", help="bracket the min-max upper bound")
    add_common(p)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("gap2", help="factor-(2+eps) probing set for general variables")
    add_common(p)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.set_defaults(func=cmd_gap2)

    p = sub.add_parser("gap-cont", help="factor-e/(e-1) pipeline for continuous variables")
    add_common(p)
    p.set_defaults(func=cmd_gapcont)

    p = sub.add_parser("oracle", help="exact adaptive/static optima plus the bound")
    add_common(p)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("eval", help="closed-form statistics of a threshold policy")
    add_common(p)
    p.add_argument("--indices", required=True, help="1-based, comma-separated, e.g. 1,3")
    p.add_argument("--threshold", type=float, default=None,
                   help="default: the root threshold rho of the set")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="Monte-Carlo estimates for a threshold policy")
    add_common(p)
    p.add_argument("--indices", required=True, help="1-based, comma-separated")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gen", help="write a seeded random instance file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--family", choices=GEN_FAMILIES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="run a seeded instance suite, one CSV row each")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--family", choices=BENCH_FAMILIES, required=True)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--kn", action="store_true", help="force k = n")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


# Built once: every parser holds a few hundred objects in reference cycles,
# which only the cyclic garbage collector frees.
_PARSER = build_parser()


def main(argv=None) -> int:
    """Run one command; its CSV or instance text goes to --out or stdout."""
    args = _PARSER.parse_args(argv)
    try:
        if "file" in args:
            row = args.func(parse_instance_file(args.file), args)
            text = _csv_text([row], list(row))
        else:
            text = args.func(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except GuaranteeViolation as exc:
        print(f"internal guarantee violation: {exc}", file=sys.stderr)
        return 2
    except (ProbemaxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
