"""Command-line front end: bounds, probing sets, oracles, and benchmarks.

Output is CSV on stdout (or --out) so results stay diffable.  Variable
indices are 1-based in all command input and output, matching the order of
`dist` lines in the instance file; index sets are rendered `1|3|4`.

Exit codes: 0 success, 1 validation or input error, 2 internal guarantee
violation (a proven inequality failed, i.e. a bug).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time

import numpy as np

from . import gap2 as gap2_mod
from . import gap_continuous as cont_mod
from . import oracles
from .errors import (
    GuaranteeViolation,
    InstanceTooLarge,
    ProbemaxError,
    ValidationError,
)
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
    try:
        raw = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"--indices {spec!r}: expected comma-separated integers")
    if not raw:
        raise ValidationError("--indices is empty")
    return inst.subset([i - 1 for i in raw])


def _write_csv(rows: list[dict], out_path: str | None, fieldnames=None) -> None:
    """Write rows as CSV under `fieldnames`, by default the first row's keys.

    Missing keys stay empty; `bench` names its columns for its empty suites.
    """
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=fieldnames or list(rows[0]), lineterminator="\n"
    )
    writer.writeheader()
    writer.writerows(rows)
    text = buf.getvalue()
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _policy_from_args(args, inst: Instance) -> ThresholdPolicy:
    subset = _parse_indices(args.indices, inst)
    threshold = args.threshold if args.threshold is not None else rho(inst, subset)
    return ThresholdPolicy(
        entries=[inst.dists[i] for i in subset], threshold=threshold
    )


def cmd_bound(args) -> None:
    inst = parse_instance_file(args.file)
    bound = gap2_mod.narrow_interval(inst, args.epsilon)
    _write_csv(
        [{
            "r_minus": bound.r_minus,
            "r_plus": bound.r_plus,
            "r_hat": bound.r_hat,
            "u_star": bound.u_star,
            "xi": bound.xi,
            "iterations": bound.iterations,
        }],
        args.out,
    )


def cmd_gap2(args) -> None:
    inst = parse_instance_file(args.file)
    result = gap2_mod.select_gap2_set(inst, args.epsilon)
    _write_csv(
        [{
            "chosen": _render_set(result.chosen),
            "threshold": result.threshold,
            "s_tilde_plus": _render_set(result.s_tilde_plus),
            "s_tilde_minus": _render_set(result.s_tilde_minus),
            "rho_plus": result.rho_plus,
            "rho_minus": result.rho_minus,
            "u_star": result.bound.u_star,
            "epsilon": result.epsilon,
        }],
        args.out,
    )


def cmd_gapcont(args) -> None:
    inst = parse_instance_file(args.file)
    result = cont_mod.solve_continuous(inst)
    sol = result.solution
    _write_csv(
        [{
            "r_star": sol.r_star,
            "u_star": result.bound.u_star,
            "alpha": sol.alpha,
            "frac_pair": _render_set(sol.frac_pair) if sol.frac_pair else "",
            "expected_reward": result.stats.expected_reward,
            "expected_b": result.stats.expected_b,
            "derandomized_set": _render_set(sorted(result.derandomized_order)),
            "derandomized_order": _render_set(result.derandomized_order),
            "derandomized_reward": result.derandomized_reward,
        }],
        args.out,
    )


def cmd_oracle(args) -> None:
    inst = parse_instance_file(args.file)
    a_star = oracles.adaptive_optimum_dp(inst)
    s_star, s_set = oracles.static_optimum_enum(inst)
    u_star = gap2_mod.narrow_interval(inst, args.epsilon).u_star
    _write_csv(
        [{
            "a_star": a_star,
            "s_star": s_star,
            "u_star": u_star,
            "s_witness": _render_set(s_set),
        }],
        args.out,
    )


def cmd_eval(args) -> None:
    inst = parse_instance_file(args.file)
    policy = _policy_from_args(args, inst)
    stats = evaluate(policy)
    _write_csv(
        [{
            "threshold": policy.threshold,
            "expected_reward": stats.expected_reward,
            "expected_b": stats.expected_b,
            "prob_stop": stats.prob_stop,
            "expected_sum": stats.expected_sum,
            "expected_excess": stats.expected_excess,
        }],
        args.out,
    )


def cmd_simulate(args) -> None:
    inst = parse_instance_file(args.file)
    policy = _policy_from_args(args, inst)
    result = simulate(policy, trials=args.trials, seed=args.seed)
    _write_csv(
        [{
            "threshold": policy.threshold,
            "mean_reward": result.mean_reward,
            "mean_max": result.mean_max,
            "stderr": result.stderr,
            "trials": args.trials,
            "seed": args.seed,
        }],
        args.out,
    )


def cmd_gen(args) -> None:
    inst = gen_instance(args.n, args.k, args.family, args.seed)
    text = emit_instance(inst)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


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
    for label, combine in (("min", min), ("mean", lambda xs: sum(xs) / len(xs))):
        summary: dict = {"instance_id": label}
        for col in ratio_cols:
            values = [row[col] for row in rows if col in row]
            if values:
                summary[col] = combine(values)
        out.append(summary)
    return out


def cmd_bench(args) -> None:
    if args.n_min < 1 or args.n_max < args.n_min:
        raise ValidationError(f"bad size range [{args.n_min}, {args.n_max}]")
    if args.seed < 0:
        raise ValidationError(f"seed {args.seed!r} must be non-negative")
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
    _write_csv(rows, args.out, fieldnames=BENCH_FIELDS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probemax",
        description="Min-max bounds and threshold probing sets for ProbeMax instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, file_arg=True):
        if file_arg:
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
    args = _PARSER.parse_args(argv)
    try:
        args.func(args)
    except GuaranteeViolation as exc:
        print(f"internal guarantee violation: {exc}", file=sys.stderr)
        return 2
    except ProbemaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
