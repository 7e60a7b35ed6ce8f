"""The benchmark's workloads: seeded instance files, op lists and output checks.

Each workload is a list of CLI ops run closed-loop, one at a time, in list
order and wrapping around.  A *cycle* is the first ``cycle`` ops of the list;
the traced run measures exactly one cycle, so its counts repeat run to run.

Only generated instance files and ``--indices`` derived from them reach the
program.  File seeds are ``seed * 1000 + slot``, so another workload seed
gives other files of the same shape (family, n, k).

- ``gap2-discrete-large``: ``gap2`` on three discrete files with n = 10^4 and
  k = 1000.  About 49 envelopes and 570k to 610k scalar
  ``DiscreteFinite.survival``/``g_value`` calls (one ``np.searchsorted``
  each) per op, the ``rho`` bisection, and parsing a 10^4-line file.
- ``gapcont-large``: ``gap-cont`` on two n = 10^4 ``mixed`` files with
  k = 2000 and one iid ``Uniform(0, 1)`` file with k = 1000, whose tie class
  spans all n variables.  About 620k ``g_value`` calls per op, all closed
  forms of ``Uniform``/``Exponential``; parsing a 10^4-line file, and the
  O(k^2) ``evaluate``; two of the three ops are ``mixed``, so the median op
  is one of them.
- ``verify-small``: ground truth on small files.  ``gap2`` then ``oracle`` on
  discrete files with n = 11, k = 6; ``simulate --trials 1000000`` on sets of
  4 to 8 entries that ``gap2``/``gap-cont`` chose during set-up on other
  small discrete and mixed files.  Exact DP, enumeration and the Philox
  simulator do the work.  Each cycle uses new files from a pool of six
  cycles, so one run sees 60 oracle instances; the oracle cost of one
  instance varies by about 3x, and many instances keep the median steady.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EPSILON = 0.05
RTOL = 1e-9
CONT_FACTOR = 1.0 - 1.0 / math.e
SIM_SIGMAS = 5.0


@dataclass(frozen=True)
class Scale:
    n_large: int
    k_discrete: int
    k_mixed: int
    k_uniform: int
    trials: int
    pool: int


FULL = Scale(n_large=10_000, k_discrete=1000, k_mixed=2000, k_uniform=1000,
             trials=1_000_000, pool=6)
# For the benchmark's own smoke test only.
TINY = Scale(n_large=300, k_discrete=30, k_mixed=60, k_uniform=30, trials=20_000, pool=1)

# gap2-discrete-large cycles over three files: one median file decides op_p50_s
# (two would put the median between them), and each costs about 0.65 s of set-up.
DISCRETE_FILES = 3

# verify-small: every gap2 + oracle file has this (n, k), so the oracle ops
# share one cost distribution.  At about 0.1 to 0.3 s an oracle op is long
# enough to average short bursts of load from other processes; the median of
# 40 ms oracle ops (k = 4) spread about a third more from run to run.
VERIFY_ORACLE_FILE = (11, 6)
# Then one simulate after every few oracle files: (oracle files before it,
# family, n, k) of the file whose gap2 or gap-cont set is simulated.  With
# four simulates per ten oracle files the median op is an oracle op.
VERIFY_SIMS = ((3, "discrete", 8, 4), (2, "mixed", 10, 6),
               (3, "discrete", 11, 8), (2, "mixed", 12, 5))


class CheckFailed(Exception):
    """An op's output broke a guarantee or a consistency check."""


@dataclass(frozen=True)
class Op:
    label: str  # unique within a workload; names the op's CSV
    argv: tuple[str, ...]  # probemax.cli.main arguments, without --out
    file: str
    seed: int  # generation seed of the instance file
    check: Callable[[dict], float | None]  # raises CheckFailed; returns the margin


@dataclass
class Workload:
    ops: list[Op]
    cycle: int


def read_row(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != 1:
        raise CheckFailed(f"{path.name}: expected one CSV row, got {len(rows)}")
    return rows[0]


def parse_set(text: str) -> list[int]:
    """A rendered 1-based index set ``1|3|4`` as sorted 0-based indices."""
    return sorted(int(tok) - 1 for tok in text.split("|") if tok)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _check_set(indices: list[int], n: int, k: int, what: str) -> None:
    _require(len(indices) == k, f"{what} has {len(indices)} entries, expected k={k}")
    _require(len(set(indices)) == k and all(0 <= i < n for i in indices),
             f"{what} has repeated or out-of-range indices")


def check_gap2(n: int, k: int) -> Callable[[dict], float]:
    def check(row: dict) -> float:
        _check_set(parse_set(row["chosen"]), n, k, "chosen set")
        threshold, u_star = float(row["threshold"]), float(row["u_star"])
        _require(u_star <= (2.0 + EPSILON) * threshold + RTOL * u_star,
                 f"u_star={u_star!r} > (2+eps) * threshold={threshold!r}")
        return (2.0 + EPSILON) * threshold / u_star
    return check


def check_gapcont(n: int, k: int) -> Callable[[dict], float]:
    def check(row: dict) -> float:
        _check_set(parse_set(row["derandomized_set"]), n, k, "derandomized set")
        reward, u_star = float(row["expected_reward"]), float(row["u_star"])
        derandomized = float(row["derandomized_reward"])
        _require(reward >= CONT_FACTOR * u_star * (1.0 - RTOL),
                 f"expected_reward={reward!r} < (1-1/e) * u_star={u_star!r}")
        _require(derandomized >= reward * (1.0 - RTOL),
                 f"derandomized_reward={derandomized!r} < expected_reward={reward!r}")
        return reward / (CONT_FACTOR * u_star)
    return check


def check_oracle(pm, inst, gap2_csv: Path) -> Callable[[dict], float]:
    def check(row: dict) -> float:
        a_star, s_star, u_star = (float(row[c]) for c in ("a_star", "s_star", "u_star"))
        _require(s_star <= a_star * (1.0 + RTOL) and a_star <= u_star * (1.0 + RTOL),
                 f"expected s_star <= a_star <= u_star, got {s_star!r}, {a_star!r}, {u_star!r}")
        chosen = parse_set(read_row(gap2_csv)["chosen"])
        exact = pm.policy_eval.expected_max_exact_discrete(inst.dists, chosen)
        _require(exact >= a_star / (2.0 + EPSILON) * (1.0 - RTOL),
                 f"E[max of gap2 set]={exact!r} < a_star / (2+eps), a_star={a_star!r}")
        return (2.0 + EPSILON) * exact / a_star
    return check


def check_simulate(pm, inst, indices: list[int], trials: int) -> Callable[[dict], None]:
    def check(row: dict) -> None:
        _require(int(row["trials"]) == trials, f"ran {row['trials']} trials, asked {trials}")
        entries = [inst.dists[i] for i in indices]
        policy = pm.policy_eval.ThresholdPolicy(entries, float(row["threshold"]))
        exact = pm.policy_eval.evaluate(policy).expected_reward
        mean, stderr = float(row["mean_reward"]), float(row["stderr"])
        # The relative slack covers rounding when every trial earns the same
        # reward, so that stderr is zero up to rounding as well.
        _require(abs(mean - exact) <= SIM_SIGMAS * stderr + RTOL * abs(exact),
                 f"mean_reward={mean!r} is more than {SIM_SIGMAS} stderr={stderr!r} "
                 f"from the exact {exact!r}")
    return check


def write_instance(pm, workdir: Path, seed: int, slot: int, family: str, n: int, k: int):
    """Generate one seeded instance file; return its path, seed and instance."""
    file_seed = seed * 1000 + slot
    if family == "uniform01":
        inst = pm.instance_io.iid_uniform01(n, k)
    else:
        inst = pm.instance_io.gen_instance(n, k, family, file_seed)
    path = workdir / f"{slot:03d}-{family}-n{n}-k{k}.txt"
    path.write_text(pm.instance_io.emit_instance(inst), encoding="utf-8")
    return str(path), file_seed, inst


def _setup_op(pm, workdir: Path, command: str, path: str) -> dict:
    """Run one CLI command during set-up and return its CSV row."""
    out = workdir / "setup.csv"
    if pm.cli.main([command, path, "--out", str(out)]) != 0:
        raise RuntimeError(f"set-up: probemax {command} {path} failed")
    return read_row(out)


def _warm_up(pm, workdir: Path, command: str, family: str) -> None:
    """One small op through the CLI, so no first-call cost lands in a timed op."""
    path, _, _ = write_instance(pm, workdir, 0, 999, family, 50, 5)
    _setup_op(pm, workdir, command, path)


def gap2_discrete_large(pm, workdir: Path, seed: int, scale: Scale) -> Workload:
    ops = []
    for slot in range(DISCRETE_FILES):
        path, file_seed, inst = write_instance(pm, workdir, seed, slot, "discrete",
                                                scale.n_large, scale.k_discrete)
        ops.append(Op(f"{slot:03d}.gap2", ("gap2", path, "--epsilon", str(EPSILON)),
                      path, file_seed, check_gap2(inst.n, inst.k)))
    _warm_up(pm, workdir, "gap2", "discrete")
    return Workload(ops, cycle=len(ops))


def gapcont_large(pm, workdir: Path, seed: int, scale: Scale) -> Workload:
    specs = (("mixed", scale.k_mixed), ("uniform01", scale.k_uniform), ("mixed", scale.k_mixed))
    ops = []
    for slot, (family, k) in enumerate(specs):
        path, file_seed, inst = write_instance(pm, workdir, seed, slot, family, scale.n_large, k)
        ops.append(Op(f"{slot:03d}.gap-cont", ("gap-cont", path), path, file_seed,
                      check_gapcont(inst.n, inst.k)))
    _warm_up(pm, workdir, "gap-cont", "mixed")
    return Workload(ops, cycle=len(ops))


def verify_small(pm, workdir: Path, seed: int, scale: Scale) -> Workload:
    ops = []
    slot = 0
    for _ in range(scale.pool):
        for oracle_files, family, n, k in VERIFY_SIMS:
            for _ in range(oracle_files):
                path, file_seed, inst = write_instance(pm, workdir, seed, slot, "discrete",
                                                        *VERIFY_ORACLE_FILE)
                gap2_label = f"{slot:03d}.gap2"
                ops.append(Op(gap2_label, ("gap2", path, "--epsilon", str(EPSILON)),
                              path, file_seed, check_gap2(inst.n, inst.k)))
                ops.append(Op(f"{slot:03d}.oracle", ("oracle", path, "--epsilon", str(EPSILON)),
                              path, file_seed,
                              check_oracle(pm, inst, workdir / f"{gap2_label}.csv")))
                slot += 1
            path, file_seed, inst = write_instance(pm, workdir, seed, slot, family, n, k)
            if family == "discrete":
                indices = parse_set(_setup_op(pm, workdir, "gap2", path)["chosen"])
            else:
                indices = parse_set(_setup_op(pm, workdir, "gap-cont", path)["derandomized_set"])
            ops.append(Op(
                f"{slot:03d}.simulate",
                ("simulate", path, "--indices", ",".join(str(i + 1) for i in indices),
                 "--trials", str(scale.trials), "--seed", str(file_seed)),
                path, file_seed, check_simulate(pm, inst, indices, scale.trials),
            ))
            slot += 1
    return Workload(ops, cycle=len(ops) // scale.pool)


WORKLOADS = {
    "gap2-discrete-large": gap2_discrete_large,
    "gapcont-large": gapcont_large,
    "verify-small": verify_small,
}
