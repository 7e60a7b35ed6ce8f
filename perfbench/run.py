#!/usr/bin/env python3
"""Seeded benchmark of the probemax CLI, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload gapcont-large --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 1      # every workload, each in a fresh process

Each op is an in-process call to ``probemax.cli.main`` that writes its CSV
through ``--out``; ops run closed-loop, one at a time, on one thread.  Every
op's output is checked outside the timed region (see ``workloads.py``).

``--trace 0`` runs every op at least once and until ``--seconds`` have
passed, and reports the
``end_to_end`` metrics of ``BENCHMARK.json``.  ``--trace 1`` runs one cycle of
the workload's ops, each op once untraced and once traced, repeated while
another such pass fits in ``--seconds``; it reports the ``per_layer`` metrics
(medians over passes) and writes every span to ``.perfbench/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Callable

import workloads
from tracer import Tracer
from workloads import CheckFailed

# One thread per workload process: no idle BLAS pool next to the op loop.
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUTPUT = ROOT / ".perfbench"
# Set-ups per timed run, spread evenly over it (see timed_run).
SETUP_REPEATS = 5


class SetupError(Exception):
    """The benchmark cannot run here: no probemax source, or set-up failed."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def import_probemax():
    """Import probemax from this checkout's ``src/`` and return it."""
    src = SRC.resolve()
    sys.path.insert(0, str(src))
    try:
        import probemax
        import probemax.cli
    except ImportError as exc:
        raise SetupError(f"cannot import probemax from {src}: {exc}") from exc
    if not Path(probemax.__file__).resolve().is_relative_to(src):
        raise SetupError(f"probemax was imported from {probemax.__file__}, not from {src}")
    return probemax


def fresh_import() -> None:
    """Start a new interpreter that imports ``probemax.cli``, as every command does."""
    code = f"import sys; sys.path.insert(0, {str(SRC.resolve())!r}); import probemax.cli"
    if subprocess.run([sys.executable, "-c", code], check=False).returncode != 0:
        raise SetupError("a fresh interpreter cannot import probemax")


class Runner:
    """Runs ops, checks their output and tallies the outcomes."""

    def __init__(self, pm, workdir: Path) -> None:
        self.pm = pm
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.margins: list[float] = []

    def run_op(self, op: workloads.Op, tracer: Tracer | None = None) -> float:
        """Run one op and check it; return its wall time in seconds."""
        out = self.workdir / f"{op.label}.csv"
        out.unlink(missing_ok=True)
        argv = [*op.argv, "--out", str(out)]
        with tracer.active(op.label) if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                status = self.pm.cli.main(argv)
            except SystemExit as exc:
                status = f"exit {exc.code}"
            except Exception:  # an op that raises is a failed op, not a failed run
                status = "an exception:\n" + traceback.format_exc()
            elapsed = time.perf_counter() - start
        self.attempted += 1
        try:
            if status != 0:
                raise CheckFailed(f"probemax returned {status}")
            margin = op.check(workloads.read_row(out))
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            self.failed += 1
            print(f"FAILED {op.label} file={op.file} seed={op.seed}: {exc}", file=sys.stderr)
        else:
            if margin is not None:
                self.margins.append(margin)
        return elapsed


def timed_run(runner: Runner, workload: workloads.Workload, seconds: int,
              set_up: Callable[[], object]) -> dict:
    """Run ops for ``seconds``; call ``set_up`` again at evenly spaced times in between.

    Spreading the set-ups over the run keeps one slow spell of a shared host
    from deciding their median.
    """
    times = []
    set_ups = 1  # the caller's, before the run
    start = time.perf_counter()
    # At least one pass over every op, so that margin_min depends on the seed only.
    while len(times) < len(workload.ops) or time.perf_counter() - start < seconds:
        if (set_ups < SETUP_REPEATS
                and time.perf_counter() - start >= set_ups * seconds / SETUP_REPEATS):
            set_up()
            set_ups += 1
        times.append(runner.run_op(workload.ops[len(times) % len(workload.ops)]))
    for _ in range(set_ups, SETUP_REPEATS):
        set_up()
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]
    return {
        "op_p50_s": statistics.median(times),
        "op_p90_s": p90,
        "ops_per_s": (runner.attempted - runner.failed) / sum(times),
        "margin_min": min(runner.margins, default=0.0),
    }


def traced_run(runner: Runner, workload: workloads.Workload, seconds: int, spans_path: Path) -> dict:
    cycle = workload.ops[: workload.cycle]
    passes = []
    start = time.perf_counter()
    with open(spans_path, "w", encoding="utf-8") as spans:
        while True:
            pass_start = time.perf_counter()
            tracer = Tracer()
            untraced = traced = 0.0
            for op in cycle:
                untraced += runner.run_op(op)
                traced += runner.run_op(op, tracer)
            summary = tracer.summary()
            summary["trace.overhead_frac"] = (traced - untraced) / untraced
            passes.append(summary)
            tracer.write_spans(spans, len(passes) - 1)
            now = time.perf_counter()
            if now - start + (now - pass_start) > seconds:
                break
    return {name: statistics.median_low([p[name] for p in passes if name in p])
            for name in passes[0]}


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 scale: workloads.Scale = workloads.FULL) -> dict:
    """Set up and measure one workload; return the result object."""
    spec = load_spec()
    pm = import_probemax()
    OUTPUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUTPUT))
    setup_times = []

    def set_up() -> workloads.Workload:
        """Import probemax afresh and build the inputs; record the seconds taken."""
        start = time.perf_counter()
        fresh_import()
        try:
            built = workloads.WORKLOADS[name](pm, workdir, seed, scale)
        except RuntimeError as exc:
            raise SetupError(str(exc)) from exc
        setup_times.append(time.perf_counter() - start)
        return built

    try:
        workload = set_up()
        runner = Runner(pm, workdir)
        if trace:
            spans_path = OUTPUT / f"spans-{name}-seed{seed}.jsonl"
            measured = traced_run(runner, workload, seconds, spans_path)
            wanted = spec["per_layer"]
        else:
            measured = timed_run(runner, workload, seconds, set_up)
            measured["setup_s"] = statistics.median(setup_times)
            measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for metric in wanted:
        value = measured.get(metric["name"])
        shown = "absent" if value is None else f"{value:.6g} {metric['unit']}"
        print(f"{name} {metric['name']} {shown}")
    print(f"{name} ops {runner.attempted} ({workload.cycle} per cycle), "
          f"failed_frac {runner.failed / runner.attempted:.6g} ratio")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in measured},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="default: run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
        if args.workload is None:
            status = 0
            for name in workloads.WORKLOADS:
                cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(seconds), "--trace", str(args.trace)]
                status = max(status, subprocess.run(cmd, cwd=ROOT, check=False).returncode)
            return status
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    except (SetupError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
