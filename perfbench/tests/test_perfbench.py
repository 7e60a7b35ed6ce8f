"""Tests of the benchmark itself: metric coverage, the output gate, the tracer.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

PM = run.import_probemax()
SPEC = run.load_spec()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(name, trace):
    result = run.run_workload(name, seed=2, seconds=1, trace=trace, scale=workloads.TINY)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert result["metrics"]["margin_min"]["value"] >= 1.0


def _build(name, tmp_path, scale):
    return workloads.WORKLOADS[name](PM, tmp_path, 5, scale)


def test_gate_counts_halved_threshold_as_failed(tmp_path):
    op = _build("verify-small", tmp_path, workloads.TINY).ops[0]
    assert op.argv[0] == "gap2"

    def corrupting_main(argv):
        status = PM.cli.main(argv)
        out = Path(argv[argv.index("--out") + 1])
        row = workloads.read_row(out)
        row["threshold"] = repr(float(row["threshold"]) / 2.0)
        out.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")
        return status

    runner = run.Runner(PM, tmp_path)
    runner.run_op(op)
    assert (runner.attempted, runner.failed) == (1, 0)
    runner.pm = types.SimpleNamespace(cli=types.SimpleNamespace(main=corrupting_main))
    runner.run_op(op)
    assert (runner.attempted, runner.failed) == (2, 1)


def test_gate_allows_rounding_when_every_trial_earns_the_same():
    inst = PM.instance_io.gen_instance(3, 1, "discrete", 0)
    policy = PM.policy_eval.ThresholdPolicy([inst.dists[0]], 0.0)
    exact = PM.policy_eval.evaluate(policy).expected_reward
    check = workloads.check_simulate(PM, inst, [0], 10)
    row = {"trials": "10", "threshold": "0.0", "stderr": "1e-18"}
    check({**row, "mean_reward": repr(exact * (1 + 4e-16))})
    with pytest.raises(workloads.CheckFailed):
        check({**row, "mean_reward": repr(exact * (1 + 1e-6))})


def test_tracer_marks_a_removed_function_absent(monkeypatch):
    monkeypatch.delattr(PM.policy_eval, "bernoulli_count_pmf")
    summary = Tracer().summary()
    assert "policy_eval.bernoulli_count_pmf.self_s" not in summary
    assert summary["policy_eval.evaluate.calls"] == 0


def _trace_twice(op, tmp_path):
    runs = []
    for _ in range(2):
        tracer = Tracer()
        run.Runner(PM, tmp_path).run_op(op, tracer)
        runs.append(tracer)
    counts = [{k: v for k, v in t.summary().items() if not k.endswith("_s")} for t in runs]
    assert counts[0] == counts[1]
    return runs[0], counts[0]


def test_traced_large_ops_match_the_baseline(tmp_path):
    """A gap2-discrete-large op and a gapcont-large op: exact repeat, baseline magnitudes.

    Baseline (2-CPU machine, Python 3.11): about 54 ms per envelope at n = 10^4
    and about 49 envelopes and 610k g_value calls per discrete gap2 op;
    61 envelopes per gap-cont op on a mixed file; the O(k^2) Bernoulli-count
    convolution took 2.46 s on 5000 entries, so about 0.39 s on 2000.  Times
    must lie within a factor of ten of those.
    """
    op = _build("gap2-discrete-large", tmp_path, workloads.FULL).ops[0]  # k = 1000
    tracer, counts = _trace_twice(op, tmp_path)
    assert 40 <= counts["minmax.h_max.calls"] <= 60
    assert 500_000 <= counts["distributions.g_value.calls"] <= 700_000
    assert counts["minmax.rho.calls"] == 2  # bound into gap2 by `from .minmax import rho`
    per_envelope = tracer.inclusive_s("minmax.h_max") / counts["minmax.h_max.calls"]
    assert 0.0054 <= per_envelope <= 0.54

    op = _build("gapcont-large", tmp_path, workloads.FULL).ops[0]  # mixed, k = 2000
    tracer, counts = _trace_twice(op, tmp_path)
    assert 55 <= counts["minmax.h_max.calls"] <= 70
    assert counts["gap2.tie_class_at.calls"] == 1  # bound into gap_continuous
    assert counts["policy_eval.evaluate.entries"] == 2000 * counts["policy_eval.evaluate.calls"]
    per_pmf = (tracer.inclusive_s("policy_eval.bernoulli_count_pmf")
               / counts["policy_eval.evaluate.calls"])
    assert 0.039 <= per_pmf <= 3.9
