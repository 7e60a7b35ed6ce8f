"""Golden outputs: the constructions reproduce a committed snapshot bit for bit.

``tests/data/golden.json`` holds, for seeded ``gen_instance`` instances of
all four families: the ``gap2`` sets, root thresholds, ``u_star`` and search
steps; the continuous pipeline's inspection order, rewards and ``alpha``;
the five ``evaluate`` statistics (of the ``gap2`` policy for discrete
instances, of the continuous policy otherwise); and the exact oracles for
discrete instances with n <= 11.  Floats are stored as ``float.hex``, so a change in
any last bit fails, and the first ten seeds of each family are rerun in a
child process with AVX-512 dispatch off and in one that runs another
OpenBLAS kernel.  A change that is meant to move outputs regenerates the
snapshot with

    PYTHONPATH=src python tests/test_golden.py
"""

import ctypes
import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest

from probemax import (
    ThresholdPolicy,
    adaptive_optimum_dp,
    evaluate,
    expected_max_exact_discrete,
    gen_instance,
    select_gap2_set,
    solve_continuous,
    static_optimum_enum,
)
from test_packed import NO_AVX512, has_x86_v4, run_child

SNAPSHOT = Path(__file__).parent / "data" / "golden.json"

#: (family, seed count, largest n); seeds run from 0, n and k are seeded.
PLAN = (("discrete", 60, 11), ("uniform", 30, 25), ("exponential", 30, 25), ("mixed", 30, 25))

CASES = [(family, seed, n_max) for family, count, n_max in PLAN for seed in range(count)]


def _enc(x):
    """JSON form: floats as float.hex, sequences as lists."""
    if isinstance(x, dict):
        return {k: _enc(v) for k, v in x.items()}
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return [_enc(v) for v in x]
    return x


def _stats(stats):
    return [stats.expected_reward, stats.expected_b, stats.prob_stop,
            stats.expected_sum, stats.expected_excess]


def golden_record(family: str, seed: int, n_max: int) -> dict:
    """Every compared output for one seeded instance, JSON-encoded."""
    rng = np.random.default_rng(10_000 + seed)
    n = int(rng.integers(2, n_max + 1))
    k = int(rng.integers(1, n + 1))
    inst = gen_instance(n, k, family, seed)
    res = select_gap2_set(inst)
    rec = {
        "n": n, "k": k,
        "gap2": [res.s_tilde_plus, res.s_tilde_minus, res.chosen, res.rho_plus,
                 res.rho_minus, res.bound.u_star, res.bound.iterations],
    }
    if family == "discrete":
        policy = ThresholdPolicy([inst.dists[i] for i in res.chosen], res.threshold)
        rec["stats"] = _stats(evaluate(policy))
        s_star, s_set = static_optimum_enum(inst)
        rec["exact"] = [adaptive_optimum_dp(inst), s_star, s_set,
                        expected_max_exact_discrete(inst.dists, res.chosen)]
    else:
        cont = solve_continuous(inst)
        sol = cont.solution
        rec["stats"] = _stats(cont.stats)
        rec["cont"] = [cont.bound.r_hat, cont.bound.u_star, sol.alpha, sol.frac_pair,
                       cont.derandomized_order, cont.derandomized_reward]
    return _enc(rec)


def _key(family: str, seed: int) -> str:
    return f"{family}-{seed}"


@pytest.fixture(scope="module")
def snapshot():
    return json.loads(SNAPSHOT.read_text())


@pytest.mark.parametrize("family,seed,n_max", CASES, ids=[_key(f, s) for f, s, _ in CASES])
def test_matches_snapshot(snapshot, family, seed, n_max):
    assert golden_record(family, seed, n_max) == snapshot[_key(family, seed)]


def test_snapshot_covers_exactly_the_cases(snapshot):
    assert sorted(snapshot) == sorted(_key(f, s) for f, s, _ in CASES)


def openblas_corename() -> str | None:
    """The OpenBLAS kernel numpy runs on an x86-64 host, or None.

    None unless numpy loads the scipy-openblas library its wheel bundles,
    whose DYNAMIC_ARCH build picks a kernel per CPU unless
    OPENBLAS_CORETYPE names one.
    """
    libs = list((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if platform.machine() != "x86_64" or len(libs) != 1:
        return None
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    return corename().decode()


# Recomputes the records of the first ten seeds of each family as JSON.
CHILD = """
import json, sys
from numpy._core._multiarray_umath import __cpu_features__
from test_golden import CASES, _key, golden_record, openblas_corename

records = {_key(f, s): golden_record(f, s, n) for f, s, n in CASES if s < 10}
json.dump({"x86_v4": bool(__cpu_features__.get("X86_V4")), "corename": openblas_corename(),
           "records": records}, sys.stdout)
"""


@pytest.mark.skipif(not has_x86_v4(), reason="host has no X86_V4 (AVX-512) dispatch to turn off")
def test_snapshot_slice_does_not_depend_on_simd_dispatch(snapshot):
    """The snapshot holds with AVX-512 dispatch off, in a child process.

    The slice runs every pipeline, the scalar discrete oracles of evaluate
    and the exact oracles included.
    """
    child = run_child({"NPY_DISABLE_CPU_FEATURES": NO_AVX512}, CHILD)
    assert not child["x86_v4"]
    assert len(child["records"]) == 40
    assert child["records"] == {key: snapshot[key] for key in child["records"]}


@pytest.mark.skipif(openblas_corename() is None,
                    reason="numpy runs no scipy-openblas kernel on an x86-64 host")
def test_snapshot_slice_does_not_depend_on_the_blas_kernel(snapshot):
    """The snapshot holds under another OpenBLAS kernel, in a child process.

    The child runs the Prescott kernel, or Haswell when this process
    already runs Prescott.  The library makes no BLAS call; this checks
    that none creeps in.
    """
    prescott = os.environ.get("OPENBLAS_CORETYPE", "").lower() == "prescott"
    child = run_child({"OPENBLAS_CORETYPE": "Haswell" if prescott else "Prescott"}, CHILD)
    assert child["corename"] != openblas_corename()
    assert len(child["records"]) == 40
    assert child["records"] == {key: snapshot[key] for key in child["records"]}


if __name__ == "__main__":
    records = {_key(f, s): golden_record(f, s, n) for f, s, n in CASES}
    SNAPSHOT.parent.mkdir(exist_ok=True)
    lines = ",\n".join(f"{json.dumps(key)}: {json.dumps(rec, separators=(',', ':'))}"
                       for key, rec in records.items())
    SNAPSHOT.write_text("{\n" + lines + "\n}\n")
