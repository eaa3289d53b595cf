"""Checks of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

Each traced run is repeated with the same seed and the exact counts must
agree bit for bit; the untraced run must print every end-to-end metric that
BENCHMARK.json names; and without the package source the benchmark must exit
non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_match_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(tracing.EXACT) <= {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    wl = workloads.WORKLOADS[name]
    a, b, c = wl.make_pool(5), wl.make_pool(5), wl.make_pool(6)

    def key(pool):
        return [(i.argv, i.want, [m.tobytes() for m in (i.rep.matrices if i.rep else ())]) for i in pool]

    assert key(a) == key(b)
    assert key(a) != key(c)
    for inst in a:
        assert inst.entries > 0 and max(inst.dims) > 0


def test_untraced_run_prints_every_end_to_end_metric():
    res = _result(_run("--workload", "cycle-wide", "--seed", "2", "--seconds", "1", "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == want
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    args = ("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1")
    first, second = _result(_run(*args)), _result(_run(*args))
    assert first["correct"] and second["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in first["metrics"].items()} == want
    for key in tracing.EXACT:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
    assert first["metrics"]["linalg.lapack_svd.calls"]["value"] > 0


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "chain-sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_leaves_ten_samples_above():
    import run

    times = list(np.linspace(1.0, 2.0, 40))
    value, pct = run.tail(times)
    assert sum(t > value for t in times) == 10 and pct == 75.0
