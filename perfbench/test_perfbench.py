"""Tests of the benchmark itself (not collected by the package's suite).

    PYTHONPATH=src python3 -m pytest -q perfbench

The smoke mode runs two steps per workload through the same launcher,
workload process, gate and tracer as a full run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import flows  # noqa: E402
import workloads  # noqa: E402

from wentzellflow import expressions as ex  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
NAMES = [w["name"] for w in BENCH["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench",
                                                        "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_workload_names_agree():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_meets_output_contract(name, trace):
    out = bench("--workload", name, "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == (2 if trace == 0 else 4)
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_package_source(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for f in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, f)):
            shutil.copy(os.path.join(HERE, f), tmp_path / "perfbench")
    out = bench("--workload", "tv-2d", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert out.returncode != 0
    assert "{" not in out.stdout


def test_default_seed_is_unperturbed_and_seeds_repeat():
    base = workloads.build("tv-2d", workloads.DEFAULT_SEED, smoke=True)
    assert np.array_equal(base.initial_field(), base.y0_base)
    one = workloads.build("tv-2d", 1, smoke=True).initial_field()
    again = workloads.build("tv-2d", 1, smoke=True).initial_field()
    assert np.array_equal(one, again)
    assert 0 < np.max(np.abs(one - base.y0_base)) < 1e-3


def test_cli_initial_expression_matches_flow_perturbation():
    case = workloads.build("cli-sources-1d", 3, smoke=True)
    y0 = ex.make_initial(case.cfg.sources["y0"], 1)(case.grid.nodes)
    assert np.allclose(y0, case.initial_field(), rtol=0, atol=1e-15)


def test_tail_percentile_leaves_ten_steps_beyond():
    assert flows.tail_percentile(40) == 75
    assert flows.tail_percentile(100) == 90
    assert flows.tail_percentile(500) == 98
    assert flows.tail_percentile(2) == 100
    for n in (11, 40, 100, 500):
        x = np.arange(n, dtype=float)
        assert np.sum(x > np.percentile(x, flows.tail_percentile(n))) >= 10


def test_solver_counts_split_newton_and_dual_stages():
    logs = [[{"iters": 3}, {"iters": 200, "rescue": "dual"}],
            [{"iters": 50, "pd_gap": 0.0}]]
    assert flows.solver_counts(logs) == {
        "stages": 3, "newton_iters": 3, "rescues": 1, "dual_iters": 250}


def test_compare_refuses_different_fingerprints(tmp_path):
    rec = {"workload": "tv-2d", "seed": 1, "trace": 0, "correct": True,
           "failed": 0, "counts": {}, "tail": {}, "metrics": {},
           "fingerprint": {"numpy": "1"}}
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text(json.dumps(rec) + "\n")
    b.write_text(json.dumps(dict(rec, fingerprint={"numpy": "2"})) + "\n")
    assert compare.main([str(a), str(b)]) == 2
