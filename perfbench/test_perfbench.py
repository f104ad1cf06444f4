"""Self-tests of the benchmark harness at the tiny size.

    python3 -m pytest -q perfbench

Each run is a real run.py invocation (fresh processes, as in the
benchmark), so these take a few seconds each.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402

WORKLOADS = sorted(inputs.GENERATORS)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


def tiny(workload, *extra, trace=0):
    return bench("--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", str(trace), "--size", "tiny", *extra)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_with_its_unit(workload):
    result = last_json(tiny(workload))
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failure(workload):
    result = last_json(tiny(workload, "--corrupt"))
    assert result["failed"] >= 1
    assert not result["correct"]


def test_every_per_layer_metric_with_its_unit():
    result = last_json(tiny("e1_sweep", trace=1))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    values = {name: m["value"] for name, m in result["metrics"].items()}
    # the bypass case of every linear-algebra change
    assert values["homalg.snf.calls"] == 0
    assert values["slices.e1_kq_basis.calls"] > 0
    assert values["rules.d1_matrix.nnz"] <= values["rules.d1_matrix.cells"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "e1_sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    assert inputs.generate(workload, 3) == inputs.generate(workload, 3)
    assert inputs.generate(workload, 3) != inputs.generate(workload, 4)
