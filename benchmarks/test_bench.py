"""Smoke test of the benchmark in its fast mode.

Run from the repository root:  python3 -m pytest benchmarks/test_bench.py
"""

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-cosine", "train-relation", "infer")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("benchmarks", "bench.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
         "--fast"], cwd=cwd, capture_output=True, text=True, timeout=300)


@functools.lru_cache(maxsize=None)
def _run(workload: str, trace: int) -> tuple[dict, str]:
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_printed_with_unit(workload, trace):
    res, text = _run(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in res["metrics"].items()}
    for m in declared:
        assert any(line.split()[:1] == [m["name"]] and f" {m['unit']} " in line
                   for line in text.splitlines()), m["name"]
        assert isinstance(res["metrics"][m["name"]]["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counts(workload):
    res, _ = _run(workload, 1)
    m = {name: v["value"] for name, v in res["metrics"].items()}
    lrp = {name: v for name, v in m.items() if name.startswith("lrp.")}
    if workload == "train-cosine":
        assert all(v == 0 for v in lrp.values()), lrp
        assert m["model.images_encoded"] == 41
    elif workload == "train-relation":
        assert m["lrp.backward_calls"] == 1
        assert m["lrp.rows_propagated"] == 80 and m["lrp.rows_relevant"] == 16
        assert m["lrp.useful_row_frac"] == pytest.approx(0.2)
    else:
        assert m["evaluation.images_encoded_per_episode"] == 41
        assert m["heatmap.render_ms"] > 0 and m["model.load_model_ms"] > 0


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(str(tmp_path), "train-cosine", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
