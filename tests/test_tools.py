"""The timing and fingerprint harnesses under ``tools/`` still run.

``tools/eval_bench.py`` imports the ``infer`` shapes from
``benchmarks/bench.py`` and the tracer from ``benchmarks/spans.py``;
``tools/layer_bench.py`` imports private names of the tensor stack;
``tools/gate_bench.py`` imports the gate's schedule from
``tests/test_acceptance.py``; ``tools/fingerprint.py`` runs a fixed chain
of ``egt`` commands.  No other test runs them, so a rename in the
package or the benchmark, or a changed flag, would break them unnoticed.  Each tool is loaded from its file without writing
bytecode, and ``os.environ``, ``sys.path`` and the modules it imports
from ``benchmarks/`` are put back afterwards.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from egt.model import build_encoder

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = str(ROOT / "benchmarks")


@pytest.fixture()
def load_tool(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    env, path, modules = dict(os.environ), list(sys.path), set(sys.modules)

    def load(name):
        spec = importlib.util.spec_from_file_location(f"egt_tool_{name}",
                                                      ROOT / "tools" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    try:
        yield load
    finally:
        for key in os.environ.keys() - env.keys():
            del os.environ[key]
        os.environ.update(env)
        sys.path[:] = path
        for name in sys.modules.keys() - modules:
            if str(getattr(sys.modules[name], "__file__", "")).startswith(BENCHMARKS):
                del sys.modules[name]


def test_eval_bench_runs(load_tool, tmp_path):
    # Every stage reads time in every sample: a span that ``evaluate`` no
    # longer calls would read 0 and leave its time in ``other``.
    out = tmp_path / "BENCH_eval.json"
    eval_bench = load_tool("eval_bench")
    assert eval_bench.main(["--repeats", "2", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["repeats"] == 2
    assert set(eval_bench.STAGES) == {"sampling", "encoding", "scoring"}
    for stage in ("total", "split", *eval_bench.STAGES):
        assert result["us_per_episode"][stage]["q1"] > 0, stage


def test_gate_bench_smoke(load_tool, tmp_path):
    out = tmp_path / "BENCH_gate.json"
    gate_bench = load_tool("gate_bench")
    assert gate_bench.main(["--smoke", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["seed"] == 0 and result["smoke"] is True
    for mode in ("baseline", "egt"):
        run = result[mode]
        assert run["train_episodes"] == 3 and 0 <= run["acc"] <= 1
        assert set(run["stages"]) == {"train", "eval", "spread"}
        for stage in run["stages"].values():
            assert stage["wall_s"] > 0 and stage["minor_faults"] >= 0
            assert stage["user_s"] >= 0 and stage["sys_s"] >= 0


def test_layer_bench_times_every_encoder_layer(load_tool):
    layer_bench = load_tool("layer_bench")
    rng = np.random.default_rng(0)
    encoder = build_encoder((3, 16, 16), rng, (8, 16, 32))
    rows = layer_bench.layer_rows("encoder", encoder, rng.uniform(size=(41, 3, 16, 16)),
                                  2, rng)
    assert [row["kind"] for row in rows] == [layer.kind for layer in encoder.layers]
    for row in rows:
        for key in ("forward_ms", "recorded_ms", "backward_ms", "lrp_ms"):
            assert row[key]["median"] > 0


def test_layer_bench_times_the_relation_head(load_tool):
    layer_bench = load_tool("layer_bench")
    rows = layer_bench.relation_head_rows(2, np.random.default_rng(0))
    assert [row["op"] for row in rows] == ["scores", "scores_weighted",
                                           "lrp_through_head", "backward"]
    for row in rows:
        assert (row["queries"], row["classes"]) == (16, 5)
        assert row["ms"]["q1"] > 0, row["op"]


def test_fingerprint_chain_runs(load_tool, tmp_path):
    fingerprint = load_tool("fingerprint")
    entries = fingerprint.chain(str(tmp_path))
    steps = [*fingerprint.CHAIN, "help", *(f"help-{cmd}" for cmd in fingerprint.COMMANDS)]
    assert {name: entries[f"exit/{name}"] for name in steps} == dict.fromkeys(steps, "0")
    for name in steps:
        assert f"stdout/{name}" in entries and f"stderr/{name}" in entries
    for path in ("gen-data/noisy.egtd", "gen-data-outline/bright.egtd",
                 "gen-data-outline/stripe.egtd", "train-cosine/model.egt1",
                 "train-relation/model.egt1", "train-relation-egt/model.egt1",
                 "train-relation-egt/train_log.csv",
                 "eval-cosine/eval_dark.csv", "eval-cosine/eval_noisy.csv",
                 "eval-relation-transductive/eval_noisy.csv", "explain-relation/query0_class2.npy",
                 "stats-cosine/stats_noisy_summary.csv"):
        assert len(entries[f"file/{path}"]) == 64, path
