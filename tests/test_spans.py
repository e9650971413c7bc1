"""The benchmark's tracer still finds every name it wraps.

``benchmarks/spans.py`` patches package functions by module and name
(``egt.training.cosine_explain``, ``egt.model.cosine_scores``, ...).  A
renamed or removed name makes ``Tracer.install`` raise, so this test
fails in the tier-1 suite instead of only in the benchmark's own smoke
test.  The tracer module is loaded from its file without writing
bytecode next to it.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import egt.model
import egt.training
from egt.data import LabeledImageSet, sample_episode

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("egt_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_and_uninstall_restores(spans):
    tracer = spans.Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert patches
        for owner, attr, _, original in patches:
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, own, original in patches:
        if own:
            assert vars(owner)[attr] is original, (owner, attr)
        else:
            assert attr not in vars(owner) and getattr(owner, attr) is original, (owner, attr)


def test_traced_episode_and_explanation_reach_every_rule(spans):
    # A rule dispatch that bypassed the module globals the tracer wraps
    # would leave these spans at zero calls.
    rng = np.random.default_rng(0)
    data = LabeledImageSet(rng.uniform(size=(24, 1, 8, 8)).astype(np.float32),
                           np.repeat(np.arange(4, dtype=np.int32), 6), domain_tag="toy")
    episode = sample_episode(data, 3, 2, 4, rng)
    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.phase = "test"
        relation = egt.model.build_model("relation", (1, 8, 8), rng, widths=(2,), hidden=4)
        egt.training.train_episode(relation, episode, egt.training.TrainConfig(
            way=3, shot=2, n_query=4))
        cosine = egt.model.build_model("cosine", (1, 8, 8), rng, widths=(2,))
        egt.model.explain_input(cosine, episode.support_images, episode.support_local,
                                3, episode.query_images[0])
    finally:
        tracer.uninstall()
    for name in ("lrp.backward", "lrp.alpha", "lrp.epsilon", "lrp.passthrough",
                 "heads.cosine_explain"):
        assert tracer.calls["test", name] > 0, name
    assert tracer.counts["test", "tensornet.conv2d.grad_input_calls"] > 0


def test_traced_cosine_episode_keeps_its_layer_attribution(spans):
    # The recorded pass still runs through ``Layer.forward``, which the
    # tracer wraps, and the gradient pass reuses the kept unrolls: no
    # max-pool window stack (pools reduce their taps) and two conv input
    # pull-backs (none for the encoder's first conv, whose input gradient
    # is unused).
    rng = np.random.default_rng(1)
    data = LabeledImageSet(rng.uniform(size=(24, 1, 8, 8)).astype(np.float32),
                           np.repeat(np.arange(4, dtype=np.int32), 6), domain_tag="toy")
    episode = sample_episode(data, 3, 2, 4, rng)
    model = egt.model.build_model("cosine", (1, 8, 8), rng)  # widths 8/16/32
    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.phase = "test"
        egt.training.train_episode(model, episode, egt.training.TrainConfig(
            way=3, shot=2, n_query=4, xi=0.0))
    finally:
        tracer.uninstall()
    for name in ("tensornet.conv2d.forward", "tensornet.maxpool2d.forward",
                 "tensornet.conv2d.backward", "tensornet.maxpool2d.backward"):
        assert tracer.calls["test", name] > 0, name
    assert tracer.calls["test", "tensornet.conv2d.backward"] == 3
    assert tracer.counts["test", "tensornet.maxpool2d.windows_calls"] == 0
    assert tracer.counts["test", "tensornet.conv2d.grad_input_calls"] == 2
