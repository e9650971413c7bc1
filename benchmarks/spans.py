"""Per-layer tracing for the egt benchmark.

The tracer wraps calls into the package's modules from outside: each
wrapper replaces the attribute its caller looks up (a method on a class,
or a function in the namespace of the module that imported it), and
``uninstall`` puts the originals back, so nothing under ``src/`` changes
and an untraced run pays nothing.

Spans nest through a stack.  A span's self time is its duration minus
the time covered by the spans it caused; self time, inclusive time,
calls and counters are summed per (phase, name).  The benchmark names
the phase: the kind of operation being timed (a training episode, an
eval episode, an explained query) or ``setup``; spans opened while the
phase is ``None`` are dropped.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

import egt.data
import egt.evaluation
import egt.heads
import egt.heatmap
import egt.lrp
import egt.model
import egt.tensornet as tn
import egt.training

_LAYER_KINDS = ((tn.Conv2d, "conv2d"), (tn.MaxPool2d, "maxpool2d"),
                (tn.AvgPool2d, "avgpool2d"), (tn.Linear, "linear"),
                (tn.ReLU, "relu"))


def _rows(x) -> int:
    """Leading batch size of a network input, 1 for a single sample."""
    return int(np.shape(x)[0])


def _network_rows(net, x) -> int:
    return _rows(x) if np.ndim(x) == len(net.input_shape) + 1 else 1


def _encoded_images(model, images) -> int:
    return _rows(images) if np.ndim(images) == 4 else 1


def _lrp_rows(net, trace, output_relevance, cfg=None) -> tuple[int, int]:
    """(rows propagated, rows that carry any nonzero relevance)."""
    rows = trace.entries[-1].output.shape[0]
    rel = np.asarray(output_relevance).reshape(rows, -1)
    return rows, int(np.count_nonzero(rel.any(axis=1)))


class Tracer:
    def __init__(self) -> None:
        self.phase: str | None = None
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.calls: defaultdict = defaultdict(int)
        self.counts: defaultdict = defaultdict(float)
        self._stack: list[list[float]] = []
        self._patches: list[tuple] = []

    # -- wrappers -------------------------------------------------------

    def _count(self, name: str, amount) -> None:
        if self.phase is not None:
            self.counts[self.phase, name] += amount

    def _span(self, name: str, fn, counters=None):
        def wrapped(*args, **kwargs):
            if counters is not None and self.phase is not None:
                for cname, amount in counters(*args, **kwargs):
                    self.counts[self.phase, cname] += amount
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dur
                if self.phase is not None:
                    key = (self.phase, name)
                    self.self_s[key] += dur - frame[0]
                    self.incl_s[key] += dur
                    self.calls[key] += 1
        return wrapped

    def _counter(self, name: str, fn, amount):
        def wrapped(*args, **kwargs):
            self._count(name, amount(*args, **kwargs))
            return fn(*args, **kwargs)
        return wrapped

    # -- installation ---------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._patches.append((owner, attr, own, original))
        setattr(owner, attr, make(original))

    def _spans(self, owners, attr: str, name: str, counters=None) -> None:
        for owner in owners:
            self._patch(owner, attr, lambda fn: self._span(name, fn, counters))

    def install(self) -> None:
        """Wrap every traced call; the patch table is the list of layers."""
        for cls, kind in _LAYER_KINDS:
            self._spans([cls], "forward", f"tensornet.{kind}.forward")
            self._spans([cls], "backward", f"tensornet.{kind}.backward")
        self._patch(tn.Conv2d, "grad_input", lambda fn: self._counter(
            "tensornet.conv2d.grad_input_calls", fn, lambda *a, **k: 1))
        self._patch(tn.MaxPool2d, "windows", lambda fn: self._counter(
            "tensornet.maxpool2d.windows_calls", fn, lambda *a, **k: 1))
        for attr in ("forward", "forward_recorded"):
            self._patch(tn.Network, attr, lambda fn: self._counter(
                "tensornet.rows_forward", fn, _network_rows))
        self._spans([egt.training], "sgd_step", "tensornet.sgd_step")

        def lrp_counters(*args, **kwargs):
            rows, relevant = _lrp_rows(*args, **kwargs)
            return (("lrp.backward_calls", 1), ("lrp.rows_propagated", rows),
                    ("lrp.rows_relevant", relevant))
        self._spans([egt.heads, egt.model, egt.training], "lrp_backward",
                    "lrp.backward", lrp_counters)
        self._spans([egt.lrp], "lrp_alpha", "lrp.alpha")
        self._spans([egt.lrp], "lrp_epsilon", "lrp.epsilon")
        self._spans([egt.lrp], "lrp_passthrough", "lrp.passthrough")

        self._spans([egt.model, egt.training, egt.evaluation],
                    "class_prototypes", "heads.class_prototypes")
        self._spans([egt.heads, egt.model, egt.training], "cosine_scores",
                    "heads.cosine_scores")
        self._spans([egt.heads, egt.training], "cosine_explain",
                    "heads.cosine_explain")
        self._spans([egt.model], "lrp_through_head", "heads.lrp_through_head")

        def encode_counters(model, images):
            return (("model.images_encoded", _encoded_images(model, images)),)
        for attr in ("encode", "encode_recorded"):
            self._spans([egt.model.FewShotModel], attr, "model.encode",
                        encode_counters)
        self._spans([egt.model], "explain_input", "model.explain_input")
        self._spans([egt.model], "load_model", "model.load_model")

        self._spans([egt.training], "train_episode", "training.episode")
        self._spans([egt.evaluation], "evaluate", "evaluation.evaluate")
        self._spans([egt.evaluation], "episode_accuracy",
                    "evaluation.episode_accuracy")
        self._spans([egt.data, egt.evaluation], "sample_episode",
                    "data.sample_episode")
        self._spans([egt.data], "gen_synthetic_domains",
                    "data.gen_synthetic_domains")
        self._spans([egt.data], "load_dataset", "data.load_dataset")
        self._spans([egt.heatmap], "render_heatmap", "heatmap.render")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- results --------------------------------------------------------

    def layer_metrics(self, ops: dict[str, int], setups: int,
                      overhead: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``.

        Time and counts are per operation: a phase's total divided by
        the operations it ran, summed over the phases in ``ops``.  On a
        workload with two kinds of operation that is the cost of one of
        each.  Set-up spans are per set-up.
        """
        def per_op(table, name):
            return sum(table[phase, name] / n for phase, n in ops.items() if n)

        def ms(name):
            return per_op(self.self_s, name) * 1e3

        m: dict[str, tuple[float, str]] = {}
        for _, kind in _LAYER_KINDS:
            for direction in ("forward", "backward"):
                name = f"tensornet.{kind}.{direction}"
                m[name + "_ms"] = (ms(name), "ms")
        for name in ("tensornet.conv2d.grad_input_calls",
                     "tensornet.maxpool2d.windows_calls",
                     "tensornet.rows_forward"):
            m[name] = (per_op(self.counts, name), "count")
        m["tensornet.sgd_step_ms"] = (ms("tensornet.sgd_step"), "ms")

        m["lrp.backward_ms"] = (ms("lrp.backward"), "ms")
        for rule in ("alpha", "epsilon", "passthrough"):
            m[f"lrp.{rule}_ms"] = (ms(f"lrp.{rule}"), "ms")
        for name in ("lrp.backward_calls", "lrp.rows_propagated",
                     "lrp.rows_relevant"):
            m[name] = (per_op(self.counts, name), "count")
        propagated = m["lrp.rows_propagated"][0]
        m["lrp.useful_row_frac"] = (
            m["lrp.rows_relevant"][0] / propagated if propagated else 0.0, "frac")

        for name in ("class_prototypes", "cosine_scores", "cosine_explain",
                     "lrp_through_head"):
            m[f"heads.{name}_ms"] = (ms(f"heads.{name}"), "ms")

        m["model.encode_ms"] = (ms("model.encode"), "ms")
        m["model.images_encoded"] = (per_op(self.counts, "model.images_encoded"),
                                     "count")
        m["model.explain_input_ms"] = (ms("model.explain_input"), "ms")
        m["training.episode_self_ms"] = (ms("training.episode"), "ms")

        evaluate_calls = self.calls["eval", "evaluation.evaluate"]
        m["evaluation.evaluate_s"] = (
            self.incl_s["eval", "evaluation.evaluate"] / evaluate_calls
            if evaluate_calls else 0.0, "s")
        m["evaluation.episode_accuracy_ms"] = (ms("evaluation.episode_accuracy"), "ms")
        eval_eps = ops.get("eval", 0)
        m["evaluation.images_encoded_per_episode"] = (
            self.counts["eval", "model.images_encoded"] / eval_eps
            if eval_eps else 0.0, "count")
        m["data.sample_episode_ms"] = (ms("data.sample_episode"), "ms")
        m["heatmap.render_ms"] = (ms("heatmap.render"), "ms")

        def per_setup(name, scale):
            return self.self_s["setup", name] / setups * scale
        m["data.gen_synthetic_domains_s"] = (
            per_setup("data.gen_synthetic_domains", 1.0), "s")
        m["data.load_dataset_ms"] = (per_setup("data.load_dataset", 1e3), "ms")
        m["model.load_model_ms"] = (per_setup("model.load_model", 1e3), "ms")
        m["trace_overhead_frac"] = (overhead, "frac")
        return m
