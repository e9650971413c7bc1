#!/usr/bin/env python3
"""Per-layer timings of the egt tensor stack, and the fold layout sweep.

Usage (from the repository root):

    python3 tools/layer_bench.py [--out BENCH_layers.json] [--repeats 15]

Part 1, ``layers``: forward, recorded forward (``layer.forward(x, {})``,
which keeps what ``backward`` reuses, as a recording pass runs it),
backward and relevance-rule time of every layer of two networks, each
on its own recorded input.  The backward and the rule run on the
layer's entry of one recorded pass, so they reuse what it kept (a
convolution's columns) as training and explanation do:

* the encoder at the acceptance gate's shapes: batch 41 (5-way 5-shot
  plus 16 queries), 3x16x16 images, widths 8/16/32;
* the relation net at its pair shape: 80 rows (16 queries x 5 classes)
  of 64 channels x 2x2, hidden 64.

Part 2, ``relation_head``: the relation head's own operations at the
gate's episode, 16 queries x 5 classes of 32x2x2 maps (widths 8/16/32),
hidden 64: ``head.scores`` plain and re-weighted (they build the first
convolution's columns from the prototype and query unrolls, which the
per-layer table, timing ``relation.0`` on ready-made pair rows, cannot
show), ``lrp_through_head`` on the plain pass, and ``head.backward`` over
both passes, as a training episode runs them.

Part 3, ``sweep``: ``_fold`` (of one part per window index, as the
conv's input pull-back hands them) and ``Conv2d.grad_input`` (a C -> C
3x3 conv with padding 1 on a square ``ow x ow`` map) over output width
``ow`` x B*C, once in each memory layout of the fold's accumulator.  The
layout is forced by setting the range ``egt.tensornet._SPATIAL_MAJOR_OW``
for the duration of a cell; each cell reports the spatial-major /
channel-major ratio of the medians.  This sweep is what sets that range.
The range sets the fold's layout only: the unroll (``_windows``) works
channel-major at every width.

Every timing is the median over ``--repeats`` samples, with the first and
third quartiles, in ms per call; one sample averages enough calls to last
at least 5 ms, and the sweep alternates the two layouts sample by sample.
The summary prints each median with "±" half its interquartile range:
the spread within one run, not between runs.  The medians of identical
code have moved by up to about 40% from one run to the next (on 2 shared
x86-64 CPUs), so to compare two trees, run this tool on each in
alternating processes, several times, and compare the medians across
runs.  BLAS is pinned to one thread before numpy loads.  The result is
written as JSON to ``--out`` and summarised on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from egt import lrp, tensornet  # noqa: E402
from egt.heads import RelationHead, lrp_through_head  # noqa: E402
from egt.lrp import LrpConfig  # noqa: E402
from egt.model import build_encoder, build_relation_net  # noqa: E402
from egt.tensornet import Conv2d, _fold  # noqa: E402

SAMPLE_S = 0.005
SWEEP_OW = (1, 2, 4, 5, 8, 16)
SWEEP_BC = ((1, 1), (4, 4), (8, 8), (16, 16), (40, 32), (80, 64))
SWEEP_MAX_ELEMENTS = 80 * 64 * 8 * 8  # skips (80x64, ow 16): 94 MB of window parts
LAYOUTS = {"channel": range(0), "spatial": range(1, 1 << 30)}


def calls_per_sample(fn) -> int:
    """Calls of ``fn`` that last at least ``SAMPLE_S``, after one warm-up call."""
    fn()
    start, calls = time.perf_counter(), 0
    while time.perf_counter() - start < SAMPLE_S:
        fn()
        calls += 1
    return calls


def sample_ms(fn, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) * 1e3 / calls


def stats(samples: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def timed(fn, repeats: int) -> dict[str, float]:
    """Median and quartiles of ``fn``'s time per call, in ms."""
    calls = calls_per_sample(fn)
    return stats([sample_ms(fn, calls) for _ in range(repeats)])


def layer_rows(name: str, net, x, repeats: int, rng) -> list[dict]:
    """Time each layer of ``net`` on its input from one recorded pass of ``x``."""
    _, trace = net.forward_recorded(x)
    cfg, rows = LrpConfig(), []
    for i, (layer, entry) in enumerate(zip(net.layers, trace.entries)):
        xin, y = entry.input, entry.output
        cot = rng.standard_normal(y.shape)
        rel = rng.uniform(size=y.shape)
        rows.append({
            "net": name, "index": i, "kind": layer.kind,
            "input": list(xin.shape), "output": list(y.shape),
            "forward_ms": timed(lambda: layer.forward(xin), repeats),
            "recorded_ms": timed(lambda: layer.forward(xin, {}), repeats),
            "backward_ms": timed(lambda: layer.backward(entry, cot), repeats),
            "lrp_ms": timed(lambda: lrp._apply_rule(layer, entry, rel, cfg), repeats),
        })
    return rows


def relation_head_rows(repeats: int, rng) -> list[dict]:
    """Time the relation head's scoring, relevance and gradient passes on one episode."""
    n, way = 16, 5
    head = RelationHead(build_relation_net((64, 2, 2), rng, hidden=64))
    # encoder maps are relu'd and average-pooled, so never negative
    protos, qs = rng.uniform(size=(way, 32, 2, 2)), rng.uniform(size=(n, 32, 2, 2))
    weights = rng.uniform(0.0, 2.0, size=(n, 64, 2, 2))
    scores, trace = head.scores(protos, qs)
    scores_w, trace_w = head.scores(protos, qs, weights)
    targets, grads = np.argmax(scores, axis=1), rng.standard_normal((n, way))
    passes = [(None, scores, trace, grads), (weights, scores_w, trace_w, grads)]
    ops = {
        "scores": lambda: head.scores(protos, qs),
        "scores_weighted": lambda: head.scores(protos, qs, weights),
        "lrp_through_head": lambda: lrp_through_head(head, protos, qs, trace, scores,
                                                     targets, LrpConfig()),
        "backward": lambda: head.backward(protos, qs, passes),
    }
    return [{"op": op, "queries": n, "classes": way, "ms": timed(fn, repeats)}
            for op, fn in ops.items()]


def sweep_cell(b: int, c: int, ow: int, repeats: int, rng) -> dict:
    """Both layouts of the fold on one ``(B, C, ow)`` cell."""
    conv = Conv2d(rng.standard_normal((c, c, 3, 3)), np.zeros(c), padding=1)
    parts = rng.standard_normal((b, c, 9, ow, ow)).transpose(2, 0, 1, 3, 4)
    cot = rng.standard_normal((b, c, ow, ow))
    ops = {
        "fold": lambda: _fold(parts, 3, 3, 1, ow, ow, 1),
        "grad_input": lambda: conv.grad_input(cot, (c, ow, ow)),
    }
    cell: dict = {"b": b, "c": c, "bc": b * c, "ow": ow}
    samples = {(layout, op): [] for layout in LAYOUTS for op in ops}
    kept = tensornet._SPATIAL_MAJOR_OW
    try:
        for op, fn in ops.items():
            calls = calls_per_sample(fn)
            for _ in range(repeats):  # the layouts alternate, so drift hits both
                for layout, widths in LAYOUTS.items():
                    tensornet._SPATIAL_MAJOR_OW = widths
                    samples[layout, op].append(sample_ms(fn, calls))
    finally:
        tensornet._SPATIAL_MAJOR_OW = kept
    for layout in LAYOUTS:
        cell[layout] = {op: stats(samples[layout, op]) for op in ops}
    cell["spatial_over_channel"] = {
        op: cell["spatial"][op]["median"] / cell["channel"][op]["median"] for op in ops}
    return cell


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default="BENCH_layers.json", help="result JSON path")
    ap.add_argument("--repeats", type=int, default=15, help="samples per timing (>= 2)")
    args = ap.parse_args(argv)
    if args.repeats < 2:
        ap.error("--repeats must be >= 2")
    rng = np.random.default_rng(0)

    encoder = build_encoder((3, 16, 16), rng, (8, 16, 32))
    relation = build_relation_net((64, 2, 2), rng, hidden=64)
    layers = (layer_rows("encoder", encoder, rng.uniform(size=(41, 3, 16, 16)), args.repeats, rng)
              + layer_rows("relation", relation, rng.uniform(size=(80, 64, 2, 2)),
                           args.repeats, rng))
    print("median ± half the interquartile range within this run, ms per call; medians\n"
          "of identical code move by up to about 40% between runs, so compare two trees\n"
          "in alternating processes")
    print(f"{'layer':<22}{'input':<18}{'forward ms':>16}{'recorded ms':>16}"
          f"{'backward ms':>16}{'lrp ms':>16}")
    for row in layers:
        cells = "".join(f"{row[k]['median']:>9.3f} ±{(row[k]['q3'] - row[k]['q1']) / 2:<6.3f}"
                        for k in ("forward_ms", "recorded_ms", "backward_ms", "lrp_ms"))
        print(f"{row['net'] + '.' + str(row['index']) + ' ' + row['kind']:<22}"
              f"{'x'.join(map(str, row['input'])):<18}{cells}")

    head_rows = relation_head_rows(args.repeats, rng)
    print(f"\n{'relation head, 16 x 5':<22}{'ms':>16}")
    for row in head_rows:
        ms = row["ms"]
        print(f"{row['op']:<22}{ms['median']:>9.3f} ±{(ms['q3'] - ms['q1']) / 2:<6.3f}")

    sweep = []
    spatial = tensornet._SPATIAL_MAJOR_OW
    print(f"\nfold, spatial-major / channel-major time, median of {args.repeats}; "
          f"spatial-major now for ow {spatial.start}..{spatial.stop - 1}")
    print(f"{'ow':>3}{'B*C':>6}{'fold':>8}{'grad_in':>9}")
    for ow in SWEEP_OW:
        for b, c in SWEEP_BC:
            if b * c * ow * ow > SWEEP_MAX_ELEMENTS:
                continue
            cell = sweep_cell(b, c, ow, args.repeats, rng)
            sweep.append(cell)
            r = cell["spatial_over_channel"]
            print(f"{ow:>3}{b * c:>6}{r['fold']:>8.2f}{r['grad_input']:>9.2f}")

    result = {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": np.__version__,
                 "blas_threads": 1},
        "repeats": args.repeats,
        "spatial_major_ow": [spatial.start, spatial.stop - 1],
        "layers": layers,
        "relation_head": head_rows,
        "sweep": sweep,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
