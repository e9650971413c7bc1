#!/usr/bin/env python3
"""In-process timing of episodic evaluation, split by stage.

Usage (from the repository root):

    python3 tools/eval_bench.py [--out BENCH_eval.json] [--repeats 15]

Times ``egt.evaluation.evaluate`` at the shapes of the ``infer``
workload of ``benchmarks/bench.py``, imported from it: the ``noisy``
domain of the acceptance gate's corpus (30 classes x 60 images,
3x16x16), 5-way 5-shot 16 queries, a cosine head on encoder widths
8/16/32.  The encoder is freshly initialised rather than trained: the
work per episode does not depend on the weights.

Each sample is one ``evaluate`` call of 2000 episodes on its own seed,
reported in microseconds per episode.  Samples alternate between two
kinds of call on the same seed:

* ``total``: ``evaluate`` as it is;
* ``split``: ``evaluate`` under the benchmark's span tracer
  (``benchmarks/spans.py``), whose inclusive times charge each
  episode's time to sampling (``data.sample_episode``), encoding
  (``model.encode``, for rows no earlier block encoded) and scoring.
  ``evaluate`` scores a block of episodes in one call,
  ``evaluation._block_accuracies`` (prototypes, head and transductive
  rounds included), which the tracer does not wrap, so this tool adds
  that span to it.  The rest of the call, ``other``, is the loop's own
  bookkeeping plus the tracer's cost; ``split`` minus ``total`` bounds
  that cost.

Every timing is the median over ``--repeats`` samples, with the first
and third quartiles.  No training runs before the timed calls, so the
heap layout that ``bench.py``'s set-up training leaves, which moves its
``infer`` rate by several percent, plays no part here; compare two
trees by alternating runs of this tool.  BLAS is pinned to one thread
before numpy loads.  The result is written as JSON to ``--out`` and
summarised on stdout.
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

# bench.py puts the package source on the path as it loads.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "benchmarks"))

import numpy as np  # noqa: E402

from bench import QUERIES, SHOT, SPEC, TARGET, WAY, WIDTHS  # noqa: E402
from egt import evaluation  # noqa: E402
from egt.data import gen_synthetic_domains  # noqa: E402
from egt.model import build_model  # noqa: E402
from spans import Tracer  # noqa: E402

EPISODES = 2000
SEED = 0
STAGES = {"sampling": "data.sample_episode", "encoding": "model.encode",
          "scoring": "evaluation.block_accuracies"}


def stats(samples: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default="BENCH_eval.json", help="result JSON path")
    ap.add_argument("--repeats", type=int, default=15, help="samples per timing (>= 2)")
    args = ap.parse_args(argv)
    if args.repeats < 2:
        ap.error("--repeats must be >= 2")

    target = {d.domain_tag: d for d in gen_synthetic_domains(SPEC, seed=SEED)}[TARGET]
    model = build_model("cosine", target.image_shape, np.random.default_rng([SEED, 0]),
                        widths=WIDTHS)

    def call(i: int):
        return evaluation.evaluate(model, target, WAY, SHOT, QUERIES, EPISODES,
                                   np.random.default_rng([SEED, i]))

    call(0)  # warm-up
    us = 1e6 / EPISODES
    samples: dict[str, list[float]] = {k: [] for k in ("total", "split", *STAGES, "other")}
    for i in range(1, args.repeats + 1):  # the two kinds alternate, so drift hits both
        start = time.perf_counter()
        plain = call(i)
        samples["total"].append((time.perf_counter() - start) * us)
        tracer = Tracer()
        tracer.install()
        tracer._spans([evaluation], "_block_accuracies", STAGES["scoring"])
        tracer.phase = "eval"
        try:
            start = time.perf_counter()
            split = call(i)
            elapsed = time.perf_counter() - start
        finally:
            tracer.uninstall()
        if not np.array_equal(plain.accuracies, split.accuracies):
            sys.exit(f"error: sample {i}: the traced call changed the accuracies")
        samples["split"].append(elapsed * us)
        staged = {stage: tracer.incl_s["eval", span] for stage, span in STAGES.items()}
        for stage, seconds in staged.items():
            samples[stage].append(seconds * us)
        samples["other"].append((elapsed - sum(staged.values())) * us)

    timings = {k: stats(v) for k, v in samples.items()}
    print(f"evaluate, {EPISODES} episodes per call, {args.repeats} calls each; "
          f"us per episode, median [q1, q3]")
    for name, t in timings.items():
        print(f"  {name:<9}{t['median']:>9.1f}  [{t['q1']:.1f}, {t['q3']:.1f}]")
    result = {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": np.__version__,
                 "blas_threads": 1},
        "episodes": EPISODES, "repeats": args.repeats, "seed": SEED,
        "shape": {"way": WAY, "shot": SHOT, "queries": QUERIES,
                  "image": list(target.image_shape), "widths": list(WIDTHS)},
        "us_per_episode": timings,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
