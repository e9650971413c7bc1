#!/usr/bin/env python3
"""Wall, CPU and page-fault cost of one seed pair of the gate's cross-domain runs.

Usage (from the repository root):

    python3 tools/gate_bench.py [--out BENCH_gate.json] [--smoke]

Runs seed 0 of the criteria-7/8 fixture of ``tests/test_acceptance.py``
in one process, as the fixture runs it: the frozen corpus is generated
first, then the baseline model and then the EGT model are each trained,
evaluated on the target domain and measured for their feature spread.
The schedule (``_XDOM``) and the spread measure are imported from the
gate, not copied, so the tool follows the gate.  BLAS threads are left
as they are, since the gate does not pin them either.

Each stage (``train``, ``eval``, ``spread``) of each mode reports its
wall seconds and, as ``resource.getrusage(RUSAGE_SELF)`` deltas, its
user and sys seconds and minor page faults; ``train`` also reports
faults per episode.  The accuracies, spreads and norms are those of the
fixture's seed 0.  ``--smoke`` shrinks the schedule to a few episodes,
to check that the tool runs; its figures mean nothing.  The result is
written as JSON to ``--out`` and summarised on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _sub in ("tests", "src"):  # the gate's module imports its helpers from tests/
    sys.path.insert(0, os.path.join(_ROOT, _sub))

import numpy as np  # noqa: E402

from egt.data import gen_synthetic_domains, sample_episode  # noqa: E402
from egt.evaluation import evaluate  # noqa: E402
from egt.model import build_model  # noqa: E402
from egt.training import TrainConfig, train  # noqa: E402
from test_acceptance import _XDOM, _unit_norm_feature_spread  # noqa: E402

SEED = 0
SMOKE = {"epochs": 1, "episodes_per_epoch": 3, "eval_episodes": 4}


class Stage:
    """Wall time and ``getrusage`` deltas of the block it wraps."""

    def __enter__(self):
        self.wall, self.usage = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
        return self

    def __exit__(self, *exc):
        wall, usage = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
        self.result = {"wall_s": wall - self.wall,
                       "user_s": usage.ru_utime - self.usage.ru_utime,
                       "sys_s": usage.ru_stime - self.usage.ru_stime,
                       "minor_faults": usage.ru_minflt - self.usage.ru_minflt}


def run_mode(mode: str, source, target, E: dict) -> dict:
    """Train, evaluate and measure one model of the seed pair, as the fixture does."""
    model = build_model("cosine", source.image_shape, np.random.default_rng([SEED, 0]),
                        widths=E["widths"])
    xi, lam = (1.0, 0.0) if mode == "baseline" else (0.0, 1.0)
    cfg = TrainConfig(way=E["way"], shot=E["shot"], n_query=E["n_query"], xi=xi, lam=lam,
                      lr=E["lr"], momentum=E["momentum"], epochs=E["epochs"],
                      episodes_per_epoch=E["episodes_per_epoch"], lr_decay=E["lr_decay"],
                      lr_decay_every=E["lr_decay_every"])
    ep_rng = np.random.default_rng([SEED, 1])
    stream = iter(lambda: sample_episode(source, E["way"], E["shot"], E["n_query"], ep_rng),
                  None)
    stages = {}
    with Stage() as stage:
        train(model, stream, cfg, plain=(mode == "baseline"))
    stages["train"] = stage.result
    episodes = cfg.epochs * cfg.episodes_per_epoch
    stages["train"]["faults_per_episode"] = stages["train"]["minor_faults"] / max(episodes, 1)
    with Stage() as stage:
        report = evaluate(model, target, E["way"], E["shot"], E["n_query"],
                          E["eval_episodes"], np.random.default_rng([SEED, 2]))
    stages["eval"] = stage.result
    with Stage() as stage:
        s2, qdiff, norm = _unit_norm_feature_spread(model, target)
    stages["spread"] = stage.result
    return {"acc": report.mean, "s2": s2, "qdiff": qdiff, "norm": norm,
            "train_episodes": episodes, "stages": stages}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default="BENCH_gate.json", help="result JSON path")
    ap.add_argument("--smoke", action="store_true",
                    help=f"shrink the schedule to {SMOKE} to check that the tool runs")
    args = ap.parse_args(argv)
    E = {**_XDOM, **(SMOKE if args.smoke else {})}

    with Stage() as corpus:
        source, target = gen_synthetic_domains(E["spec"], seed=E["corpus_seed"])
    runs = {}
    for mode in ("baseline", "egt"):
        m = runs[mode] = run_mode(mode, source, target, E)
        print(f"{mode}: acc={m['acc']!r} s2={m['s2']!r} qdiff={m['qdiff']!r} "
              f"norm={m['norm']!r}")
        for name, st in m["stages"].items():
            print(f"  {name:<7}wall {st['wall_s']:7.2f} s  user {st['user_s']:7.2f} s  "
                  f"sys {st['sys_s']:6.2f} s  minor faults {st['minor_faults']:>9}")
    result = {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": np.__version__},
        "seed": SEED, "smoke": args.smoke,
        "schedule": {k: v for k, v in E.items() if k not in ("spec", "seeds")},
        "corpus": corpus.result, **runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
