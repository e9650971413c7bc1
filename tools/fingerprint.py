#!/usr/bin/env python3
"""One fingerprint of what the egt command line does, to show "same behaviour".

Usage (from the repository root):

    python3 tools/fingerprint.py [--out BENCH_fingerprint.json] [--against FILE]

Runs one fixed chain of ``egt`` commands, each in its own process
(``python -m egt.cli`` on this checkout's ``src``), in a temporary
directory that is removed afterwards; every path the chain passes is
relative to it:

* ``gen-data``: a 6-class 16x16 corpus in two domains;
* ``gen-data-outline``: a 16x24 corpus in ``bright`` and ``stripe`` (whose
  primitives are outlines) with up to 6 primitives per class and 13
  images per class, which the renderer's 16x24 blocks do not divide;
* ``train`` of the cosine head (EGT) and of the relation head (``--mode
  baseline``);
* ``eval``: the cosine model on both domain files in one call, and the
  relation model with ``--transductive``;
* ``explain`` for both models, then ``stats`` for both;
* ``egt --help`` and ``egt <command> --help`` for each command.

The fingerprint holds the sha256 of every file the chain writes, and
of each step's stdout and stderr with the temporary directory masked,
plus each step's exit code; then the determinism digests that
``benchmarks/bench.py --seed 3 --seconds 4 --trace 0 --fast`` prints
for each workload.  It is written as JSON to ``--out``.  With
``--against FILE``, every entry that differs from that fingerprint, or
is in only one of the two, is printed, and the exit code is 1 if any is.
The hashes depend on numpy and its BLAS, so compare fingerprints taken
on one machine.  BLAS is pinned to one thread in every process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ("gen-data", "train", "eval", "explain", "stats")
EPISODE = ["--way", "3", "--shot", "2", "--queries", "4", "--seed", "1"]
TRAIN = EPISODE + ["--epochs", "2", "--episodes-per-epoch", "3", "--widths", "4,8",
                   "--hidden", "8"]
# step name -> arguments of ``egt``; each step writes into a directory of its name
CHAIN = {
    "gen-data": ["gen-data", "--classes", "6", "--per-class", "10", "--height", "16",
                 "--width", "16", "--domains", "dark,noisy", "--seed", "1"],
    "gen-data-outline": ["gen-data", "--classes", "5", "--per-class", "13", "--height", "16",
                         "--width", "24", "--domains", "bright,stripe", "--max-primitives", "6",
                         "--seed", "2"],
    "train-cosine": ["train", "--data", "gen-data/dark.egtd", "--head", "cosine"] + TRAIN,
    "train-relation": ["train", "--data", "gen-data/dark.egtd", "--head", "relation",
                       "--mode", "baseline"] + TRAIN,
    "eval-cosine": ["eval", "--checkpoint", "train-cosine/model.egt1", "--data",
                    "gen-data/dark.egtd", "gen-data/noisy.egtd", "--episodes", "20"] + EPISODE,
    "eval-relation-transductive": ["eval", "--checkpoint", "train-relation/model.egt1",
                                   "--data", "gen-data/noisy.egtd", "--episodes", "20",
                                   "--transductive"] + EPISODE,
    "explain-cosine": ["explain", "--checkpoint", "train-cosine/model.egt1",
                       "--data", "gen-data/noisy.egtd"] + EPISODE,
    "explain-relation": ["explain", "--checkpoint", "train-relation/model.egt1",
                         "--data", "gen-data/noisy.egtd"] + EPISODE,
    "stats-cosine": ["stats", "--checkpoint", "train-cosine/model.egt1",
                     "--data", "gen-data/noisy.egtd"],
    "stats-relation": ["stats", "--checkpoint", "train-relation/model.egt1",
                       "--data", "gen-data/noisy.egtd"],
}
WORKLOADS = ("train-cosine", "train-relation", "infer")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), COLUMNS="80")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def chain(work: str) -> dict[str, str]:
    """Run the chain in the empty directory ``work``; its fingerprint entries, by name."""
    entries: dict[str, str] = {}
    steps = [(name, args + ["--out", name]) for name, args in CHAIN.items()]
    steps += [("help", ["--help"])] + [(f"help-{cmd}", [cmd, "--help"]) for cmd in COMMANDS]
    for name, args in steps:
        if "--out" in args:
            os.mkdir(os.path.join(work, name))
        run = subprocess.run([sys.executable, "-m", "egt.cli", *args], cwd=work, env=_env(),
                             capture_output=True)
        entries[f"exit/{name}"] = str(run.returncode)
        for stream, raw in (("stdout", run.stdout), ("stderr", run.stderr)):
            entries[f"{stream}/{name}"] = _sha256(raw.replace(work.encode(), b"<work>"))
    for folder, _, files in os.walk(work):
        for file in files:
            path = os.path.join(folder, file)
            with open(path, "rb") as fh:
                entries["file/" + os.path.relpath(path, work)] = _sha256(fh.read())
    return dict(sorted(entries.items()))


def bench_digests() -> dict[str, str]:
    """The determinism digest line of each ``bench.py`` workload, by workload."""
    digests = {}
    for workload in WORKLOADS:
        run = subprocess.run(
            [sys.executable, os.path.join(ROOT, "benchmarks", "bench.py"), "--workload",
             workload, "--seed", "3", "--seconds", "4", "--trace", "0", "--fast"],
            cwd=ROOT, env=_env(), capture_output=True, text=True, check=True)
        line = next(line for line in run.stdout.splitlines() if line.startswith("digest: "))
        digests[f"digest/{workload}"] = line[len("digest: "):]
    return digests


def differences(mine: dict[str, str], theirs: dict[str, str]) -> list[str]:
    """One line per entry that differs between two fingerprints, or is in one only."""
    return [f"{name}: {theirs.get(name, '(missing)')} -> {mine.get(name, '(missing)')}"
            for name in sorted(mine.keys() | theirs.keys()) if mine.get(name) != theirs.get(name)]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default="BENCH_fingerprint.json", help="result JSON path")
    ap.add_argument("--against", help="a fingerprint to compare with")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="egt-fingerprint-") as work:
        entries = chain(work)
    entries.update(bench_digests())
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"entries": entries}, fh, indent=1)
    print(f"wrote {args.out}: {len(entries)} entries")
    if args.against is None:
        return 0
    with open(args.against, encoding="utf-8") as fh:
        theirs = json.load(fh)["entries"]
    diff = differences(entries, theirs)
    for line in diff:
        print(line)
    print(f"{len(diff)} of {len(entries.keys() | theirs.keys())} entries differ "
          f"from {args.against}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
