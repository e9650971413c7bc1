"""Episodic evaluation, transductive inference, and feature statistics."""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Episode, LabeledImageSet, sample_episode
from .errors import ConfigError, ContractError
from .heads import class_prototypes
from .model import FewShotModel, episode_probs, probs_from_maps

Array = np.ndarray


@dataclass
class EvalReport:
    accuracies: Array
    mean: float
    ci95: float
    episodes: int
    degenerate: bool
    config: dict


def confidence_interval(values) -> tuple[float, float, bool]:
    """Mean and 1.96 * stderr half-width; flags n < 2 as degenerate."""
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean()) if arr.size else float("nan")
    if arr.size < 2:
        return mean, 0.0, True
    std = float(arr.std(ddof=1))
    return mean, 1.96 * std / np.sqrt(arr.size), False


@dataclass(frozen=True)
class TransductiveConfig:
    iterations: int = 2
    candidates_per_iter: tuple[int, ...] = (4, 8)

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ConfigError("iterations must be >= 0")
        if len(self.candidates_per_iter) < self.iterations:
            raise ConfigError(
                f"need at least {self.iterations} candidate counts, "
                f"got {len(self.candidates_per_iter)}")
        cand = self.candidates_per_iter
        if any(c < 1 for c in cand):
            raise ConfigError("candidate counts must be positive")
        if any(b < a for a, b in zip(cand, cand[1:])):
            raise ConfigError(f"candidate counts must be nondecreasing, got {cand}")


def transductive_infer(model: FewShotModel, episode: Episode,
                       cfg: TransductiveConfig = TransductiveConfig(),
                       return_history: bool = False):
    """Self-augmenting inference: absorb confident queries as pseudo-support.

    Each round rebuilds prototypes from the grown support pool, then
    moves the globally most confident unabsorbed queries (top
    ``candidates_per_iter[t]`` by predicted-class probability, ties
    broken by query index) into the pool under their predicted labels.
    The episode itself is never modified; absorbed queries keep getting
    re-scored and the final argmax decides every query.
    """
    smaps = model.encode(episode.support_images)
    qmaps = model.encode(episode.query_images)
    pool_maps = [m for m in smaps]
    pool_labels = list(episode.support_local)
    n = qmaps.shape[0]
    absorbed = np.zeros(n, dtype=bool)
    history = []
    for t in range(cfg.iterations):
        protos = class_prototypes(np.stack(pool_maps), np.array(pool_labels),
                                  episode.way)
        probs = probs_from_maps(model, protos, qmaps)
        confidence = probs.max(axis=1)
        predictions = probs.argmax(axis=1)
        remaining = np.flatnonzero(~absorbed)
        want = cfg.candidates_per_iter[t]
        take = min(want, remaining.size)
        if take < want:
            warnings.warn(
                f"round {t}: only {remaining.size} unabsorbed queries left, "
                f"clamping candidate count {want} -> {take}")
        order = remaining[np.argsort(-confidence[remaining], kind="stable")]
        chosen = order[:take]
        for i in chosen:
            absorbed[i] = True
            pool_maps.append(qmaps[i])
            pool_labels.append(int(predictions[i]))
        history.append({"round": t, "absorbed": [int(i) for i in chosen],
                        "support_size": len(pool_maps)})
    protos = class_prototypes(np.stack(pool_maps), np.array(pool_labels),
                              episode.way)
    final = probs_from_maps(model, protos, qmaps).argmax(axis=1)
    if return_history:
        return final, history
    return final


def episode_accuracy(model: FewShotModel, episode: Episode,
                     transductive: TransductiveConfig | None = None) -> float:
    if transductive is not None:
        predictions = transductive_infer(model, episode, transductive)
    else:
        probs = episode_probs(model, episode.support_images,
                              episode.support_local, episode.way,
                              episode.query_images)
        predictions = probs.argmax(axis=1)
    return float(np.mean(predictions == episode.query_local))


def _accuracy_chunk(args) -> list[float]:
    model, episodes, transductive = args
    return [episode_accuracy(model, ep, transductive) for ep in episodes]


def evaluate(model: FewShotModel, data: LabeledImageSet, way: int, shot: int,
             n_query: int, episodes: int, rng: np.random.Generator,
             transductive: TransductiveConfig | None = None,
             workers: int = 1) -> EvalReport:
    """Accuracy over freshly sampled episodes with a 95% interval.

    Episodes are drawn from ``rng`` in the same order whatever
    ``workers`` is, so the result does not depend on it.  The pool runs
    at most ``min(workers, cpu count, episodes)`` processes; one
    process means no pool.  The serial path samples each episode just
    before scoring it and holds one at a time; the parallel path samples
    all of them up front and splits only the scoring work into chunks.
    ``config["workers"]`` records the processes used.
    """
    if episodes < 1:
        raise ContractError("need at least one evaluation episode")
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1, episodes)
    if workers == 1:
        accs = [episode_accuracy(model, sample_episode(data, way, shot, n_query, rng),
                                 transductive) for _ in range(episodes)]
    else:
        drawn = [sample_episode(data, way, shot, n_query, rng)
                 for _ in range(episodes)]
        chunks = [drawn[i::workers] for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_accuracy_chunk,
                                  [(model, chunk, transductive) for chunk in chunks]))
        accs = [0.0] * episodes
        for lane, part in enumerate(parts):
            for j, acc in enumerate(part):
                accs[lane + j * workers] = acc
    mean, ci95, degenerate = confidence_interval(accs)
    config = {"way": way, "shot": shot, "n_query": n_query,
              "episodes": episodes, "domain": data.domain_tag,
              "transductive": transductive is not None, "workers": workers}
    if transductive is not None:
        config["iterations"] = transductive.iterations
        config["candidates_per_iter"] = list(transductive.candidates_per_iter)
    return EvalReport(accuracies=np.asarray(accs), mean=mean, ci95=ci95,
                      episodes=episodes, degenerate=degenerate, config=config)


def spatial_quantile_pool(feature_map: Array, q: float) -> Array:
    """Per-channel q-quantile over spatial positions (linear interpolation)."""
    feat = np.asarray(feature_map, dtype=np.float64)
    if feat.ndim != 3:
        raise ContractError(f"expected a [C, H, W] feature map, got shape {feat.shape}")
    if not 0.0 <= q <= 1.0:
        raise ContractError(f"quantile must lie in [0, 1], got {q}")
    return np.quantile(feat.reshape(feat.shape[0], -1), q, axis=1)


@dataclass
class FeatureStats:
    channel_quantiles: Array
    s2: float
    qdiff: float


def feature_stats(feature_map: Array) -> FeatureStats:
    """Channel-spread summary of one feature map.

    Pools each channel to its 0.95 spatial quantile, then reports the
    population variance of the pooled vector and the spread between its
    0.95 and 0.45 quantiles.  Both are in the map's units: scaling the
    map by a > 0 scales ``s2`` by a**2 and ``qdiff`` by a.  So both
    shrink when channels respond more uniformly, and also under any
    uniform down-scaling of the map; divide the map by its norm first
    to compare spread alone.
    """
    pooled = spatial_quantile_pool(feature_map, 0.95)
    if pooled.size < 2:
        raise ContractError("need at least 2 channels for feature statistics")
    s2 = float(np.var(pooled))
    qdiff = float(np.quantile(pooled, 0.95) - np.quantile(pooled, 0.45))
    return FeatureStats(channel_quantiles=pooled, s2=s2, qdiff=qdiff)


def dataset_feature_stats(model: FewShotModel, data: LabeledImageSet,
                          limit: int | None = None,
                          batch: int = 64) -> list[FeatureStats]:
    """Per-image feature statistics over (a prefix of) a dataset."""
    count = data.images.shape[0] if limit is None else min(limit, data.images.shape[0])
    stats: list[FeatureStats] = []
    for start in range(0, count, batch):
        maps = model.encode(data.images[start:min(start + batch, count)])
        stats.extend(feature_stats(m) for m in maps)
    return stats
