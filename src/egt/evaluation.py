"""Episodic evaluation, transductive inference, and feature statistics."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Episode, LabeledImageSet, sample_episode
from .errors import ConfigError, ContractError
from .heads import class_prototypes
from .model import FewShotModel, probs_from_maps

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


_NO_ROUNDS = TransductiveConfig(0, ())  # plain scoring: argmax over the support prototypes


def transductive_infer(model: FewShotModel, support_maps: Array, support_local: Array,
                       way: int, query_maps: Array, cfg: TransductiveConfig,
                       return_history: bool = False):
    """Self-augmenting inference on encoded maps: absorb confident queries
    as pseudo-support.

    Each round rebuilds prototypes from the grown support pool, then
    moves the globally most confident unabsorbed queries (top
    ``candidates_per_iter[t]`` by predicted-class probability, ties
    broken by query index) into the pool under their predicted labels.
    A tie is an exactly equal confidence: identical query maps need not
    tie, since the BLAS product in the scores may round a row differently
    by its position in the batch.
    The inputs are never modified; absorbed queries keep getting
    re-scored and the final argmax decides every query.  With zero
    rounds this is the plain argmax over the support prototypes.  Each
    argmax reads probabilities: ``exp`` can tie two distinct scores.
    """
    pool_maps, pool_labels = support_maps, np.asarray(support_local)
    absorbed = np.zeros(query_maps.shape[0], dtype=bool)
    history = []
    for t in range(cfg.iterations):
        probs = probs_from_maps(model, class_prototypes(pool_maps, pool_labels, way),
                                query_maps)
        confidence = probs.max(axis=1)
        remaining = np.flatnonzero(~absorbed)
        want = cfg.candidates_per_iter[t]
        take = min(want, remaining.size)
        if take < want:
            warnings.warn(
                f"round {t}: only {remaining.size} unabsorbed queries left, "
                f"clamping candidate count {want} -> {take}")
        order = remaining[np.argsort(-confidence[remaining], kind="stable")]
        chosen = order[:take]
        absorbed[chosen] = True
        pool_maps = np.concatenate([pool_maps, query_maps[chosen]])
        pool_labels = np.concatenate([pool_labels, probs.argmax(axis=1)[chosen]])
        history.append({"round": t, "absorbed": chosen.tolist(),
                        "support_size": len(pool_maps)})
    final = probs_from_maps(model, class_prototypes(pool_maps, pool_labels, way),
                            query_maps).argmax(axis=1)
    if return_history:
        return final, history
    return final


def episode_accuracy(model: FewShotModel, episode: Episode, maps: Array,
                     transductive: TransductiveConfig | None = None) -> float:
    """Query accuracy of one episode, scored from ``maps``, a table of
    encoder outputs indexed by dataset row that holds the episode's rows;
    no transductive config means zero rounds."""
    predictions = transductive_infer(
        model, maps[episode.support_rows], episode.support_local, episode.way,
        maps[episode.query_rows], transductive or _NO_ROUNDS)
    return float(np.mean(predictions == episode.query_local))


def evaluate(model: FewShotModel, data: LabeledImageSet, way: int, shot: int,
             n_query: int, episodes: int, rng: np.random.Generator,
             transductive: TransductiveConfig | None = None) -> EvalReport:
    """Accuracy over freshly sampled episodes with a 95% interval.

    Each episode is sampled just before it is scored, and each dataset
    image is encoded at most once per call: an episode's rows that no
    earlier episode encoded go through the encoder together (at most
    ``way * shot + n_query`` rows) into a per-call table of maps, from
    which the episode is scored.  The encoder maps every row the same way
    whatever batch it comes in, so the accuracies are those of encoding
    each episode afresh.  Only row indices flow from the sampler to the
    table: no episode's images are copied.
    """
    if episodes < 1:
        raise ContractError("need at least one evaluation episode")
    maps = np.empty((len(data.images), *model.encoder.output_shape))
    done = np.zeros(len(data.images), dtype=bool)
    accs = []
    for _ in range(episodes):
        episode = sample_episode(data, way, shot, n_query, rng)
        rows = np.concatenate([episode.support_rows, episode.query_rows])
        new = rows[~done[rows]]
        if new.size:
            maps[new] = model.encode(data.images[new])
            done[new] = True
        accs.append(episode_accuracy(model, episode, maps, transductive))
    mean, ci95, degenerate = confidence_interval(accs)
    config = {"way": way, "shot": shot, "n_query": n_query,
              "episodes": episodes, "domain": data.domain_tag,
              "transductive": transductive is not None}
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


_STATS_BATCH = 64  # images per encoder call


def dataset_feature_stats(model: FewShotModel, data: LabeledImageSet,
                          limit: int | None = None) -> list[FeatureStats]:
    """Per-image feature statistics over (a prefix of) a dataset."""
    count = data.images.shape[0] if limit is None else min(limit, data.images.shape[0])
    stats: list[FeatureStats] = []
    for start in range(0, count, _STATS_BATCH):
        maps = model.encode(data.images[start:min(start + _STATS_BATCH, count)])
        stats.extend(feature_stats(m) for m in maps)
    return stats
