"""Episodic evaluation, transductive inference, and feature statistics."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Episode, LabeledImageSet, sample_episode
from .errors import ConfigError, ContractError
from .heads import class_prototypes  # noqa: F401 -- not called here; benchmarks/spans.py wraps it
from .heads import class_means, class_sums
from .model import FewShotModel, probs_from_maps

Array = np.ndarray


@dataclass
class EvalReport:
    accuracies: Array
    mean: float
    ci95: float
    episodes: int
    degenerate: bool


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
_EVAL_BLOCK = 64  # episodes sampled, then scored in one pass


def _block_predictions(model: FewShotModel, sums: Array, counts: Array, query_maps: Array,
                       cfg: TransductiveConfig) -> tuple[Array, list[Array]]:
    """Final predictions ``[E, n]`` of a block of E episodes, and the
    queries each round absorbed, ``[E, take]`` per round.

    ``sums`` ``[E, K, ...]`` are each episode's per-class support sums,
    grown in place, and ``counts`` ``[K]`` their row counts;
    ``query_maps`` is ``[E, n, ...]``.  A round ranks each episode's
    unabsorbed queries by a stable argsort along the query axis, absorbed
    ones keyed last, and adds the chosen queries' maps to their predicted
    classes' sums in that order.  Each prototype is its class's rows
    added in pool order and divided by their count, as
    ``class_prototypes`` on the grown pool would give it.
    """
    n = query_maps.shape[1]
    eps = np.arange(len(query_maps))
    counts = np.tile(counts, (len(eps), 1))
    absorbed = np.zeros(query_maps.shape[:2], dtype=bool)
    rounds = []
    for t in range(cfg.iterations):
        probs = probs_from_maps(model, class_means(sums, counts), query_maps)
        left = n - sum(c.shape[1] for c in rounds)
        want = cfg.candidates_per_iter[t]
        take = min(want, left)
        if take < want:
            warnings.warn(
                f"round {t}: only {left} unabsorbed queries left, "
                f"clamping candidate count {want} -> {take}")
        key = np.where(absorbed, np.inf, -probs.max(axis=-1))
        chosen = np.argsort(key, axis=1, kind="stable")[:, :take]
        labels = probs.argmax(axis=-1)[eps[:, None], chosen]
        absorbed[eps[:, None], chosen] = True
        for j in range(take):  # pool order: one query of each episode at a time
            sums[eps, labels[:, j]] += query_maps[eps, chosen[:, j]]
            counts[eps, labels[:, j]] += 1
        rounds.append(chosen)
    return probs_from_maps(model, class_means(sums, counts), query_maps).argmax(axis=-1), rounds


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
    This is one episode run through the block path that ``evaluate``
    scores its episodes with.
    """
    sums, counts = class_sums(support_maps, support_local, way)
    final, rounds = _block_predictions(model, sums[None], counts,
                                       np.asarray(query_maps)[None], cfg)
    if not return_history:
        return final[0]
    history, size = [], len(support_maps)
    for t, chosen in enumerate(rounds):
        size += chosen.shape[1]
        history.append({"round": t, "absorbed": chosen[0].tolist(), "support_size": size})
    return final[0], history


def _block_accuracies(model: FewShotModel, episodes: list[Episode], maps: Array,
                      cfg: TransductiveConfig) -> Array:
    """Query accuracy of each of a block of equally shaped episodes,
    scored together from ``maps``, a table of encoder outputs indexed by
    dataset row that holds the episodes' rows."""
    first = episodes[0]
    support = maps[np.stack([ep.support_rows for ep in episodes], axis=1)]  # [S, E, ...]
    sums, counts = class_sums(support, first.support_local, first.way)
    final, _ = _block_predictions(model, np.swapaxes(sums, 0, 1), counts,
                                  maps[np.stack([ep.query_rows for ep in episodes])], cfg)
    return (final == first.query_local).mean(axis=1)


def episode_accuracy(model: FewShotModel, episode: Episode, maps: Array,
                     transductive: TransductiveConfig | None = None) -> float:
    """Query accuracy of one episode, scored from ``maps``, a table of
    encoder outputs indexed by dataset row that holds the episode's rows;
    no transductive config means zero rounds.  A block of one episode."""
    return float(_block_accuracies(model, [episode], maps, transductive or _NO_ROUNDS)[0])


def evaluate(model: FewShotModel, data: LabeledImageSet, way: int, shot: int,
             n_query: int, episodes: int, rng: np.random.Generator,
             transductive: TransductiveConfig | None = None) -> EvalReport:
    """Accuracy over freshly sampled episodes with a 95% interval.

    Episodes are sampled in blocks of ``_EVAL_BLOCK``, with the same rng
    calls in the same order as one at a time, and each dataset image is
    encoded at most once per call: a block's rows that no earlier block
    encoded go through the encoder in sorted chunks of at most
    ``way * shot + n_query`` rows into a per-call table of maps.  The
    block is then scored in one pass from the table: prototypes as one
    reduction, the head's ``block_scores``, and the transductive rounds
    (zero rounds is the plain prediction) on the block's arrays.  The
    encoder maps every row the same way whatever batch it comes in, and
    each episode's scores are computed as on their own, so the
    accuracies are those of encoding and scoring each episode afresh.
    Only row indices flow from the sampler to the table: no episode's
    images are copied.
    """
    if episodes < 1:
        raise ContractError("need at least one evaluation episode")
    cfg = transductive or _NO_ROUNDS
    chunk = way * shot + n_query
    maps = np.empty((len(data.images), *model.encoder.output_shape))
    done = np.zeros(len(data.images), dtype=bool)
    accs = []
    for start in range(0, episodes, _EVAL_BLOCK):
        block = [sample_episode(data, way, shot, n_query, rng)
                 for _ in range(min(_EVAL_BLOCK, episodes - start))]
        rows = np.concatenate([r for ep in block for r in (ep.support_rows, ep.query_rows)])
        new = np.unique(rows[~done[rows]])
        for i in range(0, new.size, chunk):
            part = new[i:i + chunk]
            maps[part] = model.encode(data.images[part])
        done[new] = True
        accs.append(_block_accuracies(model, block, maps, cfg))
    accs = np.concatenate(accs)
    mean, ci95, degenerate = confidence_interval(accs)
    return EvalReport(accuracies=accs, mean=mean, ci95=ci95,
                      episodes=episodes, degenerate=degenerate)


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
