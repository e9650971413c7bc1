"""Episodic training with explanation-guided feature re-weighting.

Each episode runs four stages: (1) a plain prediction for every query,
(2) an explanation of the winning class whose normalized relevance
becomes a per-feature weight w = 1 + R/max|R| in [0, 2], (3) a second
prediction from the re-weighted features, and (4) a combined loss
xi * CE(plain) + lambda * CE(re-weighted).  Features with positive
relevance for the predicted class are amplified and features with
negative relevance are damped, so the gradient pressure concentrates
on evidence the classifier itself considers relevant.

With the cosine head no feature is ever damped: encoder features are
>= 0 (ReLU, then average pooling), so every contribution q_i * phat_i
is >= 0, and the winner's log-odds relevance is >= 0 because its
probability is at least 1/K.  Every weight therefore lies in [1, 2].
Negative relevance, and so a weight below 1, can only come from the
relation head, whose LRP pass runs through signed network weights.

The explanation weights are constants in the backward pass
(stop-gradient): the re-weighted loss reaches the encoder only through
the features it multiplies, never through the explanation itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import ConfigError, ContractError

# cosine_explain and lrp_backward are not called here; benchmarks/spans.py wraps them here.
from .heads import (
    CosineHead,
    RelationHead,
    class_prototypes,
    cosine_explain,
    cosine_scores,
    lrp_through_head,
    scaled_softmax,
)
from .lrp import LrpConfig, lrp_backward, normalize_relevance
from .model import FewShotModel, save_model
from .tensornet import sgd_step

Array = np.ndarray

CE_CLAMP = 1e-12


def default_loss_weights(head_kind: str, shot: int, baseline: bool) -> tuple[float, float]:
    """Loss mix defaults: baseline drops the re-weighted term entirely."""
    if baseline:
        return 1.0, 0.0
    if head_kind == "cosine":
        return 0.0, 1.0
    if head_kind == "relation":
        return (1.0, 0.5) if shot == 1 else (1.0, 1.0)
    raise ConfigError(f"unknown head kind {head_kind!r}")


@dataclass
class TrainConfig:
    way: int = 5
    shot: int = 5
    n_query: int = 16
    xi: float = 1.0
    lam: float = 1.0
    lr: float = 1e-3
    momentum: float = 0.9
    epochs: int = 100
    episodes_per_epoch: int = 100
    lr_decay: float = 0.5
    lr_decay_every: int = 40
    lrp: LrpConfig = field(default_factory=LrpConfig)

    def __post_init__(self) -> None:
        if self.way < 2 or self.shot < 1 or self.n_query < 1:
            raise ConfigError(
                f"episode shape way={self.way} shot={self.shot} "
                f"n_query={self.n_query} is invalid")
        if not (0 <= self.xi < math.inf and 0 <= self.lam < math.inf
                and self.xi + self.lam > 0):
            raise ConfigError(
                f"loss weights xi={self.xi} lam={self.lam} must be finite and "
                "nonnegative with a positive sum")
        if not (0 < self.lr < math.inf and 0 <= self.momentum < 1):
            raise ConfigError(f"bad optimizer settings lr={self.lr} momentum={self.momentum}")
        if self.epochs < 0 or self.episodes_per_epoch < 1:
            raise ConfigError("epochs must be >= 0 and episodes_per_epoch >= 1")
        if not 0 < self.lr_decay <= 1 or self.lr_decay_every < 0:
            raise ConfigError(f"bad learning-rate decay settings lr_decay={self.lr_decay} "
                              f"lr_decay_every={self.lr_decay_every}")


@dataclass
class EpisodeResult:
    loss_plain: float
    loss_lrp: float
    loss_total: float
    probs: Array
    probs_lrp: Array
    accuracy: float


def cross_entropy(label: int, probs: Array) -> float:
    """Negative log probability of the true class, clamped away from 0."""
    return -math.log(max(float(probs[label]), CE_CLAMP))


def lrp_weights(rel_norm: Array) -> Array:
    """Feature weights 1 + R for normalized relevance R in [-1, 1]."""
    r = np.asarray(rel_norm, dtype=np.float64)
    peak = np.abs(r).max() if r.size else 0.0
    if peak > 1.0 + 1e-12:
        raise ContractError(
            f"normalized relevance must lie in [-1, 1], got peak {peak}")
    return 1.0 + r


def weighted_features(features: Array, weights: Array) -> Array:
    """Element-wise feature re-weighting; shapes must match exactly."""
    f = np.asarray(features, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if f.shape != w.shape:
        raise ContractError(
            f"feature shape {f.shape} does not match weight shape {w.shape}")
    return f * w


def _softmax_ce_grads(probs: Array, labels: Array, beta: float, coef: float) -> Array:
    """d(coef * sum_i CE_i)/d(scores): beta * (p - onehot), clamp-aware.

    Rows whose true-class probability sits at the CE clamp contribute a
    locally constant loss, hence a zero gradient.
    """
    n = probs.shape[0]
    g = probs.copy()
    g[np.arange(n), labels] -= 1.0
    g *= beta * coef
    g[probs[np.arange(n), labels] <= CE_CLAMP] = 0.0
    return g


def _cosine_branch(v: Array, protos: Array, grads: Array, scores: Array,
                   ) -> tuple[Array, Array]:
    """Gradients of sum(grads * scores) through cosine similarity.

    v: [n, D] query-side rows, protos: [K, D], grads: [n, K] upstream
    dLoss/dscore, scores: [n, K] the cosine values.  Returns the
    gradient wrt v rows and wrt the prototype rows.
    """
    vn = np.linalg.norm(v, axis=1)
    pn = np.linalg.norm(protos, axis=1)
    gu = grads * scores
    dv = ((grads / pn[None, :]) @ protos) / vn[:, None]
    dv -= (gu.sum(axis=1) / vn ** 2)[:, None] * v
    dp = ((grads / vn[:, None]).T @ v) / pn[:, None]
    dp -= (gu.sum(axis=0) / pn ** 2)[:, None] * protos
    return dv, dp


def _merge_param_grads(a, b):
    if a is None:
        return b
    if b is None:
        return a
    merged = []
    for ga, gb in zip(a, b):
        if ga is None and gb is None:
            merged.append(None)
        else:
            merged.append({k: ga[k] + gb[k] for k in ga})
    return merged


def _cosine_step(head: CosineHead, proto_maps: Array, qmaps: Array, y: Array,
                 cfg: TrainConfig, enable_lrp: bool):
    """Cosine head's part of an episode; see :func:`episode_gradients`."""
    way, n = proto_maps.shape[0], qmaps.shape[0]
    protos = proto_maps.reshape(way, -1)
    feats_q = qmaps.reshape(n, -1)
    scores = cosine_scores(feats_q, protos)
    probs = scaled_softmax(scores, head.beta)

    d_fq = np.zeros_like(feats_q)
    d_protos = np.zeros_like(protos)
    if cfg.xi != 0.0:
        g1 = _softmax_ce_grads(probs, y, head.beta, cfg.xi / n)
        gq, gp = _cosine_branch(feats_q, protos, g1, scores)
        d_fq += gq
        d_protos += gp

    probs_lrp = None
    if enable_lrp:
        rel_init = head.relevance_init(scores, probs)
        winners = np.argmax(probs, axis=1)
        rels = lrp_through_head(head, protos, feats_q, None, rel_init, winners, cfg.lrp)
        weights = np.array([lrp_weights(normalize_relevance(r)) for r in rels])
        reweighted = weighted_features(feats_q, weights)
        scores_lrp = cosine_scores(reweighted, protos)
        probs_lrp = scaled_softmax(scores_lrp, head.beta)
        if cfg.lam != 0.0:
            g2 = _softmax_ce_grads(probs_lrp, y, head.beta, cfg.lam / n)
            gq2, gp2 = _cosine_branch(reweighted, protos, g2, scores_lrp)
            d_fq += weights * gq2
            d_protos += gp2
    return (probs, probs_lrp, d_protos.reshape(proto_maps.shape),
            d_fq.reshape(qmaps.shape), None)


def _relation_step(head: RelationHead, protos: Array, qmaps: Array, y: Array,
                   cfg: TrainConfig, enable_lrp: bool):
    """Relation head's part of an episode; see :func:`episode_gradients`."""
    rnet = head.net
    n, way = qmaps.shape[0], protos.shape[0]
    scores, rtrace = head.scores(protos, qmaps)
    flat = rtrace.entries[0].input
    pairs = flat.reshape((n, way) + flat.shape[1:])
    probs = scaled_softmax(scores, head.beta)

    d_flat = np.zeros_like(flat)
    rel_grads = None
    if cfg.xi != 0.0:
        g1 = _softmax_ce_grads(probs, y, head.beta, cfg.xi / n)
        gin, pg = rnet.backward_grad(rtrace, g1.reshape(n * way, 1))
        d_flat += gin
        rel_grads = pg

    probs_lrp = None
    if enable_lrp:
        rel_init = head.relevance_init(scores, probs)
        winners = np.argmax(probs, axis=1)
        rels = lrp_through_head(head, protos, qmaps, rtrace, rel_init, winners, cfg.lrp)
        weights = np.array([lrp_weights(normalize_relevance(r)) for r in rels])
        flat2 = (pairs * weights[:, None]).reshape(flat.shape)
        logits2, rtrace2 = rnet.forward_recorded(flat2)
        scores_lrp = logits2[:, 0].reshape(n, way)
        probs_lrp = scaled_softmax(scores_lrp, head.beta)
        if cfg.lam != 0.0:
            g2 = _softmax_ce_grads(probs_lrp, y, head.beta, cfg.lam / n)
            gin2, pg2 = rnet.backward_grad(rtrace2, g2.reshape(n * way, 1))
            d_flat += (gin2.reshape(pairs.shape) * weights[:, None]).reshape(flat.shape)
            rel_grads = _merge_param_grads(rel_grads, pg2)

    d_pairs = d_flat.reshape(pairs.shape)
    channels = protos.shape[1]
    return (probs, probs_lrp, d_pairs[:, :, :channels].sum(axis=0),
            d_pairs[:, :, channels:].sum(axis=1), rel_grads)


def episode_gradients(model: FewShotModel, episode, cfg: TrainConfig,
                      enable_lrp: bool = True):
    """Loss report plus parameter gradients, without applying an update.

    The episode skeleton for both heads.  The head step returns the
    plain and re-weighted probabilities (``None`` without LRP), the
    gradients for the prototype and query maps, and the relation-net
    gradients (``None`` for the cosine head).
    """
    if episode.way != cfg.way:
        raise ContractError(
            f"episode way {episode.way} does not match config way {cfg.way}")
    if isinstance(model.head, CosineHead):
        head_step = _cosine_step
    elif isinstance(model.head, RelationHead):
        head_step = _relation_step
    else:
        raise ConfigError(f"unknown head {type(model.head).__name__!r}")
    images = np.concatenate([episode.support_images, episode.query_images], axis=0)
    maps, trace = model.encode_recorded(images)
    n_support = episode.support_images.shape[0]
    s_local, y = episode.support_local, episode.query_local
    protos = class_prototypes(maps[:n_support], s_local, episode.way)
    probs, probs_lrp, d_protos, d_q, rel_grads = head_step(
        model.head, protos, maps[n_support:], y, cfg, enable_lrp)

    n = probs.shape[0]
    ce_plain = np.array([cross_entropy(y[i], probs[i]) for i in range(n)])
    accuracy = float(np.mean(np.argmax(probs, axis=1) == y))
    if probs_lrp is None:
        probs_lrp, ce_lrp = probs, np.zeros(n)
    else:
        ce_lrp = np.array([cross_entropy(y[i], probs_lrp[i]) for i in range(n)])

    counts = np.bincount(s_local, minlength=episode.way)
    d_s = d_protos[s_local] / counts[s_local][:, None, None, None]
    _, enc_grads = model.encoder.backward_grad(trace, np.concatenate([d_s, d_q], axis=0))

    loss_plain = float(ce_plain.mean())
    loss_lrp = float(ce_lrp.mean())
    result = EpisodeResult(
        loss_plain=loss_plain, loss_lrp=loss_lrp,
        loss_total=cfg.xi * loss_plain + cfg.lam * loss_lrp,
        probs=probs, probs_lrp=probs_lrp, accuracy=accuracy)
    return result, enc_grads, rel_grads


def _apply(model: FewShotModel, enc_grads, rel_grads, lr: float, momentum: float) -> None:
    sgd_step(model.encoder, enc_grads, lr, momentum)
    if rel_grads is not None:
        sgd_step(model.head.net, rel_grads, lr, momentum)


def train_episode(model: FewShotModel, episode, cfg: TrainConfig,
                  lr: float | None = None) -> EpisodeResult:
    """One full explanation-guided episode: predict, explain, re-weight,
    combine losses, and apply a momentum SGD step."""
    result, enc_grads, rel_grads = episode_gradients(model, episode, cfg)
    _apply(model, enc_grads, rel_grads, cfg.lr if lr is None else lr, cfg.momentum)
    return result


def train_episode_plain(model: FewShotModel, episode, cfg: TrainConfig,
                        lr: float | None = None) -> EpisodeResult:
    """Ordinary episodic step with the explanation branch disabled."""
    result, enc_grads, rel_grads = episode_gradients(model, episode, cfg, enable_lrp=False)
    _apply(model, enc_grads, rel_grads, cfg.lr if lr is None else lr, cfg.momentum)
    return result


LOG_HEADER = "epoch,step,loss_plain,loss_lrp,loss_total,acc"


def train(model: FewShotModel, episodes: Iterator, cfg: TrainConfig,
          log_path: str | None = None, checkpoint_path: str | None = None,
          plain: bool = False) -> list[dict]:
    """Run the episodic schedule, logging one CSV row per episode.

    The learning rate is multiplied by ``cfg.lr_decay`` every
    ``cfg.lr_decay_every`` epochs.  The checkpoint is rewritten after
    each epoch so an interrupted run keeps its last completed epoch.
    """
    step_fn = train_episode_plain if plain else train_episode
    rows: list[dict] = []
    log = open(log_path, "w") if log_path else None
    try:
        if log:
            log.write(LOG_HEADER + "\n")
        lr = cfg.lr
        for epoch in range(1, cfg.epochs + 1):
            if epoch > 1 and cfg.lr_decay_every > 0 and (epoch - 1) % cfg.lr_decay_every == 0:
                lr *= cfg.lr_decay
            for step in range(1, cfg.episodes_per_epoch + 1):
                episode = next(episodes)
                res = step_fn(model, episode, cfg, lr=lr)
                row = {"epoch": epoch, "step": step,
                       "loss_plain": res.loss_plain, "loss_lrp": res.loss_lrp,
                       "loss_total": res.loss_total, "acc": res.accuracy}
                rows.append(row)
                if log:
                    log.write(f"{epoch},{step},{res.loss_plain!r},{res.loss_lrp!r},"
                              f"{res.loss_total!r},{res.accuracy!r}\n")
            if checkpoint_path:
                save_model(model, checkpoint_path)
        if checkpoint_path and cfg.epochs == 0:
            save_model(model, checkpoint_path)
    finally:
        if log:
            log.close()
    return rows
