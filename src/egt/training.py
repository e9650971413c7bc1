"""Episodic training with explanation-guided feature re-weighting.

Each episode runs one step for either head, over the head protocol of
:mod:`egt.heads`: (1) a plain prediction for every query, (2) an
explanation of the winning class whose normalized relevance becomes a
per-feature weight w = 1 + R/max|R| in [0, 2] on the head's input f_p,
(3) a second prediction from the re-weighted f_p, and (4) a combined
loss xi * CE(plain) + lambda * CE(re-weighted), whose gradient the head
carries back to the prototype and query maps (``head.backward``).
Features with positive relevance for the predicted class are amplified
and features with negative relevance are damped, so the gradient
pressure concentrates on evidence the classifier itself considers
relevant.

With the cosine head no feature is ever damped: encoder features are
>= 0 (ReLU, then average pooling), so every contribution q_i * phat_i
is >= 0, and the winner's log-odds relevance is >= 0 because its
probability is at least 1/K.  Every weight therefore lies in [1, 2].
Negative relevance, and so a weight below 1, can only come from the
relation head, whose LRP pass runs through signed network weights.

For the cosine head the weight even has a closed form.  Query ``i``'s
explanation is ``r * c / (sum(c) + epsilon)`` with ``c = q * phat_t``
(the query features times the unit target prototype) and the winner's
relevance ``r`` >= 0, and ``normalize_relevance`` cancels both ``r`` and
the denominator: ``w = 1 + c / max(c)``, or all ones when ``r`` or ``c``
is 0.  So epsilon changes cosine-head training only by rounding; it
matters for the relation head and for input heatmaps.  The step still
builds the weights through the explanation, as for every head: the
closed form rounds differently in about 2% of the weights (1 ulp).

The explanation weights are constants in the backward pass
(stop-gradient): the re-weighted loss reaches the encoder only through
the features it multiplies, never through the explanation itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import ConfigError, ContractError, NumericError

# cosine_explain, cosine_scores, lrp_backward: not called here; benchmarks/spans.py wraps them here.
from .heads import (
    PROB_CLAMP_LOW,
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
    return -math.log(max(float(probs[label]), PROB_CLAMP_LOW))


def lrp_weights(rel_norm: Array) -> Array:
    """Feature weights 1 + R for normalized relevance R in [-1, 1]."""
    r = np.asarray(rel_norm, dtype=np.float64)
    peak = np.abs(r).max() if r.size else 0.0
    if peak > 1.0 + 1e-12:
        raise ContractError(
            f"normalized relevance must lie in [-1, 1], got peak {peak}")
    return 1.0 + r


def _softmax_ce_grads(probs: Array, labels: Array, beta: float, coef: float) -> Array:
    """d(coef * sum_i CE_i)/d(scores): beta * (p - onehot), clamp-aware.

    Rows whose true-class probability sits at the floor ``PROB_CLAMP_LOW``
    contribute a locally constant loss, hence a zero gradient.
    """
    n = probs.shape[0]
    g = probs.copy()
    g[np.arange(n), labels] -= 1.0
    g *= beta * coef
    g[probs[np.arange(n), labels] <= PROB_CLAMP_LOW] = 0.0
    return g


def episode_gradients(model: FewShotModel, episode, cfg: TrainConfig,
                      enable_lrp: bool = True):
    """Loss report plus parameter gradients, without applying an update.

    The one EGT step for every head: the plain pass (with ``xi`` > 0)
    and the re-weighted pass (with LRP and ``lam`` > 0) each add their
    CE gradient through ``head.backward``.  The relation-net gradients
    are ``None`` for the cosine head, and without a pass.
    """
    if episode.way != cfg.way:
        raise ContractError(
            f"episode way {episode.way} does not match config way {cfg.way}")
    head = model.head
    images = np.concatenate([episode.support_images, episode.query_images], axis=0)
    maps, trace = model.encode_recorded(images)
    n_support = episode.support_images.shape[0]
    s_local, y = episode.support_local, episode.query_local
    protos = class_prototypes(maps[:n_support], s_local, episode.way)
    qmaps = maps[n_support:]
    n = qmaps.shape[0]
    scores, head_trace = head.scores(protos, qmaps)
    probs = scaled_softmax(scores, head.beta)
    passes = []
    if cfg.xi != 0.0:
        passes.append((None, scores, head_trace,
                       _softmax_ce_grads(probs, y, head.beta, cfg.xi / n)))

    probs_lrp = None
    if enable_lrp:
        rel_init = head.relevance_init(scores, probs)
        rels = lrp_through_head(head, protos, qmaps, head_trace, rel_init,
                                np.argmax(probs, axis=1), cfg.lrp)
        weights = np.array([lrp_weights(normalize_relevance(r)) for r in rels])
        scores_lrp, trace_lrp = head.scores(protos, qmaps, weights)
        probs_lrp = scaled_softmax(scores_lrp, head.beta)
        if cfg.lam != 0.0:
            passes.append((weights, scores_lrp, trace_lrp,
                           _softmax_ce_grads(probs_lrp, y, head.beta, cfg.lam / n)))
    d_protos, d_q, rel_grads = head.backward(protos, qmaps, passes)

    ce_plain = np.array([cross_entropy(y[i], probs[i]) for i in range(n)])
    accuracy = float(np.mean(np.argmax(probs, axis=1) == y))
    if probs_lrp is None:
        probs_lrp, ce_lrp = probs, np.zeros(n)
    else:
        ce_lrp = np.array([cross_entropy(y[i], probs_lrp[i]) for i in range(n)])

    counts = np.bincount(s_local, minlength=episode.way)
    d_s = d_protos[s_local] / counts[s_local][:, None, None, None]
    # Nothing reads the images' gradient; sgd_step checks every parameter gradient.
    _, enc_grads = model.encoder.backward_grad(trace, np.concatenate([d_s, d_q], axis=0),
                                               input_grad=False)

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
    each epoch so an interrupted run keeps its last completed epoch.  A
    :class:`NumericError` in a step is raised again with the step named,
    as ``epoch E step S: <message>``.
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
                try:
                    res = step_fn(model, next(episodes), cfg, lr=lr)
                except NumericError as exc:
                    raise NumericError(f"epoch {epoch} step {step}: {exc}") from exc
                values = (epoch, step, res.loss_plain, res.loss_lrp, res.loss_total,
                          res.accuracy)
                rows.append(dict(zip(LOG_HEADER.split(","), values)))
                if log:
                    log.write(",".join(map(repr, values)) + "\n")
            if checkpoint_path:
                save_model(model, checkpoint_path)
        if checkpoint_path and cfg.epochs == 0:
            save_model(model, checkpoint_path)
    finally:
        if log:
            log.close()
    return rows
