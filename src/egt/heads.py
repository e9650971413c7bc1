"""Metric-based few-shot classifier heads and relevance initialization.

Both heads speak one protocol, shared by ``model.probs_from_maps``
(evaluation), ``model.explain_input`` and the two head steps of
``training.episode_gradients``, so none of them re-implements a head:

* ``head.scores(protos, query_maps) -> (scores [n, K], trace)``; the
  probabilities are ``scaled_softmax(scores, head.beta)``;
* ``head.relevance_init(scores, probs)`` is the per-class relevance an
  explanation starts from;
* :func:`lrp_through_head` carries it across the head onto the
  processed classifier input f_p, for one target class per query.

The cosine head scores the flattened maps by cosine similarity, starts
from the log-odds against chance (it has no logits) and explains with
one rule, epsilon over the terms q_i * phat_i; its f_p is the query
vector.  The relation head scores each channel-wise concatenated
(prototype, query) pair with a small trained network whose raw logits
double as the relevance initialization; its f_p is the pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, NumericError
from .lrp import LrpConfig, lrp_backward
from .tensornet import ForwardTrace, Network

Array = np.ndarray

PROB_CLAMP_HIGH = 1.0 - 1e-7
PROB_CLAMP_LOW = 1e-12


def class_prototypes(features: Array, labels: Array, num_classes: int) -> Array:
    """Mean support embedding per class; labels are episode-local 0..K-1."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    protos = np.empty((num_classes,) + features.shape[1:])
    for k in range(num_classes):
        members = features[labels == k]
        if members.shape[0] == 0:
            raise ContractError(f"class {k} has no support members")
        protos[k] = members.mean(axis=0)
    return protos


def cosine_scores(query_feat: Array, protos: Array) -> Array:
    """Cosine similarity ``[n, K]`` of query rows ``[n, D]`` against prototype rows ``[K, D]``."""
    q = np.asarray(query_feat, dtype=np.float64)
    p = np.asarray(protos, dtype=np.float64)
    if q.ndim != 2 or p.ndim != 2 or q.shape[1] != p.shape[1]:
        raise ContractError(
            f"query rows {q.shape} and prototype rows {p.shape} must be [n, D] and [K, D]")
    qn = np.linalg.norm(q, axis=1)
    pn = np.linalg.norm(p, axis=1)
    if (qn == 0).any() or (pn == 0).any():
        raise NumericError("zero-norm vector in cosine similarity (degenerate embedding)")
    return (q @ p.T) / np.outer(qn, pn)


def scaled_softmax(scores: Array, beta: float) -> Array:
    """Softmax of beta-scaled scores along the last axis, max-shifted."""
    if not beta > 0:
        raise ContractError(f"beta must be positive, got {beta}")
    z = beta * np.asarray(scores, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def relevance_init_nonparametric(probs: Array) -> Array:
    """Log-odds against chance: R_c = log(P_c / (1 - P_c) * (K - 1)).

    Positive exactly when P_c beats the uniform guess 1/K.  Probabilities
    are clamped away from 0 and 1 so the result stays finite.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.shape[-1] < 2:
        raise ContractError("need at least 2 classes for relevance initialization")
    p = np.clip(p, PROB_CLAMP_LOW, PROB_CLAMP_HIGH)
    return np.log(p / (1.0 - p) * (p.shape[-1] - 1))


def relation_pairs(protos: Array, query_maps: Array) -> Array:
    """Channel-wise (prototype, query) concatenations: ``[n, K, 2C, H, W]``.

    ``protos`` is ``[K, C, H, W]`` and ``query_maps`` is ``[n, C, H, W]``;
    entry ``[i, k]`` pairs prototype ``k`` with query ``i``.
    """
    n, way = query_maps.shape[0], protos.shape[0]
    return np.concatenate(
        [np.broadcast_to(protos[None], (n,) + protos.shape),
         np.broadcast_to(query_maps[:, None], (n, way) + query_maps.shape[1:])],
        axis=2)


def cosine_explain(query_feat: Array, proto: Array, relevance: float,
                   epsilon: float) -> Array:
    """Epsilon rule over one cosine similarity's contribution terms.

    The target-class similarity is treated as a linear form over the
    contributions q_i * phat_i (prototype normalized, the query-norm
    factor held constant).
    """
    q = np.asarray(query_feat, dtype=np.float64)
    p = np.asarray(proto, dtype=np.float64)
    if q.shape != p.shape:
        raise ContractError(f"query shape {q.shape} does not match prototype {p.shape}")
    pn = np.linalg.norm(p)
    if pn == 0:
        raise NumericError("zero-norm prototype in cosine explanation")
    contrib = q * (p / pn)
    total = contrib.sum()
    denom = total + epsilon * (1.0 if total >= 0 else -1.0)
    if denom == 0.0:
        return np.zeros_like(q)
    return float(relevance) * contrib / denom


def _check_beta(beta: float) -> None:
    """The softmax scale of every head: positive and finite."""
    if not 0 < beta < math.inf:
        raise ConfigError(f"beta must be positive and finite, got {beta}")


@dataclass
class CosineHead:
    """Non-parametric prototype head: cosine scores, beta-scaled softmax."""

    beta: float = 7.0
    kind: str = "cosine"

    def __post_init__(self) -> None:
        _check_beta(self.beta)

    def scores(self, protos: Array, query_maps: Array) -> tuple[Array, None]:
        """Cosine similarity of the flattened maps: ``[n, K]``, no trace."""
        q, p = np.asarray(query_maps), np.asarray(protos)
        return cosine_scores(q.reshape(q.shape[0], -1), p.reshape(p.shape[0], -1)), None

    def relevance_init(self, scores: Array, probs: Array) -> Array:
        return relevance_init_nonparametric(probs)


@dataclass
class RelationHead:
    """Parametric pair-scoring head around a small relation network."""

    net: Network
    beta: float = 1.0
    kind: str = "relation"

    def __post_init__(self) -> None:
        _check_beta(self.beta)

    def scores(self, protos: Array, query_maps: Array) -> tuple[Array, ForwardTrace]:
        """Logits ``[n, K]`` from one recorded pass over the n*K pairs.

        Pair ``(i, k)`` is row ``i*K + k`` of the trace; its input is the
        channel-wise concatenation (prototype k, query i).
        """
        protos = np.asarray(protos, dtype=np.float64)
        q = np.asarray(query_maps, dtype=np.float64)
        if protos.shape[1:] != q.shape[1:]:
            raise ContractError(
                f"prototype shape {protos.shape[1:]} does not match query {q.shape[1:]}")
        pairs = relation_pairs(protos, q)
        logits, trace = self.net.forward_recorded(pairs.reshape((-1,) + pairs.shape[2:]))
        if logits.shape[1:] != (1,):
            raise ContractError(
                f"relation net must emit one logit per pair, got shape {logits.shape[1:]}")
        return logits[:, 0].reshape(q.shape[0], protos.shape[0]), trace

    def relevance_init(self, scores: Array, probs: Array) -> Array:
        """Logits pass through unchanged (as a copy) as per-class relevance."""
        return np.array(scores, dtype=np.float64)


def lrp_through_head(head, protos: Array, query_maps: Array, trace: ForwardTrace | None,
                     relevance_init: Array, targets, cfg: LrpConfig) -> Array:
    """Relevance of f_p for class ``targets[i]`` of query ``i``: ``[n, ...]``.

    ``trace`` and ``relevance_init`` ``[n, K]`` come from ``head.scores``
    and ``head.relevance_init`` on the same prototypes and queries.

    * cosine head: the epsilon rule over the target similarity's terms,
      one row ``[D]`` per query over its flattened map.
    * relation head: one LRP pass through the relation network over all
      n*K pairs, with relevance only on rows ``i*K + targets[i]``; row
      ``i`` covers that pair's prototype half and query half.
    """
    relevance_init = np.asarray(relevance_init, dtype=np.float64)
    n, way = relevance_init.shape
    targets = np.asarray(targets)
    if targets.shape != (n,) or not np.all((targets >= 0) & (targets < way)):
        raise ContractError(f"target class {targets} out of range for {n} queries x {way} classes")
    if isinstance(head, CosineHead):
        q, p = np.asarray(query_maps), np.asarray(protos)
        return np.stack([
            cosine_explain(q[i].reshape(-1), p[t].reshape(-1), relevance_init[i, t], cfg.epsilon)
            for i, t in enumerate(targets)])
    if isinstance(head, RelationHead):
        rows = np.arange(n) * way + targets
        init = np.zeros((n * way, 1))
        init[rows, 0] = relevance_init[np.arange(n), targets]
        return lrp_backward(head.net, trace, init, cfg)[0][rows]
    raise ConfigError(f"unknown head kind {type(head).__name__!r}")
