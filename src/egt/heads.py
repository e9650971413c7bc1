"""Metric-based few-shot classifier heads and relevance initialization.

Both heads speak one protocol, shared by ``model.probs_from_maps``
(evaluation), ``model.explain_input`` and the EGT step of
``training.episode_gradients``, so none of them re-implements a head.
f_p is the processed classifier input of a query: what the head scores.

* ``head.scores(protos, query_maps, weights=None) -> (scores [n, K], trace)``;
  ``weights`` shaped like f_p multiply it element-wise before scoring,
  and the probabilities are ``scaled_softmax(scores, head.beta)``;
* ``head.relevance_init(scores, probs)`` is the per-class relevance an
  explanation starts from;
* :func:`lrp_through_head` carries it across the head onto f_p, for one
  target class per query;
* ``head.backward(protos, query_maps, passes)`` sums the gradients of
  scoring passes, each ``(weights, scores, trace, dL/dscores)``, into
  ``(d_protos, d_query_maps, relation-net parameter gradients or None)``.
  The weights are constants: no gradient flows into them.

The cosine head scores the flattened maps by cosine similarity, starts
from the log-odds against chance (it has no logits) and explains with
one rule, epsilon over the terms q_i * phat_i; its f_p is the query
vector ``[D]``.  The relation head scores each channel-wise concatenated
(prototype, query) pair with a small trained network whose raw logits
double as the relevance initialization; its f_p is the pair
``[2C, H, W]``, and query ``i``'s weights multiply each of its K pairs.
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


def weighted_features(features: Array, weights: Array) -> Array:
    """Element-wise feature re-weighting; shapes must match exactly."""
    f = np.asarray(features, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if f.shape != w.shape:
        raise ContractError(
            f"feature shape {f.shape} does not match weight shape {w.shape}")
    return f * w


def _flat_rows(x: Array) -> Array:
    """``[n, ...]`` as ``[n, D]``, also for zero rows."""
    x = np.asarray(x, dtype=np.float64)
    return x.reshape(x.shape[0], math.prod(x.shape[1:]))


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

    def scores(self, protos: Array, query_maps: Array,
               weights: Array | None = None) -> tuple[Array, None]:
        """Cosine similarity of the flattened maps: ``[n, K]``, no trace."""
        q = _flat_rows(query_maps)
        if weights is not None:
            q = weighted_features(q, weights)
        return cosine_scores(q, _flat_rows(protos)), None

    def relevance_init(self, scores: Array, probs: Array) -> Array:
        return relevance_init_nonparametric(probs)

    def backward(self, protos: Array, query_maps: Array, passes) -> tuple[Array, Array, None]:
        """Gradients of ``sum(dL/dscores * scores)`` through cosine similarity.

        A pass with weights scored ``v = q * w``, so its query gradient
        is ``w * dL/dv``.
        """
        p, q = _flat_rows(protos), _flat_rows(query_maps)
        pn = np.linalg.norm(p, axis=1)
        d_p, d_q = np.zeros_like(p), np.zeros_like(q)
        for weights, scores, _, grads in passes:
            v = q if weights is None else weighted_features(q, weights)
            vn = np.linalg.norm(v, axis=1)
            gu = grads * scores
            dv = ((grads / pn[None, :]) @ p) / vn[:, None]
            dv -= (gu.sum(axis=1) / vn ** 2)[:, None] * v
            dp = ((grads / vn[:, None]).T @ v) / pn[:, None]
            dp -= (gu.sum(axis=0) / pn ** 2)[:, None] * p
            d_q += dv if weights is None else weights * dv
            d_p += dp
        return d_p.reshape(np.shape(protos)), d_q.reshape(np.shape(query_maps)), None


@dataclass
class RelationHead:
    """Parametric pair-scoring head around a small relation network."""

    net: Network
    beta: float = 1.0
    kind: str = "relation"

    def __post_init__(self) -> None:
        _check_beta(self.beta)
        if self.net.output_shape != (1,):
            raise ContractError(
                f"relation net must emit one logit per pair, got shape {self.net.output_shape}")

    def scores(self, protos: Array, query_maps: Array,
               weights: Array | None = None) -> tuple[Array, ForwardTrace]:
        """Logits ``[n, K]`` from one recorded pass over the n*K pairs.

        Pair ``(i, k)`` is row ``i*K + k`` of the trace; its input is the
        channel-wise concatenation (prototype k, query i), times
        ``weights[i]`` when weights are given.
        """
        protos = np.asarray(protos, dtype=np.float64)
        q = np.asarray(query_maps, dtype=np.float64)
        if protos.shape[1:] != q.shape[1:]:
            raise ContractError(
                f"prototype shape {protos.shape[1:]} does not match query {q.shape[1:]}")
        pairs = relation_pairs(protos, q)
        if weights is not None:
            pairs = weighted_features(pairs, np.broadcast_to(weights[:, None], pairs.shape))
        logits, trace = self.net.forward_recorded(pairs.reshape((-1,) + pairs.shape[2:]))
        return logits[:, 0].reshape(q.shape[0], protos.shape[0]), trace

    def relevance_init(self, scores: Array, probs: Array) -> Array:
        """Logits pass through unchanged (as a copy) as per-class relevance."""
        return np.array(scores, dtype=np.float64)

    def backward(self, protos: Array, query_maps: Array, passes):
        """Pair gradients of every pass, summed, then split into halves.

        The prototype half is summed over queries, the query half over
        classes; the relation-net parameter gradients are summed over
        the passes (``None`` without a pass).
        """
        n, way, channels = len(query_maps), len(protos), np.shape(protos)[1]
        d_pairs = np.zeros((n, way, 2 * channels) + np.shape(protos)[2:])
        param_grads = None
        for weights, _, trace, grads in passes:
            d_in, pg = self.net.backward_grad(trace, grads.reshape(n * way, 1))
            d_in = d_in.reshape(d_pairs.shape)
            d_pairs += d_in if weights is None else d_in * weights[:, None]
            param_grads = pg if param_grads is None else [
                None if a is None else {k: a[k] + b[k] for k in a}
                for a, b in zip(param_grads, pg)]
        return (d_pairs[:, :, :channels].sum(axis=0),
                d_pairs[:, :, channels:].sum(axis=1), param_grads)


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
    targets = np.asarray(targets, dtype=np.intp)
    if targets.shape != (n,) or not np.all((targets >= 0) & (targets < way)):
        raise ContractError(f"target class {targets} out of range for {n} queries x {way} classes")
    if isinstance(head, CosineHead):
        q, p = _flat_rows(query_maps), _flat_rows(protos)
        rel = np.empty_like(q)
        for i, t in enumerate(targets):
            rel[i] = cosine_explain(q[i], p[t], relevance_init[i, t], cfg.epsilon)
        return rel
    if isinstance(head, RelationHead):
        rows = np.arange(n) * way + targets
        init = np.zeros((n * way, 1))
        init[rows, 0] = relevance_init[np.arange(n), targets]
        return lrp_backward(head.net, trace, init, cfg)[0][rows]
    raise ConfigError(f"unknown head kind {type(head).__name__!r}")
