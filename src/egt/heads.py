"""Metric-based few-shot classifier heads and relevance initialization.

Both heads speak one protocol, shared by ``model.probs_from_maps``
(evaluation), ``model.explain_input`` and the EGT step of
``training.episode_gradients``, so none of them re-implements a head.
f_p is the processed classifier input of a query: what the head scores.

* ``head.scores(protos, query_maps, weights=None) -> (scores [n, K], trace)``;
  ``weights`` shaped like f_p multiply it element-wise before scoring,
  and the probabilities are ``scaled_softmax(scores, head.beta)``;
* ``head.block_scores(protos, query_maps) -> scores [E, n, K]`` scores a
  block of E episodes, each bit for bit as ``scores`` would;
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
one rule, epsilon over the terms q_i * phat_i, on all query rows at
once; its f_p is the query vector ``[D]``.  The relation head scores
each channel-wise concatenated (prototype, query) pair with a small
trained network whose raw logits double as the relevance initialization;
its f_p is the pair ``[2C, H, W]``, and query ``i``'s weights multiply
each of its K pairs.  :func:`relation_pairs` builds the pair rows from
the maps and, when the relation net opens with a convolution, that
conv's im2col columns from the maps' unrolls, so the K prototypes and n
queries are unrolled once instead of the n*K pairs, with the same
columns to the bit.  Evaluation's ``block_scores`` runs the same pass
unrecorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConfigError, ContractError, NumericError
from .lrp import LrpConfig, epsilon_divide, lrp_backward
from .tensornet import Conv2d, ForwardTrace, Network, added

Array = np.ndarray

PROB_CLAMP_HIGH = 1.0 - 1e-7
PROB_CLAMP_LOW = 1e-12


def class_sums(features: Array, labels: Array, num_classes: int) -> tuple[Array, Array]:
    """Per-class sums of the rows of ``features`` and each class's row count.

    Each class's rows are added in row order.  A class-major equal-shot
    support (labels ``0,..,0, 1,..,1, ...``, as every sampled episode
    has) is summed in one reduction over a ``(K, shot, ...)`` view; that
    adds each class's rows in the same order as the per-class loop,
    which handles every other layout.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    shot = labels.size // max(num_classes, 1)
    if (shot and labels.shape == (num_classes * shot,) == features.shape[:1]
            and (labels.reshape(num_classes, shot) == np.arange(num_classes)[:, None]).all()):
        return (features.reshape((num_classes, shot) + features.shape[1:]).sum(axis=1),
                np.full(num_classes, shot))
    sums = np.empty((num_classes,) + features.shape[1:])
    counts = np.empty(num_classes, dtype=np.intp)
    for k in range(num_classes):
        members = features[labels == k]
        if members.shape[0] == 0:
            raise ContractError(f"class {k} has no support members")
        sums[k], counts[k] = members.sum(axis=0), members.shape[0]
    return sums, counts


def class_means(sums: Array, counts: Array) -> Array:
    """Per-class sums ``[..., K, ...]`` divided by their counts ``[..., K]``, as ``mean`` does."""
    return sums / counts.reshape(counts.shape + (1,) * (sums.ndim - counts.ndim))


def class_prototypes(features: Array, labels: Array, num_classes: int) -> Array:
    """Mean support embedding per class; labels are episode-local 0..K-1."""
    return class_means(*class_sums(features, labels, num_classes))


def cosine_scores(query_feat: Array, protos: Array) -> Array:
    """Cosine similarity ``[..., n, K]`` of query rows ``[..., n, D]`` against
    prototype rows ``[..., K, D]``.

    Leading axes stack episodes: each is scored by its own BLAS product
    of the same shape, so an episode's scores do not depend on the stack.
    """
    q = np.asarray(query_feat, dtype=np.float64)
    p = np.asarray(protos, dtype=np.float64)
    if (q.ndim < 2 or q.ndim != p.ndim or q.shape[:-2] != p.shape[:-2]
            or q.shape[-1] != p.shape[-1]):
        raise ContractError(f"query rows {q.shape} and prototype rows {p.shape} "
                            "must be [..., n, D] and [..., K, D]")
    qn = np.linalg.norm(q, axis=-1)
    pn = np.linalg.norm(p, axis=-1)
    if (qn == 0).any() or (pn == 0).any():
        raise NumericError("zero-norm vector in cosine similarity (degenerate embedding)")
    return (q @ np.swapaxes(p, -1, -2)) / (qn[..., :, None] * pn[..., None, :])


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
    """Channel-wise (prototype, query) concatenations: ``[n, K, 2C, ...]``.

    ``protos`` is ``[K, C, ...]`` and ``query_maps`` is ``[n, C, ...]``;
    entry ``[i, k]`` pairs prototype ``k`` with query ``i``.  Maps give
    the pair rows, their first-conv unrolls ``[., C*kh*kw, oh*ow]`` the columns.
    """
    (way, c), n = protos.shape[:2], query_maps.shape[0]
    pairs = np.empty((n, way, 2 * c) + protos.shape[2:])
    pairs[:, :, :c] = protos
    pairs[:, :, c:] = query_maps[:, None]
    return pairs


def _weigh_pairs(pairs: Array, weights: Array) -> Array:
    """Scale ``pairs`` ``[n, K, ...]`` in place: query ``i``'s K pairs by ``weights[i]``."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != pairs.shape[:1] + pairs.shape[2:]:
        raise ContractError(f"weight shape {w.shape} does not fit pairs {pairs.shape}")
    pairs *= w[:, None]
    return pairs


def weighted_features(features: Array, weights: Array) -> Array:
    """Element-wise feature re-weighting; shapes must match exactly."""
    f = np.asarray(features, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if f.shape != w.shape:
        raise ContractError(
            f"feature shape {f.shape} does not match weight shape {w.shape}")
    return f * w


def _flat_rows(x: Array, lead: int = 1) -> Array:
    """``[n, ...]`` as ``[n, D]`` (``lead`` leading axes kept), also for zero rows."""
    x = np.asarray(x, dtype=np.float64)
    return x.reshape(x.shape[:lead] + (math.prod(x.shape[lead:]),))


def cosine_explain(query_rows: Array, protos: Array, targets, relevance: Array,
                   epsilon: float) -> Array:
    """Epsilon rule over each query's target cosine similarity: ``[n, D]``.

    Row ``i`` explains the similarity of query row ``i`` to prototype row
    ``targets[i]``, starting from ``relevance[i]``, as a linear form over
    the contributions q_i * phat_i (prototype normalized, the query-norm
    factor held constant).
    """
    q = np.asarray(query_rows, dtype=np.float64)
    p = np.asarray(protos, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.intp)
    relevance = np.asarray(relevance, dtype=np.float64)
    if q.ndim != 2 or p.ndim != 2 or q.shape[1] != p.shape[1]:
        raise ContractError(
            f"query rows {q.shape} and prototype rows {p.shape} must be [n, D] and [K, D]")
    if targets.shape != (len(q),) or relevance.shape != (len(q),):
        raise ContractError(f"targets {targets.shape} and relevance {relevance.shape} "
                            f"must hold one entry per query row ({len(q)})")
    # 1-d norms (dot products): ``norm(axis=1)`` rounds differently
    pn = np.array([np.linalg.norm(row) for row in p])[targets]
    if (pn == 0).any():
        raise NumericError("zero-norm prototype in cosine explanation")
    contrib = q * (p[targets] / pn[:, None])
    return epsilon_divide(relevance[:, None] * contrib, contrib.sum(axis=1)[:, None], epsilon)


def _check_beta(beta: float) -> None:
    """The softmax scale of every head: positive and finite."""
    if not 0 < beta < math.inf:
        raise ConfigError(f"beta must be positive and finite, got {beta}")


@dataclass
class CosineHead:
    """Non-parametric prototype head: cosine scores, beta-scaled softmax."""

    beta: float = 7.0
    kind: ClassVar[str] = "cosine"

    def __post_init__(self) -> None:
        _check_beta(self.beta)

    def scores(self, protos: Array, query_maps: Array,
               weights: Array | None = None) -> tuple[Array, None]:
        """Cosine similarity of the flattened maps: ``[n, K]``, no trace."""
        q = _flat_rows(query_maps)
        if weights is not None:
            q = weighted_features(q, weights)
        return cosine_scores(q, _flat_rows(protos)), None

    def block_scores(self, protos: Array, query_maps: Array) -> Array:
        """Scores ``[E, n, K]`` of E episodes, prototypes ``[E, K, ...]``
        against queries ``[E, n, ...]``, in one batched product."""
        return cosine_scores(_flat_rows(query_maps, 2), _flat_rows(protos, 2))

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
    kind: ClassVar[str] = "relation"

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
        ``weights[i]`` when weights are given.  When the net opens with a
        convolution, that layer's columns are not unrolled from the n*K
        pair rows: :func:`relation_pairs` pairs the unrolls of the K
        prototypes and n queries as it pairs the maps, and a weighted pass
        weighs the columns as the rows, by the unroll of ``weights[i]``.
        Every column is the value (and the padding the ``+0.0``) that
        unrolling the pair rows gives, so the trace and the logits are
        those of ``net.forward_recorded`` on the pair rows, bit for bit.
        """
        return self._pass(protos, query_maps, weights, record=True)

    def block_scores(self, protos: Array, query_maps: Array) -> Array:
        """Logits ``[E, n, K]`` of E episodes, one unrecorded relation-net pass each.

        A pass's rows round differently with its height, so one pass over
        several episodes' pairs would move their logits.
        """
        return np.stack([self._pass(p, q, None, record=False)[0]
                         for p, q in zip(protos, query_maps)])

    def _pass(self, protos: Array, query_maps: Array, weights: Array | None,
              record: bool) -> tuple[Array, ForwardTrace | None]:
        """The relation-net pass of :meth:`scores`, recorded or not, with the same logits."""
        protos = np.asarray(protos, dtype=np.float64)
        q = np.asarray(query_maps, dtype=np.float64)
        if protos.shape[1:] != q.shape[1:]:
            raise ContractError(
                f"prototype shape {protos.shape[1:]} does not match query {q.shape[1:]}")
        first = self.net.layers[0]
        # the pair rows from the maps, and the first conv's columns from their unrolls
        views = [np.asarray] + ([first.unroll] if isinstance(first, Conv2d) else [])
        built = [relation_pairs(view(protos), view(q)) for view in views]
        if weights is not None:
            built = [_weigh_pairs(b, view(weights)) for b, view in zip(built, views)]
        pairs, *cols = [b.reshape((-1,) + b.shape[2:]) for b in built]
        logits, trace = self.net._run(pairs, record, *cols)
        return logits[:, 0].reshape(q.shape[0], protos.shape[0]), trace

    def relevance_init(self, scores: Array, probs: Array) -> Array:
        """Logits pass through unchanged (as a copy) as per-class relevance."""
        return np.array(scores, dtype=np.float64)

    def backward(self, protos: Array, query_maps: Array, passes):
        """Pair gradients of every pass, summed, then split into halves.

        The prototype half is summed over queries, the query half over
        classes; the relation-net parameter gradients are summed over
        the passes (``None`` without a pass).  A weight gradient that is
        still being summed (a ``Future``) is added on the reduction
        worker, in pass order, and comes back pending.
        """
        n, way, channels = len(query_maps), len(protos), np.shape(protos)[1]
        d_pairs = np.zeros((n, way, 2 * channels) + np.shape(protos)[2:])
        param_grads = None
        for weights, _, trace, grads in passes:
            d_in, pg = self.net.backward_grad(trace, grads.reshape(n * way, 1))
            d_in = d_in.reshape(d_pairs.shape)
            d_pairs += d_in if weights is None else _weigh_pairs(d_in, weights)
            param_grads = pg if param_grads is None else [
                None if a is None else {k: added(a[k], b[k]) for k in a}
                for a, b in zip(param_grads, pg)]
        return (d_pairs[:, :, :channels].sum(axis=0),
                d_pairs[:, :, channels:].sum(axis=1), param_grads)


def lrp_through_head(head, protos: Array, query_maps: Array, trace: ForwardTrace | None,
                     relevance_init: Array, targets, cfg: LrpConfig) -> Array:
    """Relevance of f_p for class ``targets[i]`` of query ``i``: ``[n, ...]``.

    ``trace`` and ``relevance_init`` ``[n, K]`` come from ``head.scores``
    and ``head.relevance_init`` on the same prototypes and queries.

    * cosine head: the epsilon rule over the target similarity's terms,
      one row ``[D]`` per query over its flattened map, in one call.
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
        return cosine_explain(_flat_rows(query_maps), _flat_rows(protos), targets,
                              relevance_init[np.arange(n), targets], cfg.epsilon)
    if isinstance(head, RelationHead):
        rows = np.arange(n) * way + targets
        init = np.zeros((n * way, 1))
        init[rows, 0] = relevance_init[np.arange(n), targets]
        return lrp_backward(head.net, trace, init, cfg)[0][rows]
    raise ConfigError(f"unknown head kind {type(head).__name__!r}")
