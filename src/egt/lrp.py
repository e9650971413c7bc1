"""Layer-wise relevance propagation over recorded forward traces.

Two rules redistribute relevance through parameterized layers, each a
rescaling around the layer's own pull-back ``grad_input``:

* epsilon rule (dense): ``rel_in[i] = sum_j rel_out[j] * z_ij / (y_j +
  eps*sign(y_j))`` with ``z_ij = x_i * w_ij`` and ``sign(0) := +1``;
* z+ rule (conv; alpha-beta at alpha = 1, beta = 0, Montavon et al.
  2019): ``rel_in[i] = sum_j rel_out[j] * z_ij^+ / y_j^+`` where
  ``(.)^+ = max(., 0)`` and ``y_j`` is the recorded pre-activation; a
  zero denominator contributes zero.  On an input without negative
  entries (images in [0, 1], relu maps and their pools: every conv input
  of both networks) this is one fold, ``x * grad_input(rel_out / y^+,
  W^+)``; a signed input adds ``x^- * grad_input(rel_out / y^+, W^-)``.
  Its zeros are all ``+0.0``.

Bias terms sit inside ``y_j`` but never receive an input share: bias
relevance is absorbed.  Conservation is therefore exact only on
bias-free stacks.  Parameter-free layers pass relevance through: relu
keeps it unchanged, flatten and max pooling apply their own ``backward``
to it (max pooling routes each window's relevance to the winner that
``backward`` derives again from the recorded input and output, the
lowest tap on ties), and average pooling splits proportionally to each
input's contribution, falling back to an equal split when a window sums
to exactly zero.

Every array carries the trace's leading row axis, and rows never mix:
row ``b`` of an input relevance depends only on row ``b`` of the
activations and of the output relevance.  Relevance shapes mirror the
activation shapes of the trace, so conv layers run the same
unrolled-window machinery as the gradient pass instead of
materializing a dense matrix.

The pass is read at the network input only (f_p, the input of the
relation net or the cosine vector, in the paper), so :func:`lrp_backward`
returns that one array.  A row whose output relevance is all zero (a
dead row) comes back ``+0.0``.  Linear layers, and every layer above the
lowest one, run on all rows: a GEMM over all rows may round a row
differently than one over fewer rows.  Below the lowest Linear layer
(from the top, in a net without one) every rule runs on the live rows
only, gathered once, and the result is scattered into zeros at the end.
There every step is elementwise or, in the conv rules, a ``matmul``
stacked per row, so a live row comes out as it would among all rows, bit
for bit.  The relation head explains one pair per query, 16 live rows of
80 at the gate's shapes.  Whether the z+ rule takes its signed branch
then depends on the live rows alone; on a row without negative inputs
that branch adds only zeros, which the closing ``+ 0.0`` makes ``+0.0``,
so a live row's values and zero signs are the same either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, NumericError
from .tensornet import (AvgPool2d, Conv2d, Flatten, ForwardTrace, LayerTrace,
                        Linear, MaxPool2d, Network, ReLU)

Array = np.ndarray

_PARAM_RULES = ("epsilon", "alpha")


def default_rule_map() -> dict[str, str]:
    return {"linear": "epsilon", "conv2d": "alpha"}


@dataclass
class LrpConfig:
    """Rule assignment and rule constants for one relevance pass; ``alpha`` must be 1."""

    epsilon: float = 0.001
    alpha: float = 1.0
    rule_map: dict[str, str] = field(default_factory=default_rule_map)

    def __post_init__(self) -> None:
        if not 0 <= self.epsilon < math.inf:
            raise ConfigError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if self.alpha != 1:
            raise ConfigError(f"alpha is fixed at 1 (the z+ rule), got {self.alpha}")
        for kind, rule in self.rule_map.items():
            if kind not in ("linear", "conv2d"):
                raise ConfigError(f"rule_map keys must be linear/conv2d, got {kind!r}")
            if rule not in _PARAM_RULES:
                raise ConfigError(f"unknown relevance rule {rule!r} for {kind!r}")

    def rule_for(self, kind: str) -> str:
        try:
            return self.rule_map[kind]
        except KeyError:
            raise ConfigError(f"no relevance rule configured for layer kind {kind!r}") from None


def _safe_div(num: Array, denom: Array, keep) -> Array:
    """Elementwise num/denom where ``keep`` holds, zero elsewhere."""
    return np.divide(num, denom, out=np.zeros_like(num), where=keep)


def epsilon_divide(num: Array, z: Array, epsilon: float) -> Array:
    """The epsilon rule's one division: ``num / (z + epsilon*sign(z))``, ``sign(0) := +1``,
    and 0 where that is 0; :func:`lrp_epsilon` and ``heads.cosine_explain`` divide here."""
    denom = z + epsilon * np.where(z >= 0, 1.0, -1.0)
    return _safe_div(num, denom, denom != 0)


def _check_rows(layer, x: Array, *outs: Array) -> None:
    """Refuse ``x`` unless it is rows ``(B, *in_shape)``, ``outs`` unless ``(B, *out_shape)``."""
    try:
        if x.ndim < 2:
            raise ContractError("no row axis")
        rows = (x.shape[0],) + layer.out_shape(x.shape[1:])
    except ContractError as err:
        raise ContractError(f"{layer.kind} input {x.shape} is not rows (B, ...): {err}") from None
    if any(out.shape != rows for out in outs):
        raise ContractError(f"{layer.kind} output shapes {[out.shape for out in outs]} "
                            f"must all be {rows} for input {x.shape}")


def lrp_epsilon(layer: Linear | Conv2d, x: Array, y: Array, rel_out: Array,
                epsilon: float) -> Array:
    """Epsilon rule for a linear map (dense or convolutional)."""
    _check_rows(layer, x, y, rel_out)
    if not epsilon >= 0:
        raise ConfigError(f"epsilon must be >= 0, got {epsilon}")
    return x * layer.grad_input(epsilon_divide(rel_out, y, epsilon), x.shape[1:])


def lrp_alpha(layer: Linear | Conv2d, x: Array, y: Array, rel_out: Array) -> Array:
    """z+ rule (alpha 1, beta 0) with recorded denominators."""
    _check_rows(layer, x, y, rel_out)
    sp = _safe_div(rel_out, y, y > 0)
    in_shape = x.shape[1:]
    signed = (x < 0).any()
    rel = ((np.maximum(x, 0.0) if signed else x)
           * layer.grad_input(sp, in_shape, np.maximum(layer.weight, 0.0)))
    if signed:
        rel += np.minimum(x, 0.0) * layer.grad_input(sp, in_shape, np.minimum(layer.weight, 0.0))
    return rel + 0.0  # maps -0.0 to +0.0


def lrp_passthrough(layer, entry: LayerTrace, rel_out: Array) -> Array:
    """Relevance through parameter-free layers, for the recorded application ``entry``."""
    x = entry.input
    _check_rows(layer, x, rel_out)
    if isinstance(layer, ReLU):
        return rel_out.copy()
    if isinstance(layer, (Flatten, MaxPool2d)):
        return layer.backward(entry, rel_out)[0]
    if not isinstance(layer, AvgPool2d):
        raise ConfigError(f"layer kind {layer.kind!r} has no pass-through rule")
    sums = layer.window_sums(x)
    keep = sums != 0
    spread = (~keep) * (1.0 / (layer.kernel * layer.kernel))
    return layer.untap(((_safe_div(tap, sums, keep) + spread) * rel_out
                        for tap in layer.taps(x)), x.shape)


def _apply_rule(layer, entry: LayerTrace, rel_out: Array, cfg: LrpConfig) -> Array:
    """Relevance at ``layer``'s input, by the rule ``cfg`` assigns it, for ``entry``."""
    if not isinstance(layer, (Linear, Conv2d)):
        return lrp_passthrough(layer, entry, rel_out)
    if cfg.rule_for(layer.kind) == "epsilon":
        return lrp_epsilon(layer, entry.input, entry.output, rel_out, cfg.epsilon)
    return lrp_alpha(layer, entry.input, entry.output, rel_out)


def lrp_backward(net: Network, trace: ForwardTrace, output_relevance: Array,
                 cfg: LrpConfig | None = None) -> Array:
    """The relevance at the network input, shaped like the traced input.

    ``output_relevance`` has the traced output's rows.  The rows holding a
    nonzero entry of it are the live rows; below the lowest Linear layer
    the rules run on those only, and every other row of the result is
    ``+0.0`` (see the module docstring).
    """
    cfg = cfg or LrpConfig()
    r = np.asarray(output_relevance, dtype=np.float64)
    if r.shape != trace.entries[-1].output.shape:
        raise ContractError(
            f"output relevance shape {r.shape} does not match traced output "
            f"{trace.entries[-1].output.shape}")
    # a row without relevance keeps none on the way down: no rule mixes rows
    live = np.flatnonzero(np.any(r != 0, axis=tuple(range(1, r.ndim))))
    gather = len(live) < len(r)
    rows = live if gather else slice(None)
    low = min((i for i, layer in enumerate(net.layers) if isinstance(layer, Linear)),
              default=len(net.layers))
    steps = list(zip(net.layers, trace.entries))
    for layer, entry in reversed(steps[low:]):
        r = _apply_rule(layer, entry, r, cfg)
    r = r[rows]
    for layer, entry in reversed(steps[:low]):
        r = _apply_rule(layer, LayerTrace(entry.input[rows], entry.output[rows]), r, cfg)
    if not np.isfinite(r).all():
        raise NumericError("relevance pass produced non-finite values")
    if not gather:
        return r
    rel = np.zeros(trace.entries[0].input.shape)
    rel[live] = r
    return rel


def normalize_relevance(rel: Array) -> Array:
    """Scale relevance into [-1, 1] by its max magnitude; zero stays zero."""
    rel = np.asarray(rel, dtype=np.float64)
    peak = np.abs(rel).max()
    if peak == 0.0:
        return rel.copy()
    return rel / peak
