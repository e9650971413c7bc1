"""Encoder/head assembly and the EGT1 binary checkpoint format.

A model is a convolutional encoder that ends at a spatial feature map
plus one of the two few-shot heads.  The cosine head flattens the map
into a vector; the relation head keeps the map and scores concatenated
(prototype, query) pairs with its own small network.

Checkpoint layout (EGT1):

    EGT1\n
    head kind=<cosine|relation> beta=<float>\n
    encoder input=<CxHxW>\n
    layer <description>\n          (one per encoder layer)
    relation input=<CxHxW>\n       (relation head only)
    layer <description>\n          (one per relation layer)
    end\n
    <raw little-endian float32 parameter blocks>

Parameter blocks follow header order: encoder layers first, then
relation layers, weight before bias within a layer.  Older head lines
may end in ``variant=query``, the one explanation rule; it still loads.
Any other key a header line's schema does not name is refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DataFormatError, parse_dims, parse_fields
from .heads import (
    CosineHead,
    RelationHead,
    class_prototypes,
    cosine_scores,  # noqa: F401 -- not called here; benchmarks/spans.py wraps it in this module
    lrp_through_head,
    scaled_softmax,
)
from .lrp import LrpConfig, lrp_backward
from .tensornet import (
    AvgPool2d,
    Conv2d,
    Flatten,
    ForwardTrace,
    Layer,
    LayerTrace,
    Linear,
    MaxPool2d,
    Network,
    ReLU,
    describe_layer,
    layer_from_description,
)

Array = np.ndarray

CHECKPOINT_MAGIC = b"EGT1\n"

DEFAULT_WIDTHS = (8, 16, 32)


@dataclass
class FewShotModel:
    """Convolutional encoder paired with a few-shot classifier head."""

    encoder: Network
    head: CosineHead | RelationHead

    def __post_init__(self) -> None:
        if isinstance(self.head, RelationHead):
            c, *rest = self.encoder.output_shape
            if self.head.net.input_shape != (2 * c, *rest):
                raise ContractError(
                    f"relation net input {self.head.net.input_shape} cannot pair "
                    f"encoder maps {self.encoder.output_shape}")

    @property
    def head_kind(self) -> str:
        return self.head.kind

    def encode(self, images: Array) -> Array:
        return self.encoder.forward(np.asarray(images, dtype=np.float64))

    def encode_recorded(self, images: Array) -> tuple[Array, ForwardTrace]:
        return self.encoder.forward_recorded(np.asarray(images, dtype=np.float64))

    def networks(self) -> list[Network]:
        nets = [self.encoder]
        if isinstance(self.head, RelationHead):
            nets.append(self.head.net)
        return nets


def build_encoder(in_shape: tuple[int, int, int], rng: np.random.Generator,
                  widths: tuple[int, ...] = DEFAULT_WIDTHS) -> Network:
    """Stack of conv+relu+pool blocks ending at a spatial map.

    All blocks but the last pool with max, the last with average; each
    pool halves the spatial side, so the input sides must be divisible
    by 2**len(widths).
    """
    c, h, w = in_shape
    if len(widths) < 1:
        raise ConfigError("encoder needs at least one block")
    factor = 2 ** len(widths)
    if h % factor or w % factor:
        raise ConfigError(
            f"input sides {h}x{w} must be divisible by {factor} "
            f"for {len(widths)} pooling stages")
    layers: list[Layer] = []
    prev = c
    for i, width in enumerate(widths):
        layers.append(Conv2d.he_init(prev, width, 3, rng, stride=1, padding=1))
        layers.append(ReLU())
        pool = AvgPool2d(2, 2) if i == len(widths) - 1 else MaxPool2d(2, 2)
        layers.append(pool)
        prev = width
    return Network(in_shape, layers)


def build_relation_net(pair_shape: tuple[int, int, int], rng: np.random.Generator,
                       hidden: int = 64) -> Network:
    """Pair scorer: conv block, pooled, then a two-layer dense tail to one logit."""
    c2, h, w = pair_shape
    if c2 % 2:
        raise ConfigError(f"pair channels must be even, got {c2}")
    mid = c2 // 2
    layers: list[Layer] = [Conv2d.he_init(c2, mid, 3, rng, stride=1, padding=1), ReLU()]
    if h >= 2 and w >= 2:
        layers.append(AvgPool2d(2, 2))
        h, w = h // 2, w // 2
    layers += [Flatten(),
               Linear.he_init(mid * h * w, hidden, rng), ReLU(),
               Linear.he_init(hidden, 1, rng)]
    return Network(pair_shape, layers)


def build_model(head_kind: str, in_shape: tuple[int, int, int],
                rng: np.random.Generator, widths: tuple[int, ...] = DEFAULT_WIDTHS,
                beta: float | None = None, hidden: int = 64) -> FewShotModel:
    encoder = build_encoder(in_shape, rng, widths)
    c, h, w = encoder.output_shape
    if head_kind == "cosine":
        head = CosineHead(beta=7.0 if beta is None else beta)
    elif head_kind == "relation":
        net = build_relation_net((2 * c, h, w), rng, hidden=hidden)
        head = RelationHead(net, beta=1.0 if beta is None else beta)
    else:
        raise ConfigError(f"unknown head kind {head_kind!r}")
    return FewShotModel(encoder, head)


def probs_from_maps(model: FewShotModel, proto_maps: Array, query_maps: Array) -> Array:
    """Class probabilities for each query map given prototype maps."""
    return scaled_softmax(model.head.scores(proto_maps, query_maps)[0], model.head.beta)


def episode_probs(model: FewShotModel, support_images: Array, support_local: Array,
                  way: int, query_images: Array) -> Array:
    """End-to-end class probabilities for a batch of query images."""
    smaps = model.encode(support_images)
    qmaps = model.encode(query_images)
    protos = class_prototypes(smaps, support_local, way)
    return probs_from_maps(model, protos, qmaps)


@dataclass
class ExplainResult:
    """One query's explanation: head outputs plus per-class relevance."""

    scores: Array
    probabilities: Array
    relevance_init: Array
    feature_relevance: dict[int, Array]
    input_relevance: dict[int, Array]


def explain_input(model: FewShotModel, support_images: Array, support_local: Array,
                  way: int, query_image: Array, lrp_cfg=None,
                  targets=None) -> ExplainResult:
    """Propagate class relevance from the head down to query pixels.

    For the cosine head the feature relevance lives on the flattened
    query embedding; for the relation head it covers the (prototype,
    query) pair and the query half is what continues into the encoder.
    ``query_image`` is one image ``(C, H, W)``, run as a one-row batch;
    the result's arrays carry no row axis.  ``targets`` defaults to
    every class.  The head scores the query once; the head and encoder
    relevance passes each run once for all targets, on the query's
    traces repeated to one copy per target, and each row equals that
    target's one-query pass bit for bit.
    """
    lrp_cfg = LrpConfig() if lrp_cfg is None else lrp_cfg
    smaps = model.encode(support_images)
    qmaps, qtrace = model.encode_recorded(np.asarray(query_image)[None])
    protos = class_prototypes(smaps, support_local, way)
    scores, trace = model.head.scores(protos, qmaps)
    probs = scaled_softmax(scores, model.head.beta)
    rel_init = model.head.relevance_init(scores, probs)

    targets = [int(t) for t in (range(way) if targets is None else targets)]
    reps = len(targets)
    rels = lrp_through_head(model.head, protos, np.repeat(qmaps, reps, 0),
                            _tile_trace(trace, reps), np.repeat(rel_init, reps, 0),
                            targets, lrp_cfg)
    # f_p ends with the query map for both heads: it is the whole cosine
    # vector and the second channel half of a relation pair.
    map_rel = np.reshape([r.reshape(-1)[-qmaps.size:] for r in rels],
                         (reps,) + qmaps.shape[1:])
    rows = lrp_backward(model.encoder, _tile_trace(qtrace, reps), map_rel, lrp_cfg)[0]
    return ExplainResult(scores=scores[0], probabilities=probs[0],
                         relevance_init=rel_init[0],
                         feature_relevance=dict(zip(targets, rels)),
                         input_relevance=dict(zip(targets, rows)))


def _tile_trace(trace: ForwardTrace | None, reps: int) -> ForwardTrace | None:
    """``trace`` repeated ``reps`` times along its rows: row ``t*B + b`` is row ``b``."""
    if trace is None:
        return None
    return ForwardTrace([LayerTrace(*(np.tile(a, (reps,) + (1,) * (a.ndim - 1))
                                      for a in (e.input, e.output)))
                         for e in trace.entries])


def _shape_token(shape: tuple[int, ...]) -> str:
    return "x".join(str(d) for d in shape)


def save_model(model: FewShotModel, path: str) -> None:
    lines = []
    head = model.head
    if isinstance(head, CosineHead):
        lines.append(f"head kind=cosine beta={head.beta!r}")
    elif isinstance(head, RelationHead):
        lines.append(f"head kind=relation beta={head.beta!r}")
    else:
        raise ConfigError(f"cannot save head {type(head).__name__!r}")
    lines.append(f"encoder input={_shape_token(model.encoder.input_shape)}")
    lines += [f"layer {describe_layer(layer)}" for layer in model.encoder.layers]
    if isinstance(head, RelationHead):
        lines.append(f"relation input={_shape_token(head.net.input_shape)}")
        lines += [f"layer {describe_layer(layer)}" for layer in head.net.layers]
    lines.append("end")
    blocks = []
    for net in model.networks():
        for _, layer in net.param_layers():
            blocks.append(layer.weight.astype("<f4").tobytes())
            blocks.append(layer.bias.astype("<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        for block in blocks:
            fh.write(block)


def _parse_head_line(line: str, offset: int):
    tag, *tokens = line.split() or [""]
    if tag != "head":
        raise DataFormatError(f"expected head line, got {line!r}", offset)
    kv = parse_fields(tokens, {"kind": str, "beta": float}, offset, optional=("variant",))
    kind, beta = kv["kind"], kv["beta"]
    if not (np.isfinite(beta) and beta > 0):
        raise DataFormatError(f"head beta must be positive and finite, got {beta}", offset)
    if kv.get("variant", "query") != "query":
        raise DataFormatError(f"removed explain variant {kv['variant']!r}", offset)
    if kind in ("cosine", "relation"):
        return kind, beta
    raise DataFormatError(f"unknown head kind {kind!r}", offset)


def load_model(path: str) -> FewShotModel:
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(CHECKPOINT_MAGIC):
        raise DataFormatError("not an EGT1 checkpoint (bad magic)", offset=0)
    marker = b"\nend\n"
    cut = raw.find(marker)
    if cut < 0:
        raise DataFormatError("checkpoint header is missing its end line",
                              offset=len(raw))
    try:
        header = raw[len(CHECKPOINT_MAGIC):cut + 1].decode("ascii")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"checkpoint header is not ascii: {exc}") from exc
    start = cut + len(marker)
    payload = raw[start:]

    lines = header.split("\n")[:-1]
    if not lines:
        raise DataFormatError("checkpoint header is empty")
    offset = len(CHECKPOINT_MAGIC)
    kind, beta = _parse_head_line(lines[0], offset)

    sections: list[tuple[str, tuple[int, ...], list[Layer]]] = []
    current: list[Layer] | None = None
    for prev, line in zip(lines, lines[1:]):
        offset += len(prev) + 1
        tag, *tokens = line.split() or [""]
        if tag in ("encoder", "relation"):
            current = []
            in_shape = parse_fields(tokens, {"input": parse_dims}, offset)["input"]
            sections.append((tag, in_shape, current))
        elif tag == "layer":
            if current is None:
                raise DataFormatError(f"layer line before any network section: {line!r}",
                                      offset)
            try:
                current.append(layer_from_description(" ".join(tokens)))
            except (ValueError, MemoryError) as exc:
                raise DataFormatError(f"bad layer line {line!r}: {exc}", offset) from exc
        else:
            raise DataFormatError(f"unknown checkpoint header line {line!r}", offset)
    if not sections or sections[0][0] != "encoder":
        raise DataFormatError("checkpoint header is missing the encoder section")
    if kind == "relation" and (len(sections) != 2 or sections[1][0] != "relation"):
        raise DataFormatError("relation checkpoint needs a relation section")
    if kind == "cosine" and len(sections) != 1:
        raise DataFormatError("cosine checkpoint must not carry extra sections")

    nets = []
    for _, in_shape, layers in sections:
        try:
            nets.append(Network(in_shape, layers))
        except ContractError as exc:
            raise DataFormatError(f"checkpoint layer chain is inconsistent: {exc}") from exc

    if len(payload) % 4:
        raise DataFormatError("checkpoint payload ends inside a float32 value",
                              offset=start + len(payload) // 4 * 4)
    values = np.frombuffer(payload, dtype="<f4")
    pos = 0
    for net in nets:
        for _, layer in net.param_layers():
            for arr in (layer.weight, layer.bias):
                n = arr.size
                if pos + n > values.size:
                    raise DataFormatError("checkpoint payload is truncated",
                                          offset=start + values.size * 4)
                arr[...] = values[pos:pos + n].reshape(arr.shape)
                pos += n
    if pos != values.size:
        raise DataFormatError("checkpoint payload has trailing bytes",
                              offset=start + pos * 4)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise DataFormatError("checkpoint holds non-finite parameters",
                              offset=start + 4 * int(bad[0]))

    try:
        head = CosineHead(beta=beta) if kind == "cosine" else RelationHead(nets[1], beta=beta)
        return FewShotModel(nets[0], head)
    except ContractError as exc:
        raise DataFormatError(f"checkpoint relation section does not fit: {exc}") from exc
