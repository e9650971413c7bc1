"""Encoder/head assembly and the EGT1 binary checkpoint format.

A model is a convolutional encoder that ends at a spatial feature map
plus one of the two few-shot heads.  The cosine head flattens the map
into a vector; the relation head keeps the map and scores concatenated
(prototype, query) pairs with its own small network.

Checkpoint layout (EGT1), framed by :class:`egt.errors.Container`:

    EGT1\n
    head kind=<cosine|relation> beta=<float>\n
    encoder input=<CxHxW>\n
    layer <description>\n          (one per encoder layer; describe_layer)
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

from .errors import (ConfigError, Container, ContractError, DataFormatError, format_dims,
                     parse_dims, parse_fields, write_container)
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
    Linear,
    MaxPool2d,
    Network,
    ReLU,
)

Array = np.ndarray

CHECKPOINT_MAGIC = b"EGT1\n"
CHECKPOINT_END = b"\nend\n"
_SECTIONS = ("encoder", "relation")  # network section tags, in ``networks()`` order

DEFAULT_WIDTHS = (8, 16, 32)  # encoder conv widths, one pooled block each
DEFAULT_HIDDEN = 64  # the relation net's dense hidden width


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
                       hidden: int = DEFAULT_HIDDEN) -> Network:
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
                beta: float | None = None, hidden: int = DEFAULT_HIDDEN) -> FewShotModel:
    encoder = build_encoder(in_shape, rng, widths)
    c, h, w = encoder.output_shape
    given = {} if beta is None else {"beta": beta}
    if head_kind == "cosine":
        head = CosineHead(**given)
    elif head_kind == "relation":
        head = RelationHead(build_relation_net((2 * c, h, w), rng, hidden=hidden), **given)
    else:
        raise ConfigError(f"unknown head kind {head_kind!r}")
    return FewShotModel(encoder, head)


def probs_from_maps(model: FewShotModel, proto_maps: Array, query_maps: Array) -> Array:
    """Class probabilities ``[E, n, K]`` of a block of E episodes, from prototype
    maps ``[E, K, ...]`` and query maps ``[E, n, ...]``; each episode's are
    bit for bit those it would get in a block of its own."""
    head = model.head
    return scaled_softmax(head.block_scores(proto_maps, query_maps), head.beta)


def episode_probs(model: FewShotModel, support_images: Array, support_local: Array,
                  way: int, query_images: Array) -> Array:
    """End-to-end class probabilities ``[n, K]`` for a batch of query images,
    scored as a block of one episode, as ``evaluate`` scores it."""
    smaps = model.encode(support_images)
    qmaps = model.encode(query_images)
    protos = class_prototypes(smaps, support_local, way)
    return probs_from_maps(model, protos[None], qmaps[None])[0]


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
    # row t*K + k of the repeated relation trace is the query's pair with class k
    head_trace = None if trace is None else trace.rows(np.tile(np.arange(way), reps))
    rels = lrp_through_head(model.head, protos, np.repeat(qmaps, reps, 0), head_trace,
                            np.repeat(rel_init, reps, 0), targets, lrp_cfg)
    # f_p ends with the query map for both heads: it is the whole cosine
    # vector and the second channel half of a relation pair.
    map_rel = np.reshape([r.reshape(-1)[-qmaps.size:] for r in rels],
                         (reps,) + qmaps.shape[1:])
    rows = lrp_backward(model.encoder, qtrace.rows(np.zeros(reps, dtype=np.intp)), map_rel,
                        lrp_cfg)
    return ExplainResult(scores=scores[0], probabilities=probs[0],
                         relevance_init=rel_init[0],
                         feature_relevance=dict(zip(targets, rels)),
                         input_relevance=dict(zip(targets, rows)))


def describe_layer(layer: Layer) -> str:
    if isinstance(layer, Linear):
        return f"linear in={layer.weight.shape[1]} out={layer.weight.shape[0]}"
    if isinstance(layer, Conv2d):
        o, c = layer.weight.shape[:2]
        return (f"conv2d in={c} out={o} kernel={format_dims(layer.weight.shape[2:])} "
                f"stride={layer.stride} padding={layer.padding}")
    if isinstance(layer, (MaxPool2d, AvgPool2d)):
        return f"{layer.kind} kernel={layer.kernel} stride={layer.stride}"
    if isinstance(layer, (ReLU, Flatten)):
        return layer.kind
    raise ContractError(f"cannot describe layer of kind {layer.kind!r}")


_LAYER_FIELDS = {
    "linear": {"in": int, "out": int},
    "conv2d": {"in": int, "out": int, "kernel": parse_dims, "stride": int, "padding": int},
    "maxpool2d": {"kernel": int, "stride": int},
    "avgpool2d": {"kernel": int, "stride": int},
    "relu": {},
    "flatten": {},
}


def layer_from_description(text: str) -> Layer:
    """Rebuild a layer (zero parameters) from :func:`describe_layer` output."""
    kind, *tokens = text.split() or [""]
    if kind not in _LAYER_FIELDS:
        raise ContractError(f"unknown layer kind {kind!r}")
    kv = parse_fields(tokens, _LAYER_FIELDS[kind], None)
    if kind == "linear":
        return Linear(np.zeros((kv["out"], kv["in"])), np.zeros(kv["out"]))
    if kind == "conv2d":
        kh, kw = kv["kernel"]
        conv = Conv2d(np.zeros((kv["out"], kv["in"], kh, kw)), np.zeros(kv["out"]),
                      stride=kv["stride"], padding=kv["padding"])
        if conv.padding >= min(kh, kw):  # border outputs would see only zeros
            raise ContractError(f"conv2d padding {conv.padding} is not below kernel {kh}x{kw}")
        return conv
    if kind == "maxpool2d":
        return MaxPool2d(kv["kernel"], kv["stride"])
    if kind == "avgpool2d":
        return AvgPool2d(kv["kernel"], kv["stride"])
    return ReLU() if kind == "relu" else Flatten()


def _parameters(nets: list[Network]) -> list[Array]:
    """Every parameter array in payload order: weight before bias, layer by layer."""
    return [arr for net in nets for _, layer in net.param_layers()
            for arr in (layer.weight, layer.bias)]


def save_model(model: FewShotModel, path: str) -> None:
    head = model.head
    if not isinstance(head, (CosineHead, RelationHead)):
        raise ConfigError(f"cannot save head {type(head).__name__!r}")
    lines = [f"head kind={head.kind} beta={head.beta!r}"]
    for tag, net in zip(_SECTIONS, model.networks()):
        lines.append(f"{tag} input={format_dims(net.input_shape)}")
        lines += [f"layer {describe_layer(layer)}" for layer in net.layers]
    write_container(path, CHECKPOINT_MAGIC, lines, CHECKPOINT_END,
                    [arr.astype("<f4") for arr in _parameters(model.networks())])


def _parse_head_line(offset: int, line: str):
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
    box = Container(path, "checkpoint", CHECKPOINT_MAGIC, CHECKPOINT_END)
    lines = box.lines[1:]  # line 0 is the magic
    if not lines:
        raise DataFormatError("checkpoint header is empty")
    kind, beta = _parse_head_line(*lines[0])

    sections: list[tuple[str, tuple[int, ...], list[Layer]]] = []
    current: list[Layer] | None = None
    for offset, line in lines[1:]:
        tag, *tokens = line.split() or [""]
        if tag in _SECTIONS:
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
    want = list(_SECTIONS if kind == "relation" else _SECTIONS[:1])
    if [tag for tag, _, _ in sections] != want:
        raise DataFormatError(f"a {kind} checkpoint needs the sections {want}, in order")

    nets = []
    for _, in_shape, layers in sections:
        try:
            nets.append(Network(in_shape, layers))
        except ContractError as exc:
            raise DataFormatError(f"checkpoint layer chain is inconsistent: {exc}") from exc
    params = _parameters(nets)
    for arr, block in zip(params, box.blocks([("<f4", arr.shape) for arr in params])):
        arr[...] = block

    try:
        head = CosineHead(beta=beta) if kind == "cosine" else RelationHead(nets[1], beta=beta)
        return FewShotModel(nets[0], head)
    except ContractError as exc:
        raise DataFormatError(f"checkpoint relation section does not fit: {exc}") from exc
