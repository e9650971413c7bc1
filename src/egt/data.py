"""Labeled image sets, episodic sampling, and a synthetic shape corpus.

The generator draws per-class geometry (a few jittered primitives) once
and renders the same classes under several visual styles.  Styles only
change nuisance factors: background pattern, palettes, outline versus
fill, and noise level.  Class identity stays in the geometry, so a
classifier that latches onto style features transfers badly across
domains on purpose.

Datasets serialize to the EGTD container: one ascii manifest line,
then class-major little-endian float32 images followed by int32 labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (ConfigError, Container, ContractError, DataFormatError,
                     check_addressable, format_dims, parse_dims, parse_fields, write_container)

Array = np.ndarray

DATASET_MAGIC = b"EGTD "
DATASET_END = b"\n"

PRIMITIVE_KINDS = ("disk", "ring", "square", "triangle", "bar", "cross")


class LabeledImageSet:
    """Image array [N, C, H, W] with contiguous integer class labels."""

    def __init__(self, images: Array, labels: Array, domain_tag: str = ""):
        images = np.asarray(images)
        labels = np.asarray(labels)
        if images.ndim != 4:
            raise ContractError(f"images must be [N, C, H, W], got shape {images.shape}")
        if labels.shape != (images.shape[0],):
            raise ContractError(
                f"labels shape {labels.shape} does not match {images.shape[0]} images")
        if not np.isfinite(images).all():
            raise ContractError("images contain non-finite values")
        if images.shape[0] == 0:
            raise ContractError("dataset is empty")
        uniq = np.unique(labels)
        if uniq[0] != 0 or uniq[-1] != uniq.size - 1:
            raise ContractError("labels must cover 0..n_classes-1 without gaps")
        self.images = images.astype(np.float32, copy=False)
        self.labels = labels.astype(np.int32, copy=False)
        self.domain_tag = domain_tag
        self._by_class = {int(k): np.flatnonzero(self.labels == k) for k in uniq}
        self._counts = np.array([self._by_class[k].size for k in range(uniq.size)])
        self._counts.setflags(write=False)

    @property
    def n_classes(self) -> int:
        return len(self._by_class)

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return self.images.shape[1:]

    def class_indices(self, label: int) -> Array:
        return self._by_class[label]

    def class_counts(self) -> Array:
        """Images per class, indexed by label (read-only, computed once)."""
        return self._counts


@dataclass
class Episode:
    """One membership-disjoint support/query split over `way` classes.

    An episode is its rows: ``support_rows`` and ``query_rows`` index
    ``data``, the set it was sampled from, and nothing is copied until
    asked for.  ``classes`` keeps the sampled order; local labels are
    positions in that array.  Supports and queries are both grouped
    class-major in that order, so the local labels follow from the
    shape: ``support_local`` is each class repeated ``shot`` times, and
    ``query_local`` is each class repeated by its :func:`query_shares`
    entry.  ``support_images`` and ``query_images``
    gather their rows on first use and keep the copy; the dataset labels
    are gathered on each access.
    """

    way: int
    shot: int
    n_query: int
    classes: Array
    support_rows: Array
    query_rows: Array
    data: LabeledImageSet

    def __post_init__(self) -> None:
        if self.support_rows.shape != (self.way * self.shot,):
            raise ContractError(
                f"expected {self.way * self.shot} support rows, "
                f"got shape {self.support_rows.shape}")
        if self.query_rows.shape != (self.n_query,):
            raise ContractError(
                f"expected {self.n_query} query rows, got shape {self.query_rows.shape}")

    @cached_property
    def support_local(self) -> Array:
        return np.repeat(np.arange(self.way), self.shot)

    @cached_property
    def query_local(self) -> Array:
        return np.repeat(np.arange(self.way), query_shares(self.n_query, self.way))

    @cached_property
    def support_images(self) -> Array:
        return self.data.images[self.support_rows]

    @cached_property
    def query_images(self) -> Array:
        return self.data.images[self.query_rows]

    @property
    def support_labels(self) -> Array:
        return self.data.labels[self.support_rows]

    @property
    def query_labels(self) -> Array:
        return self.data.labels[self.query_rows]


def query_shares(n_query: int, way: int) -> list[int]:
    """Queries per class of an episode: even shares, the first classes taking the remainder."""
    base, extra = divmod(n_query, way)
    return [base + (k < extra) for k in range(way)]


def sample_episode(data: LabeledImageSet, way: int, shot: int, n_query: int,
                   rng: np.random.Generator) -> Episode:
    """Draw a `way`-class episode with `shot` supports and `n_query` queries.

    Class ``k`` of the sampled order draws ``shot`` supports and entry
    ``k`` of :func:`query_shares` as queries; eligible classes hold at
    least ``shot`` plus the first (largest) share.  The episode holds row
    indices into ``data``; its local labels follow from that class-major
    layout, and no image is copied here.
    """
    if way < 2 or shot < 1 or n_query < 1:
        raise ContractError(f"invalid episode shape way={way} shot={shot} n_query={n_query}")
    shares = query_shares(n_query, way)
    need = shot + shares[0]
    eligible = np.flatnonzero(data.class_counts() >= need)
    if eligible.size < way:
        raise ContractError(
            f"need {way} classes with at least {need} images each, "
            f"only {eligible.size} qualify")
    chosen = rng.choice(eligible, size=way, replace=False)
    support_rows: list[Array] = []
    query_rows: list[Array] = []
    for cls, share in zip(chosen, shares):
        picked = rng.choice(data.class_indices(int(cls)), size=shot + share, replace=False)
        support_rows.append(picked[:shot])
        query_rows.append(picked[shot:])
    return Episode(
        way=way, shot=shot, n_query=n_query, classes=chosen,
        support_rows=np.concatenate(support_rows), query_rows=np.concatenate(query_rows),
        data=data)


@dataclass(frozen=True)
class Primitive:
    kind: str
    cx: float
    cy: float
    size: float
    angle: float


@dataclass(frozen=True)
class DomainStyle:
    """Nuisance factors of one rendering domain."""

    background: str
    bg_colors: tuple[tuple[float, float, float], tuple[float, float, float]]
    fg_palette: tuple[tuple[float, float, float], ...]
    outline: bool = False
    stroke: float = 0.4                 # relative outline thickness
    noise: float = 0.03                 # additive gaussian sigma


STYLES: dict[str, DomainStyle] = {
    "bright": DomainStyle(
        background="hgrad",
        bg_colors=((0.84, 0.82, 0.78), (0.95, 0.93, 0.90)),
        fg_palette=((0.55, 0.10, 0.10), (0.10, 0.10, 0.55), (0.10, 0.45, 0.10),
                    (0.42, 0.10, 0.45), (0.50, 0.32, 0.05)),
        outline=False, noise=0.02),
    "dark": DomainStyle(
        background="vgrad",
        bg_colors=((0.05, 0.06, 0.10), (0.20, 0.22, 0.30)),
        fg_palette=((0.90, 0.85, 0.20), (0.20, 0.90, 0.90), (0.95, 0.50, 0.15),
                    (0.70, 0.90, 0.30), (0.90, 0.40, 0.70)),
        outline=False, noise=0.05),
    "stripe": DomainStyle(
        background="stripes",
        bg_colors=((0.42, 0.48, 0.54), (0.58, 0.62, 0.68)),
        fg_palette=((0.85, 0.15, 0.20), (0.15, 0.25, 0.80), (0.95, 0.80, 0.10),
                    (0.10, 0.60, 0.50)),
        outline=True, stroke=0.45, noise=0.03),
    "noisy": DomainStyle(
        background="checker",
        bg_colors=((0.30, 0.26, 0.36), (0.50, 0.46, 0.56)),
        fg_palette=((0.95, 0.95, 0.90), (0.85, 0.60, 0.20), (0.30, 0.85, 0.40),
                    (0.90, 0.25, 0.35)),
        outline=False, noise=0.09),
}


@dataclass
class GeneratorSpec:
    classes: int = 20
    images_per_class: int = 60
    height: int = 32
    width: int = 32
    domains: tuple[str, ...] = ("bright", "dark")
    max_primitives: int = 3
    min_channel_gap: float = 0.05

    def __post_init__(self) -> None:
        if self.classes < 2 or self.images_per_class < 1:
            raise ConfigError("need at least 2 classes and 1 image per class")
        if self.height < 8 or self.width < 8:
            raise ConfigError("images must be at least 8x8")
        if not self.domains:
            raise ConfigError("need at least one domain")
        if len(set(self.domains)) != len(self.domains):
            raise ConfigError(f"duplicate domain tags in {self.domains}")
        unknown = [d for d in self.domains if d not in STYLES]
        if unknown:
            raise ConfigError(
                f"unknown domains {unknown}; available: {sorted(STYLES)}")
        if self.max_primitives < 1:
            raise ConfigError("max_primitives must be >= 1")
        if not 0 <= self.min_channel_gap < math.inf:
            raise ConfigError(
                f"min_channel_gap must be finite and >= 0, got {self.min_channel_gap}")


def _soft(dist: Array, edge: float) -> Array:
    return np.clip(dist / edge + 0.5, 0.0, 1.0)


def _filled_mask(prim: Primitive, yy: Array, xx: Array, size: float,
                 edge: float) -> Array:
    dy = yy - prim.cy
    dx = xx - prim.cx
    ca, sa = math.cos(prim.angle), math.sin(prim.angle)
    rx = ca * dx + sa * dy
    ry = -sa * dx + ca * dy
    if prim.kind == "disk":
        return _soft(size - np.hypot(dx, dy), edge)
    if prim.kind == "ring":
        return _soft(0.3 * size - np.abs(np.hypot(dx, dy) - size), edge)
    if prim.kind == "square":
        return _soft(size - np.maximum(np.abs(rx), np.abs(ry)), edge)
    if prim.kind == "bar":
        return np.minimum(_soft(size - np.abs(rx), edge),
                          _soft(0.3 * size - np.abs(ry), edge))
    if prim.kind == "cross":
        a = np.minimum(_soft(size - np.abs(rx), edge),
                       _soft(0.3 * size - np.abs(ry), edge))
        b = np.minimum(_soft(size - np.abs(ry), edge),
                       _soft(0.3 * size - np.abs(rx), edge))
        return np.maximum(a, b)
    if prim.kind == "triangle":
        verts = [(size * math.cos(math.pi / 2 + 2 * math.pi * k / 3),
                  size * math.sin(math.pi / 2 + 2 * math.pi * k / 3))
                 for k in range(3)]
        inside = None
        for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
            ex, ey = x2 - x1, y2 - y1
            signed = (ex * (ry - y1) - ey * (rx - x1)) / math.hypot(ex, ey)
            inside = signed if inside is None else np.minimum(inside, signed)
        return _soft(inside, edge)
    raise ContractError(f"unknown primitive kind {prim.kind!r}")


def _primitive_mask(prim: Primitive, yy: Array, xx: Array, style: DomainStyle,
                    edge: float) -> Array:
    full = _filled_mask(prim, yy, xx, prim.size, edge)
    if not style.outline or prim.kind == "ring":
        return full
    inner = _filled_mask(prim, yy, xx, prim.size * (1.0 - style.stroke), edge)
    return np.clip(full - inner, 0.0, 1.0)


def _background(style: DomainStyle, yy: Array, xx: Array,
                rng: np.random.Generator) -> Array:
    c0 = np.array(style.bg_colors[0])[:, None, None]
    c1 = np.array(style.bg_colors[1])[:, None, None]
    if style.background == "hgrad":
        t = xx
    elif style.background == "vgrad":
        t = yy
    elif style.background == "stripes":
        phase = rng.uniform(0.0, 1.0)
        t = 0.5 * (1.0 + np.sign(np.sin(2.0 * math.pi * (6.0 * xx + phase))))
    elif style.background == "checker":
        shift = rng.integers(0, 2)
        t = ((np.floor(xx * 8) + np.floor(yy * 8) + shift) % 2).astype(float)
    else:
        raise ConfigError(f"unknown background kind {style.background!r}")
    return c0 * (1.0 - t) + c1 * t


def sample_class_geometries(n_classes: int, rng: np.random.Generator,
                            max_primitives: int) -> list[list[Primitive]]:
    geoms = []
    for _ in range(n_classes):
        n_p = int(rng.integers(1, max_primitives + 1))
        prims = []
        for _ in range(n_p):
            prims.append(Primitive(
                kind=PRIMITIVE_KINDS[int(rng.integers(len(PRIMITIVE_KINDS)))],
                cx=float(rng.uniform(0.25, 0.75)),
                cy=float(rng.uniform(0.25, 0.75)),
                size=float(rng.uniform(0.12, 0.30)),
                angle=float(rng.uniform(0.0, math.pi))))
        geoms.append(prims)
    return geoms


def _render_image(prims: list[Primitive], style: DomainStyle, yy: Array,
                  xx: Array, rng: np.random.Generator) -> Array:
    edge = 1.5 / yy.shape[0]
    mask = np.zeros_like(xx)
    for prim in prims:
        jittered = Primitive(
            kind=prim.kind,
            cx=prim.cx + float(rng.normal(0.0, 0.02)),
            cy=prim.cy + float(rng.normal(0.0, 0.02)),
            size=max(0.05, prim.size * (1.0 + float(rng.normal(0.0, 0.08)))),
            angle=prim.angle + float(rng.normal(0.0, 0.15)))
        mask = np.maximum(mask, _primitive_mask(jittered, yy, xx, style, edge))
    fg = np.array(style.fg_palette[int(rng.integers(len(style.fg_palette)))])
    fg = np.clip(fg + rng.normal(0.0, 0.04, size=3), 0.0, 1.0)[:, None, None]
    img = _background(style, yy, xx, rng) * (1.0 - mask) + fg * mask
    img = img + rng.normal(0.0, style.noise, size=img.shape)
    return np.clip(img, 0.0, 1.0)


def gen_synthetic_domains(spec: GeneratorSpec, seed: int) -> list[LabeledImageSet]:
    """Render every class under every requested style, sharing geometry.

    A single seeded generator drives all draws in a fixed order, so the
    output is bit-reproducible for a given (spec, seed).  Raises if any
    two domains come out closer than ``spec.min_channel_gap`` in their
    largest per-channel mean difference.
    """
    rng = np.random.default_rng(seed)
    geoms = sample_class_geometries(spec.classes, rng, spec.max_primitives)
    ys = (np.arange(spec.height) + 0.5) / spec.height
    xs = (np.arange(spec.width) + 0.5) / spec.width
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    sets = []
    for tag in spec.domains:
        style = STYLES[tag]
        shape = (spec.classes * spec.images_per_class, 3, spec.height, spec.width)
        check_addressable(shape, 4, f"images of domain {tag!r}")
        images = np.empty(shape, dtype=np.float32)
        labels = np.repeat(np.arange(spec.classes, dtype=np.int32),
                           spec.images_per_class)
        row = 0
        for cls in range(spec.classes):
            for _ in range(spec.images_per_class):
                images[row] = _render_image(geoms[cls], style, yy, xx, rng)
                row += 1
        sets.append(LabeledImageSet(images, labels, domain_tag=tag))
    means = [s.images.mean(axis=(0, 2, 3)) for s in sets]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            gap = float(np.abs(means[i] - means[j]).max())
            if gap < spec.min_channel_gap:
                raise ContractError(
                    f"domains {sets[i].domain_tag!r} and {sets[j].domain_tag!r} "
                    f"differ by only {gap:.4f} in per-channel mean "
                    f"(need {spec.min_channel_gap})")
    return sets


def save_dataset(data: LabeledImageSet, path: str) -> None:
    order = np.argsort(data.labels, kind="stable")
    tag = data.domain_tag or "untagged"
    if not (tag.isascii() and tag.replace("-", "").replace("_", "").replace(".", "").isalnum()):
        raise ContractError(f"domain tag {tag!r} is not filesystem-safe")
    manifest = (f"classes={data.n_classes} "
                f"per_class={','.join(str(int(n)) for n in data.class_counts())} "
                f"shape={format_dims(data.image_shape)} domain={tag}")
    write_container(path, DATASET_MAGIC, [manifest], DATASET_END,
                    [data.images[order].astype("<f4", copy=False),
                     data.labels[order].astype("<i4", copy=False)])


def load_dataset(path: str) -> LabeledImageSet:
    box = Container(path, "dataset", DATASET_MAGIC, DATASET_END)
    [(offset, manifest)] = box.lines
    kv = parse_fields(manifest.split()[1:], {
        "classes": int, "per_class": lambda v: [int(t) for t in v.split(",")],
        "shape": parse_dims, "domain": str}, offset)
    n_classes, per_class, shape = kv["classes"], kv["per_class"], kv["shape"]
    if n_classes < 1 or len(per_class) != n_classes:
        raise DataFormatError(
            f"per_class lists {len(per_class)} entries for {n_classes} classes", offset)
    if any(n < 1 for n in per_class):
        raise DataFormatError("dataset contains an empty class", offset)
    if len(shape) != 3 or any(d < 1 for d in shape):
        raise DataFormatError(f"bad image shape {shape}", offset)
    n_images = sum(per_class)
    images, labels = box.blocks([("<f4", (n_images, *shape)), ("<i4", (n_images,))])
    expected = np.repeat(np.arange(n_classes, dtype=np.int32), per_class)
    if not np.array_equal(labels, expected):
        raise DataFormatError("labels do not match the class-major manifest",
                              box.start + images.nbytes)
    # the images view the file's bytes: one copy, and no other full copy
    return LabeledImageSet(images.astype(np.float32), expected, domain_tag=kv["domain"])
