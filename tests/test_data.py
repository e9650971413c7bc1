"""Dataset, episode sampling, and generator tests."""

import math
import tracemalloc

import numpy as np
import pytest

import egt.data
import egt.errors
from egt.data import (
    PRIMITIVE_KINDS,
    STYLES,
    Episode,
    GeneratorSpec,
    LabeledImageSet,
    gen_synthetic_domains,
    load_dataset,
    query_shares,
    sample_class_geometries,
    sample_episode,
    save_dataset,
)
from egt.errors import (ConfigError, ContractError, DataFormatError, NumericError, format_dims,
                        parse_dims, write_container)

from util_nets import FUZZ_BYTES, loads_or_fails_cleanly, with_f4


def _toy_set(counts, side=4, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.uniform(size=(sum(counts), 1, side, side)).astype(np.float32)
    labels = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
    return LabeledImageSet(images, labels, domain_tag="toy")


class TestLabeledImageSet:
    def test_class_bookkeeping(self):
        data = _toy_set([3, 2, 4])
        assert data.n_classes == 3
        np.testing.assert_array_equal(data.class_counts(), [3, 2, 4])
        np.testing.assert_array_equal(data.class_indices(1), [3, 4])

    def test_label_gaps_rejected(self):
        images = np.zeros((3, 1, 4, 4), dtype=np.float32)
        with pytest.raises(ContractError, match="gaps"):
            LabeledImageSet(images, np.array([0, 2, 2]))

    def test_fractional_labels_rejected(self):
        # 0.5 is no class: it is refused, not truncated to class 0.
        with pytest.raises(ContractError, match="integers"):
            LabeledImageSet(np.zeros((3, 1, 8, 8)), np.array([0, 0.5, 2]))
        data = LabeledImageSet(np.zeros((3, 1, 8, 8)), np.array([0.0, 1.0, 2.0]))
        assert data.labels.tolist() == [0, 1, 2]

    def test_shape_validation(self):
        with pytest.raises(ContractError):
            LabeledImageSet(np.zeros((3, 4, 4), dtype=np.float32), np.zeros(3))
        with pytest.raises(ContractError):
            LabeledImageSet(np.zeros((3, 1, 4, 4)), np.zeros(2))

    def test_non_finite_rejected(self):
        images = np.zeros((2, 1, 4, 4), dtype=np.float32)
        images[1, 0, 0, 0] = np.nan
        with pytest.raises(ContractError, match="finite"):
            LabeledImageSet(images, np.array([0, 1]))

    @pytest.mark.parametrize("row", [0, 5, 8, 9])
    def test_non_finite_found_in_every_slice(self, monkeypatch, row):
        # slices of three 1x4x4 images, the last one short
        monkeypatch.setattr(egt.errors, "_FINITE_SLICE", 48)
        images = np.zeros((10, 1, 4, 4), dtype=np.float32)
        LabeledImageSet(images, np.arange(10) % 2)
        images[row, 0, 3, 3] = -np.inf
        with pytest.raises(ContractError, match="finite"):
            LabeledImageSet(images, np.arange(10) % 2)


class TestSampleEpisode:
    def test_shapes_and_local_labels(self):
        data = _toy_set([6] * 8)
        rng = np.random.default_rng(1)
        ep = sample_episode(data, way=4, shot=2, n_query=10, rng=rng)
        assert ep.support_images.shape == (8, 1, 4, 4)
        assert ep.query_images.shape == (10, 1, 4, 4)
        np.testing.assert_array_equal(ep.support_local, np.repeat(np.arange(4), 2))
        # Queries are class-major in sampled order: 3, 3, 2, 2 here.
        np.testing.assert_array_equal(ep.query_local, [0, 0, 0, 1, 1, 1, 2, 2, 3, 3])
        for i, cls in enumerate(ep.classes):
            assert np.all(ep.support_labels[ep.support_local == i] == cls)
            assert np.all(ep.query_labels[ep.query_local == i] == cls)

    def test_no_image_reuse_within_episode(self):
        # Unique pixel fingerprints: supports and queries never overlap.
        data = _toy_set([8] * 5)
        rng = np.random.default_rng(2)
        for _ in range(20):
            ep = sample_episode(data, way=3, shot=2, n_query=9, rng=rng)
            blob = np.concatenate([ep.support_images, ep.query_images])
            flat = {img.tobytes() for img in blob}
            assert len(flat) == blob.shape[0]

    def test_only_eligible_classes_sampled(self):
        # Classes 0 and 1 are too small for shot=3 plus the query share.
        data = _toy_set([3, 3, 8, 8, 8, 8])
        rng = np.random.default_rng(3)
        seen = set()
        for _ in range(50):
            ep = sample_episode(data, way=4, shot=3, n_query=4, rng=rng)
            seen.update(int(c) for c in ep.classes)
        assert seen == {2, 3, 4, 5}

    def test_insufficient_classes_rejected(self):
        data = _toy_set([4, 4, 4])
        with pytest.raises(ContractError, match="qualify"):
            sample_episode(data, way=3, shot=4, n_query=3,
                           rng=np.random.default_rng(4))

    def test_way_beyond_the_classes_rejected_before_the_shares(self, monkeypatch):
        # a way of 10**12 would build a 10**12-entry share list first
        def built(*args):
            raise AssertionError("query shares built before the class-count check")
        monkeypatch.setattr(egt.data, "query_shares", built)
        with pytest.raises(ContractError, match="need 1000000000000 classes"):
            sample_episode(_toy_set([4, 4, 4]), way=10 ** 12, shot=1, n_query=16,
                           rng=np.random.default_rng(4))

    def test_bad_episode_shape_rejected(self):
        data = _toy_set([4, 4, 4])
        with pytest.raises(ContractError):
            sample_episode(data, way=1, shot=1, n_query=1,
                           rng=np.random.default_rng(5))

    def test_class_frequency_uniform(self):
        data = _toy_set([4] * 12, side=2)
        rng = np.random.default_rng(6)
        hits = np.zeros(12)
        n_episodes = 4000
        for _ in range(n_episodes):
            ep = sample_episode(data, way=3, shot=1, n_query=3, rng=rng)
            hits[ep.classes] += 1
        expect = n_episodes * 3 / 12
        # Binomial three-sigma band around the uniform expectation.
        sigma = np.sqrt(n_episodes * 0.25 * 0.75)
        assert np.all(np.abs(hits - expect) < 3 * sigma)

    def test_remainder_goes_to_first_classes(self):
        data = _toy_set([8] * 6)
        ep = sample_episode(data, way=5, shot=1, n_query=13,
                            rng=np.random.default_rng(7))
        counts = np.bincount(ep.query_local, minlength=5)
        np.testing.assert_array_equal(counts, [3, 3, 3, 2, 2])

    @pytest.mark.parametrize("n_query, way, shares", [
        (16, 5, [4, 3, 3, 3, 3]), (13, 5, [3, 3, 3, 2, 2]), (3, 5, [1, 1, 1, 0, 0]),
        (10, 5, [2, 2, 2, 2, 2]), (1, 2, [1, 0])])
    def test_query_shares(self, n_query, way, shares):
        assert query_shares(n_query, way) == shares

    def test_eligibility_needs_the_largest_share(self):
        # 3 queries over 2 classes: shares [2, 1], so a class needs shot + 2
        data = _toy_set([2, 3, 3])
        for seed in range(20):
            ep = sample_episode(data, 2, 1, 3, np.random.default_rng(seed))
            assert 0 not in ep.classes
            np.testing.assert_array_equal(ep.query_local, [0, 0, 1])

    def test_determinism(self):
        data = _toy_set([6] * 8)
        a = sample_episode(data, 4, 2, 8, np.random.default_rng(42))
        b = sample_episode(data, 4, 2, 8, np.random.default_rng(42))
        np.testing.assert_array_equal(a.classes, b.classes)
        np.testing.assert_array_equal(a.support_images, b.support_images)
        np.testing.assert_array_equal(a.query_labels, b.query_labels)

    @pytest.mark.parametrize("way,shot,n_query", [(5, 5, 16), (5, 1, 15), (4, 1, 10),
                                                  (3, 4, 7), (6, 2, 6)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_copying_reference(self, way, shot, n_query, seed):
        # The sampler as it was before episodes held rows: the same rng
        # calls, fancy-index copies, and local labels by dict lookup.
        data = _toy_set([8, 13, 12, 10, 15, 11, 14], seed=seed)
        rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        for _ in range(4):
            ep = sample_episode(data, way, shot, n_query, rng)
            need = shot + -(-n_query // way)
            chosen = ref_rng.choice(np.flatnonzero(data.class_counts() >= need),
                                    size=way, replace=False)
            base, extra = divmod(n_query, way)
            picks = [ref_rng.choice(data.class_indices(int(c)),
                                    size=shot + base + (k < extra), replace=False)
                     for k, c in enumerate(chosen)]
            s_idx = np.concatenate([p[:shot] for p in picks])
            q_idx = np.concatenate([p[shot:] for p in picks])
            lut = {int(c): i for i, c in enumerate(chosen)}
            want = {
                "classes": chosen, "support_rows": s_idx, "query_rows": q_idx,
                "support_images": data.images[s_idx], "query_images": data.images[q_idx],
                "support_labels": data.labels[s_idx], "query_labels": data.labels[q_idx],
                "support_local": np.array([lut[int(v)] for v in data.labels[s_idx]]),
                "query_local": np.array([lut[int(v)] for v in data.labels[q_idx]]),
            }
            for name, value in want.items():
                got = getattr(ep, name)
                assert got.dtype == value.dtype and np.array_equal(got, value), name
            assert (ep.way, ep.shot, ep.n_query) == (way, shot, n_query)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_images_gather_rows_once(self):
        data = _toy_set([6] * 8)
        ep = sample_episode(data, 4, 2, 10, np.random.default_rng(8))
        for images, rows in ((ep.support_images, ep.support_rows),
                             (ep.query_images, ep.query_rows)):
            assert np.array_equal(images, data.images[rows])
            assert not np.shares_memory(images, data.images)
        assert ep.support_images is ep.support_images
        assert ep.query_images is ep.query_images

    def test_row_count_checked(self):
        data = _toy_set([6] * 8)
        ep = sample_episode(data, 4, 2, 10, np.random.default_rng(9))
        with pytest.raises(ContractError, match="support rows"):
            Episode(4, 2, 10, ep.classes, ep.support_rows[1:], ep.query_rows, data)
        with pytest.raises(ContractError, match="query rows"):
            Episode(4, 2, 9, ep.classes, ep.support_rows, ep.query_rows, data)

    def test_local_labels_follow_shape(self):
        # Local labels are not stored: a hand-built episode over the same
        # rows gets the sampled one's, which match its rows' classes.
        data = _toy_set([6] * 8)
        ep = sample_episode(data, 4, 2, 10, np.random.default_rng(10))
        built = Episode(4, 2, 10, ep.classes, ep.support_rows, ep.query_rows, data)
        for local, labels in ((built.support_local, ep.support_labels),
                              (built.query_local, ep.query_labels)):
            np.testing.assert_array_equal(ep.classes[local], labels)
        assert built.support_local is built.support_local


# The renderer as it was before it took a block of images at a time: one
# image per call, a jittered copy of each primitive, and every mask,
# background and blend on one (H, W) grid.  Its draws and arithmetic are
# the reference the block renderer must match bit for bit.
def _ref_soft(dist, edge):
    return np.clip(dist / edge + 0.5, 0.0, 1.0)


def _ref_filled_mask(prim, yy, xx, size, edge):
    kind, cx, cy, _, angle = prim
    dy = yy - cy
    dx = xx - cx
    ca, sa = math.cos(angle), math.sin(angle)
    rx = ca * dx + sa * dy
    ry = -sa * dx + ca * dy
    if kind == "disk":
        return _ref_soft(size - np.hypot(dx, dy), edge)
    if kind == "ring":
        return _ref_soft(0.3 * size - np.abs(np.hypot(dx, dy) - size), edge)
    if kind == "square":
        return _ref_soft(size - np.maximum(np.abs(rx), np.abs(ry)), edge)
    if kind == "bar":
        return np.minimum(_ref_soft(size - np.abs(rx), edge),
                          _ref_soft(0.3 * size - np.abs(ry), edge))
    if kind == "cross":
        a = np.minimum(_ref_soft(size - np.abs(rx), edge),
                       _ref_soft(0.3 * size - np.abs(ry), edge))
        b = np.minimum(_ref_soft(size - np.abs(ry), edge),
                       _ref_soft(0.3 * size - np.abs(rx), edge))
        return np.maximum(a, b)
    assert kind == "triangle"
    verts = [(size * math.cos(math.pi / 2 + 2 * math.pi * k / 3),
              size * math.sin(math.pi / 2 + 2 * math.pi * k / 3)) for k in range(3)]
    inside = None
    for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
        ex, ey = x2 - x1, y2 - y1
        signed = (ex * (ry - y1) - ey * (rx - x1)) / math.hypot(ex, ey)
        inside = signed if inside is None else np.minimum(inside, signed)
    return _ref_soft(inside, edge)


def _ref_primitive_mask(prim, yy, xx, style, edge):
    full = _ref_filled_mask(prim, yy, xx, prim[3], edge)
    if not style.outline or prim[0] == "ring":
        return full
    inner = _ref_filled_mask(prim, yy, xx, prim[3] * (1.0 - style.stroke), edge)
    return np.clip(full - inner, 0.0, 1.0)


def _ref_background(style, yy, xx, rng):
    c0 = np.array(style.bg_colors[0])[:, None, None]
    c1 = np.array(style.bg_colors[1])[:, None, None]
    if style.background == "hgrad":
        t = xx
    elif style.background == "vgrad":
        t = yy
    elif style.background == "stripes":
        phase = rng.uniform(0.0, 1.0)
        t = 0.5 * (1.0 + np.sign(np.sin(2.0 * math.pi * (6.0 * xx + phase))))
    else:
        assert style.background == "checker"
        shift = rng.integers(0, 2)
        t = ((np.floor(xx * 8) + np.floor(yy * 8) + shift) % 2).astype(float)
    return c0 * (1.0 - t) + c1 * t


def _ref_render_image(prims, style, yy, xx, rng):
    edge = 1.5 / yy.shape[0]
    mask = np.zeros_like(xx)
    for prim in prims:
        jittered = (prim.kind,
                    prim.cx + float(rng.normal(0.0, 0.02)),
                    prim.cy + float(rng.normal(0.0, 0.02)),
                    max(0.05, prim.size * (1.0 + float(rng.normal(0.0, 0.08)))),
                    prim.angle + float(rng.normal(0.0, 0.15)))
        mask = np.maximum(mask, _ref_primitive_mask(jittered, yy, xx, style, edge))
    fg = np.array(style.fg_palette[int(rng.integers(len(style.fg_palette)))])
    fg = np.clip(fg + rng.normal(0.0, 0.04, size=3), 0.0, 1.0)[:, None, None]
    img = _ref_background(style, yy, xx, rng) * (1.0 - mask) + fg * mask
    img = img + rng.normal(0.0, style.noise, size=img.shape)
    return np.clip(img, 0.0, 1.0)


def _ref_corpus(spec, seed):
    """Every domain's images, one :func:`_ref_render_image` call per image, in corpus order."""
    rng = np.random.default_rng(seed)
    geoms = sample_class_geometries(spec.classes, rng, spec.max_primitives)
    ys = (np.arange(spec.height) + 0.5) / spec.height
    xs = (np.arange(spec.width) + 0.5) / spec.width
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    return [np.stack([_ref_render_image(geoms[cls], STYLES[tag], yy, xx, rng)
                      for cls in range(spec.classes)
                      for _ in range(spec.images_per_class)]).astype(np.float32)
            for tag in spec.domains]


def _block(spec):
    """Images per block of the renderer at ``spec``'s image size."""
    return max(1, egt.data._BLOCK_BYTES // (3 * spec.height * spec.width * 8))


ALL_DOMAINS = ("bright", "dark", "stripe", "noisy")
# name -> (spec, seed); every style runs, stripe's outlines among them
REFERENCE_CASES = {
    "every-style-six-primitives": (
        GeneratorSpec(classes=8, images_per_class=5, height=16, width=16,
                      domains=ALL_DOMAINS, max_primitives=6), 3),
    "16x24": (GeneratorSpec(classes=4, images_per_class=6, height=16, width=24,
                            domains=ALL_DOMAINS, max_primitives=4), 1),
    "one-image-per-class": (GeneratorSpec(classes=6, images_per_class=1, height=8, width=8,
                                          domains=ALL_DOMAINS), 2),
    "partial-last-block": (GeneratorSpec(classes=3, images_per_class=21, height=16, width=16,
                                         domains=ALL_DOMAINS, max_primitives=6), 4),
    "bench-shape": (GeneratorSpec(classes=4, images_per_class=60, height=16, width=16,
                                  domains=("dark", "noisy")), 3),
}


class TestBlockRenderer:
    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_matches_per_image_reference(self, case):
        spec, seed = REFERENCE_CASES[case]
        got = gen_synthetic_domains(spec, seed)
        for data, want in zip(got, _ref_corpus(spec, seed), strict=True):
            assert data.images.dtype == want.dtype and data.images.shape == want.shape
            assert data.images.tobytes() == want.tobytes(), (case, data.domain_tag)

    def test_reference_cases_cover_kinds_and_blocks(self):
        # every primitive kind is drawn, and some class ends in a partial block
        spec, seed = REFERENCE_CASES["every-style-six-primitives"]
        geoms = sample_class_geometries(spec.classes, np.random.default_rng(seed),
                                        spec.max_primitives)
        assert {prim.kind for prims in geoms for prim in prims} == set(PRIMITIVE_KINDS)
        assert max(len(prims) for prims in geoms) == 6
        spec, _ = REFERENCE_CASES["partial-last-block"]
        assert spec.images_per_class > _block(spec) and spec.images_per_class % _block(spec)

    @pytest.mark.parametrize("block_bytes", [1, 1 << 40])
    def test_block_size_changes_no_byte(self, monkeypatch, block_bytes):
        # one image per block, and one block per class
        spec, seed = REFERENCE_CASES["partial-last-block"]
        monkeypatch.setattr(egt.data, "_BLOCK_BYTES", block_bytes)
        if block_bytes == 1:
            assert _block(spec) == 1
        else:
            assert _block(spec) >= spec.images_per_class
        got = [data.images.tobytes() for data in gen_synthetic_domains(spec, seed)]
        assert got == [images.tobytes() for images in _ref_corpus(spec, seed)]

    def test_memory_beyond_the_images_stays_bounded(self):
        # 3,000 images of a class would be an 18 MB float64 stack in one block
        spec = GeneratorSpec(classes=2, images_per_class=3000, height=16, width=16)
        tracemalloc.start()
        try:
            sets = gen_synthetic_domains(spec, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = sum(data.images.nbytes + data.labels.nbytes for data in sets)
        assert held == 2 * 6000 * (3 * 16 * 16 * 4 + 4)
        assert peak - held < 1 << 20


class TestGenerator:
    def test_shapes_and_range(self):
        spec = GeneratorSpec(classes=4, images_per_class=3, height=16, width=16)
        sets = gen_synthetic_domains(spec, seed=0)
        assert [s.domain_tag for s in sets] == ["bright", "dark"]
        for s in sets:
            assert s.images.shape == (12, 3, 16, 16)
            assert s.images.dtype == np.float32
            assert s.images.min() >= 0.0 and s.images.max() <= 1.0
            np.testing.assert_array_equal(s.labels, np.repeat(np.arange(4), 3))

    def test_bit_reproducible(self):
        spec = GeneratorSpec(classes=3, images_per_class=2, height=16, width=16)
        a = gen_synthetic_domains(spec, seed=123)
        b = gen_synthetic_domains(spec, seed=123)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.images, sb.images)
        c = gen_synthetic_domains(spec, seed=124)
        assert not np.array_equal(a[0].images, c[0].images)

    def test_channel_gap_between_styles(self):
        spec = GeneratorSpec(classes=3, images_per_class=4, height=16, width=16,
                             domains=("bright", "dark", "stripe", "noisy"))
        sets = gen_synthetic_domains(spec, seed=5)
        means = [s.images.mean(axis=(0, 2, 3)) for s in sets]
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.abs(means[i] - means[j]).max() >= 0.05

    def test_gap_violation_raises(self):
        spec = GeneratorSpec(classes=3, images_per_class=2, height=16, width=16,
                             min_channel_gap=0.9)
        with pytest.raises(ContractError, match="per-channel mean"):
            gen_synthetic_domains(spec, seed=0)

    def test_images_within_class_vary(self):
        spec = GeneratorSpec(classes=2, images_per_class=3, height=16, width=16)
        sets = gen_synthetic_domains(spec, seed=9)
        imgs = sets[0].images
        assert not np.array_equal(imgs[0], imgs[1])

    def test_class_signal_survives_domains(self):
        # Same-class images from different domains stay more alike in
        # geometry than different-class images: compare binarized
        # foreground masks via a style-free proxy (deviation from the
        # per-image channel median).
        spec = GeneratorSpec(classes=6, images_per_class=4, height=16, width=16)
        bright, dark = gen_synthetic_domains(spec, seed=11)

        def fg_proxy(img):
            gray = img.mean(axis=0)
            return np.abs(gray - np.median(gray)) > 0.15

        same, diff = [], []
        for cls in range(6):
            a = fg_proxy(bright.images[bright.class_indices(cls)[0]])
            b = fg_proxy(dark.images[dark.class_indices(cls)[0]])
            other = (cls + 1) % 6
            c = fg_proxy(dark.images[dark.class_indices(other)[0]])
            same.append((a & b).sum() / max(1, (a | b).sum()))
            diff.append((a & c).sum() / max(1, (a | c).sum()))
        assert np.mean(same) > np.mean(diff)

    def test_corpus_no_memory_holds_fails_before_any_draw(self, monkeypatch):
        # 2**31 classes of one 256x256 image: about 1.7 PB per domain, past any
        # address space, yet within numpy's addressable size and the int32 labels
        def drawn(*args):
            raise AssertionError("class geometry drawn before the images were allocated")
        monkeypatch.setattr(egt.data, "sample_class_geometries", drawn)
        spec = GeneratorSpec(classes=2 ** 31, images_per_class=1, height=256, width=256)
        with pytest.raises(MemoryError):
            gen_synthetic_domains(spec, seed=0)

    def test_spec_validation(self):
        with pytest.raises(ConfigError, match="unknown domains"):
            GeneratorSpec(domains=("bright", "sepia"))
        with pytest.raises(ConfigError, match="duplicate"):
            GeneratorSpec(domains=("bright", "bright"))
        with pytest.raises(ConfigError):
            GeneratorSpec(classes=1)
        with pytest.raises(ConfigError):
            GeneratorSpec(height=4)


class TestDatasetIo:
    def _round_trip(self, tmp_path, data):
        path = str(tmp_path / "d.egtd")
        save_dataset(data, path)
        return path, load_dataset(path)

    def test_round_trip_bit_exact(self, tmp_path):
        spec = GeneratorSpec(classes=3, images_per_class=2, height=16, width=16)
        data = gen_synthetic_domains(spec, seed=1)[0]
        _, loaded = self._round_trip(tmp_path, data)
        np.testing.assert_array_equal(loaded.images, data.images)
        np.testing.assert_array_equal(loaded.labels, data.labels)
        assert loaded.domain_tag == "bright"

    def test_save_sorts_class_major(self, tmp_path):
        rng = np.random.default_rng(2)
        images = rng.uniform(size=(4, 1, 4, 4)).astype(np.float32)
        labels = np.array([1, 0, 1, 0], dtype=np.int32)
        data = LabeledImageSet(images, labels, domain_tag="mixed")
        _, loaded = self._round_trip(tmp_path, data)
        np.testing.assert_array_equal(loaded.labels, [0, 0, 1, 1])
        np.testing.assert_array_equal(loaded.images[0], images[1])
        np.testing.assert_array_equal(loaded.images[2], images[0])

    def test_class_major_set_is_written_as_it_is(self, tmp_path, monkeypatch):
        # no reordered copy of a sorted set, and the file bytes of the copying writer
        data = _toy_set([3, 2, 4])
        path = tmp_path / "d.egtd"
        save_dataset(data, str(path))
        raw = path.read_bytes()
        assert raw[raw.index(b"\n") + 1:] == data.images.tobytes() + data.labels.tobytes()
        blocks = []
        monkeypatch.setattr(egt.data, "write_container",
                            lambda path, magic, lines, end, arrays: blocks.extend(arrays))
        save_dataset(data, str(path))
        assert np.shares_memory(blocks[0], data.images)
        assert np.shares_memory(blocks[1], data.labels)

    def test_manifest_text(self, tmp_path):
        # a non-square shape pins the CxHxW order of the dims token
        images = np.zeros((5, 3, 4, 2), dtype=np.float32)
        data = LabeledImageSet(images, np.array([1, 0, 1, 0, 1], np.int32), domain_tag="toy")
        path = tmp_path / "toy.egtd"
        save_dataset(data, str(path))
        raw = path.read_bytes()
        manifest = b"EGTD classes=2 per_class=2,3 shape=3x4x2 domain=toy\n"
        assert raw[:raw.index(b"\n") + 1] == manifest
        assert len(raw) - raw.index(b"\n") - 1 == 5 * 3 * 4 * 2 * 4 + 5 * 4

    @pytest.mark.parametrize("dims", [(3, 16, 16), (3, 1), (7,), (0, 2)])
    def test_dims_token_round_trip(self, dims):
        assert format_dims(dims) == "x".join(str(d) for d in dims)
        assert parse_dims(format_dims(dims)) == dims

    @pytest.mark.parametrize("tag", ["café", "a b", "x/y", "ｄａｒｋ"])
    def test_unsafe_tag_refused_before_writing(self, tmp_path, tag):
        # ``str.isalnum`` is true for non-ascii letters; the ascii header
        # could not hold them, and nothing may be written.
        path = tmp_path / "d.egtd"
        data = LabeledImageSet(_toy_set([2, 2]).images, np.array([0, 0, 1, 1], np.int32),
                               domain_tag=tag)
        with pytest.raises(ContractError, match="filesystem-safe"):
            save_dataset(data, str(path))
        assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "d.egtd"
        path.write_bytes(b"NPYX blah\n\x00\x00")
        with pytest.raises(DataFormatError, match=r"magic.*byte offset 0"):
            load_dataset(str(path))

    def test_truncated_payload(self, tmp_path):
        data = _toy_set([2, 2])
        path = str(tmp_path / "d.egtd")
        save_dataset(data, path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-8])
        with pytest.raises(DataFormatError, match="truncated"):
            load_dataset(path)

    def test_trailing_bytes(self, tmp_path):
        data = _toy_set([2, 2])
        path = str(tmp_path / "d.egtd")
        save_dataset(data, path)
        open(path, "ab").write(b"junk")
        with pytest.raises(DataFormatError, match="trailing"):
            load_dataset(path)

    def test_empty_class_rejected(self, tmp_path):
        path = tmp_path / "d.egtd"
        body = np.zeros(2 * 1 * 2 * 2, dtype="<f4").tobytes()
        lbl = np.array([0, 2], dtype="<i4").tobytes()
        path.write_bytes(b"EGTD classes=3 per_class=1,0,1 shape=1x2x2 domain=x\n"
                         + body + lbl)
        with pytest.raises(DataFormatError, match="empty class"):
            load_dataset(str(path))

    def test_label_layout_mismatch(self, tmp_path):
        path = tmp_path / "d.egtd"
        body = np.zeros(2 * 1 * 2 * 2, dtype="<f4").tobytes()
        lbl = np.array([1, 0], dtype="<i4").tobytes()
        path.write_bytes(b"EGTD classes=2 per_class=1,1 shape=1x2x2 domain=x\n"
                         + body + lbl)
        with pytest.raises(DataFormatError, match="class-major"):
            load_dataset(str(path))

    def test_missing_manifest_keys(self, tmp_path):
        path = tmp_path / "d.egtd"
        path.write_bytes(b"EGTD classes=2 shape=1x2x2 domain=x\n")
        with pytest.raises(DataFormatError, match="per_class"):
            load_dataset(str(path))

    def test_fuzzed_dataset_loads_or_fails_cleanly(self, tmp_path):
        # Truncation at every byte and every single-byte replacement in
        # the manifest line.
        path = str(tmp_path / "d.egtd")
        save_dataset(_toy_set([2, 3], side=2), path)
        raw = open(path, "rb").read()
        end = raw.index(b"\n") + 1
        cases = [raw[:i] for i in range(len(raw))]
        cases += [raw[:i] + bytes([b]) + raw[i + 1:]
                  for i in range(end) for b in FUZZ_BYTES + b"," if b != raw[i]]
        assert 0 < loads_or_fails_cleanly(load_dataset, path, cases) < len(cases)

    @pytest.mark.parametrize("manifest, message", [
        (b"EGTD classes=2 classes=2 per_class=1,1 shape=1x2x2 domain=x", "repeated"),
        (b"EGTD classes=2 per_class=1,1 shape=1x2x2 domain=x stray", "key=value"),
        (b"EGTD classes=two per_class=1,1 shape=1x2x2 domain=x", "classes='two'"),
        (b"EGTD classes=2 per_class=1,1 shape=1x2x2 domain=x bogus=1",
         r"unknown keys \['bogus'\] \(byte offset 0\)"),
    ])
    def test_malformed_manifest_tokens(self, tmp_path, manifest, message):
        path = tmp_path / "d.egtd"
        body = np.zeros(2 * 1 * 2 * 2, dtype="<f4").tobytes()
        path.write_bytes(manifest + b"\n" + body + np.arange(2, dtype="<i4").tobytes())
        with pytest.raises(DataFormatError, match=message):
            load_dataset(str(path))

    # (file, payload start) -> (corrupted file, the byte the error must name);
    # the toy set holds 5 images of 1x4x4, so pixel 37 sits mid-payload
    OFFSET_CASES = {
        "non-ascii-header": lambda raw, start: (
            raw.replace(b"domain=toy", b"domain=t\xffy"), raw.index(b"domain=") + 8),
        "nan-pixel": lambda raw, start: (with_f4(raw, start + 4 * 37, np.nan), start + 4 * 37),
        "inf-pixel": lambda raw, start: (with_f4(raw, start + 4 * 37, -np.inf), start + 4 * 37),
        "truncated": lambda raw, start: (raw[:-8], len(raw) - 8),
        "trailing": lambda raw, start: (raw + b"junk", len(raw)),
    }

    @pytest.mark.parametrize("case", sorted(OFFSET_CASES))
    def test_error_names_the_faulty_byte(self, tmp_path, case):
        path = str(tmp_path / "d.egtd")
        save_dataset(_toy_set([2, 3]), path)
        raw = open(path, "rb").read()
        bad, offset = self.OFFSET_CASES[case](raw, raw.index(b"\n") + 1)
        open(path, "wb").write(bad)
        with pytest.raises(DataFormatError, match=rf"\(byte offset {offset}\)") as info:
            load_dataset(path)
        assert info.value.offset == offset

    # slices of three 1x4x4 images over 10 images: rows 0, 4 and 9 sit in the
    # first, a middle and the short last slice
    @pytest.mark.parametrize("row", [0, 4, 9])
    def test_reader_names_a_non_finite_value_in_every_slice(self, tmp_path, monkeypatch, row):
        monkeypatch.setattr(egt.errors, "_FINITE_SLICE", 48)
        path = str(tmp_path / "d.egtd")
        save_dataset(_toy_set([4, 6]), path)
        raw = open(path, "rb").read()
        offset = raw.index(b"\n") + 1 + 4 * (row * 16 + 13)
        open(path, "wb").write(with_f4(raw, offset, np.nan))
        with pytest.raises(DataFormatError, match="non-finite") as info:
            load_dataset(path)
        assert info.value.offset == offset

    @pytest.mark.parametrize("row", [0, 4, 9])
    def test_writer_refuses_a_non_finite_value_in_every_slice(self, tmp_path, monkeypatch,
                                                               row):
        monkeypatch.setattr(egt.errors, "_FINITE_SLICE", 48)
        path = tmp_path / "d.egtd"
        path.write_bytes(b"kept")
        block = np.zeros((10, 1, 4, 4), dtype="<f4")
        write_container(str(tmp_path / "ok.egtd"), b"X ", ["a=1"], b"\n", [block])
        block[row, 0, 3, 1] = -np.inf
        with pytest.raises(NumericError, match="non-finite"):
            write_container(str(path), b"X ", ["a=1"], b"\n", [block])
        assert path.read_bytes() == b"kept"

    def test_load_builds_no_full_size_mask(self, tmp_path):
        # 2,000 images of 3x16x16: a whole-payload finite mask would be 1.5 MB
        rng = np.random.default_rng(3)
        images = rng.uniform(size=(2000, 3, 16, 16)).astype(np.float32)
        data = LabeledImageSet(images, np.repeat(np.arange(2, dtype=np.int32), 1000), "big")
        path = str(tmp_path / "d.egtd")
        save_dataset(data, path)
        size = len(open(path, "rb").read())
        tracemalloc.start()
        try:
            loaded = load_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
            # the reader's check alone, while only the file's bytes are held
            box = egt.errors.Container(path, "dataset", egt.data.DATASET_MAGIC,
                                       egt.data.DATASET_END)
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            box.blocks([("<f4", images.shape), ("<i4", (2000,))])
            _, blocks_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = loaded.images.nbytes + loaded.labels.nbytes
        # the file's bytes, the images copied out of them, and one 64 KiB mask slice
        assert peak - held - size < 256 << 10
        assert blocks_peak - before < 256 << 10
