"""Dataset, episode sampling, and generator tests."""

import numpy as np
import pytest

import egt.data
from egt.data import (
    Episode,
    GeneratorSpec,
    LabeledImageSet,
    gen_synthetic_domains,
    load_dataset,
    query_shares,
    sample_episode,
    save_dataset,
)
from egt.errors import ConfigError, ContractError, DataFormatError, format_dims, parse_dims

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
