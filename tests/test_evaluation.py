"""Evaluation, transductive inference, feature statistics, and heatmap
rendering tests."""

import math

import numpy as np
import pytest

from egt import evaluation, tensornet
from egt.data import GeneratorSpec, LabeledImageSet, gen_synthetic_domains, sample_episode
from egt.errors import ConfigError, ContractError, DataFormatError, NumericError
from egt.evaluation import (
    EvalReport,
    TransductiveConfig,
    confidence_interval,
    dataset_feature_stats,
    episode_accuracy,
    evaluate,
    feature_stats,
    spatial_quantile_pool,
    transductive_infer,
)
from egt.heatmap import read_ppm, relevance_to_rgb, render_heatmap, write_ppm
from egt.heads import class_prototypes, scaled_softmax
from egt.model import build_model, episode_probs


def _toy_set(counts, channels=1, side=8, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.uniform(size=(sum(counts), channels, side, side)).astype(np.float32)
    labels = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
    return LabeledImageSet(images, labels, domain_tag="toy")


def _tiny_model(head="cosine", seed=0):
    return build_model(head, (1, 8, 8), np.random.default_rng(seed),
                       widths=(2,), hidden=4)


class TestConfidenceInterval:
    def test_hand_values(self):
        mean, ci, degenerate = confidence_interval([0.0, 1.0])
        assert mean == 0.5 and not degenerate
        # Sample std with ddof=1 is sqrt(0.5); n = 2.
        assert ci == pytest.approx(1.96 * math.sqrt(0.5) / math.sqrt(2.0))

    def test_constant_values_have_zero_width(self):
        mean, ci, degenerate = confidence_interval([0.2] * 50)
        assert mean == pytest.approx(0.2) and not degenerate
        assert ci == pytest.approx(0.0, abs=1e-15)

    def test_single_episode_degenerate(self):
        mean, ci, degenerate = confidence_interval([0.75])
        assert mean == 0.75 and ci == 0.0 and degenerate

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        accs = rng.uniform(size=200)
        mean, ci, _ = confidence_interval(accs)
        assert mean == pytest.approx(accs.mean())
        assert ci == pytest.approx(1.96 * accs.std(ddof=1) / math.sqrt(200))


class TestEvaluate:
    def test_chance_level_on_structureless_data(self):
        # Untrained encoder, random pixels: accuracy must hover at 1/way.
        data = _toy_set([6] * 10, seed=2)
        model = _tiny_model(seed=3)
        report = evaluate(model, data, way=5, shot=1, n_query=5, episodes=300,
                          rng=np.random.default_rng(4))
        assert abs(report.mean - 0.2) < 0.05
        assert report.episodes == 300 and not report.degenerate
        assert report.accuracies.shape == (300,)

    def test_deterministic_given_seed(self):
        data = _toy_set([6] * 8, seed=5)
        model = _tiny_model(seed=6)
        a = evaluate(model, data, 3, 2, 6, 20, np.random.default_rng(7))
        b = evaluate(model, data, 3, 2, 6, 20, np.random.default_rng(7))
        np.testing.assert_array_equal(a.accuracies, b.accuracies)
        assert a.mean == b.mean and a.ci95 == b.ci95

    def test_single_episode_flagged(self):
        data = _toy_set([6] * 8, seed=11)
        model = _tiny_model(seed=12)
        report = evaluate(model, data, 3, 2, 6, 1, np.random.default_rng(13))
        assert report.degenerate and report.ci95 == 0.0


@pytest.fixture(scope="module")
def corpus():
    """A small corpus at the gate's image size, for the encoder's own shapes."""
    spec = GeneratorSpec(classes=7, images_per_class=14, height=16, width=16,
                         domains=("dark",))
    (data,) = gen_synthetic_domains(spec, seed=41)
    return data


def _gate_model(head):
    return build_model(head, (3, 16, 16), np.random.default_rng([42, 0]))


def _encoded(model, ep):
    """An episode's leading arguments of ``transductive_infer``, encoded afresh."""
    return (model.encode(ep.support_images), ep.support_local, ep.way,
            model.encode(ep.query_images))


class TestEmbeddingTable:
    """``evaluate`` scores episodes from a per-call table of encoder rows."""

    @pytest.mark.parametrize("head", ["cosine", "relation"])
    def test_encoder_rows_do_not_depend_on_batch(self, corpus, head):
        model = _gate_model(head)
        batch = model.encode(corpus.images)
        single = np.concatenate([model.encode(img[None]) for img in corpus.images])
        assert np.array_equal(single, batch)

    @pytest.mark.parametrize("transductive", [None, TransductiveConfig(2, (4, 8))],
                             ids=["plain", "transductive"])
    def test_each_row_encoded_once_in_episode_sized_calls(self, monkeypatch,
                                                          transductive):
        data = _toy_set([9] * 7, seed=43)
        model = _tiny_model(seed=44)
        row_of = {img.tobytes(): i for i, img in enumerate(data.images)}
        calls = []
        encode = model.encode

        def counting(images):
            calls.append([row_of[img.tobytes()] for img in images])
            return encode(images)
        monkeypatch.setattr(model, "encode", counting)
        evaluate(model, data, 5, 5, 16, 60, np.random.default_rng(45), transductive)
        encoded = [row for call in calls for row in call]
        assert len(encoded) == len(set(encoded)) == len(data.images)
        assert max(map(len, calls)) <= 5 * 5 + 16

    @pytest.mark.parametrize("transductive", [None, TransductiveConfig(2, (4, 8))],
                             ids=["plain", "transductive"])
    @pytest.mark.parametrize("head", ["cosine", "relation"])
    def test_accuracies_match_encoding_each_episode(self, corpus, head, transductive):
        # The benchmark's eval check at its shapes: each accuracy is the
        # episode's, redrawn from the same seed and encoded afresh, and
        # ``evaluate`` leaves the rng as ``sample_episode`` calls alone would.
        model = _gate_model(head)
        eval_rng = np.random.default_rng(46)
        report = evaluate(model, corpus, 5, 5, 16, 12, eval_rng, transductive)
        rng = np.random.default_rng(46)
        want = []
        for _ in range(12):
            ep = sample_episode(corpus, 5, 5, 16, rng)
            if transductive is None:
                preds = episode_probs(model, ep.support_images, ep.support_local,
                                      ep.way, ep.query_images).argmax(axis=1)
            else:
                preds = transductive_infer(model, *_encoded(model, ep), transductive)
            want.append(float(np.mean(preds == ep.query_local)))
        assert report.accuracies.tolist() == want
        assert eval_rng.bit_generator.state == rng.bit_generator.state

    def test_episode_accuracy_reads_the_table(self, corpus):
        model = _gate_model("cosine")
        ep = sample_episode(corpus, 5, 5, 16, np.random.default_rng(47))
        maps = np.full((len(corpus.images),) + model.encoder.output_shape, np.nan)
        rows = np.concatenate([ep.support_rows, ep.query_rows])
        maps[rows] = model.encode(corpus.images[rows])
        probs = episode_probs(model, ep.support_images, ep.support_local, ep.way,
                              ep.query_images)
        assert episode_accuracy(model, ep, maps) == float(
            np.mean(probs.argmax(axis=1) == ep.query_local))


def _one_episode_predictions(model, ep, cfg, seen=None):
    """One episode scored on its own, with the pool grown by concatenation:
    maps encoded afresh, prototypes by ``class_prototypes`` over the pool,
    probabilities from the head's one-episode ``scores``, not the block
    path that ``evaluate`` takes.  ``seen`` collects each round's
    probabilities and the final ones."""
    def score(protos):
        return scaled_softmax(model.head.scores(protos, queries)[0], model.head.beta)
    support, queries = model.encode(ep.support_images), model.encode(ep.query_images)
    pool, pool_labels = support, ep.support_local
    absorbed = np.zeros(len(queries), dtype=bool)
    seen = [] if seen is None else seen
    for t in range(cfg.iterations):
        probs = score(class_prototypes(pool, pool_labels, ep.way))
        seen.append(probs)
        remaining = np.flatnonzero(~absorbed)
        order = remaining[np.argsort(-probs.max(axis=1)[remaining], kind="stable")]
        chosen = order[:cfg.candidates_per_iter[t]]
        absorbed[chosen] = True
        pool = np.concatenate([pool, queries[chosen]])
        pool_labels = np.concatenate([pool_labels, probs.argmax(axis=1)[chosen]])
    seen.append(score(class_prototypes(pool, pool_labels, ep.way)))
    return seen[-1].argmax(axis=1)


_BLOCK = evaluation._EVAL_BLOCK
_CFGS = {"plain": None, "transductive": TransductiveConfig(2, (4, 8))}


class TestBlocks:
    """``evaluate`` scores blocks of episodes; each accuracy is still the
    episode's own, on both sides of every block boundary."""

    @pytest.fixture(scope="class")
    def reference(self, corpus):
        cache = {}

        def get(head, rounds):
            if (head, rounds) not in cache:
                model, rng = _gate_model(head), np.random.default_rng(48)
                accs, states, probs = [], [], []
                for _ in range(2 * _BLOCK + 3):
                    ep = sample_episode(corpus, 5, 5, 16, rng)
                    probs.append([])
                    preds = _one_episode_predictions(model, ep, _CFGS[rounds] or
                                                     TransductiveConfig(0, ()), probs[-1])
                    accs.append(float(np.mean(preds == ep.query_local)))
                    states.append(rng.bit_generator.state)
                cache[head, rounds] = model, accs, states, np.array(probs)
            return cache[head, rounds]
        return get

    @pytest.mark.parametrize("episodes", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    @pytest.mark.parametrize("rounds", list(_CFGS))
    @pytest.mark.parametrize("head", ["cosine", "relation"])
    def test_matches_one_episode_at_a_time(self, corpus, reference, monkeypatch, head,
                                           rounds, episodes):
        # Accuracies, the rng state left, and every round's probabilities
        # bit for bit: prototypes of the grown pool included.
        model, accs, states, probs = reference(head, rounds)
        calls, real = [], evaluation.probs_from_maps
        monkeypatch.setattr(evaluation, "probs_from_maps",
                            lambda *args: calls.append(real(*args)) or calls[-1])
        rng = np.random.default_rng(48)
        report = evaluate(model, corpus, 5, 5, 16, episodes, rng, _CFGS[rounds])
        assert report.accuracies.tolist() == accs[:episodes]
        assert rng.bit_generator.state == states[episodes - 1]
        per_block = probs.shape[1]  # calls per block: each round's, then the final ones
        got = np.stack([np.concatenate(calls[r::per_block]) for r in range(per_block)], axis=1)
        assert np.array_equal(got, probs[:episodes])

    def test_relation_eval_records_no_trace(self, corpus, monkeypatch):
        # The relation net scores eval episodes through an unrecorded pass,
        # with the accuracies of the head's recorded ``scores``.
        model, episodes = _gate_model("relation"), _BLOCK + 1
        rng = np.random.default_rng(50)
        want = []
        for _ in range(episodes):
            ep = sample_episode(corpus, 5, 5, 16, rng)
            protos = class_prototypes(model.encode(ep.support_images), ep.support_local, 5)
            scores = model.head.scores(protos, model.encode(ep.query_images))[0]
            preds = scaled_softmax(scores, model.head.beta).argmax(axis=1)
            want.append(float(np.mean(preds == ep.query_local)))

        def refuse(*args, **kwargs):
            raise AssertionError("evaluation recorded a forward pass")
        monkeypatch.setattr(tensornet.Network, "forward_recorded", refuse)
        monkeypatch.setattr(tensornet, "LayerTrace", refuse)
        report = evaluate(model, corpus, 5, 5, 16, episodes, np.random.default_rng(50))
        assert report.accuracies.tolist() == want

    def test_zero_norm_embedding_raises_as_one_episode_does(self, corpus):
        # An all-zero image encodes to an all-zero map (the biases start at
        # zero), which the cosine head cannot score.
        model = _gate_model("cosine")
        images = corpus.images.copy()
        images[-1] = 0.0
        data = LabeledImageSet(images, corpus.labels, domain_tag="dark")
        rng = np.random.default_rng(49)
        with pytest.raises(NumericError) as want:
            while True:
                ep = sample_episode(data, 5, 5, 16, rng)
                _one_episode_predictions(model, ep, TransductiveConfig(0, ()))
        with pytest.raises(NumericError) as got:
            evaluate(model, data, 5, 5, 16, 2 * _BLOCK + 3, np.random.default_rng(49))
        assert str(got.value) == str(want.value)


class TestTransductive:
    def test_support_pool_growth(self):
        data = _toy_set([12] * 7, seed=17)
        model = _tiny_model(seed=18)
        ep = sample_episode(data, 5, 5, 16, np.random.default_rng(19))
        preds, history = transductive_infer(model, *_encoded(model, ep),
                                            TransductiveConfig(2, (4, 8)),
                                            return_history=True)
        assert [h["support_size"] for h in history] == [29, 37]
        assert preds.shape == (16,)
        absorbed = history[0]["absorbed"] + history[1]["absorbed"]
        assert len(set(absorbed)) == 12

    def test_episode_not_modified(self):
        data = _toy_set([8] * 6, seed=20)
        model = _tiny_model(seed=21)
        ep = sample_episode(data, 3, 2, 6, np.random.default_rng(22))
        args = _encoded(model, ep)
        before = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
        transductive_infer(model, *args, TransductiveConfig(2, (2, 3)))
        for got, want in zip(args, before):
            np.testing.assert_array_equal(got, want)

    def test_candidate_clamp_warns(self):
        data = _toy_set([8] * 6, seed=23)
        model = _tiny_model(seed=24)
        ep = sample_episode(data, 3, 2, 4, np.random.default_rng(25))
        with pytest.warns(UserWarning, match="clamping"):
            preds = transductive_infer(model, *_encoded(model, ep),
                                       TransductiveConfig(2, (3, 9)))
        assert preds.shape == (4,)

    def test_zero_iterations_is_plain_argmax(self):
        data = _toy_set([8] * 6, seed=26)
        model = _tiny_model(seed=27)
        ep = sample_episode(data, 3, 2, 6, np.random.default_rng(28))
        preds = transductive_infer(model, *_encoded(model, ep), TransductiveConfig(0, ()))
        probs = episode_probs(model, ep.support_images, ep.support_local,
                              ep.way, ep.query_images)
        np.testing.assert_array_equal(preds, probs.argmax(axis=1))

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="nondecreasing"):
            TransductiveConfig(2, (8, 4))
        with pytest.raises(ConfigError, match="candidate counts"):
            TransductiveConfig(1, ())
        with pytest.raises(ConfigError, match="positive"):
            TransductiveConfig(1, (0,))

    def test_confident_ties_break_by_index(self, monkeypatch):
        # Exactly equal confidences, forced through the probabilities:
        # identical query maps need not tie, since the score product may
        # round a row by its position.  Ties go to the lowest index.
        rng = np.random.default_rng(29)
        model = _tiny_model(seed=30)
        support = model.encode(rng.uniform(size=(4, 1, 8, 8)))
        query = model.encode(rng.uniform(size=(6, 1, 8, 8)))
        top = np.array([0.6, 0.9, 0.6, 0.9, 0.9, 0.6])
        # scored as a block of one episode: probabilities [1, n, K]
        monkeypatch.setattr("egt.evaluation.probs_from_maps",
                            lambda model, protos, maps: np.stack([top, 1 - top], axis=-1)[None])
        _, history = transductive_infer(model, support, np.array([0, 0, 1, 1]), 2,
                                        query, TransductiveConfig(1, (4,)),
                                        return_history=True)
        assert history[0]["absorbed"] == [1, 3, 4, 0]


class TestFeatureStats:
    def test_quantile_hand_value(self):
        feat = np.arange(1.0, 101.0).reshape(1, 10, 10)
        got = spatial_quantile_pool(feat, 0.95)
        np.testing.assert_allclose(got, [95.05])

    def test_pool_is_per_channel(self):
        feat = np.stack([np.full((4, 4), 2.0), np.full((4, 4), -1.0)])
        np.testing.assert_allclose(spatial_quantile_pool(feat, 0.5), [2.0, -1.0])

    def test_stats_hand_values(self):
        # Channels pool to [1, 2, 3]: population variance 2/3, and the
        # 0.95/0.45 quantile spread of that vector is exactly 1.
        feat = np.stack([np.full((2, 2), 1.0), np.full((2, 2), 2.0),
                         np.full((2, 2), 3.0)])
        stats = feature_stats(feat)
        np.testing.assert_allclose(stats.channel_quantiles, [1.0, 2.0, 3.0])
        assert stats.s2 == pytest.approx(2.0 / 3.0)
        assert stats.qdiff == pytest.approx(1.0)

    def test_uniform_channels_have_zero_spread(self):
        feat = np.full((4, 3, 3), 0.7)
        stats = feature_stats(feat)
        assert stats.s2 == 0.0 and stats.qdiff == 0.0

    def test_validation(self):
        with pytest.raises(ContractError):
            spatial_quantile_pool(np.ones((2, 2)), 0.5)
        with pytest.raises(ContractError):
            spatial_quantile_pool(np.ones((1, 2, 2)), 1.5)
        with pytest.raises(ContractError, match="channels"):
            feature_stats(np.ones((1, 2, 2)))

    def test_dataset_stats(self):
        data = _toy_set([4, 4], seed=31)
        model = _tiny_model(seed=32)
        stats = dataset_feature_stats(model, data)
        assert len(stats) == 8
        limited = dataset_feature_stats(model, data, limit=3)
        assert len(limited) == 3
        np.testing.assert_allclose(limited[0].s2, stats[0].s2)


class TestHeatmap:
    def test_palette_hand_pixels(self):
        rel = np.array([[1.0, -1.0], [0.5, 0.0]])
        rgb = relevance_to_rgb(rel)
        np.testing.assert_array_equal(rgb[0, 0], [255, 0, 0])
        np.testing.assert_array_equal(rgb[0, 1], [0, 0, 255])
        np.testing.assert_array_equal(rgb[1, 0], [255, 128, 128])
        np.testing.assert_array_equal(rgb[1, 1], [255, 255, 255])

    def test_sign_flip_swaps_red_blue(self):
        rng = np.random.default_rng(33)
        rel = rng.normal(size=(6, 5))
        a = relevance_to_rgb(rel)
        b = relevance_to_rgb(-rel)
        np.testing.assert_array_equal(a[..., 0], b[..., 2])
        np.testing.assert_array_equal(a[..., 2], b[..., 0])
        np.testing.assert_array_equal(a[..., 1], b[..., 1])

    def test_scale_invariance(self):
        rng = np.random.default_rng(34)
        rel = rng.normal(size=(4, 4))
        np.testing.assert_array_equal(relevance_to_rgb(rel),
                                      relevance_to_rgb(3.7 * rel))

    def test_all_zero_is_white(self):
        rgb = relevance_to_rgb(np.zeros((3, 3)))
        assert np.all(rgb == 255)

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(35)
        rgb = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        path = str(tmp_path / "img.ppm")
        write_ppm(path, rgb)
        with open(path, "rb") as fh:
            assert fh.read(13) == b"P6\n7 5\n255\n" + rgb[0, 0, :2].tobytes()
        np.testing.assert_array_equal(read_ppm(path), rgb)

    def test_render_sums_channels(self, tmp_path):
        rel = np.stack([np.ones((2, 2)), -np.ones((2, 2))])
        pixels = render_heatmap(rel, str(tmp_path / "a.ppm"))
        assert np.all(pixels == 255)

    def test_render_with_underlay(self, tmp_path):
        rel = np.array([[1.0, 0.0]])
        under = np.array([[[0.0, 1.0]]])
        pixels = render_heatmap(rel, str(tmp_path / "b.ppm"),
                                underlay=under, alpha=0.5)
        np.testing.assert_array_equal(pixels[0, 0], [128, 0, 0])
        np.testing.assert_array_equal(pixels[0, 1], [255, 255, 255])

    def test_underlay_shape_mismatch(self, tmp_path):
        with pytest.raises(ContractError, match="underlay"):
            render_heatmap(np.ones((2, 2)), str(tmp_path / "c.ppm"),
                           underlay=np.ones((1, 3, 3)))

    # header -> the byte of the field at fault
    BAD_PPM_FIELDS = {
        "non-numeric-width": (b"P6\nab 2\n255\n", 3),
        "zero-width": (b"P6\n0 2\n255\n", 3),
        "negative-height": (b"P6\n2 -1\n255\n", 5),
        "signed-height": (b"P6\n2 +2\n255\n", 5),
        "non-numeric-max-value": (b"P6\n2 2\n25x\n", 7),
        "unsupported-max-value": (b"P6\n2 2\n65535\n", 7),
    }

    @pytest.mark.parametrize("case", sorted(BAD_PPM_FIELDS))
    def test_read_ppm_refuses_bad_header_fields(self, tmp_path, case):
        header, offset = self.BAD_PPM_FIELDS[case]
        path = tmp_path / "x.ppm"
        path.write_bytes(header + bytes(12))
        with pytest.raises(DataFormatError) as info:
            read_ppm(str(path))
        assert info.value.offset == offset

    def test_read_ppm_rejects_foreign(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P5\n2 2\n255\n....")
        with pytest.raises(DataFormatError):
            read_ppm(str(path))
