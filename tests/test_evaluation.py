"""Evaluation, transductive inference, feature statistics, and heatmap
rendering tests."""

import math

import numpy as np
import pytest

import egt.evaluation
from egt.data import LabeledImageSet, sample_episode
from egt.errors import ConfigError, ContractError, DataFormatError
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
from egt.model import build_model


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

    def test_workers_do_not_change_results(self):
        data = _toy_set([6] * 8, seed=8)
        model = _tiny_model(seed=9)
        serial = evaluate(model, data, 3, 2, 6, 10, np.random.default_rng(10))
        parallel = evaluate(model, data, 3, 2, 6, 10, np.random.default_rng(10),
                            workers=2)
        np.testing.assert_array_equal(serial.accuracies, parallel.accuracies)

    def test_single_episode_flagged(self):
        data = _toy_set([6] * 8, seed=11)
        model = _tiny_model(seed=12)
        report = evaluate(model, data, 3, 2, 6, 1, np.random.default_rng(13))
        assert report.degenerate and report.ci95 == 0.0

    # (workers asked for, cpu count, episodes) -> processes used
    POOL_SIZES = {(4, 2, 10): 2, (2, 8, 10): 2, (6, 8, 3): 3,
                  (1, 8, 10): 1, (64, None, 10): 1}

    @pytest.mark.parametrize("asked,cpus,episodes", sorted(POOL_SIZES, key=str))
    def test_pool_is_bounded(self, monkeypatch, asked, cpus, episodes):
        sizes = []

        class RecordingPool:
            """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(egt.evaluation, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(egt.evaluation.os, "cpu_count", lambda: cpus)
        data = _toy_set([6] * 8, seed=8)
        model = _tiny_model(seed=9)
        report = evaluate(model, data, 3, 2, 6, episodes, np.random.default_rng(10),
                          workers=asked)
        used = self.POOL_SIZES[(asked, cpus, episodes)]
        assert report.config["workers"] == used
        assert sizes == ([] if used == 1 else [used])
        serial = evaluate(model, data, 3, 2, 6, episodes, np.random.default_rng(10))
        np.testing.assert_array_equal(report.accuracies, serial.accuracies)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            evaluate(_tiny_model(seed=9), _toy_set([6] * 8, seed=8), 3, 2, 6, 2,
                     np.random.default_rng(10), workers=workers)

    def test_config_echo(self):
        data = _toy_set([6] * 8, seed=14)
        model = _tiny_model(seed=15)
        report = evaluate(model, data, 3, 2, 6, 2, np.random.default_rng(16),
                          transductive=TransductiveConfig(1, (2,)))
        assert report.config["transductive"] is True
        assert report.config["domain"] == "toy"
        assert report.config["candidates_per_iter"] == [2]


class TestTransductive:
    def test_support_pool_growth(self):
        data = _toy_set([12] * 7, seed=17)
        model = _tiny_model(seed=18)
        ep = sample_episode(data, 5, 5, 16, np.random.default_rng(19))
        preds, history = transductive_infer(model, ep, TransductiveConfig(2, (4, 8)),
                                            return_history=True)
        assert [h["support_size"] for h in history] == [29, 37]
        assert preds.shape == (16,)
        absorbed = history[0]["absorbed"] + history[1]["absorbed"]
        assert len(set(absorbed)) == 12

    def test_episode_not_modified(self):
        data = _toy_set([8] * 6, seed=20)
        model = _tiny_model(seed=21)
        ep = sample_episode(data, 3, 2, 6, np.random.default_rng(22))
        before = (ep.support_images.copy(), ep.query_images.copy(),
                  ep.support_local.copy())
        transductive_infer(model, ep, TransductiveConfig(2, (2, 3)))
        np.testing.assert_array_equal(ep.support_images, before[0])
        np.testing.assert_array_equal(ep.query_images, before[1])
        np.testing.assert_array_equal(ep.support_local, before[2])

    def test_candidate_clamp_warns(self):
        data = _toy_set([8] * 6, seed=23)
        model = _tiny_model(seed=24)
        ep = sample_episode(data, 3, 2, 4, np.random.default_rng(25))
        with pytest.warns(UserWarning, match="clamping"):
            preds = transductive_infer(model, ep, TransductiveConfig(2, (3, 9)))
        assert preds.shape == (4,)

    def test_zero_iterations_is_plain_argmax(self):
        data = _toy_set([8] * 6, seed=26)
        model = _tiny_model(seed=27)
        ep = sample_episode(data, 3, 2, 6, np.random.default_rng(28))
        preds = transductive_infer(model, ep, TransductiveConfig(0, ()))
        from egt.model import episode_probs
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

    def test_confident_ties_break_by_index(self):
        # Identical query images force equal confidence; the absorbed
        # set must then be the lowest indices, deterministically.
        rng = np.random.default_rng(29)
        support = rng.uniform(size=(4, 1, 8, 8)).astype(np.float32)
        query = np.repeat(rng.uniform(size=(1, 1, 8, 8)), 6, axis=0).astype(np.float32)
        from egt.data import Episode
        ep = Episode(way=2, shot=2, n_query=6,
                     classes=np.array([0, 1]),
                     support_images=support,
                     support_labels=np.array([0, 0, 1, 1]),
                     query_images=query,
                     query_labels=np.array([0, 0, 0, 1, 1, 1]))
        model = _tiny_model(seed=30)
        _, history = transductive_infer(model, ep, TransductiveConfig(1, (3,)),
                                        return_history=True)
        assert history[0]["absorbed"] == [0, 1, 2]


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

    def test_read_ppm_rejects_foreign(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P5\n2 2\n255\n....")
        with pytest.raises(DataFormatError):
            read_ppm(str(path))
