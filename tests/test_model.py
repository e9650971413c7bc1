"""Model assembly and checkpoint round-trip tests."""

import numpy as np
import pytest

from egt.errors import ConfigError, DataFormatError
from egt import heads as heads_module
from egt.heads import CosineHead, RelationHead, scaled_softmax
from egt.model import (
    build_encoder,
    build_model,
    build_relation_net,
    episode_probs,
    explain_input,
    load_model,
    probs_from_maps,
    save_model,
)
from egt import model as model_module
from egt.lrp import LrpConfig, lrp_backward
from egt.tensornet import Flatten, Linear, Network

from util_nets import FUZZ_BYTES, count_grad_input, loads_or_fails_cleanly


def _param_blob(model):
    parts = []
    for net in model.networks():
        for _, layer in net.param_layers():
            parts.append(layer.weight.ravel())
            parts.append(layer.bias.ravel())
    return np.concatenate(parts)


class TestBuilders:
    def test_encoder_output_map(self):
        rng = np.random.default_rng(0)
        enc = build_encoder((3, 32, 32), rng)
        assert enc.output_shape == (32, 4, 4)
        out = enc.forward(rng.normal(size=(1, 3, 32, 32)))
        assert out.shape == (1, 32, 4, 4)

    def test_encoder_width_and_size_options(self):
        rng = np.random.default_rng(1)
        enc = build_encoder((1, 16, 16), rng, widths=(4, 8))
        assert enc.output_shape == (8, 4, 4)

    def test_encoder_rejects_indivisible_input(self):
        with pytest.raises(ConfigError, match="divisible"):
            build_encoder((3, 30, 32), np.random.default_rng(2))

    def test_encoder_seed_determinism(self):
        a = build_encoder((3, 32, 32), np.random.default_rng(7))
        b = build_encoder((3, 32, 32), np.random.default_rng(7))
        for (_, la), (_, lb) in zip(a.param_layers(), b.param_layers()):
            np.testing.assert_array_equal(la.weight, lb.weight)

    def test_relation_net_scores_one_logit(self):
        rng = np.random.default_rng(3)
        net = build_relation_net((64, 4, 4), rng)
        out = net.forward(rng.normal(size=(5, 64, 4, 4)))
        assert out.shape == (5, 1)

    def test_relation_net_odd_channels_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            build_relation_net((7, 4, 4), np.random.default_rng(4))

    def test_build_model_heads(self):
        rng = np.random.default_rng(5)
        cm = build_model("cosine", (3, 32, 32), rng)
        assert isinstance(cm.head, CosineHead) and cm.head.beta == 7.0
        rm = build_model("relation", (3, 32, 32), np.random.default_rng(5))
        assert isinstance(rm.head, RelationHead) and rm.head.beta == 1.0
        assert rm.head.net.input_shape == (64, 4, 4)
        with pytest.raises(ConfigError, match="head"):
            build_model("softmax", (3, 32, 32), rng)


class TestEpisodeProbs:
    def _episode(self, rng, way=3, shot=2, n_q=4, side=16):
        support = rng.normal(size=(way * shot, 1, side, side))
        local = np.repeat(np.arange(way), shot)
        queries = rng.normal(size=(n_q, 1, side, side))
        return support, local, queries

    @pytest.mark.parametrize("head", ["cosine", "relation"])
    def test_rows_are_distributions(self, head):
        rng = np.random.default_rng(6)
        model = build_model(head, (1, 16, 16), rng, widths=(4, 8))
        support, local, queries = self._episode(rng)
        probs = episode_probs(model, support, local, 3, queries)
        assert probs.shape == (4, 3)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(4), rtol=1e-12)
        assert np.all(probs > 0)

    def test_relation_probs_match_per_query_loop(self):
        rng = np.random.default_rng(7)
        model = build_model("relation", (1, 16, 16), rng, widths=(4, 8))
        support, local, queries = self._episode(rng)
        probs = episode_probs(model, support, local, 3, queries)
        from egt.heads import class_prototypes
        smaps = model.encode(support)
        qmaps = model.encode(queries)
        protos = class_prototypes(smaps, local, 3)
        for i in range(queries.shape[0]):
            logits, _ = model.head.scores(protos, qmaps[i:i + 1])
            np.testing.assert_allclose(probs[i], scaled_softmax(logits[0], model.head.beta),
                                       rtol=1e-10)

    def test_probs_from_maps_matches_episode_probs(self):
        rng = np.random.default_rng(8)
        model = build_model("cosine", (1, 16, 16), rng, widths=(4, 8))
        support, local, queries = self._episode(rng)
        from egt.heads import class_prototypes
        protos = class_prototypes(model.encode(support), local, 3)
        a = probs_from_maps(model, protos, model.encode(queries))
        b = episode_probs(model, support, local, 3, queries)
        np.testing.assert_allclose(a, b, rtol=1e-12)


class TestCheckpoint:
    @pytest.mark.parametrize("head", ["cosine", "relation"])
    def test_fuzzed_checkpoint_loads_or_fails_cleanly(self, head, tmp_path):
        # Truncation at every header byte and every float32 boundary of
        # the payload, and every single-byte replacement in the header.
        model = build_model(head, (1, 8, 8), np.random.default_rng(11),
                            widths=(2, 4), hidden=4)
        path = str(tmp_path / "m.egt1")
        save_model(model, path)
        raw = open(path, "rb").read()
        cut = raw.index(b"\nend\n") + len(b"\nend\n")
        cases = [raw[:i] for i in range(cut)] + [raw[:i] for i in range(cut, len(raw), 4)]
        cases += [raw[:i] + bytes([b]) + raw[i + 1:]
                  for i in range(cut) for b in FUZZ_BYTES if b != raw[i]]
        assert 0 < loads_or_fails_cleanly(load_model, path, cases) < len(cases)

    @pytest.mark.parametrize("head", ["cosine", "relation"])
    def test_round_trip_parameters(self, head, tmp_path):
        rng = np.random.default_rng(9)
        model = build_model(head, (1, 16, 16), rng, widths=(4, 8), hidden=10)
        path = str(tmp_path / "m.egt1")
        save_model(model, path)
        loaded = load_model(path)
        # float32 storage: loaded parameters equal the f4-rounded originals.
        want = _param_blob(model).astype("<f4").astype(np.float64)
        np.testing.assert_array_equal(_param_blob(loaded), want)
        assert loaded.head_kind == head
        assert loaded.encoder.input_shape == (1, 16, 16)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(10)
        model = build_model("relation", (3, 32, 32), rng, hidden=12)
        p1, p2 = str(tmp_path / "a.egt1"), str(tmp_path / "b.egt1")
        save_model(model, p1)
        save_model(load_model(p1), p2)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_head_meta_survives(self, tmp_path):
        rng = np.random.default_rng(11)
        model = build_model("cosine", (1, 16, 16), rng, widths=(4, 8), beta=3.25)
        path = str(tmp_path / "m.egt1")
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.head.beta == 3.25

    def test_checkpoint_with_query_variant_loads(self, tmp_path):
        # checkpoints written while the explain variant was an option name
        # it on the head line; "query" is the rule that remains
        rng = np.random.default_rng(14)
        model = build_model("cosine", (1, 16, 16), rng, widths=(4, 8), beta=3.25)
        path = tmp_path / "m.egt1"
        save_model(model, str(path))
        raw = path.read_bytes()
        head = b"head kind=cosine beta=3.25\n"
        assert head in raw
        path.write_bytes(raw.replace(head, b"head kind=cosine beta=3.25 variant=query\n"))
        loaded = load_model(str(path))
        assert isinstance(loaded.head, CosineHead) and loaded.head.beta == 3.25
        want = _param_blob(model).astype("<f4").astype(np.float64)
        np.testing.assert_array_equal(_param_blob(loaded), want)
        support = rng.uniform(size=(4, 1, 16, 16))
        query = rng.uniform(size=(3, 1, 16, 16))
        labels = np.array([0, 0, 1, 1])
        for net in model.networks():
            for _, layer in net.param_layers():
                layer.weight[...] = layer.weight.astype("<f4")
                layer.bias[...] = layer.bias.astype("<f4")
        np.testing.assert_array_equal(episode_probs(loaded, support, labels, 2, query),
                                      episode_probs(model, support, labels, 2, query))

    def test_loaded_model_predicts_identically_to_f4_copy(self, tmp_path):
        rng = np.random.default_rng(12)
        model = build_model("cosine", (1, 16, 16), rng, widths=(4, 8))
        for net in model.networks():
            for _, layer in net.param_layers():
                layer.weight[...] = layer.weight.astype("<f4")
                layer.bias[...] = layer.bias.astype("<f4")
        path = str(tmp_path / "m.egt1")
        save_model(model, path)
        loaded = load_model(path)
        x = rng.normal(size=(2, 1, 16, 16))
        np.testing.assert_array_equal(loaded.encode(x), model.encode(x))

    @pytest.mark.parametrize("net", [
        pytest.param(lambda rng: build_relation_net((18, 2, 2), rng, hidden=4),
                     id="unpaired-input"),
        pytest.param(lambda rng: Network((16, 2, 2), [Flatten(), Linear.he_init(64, 2, rng)]),
                     id="two-logits")])
    def test_relation_section_that_cannot_pair_rejected(self, net, tmp_path):
        # encoder maps are 8x2x2, so a usable relation net reads 16x2x2 pairs
        # and emits one logit; save_model writes whatever net the head holds
        rng = np.random.default_rng(16)
        model = build_model("relation", (1, 8, 8), rng, widths=(4, 8), hidden=4)
        model.head.net = net(rng)
        path = str(tmp_path / "m.egt1")
        save_model(model, path)
        with pytest.raises(DataFormatError, match="relation section"):
            load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.egt1"
        path.write_bytes(b"PNG1\njunk")
        with pytest.raises(DataFormatError, match="magic"):
            load_model(str(path))

    def test_missing_end_line(self, tmp_path):
        path = tmp_path / "m.egt1"
        path.write_bytes(b"EGT1\nhead kind=cosine beta=7.0 variant=query\n")
        with pytest.raises(DataFormatError, match="end"):
            load_model(str(path))

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(13)
        model = build_model("cosine", (1, 16, 16), rng, widths=(4, 8))
        path = str(tmp_path / "m.egt1")
        save_model(model, path)
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(raw[:-32])
        with pytest.raises(DataFormatError, match="truncated"):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(14)
        model = build_model("cosine", (1, 16, 16), rng, widths=(4, 8))
        path = str(tmp_path / "m.egt1")
        save_model(model, path)
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00\x00\x00")
        with pytest.raises(DataFormatError, match="trailing"):
            load_model(path)

    def test_header_error_offset_is_its_line(self, tmp_path):
        model = build_model("cosine", (1, 16, 16), np.random.default_rng(15), widths=(4, 8))
        path = str(tmp_path / "m.egt1")
        save_model(model, path)
        with open(path, "rb") as fh:
            raw = fh.read()
        line = raw.index(b"layer conv2d")
        with open(path, "wb") as fh:
            fh.write(raw.replace(b"layer conv2d in=1", b"layer conv2d in=x", 1))
        with pytest.raises(DataFormatError, match="in='x'") as info:
            load_model(path)
        assert info.value.offset == line

    def test_offsets_reported(self, tmp_path):
        path = tmp_path / "m.egt1"
        path.write_bytes(b"nope")
        with pytest.raises(DataFormatError, match=r"byte offset 0"):
            load_model(str(path))


class TestExplainInput:
    def _support(self, rng, way=3, shot=2, side=16):
        images = rng.uniform(size=(way * shot, 1, side, side)).astype(np.float32)
        local = np.repeat(np.arange(way), shot)
        return images, local

    def test_shapes_and_targets(self):
        from egt.lrp import LrpConfig
        from egt.model import explain_input
        rng = np.random.default_rng(20)
        model = build_model("cosine", (1, 16, 16), rng, widths=(4, 8))
        support, local = self._support(rng)
        query = rng.uniform(size=(1, 16, 16)).astype(np.float32)
        res = explain_input(model, support, local, 3, query)
        assert sorted(res.input_relevance) == [0, 1, 2]
        for rel in res.input_relevance.values():
            assert rel.shape == (1, 16, 16)
        for rel in res.feature_relevance.values():
            assert rel.shape == (8 * 4 * 4,)
        only = explain_input(model, support, local, 3, query, targets=[1])
        assert sorted(only.input_relevance) == [1]
        np.testing.assert_allclose(only.input_relevance[1], res.input_relevance[1])

    def test_conservation_through_untrained_encoder(self):
        # Freshly built encoders carry zero biases, so the epsilon rule
        # at epsilon 0 conserves relevance from feature map to pixels.
        from egt.lrp import LrpConfig
        from egt.model import explain_input
        rng = np.random.default_rng(21)
        model = build_model("cosine", (1, 16, 16), rng, widths=(4, 8))
        support, local = self._support(rng)
        query = rng.uniform(size=(1, 16, 16)).astype(np.float32)
        cfg = LrpConfig(epsilon=0.0,
                        rule_map={"linear": "epsilon", "conv2d": "epsilon"})
        res = explain_input(model, support, local, 3, query, lrp_cfg=cfg)
        for target in range(3):
            np.testing.assert_allclose(res.input_relevance[target].sum(),
                                       res.feature_relevance[target].sum(),
                                       rtol=1e-8, atol=1e-12)

    def test_relation_query_half_continues(self):
        from egt.lrp import LrpConfig
        from egt.model import explain_input
        rng = np.random.default_rng(22)
        model = build_model("relation", (1, 16, 16), rng, widths=(4, 8), hidden=8)
        support, local = self._support(rng)
        query = rng.uniform(size=(1, 16, 16)).astype(np.float32)
        res = explain_input(model, support, local, 3, query)
        for target in range(3):
            assert res.feature_relevance[target].shape == (16, 4, 4)
            assert res.input_relevance[target].shape == (1, 16, 16)
        assert res.probabilities.shape == (3,)

    @pytest.mark.parametrize("head", ["cosine", "relation"])
    def test_batched_encoder_pass_matches_per_target(self, head, monkeypatch):
        rng = np.random.default_rng(23)
        model = build_model(head, (1, 16, 16), rng, widths=(4, 8), hidden=8)
        support, local = self._support(rng)
        query = rng.uniform(size=(1, 16, 16))
        passes = []

        def recorded(net, *args, **kwargs):
            passes.append(net)
            return lrp_backward(net, *args, **kwargs)
        monkeypatch.setattr(model_module, "lrp_backward", recorded)
        monkeypatch.setattr(heads_module, "lrp_backward", recorded)
        res = explain_input(model, support, local, 3, query, targets=[2, 0])
        # one relation-net pass for both targets, then one encoder pass
        assert passes == ([] if head == "cosine" else [model.head.net]) + [model.encoder]
        assert sorted(res.input_relevance) == [0, 2]
        qmaps, qtrace = model.encode_recorded(query[None])
        for t in (2, 0):
            single = explain_input(model, support, local, 3, query, targets=[t])
            assert res.feature_relevance[t].tobytes() == single.feature_relevance[t].tobytes()
            map_rel = res.feature_relevance[t].reshape(-1)[-qmaps.size:].reshape(qmaps.shape)
            want = lrp_backward(model.encoder, qtrace, map_rel, LrpConfig())[0][0]
            np.testing.assert_array_equal(res.input_relevance[t], want)
            assert res.input_relevance[t].tobytes() == want.tobytes()

    def test_no_targets_explains_nothing(self):
        rng = np.random.default_rng(24)
        for head in ("cosine", "relation"):
            model = build_model(head, (1, 16, 16), rng, widths=(4, 8), hidden=8)
            support, local = self._support(rng)
            res = explain_input(model, support, local, 3, rng.uniform(size=(1, 16, 16)),
                                targets=[])
            assert res.input_relevance == {} and res.feature_relevance == {}

    def test_default_path_folds_once_per_conv(self, monkeypatch):
        # Five targets through a 3-conv encoder: one batched pass, and the
        # alpha-1 shortcut on the encoder's non-negative conv inputs.
        rng = np.random.default_rng(25)
        model = build_model("cosine", (1, 16, 16), rng)
        support, local = self._support(rng, way=5)
        query = rng.uniform(size=(1, 16, 16))
        calls = count_grad_input(monkeypatch)
        res = explain_input(model, support, local, 5, query)
        assert sorted(res.input_relevance) == [0, 1, 2, 3, 4]
        assert len(calls) == 3
