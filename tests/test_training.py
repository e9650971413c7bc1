"""Training-loop tests: loss plumbing, gradient correctness against
finite differences, explanation-branch side-effect freedom, and the
schedule/logging behavior."""

import copy
import math
import os
import threading
import time

import numpy as np
import pytest

import egt.training
from egt import tensornet
from egt.cli import main
from egt.data import GeneratorSpec, LabeledImageSet, sample_episode, save_dataset
from egt.errors import ConfigError, ContractError, NumericError
from egt.evaluation import evaluate
from egt.heads import (
    CosineHead,
    class_prototypes,
    cosine_explain,
    cosine_scores,
    lrp_through_head,
    relevance_init_nonparametric,
    scaled_softmax,
    weighted_features,
)
from egt.lrp import LrpConfig, lrp_backward, normalize_relevance
from egt.model import build_model, explain_input, load_model
from egt.training import (
    TrainConfig,
    cross_entropy,
    default_loss_weights,
    episode_gradients,
    lrp_weights,
    train,
    train_episode,
    train_episode_plain,
)


def _toy_set(counts, channels=1, side=8, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.uniform(size=(sum(counts), channels, side, side)).astype(np.float32)
    labels = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
    return LabeledImageSet(images, labels, domain_tag="toy")


def _tiny_model(head, seed=0, hidden=5):
    rng = np.random.default_rng(seed)
    return build_model(head, (1, 8, 8), rng, widths=(2,), hidden=hidden)


def _episode(seed=0, way=3, shot=2, n_query=4):
    data = _toy_set([shot + n_query] * (way + 1), seed=seed)
    return sample_episode(data, way, shot, n_query, np.random.default_rng(seed))


def _param_arrays(model):
    out = []
    for net in model.networks():
        for _, layer in net.param_layers():
            for name in layer.params():
                out.append(layer.params()[name])
    return out


def _flat_grads(model, enc_grads, rel_grads):
    chunks = []
    for net, grads in zip(model.networks(), [enc_grads, rel_grads]):
        for i, layer in net.param_layers():
            for name in layer.params():
                chunks.append(grads[i][name].ravel())
    return np.concatenate(chunks)


def _fd_grads(model, loss_fn, step=1e-5):
    chunks = []
    for arr in _param_arrays(model):
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = arr[idx]
            arr[idx] = keep + step
            hi = loss_fn()
            arr[idx] = keep - step
            lo = loss_fn()
            arr[idx] = keep
            g[idx] = (hi - lo) / (2 * step)
        chunks.append(g.ravel())
    return np.concatenate(chunks)


def _cosine_parts(model, ep):
    images = np.concatenate([ep.support_images, ep.query_images])
    maps = model.encode(images)
    n_s = ep.support_images.shape[0]
    feats = maps.reshape(maps.shape[0], -1)
    protos = class_prototypes(feats[:n_s], ep.support_local, ep.way)
    return feats[n_s:], protos


def _cosine_weights(model, ep, cfg):
    """Reference explanation weights, built only from head/lrp primitives."""
    fq, protos = _cosine_parts(model, ep)
    probs = scaled_softmax(cosine_scores(fq, protos), model.head.beta)
    rel_init = relevance_init_nonparametric(probs)
    weights = np.empty_like(fq)
    for i in range(fq.shape[0]):
        c = int(np.argmax(probs[i]))
        rel = cosine_explain(fq[i:i + 1], protos, [c], rel_init[i, c:c + 1],
                             cfg.lrp.epsilon)[0]
        weights[i] = 1.0 + normalize_relevance(rel)
    return weights


def _mean_ce(probs, labels):
    return float(np.mean([cross_entropy(int(y), p) for y, p in zip(labels, probs)]))


class TestOps:
    def test_cross_entropy_hand_values(self):
        assert cross_entropy(0, np.array([0.5, 0.5])) == pytest.approx(math.log(2.0))
        assert cross_entropy(1, np.array([0.9, 0.1])) == pytest.approx(-math.log(0.1))

    def test_cross_entropy_clamp(self):
        got = cross_entropy(0, np.array([0.0, 1.0]))
        assert got == pytest.approx(-math.log(1e-12))

    def test_lrp_weights_range(self):
        rel = np.array([1.0, -1.0, 0.0, 0.25])
        np.testing.assert_allclose(lrp_weights(rel), [2.0, 0.0, 1.0, 1.25])

    def test_lrp_weights_rejects_out_of_range(self):
        with pytest.raises(ContractError, match=r"\[-1, 1\]"):
            lrp_weights(np.array([1.5]))

    def test_weighted_features(self):
        f = np.array([2.0, 3.0])
        np.testing.assert_allclose(weighted_features(f, np.array([0.5, 2.0])),
                                   [1.0, 6.0])
        with pytest.raises(ContractError, match="shape"):
            weighted_features(f, np.ones(3))

    def test_default_loss_weights(self):
        assert default_loss_weights("cosine", 5, baseline=True) == (1.0, 0.0)
        assert default_loss_weights("cosine", 5, baseline=False) == (0.0, 1.0)
        assert default_loss_weights("relation", 1, baseline=False) == (1.0, 0.5)
        assert default_loss_weights("relation", 5, baseline=False) == (1.0, 1.0)


class TestCosineClosedForm:
    """The cosine head's EGT weight is ``1 + c / max c`` with ``c = q * phat_t``.

    Relevance and epsilon both cancel in ``normalize_relevance``, so the
    weights match the closed form to a few ulp and do not depend on
    epsilon beyond rounding.
    """

    @staticmethod
    def _weights(protos, qmaps, epsilon):
        # as episode_gradients builds them
        head = CosineHead()
        scores, trace = head.scores(protos, qmaps)
        probs = scaled_softmax(scores, head.beta)
        targets = np.argmax(probs, axis=1)
        rels = lrp_through_head(head, protos, qmaps, trace, head.relevance_init(scores, probs),
                                targets, LrpConfig(epsilon=epsilon))
        return np.array([lrp_weights(normalize_relevance(r)) for r in rels]), targets

    def test_weights_are_the_closed_form_and_epsilon_free(self):
        rng = np.random.default_rng(0)
        for trial in range(60):
            # relu-like maps: non-negative, about a third of the entries zero
            maps = rng.uniform(size=(21, 32, 2, 2)) * (rng.uniform(size=(21, 32, 2, 2)) > 0.3)
            protos, qmaps = maps[:5], maps[5:]
            if trial == 0:
                # a query sharing no feature with any prototype: c = 0, r = 0
                protos[:, :16] = 0.0
                qmaps[0, 16:] = 0.0
            w, targets = self._weights(protos, qmaps, 1e-3)
            w_wide, _ = self._weights(protos, qmaps, 0.5)
            np.testing.assert_array_max_ulp(w, w_wide, maxulp=4)
            q, p = qmaps.reshape(16, -1), protos.reshape(5, -1)
            c = q * (p[targets] / np.linalg.norm(p[targets], axis=1, keepdims=True))
            peak = c.max(axis=1, keepdims=True)
            closed = 1.0 + np.divide(c, peak, out=np.zeros_like(c), where=peak > 0)
            np.testing.assert_array_max_ulp(w, closed, maxulp=4)
            if trial == 0:
                assert not c[0].any() and np.array_equal(w[0], np.ones_like(w[0]))


class TestTrainConfig:
    def test_rejects_zero_loss_mix(self):
        with pytest.raises(ConfigError, match="xi"):
            TrainConfig(xi=0.0, lam=0.0)

    def test_rejects_negative_weights(self):
        with pytest.raises(ConfigError):
            TrainConfig(xi=-1.0, lam=1.0)

    def test_rejects_bad_optimizer(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(momentum=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make,field", [
        (TrainConfig, "lr"), (TrainConfig, "xi"), (TrainConfig, "lam"),
        (TrainConfig, "momentum"), (TrainConfig, "lr_decay"),
        (LrpConfig, "epsilon"), (LrpConfig, "alpha"),
        (GeneratorSpec, "min_channel_gap"), (CosineHead, "beta")])
    def test_non_finite_float_rejected(self, make, field, value):
        with pytest.raises(ConfigError, match=field):
            make(**{field: value})

    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.epochs == 100 and cfg.episodes_per_epoch == 100
        assert cfg.lr_decay_every == 40 and cfg.lr_decay == 0.5


class TestExplanationBranchIsSideEffectFree:
    @pytest.mark.parametrize("head", ["cosine", "relation"])
    def test_lambda_zero_matches_plain_trainer_bitwise(self, head):
        cfg = TrainConfig(way=3, shot=2, n_query=4, xi=1.0, lam=0.0,
                          lr=0.05, momentum=0.9, epochs=1, episodes_per_epoch=1)
        a = _tiny_model(head, seed=1)
        b = _tiny_model(head, seed=1)
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        data = _toy_set([8] * 5, seed=3)
        for _ in range(12):
            ep_a = sample_episode(data, 3, 2, 4, rng_a)
            ep_b = sample_episode(data, 3, 2, 4, rng_b)
            res_a = train_episode(a, ep_a, cfg)
            res_b = train_episode_plain(b, ep_b, cfg)
            assert res_a.loss_plain == res_b.loss_plain
        for pa, pb in zip(_param_arrays(a), _param_arrays(b)):
            np.testing.assert_array_equal(pa, pb)

    def test_lambda_zero_still_reports_reweighted_loss(self):
        cfg = TrainConfig(way=3, shot=2, n_query=4, xi=1.0, lam=0.0)
        model = _tiny_model("cosine", seed=2)
        res, _, _ = episode_gradients(model, _episode(seed=4), cfg)
        assert res.loss_lrp > 0.0
        assert res.probs_lrp.shape == res.probs.shape
        assert not np.array_equal(res.probs_lrp, res.probs)


# Both passes, the re-weighted pass only (the cosine EGT default), and the
# plain pass only: every number of passes a head's backward accumulates.
LOSS_MIXES = pytest.mark.parametrize("xi,lam", [
    pytest.param(0.7, 1.3, id="both-passes"),
    pytest.param(0.0, 1.0, id="reweighted-only"),
    pytest.param(1.0, 0.0, id="plain-only")])


class TestGradientsAgainstFiniteDifferences:
    @LOSS_MIXES
    def test_cosine_stop_gradient(self, xi, lam):
        model = _tiny_model("cosine", seed=5)
        ep = _episode(seed=6)
        cfg = TrainConfig(way=3, shot=2, n_query=4, xi=xi, lam=lam)
        w0 = _cosine_weights(model, ep, cfg)

        def frozen_loss():
            fq, protos = _cosine_parts(model, ep)
            probs = scaled_softmax(cosine_scores(fq, protos), model.head.beta)
            probs2 = scaled_softmax(cosine_scores(fq * w0, protos), model.head.beta)
            return (cfg.xi * _mean_ce(probs, ep.query_local)
                    + cfg.lam * _mean_ce(probs2, ep.query_local))

        res, enc_grads, _ = episode_gradients(model, ep, cfg)
        assert res.loss_total == pytest.approx(frozen_loss(), rel=1e-12)
        got = _flat_grads(model, enc_grads, None)
        want = _fd_grads(model, frozen_loss)
        np.testing.assert_allclose(got, want, rtol=2e-4, atol=1e-8)

    @LOSS_MIXES
    def test_relation_stop_gradient(self, xi, lam):
        model = _tiny_model("relation", seed=8, hidden=4)
        ep = _episode(seed=9)
        cfg = TrainConfig(way=3, shot=2, n_query=4, xi=xi, lam=lam)
        lrp_cfg = cfg.lrp

        def pair_tensor():
            images = np.concatenate([ep.support_images, ep.query_images])
            maps = model.encode(images)
            n_s = ep.support_images.shape[0]
            protos = class_prototypes(maps[:n_s], ep.support_local, ep.way)
            qmaps = maps[n_s:]
            n = qmaps.shape[0]
            return np.concatenate(
                [np.broadcast_to(protos[None], (n,) + protos.shape),
                 np.broadcast_to(qmaps[:, None], (n, ep.way) + qmaps.shape[1:])],
                axis=2)

        pairs0 = pair_tensor()
        n, way = pairs0.shape[:2]
        flat0 = pairs0.reshape((n * way,) + pairs0.shape[2:])
        logits0, trace0 = model.head.net.forward_recorded(flat0)
        probs0 = scaled_softmax(logits0[:, 0].reshape(n, way), model.head.beta)
        winners = np.argmax(probs0, axis=1)
        init = np.zeros((n * way, 1))
        rows = np.arange(n) * way + winners
        init[rows, 0] = logits0[:, 0].reshape(n, way)[np.arange(n), winners]
        rel = lrp_backward(model.head.net, trace0, init, lrp_cfg)
        w0 = np.stack([1.0 + normalize_relevance(rel[r]) for r in rows])

        def frozen_loss():
            pairs = pair_tensor()
            flat = pairs.reshape((n * way,) + pairs.shape[2:])
            logits = model.head.net.forward(flat)[:, 0].reshape(n, way)
            probs = scaled_softmax(logits, model.head.beta)
            flat2 = (pairs * w0[:, None]).reshape(flat.shape)
            logits2 = model.head.net.forward(flat2)[:, 0].reshape(n, way)
            probs2 = scaled_softmax(logits2, model.head.beta)
            return (cfg.xi * _mean_ce(probs, ep.query_local)
                    + cfg.lam * _mean_ce(probs2, ep.query_local))

        res, enc_grads, rel_grads = episode_gradients(model, ep, cfg)
        assert res.loss_total == pytest.approx(frozen_loss(), rel=1e-12)
        got = _flat_grads(model, enc_grads, rel_grads)
        want = _fd_grads(model, frozen_loss)
        np.testing.assert_allclose(got, want, rtol=2e-4, atol=1e-8)


class TestTrainingDynamics:
    def test_loss_decreases_on_learnable_data(self):
        # Blank images versus bright-square images are separable, so a
        # short run must push the episode loss down.
        rng = np.random.default_rng(16)
        base = rng.uniform(0.0, 0.1, size=(40, 1, 8, 8))
        shaped = base.copy()
        shaped[:, :, 2:6, 2:6] += 0.8
        images = np.concatenate([base[:20], shaped[:20]]).astype(np.float32)
        labels = np.repeat([0, 1], 20).astype(np.int32)
        rng_shuffle = np.random.default_rng(17)
        extra = rng_shuffle.permutation(40)
        data = LabeledImageSet(images[extra], labels[extra], "sep")

        model = _tiny_model("cosine", seed=18)
        cfg = TrainConfig(way=2, shot=3, n_query=6, xi=0.0, lam=1.0, lr=0.05)
        rng_ep = np.random.default_rng(19)
        losses = []
        for _ in range(50):
            ep = sample_episode(data, 2, 3, 6, rng_ep)
            losses.append(train_episode(model, ep, cfg).loss_total)
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    @pytest.mark.parametrize("head", ["cosine", "relation"])
    def test_non_finite_encoder_gradient_moves_no_parameter(self, head, monkeypatch):
        # The encoder's input gradient is not computed, so nothing checks
        # it; the step still refuses a non-finite parameter gradient
        # before any parameter or momentum buffer changes.
        model = _tiny_model(head, seed=22)
        cfg = TrainConfig(way=3, shot=2, n_query=4, lr=0.1)
        train_episode(model, _episode(seed=23), cfg)  # fills the momentum buffers
        real = model.head.backward

        def poisoned(*args):
            d_protos, d_q, rel_grads = real(*args)
            d_q[0].flat[0] = np.nan
            return d_protos, d_q, rel_grads
        monkeypatch.setattr(model.head, "backward", poisoned)
        before = copy.deepcopy(model)
        with pytest.raises(NumericError, match="non-finite gradient"):
            train_episode(model, _episode(seed=24), cfg)
        for net, kept in zip(model.networks(), before.networks()):
            for layer, old in zip(net.layers, kept.layers):
                for name, arr in layer.params().items():
                    np.testing.assert_array_equal(arr, old.params()[name])
                    np.testing.assert_array_equal(layer.velocity[name], old.velocity[name])

    def test_way_mismatch_rejected(self):
        model = _tiny_model("cosine", seed=20)
        cfg = TrainConfig(way=4, shot=2, n_query=4)
        with pytest.raises(ContractError, match="way"):
            train_episode(model, _episode(seed=21, way=3), cfg)


class TestTrainLoop:
    def _stream(self, data, cfg, seed):
        rng = np.random.default_rng(seed)
        while True:
            yield sample_episode(data, cfg.way, cfg.shot, cfg.n_query, rng)

    def test_log_rows_and_checkpoint(self, tmp_path):
        data = _toy_set([8] * 4, seed=22)
        cfg = TrainConfig(way=3, shot=2, n_query=4, xi=0.0, lam=1.0,
                          epochs=2, episodes_per_epoch=3, lr=0.01)
        model = _tiny_model("cosine", seed=23)
        log = tmp_path / "log.csv"
        ckpt = tmp_path / "model.egt1"
        rows = train(model, self._stream(data, cfg, 24), cfg,
                     log_path=str(log), checkpoint_path=str(ckpt))
        assert len(rows) == 6
        lines = log.read_text().strip().split("\n")
        assert lines[0] == "epoch,step,loss_plain,loss_lrp,loss_total,acc"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "1"
        assert float(first[4]) == rows[0]["loss_total"]
        loaded = load_model(str(ckpt))
        np.testing.assert_array_equal(
            loaded.encoder.param_layers()[0][1].weight,
            model.encoder.param_layers()[0][1].weight.astype("<f4").astype(np.float64))

    def test_log_lines_are_the_rows_reprs(self, tmp_path):
        data = _toy_set([8] * 4, seed=22)
        cfg = TrainConfig(way=3, shot=2, n_query=4, epochs=1, episodes_per_epoch=2,
                          lr=0.01)
        log = tmp_path / "log.csv"
        rows = train(_tiny_model("cosine", seed=23), self._stream(data, cfg, 24), cfg,
                     log_path=str(log))
        assert log.read_text().split("\n") == [
            "epoch,step,loss_plain,loss_lrp,loss_total,acc",
            *(f"{r['epoch']},{r['step']},{r['loss_plain']!r},{r['loss_lrp']!r},"
              f"{r['loss_total']!r},{r['acc']!r}" for r in rows),
            "",
        ]
        assert [(r["epoch"], r["step"]) for r in rows] == [(1, 1), (1, 2)]

    def test_zero_epochs_writes_header_only(self, tmp_path):
        data = _toy_set([8] * 4, seed=25)
        cfg = TrainConfig(way=3, shot=2, n_query=4, epochs=0)
        model = _tiny_model("cosine", seed=26)
        before = [p.copy() for p in _param_arrays(model)]
        log = tmp_path / "log.csv"
        ckpt = tmp_path / "model.egt1"
        rows = train(model, self._stream(data, cfg, 27), cfg,
                     log_path=str(log), checkpoint_path=str(ckpt))
        assert rows == []
        assert log.read_text() == "epoch,step,loss_plain,loss_lrp,loss_total,acc\n"
        for prev, cur in zip(before, _param_arrays(model)):
            np.testing.assert_array_equal(prev, cur)
        assert ckpt.exists()

    def test_lr_decay_matches_manual_replay(self):
        data = _toy_set([8] * 4, seed=28)
        cfg = TrainConfig(way=3, shot=2, n_query=4, xi=1.0, lam=0.0,
                          epochs=3, episodes_per_epoch=2, lr=0.04,
                          lr_decay=0.5, lr_decay_every=1)
        auto = _tiny_model("cosine", seed=29)
        manual = _tiny_model("cosine", seed=29)
        train(auto, self._stream(data, cfg, 30), cfg)
        rng = np.random.default_rng(30)
        for epoch in range(3):
            lr = cfg.lr * 0.5 ** epoch
            for _ in range(2):
                ep = sample_episode(data, 3, 2, 4, rng)
                train_episode(manual, ep, cfg, lr=lr)
        for pa, pb in zip(_param_arrays(auto), _param_arrays(manual)):
            np.testing.assert_array_equal(pa, pb)

    def test_deterministic_given_seeds(self):
        data = _toy_set([8] * 4, seed=31)
        cfg = TrainConfig(way=3, shot=2, n_query=4, epochs=1,
                          episodes_per_epoch=4, lr=0.02)
        runs = []
        for _ in range(2):
            model = _tiny_model("cosine", seed=32)
            rows = train(model, self._stream(data, cfg, 33), cfg)
            runs.append((rows, [p.copy() for p in _param_arrays(model)]))
        assert [r["loss_total"] for r in runs[0][0]] == \
               [r["loss_total"] for r in runs[1][0]]
        for pa, pb in zip(runs[0][1], runs[1][1]):
            np.testing.assert_array_equal(pa, pb)

    def test_numeric_error_names_the_step_and_keeps_last_epoch(self, tmp_path,
                                                               monkeypatch, capsys):
        data_path = str(tmp_path / "toy.egtd")
        save_dataset(_toy_set([8] * 4, seed=34), data_path)

        def run(out, epochs):
            out.mkdir()
            return main(["train", "--data", data_path, "--out", str(out),
                         "--way", "3", "--shot", "2", "--queries", "4",
                         "--epochs", str(epochs), "--episodes-per-epoch", "4",
                         "--widths", "2", "--seed", "35"])

        assert run(tmp_path / "clean", 1) == 0
        calls = []
        step = egt.training.train_episode

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == 4 + 3:
                raise NumericError("embedding has zero norm")
            return step(*args, **kwargs)
        monkeypatch.setattr(egt.training, "train_episode", failing)
        capsys.readouterr()
        assert run(tmp_path / "failed", 3) == 3
        assert capsys.readouterr().err == "error: epoch 2 step 3: embedding has zero norm\n"
        assert ((tmp_path / "failed" / "model.egt1").read_bytes()
                == (tmp_path / "clean" / "model.egt1").read_bytes())


def _gate_model(head, seed):
    """A model at the gate's shapes: 3x16x16 images, widths 8/16/32, hidden 64."""
    return build_model(head, (3, 16, 16), np.random.default_rng(seed), widths=(8, 16, 32),
                       hidden=64)


def _gate_cfg(xi=1.0, lam=1.0):
    return TrainConfig(way=5, shot=5, n_query=16, xi=xi, lam=lam, lr=2e-3, momentum=0.5)


@pytest.fixture(scope="module")
def gate_data():
    return _toy_set([21] * 6, channels=3, side=16, seed=31)


@pytest.fixture()
def queued(monkeypatch):
    """Every task handed to the reduction worker, in submission order."""
    tasks, real = [], tensornet._later

    def spy(fn, *args):
        tasks.append(fn)
        return real(fn, *args)
    monkeypatch.setattr(tensornet, "_later", spy)
    return tasks


class TestReductionWorker:
    """At the gate's shapes the relation net's first-conv weight gradient (80
    pair rows) takes more than one chunk of the product buffer, so it is
    summed on the background worker; nothing else is."""

    @pytest.mark.parametrize("xi,lam,tasks", [(1.0, 1.0, 3), (0.0, 1.0, 1), (1.0, 0.0, 1)])
    def test_worker_step_equals_the_inline_step_bitwise(self, gate_data, queued, monkeypatch,
                                                        xi, lam, tasks):
        # one model reduces on the worker (two reductions and their sum with
        # both passes), its copy with a buffer so large that every reduction
        # is one inline chunk; gradients, reports and updates stay equal
        cfg = _gate_cfg(xi, lam)
        models = [_gate_model("relation", 32), _gate_model("relation", 32)]
        buffers = (tensornet._PRODUCT_BUFFER_BYTES, 1 << 40)
        rng = np.random.default_rng(33)
        for _ in range(4):
            ep = sample_episode(gate_data, 5, 5, 16, rng)
            outputs = []
            for model, buffer, want in zip(models, buffers, (tasks, 0)):
                monkeypatch.setattr(tensornet, "_PRODUCT_BUFFER_BYTES", buffer)
                del queued[:]
                res, enc_grads, rel_grads = episode_gradients(model, ep, cfg)
                assert len(queued) == want
                outputs.append([res.loss_plain, res.loss_lrp, res.probs, res.probs_lrp,
                                _flat_grads(model, enc_grads, rel_grads)])
                egt.training._apply(model, enc_grads, rel_grads, cfg.lr, cfg.momentum)
            for got, want in zip(*outputs):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            for got, want in zip(*map(_param_arrays, models)):
                assert got.tobytes() == want.tobytes()

    def test_cosine_training_eval_and_explain_start_no_thread(self, gate_data, queued):
        threads = threading.active_count()
        cosine, relation = _gate_model("cosine", 34), _gate_model("relation", 35)
        rng = np.random.default_rng(36)
        for _ in range(3):
            train_episode(cosine, sample_episode(gate_data, 5, 5, 16, rng), _gate_cfg(0.0, 1.0))
        for model in (cosine, relation):
            evaluate(model, gate_data, 5, 5, 16, 70, np.random.default_rng(37))
            ep = sample_episode(gate_data, 5, 5, 16, rng)
            explain_input(model, ep.support_images, ep.support_local, 5, ep.query_images[0])
        assert queued == []
        assert threading.active_count() == threads

    def test_forked_child_trains_a_relation_step(self, gate_data):
        # the child has no copy of the parent's worker thread; it must start
        # its own instead of queueing behind one that does not exist
        model, cfg = _gate_model("relation", 38), _gate_cfg()
        rng = np.random.default_rng(39)
        train_episode(model, sample_episode(gate_data, 5, 5, 16, rng), cfg)
        assert tensornet._worker is not None
        ep = sample_episode(gate_data, 5, 5, 16, rng)
        pid = os.fork()
        if pid == 0:
            try:
                train_episode(model, ep, cfg)
                code = 0
            except BaseException:
                code = 1
            os._exit(code)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's relation step did not finish within 60 s")
        assert os.waitstatus_to_exitcode(status) == 0

    def test_reduction_error_reaches_the_caller_unchanged(self, gate_data, monkeypatch):
        class ReductionFault(Exception):
            pass
        real = tensornet._summed_products

        def faulty(a, b):
            if threading.current_thread() is not threading.main_thread():
                raise ReductionFault("raised on the reduction worker")
            return real(a, b)
        monkeypatch.setattr(tensornet, "_summed_products", faulty)
        model, cfg = _gate_model("relation", 40), _gate_cfg()
        rng = np.random.default_rng(41)
        with pytest.raises(ReductionFault, match="reduction worker"):
            episode_gradients(model, sample_episode(gate_data, 5, 5, 16, rng), cfg)
        monkeypatch.undo()
        # the worker outlives the error
        _, _, rel_grads = episode_gradients(model, sample_episode(gate_data, 5, 5, 16, rng), cfg)
        assert all(isinstance(g, np.ndarray) for grads in rel_grads if grads
                   for g in grads.values())
