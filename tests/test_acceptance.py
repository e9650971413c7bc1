"""Release gate: ten behavioral criteria, one verdict line each.

Criteria 1-6 and 9-10 are fast property suites over the relevance
propagation core, the loss plumbing, and the evaluation harness.
Criteria 7-8 run a small paired cross-domain experiment (five training
seeds, baseline vs explanation-guided) shared by both tests.
"""

import time

import numpy as np
import pytest

import conftest
from egt.data import GeneratorSpec, gen_synthetic_domains, sample_episode
from egt.errors import NumericError
from egt.evaluation import (TransductiveConfig, confidence_interval,
                            evaluate, feature_stats, transductive_infer)
from egt.heads import relevance_init_nonparametric
from egt.lrp import LrpConfig, lrp_backward, normalize_relevance
from egt.model import build_model, episode_probs
from egt.tensornet import (AvgPool2d, Conv2d, Flatten, Linear, MaxPool2d,
                           Network, ReLU)
from egt.training import TrainConfig, lrp_weights, train, train_episode, train_episode_plain
from util_nets import central_diff, conservation_net, rand_conv, rand_linear, relu_tower


def _report(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    conftest.acceptance_lines.append(line)
    print(line)
    assert ok, line


class TestCriterion1Conservation:
    def test_sum_preserved_through_random_networks(self):
        rng = np.random.default_rng(10)
        cfg = LrpConfig(epsilon=0.0, alpha=1.0,
                        rule_map={"linear": "epsilon", "conv2d": "epsilon"})
        start = time.time()
        worst = 0.0
        for _ in range(120):
            net = conservation_net(rng, bias=False)
            # exact-zero pre-activations (all-dead ReLU feeding a bias-free
            # linear) have no defined share to redistribute; resample those
            while True:
                x = rng.standard_normal((1,) + net.input_shape)
                y, trace = net.forward_recorded(x)
                dead = any(np.any(e.output == 0.0)
                           for layer, e in zip(net.layers, trace.entries)
                           if isinstance(layer, Linear))
                if not dead:
                    break
            rel_out = rng.standard_normal(y.shape)
            rel_in = lrp_backward(net, trace, rel_out, cfg)[0]
            err = abs(rel_in.sum() - rel_out.sum()) / max(abs(rel_out.sum()), 1e-12)
            worst = max(worst, err)
        elapsed = time.time() - start
        _report(1, "relevance conservation on 120 bias-free nets",
                worst <= 1e-5 and elapsed < 10.0,
                f"worst rel err {worst:.2e}, {elapsed:.1f}s")


class TestCriterion2GradientTimesInput:
    def test_epsilon_rule_matches_gradient_times_input(self):
        rng = np.random.default_rng(11)
        cfg = LrpConfig(epsilon=1e-9,
                        rule_map={"linear": "epsilon", "conv2d": "epsilon"})
        start = time.time()
        worst = 0.0
        for _ in range(60):
            net = relu_tower(rng, int(rng.integers(1, 4)), int(rng.integers(3, 8)))
            x = rng.standard_normal((1,) + net.input_shape)
            y, trace = net.forward_recorded(x)
            cot = rng.standard_normal(y.shape)
            rel_in = lrp_backward(net, trace, y * cot, cfg)[0]
            grad_in, _ = net.backward_grad(trace, cot)
            want = x * grad_in
            scale = max(np.max(np.abs(want)), 1e-9)
            worst = max(worst, float(np.max(np.abs(rel_in - want)) / scale))
        elapsed = time.time() - start
        _report(2, "epsilon rule equals gradient*input on 60 ReLU nets",
                worst <= 1e-4 and elapsed < 30.0,
                f"worst rel err {worst:.2e}, {elapsed:.1f}s")


class TestCriterion3LayerGradients:
    @staticmethod
    def _instances(rng):
        for _ in range(20):
            d = int(rng.integers(2, 7))
            yield rand_linear(rng, d, int(rng.integers(2, 6))), (d,)
        for _ in range(20):
            c = int(rng.integers(1, 3))
            yield rand_conv(rng, c, int(rng.integers(1, 4)), 3, padding=1), (c, 5, 5)
        for _ in range(20):
            yield ReLU(), (int(rng.integers(2, 4)), 4, 4)
        for _ in range(20):
            yield MaxPool2d(2, 2), (int(rng.integers(1, 4)), 4, 4)
        for _ in range(20):
            yield AvgPool2d(2, 2), (int(rng.integers(1, 4)), 4, 4)
        for _ in range(10):
            yield Flatten(), (int(rng.integers(1, 4)), 3, 3)

    @staticmethod
    def _smooth_input(rng, layer, in_shape):
        """Keep inputs away from ReLU kinks and max-pool ties so central
        differences stay on one linear piece."""
        while True:
            x = rng.standard_normal((2,) + in_shape)
            if isinstance(layer, ReLU) and np.any(np.abs(x) < 1e-3):
                continue
            if isinstance(layer, MaxPool2d):
                win = np.sort(layer.windows(x), axis=2)
                if np.any(win[:, :, -1] - win[:, :, -2] < 1e-3):
                    continue
            return x

    def test_every_layer_matches_central_differences(self):
        rng = np.random.default_rng(12)
        start = time.time()
        worst, count = 0.0, 0
        for layer, in_shape in self._instances(rng):
            count += 1
            net = Network(in_shape, [layer])
            x = self._smooth_input(rng, layer, in_shape)
            cot = rng.standard_normal((2,) + net.output_shape)
            _, trace = net.forward_recorded(x)
            grad_in, param_grads = net.backward_grad(trace, cot)

            def loss():
                return float(np.sum(net.forward(x) * cot))

            fd_x = central_diff(loss, x)
            scale = max(np.max(np.abs(fd_x)), 1e-6)
            worst = max(worst, float(np.max(np.abs(grad_in - fd_x)) / scale))
            if param_grads[0] is not None:
                for name in param_grads[0]:
                    arr = getattr(layer, name)
                    fd_p = central_diff(loss, arr)
                    scale = max(np.max(np.abs(fd_p)), 1e-6)
                    worst = max(worst,
                                float(np.max(np.abs(param_grads[0][name] - fd_p)) / scale))
        elapsed = time.time() - start
        _report(3, f"layer gradients vs central differences on {count} instances",
                count >= 100 and worst <= 1e-3 and elapsed < 60.0,
                f"worst rel err {worst:.2e}, {elapsed:.1f}s")


class TestCriterion4RelevanceInit:
    def test_log_odds_relevance_properties(self):
        uniform = relevance_init_nonparametric(np.full((1, 5), 0.2))
        exact_zero = np.all(uniform == 0.0)

        half = relevance_init_nonparametric(np.array([[0.5, 0.125, 0.125, 0.125, 0.125]]))
        log4_ok = abs(half[0, 0] - np.log(4.0)) <= 1e-9

        rng = np.random.default_rng(13)
        sign_ok = True
        for k in (2, 3, 5, 8, 10):
            raw = rng.random((2000, k)) + 1e-3
            probs = raw / raw.sum(axis=1, keepdims=True)
            rel = relevance_init_nonparametric(probs)
            sign_ok &= bool(np.all((rel > 0) == (probs > 1.0 / k)))

        _report(4, "log-odds relevance init (zero at chance, log4, sign)",
                exact_zero and log4_ok and sign_ok,
                f"uniform max |R| {np.max(np.abs(uniform)):.1e}")


class TestCriterion5WeightBound:
    def test_weights_stay_in_unit_ball_around_one(self):
        rng = np.random.default_rng(14)
        lo, hi = np.inf, -np.inf
        for _ in range(10000):
            shape = tuple(rng.integers(1, 5, size=int(rng.integers(1, 4))))
            rel = rng.standard_normal(shape) * 10.0 ** int(rng.integers(-3, 4))
            w = lrp_weights(normalize_relevance(rel))
            lo, hi = min(lo, float(w.min())), max(hi, float(w.max()))
        _report(5, "reweighting bounded in [0, 2] over 10000 tensors",
                0.0 <= lo and hi <= 2.0, f"observed [{lo:.3f}, {hi:.3f}]")


def _paired_models_and_episodes(seed, n_episodes):
    spec = GeneratorSpec(classes=8, images_per_class=12, height=16, width=16,
                         domains=("bright",))
    (data,) = gen_synthetic_domains(spec, seed=500 + seed)
    rng = np.random.default_rng([seed, 7])
    episodes = [sample_episode(data, 3, 2, 6, rng) for _ in range(n_episodes)]
    m_egt = build_model("cosine", data.image_shape,
                        np.random.default_rng([seed, 8]), widths=(4, 8))
    m_plain = build_model("cosine", data.image_shape,
                          np.random.default_rng([seed, 8]), widths=(4, 8))
    return m_egt, m_plain, episodes


class TestCriterion6BaselineEquivalence:
    def test_lambda_zero_trajectory_is_bit_identical(self):
        m_egt, m_plain, episodes = _paired_models_and_episodes(seed=3,
                                                               n_episodes=20)
        cfg = TrainConfig(way=3, shot=2, n_query=6, xi=1.0, lam=0.0,
                          epochs=1, episodes_per_epoch=1)
        identical = True
        for ep in episodes:
            train_episode(m_egt, ep, cfg)
            train_episode_plain(m_plain, ep, cfg)
            for net_a, net_b in zip(m_egt.networks(), m_plain.networks()):
                for (_, la), (_, lb) in zip(net_a.param_layers(),
                                            net_b.param_layers()):
                    identical &= np.array_equal(la.weight, lb.weight)
                    identical &= np.array_equal(la.bias, lb.bias)
            if not identical:
                break
        _report(6, "lambda=0 trainer bit-identical to plain over 20 episodes",
                identical)


# Frozen schedule for the paired cross-domain experiment (criteria 7/8).
# dark -> noisy is a hard style shift at 16px; momentum 0.5 keeps the
# per-step noise low enough that the five seeds train stably.
_XDOM = {
    "spec": GeneratorSpec(classes=30, images_per_class=60, height=16,
                          width=16, domains=("dark", "noisy")),
    "corpus_seed": 1000,
    "widths": (8, 16, 32),
    "way": 5, "shot": 5, "n_query": 16,
    "epochs": 32, "episodes_per_epoch": 25,
    "lr": 2e-3, "momentum": 0.5, "lr_decay": 0.5, "lr_decay_every": 7,
    "eval_episodes": 500,
    "seeds": (0, 1, 2, 3, 4),
}


def _unit_norm_feature_spread(model, data, batch=64):
    """Median s2, qdiff and raw map norm over a dataset's embeddings.

    The cosine head scores m / ||m||, so the embedding's scale is free
    under its loss; s2 and qdiff are in embedding units (a map scaled
    by a has a**2 * s2 and a * qdiff).  The spread is therefore measured
    on each unit-norm map, and the raw norm is reported beside it.
    """
    s2, qdiff, norms = [], [], []
    for start in range(0, data.images.shape[0], batch):
        for m in model.encode(data.images[start:start + batch]):
            norm = float(np.linalg.norm(m))
            if not norm > 0:
                raise NumericError("zero-norm target embedding")
            stats = feature_stats(m / norm)
            s2.append(stats.s2)
            qdiff.append(stats.qdiff)
            norms.append(norm)
    return (float(np.median(s2)), float(np.median(qdiff)),
            float(np.median(norms)))


@pytest.fixture(scope="module")
def cross_domain_runs():
    """Paired baseline/EGT training per seed, evaluated across domains.

    Both members of a pair share the corpus, the initial parameters, the
    training episode stream, and the evaluation episodes; only the loss
    differs (xi=1, lam=0 vs xi=0, lam=1). Trains 10 models; this is the
    slow part of the gate.
    """
    E = _XDOM
    source, target = gen_synthetic_domains(E["spec"], seed=E["corpus_seed"])
    runs = []
    for seed in E["seeds"]:
        per_mode = {}
        for mode in ("baseline", "egt"):
            model = build_model("cosine", source.image_shape,
                                np.random.default_rng([seed, 0]),
                                widths=E["widths"])
            xi, lam = (1.0, 0.0) if mode == "baseline" else (0.0, 1.0)
            cfg = TrainConfig(way=E["way"], shot=E["shot"],
                              n_query=E["n_query"], xi=xi, lam=lam,
                              lr=E["lr"], momentum=E["momentum"],
                              epochs=E["epochs"],
                              episodes_per_epoch=E["episodes_per_epoch"],
                              lr_decay=E["lr_decay"],
                              lr_decay_every=E["lr_decay_every"])
            ep_rng = np.random.default_rng([seed, 1])

            def stream():
                while True:
                    yield sample_episode(source, E["way"], E["shot"],
                                         E["n_query"], ep_rng)

            train(model, stream(), cfg, plain=(mode == "baseline"))
            report = evaluate(model, target, E["way"], E["shot"],
                              E["n_query"], E["eval_episodes"],
                              np.random.default_rng([seed, 2]))
            s2, qdiff, norm = _unit_norm_feature_spread(model, target)
            per_mode[mode] = {"acc": report.mean, "s2": s2, "qdiff": qdiff,
                              "norm": norm}
        runs.append(per_mode)
    return runs


class TestCriterion7CrossDomainGain:
    def test_reweighted_training_transfers_better(self, cross_domain_runs):
        deltas = [r["egt"]["acc"] - r["baseline"]["acc"]
                  for r in cross_domain_runs]
        wins = sum(d >= 0 for d in deltas)
        pooled = float(np.mean(deltas))
        _report(7, "cross-domain accuracy gain over plain training",
                wins >= 4 and pooled > 0,
                f"wins={wins}/5, pooled={pooled:+.4f}")


class TestCriterion8FeatureSpread:
    def test_target_domain_feature_spread_direction(self, cross_domain_runs):
        s2_wins = sum(r["egt"]["s2"] < r["baseline"]["s2"]
                      for r in cross_domain_runs)
        qd_wins = sum(r["egt"]["qdiff"] < r["baseline"]["qdiff"]
                      for r in cross_domain_runs)
        med = {m: {k: float(np.median([r[m][k] for r in cross_domain_runs]))
                   for k in ("s2", "qdiff", "norm")}
               for m in ("baseline", "egt")}
        base, egt = med["baseline"], med["egt"]
        _report(8, "target-domain feature spread lower for EGT (unit-norm maps)",
                s2_wins >= 3 and qd_wins >= 3,
                f"s2 lower {s2_wins}/5, qdiff lower {qd_wins}/5; median s2 "
                f"{base['s2']:.4f}->{egt['s2']:.4f}, qdiff "
                f"{base['qdiff']:.4f}->{egt['qdiff']:.4f}, raw norm "
                f"{base['norm']:.3f}->{egt['norm']:.3f}")


class TestCriterion9TransductiveMechanics:
    def test_support_growth_isolation_and_zero_iteration_identity(self):
        spec = GeneratorSpec(classes=9, images_per_class=14, height=16,
                             width=16, domains=("dark",))
        (data,) = gen_synthetic_domains(spec, seed=21)
        model = build_model("cosine", data.image_shape,
                            np.random.default_rng([21, 0]), widths=(4, 8))
        episode = sample_episode(data, 5, 5, 16, np.random.default_rng(22))
        snapshot = {
            "si": episode.support_images.copy(),
            "sl": episode.support_labels.copy(),
            "qi": episode.query_images.copy(),
            "ql": episode.query_labels.copy(),
        }

        cfg = TransductiveConfig(iterations=2, candidates_per_iter=(4, 8))
        smaps = model.encode(episode.support_images)
        qmaps = model.encode(episode.query_images)
        preds, history = transductive_infer(model, smaps, episode.support_local,
                                            episode.way, qmaps, cfg,
                                            return_history=True)
        sizes = [h["support_size"] for h in history]
        growth_ok = sizes == [29, 37]

        untouched = (np.array_equal(snapshot["si"], episode.support_images)
                     and np.array_equal(snapshot["sl"], episode.support_labels)
                     and np.array_equal(snapshot["qi"], episode.query_images)
                     and np.array_equal(snapshot["ql"], episode.query_labels))

        plain = np.argmax(episode_probs(model, episode.support_images,
                                        episode.support_local, episode.way,
                                        episode.query_images), axis=1)
        zero_iter = transductive_infer(
            model, smaps, episode.support_local, episode.way, qmaps,
            TransductiveConfig(iterations=0, candidates_per_iter=()))
        zero_ok = np.array_equal(plain, zero_iter)

        _report(9, "transductive support 25->29->37, episode untouched, "
                   "0 iterations = plain",
                growth_ok and untouched and zero_ok,
                f"sizes {sizes}")


class TestCriterion10ConfidenceInterval:
    def test_half_width_formula_and_default_protocol_runtime(self):
        values = [0.5, 0.75, 0.625, 0.9375]
        mean, ci, degenerate = confidence_interval(values)
        arr = np.asarray(values)
        want = 1.96 * arr.std(ddof=1) / np.sqrt(4.0)
        formula_ok = (abs(ci - want) <= 1e-12
                      and abs(mean - arr.mean()) <= 1e-12
                      and not degenerate)

        spec = GeneratorSpec(classes=12, images_per_class=20, height=16,
                             width=16, domains=("bright",))
        (data,) = gen_synthetic_domains(spec, seed=31)
        model = build_model("cosine", data.image_shape,
                            np.random.default_rng([31, 0]))
        start = time.time()
        report = evaluate(model, data, 5, 5, 16, 2000,
                          np.random.default_rng([31, 2]))
        elapsed = time.time() - start
        agree = abs(report.ci95 - 1.96 * report.accuracies.std(ddof=1)
                    / np.sqrt(2000.0)) <= 1e-12
        _report(10, "ci95 = 1.96*std/sqrt(n); 2000-episode protocol timed",
                formula_ok and agree and report.episodes == 2000
                and elapsed < 300.0,
                f"2000 episodes in {elapsed:.1f}s")
