"""Few-shot head tests: prototypes, scoring, relevance initialization,
and head-level explanation passes."""

import numpy as np
import pytest

from egt.errors import ConfigError, ContractError, NumericError
from egt.heads import (
    CosineHead,
    RelationHead,
    class_prototypes,
    class_sums,
    cosine_explain,
    cosine_scores,
    lrp_through_head,
    relation_pairs,
    relevance_init_nonparametric,
    scaled_softmax,
)
from egt.lrp import LrpConfig, normalize_relevance
from egt.model import build_relation_net
from egt.tensornet import Conv2d, Flatten, Linear, Network, ReLU
from egt.training import lrp_weights

from util_nets import max_rel_err


class TestPrototypes:
    def test_hand_means(self):
        feats = np.array([[1.0, 2.0], [3.0, 4.0], [10.0, 0.0]])
        labels = np.array([0, 0, 1])
        protos = class_prototypes(feats, labels, 2)
        np.testing.assert_allclose(protos, [[2.0, 3.0], [10.0, 0.0]])

    def test_map_shaped_features(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(6, 4, 2, 2))
        labels = np.array([0, 1, 2, 0, 1, 2])
        protos = class_prototypes(feats, labels, 3)
        assert protos.shape == (3, 4, 2, 2)
        np.testing.assert_allclose(protos[1], (feats[1] + feats[4]) / 2)

    def test_empty_class_rejected(self):
        feats = np.ones((2, 3))
        with pytest.raises(ContractError, match="class 2"):
            class_prototypes(feats, np.array([0, 1]), 3)
        # Equal-sized but with class 1 missing: not the class-major layout.
        with pytest.raises(ContractError, match="class 1"):
            class_prototypes(np.ones((4, 3)), np.array([0, 0, 2, 2]), 2)

    @staticmethod
    def _loop(feats, labels, k):
        """The per-class reference: a boolean-mask mean for each class."""
        return np.stack([feats[labels == c].mean(axis=0) for c in range(k)])

    @staticmethod
    def _same_bits(a, b):
        return (a.shape == b.shape and np.array_equal(a, b)
                and np.array_equal(np.signbit(a), np.signbit(b)))

    @pytest.mark.parametrize("rest", [(32, 2, 2), (7,)], ids=["maps", "rows"])
    def test_class_major_matches_loop_bitwise(self, rest):
        rng = np.random.default_rng(11)
        for way in range(2, 21):
            for shot in range(1, 11):
                feats = rng.standard_normal((way * shot,) + rest) * 10.0 ** rng.integers(-3, 4)
                feats[rng.uniform(size=feats.shape) < 0.2] = 0.0
                feats[rng.uniform(size=feats.shape) < 0.1] = -0.0
                labels = np.repeat(np.arange(way), shot)
                assert self._same_bits(class_prototypes(feats, labels, way),
                                       self._loop(feats, labels, way)), (way, shot)

    def test_other_layouts_match_loop_bitwise(self):
        rng = np.random.default_rng(12)
        feats = rng.standard_normal((12, 4, 2, 2))
        layouts = {
            "interleaved": np.tile(np.arange(3), 4),
            "permuted": rng.permutation(np.repeat(np.arange(4), 3)),
            "unequal": np.array([0, 0, 0, 0, 0, 1, 1, 2, 2, 2, 2, 2]),
            "pool": np.concatenate([np.repeat(np.arange(3), 2), [2, 0, 0, 1, 2, 2]]),
        }
        for name, labels in layouts.items():
            k = int(labels.max()) + 1
            assert self._same_bits(class_prototypes(feats, labels, k),
                                   self._loop(feats, labels, k)), name


    def test_sums_over_stacked_episodes_bitwise(self):
        # Rows on the first axis, episodes after them: each episode's sums
        # and counts are those of its own rows.
        rng = np.random.default_rng(13)
        labels = np.repeat(np.arange(5), 5)
        feats = rng.standard_normal((25, 7, 32, 2, 2))
        feats[rng.uniform(size=feats.shape) < 0.1] = -0.0
        sums, counts = class_sums(feats, labels, 5)
        assert counts.tolist() == [5] * 5
        for e in range(7):
            one, _ = class_sums(feats[:, e], labels, 5)
            assert self._same_bits(sums[:, e], one)
            assert self._same_bits(sums[:, e] / 5, self._loop(feats[:, e], labels, 5))


class TestCosineScores:
    def test_hand_value(self):
        got = cosine_scores(np.array([[1.0, 0.0]]), np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(got, [[1.0 / np.sqrt(2.0)]])

    def test_range_and_self_similarity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            q = rng.normal(size=(1, 8))
            p = rng.normal(size=(5, 8))
            s = cosine_scores(q, p)
            assert s.shape == (1, 5)
            assert np.all(np.abs(s) <= 1.0 + 1e-12)
            np.testing.assert_allclose(cosine_scores(q, q), [[1.0]], atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(1, 6))
        p = rng.normal(size=(3, 6))
        np.testing.assert_allclose(cosine_scores(3.7 * q, p), cosine_scores(q, 0.2 * p))

    def test_batched_matches_rows(self):
        # rows are independent: a batch equals its rows scored as one-row batches
        rng = np.random.default_rng(3)
        qs = rng.normal(size=(4, 6))
        p = rng.normal(size=(3, 6))
        batched = cosine_scores(qs, p)
        for i in range(4):
            np.testing.assert_allclose(batched[i:i + 1], cosine_scores(qs[i:i + 1], p))

    def test_zero_norm_rejected(self):
        with pytest.raises(NumericError, match="zero-norm"):
            cosine_scores(np.zeros((1, 4)), np.ones((2, 4)))
        with pytest.raises(NumericError, match="zero-norm"):
            cosine_scores(np.ones((1, 4)), np.zeros((2, 4)))

    def test_dim_mismatch(self):
        with pytest.raises(ContractError):
            cosine_scores(np.ones((1, 4)), np.ones((2, 5)))
        with pytest.raises(ContractError):
            cosine_scores(np.ones(4), np.ones((2, 4)))


class TestScaledSoftmax:
    def test_hand_value(self):
        got = scaled_softmax(np.array([1.0, 0.0]), beta=1.0)
        np.testing.assert_allclose(got, [0.7310585786300049, 0.2689414213699951],
                                   rtol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        p = scaled_softmax(rng.normal(size=(7, 5)), beta=7.0)
        np.testing.assert_allclose(p.sum(axis=1), np.ones(7), rtol=1e-12)
        assert np.all(p > 0)

    def test_beta_sharpens(self):
        scores = np.array([0.9, 0.5, 0.1])
        soft = scaled_softmax(scores, beta=1.0)
        sharp = scaled_softmax(scores, beta=10.0)
        assert sharp[0] > soft[0]
        assert np.argmax(soft) == np.argmax(sharp) == 0

    def test_shift_invariance(self):
        scores = np.array([100.0, 101.0, 99.0])
        np.testing.assert_allclose(scaled_softmax(scores, 2.0),
                                   scaled_softmax(scores - 100.0, 2.0), rtol=1e-12)

    def test_large_scores_stay_finite(self):
        p = scaled_softmax(np.array([1000.0, 0.0]), beta=7.0)
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-300)

    def test_beta_validated(self):
        with pytest.raises(ContractError, match="beta"):
            scaled_softmax(np.array([1.0, 0.0]), beta=0.0)


class TestRelevanceInit:
    def test_hand_values_k5(self):
        r = relevance_init_nonparametric(np.array([0.5, 0.9, 0.2, 0.1, 0.05]))
        np.testing.assert_allclose(r[0], np.log(4.0), rtol=1e-12)
        np.testing.assert_allclose(r[1], np.log(36.0), rtol=1e-12)

    def test_chance_level_is_zero(self):
        # P = 1/K maps to relevance 0; exact for K=5 where 0.2 is clean.
        r = relevance_init_nonparametric(np.full(5, 0.2))
        assert np.all(r == 0.0)
        for k in (2, 3, 7):
            r = relevance_init_nonparametric(np.full(k, 1.0 / k))
            np.testing.assert_allclose(r, np.zeros(k), atol=1e-9)

    def test_sign_tracks_chance(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            p = scaled_softmax(rng.normal(size=6), beta=3.0)
            r = relevance_init_nonparametric(p)
            assert np.all((r > 0) == (p > 1.0 / 6.0 + 1e-15))

    def test_extreme_probs_finite(self):
        r = relevance_init_nonparametric(np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
        assert np.isfinite(r).all()
        assert r[0] > 0 and r[1] < 0

    def test_monotone_in_prob(self):
        probs = np.linspace(0.01, 0.99, 25)
        rows = np.stack([probs, 1.0 - probs], axis=1)
        r = relevance_init_nonparametric(rows)[:, 0]
        assert np.all(np.diff(r) > 0)

    def test_needs_two_classes(self):
        with pytest.raises(ContractError):
            relevance_init_nonparametric(np.array([1.0]))

    def test_parametric_identity(self):
        head = RelationHead(_relation_net(np.random.default_rng(0), 2, 2))
        logits = np.array([[0.3, -2.0, 5.5]])
        got = head.relevance_init(logits, scaled_softmax(logits, 1.0))
        np.testing.assert_allclose(got, logits)
        got[0, 0] = 99.0
        assert logits[0, 0] == 0.3


class TestCosineExplain:
    def test_hand_value(self):
        # Unit prototype [1, 0]: only the first coordinate contributes.
        rel = cosine_explain(np.array([[3.0, 4.0]]), np.array([[0.0, 2.0], [1.0, 0.0]]),
                             [1], [2.0], epsilon=0.0)
        np.testing.assert_allclose(rel, [[2.0, 0.0]])

    def test_conservation_at_zero_epsilon(self):
        rng = np.random.default_rng(6)
        q = rng.normal(size=(25, 10))
        p = rng.normal(size=(4, 10))
        r = rng.normal(size=25)
        rel = cosine_explain(q, p, rng.integers(0, 4, 25), r, epsilon=0.0)
        np.testing.assert_allclose(rel.sum(axis=1), r, rtol=1e-9, atol=1e-12)

    def test_epsilon_shrinks_total(self):
        q = np.abs(np.random.default_rng(7).normal(size=(1, 6))) + 0.1
        p = np.ones((1, 6))
        totals = [cosine_explain(q, p, [0], [1.0], epsilon=e).sum()
                  for e in (0.0, 0.01, 0.1, 1.0)]
        assert all(t1 > t2 > 0 for t1, t2 in zip(totals, totals[1:]))

    def test_zero_denominator_guard(self):
        # Row 0 sums to zero and gets zeros; row 1 is unaffected by it.
        rel = cosine_explain(np.array([[1.0, -1.0], [1.0, 1.0]]), np.array([[1.0, 1.0]]),
                             [0, 0], [3.0, 2.0], epsilon=0.0)
        np.testing.assert_array_equal(rel[0], [0.0, 0.0])
        assert not np.signbit(rel[0]).any()
        np.testing.assert_allclose(rel[1], [1.0, 1.0])

    def test_prototype_scale_invariance(self):
        # Contributions use the normalized prototype, so its scale drops out.
        q = np.array([[0.5, -1.5, 2.0]])
        p = np.array([[1.0, 2.0, -0.5]])
        a = cosine_explain(q, p, [0], [1.3], epsilon=0.01)
        b = cosine_explain(q, 10.0 * p, [0], [1.3], epsilon=0.01)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_zero_prototype_rejected(self):
        protos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(NumericError):
            cosine_explain(np.ones((2, 3)), protos, [1, 0], [1.0, 1.0], 0.0)
        # a zero prototype no query targets is never divided by
        assert cosine_explain(np.ones((1, 3)), protos, [1], [1.0], 0.0).shape == (1, 3)

    @pytest.mark.parametrize("q_shape,p_shape,n_args", [
        ((3,), (2, 3), 1), ((2, 3), (2, 4), 2), ((2, 3), (2, 3), 1)],
        ids=["one-vector", "width-mismatch", "one-target-for-two-rows"])
    def test_bad_rows_raise_contract_error(self, q_shape, p_shape, n_args):
        with pytest.raises(ContractError):
            cosine_explain(np.ones(q_shape), np.ones(p_shape), [0] * n_args,
                           [1.0] * n_args, 0.0)


def _relation_net(rng, in_ch, side, hidden=6, bias=True, relu=True):
    """Small pair-scoring network: optional conv stage, then dense to 1."""
    layers = [Flatten()]
    if relu:
        layers += [Linear.he_init(in_ch * side * side, hidden, rng), ReLU(),
                   Linear.he_init(hidden, 1, rng)]
    else:
        layers += [Linear.he_init(in_ch * side * side, 1, rng)]
    net = Network((in_ch, side, side), layers)
    if not bias:
        for _, layer in net.param_layers():
            layer.bias[:] = 0.0
    return net


class TestRelationHead:
    def test_logits_match_manual_forward(self):
        rng = np.random.default_rng(8)
        head = RelationHead(_relation_net(rng, 4, 3))
        protos = rng.normal(size=(5, 2, 3, 3))
        qs = rng.normal(size=(2, 2, 3, 3))
        logits, trace = head.scores(protos, qs)
        assert logits.shape == (2, 5)
        assert trace.entries[0].input.shape == (10, 4, 3, 3)
        for i in range(2):
            for k in range(5):
                pair = np.concatenate([protos[k], qs[i]], axis=0)
                np.testing.assert_allclose(logits[i, k], head.net.forward(pair[None])[0, 0],
                                           rtol=1e-12)
                np.testing.assert_array_equal(trace.entries[0].input[i * 5 + k], pair)

    def test_prototype_permutation_permutes_logits(self):
        rng = np.random.default_rng(9)
        head = RelationHead(_relation_net(rng, 2, 2))
        protos = rng.normal(size=(4, 1, 2, 2))
        qs = rng.normal(size=(3, 1, 2, 2))
        logits, _ = head.scores(protos, qs)
        perm = np.array([2, 0, 3, 1])
        permuted, _ = head.scores(protos[perm], qs)
        np.testing.assert_allclose(permuted, logits[:, perm], rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        head = RelationHead(_relation_net(rng, 2, 2))
        with pytest.raises(ContractError, match="prototype shape"):
            head.scores(np.ones((4, 1, 2, 2)), np.ones((1, 1, 3, 3)))

    @pytest.mark.parametrize("conv", [False, True])
    @pytest.mark.parametrize("shape", [(3, 4, 2, 2), (2, 4, 2, 1), (2, 1, 1, 1), (2, 2, 2, 2)])
    def test_weight_shape_checked(self, conv, shape):
        # weights are one f_p per query, [n, 2C, H, W]; nothing broadcasts
        rng = np.random.default_rng(11)
        net = (build_relation_net((4, 2, 2), rng, hidden=3) if conv
               else _relation_net(rng, 4, 2))
        head = RelationHead(net)
        protos, qs = rng.normal(size=(3, 2, 2, 2)), rng.normal(size=(2, 2, 2, 2))
        head.scores(protos, qs, np.ones((2, 4, 2, 2)))
        with pytest.raises(ContractError, match="weight shape"):
            head.scores(protos, qs, np.ones(shape))

    def test_two_logit_net_rejected(self):
        rng = np.random.default_rng(10)
        net = Network((2, 2, 2), [Flatten(), Linear.he_init(8, 2, rng)])
        with pytest.raises(ContractError, match="one logit"):
            RelationHead(net).scores(np.ones((3, 1, 2, 2)), np.ones((1, 1, 2, 2)))


class TestPairColumns:
    """``scores`` builds the first convolution's columns from the unrolls of
    the prototypes and queries; its logits and trace are those of
    ``net.forward_recorded`` on the pair rows, bit for bit."""

    @staticmethod
    def _recorded_pair_rows(head, protos, qs, weights=None):
        pairs = relation_pairs(protos, qs)
        if weights is not None:
            pairs = pairs * weights[:, None]
        logits, trace = head.net.forward_recorded(pairs.reshape((-1,) + pairs.shape[2:]))
        return logits[:, 0].reshape(len(qs), len(protos)), trace

    @staticmethod
    def _assert_same_bits(got, want):
        assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def _assert_same_pass(self, got, want):
        (logits, trace), (ref_logits, ref_trace) = got, want
        self._assert_same_bits(logits, ref_logits)
        assert len(trace.entries) == len(ref_trace.entries)
        for entry, ref in zip(trace.entries, ref_trace.entries):
            self._assert_same_bits(entry.input, ref.input)
            self._assert_same_bits(entry.output, ref.output)
            assert entry.kept.keys() == ref.kept.keys()
            for key in ref.kept:
                self._assert_same_bits(entry.kept[key], ref.kept[key])
        assert "cols" in trace.entries[0].kept

    @staticmethod
    def _episode(n, way, seed, repeated=False):
        """A relation head at the gate's pair shape, maps with signed zeros."""
        rng = np.random.default_rng(seed)
        head = RelationHead(build_relation_net((64, 2, 2), rng))
        maps = rng.standard_normal((way + n, 32, 2, 2))
        maps[rng.uniform(size=maps.shape) < 0.2] = 0.0
        maps[rng.uniform(size=maps.shape) < 0.1] = -0.0
        protos, qs = maps[:way], maps[way:]
        if repeated:  # explain's case: one query, one copy per target
            qs = np.repeat(qs[:1], n, axis=0)
        return head, protos, qs, rng

    @pytest.mark.parametrize("n,way,repeated", [(16, 5, False), (1, 5, False), (16, 2, False),
                                                (1, 2, False), (5, 5, True)],
                             ids=["gate", "one-query", "two-way", "one-query-two-way",
                                  "explain-repeated"])
    def test_matches_recorded_pair_rows(self, n, way, repeated):
        head, protos, qs, rng = self._episode(n, way, 30 + n + way, repeated)
        plain = head.scores(protos, qs)
        self._assert_same_pass(plain, self._recorded_pair_rows(head, protos, qs))
        scores, trace = plain
        init = head.relevance_init(scores, scaled_softmax(scores, head.beta))
        rels = lrp_through_head(head, protos, qs, trace, init, np.argmax(scores, axis=1),
                                LrpConfig())
        for weights in (rng.choice([0.0, 1.0, 2.0], size=(n, 64, 2, 2)),
                        np.array([lrp_weights(normalize_relevance(r)) for r in rels])):
            self._assert_same_pass(head.scores(protos, qs, weights),
                                   self._recorded_pair_rows(head, protos, qs, weights))

    @pytest.mark.parametrize("n,way", [(16, 5), (1, 2)])
    def test_backward_and_lrp_agree_on_both_traces(self, n, way):
        head, protos, qs, rng = self._episode(n, way, 40 + n)
        weights = rng.choice([0.0, 1.0, 2.0], size=(n, 64, 2, 2))
        grads = rng.standard_normal((n, way))
        outputs = []
        for score in (lambda w=None: head.scores(protos, qs, w),
                      lambda w=None: self._recorded_pair_rows(head, protos, qs, w)):
            scores, trace = score()
            scores_w, trace_w = score(weights)
            d_protos, d_qs, param_grads = head.backward(
                protos, qs, [(None, scores, trace, grads), (weights, scores_w, trace_w, grads)])
            rels = lrp_through_head(head, protos, qs, trace, scores,
                                    np.argmax(scores, axis=1), LrpConfig())
            outputs.append([d_protos, d_qs, rels] + [
                g[name] for g in param_grads if g is not None for name in sorted(g)])
        for got, want in zip(*outputs):
            self._assert_same_bits(got, want)


class TestBlockScores:
    """A block of E episodes scores each as the head's one-episode ``scores``."""

    @staticmethod
    def _maps(rng, episodes, n, shape=(32, 2, 2)):
        return rng.standard_normal((episodes, n) + shape)

    def test_cosine_bitwise(self):
        rng = np.random.default_rng(14)
        head = CosineHead(beta=7.0)
        protos, queries = self._maps(rng, 64, 5), self._maps(rng, 64, 16)
        block = head.block_scores(protos, queries)
        assert block.shape == (64, 16, 5)
        for e in range(64):
            assert np.array_equal(block[e], head.scores(protos[e], queries[e])[0])

    def test_relation_bitwise(self):
        rng = np.random.default_rng(15)
        head = RelationHead(build_relation_net((64, 2, 2), rng))
        protos, queries = self._maps(rng, 3, 5), self._maps(rng, 3, 16)
        block = head.block_scores(protos, queries)
        assert block.shape == (3, 16, 5)
        for e in range(3):
            assert np.array_equal(block[e], head.scores(protos[e], queries[e])[0])

    def test_stacked_cosine_validation(self):
        with pytest.raises(ContractError):
            cosine_scores(np.ones((2, 1, 4)), np.ones((3, 2, 4)))
        with pytest.raises(ContractError):
            cosine_scores(np.ones((2, 1, 4)), np.ones((2, 4)))
        with pytest.raises(NumericError, match="zero-norm"):
            cosine_scores(np.ones((2, 1, 4)), np.zeros((2, 3, 4)))


class TestHeadOutputs:
    def test_cosine_head_output(self):
        rng = np.random.default_rng(11)
        head = CosineHead(beta=7.0)
        qs = rng.normal(size=(3, 3, 2, 2))
        protos = rng.normal(size=(5, 3, 2, 2))
        scores, trace = head.scores(protos, qs)
        assert trace is None
        np.testing.assert_array_equal(
            scores, cosine_scores(qs.reshape(3, -1), protos.reshape(5, -1)))
        probs = scaled_softmax(scores, head.beta)
        e = np.exp(7.0 * scores)
        np.testing.assert_allclose(probs, e / e.sum(axis=1, keepdims=True), rtol=1e-12)
        np.testing.assert_array_equal(head.relevance_init(scores, probs),
                                      relevance_init_nonparametric(probs))

    def test_cosine_head_validation(self):
        with pytest.raises(ConfigError):
            CosineHead(beta=-1.0)
        # the kind names the class, which the checkpoint's head line relies on
        with pytest.raises(TypeError):
            CosineHead(kind="relation")

    @pytest.mark.parametrize("beta", [0.0, -1.0, np.nan, np.inf])
    def test_relation_head_validation(self, beta):
        with pytest.raises(ConfigError, match="beta"):
            RelationHead(_relation_net(np.random.default_rng(0), 2, 2), beta=beta)

    def test_relation_head_output(self):
        rng = np.random.default_rng(12)
        head = RelationHead(_relation_net(rng, 6, 2))
        protos = rng.normal(size=(3, 3, 2, 2))
        qs = rng.normal(size=(2, 3, 2, 2))
        logits, trace = head.scores(protos, qs)
        assert trace.entries[-1].output.shape == (6, 1)
        np.testing.assert_array_equal(logits.reshape(-1), trace.entries[-1].output[:, 0])
        init = head.relevance_init(logits, scaled_softmax(logits, head.beta))
        np.testing.assert_array_equal(init, logits)
        assert init is not logits


def _explain(head, protos, qs, cfg, targets):
    """Batched head explanation from the head's own scores and init."""
    scores, trace = head.scores(protos, qs)
    init = head.relevance_init(scores, scaled_softmax(scores, head.beta))
    return lrp_through_head(head, protos, qs, trace, init, targets, cfg), init, trace


class TestLrpThroughHead:
    def test_cosine_route_matches_direct_call(self):
        rng = np.random.default_rng(13)
        head = CosineHead(beta=7.0)
        qs = rng.normal(size=(3, 9))
        protos = rng.normal(size=(4, 9))
        cfg = LrpConfig(epsilon=0.001)
        scores, _ = head.scores(protos, qs)
        targets = np.argmax(scores, axis=1)
        rel, init, _ = _explain(head, protos, qs, cfg, targets)
        assert rel.shape == qs.shape
        for i, t in enumerate(targets):
            want = cosine_explain(qs[i:i + 1], protos, [t], init[i, t:t + 1], 0.001)[0]
            np.testing.assert_array_equal(rel[i], want)

    def test_relation_pair_conservation_linear_net(self):
        # Bias-free affine relation net at epsilon 0: the relevance over
        # the full (prototype, query) pair sums back to the class init.
        rng = np.random.default_rng(14)
        head = RelationHead(_relation_net(rng, 4, 3, bias=False, relu=False))
        protos = rng.normal(size=(5, 2, 3, 3))
        qs = rng.normal(size=(2, 2, 3, 3))
        cfg = LrpConfig(epsilon=0.0, rule_map={"linear": "epsilon"})
        for target in range(5):
            rel, init, _ = _explain(head, protos, qs, cfg, [target, 4 - target])
            assert rel.shape == (2, 4, 3, 3)
            np.testing.assert_allclose(rel.sum(axis=(1, 2, 3)),
                                       [init[0, target], init[1, 4 - target]],
                                       rtol=1e-9, atol=1e-12)

    def test_relation_gradient_times_input(self):
        # Bias-free relu relation net with parametric (logit) init equals
        # pair * d(logit_c)/d(pair), per the gradient-times-input identity.
        rng = np.random.default_rng(15)
        head = RelationHead(_relation_net(rng, 2, 2, bias=False, relu=True))
        protos = rng.normal(size=(3, 1, 2, 2))
        qs = rng.normal(size=(2, 1, 2, 2))
        cfg = LrpConfig(epsilon=0.0)
        for target in range(3):
            rel, _, trace = _explain(head, protos, qs, cfg, [target, target])
            cot = np.zeros((6, 1))
            cot[[target, 3 + target], 0] = 1.0
            grad, _ = head.net.backward_grad(trace, cot)
            for i in range(2):
                pair = np.concatenate([protos[target], qs[i]], axis=0)
                np.testing.assert_allclose(rel[i], pair * grad[3 * i + target],
                                           rtol=1e-9, atol=1e-12)

    def test_shared_query_half_differs_by_class(self):
        rng = np.random.default_rng(16)
        head = RelationHead(_relation_net(rng, 2, 2))
        protos = rng.normal(size=(4, 1, 2, 2))
        qs = rng.normal(size=(1, 1, 2, 2))
        cfg = LrpConfig(epsilon=0.01)
        halves = [_explain(head, protos, qs, cfg, [t])[0][0, 1:] for t in range(4)]
        assert max_rel_err(halves[0], halves[1]) > 1e-6

    @pytest.mark.parametrize("kind", ["cosine", "relation"])
    def test_batched_rows_match_single_query_calls(self, kind):
        rng = np.random.default_rng(17)
        if kind == "cosine":
            head = CosineHead(beta=7.0)
        else:
            head = RelationHead(_relation_net(rng, 4, 2))
        protos = rng.normal(size=(3, 2, 2, 2))
        qs = rng.normal(size=(4, 2, 2, 2))
        targets = np.array([2, 0, 1, 2])
        cfg = LrpConfig(epsilon=0.01)
        batched = _explain(head, protos, qs, cfg, targets)[0]
        for i, t in enumerate(targets):
            single = _explain(head, protos, qs[i:i + 1], cfg, [t])[0]
            np.testing.assert_array_equal(batched[i], single[0])

    def test_target_out_of_range(self):
        head = CosineHead()
        for targets in ([5], [-1], [0, 1]):
            with pytest.raises(ContractError, match="target class"):
                lrp_through_head(head, np.ones((2, 3)), np.ones((1, 3)), None,
                                 np.zeros((1, 2)), targets, LrpConfig())
