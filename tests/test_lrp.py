"""Relevance propagation: rule values, conservation, oracle equivalences."""

from __future__ import annotations

import numpy as np
import pytest

from egt import lrp as lrp_module
from egt.errors import ConfigError, ContractError
from egt.model import build_model
from egt.lrp import (LrpConfig, epsilon_divide, lrp_alpha, lrp_backward, lrp_epsilon,
                     lrp_passthrough, normalize_relevance)
from egt.tensornet import (AvgPool2d, Conv2d, Flatten, LayerTrace, Linear, MaxPool2d,
                           Network, ReLU)
from util_nets import (conservation_net, count_grad_input, dense_alpha_oracle,
                       dense_epsilon_oracle, rand_conv, rand_linear, recorded_entry,
                       relu_tower, unrolled_dense)


def _run_linear(w, x, bias=None):
    """A linear layer with one input row ``(1, in)`` and its output row ``(1, out)``."""
    layer = Linear(np.asarray(w, dtype=float),
                   np.zeros(len(w)) if bias is None else np.asarray(bias, dtype=float))
    x = np.asarray(x, dtype=float)[None]
    return layer, x, layer.forward(x)


class TestEpsilonRule:
    def test_hand_example(self):
        layer, x, y = _run_linear([[0.5, 0.25]], [1.0, 2.0])
        np.testing.assert_allclose(y, [[1.0]])
        rel = lrp_epsilon(layer, x, y, np.array([[1.0]]), epsilon=0.0)
        np.testing.assert_allclose(rel, [[0.5, 0.5]])

    def test_single_unit_closed_form(self):
        # one input, one output: rel_in = rel_out * y / (y + eps*sign(y))
        for eps in (0.0, 0.001, 0.5):
            for w, xv in [(2.0, 3.0), (-1.5, 0.75)]:
                layer, x, y = _run_linear([[w]], [xv])
                rel = lrp_epsilon(layer, x, y, np.array([[1.0]]), epsilon=eps)
                sign = 1.0 if y[0, 0] >= 0 else -1.0
                np.testing.assert_allclose(rel, [[y[0, 0] / (y[0, 0] + eps * sign)]])

    def test_monotone_shrink_in_epsilon(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            layer = rand_linear(rng, 5, 1, bias=False)
            x = rng.standard_normal((1, 5))
            y = layer.forward(x)
            if y[0, 0] <= 0:
                x, y = -x, -y  # force y > 0 per the stated property
            mags = []
            for eps in (0.0, 0.01, 0.1, 1.0):
                rel = lrp_epsilon(layer, x, y, np.array([[1.0]]), epsilon=eps)
                mags.append(np.abs(rel).sum())
            assert all(a >= b - 1e-12 for a, b in zip(mags, mags[1:]))

    def test_zero_preactivation_guard(self):
        layer, x, y = _run_linear([[1.0, -1.0]], [1.0, 1.0])
        assert y[0, 0] == 0.0
        rel = lrp_epsilon(layer, x, y, np.array([[1.0]]), epsilon=0.0)
        np.testing.assert_array_equal(rel, [[0.0, 0.0]])

    def test_sign_zero_is_positive(self):
        # denom at y=0 must be +eps, not -eps
        layer, x, y = _run_linear([[1.0, -1.0]], [1.0, 1.0])
        rel = lrp_epsilon(layer, x, y, np.array([[1.0]]), epsilon=0.5)
        np.testing.assert_allclose(rel, [[2.0, -2.0]])


class TestEpsilonDivide:
    def test_hand_values(self):
        # sign(0) is +1, so z = 0 divides by +epsilon
        got = epsilon_divide(np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.0, -1.0, 2.0, -0.5]), 0.5)
        np.testing.assert_array_equal(got, [2.0, 2.0 / -1.5, 1.2, -4.0])

    def test_zero_denominator_gives_plus_zero(self):
        got = epsilon_divide(np.array([-1.0, 1.0]), np.array([0.0, -0.0]), 0.0)
        np.testing.assert_array_equal(got, [0.0, 0.0])
        assert not np.signbit(got).any()

    def test_broadcasts_one_denominator_per_row(self):
        num = np.arange(6.0).reshape(2, 3)
        z = np.array([[2.0], [-4.0]])
        np.testing.assert_array_equal(epsilon_divide(num, z, 1.0), num / np.array([[3.0], [-5.0]]))


class TestAlphaRule:
    def test_all_positive_matches_epsilon_zero(self):
        rng = np.random.default_rng(2)
        layer = Linear(rng.uniform(0.1, 1.0, (3, 4)), np.zeros(3))
        x = rng.uniform(0.1, 1.0, (1, 4))
        y = layer.forward(x)
        rel_out = rng.uniform(0.0, 1.0, (1, 3))
        np.testing.assert_allclose(lrp_alpha(layer, x, y, rel_out),
                                   lrp_epsilon(layer, x, y, rel_out, epsilon=0.0),
                                   rtol=1e-12)

    def test_alpha_one_positivity(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            layer = rand_linear(rng, 6, 4)
            x = rng.standard_normal((1, 6))
            y = layer.forward(x)
            rel = lrp_alpha(layer, x, y, rng.uniform(0, 1, (1, 4)))
            assert (rel >= 0).all()

    def test_zero_denominator_guard(self):
        layer, x, y = _run_linear([[1.0, -1.0]], [1.0, 1.0])
        assert y[0, 0] == 0.0
        rel = lrp_alpha(layer, x, y, np.array([[1.0]]))
        np.testing.assert_array_equal(rel, [[0.0, 0.0]])

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ConfigError):
            LrpConfig(alpha=0.5)

    def test_alpha_fixed_at_one(self):
        assert LrpConfig(alpha=1.0).alpha == 1.0
        with pytest.raises(ConfigError, match="fixed at 1"):
            LrpConfig(alpha=2.0)

    def test_matches_dense_loop_oracle(self):
        rng = np.random.default_rng(4)
        layer = rand_linear(rng, 5, 3, bias=True)
        x = rng.standard_normal((1, 5))
        y = layer.forward(x)
        rel_out = rng.standard_normal((1, 3))
        got = lrp_alpha(layer, x, y, rel_out)[0]
        want = dense_alpha_oracle(layer.weight, x[0], y[0], rel_out[0], 1.0)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def _four_fold(layer, x, y, rel_out, alpha):
    """The alpha rule with all four sign-split folds, written out in full."""
    def adjoint(s, w):
        return s @ w if isinstance(layer, Linear) else layer.grad_input(s, x.shape[1:], weight=w)
    xp, xn = np.maximum(x, 0.0), np.minimum(x, 0.0)
    sp = np.divide(rel_out, y, out=np.zeros_like(rel_out), where=y > 0)
    sn = np.divide(rel_out, y, out=np.zeros_like(rel_out), where=y < 0)
    wp, wn = np.maximum(layer.weight, 0.0), np.minimum(layer.weight, 0.0)
    pos = xp * adjoint(sp, wp) + xn * adjoint(sp, wn)
    neg = xp * adjoint(sn, wn) + xn * adjoint(sn, wp)
    return alpha * pos - (alpha - 1.0) * neg


def _post_relu_case(rng, kind):
    """A layer, non-negative rows with exact zeros (as after a relu), and its output."""
    if kind == "linear":
        layer, x = rand_linear(rng, 6, 4), rng.standard_normal((3, 6))
    else:
        layer, x = rand_conv(rng, 2, 3, 3, padding=1), rng.standard_normal((3, 2, 4, 4))
    x = np.maximum(x, 0.0)
    return layer, x, layer.forward(x)


class TestAlphaShortcut:
    """On non-negative inputs ``lrp_alpha`` runs one fold, on signed inputs two."""

    @pytest.mark.parametrize("kind", ["linear", "conv2d"])
    def test_equals_four_folds_on_non_negative_relevance(self, kind):
        rng = np.random.default_rng(40)
        for _ in range(20):
            layer, x, y = _post_relu_case(rng, kind)
            rel_out = np.maximum(rng.standard_normal(y.shape), 0.0)
            got = lrp_alpha(layer, x, y, rel_out)
            want = _four_fold(layer, x, y, rel_out, 1.0)
            assert (got == 0).any()
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("kind", ["linear", "conv2d"])
    def test_equals_four_folds_on_signed_relevance(self, kind):
        # Equal values; where the value is zero the four folds may end at
        # -0.0 and the shortcut always ends at +0.0.
        rng = np.random.default_rng(41)
        for _ in range(20):
            layer, x, y = _post_relu_case(rng, kind)
            rel_out = rng.standard_normal(y.shape)
            got = lrp_alpha(layer, x, y, rel_out)
            want = _four_fold(layer, x, y, rel_out, 1.0)
            np.testing.assert_array_equal(got, want)
            nonzero = got != 0
            np.testing.assert_array_equal(np.signbit(got[nonzero]), np.signbit(want[nonzero]))
            assert not np.signbit(got[~nonzero]).any()

    # (signed input, folds): a negative entry adds the x- * W- fold
    @pytest.mark.parametrize("signed,folds", [(False, 1), (True, 2)])
    def test_folds_per_conv(self, monkeypatch, signed, folds):
        rng = np.random.default_rng(43)
        layer, x, _ = _post_relu_case(rng, "conv2d")
        if signed:
            x = x - 0.5
        y = layer.forward(x)
        rel_out = rng.standard_normal(y.shape)
        calls = count_grad_input(monkeypatch)
        got = lrp_alpha(layer, x, y, rel_out)
        assert len(calls) == folds
        monkeypatch.undo()
        np.testing.assert_array_equal(got, _four_fold(layer, x, y, rel_out, 1.0))


class TestConvAgainstUnrolledDense:
    """Conv rules run on the conv structure; the oracle unrolls to a dense map."""

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_epsilon(self, stride, padding):
        rng = np.random.default_rng(5)
        conv = rand_conv(rng, 2, 3, 2, stride=stride, padding=padding, bias=True)
        in_shape = (2, 4, 4)
        x = rng.standard_normal((1,) + in_shape)
        y = conv.forward(x)
        rel_out = rng.standard_normal(y.shape)
        got = lrp_epsilon(conv, x, y, rel_out, epsilon=0.001)
        weight, _ = unrolled_dense(conv, in_shape)
        want = dense_epsilon_oracle(weight, x.ravel(), y.ravel(), rel_out.ravel(), 0.001)
        np.testing.assert_allclose(got.ravel(), want, rtol=1e-9, atol=1e-12)

    def test_alpha(self):
        rng = np.random.default_rng(6)
        conv = rand_conv(rng, 2, 2, 3, stride=1, padding=1, bias=True)
        in_shape = (2, 4, 4)
        x = rng.standard_normal((1,) + in_shape)
        y = conv.forward(x)
        rel_out = rng.standard_normal(y.shape)
        got = lrp_alpha(conv, x, y, rel_out)
        weight, _ = unrolled_dense(conv, in_shape)
        want = dense_alpha_oracle(weight, x.ravel(), y.ravel(), rel_out.ravel(), 1.0)
        np.testing.assert_allclose(got.ravel(), want, rtol=1e-9, atol=1e-12)


def _passthrough(layer, x, rel_out):
    """``lrp_passthrough`` on the recorded application of ``layer`` to ``x``."""
    return lrp_passthrough(layer, recorded_entry(layer, x), rel_out)


class TestPassthrough:
    def test_relu_unchanged(self):
        rel = _passthrough(ReLU(), np.array([[-1.0, 2.0]]), np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(rel, [[1.0, 2.0]])

    def test_flatten_reshapes(self):
        x = np.zeros((1, 2, 2, 2))
        rel = _passthrough(Flatten(), x, np.arange(8.0).reshape(1, 8))
        np.testing.assert_array_equal(rel, np.arange(8.0).reshape(1, 2, 2, 2))

    def test_maxpool_winner(self):
        x = np.array([[[[1.0, 5.0], [2.0, 3.0]]]])
        rel = _passthrough(MaxPool2d(2), x, np.array([[[[4.0]]]]))
        np.testing.assert_array_equal(rel, [[[[0.0, 4.0], [0.0, 0.0]]]])

    def test_maxpool_tie_lowest_index(self):
        x = np.array([[[[7.0, 7.0], [7.0, 7.0]]]])
        rel = _passthrough(MaxPool2d(2), x, np.array([[[[4.0]]]]))
        np.testing.assert_array_equal(rel, [[[[4.0, 0.0], [0.0, 0.0]]]])

    def test_avgpool_equal_inputs(self):
        x = np.full((1, 1, 2, 2), 3.0)
        rel = _passthrough(AvgPool2d(2), x, np.array([[[[4.0]]]]))
        np.testing.assert_allclose(rel, np.ones((1, 1, 2, 2)))

    def test_avgpool_proportional(self):
        x = np.array([[[[1.0, 3.0], [0.0, 0.0]]]])
        rel = _passthrough(AvgPool2d(2), x, np.array([[[[8.0]]]]))
        np.testing.assert_allclose(rel, [[[[2.0, 6.0], [0.0, 0.0]]]])

    def test_avgpool_zero_sum_window_splits_equally(self):
        x = np.array([[[[1.0, -1.0], [0.0, 0.0]]]])
        rel = _passthrough(AvgPool2d(2), x, np.array([[[[4.0]]]]))
        np.testing.assert_allclose(rel, np.full((1, 1, 2, 2), 1.0))
        assert rel.sum() == pytest.approx(4.0)


class TestRowLayout:
    """Each per-layer rule takes rows ``(B, ...)`` that agree on B."""

    RULES = {
        "epsilon": lambda layer, e, r: lrp_epsilon(layer, e.input, e.output, r, 0.01),
        "alpha": lambda layer, e, r: lrp_alpha(layer, e.input, e.output, r),
        "passthrough": lambda layer, e, r: lrp_passthrough(layer, e, r),
    }
    DENSE = (lambda rng: rand_linear(rng, 6, 3), (6,))
    CONV = (lambda rng: rand_conv(rng, 2, 3, 3, padding=1), (2, 5, 5))
    # (rule, layer kind) -> (layer factory, input row shape)
    CASES = {
        ("epsilon", "linear"): DENSE, ("epsilon", "conv2d"): CONV,
        ("alpha", "linear"): DENSE, ("alpha", "conv2d"): CONV,
        ("passthrough", "relu"): (lambda rng: ReLU(), (4,)),
        ("passthrough", "flatten"): (lambda rng: Flatten(), (2, 2, 2)),
        ("passthrough", "maxpool2d"): (lambda rng: MaxPool2d(2), (2, 4, 4)),
        ("passthrough", "avgpool2d"): (lambda rng: AvgPool2d(2), (2, 4, 4)),
    }

    @pytest.mark.parametrize("layout", ["unbatched", "rows-mismatch"])
    @pytest.mark.parametrize("rule,kind", sorted(CASES))
    def test_bad_layout_raises_contract_error(self, rule, kind, layout):
        rng = np.random.default_rng(40)
        make, row_shape = self.CASES[rule, kind]
        layer = make(rng)
        x = rng.uniform(size=(3,) + row_shape)
        entry = recorded_entry(layer, x)
        r = rng.standard_normal(entry.output.shape)
        assert self.RULES[rule](layer, entry, r).shape == x.shape
        if layout == "unbatched":
            entry, r = LayerTrace(x[0], entry.output[0]), r[0]
        else:
            r = r[:2]
        with pytest.raises(ContractError):
            self.RULES[rule](layer, entry, r)


class TestLrpBackward:
    def test_single_linear_conservation(self):
        rng = np.random.default_rng(7)
        layer = rand_linear(rng, 6, 3, bias=False)
        net = Network((6,), [layer])
        x = rng.standard_normal((1, 6))
        out, trace = net.forward_recorded(x)
        rel = lrp_backward(net, trace, np.array([[1.0, 2.0, -1.0]]), LrpConfig(epsilon=0.0))
        assert rel.sum() == pytest.approx(2.0, rel=1e-10)

    def test_conservation_random_nets(self):
        rng = np.random.default_rng(8)
        cfg = LrpConfig(epsilon=0.0, alpha=1.0)
        for _ in range(40):
            net = conservation_net(rng, bias=False)
            x = rng.standard_normal((1,) + net.input_shape)
            out, trace = net.forward_recorded(x)
            rel_out = rng.standard_normal(out.shape)
            rel_in = lrp_backward(net, trace, rel_out, cfg)
            total = rel_out.sum()
            assert abs(rel_in.sum() - total) <= 1e-5 * max(abs(total), 1e-12)

    def test_gradient_times_input_equivalence(self):
        # init relevance with one logit's value: rel_in == x * d(logit)/dx
        rng = np.random.default_rng(9)
        cfg = LrpConfig(epsilon=1e-9)
        for _ in range(20):
            net = relu_tower(rng, depth=int(rng.integers(1, 4)), in_dim=int(rng.integers(3, 7)))
            x = rng.standard_normal((1,) + net.input_shape)
            out, trace = net.forward_recorded(x)
            c = int(rng.integers(0, out.size))
            rel_out = np.zeros_like(out)
            rel_out[0, c] = out[0, c]
            rel_in = lrp_backward(net, trace, rel_out, cfg)
            cot = np.zeros_like(out)
            cot[0, c] = 1.0
            grad_in, _ = net.backward_grad(trace, cot)
            np.testing.assert_allclose(rel_in, grad_in * x,
                                       rtol=1e-4, atol=1e-10)

    def test_gradient_times_input_with_conv_and_pools(self):
        # epsilon rule assigned to conv as well: the same telescoping holds
        rng = np.random.default_rng(10)
        cfg = LrpConfig(epsilon=1e-9, rule_map={"linear": "epsilon", "conv2d": "epsilon"})
        net = Network((2, 6, 6), [rand_conv(rng, 2, 3, 3, padding=1, bias=False), ReLU(),
                                  MaxPool2d(2), Flatten(),
                                  rand_linear(rng, 27, 4, bias=False)])
        x = rng.standard_normal((1,) + net.input_shape)
        out, trace = net.forward_recorded(x)
        cot = rng.standard_normal(out.shape)
        rel_in = lrp_backward(net, trace, out * cot, cfg)
        grad_in, _ = net.backward_grad(trace, cot)
        np.testing.assert_allclose(rel_in, grad_in * x,
                                   rtol=1e-4, atol=1e-10)

    def test_zero_relevance_stays_zero(self):
        rng = np.random.default_rng(11)
        net = conservation_net(rng)
        _, trace = net.forward_recorded(rng.standard_normal((1,) + net.input_shape))
        rel = lrp_backward(net, trace, np.zeros((1,) + net.output_shape))
        assert not rel.any() and not np.signbit(rel).any()

    def test_trace_shapes_align(self):
        rng = np.random.default_rng(12)
        net = Network((2, 6, 6), [rand_conv(rng, 2, 3, 3, padding=1), ReLU(),
                                  AvgPool2d(2), Flatten(), rand_linear(rng, 27, 4)])
        x = rng.standard_normal((3,) + net.input_shape)
        out, trace = net.forward_recorded(x)
        assert lrp_backward(net, trace, rng.standard_normal(out.shape)).shape == x.shape

    def test_missing_rule_is_config_error(self):
        rng = np.random.default_rng(13)
        net = Network((1, 4, 4), [rand_conv(rng, 1, 2, 3)])
        _, trace = net.forward_recorded(rng.standard_normal((1, 1, 4, 4)))
        cfg = LrpConfig(rule_map={"linear": "epsilon"})
        with pytest.raises(ConfigError):
            lrp_backward(net, trace, np.ones((1,) + net.output_shape), cfg)

    def test_relevance_shape_mismatch(self):
        rng = np.random.default_rng(14)
        net = Network((3,), [rand_linear(rng, 3, 2)])
        _, trace = net.forward_recorded(rng.standard_normal((1, 3)))
        with pytest.raises(ContractError):
            lrp_backward(net, trace, np.ones((1, 3)))


def _all_rows_backward(net, trace, output_relevance, cfg):
    """The input relevance with every rule on every row of the trace: the reference
    for :func:`lrp_backward`, which runs the rules below the lowest Linear layer on
    the live rows only."""
    r = np.asarray(output_relevance, dtype=np.float64)
    for layer, entry in zip(reversed(net.layers), reversed(trace.entries)):
        if isinstance(layer, (Linear, Conv2d)):
            if cfg.rule_for(layer.kind) == "epsilon":
                r = lrp_epsilon(layer, entry.input, entry.output, r, cfg.epsilon)
            else:
                r = lrp_alpha(layer, entry.input, entry.output, r)
        else:
            r = lrp_passthrough(layer, entry, r)
    return r


def _gate_relation_trace(seed, pairs=None):
    """The gate's relation net (16x16 images, widths 8/16/32) and a recorded pass over
    its 16 queries x 5 classes = 80 pair rows, or over ``pairs`` when given."""
    rng = np.random.default_rng(seed)
    model = build_model("relation", (3, 16, 16), rng)
    if pairs is None:
        maps = model.encode(rng.uniform(size=(21, 3, 16, 16)))
        _, trace = model.head.scores(maps[:5], maps[5:])
    else:
        _, trace = model.head.net.forward_recorded(pairs)
    return model.head.net, trace


def _one_per_query(rng, n=16, way=5, value=None):
    """Output relevance ``(n*way, 1)`` with a nonzero entry on row ``i*way + t_i`` only."""
    init = np.zeros((n * way, 1))
    rows = np.arange(n) * way + rng.integers(0, way, n)
    init[rows, 0] = rng.standard_normal(n) if value is None else value
    return init, rows


def _relation_rows(top, below):
    """The rows each rule of the relation net should see, top layer first: the two
    Linear layers and the relu between them ``top``, the rest ``below``."""
    return [("linear", top), ("relu", top), ("linear", top),
            ("flatten", below), ("avgpool2d", below), ("relu", below), ("conv2d", below)]


class TestLiveRows:
    """Below the lowest Linear layer every rule runs on the rows that carry relevance
    only.  A live row of the input relevance is the all-rows pass's (value, sign of
    zero and dtype), and a dead row is ``+0.0``."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """Rows that each rule call received, as ``(layer kind, rows)``, in call order."""
        calls = []

        def spy(fn, layer_at):
            def wrapped(*args, **kwargs):
                layer, rows = args[0], layer_at(args)
                calls.append((layer.kind, rows))
                return fn(*args, **kwargs)
            return wrapped
        monkeypatch.setattr(lrp_module, "lrp_alpha",
                            spy(lrp_alpha, lambda args: len(args[1])))
        monkeypatch.setattr(lrp_module, "lrp_epsilon",
                            spy(lrp_epsilon, lambda args: len(args[1])))
        monkeypatch.setattr(lrp_module, "lrp_passthrough",
                            spy(lrp_passthrough, lambda args: len(args[1].input)))
        return calls

    @staticmethod
    def _check(net, trace, init, cfg=LrpConfig()):
        """``lrp_backward`` against the reference; returns the reference."""
        want = _all_rows_backward(net, trace, init, cfg)
        got = lrp_backward(net, trace, init, cfg)
        assert got.dtype == want.dtype == np.float64
        assert got.shape == want.shape == trace.entries[0].input.shape
        live = np.any(init != 0, axis=tuple(range(1, init.ndim)))
        np.testing.assert_array_equal(got[live], want[live])
        np.testing.assert_array_equal(np.signbit(got[live]), np.signbit(want[live]))
        assert not got[~live].any() and not np.signbit(got[~live]).any()
        return want

    @pytest.mark.parametrize("seed", range(4))
    def test_gate_relation_net_sixteen_live_rows(self, seen, seed):
        net, trace = _gate_relation_trace(seed)
        init, _ = _one_per_query(np.random.default_rng(100 + seed))
        self._check(net, trace, init)
        assert seen == _relation_rows(80, 16)

    def test_minus_zero_rows_are_dead(self, seen):
        net, trace = _gate_relation_trace(4)
        init, rows = _one_per_query(np.random.default_rng(104))
        init[np.setdiff1d(np.arange(80), rows)] = -0.0
        self._check(net, trace, init)
        assert seen == _relation_rows(80, 16)

    def test_negative_conv_inputs_in_dead_rows_only(self, seen):
        # the all-rows z+ rule takes its signed branch; the live rows alone do not need it
        rng = np.random.default_rng(5)
        init, rows = _one_per_query(rng)
        pairs = rng.uniform(size=(80, 64, 2, 2))
        dead = np.setdiff1d(np.arange(80), rows)
        pairs[dead] -= 0.5
        net, trace = _gate_relation_trace(5, pairs)
        assert (pairs[dead] < 0).any() and not (pairs[rows] < 0).any()
        self._check(net, trace, init)
        assert seen == _relation_rows(80, 16)

    def test_all_rows_live(self, seen):
        # nothing is gathered: every rule sees every row
        net, trace = _gate_relation_trace(6)
        self._check(net, trace, np.random.default_rng(106).standard_normal((80, 1)))
        assert seen == _relation_rows(80, 80)

    def test_no_row_live(self, seen):
        net, trace = _gate_relation_trace(7)
        self._check(net, trace, np.zeros((80, 1)))
        assert seen == _relation_rows(80, 0)

    def test_zero_rows(self, seen):
        # as explain's trace tiled zero times
        net, trace = _gate_relation_trace(10, np.zeros((0, 64, 2, 2)))
        assert lrp_backward(net, trace, np.zeros((0, 1))).shape == (0, 64, 2, 2)
        assert seen == _relation_rows(0, 0)

    def test_linear_at_the_bottom(self, seen):
        # the epsilon rule leaves -0.0 in dead rows; the input relevance has +0.0 there
        rng = np.random.default_rng(9)
        net = Network((6,), [rand_linear(rng, 6, 4), ReLU(), rand_linear(rng, 4, 3)])
        out, trace = net.forward_recorded(rng.standard_normal((5, 6)))
        init = np.zeros(out.shape)
        init[[0, 3]] = rng.standard_normal((2, 3))
        want = self._check(net, trace, init)
        assert np.signbit(want[[1, 2, 4]]).any() and not want[[1, 2, 4]].any()
        assert seen == [("linear", 5), ("relu", 5), ("linear", 5)]

    @pytest.mark.parametrize("rule", ["alpha", "epsilon"])
    def test_no_linear_layer(self, seen, rule):
        # a conv/pool stack on signed input gathers its live rows at the top
        rng = np.random.default_rng(11)
        net = Network((2, 8, 8), [rand_conv(rng, 2, 3, 3, padding=1), ReLU(), MaxPool2d(2),
                                  rand_conv(rng, 3, 4, 3, padding=1), ReLU(), AvgPool2d(2)])
        out, trace = net.forward_recorded(rng.standard_normal((6,) + net.input_shape))
        init = rng.standard_normal(out.shape)
        init[[0, 2, 5]] = 0.0
        want = self._check(net, trace, init,
                           LrpConfig(rule_map={"linear": "epsilon", "conv2d": rule}))
        assert np.signbit(want[[0, 2, 5]]).any() == (rule == "epsilon")
        assert seen == [(layer.kind, 3) for layer in reversed(net.layers)]

    def test_encoder_with_pools_and_signed_input(self, seen):
        # a conv/maxpool/avgpool stack on signed input under a Linear layer, half its
        # rows live
        rng = np.random.default_rng(8)
        net = Network((2, 8, 8), [rand_conv(rng, 2, 3, 3, padding=1), ReLU(), MaxPool2d(2),
                                  rand_conv(rng, 3, 4, 3, padding=1), ReLU(), AvgPool2d(2),
                                  Flatten(), rand_linear(rng, 16, 3)])
        out, trace = net.forward_recorded(rng.standard_normal((6,) + net.input_shape))
        init = rng.standard_normal(out.shape)
        init[[1, 2, 4]] = 0.0
        self._check(net, trace, init)
        assert seen == [("linear", 6)] + [(layer.kind, 3) for layer in reversed(net.layers[:-1])]


class TestNormalizeRelevance:
    def test_examples(self):
        np.testing.assert_allclose(normalize_relevance(np.array([2.0, -4.0])), [0.5, -1.0])
        np.testing.assert_array_equal(normalize_relevance(np.zeros(3)), np.zeros(3))
        np.testing.assert_allclose(normalize_relevance(np.array([-3.0])), [-1.0])

    def test_range_sign_argmax_preserved(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            rel = rng.standard_normal(int(rng.integers(1, 30))) * 10.0 ** int(rng.integers(-3, 4))
            out = normalize_relevance(rel)
            assert np.abs(out).max() <= 1.0
            np.testing.assert_array_equal(np.sign(out), np.sign(rel))
            assert np.argmax(np.abs(out)) == np.argmax(np.abs(rel))
