"""Network stack: forward values, analytic gradients, optimizer behavior."""

from __future__ import annotations

import numpy as np
import pytest

from egt import tensornet
from egt.errors import ContractError, NumericError
from egt.lrp import lrp_backward
from egt.model import build_encoder, describe_layer, layer_from_description
from egt.tensornet import (AvgPool2d, Conv2d, Flatten, Linear, MaxPool2d,
                           Network, ReLU, he_uniform, _fold, _windows, sgd_step)
from util_nets import (central_diff, count_grad_input, max_rel_err, rand_conv, rand_linear,
                       recorded_entry)


class TestForward:
    def test_identity_linear(self):
        net = Network((3,), [Linear(np.eye(3), np.zeros(3))])
        np.testing.assert_array_equal(net.forward(np.array([[1.0, 2.0, 3.0]])),
                                      [[1.0, 2.0, 3.0]])

    def test_relu(self):
        net = Network((3,), [ReLU()])
        np.testing.assert_array_equal(net.forward(np.array([[-1.0, 0.0, 2.0]])),
                                      [[0.0, 0.0, 2.0]])

    def test_one_by_one_conv(self):
        # weight 2, bias 1 on a 2x2 map of ones -> map of 3s
        conv = Conv2d(np.full((1, 1, 1, 1), 2.0), np.array([1.0]))
        net = Network((1, 2, 2), [conv])
        np.testing.assert_allclose(net.forward(np.ones((1, 1, 2, 2))),
                                   np.full((1, 1, 2, 2), 3.0))

    def test_conv_matches_unrolled_dense(self):
        rng = np.random.default_rng(11)
        for stride, padding in [(1, 0), (1, 1), (2, 0), (2, 1)]:
            conv = rand_conv(rng, 2, 3, 2, stride=stride, padding=padding)
            in_shape = (2, 5, 5)
            from util_nets import unrolled_dense
            weight, bias = unrolled_dense(conv, in_shape)
            x = rng.standard_normal((1,) + in_shape)
            got = Network(in_shape, [conv]).forward(x).ravel()
            np.testing.assert_allclose(got, weight @ x.ravel() + bias, rtol=1e-12)

    def test_maxpool_avgpool_values(self):
        x = np.array([[[[1.0, 5.0], [2.0, 3.0]]]])
        assert Network((1, 2, 2), [MaxPool2d(2)]).forward(x)[0, 0, 0, 0] == 5.0
        assert Network((1, 2, 2), [AvgPool2d(2)]).forward(x)[0, 0, 0, 0] == 2.75

    def test_flatten(self):
        x = np.arange(16.0).reshape(2, 2, 2, 2)
        np.testing.assert_array_equal(Network((2, 2, 2), [Flatten()]).forward(x),
                                      np.arange(16.0).reshape(2, 8))

    def test_batched_matches_per_sample(self):
        # rows are independent: a batch equals its rows run as one-row batches
        rng = np.random.default_rng(0)
        net = Network((2, 6, 6), [rand_conv(rng, 2, 3, 3, padding=1), ReLU(),
                                  MaxPool2d(2), Flatten(),
                                  rand_linear(rng, 3 * 9, 4)])
        xs = rng.standard_normal((5, 2, 6, 6))
        batched = net.forward(xs)
        stacked = np.concatenate([net.forward(xs[i:i + 1]) for i in range(len(xs))])
        np.testing.assert_allclose(batched, stacked, rtol=1e-12)

    def test_shape_chain_error_names_layer(self):
        with pytest.raises(ContractError, match=r"layer 1 \(linear\)"):
            Network((4,), [Linear(np.ones((3, 4)), np.zeros(3)),
                           Linear(np.ones((2, 4)), np.zeros(2))])

    def test_input_shape_mismatch(self):
        net = Network((4,), [Linear(np.ones((3, 4)), np.zeros(3))])
        with pytest.raises(ContractError):
            net.forward(np.ones((1, 5)))

    def test_unbatched_input_rejected(self):
        # every entry point takes a leading row axis; one bare sample is refused
        net = Network((1, 2, 2), [Flatten(), Linear(np.ones((3, 4)), np.zeros(3))])
        with pytest.raises(ContractError, match=r"\(B, 1, 2, 2\)"):
            net.forward(np.ones((1, 2, 2)))
        with pytest.raises(ContractError, match=r"\(B, 1, 2, 2\)"):
            net.forward_recorded(np.ones((1, 2, 2)))
        _, trace = net.forward_recorded(np.ones((1, 1, 2, 2)))
        with pytest.raises(ContractError, match="grad_out shape"):
            net.backward_grad(trace, np.ones(3))
        with pytest.raises(ContractError, match="output relevance shape"):
            lrp_backward(net, trace, np.ones(3))

    def test_non_finite_output_rejected(self):
        net = Network((2,), [Linear(np.full((1, 2), 1e308), np.zeros(1))])
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            net.forward(np.full((1, 2), 1e308))


class TestBackwardHandValues:
    def test_linear_example(self):
        net = Network((2,), [Linear(np.array([[0.5, 0.25]]), np.zeros(1))])
        out, trace = net.forward_recorded(np.array([[1.0, 2.0]]))
        grad_in, grads = net.backward_grad(trace, np.array([[1.0]]))
        np.testing.assert_allclose(grad_in, [[0.5, 0.25]])
        np.testing.assert_allclose(grads[0]["weight"], [[1.0, 2.0]])
        np.testing.assert_allclose(grads[0]["bias"], [1.0])

    def test_linear_grad_input_weight_override(self):
        rng = np.random.default_rng(4)
        layer = rand_linear(rng, 5, 3)
        s, w = rng.standard_normal((2, 3)), rng.standard_normal((3, 5))
        np.testing.assert_array_equal(layer.grad_input(s, (5,), weight=w), s @ w)
        np.testing.assert_array_equal(layer.grad_input(s, (5,)), s @ layer.weight)

    def test_relu_gating(self):
        net = Network((2,), [ReLU()])
        _, trace = net.forward_recorded(np.array([[-1.0, 2.0]]))
        grad_in, _ = net.backward_grad(trace, np.array([[1.0, 1.0]]))
        np.testing.assert_array_equal(grad_in, [[0.0, 1.0]])

    def test_zero_cotangent_zero_grads(self):
        rng = np.random.default_rng(3)
        net = Network((3,), [rand_linear(rng, 3, 4), ReLU(), rand_linear(rng, 4, 2)])
        _, trace = net.forward_recorded(rng.standard_normal((1, 3)))
        grad_in, grads = net.backward_grad(trace, np.zeros((1, 2)))
        assert not grad_in.any()
        assert not grads[0]["weight"].any() and not grads[2]["bias"].any()


def _layer_cases(rng):
    """One small randomized instance per layer kind."""
    return [
        ((6,), rand_linear(rng, 6, 4)),
        ((2, 5, 5), rand_conv(rng, 2, 3, 3, stride=1, padding=1)),
        ((2, 6, 6), rand_conv(rng, 2, 2, 2, stride=2, padding=0)),
        ((3, 4, 4), ReLU()),
        ((1, 4, 4), MaxPool2d(2)),
        ((2, 5, 5), MaxPool2d(3, stride=2)),
        ((2, 4, 4), AvgPool2d(2)),
        ((2, 3, 3), Flatten()),
    ]


class TestGradientFiniteDifference:
    """Analytic backward_grad vs central differences, step 1e-4, rel 1e-3."""

    def test_every_layer_kind(self):
        rng = np.random.default_rng(42)
        for trial in range(4):
            for in_shape, layer in _layer_cases(rng):
                net = Network(in_shape, [layer])
                x = rng.standard_normal((2,) + in_shape)
                cot = rng.standard_normal((2,) + net.output_shape)

                def loss():
                    return float((net.forward(x) * cot).sum())

                _, trace = net.forward_recorded(x)
                grad_in, grads = net.backward_grad(trace, cot)
                assert max_rel_err(grad_in, central_diff(loss, x)) < 1e-3
                for name, arr in layer.params().items():
                    assert max_rel_err(grads[0][name], central_diff(loss, arr)) < 1e-3

    def test_deep_composite_net(self):
        rng = np.random.default_rng(7)
        net = Network((2, 8, 8), [rand_conv(rng, 2, 4, 3, padding=1), ReLU(),
                                  MaxPool2d(2), rand_conv(rng, 4, 3, 3, padding=1),
                                  ReLU(), AvgPool2d(2), Flatten(),
                                  rand_linear(rng, 3 * 4, 5)])
        x = rng.standard_normal((1, 2, 8, 8))
        cot = rng.standard_normal((1, 5))

        def loss():
            return float((net.forward(x) * cot).sum())

        _, trace = net.forward_recorded(x)
        grad_in, grads = net.backward_grad(trace, cot)
        assert max_rel_err(grad_in, central_diff(loss, x)) < 1e-3
        for i, layer in enumerate(net.layers):
            for name, arr in layer.params().items():
                assert max_rel_err(grads[i][name], central_diff(loss, arr)) < 1e-3


class TestRecordedPass:
    """The trace keeps each layer's unroll; the gradient pass reuses it."""

    def test_only_conv_and_max_pool_keep_arrays(self):
        rng = np.random.default_rng(13)
        net = Network((2, 6, 6), [rand_conv(rng, 2, 3, 3, padding=1), ReLU(),
                                  MaxPool2d(2), AvgPool2d(3), Flatten(),
                                  rand_linear(rng, 3, 2)])
        x = rng.standard_normal((4, 2, 6, 6))
        out, trace = net.forward_recorded(x)
        np.testing.assert_array_equal(out, net.forward(x))
        assert [sorted(e.kept) for e in trace.entries] == [["cols"], [], ["winners"], [], [], []]
        cols = trace.entries[0].kept["cols"]
        want = _ref_windows(np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1))), 3, 3, 1, 6, 6)
        np.testing.assert_array_equal(cols, want.reshape(4, 18, 36))
        winners = trace.entries[2].kept["winners"]
        assert winners.shape == (4, 3, 4, 3, 3) and (winners.sum(axis=2) == 1).all()

    @pytest.mark.parametrize("first", ["conv2d", "flatten"])
    def test_param_grads_bit_equal_without_input_grad(self, first, monkeypatch):
        rng = np.random.default_rng(14)
        if first == "conv2d":  # the encoder at the gate's shapes
            net, x = build_encoder((3, 16, 16), rng), rng.uniform(size=(41, 3, 16, 16))
        else:
            net = Network((2, 2, 2), [Flatten(), rand_linear(rng, 8, 3), ReLU(),
                                      rand_linear(rng, 3, 2)])
            x = rng.standard_normal((5, 2, 2, 2))
        out, trace = net.forward_recorded(x)
        cot = rng.standard_normal(out.shape)
        calls = count_grad_input(monkeypatch)
        grad_in, full = net.backward_grad(trace, cot)
        with_input = len(calls)
        none, grads = net.backward_grad(trace, cot, input_grad=False)
        assert grad_in.shape == x.shape and none is None
        if first == "conv2d":
            assert (with_input, len(calls) - with_input) == (3, 2)
        for a, b in zip(full, grads):
            assert (a is None) == (b is None)
            for name in a or {}:
                _assert_same_bits(b[name], a[name])


class TestSgdStep:
    def _one_weight_net(self, w0):
        return Network((1,), [Linear(np.array([[w0]]), np.zeros(1))])

    def test_plain_step(self):
        net = self._one_weight_net(1.0)
        grads = [{"weight": np.array([[1.0]]), "bias": np.zeros(1)}]
        sgd_step(net, grads, lr=0.1, momentum=0.0)
        assert net.layers[0].weight[0, 0] == pytest.approx(0.9)

    def test_momentum_two_steps(self):
        # v <- 0.9 v + 1 gives v=1 then v=1.9; w: 0 -> -0.1 -> -0.29
        net = self._one_weight_net(0.0)
        grads = [{"weight": np.array([[1.0]]), "bias": np.zeros(1)}]
        sgd_step(net, grads, lr=0.1, momentum=0.9)
        assert net.layers[0].weight[0, 0] == pytest.approx(-0.1)
        sgd_step(net, grads, lr=0.1, momentum=0.9)
        assert net.layers[0].weight[0, 0] == pytest.approx(-0.29)

    def test_zero_grad_no_change(self):
        net = self._one_weight_net(1.5)
        grads = [{"weight": np.zeros((1, 1)), "bias": np.zeros(1)}]
        for _ in range(3):
            sgd_step(net, grads, lr=0.1, momentum=0.9)
        assert net.layers[0].weight[0, 0] == 1.5

    def test_non_finite_gradient_names_layer(self):
        net = self._one_weight_net(1.0)
        grads = [{"weight": np.array([[np.nan]]), "bias": np.zeros(1)}]
        with pytest.raises(NumericError, match=r"layer 0 \(linear\)"):
            sgd_step(net, grads, lr=0.1, momentum=0.0)
        assert net.layers[0].weight[0, 0] == 1.0  # aborted before touching params

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(5)
        net = Network((3,), [rand_linear(rng, 3, 2)])
        ref_w = net.layers[0].weight.copy()
        vel = np.zeros_like(ref_w)
        for _ in range(5):
            g = rng.standard_normal(ref_w.shape)
            sgd_step(net, [{"weight": g, "bias": np.zeros(2)}], lr=0.05, momentum=0.9)
            vel = 0.9 * vel + g
            ref_w = ref_w - 0.05 * vel
        np.testing.assert_allclose(net.layers[0].weight, ref_w, rtol=1e-12)


class TestInitAndDescriptions:
    def test_he_uniform_bound_and_seed(self):
        rng = np.random.default_rng(9)
        w = he_uniform((50, 20), fan_in=20, rng=rng)
        assert np.abs(w).max() <= np.sqrt(6.0 / 20)
        w2 = he_uniform((50, 20), fan_in=20, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(w, w2)

    @pytest.mark.parametrize("make, message", [
        (lambda: Linear(np.zeros((0, 3)), np.zeros(0)), "empty axis"),
        (lambda: Linear(np.zeros((4, 0)), np.zeros(4)), "empty axis"),
        (lambda: Conv2d(np.zeros((0, 3, 3, 3)), np.zeros(0)), "empty axis"),
        (lambda: Conv2d(np.zeros((4, 0, 3, 3)), np.zeros(4)), "empty axis"),
        (lambda: Conv2d(np.zeros((4, 3, 0, 0)), np.zeros(4)), "empty axis"),
        (lambda: Linear(np.zeros((2, 3, 1)), np.zeros(2)), "linear weight must be 2-d"),
        (lambda: Conv2d(np.zeros((2, 3)), np.zeros(2)), "conv2d weight must be 4-d"),
        (lambda: Linear(np.zeros((2, 3)), np.zeros(3)), "linear bias shape"),
        (lambda: Conv2d(np.zeros((2, 1, 3, 3)), np.zeros((2, 1))), "conv2d bias shape"),
    ], ids=["linear-out", "linear-in", "conv-out", "conv-in", "conv-kernel",
            "linear-3d", "conv-2d", "linear-bias", "conv-bias"])
    def test_parameter_checks(self, make, message):
        with pytest.raises(ContractError, match=message):
            make()

    def test_parameters_are_float64_copies_of_int_input(self):
        layer = Conv2d(np.ones((2, 1, 1, 1), dtype=np.int32), [1, 2])
        assert layer.weight.dtype == layer.bias.dtype == np.float64
        assert set(layer.params()) == {"weight", "bias"} and layer.velocity == {}

    def test_describe_round_trip(self):
        rng = np.random.default_rng(2)
        layers = [rand_conv(rng, 3, 8, 3, stride=1, padding=1), ReLU(),
                  MaxPool2d(2), Flatten(), rand_linear(rng, 8 * 16 * 16, 4)]
        for layer in layers:
            clone = layer_from_description(describe_layer(layer))
            assert clone.kind == layer.kind
            for name, arr in layer.params().items():
                assert clone.params()[name].shape == arr.shape

    @pytest.mark.parametrize("kernel,padding,loads", [
        ("3x3", 2, True), ("3x3", 3, False), ("3x1", 0, True), ("3x1", 1, False),
        ("1x1", 0, True), ("1x1", 2, False)])
    def test_description_refuses_a_padding_of_a_kernel_side(self, kernel, padding, loads):
        # such a padding only adds outputs that see nothing but zeros
        text = f"conv2d in=2 out=4 kernel={kernel} stride=1 padding={padding}"
        if loads:
            assert describe_layer(layer_from_description(text)) == text
        else:
            with pytest.raises(ContractError, match="is not below kernel"):
                layer_from_description(text)

    def test_unroll_skips_the_channel_check(self):
        conv = Conv2d(np.zeros((3, 4, 3, 3)), np.zeros(3), padding=1)
        assert conv.unroll(np.ones((1, 2, 5, 5))).shape == (1, 2 * 9, 25)
        with pytest.raises(ContractError, match="expects 4 input channels"):
            conv.out_shape((2, 5, 5))


# --- the window kernel: both memory layouts against a channel-major loop ---

def _ref_windows(x, kh, kw, stride, oh, ow):
    b, c = x.shape[:2]
    win = np.empty((b, c, kh * kw, oh, ow))
    for i in range(kh):
        for j in range(kw):
            win[:, :, i * kw + j] = x[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return win


def _ref_fold(win, kh, kw, stride, h, w, pad=0):
    """Fold onto the ``h x w`` grid padded by ``pad``, then copy out its interior."""
    b, c, _, oh, ow = win.shape
    out = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
    for i in range(kh):
        for j in range(kw):
            out[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += win[:, :, i * kw + j]
    return np.ascontiguousarray(out[:, :, pad:pad + h, pad:pad + w])


def _signed_data(rng, shape):
    """Normal draws with about a quarter of the entries set to +0.0 or -0.0."""
    x = rng.standard_normal(shape)
    x[rng.uniform(size=shape) < 0.25] = 0.0
    x[rng.uniform(size=shape) < 0.1] = -0.0
    return x


def _strides(a):
    """Strides of the axes longer than 1; the others never address memory."""
    return [s for s, n in zip(a.strides, a.shape) if n > 1]


def _assert_same_bits(got, want):
    assert got.shape == want.shape and _strides(got) == _strides(want)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# (B, C, H, W, kernel, stride, padding): ow 1, 2, 3, 4, 5, 8 and 16, B*C
# from 1 to 80x64, and non-tiling 5x5 and 9x9 inputs.
_CONV_CASES = [
    (1, 1, 1, 1, 3, 1, 1),
    (80, 64, 2, 2, 3, 1, 1),
    (4, 4, 4, 4, 3, 1, 1),
    (41, 16, 4, 4, 3, 1, 1),
    (2, 3, 5, 5, 3, 1, 1),
    (2, 3, 5, 5, 3, 2, 0),
    (5, 4, 9, 9, 3, 2, 1),
    (16, 16, 8, 8, 3, 2, 0),
    (3, 2, 8, 8, 3, 1, 1),
    (2, 3, 16, 16, 3, 1, 1),
    (3, 2, 6, 6, 2, 2, 0),
]
# (B, C, H, W, kernel, stride): ow 1, 2, 4, 8 and 2 on non-tiling 5x5 inputs.
_POOL_CASES = [
    (80, 32, 2, 2, 2, 2),
    (41, 32, 4, 4, 2, 2),
    (41, 16, 8, 8, 2, 2),
    (41, 8, 16, 16, 2, 2),
    (2, 5, 5, 5, 2, 2),
    (3, 2, 5, 5, 3, 2),
]
# The shape's own choice, then each layout forced for every shape.
_LAYOUT_RANGES = {"auto": tensornet._SPATIAL_MAJOR_OW, "channel": range(0),
                  "spatial": range(1, 1 << 30)}


@pytest.fixture(params=sorted(_LAYOUT_RANGES))
def layout(request, monkeypatch):
    monkeypatch.setattr(tensornet, "_SPATIAL_MAJOR_OW", _LAYOUT_RANGES[request.param])
    return request.param


def _reference(monkeypatch, fn):
    """``fn()`` with the layers running the channel-major reference loops."""
    with monkeypatch.context() as m:
        m.setattr(tensornet, "_windows", _ref_windows)
        m.setattr(tensornet, "_fold", _ref_fold)
        return fn()


def _unrolled_conv_backward(conv, x, cot):
    """Conv gradients with the columns unrolled afresh from ``x``, no trace."""
    b, c = x.shape[:2]
    o, _, k, _ = conv.weight.shape
    p = conv.padding
    cols = _ref_windows(np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))), k, k, conv.stride,
                        *cot.shape[2:]).reshape(b, c * k * k, -1)
    g2 = cot.reshape(b, o, -1)
    dw = np.matmul(g2, cols.transpose(0, 2, 1)).sum(axis=0)
    grads = {"weight": dw.reshape(conv.weight.shape), "bias": g2.sum(axis=(0, 2))}
    return conv.grad_input(cot, x.shape[1:]), grads


def _unrolled_max_pool_backward(pool, x, cot):
    """Max-pool input gradient from a fresh unroll and its argmax, no trace."""
    _, oh, ow = pool.out_shape(x.shape[1:])
    k = pool.kernel
    win = _ref_windows(x, k, k, pool.stride, oh, ow)
    idx = win.argmax(axis=2)[:, :, None]
    win.fill(0.0)
    np.put_along_axis(win, idx, cot[:, :, None], axis=2)
    return _ref_fold(win, k, k, pool.stride, *x.shape[2:]), None


def _recorded_backward(layer, x, cot):
    # a weight gradient over more than one buffer chunk comes back pending
    grad_in, grads = layer.backward(recorded_entry(layer, x), cot)
    return grad_in, tensornet.joined([grads])[0]


class TestSummedProducts:
    """The weight gradient's sum of per-row products, reduced in chunks."""

    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 9, 10])
    def test_matches_the_full_stack_bitwise(self, monkeypatch, rows):
        rng = np.random.default_rng(16)
        a, b = _signed_data(rng, (10, 4, 6)), _signed_data(rng, (10, 6, 5))
        monkeypatch.setattr(tensornet, "_PRODUCT_BUFFER_BYTES", 8 * 4 * 5 * (rows + 1))
        _assert_same_bits(tensornet._summed_products(a, b), np.matmul(a, b).sum(axis=0))


# (B, C, H, W, kernel, stride, padding): padding 1 and 2, stride 1 and 2,
# 1x1, odd and non-square maps, output widths 1, 2, 3, 4, 5, 7 and 8.
_PADDED_CASES = [
    (3, 2, 1, 1, 3, 1, 1),
    (2, 1, 2, 2, 3, 2, 1),
    (80, 64, 2, 2, 3, 1, 1),
    (5, 3, 4, 4, 3, 1, 1),
    (2, 3, 8, 8, 3, 1, 1),
    (4, 3, 15, 15, 3, 2, 1),
    (2, 3, 5, 7, 3, 2, 1),
    (2, 2, 1, 1, 3, 1, 2),
    (2, 2, 3, 5, 3, 1, 2),
    (3, 2, 7, 3, 3, 2, 2),
    (2, 2, 6, 6, 5, 2, 2),
]


class TestInteriorFold:
    """A padded convolution's input pull-back folds onto the unpadded grid
    only; it equals folding onto the padded grid and slicing, signed zeros
    included, in either layout of the window kernel."""

    @pytest.mark.parametrize("case", _PADDED_CASES, ids=str)
    def test_fold_matches_padded_fold_sliced(self, layout, case):
        b, c, h, w, k, stride, p = case
        rng = np.random.default_rng(b * 100 + h * 10 + w)
        oh, ow = (h + 2 * p - k) // stride + 1, (w + 2 * p - k) // stride + 1
        win = _signed_data(rng, (b, c, k * k, oh, ow))
        win[rng.uniform(size=win.shape) < 0.3] = -0.0
        got = _fold(win, k, k, stride, h, w, p)
        assert got.flags.c_contiguous
        want = _fold(win, k, k, stride, h + 2 * p, w + 2 * p)[:, :, p:p + h, p:p + w]
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("case", _PADDED_CASES, ids=str)
    def test_grad_input_matches_padded_fold_sliced(self, layout, case):
        b, c, h, w, k, stride, p = case
        rng = np.random.default_rng(b * 100 + h * 10 + w + 1)
        o = max(1, c // 2)
        conv = Conv2d(_signed_data(rng, (o, c, k, k)), np.zeros(o), stride=stride, padding=p)
        _, oh, ow = conv.out_shape((c, h, w))
        cot = _signed_data(rng, (b, o, oh, ow))
        cot[rng.uniform(size=cot.shape) < 0.3] = -0.0
        for weight in (None, np.maximum(conv.weight, 0.0)):
            kernel = conv.weight if weight is None else weight
            dcols = np.matmul(kernel.reshape(o, -1).T, cot.reshape(b, o, oh * ow))
            padded = _fold(dcols.reshape(b, c, k * k, oh, ow), k, k, stride,
                           h + 2 * p, w + 2 * p)
            want = padded[:, :, p:p + h, p:p + w]
            got = conv.grad_input(cot, (c, h, w), weight)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


class TestWindowKernelLayouts:
    """Every layout gives the reference loop's bits, signed zeros and strides."""

    @pytest.mark.parametrize("case", _CONV_CASES, ids=str)
    def test_windows_and_fold(self, layout, case):
        b, c, h, w, k, stride, p = case
        rng = np.random.default_rng(b * 1000 + h)
        hp, wp = h + 2 * p, w + 2 * p
        oh, ow = (hp - k) // stride + 1, (wp - k) // stride + 1
        x = _signed_data(rng, (b, c, hp, wp))
        win = _signed_data(rng, (b, c, k * k, oh, ow))
        got_win = _windows(x, k, k, stride, oh, ow)
        got_fold = _fold(win, k, k, stride, hp, wp)
        assert got_win.flags.c_contiguous and got_fold.flags.c_contiguous
        _assert_same_bits(got_win, _ref_windows(x, k, k, stride, oh, ow))
        _assert_same_bits(got_fold, _ref_fold(win, k, k, stride, hp, wp))
        # fold is the adjoint of the unroll
        lhs, rhs = np.vdot(got_fold, x), np.vdot(win, got_win)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("case", _CONV_CASES, ids=str)
    def test_conv2d(self, layout, case, monkeypatch):
        b, c, h, w, k, stride, p = case
        rng = np.random.default_rng(b * 1000 + h + 1)
        o = max(1, c // 2)
        conv = Conv2d(_signed_data(rng, (o, c, k, k)), rng.standard_normal(o),
                      stride=stride, padding=p)
        x = _signed_data(rng, (b, c, h, w))
        cot = _signed_data(rng, (b,) + conv.out_shape((c, h, w)))
        zplus = np.maximum(conv.weight, 0.0)

        def run(backward):
            grad_in, grads = backward(conv, x, cot)
            return [conv.forward(x), grad_in, grads["weight"], grads["bias"],
                    conv.grad_input(cot, (c, h, w), weight=zplus)]

        # the backward from a recorded entry equals a fresh unroll's
        want = _reference(monkeypatch, lambda: run(_unrolled_conv_backward))
        for got, ref in zip(run(_recorded_backward), want):
            _assert_same_bits(got, ref)

    @pytest.mark.parametrize("case", _POOL_CASES, ids=str)
    @pytest.mark.parametrize("pool_cls", [MaxPool2d, AvgPool2d])
    def test_pools(self, layout, pool_cls, case, monkeypatch):
        b, c, h, w, k, stride = case
        rng = np.random.default_rng(b * 1000 + h + 2)
        pool = pool_cls(k, stride)
        # few distinct values, so max-pool windows hold ties
        x = rng.integers(-2, 3, size=(b, c, h, w)).astype(np.float64)
        cot = _signed_data(rng, (b,) + pool.out_shape((c, h, w)))
        unrolled = (_unrolled_max_pool_backward if pool_cls is MaxPool2d
                    else _recorded_backward)

        def run(backward):
            return [pool.forward(x), backward(pool, x, cot)[0]]

        # max pooling's backward from its recorded winners equals a fresh
        # unroll and argmax, ties included
        want = _reference(monkeypatch, lambda: run(unrolled))
        for got, ref in zip(run(_recorded_backward), want):
            assert got.flags.c_contiguous
            _assert_same_bits(got, ref)

    def test_max_pool_tie_goes_to_lowest_index(self, layout):
        x = np.zeros((2, 3, 4, 4))
        grad = _recorded_backward(MaxPool2d(2), x, np.ones((2, 3, 2, 2)))[0]
        want = np.zeros((4, 4))
        want[::2, ::2] = 1.0
        np.testing.assert_array_equal(grad, np.broadcast_to(want, grad.shape))

    def test_unroll_keeps_the_input_dtype(self, layout):
        x = np.arange(2 * 3 * 4 * 4, dtype=np.float32).reshape(2, 3, 4, 4)
        got = _windows(x, 2, 2, 2, 2, 2)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, _ref_windows(x, 2, 2, 2, 2, 2))
        assert _fold(got, 2, 2, 2, 4, 4).dtype == np.float64
