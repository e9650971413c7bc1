"""Network stack: forward values, analytic gradients, optimizer behavior."""

from __future__ import annotations

import numpy as np
import pytest

from egt import tensornet
from egt.errors import ContractError, NumericError
from egt.lrp import lrp_backward, lrp_passthrough
from egt.model import build_encoder, build_relation_net, describe_layer, layer_from_description
from egt.tensornet import (AvgPool2d, Conv2d, Flatten, Linear, MaxPool2d,
                           Network, ReLU, he_uniform, _fold, _offsets, _out_sides, _windows,
                           sgd_step)
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
    """The trace keeps each conv's unroll, and nothing else; the gradient pass reuses it."""

    def test_only_conv_keeps_arrays(self):
        rng = np.random.default_rng(13)
        net = Network((2, 6, 6), [rand_conv(rng, 2, 3, 3, padding=1), ReLU(),
                                  MaxPool2d(2), AvgPool2d(3), Flatten(),
                                  rand_linear(rng, 3, 2)])
        x = rng.standard_normal((4, 2, 6, 6))
        out, trace = net.forward_recorded(x)
        np.testing.assert_array_equal(out, net.forward(x))
        assert [sorted(e.kept) for e in trace.entries] == [["cols"], [], [], [], [], []]
        cols = trace.entries[0].kept["cols"]
        np.testing.assert_array_equal(cols, _ref_windows(x, 3, 3, 1, 6, 6, 1).reshape(4, 18, 36))

    def test_encoder_pass_keeps_exactly_each_convs_columns(self):
        rng = np.random.default_rng(15)
        net = build_encoder((3, 16, 16), rng)
        _, trace = net.forward_recorded(rng.uniform(size=(5, 3, 16, 16)))
        for layer, entry in zip(net.layers, trace.entries):
            if isinstance(layer, Conv2d):
                assert list(entry.kept) == ["cols"]
                _assert_same_bits(entry.kept["cols"], layer.unroll(entry.input))
            else:
                assert entry.kept == {}

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

    @pytest.mark.parametrize("net", ["encoder", "relation"])
    def test_rows_index_every_entry_and_drop_kept(self, net):
        # ``ForwardTrace.rows`` takes the rows of every entry's input and
        # output, as ``np.tile`` and per-entry indexing do, bit for bit.
        rng = np.random.default_rng(16)
        net = _row_count_net(net, rng)
        _, trace = net.forward_recorded(rng.uniform(size=(3,) + net.input_shape))
        cases = {
            "tiled": (np.tile(np.arange(3), 4),
                      lambda a: np.tile(a, (4,) + (1,) * (a.ndim - 1))),
            "repeated": (np.zeros(5, dtype=np.intp), lambda a: np.repeat(a[:1], 5, axis=0)),
            "none": (np.zeros(0, dtype=np.intp), lambda a: a[:0]),
            "all": (slice(None), lambda a: a),
            "reordered": (np.array([2, 0, 2]), lambda a: a[[2, 0, 2]]),
        }
        for name, (index, want) in cases.items():
            got = trace.rows(index)
            assert len(got.entries) == len(trace.entries), name
            for entry, e in zip(got.entries, trace.entries):
                for a, b in ((entry.input, want(e.input)), (entry.output, want(e.output))):
                    assert a.shape == b.shape and a.dtype == b.dtype, name
                    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
                assert entry.kept == {}, name


def _row_count_net(kind, rng):
    """A one-layer network of layer kind ``kind``, or the gate's encoder or relation net."""
    if kind == "encoder":
        return build_encoder((3, 16, 16), rng, widths=(8, 16, 32))
    if kind == "relation":
        return build_relation_net((64, 2, 2), rng, hidden=64)
    shape, layer = {
        "linear": ((6,), rand_linear(rng, 6, 4)),
        "conv2d": ((2, 5, 5), rand_conv(rng, 2, 3, 3, padding=1)),
        "relu": ((2, 4, 4), ReLU()),
        "maxpool2d": ((2, 4, 4), MaxPool2d(2)),
        "avgpool2d": ((2, 5, 5), AvgPool2d(2)),
        "flatten": ((2, 2, 3), Flatten()),
    }[kind]
    assert layer.kind == kind
    return Network(shape, [layer])


class TestRowCounts:
    """Every layer kind, and the gate's two networks, take 0, 1 or 41 rows through
    forward, recorded forward, backward and LRP; every result has those rows."""

    @pytest.mark.parametrize("rows", [0, 1, 41])
    @pytest.mark.parametrize("kind", ["linear", "conv2d", "relu", "maxpool2d", "avgpool2d",
                                      "flatten", "encoder", "relation"])
    def test_every_pass(self, kind, rows):
        rng = np.random.default_rng(rows)
        net = _row_count_net(kind, rng)
        x = rng.uniform(size=(rows,) + net.input_shape)
        out = net.forward(x)
        assert out.shape == (rows,) + net.output_shape
        recorded, trace = net.forward_recorded(x)
        _assert_same_bits(recorded, out)
        grad_in, grads = net.backward_grad(trace, rng.standard_normal(out.shape))
        assert grad_in.shape == x.shape
        for i, layer in net.param_layers():
            for name, param in layer.params().items():
                assert grads[i][name].shape == param.shape
                assert rows or not grads[i][name].any()
        assert lrp_backward(net, trace, rng.uniform(size=out.shape)).shape == x.shape


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


# --- the window kernel: the unroll, and the fold in both layouts, against loops ---

def _ref_windows(x, kh, kw, stride, oh, ow, pad):
    """Unroll a zero-padded copy of ``x``, window index by window index."""
    x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    b, c = x.shape[:2]
    win = np.empty((b, c, kh * kw, oh, ow))
    for i in range(kh):
        for j in range(kw):
            win[:, :, i * kw + j] = x[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return win


def _ref_fold(parts, kh, kw, stride, h, w, pad):
    """Fold onto the ``h x w`` grid padded by ``pad``, then copy out its interior."""
    win = np.stack(list(parts), axis=2)
    b, c, _, oh, ow = win.shape
    out = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
    for i in range(kh):
        for j in range(kw):
            out[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += win[:, :, i * kw + j]
    return np.ascontiguousarray(out[:, :, pad:pad + h, pad:pad + w])


def _parts(win):
    """The ``(B, C, oh, ow)`` parts of stacked windows, one per window index, as views."""
    return win.transpose(2, 0, 1, 3, 4)


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
# One output position over 4x4: overlapping 3x3 windows at stride 2, and
# non-tiling 3x3 windows at stride 3.
_ONE_WINDOW_POOL_CASES = [
    (4, 3, 4, 4, 3, 2),
    (4, 3, 4, 4, 3, 3),
]
# The fold's layout: the shape's own choice, then each layout forced for every shape.
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
    cols = _ref_windows(x, k, k, conv.stride, *cot.shape[2:], p).reshape(b, c * k * k, -1)
    g2 = cot.reshape(b, o, -1)
    fits = b * conv.weight.nbytes <= tensornet._PRODUCT_STACK_BYTES
    dw = (_stack_sum if fits else _one_gemm)(g2, cols)
    grads = {"weight": dw.reshape(conv.weight.shape), "bias": g2.sum(axis=(0, 2))}
    return conv.grad_input(cot, x.shape[1:]), grads


def _stacked_pool(pool, x, cot):
    """A pool and its pull-backs computed on a stacked window copy: the forward,
    the input gradient, and the avg-pool relevance rule for output relevance
    ``cot``.  Window reductions run window by window in index order, the sums
    from ``+0.0``; max pooling routes to the lowest window index that holds
    the maximum; the pull-backs fold with the reference loop."""
    _, oh, ow = pool.out_shape(x.shape[1:])
    k, k2 = pool.kernel, pool.kernel * pool.kernel
    win = _ref_windows(x, k, k, pool.stride, oh, ow, 0)

    def fold(stacked):
        return _ref_fold(_parts(stacked), k, k, pool.stride, *x.shape[2:], 0)
    if isinstance(pool, MaxPool2d):
        y = win[:, :, 0].copy()
        for t in range(1, k2):
            y = np.maximum(y, win[:, :, t])
        first = (win == y[:, :, None]).argmax(axis=2)
        winners = np.arange(k2)[:, None, None] == first[:, :, None]
        return y, fold(np.where(winners, cot[:, :, None], 0.0)), None
    sums = np.zeros(win.shape[:2] + win.shape[3:])
    for t in range(k2):
        sums = sums + win[:, :, t]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(sums[:, :, None] != 0, win / sums[:, :, None], 0.0)
    ratio = ratio + (sums[:, :, None] == 0) * (1.0 / k2)
    grad = fold(np.broadcast_to(cot[:, :, None] / k2, win.shape))
    return sums / k2, grad, fold(ratio * cot[:, :, None])


def _recorded_backward(layer, x, cot):
    return layer.backward(recorded_entry(layer, x), cot)


def _stack_sum(g2, cols):
    """A weight gradient summed over the stack of per-row products ``(B, O, C*k*k)``."""
    return np.matmul(g2, cols.transpose(0, 2, 1)).sum(axis=0)


def _one_gemm(g2, cols):
    """A weight gradient as one GEMM over every row and output position."""
    return np.tensordot(g2, cols, axes=([0, 2], [0, 2]))


def _weight_grad_parts(conv, b, seed):
    """``conv``'s weight gradient from a recorded pass over ``b`` rows, with the
    cotangent ``(B, O, L)`` and the kept columns ``(B, C*k*k, L)`` it reduces."""
    rng = np.random.default_rng(seed)
    o, c = conv.weight.shape[:2]
    entry = recorded_entry(conv, _signed_data(rng, (b, c, 4, 5)))
    cot = _signed_data(rng, entry.output.shape)
    dw, cols = conv.backward(entry, cot)[1]["weight"], entry.kept["cols"]
    return dw.reshape(o, -1), cot.reshape(b, o, cols.shape[2]), cols


class TestSummedProducts:
    """A conv's weight gradient sums one product per row: over the stack of products
    while that fits ``_PRODUCT_STACK_BYTES``, and by one GEMM from one row above."""

    @staticmethod
    def _conv_bounded_at(monkeypatch, rows):
        conv = rand_conv(np.random.default_rng(rows), 3, 4, 3, padding=1)
        monkeypatch.setattr(tensornet, "_PRODUCT_STACK_BYTES", rows * conv.weight.nbytes)
        return conv

    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 9, 10])
    def test_matches_the_full_stack_bitwise(self, monkeypatch, gemms, rows):
        conv = self._conv_bounded_at(monkeypatch, rows)
        for b in (rows - 1, rows):
            dw, g2, cols = _weight_grad_parts(conv, b, 16 + b)
            _assert_same_bits(dw, _stack_sum(g2, cols))
        assert gemms == []

    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 9, 10])
    def test_one_row_over_is_one_gemm(self, monkeypatch, gemms, rows):
        conv = self._conv_bounded_at(monkeypatch, rows)
        dw, g2, cols = _weight_grad_parts(conv, rows + 1, 17 + rows)
        assert len(gemms) == 1
        _assert_same_bits(dw, _one_gemm(g2, cols))
        assert max_rel_err(dw, _stack_sum(g2, cols)) < 1e-12

    def test_gate_shapes(self, gemms):
        # each encoder conv at 41 images fits the stack; the relation net's first
        # conv at 80 pair rows does not, and is one GEMM
        rng = np.random.default_rng(18)
        encoder = build_encoder((3, 16, 16), rng, widths=(8, 16, 32))
        relation = build_relation_net((64, 2, 2), rng, hidden=64)
        for net, rows, rule in ((encoder, 41, _stack_sum), (relation, 80, _one_gemm)):
            _, trace = net.forward_recorded(rng.uniform(size=(rows,) + net.input_shape))
            for layer, entry in zip(net.layers, trace.entries):
                if isinstance(layer, Conv2d):
                    cot = rng.standard_normal(entry.output.shape)
                    dw = layer.backward(entry, cot)[1]["weight"].reshape(len(layer.weight), -1)
                    assert len(gemms) == (rule is _one_gemm)
                    g2, cols = cot.reshape(rows, len(layer.weight), -1), entry.kept["cols"]
                    _assert_same_bits(dw, rule(g2, cols))
                    assert max_rel_err(dw, sum(g @ c.T for g, c in zip(g2, cols))) < 1e-12


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
        got = _fold(_parts(win), k, k, stride, h, w, p)
        assert got.flags.c_contiguous
        want = _fold(_parts(win), k, k, stride, h + 2 * p, w + 2 * p, 0)[:, :, p:p + h, p:p + w]
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
            padded = _fold(_parts(dcols.reshape(b, c, k * k, oh, ow)), k, k, stride,
                           h + 2 * p, w + 2 * p, 0)
            want = padded[:, :, p:p + h, p:p + w]
            got = conv.grad_input(cot, (c, h, w), weight)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def _table_args(h, w, k, stride, p):
    """The 8 ints of the offset table for ``k x k`` windows over ``h x w`` padded by ``p``."""
    return (k, k, stride, *_out_sides((h, w), k, k, stride, p), h, w, p)


_TABLE_CASES = ([_table_args(h, w, k, s, p) for _, _, h, w, k, s, p in _CONV_CASES]
                + [_table_args(h, w, k, s, 0)
                   for _, _, h, w, k, s in _POOL_CASES + _ONE_WINDOW_POOL_CASES])


class TestOffsetTables:
    """Each offset table is built once per shape: the cached table is a tuple, equal to
    one built afresh, and the cache holds a fixed number of tables."""

    @pytest.mark.parametrize("args", _TABLE_CASES, ids=str)
    def test_cached_table_equals_fresh_one(self, args):
        table = _offsets(*args)
        assert isinstance(table, tuple) and len(table) == args[0] * args[1]
        assert table == _offsets.__wrapped__(*args)
        assert _offsets(*args) is table

    def test_cache_is_bounded(self):
        maxsize = _offsets.cache_info().maxsize
        assert maxsize == tensornet._OFFSET_TABLES and 0 < maxsize < 1 << 10


class TestWindowKernelLayouts:
    """Every layout gives the reference loop's bits, signed zeros and strides."""

    @pytest.mark.parametrize("case", _CONV_CASES, ids=str)
    def test_windows_and_fold(self, layout, case):
        b, c, h, w, k, stride, p = case
        rng = np.random.default_rng(b * 1000 + h)
        oh, ow = (h + 2 * p - k) // stride + 1, (w + 2 * p - k) // stride + 1
        x = _signed_data(rng, (b, c, h, w))
        win = _signed_data(rng, (b, c, k * k, oh, ow))
        got_win = _windows(x, k, k, stride, oh, ow, p)
        got_fold = _fold(_parts(win), k, k, stride, h, w, p)
        assert got_win.flags.c_contiguous and got_fold.flags.c_contiguous
        _assert_same_bits(got_win, _ref_windows(x, k, k, stride, oh, ow, p))
        _assert_same_bits(got_fold, _ref_fold(_parts(win), k, k, stride, h, w, p))
        # fold is the adjoint of the unroll
        lhs, rhs = np.vdot(got_fold, x), np.vdot(win, got_win)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("case", _CONV_CASES, ids=str)
    def test_windows_read_the_unpadded_input(self, layout, case):
        # the unroll of the bare input is the unroll of its zero-padded copy,
        # the padding's taps +0.0
        b, c, h, w, k, stride, p = case
        rng = np.random.default_rng(b * 1000 + h + 4)
        oh, ow = (h + 2 * p - k) // stride + 1, (w + 2 * p - k) // stride + 1
        x = _signed_data(rng, (b, c, h, w))
        padded = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        _assert_same_bits(_windows(x, k, k, stride, oh, ow, p),
                          _ref_windows(padded, k, k, stride, oh, ow, 0))

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

    @pytest.mark.parametrize("case", _POOL_CASES + _ONE_WINDOW_POOL_CASES, ids=str)
    @pytest.mark.parametrize("pool_cls", [MaxPool2d, AvgPool2d])
    def test_pools(self, layout, pool_cls, case):
        b, c, h, w, k, stride = case
        rng = np.random.default_rng(b * 1000 + h + 2)
        pool = pool_cls(k, stride)
        # few distinct values, so max-pool windows hold ties, some of them
        # between +0.0 and -0.0; then signed normal draws
        ties = rng.integers(-2, 3, size=(b, c, h, w)).astype(np.float64)
        ties[(ties == 0) & (rng.uniform(size=ties.shape) < 0.5)] = -0.0
        for x in (ties, _signed_data(rng, (b, c, h, w))):
            cot = _signed_data(rng, (b,) + pool.out_shape((c, h, w)))
            want_y, want_grad, want_rel = _stacked_pool(pool, x, cot)
            entry = recorded_entry(pool, x)
            assert entry.kept == {}
            _assert_same_bits(entry.output, want_y)
            _assert_same_bits(pool.forward(x), want_y)
            _assert_same_bits(pool.backward(entry, cot)[0], want_grad)
            if want_rel is not None:
                _assert_same_bits(lrp_passthrough(pool, entry, cot), want_rel)

    @pytest.mark.parametrize("case", _POOL_CASES, ids=str)
    def test_window_order_matches_numpys_stacked_reductions(self, case):
        # What the pools did before they reduced tap by tap: ``max`` and
        # ``mean`` over the stacked windows' axis 2.  At these shapes numpy
        # runs that reduction window by window as well, so the bits agree.
        # With one output position and 3x3 windows it reduces along the
        # window axis in its own vectorized order instead, which is why
        # ``_ONE_WINDOW_POOL_CASES`` are left out here.
        b, c, h, w, k, stride = case
        rng = np.random.default_rng(b * 1000 + h + 3)
        x = _signed_data(rng, (b, c, h, w))
        cot = _signed_data(rng, (b,) + MaxPool2d(k, stride).out_shape((c, h, w)))
        win = _ref_windows(x, k, k, stride, *cot.shape[2:], 0)
        _assert_same_bits(_stacked_pool(MaxPool2d(k, stride), x, cot)[0], win.max(axis=2))
        _assert_same_bits(_stacked_pool(AvgPool2d(k, stride), x, cot)[0], win.mean(axis=2))

    def test_pools_build_no_window_stack(self, monkeypatch):
        # the pull-backs fold through ``_fold`` by design; the forward and the
        # winners read strided views, never an unroll
        def refused(*args, **kwargs):
            raise AssertionError("a pool unrolled its windows")
        monkeypatch.setattr(tensornet, "_windows", refused)
        x = np.random.default_rng(4).standard_normal((2, 3, 5, 5))
        for pool in (MaxPool2d(2), MaxPool2d(3, 1), AvgPool2d(2), AvgPool2d(3, 2)):
            entry = recorded_entry(pool, x)
            pool.backward(entry, np.ones_like(entry.output))
            lrp_passthrough(pool, entry, np.ones_like(entry.output))

    def test_max_pool_tie_goes_to_lowest_index(self, layout):
        x = np.zeros((2, 3, 4, 4))
        grad = _recorded_backward(MaxPool2d(2), x, np.ones((2, 3, 2, 2)))[0]
        want = np.zeros((4, 4))
        want[::2, ::2] = 1.0
        np.testing.assert_array_equal(grad, np.broadcast_to(want, grad.shape))

    def test_max_pool_routes_an_infinite_cotangent_to_the_winner_only(self, layout):
        # a product with the winner mask would put inf * 0 = NaN at the losing taps
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        grad = _recorded_backward(MaxPool2d(2), x, np.full((1, 1, 2, 2), np.inf))[0]
        want = np.zeros((4, 4))
        want[1::2, 1::2] = np.inf
        np.testing.assert_array_equal(grad[0, 0], want)

    def test_unroll_keeps_the_input_dtype(self, layout):
        x = np.arange(2 * 3 * 4 * 4, dtype=np.float32).reshape(2, 3, 4, 4)
        got = _windows(x, 2, 2, 2, 2, 2, 0)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, _ref_windows(x, 2, 2, 2, 2, 2, 0))
        assert _fold(_parts(got), 2, 2, 2, 4, 4, 0).dtype == np.float64
