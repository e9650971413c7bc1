"""Shared builders and independent oracles for the numeric test suites."""

from __future__ import annotations

import numpy as np

from egt.errors import ContractError, DataFormatError
from egt.tensornet import (AvgPool2d, Conv2d, Flatten, Linear, Network, ReLU)


def central_diff(fn, arr, step=1e-4):
    """Central finite differences of a scalar callable w.r.t. ``arr`` (mutated in place)."""
    grad = np.zeros(arr.shape, dtype=np.float64)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        kept = arr[idx]
        arr[idx] = kept + step
        hi = fn()
        arr[idx] = kept - step
        lo = fn()
        arr[idx] = kept
        grad[idx] = (hi - lo) / (2.0 * step)
    return grad


def recorded_entry(layer, x):
    """The recorded application of ``layer`` to rows ``x``, from a one-layer network."""
    return Network(x.shape[1:], [layer]).forward_recorded(x)[1].entries[0]


def max_rel_err(got, want):
    scale = max(np.max(np.abs(want)), 1e-12)
    return float(np.max(np.abs(got - want)) / scale)


def rand_linear(rng, in_dim, out_dim, bias=True):
    w = rng.standard_normal((out_dim, in_dim))
    b = rng.standard_normal(out_dim) if bias else np.zeros(out_dim)
    return Linear(w, b)


def rand_conv(rng, in_ch, out_ch, kernel, stride=1, padding=0, bias=True):
    w = rng.standard_normal((out_ch, in_ch, kernel, kernel))
    b = rng.standard_normal(out_ch) if bias else np.zeros(out_ch)
    return Conv2d(w, b, stride=stride, padding=padding)


def conservation_net(rng, bias=False):
    """Random stack (<= 4 layers) of linear/relu/avgpool/flatten layers."""
    pick = int(rng.integers(0, 5))
    if pick == 0:
        d = int(rng.integers(2, 8))
        return Network((d,), [rand_linear(rng, d, int(rng.integers(1, 6)), bias)])
    if pick == 1:
        d, h = int(rng.integers(2, 8)), int(rng.integers(2, 7))
        return Network((d,), [rand_linear(rng, d, h, bias), ReLU(),
                              rand_linear(rng, h, int(rng.integers(1, 5)), bias)])
    if pick == 2:
        c = int(rng.integers(1, 4))
        return Network((c, 4, 4), [Flatten(),
                                   rand_linear(rng, c * 16, int(rng.integers(1, 6)), bias)])
    if pick == 3:
        c = int(rng.integers(1, 4))
        return Network((c, 4, 4), [AvgPool2d(2), Flatten(),
                                   rand_linear(rng, c * 4, int(rng.integers(1, 6)), bias),
                                   ReLU()])
    c = int(rng.integers(1, 3))
    return Network((c, 6, 6), [AvgPool2d(2), ReLU(), Flatten(),
                               rand_linear(rng, c * 9, int(rng.integers(2, 6)), bias)])


def relu_tower(rng, depth, in_dim, bias=False):
    """Bias-free linear/relu alternation ending in a linear layer."""
    layers, d = [], in_dim
    for _ in range(depth):
        out = int(rng.integers(2, 7))
        layers += [rand_linear(rng, d, out, bias), ReLU()]
        d = out
    layers.append(rand_linear(rng, d, int(rng.integers(1, 5)), bias))
    return Network((in_dim,), layers)


def unrolled_dense(conv, in_shape):
    """Dense (weight, bias) equivalent of a conv layer on a fixed input shape."""
    in_size = int(np.prod(in_shape))
    out_shape = conv.out_shape(in_shape)
    no_bias = Conv2d(conv.weight, np.zeros_like(conv.bias), conv.stride, conv.padding)
    weight = np.zeros((int(np.prod(out_shape)), in_size))
    for i in range(in_size):
        basis = np.zeros(in_size)
        basis[i] = 1.0
        weight[:, i] = no_bias.forward(basis.reshape((1,) + tuple(in_shape))).ravel()
    bias = np.repeat(conv.bias, out_shape[1] * out_shape[2])
    return weight, bias


def dense_epsilon_oracle(weight, x, y, rel_out, eps):
    """Per-term epsilon rule on an unrolled linear map (loop reference)."""
    rel_in = np.zeros_like(x, dtype=np.float64)
    for j in range(weight.shape[0]):
        denom = y[j] + eps * (1.0 if y[j] >= 0 else -1.0)
        if denom == 0.0:
            continue
        for i in range(x.size):
            rel_in[i] += rel_out[j] * x[i] * weight[j, i] / denom
    return rel_in


def dense_alpha_oracle(weight, x, y, rel_out, alpha):
    """Per-term alpha rule with sign-split pre-activation denominators."""
    rel_in = np.zeros_like(x, dtype=np.float64)
    for j in range(weight.shape[0]):
        dpos, dneg = max(y[j], 0.0), min(y[j], 0.0)
        for i in range(x.size):
            z = x[i] * weight[j, i]
            term = 0.0
            if dpos != 0.0:
                term += alpha * max(z, 0.0) / dpos
            if dneg != 0.0:
                term -= (alpha - 1.0) * min(z, 0.0) / dneg
            rel_in[i] += rel_out[j] * term
    return rel_in


# Single-byte replacements for the loader fuzz tests: separators, digits,
# a sign, a NUL and a non-ascii byte.
FUZZ_BYTES = b"\x00\n =x09-\xff"


def with_f4(raw: bytes, at: int, value: float) -> bytes:
    """``raw`` with the little-endian float32 at byte ``at`` replaced by ``value``."""
    return raw[:at] + np.array([value], "<f4").tobytes() + raw[at + 4:]


def loads_or_fails_cleanly(load, path, cases):
    """Write each case to ``path`` and load it; return how many loaded.

    Anything but a clean load or an error the CLI maps to exit 2
    (``DataFormatError``, ``ContractError``) escapes and fails the test.
    """
    loaded = 0
    for case in cases:
        with open(path, "wb") as fh:
            fh.write(case)
        try:
            load(path)
            loaded += 1
        except (DataFormatError, ContractError):
            pass
    return loaded


def count_grad_input(monkeypatch) -> list:
    """Count ``Conv2d.grad_input`` calls: one entry per call in the returned list."""
    calls = []
    real = Conv2d.grad_input

    def counted(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)
    monkeypatch.setattr(Conv2d, "grad_input", counted)
    return calls
