"""Minimal dense feedforward network stack.

Implements the closed layer vocabulary used by the relevance engine and
the episodic trainer: ``linear``, ``conv2d``, ``relu``, ``maxpool2d``,
``avgpool2d``, ``flatten``.  A forward pass can be recorded into a
:class:`ForwardTrace` that keeps every per-layer input and output, plus
the convolution's im2col columns, which its ``backward`` reuses
(:class:`LayerTrace`).  Both the gradient pass and the relevance pass
replay that trace instead of touching global state or unrolling again;
max pooling derives its winners again from the recorded input and
output.  The unrecorded pass keeps nothing.  The parameterized layers
expose their input pull-back as ``grad_input(grad_out, in_shape,
weight=None)``, which the relevance rules reuse with their own weights.

There is one window kernel, for convolution and pooling alike.  Its
offset table (:func:`_offsets`, built once per shape) holds, per kernel
offset ``(i, j)``, the slices of an input padded by ``pad`` that the
offset taps and of the windows that read them, so no padded copy is
ever built.
:func:`_windows` unrolls through it (:meth:`Conv2d.unroll`), leaving
taps on the padding ``+0.0``, and :func:`_fold` scatter-adds one window
part per offset back onto the unpadded grid.  The unroll works
channel-major, ``(B, C, ...)``, as the GEMMs want.  The fold takes its
accumulator's layout from the output width ``ow``: spatial-major,
``(..., B, C)``, for ``ow`` in ``_SPATIAL_MAJOR_OW``, so that a slice
op's innermost loop spans B*C elements instead of ``ow``, and
channel-major otherwise; it hands back a C-contiguous ``(B, C, ...)``
array.  The result is bit-identical in either layout: every folded
element receives its additions in the same ``(i, j)`` order, starting
from ``+0.0``.

The pools stack no windows.  Their taps (:meth:`_Pool.taps`) are the
table's grid slices, as strided views: max pooling reduces them with
``np.maximum`` in offset order, average pooling adds them onto ``+0.0``
in that order, and the pull-backs hand :func:`_fold` one part per tap
(:meth:`_Pool.untap`).  Those are the orders of numpy's ``max`` and
``mean`` along a stacked window axis, so the results are a window
stack's to the bit, except at one output position over 3x3 or larger
windows, where numpy reduces a stack in its own vectorized order.

A convolution's weight gradient is a sum of per-row products
(:func:`_summed_products`).  One that takes more than one chunk of the
product buffer is summed on one background worker thread per process,
and ``backward`` hands back a ``Future`` in its place, so the
input gradient goes on down the stack meanwhile; :func:`added` sums
gradients that may be pending, and :func:`joined` waits for them.  The
worker runs the same numpy calls on the same arrays, so each gradient
is the inline one to the bit.  Smaller reductions run inline and start
no thread.

All arithmetic is float64 numpy.  Every activation carries a leading
row axis: ``(B, C, H, W)`` for image-like tensors and ``(B, D)`` for
vectors.  A network's ``input_shape`` and ``shapes`` name one row.  No
file format is known here: :mod:`egt.model` owns a layer's checkpoint line.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractError, NumericError, check_addressable

if TYPE_CHECKING:
    from concurrent.futures import Future, ThreadPoolExecutor

Array = np.ndarray


def he_uniform(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> Array:
    """Fan-in scaled uniform init, bound sqrt(6 / fan_in)."""
    check_addressable(shape, 8, "weight")
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ContractError(message)


def _out_sides(sides, kh: int, kw: int, stride: int, padding: int = 0) -> tuple[int, int]:
    """Output height and width of ``kh x kw`` windows over ``sides`` padded by ``padding``."""
    h, w = sides[0] + 2 * padding, sides[1] + 2 * padding
    _require(h >= kh and w >= kw,
             f"kernel {kh}x{kw} larger than {'padded ' * bool(padding)}input {h}x{w}")
    return (h - kh) // stride + 1, (w - kw) // stride + 1


# Output widths ``ow`` for which :func:`_fold` accumulates spatial-major.
# ``tools/layer_bench.py --repeats 15`` sweeps both layouts (3x3 conv,
# padding 1, B*C 1..5120; two runs on 2 shared x86-64 CPUs): at ``ow`` 2
# and 4 the spatial-major fold runs at 0.42-1.08x the channel-major time
# (``grad_input`` 0.54-1.05x), and at ``ow`` 1 and 16 at 1.03-1.05x.  At
# ``ow`` 8 it gains in the sweep but read 1.14x on the encoder's first
# max-pool pull-back (41 rows x 8 channels), so the range stops at 4.  The
# unroll is channel-major at every width: spatial-major, it read 0.96-1.01x
# at ``ow`` 2 and 4 on the encoder's and relation head's shapes, and 1.55x
# at 8 and 7.4x at 16.
_SPATIAL_MAJOR_OW = range(2, 5)


# Offset tables kept by ``_offsets``: one per window shape, and a pass of
# the encoder and relation net at one episode shape uses 8.
_OFFSET_TABLES = 64


@functools.lru_cache(maxsize=_OFFSET_TABLES)
def _offsets(kh: int, kw: int, stride: int, oh: int, ow: int, h: int, w: int, pad: int) -> tuple:
    """The window kernel's offset table: entry ``i*kw + j`` serves kernel offset ``(i, j)``.

    An entry is ``(grid, windows)``, the slices of an ``h x w`` input padded
    by ``pad`` that the offset taps and of the ``oh x ow`` windows that read
    them (:func:`_interior`).  Taps on the padding are in neither.  A table
    depends on its 8 ints only, so each is built once and shared.
    """
    rows = [_interior(i, stride, oh, pad, h) for i in range(kh)]
    cols = [_interior(j, stride, ow, pad, w) for j in range(kw)]
    return tuple(((grid_y, grid_x), (win_y, win_x))
                 for grid_y, win_y in rows for grid_x, win_x in cols)


def _windows(x: Array, kh: int, kw: int, stride: int, oh: int, ow: int, pad: int) -> Array:
    """The windows of ``x`` padded by ``pad``, stacked along axis 2: ``(B, C, kh*kw, oh, ow)``.

    Window index ``i*kw + j`` holds kernel offset ``(i, j)``.  ``x`` is read
    unpadded, through :func:`_offsets`, and a tap on the padding stays
    ``+0.0``.
    """
    b, c, h, w = x.shape
    win = np.zeros((b, c, kh * kw, oh, ow), x.dtype)
    x_s, win_s = x.transpose(2, 3, 0, 1), win.transpose(2, 3, 4, 0, 1)
    for t, (grid, part) in enumerate(_offsets(kh, kw, stride, oh, ow, h, w, pad)):
        win_s[t][part] = x_s[grid]
    return win


def _fold(parts, kh: int, kw: int, stride: int, h: int, w: int, pad: int) -> Array:
    """Scatter-add window parts onto an ``h x w`` grid (adjoint of :func:`_windows`).

    ``parts`` yields one ``(B, C, oh, ow)`` part per window index, each
    read once as it comes.  An addition that would land on the padding is
    skipped.  Each element receives its additions in kernel-offset order
    ``(i, j)`` in either layout, starting from ``+0.0``, so the sums are
    those of folding onto the padded grid and slicing, to the bit.  The
    accumulator is spatial-major for ``ow`` in ``_SPATIAL_MAJOR_OW``, and
    the result is C-contiguous.
    """
    oh, ow = _out_sides((h, w), kh, kw, stride, pad)
    out = None
    for part, (grid, win) in zip(parts, _offsets(kh, kw, stride, oh, ow, h, w, pad)):
        if out is None:
            rows = part.shape[:2]
            out = (np.zeros((h, w) + rows) if ow in _SPATIAL_MAJOR_OW
                   else np.zeros(rows + (h, w)).transpose(2, 3, 0, 1))
        out[grid] += part.transpose(2, 3, 0, 1)[win]
    return np.ascontiguousarray(out.transpose(2, 3, 0, 1))


def _interior(offset: int, stride: int, n: int, pad: int, size: int) -> tuple[slice, slice]:
    """Along one axis, where kernel offset ``offset`` of ``n`` windows lands inside the grid.

    Window ``y`` taps padded position ``y*stride + offset``, which is grid
    position ``y*stride + offset - pad``.  Returns the slice of grid
    positions in ``[0, size)`` and the slice of the windows that tap
    them; both are empty when none does.
    """
    first = max(0, -((offset - pad) // stride))
    last = max(first, min(n, (size - 1 + pad - offset) // stride + 1))
    start = first * stride + offset - pad
    return slice(start, start + (last - first) * stride, stride), slice(first, last)


# Bytes of the one buffer through which ``_summed_products`` reduces a
# stack of products: the encoder's convolutions at a batch of 41 fit in
# one chunk (the last one exactly), the relation net's first convolution
# (80 pairs, 147 KB of weight gradient per pair) takes chunks of 9 rows
# instead of an 11.8 MB stack, and so goes to the reduction worker.
_PRODUCT_BUFFER_BYTES = 3 << 19


def _chunk_rows(a: Array, b: Array) -> int:
    """Rows of ``a @ b`` per chunk of ``_summed_products``' buffer, at most all of them."""
    n, size = a.shape[0], a.shape[1] * b.shape[2]
    return max(1, min(n, _PRODUCT_BUFFER_BYTES // (8 * size) - 1))


def _summed_products(a: Array, b: Array) -> Array:
    """``np.matmul(a, b).sum(axis=0)``, bit for bit, without the whole stack.

    Each chunk of rows has its products written behind the running sum
    in one reused buffer, and ``np.add.reduce`` extends the sum over
    them in row order: the additions are those of the full reduction.
    """
    n, shape = a.shape[0], (a.shape[1], b.shape[2])
    rows = _chunk_rows(a, b)
    buf = np.empty((rows + 1,) + shape)
    total = np.zeros(shape)
    for start in range(0, n, rows):
        m = min(rows, n - start)
        np.matmul(a[start:start + m], b[start:start + m], out=buf[1:m + 1])
        if start:
            buf[0] = total
        np.add.reduce(buf[0 if start else 1:m + 1], axis=0, out=total)
    return total


# The process's one reduction worker, and the lock under which it is started.
_worker: ThreadPoolExecutor | None = None
_worker_lock = threading.Lock()


def _later(fn, *args) -> Future:
    """Queue ``fn(*args)`` on the reduction worker, started on first use.

    The worker is one thread, so tasks run in submission order, and a
    task may wait for any future queued before it.  Its tasks only
    reduce and add arrays; nothing they call records or times a pass.
    The future's ``result()`` raises what the task raised, unchanged.
    """
    global _worker
    with _worker_lock:
        if _worker is None:
            # imported on first use: concurrent.futures brings in logging, about
            # 0.6 MB that a process which never uses the worker does not need
            from concurrent.futures import ThreadPoolExecutor
            _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="egt-reduce")
        return _worker.submit(fn, *args)


def _forget_worker() -> None:
    """A forked child has no copy of the parent's thread: it starts its own on demand."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_worker)


def _pending(grad: Array | Future) -> bool:
    """Whether ``grad`` is a worker's ``Future`` (an array has no ``result``)."""
    return hasattr(grad, "result")


def _value(grad: Array | Future) -> Array:
    return grad.result() if _pending(grad) else grad


def added(a: Array | Future, b: Array | Future) -> Array | Future:
    """``a + b`` for two gradients, queued on the worker behind them when either is pending."""
    if _pending(a) or _pending(b):
        return _later(lambda: _value(a) + _value(b))
    return a + b


def joined(param_grads: list[dict[str, Array | Future] | None] | None
           ) -> list[dict[str, Array] | None] | None:
    """Per-layer parameter gradients with every pending one (a ``Future``) waited for."""
    if param_grads is None:
        return None
    return [None if grads is None else {name: _value(g) for name, g in grads.items()}
            for grads in param_grads]


@dataclass
class LayerTrace:
    """One recorded layer application: its input and output rows, and ``kept``.

    ``kept`` holds what the layer unrolled in ``forward`` and its
    ``backward`` reuses: only a convolution keeps anything, its im2col
    columns (``"cols"``, ``(B, C*kh*kw, oh*ow)``).  For the encoder at the
    gate's shapes (41 images, 3x16x16, widths 8/16/32) that is about
    4.5 MB per trace.
    """
    input: Array
    output: Array
    kept: dict[str, Array] = field(default_factory=dict)


class Layer:
    """Base class: stateless apart from parameters and momentum buffers."""

    kind: str = "?"

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        raise NotImplementedError

    def forward(self, x: Array, kept: dict[str, Array] | None = None) -> Array:
        """Apply the layer to input rows ``(B, *in_shape)``.

        A recording caller passes an empty dict as ``kept``, and a
        convolution stores its columns there for ``backward``; every other
        layer leaves it empty.  Without it no layer keeps anything or does
        extra work.  A convolution also takes its columns from ``kept``
        when they are there (:meth:`Conv2d.forward`).
        """
        raise NotImplementedError

    def backward(self, entry: LayerTrace, grad_out: Array) -> tuple[Array, dict[str, Array] | None]:
        """Return ``(grad_in, param_grads)`` for the recorded application ``entry``.

        ``param_grads`` is summed over the batch axis; ``None`` for
        parameter-free layers.  A convolution's weight gradient may be a
        pending ``Future`` (:meth:`Conv2d.backward`).
        """
        raise NotImplementedError

    def params(self) -> dict[str, Array]:
        return {}


class _Parameterized(Layer):
    """A layer with a float64 ``ndim``-d weight, no axis of it empty, and a bias per output;
    ``backward(..., input_grad=False)`` skips the input pull-back and returns ``None`` for it."""

    ndim: int

    def __init__(self, weight: Array, bias: Array):
        weight = np.asarray(weight, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        _require(weight.ndim == self.ndim and weight.size > 0, f"{self.kind} weight must be "
                 f"{self.ndim}-d without an empty axis, got {weight.shape}")
        _require(bias.shape == (weight.shape[0],),
                 f"{self.kind} bias shape {bias.shape} does not match weight {weight.shape}")
        self.weight, self.bias = weight, bias
        self.velocity: dict[str, Array] = {}

    def params(self) -> dict[str, Array]:
        return {"weight": self.weight, "bias": self.bias}


class Linear(_Parameterized):
    kind, ndim = "linear", 2

    @classmethod
    def he_init(cls, in_dim: int, out_dim: int, rng: np.random.Generator) -> "Linear":
        return cls(he_uniform((out_dim, in_dim), in_dim, rng), np.zeros(out_dim))

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        _require(in_shape == (self.weight.shape[1],),
                 f"expects input ({self.weight.shape[1]},), got {in_shape}")
        return (self.weight.shape[0],)

    def forward(self, x: Array, kept: dict[str, Array] | None = None) -> Array:
        return x @ self.weight.T + self.bias

    def backward(self, entry: LayerTrace, grad_out: Array,
                 input_grad: bool = True) -> tuple[Array | None, dict[str, Array]]:
        x = entry.input
        grad_in = self.grad_input(grad_out, x.shape[1:]) if input_grad else None
        return grad_in, {"weight": grad_out.T @ x, "bias": grad_out.sum(axis=0)}

    def grad_input(self, grad_out: Array, in_shape: tuple[int, ...],
                   weight: Array | None = None) -> Array:
        """``grad_out @ weight``, the stored weight unless given; as :meth:`Conv2d.grad_input`."""
        return grad_out @ (self.weight if weight is None else weight)


class Conv2d(_Parameterized):
    """2-d convolution (cross-correlation) via window unrolling.

    Weight layout ``(out_ch, in_ch, kh, kw)``; zero padding; square or
    rectangular kernels; stride >= 1.  The unrolled-window formulation
    keeps forward, gradient, and relevance passes on the same code path.
    """

    kind, ndim = "conv2d", 4

    def __init__(self, weight: Array, bias: Array, stride: int = 1, padding: int = 0):
        super().__init__(weight, bias)
        _require(stride >= 1, f"conv2d stride must be >= 1, got {stride}")
        _require(padding >= 0, f"conv2d padding must be >= 0, got {padding}")
        self.stride, self.padding = int(stride), int(padding)

    @classmethod
    def he_init(cls, in_ch: int, out_ch: int, kernel: int, rng: np.random.Generator,
                stride: int = 1, padding: int = 0) -> "Conv2d":
        fan_in = in_ch * kernel * kernel
        weight = he_uniform((out_ch, in_ch, kernel, kernel), fan_in, rng)
        return cls(weight, np.zeros(out_ch), stride=stride, padding=padding)

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        _require(len(in_shape) == 3, f"expects (C, H, W) input, got {in_shape}")
        o, c, kh, kw = self.weight.shape
        _require(in_shape[0] == c, f"expects {c} input channels, got {in_shape[0]}")
        return (o, *_out_sides(in_shape[1:], kh, kw, self.stride, self.padding))

    def unroll(self, x: Array) -> Array:
        """The im2col columns ``(B, C*kh*kw, oh*ow)`` of rows ``x``, zero-padded.

        Row ``c*kh*kw + i*kw + j`` of a column block holds channel ``c`` at
        kernel offset ``(i, j)``; a tap on the padding holds ``+0.0``, and
        no padded copy of ``x`` is made.  The channel count C is not
        checked against the kernel: the relation head unrolls each half
        of a pair on its own.
        """
        b, c, h, w = x.shape
        _, _, kh, kw = self.weight.shape
        oh, ow = _out_sides((h, w), kh, kw, self.stride, self.padding)
        return _windows(x, kh, kw, self.stride, oh, ow, self.padding).reshape(
            b, c * kh * kw, oh * ow)

    def forward(self, x: Array, kept: dict[str, Array] | None = None) -> Array:
        """One GEMM over the columns ``unroll(x)``.

        A recorded pass keeps the columns for :meth:`backward`.  A caller
        that already holds ``unroll(x)`` hands it in as ``kept["cols"]``,
        and the GEMM runs on it as given.
        """
        b = x.shape[0]
        o = self.weight.shape[0]
        _, oh, ow = self.out_shape(x.shape[1:])
        cols = None if kept is None else kept.get("cols")
        if cols is None:
            cols = self.unroll(x)
            if kept is not None:
                kept["cols"] = cols
        y = np.matmul(self.weight.reshape(o, -1), cols)
        y += self.bias[:, None]
        return y.reshape(b, o, oh, ow)

    def backward(self, entry: LayerTrace, grad_out: Array,
                 input_grad: bool = True) -> tuple[Array | None, dict[str, Array | Future]]:
        """Gradients for ``entry``, the weight's from its recorded columns.

        A weight gradient that takes more than one chunk of the product
        buffer is summed on the reduction worker and returned as a
        ``Future``, while the caller goes on with the input gradient.
        """
        b, o = grad_out.shape[:2]
        g2 = grad_out.reshape(b, o, -1)
        cols = entry.kept["cols"].transpose(0, 2, 1)

        def weight_grad() -> Array:
            return _summed_products(g2, cols).reshape(self.weight.shape)
        dw = _later(weight_grad) if _chunk_rows(g2, cols) < b else weight_grad()
        grads = {"weight": dw, "bias": g2.sum(axis=(0, 2))}
        grad_in = self.grad_input(grad_out, entry.input.shape[1:]) if input_grad else None
        return grad_in, grads

    def grad_input(self, grad_out: Array, in_shape: tuple[int, ...],
                   weight: Array | None = None) -> Array:
        """Input gradient of the convolution for a given output cotangent.

        ``weight`` overrides the stored kernel; the relevance pass uses
        this to push sign-split weights through the same fold.
        """
        w = self.weight if weight is None else weight
        b, o, oh, ow = grad_out.shape
        c, h, wd = in_shape
        _, _, kh, kw = w.shape
        dcols = np.matmul(w.reshape(o, -1).T, grad_out.reshape(b, o, oh * ow))
        parts = dcols.reshape(b, c, kh * kw, oh, ow).transpose(2, 0, 1, 3, 4)
        return _fold(parts, kh, kw, self.stride, h, wd, self.padding)


class ReLU(Layer):
    kind = "relu"

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        return in_shape

    def forward(self, x: Array, kept: dict[str, Array] | None = None) -> Array:
        return np.maximum(x, 0.0)

    def backward(self, entry: LayerTrace, grad_out: Array) -> tuple[Array, None]:
        return grad_out * (entry.input > 0.0), None


class _Pool(Layer):
    def __init__(self, kernel: int, stride: int | None = None):
        _require(kernel >= 1, f"pool kernel must be >= 1, got {kernel}")
        self.kernel = int(kernel)
        self.stride = int(stride) if stride is not None else int(kernel)
        _require(self.stride >= 1, f"pool stride must be >= 1, got {self.stride}")

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        _require(len(in_shape) == 3, f"expects (C, H, W) input, got {in_shape}")
        c, h, w = in_shape
        return (c, *_out_sides((h, w), self.kernel, self.kernel, self.stride))

    def windows(self, x: Array) -> Array:
        """The stacked windows of ``x``, ``(B, C, k*k, oh, ow)``; no pass builds them."""
        _, oh, ow = self.out_shape(x.shape[1:])
        return _windows(x, self.kernel, self.kernel, self.stride, oh, ow, 0)

    def taps(self, x: Array) -> list[Array]:
        """The ``k*k`` strided views ``(B, C, oh, ow)`` of ``x``: the grid slices of
        :func:`_offsets`, so entry ``i*k + j`` holds kernel offset ``(i, j)`` of every window."""
        (_, oh, ow), k, s = self.out_shape(x.shape[1:]), self.kernel, self.stride
        return [x[..., gy, gx] for (gy, gx), _ in _offsets(k, k, s, oh, ow, *x.shape[2:], 0)]

    def untap(self, parts, in_shape: tuple[int, ...]) -> Array:
        """Adjoint of :meth:`taps`: part ``t`` added onto tap ``t`` by :func:`_fold`."""
        return _fold(parts, self.kernel, self.kernel, self.stride, *in_shape[2:], 0)


class MaxPool2d(_Pool):
    kind = "maxpool2d"

    def forward(self, x: Array, kept: dict[str, Array] | None = None) -> Array:
        """Window maxima, reduced tap by tap; nothing is kept."""
        taps = self.taps(x)
        y = taps[0].copy()
        for tap in taps[1:]:
            np.maximum(y, tap, out=y)
        return y

    def backward(self, entry: LayerTrace, grad_out: Array) -> tuple[Array, None]:
        """Route each window's cotangent to its winner: the lowest tap of the recorded input
        equal to the recorded maximum.  The masks are written in place; ``np.where`` routes,
        as ``grad_out * mask`` would make an infinite cotangent at a losing tap NaN."""
        y = entry.output
        won, free = np.empty(y.shape, dtype=bool), np.ones(y.shape, dtype=bool)

        def parts():
            for tap in self.taps(entry.input):
                np.equal(tap, y, out=won)
                np.logical_and(won, free, out=won)
                np.logical_xor(free, won, out=free)  # won lies within free: clears it
                yield np.where(won, grad_out, 0.0)
        return self.untap(parts(), entry.input.shape), None


class AvgPool2d(_Pool):
    kind = "avgpool2d"

    def window_sums(self, x: Array) -> Array:
        """Each window's sum, its taps added in order onto ``+0.0``."""
        taps = self.taps(x)
        sums = taps[0] + 0.0  # maps -0.0 to +0.0
        for tap in taps[1:]:
            sums += tap
        return sums

    def forward(self, x: Array, kept: dict[str, Array] | None = None) -> Array:
        y = self.window_sums(x)
        y /= self.kernel * self.kernel
        return y

    def backward(self, entry: LayerTrace, grad_out: Array) -> tuple[Array, None]:
        k2 = self.kernel * self.kernel
        return self.untap([grad_out / k2] * k2, entry.input.shape), None


class Flatten(Layer):
    kind = "flatten"

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (int(np.prod(in_shape)),)

    def forward(self, x: Array, kept: dict[str, Array] | None = None) -> Array:
        return x.reshape(x.shape[0], -1)

    def backward(self, entry: LayerTrace, grad_out: Array) -> tuple[Array, None]:
        return grad_out.reshape(entry.input.shape), None


@dataclass
class ForwardTrace:
    """Everything the gradient and relevance passes need to replay a forward pass."""
    entries: list[LayerTrace]


class Network:
    """An ordered stack of layers with static shape checking.

    Shapes are chained once at construction; a mismatch raises
    :class:`ContractError` naming the offending layer.  Parameters only
    change through :func:`sgd_step`.
    """

    def __init__(self, input_shape: tuple[int, ...], layers: list[Layer]):
        self.input_shape = tuple(int(d) for d in input_shape)
        self.layers = list(layers)
        shapes = [self.input_shape]
        for i, layer in enumerate(self.layers):
            try:
                shapes.append(layer.out_shape(shapes[-1]))
            except ContractError as err:
                raise ContractError(f"layer {i} ({layer.kind}): {err}") from None
        self.shapes = shapes

    @property
    def output_shape(self) -> tuple[int, ...]:
        return self.shapes[-1]

    def forward(self, x: Array) -> Array:
        """Output rows ``(B, *output_shape)`` for input rows ``(B, *input_shape)``."""
        return self._run(x, record=False)[0]

    def forward_recorded(self, x: Array) -> tuple[Array, ForwardTrace]:
        return self._run(x, record=True)

    def _run(self, x: Array, record: bool, cols: Array | None = None
             ) -> tuple[Array, ForwardTrace | None]:
        """The pass behind :meth:`forward` and :meth:`forward_recorded`.

        ``cols``, when given, must be the first layer's ``unroll(x)``
        (see :meth:`Conv2d.forward`); the relation head builds a pair's
        columns from the unrolls of its two halves.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1:] != self.input_shape or x.ndim != len(self.input_shape) + 1:
            raise ContractError(f"input shape {x.shape} does not match network input "
                                f"(B, {', '.join(map(str, self.input_shape))})")
        entries: list[LayerTrace] = []
        for i, layer in enumerate(self.layers):
            kept = {} if record else None
            if i == 0 and cols is not None:
                kept = {"cols": cols}
            y = layer.forward(x, kept)
            if record:
                entries.append(LayerTrace(x, y, kept))
            x = y
        if not np.isfinite(x).all():
            raise NumericError("network forward produced non-finite values")
        return x, (ForwardTrace(entries) if record else None)

    def backward_grad(self, trace: ForwardTrace, grad_out: Array, input_grad: bool = True
                      ) -> tuple[Array | None, list[dict[str, Array] | None]]:
        """Propagate an output cotangent back through a recorded pass.

        ``grad_out`` has the traced output's rows.  Returns the input
        gradient, shaped like the traced input, and one parameter-gradient
        dict per layer (``None`` where the layer has no parameters),
        summed over the rows.  With ``input_grad=False`` the pass stops at
        the lowest parameterized layer, skips that layer's input
        pull-back, and returns ``None`` for the input gradient.  A weight
        gradient may still be a pending ``Future``; :func:`joined` waits for it.
        """
        g = np.asarray(grad_out, dtype=np.float64)
        expected = trace.entries[-1].output.shape
        if g.shape != expected:
            raise ContractError(f"grad_out shape {g.shape} does not match traced output {expected}")
        n = len(self.layers)
        param_grads: list[dict[str, Array] | None] = [None] * n
        stop = 0 if input_grad else min((i for i, _ in self.param_layers()), default=n)
        for i in reversed(range(stop, n)):
            layer, entry = self.layers[i], trace.entries[i]
            if i == stop and not input_grad:
                _, param_grads[i] = layer.backward(entry, g, input_grad=False)
            else:
                g, param_grads[i] = layer.backward(entry, g)
        if not input_grad:
            return None, param_grads
        if not np.isfinite(g).all():
            raise NumericError("backward pass produced non-finite input gradient")
        return g, param_grads

    def param_layers(self) -> list[tuple[int, Layer]]:
        return [(i, layer) for i, layer in enumerate(self.layers) if layer.params()]


def sgd_step(net: Network, param_grads: list[dict[str, Array] | None],
             lr: float, momentum: float) -> None:
    """In-place momentum SGD: ``v <- momentum*v + g``, ``p <- p - lr*v``.

    Momentum buffers live on the layers and persist across calls.  A
    pending gradient is waited for first.  A non-finite gradient aborts
    before any parameter is touched.
    """
    if len(param_grads) != len(net.layers):
        raise ContractError(
            f"expected {len(net.layers)} gradient entries, got {len(param_grads)}")
    param_grads = joined(param_grads)
    for i, (layer, grads) in enumerate(zip(net.layers, param_grads)):
        if not layer.params():
            continue
        if grads is None:
            raise ContractError(f"layer {i} ({layer.kind}): missing parameter gradients")
        for name in layer.params():
            g = grads[name]
            if not np.isfinite(g).all():
                raise NumericError(
                    f"non-finite gradient for layer {i} ({layer.kind}) parameter '{name}'")
    for layer, grads in zip(net.layers, param_grads):
        if not layer.params():
            continue
        for name, arr in layer.params().items():
            buf = layer.velocity.get(name)
            if buf is None:
                buf = np.zeros_like(arr)
                layer.velocity[name] = buf
            buf *= momentum
            buf += grads[name]
            arr -= lr * buf

