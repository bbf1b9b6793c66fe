"""Dense tensor kernels: convolution, fully-connected, pooling, normalization.

All kernels are pure functions over numpy arrays with 32-bit float semantics
(inputs of higher precision are processed as-is, which the gradient-check
tests rely on).  Backward passes are hand-derived here so the training module
can assemble backpropagation-through-time without any autodiff machinery.

Shapes are NCHW (images) and NF (features); memory is channels-last.  Every
4-d array the network passes between layers is an (N, C, H, W) view of an
(N, H, W, C) buffer, because a convolution's output rows are its GEMM rows
``y.reshape(n, ho, wo, c_out).transpose(0, 3, 1, 2)``.  The kernels read any
strides, but are fast on that one:

- convolution unfolds windows in (kh, kw, C) column order, so each row of the
  unfolded matrix is kh runs of kw*C contiguous values (a single-channel
  input, the network's raw images, is unfolded plane by plane into the
  transpose of a K-major matrix instead); `_weight_matrix` orders the
  weights' columns the same way, for free on (C_out, kh, kw, C_in) memory
  (the inference plan's); gradients keep the weights' shape, C order;
- `conv2d`, the weight gradient and the stride-1 input gradient (a `conv2d`
  call) never hold a whole batch's unfolded matrix: they unfold and multiply
  blocks of batch samples of about BLOCK_BYTES each, each block copied into
  a zero-bordered scratch of its worker first.  A block is still in cache
  when its GEMM reads it, and the GEMMs stay small enough that BLAS
  threading does not dominate (on a 2-core Xeon guest the stem's
  (100352x9)@(9x12) GEMM over 128 samples mostly took ~24 ms on 2 OpenBLAS
  threads, ~1.2 ms on one, and ~0.6 ms in blocks).  Training tapes
  therefore keep each conv's input, not its unfolded matrix;
- `conv2d`, `conv2d_backward`'s input gradient and `avg_pool2d_backward`
  return channels-last views; `avg_pool2d`, `batch_norm`,
  `batch_norm_train_cached` and `batch_norm_backward` return arrays in the
  memory order of their input.  The kernels a training step calls write
  into an ``out`` array instead when given one, which is how the tape path
  draws them from its `network.Workspace`;
- `conv2d` and `avg_pool2d` have one body: they run the blocks of buffers
  from `conv_buffers` / `pool_buffers`, which a call builds for itself
  unless an inference step passes the ones it built once (with ``out``
  arrays to `batch_norm` and `fully_connected`, so a step allocates
  nothing); a training tape's convolutions build theirs on the scratch its
  workspace planned (``take``);
- a pool, in either engine, sums bool spikes (a strict LIF layer's before a
  pool, on the tape as in a step) as bytes and other integer inputs
  exactly, then divides in the output's float dtype, so its result is that
  of pooling the same values as floats, bit for bit.  A pool before a
  convolution stops at the sums (`avg_pool2d` with ``sums``), bytes for
  spikes, a quarter of float32 means: the convolution's blocks divide them
  by the pool's own division into their bordered buffers (``pooled``), so
  the unfolded floats, and the convolution and its weight gradient, are
  those of the means bit for bit;
- per-channel sums in the norm kernels use einsum, which reduces
  channels-last memory without looping over the short channel axis; their
  elementwise passes run against the per-channel vectors copied over one
  sample (`_per_sample`), in long contiguous loops.

This module owns the engine's threads.  `run_blocks` is the one fork-join:
it runs the blocks of a kernel, or the tiles of `network.scan_timesteps`, on
the caller's thread plus helpers from one kept thread pool, one worker per
usable core, with the loaded OpenBLAS held at one thread (`one_blas_thread`:
OpenBLAS serializes concurrent threaded GEMMs).  The row-independent
kernels -- `conv2d`, the weight gradient of `conv2d_backward`, `avg_pool2d`,
`avg_pool2d_backward`, the elementwise passes of the train-mode norms, and
`network.lif_unroll` / `training.lif_unroll_backward` -- split the batch
into blocks of about BLOCK_BYTES (the convolution's and the pool's in
their buffers, the norm backward's and the LIF backward's, each worker on
a scratch of its own; the others' `run_row_blocks`) and write every block
into the one output array.  Blocks keep each reduction's order (the weight gradient adds its
block products in block order), so a result does not depend on the worker
count.  A convolution's blocks are sized by the itemsize of the values it
reads (a pool's means for handed-over sums), the norm backward's xhat *
slope is each worker's scratch (`norm_scratch`), and the first LIF layer's
backward blocks spread the gradient of the pool after it themselves
(`_spread_pooled`, `avg_pool2d_backward`'s body).
"""

import ctypes
import functools
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ShapeError, bounded, check_bounds


@dataclass(frozen=True)
class ConvParams:
    """Geometry of a 2-d convolution (square stride, symmetric zero padding)."""

    in_channels: int = bounded(ge=1)
    out_channels: int = bounded(ge=1)
    kernel_h: int = bounded(ge=1)
    kernel_w: int = bounded(ge=1)
    stride: int = bounded(1, ge=1)
    padding: int = bounded(0, ge=0)

    def __post_init__(self):
        check_bounds(self, ShapeError)

    def output_hw(self, h, w):
        ho = (h + 2 * self.padding - self.kernel_h) // self.stride + 1
        wo = (w + 2 * self.padding - self.kernel_w) // self.stride + 1
        if ho < 1 or wo < 1:
            raise ShapeError(
                f"conv output size {ho}x{wo} < 1 for input {h}x{w}, "
                f"kernel {self.kernel_h}x{self.kernel_w}, stride {self.stride}, "
                f"padding {self.padding}"
            )
        return ho, wo


def _weight_matrix(weights):
    """Weights (C_out,C_in,kh,kw) as a (C_out, kh*kw*C_in) matrix in the
    column order of the unfolded input."""
    return weights.transpose(0, 2, 3, 1).reshape(weights.shape[0], -1)


# Bytes per block of a kernel's rows (of unfolded input for a convolution):
# about half an L2 cache.
BLOCK_BYTES = 1 << 20


def block_rows(row_bytes):
    """Rows of ``row_bytes`` each in a block of about BLOCK_BYTES, at least 1."""
    return max(1, BLOCK_BYTES // max(1, row_bytes))


def run_row_blocks(n, row_bytes, fn):
    """Call fn(rows) for the consecutive slices ``rows`` of range(n) of
    `block_rows` rows each (one empty slice when n is 0), as the blocks of
    one `run_blocks` call.

    `network.lif_unroll` tests `block_rows` first and runs a batch that
    fits in one block directly.
    """
    step = block_rows(row_bytes)
    run_blocks(max(1, -(-n // step)), lambda i, _: fn(slice(i * step, min(i * step + step, n))))


def _block_workers(count):
    """The indices of the workers a `run_blocks` call of ``count`` blocks
    made on this thread may use, at least one: a kernel's buffers hold a
    scratch for each."""
    return range(1 if getattr(_worker, "busy", 0) else max(1, min(count, _scan_workers())))


def _run_on_scratch(count, fn, scratch, more):
    """`run_blocks` of fn over ``count`` blocks (one runs here directly), each
    worker on one of ``scratch`` or, past those, a new ``more()``."""
    if count == 1:
        return fn(0, scratch[0])
    spare = list(scratch[1:])
    run_blocks(count, fn, scratch[0], lambda: spare.pop(0) if spare else more())


def _new_array(role, shape, dtype):
    """The ``take`` of buffers built for one call: a new array."""
    return np.empty(shape, dtype)


def _channels_last(x):
    """x (N,C,H,W) as a view of (N,H,W,C) memory, copied unless it is one."""
    mem = x.transpose(0, 2, 3, 1)
    return x if mem.flags.c_contiguous else np.ascontiguousarray(mem).transpose(0, 3, 1, 2)


def _check_out(out, shape, dtype):
    """``out`` when it has this shape and dtype; ShapeError otherwise."""
    if out.shape != tuple(shape) or out.dtype != dtype:
        raise ShapeError(
            f"out array has shape {out.shape} and dtype {out.dtype}, "
            f"expected {tuple(shape)} and {np.dtype(dtype)}"
        )
    return out


def _channels_last_mem(out, shape, dtype):
    """The (N,H,W,C) memory under ``out``, an (N,C,H,W) view of it of this
    shape and dtype; ShapeError for any other array."""
    mem = _check_out(out, shape, dtype).transpose(0, 2, 3, 1)
    if not mem.flags.c_contiguous:
        raise ShapeError("out array must be an (N,C,H,W) view of (N,H,W,C) memory")
    return mem


class ConvBuffers(NamedTuple):
    """The blocks of `conv2d` on one input array, from `conv_buffers`."""

    x: np.ndarray        # the (N,C,H,W) input the blocks read
    blocks: tuple        # per block of samples: (its samples of x, its rows of out)
    scratch: tuple       # per worker, per block size: (its bordered buffer's interior,
                         # their windows, the unfold scratch, that scratch as the matrix)
    more: object         # builds the scratch of one more worker, on new arrays
    out: np.ndarray      # (N,C_out,Ho,Wo) view of (N,Ho,Wo,C_out) memory
    load: object         # load(interior, samples): a block's samples into its bordered buffer


def conv_scratch(n, in_shape, params, in_itemsize):
    """{(role, k): shape} of the scratch `conv_buffers` takes, in its dtype,
    for a convolution over n samples of ``in_shape`` (C, H, W) that it reads
    as values of ``in_itemsize`` bytes (a pool's means for handed-over window
    sums): ("x", k), the zero-bordered buffer of one block of `block_rows`
    samples, and ("cols", k), that block unfolded, for each worker k its
    blocks may use."""
    c, h, w = in_shape
    ho, wo = params.output_hw(h, w)
    row = ho * wo * params.kernel_h * params.kernel_w * c
    step = block_rows(row * in_itemsize)
    pad, m = params.padding, min(n, step)
    shapes = (("x", (m, h + 2 * pad, w + 2 * pad, c)), ("cols", (m * row,)))
    return {(role, k): shape for k in _block_workers(-(-max(n, 1) // step))
            for role, shape in shapes}


def input_gradient_conv(params):
    """The geometry of the convolution of the output gradient with the
    flipped kernel by which `conv2d_backward` computes the input gradient,
    or None where it scatters column gradients instead (a stride above 1, a
    non-square kernel, or a padding of the kernel size or more)."""
    kh, kw = params.kernel_h, params.kernel_w
    if params.stride != 1 or kh != kw or params.padding >= kh:
        return None
    return ConvParams(in_channels=params.out_channels, out_channels=params.in_channels,
                      kernel_h=kh, kernel_w=kw, stride=1, padding=kh - 1 - params.padding)


def _pooled_dtype(x, pooled):
    """The dtype of the values a convolution reads from x: x's own, or, for
    window sums handed over by a pool (``pooled``, (window, dtype)), that of
    the pool's means."""
    return x.dtype if pooled is None else np.dtype(pooled[1])


def _load_means(divisor, dtype, interior, sums):
    """A pool's means of its window ``sums`` into ``interior``: the pool's
    own division, in its means' ``dtype``."""
    np.divide(sums, divisor, out=interior, dtype=dtype)


def conv_buffers(x, params, dtype, out, take, pooled=None):
    """Build the blocks of `conv2d` on x into ``out`` once.

    Blocks are `block_rows` samples of unfolded input at the itemsize of
    the values read (x's, or with ``pooled`` the means'), each with its
    rows of ``out``, an (N,C_out,Ho,Wo) view of (N,Ho,Wo,C_out) memory (the
    weight gradient passes the output gradient).  With ``pooled``, a pair
    (window, dtype), x holds the window sums of a pool before the
    convolution (`avg_pool2d` with ``sums``): a block divides its samples
    by window**2 in the means' dtype into its bordered buffer, the pool's
    means bit for bit, where it would copy them.  Each worker
    `run_blocks` may use gets ``dtype`` scratch from ``take(role, shape,
    dtype)`` (`conv_scratch`): ("x", k), a channels-last buffer of one block
    whose border is zeroed here, and ("cols", k), an unfold scratch of one
    block.  A single channel (the raw images) unfolds plane by plane into a
    K-major matrix, read transposed; several channels into a C-order matrix
    whatever x's memory order: OpenBLAS rounds a GEMM that reads a long (K
    of 36 and more in float32) matrix transposed differently.
    """
    n, c, h, w = x.shape
    kh, kw, stride, pad = params.kernel_h, params.kernel_w, params.stride, params.padding
    ho, wo = params.output_hw(h, w)
    k = kh * kw * c
    itemsize = _pooled_dtype(x, pooled).itemsize
    step = block_rows(ho * wo * k * itemsize)
    rows = _channels_last_mem(out, (n, out.shape[1], ho, wo), out.dtype).reshape(-1, out.shape[1])
    blocks = tuple((x[a : a + step], rows[a * ho * wo : (a + step) * ho * wo])
                   for a in range(0, max(n, 1), step))
    shapes = conv_scratch(n, (c, h, w), params, itemsize)

    def scratch(take, worker):
        mem = take(("x", worker), shapes[("x", 0)], dtype)
        mem[...] = 0
        cols = take(("cols", worker), shapes[("cols", 0)], dtype)
        xp = mem.transpose(0, 3, 1, 2)
        sn, sc, sh, sw = xp.strides
        views = {}
        for m in {len(samples) for samples, _ in blocks}:
            if c == 1:
                shape, strides = (kh, kw, c, m, ho, wo), (sh, sw, sc, sn, sh * stride, sw * stride)
            else:
                shape, strides = (m, ho, wo, kh, kw, c), (sn, sh * stride, sw * stride, sh, sw, sc)
            block = cols[: m * ho * wo * k].reshape(shape)
            matrix = block.reshape(k, m * ho * wo).T if c == 1 else block.reshape(m * ho * wo, k)
            views[m] = (xp[:m, :, pad : pad + h, pad : pad + w],
                        as_strided(xp[:m], shape, strides, writeable=False), block, matrix)
        return views

    load = np.copyto if pooled is None else \
        functools.partial(_load_means, pooled[0] * pooled[0], pooled[1])
    return ConvBuffers(x, blocks, tuple(scratch(take, k) for role, k in shapes if role == "x"),
                       functools.partial(scratch, _new_array, 0), out, load)


def _unfold_block(x, scratch, load=np.copyto):
    """The unfolded matrix of the samples x in a worker's ``scratch`` (from
    `conv_buffers`): x loaded into its bordered buffer (``load``, the
    buffers'), their windows copied into its unfold scratch."""
    interior, windows, cols, matrix = scratch[len(x)]
    load(interior, x)
    np.copyto(cols, windows)
    return matrix


def conv2d(x, weights, params, out=None, *, buffers=None, take=_new_array, pooled=None):
    """2-d cross-correlation of x (N,C,H,W) with weights (C_out,C_in,kh,kw).

    Equivalent to the direct sum-of-products over every window.  Runs on
    `run_blocks` the blocks of ``buffers``, from `conv_buffers` on x, or of
    buffers built for this call into ``out`` (an (N,C_out,Ho,Wo) view of
    (N,Ho,Wo,C_out) memory, new when None) on the scratch of ``take`` (new
    arrays by default): each unfolds its samples in its worker's scratch
    (`_unfold_block`) and multiplies them into its rows of the result,
    ``buffers.out``.  With ``buffers`` it allocates nothing.  ``pooled``,
    (window, dtype), says that x holds a pool's window sums: the result is
    the convolution of the pool's means, bit for bit (`conv_buffers`).
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be 4-d (N,C,H,W), got shape {x.shape}")
    if weights.ndim != 4:
        raise ShapeError(f"conv2d weights must be 4-d, got shape {weights.shape}")
    cout, cin, kh, kw = weights.shape
    if (cout, cin, kh, kw) != (
        params.out_channels,
        params.in_channels,
        params.kernel_h,
        params.kernel_w,
    ):
        raise ShapeError(
            f"weight shape {weights.shape} does not match params "
            f"({params.out_channels},{params.in_channels},"
            f"{params.kernel_h},{params.kernel_w})"
        )
    if x.shape[1] != cin:
        raise ShapeError(
            f"input channel axis has size {x.shape[1]}, weights expect {cin}"
        )
    n = x.shape[0]
    ho, wo = params.output_hw(*x.shape[2:])
    wmat = _weight_matrix(weights).T
    if buffers is None:
        dtype = np.result_type(_pooled_dtype(x, pooled), wmat)
        if out is None:
            out = np.empty((n, ho, wo, cout), dtype=dtype).transpose(0, 3, 1, 2)
        buffers = conv_buffers(x, params, dtype, _check_out(out, (n, cout, ho, wo), dtype),
                               take, pooled)
    elif x is not buffers.x:
        raise ShapeError("conv2d buffers were built on another input array")
    blocks, load = buffers.blocks, buffers.load
    _run_on_scratch(len(blocks), lambda i, scratch: np.matmul(
        _unfold_block(blocks[i][0], scratch, load), wmat, out=blocks[i][1]),
        buffers.scratch, buffers.more)
    return buffers.out


def _col2im(dcols, x_shape, kh, kw, stride, padding):
    """Scatter-add (kh, kw, C)-ordered column gradients back onto the input.

    Returns an (N,C,H,W) view of an (N, H, W, C) buffer.
    """
    n, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    dxp = np.zeros((n, hp, wp, c), dtype=dcols.dtype)
    dcols = dcols.reshape(n, ho, wo, kh, kw, c)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i : i + ho * stride : stride, j : j + wo * stride : stride] += (
                dcols[:, :, :, i, j]
            )
    return dxp[:, padding : padding + h, padding : padding + w].transpose(0, 3, 1, 2)


def conv2d_backward(dy, x, weights, params, need_dx=True, out=None, *, take=_new_array,
                    pooled=None):
    """Gradients of conv2d w.r.t. input and weights.

    dy has the output shape (N,C_out,Ho,Wo).  dW runs on the blocks of
    `conv_buffers` on x (a pool's window sums with ``pooled``, as in
    `conv2d`), with dy (copied channels-last unless it is) as their output:
    each multiplies its rows of dy with its samples' unfolded matrix, and
    the products are summed in block order.  With ``need_dx=False`` the
    input gradient is not computed and returned as None.  ``out``, an
    (N,C,H,W) view of (N,H,W,C) memory, receives the input gradient.  Both
    convolutions take their scratch from ``take`` (as `conv2d`), the second
    after the first has let its scratch go.
    """
    cout, cin, kh, kw = weights.shape
    dy = _channels_last(dy)
    conv = conv_buffers(x, params, np.result_type(dy, _pooled_dtype(x, pooled)), dy, take,
                        pooled)
    parts = [None] * len(conv.blocks)

    def block(i, scratch):
        samples, dy_rows = conv.blocks[i]
        parts[i] = dy_rows.T @ _unfold_block(samples, scratch, conv.load)

    _run_on_scratch(len(parts), block, conv.scratch, conv.more)
    dw = np.ascontiguousarray(sum(parts).reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2))
    del conv  # its scratch goes before the input gradient's convolution takes its own
    if not need_dx:
        return None, dw
    back = input_gradient_conv(params)
    if back is not None:
        # Transposed convolution: correlate dy with the flipped kernel.  Its
        # padding kh-1-p must be >= 0 and the same on both axes.
        w_flip = weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        dx = conv2d(dy, w_flip, back, out=out, take=take)
    else:
        dcols = dy.transpose(0, 2, 3, 1).reshape(-1, cout) @ _weight_matrix(weights)
        dx = _col2im(dcols, x.shape, kh, kw, params.stride, params.padding)
        if out is not None:
            _check_out(out, x.shape, dx.dtype)[...] = dx
            dx = out
    return dx, dw


def fully_connected(x, weights, bias, *, out=None):
    """Affine map: x (N,F_in) @ weights (F_out,F_in)^T + bias (F_out), into
    ``out`` when it is given."""
    if x.ndim != 2:
        raise ShapeError(f"fully_connected input must be 2-d (N,F), got {x.shape}")
    if weights.ndim != 2 or x.shape[1] != weights.shape[1]:
        raise ShapeError(
            f"inner dimensions do not match: input F={x.shape[1]}, "
            f"weights expect F={weights.shape[1] if weights.ndim == 2 else weights.shape}"
        )
    if bias.shape != (weights.shape[0],):
        raise ShapeError(
            f"bias shape {bias.shape} does not match out features {weights.shape[0]}"
        )
    if out is None:
        return x @ weights.T + bias
    np.matmul(x, weights.T, out=out)
    out += bias
    return out


def fully_connected_backward(dy, x, weights):
    """Gradients of fully_connected w.r.t. input, weights, bias."""
    dx = dy @ weights
    dw = dy.T @ x
    db = dy.sum(axis=0)
    return dx, dw, db


def _window_sum_dtype(dtype, window):
    """The dtype a pool sums ``window``-by-``window`` windows of ``dtype``
    values in.

    bool (spikes) sums as bytes, in the smallest unsigned integer that holds
    window**2.  Another integer sums in an integer type that holds window**2
    times any of its values, which gives float64's sums while those are
    exact (below 2**53); past that, and for floats, the sums are in the
    result's float dtype.
    """
    n = window * window
    if dtype == bool:
        return np.min_scalar_type(n)
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        if n * max(info.max, -info.min) <= 2**53:
            return np.promote_types(np.min_scalar_type(n * info.min),
                                    np.min_scalar_type(n * info.max))
    return np.result_type(dtype, 1.0)


class PoolBuffers(NamedTuple):
    """The blocks of `avg_pool2d` on one input array, from `pool_buffers`."""

    x: np.ndarray        # the input array the calls below read
    scratch: tuple       # per worker, per block of samples: the numpy calls that
                         # sum its windows and divide, in order
    more: object         # builds the calls of one more worker, on new row sums
    sums: np.ndarray     # the window sums, one row per sample
    out: np.ndarray      # (N,C,H/window,W/window) window means, or, built without
                         # an out array, the window sums as a view of channels-last memory


def pool_scratch(n, in_shape, window, dtype, means=True):
    """{role: shape} of the scratch `pool_buffers` takes, in
    `_window_sum_dtype` of ``dtype``, for a pool over n samples of
    ``in_shape`` (C, H, W) of ``dtype`` that writes its ``means`` (else
    stops at its window sums): "sums", the window sums, but for a window of
    1 that writes means, and ("rows", k), the row sums of one block of
    about BLOCK_BYTES of input, for each worker k its blocks may use, but
    for a window of 1 or integer sums over the whole map."""
    c, h, w = in_shape
    step = block_rows(math.prod(in_shape) * np.dtype(dtype).itemsize)
    shapes = {} if window == 1 and means else {"sums": (n, h // window, w // window, c)}
    if window > 1 and not (_window_sum_dtype(np.dtype(dtype), window).kind in "iu" and
                           h == w == window):  # else summed whole
        shapes.update({("rows", k): (min(n, step) * (h // window), w * c)
                       for k in _block_workers(-(-max(n, 1) // step))})
    return shapes


def pool_buffers(x, window, out, take):
    """Build the blocks of `avg_pool2d` on this x, an (N,C,H,W) view of
    (N,H,W,C) memory, into ``out`` once.

    A block of about BLOCK_BYTES of x adds the window's rows, then its
    columns, on views in x's memory order (rows of W*C values, then of C)
    into row sums, ``take(("rows", k), shape, dtype)`` of its worker k, and
    its rows of the window sums, ``take("sums", shape, dtype)`` (x itself
    for a window of 1; `pool_scratch`), then divides them by window**2 into
    its samples of ``out``, in out's dtype.  With ``out`` None the blocks
    stop at the sums (a window of 1 copies x into them), which the buffers'
    ``out`` then is.  A bool x (spikes) is summed as bytes and another integer x
    exactly, in `_window_sum_dtype`; integer sums are exact in any order,
    so a window that covers the whole map is summed by one `np.add.reduce`.
    """
    n, c, h, w = x.shape
    ho, wo = h // window, w // window
    mem = x.transpose(0, 2, 3, 1)
    if not mem.flags.c_contiguous:
        raise ShapeError("pooled input must be an (N,C,H,W) view of (N,H,W,C) memory")
    dtype = _window_sum_dtype(x.dtype, window)
    shapes = pool_scratch(n, (c, h, w), window, x.dtype, out is not None)
    if x.dtype == bool:
        mem = mem.view(np.uint8)
    whole = ("rows", 0) not in shapes and window > 1
    sums = take("sums", shapes["sums"], dtype) if "sums" in shapes else mem
    step = block_rows(c * h * w * x.itemsize)
    blocks = [slice(a, a + step) for a in range(0, max(n, 1), step)]

    def block_calls(b, rows):
        src, total, calls = mem[b], sums[b], []
        m = len(src)

        def window_sum(src, total):
            """Add src (M, window, K) over its middle axis into total (M, K)."""
            calls.append(functools.partial(np.add, src[:, 0], src[:, 1], out=total, dtype=dtype))
            calls.extend(functools.partial(np.add, total, src[:, i], out=total, dtype=dtype)
                         for i in range(2, window))
            return total

        if whole:
            calls.append(functools.partial(np.add.reduce, src.reshape(m, h * w, c), axis=1,
                                           dtype=dtype, out=total.reshape(m, c)))
        elif window > 1:
            row_sums = window_sum(src.reshape(m * ho, window, w * c), rows[: m * ho])
            window_sum(row_sums.reshape(m * ho * wo, window, c), total.reshape(-1, c))
        elif out is None:
            calls.append(functools.partial(np.copyto, total, src))
        if out is not None:
            calls.append(functools.partial(np.divide, total.transpose(0, 3, 1, 2),
                                           window * window, out=out[b], dtype=out.dtype))
        return tuple(calls)

    def worker(take, k):
        rows = take(("rows", k), shapes[("rows", 0)], dtype) if ("rows", 0) in shapes else None
        return tuple(block_calls(b, rows) for b in blocks)

    return PoolBuffers(x, tuple(worker(take, k) for k in _block_workers(len(blocks))),
                       functools.partial(worker, _new_array, 0),
                       sums.reshape(n, ho * wo * c),
                       sums.transpose(0, 3, 1, 2) if out is None else out)


def _run_calls(i, calls):
    """Run block i of a worker's `pool_buffers` calls."""
    for call in calls[i]:
        call()


def avg_pool2d(x, window, out=None, *, buffers=None, sums=False):
    """Non-overlapping mean pooling; H and W must be divisible by window.

    Runs on `run_blocks` the blocks of ``buffers``, from `pool_buffers` on
    x, or of buffers built for this call on x (copied channels-last unless
    it is) into ``out`` (new when None, in x's memory order); the result is
    ``buffers.out``, that of pooling ``x.astype(np.result_type(x, 1.0))``
    bit for bit.  A bool x may pool into an ``out`` of any float dtype, as
    its values in that dtype would.  With ``sums`` the result is the
    window sums instead, in `_window_sum_dtype` (bytes for bool spikes),
    an (N,C,H/window,W/window) view of channels-last memory, ``out`` when
    it is given: what a convolution after the pool reads (`conv2d` with
    ``pooled``).  With ``buffers`` the call allocates nothing.
    """
    if x.ndim != 4:
        raise ShapeError(f"avg_pool2d input must be 4-d, got shape {x.shape}")
    h, w = x.shape[2:]
    if window < 1 or h % window or w % window:
        raise ShapeError(
            f"spatial size {h}x{w} not divisible by pooling window {window}"
        )
    if buffers is None and sums:
        n, c = x.shape[:2]
        shape, dtype = (n, c, h // window, w // window), _window_sum_dtype(x.dtype, window)
        mem = np.empty((n, h // window, w // window, c), dtype) if out is None else \
            _channels_last_mem(out, shape, dtype)
        buffers = pool_buffers(_channels_last(x), window, None,
                               lambda role, shape, dt: mem if role == "sums" else
                               np.empty(shape, dt))
        if out is not None:
            buffers = buffers._replace(out=out)
    elif buffers is None:
        corner, dtype = x[:, :, ::window, ::window], np.result_type(x, 1.0)
        if x.dtype == bool and out is not None and out.dtype.kind == "f":
            dtype = out.dtype
        out = np.empty_like(corner, dtype=dtype) if out is None else \
            _check_out(out, corner.shape, dtype)
        buffers = pool_buffers(_channels_last(x), window, out, _new_array)
    elif x is not buffers.x:
        raise ShapeError("avg_pool2d buffers were built on another input array")
    _run_on_scratch(len(buffers.scratch[0]), _run_calls, buffers.scratch, buffers.more)
    return buffers.out


def avg_pool2d_backward(dy, window, out=None):
    """Spread each pooled gradient uniformly over its window.

    Returns an (N,C,H,W) view of an (N, H, W, C) buffer, ``out`` when it is
    given, filled in blocks of samples of about BLOCK_BYTES.
    """
    n, c, ho, wo = dy.shape
    shape, dtype = (n, c, ho * window, wo * window), np.result_type(dy, 1.0)
    if out is None:
        out = np.empty((n, ho * window, wo * window, c), dtype=dtype).transpose(0, 3, 1, 2)
    dx = _channels_last_mem(out, shape, dtype).reshape(n, ho, window, wo, window, c)
    run_row_blocks(n, dx.nbytes // max(1, n),
                   lambda samples: _spread_pooled(dy[samples], window, dx[samples]))
    return out


def _spread_pooled(dy, window, dx):
    """Each pooled gradient of dy (..., C, Ho, Wo) divided by window**2 into
    every position of its window in dx, the (..., Ho, window, Wo, window, C)
    view of channels-last memory: `avg_pool2d_backward`'s blocks, and the
    first LIF layer's backward blocks when a pool follows it
    (`training.lif_unroll_backward`)."""
    g = np.moveaxis(dy / float(window * window), -3, -1)
    dx[...] = g[..., :, None, :, None, :]


# Batch normalization constants: the weight of the batch statistics in the
# running blend, and the variance offset under the square root.
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


def norm_params(num_features, dtype=np.float32):
    """Parameters of a fresh normalization layer: unit scale, zero shift and
    the running statistics of a standard normal."""
    return {
        "gamma": np.ones(num_features, dtype=dtype),
        "beta": np.zeros(num_features, dtype=dtype),
        "running_mean": np.zeros(num_features, dtype=dtype),
        "running_var": np.ones(num_features, dtype=dtype),
    }


def _per_sample(vector, x):
    """A (1, C, ...) per-channel vector copied into one array of the shape
    and memory order of one sample of x: an elementwise pass against it
    over whole samples runs in long contiguous loops (for channels-last x,
    broadcasting the vector gives inner loops of C elements, about 3x
    slower at 12 channels)."""
    full = np.empty_like(x[0], dtype=vector.dtype)
    np.copyto(full, vector[0])
    return full


def _in_order(mem, shape, like):
    """The first elements of the flat array mem as an array of ``shape`` in
    the memory order of ``np.empty_like(like)`` (like has as many axes)."""
    probe = np.empty_like(like, dtype=np.uint8, shape=(2,) * like.ndim)
    order = np.argsort(probe.strides)[::-1]
    return mem[: math.prod(shape)].reshape([shape[a] for a in order]).transpose(np.argsort(order))


def _channel_view(x, num_features):
    """Shape that broadcasts a per-channel vector against x (2-d or 4-d)."""
    if x.ndim not in (2, 4):
        raise ShapeError(f"batch_norm input must be 2-d or 4-d, got shape {x.shape}")
    if x.shape[1] != num_features:
        axis = "channel" if x.ndim == 4 else "feature"
        raise ShapeError(
            f"{axis} axis has size {x.shape[1]}, norm layer expects {num_features}"
        )
    return (1, num_features) + (1,) * (x.ndim - 2)


def batch_norm(x, params, *, out=None):
    """Per-channel normalization by the stored running statistics, into
    ``out`` when it is given."""
    view = _channel_view(x, params["gamma"].shape[0])
    invstd = 1.0 / np.sqrt(params["running_var"] + BN_EPS)
    y = np.subtract(x, params["running_mean"].reshape(view), out=out)
    y *= invstd.reshape(view)
    y *= params["gamma"].reshape(view)
    y += params["beta"].reshape(view)
    return y


def batch_norm_train_cached(x, params, repeats=1, out=None):
    """Per-channel normalization by the statistics of this batch (biased
    variance).

    Returns (y, new_params, cache).  new_params is a new dict whose running
    statistics are the blend new = (1 - m) * old + m * batch, with
    m = BN_MOMENTUM and the unbiased batch variance; the cache feeds
    `batch_norm_backward`.  ``repeats`` treats x as standing for that many
    identical copies stacked along the batch axis: the batch statistics are
    those of x itself, and the unbiased factor count/(count-1) uses the
    stacked count.

    The statistics are einsum reductions over x and over x centred once, in
    x's memory order; the centred array is then scaled in place into xhat.
    The elementwise passes run in blocks of samples (`run_row_blocks`), the
    reductions over the whole batch, and they run against the per-channel
    vectors copied over one sample (`_per_sample`).  ``out``, a pair (xhat,
    y), receives the two arrays; either may be x itself, whose every
    element is read before it is written.
    """
    nf = params["gamma"].shape[0]
    view = _channel_view(x, nf)
    idx = "nchw"[: x.ndim]
    per_channel = x.size // nf
    mean = np.einsum(f"{idx}->c", x) / per_channel
    dtype = np.result_type(x, mean)
    xhat = np.empty_like(x, dtype=dtype) if out is None else _check_out(out[0], x.shape, dtype)
    centre = _per_sample(mean.reshape(view), xhat)
    run_row_blocks(len(x), xhat.nbytes // max(1, len(x)),
                   lambda rows: np.subtract(x[rows], centre, out=xhat[rows]))
    var = np.einsum(f"{idx},{idx}->c", xhat, xhat) / per_channel
    invstd = 1.0 / np.sqrt(var + BN_EPS)
    dtype = np.result_type(xhat, invstd, params["gamma"])
    y = np.empty_like(xhat, dtype=dtype) if out is None else _check_out(out[1], x.shape, dtype)
    invstd_s, gamma, beta = (_per_sample(v.reshape(view), xhat)
                             for v in (invstd, params["gamma"], params["beta"]))

    def scale(rows):
        xb, yb = xhat[rows], y[rows]
        xb *= invstd_s
        np.multiply(xb, gamma, out=yb)
        yb += beta

    run_row_blocks(len(x), y.nbytes // max(1, len(x)), scale)
    m = BN_MOMENTUM
    count = repeats * per_channel
    var_unbiased = var * (count / max(count - 1, 1))
    running_mean, running_var = params["running_mean"], params["running_var"]
    new_params = dict(
        params,
        running_mean=((1.0 - m) * running_mean + m * mean).astype(running_mean.dtype),
        running_var=((1.0 - m) * running_var + m * var_unbiased).astype(running_var.dtype),
    )
    return y, new_params, (xhat, invstd, params["gamma"], view)


def norm_scratch(n, sample_shape, row_itemsize):
    """{(role, k): shape} of the scratch `batch_norm_backward` takes over n
    samples of ``sample_shape`` whose input gradient has ``row_itemsize``
    bytes a sample: ("term", k), the flat xhat * slope of one block of
    `block_rows` samples, for each worker k its blocks may use."""
    step = block_rows(row_itemsize)
    return {("term", k): (min(n, step) * math.prod(sample_shape),)
            for k in _block_workers(-(-max(n, 1) // step))}


def batch_norm_backward(dy, cache, out=None, *, take=_new_array):
    """Gradient of training-mode batch_norm w.r.t. input, gamma, beta.

    With m values per channel, dxhat = gamma * dy has the channel means
    gamma * dbeta / m and mean(dxhat * xhat) = gamma * dgamma / m, so the two
    einsum reductions are the only passes that sum over the batch; the
    elementwise passes run in blocks of samples, against the per-channel
    vectors copied over one sample (`_per_sample`), each worker's
    xhat * slope in its scratch, ``take(role, shape, dtype)`` (new arrays
    by default; `norm_scratch` gives the shapes).  ``out`` receives the
    input gradient; it may be dy itself.
    """
    xhat, invstd, gamma, view = cache
    idx = "nchw"[: dy.ndim]
    m = dy.size // gamma.shape[0]
    dbeta = np.einsum(f"{idx}->c", dy)
    dgamma = np.einsum(f"{idx},{idx}->c", dy, xhat)
    slope, shift = (dgamma / m).reshape(view), (dbeta / m).reshape(view)
    scale = (gamma * invstd).reshape(view)
    dtype = np.result_type(dy, xhat, slope, shift, scale)
    dx = np.empty_like(dy, dtype=dtype) if out is None else _check_out(out, dy.shape, dtype)
    slope, shift, scale = (_per_sample(v, xhat) for v in (slope, shift, scale))
    n, row_bytes = len(dy), dx.nbytes // max(1, len(dy))
    step = block_rows(row_bytes)
    shapes = norm_scratch(n, dy.shape[1:], row_bytes)
    term_dtype = np.result_type(xhat, slope)
    scratch = [take(role, shape, term_dtype) for role, shape in shapes.items()]

    def block(i, mem):
        rows = slice(i * step, min(i * step + step, n))
        xb, dxb = xhat[rows], dx[rows]
        term = _in_order(mem, xb.shape, xb)
        np.multiply(xb, slope, out=term)
        np.subtract(dy[rows], term, out=dxb)
        dxb -= shift
        dxb *= scale

    _run_on_scratch(max(1, -(-n // step)), block, scratch,
                    lambda: np.empty(scratch[0].shape, term_dtype))
    return dx, dgamma, dbeta


@functools.cache
def _openblas():
    """(get, set) thread-count functions of the OpenBLAS loaded in this
    process, found through /proc/self/maps, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({fields[5] for fields in map(str.split, fh)
                            if len(fields) == 6 and "openblas" in fields[5].rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                try:
                    get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                    set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
                except AttributeError:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None where none was found."""
    found = _openblas()
    return None if found is None else found[0]()


_hold_lock = threading.Lock()
_hold = {"holders": 0, "saved": None}


@contextmanager
def one_blas_thread():
    """Hold the loaded OpenBLAS at one thread inside the block.

    Yields True, or False without holding anything where no OpenBLAS was
    found.  Blocks may nest or overlap across threads: the count found on
    entering the first is restored when the last one leaves.
    """
    found = _openblas()
    if found is None:
        yield False
        return
    get, set_ = found
    with _hold_lock:
        if _hold["holders"] == 0:
            _hold["saved"] = get()
            set_(1)
        _hold["holders"] += 1
    try:
        yield True
    finally:
        with _hold_lock:
            _hold["holders"] -= 1
            if _hold["holders"] == 0:
                set_(_hold["saved"])


def _scan_workers():
    """Workers `run_blocks` may use where BLAS can be held at one thread: one
    per usable core."""
    return len(os.sched_getaffinity(0))


@functools.cache
def _helper_pool():
    """The helper threads of `run_blocks`, created on first use and kept."""
    return ThreadPoolExecutor(len(os.sched_getaffinity(0)), thread_name_prefix="dtsnn")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_helper_pool.cache_clear)  # a child has no helpers

_worker = threading.local()  # .busy: this thread runs blocks of a run_blocks call, or
                             # is inside an inline_blocks context (a count of both)


class inline_blocks:
    """A reusable context: inside it, with ``inline``, every `run_blocks`
    call made on the thread runs its blocks inline, as a call made from
    inside a block does, with no hold; without, it changes nothing.
    Entering it allocates nothing."""

    def __init__(self, inline):
        self.inline = int(inline)

    def __enter__(self):
        _worker.busy = getattr(_worker, "busy", 0) + self.inline

    def __exit__(self, exc_type, exc, tb):
        _worker.busy -= self.inline


def run_blocks(count, fn, state=None, helper_state=None):
    """Call fn(i, s) once for every block index i in range(count).

    ``s`` is ``state`` on the caller's thread and ``helper_state()`` (default:
    ``state``) on each helper.  With more than one block the blocks run on
    one worker per usable core, never more workers than blocks: the caller's
    thread and helpers from one kept thread pool, each taking the next index
    from a shared counter until none is left, with BLAS held at one thread
    (one worker where it cannot be held).  One block, or a call made from
    inside a block or an `inline_blocks` context, runs inline on the
    calling thread, with no hold.  The
    first error of any block stops the other workers at their next block and
    is raised as it was raised.  fn must write its results by block index.
    """
    if count <= 1 or getattr(_worker, "busy", 0):
        for i in range(count):
            fn(i, state)
        return
    indices, errors = itertools.count(), []

    def work(s):
        _worker.busy = 1
        try:
            while not errors:
                i = next(indices)
                if i >= count:
                    break
                fn(i, s)
        except BaseException as exc:
            errors.append(exc)
        finally:
            _worker.busy = 0

    with one_blas_thread() as held:
        workers = min(_scan_workers() if held else 1, count)
        helpers = [_helper_pool().submit(work, state if helper_state is None else helper_state())
                   for _ in range(workers - 1)]
        try:
            work(state)
        finally:
            for helper in helpers:
                helper.cancel()  # not started yet: the blocks are all taken
            wait(helpers)
    if errors:
        raise errors[0]
