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
  blocks of batch samples of about BLOCK_BYTES each.  A block is still in
  cache when its GEMM reads it, and the GEMMs stay small enough that BLAS
  threading does not dominate (on a 2-core Xeon guest the stem's
  (100352x9)@(9x12) GEMM over 128 samples mostly took ~24 ms on 2 OpenBLAS
  threads, ~1.2 ms on one, and ~0.6 ms in blocks).  A batch that fits in
  one block takes one unfold and one GEMM.  Training tapes therefore keep
  each conv's input, not its unfolded matrix;
- `conv2d`, `conv2d_backward`'s input gradient and `avg_pool2d_backward`
  return channels-last views; `avg_pool2d`, `batch_norm`,
  `batch_norm_train_cached` and `batch_norm_backward` return arrays in the
  memory order of their input.  The kernels a training step calls write
  into an ``out`` array instead when given one, which is how the tape path
  draws them from its `network.Workspace`.  An inference step passes
  ``buffers`` built once by `conv_buffers` / `pool_buffers` (and ``out``
  arrays to `batch_norm` and `fully_connected`), so it allocates nothing;
  those calls run on the caller's thread, and a pool sums bool spikes as
  bytes;
- per-channel sums in the norm kernels use einsum, which reduces
  channels-last memory without looping over the short channel axis.

This module owns the engine's threads.  `run_blocks` is the one fork-join:
it runs the blocks of a kernel, or the tiles of `network.scan_timesteps`, on
the caller's thread plus helpers from one kept thread pool, one worker per
usable core, with the loaded OpenBLAS held at one thread (`one_blas_thread`:
OpenBLAS serializes concurrent threaded GEMMs).  The row-independent
kernels -- `conv2d`, the weight gradient of `conv2d_backward`, `avg_pool2d`,
`avg_pool2d_backward`, the elementwise passes of the train-mode norms, and
`network.lif_unroll` / `training.lif_unroll_backward` -- split the batch
into blocks of about BLOCK_BYTES (`run_row_blocks`) and write every block
into the one output array.  Blocks keep each reduction's order (the weight
gradient adds its block products in block order), so a result does not
depend on the worker count.
"""

import ctypes
import functools
import itertools
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


def _im2col(x, kh, kw, stride, padding):
    """Unfold sliding windows of x (N,C,H,W) into rows (N*Ho*Wo, kh*kw*C).

    Columns are in (kh, kw, C) order.  With several channels x is copied
    once, channels-last, into a zero-padded (N, H+2p, W+2p, C) buffer and
    its windows into a C-order matrix, whose rows are kh runs of kw*C
    values.  A single channel (the network's raw images) is unfolded plane
    by plane (`planes`) instead: copied into a zero-padded (N, 1, H+2p,
    W+2p) buffer, whose windows fill a K-major (kh*kw, N*Ho*Wo) matrix in
    runs of Wo values; the result is that matrix's transpose, which a GEMM
    reads without a copy.  Without padding x's own strides are used.

    Several channels keep the C-order matrix whatever x's memory order:
    OpenBLAS rounds a GEMM that reads a long (K of 36 and more in float32)
    matrix transposed differently, and an NCHW input must give the bits of
    its channels-last copy.
    """
    return _unfold(x, kh, kw, stride, padding, x.shape[1] == 1)


def _unfold(x, kh, kw, stride, padding, planes):
    """`_im2col`, plane by plane or channels-last (any number of channels):
    the same matrix values either way."""
    n, c, h, w = x.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    mem = None
    if padding > 0:
        hp, wp = h + 2 * padding, w + 2 * padding
        mem = np.zeros((n, c, hp, wp) if planes else (n, hp, wp, c), dtype=x.dtype)
        xp = mem if planes else mem.transpose(0, 3, 1, 2)
        xp[:, :, padding : padding + h, padding : padding + w] = x
        x = xp
    sn, sc, sh, sw = x.strides
    if planes:
        shape, strides = (kh, kw, c, n, ho, wo), (sh, sw, sc, sn, sh * stride, sw * stride)
    else:
        shape, strides = (n, ho, wo, kh, kw, c), (sn, sh * stride, sw * stride, sh, sw, sc)
    # A view built on the buffer it owns costs a fraction of as_strided.
    windows = as_strided(x, shape, strides) if mem is None else \
        np.ndarray(shape, x.dtype, mem, 0, strides)
    cols = np.ascontiguousarray(windows)
    if planes:
        return cols.reshape(kh * kw * c, n * ho * wo).T, ho, wo
    return cols.reshape(n * ho * wo, kh * kw * c), ho, wo


def _weight_matrix(weights):
    """Weights (C_out,C_in,kh,kw) as a (C_out, kh*kw*C_in) matrix in the
    column order of `_im2col`."""
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


def _unfolded_row_bytes(x, params, ho, wo):
    """Bytes of one sample's unfolded input: the row size `conv2d` and the
    weight gradient split their batch by."""
    return ho * wo * params.kernel_h * params.kernel_w * x.shape[1] * x.itemsize


def _check_out(out, shape, dtype):
    """``out`` when it has this shape and dtype; ShapeError otherwise."""
    if out.shape != tuple(shape) or out.dtype != dtype:
        raise ShapeError(
            f"out array has shape {out.shape} and dtype {out.dtype}, "
            f"expected {tuple(shape)} and {np.dtype(dtype)}"
        )
    return out


def _channels_last_rows(out, shape, dtype):
    """The (N*H*W, C) matrix under ``out``, an (N,C,H,W) view of (N,H,W,C)
    memory of this shape and dtype; ShapeError for any other array."""
    rows = _check_out(out, shape, dtype).transpose(0, 2, 3, 1)
    if not rows.flags.c_contiguous:
        raise ShapeError("out array must be an (N,C,H,W) view of (N,H,W,C) memory")
    return rows.reshape(-1, shape[1])


class ConvBuffers(NamedTuple):
    """The arrays of `conv2d` on one input shape, from `conv_buffers`."""

    x: np.ndarray        # (N,C,H,W) input: the interior of a zero-bordered buffer
    padded: np.ndarray   # that buffer, one row per sample
    blocks: tuple        # per block of samples: (its windows, the scratch they are
                         # copied into, that scratch as the matrix, its output rows)
    out: np.ndarray      # (N,C_out,Ho,Wo) view of (N,Ho,Wo,C_out) memory
    rows: np.ndarray     # out's memory, one row per sample


def conv_buffers(x_shape, params, dtype, row_itemsize, take):
    """Build the arrays of `conv2d` on an x of ``x_shape`` once.

    The input is copied into a zero-bordered buffer laid out as `_unfold`
    lays it out (plane by plane for one channel, else channels-last), whose
    border is zeroed here.  Each block of samples -- the blocks of `conv2d`
    without buffers, `block_rows` of unfolded rows of ``row_itemsize``-byte
    values -- gets its window view of that buffer, its share of an unfold
    scratch of one block and its rows of the output.
    ``take(role, shape, dtype)`` returns an uninitialized C-order array for
    the roles "x" (the bordered buffer), "cols" (the scratch) and "y" (the
    output); the caller may hand several convolutions one scratch.
    """
    n, c, h, w = x_shape
    kh, kw, stride, pad = params.kernel_h, params.kernel_w, params.stride, params.padding
    ho, wo = params.output_hw(h, w)
    planes, k = c == 1, kh * kw * c
    mem = take("x", (n, c, h + 2 * pad, w + 2 * pad) if planes
               else (n, h + 2 * pad, w + 2 * pad, c), dtype)
    mem[...] = 0
    xp = mem if planes else mem.transpose(0, 3, 1, 2)
    interior = xp[:, :, pad : pad + h, pad : pad + w]
    step = block_rows(ho * wo * k * row_itemsize)
    cols = take("cols", (min(n, step) * ho * wo * k,), dtype)
    y = take("y", (n, ho, wo, params.out_channels), dtype)
    rows = y.reshape(-1, params.out_channels)
    sn, sc, sh, sw = xp.strides
    blocks = []
    for start in range(0, n, step):
        m = min(step, n - start)
        if planes:
            shape, strides = (kh, kw, c, m, ho, wo), (sh, sw, sc, sn, sh * stride, sw * stride)
        else:
            shape, strides = (m, ho, wo, kh, kw, c), (sn, sh * stride, sw * stride, sh, sw, sc)
        windows = as_strided(xp[start : start + m], shape, strides, writeable=False)
        block = cols[: m * ho * wo * k].reshape(shape)
        matrix = block.reshape(k, m * ho * wo).T if planes else block.reshape(m * ho * wo, k)
        blocks.append((windows, block, matrix, rows[start * ho * wo : (start + m) * ho * wo]))
    return ConvBuffers(interior, mem.reshape(n, -1), tuple(blocks), y.transpose(0, 3, 1, 2),
                       y.reshape(n, -1))


def conv2d(x, weights, params, out=None, *, buffers=None):
    """2-d cross-correlation of x (N,C,H,W) with weights (C_out,C_in,kh,kw).

    Equivalent to the direct sum-of-products over every window.  ``out``, an
    (N,C_out,Ho,Wo) view of (N,Ho,Wo,C_out) memory, receives the result.
    With ``buffers`` from `conv_buffers` on x's shape the call allocates
    nothing: x is copied into ``buffers.x`` unless it is that array, and the
    prebuilt blocks run one after another on the caller's thread (they share
    one scratch), each a copy of its windows into the scratch, which the
    block holds as its unfolded matrix, and a GEMM into its rows of
    ``buffers.out``, the result.
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
    if buffers is not None:
        if x is not buffers.x:
            np.copyto(buffers.x, x)
        for windows, cols, matrix, y in buffers.blocks:
            np.copyto(cols, windows)
            np.matmul(matrix, wmat, out=y)
        return buffers.out
    dtype = np.result_type(x, wmat)
    if out is None:
        out = np.empty((n, ho, wo, cout), dtype=dtype).transpose(0, 3, 1, 2)
    y = _channels_last_rows(out, (n, cout, ho, wo), dtype)

    def block(samples):
        cols, _, _ = _im2col(x[samples], kh, kw, params.stride, params.padding)
        np.matmul(cols, wmat, out=y[samples.start * ho * wo : samples.stop * ho * wo])

    run_row_blocks(n, _unfolded_row_bytes(x, params, ho, wo), block)
    return out


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


def conv2d_backward(dy, x, weights, params, need_dx=True, out=None):
    """Gradients of conv2d w.r.t. input and weights.

    dy has the output shape (N,C_out,Ho,Wo).  dW re-unfolds x block by block.
    With ``need_dx=False`` the input gradient is not computed and returned as
    None.  ``out``, an (N,C,H,W) view of (N,H,W,C) memory, receives the input
    gradient.
    """
    cout, cin, kh, kw = weights.shape
    ho, wo = dy.shape[2:]
    dy_mat = dy.transpose(0, 2, 3, 1).reshape(-1, cout)
    parts = {}  # block products by first sample, summed in block order

    def block(samples):
        cols, _, _ = _im2col(x[samples], kh, kw, params.stride, params.padding)
        parts[samples.start] = dy_mat[samples.start * ho * wo : samples.stop * ho * wo].T @ cols

    run_row_blocks(x.shape[0], _unfolded_row_bytes(x, params, ho, wo), block)
    dw = sum(parts[start] for start in sorted(parts))
    dw = np.ascontiguousarray(dw.reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2))
    if not need_dx:
        return None, dw
    if params.stride == 1 and kh == kw and params.padding < kh:
        # Transposed convolution: correlate dy with the flipped kernel.  Its
        # padding kh-1-p must be >= 0 and the same on both axes.
        w_flip = weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        back = ConvParams(
            in_channels=cout,
            out_channels=cin,
            kernel_h=kh,
            kernel_w=kw,
            stride=1,
            padding=kh - 1 - params.padding,
        )
        dx = conv2d(dy, w_flip, back, out=out)
    else:
        dcols = dy_mat @ _weight_matrix(weights)
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


def _pool_rows(x, window, out=None):
    """`avg_pool2d` of x, into ``out`` when it is given."""
    rows = x[:, :, 0::window].copy(order="K")
    for i in range(1, window):
        rows += x[:, :, i::window]
    y = rows[:, :, :, 0::window].copy(order="K")
    for j in range(1, window):
        y += rows[:, :, :, j::window]
    return np.divide(y, window * window, out=out)


class PoolBuffers(NamedTuple):
    """The arrays of `avg_pool2d` on one input array, from `pool_buffers`."""

    x: np.ndarray        # the input array the calls below read
    calls: tuple         # the numpy calls that sum the windows and divide, in order
    sums: np.ndarray     # the window sums, one row per sample
    out: np.ndarray      # (N,C,H/window,W/window) window means


def pool_buffers(x, window, out, take):
    """Build the calls of `avg_pool2d` on this x, an (N,C,H,W) view of
    (N,H,W,C) memory, into ``out`` once.

    The window sums add the window's rows, then its columns, as `_pool_rows`
    does, but on views in x's memory order (rows of W*C values, then of C)
    into row-sum and window-sum buffers from ``take(role, shape, dtype)``;
    the sums are then divided by window**2 in ``out``'s dtype.  A bool x
    (spikes) is summed as bytes, in the smallest unsigned integer that holds
    window**2; integer sums are exact in any order, so a window that covers
    the whole map is summed by one `np.add.reduce`.
    """
    n, c, h, w = x.shape
    ho, wo = h // window, w // window
    mem = x.transpose(0, 2, 3, 1)
    if not mem.flags.c_contiguous:
        raise ShapeError("pooled input must be an (N,C,H,W) view of (N,H,W,C) memory")
    dtype = x.dtype
    if dtype == bool:
        dtype, mem = np.min_scalar_type(window * window), mem.view(np.uint8)
    sums = take("sums", (n, ho, wo, c), dtype)
    calls = []

    def window_sum(src, total):
        """Add src (M, window, K) over its middle axis into total (M, K)."""
        if window == 1:
            return src[:, 0]
        calls.append(functools.partial(np.add, src[:, 0], src[:, 1], out=total))
        calls.extend(functools.partial(np.add, total, src[:, i], out=total)
                     for i in range(2, window))
        return total

    if dtype.kind == "u" and ho == wo == 1 < window:
        calls.append(functools.partial(np.add.reduce, mem.reshape(n, h * w, c), axis=1,
                                       dtype=dtype, out=sums.reshape(n, c)))
    else:
        rows = window_sum(mem.reshape(n * ho, window, w * c), take("rows", (n * ho, w * c), dtype))
        sums = window_sum(rows.reshape(n * ho * wo, window, c), sums.reshape(-1, c))
        sums = sums.reshape(n, ho, wo, c)
    calls.append(functools.partial(np.divide, sums.transpose(0, 3, 1, 2), window * window,
                                   out=out, dtype=out.dtype))
    return PoolBuffers(x, tuple(calls), sums.reshape(n, -1), out)


def avg_pool2d(x, window, out=None, *, buffers=None):
    """Non-overlapping mean pooling; H and W must be divisible by window.

    Sums the window's strided row slices, then its strided column slices,
    then divides by window**2; the output has the memory order of x, or is
    written into ``out``.  Runs in blocks of samples of about BLOCK_BYTES of
    input.  With ``buffers`` from `pool_buffers` the call allocates nothing:
    x is copied into ``buffers.x`` unless it is that array, and the result
    is ``buffers.out``.
    """
    if x.ndim != 4:
        raise ShapeError(f"avg_pool2d input must be 4-d, got shape {x.shape}")
    h, w = x.shape[2:]
    if window < 1 or h % window or w % window:
        raise ShapeError(
            f"spatial size {h}x{w} not divisible by pooling window {window}"
        )
    if buffers is not None:
        if x is not buffers.x:
            np.copyto(buffers.x, x)
        for call in buffers.calls:
            call()
        return buffers.out
    n, row_bytes = len(x), x.nbytes // max(1, len(x))
    corner, dtype = x[:, :, ::window, ::window], np.result_type(x, 1.0)
    y = np.empty_like(corner, dtype=dtype) if out is None else _check_out(out, corner.shape, dtype)
    run_row_blocks(n, row_bytes, lambda rows: _pool_rows(x[rows], window, y[rows]))
    return y


def avg_pool2d_backward(dy, window, out=None):
    """Spread each pooled gradient uniformly over its window.

    Returns an (N,C,H,W) view of an (N, H, W, C) buffer, ``out`` when it is
    given, filled in blocks of samples of about BLOCK_BYTES.
    """
    n, c, ho, wo = dy.shape
    shape, dtype = (n, c, ho * window, wo * window), np.result_type(dy, 1.0)
    if out is None:
        out = np.empty((n, ho * window, wo * window, c), dtype=dtype).transpose(0, 3, 1, 2)
    dx = _channels_last_rows(out, shape, dtype).reshape(n, ho, window, wo, window, c)

    def block(samples):
        g = (dy[samples] / float(window * window)).transpose(0, 2, 3, 1)
        dx[samples] = g[:, :, None, :, None, :]

    run_row_blocks(n, dx.nbytes // max(1, n), block)
    return out


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
    reductions over the whole batch.  ``out``, a pair (xhat, y), receives
    the two arrays; y may be x itself, which is read only before y is
    written.
    """
    nf = params["gamma"].shape[0]
    view = _channel_view(x, nf)
    idx = "nchw"[: x.ndim]
    per_channel = x.size // nf
    mean = np.einsum(f"{idx}->c", x) / per_channel
    dtype = np.result_type(x, mean)
    xhat = np.empty_like(x, dtype=dtype) if out is None else _check_out(out[0], x.shape, dtype)
    run_row_blocks(len(x), xhat.nbytes // max(1, len(x)),
                   lambda rows: np.subtract(x[rows], mean.reshape(view), out=xhat[rows]))
    var = np.einsum(f"{idx},{idx}->c", xhat, xhat) / per_channel
    invstd = 1.0 / np.sqrt(var + BN_EPS)
    gamma, beta = params["gamma"].reshape(view), params["beta"].reshape(view)
    dtype = np.result_type(xhat, invstd, gamma)
    y = np.empty_like(xhat, dtype=dtype) if out is None else _check_out(out[1], x.shape, dtype)

    def scale(rows):
        xb, yb = xhat[rows], y[rows]
        xb *= invstd.reshape(view)
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


def batch_norm_backward(dy, cache, out=None):
    """Gradient of training-mode batch_norm w.r.t. input, gamma, beta.

    With m values per channel, dxhat = gamma * dy has the channel means
    gamma * dbeta / m and mean(dxhat * xhat) = gamma * dgamma / m, so the two
    einsum reductions are the only passes that sum over the batch; the
    elementwise passes run in blocks of samples (`run_row_blocks`).  ``out``
    receives the input gradient; it may be dy itself.
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

    def block(rows):
        dxb = dx[rows]
        np.subtract(dy[rows], xhat[rows] * slope, out=dxb)
        dxb -= shift
        dxb *= scale

    run_row_blocks(len(dy), dx.nbytes // max(1, len(dy)), block)
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

_worker = threading.local()  # .busy: this thread is running blocks of a run_blocks call


def run_blocks(count, fn, state=None, helper_state=None):
    """Call fn(i, s) once for every block index i in range(count).

    ``s`` is ``state`` on the caller's thread and ``helper_state()`` (default:
    ``state``) on each helper.  With more than one block the blocks run on
    one worker per usable core, never more workers than blocks: the caller's
    thread and helpers from one kept thread pool, each taking the next index
    from a shared counter until none is left, with BLAS held at one thread
    (one worker where it cannot be held).  One block, or a call made from
    inside a block, runs inline on the calling thread, with no hold.  The
    first error of any block stops the other workers at their next block and
    is raised as it was raised.  fn must write its results by block index.
    """
    if count <= 1 or getattr(_worker, "busy", False):
        for i in range(count):
            fn(i, state)
        return
    indices, errors = itertools.count(), []

    def work(s):
        _worker.busy = True
        try:
            while not errors:
                i = next(indices)
                if i >= count:
                    break
                fn(i, s)
        except BaseException as exc:
            errors.append(exc)
        finally:
            _worker.busy = False

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
