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
  unfolded matrix is kh runs of kw*C contiguous values; `_weight_matrix`
  orders the weights' columns the same way.  Weights and their gradients keep
  the (C_out, C_in, kh, kw) shape and C order;
- `conv2d`, `conv2d_backward`'s input gradient and `avg_pool2d_backward`
  return channels-last views; `avg_pool2d`, `batch_norm` and
  `batch_norm_backward` return arrays in the memory order of their input;
- per-channel sums in `batch_norm_backward` use einsum, which reduces
  channels-last memory without looping over the short channel axis.
"""

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ShapeError


@dataclass(frozen=True)
class ConvParams:
    """Geometry of a 2-d convolution (square stride, symmetric zero padding)."""

    in_channels: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        if self.stride < 1:
            raise ShapeError(f"stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise ShapeError(f"padding must be >= 0, got {self.padding}")
        for name in ("in_channels", "out_channels", "kernel_h", "kernel_w"):
            if getattr(self, name) < 1:
                raise ShapeError(f"{name} must be >= 1, got {getattr(self, name)}")

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

    Columns are in (kh, kw, C) order.  x is copied once, channels-last, into
    a zero-padded (N, H+2p, W+2p, C) buffer; without padding its own strides
    are used.
    """
    n, c, h, w = x.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    x = x.transpose(0, 2, 3, 1)
    if padding > 0:
        xp = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
        xp[:, padding : padding + h, padding : padding + w] = x
        x = xp
    sn, sh, sw, sc = x.strides
    windows = as_strided(
        x,
        shape=(n, ho, wo, kh, kw, c),
        strides=(sn, sh * stride, sw * stride, sh, sw, sc),
    )
    cols = np.ascontiguousarray(windows).reshape(n * ho * wo, kh * kw * c)
    return cols, ho, wo


def _weight_matrix(weights):
    """Weights (C_out,C_in,kh,kw) as a (C_out, kh*kw*C_in) matrix in the
    column order of `_im2col`."""
    return weights.transpose(0, 2, 3, 1).reshape(weights.shape[0], -1)


def conv2d(x, weights, params, cols_out=None):
    """2-d cross-correlation of x (N,C,H,W) with weights (C_out,C_in,kh,kw).

    Equivalent to the direct sum-of-products over every window.  When
    ``cols_out`` is a list, the unfolded input matrix is appended to it so a
    backward pass can reuse it.
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
    cols, ho, wo = _im2col(x, kh, kw, params.stride, params.padding)
    if cols_out is not None:
        cols_out.append(cols)
    y = cols @ _weight_matrix(weights).T
    return y.reshape(n, ho, wo, cout).transpose(0, 3, 1, 2)


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


def conv2d_backward(dy, x, weights, params, cols=None, need_dx=True):
    """Gradients of conv2d w.r.t. input and weights.

    dy has the output shape (N,C_out,Ho,Wo).  Passing the cached ``cols``
    from the forward pass avoids recomputing the unfold.  With
    ``need_dx=False`` the input gradient is not computed and returned as None.
    """
    cout, cin, kh, kw = weights.shape
    n = x.shape[0]
    if cols is None:
        cols, _, _ = _im2col(x, kh, kw, params.stride, params.padding)
    dy_mat = dy.transpose(0, 2, 3, 1).reshape(-1, cout)
    dw = np.ascontiguousarray(
        (dy_mat.T @ cols).reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2)
    )
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
        dx = conv2d(dy, w_flip, back)
    else:
        dcols = dy_mat @ _weight_matrix(weights)
        dx = _col2im(dcols, x.shape, kh, kw, params.stride, params.padding)
    return dx, dw


def fully_connected(x, weights, bias):
    """Affine map: x (N,F_in) @ weights (F_out,F_in)^T + bias (F_out)."""
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
    return x @ weights.T + bias


def fully_connected_backward(dy, x, weights):
    """Gradients of fully_connected w.r.t. input, weights, bias."""
    dx = dy @ weights
    dw = dy.T @ x
    db = dy.sum(axis=0)
    return dx, dw, db


def avg_pool2d(x, window):
    """Non-overlapping mean pooling; H and W must be divisible by window.

    Sums the window's strided row slices, then its strided column slices,
    then divides by window**2; the output has the memory order of x.
    """
    if x.ndim != 4:
        raise ShapeError(f"avg_pool2d input must be 4-d, got shape {x.shape}")
    h, w = x.shape[2:]
    if window < 1 or h % window or w % window:
        raise ShapeError(
            f"spatial size {h}x{w} not divisible by pooling window {window}"
        )
    rows = x[:, :, 0::window].copy(order="K")
    for i in range(1, window):
        rows += x[:, :, i::window]
    y = rows[:, :, :, 0::window].copy(order="K")
    for j in range(1, window):
        y += rows[:, :, :, j::window]
    return y / (window * window)


def avg_pool2d_backward(dy, window):
    """Spread each pooled gradient uniformly over its window.

    Returns an (N,C,H,W) view of an (N, H, W, C) buffer.
    """
    n, c, ho, wo = dy.shape
    g = (dy / float(window * window)).transpose(0, 2, 3, 1)
    dx = np.empty((n, ho, window, wo, window, c), dtype=g.dtype)
    dx[...] = g[:, :, None, :, None, :]
    return dx.reshape(n, ho * window, wo * window, c).transpose(0, 3, 1, 2)


@dataclass(frozen=True)
class BatchNormState:
    """Per-channel affine parameters plus running statistics.

    Immutable: training-mode calls return a new state with blended running
    statistics instead of mutating, so instances can be shared read-only.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    eps: float = 1e-5

    @classmethod
    def create(cls, num_features, dtype=np.float32, momentum=0.1, eps=1e-5):
        return cls(
            gamma=np.ones(num_features, dtype=dtype),
            beta=np.zeros(num_features, dtype=dtype),
            running_mean=np.zeros(num_features, dtype=dtype),
            running_var=np.ones(num_features, dtype=dtype),
            momentum=momentum,
            eps=eps,
        )


def _bn_axes_and_view(x, num_features):
    if x.ndim == 4:
        if x.shape[1] != num_features:
            raise ShapeError(
                f"channel axis has size {x.shape[1]}, norm state expects {num_features}"
            )
        return (0, 2, 3), (1, num_features, 1, 1)
    if x.ndim == 2:
        if x.shape[1] != num_features:
            raise ShapeError(
                f"feature axis has size {x.shape[1]}, norm state expects {num_features}"
            )
        return (0,), (1, num_features)
    raise ShapeError(f"batch_norm input must be 2-d or 4-d, got shape {x.shape}")


def batch_norm(x, state, mode):
    """Per-channel normalization.

    mode "train": normalize by the statistics of this batch (biased variance)
    and return a new state whose running statistics are the momentum blend
    new = (1 - m) * old + m * batch (unbiased variance for the running blend).
    mode "eval": normalize by the stored running statistics; state unchanged.

    Returns (output, new_state).
    """
    y, new_state, _ = _batch_norm_impl(x, state, mode, want_cache=False)
    return y, new_state


def batch_norm_train_cached(x, state, repeats=1):
    """Training-mode batch_norm that also returns the cache for backward.

    ``repeats`` treats x as standing for that many identical copies stacked
    along the batch axis: the batch statistics are those of x itself, and the
    unbiased running-variance factor count/(count-1) uses the stacked count.
    """
    return _batch_norm_impl(x, state, "train", want_cache=True, repeats=repeats)


def _batch_norm_impl(x, state, mode, want_cache, repeats=1):
    nf = state.gamma.shape[0]
    axes, view = _bn_axes_and_view(x, nf)
    if mode == "eval":
        invstd = 1.0 / np.sqrt(state.running_var + state.eps)
        y = _normalize(x, state.running_mean, invstd, view)
        y *= state.gamma.reshape(view)
        y += state.beta.reshape(view)
        return y, state, None
    if mode != "train":
        raise ValueError(f"batch_norm mode must be 'train' or 'eval', got {mode!r}")
    count = repeats * (x.size // nf)
    mean = x.mean(axis=axes)
    var = x.var(axis=axes)
    invstd = 1.0 / np.sqrt(var + state.eps)
    xhat = _normalize(x, mean, invstd, view)
    y = xhat * state.gamma.reshape(view)
    y += state.beta.reshape(view)
    m = state.momentum
    var_unbiased = var * (count / max(count - 1, 1))
    new_state = replace(
        state,
        running_mean=((1.0 - m) * state.running_mean + m * mean).astype(
            state.running_mean.dtype
        ),
        running_var=((1.0 - m) * state.running_var + m * var_unbiased).astype(
            state.running_var.dtype
        ),
    )
    cache = (xhat, invstd, state.gamma, view) if want_cache else None
    return y, new_state, cache


def _normalize(x, mean, invstd, view):
    """(x - mean) * invstd per channel, as one new array in x's memory order."""
    y = x - mean.reshape(view)
    y *= invstd.reshape(view)
    return y


def batch_norm_backward(dy, cache):
    """Gradient of training-mode batch_norm w.r.t. input, gamma, beta.

    With m values per channel, dxhat = gamma * dy has the channel means
    gamma * dbeta / m and mean(dxhat * xhat) = gamma * dgamma / m, so the two
    einsum reductions are the only passes that sum over the batch.
    """
    xhat, invstd, gamma, view = cache
    idx = "nchw"[: dy.ndim]
    m = dy.size // gamma.shape[0]
    dbeta = np.einsum(f"{idx}->c", dy)
    dgamma = np.einsum(f"{idx},{idx}->c", dy, xhat)
    dx = dy - xhat * (dgamma / m).reshape(view)
    dx -= (dbeta / m).reshape(view)
    dx *= (gamma * invstd).reshape(view)
    return dx, dgamma, dbeta
