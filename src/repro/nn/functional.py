"""Stateless forward/backward kernels (the local compute oracle).

All kernels operate on NCHW tensors and are fully vectorized.  The three
convolution kernels share one layout and run one GEMM per workspace block
(im2col + GEMM, which is what cuDNN's IMPLICIT_GEMM algorithm computes):

* :func:`_blocks` cuts the output into blocks whose patch matrix fits in
  :data:`_WORKSPACE` — whole samples when one sample's fits, else row
  ranges of one sample — so no kernel holds more than a cache-sized patch
  matrix, however large the layer's activations;
* :func:`_im2col` lays a block of the input out as a ``(C*Kh*Kw,
  n*rows*Wo)`` patch matrix — one row per (channel, kernel tap), one column
  per window — filled by one slab copy per tap, so the copy moves whole
  output rows;
* forward (Eq. 1) is ``w @ col`` with ``w`` viewed as ``(F, C*Kh*Kw)``,
  written into the block's rows of ``y``; backward-filter (Eq. 2) sums
  ``dy @ col.T`` over the blocks, with ``dy``'s block as ``(F,
  n*rows*Wo)``, whose product already is ``dw``; backward-data (Eq. 3) is
  ``w.T @ dy`` per block followed by col2im, each tap's slab added onto the
  ``dx`` positions the tap read — exactly Eq. (3)'s products at any stride;
* :func:`_gemm` orders the two products that read the weights so that the
  larger of (weights, the block's activation operand) is the right-hand
  matrix.  The left/right choice decides how BLAS walks each operand, and a
  layer whose weights dwarf its activations (MB of filters over a handful
  of windows) loses more to ``w @ col`` than the common case gains; see its
  docstring for the measurement.  Nothing else selects a code path: no
  kernel-size or stride special case.

All three take ``pad`` as the *left offset* of the first window and read
their input as zero outside its extent — the *effective padding*
formulation the distributed algorithms need (paper §III-A) — and no kernel
pads a whole layer: :func:`_patches` stages only the padded rows and
columns one workspace block reads.  Forward is handed its output extent
(``y_spatial``) and backward-filter takes ``dy``'s, so a distributed
convolution runs them on a view of its shard with a window's virtual
padding as the offset, and, where its window exchanges, on the small
staged source box of each boundary piece with ``pad=0``.  Backward-data is
evaluated with a per-piece left offset that aligns the error-signal rows —
read in place or staged — with the local input rows (see
:mod:`repro.core.dist_conv` for the offset derivation).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "avgpool2d_backward",
    "avgpool2d_forward",
    "batchnorm_backward",
    "batchnorm_backward_data",
    "batchnorm_backward_sums",
    "batchnorm_forward",
    "batchnorm_stats",
    "conv2d_backward_data",
    "conv2d_backward_filter",
    "conv2d_forward",
    "conv2d_output_shape",
    "global_avgpool_backward",
    "global_avgpool_forward",
    "linear_backward",
    "linear_forward",
    "maxpool2d_backward",
    "maxpool2d_forward",
    "relu_backward",
    "relu_forward",
    "sigmoid_bce_with_logits",
    "softmax_cross_entropy",
]


def _pair(v) -> tuple[int, int]:
    if isinstance(v, (tuple, list)):
        a, b = v
        return int(a), int(b)
    return int(v), int(v)


def conv2d_output_shape(
    spatial: tuple[int, int], kernel, stride, pad
) -> tuple[int, int]:
    """Output spatial extent: ``(n + 2p - k) // s + 1`` per dimension."""
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride)
    ph, pw = _pair(pad)
    h, w = spatial
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    if oh < 1 or ow < 1:
        raise ValueError(
            f"convolution output would be empty: input {spatial}, kernel "
            f"{(kh, kw)}, stride {(sh, sw)}, pad {(ph, pw)}"
        )
    return oh, ow


def _windows(xp: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int]) -> np.ndarray:
    """(N, C, Ho, Wo, Kh, Kw) sliding windows of a padded NCHW tensor."""
    kh, kw = kernel
    sh, sw = stride
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    return win[:, :, ::sh, ::sw]


#: Bytes of patch matrix one GEMM works on, sized so that a block's patch
#: matrix and its product stay in a 4 MiB L2 (the 2-core benchmark host's).
#: Measured on the e2e benchmark's ``mesh_serial_p1``, whose ``conv1_1``
#: patch matrix is 29.5 MB whole.
_WORKSPACE = 2 << 20


def _blocks(n: int, oh: int, row_bytes: int):
    """``(i0, i1, r0, r1)``: the samples ``[i0, i1)`` and output rows ``[r0,
    r1)`` of each block whose patch matrix fits in :data:`_WORKSPACE`, given
    the bytes one output row of one sample takes.

    Whole samples per block when one sample's rows fit, else row ranges
    within one sample (one row at least); either way the blocks are as even
    as their count allows.  A patch matrix that fits whole is one block.
    """
    if not n * oh * row_bytes:  # an empty patch matrix is one block
        yield 0, n, 0, oh
        return
    rows = max(1, _WORKSPACE // row_bytes)
    if rows < oh:
        k = -(-oh // rows)
        for i in range(n):
            for j in range(k):
                yield i, i + 1, oh * j // k, oh * (j + 1) // k
    else:
        k = -(-n // (rows // oh))
        for j in range(k):
            yield n * j // k, n * (j + 1) // k, 0, oh


def _im2col(
    xp: np.ndarray,
    kernel: tuple[int, int],
    stride: tuple[int, int],
    rows: tuple[int, int],
    ow: int,
) -> np.ndarray:
    """``(C*Kh*Kw, N*(r1-r0)*Wo)`` patch matrix of output rows ``rows =
    (r0, r1)`` of an already padded NCHW tensor.

    Row ``(c, a, b)`` holds what kernel tap ``(a, b)`` reads for every
    window ``(n, i, j)``: ``xp[n, c, i*sh + a, j*sw + b]``.  It is filled
    with one slab copy per tap, whose innermost contiguous run is a whole
    output row — not the ``Kw`` elements a window-major ``(N*Ho*Wo,
    C*Kh*Kw)`` layout would gather at a time.
    """
    kh, kw = kernel
    sh, sw = stride
    r0, r1 = rows
    n, c = xp.shape[:2]
    col = np.empty((c, kh, kw, n, r1 - r0, ow), dtype=xp.dtype)
    xt = xp.transpose(1, 0, 2, 3)
    for a in range(kh):
        taps = slice(r0 * sh + a, (r1 - 1) * sh + a + 1, sh)
        for b in range(kw):
            col[:, a, b] = xt[:, :, taps, b : b + (ow - 1) * sw + 1 : sw]
    return col.reshape(c * kh * kw, n * (r1 - r0) * ow)


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` with the larger operand on the right: as written when ``b``
    is the larger, else ``(b.T @ a.T).T``.  The callers pass one workspace
    block's activation operand, so the rule compares the weights with a
    block, not with the whole patch matrix.

    Either spelling is one BLAS call on views — a transposed operand is a
    flag, not a copy, and the swapped product comes back as a transposed
    view that the callers' reshapes split without copying.  What differs is
    how BLAS walks each operand, and that matters once the weights are the
    large one.  Measured in situ on the e2e benchmark's ``wide_sample_p2``
    (384 -> 384 channels, 3x3: 10.6 MB of weights against 16 output
    positions per rank, one block): with the weights always on the left, as
    in the common case, ``conv2d_backward_data`` takes 14-15 ms of the step
    and ``conv2d_forward`` 8-9 ms; ordered by size they take 8.5 and 6.6 ms
    and the step is 6-10% faster, 3 of 3 pairs.  Every activation-dominated
    layer — all of the mesh and ResNet workloads — keeps ``w @ col``.
    """
    return a @ b if a.size <= b.size else (b.T @ a.T).T


def _dy_block(dy: np.ndarray, i0: int, i1: int, r0: int, r1: int) -> np.ndarray:
    """Rows ``[r0, r1)`` of samples ``[i0, i1)`` of ``dy`` (N, F, Ho, Wo) as
    the ``(F, n*rows*Wo)`` matrix whose columns line up with
    :func:`_im2col`'s: a view for one sample of a contiguous ``dy``, a copy
    for several."""
    f, ow = dy.shape[1], dy.shape[3]
    if i1 - i0 == 1:
        return dy[i0, :, r0:r1].reshape(f, (r1 - r0) * ow)
    return dy[i0:i1, :, r0:r1].transpose(1, 0, 2, 3).reshape(f, -1)


def _patches(
    x: np.ndarray,
    block: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: tuple[int, int],
    pad: tuple[int, int],
    ow: int,
) -> np.ndarray:
    """The :func:`_im2col` patch matrix of :func:`_blocks` block ``block =
    (i0, i1, r0, r1)`` of a convolution whose windows start ``pad`` rows and
    columns before ``x``: output ``(i, j)`` reads ``x[.., i*sh + a - ph, j*sw
    + b - pw]``, zero wherever that leaves ``x``.

    When the block's windows stay inside ``x``, the patches are gathered
    from ``x`` itself; otherwise the rows and columns they read are first
    staged into one zero-filled buffer of the block's size, so no kernel
    ever pads the whole layer.  Either way the matrix is the one a padded
    copy of ``x`` gives, value for value.
    """
    (i0, i1, r0, r1), (kh, kw), (sh, sw), (ph, pw) = block, kernel, stride, pad
    h, w = x.shape[2:]
    top, left = r0 * sh - ph, -pw
    bottom = max(top, (r1 - 1) * sh - ph + kh)
    right = max(left, (ow - 1) * sw - pw + kw)
    if top >= 0 and left >= 0 and bottom <= h and right <= w:
        xs = x[i0:i1, :, top:bottom, left:right]
    else:
        xs = np.zeros((i1 - i0, x.shape[1], bottom - top, right - left), dtype=x.dtype)
        h0, h1, w0, w1 = max(top, 0), min(bottom, h), max(left, 0), min(right, w)
        if h0 < h1 and w0 < w1:  # else the block reads padding only
            xs[:, :, h0 - top : h1 - top, w0 - left : w1 - left] = x[i0:i1, :, h0:h1, w0:w1]
    return _im2col(xs, kernel, stride, (0, r1 - r0), ow)


def conv2d_forward(
    x: np.ndarray,
    w: np.ndarray,
    stride=1,
    pad=0,
    bias: np.ndarray | None = None,
    y_spatial: tuple[int, int] | None = None,
) -> np.ndarray:
    """Cross-correlation (deep-learning "convolution"), paper Eq. (1).

    ``x``: (N, C, H, W); ``w``: (F, C, Kh, Kw); returns (N, F, Ho, Wo).
    One GEMM per :func:`_blocks` block: ``w`` as ``(F, C*Kh*Kw)`` times the
    block's patch matrix (:func:`_patches`), operands ordered by
    :func:`_gemm`, and the product written into the block's rows of ``y``.

    ``pad`` is the *left offset* of the first window (output ``i`` reads
    input rows ``i*s - p ... i*s - p + K - 1``); the input is zero outside
    its extent.  ``y_spatial`` fixes the output extent; if omitted, the
    symmetric formula :func:`conv2d_output_shape` is used.
    """
    sh, sw = _pair(stride)
    ph, pw = _pair(pad)
    f, cw, kh, kw = w.shape
    n, c, h, wdt = x.shape
    if c != cw:
        raise ValueError(f"channel mismatch: x has {c}, w expects {cw}")
    if y_spatial is None:
        y_spatial = conv2d_output_shape((h, wdt), (kh, kw), (sh, sw), (ph, pw))
    oh, ow = y_spatial
    wm = w.reshape(f, c * kh * kw)
    y = np.empty((n, f, oh, ow), dtype=np.result_type(x, w))
    for block in _blocks(n, oh, c * kh * kw * ow * x.itemsize):
        i0, i1, r0, r1 = block
        col = _patches(x, block, (kh, kw), (sh, sw), (ph, pw), ow)
        # Contract (C, Kh, Kw): the triple sum of Eq. (1).
        prod = _gemm(wm, col).reshape(f, i1 - i0, r1 - r0, ow)
        y[i0:i1, :, r0:r1] = prod.transpose(1, 0, 2, 3)
        del col, prod  # one block's workspace at a time
    if bias is not None:
        y += bias.reshape(1, -1, 1, 1)
    return y


def conv2d_backward_filter(
    x: np.ndarray, dy: np.ndarray, kernel, stride=1, pad=0
) -> np.ndarray:
    """Weight gradients, paper Eq. (2): ``dw[f,c,a,b] = sum dy[k,f,i,j] x[k,c,i*s+a-p,...]``.

    One GEMM per :func:`_blocks` block, summed: ``dy``'s block as ``(F,
    n*rows*Wo)`` times the transposed *view* of the block's patch matrix
    (:func:`_patches`); the ``(F, C*Kh*Kw)`` product already is ``dw``'s
    memory layout.  ``pad`` is the left offset of the first window, as in
    :func:`conv2d_forward`, and ``dy``'s extent is the output's: ``x`` is
    zero wherever a window leaves it.
    """
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride)
    ph, pw = _pair(pad)
    n, f, oh, ow = dy.shape
    c = x.shape[1]
    dw = None
    for block in _blocks(n, oh, c * kh * kw * ow * x.itemsize):
        col = _patches(x, block, (kh, kw), (sh, sw), (ph, pw), ow)
        part = _dy_block(dy, *block) @ col.T
        del col  # one block's workspace at a time
        if dw is None:
            dw = part
        else:
            dw += part
    return dw.reshape(f, c, kh, kw)


def _tap_span(
    tap: int, stride: int, pad: int, n_out: int, n_in: int
) -> tuple[slice, slice] | None:
    """Where one kernel tap connects outputs to inputs along one axis: the
    output indices ``i`` in ``[0, n_out)`` with ``0 <= i*stride + tap - pad <
    n_in``, and the input indices they land on — ``None`` when there are
    none.  ``pad`` may be negative (a block whose first output row is past
    the padding)."""
    i_lo = max(0, -((tap - pad) // stride))
    i_hi = min(n_out, (n_in - 1 + pad - tap) // stride + 1)
    if i_lo >= i_hi:
        return None
    first = i_lo * stride + tap - pad
    return slice(i_lo, i_hi), slice(first, first + (i_hi - i_lo - 1) * stride + 1, stride)


def conv2d_backward_data(
    dy: np.ndarray,
    w: np.ndarray,
    stride=1,
    pad=0,
    x_spatial: tuple[int, int] | None = None,
) -> np.ndarray:
    """Data gradients, paper Eq. (3): ``dx[i] = sum_a w[a] dy[(i + p - a)/s]``.

    The adjoint of the forward GEMM, read backwards, one :func:`_blocks`
    block of ``dy`` at a time: one GEMM — ``w`` as ``(F, C*Kh*Kw)``,
    transposed, times the block of ``dy`` as ``(F, n*rows*Wo)``, operands
    ordered by :func:`_gemm` — gives the block's windows' error for every
    tap (the gradient of the block's :func:`_im2col` patch matrix), and
    col2im adds each tap's slab onto the ``dx`` positions that tap read,
    ``i*s + a - p`` (``i`` counted from the block's first row ``r0``, so the
    block's offset is ``p - r0*s``).  Neighbouring row blocks add into the
    ``dx`` rows they share.  Those are exactly the products Eq. (3) names,
    at any stride: nothing is zero-stuffed, and a tap that lands outside
    ``dx`` is clipped away.

    ``pad`` is the *left offset* relating dy indices to dx indices; it may
    exceed ``k - 1`` (the distributed algorithm passes ``x_lo + P - s*d_lo``
    to align a gathered dy region with the local dx block).  ``x_spatial``
    fixes the output extent; if omitted, the standard inverse of the forward
    shape formula (without output_padding) is used.  ``dy`` is zero outside
    its extent.
    """
    sh, sw = _pair(stride)
    ph, pw = _pair(pad)
    n, f, oh, ow = dy.shape
    fw, c, kh, kw = w.shape
    if f != fw:
        raise ValueError(f"filter mismatch: dy has {f}, w has {fw}")
    if x_spatial is None:
        x_spatial = ((oh - 1) * sh + kh - 2 * ph, (ow - 1) * sw + kw - 2 * pw)
    xh, xw = x_spatial
    if xh < 0 or xw < 0:
        raise ValueError(f"negative x extent {x_spatial}")

    wt = w.reshape(f, c * kh * kw).T
    dtype = np.result_type(dy, w)
    cols = [_tap_span(b, sw, pw, ow, xw) for b in range(kw)]
    dx = None
    for i0, i1, r0, r1 in _blocks(n, oh, c * kh * kw * ow * dtype.itemsize):
        dcol = _gemm(wt, _dy_block(dy, i0, i1, r0, r1)).reshape(
            c, kh, kw, i1 - i0, r1 - r0, ow
        )
        if dx is None:  # after the first product, which frees its dy copy
            dx = np.zeros((n, c, xh, xw), dtype=dtype)
        dxt = dx[i0:i1].transpose(1, 0, 2, 3)
        for a in range(kh):
            rows = _tap_span(a, sh, ph - r0 * sh, r1 - r0, xh)
            for b in range(kw):
                if rows and cols[b]:
                    dxt[:, :, rows[1], cols[b][1]] += dcol[:, a, b, :, rows[0], cols[b][0]]
        del dcol  # one block's workspace at a time
    return dx


# -- pooling ---------------------------------------------------------------------


def maxpool2d_forward(
    x: np.ndarray, kernel, stride=None, pad=0
) -> tuple[np.ndarray, np.ndarray]:
    """Max pooling; returns ``(y, argmax)`` where argmax holds flat in-window
    indices needed by the backward pass."""
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride if stride is not None else kernel)
    ph, pw = _pair(pad)
    neg = np.finfo(x.dtype).min if np.issubdtype(x.dtype, np.floating) else np.iinfo(x.dtype).min
    xp = (
        np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=neg)
        if ph or pw
        else x
    )
    win = _windows(xp, (kh, kw), (sh, sw))
    flat = win.reshape(*win.shape[:4], kh * kw)
    argmax = flat.argmax(axis=-1)
    y = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]
    return np.ascontiguousarray(y), argmax


def maxpool2d_backward(
    dy: np.ndarray,
    argmax: np.ndarray,
    x_shape: tuple[int, ...],
    kernel,
    stride=None,
    pad=0,
) -> np.ndarray:
    """Scatter ``dy`` to the argmax positions (overlaps accumulate)."""
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride if stride is not None else kernel)
    ph, pw = _pair(pad)
    n, c, h, w = x_shape
    n2, c2, oh, ow = dy.shape

    # Global (unpadded) coordinates of each window's argmax element.
    oi = np.arange(oh).reshape(1, 1, oh, 1)
    oj = np.arange(ow).reshape(1, 1, 1, ow)
    rows = oi * sh + argmax // kw - ph
    cols = oj * sw + argmax % kw - pw
    valid = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)

    dx = np.zeros(x_shape, dtype=dy.dtype)
    ni = np.broadcast_to(np.arange(n).reshape(n, 1, 1, 1), argmax.shape)
    ci = np.broadcast_to(np.arange(c).reshape(1, c, 1, 1), argmax.shape)
    np.add.at(
        dx,
        (ni[valid], ci[valid], rows[valid], cols[valid]),
        dy[valid],
    )
    return dx


def avgpool2d_forward(x: np.ndarray, kernel, stride=None, pad=0) -> np.ndarray:
    """Average pooling (divisor is the full window size, zeros included).

    Each window is flattened to a contiguous axis before the reduction so
    the per-element accumulation order depends only on the window size —
    never on the surrounding extents — which keeps piecewise evaluation
    (the overlapped halo path of ``DistPool2d``) bitwise identical to the
    fused kernel.
    """
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride if stride is not None else kernel)
    ph, pw = _pair(pad)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if ph or pw else x
    win = _windows(xp, (kh, kw), (sh, sw))
    flat = win.reshape(*win.shape[:4], kh * kw)
    return np.ascontiguousarray(flat.mean(axis=-1))


def avgpool2d_backward(
    dy: np.ndarray, x_shape: tuple[int, ...], kernel, stride=None, pad=0
) -> np.ndarray:
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride if stride is not None else kernel)
    ph, pw = _pair(pad)
    n, c, h, w = x_shape
    _, _, oh, ow = dy.shape
    dxp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=dy.dtype)
    grad = dy / (kh * kw)
    for a in range(kh):
        for b in range(kw):
            dxp[:, :, a : a + (oh - 1) * sh + 1 : sh, b : b + (ow - 1) * sw + 1 : sw] += grad
    return dxp[:, :, ph : ph + h, pw : pw + w] if ph or pw else dxp


def global_avgpool_forward(x: np.ndarray) -> np.ndarray:
    """(N, C, H, W) -> (N, C) mean over the spatial extent."""
    return x.mean(axis=(2, 3))


def global_avgpool_backward(dy: np.ndarray, x_shape: tuple[int, ...]) -> np.ndarray:
    n, c, h, w = x_shape
    return np.broadcast_to(dy[:, :, None, None] / (h * w), x_shape).copy()


# -- batch normalization -----------------------------------------------------------
#
# Every kernel below is a per-channel reduction or a per-channel affine map
# of an activation, and moves each activation byte once per pass.  With
# ``xhat = (x - mean)*inv_std`` the textbook layer is ``y = gamma*xhat + beta``
# and ``dx = gamma*inv_std*(dy - dbeta/m - xhat*dgamma/m)``; folding the
# per-channel constants first leaves
#
#   forward    scale = gamma*inv_std, shift = beta - mean*scale
#              y  = x*scale + shift
#   sums       dbeta  = sum dy
#              dgamma = inv_std*(sum dy*x - mean*dbeta)      (= sum dy*xhat)
#   data       k = scale*inv_std*dgamma/m, c = scale*dbeta/m - mean*k
#              dx = dy*scale - (x*k + c)
#
# so ``xhat`` is never materialized.  The cache *references* the input — the
# network keeps that activation alive anyway — beside C-element vectors
# (``mean``, ``var``, ``inv_std``, ``gamma``): no kernel here may write to
# ``x`` or ``dy``.  ``dgamma`` stays linear in the local sums, which is what
# lets ``DistBatchNorm`` allreduce per-rank partials.
#
# The folded forms subtract ``mean*scale`` (``mean*dbeta``, ``mean*k``) after
# the multiply instead of centring first, so their rounding error grows like
# ``eps*|mean|/std`` — the character ``var = ss/count - mean**2`` of the
# aggregated statistics already has; ``tests/test_functional_layers.py`` pins
# it on a large-mean input.
#
# The product reductions are ``np.einsum`` because ``(a*b).sum(...)`` first
# writes an activation-sized temporary and then reads it back: einsum
# multiplies and accumulates in one pass over the operands.


def _channel_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-channel ``sum a*b`` over (N, H, W), with no product temporary."""
    return np.einsum("nchw,nchw->c", a, b)


def _per_channel(v: np.ndarray) -> np.ndarray:
    return v.reshape(1, -1, 1, 1)


def batchnorm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-5,
    mean: np.ndarray | None = None,
    var: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Per-channel batch norm over (N, H, W): ``y = x*scale + shift``.

    ``mean``/``var`` may be supplied externally (the distributed variants
    aggregate statistics over a process group first); otherwise they are
    computed from ``x`` (mini-batch statistics, biased variance).
    Returns ``(y, cache)`` for the backward pass; the cache holds ``x`` by
    reference (no normalized copy) and the statistics used.
    """
    if mean is None:
        mean = x.mean(axis=(0, 2, 3))
    if var is None:
        var = x.var(axis=(0, 2, 3))
    inv_std = 1.0 / np.sqrt(var + eps)
    scale = gamma * inv_std
    y = x * _per_channel(scale)
    y += _per_channel(beta - mean * scale)
    cache = {"x": x, "mean": mean, "var": var, "inv_std": inv_std, "gamma": gamma}
    return y, cache


def batchnorm_backward_sums(
    dy: np.ndarray, cache: dict
) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel ``(dgamma, dbeta) = (sum dy*xhat, sum dy)`` over (N, H, W):
    the parameter gradients, and the two reductions ``dx`` is built from.
    Linear in ``dy``'s local sums, so shards' results add up to the whole's."""
    dbeta = dy.sum(axis=(0, 2, 3))
    dgamma = cache["inv_std"] * (_channel_dot(dy, cache["x"]) - cache["mean"] * dbeta)
    return dgamma, dbeta


def batchnorm_backward_data(
    dy: np.ndarray, cache: dict, dgamma: np.ndarray, dbeta: np.ndarray, m: float
) -> np.ndarray:
    """``dx = (gamma*inv_std)*(dy - dbeta/m - xhat*dgamma/m)`` with the sums
    taken over the normalization set of size ``m`` (for distributed batch
    norm: aggregated over the process group first), evaluated as
    ``dy*scale - (x*k + c)``: four passes, ``dx`` and one temporary."""
    scale = cache["gamma"] * cache["inv_std"]
    k = scale * cache["inv_std"] * dgamma / m
    c = scale * dbeta / m - cache["mean"] * k
    dx = dy * _per_channel(scale)
    t = cache["x"] * _per_channel(k)
    t += _per_channel(c)
    dx -= t
    return dx


def batchnorm_backward(
    dy: np.ndarray, cache: dict
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(dx, dgamma, dbeta)`` when ``dy`` is the whole normalization set:
    :func:`batchnorm_backward_sums`, then :func:`batchnorm_backward_data`
    over ``m = N*H*W``."""
    dgamma, dbeta = batchnorm_backward_sums(dy, cache)
    m = dy.shape[0] * dy.shape[2] * dy.shape[3]
    return batchnorm_backward_data(dy, cache, dgamma, dbeta, m), dgamma, dbeta


def batchnorm_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-channel ``(sum, sum of squares, count)`` — the quantities the
    distributed variants allreduce before normalizing (paper §III-B)."""
    count = float(x.shape[0] * x.shape[2] * x.shape[3])
    return x.sum(axis=(0, 2, 3)), _channel_dot(x, x), count


# -- element-wise and dense ----------------------------------------------------------


def relu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(max(x, 0), x > 0)``.  One float pass: a bool-mask multiply casts
    the mask first and ``np.where`` is slower still (measured 4-8x)."""
    return np.maximum(x, 0.0), x > 0


def relu_backward(dy: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return dy * mask


def linear_forward(
    x: np.ndarray, w: np.ndarray, bias: np.ndarray | None = None
) -> np.ndarray:
    """``y = x @ w.T + b`` with x: (N, D), w: (out, D)."""
    y = x @ w.T
    if bias is not None:
        y += bias
    return y


def linear_backward(
    x: np.ndarray, w: np.ndarray, dy: np.ndarray, need_dx: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """``(dx, dw, db)``; ``dx`` is ``None`` when the caller needs none."""
    dx = dy @ w if need_dx else None
    dw = dy.T @ x
    db = dy.sum(axis=0)
    return dx, dw, db


# -- losses ------------------------------------------------------------------------


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, need_grad: bool = True
) -> tuple[float, np.ndarray | None]:
    """Mean cross-entropy over the batch; returns ``(loss, dlogits)``,
    ``dlogits`` ``None`` without ``need_grad``."""
    n = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    loss = -float(logp[np.arange(n), labels].mean())
    if not need_grad:
        return loss, None
    dlogits = np.exp(logp)
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def sigmoid_bce_with_logits(
    logits: np.ndarray, targets: np.ndarray, need_grad: bool = True
) -> tuple[float, np.ndarray | None]:
    """Mean binary cross-entropy with logits (the per-pixel mesh-tangling
    segmentation loss); returns ``(loss, dlogits)``, ``dlogits`` ``None``
    without ``need_grad``."""
    # Numerically stable: log(1 + e^-|z|) + max(z, 0) - z*t.
    z = logits
    loss_map = np.maximum(z, 0) - z * targets + np.log1p(np.exp(-np.abs(z)))
    count = z.size
    loss = float(loss_map.sum() / count)
    if not need_grad:
        return loss, None
    sig = 1.0 / (1.0 + np.exp(-z))
    return loss, (sig - targets) / count
