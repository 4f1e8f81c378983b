"""Stateless forward/backward kernels (the local compute oracle).

All kernels operate on NCHW tensors and are fully vectorized: convolutions
use strided window views + ``tensordot`` (the numpy analogue of im2col +
GEMM, which is what cuDNN's IMPLICIT_GEMM algorithm computes), and the
backward kernels implement the paper's Eqs. (2) and (3) exactly — Eq. (3)
as one such GEMM per stride residue, so a strided layer multiplies only
the (tap, dy) pairs the equation names.

Two kernels take the *effective padding* formulation needed by the
distributed algorithms (paper §III-A): the spatially partitioned layers
materialize halo + virtual padding into an extended local block via
``gather_region`` and then call these kernels with ``pad=0``, while
backward-data is evaluated with a per-rank left-offset padding that aligns
the gathered error-signal region with the local input block (see
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


def conv2d_forward(
    x: np.ndarray,
    w: np.ndarray,
    stride=1,
    pad=0,
    bias: np.ndarray | None = None,
) -> np.ndarray:
    """Cross-correlation (deep-learning "convolution"), paper Eq. (1).

    ``x``: (N, C, H, W); ``w``: (F, C, Kh, Kw); returns (N, F, Ho, Wo).
    """
    sh, sw = _pair(stride)
    ph, pw = _pair(pad)
    f, cw, kh, kw = w.shape
    n, c, h, wdt = x.shape
    if c != cw:
        raise ValueError(f"channel mismatch: x has {c}, w expects {cw}")
    conv2d_output_shape((h, wdt), (kh, kw), (sh, sw), (ph, pw))
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if ph or pw else x
    win = _windows(xp, (kh, kw), (sh, sw))
    # Contract (C, Kh, Kw): the triple sum of Eq. (1).
    y = np.tensordot(win, w, axes=([1, 4, 5], [1, 2, 3]))  # (N, Ho, Wo, F)
    y = np.ascontiguousarray(y.transpose(0, 3, 1, 2))
    if bias is not None:
        y += bias.reshape(1, -1, 1, 1)
    return y


def conv2d_backward_filter(
    x: np.ndarray, dy: np.ndarray, kernel, stride=1, pad=0
) -> np.ndarray:
    """Weight gradients, paper Eq. (2): ``dw[f,c,a,b] = sum dy[k,f,i,j] x[k,c,i*s+a-p,...]``."""
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride)
    ph, pw = _pair(pad)
    n, f, oh, ow = dy.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if ph or pw else x
    if xp.shape[2] < (oh - 1) * sh + kh or xp.shape[3] < (ow - 1) * sw + kw:
        raise ValueError("dy spatial extent inconsistent with x/kernel/stride/pad")
    win = _windows(xp, (kh, kw), (sh, sw))  # (N, C, Oh', Ow', Kh, Kw)
    win = win[:, :, :oh, :ow]  # strided view may overshoot by up to s-1 windows
    dw = np.tensordot(dy, win, axes=([0, 2, 3], [0, 2, 3]))  # (F, C, Kh, Kw)
    return np.ascontiguousarray(dw)


def _zero_extended(
    a: np.ndarray, rows: tuple[int, int], cols: tuple[int, int]
) -> np.ndarray:
    """``a[:, :, rows[0]:rows[1], cols[0]:cols[1]]`` with zeros wherever the
    index window leaves ``a``'s spatial extent (a view when it never does)."""
    (lo_h, hi_h), (lo_w, hi_w) = rows, cols
    h, w = a.shape[2:]
    if lo_h >= 0 and hi_h <= h and lo_w >= 0 and hi_w <= w:
        return a[:, :, lo_h:hi_h, lo_w:hi_w]
    out = np.zeros(a.shape[:2] + (hi_h - lo_h, hi_w - lo_w), dtype=a.dtype)
    src_h = slice(max(lo_h, 0), min(hi_h, h))
    src_w = slice(max(lo_w, 0), min(hi_w, w))
    if src_h.start < src_h.stop and src_w.start < src_w.stop:
        out[
            :,
            :,
            src_h.start - lo_h : src_h.stop - lo_h,
            src_w.start - lo_w : src_w.stop - lo_w,
        ] = a[:, :, src_h, src_w]
    return out


def _backward_data_phase(
    dy: np.ndarray, w_sub: np.ndarray, q0: tuple[int, int], out: np.ndarray
) -> None:
    """One stride residue of Eq. (3): ``out[n] = sum_m w_sub[m] dy[q0 + n - m]``.

    ``w_sub`` holds the kernel taps ``r, r + s, ...`` of the residue and
    ``out`` is the strided view of ``dx`` they reach, so this is a stride-1
    correlation of ``dy`` itself with the flipped sub-kernel.  ``out`` stays
    untouched (zero) when no tap falls on the residue (``k < s``).
    """
    mh, mw = w_sub.shape[2:]
    nh, nw = out.shape[2:]
    if 0 in (mh, mw, nh, nw):
        return
    lo_h, lo_w = q0[0] - (mh - 1), q0[1] - (mw - 1)
    dy_win = _zero_extended(
        dy, (lo_h, lo_h + nh + mh - 1), (lo_w, lo_w + nw + mw - 1)
    )
    win = _windows(dy_win, (mh, mw), (1, 1))  # (N, F, nh, nw, Mh, Mw)
    phase = np.tensordot(win, w_sub[:, :, ::-1, ::-1], axes=([1, 4, 5], [0, 2, 3]))
    out[...] = phase.transpose(0, 3, 1, 2)  # (N, nh, nw, C) -> NCHW


def conv2d_backward_data(
    dy: np.ndarray,
    w: np.ndarray,
    stride=1,
    pad=0,
    x_spatial: tuple[int, int] | None = None,
) -> np.ndarray:
    """Data gradients, paper Eq. (3): ``dx[i] = sum_a w[a] dy[(i + p - a)/s]``.

    Only the taps ``a = i + p (mod s)`` land on an integer ``dy`` index, so
    the sum splits by stride residue ``r``: the positions ``i = r - p
    (mod s)`` see the sub-kernel ``w[r::s]`` slide over ``dy`` with stride 1.
    Each of the ``sh * sw`` residues is one GEMM over exactly the products
    Eq. (3) names; stride 1 is the single-residue case.

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

    dx = np.zeros((n, c, xh, xw), dtype=np.result_type(dy.dtype, w.dtype))
    for rh in range(sh):
        i0 = (rh - ph) % sh  # first dx row of this residue
        for rw in range(sw):
            j0 = (rw - pw) % sw
            _backward_data_phase(
                dy,
                w[:, :, rh::sh, rw::sw],
                ((i0 + ph) // sh, (j0 + pw) // sw),
                dx[:, :, i0::sh, j0::sw],
            )
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


def batchnorm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-5,
    mean: np.ndarray | None = None,
    var: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Per-channel batch norm over (N, H, W).

    ``mean``/``var`` may be supplied externally (the distributed variants
    aggregate statistics over a process group first); otherwise they are
    computed from ``x`` (mini-batch statistics, biased variance).
    Returns ``(y, cache)`` for the backward pass.
    """
    if mean is None:
        mean = x.mean(axis=(0, 2, 3))
    if var is None:
        var = x.var(axis=(0, 2, 3))
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean.reshape(1, -1, 1, 1)) * inv_std.reshape(1, -1, 1, 1)
    y = gamma.reshape(1, -1, 1, 1) * xhat + beta.reshape(1, -1, 1, 1)
    cache = {"xhat": xhat, "inv_std": inv_std, "gamma": gamma}
    return y, cache


def batchnorm_backward_sums(
    dy: np.ndarray, cache: dict
) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel ``(dgamma, dbeta) = (sum dy*xhat, sum dy)`` over (N, H, W):
    the parameter gradients, and the two reductions ``dx`` is built from."""
    return (dy * cache["xhat"]).sum(axis=(0, 2, 3)), dy.sum(axis=(0, 2, 3))


def batchnorm_backward_data(
    dy: np.ndarray, cache: dict, dgamma: np.ndarray, dbeta: np.ndarray, m: float
) -> np.ndarray:
    """``dx = (gamma*inv_std)*(dy - dbeta/m - xhat*dgamma/m)`` with the sums
    taken over the normalization set of size ``m`` (for distributed batch
    norm: aggregated over the process group first)."""
    xhat, inv_std, gamma = cache["xhat"], cache["inv_std"], cache["gamma"]
    scale = (gamma * inv_std).reshape(1, -1, 1, 1)
    return scale * (
        dy
        - dbeta.reshape(1, -1, 1, 1) / m
        - xhat * dgamma.reshape(1, -1, 1, 1) / m
    )


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
    s = x.sum(axis=(0, 2, 3))
    ss = (x * x).sum(axis=(0, 2, 3))
    count = float(x.shape[0] * x.shape[2] * x.shape[3])
    return s, ss, count


# -- element-wise and dense ----------------------------------------------------------


def relu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mask = x > 0
    return x * mask, mask


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
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch; returns ``(loss, dlogits)``."""
    n = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    loss = -float(logp[np.arange(n), labels].mean())
    dlogits = np.exp(logp)
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def sigmoid_bce_with_logits(
    logits: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy with logits (the per-pixel mesh-tangling
    segmentation loss); returns ``(loss, dlogits)``."""
    # Numerically stable: log(1 + e^-|z|) + max(z, 0) - z*t.
    z = logits
    loss_map = np.maximum(z, 0) - z * targets + np.log1p(np.exp(-np.abs(z)))
    count = z.size
    loss = float(loss_map.sum() / count)
    sig = 1.0 / (1.0 + np.exp(-z))
    return loss, (sig - targets) / count
