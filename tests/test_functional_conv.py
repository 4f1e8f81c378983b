"""Convolution kernels vs. naive references and adjoint identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.functional import (
    conv2d_backward_data,
    conv2d_backward_filter,
    conv2d_forward,
    conv2d_output_shape,
)


def naive_conv2d(x, w, stride, pad):
    """Direct implementation of paper Eq. (1) with explicit loops."""
    sh, sw = stride
    ph, pw = pad
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    oh, ow = conv2d_output_shape((h, wd), (kh, kw), stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    y = np.zeros((n, f, oh, ow))
    for kk in range(n):
        for ff in range(f):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[kk, :, i * sh : i * sh + kh, j * sw : j * sw + kw]
                    y[kk, ff, i, j] = (patch * w[ff]).sum()
    return y


def scatter_backward_data(dy, w, stride, pad, x_spatial):
    """Eq. (3) by brute force, straight from the forward definition: output
    (i, j) read input (i*s + a - p, j*s + b - p) through tap (a, b), so its
    error flows back there.  ``pad`` is the left offset, ``x_spatial`` the
    extent kept; no gather formula, no stride phases."""
    (sh, sw), (ph, pw) = stride, pad
    n, f, oh, ow = dy.shape
    _, c, kh, kw = w.shape
    dx = np.zeros((n, c) + tuple(x_spatial))
    for i in range(oh):
        for j in range(ow):
            for a in range(kh):
                for b in range(kw):
                    r, q = i * sh + a - ph, j * sw + b - pw
                    if 0 <= r < x_spatial[0] and 0 <= q < x_spatial[1]:
                        dx[:, :, r, q] += dy[:, :, i, j] @ w[:, :, a, b]
    return dx


def loop_backward_filter(x, dy, kernel, stride, pad):
    """Eq. (2) by brute force: tap (a, b) of output (i, j) read the padded
    input at (i*s + a, j*s + b), so that product lands in dw[:, :, a, b]."""
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, pad
    n, f, oh, ow = dy.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    dw = np.zeros((f, x.shape[1], kh, kw))
    for a in range(kh):
        for b in range(kw):
            for i in range(oh):
                for j in range(ow):
                    dw[:, :, a, b] += dy[:, :, i, j].T @ xp[:, :, i * sh + a, j * sw + b]
    return dw


CASES = [
    # (N, C, H, W, F, K, S, P) — includes the paper's layer shapes scaled down
    (1, 1, 5, 5, 1, 3, 1, 1),
    (2, 3, 8, 8, 4, 3, 1, 1),
    (2, 3, 9, 9, 4, 3, 2, 1),   # odd size, stride 2
    (1, 2, 7, 7, 3, 1, 1, 0),   # 1x1 conv (res3b_branch2a shape class)
    (2, 3, 12, 12, 4, 7, 2, 3),  # conv1 shape class (K=7, S=2, P=3)
    (1, 2, 10, 10, 3, 5, 2, 2),  # mesh conv1_1 shape class (K=5, S=2, P=2)
    (1, 1, 6, 8, 2, 3, 3, 0),    # stride > pad, rectangular
    (2, 2, 5, 9, 3, 3, 2, 2),
]


class TestForward:
    @pytest.mark.parametrize("n,c,h,w,f,k,s,p", CASES)
    def test_matches_naive(self, n, c, h, w, f, k, s, p):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((n, c, h, w))
        wt = rng.standard_normal((f, c, k, k))
        got = conv2d_forward(x, wt, stride=s, pad=p)
        want = naive_conv2d(x, wt, (s, s), (p, p))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_bias(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 5, 5))
        wt = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        got = conv2d_forward(x, wt, stride=1, pad=1, bias=b)
        want = conv2d_forward(x, wt, stride=1, pad=1) + b.reshape(1, 4, 1, 1)
        np.testing.assert_allclose(got, want)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d_forward(np.zeros((1, 2, 5, 5)), np.zeros((1, 3, 3, 3)))

    def test_empty_output_raises(self):
        with pytest.raises(ValueError, match="empty"):
            conv2d_forward(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 5, 5)))

    def test_identity_kernel(self):
        x = np.random.default_rng(1).standard_normal((1, 1, 6, 6))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        np.testing.assert_allclose(conv2d_forward(x, w, pad=1), x)

    def test_rectangular_stride_pad(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 2, 9, 7))
        wt = rng.standard_normal((3, 2, 3, 3))
        got = conv2d_forward(x, wt, stride=(2, 1), pad=(0, 1))
        want = naive_conv2d(x, wt, (2, 1), (0, 1))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestBackwardAdjoint:
    """The backward kernels must be the exact adjoints of the forward map:
    <dy, conv(x, w)> == <bwd_data(dy, w), x> == <bwd_filter(x, dy), w>."""

    @pytest.mark.parametrize("n,c,h,w,f,k,s,p", CASES)
    def test_data_adjoint(self, n, c, h, w, f, k, s, p):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((n, c, h, w))
        wt = rng.standard_normal((f, c, k, k))
        y = conv2d_forward(x, wt, stride=s, pad=p)
        dy = rng.standard_normal(y.shape)
        dx = conv2d_backward_data(dy, wt, stride=s, pad=p, x_spatial=(h, w))
        assert dx.shape == x.shape
        np.testing.assert_allclose(
            (dy * y).sum(), (dx * x).sum() + (dy * conv2d_forward(np.zeros_like(x), wt, stride=s, pad=p)).sum(),
            rtol=1e-10,
        )
        # Pure bilinearity: <dy, A x> == <A^T dy, x>
        np.testing.assert_allclose((dy * y).sum(), (dx * x).sum(), rtol=1e-10)

    @pytest.mark.parametrize("n,c,h,w,f,k,s,p", CASES)
    def test_filter_adjoint(self, n, c, h, w, f, k, s, p):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((n, c, h, w))
        wt = rng.standard_normal((f, c, k, k))
        y = conv2d_forward(x, wt, stride=s, pad=p)
        dy = rng.standard_normal(y.shape)
        dw = conv2d_backward_filter(x, dy, kernel=k, stride=s, pad=p)
        assert dw.shape == wt.shape
        np.testing.assert_allclose((dy * y).sum(), (dw * wt).sum(), rtol=1e-10)

    def test_finite_difference_data(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 2, 6, 6))
        wt = rng.standard_normal((3, 2, 3, 3))
        dy = rng.standard_normal(conv2d_forward(x, wt, stride=2, pad=1).shape)
        dx = conv2d_backward_data(dy, wt, stride=2, pad=1, x_spatial=(6, 6))
        eps = 1e-6
        for idx in [(0, 0, 0, 0), (0, 1, 3, 2), (0, 0, 5, 5)]:
            xp = x.copy()
            xp[idx] += eps
            xm = x.copy()
            xm[idx] -= eps
            num = (
                (conv2d_forward(xp, wt, stride=2, pad=1) * dy).sum()
                - (conv2d_forward(xm, wt, stride=2, pad=1) * dy).sum()
            ) / (2 * eps)
            np.testing.assert_allclose(dx[idx], num, rtol=1e-5, atol=1e-7)

    def test_finite_difference_filter(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 2, 5, 5))
        wt = rng.standard_normal((2, 2, 3, 3))
        dy = rng.standard_normal(conv2d_forward(x, wt, pad=1).shape)
        dw = conv2d_backward_filter(x, dy, kernel=3, stride=1, pad=1)
        eps = 1e-6
        for idx in [(0, 0, 0, 0), (1, 1, 2, 2), (0, 1, 1, 0)]:
            wp, wm = wt.copy(), wt.copy()
            wp[idx] += eps
            wm[idx] -= eps
            num = (
                (conv2d_forward(x, wp, pad=1) * dy).sum()
                - (conv2d_forward(x, wm, pad=1) * dy).sum()
            ) / (2 * eps)
            np.testing.assert_allclose(dw[idx], num, rtol=1e-5, atol=1e-7)


class TestBackwardDataOffsets:
    """The region formulation used by spatial parallelism: computing dx for a
    sub-block via a gathered dy region and effective padding must equal the
    corresponding slice of the full backward pass."""

    @pytest.mark.parametrize(
        "s,p,k",
        [
            (1, 1, 3), (2, 1, 3), (2, 2, 5), (2, 3, 7), (1, 0, 1),
            (3, 1, 3), (3, 2, 5), (3, 3, 7), (3, 0, 1), (2, 0, 1),  # incl. K < S
            (2, 1, (3, 5)), (3, 2, (5, 3)), (1, 1, (3, 1)), (3, 0, (2, 4)),
        ],
    )
    def test_region_equivalence(self, s, p, k):
        rng = np.random.default_rng(11)
        h = w = 12
        x = rng.standard_normal((1, 2, h, w))
        wt = rng.standard_normal((3, 2) + (k if isinstance(k, tuple) else (k, k)))
        k = wt.shape[2]  # the blocks below split rows
        y = conv2d_forward(x, wt, stride=s, pad=p)
        dy = rng.standard_normal(y.shape)
        full_dx = conv2d_backward_data(dy, wt, stride=s, pad=p, x_spatial=(h, w))

        # Block of x rows [xlo, xhi): gather dy rows [dlo, dhi) and use the
        # effective left padding  p'' = xlo + p - s*dlo  (paper §III-A region
        # algebra; see repro.core.dist_conv).
        for xlo, xhi in [(0, 6), (6, 12), (3, 9)]:
            dlo = (xlo + p - (k - 1)) // s  # floor division handles negatives
            dhi = (xhi - 1 + p) // s + 1
            oh = y.shape[2]
            dy_region = np.zeros((1, 3, dhi - dlo, y.shape[3]))
            src_lo, src_hi = max(dlo, 0), min(dhi, oh)
            if src_lo < src_hi:
                dy_region[:, :, src_lo - dlo : src_hi - dlo, :] = dy[:, :, src_lo:src_hi, :]
            pad_eff = xlo + p - s * dlo
            dx_block = conv2d_backward_data(
                dy_region, wt, stride=s, pad=(pad_eff, p), x_spatial=(xhi - xlo, w)
            )
            np.testing.assert_allclose(
                dx_block, full_dx[:, :, xlo:xhi, :], rtol=1e-10, atol=1e-12
            )


# -- kernel sweeps ----------------------------------------------------------------
# Seeded (``derandomize``), and no ``max_examples``: tier-1 runs a fixed
# 100-example slice, CI's coverage job the 600 of the ``wide`` profile
# (tests/conftest.py).

seeded_sweep = settings(derandomize=True, deadline=None)


def _pairs(lo, hi):
    return st.tuples(st.integers(lo, hi), st.integers(lo, hi))


def _sliced(rng, shape, margin):
    """``shape`` random values as a non-contiguous spatial slice of a larger
    buffer — how ``run_block`` hands pieces of a gathered region over."""
    mh, mw = margin
    ext = rng.standard_normal(shape[:2] + (shape[2] + 2 * mh, shape[3] + 2 * mw))
    return ext[:, :, mh : mh + shape[2], mw : mw + shape[3]]


@st.composite
def backward_data_geometries(draw):
    """Anything the spatial ``_bwd_piece`` path may ask of the kernel:
    rectangular kernels and strides, K < S, left offsets up to two strides
    past K - 1, dx extents that end before or run past what dy reaches, and
    ``dy`` sliced out of a larger gathered region."""
    kh, kw = draw(_pairs(1, 5))
    sh, sw = draw(_pairs(1, 3))
    pad = (draw(st.integers(0, kh - 1 + 2 * sh)), draw(st.integers(0, kw - 1 + 2 * sw)))
    n, c, f = draw(st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(1, 3)))
    dy_shape = (n, f) + draw(_pairs(1, 5))
    x_spatial = draw(_pairs(1, 14))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    dy = _sliced(rng, dy_shape, draw(_pairs(0, 2)))
    wt = rng.standard_normal((f, c, kh, kw))
    return dy, wt, (sh, sw), pad, x_spatial


@st.composite
def forward_geometries(draw):
    """The forward / Eq. 2 side of the same family: rectangular kernels and
    strides, K < S, pads, input rows no window reads, ``x`` and ``dy`` sliced
    out of larger buffers, a ``dy`` covering fewer windows than ``x`` offers
    — and channel counts on both sides of the operand-order rule: 48 -> 48
    channels over a handful of windows (weights the larger GEMM operand)
    next to <= 3 channels over up to 17 x 13 inputs (the patch matrix)."""
    kh, kw = draw(_pairs(1, 5))
    stride = draw(_pairs(1, 3))
    pad = draw(_pairs(0, 2))
    n = draw(st.integers(1, 2))
    if draw(st.booleans()):
        c = f = 48
        h = draw(st.integers(max(1, kh - 2 * pad[0]), 6))
        w = draw(st.integers(max(1, kw - 2 * pad[1]), 6))
    else:
        c, f = draw(_pairs(1, 3))
        h, w = draw(st.integers(5, 17)), draw(st.integers(5, 13))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = _sliced(rng, (n, c, h, w), draw(_pairs(0, 2)))
    wt = rng.standard_normal((f, c, kh, kw))
    oh, ow = conv2d_output_shape((h, w), (kh, kw), stride, pad)
    drop = draw(_pairs(0, 1))
    dy_shape = (n, f, max(1, oh - drop[0]), max(1, ow - drop[1]))
    dy = _sliced(rng, dy_shape, draw(_pairs(0, 2)))
    return x, wt, dy, stride, pad


@seeded_sweep
@given(forward_geometries())
def test_forward_matches_loop_oracle(geometry):
    x, wt, _, stride, pad = geometry
    got = conv2d_forward(x, wt, stride=stride, pad=pad)
    want = naive_conv2d(x, wt, stride, pad)
    assert got.shape == want.shape and got.flags.c_contiguous
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@seeded_sweep
@given(forward_geometries())
def test_backward_filter_matches_loop_oracle(geometry):
    x, wt, dy, stride, pad = geometry
    kernel = wt.shape[2:]
    got = conv2d_backward_filter(x, dy, kernel=kernel, stride=stride, pad=pad)
    want = loop_backward_filter(x, dy, kernel, stride, pad)
    assert got.shape == wt.shape and got.flags.c_contiguous
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@seeded_sweep
@given(backward_data_geometries())
def test_backward_data_matches_loop_oracle(geometry):
    dy, wt, stride, pad, x_spatial = geometry
    got = conv2d_backward_data(dy, wt, stride=stride, pad=pad, x_spatial=x_spatial)
    want = scatter_backward_data(dy, wt, stride, pad, x_spatial)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@seeded_sweep
@given(
    shape=st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(1, 3)),
    hw=_pairs(3, 10),
    kernel=_pairs(1, 5),
    stride=_pairs(1, 3),
    pad=_pairs(0, 3),
)
def test_backward_data_adjoint_sweep(shape, hw, kernel, stride, pad):
    """<dy, conv(x, w)> == <bwd_data(dy, w), x> for rectangular kernels,
    strides and pads, K < S and inputs whose last rows no window reads."""
    (n, c, f), (h, w), (kh, kw) = shape, hw, kernel
    if h + 2 * pad[0] < kh or w + 2 * pad[1] < kw:
        return
    rng = np.random.default_rng(h * 1000 + w * 100 + kh * 10 + kw)
    x = rng.standard_normal((n, c, h, w))
    wt = rng.standard_normal((f, c, kh, kw))
    y = conv2d_forward(x, wt, stride=stride, pad=pad)
    dy = rng.standard_normal(y.shape)
    dx = conv2d_backward_data(dy, wt, stride=stride, pad=pad, x_spatial=(h, w))
    np.testing.assert_allclose((dy * y).sum(), (dx * x).sum(), rtol=1e-9, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 2),
    c=st.integers(1, 3),
    f=st.integers(1, 3),
    h=st.integers(3, 10),
    w=st.integers(3, 10),
    k=st.sampled_from([1, 3, 5]),
    s=st.integers(1, 3),
    p=st.integers(0, 3),
)
def test_conv_adjoint_property(n, c, f, h, w, k, s, p):
    """Adjoint identity over random geometries (skipping empty outputs)."""
    if h + 2 * p < k or w + 2 * p < k:
        return
    rng = np.random.default_rng(n * 1000 + h * 100 + w * 10 + k)
    x = rng.standard_normal((n, c, h, w))
    wt = rng.standard_normal((f, c, k, k))
    y = conv2d_forward(x, wt, stride=s, pad=p)
    dy = rng.standard_normal(y.shape)
    dx = conv2d_backward_data(dy, wt, stride=s, pad=p, x_spatial=(h, w))
    dw = conv2d_backward_filter(x, dy, kernel=k, stride=s, pad=p)
    np.testing.assert_allclose((dy * y).sum(), (dx * x).sum(), rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose((dy * y).sum(), (dw * wt).sum(), rtol=1e-9, atol=1e-9)


# -- allocation guard -------------------------------------------------------------


@pytest.mark.parametrize("kernel_call", ["forward", "backward_data", "backward_filter"])
def test_weights_dominant_kernels_copy_no_weight_sized_array(kernel_call):
    """128 -> 128 channels, 3x3, over 8 output positions: ``w`` is 1.18 MB
    and every activation a few KB.  No kernel may allocate half of
    ``w.nbytes`` beyond the array it returns — a transposed or flipped copy
    of the weights is the regression a clock can only show as noise."""
    import tracemalloc

    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 128, 4, 4))  # 2x2 outputs, halo included
    wt = rng.standard_normal((128, 128, 3, 3))
    dy = rng.standard_normal((2, 128, 2, 2))
    call = {
        "forward": lambda: conv2d_forward(x, wt),
        "backward_data": lambda: conv2d_backward_data(dy, wt, pad=1, x_spatial=(2, 2)),
        "backward_filter": lambda: conv2d_backward_filter(x, dy, kernel=3),
    }[kernel_call]
    call()  # warm-up: one-time imports and caches are not the kernel's
    tracemalloc.start()
    try:
        out = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < wt.nbytes / 2
