"""Distributed pooling, batch norm, ReLU, add, GAP, FC, and loss layers.

"The extension to an entire CNN is relatively straightforward.  Each
convolutional layer can be parallelized as above.  Pooling layers are
parallelized similarly.  Element-wise operations such as ReLUs parallelize
trivially regardless of distribution." (§III-B)

A layer is a window geometry and a kernel: pooling shares convolution's
region algebra (:mod:`repro.core.window`) and its interior / ``finish()`` /
boundary sequence (:func:`~repro.core.dist_conv.run_block`) over the window
and started exchange the network hands it, and its backward scatter-add —
which the network runs — is the forward gather's plan read backwards.

No layer here picks a group to communicate over: batch-norm statistics,
global average pooling and the loss are collectives of the lowered step
(:func:`repro.core.schedule.lower` decides the grid axes each spans, and so
§III-B's choice of statistics), and each layer is handed its op's
sub-communicator, or ``None``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn import functional as F
from repro.comm.communicator import Communicator
from repro.tensor.dist_tensor import DistTensor
from repro.tensor.grid import ProcessGrid
from repro.tensor.halo import RegionExchange
from repro.core.parallelism import activation_dist
from repro.core.dist_conv import run_block
from repro.core.window import WindowGeometry


class DistPool2d:
    """Distributed max/average pooling.

    A window geometry and a kernel, like convolution: forward reads the
    same dependency region; backward computes gradients on that extended
    region, which the network *scatter-adds* back to their owners (windows
    straddling a partition boundary contribute to a neighbor's cells — the
    reverse halo exchange).

    Forward runs the one sequence of
    :func:`~repro.core.dist_conv.run_block` over the geometry and gather the
    network hands it, reading its small region staged whole in a fresh
    buffer each step: interior windows — those reading only locally owned
    input (or virtual padding) — are computed while the halo strips travel,
    boundary strips after ``finish()``.  Pooling windows are reduced per
    output element, so the piecewise kernels are bitwise identical to one
    fused kernel.  The backward scatter-add
    (:meth:`~repro.tensor.dist_tensor.DistTensor.start_scatter_region_add`,
    started by :class:`~repro.core.dist_network.DistNetwork` when the
    schedule has a reverse :class:`~repro.core.schedule.HaloOp`) is the
    forward gather's plan read backwards: it sends the boundary strips to
    the ranks the forward received from, accumulates the rank's own
    contribution — the bulk of the error signal — while they travel, and
    folds the remote contributions in on ``finish()`` (own first, then
    ascending comm rank, whatever order they arrive in).
    """

    #: Stages its whole region: its kernels take no virtual padding.
    in_place = False

    def __init__(
        self,
        grid: ProcessGrid,
        mode: str,
        kernel,
        stride=None,
        pad=0,
    ) -> None:
        if mode not in ("max", "avg"):
            raise ValueError(f"unknown pooling mode {mode!r}")
        self.grid = grid
        self.mode = mode
        self.kernel = F._pair(kernel)
        self.stride = F._pair(stride if stride is not None else kernel)
        self.pad = F._pair(pad)
        #: Virtual padding of the gathered input: max pooling must not let
        #: it win.
        self.fill = -np.inf if mode == "max" else 0.0

    def output_global_shape(self, x_shape: tuple[int, ...]) -> tuple[int, ...]:
        n, c, h, w = x_shape
        oh, ow = F.conv2d_output_shape((h, w), self.kernel, self.stride, self.pad)
        return (n, c, oh, ow)

    def _pool_piece(self, xs, virtual, g: WindowGeometry, rows, cols) -> tuple:
        """Pool output rows/cols from their slice ``xs`` of the staged
        region (``virtual`` is always 0: the padding is staged): ``(y,)``,
        or ``(y, argmax)`` for max pooling (in-window flat indices, so
        offset-free).  Window reductions are per output element, so
        piecewise evaluation is bitwise identical to the fused kernel."""
        if self.mode == "max":
            return F.maxpool2d_forward(xs, self.kernel, self.stride, 0)
        return (F.avgpool2d_forward(xs, self.kernel, self.stride, 0),)

    def forward(
        self, x: DistTensor, g: WindowGeometry, ex: RegionExchange | None
    ) -> tuple[DistTensor, tuple]:
        """``g``, ``ex`` and the returned ``(output, saved)`` as in
        :meth:`~repro.core.dist_conv.DistConv2d.forward`; backward reads
        only the region's shape (and the argmax)."""
        for d in (2, 3):
            if x.dist.is_split(d) and not g.dist.is_split(d):
                raise ValueError(
                    "pooling output too small for the spatial decomposition "
                    f"(axis {d}: {g.shape[d]} rows over {self.grid.shape[d]} "
                    "parts); assign this layer a smaller spatial parallelism"
                )
        outs, _ = run_block(
            self._pool_piece, x, g, ex,
            (x.dtype, np.int64) if self.mode == "max" else (x.dtype,),
            fill=self.fill,
        )
        argmax = outs[1] if self.mode == "max" else None
        return DistTensor(self.grid, g.dist, g.shape, outs[0]), (g.plan.shape, argmax)

    def backward(self, dy: DistTensor, saved: tuple) -> np.ndarray:
        """The error signal over the forward's extended input region (its
        virtual padding included), for the network to scatter-add to the
        region's owners."""
        shape, argmax = saved
        if self.mode == "max":
            return F.maxpool2d_backward(dy.local, argmax, shape, self.kernel, self.stride, 0)
        return F.avgpool2d_backward(dy.local, shape, self.kernel, self.stride, 0)


class DistBatchNorm:
    """Distributed batch normalization (§III-B).

    A training forward is handed the communicator of its statistics group
    and the grid ``axes`` it spans (``None``, ``()``: the local shard's).
    A group costs two collectives per step: one allreduce of the stacked
    ``(sum, sum of squares)`` in forward and one of the stacked ``(dgamma,
    dbeta)`` in backward (only when ``dx`` is needed).  The reduction is element-wise,
    so stacking moves no bit, and the size of the normalization set is not
    communicated: it is the global extent on ``axes``, the local elsewhere.
    """

    def __init__(
        self,
        grid: ProcessGrid,
        gamma: np.ndarray,
        beta: np.ndarray,
        eps: float = 1e-5,
        momentum: float = 0.9,
    ) -> None:
        self.grid = grid
        self.gamma = gamma
        self.beta = beta
        self.eps = eps
        self.momentum = momentum
        self.running_mean = np.zeros_like(gamma)
        self.running_var = np.ones_like(gamma)

    def forward(
        self, x: DistTensor, training: bool = True, comm: Communicator | None = None, axes=()
    ) -> tuple[DistTensor, tuple | None]:
        """``(output, saved)``: ``saved`` is what backward reads, ``None``
        after an evaluation forward — the training-mode formula (and its
        count) does not apply to running statistics."""
        if not training:
            y_local, _ = F.batchnorm_forward(
                x.local, self.gamma, self.beta, eps=self.eps,
                mean=self.running_mean, var=self.running_var,
            )
            return DistTensor(self.grid, x.dist, x.global_shape, y_local), None
        s, ss, _ = F.batchnorm_stats(x.local)
        if comm is not None:
            s, ss = comm.allreduce(np.stack((s, ss)))
        count = float(
            math.prod((x.global_shape if d in axes else x.local.shape)[d] for d in (0, 2, 3))
        )
        mean = s / count
        var = ss / count - mean**2
        mom = self.momentum
        self.running_mean = mom * self.running_mean + (1 - mom) * mean
        self.running_var = mom * self.running_var + (1 - mom) * var
        y_local, bn_cache = F.batchnorm_forward(
            x.local, self.gamma, self.beta, eps=self.eps, mean=mean, var=var
        )
        return DistTensor(self.grid, x.dist, x.global_shape, y_local), (bn_cache, count)

    def backward(
        self, dy: DistTensor, saved: tuple, need_dx: bool = True,
        comm: Communicator | None = None,
    ) -> tuple[DistTensor | None, np.ndarray, np.ndarray]:
        """Returns ``(dx, dgamma_partial, dbeta_partial)``; the partials
        still need the layer-gradient allreduce (like conv's ``dw``).
        ``comm`` is the forward's statistics group.  ``need_dx=False`` (the
        network passes it when the parent needs no error signal) skips
        ``dx`` and the statistics allreduce only it uses, and returns
        ``None`` in its place."""
        bn_cache, count = saved
        local_dgamma, local_dbeta = F.batchnorm_backward_sums(dy.local, bn_cache)
        if not need_dx:
            return None, local_dgamma, local_dbeta
        dg, db = local_dgamma, local_dbeta
        if comm is not None:
            dg, db = comm.allreduce(np.stack((dg, db)))
        dx_local = F.batchnorm_backward_data(dy.local, bn_cache, dg, db, count)
        dx = DistTensor(self.grid, dy.dist, dy.global_shape, dx_local)
        return dx, local_dgamma, local_dbeta


class DistReLU:
    """Element-wise, so 'parallelizes trivially regardless of distribution'."""

    def __init__(self, grid: ProcessGrid) -> None:
        self.grid = grid

    def forward(self, x: DistTensor) -> tuple[DistTensor, np.ndarray]:
        y_local, mask = F.relu_forward(x.local)
        return DistTensor(self.grid, x.dist, x.global_shape, y_local), mask

    def backward(self, dy: DistTensor, mask: np.ndarray) -> DistTensor:
        return DistTensor(
            self.grid, dy.dist, dy.global_shape, F.relu_backward(dy.local, mask)
        )


class DistAdd:
    """Element-wise sum of identically distributed parents (residual join)."""

    def __init__(self, grid: ProcessGrid) -> None:
        self.grid = grid

    def forward(self, *xs: DistTensor) -> DistTensor:
        first = xs[0]
        for x in xs[1:]:
            if x.dist != first.dist or x.global_shape != first.global_shape:
                raise ValueError("DistAdd parents must share shape and distribution")
        out = first.local.copy()
        for x in xs[1:]:
            out += x.local
        return DistTensor(self.grid, first.dist, first.global_shape, out)


class DistGlobalAvgPool:
    """Global average pooling: local spatial sums + an allreduce over
    ``comm``, the spatial group; the (N, C, 1, 1) output is replicated over
    the spatial axes so no rank holds an empty shard."""

    def __init__(self, grid: ProcessGrid) -> None:
        self.grid = grid

    def forward(
        self, x: DistTensor, comm: Communicator | None = None
    ) -> tuple[DistTensor, tuple]:
        n, c, h, w = x.global_shape
        local_sum = x.local.sum(axis=(2, 3))
        if comm is not None:
            local_sum = comm.allreduce(local_sum)
        y_local = (local_sum / (h * w))[:, :, None, None]
        y_shape = (n, c, 1, 1)
        y_dist = activation_dist(self.grid.shape, y_shape)
        # Backward reads only the input's placement, not its values.
        saved = (x.dist, x.global_shape, x.local.shape)
        return DistTensor(self.grid, y_dist, y_shape, y_local), saved

    def backward(self, dy: DistTensor, saved: tuple) -> DistTensor:
        dist, shape, local_shape = saved
        n, c, h, w = shape
        # d/dx of the mean spreads dy/(H*W) uniformly; every spatial replica
        # of dy is identical, so each rank fills its own block directly.
        grad = dy.local[:, :, 0, 0][:, :, None, None] / (h * w)
        dx_local = np.broadcast_to(grad, local_shape).copy()
        return DistTensor(self.grid, dist, shape, dx_local)


class DistFC:
    """Sample-parallel fully connected layer (weights replicated).

    The paper's *model-parallel* FC (an Elemental-style distributed GEMM, a
    filter split) is not implemented.  Activations must not be spatially
    split (shuffle to a sample-only distribution first, as LBANN does
    before FC layers).
    """

    def __init__(
        self, grid: ProcessGrid, weights: np.ndarray, bias: np.ndarray | None
    ) -> None:
        self.grid = grid
        self.w = weights
        self.bias = bias

    def forward(self, x: DistTensor) -> tuple[DistTensor, tuple]:
        if any(x.dist.is_split(d) for d in (1, 2, 3)):
            raise ValueError(
                "DistFC requires sample-only input distribution; shuffle first"
            )
        flat = x.local.reshape(x.local.shape[0], -1)
        y_local = F.linear_forward(flat, self.w, self.bias)[:, :, None, None]
        n = x.global_shape[0]
        y_shape = (n, self.w.shape[0], 1, 1)
        y_dist = activation_dist(self.grid.shape, y_shape)
        return DistTensor(self.grid, y_dist, y_shape, y_local), (flat, x)

    def backward(
        self, dy: DistTensor, saved: tuple, need_dx: bool = True
    ) -> tuple[DistTensor | None, np.ndarray, np.ndarray | None]:
        """Returns ``(dx, dw_partial, db_partial)``; ``dx`` is ``None`` when
        the parent needs no error signal (``need_dx=False``)."""
        flat, x = saved
        dflat, dw, db = F.linear_backward(
            flat, self.w, dy.local[:, :, 0, 0], need_dx=need_dx
        )
        dx = (
            DistTensor(self.grid, x.dist, x.global_shape, dflat.reshape(x.local.shape))
            if need_dx
            else None
        )
        return dx, dw, (db if self.bias is not None else None)


class _DistLoss:
    """A loss layer: each rank evaluates its own block, the sum is completed
    by an allreduce over ``comm`` (``None``: nothing to complete).
    ``forward_loss`` returns ``(loss, seed)``: the error signal of the
    logits, which seeds backward — ``None`` without ``need_seed`` (a
    forward no backward follows)."""

    def __init__(self, grid: ProcessGrid) -> None:
        self.grid = grid

    def _mean(self, logits, loss, dlogits, terms, comm, count) -> tuple[float, DistTensor | None]:
        """The mean over ``count`` terms from this rank's mean ``loss`` over
        its ``terms``, and ``dlogits`` weighted the same way as the seed."""
        local_sum = loss * terms
        if comm is not None:
            local_sum = comm.allreduce(np.array([local_sum]))[0]
        seed = None
        if dlogits is not None:
            dlogits = (dlogits * terms / count).reshape(logits.local.shape)
            seed = DistTensor(self.grid, logits.dist, logits.global_shape, dlogits)
        return float(local_sum) / count, seed


class DistSoftmaxCrossEntropy(_DistLoss):
    """Mean softmax cross-entropy over the global mini-batch.

    Each rank evaluates its local samples against its slice of the labels;
    the loss is completed over ``comm``, the sample group.
    """

    def forward_loss(
        self, logits: DistTensor, labels: np.ndarray, comm: Communicator | None = None,
        need_seed: bool = True,
    ) -> tuple[float, DistTensor | None]:
        (n_lo, n_hi) = logits.bounds[0]
        flat = logits.local.reshape(logits.local.shape[0], -1)
        loss, dlogits = F.softmax_cross_entropy(flat, labels[n_lo:n_hi], need_grad=need_seed)
        return self._mean(logits, loss, dlogits, flat.shape[0], comm, logits.global_shape[0])


class DistBCEWithLogits(_DistLoss):
    """Per-pixel binary cross-entropy (the mesh-tangling loss).

    Targets are supplied globally; each rank slices its block.  The mean is
    completed over ``comm``, every split axis.
    """

    def forward_loss(
        self, logits: DistTensor, targets: np.ndarray, comm: Communicator | None = None,
        need_seed: bool = True,
    ) -> tuple[float, DistTensor | None]:
        b = logits.bounds
        t_local = np.asarray(targets, dtype=logits.dtype)[
            b[0][0] : b[0][1], b[1][0] : b[1][1], b[2][0] : b[2][1], b[3][0] : b[3][1]
        ]
        loss, dlogits = F.sigmoid_bce_with_logits(logits.local, t_local, need_grad=need_seed)
        count = float(np.prod(logits.global_shape))
        return self._mean(logits, loss, dlogits, logits.local.size, comm, count)
