"""Distributed pooling, batch norm, ReLU, add, GAP, FC, and loss layers.

"The extension to an entire CNN is relatively straightforward.  Each
convolutional layer can be parallelized as above.  Pooling layers are
parallelized similarly.  Element-wise operations such as ReLUs parallelize
trivially regardless of distribution." (§III-B)

A layer is a window geometry and a kernel: pooling shares convolution's
region algebra (:mod:`repro.core.window`) and its post-halo / interior /
``finish()`` / boundary sequence (:func:`~repro.core.dist_conv.run_block`),
and its backward scatter-add is the forward gather's plan read backwards.

Batch normalization offers the paper's design choice explicitly: purely
local statistics, statistics aggregated over the spatial group of each
sample ("a variant that aggregates over the spatial distribution of a
sample"), or fully global statistics (which exactly replicates single-device
training and is what the exactness tests use).
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.comm.buffers import BufferPool
from repro.tensor.dist_tensor import DistTensor
from repro.tensor.grid import ProcessGrid
from repro.core.parallelism import activation_dist
from repro.core.dist_conv import run_block, start_gather
from repro.core.window import WindowGeometry, window_geometry


class DistPool2d:
    """Distributed max/average pooling.

    A window geometry and a kernel, like convolution: forward gathers the
    same dependency region; backward computes gradients on the extended
    region and *scatter-adds* them back to their owners (windows straddling
    a partition boundary contribute to a neighbor's cells — the reverse
    halo exchange).

    One implementation per transfer; ``overlap_halo`` only moves the
    forward exchange's ``finish()``.  Forward runs the one sequence of
    :func:`~repro.core.dist_conv.run_block`: interior windows — those reading
    only locally owned input (or virtual padding) — are computed while the
    halo strips travel, boundary strips after ``finish()``; with
    ``overlap_halo=False`` the ``finish()`` comes right after the start and
    the same pieces run.  Pooling windows are reduced per output element,
    so the piecewise kernels are bitwise identical to one fused kernel.
    Backward's scatter-add (:meth:`~repro.tensor.dist_tensor.DistTensor.
    start_scatter_region_add`) is the forward gather's plan read backwards:
    it sends the boundary strips to the ranks the forward received from,
    accumulates the rank's own contribution — the bulk of the error signal
    — while they travel, and folds the remote contributions in on
    ``finish()`` (own first, then ascending comm rank); nothing else can
    run in between, so it is the same in both modes.
    """

    def __init__(
        self,
        grid: ProcessGrid,
        mode: str,
        kernel,
        stride=None,
        pad=0,
        overlap_halo: bool = True,
    ) -> None:
        if mode not in ("max", "avg"):
            raise ValueError(f"unknown pooling mode {mode!r}")
        self.grid = grid
        self.mode = mode
        self.kernel = F._pair(kernel)
        self.stride = F._pair(stride if stride is not None else kernel)
        self.pad = F._pair(pad)
        self.overlap_halo = bool(overlap_halo)
        self._cache: dict = {}
        # Recycles the gathered extended region, the halo send strips and
        # the scatter-add contribution payloads across steps.
        self._pool = BufferPool()
        self._geom: dict = {}

    def output_global_shape(self, x_shape: tuple[int, ...]) -> tuple[int, ...]:
        n, c, h, w = x_shape
        oh, ow = F.conv2d_output_shape((h, w), self.kernel, self.stride, self.pad)
        return (n, c, oh, ow)

    def _geometry(self, x: DistTensor) -> WindowGeometry:
        key = (x.global_shape, x.dist)
        g = self._geom.get(key)
        if g is None:
            y_shape = self.output_global_shape(x.global_shape)
            y_dist = activation_dist(self.grid.shape, y_shape)
            for d in (2, 3):
                if x.dist.is_split(d) and not y_dist.is_split(d):
                    raise ValueError(
                        "pooling output too small for the spatial decomposition "
                        f"(axis {d}: {y_shape[d]} rows over {self.grid.shape[d]} "
                        "parts); assign this layer a smaller spatial parallelism"
                    )
            # Pooling keeps its channel block, so the gathered region's
            # dim-1 slot comes from the output bounds.
            g = self._geom[key] = window_geometry(
                x, y_dist, y_shape, self.kernel, self.stride, self.pad,
                lambda coords: y_dist.local_bounds(y_shape, coords)[1],
            )
        return g

    def _pool_piece(self, x_ext, g: WindowGeometry, rows, cols) -> tuple:
        """Pool output rows/cols from their slice of ``x_ext``: ``(y,)``,
        or ``(y, argmax)`` for max pooling (in-window flat indices, so
        offset-free).  Window reductions are per output element, so
        piecewise evaluation is bitwise identical to the fused kernel."""
        xs = x_ext[g.source_index(rows, cols)]
        if self.mode == "max":
            return F.maxpool2d_forward(xs, self.kernel, self.stride, 0)
        return (F.avgpool2d_forward(xs, self.kernel, self.stride, 0),)

    def forward(self, x: DistTensor) -> DistTensor:
        g = self._geometry(x)
        # Max pooling must not let virtual padding win: fill with -inf.
        fill = -np.inf if self.mode == "max" else 0.0
        ex = start_gather(x, g, self._pool, self.overlap_halo, fill=fill)
        outs, x_ext = run_block(
            self._pool_piece, x, g, ex, self._pool,
            (x.dtype, np.int64) if self.mode == "max" else (x.dtype,),
            fill=fill,
        )
        y_local = outs[0]
        self._cache = {
            "geom": g, "x": x, "argmax": outs[1] if self.mode == "max" else None
        }
        self._pool.give(x_ext)  # backward needs only its shape (and argmax)
        return DistTensor(self.grid, g.dist, g.shape, y_local)

    def backward(self, dy: DistTensor) -> DistTensor:
        cache = self._cache
        if not cache:
            raise RuntimeError("backward() before forward()")
        g: WindowGeometry = cache["geom"]
        x: DistTensor = cache["x"]
        if self.mode == "max":
            dx_ext = F.maxpool2d_backward(
                dy.local, cache["argmax"], g.plan.shape,
                self.kernel, self.stride, 0,
            )
        else:
            dx_ext = F.avgpool2d_backward(
                dy.local, g.plan.shape, self.kernel, self.stride, 0
            )
        dx = DistTensor.zeros(x.grid, x.dist, x.global_shape, dtype=dy.dtype)
        # The forward gather read backwards: send the boundary strips,
        # accumulate our own contribution while they travel, fold in the
        # remote ones on finish.
        dx.start_scatter_region_add(
            dx_ext, g.lo, pool=self._pool, plan=g.plan
        ).finish()
        # Replicated output dims mean every replica scattered identical
        # contributions into disjoint replica groups — already consistent.
        return dx


class DistBatchNorm:
    """Distributed batch normalization with selectable aggregation (§III-B).

    * ``aggregate='local'``  — statistics over the local shard only ("batch
      normalization is typically computed locally on each processor");
    * ``aggregate='spatial'`` — allreduce statistics over the spatial group,
      so each sample group normalizes over complete samples;
    * ``aggregate='global'`` — allreduce over every rank holding distinct
      data: statistics over the full mini-batch, exactly replicating
      single-device batch norm.

    An aggregating layer costs two collectives per step: one allreduce of
    the stacked ``(sum, sum of squares)`` in forward and one of the stacked
    ``(dgamma, dbeta)`` in backward (the latter only when ``dx`` is
    needed).  The reduction is element-wise, so stacking moves no bit, and
    the size of the normalization set is not communicated at all — every
    rank derives it from the global shape.
    """

    AGGREGATES = ("local", "spatial", "global")

    def __init__(
        self,
        grid: ProcessGrid,
        gamma: np.ndarray,
        beta: np.ndarray,
        aggregate: str = "global",
        eps: float = 1e-5,
        momentum: float = 0.9,
    ) -> None:
        if aggregate not in self.AGGREGATES:
            raise ValueError(
                f"aggregate must be one of {self.AGGREGATES}, got {aggregate!r}"
            )
        self.grid = grid
        self.gamma = gamma
        self.beta = beta
        self.aggregate = aggregate
        self.eps = eps
        self.momentum = momentum
        self.running_mean = np.zeros_like(gamma)
        self.running_var = np.ones_like(gamma)
        self._cache: dict = {}

    def _stats_comm(self, dist):
        """Communicator over which statistics are aggregated."""
        if self.aggregate == "local":
            return None
        if self.aggregate == "spatial":
            axes = [d for d in (2, 3) if dist.is_split(d)]
        else:  # global: every axis along which data is partitioned
            axes = [d for d in (0, 2, 3) if dist.is_split(d)]
        if not axes:
            return None
        return self.grid.axes_comm(axes)

    def forward(self, x: DistTensor, training: bool = True) -> DistTensor:
        if not training:
            y_local, _ = F.batchnorm_forward(
                x.local, self.gamma, self.beta, eps=self.eps,
                mean=self.running_mean, var=self.running_var,
            )
            # Nothing to backpropagate through: the training-mode formula
            # (and its count) does not apply to running statistics.
            self._cache = {"bn": None}
            return DistTensor(self.grid, x.dist, x.global_shape, y_local)
        s, ss, count = F.batchnorm_stats(x.local)
        comm = self._stats_comm(x.dist)
        if comm is not None:
            s, ss = comm.allreduce(np.stack((s, ss)))
            # The group's element count, from shapes: it spans the whole
            # spatial extent and, for "global", the whole mini-batch.
            n, _, h, w = x.global_shape
            if self.aggregate == "spatial":
                n = x.local.shape[0]
            count = float(n * h * w)
        mean = s / count
        var = ss / count - mean**2
        mom = self.momentum
        self.running_mean = mom * self.running_mean + (1 - mom) * mean
        self.running_var = mom * self.running_var + (1 - mom) * var
        y_local, bn_cache = F.batchnorm_forward(
            x.local, self.gamma, self.beta, eps=self.eps, mean=mean, var=var
        )
        self._cache = {"bn": bn_cache, "count": count, "dist": x.dist}
        return DistTensor(self.grid, x.dist, x.global_shape, y_local)

    def backward(
        self, dy: DistTensor, need_dx: bool = True
    ) -> tuple[DistTensor | None, np.ndarray, np.ndarray]:
        """Returns ``(dx, dgamma_partial, dbeta_partial)``; the partials
        still need the layer-gradient allreduce (like conv's ``dw``).
        ``need_dx=False`` (the network passes it when the parent needs no
        error signal) skips ``dx`` and the statistics allreduces only it
        uses, and returns ``None`` in its place."""
        cache = self._cache
        if not cache:
            raise RuntimeError("backward() before forward()")
        if cache["bn"] is None:
            raise RuntimeError("backward() after an evaluation forward")
        local_dgamma, local_dbeta = F.batchnorm_backward_sums(dy.local, cache["bn"])
        if not need_dx:
            return None, local_dgamma, local_dbeta
        dg, db = local_dgamma, local_dbeta
        comm = self._stats_comm(cache["dist"])
        if comm is not None:
            dg, db = comm.allreduce(np.stack((dg, db)))
        dx_local = F.batchnorm_backward_data(
            dy.local, cache["bn"], dg, db, cache["count"]
        )
        dx = DistTensor(self.grid, dy.dist, dy.global_shape, dx_local)
        return dx, local_dgamma, local_dbeta


class DistReLU:
    """Element-wise, so 'parallelizes trivially regardless of distribution'."""

    def __init__(self, grid: ProcessGrid) -> None:
        self.grid = grid
        self._mask: np.ndarray | None = None

    def forward(self, x: DistTensor) -> DistTensor:
        y_local, self._mask = F.relu_forward(x.local)
        return DistTensor(self.grid, x.dist, x.global_shape, y_local)

    def backward(self, dy: DistTensor) -> DistTensor:
        if self._mask is None:
            raise RuntimeError("backward() before forward()")
        return DistTensor(
            self.grid, dy.dist, dy.global_shape, F.relu_backward(dy.local, self._mask)
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
    """Global average pooling: local spatial sums + allreduce over the
    spatial group; the (N, C, 1, 1) output is replicated over the spatial
    axes so no rank holds an empty shard."""

    def __init__(self, grid: ProcessGrid) -> None:
        self.grid = grid
        self._cache: dict = {}

    def forward(self, x: DistTensor) -> DistTensor:
        n, c, h, w = x.global_shape
        local_sum = x.local.sum(axis=(2, 3))
        axes = [d for d in (2, 3) if x.dist.is_split(d)]
        if axes:
            comm = self.grid.axes_comm(axes)
            local_sum = comm.allreduce(local_sum)
        y_local = (local_sum / (h * w))[:, :, None, None]
        y_shape = (n, c, 1, 1)
        y_dist = activation_dist(self.grid.shape, y_shape)
        self._cache = {"x": x}
        return DistTensor(self.grid, y_dist, y_shape, y_local)

    def backward(self, dy: DistTensor) -> DistTensor:
        x: DistTensor = self._cache["x"]
        n, c, h, w = x.global_shape
        # d/dx of the mean spreads dy/(H*W) uniformly; every spatial replica
        # of dy is identical, so each rank fills its own block directly.
        grad = dy.local[:, :, 0, 0][:, :, None, None] / (h * w)
        dx_local = np.broadcast_to(grad, x.local.shape).copy()
        return DistTensor(self.grid, x.dist, x.global_shape, dx_local)


class DistFC:
    """Sample-parallel fully connected layer (weights replicated).

    The paper's *model-parallel* FC (Elemental-style distributed GEMM) is
    equivalent to a filter-parallel 1x1 convolution, provided by
    :mod:`repro.core.channel_filter`; cost-wise it is modeled in
    :mod:`repro.perfmodel`.  Here activations must not be spatially split
    (shuffle to a sample-only distribution first, as LBANN does before FC
    layers).
    """

    def __init__(
        self, grid: ProcessGrid, weights: np.ndarray, bias: np.ndarray | None
    ) -> None:
        self.grid = grid
        self.w = weights
        self.bias = bias
        self._cache: dict = {}

    def forward(self, x: DistTensor) -> DistTensor:
        if any(x.dist.is_split(d) for d in (1, 2, 3)):
            raise ValueError(
                "DistFC requires sample-only input distribution; shuffle first"
            )
        flat = x.local.reshape(x.local.shape[0], -1)
        y_local = F.linear_forward(flat, self.w, self.bias)[:, :, None, None]
        n = x.global_shape[0]
        y_shape = (n, self.w.shape[0], 1, 1)
        y_dist = activation_dist(self.grid.shape, y_shape)
        self._cache = {"flat": flat, "x": x}
        return DistTensor(self.grid, y_dist, y_shape, y_local)

    def backward(
        self, dy: DistTensor, need_dx: bool = True
    ) -> tuple[DistTensor | None, np.ndarray, np.ndarray | None]:
        """Returns ``(dx, dw_partial, db_partial)``; ``dx`` is ``None`` when
        the parent needs no error signal (``need_dx=False``)."""
        flat = self._cache["flat"]
        x: DistTensor = self._cache["x"]
        dflat, dw, db = F.linear_backward(
            flat, self.w, dy.local[:, :, 0, 0], need_dx=need_dx
        )
        dx = (
            DistTensor(self.grid, x.dist, x.global_shape, dflat.reshape(x.local.shape))
            if need_dx
            else None
        )
        return dx, dw, (db if self.bias is not None else None)


class DistSoftmaxCrossEntropy:
    """Mean softmax cross-entropy over the global mini-batch.

    Each rank evaluates its local samples against its slice of the labels;
    the scalar loss is completed with an allreduce over the sample axis.
    """

    def __init__(self, grid: ProcessGrid) -> None:
        self.grid = grid
        self._cache: dict = {}

    def forward_loss(self, logits: DistTensor, labels: np.ndarray) -> float:
        n_global = logits.global_shape[0]
        (n_lo, n_hi) = logits.bounds[0]
        local_labels = labels[n_lo:n_hi]
        flat = logits.local.reshape(logits.local.shape[0], -1)
        if flat.shape[0] > 0:
            local_loss_sum, dlogits = F.softmax_cross_entropy(flat, local_labels)
            local_loss_sum *= flat.shape[0]
            dlogits = dlogits * flat.shape[0] / n_global
        else:  # pragma: no cover - empty shard edge case
            local_loss_sum, dlogits = 0.0, np.zeros_like(flat)
        # Sum each sample's loss exactly once: reduce over the sample axis.
        axes = [d for d in (0,) if logits.dist.is_split(d)]
        total = local_loss_sum
        if axes:
            total = self.grid.axes_comm(axes).allreduce(local_loss_sum)
        self._cache = {
            "dlogits": dlogits.reshape(logits.local.shape),
            "logits": logits,
        }
        return float(total) / n_global

    def backward(self) -> DistTensor:
        logits: DistTensor = self._cache["logits"]
        return DistTensor(
            self.grid, logits.dist, logits.global_shape, self._cache["dlogits"]
        )


class DistBCEWithLogits:
    """Per-pixel binary cross-entropy (the mesh-tangling loss).

    Targets are supplied globally; each rank slices its block.  The mean is
    completed by an allreduce over all split axes.
    """

    def __init__(self, grid: ProcessGrid) -> None:
        self.grid = grid
        self._cache: dict = {}

    def forward_loss(self, logits: DistTensor, targets: np.ndarray) -> float:
        b = logits.bounds
        t_local = np.asarray(targets, dtype=logits.dtype)[
            b[0][0] : b[0][1], b[1][0] : b[1][1], b[2][0] : b[2][1], b[3][0] : b[3][1]
        ]
        count_global = float(np.prod(logits.global_shape))
        if logits.local.size:
            local_loss, dlogits = F.sigmoid_bce_with_logits(logits.local, t_local)
            local_sum = local_loss * logits.local.size
            dlogits = dlogits * logits.local.size / count_global
        else:  # pragma: no cover
            local_sum, dlogits = 0.0, np.zeros_like(logits.local)
        axes = [d for d in range(4) if logits.dist.is_split(d)]
        total = local_sum
        if axes:
            total = self.grid.axes_comm(axes).allreduce(local_sum)
        self._cache = {"dlogits": dlogits, "logits": logits}
        return float(total) / count_global

    def backward(self) -> DistTensor:
        logits: DistTensor = self._cache["logits"]
        return DistTensor(
            self.grid, logits.dist, logits.global_shape, self._cache["dlogits"]
        )
