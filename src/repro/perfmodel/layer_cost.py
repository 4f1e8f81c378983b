"""Per-layer cost model: FP, BPx, BPw with halo terms (paper §V-A).

For a convolutional layer under distribution D, with local extents I_N,
I_C, I_H, I_W:

    FP  = C(I_N, I_C, I_H, I_W, I_F) + halo
    BPx = C_x(...) + halo (on dL/dy)
    BPw = C_w(...)

The paper writes the halo as ``2 SR(O I_N I_C I_H) + 2 SR(O I_N I_C I_W) +
4 SR(O^2 I_N I_C)`` with O = floor(K/2).  That is what a halo op's plan
reduces to for stride 1 and symmetric padding on a rank with neighbours on
every side; here the halo is not a formula but the layer's
:class:`~repro.core.schedule.HaloOp`, whose receive boxes are the plan the
engine executes (:func:`~repro.core.window.window_geometry`).
:class:`~repro.perfmodel.network_cost.NetworkCostModel` prices each op and
fills in the halo seconds and the interior/boundary split of its window;
the functions here price the kernels over the region a window gathers.
BPa, the dL/dw allreduce, is priced per gradient bucket, and a layer's
blocking collectives per schedule op.

"If the implementation supports it, the halo exchanges can be overlapped
with interior computation" — the engine always does, and the cost follows
its decomposition: a fraction ``beta`` of the kernel (the boundary pieces of
the window) waits for the halo, while the interior ``1 - beta`` runs
concurrently with the exchange:

    FP  = max((1-beta) C, halo) + beta C + boundary launches
    BP  = max(C_w + (1-beta) C_x, halo) + beta C_x + boundary launches
          (the error-signal halo hides inside the filter convolution *and*
          the interior data convolution, §IV-A)

A layer without a halo op has ``beta = 1`` and no launches, which is the
serialized cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.perfmodel.conv_model import ConvGeometry
from repro.perfmodel.machine import MachineSpec
from repro.tensor.indexing import block_size
from repro.core.parallelism import LayerParallelism
from repro.core.window import WindowGeometry


@dataclass(frozen=True)
class ConvLayerCost:
    """Cost components (seconds) of one layer on the critical path."""

    fp_compute: float
    bpx_compute: float = 0.0
    bpw_compute: float = 0.0
    #: The layer's forward / backward halo op, priced (0: no op).
    fp_halo: float = 0.0
    bpx_halo: float = 0.0
    #: Share of each direction's kernel that waits for its halo, and the
    #: extra launches of its boundary kernels (§IV-A).  1 and 0 when the
    #: direction is not decomposed.
    boundary_fraction: float = 1.0
    bpx_boundary_fraction: float = 1.0
    boundary_launch: float = 0.0
    bpx_boundary_launch: float = 0.0

    def fp_time(self) -> float:
        """FP, the halo exchange overlapped with the interior kernel."""
        interior = self.fp_compute * (1.0 - self.boundary_fraction)
        boundary = self.fp_compute - interior
        return max(interior, self.fp_halo) + boundary + self.boundary_launch

    def bp_time(self) -> float:
        """BPx + BPw, the error-signal halo exchange overlapped with the
        filter and interior data kernels."""
        interior = self.bpx_compute * (1.0 - self.bpx_boundary_fraction)
        boundary = self.bpx_compute - interior
        t = max(self.bpw_compute + interior, self.bpx_halo) + boundary
        return t + self.bpx_boundary_launch


def local_extents(
    n_global: int, oh: int, ow: int, par: LayerParallelism
) -> tuple[int, int, int]:
    """Largest per-rank (I_N, I_oH, I_oW) output extents (critical path)."""
    i_n = block_size(n_global, par.sample, 0)
    i_h = block_size(oh, par.height, 0) if oh >= par.height else oh
    i_w = block_size(ow, par.width, 0) if ow >= par.width else ow
    return i_n, i_h, i_w


def conv_layer_cost(conv_model, g: WindowGeometry, filters: int) -> ConvLayerCost:
    """The kernels of one convolution on the rank whose forward window is
    ``g``: a local convolution (pad 0) over the region it gathers."""
    n, c, h, w = g.plan.shape
    (kh, sh), (kw, sw) = ((win.kernel, win.stride) for win in g.windows)
    geom = ConvGeometry(n=n, c=c, h=h, w=w, f=filters, kh=kh, kw=kw, sh=sh, sw=sw)
    return ConvLayerCost(
        fp_compute=conv_model.fp(geom),
        bpx_compute=conv_model.bp_data(geom),
        bpw_compute=conv_model.bp_filter(geom),
    )


def pool_layer_cost(machine: MachineSpec, g: WindowGeometry) -> ConvLayerCost:
    """Pooling on the rank whose forward window is ``g``: memory-bound
    passes over the gathered region and the block."""
    nbytes = (math.prod(g.plan.shape) + math.prod(g.block_shape)) * machine.dtype_bytes
    return ConvLayerCost(
        fp_compute=machine.gpu.elementwise_time(nbytes),
        bpx_compute=machine.gpu.elementwise_time(2 * nbytes),  # scatter + zero-init
    )
