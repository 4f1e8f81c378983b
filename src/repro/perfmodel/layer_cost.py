"""Per-layer cost model: FP, BPx, BPw, BPa with halo terms (paper §V-A).

For a convolutional layer under distribution D, with O = floor(K/2) and
local extents I_N, I_C, I_H, I_W:

    FP  = C(I_N, I_C, I_H, I_W, I_F)
        + 2 SR(O I_N I_C I_H) + 2 SR(O I_N I_C I_W) + 4 SR(O^2 I_N I_C)
    BPx = C_x(...) + same halo terms (on dL/dy)
    BPw = C_w(...)

BPa, the dL/dw allreduce, is priced per gradient bucket, and a layer's
blocking collectives (batch-norm statistics, global pooling, the loss) per
schedule op, by :class:`~repro.perfmodel.network_cost.NetworkCostModel`:
a layer's cost here is its kernels and halo only.

Halo terms drop out when a spatial dimension is not split (or when K = 1),
and "if the implementation supports it, the halo exchanges can be
overlapped with interior computation" — the engine always does, and the
cost follows its interior/boundary kernel decomposition: a fraction
``beta`` of the convolution (the boundary strips, derived from the local
block geometry) must wait for the halo, while the interior ``1 - beta``
runs concurrently with the exchange:

    FP  = max((1-beta) C, halo) + beta C + launch overhead
    BP  = max(C_w + (1-beta) C_x, halo) + beta C_x + launch
          (the error-signal halo hides inside the filter convolution *and*
          the interior data convolution, §IV-A)

Pooling layers decompose (and overlap) the forward gather exactly like
convolution, and the backward scatter-add now overlaps too (the own
contribution accumulates while boundary strips travel), so they carry a
real forward ``boundary_fraction`` *and* a real backward
``bp_boundary_fraction`` — the latter measured on the input grid, where
the scatter-add's remote strips live.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.collective_models import pt2pt_time
from repro.nn.functional import _pair
from repro.perfmodel.conv_model import ConvGeometry
from repro.perfmodel.machine import MachineSpec
from repro.tensor.indexing import block_size, ceil_div
from repro.core.parallelism import LayerParallelism


@dataclass(frozen=True)
class ConvLayerCost:
    """Cost components (seconds) of one layer on the critical-path rank."""

    fp_compute: float
    fp_halo: float
    bpx_compute: float
    bpx_halo: float
    bpw_compute: float
    #: Extra kernel launches when the input is decomposed into interior +
    #: boundary regions for overlap (§IV-A).
    boundary_launch: float = 0.0
    #: Fraction of the layer's compute that belongs to the boundary kernels
    #: (must wait for the halo).  0 = everything overlaps the exchange,
    #: 1 = nothing does (layers the engine does not decompose).
    boundary_fraction: float = 1.0
    #: Backward-specific boundary fraction; ``None`` means "same as
    #: forward".  Pooling layers carry an explicit value: their backward
    #: decomposition lives on the *input* grid (the scatter-add's remote
    #: contribution strips), a different geometry than the forward
    #: output-window split.  A value of 1 means the backward pass is not
    #: decomposed and degenerates exactly to the serialized cost.
    bp_boundary_fraction: float | None = None

    @property
    def bpx_boundary_fraction(self) -> float:
        """The boundary fraction the backward-data decomposition uses."""
        if self.bp_boundary_fraction is not None:
            return self.bp_boundary_fraction
        return self.boundary_fraction

    @property
    def bpx_boundary_launch(self) -> float:
        """Extra kernel launches of the *backward* decomposition.

        Charged only when the backward pass is actually decomposed
        (fraction < 1); an undecomposed backward (fraction pinned at 1)
        pays none, so the overlap formula degenerates exactly to the
        serialized cost.
        """
        return 0.0 if self.bpx_boundary_fraction >= 1.0 else self.boundary_launch

    def fp_time(self) -> float:
        """FP, the halo exchange overlapped with the interior kernel."""
        if self.fp_halo > 0:
            interior = self.fp_compute * (1.0 - self.boundary_fraction)
            boundary = self.fp_compute - interior
            return max(interior, self.fp_halo) + boundary + self.boundary_launch
        return self.fp_compute

    def bp_time(self) -> float:
        """BPx + BPw, the error-signal halo exchange overlapped with the
        filter and interior data kernels."""
        if self.bpx_halo > 0:
            interior = self.bpx_compute * (1.0 - self.bpx_boundary_fraction)
            boundary = self.bpx_compute - interior
            t = max(self.bpw_compute + interior, self.bpx_halo) + boundary
            return t + self.bpx_boundary_launch
        return self.bpw_compute + self.bpx_compute


def local_extents(
    n_global: int, oh: int, ow: int, par: LayerParallelism
) -> tuple[int, int, int]:
    """Largest per-rank (I_N, I_oH, I_oW) output extents (critical path)."""
    i_n = block_size(n_global, par.sample, 0)
    i_h = block_size(oh, par.height, 0) if oh >= par.height else oh
    i_w = block_size(ow, par.width, 0) if ow >= par.width else ow
    return i_n, i_h, i_w


def conv_layer_cost(
    machine: MachineSpec,
    conv_model,
    *,
    n_global: int,
    c: int,
    h: int,
    w: int,
    f: int,
    kernel,
    stride=1,
    pad=0,
    parallelism: LayerParallelism,
) -> ConvLayerCost:
    """Cost of one convolutional layer under ``parallelism``.

    ``h``/``w`` are the *global input* spatial extents; the local kernel
    geometry (including halo rows) is derived from the output block sizes.
    """
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride)
    ph, pw = _pair(pad)
    par = parallelism

    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    i_n, i_oh, i_ow = local_extents(n_global, oh, ow, par)
    # Gathered local input region: (out-1)*s + k per split dim.
    i_h_in = (i_oh - 1) * sh + kh if par.height > 1 and oh >= par.height else h + 2 * ph
    i_w_in = (i_ow - 1) * sw + kw if par.width > 1 and ow >= par.width else w + 2 * pw

    geom = ConvGeometry(
        n=i_n, c=c, h=i_h_in, w=i_w_in, f=f, kh=kh, kw=kw, sh=sh, sw=sw
    )
    fp_c = conv_model.fp(geom)
    bpx_c = conv_model.bp_data(geom)
    bpw_c = conv_model.bp_filter(geom)

    # -- halo exchange (paper's SR terms) -----------------------------------------
    o_h, o_w = kh // 2, kw // 2
    db = machine.dtype_bytes
    link = (
        machine.intra_link
        if par.spatial_ways <= machine.gpus_per_node
        else machine.inter_link
    )
    msg_overhead = (
        machine.halo_msg_overhead_intra
        if par.spatial_ways <= machine.gpus_per_node
        else machine.halo_msg_overhead_inter
    )
    halo = 0.0
    nmsgs = 0
    split_h = par.height > 1 and oh >= par.height and o_h > 0
    split_w = par.width > 1 and ow >= par.width and o_w > 0
    if split_h:
        halo += 2 * pt2pt_time(o_h * i_n * c * i_w_in * db, link)
        nmsgs += 2
    if split_w:
        halo += 2 * pt2pt_time(o_w * i_n * c * i_h_in * db, link)
        nmsgs += 2
    if split_h and split_w:
        halo += 4 * pt2pt_time(o_h * o_w * i_n * c * db, link)
        nmsgs += 4
    halo += nmsgs * msg_overhead

    # Boundary-region kernels launched separately for overlap (§IV-A).
    n_boundary = 2 * (int(split_h) + int(split_w))
    boundary_launch = n_boundary * machine.gpu.kernel_latency

    # Interior/boundary split of the local output block, mirroring the
    # engine's decomposition: the boundary strips are the output rows/cols
    # whose windows reach into halo cells — ceil(O/S) rows per split side
    # on the critical-path (interior) rank.
    t_h = ceil_div(o_h, sh) if split_h else 0
    t_w = ceil_div(o_w, sw) if split_w else 0
    out_elems = i_oh * i_ow
    if (split_h or split_w) and out_elems > 0:
        interior_elems = max(0, i_oh - 2 * t_h) * max(0, i_ow - 2 * t_w)
        boundary_fraction = 1.0 - interior_elems / float(out_elems)
    else:
        boundary_fraction = 1.0  # no decomposition: serialized

    return ConvLayerCost(
        fp_compute=fp_c,
        fp_halo=halo,
        bpx_compute=bpx_c,
        bpx_halo=halo,
        bpw_compute=bpw_c,
        boundary_launch=boundary_launch,
        boundary_fraction=boundary_fraction,
    )


def pool_layer_cost(
    machine: MachineSpec,
    *,
    n_global: int,
    c: int,
    h: int,
    w: int,
    kernel,
    stride=None,
    pad=0,
    parallelism: LayerParallelism,
) -> ConvLayerCost:
    """Pooling: memory-bound kernel + the same halo pattern as convolution."""
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride if stride is not None else kernel)
    ph, pw = _pair(pad)
    par = parallelism
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    i_n, i_oh, i_ow = local_extents(n_global, oh, ow, par)
    i_h_in = (i_oh - 1) * sh + kh if par.height > 1 and oh >= par.height else h + 2 * ph
    i_w_in = (i_ow - 1) * sw + kw if par.width > 1 and ow >= par.width else w + 2 * pw

    db = machine.dtype_bytes
    bytes_fwd = (i_n * c * i_h_in * i_w_in + i_n * c * i_oh * i_ow) * db
    fp_c = machine.gpu.elementwise_time(bytes_fwd)
    bp_c = machine.gpu.elementwise_time(2 * bytes_fwd)  # scatter + zero-init

    # Pooling needs neighbor data only when windows overlap (K > S).
    o_h = max(0, kh - sh)
    o_w = max(0, kw - sw)
    link = (
        machine.intra_link
        if par.spatial_ways <= machine.gpus_per_node
        else machine.inter_link
    )
    halo = 0.0
    split_h = par.height > 1 and oh >= par.height and o_h > 0
    split_w = par.width > 1 and ow >= par.width and o_w > 0
    if split_h:
        halo += 2 * pt2pt_time(o_h * i_n * c * i_w_in * db, link)
    if split_w:
        halo += 2 * pt2pt_time(o_w * i_n * c * i_h_in * db, link)

    # The engine overlaps the *forward* pooling gather (interior windows
    # compute while halo strips travel) with the same interior/boundary
    # split as convolution.
    n_boundary = 2 * (int(split_h) + int(split_w))
    boundary_launch = n_boundary * machine.gpu.kernel_latency
    t_h = ceil_div(o_h, sh) if split_h else 0
    t_w = ceil_div(o_w, sw) if split_w else 0
    out_elems = i_oh * i_ow
    if (split_h or split_w) and out_elems > 0:
        interior_elems = max(0, i_oh - 2 * t_h) * max(0, i_ow - 2 * t_w)
        boundary_fraction = 1.0 - interior_elems / float(out_elems)
    else:
        boundary_fraction = 1.0  # no decomposition: serialized

    # The *backward* scatter-add overlaps too — the own contribution (the
    # interior of the local input shard) accumulates while the remote
    # strips travel — but its decomposition lives on the input grid: the
    # boundary is the band of input cells that receive contributions from
    # (or send them to) a neighbor, ``o = K - S`` rows/cols per split
    # edge.  No split (or non-overlapping windows) pins it at 1: the
    # backward degenerates exactly to the serialized cost.
    in_elems = i_h_in * i_w_in
    if (split_h or split_w) and in_elems > 0:
        interior_in = max(0, i_h_in - 2 * (o_h if split_h else 0)) * max(
            0, i_w_in - 2 * (o_w if split_w else 0)
        )
        bp_boundary_fraction = 1.0 - interior_in / float(in_elems)
    else:
        bp_boundary_fraction = 1.0

    return ConvLayerCost(
        fp_compute=fp_c,
        fp_halo=halo,
        bpx_compute=bp_c,
        bpx_halo=halo,
        bpw_compute=0.0,
        boundary_launch=boundary_launch,
        boundary_fraction=boundary_fraction,
        bp_boundary_fraction=bp_boundary_fraction,
    )
