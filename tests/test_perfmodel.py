"""Performance and memory models: components and paper-anchor regressions."""

import pytest

from repro.comm.collective_models import (
    AllreduceAlgorithm,
    LinkParameters,
    allreduce_time,
    alltoall_time,
    bucketed_allreduce_time,
    pt2pt_time,
    segment_sizes,
    segmented_allreduce_time,
    select_allreduce_algorithm,
)
from repro.core.parallelism import LayerParallelism as LP
from repro.core.parallelism import ParallelStrategy
from repro.nn.meshnet import mesh_model_1k, mesh_model_2k
from repro.nn.resnet import build_resnet50
from repro.perfmodel import (
    CalibratedConvModel,
    EmpiricalConvModel,
    LASSEN,
    MemoryModel,
    NetworkCostModel,
    published,
)
from repro.perfmodel.conv_model import ConvGeometry
from repro.perfmodel.layer_cost import conv_layer_cost

LINK = LinkParameters(alpha=5e-6, beta=1e-9, gamma=1e-10)


class TestCollectiveModels:
    def test_pt2pt_linear(self):
        assert pt2pt_time(0, LINK) == 0.0
        assert pt2pt_time(1000, LINK) == pytest.approx(5e-6 + 1e-6)

    def test_allreduce_zero_cases(self):
        assert allreduce_time(1, 1000, LINK) == 0.0
        assert allreduce_time(8, 0, LINK) == 0.0

    def test_algorithm_selection_thakur(self):
        assert select_allreduce_algorithm(8, 100) is AllreduceAlgorithm.RECURSIVE_DOUBLING
        assert select_allreduce_algorithm(8, 1 << 20) is AllreduceAlgorithm.RABENSEIFNER
        assert select_allreduce_algorithm(6, 1 << 20) is AllreduceAlgorithm.RING

    def test_rabenseifner_beats_recursive_doubling_for_large(self):
        n = 100e6
        rd = allreduce_time(16, n, LINK, AllreduceAlgorithm.RECURSIVE_DOUBLING)
        rab = allreduce_time(16, n, LINK, AllreduceAlgorithm.RABENSEIFNER)
        assert rab < rd

    def test_ring_latency_grows_linearly(self):
        small = allreduce_time(4, 10, LINK, AllreduceAlgorithm.RING)
        big = allreduce_time(64, 10, LINK, AllreduceAlgorithm.RING)
        assert big > small * 10

    def test_monotone_in_size(self):
        ts = [allreduce_time(8, n, LINK) for n in (1e3, 1e5, 1e7)]
        assert ts[0] < ts[1] < ts[2]

    def test_segment_sizes_partition(self):
        assert segment_sizes(0, 100) == []
        assert segment_sizes(100, 0) == [100]
        assert segment_sizes(100, 200) == [100]
        sizes = segment_sizes(1000, 300)
        assert len(sizes) == 4
        assert sum(sizes) == pytest.approx(1000)

    def test_segmented_allreduce_degenerates_to_plain(self):
        n = 1 << 20
        assert segmented_allreduce_time(8, n, LINK) == pytest.approx(
            allreduce_time(8, n, LINK)
        )
        assert segmented_allreduce_time(8, n, LINK, segment_bytes=2 * n) == (
            pytest.approx(allreduce_time(8, n, LINK))
        )

    def test_segmentation_pays_extra_latency(self):
        n = 1 << 22
        whole = segmented_allreduce_time(8, n, LINK)
        quarters = segmented_allreduce_time(8, n, LINK, segment_bytes=n // 4)
        assert quarters > whole  # (nseg-1) extra alpha terms

    def test_bucketing_amortizes_latency_of_small_tensors(self):
        sizes = [512.0] * 32
        separate = sum(allreduce_time(8, s, LINK) for s in sizes)
        coalesced = bucketed_allreduce_time(8, sizes, LINK, bucket_bytes=1 << 20)
        assert coalesced < separate
        # One bucket holding everything == one allreduce of the total.
        assert coalesced == pytest.approx(allreduce_time(8, sum(sizes), LINK))

    def test_bucketing_flushes_at_threshold(self):
        sizes = [1000.0, 1000.0, 1000.0]
        total = bucketed_allreduce_time(8, sizes, LINK, bucket_bytes=1500)
        # [1000+1000 >= 1500 -> flush 2000], then trailing 1000.
        expected = allreduce_time(8, 2000, LINK) + allreduce_time(8, 1000, LINK)
        assert total == pytest.approx(expected)
        assert bucketed_allreduce_time(1, sizes, LINK, 1500) == 0.0

    def test_alltoall(self):
        assert alltoall_time(1, 100, LINK) == 0.0
        assert alltoall_time(4, 100, LINK) == pytest.approx(3 * (5e-6 + 1e-7))


class TestGPUSpec:
    def test_saturation_curve(self):
        gpu = LASSEN.gpu
        lo = gpu.throughput(1e6, gpu.fwd_tflops_max)
        hi = gpu.throughput(1e11, gpu.fwd_tflops_max)
        assert lo < hi <= gpu.fwd_tflops_max

    def test_latency_floor(self):
        gpu = LASSEN.gpu
        assert gpu.conv_time(1.0, 1.0, gpu.fwd_tflops_max) >= gpu.kernel_latency

    def test_memory_bound_floor(self):
        gpu = LASSEN.gpu
        # Tiny flops but huge traffic: memory-bound branch must dominate.
        t = gpu.conv_time(1e3, 8e9, gpu.fwd_tflops_max)
        assert t >= 8e9 / gpu.mem_bandwidth

    def test_zero_work(self):
        assert LASSEN.gpu.conv_time(0, 0, 1e12) == 0.0
        assert LASSEN.gpu.elementwise_time(0) == 0.0


class TestConvModels:
    def test_calibrated_fp_anchor_conv1_1(self):
        """The paper's Fig. 3 shows ~7.5 ms FP for the 2K conv1_1 on one
        GPU; the calibrated model must land within 35%."""
        model = CalibratedConvModel(LASSEN.gpu)
        g = ConvGeometry(n=1, c=18, h=2052, w=2052, f=128, kh=5, kw=5, sh=2, sw=2)
        fp_ms, _ = published.FIG_ONE_GPU_MS["conv1_1"]
        assert model.fp(g) == pytest.approx(fp_ms * 1e-3, rel=0.35)

    def test_calibrated_fp_anchor_res3b(self):
        """Fig. 2: res3b_branch2a FP at N=1 is ~40 us on one GPU."""
        model = CalibratedConvModel(LASSEN.gpu)
        g = ConvGeometry(n=1, c=512, h=28, w=28, f=128, kh=1, kw=1)
        fp_ms, _ = published.FIG_ONE_GPU_MS["res3b_branch2a"]
        assert fp_ms * 1e-3 / 4 < model.fp(g) < fp_ms * 1e-3 * 2

    def test_bp_slower_than_fp(self):
        model = CalibratedConvModel(LASSEN.gpu)
        g = ConvGeometry(n=4, c=64, h=64, w=64, f=64, kh=3, kw=3)
        assert model.bp_data(g) >= model.fp(g) * 0.9

    def test_empirical_measures_and_caches(self):
        model = EmpiricalConvModel(warmup=1, runs=2)
        g = ConvGeometry(n=1, c=2, h=12, w=12, f=3, kh=3, kw=3)
        t1 = model.fp(g)
        assert t1 > 0
        assert model.fp(g) == t1  # cached
        assert model.bp_data(g) > 0 and model.bp_filter(g) > 0

    def test_empirical_times_each_kernel_on_an_injected_clock(self, monkeypatch):
        """No wall clock in the verdict: each kernel runs ``warmup + runs``
        times on arrays of the geometry's shape, and the model returns the
        clock's elapsed time over the timed runs divided by ``runs``."""
        from types import SimpleNamespace

        from repro.nn import functional as F
        from repro.perfmodel import conv_model

        ticks = iter([0.0, 3.0, 10.0, 16.0, 20.0, 29.0])  # (t0, t1) per kernel
        monkeypatch.setattr(
            conv_model, "time", SimpleNamespace(perf_counter=lambda: next(ticks))
        )
        calls: dict[str, list] = {}
        for name in ("conv2d_forward", "conv2d_backward_data", "conv2d_backward_filter"):

            def spy(a, b, *args, _real=getattr(F, name), _name=name, **kwargs):
                calls.setdefault(_name, []).append((a.shape, b.shape))
                return _real(a, b, *args, **kwargs)

            monkeypatch.setattr(F, name, spy)

        g = ConvGeometry(n=2, c=4, h=16, w=12, f=3, kh=3, kw=3, sh=2, sw=1)
        model = EmpiricalConvModel(warmup=1, runs=3)
        assert (model.fp(g), model.bp_data(g), model.bp_filter(g)) == (1.0, 2.0, 3.0)
        x, w, y = (2, 4, 16, 12), (3, 4, 3, 3), (2, 3, 7, 10)
        assert calls == {
            "conv2d_forward": [(x, w)] * 5,  # one untimed call sizes ``dy``
            "conv2d_backward_data": [(y, w)] * 4,
            "conv2d_backward_filter": [(x, y)] * 4,
        }


class TestConvLayerCost:
    def kwargs(self, **over):
        base = dict(
            n_global=4, c=64, h=128, w=128, f=64, kernel=3, stride=1, pad=1
        )
        base.update(over)
        return base

    @pytest.mark.parametrize("ways", [2, 4, 8, 16])
    @pytest.mark.parametrize(
        "geometry",
        [dict(kernel=1, pad=0), published.FIG_LAYERS["res3b_branch2a"]],
        ids=["generic", "res3b_branch2a"],
    )
    def test_no_halo_for_1x1(self, geometry, ways):
        """Fig. 2: "the filter size means that no halo exchange is needed"."""
        cost = conv_layer_cost(
            LASSEN, CalibratedConvModel(LASSEN.gpu), **self.kwargs(**geometry),
            parallelism=LP.spatial_square(sample=1, ways=ways),
        )
        assert cost.fp_halo == 0.0

    def test_no_halo_for_sample_parallel(self):
        cost = conv_layer_cost(
            LASSEN, CalibratedConvModel(LASSEN.gpu),
            **self.kwargs(), parallelism=LP(sample=4),
        )
        assert cost.fp_halo == 0.0 and cost.allreduce > 0

    def test_spatial_has_halo(self):
        cost = conv_layer_cost(
            LASSEN, CalibratedConvModel(LASSEN.gpu),
            **self.kwargs(), parallelism=LP(height=2, width=2),
        )
        assert cost.fp_halo > 0 and cost.bpx_halo > 0

    def test_overlap_never_slower(self):
        cost = conv_layer_cost(
            LASSEN, CalibratedConvModel(LASSEN.gpu),
            **self.kwargs(), parallelism=LP(height=2, width=2),
        )
        assert cost.fp_time(overlap=True) <= cost.fp_time(overlap=False)
        assert cost.bp_time(overlap=True) <= cost.bp_time(overlap=False)

    def test_spatial_reduces_big_layer_compute(self):
        model = CalibratedConvModel(LASSEN.gpu)
        one = conv_layer_cost(
            LASSEN, model, **self.kwargs(h=1024, w=1024, n_global=1),
            parallelism=LP(), total_ranks=1,
        )
        four = conv_layer_cost(
            LASSEN, model, **self.kwargs(h=1024, w=1024, n_global=1),
            parallelism=LP(height=2, width=2), total_ranks=4,
        )
        assert four.fp_compute < one.fp_compute / 2

    @staticmethod
    def fig_layer_times(layer, ways):
        """(FP, BP) seconds of a Fig. 2/3 layer at N=1 on ``ways`` GPUs,
        halo overlapped and allreduce excluded as in the paper's plots."""
        cost = conv_layer_cost(
            LASSEN, CalibratedConvModel(LASSEN.gpu), n_global=1, total_ranks=ways,
            parallelism=LP.spatial_square(sample=1, ways=ways),
            **published.FIG_LAYERS[layer],
        )
        return cost.fp_time(overlap=True), cost.bp_time(overlap=True)

    @pytest.mark.parametrize("layer", published.FIG_LAYERS)
    def test_fig_one_gpu_forward_anchor(self, layer):
        """Within a factor of two of the plotted value: the calibration
        prioritises the end-to-end tables over single layers."""
        fp_ms, _ = published.FIG_ONE_GPU_MS[layer]
        fp, _ = self.fig_layer_times(layer, 1)
        assert fp_ms / 2 < fp * 1e3 < fp_ms * 2

    def test_fig3_scaling_contrast(self):
        """Fig. 3: the 2K ``conv1_1`` gains ~14.8x on 16 GPUs where the deep
        ``conv6_1`` gains ~1.4x — spatial parallelism pays on large domains."""
        _, bp_ms = published.FIG_ONE_GPU_MS["conv1_1"]
        assert self.fig_layer_times("conv1_1", 1)[1] * 1e3 == pytest.approx(bp_ms, rel=0.5)
        gain = {
            layer: sum(self.fig_layer_times(layer, 1)) / sum(self.fig_layer_times(layer, 16))
            for layer in ("conv1_1", "conv6_1")
        }
        assert 10.0 < gain["conv1_1"] <= 16.5
        assert gain["conv6_1"] < 2.5


def _cells(table, ways):
    """``(N, GPUs/sample, published seconds)`` of every measured cell."""
    return [
        (n, w, seconds)
        for n, row in table.items()
        for w, seconds in zip(ways, row)
        if seconds is not None
    ]


def _modelled(model, n, ways, per_group=1):
    """The model's mini-batch time for a table cell: ``n`` samples in groups
    of ``per_group``, each group spread over ``ways`` GPUs."""
    par = LP.spatial_square(sample=n // per_group, ways=ways)
    return model.minibatch_time(n, ParallelStrategy.uniform(par))


class TestNetworkCostAnchors:
    """Regression-guard the calibration against the paper's anchor cells.

    The acceptance band is generous (the paper itself says absolute numbers
    need not match) but pins the *shape*: who wins and by roughly how much.
    """

    MESH1K = NetworkCostModel(mesh_model_1k(), LASSEN)
    MESH2K = NetworkCostModel(mesh_model_2k(), LASSEN)
    RESNET = NetworkCostModel(build_resnet50(), LASSEN)

    @pytest.mark.parametrize(
        "n,ways,paper", _cells(published.TABLE1, published.TABLE1_WAYS)
    )
    def test_mesh1k_anchor(self, n, ways, paper):
        assert _modelled(self.MESH1K, n, ways) == pytest.approx(paper, rel=0.35)

    @pytest.mark.parametrize(
        "n,ways,paper", _cells(published.TABLE2, published.TABLE2_WAYS)
    )
    def test_mesh2k_anchor(self, n, ways, paper):
        """The 2K absolutes run ~1.3x slow in this calibration; every
        speedup ratio matches (next tests)."""
        assert _modelled(self.MESH2K, n, ways) == pytest.approx(paper, rel=0.60)

    @pytest.mark.parametrize(
        "n,ways,paper", _cells(published.TABLE3, published.TABLE3_WAYS)
    )
    def test_resnet_anchor(self, n, ways, paper):
        t = _modelled(self.RESNET, n, ways, published.TABLE3_SAMPLES_PER_GROUP)
        assert t == pytest.approx(paper, rel=0.40)

    def test_mesh1k_speedup_shape(self):
        """Table I speedups at N=4: ~2.0, 3.3, 4.4, 6.1."""
        base, *rest = published.TABLE1[4]
        ours = [_modelled(self.MESH1K, 4, w) for w in published.TABLE1_WAYS]
        speedups = [ours[0] / t for t in ours[1:]]
        for got, seconds in zip(speedups, rest):
            assert got == pytest.approx(base / seconds, rel=0.25)
        # Monotone but sub-linear: each doubling of GPUs gains < 2x.
        assert speedups[0] < speedups[1] < speedups[2] < speedups[3]
        assert speedups[3] < 2 * speedups[2]

    def test_mesh2k_speedup_shape(self):
        """Table II speedups over 2 GPUs/sample at N=2: ~2.1, 2.9, 3.6."""
        base, *rest = published.TABLE2[2]
        ours = [_modelled(self.MESH2K, 2, w) for w in published.TABLE2_WAYS]
        speedups = [ours[0] / t for t in ours[1:]]
        # Our calibration scales the 2K model somewhat better than the
        # paper measured at the finest decompositions.
        for got, seconds in zip(speedups, rest):
            assert got == pytest.approx(base / seconds, rel=0.45)
        assert speedups[0] < speedups[1] < speedups[2]

    def resnet_hybrid_gains(self, n):
        """Speedup of hybrid 2- and 4-way over sample parallelism at N=n."""
        base, two, four = (
            _modelled(self.RESNET, n, w, published.TABLE3_SAMPLES_PER_GROUP)
            for w in published.TABLE3_WAYS
        )
        return base / two, base / four

    def test_resnet_speedup_shape(self):
        """Table III: hybrid 2-way ~1.4x, 4-way ~1.8x at N=128."""
        paper, paper2, paper4 = published.TABLE3[128]
        s2, s4 = self.resnet_hybrid_gains(128)
        assert s2 == pytest.approx(paper / paper2, rel=0.25)
        assert s4 == pytest.approx(paper / paper4, rel=0.25)

    @pytest.mark.parametrize("n", published.TABLE3)
    def test_resnet_hybrid_gain_band(self, n):
        """Table III at every mini-batch size: hybrid 2-way ~1.3-1.5x,
        4-way ~1.4-1.8x — "achieving near-linear speedup is unlikely"."""
        s2, s4 = self.resnet_hybrid_gains(n)
        assert 1.2 <= s2 <= 1.8
        assert 1.3 <= s4 <= 2.2
        assert s2 < s4  # far from linear: small spatial domains

    def test_weak_scaling_flat(self):
        """Fig. 4: mini-batch time stays ~flat as N grows with GPUs."""
        model = NetworkCostModel(mesh_model_1k(), LASSEN)
        times = [
            model.minibatch_time(n, ParallelStrategy.uniform(LP(sample=n, width=2)))
            for n in (4, 32, 256, 1024)
        ]
        assert max(times) / min(times) < 1.15

    def test_overlap_helps(self):
        on = NetworkCostModel(mesh_model_2k(), LASSEN, overlap_halo=True)
        off = NetworkCostModel(mesh_model_2k(), LASSEN, overlap_halo=False)
        par = ParallelStrategy.uniform(LP(sample=2, height=4, width=4))
        assert on.minibatch_time(2, par) < off.minibatch_time(2, par)


class TestMemoryModel:
    """The paper's three feasibility boundaries on 16 GB V100s."""

    def test_mesh1k_fits_exactly_one_sample(self):
        mm = MemoryModel(mesh_model_1k(), LASSEN)
        assert mm.fits(1, LP(sample=1))
        assert not mm.fits(2, LP(sample=1))
        assert mm.max_samples_per_gpu(LP(sample=1)) == 1

    def test_mesh2k_requires_spatial(self):
        mm = MemoryModel(mesh_model_2k(), LASSEN)
        assert not mm.fits(1, LP(sample=1))  # "exceed GPU memory ... even one sample"
        assert mm.fits(1, LP(width=2))

    def test_resnet_fits_32_per_gpu(self):
        mm = MemoryModel(build_resnet50(), LASSEN)
        assert mm.fits(128, LP(sample=4))  # 32 samples/GPU
        assert mm.max_samples_per_gpu(LP(sample=1)) >= 32

    def test_spatial_reduces_memory(self):
        mm = MemoryModel(mesh_model_2k(), LASSEN)
        one = mm.required_bytes(1, ParallelStrategy.uniform(LP()))
        four = mm.required_bytes(1, ParallelStrategy.uniform(LP(height=2, width=2)))
        assert four < 0.45 * one  # activations dominate and split 4-way

    def test_breakdown_sums(self):
        mm = MemoryModel(mesh_model_1k(), LASSEN)
        bd = mm.breakdown(1, LP(sample=1))
        parts = (
            bd.activations + bd.error_signals + bd.bn_saved + bd.halo_buffers
            + bd.parameters + bd.workspace + bd.comm_buffers + bd.runtime
        )
        assert bd.total == pytest.approx(parts)
        assert "TOTAL" in bd.summary()

    def test_comm_buffers_grow_with_scale(self):
        assert LASSEN.comm_buffer_bytes(2048) > LASSEN.comm_buffer_bytes(4)


class TestDeadErrorSignal:
    """Cost, shuffle and memory models charge no error signal where
    ``NetworkSpec.needs_error_signal`` says the engine computes none."""

    @staticmethod
    def _spec():
        from repro.nn import NetworkSpec

        spec = NetworkSpec("dead-input")
        spec.add("input", "input", channels=4, height=32, width=32)
        spec.add("p0", "pool", ["input"], mode="avg", kernel=3, stride=1, pad=1)
        spec.add("c1", "conv", ["p0"], filters=8, kernel=3, pad=1)
        spec.add("c2", "conv", ["c1"], filters=8, kernel=3, pad=1)
        return spec

    def test_no_backward_data_below_first_parameterised_layer(self):
        spec = self._spec()
        model = NetworkCostModel(spec, LASSEN)
        strategy = ParallelStrategy.uniform(LP(height=2, width=2))
        p0, c1, c2 = (model.layer_cost(n, 8, strategy) for n in ("p0", "c1", "c2"))
        assert p0.fp_halo > 0 and p0.bp_time() == 0.0
        assert c1.fp_halo > 0
        assert (c1.bpx_compute, c1.bpx_halo, c1.bpx_boundary_launch) == (0.0, 0.0, 0.0)
        assert c1.bp_time() == c1.bpw_compute > 0
        assert c2.bpx_compute > 0 and c2.bpx_halo > 0 and c2.bpx_boundary_launch > 0
        # The isolated layer (Figs. 2/3) is priced as before.
        iso = conv_layer_cost(
            LASSEN, model.conv_model, n_global=8, c=4, h=32, w=32, f=8, kernel=3,
            pad=1, parallelism=LP(height=2, width=2),
        )
        assert iso.bpx_compute > 0 and iso.bpx_halo > 0
        assert (iso.fp_compute, iso.bpw_compute) == (c1.fp_compute, c1.bpw_compute)

    def test_no_backward_shuffle_toward_input(self):
        spec = self._spec()
        model = NetworkCostModel(spec, LASSEN)
        strategy = ParallelStrategy({"input": LP(sample=4)}, default=LP(height=2, width=2))
        assert model.cost(8, strategy).shuffle_total == pytest.approx(
            model.shuffle_edge_cost("input", 8, strategy)
        )

    def test_memory_counts_error_signals_of_needing_layers_only(self):
        spec = self._spec()
        bd = MemoryModel(spec, LASSEN).breakdown(8, LP(sample=1))
        acts = bd.per_layer_activations
        assert bd.error_signals == pytest.approx(acts["c1"] + acts["c2"])
        assert bd.activations == pytest.approx(sum(acts.values()))


class TestPoolBoundaryFraction:
    """Pooling overlaps its forward gather (PR 4) *and* its backward
    scatter-add (PR 8): the cost model gives pool layers a real forward
    boundary fraction and a real — input-grid — backward one."""

    def _cost(self, k, s, par, h=256, w=256, c=64):
        from repro.perfmodel.layer_cost import pool_layer_cost

        return pool_layer_cost(
            LASSEN, n_global=4, c=c, h=h, w=w, kernel=k, stride=s, pad=k // 2,
            parallelism=par,
        )

    def test_overlapping_windows_get_partial_fraction(self):
        c = self._cost(3, 2, LP(height=2, width=2))
        assert c.fp_halo > 0
        assert 0.0 < c.boundary_fraction < 1.0
        # Backward decomposes on the input grid: a real fraction, distinct
        # from the forward output-window split (o=K-S strips are thin
        # relative to the input extent, so it is the smaller of the two).
        assert 0.0 < c.bp_boundary_fraction < 1.0
        assert c.bpx_boundary_fraction == c.bp_boundary_fraction
        assert c.bp_boundary_fraction < c.boundary_fraction
        # The overlap formulas actually use the decompositions.
        interior = c.fp_compute * (1 - c.boundary_fraction)
        expected = max(interior, c.fp_halo) + (
            c.fp_compute - interior
        ) + c.boundary_launch
        assert c.fp_time(overlap=True) == pytest.approx(expected)
        bp_interior = c.bpx_compute * (1 - c.bpx_boundary_fraction)
        bp_expected = max(c.bpw_compute + bp_interior, c.bpx_halo) + (
            c.bpx_compute - bp_interior
        ) + c.bpx_boundary_launch
        assert c.bp_time(overlap=True) == pytest.approx(bp_expected)

    def test_overlap_wins_once_halo_exceeds_launch_overhead(self):
        """For memory-bound pooling the boundary kernel launches are not
        free; the modeled overlap pays off once the hidden halo time
        exceeds them (large spatial extents), exactly as measured — now in
        both directions."""
        c = self._cost(3, 2, LP(height=2, width=2), h=1024, w=1024)
        assert c.fp_halo > c.boundary_launch
        assert c.fp_time(overlap=True) < c.fp_time(overlap=False)
        # Backward is decomposed too (own scatter-add contribution hides
        # the strips in flight), so overlap now wins there as well.
        assert c.bpx_boundary_launch == c.boundary_launch
        assert c.bp_time(overlap=True) < c.bp_time(overlap=False)

    def test_non_overlapping_windows_have_no_halo(self):
        c = self._cost(2, 2, LP(height=2, width=2))
        assert c.fp_halo == 0.0
        assert c.fp_time(overlap=True) == c.fp_time(overlap=False)
        # No neighbor contributions: backward stays pinned synchronous.
        assert c.bp_boundary_fraction == 1.0
        assert c.bpx_boundary_launch == 0.0
        assert c.bp_time(overlap=True) == c.bp_time(overlap=False)

    def test_conv_backward_fraction_unchanged(self):
        """Conv layers still use one fraction for both directions."""
        cost = conv_layer_cost(
            LASSEN, CalibratedConvModel(LASSEN.gpu),
            n_global=4, c=8, h=32, w=32, f=8, kernel=3, stride=1, pad=1,
            parallelism=LP(height=2, width=2),
        )
        assert cost.bp_boundary_fraction is None
        assert cost.bpx_boundary_fraction == cost.boundary_fraction
