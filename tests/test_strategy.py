"""Strategy optimizer (§V-C): candidates, shortest path, branchy networks."""

import pytest

from repro.core.parallelism import LayerParallelism as LP
from repro.core.parallelism import ParallelStrategy
from repro.core.strategy import StrategyOptimizer, factorizations
from repro.nn import NetworkSpec
from repro.nn.meshnet import mesh_model_2k
from repro.nn.resnet import build_resnet50, build_resnet_tiny
from repro.perfmodel import LASSEN, NetworkCostModel


class TestFactorizations:
    def test_all_products_correct(self):
        for p in (1, 2, 4, 8, 16, 12):
            for s, h, w in factorizations(p):
                assert s * h * w == p

    def test_near_square_spatial(self):
        d = {s: (h, w) for s, h, w in factorizations(16)}
        assert d[1] == (4, 4)
        assert d[2] == (4, 2)
        assert d[4] == (2, 2)
        assert d[8] == (2, 1)
        assert d[16] == (1, 1)


class TestParallelism:
    def test_spatial_square(self):
        assert LP.spatial_square(2, 4) == LP(sample=2, height=2, width=2)
        assert LP.spatial_square(1, 8) == LP(sample=1, height=4, width=2)
        assert LP.spatial_square(4, 1) == LP(sample=4)

    def test_invalid(self):
        with pytest.raises(ValueError):
            LP(sample=0)
        with pytest.raises(ValueError):
            LP.spatial_square(1, 0)

    def test_strategy_uniform_and_override(self):
        s = ParallelStrategy.uniform(LP(sample=4))
        assert s.for_layer("anything") == LP(sample=4)
        s2 = s.with_layer("conv1", LP(height=2, width=2))
        assert s2.for_layer("conv1") == LP(height=2, width=2)
        assert s2.for_layer("other") == LP(sample=4)

    def test_strategy_rank_consistency(self):
        with pytest.raises(ValueError, match="same total rank count"):
            ParallelStrategy({"a": LP(sample=2), "b": LP(sample=4)})

    def test_strategy_missing_layer(self):
        s = ParallelStrategy({"a": LP(sample=2)})
        with pytest.raises(KeyError):
            s.for_layer("b")


class TestCandidates:
    def test_sample_limited_by_batch(self):
        opt = StrategyOptimizer(build_resnet50(), LASSEN, total_ranks=8, n_global=2)
        cands = opt.candidates("conv1")
        assert all(p.sample <= 2 for p in cands)

    def test_spatial_limited_by_extent(self):
        """Deep ResNet layers (7x7 output) cannot be split 16 ways."""
        opt = StrategyOptimizer(build_resnet50(), LASSEN, total_ranks=64, n_global=64)
        cands = opt.candidates("res5c_branch2c")  # output 7x7
        assert all(p.height <= 7 and p.width <= 7 for p in cands)

    def test_cheapest_first(self):
        opt = StrategyOptimizer(build_resnet50(), LASSEN, total_ranks=8, n_global=256)
        cands = opt.candidates("conv1")
        assert cands[0] == LP(sample=8)  # sample parallelism preferred

    def test_memory_filters_infeasible(self):
        opt = StrategyOptimizer(mesh_model_2k(), LASSEN, total_ranks=4, n_global=1)
        cands = opt.candidates("conv1_1")
        # Pure spatial only: one sample cannot be sample-partitioned and the
        # 2K model cannot fit unsplit.
        assert all(p.spatial_ways >= 2 for p in cands)


class TestOptimizer:
    def test_resnet_picks_sample_when_memory_allows(self):
        opt = StrategyOptimizer(build_resnet50(), LASSEN, total_ranks=8, n_global=256)
        report = opt.optimize()
        convs = [layer.name for layer in build_resnet50().conv_layers()]
        assert all(
            report.strategy.for_layer(n) == LP(sample=8) for n in convs
        )

    def test_mesh2k_forced_spatial(self):
        opt = StrategyOptimizer(mesh_model_2k(), LASSEN, total_ranks=16, n_global=2)
        report = opt.optimize()
        p = report.strategy.for_layer("conv1_1")
        assert p.spatial_ways >= 8  # memory demands deep spatial splits
        assert report.predicted_time > 0

    def test_beats_worst_uniform(self):
        """The optimized strategy must not lose to an adversarial uniform
        choice (full spatial on ResNet, which thrashes small layers)."""
        spec = build_resnet50()
        opt = StrategyOptimizer(spec, LASSEN, total_ranks=4, n_global=128)
        report = opt.optimize()
        model = NetworkCostModel(spec, LASSEN)
        bad = model.minibatch_time(
            128, ParallelStrategy.uniform(LP(height=2, width=2))
        )
        assert report.predicted_time <= bad

    def test_branchy_network_all_layers_assigned(self):
        spec = build_resnet_tiny()
        opt = StrategyOptimizer(spec, LASSEN, total_ranks=4, n_global=16)
        report = opt.optimize()
        for layer in spec:
            assert report.strategy.for_layer(layer.name).nranks == 4
        assert report.paths_optimized >= 1

    def test_mixed_strategy_when_it_pays(self):
        """A network with one huge conv followed by tiny convs: the big one
        wants spatial decomposition, the tiny ones sample parallelism.
        Batch is small so sample parallelism alone cannot use the ranks."""
        spec = NetworkSpec("mixed")
        spec.add("input", "input", channels=8, height=1024, width=1024)
        spec.add("big", "conv", ["input"], filters=32, kernel=5, stride=4, pad=2)
        spec.add("r1", "relu", ["big"])
        spec.add("p", "pool", ["r1"], mode="max", kernel=32, stride=32)
        spec.add("tiny", "conv", ["p"], filters=32, kernel=1)
        spec.add("gap", "gap", ["tiny"])
        spec.add("fc", "fc", ["gap"], units=4)
        spec.add("loss", "softmax_ce", ["fc"])
        opt = StrategyOptimizer(spec, LASSEN, total_ranks=8, n_global=2)
        report = opt.optimize()
        big = report.strategy.for_layer("big")
        assert big.spatial_ways >= 4  # N=2 cannot fill 8 ranks by samples
        # Inherit layers follow their parent.
        assert report.strategy.for_layer("r1") == big

    def test_cut_is_priced_as_the_cost_model_charges_it(self):
        """conv -> pool -> conv: the tensor crossing a cut in front of the
        second conv is the pool's output (4x smaller than the first conv's),
        shuffled forward once and back once.  The path search must weigh
        that edge exactly as the full model charges the resulting strategy
        (it used to price the first conv's output)."""
        spec = NetworkSpec("cut")
        spec.add("input", "input", channels=4, height=32, width=32)
        spec.add("c1", "conv", ["input"], filters=8, kernel=3, pad=1)
        spec.add("p1", "pool", ["c1"], mode="max", kernel=2)
        spec.add("c2", "conv", ["p1"], filters=16, kernel=3, pad=1)
        spec.add("gap", "gap", ["c2"])
        spec.add("fc", "fc", ["gap"], units=4)
        spec.add("loss", "softmax_ce", ["fc"])
        n = 8
        opt = StrategyOptimizer(spec, LASSEN, total_ranks=4, n_global=n)
        before, after = LP(height=2, width=2), LP(sample=4)
        cut = ParallelStrategy(dict.fromkeys(["input", "c1", "p1"], before), default=after)
        charged = opt.cost_model.cost(n, cut).shuffle_total
        assert charged == 2 * opt.cost_model.shuffle_edge_cost("p1", n, cut) > 0
        assert opt._shuffle_cost("c2", before, after) == charged
        assert opt._shuffle_cost("c2", after, after) == 0.0

    def test_describe(self):
        opt = StrategyOptimizer(build_resnet_tiny(), LASSEN, total_ranks=2, n_global=8)
        report = opt.optimize()
        assert "mini-batch time" in report.describe()
