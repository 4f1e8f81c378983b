"""Strategy optimizer (§V-C): candidates, the objective's tables, and their
exact minimisation by elimination, checked against brute force."""

import itertools
import math
import random

import numpy as np
import pytest

from repro.core.parallelism import LayerParallelism as LP
from repro.core.parallelism import ParallelStrategy
from repro.core.schedule import lower
from repro.core.strategy import StrategyOptimizer, eliminate, factorizations
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

    @pytest.mark.parametrize("field", ["sample", "height", "width"])
    def test_each_factor_at_least_one(self, field):
        with pytest.raises(ValueError, match="must be >= 1"):
            LP(**{field: 0})

    def test_no_channel_factor(self):
        """Channels are never split: there is no factor to set."""
        with pytest.raises(TypeError):
            LP(channel=2)

    @pytest.mark.parametrize(
        "par,grid_shape,spatial,text",
        [
            (LP(), (1, 1, 1, 1), 1, "sample(1)"),
            (LP(sample=4), (4, 1, 1, 1), 1, "sample(4)"),
            (LP(height=2, width=2), (1, 1, 2, 2), 4, "hybrid(sample=1, spatial=2x2)"),
            (LP(height=4), (1, 1, 4, 1), 4, "hybrid(sample=1, spatial=4x1)"),
            (LP(sample=2, width=2), (2, 1, 1, 2), 2, "hybrid(sample=2, spatial=1x2)"),
            (
                LP(sample=2, height=2, width=2), (2, 1, 2, 2), 4,
                "hybrid(sample=2, spatial=2x2)",
            ),
        ],
        ids=["one", "sample4", "spatial2x2", "spatial4x1", "hybrid2x1x2", "hybrid2x2x2"],
    )
    def test_factors_pair_with_nchw_grid(self, par, grid_shape, spatial, text):
        """The grid pairs with NCHW tensor dims, its channel axis 1; a layer's
        ranks are its sample groups times its GPUs per sample."""
        assert par.grid_shape == grid_shape
        assert par.spatial_ways == spatial
        assert par.nranks == par.sample * spatial == math.prod(grid_shape)
        assert par.describe() == text

    def test_strategy_uniform_and_override(self):
        s = ParallelStrategy.uniform(LP(sample=4))
        assert s.for_layer("anything") == LP(sample=4)
        s2 = ParallelStrategy({"conv1": LP(height=2, width=2)}, default=LP(sample=4))
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
        assert report.objective > 0

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
        shuffled forward once and back once.  The pairwise table must weigh
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
        bd = opt.cost_model.cost(n, cut)
        assert [s.op_id for s in bd.schedule.shuffles] == ["fwd:shuf:p1->c2", "bwd:shuf:c2->p1"]
        assert bd.shuffle_total == sum(bd.comm_ops[s.op_id] for s in bd.schedule.shuffles) > 0
        cands, factors = opt.tables()
        (table,) = [t for scope, t in factors if scope == ("c1", "c2")]
        assert table[cands["c1"].index(before), cands["c2"].index(after)] == bd.shuffle_total
        assert table[cands["c1"].index(after), cands["c2"].index(after)] == 0.0

    def test_each_pair_is_priced_from_its_own_placements(self):
        """Which tensors cross a cut is read from the spec; every candidate
        pair is priced between its own two placements, exactly as the full
        model charges that pair's strategy."""
        spec = NetworkSpec("pairs")
        spec.add("input", "input", channels=4, height=32, width=32)
        spec.add("c1", "conv", ["input"], filters=8, kernel=3, pad=1)
        spec.add("c2", "conv", ["c1"], filters=16, kernel=3, pad=1)
        spec.add("gap", "gap", ["c2"])
        spec.add("fc", "fc", ["gap"], units=4)
        spec.add("loss", "softmax_ce", ["fc"])
        n = 8
        opt = StrategyOptimizer(spec, LASSEN, total_ranks=4, n_global=n)
        pairs = [
            (LP(height=2, width=2), LP(sample=4)),
            (LP(height=4), LP(sample=4)),
            (LP(sample=2, height=2), LP(sample=4)),
            (LP(sample=4), LP(height=4)),
        ]
        prices = []
        for pa, pb in pairs:
            cut = ParallelStrategy(dict.fromkeys(["input", "c1"], pa), default=pb)
            charged = opt.cost_model.cost(n, cut).shuffle_total
            assert opt._pairwise("c1", ["c2"], [pa], [pb])[0, 0] == charged > 0
            prices.append(charged)
        assert len(set(prices)) > 1  # the all-to-all priced every cut alike

    def test_two_consumers_share_the_forward_shuffle(self):
        """A one-conv residual block: ``c1`` feeds ``c2`` and the ``add``
        that ``c2`` owns.  Across a cut its activation moves forward once,
        shared by both, and each edge returns its own error signal."""
        spec = NetworkSpec("shared")
        spec.add("input", "input", channels=4, height=32, width=32)
        spec.add("c1", "conv", ["input"], filters=8, kernel=3, pad=1)
        spec.add("c2", "conv", ["c1"], filters=8, kernel=3, pad=1)
        spec.add("s", "add", ["c2", "c1"])
        spec.add("gap", "gap", ["s"])
        spec.add("fc", "fc", ["gap"], units=4)
        spec.add("loss", "softmax_ce", ["fc"])
        n = 8
        opt = StrategyOptimizer(spec, LASSEN, total_ranks=4, n_global=n)
        before, after = LP(height=2, width=2), LP(sample=4)
        cut = ParallelStrategy(dict.fromkeys(["input", "c1"], before), default=after)
        bd = opt.cost_model.cost(n, cut)
        assert [s.op_id for s in bd.schedule.shuffles] == [
            "fwd:shuf:c1->c2", "bwd:shuf:s->c1", "bwd:shuf:c2->c1",
        ]
        table = opt._pairwise("c1", ["c2", "s"], [before], [after])
        assert table[0, 0] == pytest.approx(bd.shuffle_total, rel=1e-12)

    @pytest.mark.parametrize(
        "build,ranks,n",
        [(build_resnet50, 16, 512), (build_resnet50, 16, 8), (mesh_model_2k, 16, 2)],
        ids=["resnet50-n512", "resnet50-n8", "mesh2k-n2"],
    )
    def test_an_edge_that_is_no_cut_moves_nothing(self, build, ranks, n):
        """The example nets under every candidate their layers offer: a
        uniform strategy lowers to no shuffle, so the price of a same-
        placement edge is priced 0.0 on every edge between two owners."""
        spec = build()
        opt = StrategyOptimizer(spec, LASSEN, total_ranks=ranks, n_global=n)
        decision = [layer.name for layer in spec if layer.kind in ("conv", "fc")]
        cands = {p for name in decision for p in opt.candidates(name)}
        edges = [
            (p, layer.name) for layer in spec for p in layer.parents
            if opt.owner[p] != opt.owner[layer.name]
        ]
        assert edges
        for par in cands:
            assert lower(spec, ParallelStrategy.uniform(par), n).shuffles == ()
            for p, child in edges:
                assert opt._pairwise(p, [child], [par], [par]).tolist() == [[0.0]]

    def test_describe(self):
        opt = StrategyOptimizer(build_resnet_tiny(), LASSEN, total_ranks=2, n_global=8)
        report = opt.optimize()
        assert "mini-batch time" in report.describe()
        assert "objective" in report.describe()


def generated_net(seed: int) -> NetworkSpec:
    """A small random conv/pool/add network: convs of kernel 1 or 3 and
    stride 1 or 2, max pools, and residual blocks whose skip is the block's
    input or a 1x1 projection of it."""
    rng = random.Random(seed)
    spec = NetworkSpec(f"gen{seed}")
    size = rng.choice([24, 32, 33])
    spec.add("input", "input", channels=3, height=size, width=size)
    tip = spec.add("c0", "conv", ["input"], filters=4, kernel=3, pad=1)
    channels = 4
    for i in range(1, rng.randint(4, 7)):
        kind = rng.choice(["conv", "pool", "block"])
        if kind == "pool" and size >= 4:
            tip = spec.add(f"p{i}", "pool", [tip], mode="max", kernel=2, stride=2)
            size //= 2
        elif kind == "block":
            filters = rng.choice([4, 8])
            a = spec.add(f"b{i}a", "conv", [tip], filters=filters, kernel=3, pad=1)
            r = spec.add(f"b{i}r", "relu", [a])
            c = spec.add(f"b{i}c", "conv", [r], filters=filters, kernel=1)
            skip = tip if filters == channels else spec.add(
                f"b{i}s", "conv", [tip], filters=filters, kernel=1
            )
            tip = spec.add(f"b{i}", "add", [c, skip])
            channels = filters
        else:
            kernel, stride = rng.choice([1, 3]), rng.choice([1, 2])
            channels = rng.choice([4, 8])
            tip = spec.add(
                f"c{i}", "conv", [tip], filters=channels, kernel=kernel,
                stride=stride, pad=kernel // 2,
            )
            size = (size + stride - 1) // stride
    spec.add("gap", "gap", [tip])
    spec.add("fc", "fc", ["gap"], units=4)
    spec.add("loss", "softmax_ce", ["fc"])
    return spec


class TestElimination:
    """The search is exact: its objective and pick are the minimum over
    every assignment of the same tables."""

    @pytest.mark.parametrize(
        "seed,ranks,n",
        [(None, 4, 2), (None, 8, 2), (None, 2, 8), (3, 4, 2), (4, 4, 4), (4, 8, 2), (5, 4, 2)],
        ids=["tiny-4-2", "tiny-8-2", "tiny-2-8", "gen3-4-2", "gen4-4-4", "gen4-8-2", "gen5-4-2"],
    )
    def test_equals_brute_force(self, seed, ranks, n):
        spec = build_resnet_tiny() if seed is None else generated_net(seed)
        opt = StrategyOptimizer(spec, LASSEN, total_ranks=ranks, n_global=n)
        cands, factors = opt.tables()
        names = list(cands)
        every = np.array(list(itertools.product(*(range(len(cands[v])) for v in names))))
        assert 1 < len(every) <= 10_000
        totals = sum(t[tuple(every[:, names.index(v)] for v in scope)] for scope, t in factors)
        objective, choice = eliminate(factors, names)
        assert objective == pytest.approx(totals.min(), rel=1e-12)
        best = every[np.isclose(totals, totals.min(), rtol=1e-12, atol=0)].tolist()
        assert [choice[v] for v in names] in best
        assert opt.optimize().objective == objective

    def test_a_cycle_is_eliminated_exactly(self):
        """Tables on a triangle, one of them against the elimination order:
        the minimum and an assignment attaining it."""
        rng = np.random.default_rng(0)
        factors = [
            (("a", "b"), rng.random((3, 2))), (("b", "c"), rng.random((2, 4))),
            (("c", "a"), rng.random((4, 3))), (("b",), rng.random(2)),
        ]
        totals = {
            abc: sum(t[tuple(abc["abc".index(v)] for v in s)] for s, t in factors)
            for abc in itertools.product(range(3), range(2), range(4))
        }
        objective, choice = eliminate(factors, ["a", "b", "c"])
        assert objective == pytest.approx(min(totals.values()), rel=1e-12)
        assert totals[choice["a"], choice["b"], choice["c"]] == pytest.approx(objective, rel=1e-12)


@pytest.fixture(scope="module")
def resnet50_16_8():
    """The example's strong-scaled case: ResNet-50, 16 GPUs, mini-batch 8."""
    return StrategyOptimizer(build_resnet50(), LASSEN, total_ranks=16, n_global=8)


def test_unary_tables_count_each_layer_once(resnet50_16_8):
    """Under every uniform candidate, the unary entries of all decision
    layers add up to the layers and blocking collectives the full model
    charges for that strategy: no layer is counted twice or left out."""
    opt = resnet50_16_8
    decision = [layer.name for layer in opt.spec if layer.kind in ("conv", "fc")]
    for par in {p for name in decision for p in opt.candidates(name)}:
        bd = opt.cost_model.cost(opt.n_global, ParallelStrategy.uniform(par))
        charged = sum(c.fp_time() + c.bp_time() for c in bd.per_layer.values())
        charged += sum(bd.comm_ops[c.op_id] for c in bd.schedule.collectives)
        assert sum(opt._unary(d, [par])[0] for d in decision) == pytest.approx(charged, rel=1e-12)


def test_resnet50_strong_scaled_pick(resnet50_16_8):
    """The example's pick: its modeled time, and how many conv layers run
    under each distribution."""
    report = resnet50_16_8.optimize()
    assert report.predicted_time * 1e3 == pytest.approx(60.47, abs=5e-3)
    counts: dict[LP, int] = {}
    for layer in resnet50_16_8.spec.conv_layers():
        par = report.strategy.for_layer(layer.name)
        counts[par] = counts.get(par, 0) + 1
    assert counts == {
        LP(sample=8, height=2): 22,
        LP(sample=4, height=2, width=2): 9,
        LP(height=4, width=4): 22,
        LP(sample=16): 1,
    }
