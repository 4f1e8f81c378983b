"""Discrete-event engine and training-step simulation."""

import numpy as np
import pytest

from repro.comm import run_spmd
from repro.core import DistNetwork
from repro.core.grad_reducer import DEFAULT_BUCKET_BYTES
from repro.core.parallelism import LayerParallelism as LP
from repro.core.parallelism import ParallelStrategy
from repro.core.schedule import lower
from repro.nn import NetworkSpec
from repro.nn.meshnet import mesh_model_1k
from repro.nn.resnet import build_resnet50
from repro.perfmodel import LASSEN, MemoryModel, NetworkCostModel
from repro.sim import SimEngine, TrainingStepSimulator


class TestSimEngine:
    def test_chain(self):
        eng = SimEngine()
        eng.add("a", 1.0, "cpu")
        eng.add("b", 2.0, "cpu", deps=("a",))
        assert eng.run() == pytest.approx(3.0)
        assert eng["b"].start == pytest.approx(1.0)

    def test_parallel_resources_overlap(self):
        eng = SimEngine()
        eng.add("compute", 5.0, "compute")
        eng.add("comm", 3.0, "comm")
        eng.add("join", 1.0, "compute", deps=("compute", "comm"))
        assert eng.run() == pytest.approx(6.0)

    def test_resource_exclusivity(self):
        eng = SimEngine()
        eng.add("a", 2.0, "gpu")
        eng.add("b", 2.0, "gpu")
        assert eng.run() == pytest.approx(4.0)

    def test_fifo_order(self):
        eng = SimEngine()
        eng.add("first", 1.0, "gpu")
        eng.add("second", 1.0, "gpu")
        eng.run()
        assert eng["first"].start < eng["second"].start

    def test_duplicate_task(self):
        eng = SimEngine()
        eng.add("a", 1.0, "x")
        with pytest.raises(ValueError, match="duplicate"):
            eng.add("a", 1.0, "x")

    def test_unknown_dep(self):
        eng = SimEngine()
        with pytest.raises(ValueError, match="unknown"):
            eng.add("a", 1.0, "x", deps=("ghost",))

    def test_negative_duration(self):
        eng = SimEngine()
        with pytest.raises(ValueError, match="negative"):
            eng.add("a", -1.0, "x")

    def test_busy_time(self):
        eng = SimEngine()
        eng.add("a", 1.5, "gpu")
        eng.add("b", 0.5, "nic")
        eng.run()
        assert eng.busy_time("gpu") == pytest.approx(1.5)


#: Two-rank placements the generated cases cut between, and a four-rank
#: pair whose hybrid side reduces FC gradients over its sample axis only.
A, B = LP(sample=2), LP(height=2)
A4, B4 = LP(sample=4), LP(sample=2, height=2)


def _net(name: str, body) -> NetworkSpec:
    """input -> ``body(spec)`` (returns its tip) -> gap -> fc -> loss."""
    spec = NetworkSpec(name)
    spec.add("input", "input", channels=4, height=16, width=16)
    tip = body(spec)
    spec.add("gap", "gap", [tip])
    spec.add("fc", "fc", ["gap"], units=3)
    spec.add("loss", "softmax_ce", ["fc"])
    return spec


def _branch(spec: NetworkSpec) -> str:
    spec.add("c0", "conv", ["input"], filters=8, kernel=3, pad=1)
    spec.add("a1", "conv", ["c0"], filters=8, kernel=3, pad=1)
    return spec.add("join", "add", ["a1", "c0"])


def _line(spec: NetworkSpec) -> str:
    spec.add("c1", "conv", ["input"], filters=8, kernel=3, pad=1, bias=True)
    spec.add("r1", "relu", ["c1"])
    spec.add("c2", "conv", ["r1"], filters=8, kernel=3, pad=1)
    return spec.add("r2", "relu", ["c2"])


def _dead_input(spec: NetworkSpec) -> str:
    spec.add("p0", "pool", ["input"], mode="avg", kernel=3, stride=1, pad=1)
    spec.add("c1", "conv", ["p0"], filters=8, kernel=3, pad=1)
    return spec.add("c2", "conv", ["c1"], filters=8, kernel=3, pad=1)


def _case(name, body, on_a, shuffles, a=A, b=B):
    """``() -> (spec, mixed strategy, shuffle op ids)``: ``on_a`` layers run
    on ``a`` and the rest on ``b``; the ids are what one step of it issues,
    in issue order."""
    return lambda: (
        _net(name, body), ParallelStrategy(dict.fromkeys(on_a, a), default=b), shuffles
    )


#: Generated small networks x the mixed strategy that cuts each of them.
CASES = {
    # A line with one cut: one forward and one backward shuffle.
    "line": _case(
        "line", _line, ["input", "c1", "r1"],
        ["fwd:shuf:r1->c2", "bwd:shuf:c2->r1"],
    ),
    # A skip edge crossing the cut: both parents of the join redistribute.
    "skip": _case(
        "shuffle-branch", _branch, ["input", "c0", "a1"],
        ["fwd:shuf:c0->join", "fwd:shuf:a1->join",
         "bwd:shuf:join->a1", "bwd:shuf:join->c0"],
    ),
    # Two children on one placement read the same redistributed tensor:
    # one forward shuffle, one backward shuffle per edge.
    "shared": _case(
        "shared-shuffle", _branch, ["input", "c0"],
        ["fwd:shuf:c0->a1", "bwd:shuf:join->c0", "bwd:shuf:a1->c0"],
    ),
    # Nothing below the first conv takes an error signal: the input's
    # activation is shuffled forward and nothing comes back.
    "dead-input": _case(
        "dead-input", _dead_input, ["input"], ["fwd:shuf:input->p0"]
    ),
    # Four ranks: the FC layer's gradient group is 2 of them.
    "hybrid": _case(
        "hybrid", _line, ["input", "c1", "r1"],
        ["fwd:shuf:r1->c2", "bwd:shuf:c2->r1"], a=A4, b=B4,
    ),
}


def _cases():
    for label, make in CASES.items():
        spec, mixed, shuffles = make()
        uniform = ParallelStrategy.uniform(mixed.for_layer("loss"))  # all on b
        yield pytest.param(spec, mixed, shuffles, id=f"{label}-mixed")
        yield pytest.param(spec, uniform, [], id=f"{label}-uniform")


@pytest.mark.parametrize("spec,strategy,shuffles", list(_cases()))
class TestScheduleConformance:
    """Engine, evaluator and memory model read one lowered schedule
    (``repro.core.schedule.lower``): every communication op of it is one
    simulated communication task and one priced term, and is what a real
    step puts on the wire."""

    N = 4
    BUCKET = 1 << 10

    def test_lowered_shuffles(self, spec, strategy, shuffles):
        assert [s.op_id for s in lower(spec, strategy, self.N).shuffles] == shuffles

    @pytest.mark.parametrize("overlap_shuffle", [True, False])
    @pytest.mark.parametrize("bucket", [None, BUCKET])
    def test_one_sim_task_and_one_cost_term_per_comm_op(
        self, spec, strategy, shuffles, overlap_shuffle, bucket
    ):
        bd = NetworkCostModel(spec, LASSEN, allreduce_bucket_bytes=bucket).cost(
            self.N, strategy
        )
        eng = TrainingStepSimulator(
            spec, LASSEN, overlap_shuffle=overlap_shuffle,
            allreduce_bucket_bytes=bucket,
        ).simulate(self.N, strategy).engine
        tasks = {
            t.name: t.duration for t in eng.tasks()
            if t.resource == "comm"
            and (":shuf:" in t.name or t.name.startswith("ar:bucket"))
        }
        assert tasks == bd.comm_ops
        assert sorted(n for n in tasks if ":shuf:" in n) == sorted(shuffles)
        assert (bucket is None) == (not any(n.startswith("ar:") for n in tasks))

    def test_buckets_are_the_engines(self, spec, strategy, shuffles):
        """By default the evaluator reduces gradients in the engine's
        buckets: same cuts, same op ids, same gradient groups."""
        bd = NetworkCostModel(spec, LASSEN).cost(self.N, strategy)
        engine = lower(spec, strategy, self.N).grad_buckets(
            DEFAULT_BUCKET_BYTES, LASSEN.dtype_bytes
        )
        assert engine
        assert [(b.op_id, b.layers, b.group[0]) for b in bd.buckets] == [
            (b.op_id, b.layers, b.group[0]) for b in engine
        ]

    @pytest.mark.parametrize("overlap_shuffle", [True, False])
    def test_real_step_issues_the_scheduled_ops(
        self, spec, strategy, shuffles, overlap_shuffle
    ):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((self.N, 4, 16, 16))
        t = rng.integers(0, 3, size=self.N)

        def prog(comm):
            net = DistNetwork(
                spec, comm, strategy, seed=0, overlap_shuffle=overlap_shuffle,
                grad_bucket_bytes=self.BUCKET,
            )
            comm.stats.reset()
            net.loss_and_grad(x, t)
            stats = comm.stats
            return (
                net.shuffle_count,
                stats.collectives.get("shuffle", 0),
                stats.collectives.get("iallreduce", 0),
                stats.collective_bytes.get("iallreduce", 0),
            )

        buckets = lower(spec, strategy, self.N).grad_buckets(self.BUCKET, itemsize=8)
        assert len(buckets) > 1  # the small bucket size really cuts
        expected = (
            len(shuffles), len(shuffles),
            len(buckets), sum(b.nbytes for b in buckets),
        )
        assert run_spmd(strategy.nranks, prog) == [expected] * strategy.nranks

    def test_error_signals_are_the_backward_layers(self, spec, strategy, shuffles):
        mem = MemoryModel(spec, LASSEN).breakdown(self.N, strategy)
        backward = lower(spec, strategy, self.N).backward
        assert mem.error_signals == sum(
            mem.per_layer_activations[op.name] for op in reversed(backward)
        )


class TestTrainingSimulator:
    @pytest.mark.parametrize(
        "spec_fn,par,n,kwargs",
        [
            (mesh_model_1k, LP(sample=4), 4, {}),
            (mesh_model_1k, LP(sample=4, height=2, width=2), 4,
             {"overlap_halo": False, "allreduce_bucket_bytes": None}),
            (build_resnet50, LP(sample=4, width=2), 128, {"overlap_allreduce": False}),
        ],
    )
    def test_minibatch_time_is_the_simulated_makespan(self, spec_fn, par, n, kwargs):
        """One timeline: the cost model's mini-batch time is the simulated
        step's makespan, exactly, for the same arguments."""
        spec = spec_fn()
        strategy = ParallelStrategy.uniform(par)
        modeled = NetworkCostModel(spec, LASSEN, **kwargs).minibatch_time(n, strategy)
        simulated = TrainingStepSimulator(spec, LASSEN, **kwargs).simulate(n, strategy)
        assert modeled == simulated.minibatch_time

    def test_overlap_off_is_slower(self):
        spec = mesh_model_1k()
        strategy = ParallelStrategy.uniform(LP(sample=4, height=4, width=4))
        on = TrainingStepSimulator(spec, LASSEN).simulate(4, strategy)
        off = TrainingStepSimulator(
            spec, LASSEN, overlap_halo=False, overlap_allreduce=False
        ).simulate(4, strategy)
        assert off.minibatch_time > on.minibatch_time

    def test_comm_exposure_nonnegative(self):
        spec = mesh_model_1k()
        res = TrainingStepSimulator(spec, LASSEN).simulate(
            4, ParallelStrategy.uniform(LP(sample=4, width=2))
        )
        assert res.comm_exposed >= 0.0
        assert res.comm_busy > 0.0

    def test_sample_parallel_comm_is_allreduce_only(self):
        spec = mesh_model_1k()
        res = TrainingStepSimulator(spec, LASSEN).simulate(
            4, ParallelStrategy.uniform(LP(sample=4))
        )
        # No halo tasks: comm busy time == total allreduce+BN stats time.
        halo_tasks = [
            n for n in res.engine._tasks if "halo" in n
        ]
        assert halo_tasks == []

    def test_bucketed_allreduce_schedule(self):
        """Bucketing coalesces per-layer allreduces into fewer comm tasks
        and never beats compute alone, but stays close to the per-layer
        overlap schedule."""
        spec = mesh_model_1k()
        strategy = ParallelStrategy.uniform(LP(sample=4, height=2, width=2))
        per_layer = TrainingStepSimulator(
            spec, LASSEN, allreduce_bucket_bytes=None
        ).simulate(4, strategy)
        bucketed = TrainingStepSimulator(
            spec, LASSEN, allreduce_bucket_bytes=1 << 22
        ).simulate(4, strategy)
        n_ar_per_layer = sum(
            1 for n in per_layer.engine._tasks if n.startswith("ar:")
        )
        n_ar_bucketed = sum(
            1 for n in bucketed.engine._tasks if n.startswith("ar:")
        )
        assert 0 < n_ar_bucketed < n_ar_per_layer
        compute = sum(
            t.duration for t in per_layer.engine.tasks()
            if t.resource == "compute" and not t.op.startswith("ar:")  # contention
        )
        assert bucketed.minibatch_time >= compute - 1e-12
        assert bucketed.minibatch_time == pytest.approx(
            per_layer.minibatch_time, rel=0.05
        )

    def test_overlapped_shuffle_decomposition(self):
        """On a small mesh config with a skip edge crossing a strategy
        change, the simulator's step time follows the analytic
        ``max(compute, shuffle) + exposed`` decomposition (which shuffle
        tasks exist, and at what price, is ``TestScheduleConformance``)."""
        spec, strategy, _ = CASES["skip"]()
        n = 8
        sim_on = TrainingStepSimulator(spec, LASSEN).simulate(n, strategy)
        sim_off = TrainingStepSimulator(
            spec, LASSEN, overlap_shuffle=False
        ).simulate(n, strategy)
        model = NetworkCostModel(spec, LASSEN)
        eng = sim_on.engine
        s_c0 = model.shuffle_edge_cost("c0", n, strategy)
        s_a1 = model.shuffle_edge_cost("a1", n, strategy)

        # The skip-edge shuffle (ready when c0 finishes) hides behind the
        # a1 branch; join waits for
        # c0 + max(skip shuffle, branch compute) + the a1 shuffle.
        t0 = eng["fwd:c0"].finish
        branch = eng["fwd:a1"].duration
        assert eng["fwd:join"].start == pytest.approx(
            t0 + max(s_c0, branch) + s_a1
        )

        # Finishing where it starts serializes the shuffle at consumption;
        # its duration is the same payload time (one exchange implementation).
        assert sim_off.engine["fwd:shuf:c0->join"].duration == s_c0
        assert sim_off.minibatch_time >= sim_on.minibatch_time

        # Every shuffle is priced at its payload (2 edges x fwd+bwd = 4 here).
        assert model.cost(n, strategy).shuffle_total == pytest.approx(2 * (s_c0 + s_a1))

    def test_no_error_signal_tasks_below_first_parameterised_layer(self):
        """Same predicate as the engine: the first conv has a filter task
        but no data/halo task, the pool under it has no backward at all,
        and no error-signal shuffle goes back to the input."""
        spec = NetworkSpec("dead-input")
        spec.add("input", "input", channels=4, height=16, width=16)
        spec.add("p0", "pool", ["input"], mode="avg", kernel=3, stride=1, pad=1)
        spec.add("c1", "conv", ["p0"], filters=8, kernel=3, pad=1)
        spec.add("c2", "conv", ["c1"], filters=8, kernel=3, pad=1)
        strategy = ParallelStrategy({"input": LP(sample=4)}, default=LP(height=2, width=2))
        for overlap_halo in (True, False):
            eng = TrainingStepSimulator(
                spec, LASSEN, overlap_halo=overlap_halo
            ).simulate(8, strategy).engine
            bwd = {t.name for t in eng.tasks() if t.name.startswith("bwd:")}
            assert "fwd:shuf:input->p0" in eng._tasks
            assert {"bwd:c2:halo", "bwd:c2:filter", "bwd:c2:data", "bwd:c1:filter"} <= bwd
            assert not any(n.startswith(("bwd:c1:data", "bwd:c1:halo")) for n in bwd)
            assert not any(n.startswith(("bwd:p0", "bwd:shuf")) for n in bwd)

    def test_bucketing_requires_overlap(self):
        """Bucket bytes are ignored when allreduce overlap is disabled."""
        spec = mesh_model_1k()
        strategy = ParallelStrategy.uniform(LP(sample=4))
        plain = TrainingStepSimulator(
            spec, LASSEN, overlap_allreduce=False
        ).simulate(4, strategy)
        with_bucket = TrainingStepSimulator(
            spec, LASSEN, overlap_allreduce=False, allreduce_bucket_bytes=1 << 22
        ).simulate(4, strategy)
        assert with_bucket.minibatch_time == plain.minibatch_time
