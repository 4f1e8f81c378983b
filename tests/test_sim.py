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
    spec.add("b2", "bn", ["c2"])
    return spec.add("r2", "relu", ["b2"])


def _dead_input(spec: NetworkSpec) -> str:
    spec.add("p0", "pool", ["input"], mode="avg", kernel=3, stride=1, pad=1)
    spec.add("c1", "conv", ["p0"], filters=8, kernel=3, pad=1)
    return spec.add("c2", "conv", ["c1"], filters=8, kernel=3, pad=1)


def _strided(spec: NetworkSpec) -> str:
    spec.add("c1", "conv", ["input"], filters=8, kernel=3, stride=2, pad=1)
    spec.add("p1", "pool", ["c1"], mode="max", kernel=3, stride=2, pad=1)
    return spec.add("c2", "conv", ["p1"], filters=8, kernel=3, pad=1)


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
    # Stride-2 windows on a height split: one-sided halos, and a max pool
    # between two convolutions whose backward scatter-adds along its
    # forward plan reversed.
    "strided": _case(
        "strided", _strided, ["input"], ["fwd:shuf:input->c1"]
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
    (``repro.core.schedule.lower``): every communication op of it — shuffle,
    blocking collective, halo exchange, gradient bucket — is one simulated
    communication task and one priced term, and is what a real step puts on
    the wire."""

    N = 4
    BUCKET = 1 << 10

    def test_lowered_shuffles(self, spec, strategy, shuffles):
        assert [s.op_id for s in lower(spec, strategy, self.N).shuffles] == shuffles

    @pytest.mark.parametrize("bucket", [DEFAULT_BUCKET_BYTES, BUCKET, 1])
    def test_one_sim_task_and_one_cost_term_per_comm_op(
        self, spec, strategy, shuffles, bucket
    ):
        bd = NetworkCostModel(spec, LASSEN, allreduce_bucket_bytes=bucket).cost(
            self.N, strategy
        )
        eng = TrainingStepSimulator(
            spec, LASSEN, allreduce_bucket_bytes=bucket
        ).simulate(self.N, strategy).engine
        tasks = {t.name: t.duration for t in eng.tasks() if t.resource == "comm"}
        assert tasks == bd.comm_ops
        assert sorted(n for n in tasks if ":shuf:" in n) == sorted(shuffles)
        assert sorted(n for n in tasks if ":halo:" in n) == sorted(
            h.op_id for h in bd.schedule.halos
        )
        assert any(n.startswith("ar:") for n in tasks)
        # Each blocking collective and halo exchange sits in its layer's
        # window: the analyzer joins it to that layer's span.
        colls = bd.schedule.collectives
        assert colls
        for c in colls + bd.schedule.halos:
            phase = c.op_id.partition(":")[0]
            assert eng[c.op_id].op == f"{phase}:{c.layer}"

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

    @pytest.mark.parametrize("bucket", [BUCKET, 1])
    def test_real_step_issues_the_scheduled_ops(self, spec, strategy, shuffles, bucket):
        """A cut that coalesces layers, and one bucket per layer.  Every
        rank starts one exchange per shuffle and halo op and sends what its
        own plan of each op says."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((self.N, 4, 16, 16))
        t = rng.integers(0, 3, size=self.N)

        def prog(comm):
            net = DistNetwork(spec, comm, strategy, seed=0, grad_bucket_bytes=bucket)
            comm.stats.reset()
            net.loss_and_grad(x, t)
            stats = comm.stats
            return (
                net.shuffle_count,
                stats.collectives.get("shuffle", 0),
                stats.collective_bytes.get("shuffle", 0),
                stats.collectives.get("allreduce", 0),
                stats.collective_bytes.get("allreduce", 0),
                stats.collectives.get("iallreduce", 0),
                stats.collective_bytes.get("iallreduce", 0),
                stats.collectives.get("region_data", 0),
                stats.collective_bytes.get("region_data", 0),
            )

        sched = lower(spec, strategy, self.N)
        buckets = sched.grad_buckets(bucket, itemsize=8)
        assert len(buckets) > 1  # the small bucket size really cuts
        collectives = (
            len(sched.collectives), sum(c.elems * 8 for c in sched.collectives),
            len(buckets), sum(b.nbytes for b in buckets),
        )

        def shuffle_bytes(rank: int) -> int:
            return sum(op.plan(rank).sent_cells * 8 for op in sched.shuffles)

        def halo_bytes(rank: int) -> int:
            return sum(
                h.plan(tuple(map(int, np.unravel_index(rank, sched[h.layer].grid_shape))))
                .sent_cells * 8
                for h in sched.halos
            )

        assert run_spmd(strategy.nranks, prog) == [
            (len(shuffles), len(shuffles), shuffle_bytes(r))
            + collectives + (len(sched.halos), halo_bytes(r))
            for r in range(strategy.nranks)
        ]

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
             {"allreduce_bucket_bytes": 1}),
            (build_resnet50, LP(sample=4, width=2), 128, {"allreduce_bucket_bytes": 1 << 20}),
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

    def test_overlap_hides_communication(self):
        """Halo exchanges and allreduces run beside compute: the step is
        shorter than its compute and communication laid end to end."""
        spec = mesh_model_1k()
        strategy = ParallelStrategy.uniform(LP(sample=4, height=4, width=4))
        res = TrainingStepSimulator(spec, LASSEN).simulate(4, strategy)
        assert res.comm_busy > 0
        assert res.minibatch_time < res.compute_busy + res.comm_busy

    def test_comm_exposure_nonnegative(self):
        spec = mesh_model_1k()
        res = TrainingStepSimulator(spec, LASSEN).simulate(
            4, ParallelStrategy.uniform(LP(sample=4, width=2))
        )
        assert res.minibatch_time >= res.compute_busy
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
        """Bucketing coalesces per-layer allreduces (one-byte buckets) into
        fewer comm tasks and never beats compute alone, but stays close to
        the per-layer schedule.  A bucket size that cuts nothing is
        refused."""
        spec = mesh_model_1k()
        strategy = ParallelStrategy.uniform(LP(sample=4, height=2, width=2))
        per_layer = TrainingStepSimulator(
            spec, LASSEN, allreduce_bucket_bytes=1
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
        for bad in (None, 0, -1):
            with pytest.raises(ValueError, match="allreduce_bucket_bytes"):
                TrainingStepSimulator(spec, LASSEN, allreduce_bucket_bytes=bad)

    def test_a_launch_completes_the_bucket_before(self):
        """The evaluator draws the engine's one-bucket-in-flight rule: the
        backward ops after a bucket's launch wait for the bucket launched
        before it (``GradBucket.completes``), and for no other."""
        spec = mesh_model_1k()
        strategy = ParallelStrategy.uniform(LP(sample=4, height=2, width=2))
        model = TrainingStepSimulator(spec, LASSEN, allreduce_bucket_bytes=1)
        buckets = model.cost(4, strategy).buckets
        assert len(buckets) >= 3 and all(b.full for b in buckets)
        waited = {
            dep
            for task in model.simulate(4, strategy).engine.tasks()
            if task.name.startswith("bwd:")
            for dep in task.deps
            if dep.startswith("ar:")
        }
        # The last launch has no backward after it.
        assert waited == {buckets[b.completes].op_id for b in buckets[1:-1]}

    def test_a_bucket_launches_after_its_layers_data_convolution(self):
        """The engine adds a layer's partials to the reducer after its whole
        backward, Eq. 3 included, so the evaluator makes a bucket ready with
        the launching layer's data convolution, not its filter one."""
        spec = mesh_model_1k()
        strategy = ParallelStrategy.uniform(LP(sample=4, height=2, width=2))
        model = TrainingStepSimulator(spec, LASSEN, allreduce_bucket_bytes=1)
        bd = model.cost(4, strategy)
        eng = model.simulate(4, strategy).engine
        need_dx = {op.name for op in bd.schedule.backward if op.need_dx}
        launched = [(b.op_id, b.layers[-1]) for b in bd.buckets if b.layers[-1] in need_dx]
        assert len(launched) >= 3
        for bucket, layer in launched:
            assert f"bwd:{layer}:data" in eng[bucket].deps, bucket
            assert eng[bucket].start >= eng[f"bwd:{layer}:data"].finish

    def test_overlapped_shuffle_decomposition(self):
        """On a small mesh config with a skip edge crossing a strategy
        change, the simulator's step time follows the analytic
        ``max(compute, shuffle) + exposed`` decomposition (which shuffle
        tasks exist, and at what price, is ``TestScheduleConformance``)."""
        spec, strategy, _ = CASES["skip"]()
        n = 8
        eng = TrainingStepSimulator(spec, LASSEN).simulate(n, strategy).engine
        bd = NetworkCostModel(spec, LASSEN).cost(n, strategy)
        price = bd.comm_ops
        s_c0, s_a1 = price["fwd:shuf:c0->join"], price["fwd:shuf:a1->join"]

        # The skip-edge shuffle (ready when c0 finishes) hides behind the
        # a1 branch; join waits for
        # c0 + max(skip shuffle, branch compute) + the a1 shuffle.
        t0 = eng["fwd:c0"].finish
        branch = eng["fwd:a1"].duration
        assert eng["fwd:join"].start == pytest.approx(
            t0 + max(s_c0, branch) + s_a1
        )

        assert eng["fwd:shuf:c0->join"].duration == s_c0

        # Every shuffle is priced from its plans (2 edges x fwd+bwd = 4
        # here); an edge's backward moves the forward's boxes back.
        assert price["bwd:shuf:join->c0"] == s_c0 and price["bwd:shuf:join->a1"] == s_a1
        assert bd.shuffle_total == pytest.approx(2 * (s_c0 + s_a1))

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
        eng = TrainingStepSimulator(spec, LASSEN).simulate(8, strategy).engine
        bwd = {t.name for t in eng.tasks() if t.name.startswith("bwd:")}
        assert "fwd:shuf:input->p0" in eng._tasks
        assert {"bwd:halo:c2", "bwd:c2:filter", "bwd:c2:data", "bwd:c1:filter"} <= bwd
        assert not any(n.startswith(("bwd:c1:data", "bwd:halo:c1")) for n in bwd)
        assert not any(n.startswith(("bwd:p0", "bwd:shuf")) for n in bwd)
