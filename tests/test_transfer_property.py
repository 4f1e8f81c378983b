"""Property suite for the one planned transfer (halo gather, shuffle, scatter-add).

A transfer is a plan and an exchange, and a wrong plan is silent data
corruption, so the three plans over the one
:class:`~repro.tensor.exchange.PlannedExchange` are checked against plain
numpy on the global array over generated layouts — 1-4 ranks, 2D and 4D
tensors, uneven partitions, empty shards (a dimension smaller than its part
count), replicated axes — and regions reaching past the global edge:

* planned gather == the region of ``to_global()`` (``fill`` outside the
  tensor), and the ``region_data`` bytes a rank records == the cells of
  every peer's region (clipped to the tensor) that lie in its block;
* shuffle == ``DistTensor.from_global`` under the destination distribution,
  and there-and-back is the identity;
* scatter-add == accumulating every rank's region on the global array
  (small integers, so order cannot matter), and is the adjoint of the
  gather: ``<gather(x), r> == <x, scatter_add(r)>``;
* ``finish()`` is idempotent on every exchange (a forward shuffle shared
  by several consumers is finished by each of them);
* the floating-point order of an accumulating exchange — own contribution
  first, then peers in ascending comm rank — gives the same bits on the
  thread, process and socket backends.

Each check runs on every rank inside ``run_spmd``; hypothesis drives the
thread backend one case per launch, and the seeded 100-case redistribution
sweep feeds the same shuffle check on every backend (forked backends run a
prefix of it in one launch).
"""

from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SPMD_BACKENDS, region_of, region_plan
from repro.comm import run_spmd
from repro.tensor import (
    DistTensor,
    Distribution,
    ProcessGrid,
    shuffle,
    shuffle_plan,
    shuffle_plan_stats,
    start_region_exchange,
    start_shuffle,
)
from repro.tensor.distribution import DimKind
from repro.tensor.indexing import intersect, place_region

# -- generated cases -----------------------------------------------------------


@dataclass(frozen=True)
class Layout:
    grid: tuple[int, ...]
    replicated: tuple[int, ...] = ()

    @property
    def dist(self) -> Distribution:
        return Distribution.make(self.grid, self.replicated)


@dataclass(frozen=True)
class Case:
    """One tensor, one or two layouts of it, one region per rank."""

    shape: tuple[int, ...]
    src: Layout
    dst: Layout | None = None
    #: ``(lo, hi)`` per comm rank (gather / scatter-add cases).
    regions: tuple = ()
    seed: int = 0

    @property
    def nranks(self) -> int:
        return int(np.prod(self.src.grid))

    def tensor(self) -> np.ndarray:
        """Small integers: every sum of them is exact in float64."""
        rng = np.random.default_rng(self.seed)
        return rng.integers(-4, 5, size=self.shape).astype(np.float64)

    def contribution(self, rank: int) -> np.ndarray:
        lo, hi = self.regions[rank]
        rng = np.random.default_rng((self.seed, rank))
        shape = tuple(h - b for b, h in zip(lo, hi))
        return rng.integers(-4, 5, size=shape).astype(np.float64)


def _grids(nranks: int, ndim: int) -> list[tuple[int, ...]]:
    """Every factorisation of ``nranks`` over ``ndim`` grid axes."""
    if ndim == 1:
        return [(nranks,)]
    return [
        (f,) + rest
        for f in range(1, nranks + 1)
        if nranks % f == 0
        for rest in _grids(nranks // f, ndim - 1)
    ]


@st.composite
def layouts(draw, nranks: int, ndim: int) -> Layout:
    grid = draw(st.sampled_from(_grids(nranks, ndim)))
    replicated = tuple(
        d for d in range(ndim) if grid[d] > 1 and draw(st.booleans())
    )
    return Layout(grid, replicated)


@st.composite
def cases(draw, regions: bool = False, two_layouts: bool = False) -> Case:
    nranks = draw(st.integers(1, 4))
    ndim = draw(st.sampled_from([2, 4]))
    # Extents down to 1: fewer indices than parts leaves empty shards,
    # 5/7 over 2-4 parts are uneven.
    shape = tuple(draw(st.integers(1, 7)) for _ in range(ndim))
    src = draw(layouts(nranks, ndim))
    dst = draw(layouts(nranks, ndim)) if two_layouts else None
    per_rank = []
    if regions:
        for _ in range(nranks):
            # Start and end anywhere from 3 cells before the tensor to 3
            # past it, empty regions included.
            lo = tuple(draw(st.integers(-3, n + 2)) for n in shape)
            hi = tuple(b + draw(st.integers(0, n + 3)) for b, n in zip(lo, shape))
            per_rank.append((lo, hi))
    return Case(shape, src, dst, tuple(per_rank), draw(st.integers(0, 2**16)))


def run_cases(check, batch, nranks: int, backend: str = "thread") -> None:
    def prog(comm):
        for case in batch:
            check(comm, case)
        return True

    assert all(run_spmd(nranks, prog, backend=backend))


# -- checks (run on every rank) ---------------------------------------------------


def _replica_group_block_cells(grid, dist, shape, rank, region) -> int:
    """Cells of ``region``, clipped to the tensor, that ``rank``'s block
    holds — the cells it serves to a gatherer of its replica group."""
    n = 1
    for (b, h), (o_lo, o_hi), extent in zip(
        zip(*region), dist.local_bounds(shape, grid.coords_of(rank)), shape
    ):
        lo, hi = intersect(intersect((b, h), (0, extent)), (o_lo, o_hi))
        n *= max(hi - lo, 0)
    return n


def check_gather(comm, case: Case) -> None:
    """Planned gather (the whole region, then two staged boxes of it) == the
    region of ``to_global()``, ``fill`` outside it; ``finish()`` idempotent; the bytes
    recorded == the cells this rank's block holds of its replica-group
    peers' regions."""
    x = case.tensor()
    grid = ProcessGrid(comm, case.src.grid)
    dt = DistTensor.from_global(grid, case.src.dist, x)
    lo, hi = case.regions[comm.rank]
    want = region_of(dt.to_global(), lo, hi, fill=-1.0)

    plan = region_plan(dt, case.regions)
    before = comm.stats.collective_bytes.get("region_data", 0)
    ex = start_region_exchange(dt, plan, fill=-1.0)
    sent = comm.stats.collective_bytes.get("region_data", 0) - before
    (got,) = ex.finish()
    np.testing.assert_array_equal(got, want)
    assert ex.finish()[0] is got and ex.remaining == 0
    np.testing.assert_array_equal(got, want)
    cells = sum(
        _replica_group_block_cells(grid, case.src.dist, case.shape, comm.rank, region)
        for j, region in enumerate(case.regions)
        if j != comm.rank and _same_replica_group(grid, case.src.dist, j)
    )
    assert sent == cells * x.itemsize

    # Staged boxes: two halves of the region along its last axis, sharing
    # a column where they can; each holds exactly its cells of the region.
    b, h = plan.box[-1]
    mid = (b + h) // 2
    halves = [plan.box[:-1] + ((b, min(mid + 1, h)),), plan.box[:-1] + ((mid, h),)]
    staged = start_region_exchange(dt, plan, fill=-1.0, boxes=halves)
    staged.poll()
    for box, part in zip(halves, staged.finish(), strict=True):
        np.testing.assert_array_equal(
            part, want[tuple(slice(lo - o, hi - o) for (lo, hi), o in zip(box, plan.lo))]
        )


def check_shuffle(comm, case: Case) -> None:
    """Shard == global-array slice, content preserved, round trip ==
    identity — for ``shuffle`` and for an exchange finished after
    independent work; ``finish()`` idempotent."""
    x = case.tensor()
    src_grid, dst_grid = ProcessGrid(comm, case.src.grid), ProcessGrid(comm, case.dst.grid)
    src = DistTensor.from_global(src_grid, case.src.dist, x)
    want = DistTensor.from_global(dst_grid, case.dst.dist, x)

    at_once = shuffle(src, dst_grid, case.dst.dist)
    plan = shuffle_plan(comm.rank, case.src.dist, case.dst.dist, x.shape)
    ex = start_shuffle(src, dst_grid, case.dst.dist, plan)
    # Independent work between start and finish: what the engine runs here
    # (sibling branches, gradient bucketing) must not perturb the exchange.
    _ = float(np.sum(src.local)) if src.local.size else 0.0
    assert ex.poll() == ex.remaining
    deferred = ex.finish()
    assert ex.finish() is deferred and ex.remaining == 0

    for got in (at_once, deferred):
        assert got.dist == want.dist
        np.testing.assert_array_equal(got.local, want.local)
    np.testing.assert_array_equal(at_once.to_global(), x)
    back = shuffle(at_once, src_grid, case.src.dist)
    np.testing.assert_array_equal(back.local, src.local)


def _same_replica_group(grid: ProcessGrid, dist: Distribution, rank: int) -> bool:
    """Does ``rank`` share this rank's coordinates on the replicated axes?"""
    theirs = grid.coords_of(rank)
    return all(
        theirs[d] == grid.coords[d]
        for d in range(dist.ndim)
        if not dist.is_split(d)
    )


def check_scatter_add(comm, case: Case) -> None:
    """Scatter-add == accumulate on the global array (per replica group);
    ``finish()`` idempotent; and it is the adjoint of the gather."""
    grid, dist = ProcessGrid(comm, case.src.grid), case.src.dist
    lo, hi = case.regions[comm.rank]
    mine = case.contribution(comm.rank)

    # Oracle: everything scattered within my replica group, added up on a
    # global array, then sliced to my block.
    total = np.zeros(case.shape)
    for r in range(comm.size):
        if _same_replica_group(grid, dist, r):
            place_region(total, case.contribution(r), case.regions[r][0], accumulate=True)
    want = DistTensor.from_global(grid, dist, total).local

    planned = DistTensor.zeros(grid, dist, case.shape)
    plan = region_plan(planned, case.regions)
    ex = planned.start_scatter_region_add(mine, lo, plan=plan)
    ex.finish()
    ex.finish()  # remote contributions fold in once
    np.testing.assert_array_equal(planned.local, want)

    # Adjoint: sum over ranks of <gather_r(x), r's region> == sum over
    # ranks of <x shard, scatter-added shard> (each replica group tiles the
    # tensor once on both sides).
    x = DistTensor.from_global(grid, dist, case.tensor())
    (gathered,) = start_region_exchange(x, plan).finish()
    lhs = comm.allreduce(float(np.sum(gathered * mine)))
    rhs = comm.allreduce(float(np.sum(x.local * planned.local)))
    assert lhs == rhs


@settings(deadline=None)
@given(case=cases(regions=True))
def test_planned_gather_equals_global_region(case):
    run_cases(check_gather, [case], case.nranks)


@settings(deadline=None)
@given(case=cases(two_layouts=True))
def test_shuffle_equals_global_slice_and_round_trips(case):
    run_cases(check_shuffle, [case], case.nranks)


@settings(deadline=None)
@given(case=cases(regions=True))
def test_scatter_add_accumulates_and_is_adjoint_of_gather(case):
    run_cases(check_scatter_add, [case], case.nranks)


def brute_force_shuffle_plan(rank, src, dst, shape):
    """``shuffle_plan`` by intersecting ``rank`` with every peer, both ways,
    in ascending rank: the canonical replica of a source shard (coordinate
    0 on its replicated axes) sends, every destination replica receives."""
    from repro.tensor.exchange import TransferPlan, cells

    def shards(dist):
        rep = [d for d, k in enumerate(dist.kinds) if k is DimKind.REPLICATED]
        return [
            (dist.local_bounds(shape, c), all(c[d] == 0 for d in rep))
            for c in np.ndindex(*dist.grid_shape)
        ]

    def meet(a, b):
        box = tuple((max(a0, b0), min(a1, b1)) for (a0, a1), (b0, b1) in zip(a, b))
        return box if all(h > b for b, h in box) else None

    sources, blocks = shards(src), shards(dst)
    mine, canonical = sources[rank]
    block = blocks[rank][0]
    sends, recvs, local = [], [], []
    for peer, ((theirs, sends_any), (their_block, _)) in enumerate(zip(sources, blocks)):
        box = meet(mine, their_block) if canonical else None
        if box is not None and peer == rank:
            local.append(box)
        elif box is not None:
            sends.append((peer, box))
        box = meet(theirs, block) if sends_any and peer != rank else None
        if box is not None:
            recvs.append((peer, box))
    return TransferPlan(
        block, tuple(sends), tuple(recvs), tuple(local), sum(cells(b) for _, b in sends)
    )


@st.composite
def plan_cases(draw):
    """(src, dst, shape) over 1-64 ranks: every factorisation of the rank
    count over 2 or 4 axes, random replicated axes on either side, extents
    down to 1 (empty shards) and uneven."""
    nranks = draw(st.sampled_from([1, 2, 4, 8, 16, 64]))
    ndim = draw(st.sampled_from([2, 4]))
    src, dst = draw(layouts(nranks, ndim)), draw(layouts(nranks, ndim))
    shape = tuple(draw(st.integers(1, 12)) for _ in range(ndim))
    return src.dist, dst.dist, shape


@settings(deadline=None)
@given(plan_cases())
def test_shuffle_plan_equals_brute_force_oracle(case):
    """The planner searches only the peers whose blocks meet a rank's on
    every axis; what it finds, and in which order, is what intersecting
    every pair gives."""
    src, dst, shape = case
    for rank in range(int(np.prod(src.grid_shape))):
        assert shuffle_plan(rank, src, dst, shape) == brute_force_shuffle_plan(
            rank, src, dst, shape
        ), rank


# -- pinned inputs ---------------------------------------------------------------

#: Grid shapes over 4 ranks, by tensor rank.
GRIDS = {
    2: [(4, 1), (1, 4), (2, 2)],
    3: [(4, 1, 1), (1, 4, 1), (1, 1, 4), (2, 2, 1), (2, 1, 2), (1, 2, 2)],
    4: [(4, 1, 1, 1), (1, 1, 2, 2), (2, 1, 2, 1), (1, 1, 4, 1), (1, 2, 1, 2)],
}


def _seeded_redistributions(n_cases: int = 100, seed: int = 1234) -> list[Case]:
    """The seeded (shape, src grid+dist, dst grid+dist) sweep over 4 ranks."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_cases):
        ndim = int(rng.choice([2, 2, 3, 3, 4]))
        grids = GRIDS[ndim]
        src_grid = grids[int(rng.integers(len(grids)))]
        dst_grid = grids[int(rng.integers(len(grids)))]
        # Dimensions down to 1: a block axis with more parts than indices
        # leaves some ranks with empty shards; 7/9 over 2/4 parts exercises
        # uneven partitions.
        shape = tuple(int(rng.integers(1, 10)) for _ in range(ndim))
        # Replicate a random subset of the non-trivial axes on either side.
        src_rep = tuple(
            d for d in range(ndim) if src_grid[d] > 1 and rng.random() < 0.3
        )
        dst_rep = tuple(
            d for d in range(ndim) if dst_grid[d] > 1 and rng.random() < 0.3
        )
        out.append(
            Case(shape, Layout(src_grid, src_rep), Layout(dst_grid, dst_rep), seed=i)
        )
    return out


REDISTRIBUTIONS = _seeded_redistributions()

#: The forked backends sweep a prefix of the same cases to keep CI time
#: bounded; the thread backend keeps the full sweep.
N_CASES_FORKED = 20


def test_seeded_redistribution_sweep(backend):
    batch = REDISTRIBUTIONS if backend == "thread" else REDISTRIBUTIONS[:N_CASES_FORKED]
    run_cases(check_shuffle, batch, 4, backend)


def test_sweep_covers_edge_cases():
    """The seeded sweep actually contains the advertised edge cases."""
    has_src_rep = has_dst_rep = has_empty = has_uneven = False
    for case in REDISTRIBUTIONS:
        sd, dd = case.src.dist, case.dst.dist
        has_src_rep |= bool(case.src.replicated)
        has_dst_rep |= bool(case.dst.replicated)
        for d, n in enumerate(case.shape):
            if sd.is_split(d) or dd.is_split(d):
                parts = max(sd.parts(d), dd.parts(d))
                if n < parts:
                    has_empty = True
                elif n % parts:
                    has_uneven = True
    assert has_src_rep and has_dst_rep and has_empty and has_uneven


def test_reverse_halo_accumulation():
    """Each rank scatters a region one cell wider than its block; interior
    overlaps accumulate, out-of-range parts are dropped — and the transfer
    reaches the plan's partners only."""
    dist = Distribution.make((2,))

    def prog(comm):
        grid = ProcessGrid(comm, (2,))
        dt = DistTensor.zeros(grid, dist, (8,))
        lo, hi = dt.bounds[0]
        regions = [((4 * r - 1,), (4 * r + 5,)) for r in range(comm.size)]
        dt.scatter_region_add(np.ones(hi - lo + 2), (lo - 1,), region_plan(dt, regions))
        return dt.to_global()

    for got in run_spmd(2, prog):
        # Interior boundary cells (3 and 4) get contributions from both
        # ranks; edge cells' out-of-range contributions are dropped.
        np.testing.assert_array_equal(got, [1, 1, 1, 2, 2, 1, 1, 1])


def test_scatter_add_messages_plan_partners_only():
    """On a 2x2 sample x height grid a height halo has one partner: the
    scatter-add posts one message, not one to each of the p-1 peers."""
    grid_shape = (2, 1, 2, 1)

    def prog(comm):
        grid = ProcessGrid(comm, grid_shape)
        dist = Distribution.make(grid_shape)
        dt = DistTensor.zeros(grid, dist, (2, 1, 8, 4))
        bounds = [dist.local_bounds(dt.global_shape, grid.coords_of(r)) for r in range(4)]
        regions = [
            (
                (b[0][0], 0, b[2][0] - 1, 0),
                (b[0][1], 1, b[2][1] + 1, 4),
            )
            for b in bounds
        ]
        lo, hi = regions[comm.rank]
        plan = region_plan(dt, regions)
        region = np.ones(tuple(h - b for b, h in zip(lo, hi)))
        comm.barrier()
        comm.stats.reset()
        dt.scatter_region_add(region, lo, plan=plan)
        # Own 4 rows x 4 cols, plus the neighbour's one-row overhang.
        assert dt.local.sum() == 20.0
        return comm.stats.sends

    assert run_spmd(4, prog) == [1, 1, 1, 1]


def _corner_scatter_add(comm):
    """K > S windows on a 2x2 spatial grid: every rank scatters its block
    extended by one cell all round, so the cells at the partition corner
    take the own contribution plus three remote ones."""
    grid_shape = (1, 1, 2, 2)
    shape = (1, 2, 6, 6)
    grid = ProcessGrid(comm, grid_shape)
    dist = Distribution.make(grid_shape)
    dt = DistTensor.zeros(grid, dist, shape)
    regions = []
    for r in range(comm.size):
        b = dist.local_bounds(shape, grid.coords_of(r))
        regions.append(
            ((0, 0, b[2][0] - 1, b[3][0] - 1), (1, 2, b[2][1] + 1, b[3][1] + 1))
        )
    contributions = [
        np.random.default_rng(r).standard_normal(
            tuple(h - b for b, h in zip(*regions[r]))
        )
        for r in range(comm.size)
    ]
    lo, hi = regions[comm.rank]
    plan = region_plan(dt, regions)
    dt.start_scatter_region_add(contributions[comm.rank], lo, plan=plan).finish()

    # The documented order: own contribution first, then ascending rank.
    want = np.zeros(shape)
    for r in [comm.rank] + [r for r in range(comm.size) if r != comm.rank]:
        place_region(want, contributions[r], regions[r][0], accumulate=True)
    want = DistTensor.from_global(grid, dist, want).local
    assert [v.hex() for v in dt.local.ravel()] == [v.hex() for v in want.ravel()]
    return [float(v).hex() for v in dt.local.ravel()]


def test_transposed_plan_scatter_add_bitwise_across_backends():
    runs = [run_spmd(4, _corner_scatter_add, backend=b) for b in SPMD_BACKENDS]
    assert runs[0] == runs[1] == runs[2]


def test_replicated_scatter_add_keeps_replicas_identical():
    dist = Distribution.make((2, 2), replicated_axes=[0])

    def prog(comm):
        grid = ProcessGrid(comm, (2, 2))
        dt = DistTensor.zeros(grid, dist, (3, 8))
        lo, hi = dt.bounds[1]
        regions = [
            ((0, dist.local_bounds((3, 8), grid.coords_of(r))[1][0]),
             (3, dist.local_bounds((3, 8), grid.coords_of(r))[1][1]))
            for r in range(comm.size)
        ]
        dt.scatter_region_add(np.ones((3, hi - lo)), (0, lo), region_plan(dt, regions))
        return dt.local.copy()

    shards = run_spmd(4, prog)
    np.testing.assert_array_equal(shards[0], shards[2])
    np.testing.assert_array_equal(shards[1], shards[3])
    assert shards[0].sum() == 3 * 4


class TestPlanCache:
    def test_plan_reused_across_repeated_shuffles(self):
        """Regression: the rank-pair intersections of a redistribution are
        computed once per (rank, placements, shape) — ``shuffle_plan`` is
        cached — so a repeated shuffle must not re-plan."""
        x = np.arange(96.0).reshape(8, 12)
        steps, ranks = 6, 4

        def prog(comm):
            g1, g2 = ProcessGrid(comm, (4, 1)), ProcessGrid(comm, (2, 2))
            d1, d2 = Distribution.make((4, 1)), Distribution.make((2, 2))
            src = DistTensor.from_global(g1, d1, x)
            for _ in range(steps):
                out = shuffle(src, g2, d2)
                plan = shuffle_plan(comm.rank, d2, d1, x.shape)
                back = start_shuffle(out, g1, d1, plan).finish()
                np.testing.assert_array_equal(back.local, src.local)

        before = shuffle_plan.cache_info()
        run_spmd(ranks, prog, backend="thread")  # one process: one cache
        after = shuffle_plan.cache_info()
        hits, misses = after.hits - before.hits, after.misses - before.misses
        assert hits + misses == ranks * 2 * steps
        assert misses <= ranks * 2  # one plan per rank and direction, ever
        assert shuffle_plan_stats(None) == (after.hits, after.misses)
