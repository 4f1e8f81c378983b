"""Randomized property suite for §III-C redistribution correctness.

Redistribution bugs are silent data corruption, so the shuffle subsystem is
swept over ~100 seeded random (src grid, dst grid, distribution, shape)
combinations — including replicated axes on either side, empty local shards
(a dimension smaller than its part count), and uneven partitions — asserting

* every rank's redistributed shard is exactly the block numpy slices out
  of the global array (``DistTensor.from_global`` under the destination
  distribution) — for :func:`~repro.tensor.shuffle.shuffle` and for a
  :class:`~repro.tensor.shuffle.ShuffleExchange` finished after
  independent work;
* the redistributed tensor's global content is exactly the original;
* shuffling there and back is the identity on every rank's shard.

Also holds the plan-cache regression test: ``shuffle()`` historically
re-intersected every rank pair on every call; plans must now be computed
once per (grids, distributions, shape) and recycled, with pooled send
payloads keeping the per-step allocation count stable.
"""

import numpy as np

from repro.comm import BufferPool, run_spmd
from repro.tensor import (
    DistTensor,
    Distribution,
    ProcessGrid,
    shuffle,
    shuffle_plan_stats,
    start_shuffle,
)

NRANKS = 4

#: Grid shapes over 4 ranks, by tensor rank.
GRIDS = {
    2: [(4, 1), (1, 4), (2, 2)],
    3: [(4, 1, 1), (1, 4, 1), (1, 1, 4), (2, 2, 1), (2, 1, 2), (1, 2, 2)],
    4: [(4, 1, 1, 1), (1, 1, 2, 2), (2, 1, 2, 1), (1, 1, 4, 1), (1, 2, 1, 2)],
}

N_CASES = 100


def _random_cases(n_cases: int, seed: int = 1234):
    """Seeded random (shape, src grid+dist, dst grid+dist) combinations."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n_cases):
        ndim = int(rng.choice([2, 2, 3, 3, 4]))
        grids = GRIDS[ndim]
        src_grid = grids[int(rng.integers(len(grids)))]
        dst_grid = grids[int(rng.integers(len(grids)))]
        # Dimensions down to 1: a block axis with more parts than indices
        # leaves some ranks with empty shards; 7/9 over 2/4 parts exercises
        # uneven partitions.
        shape = tuple(int(rng.integers(1, 10)) for _ in range(ndim))
        # Replicate a random subset of the non-trivial axes on either side.
        src_rep = [
            d for d in range(ndim) if src_grid[d] > 1 and rng.random() < 0.3
        ]
        dst_rep = [
            d for d in range(ndim) if dst_grid[d] > 1 and rng.random() < 0.3
        ]
        cases.append(
            (
                shape,
                src_grid,
                Distribution.make(src_grid, src_rep),
                dst_grid,
                Distribution.make(dst_grid, dst_rep),
            )
        )
    return cases


CASES = _random_cases(N_CASES)

#: The process backend sweeps a reduced prefix of the case list (same
#: seeded cases, fewer of them) to keep CI time bounded; the thread
#: backend keeps the full sweep.
N_CASES_PROCESS = 20


def test_random_redistribution_sweep(backend):
    """Shard == global-array slice, content preserved, round trip == identity."""
    cases = CASES if backend == "thread" else CASES[:N_CASES_PROCESS]
    rng = np.random.default_rng(99)
    arrays = [rng.standard_normal(shape) for shape, *_ in cases]

    def prog(comm):
        grid_cache: dict[tuple[int, ...], ProcessGrid] = {}

        def grid_of(shape):
            g = grid_cache.get(shape)
            if g is None:
                g = grid_cache[shape] = ProcessGrid(comm, shape)
            return g

        for x, (shape, sg, sd, dg, dd) in zip(arrays, cases):
            src = DistTensor.from_global(grid_of(sg), sd, x)
            want = DistTensor.from_global(grid_of(dg), dd, x)
            at_once = shuffle(src, grid_of(dg), dd)
            ex = start_shuffle(src, grid_of(dg), dd)
            # Independent work between start and finish: what the engine
            # runs here (sibling branches, gradient bucketing) must not
            # perturb the in-flight exchange.
            _ = float(np.sum(src.local)) if src.local.size else 0.0
            deferred = ex.finish()

            for got in (at_once, deferred):
                assert got.dist == want.dist
                np.testing.assert_array_equal(got.local, want.local)
            np.testing.assert_array_equal(at_once.to_global(), x)
            back = shuffle(at_once, grid_of(sg), sd)
            np.testing.assert_array_equal(back.local, src.local)
        return True

    assert all(run_spmd(NRANKS, prog, backend=backend))


def test_sweep_covers_edge_cases():
    """The random sweep actually contains the advertised edge cases."""
    has_src_rep = has_dst_rep = has_empty = has_uneven = False
    for shape, sg, sd, dg, dd in CASES:
        if any(not sd.is_split(d) and sg[d] > 1 for d in range(len(shape))):
            has_src_rep = True
        if any(not dd.is_split(d) and dg[d] > 1 for d in range(len(shape))):
            has_dst_rep = True
        for d in range(len(shape)):
            if sd.is_split(d) or dd.is_split(d):
                parts = max(sd.parts(d), dd.parts(d))
                if shape[d] < parts:
                    has_empty = True
                elif shape[d] % parts:
                    has_uneven = True
    assert has_src_rep and has_dst_rep and has_empty and has_uneven


class TestPlanCache:
    def test_plan_reused_across_repeated_shuffles(self):
        """Regression: the rank-pair intersections are computed once per
        (grids, distributions, shape) and cached on the communicator — a
        repeated shuffle must not re-plan."""
        x = np.arange(96.0).reshape(8, 12)
        steps = 6

        def prog(comm):
            g1, g2 = ProcessGrid(comm, (4, 1)), ProcessGrid(comm, (2, 2))
            d1, d2 = Distribution.make((4, 1)), Distribution.make((2, 2))
            src = DistTensor.from_global(g1, d1, x)
            for _ in range(steps):
                out = shuffle(src, g2, d2)
                back = start_shuffle(out, g1, d1).finish()
                np.testing.assert_array_equal(back.local, src.local)
            return shuffle_plan_stats(comm)

        for hits, misses in run_spmd(NRANKS, prog):
            assert misses == 2  # one plan per direction, ever
            assert hits == 2 * steps - 2

    def test_pooled_payloads_stable_allocation_count(self):
        """With a BufferPool, steady-state steps allocate nothing new: the
        staged send payloads are reclaimed and recycled."""
        x = np.arange(64.0).reshape(8, 8)
        steps = 6

        def prog(comm):
            g1, g2 = ProcessGrid(comm, (4, 1)), ProcessGrid(comm, (1, 4))
            d1, d2 = Distribution.make((4, 1)), Distribution.make((1, 4))
            src = DistTensor.from_global(g1, d1, x)
            # Each step stages 2 * (nranks - 1) same-shaped payloads; the
            # free list must hold them all for a fully stable steady state.
            pool = BufferPool(max_buffers_per_key=16)
            for _ in range(steps):
                out = shuffle(src, g2, d2, pool=pool)
                back = start_shuffle(out, g1, d1, pool=pool).finish()
                np.testing.assert_array_equal(back.local, src.local)
                comm.barrier()  # peers drain mailboxes -> payloads reclaimable
            return pool.stats()

        per_step = 2 * (NRANKS - 1)  # staged payloads per step per rank
        for hits, misses in run_spmd(NRANKS, prog):
            assert hits + misses == steps * per_step
            # The allocation count is O(1), not O(steps): at most two
            # step-populations of buffers exist (one free, one whose sent
            # views are still being dropped); everything else recycles.
            # Without the pool every take would be a fresh allocation.
            assert misses <= 2 * per_step, (hits, misses)
            assert hits >= (steps - 2) * per_step, (hits, misses)
