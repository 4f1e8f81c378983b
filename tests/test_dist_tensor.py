"""Process grids, distributions, and the plan-free ``gather_region`` oracle
(the planned transfers are checked against it in
``test_transfer_property.py``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import run_spmd
from repro.tensor import DistTensor, Distribution, ProcessGrid
from repro.tensor.distribution import DimKind
from repro.tensor.indexing import extract_padded


def make_grid_prog(grid_shape, dist, global_array, body):
    """Helper: build grid+tensor on each rank, run `body(dt, comm)`."""

    def prog(comm):
        grid = ProcessGrid(comm, grid_shape)
        dt = DistTensor.from_global(grid, dist, global_array)
        return body(dt, comm)

    return prog


class TestProcessGrid:
    def test_coords_roundtrip(self):
        def prog(comm):
            grid = ProcessGrid(comm, (2, 1, 2, 2))
            assert grid.rank_of(grid.coords) == comm.rank
            return grid.coords

        coords = run_spmd(8, prog)
        assert len(set(coords)) == 8
        assert coords[0] == (0, 0, 0, 0)
        assert coords[7] == (1, 0, 1, 1)

    def test_spatial_axes_vary_fastest(self):
        """Spatial group of one sample occupies consecutive ranks (same node)."""

        def prog(comm):
            grid = ProcessGrid(comm, (2, 1, 2, 2))
            return grid.coords[0]

        sample_coord = run_spmd(8, prog)
        assert sample_coord == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_neighbor(self):
        def prog(comm):
            grid = ProcessGrid(comm, (1, 1, 2, 2))
            return (grid.neighbor(2, -1), grid.neighbor(2, 1), grid.neighbor(3, 1))

        results = run_spmd(4, prog)
        assert results[0] == (None, 2, 1)   # coords (0,0,0,0)
        assert results[3] == (1, None, None)  # coords (0,0,1,1)

    def test_size_mismatch(self):
        def prog(comm):
            ProcessGrid(comm, (3, 1))

        with pytest.raises(ValueError, match="requires 3 ranks"):
            run_spmd(2, prog, timeout=10)

    def test_axis_comm_groups(self):
        def prog(comm):
            grid = ProcessGrid(comm, (2, 2))
            row = grid.axis_comm(1)  # varies along axis 1
            col = grid.axis_comm(0)
            return (row.allreduce(comm.rank), col.allreduce(comm.rank))

        results = run_spmd(4, prog)
        # grid: rank = 2*a0 + a1 -> rows {0,1},{2,3}; cols {0,2},{1,3}
        assert results == [(1, 2), (1, 4), (5, 2), (5, 4)]

    def test_axes_comm_full(self):
        def prog(comm):
            grid = ProcessGrid(comm, (2, 2))
            both = grid.axes_comm((0, 1))
            return both.size

        assert run_spmd(4, prog) == [4, 4, 4, 4]


class TestDistribution:
    def test_block_bounds_per_coord(self):
        d = Distribution.make((4,))
        assert d.dim_bounds((10,), 0, 0) == (0, 3)
        assert d.dim_bounds((10,), 0, 1) == (3, 6)
        assert d.dim_bounds((10,), 0, 3) == (8, 10)

    def test_replicated_bounds(self):
        d = Distribution.make((4,), replicated_axes=[0])
        for c in range(4):
            assert d.dim_bounds((10,), 0, c) == (0, 10)
        assert d.replication_factor() == 4

    def test_extent_one_axis_normalized_to_block(self):
        d = Distribution((1, 4), (DimKind.REPLICATED, DimKind.BLOCK))
        assert d.kinds[0] is DimKind.BLOCK
        assert not d.is_split(0) and d.is_split(1)

    def test_fully_replicated(self):
        d = Distribution.fully_replicated(2, (2, 2))
        assert d.replication_factor() == 4
        assert d.local_shape((6, 8), (1, 1)) == (6, 8)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            Distribution((2, 2), (DimKind.BLOCK,))

    def test_str(self):
        d = Distribution.make((2, 4), replicated_axes=[1])
        assert str(d) == "Dist(2x*4)"


class TestFromToGlobal:
    @pytest.mark.parametrize("grid_shape", [(1, 4), (2, 2), (4, 1)])
    def test_roundtrip(self, grid_shape):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 10))
        dist = Distribution.make(grid_shape)

        def body(dt, comm):
            return dt.to_global()

        for got in run_spmd(4, make_grid_prog(grid_shape, dist, x, body)):
            np.testing.assert_array_equal(got, x)

    def test_local_shard_contents(self):
        x = np.arange(16.0).reshape(4, 4)
        dist = Distribution.make((2, 2))

        def body(dt, comm):
            return dt.local.copy()

        shards = run_spmd(4, make_grid_prog((2, 2), dist, x, body))
        np.testing.assert_array_equal(shards[0], [[0, 1], [4, 5]])
        np.testing.assert_array_equal(shards[3], [[10, 11], [14, 15]])

    def test_replicated_dim_shards(self):
        x = np.arange(8.0).reshape(2, 4)
        dist = Distribution.make((2, 2), replicated_axes=[0])

        def body(dt, comm):
            return dt.local.copy()

        shards = run_spmd(4, make_grid_prog((2, 2), dist, x, body))
        # Axis 0 replicated: both "rows" of the grid hold both tensor rows.
        np.testing.assert_array_equal(shards[0], shards[2])
        assert shards[0].shape == (2, 2)


class TestGatherRegion:
    @pytest.mark.parametrize("grid_shape", [(2, 2), (1, 4), (4, 1)])
    def test_matches_extract_padded(self, grid_shape):
        """gather_region on a distributed tensor == extract_padded on the
        global array, for regions spanning partitions and boundaries."""
        rng = np.random.default_rng(1)
        x = rng.standard_normal((9, 11))
        dist = Distribution.make(grid_shape)
        regions = [
            ((-2, -2), (4, 5)),
            ((3, 4), (9, 11)),
            ((0, 0), (9, 11)),
            ((-1, -1), (10, 12)),
            ((4, 4), (4, 4)),  # empty
        ]

        def body(dt, comm):
            outs = []
            for lo, hi in regions:
                outs.append(dt.gather_region(lo, hi))
            return outs

        results = run_spmd(4, make_grid_prog(grid_shape, dist, x, body))
        for outs in results:
            for (lo, hi), got in zip(regions, outs):
                np.testing.assert_array_equal(got, extract_padded(x, lo, hi))

    def test_per_rank_distinct_regions(self):
        """Each rank fetches the dependency region of its own block — the
        halo-exchange pattern."""
        x = np.arange(64.0).reshape(8, 8)
        dist = Distribution.make((2, 2))

        def body(dt, comm):
            (hlo, hhi), (wlo, whi) = dt.bounds
            got = dt.gather_region((hlo - 1, wlo - 1), (hhi + 1, whi + 1))
            want = extract_padded(x, (hlo - 1, wlo - 1), (hhi + 1, whi + 1))
            np.testing.assert_array_equal(got, want)
            return True

        assert all(run_spmd(4, make_grid_prog((2, 2), dist, x, body)))

    def test_replicated_axis_stays_in_group(self):
        """With a replicated dim, gathers are served within the caller's
        replica group, and every replica gets the right data."""
        x = np.arange(24.0).reshape(2, 12)
        dist = Distribution.make((2, 2), replicated_axes=[0])

        def body(dt, comm):
            got = dt.gather_region((0, 2), (2, 10))
            np.testing.assert_array_equal(got, x[:, 2:10])
            return True

        assert all(run_spmd(4, make_grid_prog((2, 2), dist, x, body)))

    def test_region_spanning_multiple_owners(self):
        x = np.arange(100.0).reshape(10, 10)
        dist = Distribution.make((4, 1))

        def body(dt, comm):
            if comm.rank == 0:
                got = dt.gather_region((0, 0), (10, 10))
                np.testing.assert_array_equal(got, x)
            else:
                dt.gather_region((0, 0), (0, 0))
            return True

        assert all(run_spmd(4, make_grid_prog((4, 1), dist, x, body)))

    def test_fill_value(self):
        x = np.zeros((4, 4))
        dist = Distribution.make((2, 2))

        def body(dt, comm):
            got = dt.gather_region((-1, 0), (0, 4), fill=9.0)
            np.testing.assert_array_equal(got, np.full((1, 4), 9.0))
            return True

        assert all(run_spmd(4, make_grid_prog((2, 2), dist, x, body)))


class TestDistTensorValidation:
    def test_wrong_local_shape(self):
        def prog(comm):
            grid = ProcessGrid(comm, (2,))
            dist = Distribution.make((2,))
            DistTensor(grid, dist, (8,), np.zeros(5))

        with pytest.raises(ValueError, match="local shard shape"):
            run_spmd(2, prog, timeout=10)

    def test_grid_shape_mismatch(self):
        def prog(comm):
            grid = ProcessGrid(comm, (2,))
            dist = Distribution.make((4,))
            DistTensor(grid, dist, (8,), np.zeros(2))

        with pytest.raises(ValueError, match="!= process grid"):
            run_spmd(2, prog, timeout=10)


@settings(max_examples=20, deadline=None)
@given(
    h=st.integers(min_value=4, max_value=12),
    w=st.integers(min_value=4, max_value=12),
    dlo=st.tuples(
        st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3)
    ),
    extent=st.tuples(
        st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10)
    ),
)
def test_gather_region_property(h, w, dlo, extent):
    """gather_region == extract_padded for arbitrary regions and sizes."""
    rng = np.random.default_rng(h * 100 + w)
    x = rng.standard_normal((h, w))
    dist = Distribution.make((2, 2))
    lo = dlo
    hi = (dlo[0] + extent[0], dlo[1] + extent[1])

    def prog(comm):
        grid = ProcessGrid(comm, (2, 2))
        dt = DistTensor.from_global(grid, dist, x)
        return dt.gather_region(lo, hi)

    for got in run_spmd(4, prog):
        np.testing.assert_array_equal(got, extract_padded(x, lo, hi))
