"""All-to-all redistribution (shuffle) against the global array."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import run_spmd
from repro.tensor import DistTensor, Distribution, ProcessGrid, shuffle
from repro.tensor.shuffle import shuffle_cost_bytes


class TestShuffle:
    @pytest.mark.parametrize(
        "src_shape,dst_shape",
        [
            ((4, 1), (1, 4)),
            ((2, 2), (4, 1)),
            ((1, 4), (2, 2)),
            ((2, 2), (2, 2)),
        ],
    )
    def test_redistribution_preserves_tensor(self, src_shape, dst_shape):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 12))

        def prog(comm):
            src_grid = ProcessGrid(comm, src_shape)
            src = DistTensor.from_global(src_grid, Distribution.make(src_shape), x)
            dst_grid = ProcessGrid(comm, dst_shape)
            dst = shuffle(src, dst_grid, Distribution.make(dst_shape))
            return dst.to_global()

        for got in run_spmd(4, prog):
            np.testing.assert_array_equal(got, x)

    def test_sample_to_spatial_cnn(self):
        """The paper's §III-C case: sample-parallel conv -> spatially
        partitioned conv on a 4D (N, C, H, W) tensor."""
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 3, 8, 8))

        def prog(comm):
            sample_grid = ProcessGrid(comm, (4, 1, 1, 1))
            src = DistTensor.from_global(
                sample_grid, Distribution.make((4, 1, 1, 1)), x
            )
            spatial_grid = ProcessGrid(comm, (1, 1, 2, 2))
            dst = shuffle(src, spatial_grid, Distribution.make((1, 1, 2, 2)))
            assert dst.local.shape == (4, 3, 4, 4)
            return dst.to_global()

        for got in run_spmd(4, prog):
            np.testing.assert_array_equal(got, x)

    def test_to_replicated(self):
        """Partitioned -> fully replicated (allgather pattern)."""
        x = np.arange(24.0).reshape(4, 6)

        def prog(comm):
            g1 = ProcessGrid(comm, (2, 2))
            src = DistTensor.from_global(g1, Distribution.make((2, 2)), x)
            dst = shuffle(src, g1, Distribution.fully_replicated(2, (2, 2)))
            return dst.local.copy()

        for got in run_spmd(4, prog):
            np.testing.assert_array_equal(got, x)

    def test_from_replicated_dedup(self):
        """Replicated -> partitioned must ship each element exactly once."""
        x = np.arange(16.0).reshape(4, 4)

        def prog(comm):
            g = ProcessGrid(comm, (2, 2))
            src = DistTensor.from_global(g, Distribution.fully_replicated(2, (2, 2)), x)
            dst = shuffle(src, g, Distribution.make((2, 2)))
            return dst.to_global()

        for got in run_spmd(4, prog):
            np.testing.assert_array_equal(got, x)

    def test_identity_shuffle_no_offrank_traffic(self):
        x = np.arange(16.0).reshape(4, 4)
        dist = Distribution.make((2, 2))

        def prog(comm):
            g = ProcessGrid(comm, (2, 2))
            src = DistTensor.from_global(g, dist, x)
            return shuffle_cost_bytes(src, g, dist)

        assert run_spmd(4, prog) == [0, 0, 0, 0]

    def test_rank_mismatch_raises(self):
        x = np.zeros((4, 4))

        def prog(comm):
            g = ProcessGrid(comm, (2, 2))
            src = DistTensor.from_global(g, Distribution.make((2, 2)), x)
            shuffle(src, g, Distribution.make((2,)))

        with pytest.raises(ValueError, match="rank mismatch"):
            run_spmd(4, prog, timeout=10)


@settings(max_examples=15, deadline=None)
@given(
    h=st.integers(min_value=4, max_value=10),
    w=st.integers(min_value=4, max_value=10),
    seed=st.integers(min_value=0, max_value=100),
)
def test_shuffle_roundtrip_property(h, w, seed):
    """src -> dst -> src recovers the original shards exactly."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((h, w))

    def prog(comm):
        g1 = ProcessGrid(comm, (4, 1))
        g2 = ProcessGrid(comm, (1, 4))
        d1, d2 = Distribution.make((4, 1)), Distribution.make((1, 4))
        src = DistTensor.from_global(g1, d1, x)
        back = shuffle(shuffle(src, g2, d2), g1, d1)
        np.testing.assert_array_equal(back.local, src.local)
        return True

    assert all(run_spmd(4, prog))
