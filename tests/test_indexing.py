"""Block partition arithmetic (index sets of paper §II-C)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor.exchange import clip
from repro.tensor.indexing import (
    block_bounds,
    block_coords_of_interval,
    intersect,
    interval_is_empty,
    owner_of_index,
    place_region,
)


class TestBlockBounds:
    def test_even_split(self):
        assert [block_bounds(8, 4, p) for p in range(4)] == [
            (0, 2), (2, 4), (4, 6), (6, 8),
        ]

    def test_remainder_goes_to_first_parts(self):
        assert [block_bounds(10, 3, p) for p in range(3)] == [(0, 4), (4, 7), (7, 10)]

    def test_more_parts_than_items(self):
        bounds = [block_bounds(2, 4, p) for p in range(4)]
        assert bounds == [(0, 1), (1, 2), (2, 2), (2, 2)]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            block_bounds(10, 0, 0)
        with pytest.raises(ValueError):
            block_bounds(10, 2, 2)
        with pytest.raises(ValueError):
            block_bounds(-1, 2, 0)

    @given(
        n=st.integers(min_value=0, max_value=10_000),
        nparts=st.integers(min_value=1, max_value=64),
    )
    def test_partition_properties(self, n, nparts):
        """Blocks tile [0, n) contiguously with balanced sizes."""
        bounds = [block_bounds(n, nparts, p) for p in range(nparts)]
        assert bounds[0][0] == 0
        assert bounds[-1][1] == n
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == n

    @given(
        n=st.integers(min_value=1, max_value=10_000),
        nparts=st.integers(min_value=1, max_value=64),
        data=st.data(),
    )
    def test_owner_inverts_bounds(self, n, nparts, data):
        index = data.draw(st.integers(min_value=0, max_value=n - 1))
        part = owner_of_index(n, nparts, index)
        lo, hi = block_bounds(n, nparts, part)
        assert lo <= index < hi


class TestIntervalHelpers:
    def test_intersect(self):
        assert intersect((0, 5), (3, 8)) == (3, 5)
        assert interval_is_empty(intersect((0, 2), (4, 6)))

    def test_block_coords_of_interval(self):
        # 12 items over 4 parts: [0,3) [3,6) [6,9) [9,12)
        assert block_coords_of_interval(12, 4, 2, 7) == (0, 2)
        assert block_coords_of_interval(12, 4, -5, 2) == (0, 0)
        assert block_coords_of_interval(12, 4, 11, 100) == (3, 3)

    def test_block_coords_empty(self):
        c0, c1 = block_coords_of_interval(12, 4, 20, 30)
        assert c1 < c0


class TestClip:
    def test_inside_outside_and_across(self):
        bounds = ((0, 4), (2, 6))
        assert clip(((1, 3), (3, 5)), bounds) == ((1, 3), (3, 5))
        assert clip(((-1, 5), (0, 9)), bounds) == ((0, 4), (2, 6))
        assert clip(((5, 7), (-3, 1)), bounds) == ((4, 4), (2, 2))  # empty

    @given(
        lo=st.integers(min_value=-10, max_value=25),
        width=st.integers(min_value=0, max_value=15),
        m_lo=st.integers(min_value=-5, max_value=10),
        m_width=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=60)
    def test_matches_set_intersection_1d(self, lo, width, m_lo, m_width):
        ((b, h),) = clip(((lo, lo + width),), ((m_lo, m_lo + m_width),))
        want = set(range(lo, lo + width)) & set(range(m_lo, m_lo + m_width))
        assert set(range(b, h)) == want
        assert m_lo <= b <= h <= m_lo + m_width


class TestPlaceRegion:
    def test_simple_write(self):
        dest = np.zeros((4, 4))
        place_region(dest, np.ones((2, 2)), (1, 1))
        assert dest.sum() == 4 and dest[1, 1] == 1

    def test_clipping(self):
        dest = np.zeros((3, 3))
        place_region(dest, np.ones((2, 2)), (2, 2))
        assert dest.sum() == 1 and dest[2, 2] == 1

    def test_accumulate(self):
        dest = np.ones((2, 2))
        place_region(dest, np.ones((2, 2)), (0, 0), accumulate=True)
        np.testing.assert_array_equal(dest, np.full((2, 2), 2.0))

    def test_fully_outside_is_noop(self):
        dest = np.zeros((2, 2))
        place_region(dest, np.ones((2, 2)), (5, 5))
        assert dest.sum() == 0

    @given(
        off=st.integers(min_value=-4, max_value=6),
    )
    def test_roundtrip_with_extract(self, off):
        """place-add then reading the region back recovers the contributions
        inside the array."""
        dest = np.zeros(5)
        region = np.arange(1.0, 4.0)
        place_region(dest, region, (off,), accumulate=True)
        back = np.concatenate([np.zeros(10), dest, np.zeros(10)])[10 + off : 13 + off]
        inside = (np.arange(3) + off >= 0) & (np.arange(3) + off < 5)
        np.testing.assert_array_equal(back[inside], region[inside])
        assert (back[~inside] == 0).all()
