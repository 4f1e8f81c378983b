"""Block partition arithmetic and clipped region placement.

Implements the index-set machinery of the paper's §II-C: a *block*
distribution of ``n`` indices over ``nparts`` parts assigns contiguous,
near-equal intervals ("every processor has the same amount of data,
excepting minor imbalances due to divisibility").  The first ``n % nparts``
parts receive one extra index.
"""

from __future__ import annotations

import numpy as np


def ceil_div(a: int, b: int) -> int:
    """Ceiling division, exact for negative numerators (floor-based)."""
    return -(-a // b)


def block_bounds(n: int, nparts: int, part: int) -> tuple[int, int]:
    """Half-open interval ``[lo, hi)`` of indices owned by ``part``.

    >>> [block_bounds(10, 3, p) for p in range(3)]
    [(0, 4), (4, 7), (7, 10)]
    """
    if nparts < 1:
        raise ValueError(f"nparts must be >= 1, got {nparts}")
    if not 0 <= part < nparts:
        raise ValueError(f"part={part} out of range for {nparts} parts")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    base, rem = divmod(n, nparts)
    lo = part * base + min(part, rem)
    hi = lo + base + (1 if part < rem else 0)
    return lo, hi


def block_size(n: int, nparts: int, part: int) -> int:
    """Number of indices owned by ``part`` (``|I_p(D(m))|``)."""
    lo, hi = block_bounds(n, nparts, part)
    return hi - lo


def owner_of_index(n: int, nparts: int, index: int) -> int:
    """The part owning global ``index`` under a block distribution."""
    if not 0 <= index < n:
        raise ValueError(f"index={index} out of range [0, {n})")
    base, rem = divmod(n, nparts)
    # The first `rem` parts have size base+1 and cover [0, rem*(base+1)).
    boundary = rem * (base + 1)
    if index < boundary:
        return index // (base + 1)
    if base == 0:
        # All remaining parts are empty; the boundary check above must have hit.
        raise AssertionError("unreachable: index beyond populated parts")
    return rem + (index - boundary) // base


def block_coords_of_interval(
    n: int, nparts: int, lo: int, hi: int
) -> tuple[int, int]:
    """Inclusive range ``(c0, c1)`` of parts overlapping ``[lo, hi)``.

    ``[lo, hi)`` is clipped to ``[0, n)`` first; an empty clipped interval
    returns ``(0, -1)`` (an empty coordinate range).
    """
    lo, hi = max(lo, 0), min(hi, n)
    if lo >= hi:
        return (0, -1)
    return owner_of_index(n, nparts, lo), owner_of_index(n, nparts, hi - 1)


def intersect(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Intersection of two half-open intervals (may be empty: lo >= hi)."""
    return max(a[0], b[0]), min(a[1], b[1])


def interval_is_empty(iv: tuple[int, int]) -> bool:
    return iv[0] >= iv[1]


def place_region(
    dest: np.ndarray,
    region: np.ndarray,
    offset: tuple[int, ...],
    accumulate: bool = False,
) -> None:
    """Write (or add) ``region`` into ``dest`` at ``offset`` (clipping).

    Parts of ``region`` falling outside ``dest`` are dropped: a box written
    into each staging buffer it meets lands only in the cells they share,
    and reverse-halo contributions lose their virtual-padding parts.
    """
    src_sl, dst_sl = [], []
    for off, rn, dn in zip(offset, region.shape, dest.shape):
        d_lo, d_hi = max(off, 0), min(off + rn, dn)
        if d_lo >= d_hi:
            return
        dst_sl.append(slice(d_lo, d_hi))
        src_sl.append(slice(d_lo - off, d_hi - off))
    if accumulate:
        dest[tuple(dst_sl)] += region[tuple(src_sl)]
    else:
        dest[tuple(dst_sl)] = region[tuple(src_sl)]
