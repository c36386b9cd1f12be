"""``@njit`` kernels of the compiled tier (imported only when numba exists).

Each kernel is the fused per-pair loop form of one numpy pipeline stage in
:meth:`~repro.storage.layout.ClusterLayout._pair_values` /
:meth:`~repro.storage.layout.ClusterLayout._bisect_segment_sums`:

* :func:`and_range_mask` replaces the ``rows`` gather + two range
  comparisons of one dimension — it walks each pair's segment in place and
  clears mask bytes outside the bounds, touching no temporary arrays;
* :func:`masked_segment_sums` replaces the ``measure[rows] * mask`` product
  plus ``np.add.reduceat`` — one accumulator per pair, reading the measure
  directly at its segment offset;
* :func:`bisect_pair_sums` replaces the per-pair Python ``np.searchsorted``
  loop with in-kernel binary searches over the sorted segments.

All arithmetic is int64 addition over the same rows the numpy path reads, so
the results are bit-identical by construction.  ``cache=True`` persists the
compiled machine code next to the package, amortising JIT cost across
processes (the procpool workers in particular).

Only plain indexing, ``range`` loops, and integer arithmetic are used — the
subset of numba that compiles identically across every supported version.
Coverage is excluded for this module: njit-compiled frames are invisible to
the tracer.
"""

from __future__ import annotations

from numba import njit  # pragma: no cover

# pragma: no cover — the whole module body below runs only under numba's
# compiler, never under the coverage tracer.


@njit(cache=True)
def and_range_mask(column, starts, lengths, lows, highs, mask):  # pragma: no cover
    """AND one dimension's range test into the per-pair row ``mask``.

    ``mask`` is a flat uint8 buffer laid out pair-major: pair ``p`` owns the
    ``lengths[p]`` bytes starting at ``sum(lengths[:p])``, matching row
    ``starts[p] + r`` of ``column``.
    """
    offset = 0
    for p in range(starts.size):
        base = starts[p]
        count = lengths[p]
        low = lows[p]
        high = highs[p]
        for r in range(count):
            if mask[offset + r]:
                value = column[base + r]
                if value < low or value > high:
                    mask[offset + r] = 0
        offset += count


@njit(cache=True)
def masked_segment_sums(measure, starts, lengths, mask, out):  # pragma: no cover
    """Per-pair sum of ``measure`` over the rows still set in ``mask``."""
    offset = 0
    for p in range(starts.size):
        base = starts[p]
        count = lengths[p]
        total = 0
        for r in range(count):
            if mask[offset + r]:
                total += measure[base + r]
        out[p] = total
        offset += count


@njit(cache=True)
def bisect_pair_sums(column, prefix, starts, lengths, lows, highs, out):  # pragma: no cover
    """Per-pair range sums via binary search over sorted segments.

    For pair ``p`` the rows ``starts[p] : starts[p] + lengths[p]`` of
    ``column`` are non-decreasing; the kernel locates the half-open row range
    matching ``[lows[p], highs[p]]`` (the ``side="left"`` / ``side="right"``
    insertion points) and charges the measure-prefix difference.
    """
    for p in range(starts.size):
        base = starts[p]
        end = base + lengths[p]
        low = lows[p]
        high = highs[p]
        a = base
        b = end
        while a < b:
            middle = (a + b) // 2
            if column[middle] < low:
                a = middle + 1
            else:
                b = middle
        low_row = a
        a = low_row
        b = end
        while a < b:
            middle = (a + b) // 2
            if column[middle] <= high:
                a = middle + 1
            else:
                b = middle
        out[p] = prefix[a] - prefix[low_row]
