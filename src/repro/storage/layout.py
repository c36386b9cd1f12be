"""Contiguous columnar layout of a clustered table for vectorised execution.

A :class:`ClusterLayout` concatenates every cluster's columns into one
contiguous array per column and remembers the per-cluster segment offsets.
That is the substrate the batch query engine runs on: evaluating ``Q(C)``
for many ``(query, cluster)`` pairs becomes boolean-mask passes over the
contiguous columns followed by segmented reductions (``np.add.reduceat``)
instead of a Python loop over clusters.

On top of the raw segments the layout precomputes three acceleration
structures (all O(rows) to build, built once per layout):

* **zone maps** — per-cluster per-dimension ``[min, max]``, so a batch
  kernel can drop clusters a query cannot touch and short-circuit clusters a
  query fully covers to the precomputed segment sum without reading a row;
* **measure prefix sums** — ``measure_prefix[i]`` is the sum of the measure
  over rows ``[0, i)``, which turns any intra-segment row range into one
  subtraction;
* **sorted-dimension detection** — dimensions whose values are
  non-decreasing inside every segment can answer straddling predicates with
  two binary searches plus a prefix difference (``O(log rows)``).

How much of this machinery a kernel call uses is governed by
:class:`~repro.config.ExecutionConfig`; every mode returns bit-identical
int64 values because integer sums are exact under any evaluation order.

The layout is a query-time acceleration structure only — clusters remain the
unit of storage, sampling, and metadata, exactly as in the paper.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

from ..config import DEFAULT_EXECUTION, ExecutionConfig
from ..errors import StorageError
from .kernels import KernelBackend, numba_kernels, resolve_backend

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..query.batch import QueryBatch

__all__ = [
    "ClusterLayout",
    "KernelTelemetry",
    "collect_kernel_telemetry",
    "telemetry_active",
    "merge_active_telemetry",
    "OPEN_LOW",
    "OPEN_HIGH",
]

# Sentinel bounds for dimensions a query leaves unconstrained: comparisons
# against any stored int64 value are always true, so unconstrained dimensions
# contribute an all-true factor to the row mask (and intersect every
# cluster's bounds in the metadata overlap masks), matching the single-query
# executor's semantics of simply skipping them.  Shared by every batch
# kernel — keep a single definition.
OPEN_LOW = np.iinfo(np.int64).min // 4
OPEN_HIGH = np.iinfo(np.int64).max // 4


@dataclass
class KernelTelemetry:
    """Work/memory counters of the layout kernels (opt-in, for tests/benches).

    Enabled through :func:`collect_kernel_telemetry`; the kernels skip the
    bookkeeping entirely when disabled.  Counters are process-global and not
    thread-safe — collect from a single thread.

    Attributes
    ----------
    pairs_total / pairs_pruned / pairs_covered / pairs_bisected / pairs_scanned:
        Classification of every (query, cluster) pair a pruned kernel call
        considered: dropped by the zone maps, short-circuited to the segment
        sum, answered by sorted bisection, or row-evaluated.
    rows_evaluated:
        Rows actually read by the row-evaluation kernels (the dense engine
        reads ``num_queries * num_rows``).
    row_dimension_tests:
        Row x dimension range tests the row kernels made.  The numpy pair
        kernel tests each row on its query's own constrained dimensions;
        the dense and compiled kernels test every dimension of the batch.
    tiles:
        Number of evaluation tiles the row kernels split their work into.
    max_tile_bytes:
        Largest estimated per-tile temporary footprint — bounded by
        ``ExecutionConfig.max_kernel_bytes`` (up to one un-splittable
        cluster row-range) when tiling is on.
    backend:
        Name of the backend that served the last row/bisect kernel call
        (``"numpy"`` or ``"numba"``).
    jit_calls / fallback_calls:
        Compiled-tier accounting: kernel invocations served by the njit
        kernels, and invocations that explicitly requested ``"numba"`` but
        degraded to the numpy path.
    fallback_reason:
        Why the degradation happened (empty while no fallback occurred).
    pairs_fused:
        (query, cluster) pairs evaluated by the fused njit kernels.
    """

    pairs_total: int = 0
    pairs_pruned: int = 0
    pairs_covered: int = 0
    pairs_bisected: int = 0
    pairs_scanned: int = 0
    rows_evaluated: int = 0
    row_dimension_tests: int = 0
    tiles: int = 0
    max_tile_bytes: int = 0
    backend: str = ""
    jit_calls: int = 0
    fallback_calls: int = 0
    fallback_reason: str = ""
    pairs_fused: int = 0

    def reset(self) -> None:
        """Restore every counter to its dataclass default."""
        for name, spec in self.__dataclass_fields__.items():
            setattr(self, name, spec.default)

    def as_dict(self) -> dict[str, object]:
        """Plain-dict form (for metric snapshots and benchmark records)."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def merge_counts(self, counts: "Mapping[str, object]") -> None:
        """Fold another collector's ``as_dict()`` into this one.

        Numeric counters add; the string fields (``backend``,
        ``fallback_reason``) adopt the incoming value when set — the use
        case is folding process-pool workers' telemetry into the parent's
        collector, where the last worker to report wins the label exactly
        as the last in-process kernel call would.
        """
        for name, value in counts.items():
            if name not in self.__dataclass_fields__:
                continue
            if isinstance(value, str):
                if value:
                    setattr(self, name, value)
            else:
                setattr(self, name, getattr(self, name) + value)

    def _note_backend(self, backend: "KernelBackend") -> None:
        """Record which backend served a kernel call (and why, on fallback)."""
        self.backend = backend.name
        if backend.compiled:
            self.jit_calls += 1
        elif backend.fallback_reason:
            self.fallback_calls += 1
            self.fallback_reason = backend.fallback_reason


_telemetry: KernelTelemetry | None = None


@contextmanager
def collect_kernel_telemetry() -> Iterator[KernelTelemetry]:
    """Context manager enabling kernel telemetry for the enclosed calls."""
    global _telemetry
    previous = _telemetry
    _telemetry = KernelTelemetry()
    try:
        yield _telemetry
    finally:
        _telemetry = previous


def telemetry_active() -> bool:
    """Whether a :func:`collect_kernel_telemetry` collector is live.

    The process pool checks this before a phase call so workers only pay
    for telemetry collection when the parent is actually collecting.
    """
    return _telemetry is not None


def merge_active_telemetry(counts: "Mapping[str, object]") -> None:
    """Fold remote counters into the live collector (no-op when inactive).

    This is how process-pool workers' kernel work — invisible to the
    parent's context-var collector — lands in the same
    :class:`KernelTelemetry` an in-process run would have filled.
    """
    if _telemetry is not None:
        _telemetry.merge_counts(counts)


def _bounds_as(column: np.ndarray, lows: np.ndarray, highs: np.ndarray):
    """Cast query bounds to the column dtype without changing semantics.

    Narrowed columns store values strictly inside the narrow dtype's range,
    so clipping a bound into that range preserves every comparison outcome
    (out-of-range bounds keep selecting everything or nothing).  Matching
    dtypes avoids numpy upcasting the whole column to int64 per comparison.
    """
    if column.dtype == lows.dtype:
        return lows, highs
    info = np.iinfo(column.dtype)
    return (
        np.clip(lows, info.min, info.max).astype(column.dtype),
        np.clip(highs, info.min, info.max).astype(column.dtype),
    )


def _pair_tile_boundaries(lengths: np.ndarray, max_rows: int | None) -> np.ndarray:
    """Split a flat pair list into tiles of at most ``max_rows`` total rows.

    Returns tile boundary indices into the pair list (``[0, ..., n]``).
    Every tile holds at least one pair, so a single pair longer than the
    budget still forms its own tile — pairs are never split.
    """
    count = int(lengths.size)
    if max_rows is None or count <= 1 or int(lengths.sum()) <= max_rows:
        # Fast path: everything fits in one tile — skip the per-pair loop
        # (the common case under the default 64 MiB budget).
        return np.array([0, count], dtype=np.int64)
    boundaries = [0]
    running = 0
    for index in range(count):
        rows = int(lengths[index])
        if running and running + rows > max_rows:
            boundaries.append(index)
            running = 0
        running += rows
    boundaries.append(count)
    return np.array(boundaries, dtype=np.int64)


@dataclass(frozen=True)
class ClusterLayout:
    """Columns of every cluster concatenated contiguously, with offsets.

    Attributes
    ----------
    columns:
        One contiguous integer array per dimension (cluster-major order;
        int32 when the stored values fit, int64 otherwise).
    measure:
        Contiguous measure column (all ones for raw tables).
    starts:
        ``starts[i]`` is the first row of cluster position ``i``; segments are
        contiguous, so cluster ``i`` occupies ``starts[i]:starts[i] +
        cluster_rows[i]``.
    cluster_rows:
        Stored row count per cluster position.
    cluster_ids:
        Cluster identifier per position (position order == storage order).
    zone_min / zone_max:
        Per-dimension per-cluster value bounds (empty clusters carry
        inverted sentinel bounds, classifying them as zero-valued covered
        segments).  Derived, computed at construction.
    segment_sums:
        Measure total per cluster (``Q(C)`` of a fully covering query).
    measure_prefix:
        ``measure_prefix[i]`` = sum of ``measure[:i]`` (length ``rows + 1``).
    sorted_dimensions:
        Dimensions whose values are non-decreasing inside every segment —
        eligible for bisection kernels.
    """

    columns: Mapping[str, np.ndarray]
    measure: np.ndarray
    starts: np.ndarray
    cluster_rows: np.ndarray
    cluster_ids: tuple[int, ...]
    zone_min: Mapping[str, np.ndarray] = field(init=False, repr=False, compare=False)
    zone_max: Mapping[str, np.ndarray] = field(init=False, repr=False, compare=False)
    segment_sums: np.ndarray = field(init=False, repr=False, compare=False)
    measure_prefix: np.ndarray = field(init=False, repr=False, compare=False)
    sorted_dimensions: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        num_rows = int(self.measure.size)
        num_clusters = int(self.cluster_rows.size)
        nonempty = self.cluster_rows > 0
        starts_nonempty = self.starts[nonempty]
        # Segment sums: reduceat over the starts of the *non-empty* segments
        # only.  Empty segments contribute no rows, so consecutive non-empty
        # starts are exact segment boundaries and zero-length segments (which
        # np.add.reduceat mis-handles) never reach the ufunc.
        segment_sums = np.zeros(num_clusters, dtype=np.int64)
        if num_rows and starts_nonempty.size:
            segment_sums[nonempty] = np.add.reduceat(self.measure, starts_nonempty)
        measure_prefix = np.zeros(num_rows + 1, dtype=np.int64)
        if num_rows:
            np.cumsum(self.measure, out=measure_prefix[1:])
        zone_min: dict[str, np.ndarray] = {}
        zone_max: dict[str, np.ndarray] = {}
        sorted_dimensions: set[str] = set()
        # Row positions where a new segment begins (for sortedness checks the
        # comparison crossing a segment boundary is exempt).
        boundary = np.zeros(max(num_rows - 1, 0), dtype=bool)
        if num_rows > 1:
            interior = self.starts[1:]
            interior = interior[(interior > 0) & (interior < num_rows)]
            boundary[interior - 1] = True
        for name, column in self.columns.items():
            # Inverted sentinels make empty clusters "fully covered" by any
            # query box, so the kernels charge them their (zero) segment sum
            # without ever reaching the row path.
            low = np.full(num_clusters, OPEN_HIGH, dtype=np.int64)
            high = np.full(num_clusters, OPEN_LOW, dtype=np.int64)
            if num_rows and starts_nonempty.size:
                low[nonempty] = np.minimum.reduceat(column, starts_nonempty)
                high[nonempty] = np.maximum.reduceat(column, starts_nonempty)
            zone_min[name] = low
            zone_max[name] = high
            if num_rows <= 1 or bool(
                np.all((column[1:] >= column[:-1]) | boundary)
            ):
                sorted_dimensions.add(name)
        object.__setattr__(self, "zone_min", zone_min)
        object.__setattr__(self, "zone_max", zone_max)
        object.__setattr__(self, "segment_sums", segment_sums)
        object.__setattr__(self, "measure_prefix", measure_prefix)
        object.__setattr__(self, "sorted_dimensions", frozenset(sorted_dimensions))

    @classmethod
    def from_clusters(cls, clusters: Sequence) -> "ClusterLayout":
        """Build the contiguous layout from a sequence of clusters."""
        if not clusters:
            raise StorageError("a layout needs at least one cluster")
        schema = clusters[0].schema
        names = schema.dimension_names
        columns: dict[str, np.ndarray] = {}
        for name in names:
            column = np.ascontiguousarray(
                np.concatenate([cluster.rows.column(name) for cluster in clusters])
            )
            # Narrow to int32 when the dimension domain allows it: the mask
            # kernels are memory-bound, so halving the element width roughly
            # halves the gather/compare traffic.  Comparisons are exact in
            # either width; the measure stays int64 for overflow-safe sums.
            if column.size and np.iinfo(np.int32).min < column.min() and column.max() < np.iinfo(np.int32).max:
                column = column.astype(np.int32)
            columns[name] = column
        measure = np.ascontiguousarray(
            np.concatenate([cluster.rows.measure_column() for cluster in clusters])
        )
        cluster_rows = np.array([cluster.num_rows for cluster in clusters], dtype=np.int64)
        starts = np.zeros(len(clusters), dtype=np.int64)
        np.cumsum(cluster_rows[:-1], out=starts[1:])
        return cls(
            columns=columns,
            measure=measure,
            starts=starts,
            cluster_rows=cluster_rows,
            cluster_ids=tuple(cluster.cluster_id for cluster in clusters),
        )

    @classmethod
    def patched(
        cls,
        old: "ClusterLayout",
        keep_clusters: int,
        suffix_clusters: Sequence,
    ) -> "ClusterLayout":
        """Layout for ``old``'s first ``keep_clusters`` segments + a new suffix.

        The incremental-compaction constructor: the kept prefix is copied as
        one contiguous slice per column (no per-cluster re-concatenation) and
        only the suffix clusters' rows are gathered fresh.  Column dtypes are
        re-narrowed with exactly the :meth:`from_clusters` rule over the
        combined values, so the result is indistinguishable from a full
        rebuild of the same cluster sequence — the acceleration structures
        (zone maps, segment sums, prefix sums, sortedness) are recomputed in
        the usual single vectorised pass.
        """
        if not 0 <= keep_clusters <= old.num_clusters:
            raise StorageError(
                f"keep_clusters must be in [0, {old.num_clusters}], got {keep_clusters}"
            )
        if keep_clusters == 0 and not suffix_clusters:
            raise StorageError("a layout needs at least one cluster")
        prefix_rows = (
            old.num_rows
            if keep_clusters == old.num_clusters
            else int(old.starts[keep_clusters])
        )
        columns: dict[str, np.ndarray] = {}
        for name, column in old.columns.items():
            parts = [np.asarray(column[:prefix_rows], dtype=np.int64)]
            parts.extend(cluster.rows.column(name) for cluster in suffix_clusters)
            combined = np.ascontiguousarray(np.concatenate(parts))
            if (
                combined.size
                and np.iinfo(np.int32).min < combined.min()
                and combined.max() < np.iinfo(np.int32).max
            ):
                combined = combined.astype(np.int32)
            columns[name] = combined
        measure_parts = [old.measure[:prefix_rows]]
        measure_parts.extend(
            cluster.rows.measure_column() for cluster in suffix_clusters
        )
        measure = np.ascontiguousarray(np.concatenate(measure_parts))
        cluster_rows = np.concatenate(
            [
                old.cluster_rows[:keep_clusters],
                np.array([cluster.num_rows for cluster in suffix_clusters], dtype=np.int64),
            ]
        )
        starts = np.zeros(cluster_rows.size, dtype=np.int64)
        if cluster_rows.size:
            np.cumsum(cluster_rows[:-1], out=starts[1:])
        return cls(
            columns=columns,
            measure=measure,
            starts=starts,
            cluster_rows=cluster_rows,
            cluster_ids=tuple(old.cluster_ids[:keep_clusters])
            + tuple(cluster.cluster_id for cluster in suffix_clusters),
        )

    @property
    def num_clusters(self) -> int:
        """Number of cluster segments in the layout."""
        return int(self.cluster_rows.size)

    @property
    def num_rows(self) -> int:
        """Total number of rows across segments."""
        return int(self.measure.size)

    def position_of(self) -> dict[int, int]:
        """Mapping from cluster id to its position in the layout."""
        return {cluster_id: i for i, cluster_id in enumerate(self.cluster_ids)}

    def gather(self, positions: np.ndarray | Sequence[int]) -> "ClusterLayout":
        """Sub-layout holding only the clusters at ``positions`` (in order).

        Utility for extracting a materialised sub-layout (e.g. for ad-hoc
        analysis of a cluster subset).  The engine hot path does not copy
        sub-layouts — it uses :meth:`query_cluster_values`, which restricts
        each query to its own cluster positions without materialising.

        Rows are copied segment by segment with contiguous slice assignments
        (no per-row index array is materialised).
        """
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == 0:
            raise StorageError("gather needs at least one cluster position")
        cluster_rows = self.cluster_rows[positions]
        starts = np.zeros(positions.size, dtype=np.int64)
        np.cumsum(cluster_rows[:-1], out=starts[1:])
        total = int(cluster_rows.sum())

        def _gather_column(source: np.ndarray) -> np.ndarray:
            out = np.empty(total, dtype=source.dtype)
            for target_start, position, rows in zip(
                starts.tolist(), positions.tolist(), cluster_rows.tolist()
            ):
                source_start = int(self.starts[position])
                out[target_start : target_start + rows] = source[
                    source_start : source_start + rows
                ]
            return out

        return ClusterLayout(
            columns={name: _gather_column(column) for name, column in self.columns.items()},
            measure=_gather_column(self.measure),
            starts=starts,
            cluster_rows=cluster_rows,
            cluster_ids=tuple(self.cluster_ids[int(p)] for p in positions),
        )

    # -- vectorised evaluation ---------------------------------------------

    def row_masks(
        self, batch: "QueryBatch", *, execution: ExecutionConfig | None = None
    ) -> np.ndarray:
        """Boolean ``(num_queries, num_rows)`` selection masks for a batch.

        One broadcast comparison per queried dimension per bound; dimensions a
        query does not constrain use open sentinel bounds and stay all-true.
        The result matrix is always fully materialised (it is the API), but
        the comparison temporaries are evaluated in query tiles sized to
        ``execution.max_kernel_bytes``.
        """
        execution = execution or DEFAULT_EXECUTION
        num_queries = len(batch)
        masks = np.ones((num_queries, self.num_rows), dtype=bool)
        if self.num_rows == 0:
            return masks
        bounds = self._checked_bounds(batch)
        query_tile = self._query_tile(num_queries, self.num_rows, execution, bounds)
        for start in range(0, num_queries, query_tile):
            stop = min(start + query_tile, num_queries)
            self._fill_masks(masks[start:stop], bounds, slice(start, stop))
        return masks

    def _checked_bounds(self, batch: "QueryBatch"):
        bounds = batch.bounds(OPEN_LOW, OPEN_HIGH)
        for name in bounds:
            if name not in self.columns:
                raise StorageError(f"layout has no column {name!r}")
        return bounds

    def _fill_masks(
        self,
        out: np.ndarray,
        bounds: Mapping[str, tuple[np.ndarray, np.ndarray]],
        query_slice: slice,
        row_slice: slice | None = None,
    ) -> None:
        """AND every dimension's range test into ``out`` (pre-set to True)."""
        for name, (lows, highs) in bounds.items():
            column = self.columns[name]
            if row_slice is not None:
                column = column[row_slice]
            lows, highs = _bounds_as(column, lows[query_slice], highs[query_slice])
            np.logical_and(out, column[None, :] >= lows[:, None], out=out)
            np.logical_and(out, column[None, :] <= highs[:, None], out=out)

    @staticmethod
    def _bytes_per_cell(bounds) -> int:
        """Rough per-(query, row) temporary footprint of the dense kernel.

        One byte for the running mask, one for the comparison temporary, and
        eight for the int64 contributions row.
        """
        return 10

    def _query_tile(
        self,
        num_queries: int,
        num_rows: int,
        execution: ExecutionConfig,
        bounds,
    ) -> int:
        budget = execution.max_kernel_bytes
        if budget is None or num_rows == 0:
            return num_queries
        cells = max(1, budget // self._bytes_per_cell(bounds))
        return int(min(num_queries, max(1, cells // num_rows)))

    def cluster_values(
        self, batch: "QueryBatch", *, execution: ExecutionConfig | None = None
    ) -> np.ndarray:
        """Exact ``Q(C)`` for every (query, cluster) pair — ``(nq, nc)`` int64.

        The per-cluster primitive of the paper, vectorised.  With
        ``execution.prune`` the query boxes are intersected with the zone
        maps first: non-overlapping pairs are zero, fully covered pairs are
        the precomputed segment sums, sorted straddlers bisect, and only the
        remaining straddling pairs are row-evaluated (tiled under the
        kernel memory budget).  All modes are bit-identical.
        """
        execution = execution or DEFAULT_EXECUTION
        num_queries = len(batch)
        num_clusters = self.num_clusters
        if self.num_rows == 0:
            return np.zeros((num_queries, num_clusters), dtype=np.int64)
        bounds = self._checked_bounds(batch)
        if not execution.prune:
            return self._cluster_values_dense(bounds, num_queries, execution)
        overlap, covered, covered_per_dim = self._classify_zones(bounds, num_queries)
        result = np.where(covered, self.segment_sums[None, :], np.int64(0))
        straddle = overlap & ~covered
        telemetry = _telemetry
        if telemetry is not None:
            telemetry.pairs_total += num_queries * num_clusters
            telemetry.pairs_covered += int(covered.sum())
            telemetry.pairs_pruned += int((~overlap & ~covered).sum())
        if not straddle.any():
            return result
        if execution.sorted_bisect:
            self._bisect_into(bounds, covered_per_dim, straddle, result, execution)
        pair_query, pair_positions = np.nonzero(straddle)
        if pair_query.size:
            values = self._pair_values(
                bounds, batch.dimensions_per_query(), pair_query, pair_positions, execution
            )
            result[pair_query, pair_positions] = values
        return result

    def _classify_zones(self, bounds, num_queries: int):
        """Zone-map classification of every (query, cluster) pair.

        Returns ``(overlap, covered, covered_per_dim)`` boolean matrices of
        shape ``(num_queries, num_clusters)``.  ``covered_per_dim`` is kept
        per dimension so the bisection kernel can recognise pairs straddling
        on exactly one (sorted) dimension.
        """
        num_clusters = self.num_clusters
        overlap = np.ones((num_queries, num_clusters), dtype=bool)
        covered = np.ones((num_queries, num_clusters), dtype=bool)
        covered_per_dim: dict[str, np.ndarray] = {}
        for name, (lows, highs) in bounds.items():
            zone_low = self.zone_min[name]
            zone_high = self.zone_max[name]
            overlap &= (zone_high >= lows[:, None]) & (zone_low <= highs[:, None])
            covered_dim = (zone_low >= lows[:, None]) & (zone_high <= highs[:, None])
            covered &= covered_dim
            covered_per_dim[name] = covered_dim
        return overlap, covered, covered_per_dim

    def _bisect_segment_sums(
        self,
        name: str,
        lows: np.ndarray,
        highs: np.ndarray,
        pair_query: np.ndarray,
        pair_positions: np.ndarray,
        execution: ExecutionConfig,
    ) -> np.ndarray:
        """Exact per-pair sums via binary search over a sorted dimension.

        For each (query, cluster) pair, two binary searches over the
        cluster's sorted segment of ``name`` locate the matching row range
        and the measure prefix difference gives its exact sum.  The numba
        backend runs every pair's searches inside one njit call; the numpy
        path is a per-pair ``np.searchsorted`` loop.
        """
        column = self.columns[name]
        prefix = self.measure_prefix
        backend = resolve_backend(execution.kernel_backend)
        if _telemetry is not None:
            _telemetry.pairs_bisected += int(pair_query.size)
            _telemetry._note_backend(backend)
        if backend.compiled:
            values = np.empty(pair_query.size, dtype=np.int64)
            pair_lows, pair_highs = _bounds_as(
                column, lows[pair_query], highs[pair_query]
            )
            numba_kernels().bisect_pair_sums(
                column,
                prefix,
                self.starts[pair_positions],
                self.cluster_rows[pair_positions],
                np.ascontiguousarray(pair_lows),
                np.ascontiguousarray(pair_highs),
                values,
            )
            return values
        # Needles in the column dtype: a wider needle would make
        # np.searchsorted upcast (copy) the whole segment on every search.
        lows, highs = _bounds_as(column, lows, highs)
        values = np.empty(pair_query.size, dtype=np.int64)
        for slot, (query, position) in enumerate(
            zip(pair_query.tolist(), pair_positions.tolist())
        ):
            start = int(self.starts[position])
            stop = start + int(self.cluster_rows[position])
            segment = column[start:stop]
            low_row = start + int(np.searchsorted(segment, lows[query], side="left"))
            high_row = start + int(np.searchsorted(segment, highs[query], side="right"))
            values[slot] = prefix[high_row] - prefix[low_row]
        return values

    def _bisect_into(
        self,
        bounds,
        covered_per_dim: Mapping[str, np.ndarray],
        straddle: np.ndarray,
        result: np.ndarray,
        execution: ExecutionConfig,
    ) -> None:
        """Answer straddling pairs sorted on their only straddling dimension.

        A pair is eligible for dimension ``d`` when the cluster is sorted on
        ``d`` and fully covered on every *other* constrained dimension — the
        row predicate then reduces to the ``d`` range, so two binary
        searches over the segment plus a measure-prefix difference give the
        exact sum.  Eligible pairs are cleared from ``straddle``.
        """
        for name in bounds:
            if name not in self.sorted_dimensions:
                continue
            eligible = straddle.copy()
            for other, covered_dim in covered_per_dim.items():
                if other != name:
                    eligible &= covered_dim
            if not eligible.any():
                continue
            lows, highs = bounds[name]
            pair_query, pair_positions = np.nonzero(eligible)
            result[pair_query, pair_positions] = self._bisect_segment_sums(
                name, lows, highs, pair_query, pair_positions, execution
            )
            straddle &= ~eligible
            if not straddle.any():
                return

    def _cluster_values_dense(
        self, bounds, num_queries: int, execution: ExecutionConfig
    ) -> np.ndarray:
        """Dense reference kernel, tiled to the kernel memory budget."""
        num_rows = self.num_rows
        num_clusters = self.num_clusters
        nonempty = self.cluster_rows > 0
        telemetry = _telemetry
        result = np.zeros((num_queries, num_clusters), dtype=np.int64)
        cells = None
        budget = execution.max_kernel_bytes
        if budget is not None:
            cells = max(1, budget // self._bytes_per_cell(bounds))
        query_tile = self._query_tile(num_queries, num_rows, execution, bounds)
        # Row chunks: runs of whole segments.  With no budget (or one large
        # enough) a single chunk covers every row; a single segment larger
        # than the budget still forms its own chunk — segments are never
        # split, so the hard peak is one segment's rows per query row.
        chunk_rows = num_rows if cells is None else max(1, cells // query_tile)
        chunk_bounds = self._segment_chunks(chunk_rows)
        for q_start in range(0, num_queries, query_tile):
            q_stop = min(q_start + query_tile, num_queries)
            query_slice = slice(q_start, q_stop)
            for c_start, c_stop in chunk_bounds:
                row_start = int(self.starts[c_start])
                row_stop = (
                    num_rows
                    if c_stop >= num_clusters
                    else int(self.starts[c_stop])
                )
                if row_stop == row_start:
                    continue
                row_slice = slice(row_start, row_stop)
                masks = np.ones((q_stop - q_start, row_stop - row_start), dtype=bool)
                self._fill_masks(masks, bounds, query_slice, row_slice)
                contributions = masks * self.measure[None, row_slice]
                chunk_nonempty = nonempty[c_start:c_stop]
                chunk_starts = self.starts[c_start:c_stop][chunk_nonempty] - row_start
                if chunk_starts.size:
                    result[query_slice, c_start:c_stop][:, chunk_nonempty] = (
                        np.add.reduceat(contributions, chunk_starts, axis=1)
                    )
                if telemetry is not None:
                    telemetry.tiles += 1
                    telemetry.rows_evaluated += masks.size
                    telemetry.row_dimension_tests += masks.size * len(bounds)
                    telemetry.max_tile_bytes = max(
                        telemetry.max_tile_bytes,
                        masks.size * self._bytes_per_cell(bounds),
                    )
        return result

    def _segment_chunks(self, chunk_rows: int) -> list[tuple[int, int]]:
        """Consecutive segment runs totalling at most ``chunk_rows`` rows each.

        Every chunk holds at least one segment; a single segment longer than
        ``chunk_rows`` forms its own chunk (segments are never split so the
        segmented reduction stays one ``reduceat`` per chunk).
        """
        boundaries = _pair_tile_boundaries(
            self.cluster_rows, None if chunk_rows >= self.num_rows else chunk_rows
        )
        return [
            (int(boundaries[index]), int(boundaries[index + 1]))
            for index in range(boundaries.size - 1)
        ]

    def query_cluster_values(
        self,
        batch: "QueryBatch",
        positions_per_query: Sequence[np.ndarray],
        *,
        execution: ExecutionConfig | None = None,
    ) -> list[np.ndarray]:
        """Exact ``Q(C)`` for each query's own cluster positions, in one pass.

        Unlike :meth:`cluster_values`, which evaluates every query against
        every cluster of the layout, this kernel touches exactly the
        (query, cluster) pairs requested.  With ``execution.prune`` each
        requested pair is first classified against the zone maps (skip /
        segment-sum / bisect), so only genuinely straddling pairs reach the
        row kernel; the row kernel tests each query's rows on that query's
        own constrained dimensions and serves all pairs with boolean masks
        plus one segmented reduction per tile.
        """
        execution = execution or DEFAULT_EXECUTION
        num_queries = len(batch)
        if len(positions_per_query) != num_queries:
            raise StorageError("positions_per_query must align with the batch")
        pair_counts = np.array([len(p) for p in positions_per_query], dtype=np.int64)
        total_pairs = int(pair_counts.sum())
        if total_pairs == 0:
            return [np.zeros(0, dtype=np.int64) for _ in range(num_queries)]
        bounds = self._checked_bounds(batch)
        pair_query = np.repeat(np.arange(num_queries, dtype=np.int64), pair_counts)
        pair_positions = np.concatenate(
            [np.asarray(p, dtype=np.int64) for p in positions_per_query]
        )
        query_dims = batch.dimensions_per_query()
        telemetry = _telemetry
        if not execution.prune:
            pair_values = self._pair_values(
                bounds, query_dims, pair_query, pair_positions, execution
            )
        else:
            overlap = np.ones(total_pairs, dtype=bool)
            covered = np.ones(total_pairs, dtype=bool)
            covered_per_dim: dict[str, np.ndarray] = {}
            for name, (lows, highs) in bounds.items():
                zone_low = self.zone_min[name][pair_positions]
                zone_high = self.zone_max[name][pair_positions]
                query_lows = lows[pair_query]
                query_highs = highs[pair_query]
                overlap &= (zone_high >= query_lows) & (zone_low <= query_highs)
                covered_dim = (zone_low >= query_lows) & (zone_high <= query_highs)
                covered &= covered_dim
                covered_per_dim[name] = covered_dim
            pair_values = np.zeros(total_pairs, dtype=np.int64)
            pair_values[covered] = self.segment_sums[pair_positions[covered]]
            straddle = overlap & ~covered
            if telemetry is not None:
                telemetry.pairs_total += total_pairs
                telemetry.pairs_covered += int(covered.sum())
                telemetry.pairs_pruned += int((~overlap & ~covered).sum())
            if execution.sorted_bisect and straddle.any():
                self._bisect_pairs(
                    bounds,
                    covered_per_dim,
                    straddle,
                    pair_query,
                    pair_positions,
                    pair_values,
                    execution,
                )
            remaining = np.flatnonzero(straddle)
            if remaining.size:
                pair_values[remaining] = self._pair_values(
                    bounds,
                    query_dims,
                    pair_query[remaining],
                    pair_positions[remaining],
                    execution,
                )
        boundaries = np.zeros(num_queries + 1, dtype=np.int64)
        np.cumsum(pair_counts, out=boundaries[1:])
        return [
            pair_values[boundaries[index] : boundaries[index + 1]]
            for index in range(num_queries)
        ]

    def _bisect_pairs(
        self,
        bounds,
        covered_per_dim: Mapping[str, np.ndarray],
        straddle: np.ndarray,
        pair_query: np.ndarray,
        pair_positions: np.ndarray,
        pair_values: np.ndarray,
        execution: ExecutionConfig,
    ) -> None:
        """Flat-pair form of :meth:`_bisect_into` (same eligibility rule)."""
        for name in bounds:
            if name not in self.sorted_dimensions:
                continue
            eligible = straddle.copy()
            for other, covered_dim in covered_per_dim.items():
                if other != name:
                    eligible &= covered_dim
            if not eligible.any():
                continue
            lows, highs = bounds[name]
            indices = np.flatnonzero(eligible)
            pair_values[indices] = self._bisect_segment_sums(
                name, lows, highs, pair_query[indices], pair_positions[indices], execution
            )
            straddle &= ~eligible
            if not straddle.any():
                return

    def _pair_values(
        self,
        bounds,
        query_dims: Sequence[Sequence[str]],
        pair_query: np.ndarray,
        pair_positions: np.ndarray,
        execution: ExecutionConfig,
    ) -> np.ndarray:
        """Row-evaluate arbitrary (query, cluster) pairs, tiled to the budget.

        ``pair_query`` must be non-decreasing (each query's pairs form one
        contiguous run), which both callers produce by construction;
        ``query_dims`` is the batch's
        :meth:`~repro.query.batch.QueryBatch.dimensions_per_query`.
        The flattened kernel, in the backend selected by
        ``execution.kernel_backend``:

        * **numpy** — the tile's row index is built once; then each query's
          run of pairs is tested against the dimensions *that query*
          constrains only, with scalar bounds in the column dtype, and one
          masked ``np.add.reduceat`` serves every pair of the tile;
        * **numba** — the fused njit kernels walk each pair's segment in
          place (:func:`~repro.storage._kernels_numba.and_range_mask` per
          dimension of the batch, then one
          :func:`~repro.storage._kernels_numba.masked_segment_sums` pass);
          the only temporary is a single byte-mask buffer reused across
          tiles, so the per-row footprint drops to 1 byte.

        Either way total work equals the sum of the requested cluster sizes
        — the same rows a per-query loop would scan — and the results are
        bit-identical (integer sums are exact under any order).
        """
        if np.any(pair_query[1:] < pair_query[:-1]):
            raise StorageError("pair_query must be non-decreasing (grouped by query)")
        lengths = self.cluster_rows[pair_positions]
        num_pairs = int(lengths.size)
        values = np.zeros(num_pairs, dtype=np.int64)
        backend = resolve_backend(execution.kernel_backend)
        bytes_per_row = self._bytes_per_pair_row(bounds, compiled=backend.compiled)
        max_rows = None
        if execution.max_kernel_bytes is not None:
            max_rows = max(1, execution.max_kernel_bytes // bytes_per_row)
        telemetry = _telemetry
        if telemetry is not None:
            telemetry._note_backend(backend)
            # Dimensions range-tested per row of each query: the compiled
            # tier tests the whole batch's union, the numpy tier the query's own.
            tested_dims = np.array(
                [len(bounds) if backend.compiled else len(dims) for dims in query_dims],
                dtype=np.int64,
            )
        tile_bounds = _pair_tile_boundaries(lengths, max_rows)
        mask_buffer: np.ndarray | None = None
        if backend.compiled:
            # One reusable byte mask sized to the largest tile — the numba
            # kernels allocate nothing per call.
            prefix = np.zeros(num_pairs + 1, dtype=np.int64)
            np.cumsum(lengths, out=prefix[1:])
            largest = int((prefix[tile_bounds[1:]] - prefix[tile_bounds[:-1]]).max())
            mask_buffer = np.empty(max(largest, 1), dtype=np.uint8)
        else:
            # Bounds cast to each column's dtype once per call; the row tests
            # then compare against numpy scalars and never upcast a column.
            cast_bounds = {
                name: _bounds_as(self.columns[name], lows, highs)
                for name, (lows, highs) in bounds.items()
            }
        for tile_index in range(tile_bounds.size - 1):
            tile = slice(int(tile_bounds[tile_index]), int(tile_bounds[tile_index + 1]))
            tile_lengths = lengths[tile]
            total = int(tile_lengths.sum())
            if total == 0:
                continue
            tile_positions = pair_positions[tile]
            tile_queries = pair_query[tile]
            if backend.compiled:
                values[tile] = self._pair_values_compiled(
                    bounds, tile_queries, tile_positions, tile_lengths, total, mask_buffer
                )
            else:
                values[tile] = self._pair_values_numpy(
                    cast_bounds, query_dims, tile_queries, tile_positions, tile_lengths, total
                )
            if telemetry is not None:
                tile_nonempty = int((tile_lengths > 0).sum())
                telemetry.tiles += 1
                telemetry.rows_evaluated += total
                telemetry.row_dimension_tests += int(
                    (tested_dims[tile_queries] * tile_lengths).sum()
                )
                telemetry.pairs_scanned += tile_nonempty
                if backend.compiled:
                    telemetry.pairs_fused += tile_nonempty
                telemetry.max_tile_bytes = max(
                    telemetry.max_tile_bytes, total * bytes_per_row
                )
        return values

    def _pair_values_numpy(
        self,
        cast_bounds: Mapping[str, tuple[np.ndarray, np.ndarray]],
        query_dims: Sequence[Sequence[str]],
        tile_queries: np.ndarray,
        tile_positions: np.ndarray,
        tile_lengths: np.ndarray,
        total: int,
    ) -> np.ndarray:
        """One numpy evaluation of a tile of query-grouped (query, cluster) pairs."""
        offsets = np.zeros(tile_lengths.size + 1, dtype=np.int64)
        np.cumsum(tile_lengths, out=offsets[1:])
        rows = (
            np.repeat(self.starts[tile_positions] - offsets[:-1], tile_lengths)
            + np.arange(total, dtype=np.int64)
        )
        mask = np.ones(total, dtype=bool)
        # Each query's pairs are one contiguous run of the tile, so its rows
        # are one contiguous slice of ``rows``/``mask``.
        run_starts = np.flatnonzero(tile_queries[1:] != tile_queries[:-1]) + 1
        run_bounds = np.concatenate(([0], run_starts, [tile_queries.size]))
        for run_index in range(run_bounds.size - 1):
            first = int(run_bounds[run_index])
            row_start = int(offsets[first])
            row_stop = int(offsets[run_bounds[run_index + 1]])
            run_rows = rows[row_start:row_stop]
            run_mask = mask[row_start:row_stop]
            query = int(tile_queries[first])
            for name in query_dims[query]:
                lows, highs = cast_bounds[name]
                column = self.columns[name].take(run_rows)
                run_mask &= column >= lows[query]
                run_mask &= column <= highs[query]
        contributions = self.measure.take(rows)
        contributions *= mask
        # reduceat over non-empty pair offsets only: zero-length pairs keep
        # their zero and never reach the ufunc (which would otherwise return
        # the element at the segment start).
        tile_nonempty = tile_lengths > 0
        tile_values = np.zeros(tile_lengths.size, dtype=np.int64)
        red_offsets = offsets[:-1][tile_nonempty]
        if red_offsets.size:
            tile_values[tile_nonempty] = np.add.reduceat(contributions, red_offsets)
        return tile_values

    def _pair_values_compiled(
        self,
        bounds,
        tile_queries: np.ndarray,
        tile_positions: np.ndarray,
        tile_lengths: np.ndarray,
        total: int,
        mask_buffer: np.ndarray,
    ) -> np.ndarray:
        """One fused-kernel evaluation of a tile of (query, cluster) pairs."""
        kernels = numba_kernels()
        seg_starts = np.ascontiguousarray(self.starts[tile_positions])
        seg_lengths = np.ascontiguousarray(tile_lengths)
        mask = mask_buffer[:total]
        mask[:] = 1
        for name, (lows, highs) in bounds.items():
            column = self.columns[name]
            dim_lows, dim_highs = _bounds_as(column, lows, highs)
            kernels.and_range_mask(
                column,
                seg_starts,
                seg_lengths,
                np.ascontiguousarray(dim_lows[tile_queries]),
                np.ascontiguousarray(dim_highs[tile_queries]),
                mask,
            )
        tile_values = np.zeros(tile_lengths.size, dtype=np.int64)
        kernels.masked_segment_sums(self.measure, seg_starts, seg_lengths, mask, tile_values)
        return tile_values

    def _bytes_per_pair_row(self, bounds, *, compiled: bool = False) -> int:
        """Per-row temporary footprint estimate of the flattened pair kernel.

        numpy path: row index (8) + mask (1) + int64 contributions (8) + one
        gathered column copy (its itemsize) and one comparison temporary (1)
        — the dimensions are tested one at a time, so the estimate depends
        on the widest column of the batch, not on how many dimensions it
        has.  The fused njit path touches only the shared byte mask — 1 byte
        per row regardless of dimensions.
        """
        if compiled:
            return 1
        widest = max((int(self.columns[name].itemsize) for name in bounds), default=0)
        return 18 + widest

    def memory_bytes(self) -> int:
        """Approximate footprint of the contiguous arrays."""
        total = self.measure.nbytes + self.starts.nbytes + self.cluster_rows.nbytes
        total += self.segment_sums.nbytes + self.measure_prefix.nbytes
        total += sum(array.nbytes for array in self.zone_min.values())
        total += sum(array.nbytes for array in self.zone_max.values())
        return int(total + sum(column.nbytes for column in self.columns.values()))
