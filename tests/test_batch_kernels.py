"""Unit tests for the vectorised batch kernels.

The batch engine is built on three layers of vectorised primitives — the
contiguous :class:`ClusterLayout`, the batched :class:`MetadataStore`
queries, and the vectorised sensitivity helpers.  Each must agree exactly
with its scalar counterpart.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ExecutionConfig
from repro.core.sensitivity import (
    ClusterSensitivityInputs,
    delta_r,
    estimator_smooth_sensitivities,
    estimator_smooth_sensitivity,
    smooth_peak_factor,
)
from repro.query.batch import QueryBatch
from repro.query.executor import ExactExecutor, execute_on_cluster
from repro.query.model import RangeQuery
from repro.errors import StorageError
from repro.sampling.em_sampler import EMClusterSampler
from repro.storage.clustered_table import ClusteredTable
from repro.storage.layout import OPEN_HIGH, OPEN_LOW, collect_kernel_telemetry
from repro.storage.metadata import build_metadata
from repro.storage.schema import Dimension, Schema
from repro.storage.table import Table


@pytest.fixture
def layout(clustered):
    return clustered.layout()


class TestClusterLayout:
    def test_layout_preserves_rows_and_offsets(self, clustered, layout):
        assert layout.num_rows == clustered.num_rows
        assert layout.num_clusters == clustered.num_clusters
        ends = layout.starts + layout.cluster_rows
        assert layout.starts[0] == 0
        assert int(ends[-1]) == layout.num_rows
        assert np.all(layout.starts[1:] == ends[:-1])

    def test_dimension_columns_are_narrowed(self, layout):
        # The test schema's domains fit comfortably in int32.
        for name, column in layout.columns.items():
            assert column.dtype == np.int32, name
        assert layout.measure.dtype == np.int64

    def test_cluster_values_match_per_cluster_loop(self, clustered, layout):
        queries = [
            RangeQuery.count({"age": (10, 60)}),
            RangeQuery.count({"age": (0, 99), "dept": (3, 7)}),
            RangeQuery.sum({"hours": (0, 10)}),
        ]
        matrix = layout.cluster_values(QueryBatch(tuple(queries)))
        for query_index, query in enumerate(queries):
            expected = [execute_on_cluster(cluster, query) for cluster in clustered]
            assert matrix[query_index].tolist() == expected

    def test_query_cluster_values_respects_per_query_positions(self, clustered, layout):
        queries = [
            RangeQuery.count({"age": (10, 60)}),
            RangeQuery.count({"hours": (2, 9)}),
        ]
        positions = [np.array([0, 3, 7]), np.array([1, 2])]
        values = layout.query_cluster_values(QueryBatch(tuple(queries)), positions)
        for query_index, (query, chosen) in enumerate(zip(queries, positions)):
            expected = [
                execute_on_cluster(clustered.clusters[p], query) for p in chosen
            ]
            assert values[query_index].tolist() == expected

    def test_query_cluster_values_empty_positions(self, layout):
        queries = [RangeQuery.count({"age": (10, 60)})]
        values = layout.query_cluster_values(
            QueryBatch(tuple(queries)), [np.empty(0, dtype=np.int64)]
        )
        assert values[0].size == 0

    def test_gather_subsets_clusters(self, clustered, layout):
        sub = layout.gather(np.array([2, 5]))
        assert sub.num_clusters == 2
        assert sub.cluster_ids == (2, 5)
        assert sub.num_rows == (
            clustered.clusters[2].num_rows + clustered.clusters[5].num_rows
        )


class TestPairKernel:
    """The numpy row kernel behind ``query_cluster_values``/``cluster_values``."""

    NUMPY_TILED = ExecutionConfig(
        prune=False, sorted_bisect=False, max_kernel_bytes=4096, kernel_backend="numpy"
    )

    @pytest.fixture
    def wide_clustered(self):
        """1 200 rows over 7 dimensions, in clusters of 100 rows."""
        rng = np.random.default_rng(29)
        schema = Schema(tuple(Dimension(f"d{i}", 0, 99) for i in range(7)))
        table = Table(schema, {f"d{i}": rng.integers(0, 100, 1200) for i in range(7)})
        return ClusteredTable.from_table(table, cluster_size=100)

    def test_rows_are_tested_on_their_querys_dimensions_only(self, wide_clustered):
        layout = wide_clustered.layout()
        queries = [
            RangeQuery.count({"d0": (10, 60), "d1": (5, 95), "d2": (0, 40)}),
            RangeQuery.count({"d3": (20, 80), "d4": (0, 50), "d5": (30, 99)}),
            RangeQuery.sum({"d6": (0, 70), "d0": (40, 99), "d3": (10, 90)}),
        ]
        batch = QueryBatch(tuple(queries))
        positions = [np.arange(layout.num_clusters) for _ in queries]
        with collect_kernel_telemetry() as stats:
            values = layout.query_cluster_values(
                batch, positions, execution=self.NUMPY_TILED
            )
        for query, got in zip(queries, values):
            expected = [execute_on_cluster(cluster, query) for cluster in wide_clustered]
            assert got.tolist() == expected
        assert stats.rows_evaluated == len(queries) * layout.num_rows
        assert stats.row_dimension_tests == 3 * stats.rows_evaluated
        # One query's 1 200 rows do not fit one 4096-byte tile.
        assert stats.tiles > len(queries)
        assert stats.max_tile_bytes <= 4096

        pruned = ExecutionConfig(
            prune=True, sorted_bisect=False, max_kernel_bytes=4096, kernel_backend="numpy"
        )
        with collect_kernel_telemetry() as stats:
            layout.cluster_values(batch, execution=pruned)
        assert stats.rows_evaluated > 0
        assert stats.row_dimension_tests == 3 * stats.rows_evaluated
        assert stats.max_tile_bytes <= 4096

    def test_footprint_estimate_does_not_grow_with_the_batch_union(self, wide_clustered):
        layout = wide_clustered.layout()
        one = QueryBatch((RangeQuery.count({"d0": (0, 9)}),))
        seven = QueryBatch(
            tuple(RangeQuery.count({f"d{i}": (0, 9)}) for i in range(7))
        )
        assert layout._bytes_per_pair_row(
            one.bounds(OPEN_LOW, OPEN_HIGH)
        ) == layout._bytes_per_pair_row(seven.bounds(OPEN_LOW, OPEN_HIGH))

    def test_pairs_must_be_grouped_by_query(self, layout):
        batch = QueryBatch(
            (RangeQuery.count({"age": (0, 50)}), RangeQuery.count({"age": (50, 99)}))
        )
        with pytest.raises(StorageError, match="non-decreasing"):
            layout._pair_values(
                batch.bounds(OPEN_LOW, OPEN_HIGH),
                batch.dimensions_per_query(),
                np.array([1, 0]),
                np.array([0, 1]),
                self.NUMPY_TILED,
            )

    def test_numpy_bisection_searches_in_the_column_dtype(self, small_table, monkeypatch):
        """Bounds outside int32 on a narrowed sorted column: exact, and no upcast.

        A needle wider than the segment makes ``np.searchsorted`` copy the
        whole segment per search, so every search must get a needle of the
        segment's own dtype.
        """
        key = "age"
        clustered = ClusteredTable.from_table(
            small_table, cluster_size=100, policy="sorted", sort_by=key
        )
        layout = clustered.layout()
        assert key in layout.sorted_dimensions
        assert layout.columns[key].dtype == np.int32
        queries = [
            RangeQuery.count({key: (-(2**40), 50)}),
            RangeQuery.sum({key: (30, 2**40)}),
            RangeQuery.count({key: (-(2**40), 2**40)}),
        ]
        needles: list[tuple[np.dtype, np.dtype]] = []
        searchsorted = np.searchsorted

        def spy(segment, needle, *args, **kwargs):
            needles.append((np.asarray(segment).dtype, np.asarray(needle).dtype))
            return searchsorted(segment, needle, *args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", spy)
        execution = ExecutionConfig(prune=True, sorted_bisect=True, kernel_backend="numpy")
        with collect_kernel_telemetry() as stats:
            matrix = layout.cluster_values(QueryBatch(tuple(queries)), execution=execution)
        assert stats.pairs_bisected > 0
        assert needles and all(segment == needle for segment, needle in needles)
        for index, query in enumerate(queries):
            expected = [execute_on_cluster(cluster, query) for cluster in clustered]
            assert matrix[index].tolist() == expected


class TestMetadataBatch:
    def test_covering_batch_matches_scalar(self, clustered, metadata):
        ranges_list = [
            {"age": (10, 60)},
            {"age": (0, 99), "dept": (3, 7)},
            {"hours": (200, 300)},  # disjoint from the clipped domain data
        ]
        batched = metadata.covering_cluster_ids_batch(ranges_list)
        for ranges, expected_ids in zip(ranges_list, batched):
            assert metadata.covering_cluster_ids(ranges) == expected_ids
            scalar = [
                entry.cluster_id
                for entry in metadata.global_entries
                if entry.overlaps(ranges)
            ]
            assert expected_ids == scalar

    def test_proportions_batch_matches_scalar_path(self, clustered):
        # Build the metadata without the dense index to get the reference
        # per-cluster scalar computation, and with it for the batched path.
        sparse = build_metadata(clustered, dense=False)
        dense = build_metadata(clustered, dense=True)
        ranges_list = [{"age": (10, 60), "dept": (2, 6)}, {"hours": (0, 12)}]
        covering = dense.covering_cluster_ids_batch(ranges_list)
        batched = dense.proportions_batch(covering, ranges_list)
        for ranges, ids, proportions in zip(ranges_list, covering, batched):
            reference = sparse.proportions(ids, ranges)
            assert proportions == pytest.approx(reference.tolist(), abs=1e-12)

    def test_positions_and_ids_agree(self, metadata):
        ranges_list = [{"age": (20, 40)}]
        positions = metadata.covering_positions_batch(ranges_list)[0]
        ids = metadata.covering_cluster_ids_batch(ranges_list)[0]
        assert [metadata.cluster_ids[p] for p in positions] == ids


class TestVectorisedSensitivity:
    def test_matches_scalar_smooth_sensitivity(self):
        epsilon, delta = 0.8, 1e-3
        dr_value = delta_r(100, 3)
        sum_proportions = 4.2
        values = np.array([0.0, 3.0, 250.0, 9000.0])
        proportions = np.array([0.01, 0.2, 0.05, 0.5])
        probabilities = np.array([0.05, 0.3, 0.15, 0.5])
        vectorised = estimator_smooth_sensitivities(
            values,
            proportions,
            probabilities,
            sum_proportions=sum_proportions,
            delta_r_value=dr_value,
            epsilon=epsilon,
            delta=delta,
        )
        for index in range(values.size):
            scalar = estimator_smooth_sensitivity(
                ClusterSensitivityInputs(
                    cluster_value=float(values[index]),
                    proportion=float(proportions[index]),
                    probability=float(probabilities[index]),
                ),
                sum_proportions=sum_proportions,
                delta_r_value=dr_value,
                epsilon=epsilon,
                delta=delta,
            )
            assert vectorised[index] == pytest.approx(scalar, rel=1e-12)

    def test_peak_factor_is_positive_and_cached(self):
        first = smooth_peak_factor(0.8, 1e-3)
        second = smooth_peak_factor(0.8, 1e-3)
        assert first > 0
        assert first == second


class TestFlattenedSelectionDistribution:
    """The provider's flattened Algorithm-2 pipeline vs the scalar sampler."""

    def test_select_clusters_matches_class_sampler(self, small_table):
        from repro.core.accounting import QueryBudget
        from repro.federation.messages import AllocationMessage, QueryRequest
        from repro.federation.provider import DataProvider, _AnswerPlan

        provider = DataProvider(
            provider_id="p0", table=small_table, cluster_size=100, n_min=3, rng=0
        )
        query = RangeQuery.count({"age": (10, 80)})
        provider.prepare_summary(
            QueryRequest(query_id=1, query=query, sampling_rate=0.3),
            epsilon_allocation=0.1,
        )
        session = provider._sessions[1]
        plan = _AnswerPlan(
            allocation=AllocationMessage(query_id=1, provider_id="p0", sample_size=4),
            session=session,
            exact=False,
            needed_positions=session.covering_positions,
        )
        provider._select_clusters([plan], epsilon_sampling=0.1)
        reference = EMClusterSampler(epsilon=0.1, n_min=3).selection_distribution(
            session.proportions, plan.sample_size
        )
        assert plan.selection == pytest.approx(reference.tolist(), rel=1e-12)
        assert plan.selected.size == 4
        assert np.all((0 <= plan.selected) & (plan.selected < session.proportions.size))
        provider.forget(1)
