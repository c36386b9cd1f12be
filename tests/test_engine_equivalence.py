"""Engine-mode equivalence: pruned/sorted/tiled/process ≡ dense, bit for bit.

The execution engine has one semantic (exact integer ``Q(C)``) and many
execution modes — dense scans, zone-map pruning, sorted-layout bisection,
memory-bounded tiling, thread and process provider fan-out.  Integer sums
are exact under any evaluation order, so every mode must return *identical*
results; this module sweeps randomized tables and workloads asserting
exactly that, plus the regressions for empty clusters and ``gather``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import (
    DENSE_EXECUTION,
    ExecutionConfig,
    ParallelismConfig,
    SamplingConfig,
    SystemConfig,
    TransportConfig,
)
from repro.core.system import FederatedAQPSystem
from repro.query.batch import QueryBatch
from repro.query.executor import ExactExecutor, execute_on_cluster
from repro.query.model import RangeQuery
from repro.storage.cluster import Cluster
from repro.storage.clustered_table import ClusteredTable
from repro.storage.kernels import numba_available
from repro.storage.layout import collect_kernel_telemetry
from repro.storage.metadata import build_metadata
from repro.storage.schema import Dimension, Schema
from repro.storage.table import Table

SCHEMA = Schema(
    (
        Dimension("key", 0, 999),
        Dimension("aux", 0, 49),
        Dimension("cat", 0, 9),
    )
)

EXECUTION_MODES = {
    "pruned": ExecutionConfig(prune=True, sorted_bisect=False),
    "pruned+sorted": ExecutionConfig(prune=True, sorted_bisect=True),
    "tiled-tiny": ExecutionConfig(prune=False, sorted_bisect=False, max_kernel_bytes=4096),
    "pruned+sorted+tiled-tiny": ExecutionConfig(
        prune=True, sorted_bisect=True, max_kernel_bytes=4096
    ),
}
# Kernel-backend axis: every mode again under each explicit backend.  An
# explicit "numba" request degrades (loudly, once) to the numpy kernels when
# numba is not installed, so the sweep is meaningful on both CI legs — with
# numba it exercises the compiled tier, without it the fallback path.
for _backend in ("numpy", "numba"):
    for _name, _execution in list(EXECUTION_MODES.items()):
        EXECUTION_MODES[f"{_name}@{_backend}"] = _execution.with_kernel_backend(_backend)


def _random_table(rng: np.random.Generator, num_rows: int) -> Table:
    return Table(
        SCHEMA,
        {
            "key": rng.integers(0, 1000, num_rows),
            "aux": np.minimum(49, rng.poisson(12, num_rows)),
            "cat": rng.integers(0, 10, num_rows),
        },
    )


def _random_workload(rng: np.random.Generator, count: int) -> list[RangeQuery]:
    """Queries across the selectivity spectrum, 1-3 constrained dimensions."""
    queries = []
    for _ in range(count):
        ranges: dict[str, tuple[int, int]] = {}
        width = rng.choice([5, 50, 400, 1000])  # near-empty → full coverage
        low = int(rng.integers(0, 1000))
        ranges["key"] = (low, min(999, low + int(width)))
        if rng.random() < 0.5:
            low = int(rng.integers(0, 50))
            ranges["aux"] = (low, min(49, low + int(rng.integers(1, 30))))
        if rng.random() < 0.3:
            low = int(rng.integers(0, 10))
            ranges["cat"] = (low, min(9, low + int(rng.integers(0, 5))))
        queries.append(RangeQuery.count(ranges))
    return queries


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("policy", ["sequential", "sorted"])
def test_all_kernel_modes_match_dense(seed, policy):
    rng = np.random.default_rng(seed)
    table = _random_table(rng, int(rng.integers(500, 4000)))
    clustered = ClusteredTable.from_table(
        table, cluster_size=int(rng.integers(50, 400)), policy=policy
    )
    layout = clustered.layout()
    batch = QueryBatch(tuple(_random_workload(rng, 12)))

    dense = layout.cluster_values(batch, execution=DENSE_EXECUTION)
    for mode, execution in EXECUTION_MODES.items():
        values = layout.cluster_values(batch, execution=execution)
        assert np.array_equal(values, dense), mode

    positions = [
        np.sort(
            rng.choice(
                layout.num_clusters,
                size=int(rng.integers(0, layout.num_clusters + 1)),
                replace=False,
            )
        ).astype(np.int64)
        for _ in batch
    ]
    reference = layout.query_cluster_values(batch, positions, execution=DENSE_EXECUTION)
    for mode, execution in EXECUTION_MODES.items():
        values = layout.query_cluster_values(batch, positions, execution=execution)
        for expected, got in zip(reference, values):
            assert np.array_equal(expected, got), mode

    masks = layout.row_masks(batch, execution=DENSE_EXECUTION)
    tiled = layout.row_masks(batch, execution=EXECUTION_MODES["tiled-tiny"])
    assert np.array_equal(masks, tiled)


# -- independent reference: a plain per-cluster numpy loop ------------------
#
# The dense mode shares the pair kernel with the other modes (dense
# ``query_cluster_values`` runs it on every pair), so "≡ dense" cannot catch a
# kernel bug they share.  This sweep checks every mode against a loop over
# the raw per-cluster arrays instead, written without any layout code.

WIDE = 2**40  # outside int32: the "wide" column is never narrowed
FAR = 2**35  # a bound outside int32 on every dimension
REFERENCE_DOMAINS = {"a": (0, 20), "b": (-5, 5), "c": (0, 9), "wide": (-WIDE, WIDE)}
REFERENCE_SCHEMA = Schema(
    tuple(Dimension(name, low, high) for name, (low, high) in REFERENCE_DOMAINS.items()),
    measure="measure",
)


@st.composite
def reference_chunks(draw):
    """Per-cluster raw columns, some clusters empty, each sorted on one dimension.

    Clusters of up to 120 rows make one query's pairs span several tiles
    under the 4096-byte budget of the tiled modes (about 150 rows a tile).
    """
    sizes = draw(st.lists(st.integers(0, 120), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    sort_by = draw(st.sampled_from(sorted(REFERENCE_DOMAINS)))
    chunks = []
    for size in sizes:
        chunk = {
            name: rng.integers(low, high + 1, size)
            for name, (low, high) in REFERENCE_DOMAINS.items()
        }
        chunk["wide"][:1] = WIDE  # keeps the column int64 whenever rows exist
        chunk["measure"] = rng.integers(1, 50, size)
        order = np.argsort(chunk[sort_by], kind="stable")
        chunk = {name: column[order] for name, column in chunk.items()}
        chunks.append(chunk)
    return chunks


@st.composite
def reference_queries(draw):
    """A COUNT or SUM query on its own subset of the dimensions."""
    names = draw(
        st.lists(st.sampled_from(sorted(REFERENCE_DOMAINS)), min_size=1, max_size=4, unique=True)
    )
    ranges = {}
    for name in names:
        low, high = REFERENCE_DOMAINS[name]
        edges = [
            draw(st.sampled_from([-FAR, FAR]))
            if draw(st.integers(0, 3)) == 0
            else draw(st.integers(low - 2, high + 2))
            for _ in range(2)
        ]
        ranges[name] = (min(edges), max(edges))
    return draw(st.sampled_from([RangeQuery.count, RangeQuery.sum]))(ranges)


def _reference_value(chunk: dict[str, np.ndarray], query: RangeQuery) -> int:
    keep = np.ones(chunk["measure"].size, dtype=bool)
    for name, interval in query.ranges.items():
        keep &= (chunk[name] >= interval.low) & (chunk[name] <= interval.high)
    return int(chunk["measure"][keep].sum())


@given(
    reference_chunks(),
    st.lists(reference_queries(), min_size=1, max_size=5),
    st.integers(0, 2**31 - 1),
)
def test_every_mode_matches_independent_per_cluster_loop(chunks, queries, seed):
    layout = ClusteredTable(
        clusters=tuple(
            Cluster(cluster_id=index, rows=Table(REFERENCE_SCHEMA, chunk), nominal_size=128)
            for index, chunk in enumerate(chunks)
        ),
        cluster_size=128,
    ).layout()
    if layout.num_rows:
        assert layout.columns["a"].dtype == np.int32
        assert layout.columns["wide"].dtype == np.int64
    batch = QueryBatch(tuple(queries))
    expected = np.array(
        [[_reference_value(chunk, query) for chunk in chunks] for query in queries],
        dtype=np.int64,
    ).reshape(len(queries), len(chunks))
    rng = np.random.default_rng(seed)
    positions = [
        rng.permutation(len(chunks))[: rng.integers(0, len(chunks) + 1)] for _ in queries
    ]
    for mode, execution in EXECUTION_MODES.items():
        matrix = layout.cluster_values(batch, execution=execution)
        assert np.array_equal(matrix, expected), mode
        values = layout.query_cluster_values(batch, positions, execution=execution)
        for index, chosen in enumerate(positions):
            assert np.array_equal(values[index], expected[index, chosen]), mode


def test_dense_matches_per_cluster_loop():
    rng = np.random.default_rng(7)
    table = _random_table(rng, 1500)
    clustered = ClusteredTable.from_table(table, cluster_size=128)
    layout = clustered.layout()
    queries = _random_workload(rng, 6)
    matrix = layout.cluster_values(QueryBatch(tuple(queries)), execution=DENSE_EXECUTION)
    for index, query in enumerate(queries):
        expected = [execute_on_cluster(cluster, query) for cluster in clustered]
        assert matrix[index].tolist() == expected


def _clustered_with_empty_segments() -> ClusteredTable:
    """Clusters where positions 1 and 4 (the tail) hold zero rows."""
    rng = np.random.default_rng(11)
    chunks = [_random_table(rng, n) for n in (130, 0, 90, 47, 0)]
    clusters = tuple(
        Cluster(cluster_id=index, rows=chunk, nominal_size=200)
        for index, chunk in enumerate(chunks)
    )
    return ClusteredTable(clusters=clusters, cluster_size=200)


def test_empty_segments_all_modes():
    """Regression: zero-length segments, including a trailing one.

    The old dense fallback allocated a Q×(rows+1) prefix matrix; the kernels
    now mask empty segments out of the ``reduceat`` instead.  Every mode must
    agree with the per-cluster loop, charging empty clusters exactly zero.
    """
    clustered = _clustered_with_empty_segments()
    layout = clustered.layout()
    rng = np.random.default_rng(13)
    queries = _random_workload(rng, 8)
    batch = QueryBatch(tuple(queries))
    expected = np.array(
        [
            [execute_on_cluster(cluster, query) for cluster in clustered]
            for query in queries
        ],
        dtype=np.int64,
    )
    for execution in [DENSE_EXECUTION, *EXECUTION_MODES.values()]:
        assert np.array_equal(layout.cluster_values(batch, execution=execution), expected)
    positions = [np.arange(layout.num_clusters, dtype=np.int64) for _ in batch]
    for execution in [DENSE_EXECUTION, *EXECUTION_MODES.values()]:
        values = layout.query_cluster_values(batch, positions, execution=execution)
        for index in range(len(batch)):
            assert np.array_equal(values[index], expected[index])


def test_empty_segments_executor_end_to_end():
    clustered = _clustered_with_empty_segments()
    metadata = build_metadata(clustered)
    queries = _random_workload(np.random.default_rng(17), 5)
    for execution in [None, DENSE_EXECUTION, EXECUTION_MODES["pruned+sorted+tiled-tiny"]]:
        executor = ExactExecutor(clustered, metadata, execution=execution)
        values = [result.value for result in executor.execute_batch(queries)]
        expected = [
            sum(execute_on_cluster(cluster, query) for cluster in clustered)
            for query in queries
        ]
        assert values == expected


def test_gather_preserves_segment_offsets_and_empty_segments():
    clustered = _clustered_with_empty_segments()
    layout = clustered.layout()
    sub = layout.gather(np.array([2, 1, 4, 0]))
    assert sub.cluster_ids == (2, 1, 4, 0)
    assert sub.cluster_rows.tolist() == [90, 0, 0, 130]
    # Segments must stay contiguous: starts are the running row totals.
    assert sub.starts.tolist() == [0, 90, 90, 90]
    assert sub.num_rows == 220
    # Row content of every gathered segment matches the source segment.
    for target, source in enumerate([2, 1, 4, 0]):
        src_start = int(layout.starts[source])
        src_stop = src_start + int(layout.cluster_rows[source])
        dst_start = int(sub.starts[target])
        dst_stop = dst_start + int(sub.cluster_rows[target])
        for name in layout.columns:
            assert np.array_equal(
                sub.columns[name][dst_start:dst_stop],
                layout.columns[name][src_start:src_stop],
            )
        assert np.array_equal(
            sub.measure[dst_start:dst_stop], layout.measure[src_start:src_stop]
        )


def test_zone_maps_match_cluster_extremes():
    clustered = _clustered_with_empty_segments()
    layout = clustered.layout()
    for name in layout.columns:
        for position, cluster in enumerate(clustered):
            column = cluster.rows.column(name)
            if column.size == 0:
                # Inverted sentinels: never overlap a real query range.
                assert layout.zone_min[name][position] > layout.zone_max[name][position]
            else:
                assert layout.zone_min[name][position] == column.min()
                assert layout.zone_max[name][position] == column.max()
    assert layout.segment_sums.tolist() == [
        cluster.num_rows for cluster in clustered  # raw table: measure == 1
    ]


def test_sorted_dimension_detection():
    rng = np.random.default_rng(3)
    table = _random_table(rng, 2000)
    sequential = ClusteredTable.from_table(table, cluster_size=100).layout()
    assert "key" not in sequential.sorted_dimensions
    by_key = ClusteredTable.from_table(table, cluster_size=100, policy="sorted").layout()
    assert "key" in by_key.sorted_dimensions
    intra = ClusteredTable.from_table(
        table, cluster_size=100, intra_sort_by="aux"
    ).layout()
    assert "aux" in intra.sorted_dimensions


def test_intra_sort_preserves_cluster_membership_and_answers():
    """Intra-cluster sorting changes row order only — answers are identical."""
    rng = np.random.default_rng(5)
    table = _random_table(rng, 3000)
    plain = ClusteredTable.from_table(table, cluster_size=250)
    sorted_rows = ClusteredTable.from_table(table, cluster_size=250, intra_sort_by="key")
    assert plain.num_clusters == sorted_rows.num_clusters
    queries = _random_workload(rng, 10)
    batch = QueryBatch(tuple(queries))
    plain_values = plain.layout().cluster_values(batch, execution=DENSE_EXECUTION)
    with collect_kernel_telemetry() as telemetry:
        sorted_values = sorted_rows.layout().cluster_values(batch)
    assert np.array_equal(plain_values, sorted_values)
    assert telemetry.pairs_bisected > 0


def test_kernel_backend_telemetry_counters():
    """Per-backend telemetry: jit/fallback hits, fused pairs, tile bytes."""
    rng = np.random.default_rng(21)
    table = _random_table(rng, 4000)
    layout = ClusteredTable.from_table(table, cluster_size=200).layout()
    batch = QueryBatch(tuple(_random_workload(rng, 10)))
    dense = layout.cluster_values(batch, execution=DENSE_EXECUTION)
    for requested in ("numpy", "numba", "auto"):
        execution = ExecutionConfig(
            prune=True, sorted_bisect=False, kernel_backend=requested
        )
        with collect_kernel_telemetry() as telemetry:
            values = layout.cluster_values(batch, execution=execution)
        assert np.array_equal(values, dense), requested
        assert telemetry.pairs_scanned > 0  # this workload always straddles
        assert telemetry.max_tile_bytes > 0
        if requested != "numpy" and numba_available():
            assert telemetry.backend == "numba"
            assert telemetry.jit_calls > 0
            assert telemetry.fallback_calls == 0
            assert telemetry.pairs_fused > 0
        else:
            assert telemetry.backend == "numpy"
            assert telemetry.jit_calls == 0
            assert telemetry.pairs_fused == 0
        if requested == "numba" and not numba_available():
            # Explicit request degraded: counted, with the reason recorded.
            assert telemetry.fallback_calls > 0
            assert "numba" in telemetry.fallback_reason
        else:
            assert telemetry.fallback_calls == 0
            assert telemetry.fallback_reason == ""


def test_pruning_touches_fewer_rows_and_tiling_bounds_memory():
    rng = np.random.default_rng(19)
    table = _random_table(rng, 8000)
    clustered = ClusteredTable.from_table(table, cluster_size=200, policy="sorted")
    layout = clustered.layout()
    # Low-selectivity workload: narrow ranges on the clustering key.
    queries = []
    for _ in range(8):
        low = int(rng.integers(0, 980))
        queries.append(RangeQuery.count({"key": (low, low + 15)}))
    batch = QueryBatch(tuple(queries))
    with collect_kernel_telemetry() as dense_stats:
        dense = layout.cluster_values(batch, execution=DENSE_EXECUTION)
    with collect_kernel_telemetry() as pruned_stats:
        pruned = layout.cluster_values(batch)
    assert np.array_equal(dense, pruned)
    assert dense_stats.rows_evaluated == len(batch) * layout.num_rows
    # With bisection on, the straddlers resolve by binary search: no rows.
    assert pruned_stats.rows_evaluated == 0
    assert pruned_stats.pairs_bisected > 0
    # Force the straddlers onto the row path under a tiny budget: the peak
    # tile footprint stays within it (no cluster of this table is larger
    # than the budget's row allowance) and results stay identical.
    budget = 16384
    execution = ExecutionConfig(sorted_bisect=False, max_kernel_bytes=budget)
    with collect_kernel_telemetry() as tiled_stats:
        tiled = layout.cluster_values(batch, execution=execution)
    assert np.array_equal(dense, tiled)
    assert 0 < tiled_stats.rows_evaluated < dense_stats.rows_evaluated / 10
    assert 0 < tiled_stats.max_tile_bytes <= budget


def _system(table: Table, config: SystemConfig, **kwargs) -> FederatedAQPSystem:
    return FederatedAQPSystem.from_table(table, config=config, **kwargs)


@pytest.mark.parametrize("seed", [0, 4])
def test_system_modes_bit_identical(seed):
    """End-to-end: the full DP protocol is invariant across engine modes."""
    rng = np.random.default_rng(seed)
    table = _random_table(rng, 6000)
    base = SystemConfig(
        cluster_size=150,
        num_providers=3,
        sampling=SamplingConfig(sampling_rate=0.2, min_clusters_for_approximation=3),
        seed=23,
    )
    queries = _random_workload(rng, 9)
    reference = _system(table, base.with_execution(DENSE_EXECUTION)).execute_batch(
        queries, compute_exact=False
    )
    variants = {
        "default": base,
        "tiled-tiny": base.with_execution(
            ExecutionConfig(max_kernel_bytes=8192)
        ),
        "thread": base.with_parallelism(ParallelismConfig(enabled=True)),
    }
    for mode, config in variants.items():
        values = _system(table, config).execute_batch(queries, compute_exact=False).values
        assert values == reference.values, mode
    intra = _system(table, base, intra_sort_by="key")
    assert intra.execute_batch(queries, compute_exact=False).values == reference.values


def test_system_process_backend_bit_identical():
    rng = np.random.default_rng(29)
    table = _random_table(rng, 5000)
    base = SystemConfig(
        cluster_size=200,
        num_providers=3,
        sampling=SamplingConfig(sampling_rate=0.2, min_clusters_for_approximation=3),
        seed=31,
    )
    queries = _random_workload(rng, 6)
    reference = _system(table, base).execute_batch(queries, compute_exact=False)
    process_config = base.with_parallelism(
        ParallelismConfig(enabled=True, backend="process")
    )
    with _system(table, process_config) as system:
        first = system.execute_batch(queries, compute_exact=False)
        second = system.execute_batch(queries, compute_exact=False)
        for provider in system.providers:
            assert provider.num_open_sessions == 0
    follow_up = _system(table, base)
    follow_up.execute_batch(queries, compute_exact=False)
    reference_second = follow_up.execute_batch(queries, compute_exact=False)
    assert first.values == reference.values
    # Worker streams advance exactly like in-process ones across batches.
    assert second.values == reference_second.values


def test_system_process_backend_survives_layout_rebuild():
    """Re-clustering a provider must rebuild the worker pool, not serve stale layouts."""
    rng = np.random.default_rng(43)
    table = _random_table(rng, 3000)
    base = SystemConfig(
        cluster_size=150,
        num_providers=2,
        sampling=SamplingConfig(sampling_rate=0.2, min_clusters_for_approximation=3),
        seed=47,
    )
    queries = _random_workload(rng, 4)
    process_config = base.with_parallelism(
        ParallelismConfig(enabled=True, backend="process")
    )
    reference = _system(table, base)
    reference.execute_batch(queries, compute_exact=False)
    reference.providers[0].rebuild_layout(clustering_policy="sorted")
    expected = reference.execute_batch(queries, compute_exact=False).values
    with _system(table, process_config) as system:
        system.execute_batch(queries, compute_exact=False)
        system.providers[0].rebuild_layout(clustering_policy="sorted")
        assert system.execute_batch(queries, compute_exact=False).values == expected


def test_system_process_backend_smc_and_shared_workers():
    rng = np.random.default_rng(37)
    table = _random_table(rng, 4000)
    base = SystemConfig(
        cluster_size=150,
        num_providers=4,
        sampling=SamplingConfig(sampling_rate=0.2, min_clusters_for_approximation=3),
        seed=41,
        use_smc_for_result=True,
    )
    queries = _random_workload(rng, 4)
    reference = _system(table, base).execute_batch(queries, compute_exact=False)
    process_config = base.with_parallelism(
        ParallelismConfig(enabled=True, backend="process", max_workers=2)
    )
    with _system(table, process_config) as system:
        values = system.execute_batch(queries, compute_exact=False).values
    assert values == reference.values


# -- transport / sharding equivalence matrix ------------------------------------


def _batch_fingerprint(batch) -> list[tuple]:
    """Everything a transport could plausibly corrupt, per query."""
    return [
        (result.value, result.epsilon_spent, result.delta_spent, result.noise_injected)
        for result in batch
    ]


def test_transport_matrix_bit_identical():
    """Same workload, same seed: every transport and shard count must produce
    bit-identical answers AND epsilon charges — sharded(K>=2)-over-sockets
    included, which is the acceptance bar for the distributed path."""
    rng = np.random.default_rng(11)
    table = _random_table(rng, 6000)
    base = SystemConfig(
        cluster_size=150,
        num_providers=3,
        sampling=SamplingConfig(sampling_rate=0.2, min_clusters_for_approximation=3),
        seed=23,
    )
    queries = _random_workload(rng, 9)
    with _system(table, base) as reference_system:
        reference = _batch_fingerprint(
            reference_system.execute_batch(queries, compute_exact=False)
        )
    matrix = {
        "loopback": TransportConfig(kind="loopback"),
        "socket": TransportConfig(kind="socket"),
        "sharded-k1": TransportConfig(shard_workers=1),
        "sharded-k2": TransportConfig(shard_workers=2),
        "sharded-k3": TransportConfig(shard_workers=3),
        "sharded-k2-loopback": TransportConfig(kind="loopback", shard_workers=2),
        "sharded-k3-socket": TransportConfig(kind="socket", shard_workers=3),
    }
    for mode, transport in matrix.items():
        with _system(table, base.with_transport(transport)) as system:
            batch = system.execute_batch(queries, compute_exact=False)
            assert _batch_fingerprint(batch) == reference, mode
            stats = system.transport_stats()
            if transport.kind == "inprocess":
                assert stats.messages == 0, mode
            else:
                # Real framed traffic: a request and a reply frame per
                # provider phase call (summary, answer, forget).
                assert stats.messages == 6 * len(system.providers), mode
                assert stats.bytes_sent > 0, mode
                assert stats.frames_duplicated == 0, mode


def test_transport_wire_traffic_is_deterministic():
    """Loopback and socket put byte-identical framed traffic on the wire."""
    rng = np.random.default_rng(17)
    table = _random_table(rng, 3000)
    base = SystemConfig(
        cluster_size=150,
        num_providers=2,
        sampling=SamplingConfig(sampling_rate=0.2, min_clusters_for_approximation=3),
        seed=29,
    )
    queries = _random_workload(rng, 5)
    snapshots = {}
    for kind in ("loopback", "socket"):
        with _system(table, base.with_transport(TransportConfig(kind=kind))) as system:
            system.execute_batch(queries, compute_exact=False)
            stats = system.transport_stats()
            snapshots[kind] = (stats.messages, stats.bytes_sent)
    assert snapshots["loopback"] == snapshots["socket"]


def test_sharded_provider_matches_unsharded_across_rebuild_and_thread_fanout():
    """Sharding survives re-clustering (shards rebuild on the epoch bump) and
    composes with the thread fan-out without changing a single bit."""
    rng = np.random.default_rng(31)
    table = _random_table(rng, 4000)
    base = SystemConfig(
        cluster_size=150,
        num_providers=2,
        sampling=SamplingConfig(sampling_rate=0.2, min_clusters_for_approximation=3),
        seed=37,
    )
    queries = _random_workload(rng, 5)
    reference = _system(table, base)
    reference.execute_batch(queries, compute_exact=False)
    reference.providers[0].rebuild_layout(clustering_policy="sorted")
    expected = reference.execute_batch(queries, compute_exact=False).values
    sharded_config = base.with_transport(
        TransportConfig(shard_workers=3)
    ).with_parallelism(ParallelismConfig(enabled=True))
    with _system(table, sharded_config) as system:
        assert all(provider.shard_count >= 2 for provider in system.providers)
        system.execute_batch(queries, compute_exact=False)
        system.providers[0].rebuild_layout(clustering_policy="sorted")
        assert system.execute_batch(queries, compute_exact=False).values == expected
