"""Seeded inputs for the benchmark: rows, range queries, arrival schedules.

Everything the program receives is made here from the workload seed, so
the same seed gives the same rows, queries and arrivals.  The exact-answer
oracle also lives here: it evaluates queries with plain numpy over the
generated rows, independently of the program, so relative errors are
judged against a reference the program cannot influence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.adult import ADULT_TENSOR_DIMENSIONS, AdultSyntheticGenerator
from repro.query.model import Aggregation, Interval, RangeQuery
from repro.storage.schema import MEASURE_COLUMN
from repro.storage.table import Table

DIMENSIONS = ADULT_TENSOR_DIMENSIONS


DATA_SEED = 7


def seeded(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per input stream, keyed by the seed."""
    return np.random.default_rng([seed, *stream.encode("utf-8")])


def adult_rows(raw_rows: int) -> Table:
    """The Adult-like count tensor the federation is built over.

    The data set is the same for every workload seed, like a fixed
    benchmark database: the generator's seed moves the modes of its
    mixtures, and with them the cost of every query, so a seeded data
    set would make run-to-run spread a property of the data rather than
    of the program.  Queries, arrivals and appended rows follow the
    workload seed.
    """
    return AdultSyntheticGenerator(num_rows=raw_rows, seed=DATA_SEED).count_tensor()


def random_query(
    rng: np.random.Generator,
    table: Table,
    num_dimensions: int,
    coverage: tuple[float, float],
) -> RangeQuery:
    """One COUNT or SUM query over ``num_dimensions`` random dimensions.

    Each range covers a uniformly drawn fraction of its dimension's domain
    in ``coverage``.
    """
    chosen = rng.choice(len(DIMENSIONS), size=num_dimensions, replace=False)
    ranges: dict[str, Interval] = {}
    for index in sorted(int(i) for i in chosen):
        dimension = table.schema.dimension(DIMENSIONS[index])
        fraction = rng.uniform(*coverage)
        width = max(1, int(round(fraction * dimension.domain_size)))
        start = int(rng.integers(dimension.low, dimension.high - width + 2))
        ranges[dimension.name] = Interval(start, start + width - 1)
    aggregation = Aggregation.SUM if rng.random() < 0.5 else Aggregation.COUNT
    return RangeQuery(aggregation, ranges)


class QueryMaker:
    """Random queries that select at least ``min_share`` of the measure.

    The paper evaluates queries that are large enough for the
    approximation to apply; at this scale a query whose true answer is
    below the calibrated noise would measure only the noise.  Candidates
    are screened against every 16th row, which is cheap and
    deterministic; the screen need not be exact.
    """

    def __init__(self, table: Table, rng: np.random.Generator, min_share: float = 0.02) -> None:
        self.table = table
        self.rng = rng
        self._screen = table.take(np.arange(0, table.num_rows, 16))
        self._floor = min_share * self._screen.total_measure()
        self._oracle = Oracle(self._screen)

    def make(self, num_dimensions: int, coverage: tuple[float, float]) -> RangeQuery:
        for _ in range(1000):
            query = random_query(self.rng, self.table, num_dimensions, coverage)
            if self._oracle.exact(query) >= self._floor:
                return query
        raise RuntimeError(f"no query over {num_dimensions} dimensions passes the screen")


def sample_rows(rng: np.random.Generator, table: Table, count: int) -> Table:
    """Fresh rows drawn from ``table``'s empirical distribution (for ingest)."""
    return table.take(rng.integers(0, table.num_rows, count))


@dataclass(frozen=True)
class Arrival:
    """One open-loop submission: due time (seconds from start), tenant, queries."""

    due: float
    tenant: str
    queries: tuple[RangeQuery, ...]


class Oracle:
    """Exact answers by a plain numpy scan of the generated rows.

    COUNT and SUM both sum the measure column on a count tensor.  Rows
    appended later (ingest) are registered in chunks with :meth:`append`;
    an answer is asked for "as of" a number of appended chunks.  Columns
    are narrowed to 32 bits, which every Adult domain fits, to halve the
    bytes each scan reads.
    """

    def __init__(self, table: Table) -> None:
        self._base = self._columns(table)
        self._appended: list[dict[str, np.ndarray]] = []
        self._tail: dict[str, np.ndarray] | None = None

    @staticmethod
    def _columns(table: Table) -> dict[str, np.ndarray]:
        return {
            name: table.column(name).astype(np.int32)
            for name in table.schema.column_names
        }

    @property
    def appended(self) -> int:
        """Number of chunks appended so far."""
        return len(self._appended)

    def append(self, rows: Table) -> None:
        columns = self._columns(rows)
        columns["_chunk"] = np.full(rows.num_rows, len(self._appended), dtype=np.int32)
        self._appended.append(columns)
        self._tail = None

    @staticmethod
    def _sum(columns, query: RangeQuery, extra=None) -> int:
        mask = extra
        for name, interval in query.ranges.items():
            column = columns[name]
            term = (column >= interval.low) & (column <= interval.high)
            mask = term if mask is None else mask & term
        return int(columns[MEASURE_COLUMN][mask].sum(dtype=np.int64))

    def exact(self, query: RangeQuery, chunks: int = 0) -> int:
        """Exact answer over the base rows plus the first ``chunks`` appends."""
        total = self._sum(self._base, query)
        if chunks and self._appended:
            if self._tail is None:
                self._tail = {
                    name: np.concatenate([part[name] for part in self._appended])
                    for name in self._appended[0]
                }
            total += self._sum(self._tail, query, self._tail["_chunk"] < chunks)
        return total


def relative_errors(pairs) -> list[float]:
    """|estimate - exact| / exact over ``(estimate, exact)`` with exact > 0."""
    return [abs(estimate - exact) / exact for estimate, exact in pairs if exact > 0]


def percentile(samples, q: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    ordered = sorted(samples)
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
