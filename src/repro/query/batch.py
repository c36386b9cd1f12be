"""Query batches: the unit of work of the vectorised execution engine.

A :class:`QueryBatch` wraps an ordered sequence of :class:`RangeQuery` and
precomputes the array form the vectorised kernels consume: per-dimension
``(lows, highs)`` bound vectors with open sentinel bounds for queries that do
not constrain a dimension.  Everything downstream — covering-set
identification, proportion lookup, and exact per-cluster evaluation — runs
once per batch instead of once per query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..errors import QueryError
from ..storage.schema import Schema
from .model import RangeQuery

__all__ = ["QueryBatch"]


@dataclass(frozen=True)
class QueryBatch:
    """An immutable ordered batch of range queries."""

    queries: tuple[RangeQuery, ...]

    def __post_init__(self) -> None:
        if not self.queries:
            raise QueryError("a query batch must contain at least one query")
        object.__setattr__(self, "queries", tuple(self.queries))

    @classmethod
    def coerce(cls, queries: "QueryBatch" | Sequence[RangeQuery]) -> "QueryBatch":
        """Normalise a batch-or-sequence into a :class:`QueryBatch`."""
        if isinstance(queries, cls):
            return queries
        return cls(tuple(queries))

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[RangeQuery]:
        return iter(self.queries)

    def __getitem__(self, index: int) -> RangeQuery:
        return self.queries[index]

    # -- schema plumbing ---------------------------------------------------

    def validate_against(self, schema: Schema) -> None:
        """Validate every query of the batch against ``schema``."""
        for query in self.queries:
            query.validate_against(schema)

    def clipped_to(self, schema: Schema) -> "QueryBatch":
        """Batch with every query's intervals clipped into the schema domain."""
        return QueryBatch(tuple(query.clipped_to(schema) for query in self.queries))

    def range_tuples_list(self) -> list[dict[str, tuple[int, int]]]:
        """Per-query plain ``{dimension: (low, high)}`` mappings."""
        return [query.range_tuples() for query in self.queries]

    def chunked(self, size: int) -> Iterator["QueryBatch"]:
        """Split the batch into consecutive sub-batches of at most ``size``.

        The multi-tenant scheduler coalesces pending submissions into one
        long canonical sequence and then chunks it to the configured
        ``max_batch_size``; order is preserved, every query appears exactly
        once, and the last chunk may be short.
        """
        if size < 1:
            raise QueryError(f"chunk size must be >= 1, got {size}")
        for start in range(0, len(self.queries), size):
            yield QueryBatch(self.queries[start : start + size])

    # -- vectorised form ---------------------------------------------------

    @property
    def constrained_dimensions(self) -> tuple[str, ...]:
        """Dimensions constrained by at least one query (first-seen order)."""
        seen: dict[str, None] = {}
        for query in self.queries:
            for name in query.ranges:
                seen.setdefault(name, None)
        return tuple(seen)

    def bounds(
        self, open_low: int, open_high: int
    ) -> Mapping[str, tuple[np.ndarray, np.ndarray]]:
        """Per-dimension ``(lows, highs)`` bound vectors over the batch.

        Queries that do not constrain a dimension get the open sentinel
        bounds, which keep every row selected on that dimension — the exact
        semantics of the scalar executor skipping the dimension.
        """
        result: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for name in self.constrained_dimensions:
            lows = np.full(len(self.queries), open_low, dtype=np.int64)
            highs = np.full(len(self.queries), open_high, dtype=np.int64)
            for index, query in enumerate(self.queries):
                interval = query.ranges.get(name)
                if interval is not None:
                    lows[index] = interval.low
                    highs[index] = interval.high
            result[name] = (lows, highs)
        return result

    def dimensions_per_query(self) -> tuple[tuple[str, ...], ...]:
        """Each query's own constrained dimensions, in its ``ranges`` order.

        The per-query companion of :meth:`bounds`: query ``i``'s bounds are
        real on exactly ``dimensions_per_query()[i]`` and the open sentinels
        on every other dimension of the batch.
        """
        return tuple(query.dimensions for query in self.queries)
