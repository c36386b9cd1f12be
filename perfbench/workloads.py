"""The benchmark's three workloads: what each submits, how, and what it checks.

``analytics-batch``
    Closed loop, one analyst.  Every call is
    ``FederatedAQPSystem.execute_batch`` over 32 fresh 3-dimensional
    COUNT/SUM queries on a paper-default Adult-like federation.  The
    storage kernels, the metadata covering pass and the provider's
    estimator do almost all the work; the codec, scheduler, cache and
    ingest are bypassed, so a gain there must predict no change here.
``tenant-serving``
    Open loop: seeded Poisson arrivals from 8 tenants at a fixed rate into a
    ``SessionScheduler`` over the loopback transport with the release cache
    on.  Four in five submissions are one narrow dashboard query drawn
    Zipf-wise from a pool that fits in the cache; the rest are 4-8 fresh
    wide queries.  Admission, pricing, coalescing, cache hits, the codec
    and framing, and the charge path carry this workload.
``live-ingest``
    Closed loop of rounds: one ingest batch plus every tenant's submission,
    then a drain, with the cache and auto-compaction on.  Delta reads,
    incremental compaction, metadata patching and write-driven cache
    invalidation run beside the reads.

A workload is built from a :class:`Scale` (``FULL`` for the benchmark,
``TINY`` for the benchmark's own tests) and a seed.  ``setup`` builds the
federation (the timed set-up), ``run`` drives it and returns a
:class:`Record`, and ``check`` raises :class:`CheckFailed` when an output
is wrong.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.config import (
    CacheConfig,
    ExecutionConfig,
    IngestConfig,
    PrivacyConfig,
    SamplingConfig,
    ServiceConfig,
    SystemConfig,
    TransportConfig,
)
from repro.core.system import FederatedAQPSystem
from repro.errors import AdmissionError, ServiceOverloadedError
from repro.service import SessionScheduler, TenantRegistry

from inputs import DATA_SEED, Arrival, Oracle, QueryMaker, adult_rows, sample_rows, seeded

NUM_TENANTS = 8
TENANTS = tuple(f"tenant-{index}" for index in range(NUM_TENANTS))


class CheckFailed(Exception):
    """An output of the program is wrong; the run's metrics are void."""


@dataclass(frozen=True)
class Scale:
    """Size knobs of every workload (one instance per benchmark scale)."""

    analytics_rows: int  # raw Adult rows before the count tensor
    batch_queries: int
    serving_rows: int
    serving_rate: float  # open-loop arrivals per second
    dashboard_pool: int
    ingest_rows: int
    ingest_batch_rows: int  # rows appended per round
    max_delta_rows: int  # auto-compaction threshold per provider
    prefix_arrivals: int  # serving arrivals replayed over in-process


FULL = Scale(
    analytics_rows=300_000,
    batch_queries=32,
    serving_rows=60_000,
    serving_rate=20.0,
    dashboard_pool=64,
    ingest_rows=100_000,
    ingest_batch_rows=96,
    max_delta_rows=512,
    prefix_arrivals=120,
)

TINY = Scale(
    analytics_rows=20_000,
    batch_queries=8,
    serving_rows=12_000,
    serving_rate=600.0,
    dashboard_pool=16,
    ingest_rows=12_000,
    ingest_batch_rows=64,
    max_delta_rows=96,
    prefix_arrivals=40,
)


def federation(table, **overrides) -> FederatedAQPSystem:
    """Paper defaults: 4 providers, eps 1, sr 20%, cluster = 1% of a partition.

    The system seed, which fixes how rows are dealt to providers and each
    provider's noise streams, is part of the fixed deployment like the data
    set: a per-run system seed nearly doubled the run-to-run spread of the
    median relative error on ``tenant-serving``.  Lazy per-provider layouts are
    built here, so set-up time covers every structure a first query would
    otherwise build.
    """
    config = SystemConfig(
        cluster_size=max(50, (table.num_rows // 4) // 100),
        num_providers=4,
        privacy=PrivacyConfig(epsilon=1.0, delta=1e-3),
        sampling=SamplingConfig(sampling_rate=0.2, min_clusters_for_approximation=4),
        seed=DATA_SEED,
        **overrides,
    )
    system = FederatedAQPSystem.from_table(table, config=config, n_min=4)
    for provider in system.providers:
        provider.clustered.layout()
    return system


def serving(system: FederatedAQPSystem, max_pending: int) -> SessionScheduler:
    """A scheduler with 8 tenants whose wallets never run dry."""
    registry = TenantRegistry()
    for tenant_id in TENANTS:
        registry.register(tenant_id, total_epsilon=1e9, total_delta=1.0)
    return SessionScheduler(
        system, registry, config=ServiceConfig(max_pending=max_pending)
    )


@dataclass
class Record:
    """What one run of a workload measured and answered."""

    latencies: list[float] = field(default_factory=list)  # seconds
    attempted: int = 0  # batch calls or submissions
    failed: int = 0  # refused submissions
    answered: int = 0  # queries answered
    busy_seconds: float = 0.0  # wall time minus the open loop's idle waits
    epsilon: float = 0.0  # charged over all answered queries
    rows_ingested: int = 0
    lag: list[float] = field(default_factory=list)  # open-loop lateness, s
    answers: list = field(default_factory=list)  # deterministic answer log
    sampled: list = field(default_factory=list)  # (estimate, query, chunks)
    wire_bytes: int = 0
    wire_frames: int = 0
    summary_hits: int = 0  # provider summaries served from the release cache
    answer_hits: int = 0  # provider answers served from the release cache
    provider_answers: int = 0  # answered queries times answering providers
    cache_evictions: int = 0
    cache_invalidations: int = 0
    ops: int = 0  # batches, arrivals or rounds driven

    def count_result(self, result) -> None:
        """Tally one answered query and its cache reuse."""
        self.answered += 1
        self.summary_hits += result.trace.summary_cache_hits
        self.answer_hits += result.trace.answer_cache_hits
        self.provider_answers += len(result.provider_reports)


@contextmanager
def counting(system, record: Record):
    """Add the wire and cache counters a block moved to ``record``."""
    wire = system.transport_stats()
    cache = system.cache_stats()
    yield
    wire_after = system.transport_stats()
    cache_after = system.cache_stats()
    record.wire_bytes += wire_after.bytes_sent - wire.bytes_sent
    record.wire_frames += wire_after.messages - wire.messages
    record.cache_evictions += (
        cache_after.evicted_capacity + cache_after.evicted_expired
        - cache.evicted_capacity - cache.evicted_expired
    )
    record.cache_invalidations += cache_after.evicted_stale - cache.evicted_stale


class Workload:
    """Shared part of a workload.

    Subclasses provide ``setup()`` (returns the state the run drives),
    ``run(state, *, seconds=None, ops=None, clock="real")`` (drives it for
    ``seconds`` of busy time or ``ops`` steps and returns a
    :class:`Record`), ``check(state, record)`` and ``inputs_digest()`` (a
    fingerprint of the generated inputs, for the held-out-seed test).
    """

    name = ""
    slo_seconds = 0.0  # latency limit of one batch call or submission
    # The highest of p99/p95/p90 with 25 samples beyond it in a run of the
    # seed commit, so a change up to 2.5x slower still leaves 10 there.
    tail_percentile = 99.0
    error_stride = 1  # every n-th answered query gets its exact answer computed
    open_loop = False  # arrivals follow the wall clock, so coalescing does too

    def __init__(self, seed: int, scale: Scale = FULL) -> None:
        self.seed = seed
        self.scale = scale

    def ledger_entries(self, state) -> int:
        """Budget-ledger entries the run left (no wallet: none)."""
        return 0

    def exact_pairs(self, record: Record) -> list[tuple[float, int]]:
        """Estimates of the sampled answers beside their exact values.

        Each distinct release counts once: a cache hit re-serves an earlier
        release, which says nothing new about accuracy but would let the
        noise of a few hot dashboard predicates decide the median.
        """
        releases = {
            (query.to_sql(), estimate, chunks): query
            for estimate, query, chunks in record.sampled
        }
        return [
            (estimate, self.oracle.exact(query, chunks))
            for (_, estimate, chunks), query in releases.items()
        ]


def _sample(record: Record, stride: int, value: float, query, chunks: int = 0) -> None:
    if record.answered % stride == 0:
        record.sampled.append((value, query, chunks))


def _done(record: Record, seconds, ops) -> bool:
    """Whether a closed loop has run ``ops`` steps or been busy ``seconds``.

    Busy time counts only calls into the program, so input generation
    between calls does not shorten the measurement.
    """
    if ops is not None:
        return record.ops >= ops
    return record.busy_seconds >= seconds


def _check_sessions(system) -> None:
    open_sessions = [p.num_open_sessions for p in system.providers]
    if any(open_sessions):
        raise CheckFailed(f"providers hold open sessions after the run: {open_sessions}")


def _check_wallets(scheduler, answers_by_tenant) -> None:
    """Each tenant's wallet debit equals the charges its answers carried."""
    for tenant in scheduler.registry:
        charged = 0.0
        for epsilon in answers_by_tenant.get(tenant.tenant_id, ()):
            charged += epsilon
        debit = tenant.budget.accountant.spent.epsilon
        if charged != debit:
            raise CheckFailed(
                f"{tenant.tenant_id}: answers carry epsilon {charged!r} "
                f"but the wallet was debited {debit!r}"
            )
        if abs(tenant.budget.reserved_epsilon) > 1e-9:
            raise CheckFailed(
                f"{tenant.tenant_id}: {tenant.budget.reserved_epsilon} epsilon "
                "still reserved after the last drain"
            )


class AnalyticsBatch(Workload):
    name = "analytics-batch"
    slo_seconds = 0.15
    tail_percentile = 90.0
    error_stride = 4  # exact answers on 283k rows cost about 1 ms each

    def __init__(self, seed: int, scale: Scale = FULL) -> None:
        super().__init__(seed, scale)
        self.table = adult_rows(scale.analytics_rows)
        self.oracle = Oracle(self.table)

    def _queries(self):
        maker = QueryMaker(self.table, seeded(self.seed, "analytics"))
        while True:
            yield [
                maker.make(3, (0.35, 0.85))
                for _ in range(self.scale.batch_queries)
            ]

    def inputs_digest(self) -> tuple:
        first = next(self._queries())
        return tuple(q.to_sql() for q in first)

    def setup(self, **overrides):
        return federation(self.table, **overrides)

    def run(self, system, *, seconds=None, ops=None, clock="real") -> Record:
        record = Record()
        batches = self._queries()
        with counting(system, record):
            while not _done(record, seconds, ops):
                queries = next(batches)
                begin = time.perf_counter()
                result = system.execute_batch(queries, compute_exact=False)
                elapsed = time.perf_counter() - begin
                record.latencies.append(elapsed)
                record.busy_seconds += elapsed
                record.attempted += 1
                record.ops += 1
                for query, answer in zip(queries, result.results):
                    record.count_result(answer)
                    record.epsilon += answer.epsilon_spent
                    record.answers.append((answer.value, answer.epsilon_spent))
                    _sample(record, self.error_stride, answer.value, query)
        return record

    def check(self, system, record: Record) -> None:
        _check_sessions(system)
        # The same seed's first batches are bit-identical under the dense
        # engine, which evaluates every row without pruning or bisection.
        dense = self.setup(execution=ExecutionConfig.dense())
        prefix = self.run(dense, ops=min(2, record.ops))
        _check_sessions(dense)
        if prefix.answers != record.answers[: len(prefix.answers)]:
            raise CheckFailed("analytics-batch answers differ under ExecutionConfig.dense()")


class _Served(Workload):
    """Workloads that reach the federation through the session scheduler."""

    def _pool(self, table):
        maker = QueryMaker(table, seeded(self.seed, "dashboards"))
        return [
            maker.make(2, (0.1, 0.3))
            for _ in range(self.scale.dashboard_pool)
        ]

    @staticmethod
    def _zipf(rng, size: int) -> int:
        weights = 1.0 / np.arange(1, size + 1) ** 1.1
        return int(rng.choice(size, p=weights / weights.sum()))

    def _submit(self, scheduler, record, tenant, queries, due, pending) -> None:
        record.attempted += 1
        try:
            receipt = scheduler.submit(tenant, queries)
        except (AdmissionError, ServiceOverloadedError):
            record.failed += 1
            return
        pending[receipt.submission_id] = (due, queries)

    def _settle(self, record, answers, pending, finished, by_tenant, chunks=0) -> None:
        for answer in answers:
            due, queries = pending.pop(answer.submission_id)
            latency = finished - due
            record.latencies.append(latency)
            record.epsilon += answer.epsilon_charged
            record.answers.append(
                (answer.tenant_id, answer.submission_id, answer.values,
                 tuple(r.epsilon_spent for r in answer.results))
            )
            spends = by_tenant.setdefault(answer.tenant_id, [])
            for query, result in zip(queries, answer.results):
                record.count_result(result)
                spends.append(result.epsilon_spent)
                _sample(record, self.error_stride, result.value, query, chunks)

    def ledger_entries(self, state) -> int:
        scheduler, _ = state
        return sum(len(tenant.budget.accountant) for tenant in scheduler.registry)

    def check(self, state, record: Record) -> None:
        scheduler, by_tenant = state
        _check_sessions(scheduler.system)
        _check_wallets(scheduler, by_tenant)
        # Refused submissions are reported as failed; an admitted one must
        # be answered.
        unanswered = record.attempted - record.failed - len(record.latencies)
        if unanswered:
            raise CheckFailed(f"{self.name}: {unanswered} admitted submissions unanswered")


class TenantServing(_Served):
    name = "tenant-serving"
    slo_seconds = 0.1
    tail_percentile = 90.0
    open_loop = True
    window = 0.02  # virtual-clock drain interval, seconds of schedule time

    def __init__(self, seed: int, scale: Scale = FULL) -> None:
        super().__init__(seed, scale)
        self.table = adult_rows(scale.serving_rows)
        self.oracle = Oracle(self.table)
        self.pool = self._pool(self.table)

    def arrivals(self):
        """Seeded Poisson arrivals at the scale's fixed rate, in due order."""
        rng = seeded(self.seed, "arrivals")
        maker = QueryMaker(self.table, rng)
        due = 0.0
        while True:
            due += rng.exponential(1.0 / self.scale.serving_rate)
            tenant = TENANTS[int(rng.integers(NUM_TENANTS))]
            if rng.random() < 0.8:
                queries = (self.pool[self._zipf(rng, len(self.pool))],)
            else:
                queries = tuple(
                    maker.make(3, (0.5, 0.9))
                    for _ in range(int(rng.integers(4, 9)))
                )
            yield Arrival(due, tenant, queries)

    def _warm(self, scheduler, by_tenant) -> None:
        """Release every dashboard once during set-up, so the cache is warm.

        A fresh federation would otherwise spend the first seconds of each
        run answering cold dashboards, and how many fall in the window
        would decide the median.
        """
        warm = Record()
        pending: dict[int, tuple[float, tuple]] = {}
        for index, query in enumerate(self.pool):
            self._submit(scheduler, warm, TENANTS[index % NUM_TENANTS], (query,), 0.0, pending)
        self._settle(warm, scheduler.drain(), pending, 0.0, by_tenant)

    def inputs_digest(self) -> tuple:
        stream = self.arrivals()
        head = [next(stream) for _ in range(8)]
        return tuple((a.due, a.tenant, tuple(q.to_sql() for q in a.queries)) for a in head)

    def setup(self, transport: str = "loopback"):
        system = federation(
            self.table,
            cache=CacheConfig(enabled=True),
            transport=TransportConfig(kind=transport),
        )
        scheduler, by_tenant = serving(system, max_pending=4096), {}
        self._warm(scheduler, by_tenant)
        return scheduler, by_tenant

    def run(self, state, *, seconds=None, ops=None, clock="real") -> Record:
        """Submit every due arrival, drain, repeat.

        With the real clock the loop sleeps until the next arrival is due
        and times each submission from when it was due; the virtual clock
        drains once per ``window`` of schedule time, so coalescing (and
        with it every answer) depends on the seed alone.
        """
        scheduler, by_tenant = state
        record = Record()
        pending: dict[int, tuple[float, tuple]] = {}
        schedule = []
        for arrival in self.arrivals():
            if len(schedule) == ops or (ops is None and arrival.due >= seconds):
                break
            schedule.append(arrival)
        position = 0
        idle = 0.0
        started = time.perf_counter()
        with counting(scheduler.system, record):
            while position < len(schedule):
                upcoming = schedule[position].due
                if clock == "virtual":
                    now = (math.floor(upcoming / self.window) + 1) * self.window
                else:
                    now = time.perf_counter() - started
                    if upcoming > now:
                        time.sleep(upcoming - now)
                        idle += time.perf_counter() - started - now
                        continue
                while position < len(schedule) and schedule[position].due <= now:
                    arrival = schedule[position]
                    if clock == "real":
                        submitted = time.perf_counter()
                        record.lag.append(max(0.0, submitted - started - arrival.due))
                        due = started + arrival.due
                    else:
                        due = time.perf_counter()
                    self._submit(scheduler, record, arrival.tenant, arrival.queries, due,
                                 pending)
                    position += 1
                    record.ops += 1
                answers = scheduler.drain()
                self._settle(record, answers, pending, time.perf_counter(), by_tenant)
        record.busy_seconds = time.perf_counter() - started - idle
        return record

    def check(self, state, record: Record) -> None:
        super().check(state, record)
        # A same-seed prefix replayed over the in-process transport gives
        # bit-identical values and charges: the codec loses nothing.
        replays = []
        for transport in ("loopback", "inprocess"):
            replay_state = self.setup(transport=transport)
            replays.append(
                self.run(replay_state, ops=self.scale.prefix_arrivals, clock="virtual")
            )
            _Served.check(self, replay_state, replays[-1])
        if replays[0].answers != replays[1].answers:
            raise CheckFailed("tenant-serving answers differ between loopback and in-process")


class LiveIngest(_Served):
    name = "live-ingest"
    slo_seconds = 0.2
    error_stride = 2

    def __init__(self, seed: int, scale: Scale = FULL) -> None:
        super().__init__(seed, scale)
        self.table = adult_rows(scale.ingest_rows)
        self.oracle = Oracle(self.table)
        self.pool = self._pool(self.table)

    def rounds(self):
        """Per round: the appended rows and each tenant's two queries."""
        rows_rng = seeded(self.seed, "ingest-rows")
        query_rng = seeded(self.seed, "ingest-queries")
        maker = QueryMaker(self.table, query_rng)
        while True:
            rows = sample_rows(rows_rng, self.table, self.scale.ingest_batch_rows)
            submissions = [
                (
                    tenant,
                    (
                        self.pool[self._zipf(query_rng, len(self.pool))],
                        maker.make(3, (0.35, 0.85)),
                    ),
                )
                for tenant in TENANTS
            ]
            yield rows, submissions

    def inputs_digest(self) -> tuple:
        rows, submissions = next(self.rounds())
        return (
            rows.total_measure(),
            tuple(q.to_sql() for _, queries in submissions for q in queries),
        )

    def setup(self):
        system = federation(
            self.table,
            cache=CacheConfig(enabled=True),
            ingest=IngestConfig(auto_compact=True, max_delta_rows=self.scale.max_delta_rows),
        )
        return serving(system, max_pending=4 * NUM_TENANTS), {}

    def run(self, state, *, seconds=None, ops=None, clock="real") -> Record:
        scheduler, by_tenant = state
        record = Record()
        pending: dict[int, tuple[float, tuple]] = {}
        rounds = self.rounds()
        with counting(scheduler.system, record):
            while not _done(record, seconds, ops):
                rows, submissions = next(rounds)
                # This round's queries see the rows of every earlier round:
                # drains run their query batches before their ingests.
                chunks = record.ops
                if chunks == self.oracle.appended:
                    self.oracle.append(rows)
                begin = time.perf_counter()
                scheduler.submit_ingest(rows)
                for tenant, queries in submissions:
                    self._submit(scheduler, record, tenant, queries, time.perf_counter(),
                                 pending)
                answers = scheduler.drain()
                finished = time.perf_counter()
                record.busy_seconds += finished - begin
                self._settle(record, answers, pending, finished, by_tenant, chunks)
                record.rows_ingested += rows.num_rows
                record.ops += 1
        return record

    def check(self, state, record: Record) -> None:
        super().check(state, record)
        scheduler, _ = state
        system = scheduler.system
        stored = system.total_rows + system.total_delta_rows
        expected = self.table.num_rows + record.rows_ingested
        if stored != expected or scheduler.stats.rows_ingested != record.rows_ingested:
            raise CheckFailed(
                f"live-ingest stores {stored} rows, expected {expected}"
            )


WORKLOADS = {cls.name: cls for cls in (AnalyticsBatch, TenantServing, LiveIngest)}
