"""Outside-in layer tracing: wrap public entry points of each layer, time every call.

Nothing inside ``src/`` records anything.  :class:`Tracer` replaces a
layer's public functions and methods with wrappers while it is installed,
and restores the originals afterwards.  Each wrapped call is one span:
name, start, end and the span that was open when it began.  Spans live in
memory, one stack per thread; a span opened on a thread with an empty
stack (the scheduler's dispatcher worker) is parented under the outermost
open span of the thread that installed the tracer, so a drain owns the
batches it dispatched.

A span's self time is its duration minus the part of its interval covered
by its children, so self times of nested layers never double count.
:func:`layer_metrics` turns the spans and counters into the per-layer
metrics listed in ``LAYERS.md``.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from repro.core import accounting
from repro.federation import aggregator, provider, transport
from repro.ingest import delta
from repro.service import scheduler
from repro.storage import clustered_table, layout, metadata

from inputs import percentile


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: "Span | None") -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent


class Tracer:
    """In-memory spans and counters of the wrapped layer boundaries."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.queue_waits: list[float] = []
        self.batch_sizes: list[int] = []
        self.folds: list = []
        self._submitted: list[float] = []
        self._local = threading.local()
        self._home_stack: list[Span] = []
        self._home_thread: int | None = None
        self.telemetry = layout.KernelTelemetry()

    # -- spans -----------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._home_thread:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            home = self._home_stack
            parent = home[0] if home and stack is not home else None
        span = Span(name, time.perf_counter(), parent)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    # -- installation ----------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, before=None, after=None):
        raw = owner.__dict__[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        function = raw.__func__ if kind else raw
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            span = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".errors"] += 1
                raise
            finally:
                tracer.close(span)
            tracer.counts[name + ".calls"] += 1
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        return owner, attr, raw

    def _run_boundaries(self):
        """(owner, attribute, span name, before hook, after hook) per boundary."""
        return [
            (scheduler.SessionScheduler, "submit", "service.submit", None,
             lambda args, result: self._submitted.append(time.perf_counter())),
            (scheduler.SessionScheduler, "submit_ingest", "service.submit_ingest", None, None),
            (scheduler.SessionScheduler, "drain", "service.drain", self._drain_starts, None),
            (aggregator.Aggregator, "plan_reuse", "service.price", None, None),
            (aggregator.Aggregator, "begin_batch", "aggregator.begin",
             lambda args: self.batch_sizes.append(len(args[1])), None),
            (aggregator.Aggregator, "collect_batch", "aggregator.collect", None, None),
            (aggregator.Aggregator, "settle_batch", "aggregator.settle", None, None),
            (aggregator, "solve_allocation", "aggregator.allocation", None, None),
            *(
                (cls, f"{phase}_batch", f"transport.{phase}", None, None)
                for cls in (transport.InProcessTransport, transport._SerializingTransport)
                for phase in ("summary", "answer", "forget")
            ),
            (transport, "serialize", "transport.codec", None, None),
            (transport, "deserialize", "transport.codec", None, None),
            (transport, "encode_frame", "transport.framing", None, None),
            (transport.FrameDecoder, "feed", "transport.framing", None, None),
            (provider.DataProvider, "prepare_summary_batch", "provider.summary", None, None),
            (provider.DataProvider, "answer_batch", "provider.answer", None, None),
            (metadata.MetadataStore, "covering_positions_batch", "storage.covering", None, None),
            (metadata.MetadataStore, "proportions_at_positions_batch", "storage.proportions",
             None, None),
            (layout.ClusterLayout, "query_cluster_values", "storage.qc_kernel", None, None),
            (provider.DataProvider, "ingest_rows", "ingest.append", None, None),
            (delta.DeltaStore, "query_values", "ingest.delta_read", None, None),
            (provider.DataProvider, "compact", "ingest.compact", None,
             lambda args, report: self.folds.append(report)),
            *(
                (accounting.EndUserBudget, attr, "accounting.charge", None, None)
                for attr in ("reserve", "charge_spends", "release")
            ),
        ]

    @staticmethod
    def _setup_boundaries():
        return [
            (clustered_table.ClusteredTable, "from_table", "setup.cluster", None, None),
            (provider, "build_metadata", "setup.metadata", None, None),
            (layout.ClusterLayout, "from_clusters", "setup.layout", None, None),
        ]

    def _drain_starts(self, args) -> None:
        now = time.perf_counter()
        self.queue_waits.extend(now - submitted for submitted in self._submitted)
        self._submitted.clear()

    @contextmanager
    def installed(self, phase: str):
        """Wrap the ``"setup"`` or ``"run"`` boundaries for the enclosed block.

        Set-up functions are wrapped only while set-up runs, so a
        compaction that rebuilds part of a layout during the run counts
        as compaction time.
        """
        boundaries = self._setup_boundaries() if phase == "setup" else self._run_boundaries()
        self._home_thread = threading.get_ident()
        undo = []
        try:
            for owner, attr, name, before, after in boundaries:
                undo.append(self._wrap(owner, attr, name, before, after))
            with layout.collect_kernel_telemetry() as self.telemetry:
                yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)
            self._home_thread = None


def self_times(spans: list[Span]) -> tuple[dict[str, float], float]:
    """Summed self time per span name, and the summed duration of root spans."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    totals: dict[str, float] = defaultdict(float)
    roots = 0.0
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(id(span), ()), key=lambda c: c.start):
            low = max(child.start, reach)
            high = min(child.end, span.end)
            if high > low:
                covered += high - low
                reach = high
        totals[span.name] += span.end - span.start - covered
        if span.parent is None:
            roots += span.end - span.start
    return totals, roots


def layer_metrics(setup_tracer: Tracer, tracer: Tracer, traced, plain, ledger: int) -> dict:
    """The per-layer metrics of one traced run (see ``LAYERS.md``).

    ``traced`` is the traced pass's record, ``plain`` the record of the
    same operations run untraced, ``ledger`` the number of budget-ledger
    entries the traced pass added.
    """
    setup_times, _ = self_times(setup_tracer.spans)
    times, roots = self_times(tracer.spans)
    counts = tracer.counts
    answered = max(traced.answered, 1)
    folds = [report for report in tracer.folds if report.rows_folded]
    telemetry = tracer.telemetry

    def seconds(name):
        return (times.get(name, 0.0), "s")

    def p99_ms(samples):
        return (1e3 * percentile(samples, 99.0) if samples else 0.0, "ms")

    metrics = {
        "service.submit.s": seconds("service.submit"),
        "service.submit_ingest.s": seconds("service.submit_ingest"),
        "service.price.s": seconds("service.price"),
        "service.drain.s": seconds("service.drain"),
        "service.queue_wait_p99_ms": p99_ms(tracer.queue_waits),
        "service.batch_queries_mean": (
            statistics.fmean(tracer.batch_sizes) if tracer.batch_sizes else 0.0, "count"),
        "service.refused": (counts["service.submit.errors"], "count"),
        "aggregator.begin.s": seconds("aggregator.begin"),
        "aggregator.collect.s": seconds("aggregator.collect"),
        "aggregator.settle.s": seconds("aggregator.settle"),
        "aggregator.allocation.s": seconds("aggregator.allocation"),
        "aggregator.batches": (counts["aggregator.begin.calls"], "count"),
        "transport.summary.s": seconds("transport.summary"),
        "transport.answer.s": seconds("transport.answer"),
        "transport.forget.s": seconds("transport.forget"),
        "transport.codec.s": seconds("transport.codec"),
        "transport.framing.s": seconds("transport.framing"),
        "transport.codec.calls": (counts["transport.codec.calls"], "count"),
        "transport.bytes": (traced.wire_bytes, "B"),
        "transport.frames": (traced.wire_frames, "count"),
        "wire_bytes_per_query": (plain.wire_bytes / max(plain.answered, 1), "B"),
        "provider.summary.s": seconds("provider.summary"),
        "provider.answer.s": seconds("provider.answer"),
        "storage.covering.s": seconds("storage.covering"),
        "storage.proportions.s": seconds("storage.proportions"),
        "storage.qc_kernel.s": seconds("storage.qc_kernel"),
        "storage.qc_kernel.calls": (counts["storage.qc_kernel.calls"], "count"),
        "storage.pairs_scanned": (telemetry.pairs_scanned, "count"),
        "storage.rows_per_answer": (telemetry.rows_evaluated / answered, "count"),
        "cache.summary_hit_rate": (traced.summary_hits / max(traced.provider_answers, 1),
                                   "fraction"),
        "cache.answer_hit_rate": (traced.answer_hits / max(traced.provider_answers, 1),
                                  "fraction"),
        "cache.evictions": (traced.cache_evictions, "count"),
        "cache.invalidations": (traced.cache_invalidations, "count"),
        "ingest.append.s": seconds("ingest.append"),
        "ingest.delta_read.s": seconds("ingest.delta_read"),
        "ingest.compact.s": seconds("ingest.compact"),
        "ingest.compactions": (len(folds), "count"),
        "ingest.clusters_rewritten_per_fold": (
            statistics.fmean(r.clusters_after - r.first_affected_position for r in folds)
            if folds else 0.0,
            "count",
        ),
        "ingest_rows_per_s": (plain.rows_ingested / plain.busy_seconds, "1/s"),
        "accounting.charge.s": seconds("accounting.charge"),
        "accounting.ledger_entries_per_kquery": (1e3 * ledger / answered, "count"),
        "setup.cluster.s": (setup_times.get("setup.cluster", 0.0), "s"),
        "setup.metadata.s": (setup_times.get("setup.metadata", 0.0), "s"),
        "setup.layout.s": (setup_times.get("setup.layout", 0.0), "s"),
        "trace.unattributed_fraction": (
            (traced.busy_seconds - roots) / traced.busy_seconds, "fraction"),
        "trace.overhead_fraction": (traced.busy_seconds / plain.busy_seconds - 1.0, "fraction"),
        "loadgen.lag_p99_ms": p99_ms(plain.lag),
    }
    return metrics


def measure_layers(workload, *, seconds=None, ops=None, clock: str = "real"):
    """One traced run: traced set-up and pass, then the same work untraced.

    The traced pass runs for ``seconds`` (or ``ops`` steps); the untraced
    pass repeats exactly its steps on a fresh federation.  Where the
    answers depend on the seed alone (closed loops, or the virtual clock)
    both passes must answer bit-identically: the wrappers may draw no
    noise and reorder nothing.  Returns ``(traced, plain, metrics)``.
    """
    from workloads import CheckFailed

    setup_tracer, tracer = Tracer(), Tracer()
    with setup_tracer.installed("setup"):
        state = workload.setup()
    ledger = workload.ledger_entries(state)
    with tracer.installed("run"):
        traced = workload.run(state, seconds=seconds, ops=ops, clock=clock)
    workload.check(state, traced)
    plain_state = workload.setup()
    plain = workload.run(plain_state, ops=traced.ops, clock=clock)
    workload.check(plain_state, plain)
    deterministic = not (workload.open_loop and clock == "real")
    if deterministic and traced.answers != plain.answers:
        raise CheckFailed(f"{workload.name}: traced answers differ from untraced ones")
    metrics = layer_metrics(
        setup_tracer, tracer, traced, plain, workload.ledger_entries(state) - ledger
    )
    return traced, plain, metrics
