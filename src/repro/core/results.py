"""Result and report types returned by the execution engine."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.stats import TimeBreakdown
from repro.core.pruning import PruningStats


@dataclass(frozen=True)
class SearchResult:
    """Top-K answers for a query batch.

    Attributes:
        distances: ``(nq, k)`` scores, ascending per row (squared L2, or
            negated similarity); padded with ``+inf`` when fewer than
            ``k`` candidates exist.
        ids: ``(nq, k)`` global vector ids, padded with ``-1``.
    """

    distances: np.ndarray
    ids: np.ndarray

    @property
    def n_queries(self) -> int:
        return int(self.ids.shape[0])

    @property
    def k(self) -> int:
        return int(self.ids.shape[1])


@dataclass
class FaultStats:
    """Fault-handling activity observed during one search batch.

    Attributes:
        retries: compute attempts re-issued after hitting a crashed
            worker (each retry charges its backoff delay in simulated
            time).
        failovers: scans moved to a different live replica after the
            originally chosen machine became unavailable.
        hedges: duplicate scans speculatively issued to a second
            replica because the primary's projected latency exceeded
            ``hedge_latency_threshold``.
        hedge_wins: hedged duplicates that finished before the primary.
        dropped_messages: simulated message drops (each one charged a
            retransmit after the schedule's detection delay).
        skipped_scans: shard scans skipped at dispatch because no live
            replica existed (``degraded_mode`` only).
        abandoned_scans: shard scans abandoned mid-run after exhausting
            retries (``degraded_mode`` only).
        tasks_requeued: (query-group, shard) tasks re-run by the
            host supervisor after an injected kill.
        scan_timeouts: tasks that exceeded ``scan_timeout`` and were
            hedged onto a fresh attempt by the straggler watchdog.
    """

    retries: int = 0
    failovers: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    dropped_messages: int = 0
    skipped_scans: int = 0
    abandoned_scans: int = 0
    tasks_requeued: int = 0
    scan_timeouts: int = 0

    @property
    def any_activity(self) -> bool:
        return any(
            (
                self.retries,
                self.failovers,
                self.hedges,
                self.hedge_wins,
                self.dropped_messages,
                self.skipped_scans,
                self.abandoned_scans,
                self.tasks_requeued,
                self.scan_timeouts,
            )
        )

    def to_dict(self) -> dict:
        return {
            "retries": self.retries,
            "failovers": self.failovers,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "dropped_messages": self.dropped_messages,
            "skipped_scans": self.skipped_scans,
            "abandoned_scans": self.abandoned_scans,
            "tasks_requeued": self.tasks_requeued,
            "scan_timeouts": self.scan_timeouts,
        }


@dataclass
class DegradedReport:
    """Availability / accuracy accounting for a degraded-mode search.

    Attributes:
        coverage: per-query fraction of the candidate set actually
            scanned, in ``[0, 1]``; ``1.0`` means the result is exact
            (identical to a healthy cluster's answer).
        n_degraded_queries: queries with coverage below 1.0.
        skipped_scans / abandoned_scans: shard scans lost to dead
            replicas (at dispatch / mid-run).
        recall_vs_healthy: mean overlap between degraded and healthy
            top-k id sets over the *degraded* queries only (``1.0``
            when no query was degraded — nothing was lost).
    """

    coverage: np.ndarray
    n_degraded_queries: int = 0
    skipped_scans: int = 0
    abandoned_scans: int = 0
    recall_vs_healthy: float = 1.0

    @property
    def mean_coverage(self) -> float:
        if self.coverage.size == 0:
            return 1.0
        return float(np.mean(self.coverage))

    @property
    def min_coverage(self) -> float:
        if self.coverage.size == 0:
            return 1.0
        return float(np.min(self.coverage))

    @property
    def recall_delta(self) -> float:
        """Recall lost to degradation (``0.0`` when fully covered)."""
        return 1.0 - self.recall_vs_healthy

    def to_dict(self) -> dict:
        return {
            "mean_coverage": self.mean_coverage,
            "min_coverage": self.min_coverage,
            "n_degraded_queries": self.n_degraded_queries,
            "skipped_scans": self.skipped_scans,
            "abandoned_scans": self.abandoned_scans,
            "recall_vs_healthy": self.recall_vs_healthy,
            "recall_delta": self.recall_delta,
        }


@dataclass
class ExecutionReport:
    """Simulated-performance record of one search batch.

    Attributes:
        n_queries / k / nprobe: batch parameters.
        simulated_seconds: cluster makespan for the batch.
        breakdown: computation / communication / other seconds summed
            over all nodes (these exceed the makespan when work
            overlaps across machines — that is the parallelism).
        worker_loads: computation seconds per worker, the measured
            ``Load(n, pi)``.
        pruning: per-slice pruning statistics (None when the plan has a
            single dimension block and pruning is structural no-op).
        peak_memory_bytes: maximum resident bytes on any worker,
            including the statically placed index blocks.
        mean_peak_memory_bytes: per-worker peak bytes averaged over
            workers (robust to uneven shard sizes).
        plan_summary: human-readable plan description.
        latencies: per-query latency in seconds; empty when not
            recorded. Simulated runs record dispatch-to-final-merge
            timelines; batches executed by the serving layer record
            each member request's *end-to-end* latency (coalescing
            queue wait + batch service), so percentiles over a served
            batch reflect what individual callers observed rather
            than only the batch's wall time.
        fault_stats: retry / hedge / drop counters (None on a healthy
            run with no fault schedule attached).
        degraded: coverage and recall accounting (None unless the
            search ran with ``degraded_mode=True``).
        trace: span snapshot (:class:`repro.obs.trace.Trace`) of the
            run, when a tracer was attached (None otherwise).
        layout_bytes: resident bytes of the packed shard layout the
            executing backend scanned from; ``0``
            when no packed layout was in play (sim backend, packing
            disabled).
        rerank_candidates: survivors re-ranked against fp32 rows during
            the batch (``0`` on the fp32 scan path, where candidate
            scores are already exact).
        code_bytes: resident bytes of the packed SQ8 code blocks —
            the compact representation sq8 candidate scans stream;
            ``0`` on fp32 or when no packed layout was built.
        routing_cache_hits / routing_cache_misses: probe-cell routing
            lookups served from / missing the memoized
            :class:`~repro.core.routing.RoutingCache` during the batch
            (both ``0`` when no cache is attached, e.g. sim backend).
        routing_cache_evictions: routing-cache entries evicted under
            capacity pressure during the batch.
        result_cache_hits / result_cache_misses: queries answered from
            / missing the deployment's :class:`repro.cache.ResultCache`
            during the batch (all ``0`` when caching is disabled).
        result_cache_semantic_hits: subset of ``result_cache_hits``
            served by the ε-ball semantic tier rather than an exact
            byte match.
        result_cache_evictions: result-cache entries evicted under
            capacity pressure during the batch.
        result_cache_invalidations: cached entries dropped by index /
            layout generation moves during the batch.
        result_cache_bytes: resident bytes of the result cache at
            batch end (queries + cached answers; a gauge, not a
            delta).
        queue_seconds: time the batch's requests spent waiting in the
            serving layer's coalescing buffer, summed over requests;
            ``0.0`` outside the serving path.
        layout_generation: base-generation counter of the packed layout
            the batch scanned (bumps only on full rebuilds/compactions;
            ``0`` when no packed layout was in play).
        delta_rows: mutation rows pending in the layout's delta
            segments at batch end — absorbed writes not yet merged
            into the base generation.
        tombstones_pending: removals tombstoned since the base
            generation was built (masked at scan time, reclaimed by
            the next compaction).
        layout_builds / layout_refreshes / layout_compactions: full
            layout constructions, in-place delta refreshes, and
            delta-merge compactions performed during this batch (a
            steady-state read batch reports zeros for all three).
    """

    n_queries: int
    k: int
    nprobe: int
    simulated_seconds: float
    breakdown: TimeBreakdown
    worker_loads: np.ndarray
    pruning: PruningStats | None
    peak_memory_bytes: int
    mean_peak_memory_bytes: float = 0.0
    plan_summary: str = ""
    latencies: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.float64)
    )
    fault_stats: FaultStats | None = None
    degraded: DegradedReport | None = None
    trace: "object | None" = None
    layout_bytes: int = 0
    rerank_candidates: int = 0
    code_bytes: int = 0
    routing_cache_hits: int = 0
    routing_cache_misses: int = 0
    routing_cache_evictions: int = 0
    result_cache_hits: int = 0
    result_cache_misses: int = 0
    result_cache_semantic_hits: int = 0
    result_cache_evictions: int = 0
    result_cache_invalidations: int = 0
    result_cache_bytes: int = 0
    queue_seconds: float = 0.0
    layout_generation: int = 0
    delta_rows: int = 0
    tombstones_pending: int = 0
    layout_builds: int = 0
    layout_refreshes: int = 0
    layout_compactions: int = 0

    @property
    def qps(self) -> float:
        """Simulated queries per second.

        ``0.0`` for an empty / zero-duration batch: there is no
        meaningful throughput to report, and ``0.0`` (unlike ``inf``)
        survives strict JSON serialization.
        """
        if self.simulated_seconds <= 0.0:
            return 0.0
        return self.n_queries / self.simulated_seconds

    @property
    def load_imbalance(self) -> float:
        """Standard deviation of worker loads (paper's ``I(pi)``)."""
        return float(np.std(self.worker_loads))

    @property
    def normalized_imbalance(self) -> float:
        """Coefficient of variation of worker loads (scale-free skew)."""
        mean = float(np.mean(self.worker_loads))
        if mean <= 0.0:
            return 0.0
        return float(np.std(self.worker_loads) / mean)

    def latency_percentile(self, percentile: float) -> float:
        """Simulated per-query latency percentile in seconds.

        ANN serving is latency-sensitive (the paper's "milliseconds
        matter" motivation); ``latency_percentile(99)`` gives the tail.

        Raises:
            ValueError: for percentiles outside [0, 100].
            RuntimeError: when latencies were not recorded.
        """
        if not 0.0 <= percentile <= 100.0:
            raise ValueError(
                f"percentile must be in [0, 100], got {percentile}"
            )
        if self.latencies.size == 0:
            raise RuntimeError("no per-query latencies were recorded")
        return float(np.percentile(self.latencies, percentile))

    @property
    def mean_latency(self) -> float:
        """Mean simulated per-query latency in seconds."""
        if self.latencies.size == 0:
            raise RuntimeError("no per-query latencies were recorded")
        return float(np.mean(self.latencies))

    def worker_utilization(self) -> np.ndarray:
        """Per-worker computation busy fraction of the makespan."""
        if self.simulated_seconds <= 0.0:
            return np.zeros_like(self.worker_loads)
        return self.worker_loads / self.simulated_seconds

    def to_dict(self) -> dict:
        """Strictly JSON-serializable summary (for dashboards / logging).

        Every value survives ``json.dumps(..., allow_nan=False)`` —
        no ``inf`` / ``nan`` can appear regardless of batch contents.
        """
        out = {
            "n_queries": self.n_queries,
            "k": self.k,
            "nprobe": self.nprobe,
            "simulated_seconds": float(self.simulated_seconds),
            "qps": self.qps,
            "plan": self.plan_summary,
            "breakdown": {
                "computation": self.breakdown.computation,
                "communication": self.breakdown.communication,
                "other": self.breakdown.other,
            },
            "worker_loads": self.worker_loads.tolist(),
            "load_imbalance": self.load_imbalance,
            "normalized_imbalance": self.normalized_imbalance,
            "peak_memory_bytes": int(self.peak_memory_bytes),
            "mean_peak_memory_bytes": float(self.mean_peak_memory_bytes),
            "layout_bytes": int(self.layout_bytes),
            "rerank_candidates": int(self.rerank_candidates),
            "code_bytes": int(self.code_bytes),
            "routing_cache_hits": int(self.routing_cache_hits),
            "routing_cache_misses": int(self.routing_cache_misses),
            "routing_cache_evictions": int(self.routing_cache_evictions),
            "result_cache_hits": int(self.result_cache_hits),
            "result_cache_misses": int(self.result_cache_misses),
            "result_cache_semantic_hits": int(
                self.result_cache_semantic_hits
            ),
            "result_cache_evictions": int(self.result_cache_evictions),
            "result_cache_invalidations": int(
                self.result_cache_invalidations
            ),
            "result_cache_bytes": int(self.result_cache_bytes),
            "queue_seconds": float(self.queue_seconds),
            "layout_generation": int(self.layout_generation),
            "delta_rows": int(self.delta_rows),
            "tombstones_pending": int(self.tombstones_pending),
            "layout_builds": int(self.layout_builds),
            "layout_refreshes": int(self.layout_refreshes),
            "layout_compactions": int(self.layout_compactions),
        }
        if self.latencies.size:
            out["latency"] = {
                "mean": self.mean_latency,
                "p50": self.latency_percentile(50),
                "p95": self.latency_percentile(95),
                "p99": self.latency_percentile(99),
            }
        if self.pruning is not None:
            out["pruning_ratios"] = self.pruning.ratios().tolist()
        if self.fault_stats is not None:
            out["fault_stats"] = self.fault_stats.to_dict()
        if self.degraded is not None:
            out["degraded"] = self.degraded.to_dict()
        if self.trace is not None:
            out["trace"] = self.trace.to_dict()
        return out


@dataclass
class PlacementReport:
    """Outcome of distributing index blocks to machines.

    Attributes:
        per_machine_bytes: resident index bytes per worker.
        preassign_seconds: simulated time to ship and prepare blocks
            (the "Pre-assign" stage of the paper's Figure 10).
    """

    per_machine_bytes: dict[int, int] = field(default_factory=dict)
    preassign_seconds: float = 0.0

    @property
    def max_machine_bytes(self) -> int:
        if not self.per_machine_bytes:
            return 0
        return max(self.per_machine_bytes.values())

    @property
    def mean_machine_bytes(self) -> float:
        if not self.per_machine_bytes:
            return 0.0
        return sum(self.per_machine_bytes.values()) / len(
            self.per_machine_bytes
        )

    @property
    def total_bytes(self) -> int:
        return sum(self.per_machine_bytes.values())


@dataclass(frozen=True)
class BuildReport:
    """Index construction timing (paper Figure 10's three stages)."""

    train_seconds: float
    add_seconds: float
    preassign_seconds: float
    placement: PlacementReport

    @property
    def total_seconds(self) -> float:
        return self.train_seconds + self.add_seconds + self.preassign_seconds
