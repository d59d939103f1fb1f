"""The HARMONY scan kernel: Algorithm 1 implemented exactly once.

Every execution backend — serial reference loop, host thread pool,
discrete-event simulation — runs the same search algorithm: prewarm the
top-K heap from the nearest probed list, walk each touched shard's
candidates through the dimension pipeline with lossless early-stop
pruning, and merge the survivors into the heap. :class:`ScanKernel`
is its single home.

The kernel is deliberately *timing-free*: it gathers candidates (from a
cached :class:`~repro.core.layout.ShardPackedBase` when enabled), scores
batches, steps :class:`~repro.core.pruning.ShardScan` objects slice by
slice, and maintains heaps. Backends decide *when* and *where* each
step runs (host threads, simulated machines) and charge whatever cost
model they like around the kernel calls — which is what keeps results
byte-identical across backends by construction.

Two execution shapes share the kernel:

- :meth:`ScanKernel.search_one` — the per-query reference loop;
- :meth:`ScanKernel.search_batch` — the throughput path: queries are
  grouped by touched shard and every (shard, slice) stage advances the
  whole group at once (:class:`~repro.core.pruning.ShardGroupScan`) —
  dense vectorized bookkeeping and pruning across the group, per-query
  row blocks scored with the per-query broadcast kernel. Because the
  group stage reuses the per-query einsum reduction row for row, its
  results are *bitwise identical* to the looped :meth:`search_one` — a
  property the equivalence tests pin.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.core.heap import TopKHeap
from repro.core.layout import ShardPackedBase
from repro.core.partition import PartitionPlan
from repro.core.pruning import (
    ShardGroupScan,
    ShardScan,
    SQ8ShardGroupScan,
    SQ8ShardScan,
)
from repro.core.results import SearchResult
from repro.core.routing import (
    RoutingCache,
    shard_candidate_lists,
    touched_shards,
)
from repro.distance.kernels import scores_to_query
from repro.distance.metrics import Metric, normalize_rows
from repro.distance.partial import query_slice_norms, slice_norms

#: Upper bound on float32 elements per fused group chunk (~32 MB of
#: candidate rows). Groups larger than this are processed in sequential
#: query-disjoint chunks so the batched path's working set stays
#: cache-and-RAM friendly at any batch size.
GROUP_BLOCK_ELEMENTS = 8_000_000


@dataclass
class QueryState:
    """Per-query algorithm state shared by all backends.

    Attributes:
        query_index: position of the query in its batch.
        query: the (cosine-normalized, float32) query vector.
        probe_row: probed inverted-list ids for this query.
        heap: the query's top-K heap; its threshold drives pruning.
        prewarmed: ids already scored during prewarm (shard scans skip
            them).
        prewarmed_mask: boolean mask over all ids, True at prewarmed
            ids; None when nothing was prewarmed. Precomputed once so
            per-shard candidate exclusion is a mask lookup instead of a
            set difference.
        query_norms: per-slice query norms (IP metrics only), computed
            once per query and shared by every shard scan's
            Cauchy-Schwarz bound.
        route: the memoized :class:`~repro.core.routing.CachedRoute`
            stashed by :meth:`ScanKernel.shards_for` when a routing
            cache is attached; carries the per-shard candidate-list
            splits so candidate gathering skips the planner too. None
            when routing ran uncached.
    """

    query_index: int
    query: np.ndarray
    probe_row: np.ndarray
    heap: TopKHeap
    prewarmed: np.ndarray
    prewarmed_mask: np.ndarray | None = None
    query_norms: np.ndarray | None = None
    route: "object | None" = None


class ScanKernel:
    """Candidate gathering, prewarm scoring, slice stepping, merging.

    One kernel instance serves one ``(index, plan)`` pair and is shared
    by every backend searching it. All methods are thread-safe for
    *disjoint* queries (they mutate only the per-query
    :class:`QueryState` / :class:`ShardScan` objects passed in), which
    is what lets the thread backend fan queries out without locks; the
    batched path adds per-query locks only where shard-groups sharing a
    query run concurrently.

    Args:
        index: trained+populated IVF index.
        plan: partition plan defining shards and dimension slices.
        metric: similarity metric; defaults to the index's.
        prewarm_size: heap-seeding candidates per query (0 disables).
        enable_pruning: toggle lossless early-stop pruning.
        use_packed_base: cache a :class:`ShardPackedBase` and gather
            candidates from it (cheap shard-local indexing) instead of
            fancy-indexing the full base matrix per (query, shard).
            The packed copy is invalidated automatically when the
            index's version moves (streaming adds / deletes).
        scan_precision: ``"fp32"`` scans full-precision rows (the
            classic path); ``"sq8"`` generates candidates on the
            packed uint8 representation with error-padded (lossless)
            pruning bounds, then re-ranks survivors against float32 —
            results stay bitwise identical to the fp32 path. Requires
            the packed base layout.
        delta_compact_ratio: compaction trigger — when the packed
            layout's pending rows (delta segments + tombstones) exceed
            this fraction of its base generation, the next
            :meth:`packed_base` merges them into a fresh generation.
        auto_compact: disable to never compact automatically (deltas
            then grow until :meth:`compact` is called explicitly).
    """

    def __init__(
        self,
        index: "IVFFlatIndex",
        plan: PartitionPlan,
        metric: Metric | None = None,
        prewarm_size: int = 32,
        enable_pruning: bool = True,
        use_packed_base: bool = True,
        scan_precision: str = "fp32",
        delta_compact_ratio: float = 0.25,
        auto_compact: bool = True,
    ) -> None:
        if not index.is_trained:
            raise RuntimeError("kernel requires a trained index")
        if prewarm_size < 0:
            raise ValueError(
                f"prewarm_size must be non-negative, got {prewarm_size}"
            )
        scan_precision = str(scan_precision).lower()
        if scan_precision not in ("fp32", "sq8"):
            raise ValueError(
                f"unknown scan_precision {scan_precision!r}; "
                "expected 'fp32' or 'sq8'"
            )
        if scan_precision == "sq8" and not use_packed_base:
            raise ValueError(
                "scan_precision='sq8' requires the packed base layout"
            )
        self.index = index
        self.plan = plan
        self.metric = index.metric if metric is None else metric
        self.prewarm_size = prewarm_size
        self.enable_pruning = enable_pruning
        self.use_packed_base = use_packed_base
        self.scan_precision = scan_precision
        #: Candidates re-ranked against fp32 rows by completed SQ8
        #: scans (0 on the fp32 path). Guarded by a lock because the
        #: thread backend merges survivors concurrently.
        self.rerank_candidates_total = 0
        self._rerank_lock = threading.Lock()
        #: Optional repro.obs.Tracer. When set, host execution records a
        #: wall-clock span per (shard, slice) stage; None (default)
        #: keeps the scan loops instrumentation-free.
        self.tracer = None
        #: Memoized probe-cell -> shard-set routing (hot, skewed
        #: serving traffic re-routes the same cells constantly). Pure
        #: memoization keyed by index version — results are unchanged.
        #: Set to None to disable.
        self.routing_cache: RoutingCache | None = RoutingCache()
        if delta_compact_ratio <= 0:
            raise ValueError(
                "delta_compact_ratio must be positive, got "
                f"{delta_compact_ratio}"
            )
        self.delta_compact_ratio = float(delta_compact_ratio)
        self.auto_compact = bool(auto_compact)
        #: Full packed-layout constructions (every generation, including
        #: the first build and every compaction).
        self.layout_builds = 0
        #: In-place delta refreshes — mutations absorbed without
        #: touching the base generation.
        self.layout_refreshes = 0
        #: Generations created by merging deltas/tombstones back into
        #: the base (subset of ``layout_builds`` after the first).
        self.layout_compactions = 0
        self._packed: ShardPackedBase | None = None
        #: Serializes packed-layout (re)builds and norm-table refreshes
        #: so concurrent searches through one kernel never tear the
        #: cached data plane (lazy refresh used to race under
        #: multi-threaded callers). Reentrant: the build path reads the
        #: norm cache it also guards.
        self._layout_lock = threading.RLock()
        self._base_slice_norms: np.ndarray | None = None
        if self.metric is not Metric.L2:
            self._base_slice_norms = slice_norms(index.base, plan.slices)

    # ------------------------------------------------------------------
    # Batch preparation
    # ------------------------------------------------------------------

    def prepare_queries(self, queries: np.ndarray) -> np.ndarray:
        """Canonicalize a query batch (2-D float32, cosine-normalized)."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        if self.metric is Metric.COSINE:
            queries = normalize_rows(queries)
        return queries

    # ------------------------------------------------------------------
    # Cached data plane
    # ------------------------------------------------------------------

    def packed_base(self) -> ShardPackedBase | None:
        """The shard-major packed layout, maintained incrementally.

        Mutation handling is LSM-style: when the cached layout can
        absorb the index's new state in place (appended rows become
        delta-segment rows, removals flip tombstone bits) it is
        *refreshed* rather than rebuilt — the immutable base generation
        is untouched. Once pending deltas/tombstones exceed
        ``delta_compact_ratio`` of the base (and ``auto_compact`` is
        on), they are merged into a fresh base generation via a full
        rebuild. Results are byte-identical either way.

        Returns None when packing is disabled, in which case candidate
        gathering falls back to fancy-indexing ``index.base``.
        """
        if not self.use_packed_base:
            return None
        with_codes = self.scan_precision == "sq8"
        packed = self._packed
        if (
            packed is not None
            and packed.matches(self.index)
            and (not with_codes or packed.has_codes)
        ):
            return packed
        with self._layout_lock:
            # Double-checked: another thread may have refreshed while
            # this one waited for the lock.
            packed = self._packed
            if (
                packed is not None
                and packed.matches(self.index)
                and (not with_codes or packed.has_codes)
            ):
                return packed
            if (
                packed is not None
                and (not with_codes or packed.has_codes)
                and packed.can_refresh(self.index)
            ):
                self._refresh_base_norms()
                new_norms = None
                if self._base_slice_norms is not None:
                    new_norms = self._base_slice_norms[packed.ntotal :]
                if packed.refresh(self.index, new_slice_norms=new_norms):
                    self.layout_refreshes += 1
                if self.auto_compact and packed.should_compact(
                    self.delta_compact_ratio
                ):
                    return self._rebuild_layout(with_codes, compaction=True)
                return packed
            return self._rebuild_layout(with_codes)

    def _rebuild_layout(
        self, with_codes: bool, compaction: bool = False
    ) -> ShardPackedBase:
        """Build a fresh base generation (caller holds ``_layout_lock``)."""
        self._refresh_base_norms()
        packed = ShardPackedBase.build(
            self.index,
            self.plan,
            base_slice_norms=self._base_slice_norms,
            with_codes=with_codes,
        )
        self._packed = packed
        self.layout_builds += 1
        if compaction:
            self.layout_compactions += 1
        return packed

    def compact(self) -> dict:
        """Merge pending deltas and tombstones into a new generation now.

        Returns a stats dict; ``compacted`` is False when there was
        nothing pending (or packing is disabled).
        """
        if not self.use_packed_base:
            return {
                "compacted": False,
                "generation": 0,
                "delta_rows_merged": 0,
                "tombstones_cleared": 0,
            }
        with self._layout_lock:
            packed = self.packed_base()
            merged = packed.delta_rows
            cleared = packed.tombstones_since
            if merged == 0 and cleared == 0:
                return {
                    "compacted": False,
                    "generation": packed.generation,
                    "delta_rows_merged": 0,
                    "tombstones_cleared": 0,
                }
            with_codes = self.scan_precision == "sq8"
            packed = self._rebuild_layout(with_codes, compaction=True)
            return {
                "compacted": True,
                "generation": packed.generation,
                "delta_rows_merged": merged,
                "tombstones_cleared": cleared,
            }

    def layout_stats(self) -> dict:
        """Generation/delta counters for reports and metrics."""
        packed = self._packed
        return {
            "layout_generation": packed.generation if packed else 0,
            "delta_rows": packed.delta_rows if packed else 0,
            "tombstones_since_build": (
                packed.tombstones_since if packed else 0
            ),
            "layout_builds": self.layout_builds,
            "layout_refreshes": self.layout_refreshes,
            "layout_compactions": self.layout_compactions,
        }

    def _refresh_base_norms(self) -> None:
        with self._layout_lock:
            if self._base_slice_norms is None:
                return
            cached = self._base_slice_norms.shape[0]
            total = self.index.base.shape[0]
            if cached == total:
                return
            if cached < total:
                # The index grew since the last refresh (streaming
                # adds). Per-row slice norms are independent of their
                # neighbors, so extending the cache with just the new
                # rows is bitwise identical to a full recompute.
                appended = slice_norms(
                    self.index.base[cached:total], self.plan.slices
                )
                self._base_slice_norms = np.concatenate(
                    [self._base_slice_norms, appended], axis=0
                )
            else:  # pragma: no cover - ids are append-only
                self._base_slice_norms = slice_norms(
                    self.index.base, self.plan.slices
                )

    def _candidate_slice_norms(
        self, candidates: np.ndarray
    ) -> np.ndarray | None:
        if self._base_slice_norms is None:
            return None
        self._refresh_base_norms()
        return self._base_slice_norms[candidates]

    # ------------------------------------------------------------------
    # Algorithm 1 steps
    # ------------------------------------------------------------------

    def begin_query(
        self,
        query_index: int,
        query: np.ndarray,
        probe_row: np.ndarray,
        k: int,
        allowed: np.ndarray | None = None,
    ) -> QueryState:
        """Create a query's state and prewarm its heap (PrewarmHeap).

        Prewarm scores up to ``prewarm_size`` members of the nearest
        probed list in one batched distance call, seeding the heap with
        a finite threshold before any shard scan starts. Per-query
        reusables — the prewarm exclusion mask and (for IP metrics) the
        per-slice query norms — are computed here exactly once.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        heap = TopKHeap(k)
        prewarmed = self._prewarm(query, probe_row, heap, allowed)
        prewarmed_mask = None
        if prewarmed.size:
            prewarmed_mask = np.zeros(self.index.ntotal, dtype=bool)
            prewarmed_mask[prewarmed] = True
        query_norms = None
        if self.metric is not Metric.L2:
            query_norms = query_slice_norms(
                np.asarray(query, dtype=np.float32), self.plan.slices
            )
        return QueryState(
            query_index=query_index,
            query=query,
            probe_row=probe_row,
            heap=heap,
            prewarmed=prewarmed,
            prewarmed_mask=prewarmed_mask,
            query_norms=query_norms,
        )

    def _prewarm(
        self,
        query: np.ndarray,
        probe_row: np.ndarray,
        heap: TopKHeap,
        allowed: np.ndarray | None,
    ) -> np.ndarray:
        if self.prewarm_size == 0 or not self.enable_pruning:
            return np.empty(0, dtype=np.int64)
        ids = self.index.list_members(int(probe_row[0]))
        if allowed is not None:
            ids = ids[allowed[ids]]
        ids = ids[: self.prewarm_size]
        if ids.size == 0:
            return ids
        scores = scores_to_query(self.index.base[ids], query, self.metric)
        heap.push_many(scores, ids)
        return ids

    def shards_for(self, state: QueryState) -> np.ndarray:
        """Vector shards the query must visit, ascending.

        Served from the :class:`~repro.core.routing.RoutingCache` when
        one is attached (the default): hot probe rows skip both the
        shard-set recomputation *and* the per-shard candidate-list
        split (the full :class:`~repro.core.routing.CachedRoute` is
        stashed on the state for :meth:`_gather_candidates`), which
        matters exactly for the repeated, skewed traffic the serving
        layer sees.
        """
        cache = self.routing_cache
        if cache is None:
            return touched_shards(self.plan, state.probe_row)
        route = cache.route_for(
            self.plan, state.probe_row, self.index.version
        )
        state.route = route
        return route.shards

    def _lists_for(self, state: QueryState, shard: int) -> np.ndarray:
        """The query's probed lists in ``shard``, probe-ordered.

        Reuses the cached route split when :meth:`shards_for` stashed
        one; identical to :func:`shard_candidate_lists` by
        construction (the route is keyed on the exact probe order).
        """
        route = state.route
        if route is not None:
            return route.lists_for(shard)
        return shard_candidate_lists(self.plan, state.probe_row, shard)

    def _gather_candidates(
        self,
        state: QueryState,
        shard: int,
        allowed: np.ndarray | None,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray | None] | None":
        """One shard's candidate blocks for a query, or None if empty.

        Returns ``(ids, rows, norms)`` on the fp32 path and the
        6-tuple of :meth:`ShardPackedBase.gather_sq8` on the sq8 path
        (either way, ``part[0]`` is the global ids). Uses the packed
        layout when enabled (contiguous shard-local ranges); otherwise
        falls back to the legacy full-base gather. Prewarmed ids are
        excluded via the precomputed boolean mask in all paths.
        """
        lists_here = self._lists_for(state, shard)
        packed = self.packed_base()
        if packed is not None:
            if self.scan_precision == "sq8":
                part = packed.gather_sq8(
                    shard,
                    lists_here,
                    allowed=allowed,
                    exclude=state.prewarmed_mask,
                )
                if part[0].size == 0:
                    return None
                return part
            ids, rows, norms = packed.gather(
                shard,
                lists_here,
                allowed=allowed,
                exclude=state.prewarmed_mask,
            )
            if ids.size == 0:
                return None
            return ids, rows, norms
        candidates = self.index.candidates(lists_here, allowed=allowed)
        if state.prewarmed_mask is not None and candidates.size:
            candidates = candidates[~state.prewarmed_mask[candidates]]
        if candidates.size == 0:
            return None
        rows = self.index.base[candidates]
        norms = self._candidate_slice_norms(candidates)
        return candidates, rows, norms

    def make_scan(
        self,
        state: QueryState,
        shard: int,
        allowed: np.ndarray | None = None,
    ) -> ShardScan | None:
        """Gather one shard's candidates into a fresh :class:`ShardScan`.

        Returns None when the shard contributes no candidates (all its
        probed lists are empty, filtered out, or fully prewarmed).
        """
        part = self._gather_candidates(state, int(shard), allowed)
        if part is None:
            return None
        if self.scan_precision == "sq8":
            ids, codes, err, norms, rows_full, local = part
            packed = self.packed_base()
            return SQ8ShardScan(
                candidate_ids=ids,
                query=state.query,
                slices=self.plan.slices,
                metric=self.metric,
                base_slice_norms=norms,
                codes=codes,
                code_err=err,
                code_lo=packed.code_lo,
                code_scale=packed.code_scale,
                rows_full=rows_full,
                local=local,
                query_norms=state.query_norms,
            )
        ids, rows, norms = part
        return ShardScan(
            candidate_ids=ids,
            query=state.query,
            slices=self.plan.slices,
            metric=self.metric,
            base_slice_norms=norms,
            rows=rows,
            query_norms=state.query_norms,
        )

    def count_candidates(
        self,
        state: QueryState,
        shard: int,
        allowed: np.ndarray | None = None,
    ) -> int:
        """Candidate count a shard *would* contribute to a query.

        Degraded-mode coverage accounting: shards skipped for lack of a
        live replica still enter the coverage denominator, so a partial
        result honestly reports how much of its candidate set it saw.
        """
        part = self._gather_candidates(state, int(shard), allowed)
        if part is None:
            return 0
        return int(part[0].size)

    def step(self, scan: ShardScan, heap: TopKHeap, block: int) -> int:
        """Advance one scan by one dimension block, then prune.

        Returns the number of candidate rows actually processed (the
        compute volume a simulating backend should charge for the
        stage).
        """
        processed = scan.process_slice(block)
        if self.enable_pruning:
            scan.prune(heap.threshold)
        return processed

    def merge_survivors(self, scan: ShardScan, heap: TopKHeap) -> int:
        """Fold a completed scan's survivors into the query heap.

        Returns the number of survivors offered (for per-candidate heap
        cost accounting).
        """
        ids, scores = scan.survivors()
        heap.push_many(scores, ids)
        self._count_rerank(scan)
        return int(ids.size)

    def _count_rerank(self, scan) -> None:
        """Accumulate an SQ8 scan's re-rank count (no-op for fp32)."""
        reranked = getattr(scan, "reranked", 0)
        if reranked:
            with self._rerank_lock:
                self.rerank_candidates_total += int(reranked)

    def run_scan(
        self, scan: ShardScan, heap: TopKHeap, shard: int | None = None
    ) -> None:
        """Run one scan's full dimension pipeline in canonical order.

        ``shard`` only labels trace spans; it never affects execution.
        """
        tracer = self.tracer
        for block in range(self.plan.n_dim_blocks):
            if scan.n_alive == 0:
                break
            if tracer is None:
                self.step(scan, heap, block)
            else:
                with tracer.wall_span(
                    "scan", "computation",
                    shard=shard, block=block, alive=int(scan.n_alive),
                ):
                    self.step(scan, heap, block)
        if scan.n_alive:
            self.merge_survivors(scan, heap)

    def search_one(
        self,
        query_index: int,
        query: np.ndarray,
        probe_row: np.ndarray,
        k: int,
        allowed: np.ndarray | None = None,
        skip_shards: "frozenset[int] | set[int] | None" = None,
        coverage: np.ndarray | None = None,
    ) -> TopKHeap:
        """Algorithm 1 end-to-end for one query (no timing, no threads).

        This is the reference execution the serial backend exposes and
        the thread backend fans out per query.

        Args:
            skip_shards: shards to drop from the scan (degraded mode:
                shards with no live replica). Their candidates count
                toward coverage but are never scored.
            coverage: optional ``(nq, 2)`` array of
                ``[scanned, total]`` candidate counts, updated in place
                at row ``query_index``.
        """
        state = self.begin_query(query_index, query, probe_row, k, allowed)
        if coverage is not None:
            coverage[query_index, :] += state.prewarmed.size
        for shard in self.shards_for(state):
            shard = int(shard)
            if skip_shards and shard in skip_shards:
                if coverage is not None:
                    coverage[query_index, 1] += self.count_candidates(
                        state, shard, allowed
                    )
                continue
            scan = self.make_scan(state, shard, allowed)
            if scan is not None:
                if coverage is not None:
                    coverage[query_index, :] += scan.n_candidates
                self.run_scan(scan, state.heap, shard=shard)
        return state.heap

    # ------------------------------------------------------------------
    # Batched shard-major execution
    # ------------------------------------------------------------------

    def search_batch(
        self,
        queries: np.ndarray,
        probes: np.ndarray,
        k: int,
        allowed: np.ndarray | None = None,
        map_groups=None,
        skip_shards: "frozenset[int] | set[int] | None" = None,
        coverage: np.ndarray | None = None,
    ) -> "list[TopKHeap]":
        """Algorithm 1 for a whole batch, fused shard-major.

        Queries are grouped by touched shard; shard-groups are
        processed in ascending shard order (each query therefore sees
        shards in exactly the order :meth:`search_one` would), and each
        group's (shard, slice) stages run as single fused calls over
        every member's candidates. Results are bitwise identical to
        looping :meth:`search_one`.

        Args:
            queries: prepared query batch ``(nq, dim)``.
            probes: probed list ids ``(nq, nprobe)``.
            k: top-K size.
            allowed: optional per-id admissibility mask.
            map_groups: optional ``fn(task, shards)`` executor fanning
                shard-group tasks out concurrently (the thread
                backend); None processes groups in order on the caller.
                When concurrent, per-query locks serialize heap merges
                — pruning thresholds may be read stale, which is safe
                because thresholds only tighten and pruning is
                lossless.
            skip_shards / coverage: degraded-mode accounting, exactly
                as in :meth:`search_one`. Coverage is accumulated here
                in the single-threaded grouping pass, so the
                concurrent group executor never races on it.

        Returns:
            One populated heap per query.
        """
        nq = queries.shape[0]
        states = [
            self.begin_query(i, queries[i], probes[i], k, allowed)
            for i in range(nq)
        ]
        if coverage is not None:
            for state in states:
                coverage[state.query_index, :] += state.prewarmed.size
        groups: dict[int, list[QueryState]] = {}
        for state in states:
            for shard in self.shards_for(state):
                shard = int(shard)
                if skip_shards and shard in skip_shards:
                    if coverage is not None:
                        coverage[state.query_index, 1] += (
                            self.count_candidates(state, shard, allowed)
                        )
                    continue
                if coverage is not None:
                    coverage[state.query_index, :] += self.count_candidates(
                        state, shard, allowed
                    )
                groups.setdefault(shard, []).append(state)
        shard_order = sorted(groups)
        if map_groups is None:
            for shard in shard_order:
                self.run_shard_group(shard, groups[shard], allowed)
        else:
            locks = [threading.Lock() for _ in states]
            map_groups(
                lambda shard: self.run_shard_group(
                    shard, groups[shard], allowed, locks
                ),
                shard_order,
            )
        return [state.heap for state in states]

    def run_shard_group(
        self,
        shard: int,
        group: "list[QueryState]",
        allowed: np.ndarray | None = None,
        locks: "list[threading.Lock] | None" = None,
    ) -> None:
        """Process one shard for every query in ``group``, fused.

        The group is split into query-disjoint chunks bounded by
        :data:`GROUP_BLOCK_ELEMENTS` so the concatenated row block stays
        memory-friendly at any batch size; chunking cannot change
        results because chunks never share a query.
        """
        dim = int(self.index.base.shape[1])
        max_rows = max(1, GROUP_BLOCK_ELEMENTS // dim)
        chunk_states: list[QueryState] = []
        chunk_parts: list[tuple] = []
        chunk_rows = 0
        for state in group:
            part = self._gather_candidates(state, int(shard), allowed)
            if part is None:
                continue
            chunk_states.append(state)
            chunk_parts.append(part)
            chunk_rows += int(part[0].size)
            if chunk_rows >= max_rows:
                self._run_group_chunk(chunk_states, chunk_parts, locks, shard)
                chunk_states, chunk_parts, chunk_rows = [], [], 0
        if chunk_states:
            self._run_group_chunk(chunk_states, chunk_parts, locks, shard)

    def _run_group_chunk(
        self,
        states: "list[QueryState]",
        parts: "list[tuple]",
        locks: "list[threading.Lock] | None",
        shard: int | None = None,
    ) -> None:
        sq8 = self.scan_precision == "sq8"
        ids = np.concatenate([part[0] for part in parts])
        sizes = [part[0].size for part in parts]
        query_of = np.repeat(np.arange(len(states), dtype=np.intp), sizes)
        queries = np.stack([state.query for state in states])
        norms_at = 3 if sq8 else 2
        base_norms = None
        query_norms = None
        if self.metric is not Metric.L2:
            base_norms = np.concatenate(
                [part[norms_at] for part in parts], axis=0
            )
            query_norms = np.stack([state.query_norms for state in states])
        if sq8:
            packed = self.packed_base()
            scan = SQ8ShardGroupScan(
                codes=[part[1] for part in parts],
                ids=ids,
                query_of=query_of,
                queries=queries,
                slices=self.plan.slices,
                metric=self.metric,
                base_slice_norms=base_norms,
                query_norms=query_norms,
                code_err=np.concatenate(
                    [part[2] for part in parts], axis=0
                ),
                code_lo=packed.code_lo,
                code_scale=packed.code_scale,
                rows_full=parts[0][4],
                local=np.concatenate([part[5] for part in parts]),
            )
        else:
            scan = ShardGroupScan(
                rows=[part[1] for part in parts],
                ids=ids,
                query_of=query_of,
                queries=queries,
                slices=self.plan.slices,
                metric=self.metric,
                base_slice_norms=base_norms,
                query_norms=query_norms,
            )
        tracer = self.tracer
        for block in range(self.plan.n_dim_blocks):
            if scan.n_alive == 0:
                break
            if tracer is None:
                self._group_step(scan, states, block)
            else:
                with tracer.wall_span(
                    "scan", "computation",
                    shard=shard, block=block,
                    group=len(states), alive=int(scan.n_alive),
                ):
                    self._group_step(scan, states, block)
        if scan.n_alive == 0:
            return
        survivor_ids, survivor_scores, survivor_query = scan.survivors()
        self._count_rerank(scan)
        self._merge_group_survivors(
            states, survivor_ids, survivor_scores, survivor_query, locks
        )

    def _group_step(
        self,
        scan: ShardGroupScan,
        states: "list[QueryState]",
        block: int,
    ) -> None:
        """One fused (shard, slice) stage: accumulate, then group-prune."""
        scan.process_slice(block)
        if self.enable_pruning:
            thresholds = np.array(
                [state.heap.threshold for state in states]
            )
            scan.prune(thresholds)

    def _merge_group_survivors(
        self,
        states: "list[QueryState]",
        survivor_ids: np.ndarray,
        survivor_scores: np.ndarray,
        survivor_query: np.ndarray,
        locks: "list[threading.Lock] | None",
    ) -> None:
        for local, state in enumerate(states):
            mask = survivor_query == local
            if not mask.any():
                continue
            scores = survivor_scores[mask]
            cand = survivor_ids[mask]
            if locks is None:
                state.heap.push_many(scores, cand)
            else:
                with locks[state.query_index]:
                    state.heap.push_many(scores, cand)


def recall_vs_healthy(
    kernel: ScanKernel,
    queries: np.ndarray,
    probes: np.ndarray,
    k: int,
    allowed: np.ndarray | None,
    query_indices: np.ndarray,
    result_ids: np.ndarray,
) -> float:
    """Mean top-k id overlap between degraded results and a healthy rerun.

    Re-executes the *degraded* queries (only) through the timing-free
    reference loop with every shard available, and measures what
    fraction of the healthy top-k each partial result retained. ``1.0``
    when ``query_indices`` is empty — nothing was degraded.
    """
    if len(query_indices) == 0:
        return 1.0
    overlaps = []
    for i in query_indices:
        i = int(i)
        heap = kernel.search_one(i, queries[i], probes[i], k, allowed)
        _, ids = heap.items_arrays()
        healthy = {int(x) for x in ids}
        if not healthy:
            overlaps.append(1.0)
            continue
        got = {int(x) for x in result_ids[i] if x >= 0}
        overlaps.append(len(got & healthy) / len(healthy))
    return float(np.mean(overlaps))


def collect_results(heaps: "list[TopKHeap]", k: int) -> SearchResult:
    """Materialize per-query heaps into a padded :class:`SearchResult`."""
    nq = len(heaps)
    out_dist = np.full((nq, k), np.inf, dtype=np.float64)
    out_ids = np.full((nq, k), -1, dtype=np.int64)
    for i, heap in enumerate(heaps):
        scores, ids = heap.items_arrays()
        n = scores.size
        if n:
            out_dist[i, :n] = scores
            out_ids[i, :n] = ids
    return SearchResult(distances=out_dist, ids=out_ids)
