"""Packed shard-major base layouts (the batched executor's data plane).

Candidate gathering used to fancy-index the full base matrix once per
(query, shard) — exactly the scattered DRAM traffic that dominates
IVF scan cost at scale. :class:`ShardPackedBase` instead packs each
vector shard's list members (and, for the inner-product family, their
per-slice norms) into contiguous float32 arrays at plan time, ordered
list-by-list, with a per-list local row range. Gathering a query's
candidates then reduces to concatenating a handful of ``arange`` ranges
and one fancy-index into a small shard-local array — cheap, cache-
friendly, and independent of the total base size.

The packed arrays are maintained LSM-style. A full :meth:`build` packs
one immutable *base generation*; streaming mutations never touch it.
:meth:`refresh` appends newly added rows to per-shard append-only
*delta segments* (rows/ids/norms, plus SQ8 codes encoded against the
generation's frozen quantization params) and mirrors deletions into a
*tombstone mask* that gathers apply before any row reaches a heap —
so an ``add``/``remove`` batch costs O(batch), not O(ntotal).
Because every pruning bound and score is computed per row (partial
einsums are independent of which other rows share a block), scanning
base + delta under a tombstone mask is byte-identical to scanning a
freshly rebuilt layout. When deltas and tombstones accumulate past a
ratio of the base (:meth:`should_compact`), a *compaction* merges them
into a new base generation via an ordinary rebuild.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.partition import PartitionPlan
from repro.util.growable import GrowableArray

#: Process-wide base-generation ids: every full build/compaction gets
#: a fresh one, so caches keyed by generation never alias layouts.
_GENERATIONS = itertools.count(1)

#: Smallest admissible per-dimension quantization step. Constant
#: columns have zero span; without the clamp encode would divide by a
#: zero (or denormal) scale. Any positive step is exact for them:
#: every code lands on 0 and decodes back to ``lo``.
SQ8_SCALE_EPS = 1e-12


def sq8_train_params(base: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Per-dimension ``(lo, scale)`` for uint8 scalar quantization."""
    if base.shape[0] == 0:
        dim = base.shape[1]
        return np.zeros(dim, dtype=np.float64), np.ones(dim, dtype=np.float64)
    lo = base.min(axis=0).astype(np.float64)
    hi = base.max(axis=0).astype(np.float64)
    scale = np.maximum((hi - lo) / 255.0, SQ8_SCALE_EPS)
    return lo, scale


def sq8_encode(
    rows: np.ndarray, lo: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    """Quantize float rows to uint8 codes."""
    codes = np.rint((rows.astype(np.float64) - lo) / scale)
    return np.clip(codes, 0, 255).astype(np.uint8)


def sq8_decode(
    codes: np.ndarray, lo: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    """Float64 reconstruction; scans must decode with this exact
    arithmetic so the packed error table keeps bounding them."""
    return codes.astype(np.float64) * scale + lo


def sq8_slice_errors(
    rows: np.ndarray,
    codes: np.ndarray,
    lo: np.ndarray,
    scale: np.ndarray,
    slices,
) -> np.ndarray:
    """Per-row per-slice reconstruction-error norms, rounded *up*.

    ``err[r, s] >= || rows[r, slice_s] - decode(codes[r, slice_s]) ||``
    is the padding that keeps SQ8 pruning bounds lossless. The float32
    cast rounds to nearest (at most half an ulp down), so one
    ``nextafter`` bump toward +inf guarantees the stored value is never
    below the float64 norm.
    """
    diff = rows.astype(np.float64) - sq8_decode(codes, lo, scale)
    err = np.empty((rows.shape[0], slices.n_slices), dtype=np.float64)
    for j in range(slices.n_slices):
        start, stop = slices.slice_range(j)
        seg = diff[:, start:stop]
        err[:, j] = np.sqrt(np.einsum("ij,ij->i", seg, seg))
    return np.nextafter(err.astype(np.float32), np.float32(np.inf))


def _stacked_take(
    base: np.ndarray,
    base_sel: np.ndarray,
    delta: np.ndarray,
    delta_sel: np.ndarray,
) -> np.ndarray:
    """Gather base and delta candidate rows into one fresh block.

    The hot path of every mixed base+delta scan: ``np.take`` with
    ``mode="clip"`` writes straight into the preallocated output, so
    each candidate row is copied exactly once — fancy indexing plus
    ``np.concatenate`` would copy everything twice. Indices are
    in-range by construction, so clipping never fires.
    """
    n_base = base_sel.size
    out = np.empty(
        (n_base + delta_sel.size,) + base.shape[1:], dtype=base.dtype
    )
    np.take(base, base_sel, axis=0, out=out[:n_base], mode="clip")
    np.take(delta, delta_sel, axis=0, out=out[n_base:], mode="clip")
    return out


class SplitRows:
    """A base row block and its delta block, indexable as one array.

    SQ8 re-ranking touches exact rows through two operations only —
    fancy indexing with local row indices and ``.shape`` — so the
    base/delta split can stay invisible to the scan classes: indices
    below the base length resolve into the base block, the rest into
    the delta block, positionally identical to indexing their
    concatenation (without ever materializing it).
    """

    __slots__ = ("_base", "_delta")

    def __init__(self, base: np.ndarray, delta: np.ndarray) -> None:
        self._base = base
        self._delta = delta

    @property
    def shape(self) -> tuple[int, int]:
        return (
            self._base.shape[0] + self._delta.shape[0],
            self._base.shape[1],
        )

    def __getitem__(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.intp)
        base_n = self._base.shape[0]
        in_base = idx < base_n
        if in_base.all():
            return self._base[idx]
        out = np.empty(
            (idx.shape[0], self._base.shape[1]), dtype=self._base.dtype
        )
        out[in_base] = self._base[idx[in_base]]
        out[~in_base] = self._delta[idx[~in_base] - base_n]
        return out


class ShardPackedBase:
    """Per-shard contiguous copies of list-member rows, ids, and norms.

    Build with :meth:`build`; query with :meth:`gather`. The base
    arrays are an immutable snapshot of the index at build time;
    streaming mutations land in per-shard delta segments and the
    tombstone mask via :meth:`refresh` — use :meth:`matches` to detect
    staleness and :meth:`can_refresh` to tell "refreshable in place"
    from "needs a full rebuild".

    Attributes:
        version: the index version this layout currently reflects.
        ntotal: base size currently reflected (cheap secondary
            staleness check for indexes that predate the version
            counter).
        index_uid: :attr:`IVFFlatIndex.uid` of the source index; keyed
            into staleness so a reloaded index (version counter reset)
            can never alias a layout packed from its predecessor.
        generation: base-generation id; moves only on full builds
            (including compactions), never on delta refreshes.
    """

    def __init__(
        self,
        rows: "list[np.ndarray]",
        ids: "list[np.ndarray]",
        norms: "list[np.ndarray | None]",
        list_start: np.ndarray,
        list_stop: np.ndarray,
        version: int,
        ntotal: int,
        codes: "list[np.ndarray | None] | None" = None,
        code_err: "list[np.ndarray | None] | None" = None,
        code_lo: np.ndarray | None = None,
        code_scale: np.ndarray | None = None,
        plan: PartitionPlan | None = None,
        index_uid: int = 0,
        tombstone: np.ndarray | None = None,
        dead_at_build: int = 0,
    ) -> None:
        self._rows = rows
        self._ids = ids
        self._norms = norms
        self._list_start = list_start
        self._list_stop = list_stop
        self.version = version
        self.ntotal = ntotal
        self._codes = codes if codes is not None else [None] * len(rows)
        self._code_err = (
            code_err if code_err is not None else [None] * len(rows)
        )
        self._code_lo = code_lo
        self._code_scale = code_scale
        self._plan = plan
        self.index_uid = index_uid
        self.generation = next(_GENERATIONS)
        self._tombstone = (
            tombstone
            if tombstone is not None
            else np.zeros(ntotal, dtype=bool)
        )
        self._dead_at_build = dead_at_build
        self._tombstones_since = 0
        self._with_norms = any(n is not None for n in norms)
        self._init_empty_deltas()

    def _init_empty_deltas(self) -> None:
        n_shards = len(self._rows)
        dim = self._rows[0].shape[1] if n_shards else 0
        n_slices = None
        for err in self._code_err:
            if err is not None:
                n_slices = err.shape[1]
        if n_slices is None and self._with_norms:
            for norm in self._norms:
                if norm is not None:
                    n_slices = norm.shape[1]
        self._drows = [
            GrowableArray(row_shape=(dim,), dtype=np.float32)
            for _ in range(n_shards)
        ]
        self._dids = [
            GrowableArray(dtype=np.int64) for _ in range(n_shards)
        ]
        self._dlists = [
            GrowableArray(dtype=np.int64) for _ in range(n_shards)
        ]
        # float64 to match the base norm table bit-for-bit: slice norms
        # feed the conservative pruning bound, and a float32 round-down
        # (even half an ulp) could unsafely prune a true candidate.
        self._dnorms = [
            GrowableArray(row_shape=(n_slices,), dtype=np.float64)
            if self._with_norms
            else None
            for _ in range(n_shards)
        ]
        with_codes = self._code_lo is not None
        self._dcodes = [
            GrowableArray(row_shape=(dim,), dtype=np.uint8)
            if with_codes
            else None
            for _ in range(n_shards)
        ]
        self._dcode_err = [
            GrowableArray(row_shape=(n_slices,), dtype=np.float32)
            if with_codes
            else None
            for _ in range(n_shards)
        ]

    @classmethod
    def build(
        cls,
        index: "IVFFlatIndex",
        plan: PartitionPlan,
        base_slice_norms: np.ndarray | None = None,
        with_codes: bool = False,
    ) -> "ShardPackedBase":
        """Pack every shard's live list members into contiguous arrays.

        Args:
            index: trained+populated IVF index.
            plan: the partition plan whose shard grouping to pack.
            base_slice_norms: the kernel's per-slice norm table (IP
                metrics); packed alongside the rows so scans never
                index the full table again.
            with_codes: also pack the SQ8 representation — per-shard
                uint8 codes plus the per-row per-slice reconstruction-
                error table that pads the pruning bounds. Quantization
                params are trained on the live base at build time and
                re-homed / invalidated with everything else.
        """
        base = index.base
        rows: list[np.ndarray] = []
        ids: list[np.ndarray] = []
        norms: list[np.ndarray | None] = []
        codes: "list[np.ndarray | None]" = []
        code_err: "list[np.ndarray | None]" = []
        code_lo = code_scale = None
        if with_codes:
            code_lo, code_scale = sq8_train_params(base)
        list_start = np.zeros(index.nlist, dtype=np.int64)
        list_stop = np.zeros(index.nlist, dtype=np.int64)
        for shard in range(plan.n_vector_shards):
            shard_lists = plan.lists_of_shard(shard)
            members = [index.list_members(int(l)) for l in shard_lists]
            offset = 0
            for list_id, member_ids in zip(shard_lists, members):
                list_start[list_id] = offset
                offset += member_ids.size
                list_stop[list_id] = offset
            if members:
                shard_ids = np.concatenate(members).astype(np.int64)
            else:
                shard_ids = np.empty(0, dtype=np.int64)
            ids.append(shard_ids)
            shard_rows = np.ascontiguousarray(base[shard_ids])
            rows.append(shard_rows)
            if base_slice_norms is None:
                norms.append(None)
            else:
                norms.append(
                    np.ascontiguousarray(base_slice_norms[shard_ids])
                )
            if with_codes:
                shard_codes = sq8_encode(shard_rows, code_lo, code_scale)
                codes.append(shard_codes)
                code_err.append(
                    sq8_slice_errors(
                        shard_rows, shard_codes, code_lo, code_scale,
                        plan.slices,
                    )
                )
            else:
                codes.append(None)
                code_err.append(None)
        tombstone = np.array(index.deleted_mask, dtype=bool, copy=True)
        return cls(
            rows=rows,
            ids=ids,
            norms=norms,
            list_start=list_start,
            list_stop=list_stop,
            version=index.version,
            ntotal=index.ntotal,
            codes=codes,
            code_err=code_err,
            code_lo=code_lo,
            code_scale=code_scale,
            plan=plan,
            index_uid=index.uid,
            tombstone=tombstone,
            dead_at_build=int(tombstone.sum()),
        )

    def matches(self, index: "IVFFlatIndex") -> bool:
        """True while the layout still reflects the index's contents.

        Keys on the index *identity* (uid) as well as its mutation
        counters: a reloaded index restarts ``version`` at 0, so the
        counters alone could collide with a stale layout packed from
        the pre-save object.
        """
        return (
            self.index_uid == index.uid
            and self.version == index.version
            and self.ntotal == index.ntotal
        )

    # -- incremental maintenance ---------------------------------------

    def can_refresh(self, index: "IVFFlatIndex") -> bool:
        """True when :meth:`refresh` can absorb the index's mutations.

        The only index mutations are appends (ids grow monotonically)
        and tombstoning (flags flip one way), so any same-uid index
        that has moved forward is refreshable; a different index
        object, or one attached without a plan (worker-side layouts),
        needs a full rebuild.
        """
        return (
            self._plan is not None
            and self.index_uid == index.uid
            and index.ntotal >= self.ntotal
            and index.version >= self.version
        )

    def refresh(
        self,
        index: "IVFFlatIndex",
        new_slice_norms: np.ndarray | None = None,
    ) -> bool:
        """Absorb pending mutations into deltas/tombstones, in place.

        Appended rows are routed to their shard's delta segment (with
        per-slice norms, and SQ8 codes encoded against the *frozen*
        base-generation params — still lossless, because the pruning
        bound is padded by each row's actual reconstruction error and
        survivors re-rank against exact float32). Deletions only flip
        tombstone bits. The base arrays are never touched, so a
        mutation batch costs O(batch + ntotal/8 bits), not a repack.

        Args:
            index: the (mutated) source index; must satisfy
                :meth:`can_refresh`.
            new_slice_norms: per-slice norms of the appended rows
                (``index.base[ntotal_old:]``) when the layout packs
                norms; computed by the caller so the kernel's own norm
                table and the layout stay bitwise in sync.

        Returns:
            True when anything changed.
        """
        if self.matches(index):
            return False
        if not self.can_refresh(index):
            raise RuntimeError(
                "layout cannot be refreshed from this index; rebuild"
            )
        old_n, new_n = self.ntotal, index.ntotal
        if new_n > old_n:
            new_ids = np.arange(old_n, new_n, dtype=np.int64)
            lists = index.assignment_of(new_ids)
            shards = self._plan.shard_of_list[lists]
            if self._with_norms and new_slice_norms is None:
                raise ValueError(
                    "layout packs per-slice norms; refresh needs "
                    "new_slice_norms for the appended rows"
                )
            rows = index.base[old_n:new_n]
            for shard in np.unique(shards):
                sel = np.flatnonzero(shards == shard)
                self._append_delta(
                    int(shard),
                    new_ids[sel],
                    rows[sel],
                    lists[sel],
                    None
                    if new_slice_norms is None
                    else new_slice_norms[sel],
                )
        self._tombstone = np.array(index.deleted_mask, dtype=bool, copy=True)
        self._tombstones_since = (
            int(self._tombstone.sum()) - self._dead_at_build
        )
        self.version = index.version
        self.ntotal = new_n
        return True

    def _append_delta(
        self,
        shard: int,
        ids: np.ndarray,
        rows: np.ndarray,
        lists: np.ndarray,
        norms: np.ndarray | None,
    ) -> None:
        rows = np.ascontiguousarray(rows, dtype=np.float32)
        self._drows[shard].append(rows)
        self._dids[shard].append(ids)
        self._dlists[shard].append(lists)
        if self._dnorms[shard] is not None:
            self._dnorms[shard].append(norms)
        if self._dcodes[shard] is not None:
            codes = sq8_encode(rows, self._code_lo, self._code_scale)
            self._dcodes[shard].append(codes)
            self._dcode_err[shard].append(
                sq8_slice_errors(
                    rows, codes, self._code_lo, self._code_scale,
                    self._plan.slices,
                )
            )

    @property
    def delta_rows(self) -> int:
        """Rows currently living in delta segments (all shards)."""
        return int(sum(len(d) for d in self._dids))

    @property
    def tombstones_since(self) -> int:
        """Rows tombstoned since this base generation was packed."""
        return int(self._tombstones_since)

    def should_compact(self, ratio: float) -> bool:
        """True when deltas + tombstones exceed ``ratio`` of the base."""
        base_rows = sum(ids.size for ids in self._ids)
        pending = self.delta_rows + self.tombstones_since
        return pending > ratio * max(1, base_rows)

    @property
    def n_shards(self) -> int:
        return len(self._rows)

    def shard_size(self, shard: int) -> int:
        """Packed row count of one shard (base + delta segments)."""
        return self._ids[shard].size + len(self._dids[shard])

    @property
    def nbytes(self) -> int:
        """Total bytes held by the packed arrays (base + deltas)."""
        total = 0
        for arrays in (
            self._rows, self._ids, self._norms, self._codes, self._code_err
        ):
            for arr in arrays:
                if arr is not None:
                    total += arr.nbytes
        for buffers in (
            self._drows, self._dids, self._dlists, self._dnorms,
            self._dcodes, self._dcode_err,
        ):
            for buf in buffers:
                if buf is not None:
                    total += buf.nbytes
        if self._list_start is not None:
            total += self._list_start.nbytes + self._list_stop.nbytes
        total += self._tombstone.nbytes
        for arr in (self._code_lo, self._code_scale):
            if arr is not None:
                total += arr.nbytes
        return int(total)

    @property
    def has_codes(self) -> bool:
        """True when the SQ8 representation was packed alongside rows."""
        return (
            self._code_lo is not None
            and self._code_scale is not None
            and all(c is not None for c in self._codes)
            and all(e is not None for e in self._code_err)
        )

    @property
    def code_lo(self) -> np.ndarray | None:
        """Per-dimension dequantization offset (float64)."""
        return self._code_lo

    @property
    def code_scale(self) -> np.ndarray | None:
        """Per-dimension dequantization step (float64, positive)."""
        return self._code_scale

    @property
    def rows_nbytes(self) -> int:
        """Bytes of the float32 row blocks alone (base + delta)."""
        return int(
            sum(arr.nbytes for arr in self._rows)
            + sum(buf.nbytes for buf in self._drows)
        )

    @property
    def codes_nbytes(self) -> int:
        """Bytes of the uint8 code blocks alone (0 without codes)."""
        return int(
            sum(arr.nbytes for arr in self._codes if arr is not None)
            + sum(buf.nbytes for buf in self._dcodes if buf is not None)
        )

    @property
    def code_overhead_nbytes(self) -> int:
        """Bytes of the SQ8 side tables (error norms + dequant params)."""
        total = sum(
            arr.nbytes for arr in self._code_err if arr is not None
        )
        total += sum(
            buf.nbytes for buf in self._dcode_err if buf is not None
        )
        for arr in (self._code_lo, self._code_scale):
            if arr is not None:
                total += arr.nbytes
        return int(total)

    def gather(
        self,
        shard: int,
        lists: np.ndarray,
        allowed: np.ndarray | None = None,
        exclude: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Candidate (ids, rows, norms) for the probed lists of a shard.

        Rows come back list-by-list in packed (insertion) order — a
        different candidate order than the legacy ascending-id gather,
        which is harmless because heap retention is order-independent.

        Args:
            shard: vector shard to gather from.
            lists: probed inverted-list ids living in this shard.
            allowed: optional per-global-id admissibility mask.
            exclude: optional per-global-id mask of ids to drop
                (e.g. already-prewarmed candidates).

        Returns:
            ``(ids, rows, norms)`` — global ids, a fresh float32 row
            block, and the matching per-slice norm block (None for L2).
        """
        local, ids = self._base_candidates(shard, lists, allowed, exclude)
        dsel, dids = self._delta_candidates(shard, lists, allowed, exclude)
        if dsel is None:
            if local is None:
                return (
                    np.empty(0, dtype=np.int64),
                    np.empty(
                        (0, self._rows[shard].shape[1]), dtype=np.float32
                    ),
                    None,
                )
            rows = self._rows[shard][local]
            shard_norms = self._norms[shard]
            norms = None if shard_norms is None else shard_norms[local]
            return ids, rows, norms
        drow_buf = self._drows[shard].view
        dnorm_buf = self._dnorms[shard]
        if local is None:
            dnorms = None if dnorm_buf is None else dnorm_buf.view[dsel]
            return dids, drow_buf[dsel], dnorms
        ids = np.concatenate([ids, dids])
        rows = _stacked_take(self._rows[shard], local, drow_buf, dsel)
        shard_norms = self._norms[shard]
        norms = (
            None
            if shard_norms is None
            else _stacked_take(shard_norms, local, dnorm_buf.view, dsel)
        )
        return ids, rows, norms

    def _base_candidates(
        self,
        shard: int,
        lists: np.ndarray,
        allowed: np.ndarray | None,
        exclude: np.ndarray | None,
    ) -> "tuple[np.ndarray | None, np.ndarray | None]":
        """Masked (local indices, global ids) of base-block candidates."""
        shard_ids = self._ids[shard]
        parts = []
        for list_id in np.asarray(lists, dtype=np.int64):
            start = self._list_start[list_id]
            stop = self._list_stop[list_id]
            if stop > start:
                parts.append(np.arange(start, stop, dtype=np.intp))
        if not parts:
            return None, None
        local = np.concatenate(parts) if len(parts) > 1 else parts[0]
        ids = shard_ids[local]
        mask = self._candidate_mask(ids, allowed, exclude)
        if mask is not None:
            local = local[mask]
            ids = ids[mask]
            if ids.size == 0:
                return None, None
        return local, ids

    def _delta_candidates(
        self,
        shard: int,
        lists: np.ndarray,
        allowed: np.ndarray | None,
        exclude: np.ndarray | None,
    ) -> "tuple[np.ndarray | None, np.ndarray | None]":
        """Masked (delta indices, global ids) of delta-segment candidates.

        Delta rows are appended in arrival order regardless of list;
        membership is a linear pass over the per-shard list tags via a
        probed-list lookup table — fine, because compaction bounds the
        delta size to a fraction of the base.
        """
        dlists = self._dlists[shard].view
        if dlists.size == 0:
            return None, None
        probed = np.zeros(self._list_start.size, dtype=bool)
        probed[np.asarray(lists, dtype=np.int64)] = True
        sel = np.flatnonzero(probed[dlists])
        if sel.size == 0:
            return None, None
        ids = self._dids[shard].view[sel]
        mask = self._candidate_mask(ids, allowed, exclude)
        if mask is not None:
            sel = sel[mask]
            ids = ids[mask]
            if ids.size == 0:
                return None, None
        return sel, ids

    def _candidate_mask(
        self,
        ids: np.ndarray,
        allowed: np.ndarray | None,
        exclude: np.ndarray | None,
    ) -> np.ndarray | None:
        """Combined admissibility/tombstone mask, or None to keep all."""
        mask = None
        if allowed is not None:
            mask = allowed[ids]
        if exclude is not None:
            drop = ~exclude[ids]
            mask = drop if mask is None else mask & drop
        if self._tombstones_since:
            live = ~self._tombstone[ids]
            mask = live if mask is None else mask & live
        if mask is None or mask.all():
            return None
        return mask

    def gather_sq8(
        self,
        shard: int,
        lists: np.ndarray,
        allowed: np.ndarray | None = None,
        exclude: np.ndarray | None = None,
    ) -> tuple:
        """SQ8 candidate blocks plus a lazy handle on the exact rows.

        The SQ8 sibling of :meth:`gather`: the scan reads the compact
        uint8 representation, and only the few candidates that survive
        pruning ever touch float32 — via ``rows_full[local]`` at
        re-rank time.

        Returns:
            ``(ids, codes, err, norms, rows_full, local)`` — global
            ids, fresh uint8 code and float32 error-norm blocks, the
            per-slice norm block (None for L2), the shard's full exact
            row storage (a :class:`SplitRows` over the base and delta
            blocks, not copied), and each candidate's row index into
            it.
        """
        if not self.has_codes:
            raise RuntimeError("layout was packed without SQ8 codes")
        base_n = self._rows[shard].shape[0]
        rows_full = SplitRows(self._rows[shard], self._drows[shard].view)
        local, ids = self._base_candidates(shard, lists, allowed, exclude)
        dsel, dids = self._delta_candidates(shard, lists, allowed, exclude)
        if local is None and dsel is None:
            n_slices = self._code_err[shard].shape[1]
            return (
                np.empty(0, dtype=np.int64),
                np.empty((0, rows_full.shape[1]), dtype=np.uint8),
                np.empty((0, n_slices), dtype=np.float32),
                None,
                rows_full,
                np.empty(0, dtype=np.intp),
            )
        shard_norms = self._norms[shard]
        if dsel is None:
            codes = self._codes[shard][local]
            err = self._code_err[shard][local]
            norms = None if shard_norms is None else shard_norms[local]
            return ids, codes, err, norms, rows_full, local
        dcode_buf = self._dcodes[shard].view
        derr_buf = self._dcode_err[shard].view
        dnorm_buf = self._dnorms[shard]
        dlocal = (base_n + dsel).astype(np.intp)
        if local is None:
            dnorms = None if dnorm_buf is None else dnorm_buf.view[dsel]
            return (
                dids,
                dcode_buf[dsel],
                derr_buf[dsel],
                dnorms,
                rows_full,
                dlocal,
            )
        ids = np.concatenate([ids, dids])
        codes = _stacked_take(self._codes[shard], local, dcode_buf, dsel)
        err = _stacked_take(self._code_err[shard], local, derr_buf, dsel)
        norms = (
            None
            if shard_norms is None
            else _stacked_take(shard_norms, local, dnorm_buf.view, dsel)
        )
        local = np.concatenate([local, dlocal])
        return ids, codes, err, norms, rows_full, local
