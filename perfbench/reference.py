"""Independent correctness reference and speed floor.

A list-major float64 GEMM IVF over the probe lists that
``IVFFlatIndex.probe`` returns: each probed list is scored once, as one
matrix product, for every query that probes it. It reads the index only
through ``IVFFlatIndex``'s public accessors (``base``, ``assignment_of``,
``deleted_mask``, ``probe``) and shares no code with the program's scan
kernel, layout or validation helpers, so a bug there cannot hide here.

Contract checked for every answer: the returned ids are live members of
the probed lists, their exact float64 distances equal the reference's
top-k distances (ids may differ only between exactly tied distances),
and the distances the program reported equal those exact distances.
"""

from __future__ import annotations

import time

import numpy as np

#: Extra GEMM candidates kept per query before the exact re-rank, so
#: rounding in the norm-expansion distances cannot push a true top-k row
#: out of the candidate set.
SLACK = 16
RTOL = 1e-9
ATOL = 1e-9


class ReferenceIVF:
    """Snapshot of an index's rows, list assignment and tombstones.

    Args:
        index: a trained ``IVFFlatIndex``.
        k: answers per query.
        nprobe: lists probed per query.
    """

    def __init__(self, index, k: int, nprobe: int) -> None:
        self.index = index
        self.k = k
        self.nprobe = nprobe
        n = int(index.ntotal)
        self.rows = np.asarray(index.base, dtype=np.float64)
        self.assign = np.asarray(index.assignment_of(np.arange(n)))
        self.deleted = np.array(index.deleted_mask, dtype=bool)
        self.order = np.argsort(self.assign, kind="stable")
        counts = np.bincount(self.assign, minlength=index.nlist)
        self.offsets = np.concatenate([[0], np.cumsum(counts)])
        self.list_rows = self.rows[self.order]
        self.list_norms = np.einsum("ij,ij->i", self.list_rows, self.list_rows)
        self.norms = np.einsum("ij,ij->i", self.rows, self.rows)
        #: Seconds spent answering queries (probe + GEMM + selection):
        #: the floor the program is compared against.
        self.floor_seconds = 0.0
        self.floor_queries = 0

    def live_mask(self, ntotal: "int | None" = None,
                  removed_at: "np.ndarray | None" = None,
                  step: int = 0) -> np.ndarray:
        """Live rows: the index's tombstones, or a replayed history.

        With ``ntotal``/``removed_at`` the mask describes the index as
        it was at mutation step ``step``: rows beyond ``ntotal`` did not
        exist yet and rows removed at a step ``<= step`` are dead.
        """
        if ntotal is None:
            return ~self.deleted
        live = np.zeros(self.rows.shape[0], dtype=bool)
        live[:ntotal] = True
        if removed_at is not None:
            live &= removed_at > step
        return live

    def search(self, queries: np.ndarray, live: np.ndarray):
        """Top ``k + SLACK`` candidates per query over the probed lists.

        Returns ``(probes, ids, distances)``; rows are padded with -1 /
        inf when fewer candidates exist. Timed into ``floor_seconds``.
        """
        start = time.perf_counter()
        queries = np.atleast_2d(queries)
        nq = queries.shape[0]
        probes = self.index.probe(queries, self.nprobe)
        q64 = queries.astype(np.float64)
        q_norms = np.einsum("ij,ij->i", q64, q64)
        pieces_d: list[list[np.ndarray]] = [[] for _ in range(nq)]
        pieces_i: list[list[np.ndarray]] = [[] for _ in range(nq)]
        flat_lists = probes.ravel()
        flat_query = np.repeat(np.arange(nq), probes.shape[1])
        by_list = np.argsort(flat_lists, kind="stable")
        lists, starts = np.unique(flat_lists[by_list], return_index=True)
        bounds = np.append(starts, by_list.size)
        for j, list_id in enumerate(lists):
            lo, hi = self.offsets[list_id], self.offsets[list_id + 1]
            if hi == lo:
                continue
            members = self.order[lo:hi]
            alive = live[members]
            if not alive.any():
                continue
            qs = flat_query[by_list[bounds[j]:bounds[j + 1]]]
            dist = (
                q_norms[qs, None]
                + self.list_norms[None, lo:hi]
                - 2.0 * (q64[qs] @ self.list_rows[lo:hi].T)
            )
            dist = dist[:, alive]
            members = members[alive]
            for row, q in enumerate(qs):
                pieces_d[q].append(dist[row])
                pieces_i[q].append(members)
        width = self.k + SLACK
        out_i = np.full((nq, width), -1, dtype=np.int64)
        out_d = np.full((nq, width), np.inf)
        for q in range(nq):
            if not pieces_d[q]:
                continue
            d = np.concatenate(pieces_d[q])
            ids = np.concatenate(pieces_i[q])
            if d.size > width:
                keep = np.argpartition(d, width - 1)[:width]
                d, ids = d[keep], ids[keep]
            out_i[q, : d.size] = ids
            out_d[q, : d.size] = d
        self.floor_seconds += time.perf_counter() - start
        self.floor_queries += nq
        return probes, out_i, out_d

    def exact(self, queries: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Canonical float64 squared-L2 distance (direct difference) of
        each query to each of its ids; ``ids`` is ``(nq, m)``, and
        negative ids score ``inf``."""
        out = np.empty(ids.shape)
        for lo in range(0, ids.shape[0], 64):
            block = slice(lo, lo + 64)
            diff = (self.rows[np.maximum(ids[block], 0)]
                    - queries[block, None, :].astype(np.float64))
            out[block] = np.einsum("qmd,qmd->qm", diff, diff)
        out[ids < 0] = np.inf
        return out

    def check(self, queries: np.ndarray, ids: np.ndarray,
              distances: np.ndarray, live: np.ndarray) -> np.ndarray:
        """Per-query pass/fail of the program's answers (see module doc)."""
        queries = np.atleast_2d(queries)
        ids = np.asarray(ids)
        got_d = np.asarray(distances, dtype=np.float64)
        probes, cand, _ = self.search(queries, live)
        cand_d = self.exact(queries, cand)
        order = np.lexsort((cand, cand_d), axis=1)[:, : self.k]
        want = np.take_along_axis(cand_d, order, axis=1)
        # Rows with fewer than k candidates must pad with -1 / inf.
        slot = np.isfinite(want)
        if ids.shape != want.shape:
            return np.zeros(queries.shape[0], dtype=bool)
        in_range = (ids >= 0) & (ids < self.rows.shape[0])
        safe = np.where(in_range, ids, 0)
        ok = np.all(np.where(slot, in_range, ids == -1), axis=1)
        ordered = np.sort(np.where(slot, ids, -1 - np.arange(self.k)), axis=1)
        ok &= np.all(np.diff(ordered, axis=1) != 0, axis=1)
        member = (self.assign[safe][:, :, None] == probes[:, None, :]).any(-1)
        ok &= np.all(~slot | (live[safe] & member), axis=1)
        got_exact = self.exact(queries, np.where(slot, ids, -1))
        close = np.isclose(np.sort(got_exact, axis=1), want,
                           rtol=RTOL, atol=ATOL)
        ok &= np.all(~slot | close, axis=1)
        ok &= np.all(
            ~slot | np.isclose(got_d, got_exact, rtol=RTOL, atol=ATOL), axis=1)
        ok &= np.all(~slot[:, 1:] | (np.diff(got_d, axis=1) >= 0), axis=1)
        return ok

    def brute_force(self, queries: np.ndarray, live: np.ndarray) -> np.ndarray:
        """Exact top-k ids over every live row (the recall ground truth)."""
        queries = np.atleast_2d(queries).astype(np.float64)
        dist = (
            np.einsum("ij,ij->i", queries, queries)[:, None]
            + self.norms[None, :]
            - 2.0 * (queries @ self.rows.T)
        )
        dist[:, ~live] = np.inf
        top = np.argpartition(dist, self.k - 1, axis=1)[:, : self.k]
        return top


def recall(found: np.ndarray, truth: np.ndarray) -> float:
    """Mean share of each query's true top-k ids that were returned."""
    k = truth.shape[1]
    hits = sum(
        np.intersect1d(f[f >= 0], t).size for f, t in zip(found, truth)
    )
    return hits / (k * truth.shape[0])
