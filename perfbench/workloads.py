"""The benchmark's workloads: data, deployment, traffic loop, checks.

Every input is generated here from the run's seed; the program only
ever sees the resulting arrays. Each workload runs its traffic loop for
a fixed number of seconds (or, when replaying for the traced run, for
exactly the operations an earlier loop made) and keeps every answer so
the independent reference can check it afterwards, outside the timed
and memory-measured window.
"""

from __future__ import annotations

import re
import time
from concurrent.futures import wait
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import HarmonyConfig, HarmonyDB

K = 10
BATCH = 256
#: Held-out rows handed to ``build`` as the planner's workload sample;
#: the first one is also the set-up's first search.
PLAN_SAMPLE = 256

#: Offered load of ``serve-zipf`` lives in BENCHMARK.json (the
#: workload's ``why``), so the parent commit and a change are always
#: driven at the same rate, never one derived from measured capacity.
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def offered_rate() -> float:
    import json

    spec = json.loads(BENCHMARK_JSON.read_text())
    why = next(w["why"] for w in spec["workloads"] if w["name"] == "serve-zipf")
    return float(re.search(r"(\d+(?:\.\d+)?) req/s", why).group(1))


@dataclass(frozen=True)
class Deployment:
    dim: int
    n_base: int
    nlist: int
    nprobe: int
    kind: str  # "blobs" (sift-like) or "series" (starlight-like)


SIFT = Deployment(dim=128, n_base=20_000, nlist=128, nprobe=8, kind="blobs")
STARLIGHT = Deployment(dim=1024, n_base=5_000, nlist=64, nprobe=4,
                       kind="series")


# ----------------------------------------------------------------------
# Data
# ----------------------------------------------------------------------


def _blobs(rng: np.random.Generator, dim: int, n_blobs: int = 48):
    """SIFT-like clustered descriptors: uneven Gaussian blobs."""
    centers = rng.standard_normal((n_blobs, dim))
    stds = 0.35 * rng.lognormal(0.0, 0.4, n_blobs)
    weights = rng.dirichlet(np.full(n_blobs, 2.0))

    def draw(r: np.random.Generator, n: int) -> np.ndarray:
        labels = r.choice(n_blobs, size=n, p=weights)
        noise = r.standard_normal((n, dim)) * stds[labels, None]
        return (centers[labels] + noise).astype(np.float32)

    return draw


def _series(rng: np.random.Generator, dim: int, n_classes: int = 48,
            smoothness: float = 0.97, envelope: float = 2.0,
            noise: float = 0.2):
    """StarLightCurves-like series: class prototypes plus AR(1)
    deformations under a decaying envelope, so leading dimensions
    predict the full distance (what dimension-level early stop uses)."""
    amplitude = np.exp(-envelope * np.arange(dim) / dim)

    def ar1(r: np.random.Generator, n: int, scale: float) -> np.ndarray:
        steps = r.standard_normal((n, dim))
        path = np.empty((n, dim))
        path[:, 0] = r.standard_normal(n) * 3.0
        for t in range(1, dim):
            path[:, t] = smoothness * path[:, t - 1] + steps[:, t]
        return path * scale

    prototypes = ar1(rng, n_classes, 1.0)

    def draw(r: np.random.Generator, n: int) -> np.ndarray:
        out = np.empty((n, dim), dtype=np.float32)
        for lo in range(0, n, 2048):
            m = min(2048, n - lo)
            rows = prototypes[r.integers(n_classes, size=m)] + ar1(r, m, noise)
            out[lo:lo + m] = rows * amplitude
        return out

    return draw


#: Seeds the data *distribution* (blob centres, class prototypes). It is
#: fixed so that every run seed draws from the same workload; the run
#: seed picks the sample.
MODEL_SEED = 20250101


def generate(dep: Deployment, seed: int, **extra: int) -> dict:
    """Base rows, the planner sample, and named held-out row pools.

    Every pool is an independent draw from one fixed model, so queries
    follow the base distribution without duplicating base rows.
    """
    model_rng = np.random.default_rng([MODEL_SEED, dep.dim])
    rngs = np.random.default_rng(seed).spawn(2 + len(extra))
    draw = (_blobs if dep.kind == "blobs" else _series)(model_rng, dep.dim)
    data = {
        "base": draw(rngs[0], dep.n_base),
        "plan_sample": draw(rngs[1], PLAN_SAMPLE),
    }
    for rng, (name, n) in zip(rngs[2:], sorted(extra.items())):
        data[name] = draw(rng, n)
    return data


def answer_buffers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pre-touched answer arrays, so storing answers during the timed
    loop allocates nothing."""
    return np.full((n, K), -1, dtype=np.int64), np.full((n, K), np.inf)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


def deploy(dep: Deployment, data: dict, cache: bool):
    """``HarmonyDB(...)`` through ``build()`` to the end of the first
    search (which builds the lazy host backend and packed layout).

    Returns ``(db, seconds, first_ids, first_distances)``.
    """
    start = time.perf_counter()
    db = HarmonyDB(
        dim=dep.dim,
        config=HarmonyConfig(
            nlist=dep.nlist, nprobe=dep.nprobe, backend="thread",
            n_threads=2, enable_cache=cache,
        ),
    )
    db.build(data["base"], sample_queries=data["plan_sample"], k=K)
    result, _ = db.search(data["plan_sample"][:1], k=K)
    return db, time.perf_counter() - start, result.ids, result.distances


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------


@dataclass
class Phase:
    """One pass of a workload's traffic loop."""

    ops: int  # batches / requests / cycles made; a replay repeats them
    busy_s: float  # time inside the loop's top-level program calls
    ids: np.ndarray
    distances: np.ndarray
    reports: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class Workload:
    name = ""
    deployment = SIFT
    cache = False

    def prepare(self, seed: int, seconds: float) -> dict:
        raise NotImplementedError

    def answer_slots(self, data: dict) -> int:
        raise NotImplementedError

    def run(self, db, data, seconds, answers, ops=None, recorder=None) -> Phase:
        raise NotImplementedError

    def check(self, data, phase, ref):
        """``(ok, found, truth)``: pass/fail per answer, then returned
        ids and brute-force top-k ids for the recall sample."""
        raise NotImplementedError

    def end_to_end(self, phase: Phase, data: dict) -> "tuple[dict, dict]":
        """``(metrics, context)``: the workload's qps / p50_ms / tail_ms,
        plus sample counts and workload-specific figures."""
        raise NotImplementedError


def _ctx(recorder, ctx: str) -> None:
    if recorder is not None:
        recorder.set_ctx(ctx)


def _measuring(recorder) -> None:
    """Mark where the measured part of a traced pass starts."""
    if recorder is not None:
        recorder.begin_run()


class BatchWorkload(Workload):
    """One closed-loop caller sending batches of 256 fresh queries."""

    def __init__(self, name: str, dep: Deployment, max_batches: int) -> None:
        self.name = name
        self.deployment = dep
        self.max_batches = max_batches

    def prepare(self, seed, seconds):
        return generate(self.deployment, seed,
                        queries=self.max_batches * BATCH)

    def answer_slots(self, data):
        return data["queries"].shape[0]

    def run(self, db, data, seconds, answers, ops=None, recorder=None):
        ids, dists = answers
        limit = self.max_batches if ops is None else ops
        deadline = time.perf_counter() + seconds
        latencies, reports = [], []
        _measuring(recorder)
        b = 0
        while b < limit and (ops is not None or time.perf_counter() < deadline):
            rows = slice(b * BATCH, (b + 1) * BATCH)
            _ctx(recorder, f"batch{b}")
            start = time.perf_counter()
            result, report = db.search(data["queries"][rows], k=K)
            latencies.append(time.perf_counter() - start)
            ids[rows] = result.ids
            dists[rows] = result.distances
            reports.append(report)
            b += 1
        _ctx(recorder, None)
        return Phase(ops=b, busy_s=float(sum(latencies)), ids=ids,
                     distances=dists, reports=reports,
                     samples={"batch_s": latencies})

    def check(self, data, phase, ref):
        n = phase.ops * BATCH
        live = ref.live_mask()
        ok = np.concatenate([
            ref.check(data["queries"][lo:lo + BATCH], phase.ids[lo:lo + BATCH],
                      phase.distances[lo:lo + BATCH], live)
            for lo in range(0, n, BATCH)
        ])
        sample = slice(0, min(n, 1024))
        truth = ref.brute_force(data["queries"][sample], live)
        return ok, phase.ids[sample], truth

    def end_to_end(self, phase, data):
        batch_ms = np.asarray(phase.samples["batch_s"]) * 1e3
        # A 10 s run holds 30 to 40 batches, so the tail is the upper
        # tercile: the highest percentile with ten batches beyond it.
        return {
            "qps": float(np.median(BATCH / (batch_ms / 1e3))),
            "p50_ms": float(np.median(batch_ms)),
            "tail_ms": _pct(batch_ms, 67),
        }, {"batches": len(batch_ms), "tail_percentile": 67}


class ServeWorkload(Workload):
    """Open-loop Poisson arrivals, Zipf-skewed queries, through
    ``db.serve()`` with the result cache on.

    The first ``WARMUP`` requests of the stream are an untimed warm-up,
    pushed through ``db.search`` in batches so the cache is full (and
    evicting) before the timed stream starts.
    """

    name = "serve-zipf"
    cache = True
    POOL = 4096
    ALPHA = 1.1
    WARMUP = 6000
    LIMIT_S = 0.050

    def prepare(self, seed, seconds):
        data = generate(self.deployment, seed, pool=self.POOL)
        rate = offered_rate()
        n = int(round(rate * seconds))
        # The traffic trace (popularity ranks and arrival times) is fixed,
        # like the data distribution: the tail is set by which requests
        # miss and how they bunch up, and a trace that changed with every
        # seed would spread the tail more than the program's own speed
        # does. The seed draws the data, the query pool and which query
        # holds each popularity rank.
        trace = np.random.default_rng([MODEL_SEED, 1])
        weights = 1.0 / np.arange(1, self.POOL + 1) ** self.ALPHA
        ranks = trace.choice(self.POOL, size=self.WARMUP + n,
                             p=weights / weights.sum())
        data["arrival"] = np.cumsum(trace.exponential(1.0 / rate, size=n))
        data["stream"] = np.random.default_rng([seed, 1]).permutation(
            self.POOL)[ranks]
        data["rate"] = rate
        return data

    def answer_slots(self, data):
        return data["stream"].size

    def run(self, db, data, seconds, answers, ops=None, recorder=None):
        ids, dists = answers
        n = data["arrival"].size if ops is None else ops
        pool, arrival = data["pool"], data["arrival"]
        warm = self.WARMUP
        stream = data["stream"]
        for lo in range(0, warm, BATCH):
            rows = slice(lo, min(lo + BATCH, warm))
            _ctx(recorder, f"warmup{lo // BATCH}")
            result, _ = db.search(pool[stream[rows]], k=K)
            ids[rows] = result.ids
            dists[rows] = result.distances
        _measuring(recorder)
        late = np.zeros(n)
        submit_s = np.zeros(n)
        done_at = np.full(n, np.nan)
        futures = []

        def mark(i):
            def done(_future):
                done_at[i] = time.perf_counter()
            return done

        server = db.serve()
        try:
            t0 = time.perf_counter() + 0.01
            for i in range(n):
                due = t0 + arrival[i]
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                _ctx(recorder, f"req{i}")
                start = time.perf_counter()
                late[i] = start - due
                future = server.submit(pool[stream[warm + i]], k=K)
                submit_s[i] = time.perf_counter() - start
                future.add_done_callback(mark(i))
                futures.append(future)
            _ctx(recorder, None)
            wait(futures, timeout=60)
        finally:
            server.close()
        answered = np.ones(warm + n, dtype=bool)
        cache_hit = np.zeros(n, dtype=bool)
        queue_s, service_s = [], []
        for i, future in enumerate(futures):
            if not future.done() or future.exception() is not None:
                answered[warm + i] = False
                continue
            response = future.result()
            ids[warm + i] = response.ids
            dists[warm + i] = response.distances
            cache_hit[i] = response.cache_hit
            if not response.cache_hit:
                queue_s.append(response.queue_seconds)
                service_s.append(response.service_seconds)
        stats = server.stats
        return Phase(
            ops=n,
            busy_s=float(submit_s.sum() + stats.service_seconds),
            ids=ids, distances=dists,
            samples={"latency_s": done_at - (t0 + arrival[:n]),
                     "late_s": late, "submit_s": submit_s,
                     "queue_s": queue_s, "service_s": service_s},
            stats={"answered": answered[: warm + n], "cache_hit": cache_hit,
                   "server": stats,
                   "stream_s": float(np.nanmax(done_at) - t0)},
        )

    def check(self, data, phase, ref):
        live = ref.live_mask()
        answered = phase.stats["answered"]
        queries = data["pool"][data["stream"][: answered.size]]
        ok = np.zeros(answered.size, dtype=bool)
        rows = np.flatnonzero(answered)
        for lo in range(0, rows.size, BATCH):
            sel = rows[lo:lo + BATCH]
            ok[sel] = ref.check(queries[sel], phase.ids[sel],
                                phase.distances[sel], live)
        distinct = np.unique(data["stream"][rows], return_index=True)[1]
        sel = rows[np.sort(distinct)][:1024]
        return ok, phase.ids[sel], ref.brute_force(queries[sel], live)

    def end_to_end(self, phase, data):
        measured = slice(self.WARMUP, self.WARMUP + phase.ops)
        latency = phase.samples["latency_s"]
        answered = phase.stats["answered"][measured]
        good = phase.stats["ok"][measured] & answered & (latency <= self.LIMIT_S)
        answered_ms = latency[answered] * 1e3
        return {
            # Goodput over the measured stream, first due time to last
            # completion.
            "qps": float(good.sum() / phase.stats["stream_s"]),
            "p50_ms": float(np.median(answered_ms)),
            "tail_ms": _pct(answered_ms, 99),
        }, {"requests": int(latency.size), "tail_percentile": 99,
            "ok_frac": float(good.mean()),
            "cache_hit_frac": float(phase.stats["cache_hit"].mean()),
            "gen_late_ms_p99": _pct(phase.samples["late_s"] * 1e3, 99)}


class WriteMixWorkload(Workload):
    """Closed-loop cycles of add, remove and search on one index."""

    name = "write-mix"
    ADD = 40
    REMOVE = 20
    SEARCH = 16
    MAX_CYCLES = 1200
    #: Recall is sampled on every 8th cycle (brute force over all live
    #: rows is the costliest check); every answer is still checked.
    RECALL_EVERY = 8

    def prepare(self, seed, seconds):
        data = generate(self.deployment, seed,
                        adds=self.MAX_CYCLES * self.ADD,
                        queries=self.MAX_CYCLES * self.SEARCH)
        data["seed"] = seed
        return data

    def answer_slots(self, data):
        return self.MAX_CYCLES * self.SEARCH

    def run(self, db, data, seconds, answers, ops=None, recorder=None):
        ids, dists = answers
        rng = np.random.default_rng([data["seed"], 2])
        n_base = self.deployment.n_base
        live = np.arange(n_base, dtype=np.int64)
        capacity = n_base + self.MAX_CYCLES * self.ADD
        removed_at = np.full(capacity, np.iinfo(np.int64).max)
        limit = self.MAX_CYCLES if ops is None else ops
        write_s, search_s, reports, removed_counts = [], [], [], []
        _measuring(recorder)
        deadline = time.perf_counter() + seconds
        c = 0
        while c < limit and (ops is not None or time.perf_counter() < deadline):
            _ctx(recorder, f"cycle{c}")
            rows = data["adds"][c * self.ADD:(c + 1) * self.ADD]
            first = n_base + c * self.ADD
            live = np.concatenate(
                [live, np.arange(first, first + self.ADD, dtype=np.int64)]
            )
            picks = rng.choice(live.size, size=self.REMOVE, replace=False)
            victims = live[picks]
            live = np.delete(live, picks)
            removed_at[victims] = c
            start = time.perf_counter()
            db.add(rows)
            removed = db.remove(victims)
            mid = time.perf_counter()
            q = slice(c * self.SEARCH, (c + 1) * self.SEARCH)
            result, report = db.search(data["queries"][q], k=K)
            end = time.perf_counter()
            write_s.append(mid - start)
            search_s.append(end - mid)
            removed_counts.append(removed)
            ids[q] = result.ids
            dists[q] = result.distances
            reports.append(report)
            c += 1
        _ctx(recorder, None)
        return Phase(
            ops=c, busy_s=float(sum(write_s) + sum(search_s)),
            ids=ids, distances=dists, reports=reports,
            samples={"write_s": write_s, "search_s": search_s},
            stats={"removed_at": removed_at, "removed": removed_counts},
        )

    def check(self, data, phase, ref):
        removed_at = phase.stats["removed_at"][: ref.rows.shape[0]]
        n_base = self.deployment.n_base
        ok = np.zeros(phase.ops * self.SEARCH, dtype=bool)
        found, truth = [], []
        for c in range(phase.ops):
            live = ref.live_mask(n_base + (c + 1) * self.ADD, removed_at, c)
            q = slice(c * self.SEARCH, (c + 1) * self.SEARCH)
            queries = data["queries"][q]
            ok[q] = ref.check(queries, phase.ids[q], phase.distances[q], live)
            if c % self.RECALL_EVERY == 0:
                found.append(phase.ids[q])
                truth.append(ref.brute_force(queries, live))
            if phase.stats["removed"][c] != self.REMOVE:
                ok[q] = False
        # The replayed history must agree with the index's own tombstones.
        replayed = removed_at < np.iinfo(np.int64).max
        if not np.array_equal(replayed, ref.deleted):
            ok[:] = False
        return ok, np.concatenate(found), np.concatenate(truth)

    def end_to_end(self, phase, data):
        # Writes exist only on this workload, so its latency metrics are
        # the write path's; searches under churn (with the refreshes and
        # compactions they pay for) set its throughput.
        search_ms = np.asarray(phase.samples["search_s"]) * 1e3
        write_ms = np.asarray(phase.samples["write_s"]) * 1e3
        return {
            "qps": float(phase.ops * self.SEARCH / np.sum(search_ms) * 1e3),
            "p50_ms": float(np.median(write_ms)),
            "tail_ms": _pct(write_ms, 95),
        }, {"cycles": phase.ops, "tail_percentile": 95,
            "search_p50_ms": float(np.median(search_ms)),
            "search_p95_ms": _pct(search_ms, 95)}


WORKLOADS = {
    "batch-sift": BatchWorkload("batch-sift", SIFT, max_batches=128),
    "batch-starlight": BatchWorkload("batch-starlight", STARLIGHT,
                                     max_batches=48),
    "serve-zipf": ServeWorkload(),
    "write-mix": WriteMixWorkload(),
}
