"""Host-path wall-clock benchmark for HarmonyDB.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-sift --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` repeats the
same operations with every layer's public calls wrapped in spans and
reports the per-layer metrics instead. The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Metric names and units come from ``BENCHMARK.json``. A detailed report
(environment stamp, sample counts, per-layer self times) and, for traced
runs, a Chrome trace-event file are written to ``perfbench/out/``.
"""

import os

# Pin BLAS to one thread before numpy loads, so compute threads are the
# backend's own (n_threads=2) and nothing else.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: A serve run whose generator sent its 99th-percentile request later
#: than this after its due time did not offer the intended load.
MAX_GENERATOR_LATE_MS = 20.0


class PeakRSS:
    """Peak resident set size above a baseline.

    Resets the kernel's high-water mark (``VmHWM``) at :meth:`start` by
    writing 5 to ``/proc/self/clear_refs`` and reads it back at
    :meth:`stop`, so the peak is exact and no sampling thread competes
    with the measured work.
    """

    @staticmethod
    def _status_kb(field: str) -> int:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
        raise RuntimeError(f"/proc/self/status has no {field}")

    def start(self) -> None:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        self.baseline = self._status_kb("VmRSS")

    def stop(self) -> float:
        """Returns the peak above the baseline in MiB."""
        return (self._status_kb("VmHWM") - self.baseline) / 1024


def environment(seed: int) -> dict:
    import ctypes
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        blas_threads = fn()

    def py_lines(top: Path) -> int:
        return sum(
            len(path.read_bytes().splitlines()) for path in top.rglob("*.py")
        )

    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "seed": seed,
        "src_lines": py_lines(ROOT / "src"),
        "tests_lines": py_lines(ROOT / "tests") if (ROOT / "tests").is_dir() else 0,
    }


def git_commit() -> str:
    """HEAD's commit read from .git (a plain checkout has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def gate_trips(ref, query, ids, distances, live) -> bool:
    """Self-check: the correctness gate must reject corrupted answers.

    Two corruptions of one real answer: its last id swapped for the
    next-nearest candidate (a subtly wrong neighbour), and one distance
    nudged by one part in a million.
    """
    import numpy as np

    _, cand, _ = ref.search(query[None], live)
    cand = cand[0][cand[0] >= 0]
    ranked = cand[np.lexsort((cand, ref.exact(query[None], cand[None])[0]))]
    outsider = next(int(i) for i in ranked if i not in set(ids[0].tolist()))
    wrong_id = ids.copy()
    wrong_id[0, -1] = outsider
    wrong_dist = distances.copy()
    wrong_dist[0, 0] *= 1.000001
    genuine = ref.check(query[None], ids, distances, live)[0]
    return bool(
        genuine
        and not ref.check(query[None], wrong_id, distances, live)[0]
        and not ref.check(query[None], ids, wrong_dist, live)[0]
    )


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------


def per_layer(rec, wl, phase_a, phase_b, e2e_a, context_a, ref, before, after,
              n_slices):
    """Per-layer metrics of a traced pass (see perfbench/README.md)."""
    import numpy as np

    from tracing import (
        layer_self_seconds,
        overlap_fraction,
        slice_profile,
        union_length,
    )

    run = [s for s in rec.spans if s.phase == "run"]
    every = rec.spans

    def durations(spans, name):
        return [s.end - s.start for s in spans if s.name == name]

    def mean(values, scale=1.0):
        return float(np.mean(values)) * scale if values else 0.0

    def total(spans, name):
        return float(sum(durations(spans, name)))

    n_q = sum(s.count or 0 for s in run if s.name == "IVFFlatIndex.probe")
    per_q = 1e6 / n_q if n_q else 0.0
    searches = len(durations(run, "HarmonyDB.search"))

    def covered_frac(parent_name, child_names):
        """Share of ``parent_name`` span time covered by the named
        direct children."""
        kids: dict[int, list] = {}
        for s in run:
            if s.name in child_names:
                kids.setdefault(s.parent, []).append((s.start, s.end))
        parents = [s for s in run if s.name == parent_name]
        span_time = sum(s.end - s.start for s in parents)
        if not span_time:
            return 0.0
        inside = sum(union_length(kids.get(s.id, [])) for s in parents)
        return inside / span_time

    windows = [(s.start, s.end) for s in run if s.name == "HostBackend.search"]
    lanes: dict[int, list] = {}
    for s in run:
        if s.name == "ScanKernel.run_shard_group":
            lanes.setdefault(s.lane, []).append((s.start, s.end))
    candidates, scored, alive_after = slice_profile(run, n_slices=4)
    reports = phase_b.reports
    routing = {k: after["routing"][k] - before["routing"][k]
               for k in ("hits", "misses", "evictions")}
    cache = {k: after["cache"][k] - before["cache"][k]
             for k in ("hits", "misses", "evictions", "invalidations")}
    looked_up = routing["hits"] + routing["misses"]
    cached = cache["hits"] + cache["misses"]
    serve_stats = phase_b.stats.get("server")
    queue = phase_b.samples.get("queue_s") or [0.0]
    service = phase_b.samples.get("service_s") or [0.0]
    late = phase_b.samples.get("late_s")
    floor_qps = ref.floor_queries / ref.floor_seconds
    is_batch = wl.name.startswith("batch-")

    values = {
        "index.train_s": total(every, "IVFFlatIndex.train"),
        "index.probe_ms": mean(durations(run, "IVFFlatIndex.probe"), 1e3),
        "index.add_ms": mean(durations(run, "IVFFlatIndex.add"), 1e3),
        "index.remove_ms": mean(durations(run, "IVFFlatIndex.remove_ids"), 1e3),
        "planner.choose_s": total(every, "QueryPlanner.choose"),
        "pipeline.place_ms": mean(
            durations(every, "PipelineEngine.place_data"), 1e3),
        "layout.build_s": total(every, "ShardPackedBase.build"),
        "layout.refresh_ms": mean(durations(run, "ShardPackedBase.refresh"), 1e3),
        "layout.gather_us_per_query":
            total(run, "ShardPackedBase.gather") * per_q,
        "layout.bytes": float(
            rec.last_self["HostBackend.search"].layout_nbytes()),
        "layout.compactions": float(sum(r.layout_compactions for r in reports)),
        "layout.delta_rows_max": float(
            max([r.delta_rows for r in reports], default=0)),
        "kernel.search_batch_us_per_query": (
            total(run, "ScanKernel.search_batch")
            + total(run, "ScanKernel.search_one")) * per_q,
        "kernel.begin_query_us": mean(durations(run, "ScanKernel.begin_query"),
                                      1e6),
        "kernel.candidates_per_query": (
            sum(s.count or 0 for s in run if s.name == "ShardPackedBase.gather")
            / n_q if n_q else 0.0),
        "kernel.packed_base_ms": (
            total(run, "ScanKernel.packed_base") * 1e3 / searches
            if searches else 0.0),
        "threads.busy_overlap_frac": overlap_fraction(windows, lanes),
        "backend.overhead_frac": (
            1.0 - covered_frac("HostBackend.search", {
                "IVFFlatIndex.probe", "ScanKernel.search_batch",
                "ScanKernel.search_one"})
            if windows else 0.0),
        "pruning.slice_us_per_query": (
            total(run, "ShardGroupScan.process_slice")
            + total(run, "ShardScan.process_slice")) * per_q,
        "pruning.prune_us_per_query": (
            total(run, "ShardGroupScan.prune")
            + total(run, "ShardScan.prune")) * per_q,
        "pruning.rows_scored_frac": (
            scored / (candidates * n_slices) if candidates else 0.0),
        "routing.hit_rate": routing["hits"] / looked_up if looked_up else 0.0,
        "routing.evictions": float(routing["evictions"]),
        "db.search_overhead_frac": (
            1.0 - covered_frac("HarmonyDB.search", {"HostBackend.search"})
            if searches else 0.0),
        "db.cache_probe_us": mean(durations(run, "HarmonyDB.cache_probe"), 1e6),
        "cache.hit_rate": cache["hits"] / cached if cached else 0.0,
        "cache.evictions": float(cache["evictions"]),
        "cache.invalidations": float(cache["invalidations"]),
        "cache.lookup_us": mean(durations(run, "ResultCache.lookup"), 1e6),
        "cache.insert_us": mean(durations(run, "ResultCache.insert"), 1e6),
        "serve.submit_us": mean(durations(run, "HarmonyServer.submit"), 1e6),
        "serve.queue_ms_p50": float(np.percentile(queue, 50)) * 1e3,
        "serve.queue_ms_p99": float(np.percentile(queue, 99)) * 1e3,
        "serve.service_ms_p50": float(np.percentile(service, 50)) * 1e3,
        "serve.service_ms_p99": float(np.percentile(service, 99)) * 1e3,
        "serve.batch_size_mean": (
            (serve_stats.completed - serve_stats.cache_hits) / serve_stats.batches
            if serve_stats and serve_stats.batches else 0.0),
        "serve.rejected": float(serve_stats.rejected if serve_stats else 0),
        "serve.shed": float(serve_stats.shed if serve_stats else 0),
        "serve.degraded": float(serve_stats.degraded if serve_stats else 0),
        "serve.ok_frac": float(context_a.get("ok_frac", 0.0)),
        "mix.search_p50_ms": float(context_a.get("search_p50_ms", 0.0)),
        "mix.search_p95_ms": float(context_a.get("search_p95_ms", 0.0)),
        "gen.late_ms_p99": (
            float(np.percentile(late, 99)) * 1e3 if late is not None else 0.0),
        "floor.qps": floor_qps,
        "floor.ratio": floor_qps / e2e_a["qps"] if is_batch else 0.0,
        "trace.overhead_frac": (phase_b.busy_s - phase_a.busy_s) / phase_a.busy_s,
    }
    for j in range(4):
        values[f"pruning.alive_frac.s{j}"] = (
            alive_after[j] / candidates if candidates else 0.0)
    selfs = {phase: layer_self_seconds(every, phase)
             for phase in ("setup", "warmup", "run")}
    # The traced pass's wall time, and the layers' self times that
    # account for it. Spans on other lanes (pool threads, the serve
    # flusher) add to the sum wherever they ran alongside the main thread.
    top = next(s for s in every if s.name == f"bench.{wl.name}")
    selfs["run_wall_s"] = top.end - top.start
    selfs["run_self_sum_s"] = sum(selfs["warmup"].values()) + sum(
        selfs["run"].values())
    return values, selfs


def cache_counters(db, rec) -> dict:
    """Routing- and result-cache counters of a deployment right now.

    The routing cache hangs off the backend the traced
    ``HostBackend.search`` calls ran on.
    """
    backend = rec.last_self["HostBackend.search"]
    stats = db.result_cache.stats() if db.result_cache is not None else None
    return {
        "routing": backend.kernel.routing_cache.stats(),
        "cache": {
            "hits": stats.hits if stats else 0,
            "misses": stats.misses if stats else 0,
            "evictions": stats.evictions if stats else 0,
            "invalidations": stats.invalidations if stats else 0,
        },
    }


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    if src not in Path(repro.__file__).resolve().parents:
        print(f"imported {repro.__file__}, not the program under {src}",
              file=sys.stderr)
        return 2
    bench = spec()
    import numpy as np

    import workloads
    from reference import ReferenceIVF, recall

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    dep = wl.deployment
    env = environment(args.seed)
    print("env " + json.dumps(env), flush=True)

    stage = {"start": time.perf_counter()}
    data = wl.prepare(args.seed, args.seconds)
    stage["data"] = time.perf_counter()
    answers = workloads.answer_buffers(wl.answer_slots(data))
    gc.collect()
    memory = PeakRSS()
    memory.start()
    db, first_setup, first_ids, first_dist = workloads.deploy(dep, data, wl.cache)
    phase = wl.run(db, data, args.seconds, answers)
    mem_peak_mb = memory.stop()
    stage["measured"] = time.perf_counter()

    setup_s = [first_setup]
    if not args.trace:
        for _ in range(2):
            extra, seconds, _, _ = workloads.deploy(dep, data, wl.cache)
            extra.close()
            setup_s.append(seconds)
            del extra
            gc.collect()

    stage["setups"] = time.perf_counter()
    # Every answer goes through the independent reference, outside the
    # timed and memory-measured window.
    ref = ReferenceIVF(db.index, workloads.K, dep.nprobe)
    ok, found, truth = wl.check(data, phase, ref)
    phase.stats["ok"] = ok
    initial = (ref.live_mask(dep.n_base) if wl.name == "write-mix"
               else ref.live_mask())
    first_query = data["plan_sample"][0]
    first_ok = bool(ref.check(first_query[None], first_ids, first_dist,
                              initial)[0])
    gate_ok = gate_trips(ref, first_query, first_ids, first_dist, initial)
    db.close()
    stage["checked"] = time.perf_counter()
    attempted = ok.size + 1
    failed = int((~ok).sum()) + (not first_ok)
    # An unanswered serve request (rejected, shed or failed) is already a
    # failed answer: ``ok`` is False wherever nothing came back.
    if wl.name == "write-mix":
        attempted += 2 * phase.ops  # every add and remove call
    e2e, context = wl.end_to_end(phase, data)
    e2e.update({
        "setup_s": float(np.median(setup_s)),
        "mem_peak_mb": mem_peak_mb,
        "recall_at_10": recall(found, truth),
    })

    problems = []
    if not gate_ok:
        problems.append("correctness gate did not trip on corrupted answers")
    late = context.get("gen_late_ms_p99")
    if late is not None and late > MAX_GENERATOR_LATE_MS:
        problems.append(
            f"generator fell behind: p99 late {late:.2f} ms > "
            f"{MAX_GENERATOR_LATE_MS} ms; offered load not delivered")
    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "end_to_end": e2e,
        "context": context, "setup_s_samples": setup_s,
    }
    if args.trace:
        values, selfs, trace_problems, traced_failed, traced_answers = (
            traced_replay(wl, data, phase, e2e, context, ref, args))
        problems.extend(trace_problems)
        failed += traced_failed
        attempted += traced_answers
        report["per_layer"] = values
        report["self_seconds"] = selfs
        wanted = bench["per_layer"]
    else:
        values = e2e
        wanted = bench["end_to_end"]
    stage["end"] = time.perf_counter()
    names = list(stage)
    report["stage_s"] = {
        later: stage[later] - stage[earlier]
        for earlier, later in zip(names, names[1:])
    }
    report.update(attempted=attempted, failed=failed, problems=problems)

    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2, default=str))
    for problem in problems:
        print("problem: " + problem, file=sys.stderr)
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0


def traced_replay(wl, data, phase_a, e2e_a, context_a, ref_a, args):
    """Repeat the untraced phase's exact operations on a fresh, traced
    deployment. Returns ``(per_layer_values, self_seconds, problems,
    failed_answers, checked_answers)``."""
    import workloads
    from reference import ReferenceIVF
    from tracing import SpanRecorder, delayed_layer_check

    dep = wl.deployment
    rec = SpanRecorder()
    rec.wrap_program()
    problems = []
    try:
        rec.enabled = True
        rec.set_ctx("setup")
        db2, _, _, _ = workloads.deploy(dep, data, wl.cache)
        rec.set_ctx(None)
        rec.counters = lambda: cache_counters(db2, rec)
        rec.phase = "warmup"
        answers = workloads.answer_buffers(wl.answer_slots(data))
        with rec.span(f"bench.{wl.name}"):
            phase_b = wl.run(db2, data, args.seconds, answers,
                             ops=phase_a.ops, recorder=rec)
        before, after = rec.start_counters, cache_counters(db2, rec)
        spans = rec.spans
        rec.phase = "selfcheck"
        chunks = iter([data["plan_sample"][1:33], data["plan_sample"][33:65]])
        delay_ok, delay = delayed_layer_check(
            lambda: db2.search(next(chunks), k=workloads.K), rec)
        rec.spans = spans
        if not delay_ok:
            problems.append(f"delayed-layer self-check failed: {delay}")
    finally:
        rec.enabled = False
        rec.unwrap_all()
    OUT.mkdir(exist_ok=True)
    rec.write_chrome_trace(str(OUT / f"{wl.name}-seed{args.seed}.trace.json"))
    ref = ReferenceIVF(db2.index, workloads.K, dep.nprobe)
    ok, _, _ = wl.check(data, phase_b, ref)
    phase_b.stats["ok"] = ok
    values, selfs = per_layer(rec, wl, phase_a, phase_b, e2e_a, context_a,
                              ref_a, before, after,
                              n_slices=db2.plan.n_dim_blocks)
    db2.close()
    return values, selfs, problems, int((~ok).sum()), int(ok.size)


if __name__ == "__main__":
    sys.exit(main())
