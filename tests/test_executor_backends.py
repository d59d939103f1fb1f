"""Backend selection through HarmonyConfig / HarmonyDB / the CLI."""

import numpy as np
import pytest

from repro.core.config import HarmonyConfig
from repro.core.database import HarmonyDB
from repro.core.executor import SerialBackend, ThreadBackend
from repro.core.partition import build_plan
from repro.index.ivf import IVFFlatIndex


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(11)
    base = rng.standard_normal((500, 32)).astype(np.float32)
    queries = rng.standard_normal((16, 32)).astype(np.float32)
    return base, queries


def build_db(data, **config_kwargs):
    base, queries = data
    db = HarmonyDB(
        dim=32,
        config=HarmonyConfig(
            n_machines=4, nlist=16, nprobe=4, **config_kwargs
        ),
    )
    db.build(base, sample_queries=queries)
    return db


class TestHarmonyDBBackends:
    def test_config_rejects_unknown_backend(self):
        for name in ("mpi", "process"):
            with pytest.raises(
                ValueError, match="supported backends: serial, sim, thread"
            ):
                HarmonyConfig(backend=name)
        with pytest.raises(ValueError, match="n_threads"):
            HarmonyConfig(backend="thread", n_threads=0)

    @pytest.mark.parametrize("backend", ["thread", "serial"])
    def test_host_backends_match_sim(self, data, backend):
        base, queries = data
        sim_result, sim_report = build_db(data).search(queries, k=5)
        db = build_db(data, backend=backend, n_threads=2)
        result, report = db.search(queries, k=5)
        np.testing.assert_array_equal(result.ids, sim_result.ids)
        np.testing.assert_allclose(
            result.distances, sim_result.distances, rtol=1e-9, atol=1e-12
        )
        # Host report: measured wall-clock, labelled as such.
        assert report.simulated_seconds > 0.0
        assert f"[{backend} backend" in report.plan_summary
        assert report.plan_summary.startswith(sim_report.plan_summary)

    def test_host_backend_rejects_arrival_times(self, data):
        base, queries = data
        db = build_db(data, backend="serial")
        with pytest.raises(ValueError, match="sim"):
            db.search(
                queries,
                k=5,
                arrival_times=np.linspace(0, 1, queries.shape[0]),
            )

    def test_host_backend_sees_mutations(self, data):
        base, queries = data
        db = build_db(data, backend="serial")
        before, _ = db.search(queries, k=5)
        rng = np.random.default_rng(3)
        db.add(rng.standard_normal((50, 32)).astype(np.float32))
        victims = np.unique(before.ids[before.ids >= 0])[:10]
        db.remove(victims)
        after, _ = db.search(queries, k=5, nprobe=16)
        assert not (set(after.ids[after.ids >= 0]) & set(victims))

    def test_backend_survives_save_load(self, data, tmp_path):
        db = build_db(data, backend="thread", n_threads=2)
        path = tmp_path / "db.npz"
        db.save(path)
        loaded = HarmonyDB.load(path)
        assert loaded.config.backend == "thread"
        assert loaded.config.n_threads == 2
        base, queries = data
        got, _ = loaded.search(queries, k=5)
        want, _ = db.search(queries, k=5)
        np.testing.assert_array_equal(got.ids, want.ids)

    def test_load_process_backend_file_as_thread(self, data, tmp_path):
        """Files saved with the removed process backend still load.

        They carry ``backend="process"`` and an ``n_workers`` key in
        their config JSON; both map onto the thread backend.
        """
        import json

        db = build_db(data, backend="thread", n_threads=2)
        path = tmp_path / "db.npz"
        db.save(path)
        with np.load(path, allow_pickle=False) as saved:
            arrays = {key: saved[key] for key in saved.files}
        config = json.loads(str(arrays["config"]))
        config.update(backend="process", n_workers=2)
        arrays["config"] = np.array(json.dumps(config))
        legacy = tmp_path / "legacy.npz"
        np.savez_compressed(legacy, **arrays)

        loaded = HarmonyDB.load(legacy)
        try:
            assert loaded.config.backend == "thread"
            base, queries = data
            got, report = loaded.search(queries, k=5)
            want, _ = db.search(queries, k=5)
            np.testing.assert_array_equal(got.ids, want.ids)
            assert "[thread backend" in report.plan_summary
        finally:
            loaded.close()
            db.close()

    def test_report_metrics_publishes_layout_bytes(self, data):
        from repro.obs.metrics import report_metrics

        base, queries = data
        db = build_db(data, backend="thread", n_threads=2)
        try:
            _, report = db.search(queries, k=5)
            registry = report_metrics(report)
            assert "harmony_layout_bytes" in registry.to_prometheus()
            dumped = registry.to_dict()
            assert dumped["harmony_layout_bytes"]["series"][0]["value"] > 0
        finally:
            db.close()


def test_thread_backend_pool_persists_and_revives(data):
    base, queries = data
    index = IVFFlatIndex(dim=32, nlist=16, seed=0)
    index.train(base)
    index.add(base)
    plan = build_plan(index, n_machines=4, n_vector_shards=2, n_dim_blocks=2)
    backend = ThreadBackend(index, plan=plan, n_threads=2)
    assert backend._pool is None  # lazy: no threads until first search
    backend.search(queries, k=5, nprobe=4)
    pool = backend._pool
    assert pool is not None
    backend.search(queries, k=5, nprobe=4)
    assert backend._pool is pool  # reused across calls
    backend.close()
    assert backend._pool is None
    backend.close()  # idempotent
    result = backend.search(queries, k=5, nprobe=4)  # revives
    assert backend._pool is not None
    reference = SerialBackend(index, plan=plan).search(queries, k=5, nprobe=4)
    np.testing.assert_array_equal(result.ids, reference.ids)
    backend.close()


class TestCLIBackend:
    @pytest.mark.parametrize("backend", ["thread", "serial"])
    def test_run_with_host_backend(self, backend, capsys):
        from repro.cli import main

        code = main(
            [
                "run",
                "--dataset",
                "sift1m",
                "--size",
                "400",
                "--queries",
                "10",
                "--backend",
                backend,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"backend {backend}: host wall-clock" in out
        assert "recall@10" in out

    def test_run_default_backend_prints_simulated(self, capsys):
        from repro.cli import main

        code = main(
            ["run", "--dataset", "sift1m", "--size", "400", "--queries", "10"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "simulated QPS" in out
