"""Tests for model export/import, the VFT timing breakdown, and
concurrency of the shared substrates."""

import threading

import numpy as np
import pytest

from repro.algorithms import hpdglm
from repro.deploy import deploy_model, export_model, import_model, load_model
from repro.dr import start_session
from repro.errors import CatalogError, PermissionDeniedError, SerializationError
from repro.transfer import db2darray
from repro.vertica import HashSegmentation, VerticaCluster
from repro.workloads import make_regression


def trained_model(session):
    data = make_regression(600, 2, noise_scale=0.05, seed=50)
    x = session.darray(npartitions=2)
    x.fill_from(data.features)
    y = session.darray(npartitions=2,
                       worker_assignment=[x.worker_of(i) for i in range(2)])
    y.fill_partition(0, data.responses[:300].reshape(-1, 1))
    y.fill_partition(1, data.responses[300:].reshape(-1, 1))
    return hpdglm(y, x)


class TestModelExportImport:
    def test_export_then_import_into_other_cluster(self, session, tmp_path):
        model = trained_model(session)
        source = VerticaCluster(node_count=2)
        deploy_model(source, model, "origin")
        path = tmp_path / "model.rmdl"
        written = export_model(source, "origin", path)
        assert written == path.stat().st_size > 0

        destination = VerticaCluster(node_count=3)
        record = import_model(destination, path, "copied",
                              description="migrated")
        assert record.type == "glm"
        restored = load_model(destination, "copied")
        assert np.allclose(restored.coefficients, model.coefficients)

    def test_export_respects_permissions(self, session, tmp_path):
        model = trained_model(session)
        cluster = VerticaCluster(node_count=2)
        deploy_model(cluster, model, "locked", owner="alice")
        with pytest.raises(PermissionDeniedError):
            export_model(cluster, "locked", tmp_path / "m.bin", user="bob")

    def test_import_validates_blob(self, tmp_path):
        cluster = VerticaCluster(node_count=2)
        path = tmp_path / "junk.bin"
        path.write_bytes(b"definitely not a model")
        with pytest.raises(SerializationError):
            import_model(cluster, path, "junk")

    def test_import_duplicate_requires_replace(self, session, tmp_path):
        model = trained_model(session)
        cluster = VerticaCluster(node_count=2)
        deploy_model(cluster, model, "m")
        path = tmp_path / "m.bin"
        export_model(cluster, "m", path)
        with pytest.raises(CatalogError):
            import_model(cluster, path, "m")
        import_model(cluster, path, "m", replace=True)


class TestVftTimingBreakdown:
    def test_breakdown_recorded(self, session):
        """The vft.transfer span carries the Fig 14 DB/R split."""
        rng = np.random.default_rng(51)
        columns = {"k": rng.integers(0, 10**6, 2000),
                   "v": rng.normal(size=2000)}
        cluster = VerticaCluster(node_count=3)
        cluster.create_table_like("t", columns, HashSegmentation("k"))
        cluster.bulk_load("t", columns)
        db2darray(cluster, "t", ["v"], session)
        assert session.metrics.counter("vft_db_seconds").value > 0
        assert session.metrics.counter("vft_r_seconds").value > 0
        transfers = [span for root in session.tracer.roots()
                     for span in root.walk() if span.name == "vft.transfer"]
        assert len(transfers) == 1
        fields = transfers[0].attributes
        assert fields["rows_transferred"] == 2000
        assert fields["policy"] == "locality"
        assert fields["db_seconds"] > 0 and fields["r_seconds"] > 0


class TestConcurrency:
    def test_concurrent_bulk_loads_preserve_every_row(self):
        cluster = VerticaCluster(node_count=3)
        cluster.sql("CREATE TABLE t (v INT) SEGMENTED BY HASH(v) ALL NODES")
        table = cluster.catalog.get_table("t")
        errors = []

        def load(offset: int):
            try:
                table.insert({"v": np.arange(offset, offset + 500)})
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=load, args=(i * 500,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert cluster.sql("SELECT COUNT(*) FROM t").scalar() == 4000
        assert cluster.sql("SELECT COUNT(DISTINCT v) FROM t").scalar() == 4000

    def test_concurrent_queries(self, loaded_cluster):
        results = []
        errors = []

        def query():
            try:
                results.append(
                    loaded_cluster.sql("SELECT COUNT(*) FROM pts").scalar())
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=query) for _ in range(10)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert results == [900] * 10

    def test_concurrent_dfs_writes(self, cluster):
        errors = []

        def write(index: int):
            try:
                cluster.dfs.write(f"/c/{index}", bytes([index]) * 100)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(i,)) for i in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cluster.dfs.list_files("/c/")) == 16
        for i in range(16):
            assert cluster.dfs.read(f"/c/{i}") == bytes([i]) * 100

    def test_concurrent_transfers_to_one_session(self, session):
        rng = np.random.default_rng(52)
        columns = {"k": rng.integers(0, 10**6, 1500),
                   "v": rng.normal(size=1500)}
        cluster = VerticaCluster(node_count=3)
        cluster.create_table_like("t", columns, HashSegmentation("k"))
        cluster.bulk_load("t", columns)
        loaded = []
        errors = []

        def transfer():
            try:
                loaded.append(db2darray(cluster, "t", ["v"], session))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=transfer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert all(array.nrow == 1500 for array in loaded)
