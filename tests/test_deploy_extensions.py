"""Tests for the VFT timing breakdown and concurrency of the shared
substrates."""

import threading

import numpy as np

from repro.transfer import db2darray
from repro.vertica import HashSegmentation, VerticaCluster


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
