"""Tests for the extension features: COPY CSV, EXPLAIN, and naive Bayes."""

import numpy as np
import pytest

from repro.algorithms import accuracy, hpdnaivebayes
from repro.deploy import deploy_model, deserialize_model, serialize_model
from repro.errors import CatalogError, ModelError, SqlSyntaxError, StorageError
from repro.vertica import VerticaCluster, copy_from_csv, write_csv
from repro.workloads import make_blobs


class TestCopyCsv:
    def make_table(self, cluster):
        cluster.sql("CREATE TABLE t (a INT, b FLOAT, s VARCHAR, flag BOOLEAN) "
                    "SEGMENTED BY HASH(a) ALL NODES")

    def test_roundtrip_all_types(self, cluster, tmp_path):
        self.make_table(cluster)
        rng = np.random.default_rng(1)
        columns = {
            "a": rng.integers(0, 100, 200),
            "b": rng.normal(size=200),
            "s": np.asarray([f"row {i}" for i in range(200)], dtype=object),
            "flag": rng.random(200) > 0.5,
        }
        path = tmp_path / "data.csv"
        assert write_csv(path, columns) == 200
        assert copy_from_csv(cluster, "t", path) == 200
        assert cluster.sql("SELECT COUNT(*) FROM t").scalar() == 200
        assert cluster.sql("SELECT SUM(a) FROM t").scalar() == columns["a"].sum()
        true_count = cluster.sql("SELECT COUNT(*) FROM t WHERE flag").scalar()
        assert true_count == int(columns["flag"].sum())

    def test_header_order_independent(self, cluster, tmp_path):
        self.make_table(cluster)
        path = tmp_path / "data.csv"
        path.write_text("s,flag,b,a\nhello,true,2.5,7\n")
        assert copy_from_csv(cluster, "t", path) == 1
        rows = cluster.sql("SELECT a, b, s FROM t").rows()
        assert rows == [(7, 2.5, "hello")]

    def test_headerless_uses_table_order(self, cluster, tmp_path):
        self.make_table(cluster)
        path = tmp_path / "data.csv"
        path.write_text("7,2.5,hello,false\n8,3.5,bye,true\n")
        assert copy_from_csv(cluster, "t", path, header=False) == 2

    def test_missing_header_column_rejected(self, cluster, tmp_path):
        self.make_table(cluster)
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2.0\n")
        with pytest.raises(CatalogError, match="missing"):
            copy_from_csv(cluster, "t", path)

    def test_bad_value_rejected(self, cluster, tmp_path):
        self.make_table(cluster)
        path = tmp_path / "data.csv"
        path.write_text("a,b,s,flag\nnotanint,1.0,x,true\n")
        with pytest.raises(StorageError):
            copy_from_csv(cluster, "t", path)

    def test_null_token_handling(self, cluster, tmp_path):
        self.make_table(cluster)
        path = tmp_path / "data.csv"
        path.write_text("a,b,s,flag\n1,,,true\n")
        assert copy_from_csv(cluster, "t", path) == 1
        value = cluster.sql("SELECT b FROM t").column("b")[0]
        assert np.isnan(value)

    def test_missing_file(self, cluster):
        self.make_table(cluster)
        with pytest.raises(StorageError, match="not found"):
            copy_from_csv(cluster, "t", "/nonexistent.csv")

    def test_empty_file_loads_zero(self, cluster, tmp_path):
        self.make_table(cluster)
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert copy_from_csv(cluster, "t", path) == 0

    def test_batched_loading(self, cluster, tmp_path):
        self.make_table(cluster)
        rng = np.random.default_rng(2)
        columns = {
            "a": rng.integers(0, 10, 500),
            "b": rng.normal(size=500),
            "s": np.asarray(["x"] * 500, dtype=object),
            "flag": np.zeros(500, dtype=bool),
        }
        path = tmp_path / "big.csv"
        write_csv(path, columns)
        assert copy_from_csv(cluster, "t", path, batch_rows=64) == 500
        assert cluster.sql("SELECT COUNT(*) FROM t").scalar() == 500


class TestExplain:
    def test_scan_plan(self, loaded_cluster):
        plan = loaded_cluster.sql(
            "EXPLAIN SELECT a FROM pts WHERE a > 0 ORDER BY a LIMIT 3"
        ).column("plan")
        text = "\n".join(plan)
        assert "SCAN pts" in text
        assert "FILTER" in text
        assert "SORT" in text
        assert "LIMIT 3" in text

    def test_aggregate_plan(self, loaded_cluster):
        plan = loaded_cluster.sql(
            "EXPLAIN SELECT k % 2, COUNT(*) FROM pts GROUP BY k % 2"
        ).column("plan")
        assert any("AGGREGATE" in line for line in plan)

    def test_join_plan(self, loaded_cluster):
        loaded_cluster.sql("CREATE TABLE dim (k INT, w FLOAT)")
        plan = loaded_cluster.sql(
            "EXPLAIN SELECT p.a FROM pts p JOIN dim d ON p.k = d.k"
        ).column("plan")
        text = "\n".join(plan)
        assert "HASH INNER JOIN" in text
        assert text.count("SCAN") == 2

    def test_udtf_plan(self, loaded_cluster):
        plan = loaded_cluster.sql(
            "EXPLAIN SELECT glmPredict(a USING PARAMETERS model='m') "
            "OVER (PARTITION NODES) FROM pts"
        ).column("plan")
        assert any("UDTF" in line and "one instance per node" in line
                   for line in plan)

    def test_explain_does_not_execute(self, loaded_cluster):
        # The referenced model does not exist; EXPLAIN must still succeed.
        loaded_cluster.sql(
            "EXPLAIN SELECT glmPredict(a USING PARAMETERS model='ghost') "
            "OVER (PARTITION BEST) FROM pts"
        )

    def test_explain_non_select_rejected(self, loaded_cluster):
        with pytest.raises(SqlSyntaxError):
            loaded_cluster.sql("EXPLAIN DROP TABLE pts")

    def test_segment_counts_in_scan_line(self, loaded_cluster):
        plan = loaded_cluster.sql("EXPLAIN SELECT a FROM pts").column("plan")
        assert "900 rows" in plan[0]


class TestNaiveBayes:
    def make_labeled(self, session, n=3000, seed=3):
        dataset = make_blobs(n, 4, 3, spread=0.5, seed=seed)
        x = session.darray(npartitions=3)
        x.fill_from(dataset.points)
        y = session.darray(npartitions=3,
                           worker_assignment=[x.worker_of(i) for i in range(3)])
        boundaries = np.linspace(0, n, 4).astype(int)
        for i in range(3):
            y.fill_partition(
                i, dataset.labels[boundaries[i]:boundaries[i + 1]]
                .astype(np.float64).reshape(-1, 1))
        return dataset, y, x

    def test_learns_blob_classes(self, session):
        dataset, y, x = self.make_labeled(session)
        model = hpdnaivebayes(y, x)
        assert model.n_classes == 3
        predictions = model.predict(dataset.points)
        assert accuracy(dataset.labels, predictions) > 0.95

    def test_matches_single_node_computation(self, session):
        dataset, y, x = self.make_labeled(session, n=900, seed=4)
        model = hpdnaivebayes(y, x)
        for klass in range(3):
            mask = dataset.labels == klass
            assert np.allclose(model.means[klass],
                               dataset.points[mask].mean(axis=0), atol=1e-9)
            assert np.allclose(
                model.variances[klass],
                dataset.points[mask].var(axis=0), atol=1e-6)

    def test_posteriors_sum_to_one(self, session):
        dataset, y, x = self.make_labeled(session, n=600, seed=5)
        model = hpdnaivebayes(y, x)
        probabilities = model.predict_proba(dataset.points[:50])
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_empty_class_rejected(self, session):
        x = session.darray(npartitions=1)
        x.fill_from(np.random.default_rng(0).normal(size=(50, 2)))
        y = session.darray(npartitions=1,
                           worker_assignment=[x.worker_of(0)])
        y.fill_partition(0, np.zeros((50, 1)))  # only class 0
        with pytest.raises(ModelError):
            hpdnaivebayes(y, x, n_classes=3)

    def test_serialization_roundtrip(self, session):
        dataset, y, x = self.make_labeled(session, n=600, seed=6)
        model = hpdnaivebayes(y, x)
        restored = deserialize_model(serialize_model(model))
        assert np.array_equal(restored.predict(dataset.points[:100]),
                              model.predict(dataset.points[:100]))

    def test_full_custom_model_deploy_and_sql_predict(self, session):
        """Deploy a fitted model and score it in SQL with the built-in
        nbPredict."""
        dataset, y, x = self.make_labeled(session, n=1200, seed=7)
        cluster = VerticaCluster(node_count=3)
        rng = np.random.default_rng(8)
        columns = {"k": rng.integers(0, 10**6, 600),
                   **{f"f{j}": dataset.points[:600, j] for j in range(4)}}
        cluster.create_table_like("score_me", columns)
        cluster.bulk_load("score_me", columns)
        model = hpdnaivebayes(y, x)
        deploy_model(cluster, model, "nb1", description="custom model")
        result = cluster.sql(
            "SELECT nbPredict(f0, f1, f2, f3 USING PARAMETERS model='nb1') "
            "OVER (PARTITION BEST) FROM score_me"
        )
        assert len(result) == 600
        assert result.column("label").dtype.kind in "iu"
        table = cluster.gather_table("score_me", [f"f{j}" for j in range(4)])
        local = model.predict(np.column_stack([table[f"f{j}"] for j in range(4)]))
        assert np.array_equal(np.sort(result.column("label")), np.sort(local))
