"""Tests for model serialization, deployment, and in-database prediction."""

import numpy as np
import pytest

from repro.algorithms import hpdglm, hpdkmeans, hpdrandomforest
from repro.deploy import (
    deploy_model,
    deserialize_model,
    drop_model,
    grant_model,
    load_model,
    make_prediction_function,
    register_model_codec,
    registered_model_types,
    revoke_model,
    serialize_model,
)
from repro.errors import (
    CatalogError,
    ModelError,
    PermissionDeniedError,
    SerializationError,
)
from repro.transfer import db2darray_with_response
from repro.vertica import HashSegmentation, VerticaCluster
from repro.workloads import make_blobs, make_classification, make_regression


def fill_pair(session, features, responses, npartitions=3):
    x = session.darray(npartitions=npartitions)
    x.fill_from(features)
    y = session.darray(
        npartitions=npartitions,
        worker_assignment=[x.worker_of(i) for i in range(npartitions)],
    )
    boundaries = np.linspace(0, len(features), npartitions + 1).astype(int)
    for i in range(npartitions):
        y.fill_partition(i, responses[boundaries[i]:boundaries[i + 1]].reshape(-1, 1))
    return y, x


@pytest.fixture
def glm_model(session):
    data = make_regression(600, 3, noise_scale=0.05, seed=1)
    y, x = fill_pair(session, data.features, data.responses)
    return hpdglm(y, x, feature_names=["a", "b", "c"])


@pytest.fixture
def kmeans_model(session):
    dataset = make_blobs(600, 3, 4, seed=2)
    data = session.darray(npartitions=3)
    data.fill_from(dataset.points)
    return hpdkmeans(data, k=4, seed=0)


@pytest.fixture
def forest_model(session):
    data = make_classification(800, 2, seed=3)
    y, x = fill_pair(session, data.features, data.responses.astype(float))
    return hpdrandomforest(y, x, n_trees=5, task="classification", seed=4)


class TestSerialization:
    def test_registered_types(self):
        assert {"glm", "kmeans", "randomforest"} <= set(registered_model_types())

    def test_glm_roundtrip(self, glm_model):
        restored = deserialize_model(serialize_model(glm_model))
        assert np.allclose(restored.coefficients, glm_model.coefficients)
        assert restored.family == glm_model.family
        assert restored.feature_names == ["a", "b", "c"]
        assert np.allclose(restored.standard_errors, glm_model.standard_errors)

    def test_kmeans_roundtrip(self, kmeans_model):
        restored = deserialize_model(serialize_model(kmeans_model))
        assert np.allclose(restored.centers, kmeans_model.centers)
        assert restored.inertia == pytest.approx(kmeans_model.inertia)
        assert np.array_equal(restored.cluster_sizes, kmeans_model.cluster_sizes)

    def test_forest_roundtrip_predicts_identically(self, forest_model):
        restored = deserialize_model(serialize_model(forest_model))
        rng = np.random.default_rng(0)
        points = rng.normal(size=(50, 2))
        assert np.array_equal(restored.predict(points), forest_model.predict(points))

    def test_bad_magic_rejected(self):
        with pytest.raises(SerializationError):
            deserialize_model(b"NOTAMODEL" + b"\x00" * 100)

    def test_truncated_blob_rejected(self, glm_model):
        blob = serialize_model(glm_model)
        with pytest.raises((SerializationError, ValueError, Exception)):
            deserialize_model(blob[: len(blob) // 2])

    def test_unregistered_model_rejected(self):
        class Strange:
            model_type = "strange"

        with pytest.raises(SerializationError):
            serialize_model(Strange())

    def test_object_without_model_type_rejected(self):
        with pytest.raises(SerializationError):
            serialize_model(object())

    def test_custom_codec_roundtrip(self):
        class Threshold:
            model_type = "threshold"

            def __init__(self, cut, weights):
                self.cut = cut
                self.weights = weights

        register_model_codec(
            "threshold", Threshold,
            lambda m: ({"cut": m.cut}, {"weights": m.weights}),
            lambda meta, arrays: Threshold(meta["cut"], arrays["weights"]),
        )
        model = Threshold(0.5, np.array([1.0, 2.0]))
        restored = deserialize_model(serialize_model(model))
        assert restored.cut == 0.5
        assert np.array_equal(restored.weights, [1.0, 2.0])


class TestDeployment:
    def test_deploy_creates_dfs_blob_and_catalog_row(self, cluster, glm_model):
        record = deploy_model(cluster, glm_model, "regModel",
                              description="forecasting")
        assert cluster.dfs.exists(record.dfs_path)
        rows = cluster.sql("SELECT model, type, description FROM R_Models").rows()
        assert rows == [("regModel", "glm", "forecasting")]
        assert record.size == cluster.dfs.stat(record.dfs_path).size

    def test_load_roundtrip(self, cluster, glm_model):
        deploy_model(cluster, glm_model, "m1")
        restored = load_model(cluster, "m1")
        assert np.allclose(restored.coefficients, glm_model.coefficients)

    def test_duplicate_requires_replace(self, cluster, glm_model):
        deploy_model(cluster, glm_model, "m1")
        with pytest.raises(CatalogError):
            deploy_model(cluster, glm_model, "m1")
        deploy_model(cluster, glm_model, "m1", replace=True)

    def test_replace_invalidates_cache(self, cluster, session):
        data = make_regression(300, 2, seed=5)
        y, x = fill_pair(session, data.features, data.responses)
        first = hpdglm(y, x)
        deploy_model(cluster, first, "m1")
        load_model(cluster, "m1")  # warm cache
        data2 = make_regression(300, 2, seed=99,
                                coefficients=np.array([5.0, -5.0]))
        y2, x2 = fill_pair(session, data2.features, data2.responses)
        second = hpdglm(y2, x2)
        deploy_model(cluster, second, "m1", replace=True)
        reloaded = load_model(cluster, "m1")
        assert np.allclose(reloaded.coefficients, second.coefficients)

    def test_drop_removes_blob(self, cluster, glm_model):
        record = deploy_model(cluster, glm_model, "m1")
        drop_model(cluster, "m1")
        assert not cluster.dfs.exists(record.dfs_path)
        with pytest.raises(CatalogError):
            load_model(cluster, "m1")

    def test_bad_name_rejected(self, cluster, glm_model):
        with pytest.raises(CatalogError):
            deploy_model(cluster, glm_model, "bad name!")

    def test_permissions_enforced_through_load(self, cluster, glm_model):
        deploy_model(cluster, glm_model, "m1", owner="alice")
        with pytest.raises(PermissionDeniedError):
            load_model(cluster, "m1", user="bob")
        grant_model(cluster, "m1", "bob", granting_user="alice")
        load_model(cluster, "m1", user="bob")
        revoke_model(cluster, "m1", "bob", revoking_user="alice")
        with pytest.raises(PermissionDeniedError):
            load_model(cluster, "m1", user="bob")

    def test_model_survives_node_failure(self, cluster, glm_model):
        record = deploy_model(cluster, glm_model, "m1")
        cluster.dfs.fail_node(record.replica_nodes[0]
                              if hasattr(record, "replica_nodes")
                              else cluster.dfs.stat(record.dfs_path).replica_nodes[0])
        restored = load_model(cluster, "m1")
        assert np.allclose(restored.coefficients, glm_model.coefficients)


def make_scoring_cluster(n=900, features=3, seed=7):
    rng = np.random.default_rng(seed)
    columns = {"k": rng.integers(0, 10_000, n)}
    for j in range(features):
        columns[f"c{j}"] = rng.normal(size=n)
    cluster = VerticaCluster(node_count=3)
    cluster.create_table_like("scores", columns, HashSegmentation("k"))
    cluster.bulk_load("scores", columns)
    return cluster, columns


class TestInDbPrediction:
    def test_glm_predict_matches_local(self, session):
        cluster, columns = make_scoring_cluster()
        data = make_regression(500, 3, seed=8)
        y, x = fill_pair(session, data.features, data.responses)
        model = hpdglm(y, x)
        deploy_model(cluster, model, "reg")
        result = cluster.sql(
            "SELECT glmPredict(c0, c1, c2 USING PARAMETERS model='reg') "
            "OVER (PARTITION BEST) FROM scores"
        )
        assert len(result) == 900
        table = cluster.gather_table("scores", ["c0", "c1", "c2"])
        local = model.predict(np.column_stack([table["c0"], table["c1"], table["c2"]]))
        assert np.allclose(np.sort(result.column("prediction")), np.sort(local))

    def test_glm_predict_link_type(self, session):
        cluster, _ = make_scoring_cluster()
        data = make_classification(500, 3, seed=9)
        y, x = fill_pair(session, data.features, data.responses.astype(float))
        model = hpdglm(y, x, family="binomial")
        deploy_model(cluster, model, "logit")
        response = cluster.sql(
            "SELECT glmPredict(c0, c1, c2 USING PARAMETERS model='logit') "
            "OVER (PARTITION BEST) FROM scores"
        ).column("prediction")
        link = cluster.sql(
            "SELECT glmPredict(c0, c1, c2 USING PARAMETERS model='logit', "
            "type='link') OVER (PARTITION BEST) FROM scores"
        ).column("prediction")
        assert ((response >= 0) & (response <= 1)).all()
        assert link.max() > 1 or link.min() < 0

    def test_kmeans_predict(self, session):
        cluster, _ = make_scoring_cluster()
        dataset = make_blobs(600, 3, 4, seed=10)
        data = session.darray(npartitions=3)
        data.fill_from(dataset.points)
        model = hpdkmeans(data, k=4, seed=0)
        deploy_model(cluster, model, "km")
        result = cluster.sql(
            "SELECT kmeansPredict(c0, c1, c2 USING PARAMETERS model='km') "
            "OVER (PARTITION BEST) FROM scores"
        )
        clusters = result.column("cluster")
        assert clusters.dtype.kind in "iu"
        assert set(np.unique(clusters)) <= set(range(4))

    def test_rf_predict(self, session):
        cluster, _ = make_scoring_cluster(features=2)
        data = make_classification(800, 2, seed=11)
        y, x = fill_pair(session, data.features, data.responses.astype(float))
        forest = hpdrandomforest(y, x, n_trees=5, task="classification", seed=12)
        deploy_model(cluster, forest, "rf")
        result = cluster.sql(
            "SELECT rfPredict(c0, c1 USING PARAMETERS model='rf') "
            "OVER (PARTITION BEST) FROM scores"
        )
        assert len(result) == 900
        assert set(np.unique(result.column("prediction"))) <= {0.0, 1.0}

    def test_missing_model_parameter(self, session):
        cluster, _ = make_scoring_cluster()
        cluster.install_standard_functions()
        from repro.errors import ExecutionError
        with pytest.raises(ExecutionError, match="model"):
            cluster.sql(
                "SELECT glmPredict(c0) OVER (PARTITION BEST) FROM scores"
            )

    def test_wrong_model_type_rejected(self, session):
        cluster, _ = make_scoring_cluster()
        dataset = make_blobs(300, 3, 2, seed=13)
        data = session.darray(npartitions=3)
        data.fill_from(dataset.points)
        km = hpdkmeans(data, k=2, seed=0)
        deploy_model(cluster, km, "km")
        with pytest.raises(ModelError, match="expects"):
            cluster.sql(
                "SELECT glmPredict(c0, c1, c2 USING PARAMETERS model='km') "
                "OVER (PARTITION BEST) FROM scores"
            )

    def test_prediction_respects_permissions(self, session):
        cluster, _ = make_scoring_cluster()
        data = make_regression(400, 3, seed=14)
        y, x = fill_pair(session, data.features, data.responses)
        model = hpdglm(y, x)
        deploy_model(cluster, model, "priv", owner="alice")
        with pytest.raises(PermissionDeniedError):
            cluster.sql(
                "SELECT glmPredict(c0, c1, c2 USING PARAMETERS model='priv') "
                "OVER (PARTITION BEST) FROM scores",
                user="bob",
            )
        grant_model(cluster, "priv", "bob", granting_user="alice")
        result = cluster.sql(
            "SELECT glmPredict(c0, c1, c2 USING PARAMETERS model='priv') "
            "OVER (PARTITION BEST) FROM scores",
            user="bob",
        )
        assert len(result) == 900

    def test_custom_prediction_function(self, session):
        cluster, _ = make_scoring_cluster(features=2)

        class Doubler:
            model_type = "doubler"

            def __init__(self, factor):
                self.factor = factor

        register_model_codec(
            "doubler", Doubler,
            lambda m: ({"factor": m.factor}, {}),
            lambda meta, arrays: Doubler(meta["factor"]),
        )
        udtf = make_prediction_function(
            "doublePredict", "doubler",
            lambda model, features, params: features[:, 0] * model.factor,
        )
        cluster.register_udtf(udtf)
        deploy_model(cluster, Doubler(2.0), "dbl")
        result = cluster.sql(
            "SELECT doublePredict(c0, c1 USING PARAMETERS model='dbl') "
            "OVER (PARTITION BEST) FROM scores"
        )
        table = cluster.gather_table("scores", ["c0"])
        assert np.allclose(np.sort(result.column("prediction")),
                           np.sort(table["c0"] * 2.0))

    def test_full_figure3_workflow(self, session):
        """Figure 3 end-to-end: ETL -> db2darray -> hpdglm -> deploy -> SQL."""
        rng = np.random.default_rng(15)
        n = 1500
        true = np.array([2.0, -1.0])
        features = rng.normal(size=(n, 2))
        response = 0.5 + features @ true + rng.normal(scale=0.05, size=n)
        columns = {"k": rng.integers(0, 9999, n), "y": response,
                   "a": features[:, 0], "b": features[:, 1]}
        cluster = VerticaCluster(node_count=3)
        cluster.create_table_like("mytable", columns, HashSegmentation("k"))
        cluster.bulk_load("mytable", columns)
        y, x = db2darray_with_response(cluster, "mytable", "y", ["a", "b"], session)
        model = hpdglm(y, x)
        assert np.allclose(model.coefficients, [0.5, 2.0, -1.0], atol=0.02)
        deploy_model(cluster, model, "rModel")
        predictions = cluster.sql(
            "SELECT glmPredict(a, b USING PARAMETERS model='rModel') "
            "OVER (PARTITION BEST) FROM mytable"
        ).column("prediction")
        assert np.allclose(np.sort(predictions), np.sort(model.predict(features)),
                           atol=1e-9)
