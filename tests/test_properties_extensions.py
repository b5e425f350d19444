"""Property-based tests for the extension features: joins, CSV roundtrips,
and the LIKE matcher."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.vertica import VerticaCluster, copy_from_csv, write_csv
from repro.vertica.expressions import _like_to_regex

common_settings = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestJoinProperties:
    @common_settings
    @given(
        npst.arrays(np.int64, st.integers(1, 120),
                    elements=st.integers(0, 15)),
        npst.arrays(np.int64, st.integers(1, 120),
                    elements=st.integers(0, 15)),
    )
    def test_inner_join_count_matches_numpy(self, left_keys, right_keys):
        cluster = VerticaCluster(node_count=2)
        cluster.create_table_like("l", {"k": left_keys})
        cluster.bulk_load("l", {"k": left_keys})
        cluster.create_table_like("r", {"k": right_keys})
        cluster.bulk_load("r", {"k": right_keys})
        count = cluster.sql(
            "SELECT COUNT(*) FROM l a JOIN r b ON a.k = b.k").scalar()
        counts_left = np.bincount(left_keys, minlength=16)
        counts_right = np.bincount(right_keys, minlength=16)
        assert count == int(np.sum(counts_left * counts_right))

    @common_settings
    @given(
        npst.arrays(np.int64, st.integers(1, 80), elements=st.integers(0, 10)),
        npst.arrays(np.int64, st.integers(1, 80), elements=st.integers(0, 10)),
    )
    def test_left_join_preserves_every_left_row(self, left_keys, right_keys):
        cluster = VerticaCluster(node_count=2)
        cluster.create_table_like("l", {"k": left_keys})
        cluster.bulk_load("l", {"k": left_keys})
        cluster.create_table_like("r", {"k": right_keys})
        cluster.bulk_load("r", {"k": right_keys})
        count = cluster.sql(
            "SELECT COUNT(*) FROM l a LEFT JOIN r b ON a.k = b.k").scalar()
        counts_right = np.bincount(right_keys, minlength=16)
        expected = int(np.sum(np.maximum(counts_right[left_keys], 1)))
        assert count == expected


class TestCsvProperties:
    @common_settings
    @given(
        ints=npst.arrays(np.int64, st.integers(1, 60),
                         elements=st.integers(-10**9, 10**9)),
        floats=npst.arrays(np.float64, st.integers(1, 60),
                           elements=st.floats(-1e9, 1e9, allow_nan=False)),
    )
    def test_numeric_roundtrip(self, tmp_path_factory, ints, floats):
        size = min(len(ints), len(floats))
        columns = {"a": ints[:size], "b": floats[:size]}
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        write_csv(path, columns)
        cluster = VerticaCluster(node_count=2)
        cluster.sql("CREATE TABLE t (a INT, b FLOAT)")
        assert copy_from_csv(cluster, "t", path) == size
        table = cluster.gather_table("t", ["a", "b"])
        assert sorted(table["a"]) == sorted(columns["a"].tolist())
        assert np.allclose(np.sort(table["b"]), np.sort(columns["b"]))

    @common_settings
    @given(strings=st.lists(
        st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
                max_size=20),
        min_size=1, max_size=40,
    ))
    def test_varchar_roundtrip(self, tmp_path_factory, strings):
        # csv cannot represent the distinction between "" and null; the
        # loader maps the null token ("") to None.
        strings = [s if s else "x" for s in strings]
        # Normalize: csv readers fold \\r\\n; avoid bare carriage returns.
        strings = [s.replace("\r", " ") for s in strings]
        columns = {"s": np.asarray(strings, dtype=object)}
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        write_csv(path, columns)
        cluster = VerticaCluster(node_count=2)
        cluster.sql("CREATE TABLE t (s VARCHAR)")
        assert copy_from_csv(cluster, "t", path) == len(strings)
        table = cluster.gather_table("t", ["s"])
        assert sorted(table["s"]) == sorted(strings)


class TestLikeProperties:
    @common_settings
    @given(st.text(alphabet="abc.*+[](){}|\\^$?", max_size=12))
    def test_literal_patterns_match_exactly_themselves(self, text):
        regex = _like_to_regex(text)
        assert regex.fullmatch(text) is not None
        # A string that differs in length cannot match a wildcard-free pattern.
        assert regex.fullmatch(text + "extra") is None

    @common_settings
    @given(st.text(alphabet="abcd", max_size=10),
           st.text(alphabet="abcd", max_size=10))
    def test_percent_matches_any_run(self, prefix, suffix):
        regex = _like_to_regex(f"{prefix}%{suffix}")
        assert regex.fullmatch(prefix + "anything" + suffix) is not None
        assert regex.fullmatch(prefix + suffix) is not None

    @common_settings
    @given(st.text(alphabet="abcd", min_size=1, max_size=10))
    def test_underscore_matches_exactly_one(self, text):
        pattern = "_" * len(text)
        regex = _like_to_regex(pattern)
        assert regex.fullmatch(text) is not None
        assert regex.fullmatch(text + "a") is None
        if len(text) > 1:
            assert regex.fullmatch(text[:-1]) is None
