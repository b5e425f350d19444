"""Ablation: block compression codec and chunk size on the VFT path.

VFT ships the database's compressed column blocks; this ablation measures
the functional path with each codec and with different buffering hints
(the ``chunk_rows`` partition-size hint of §3.1).
"""

import numpy as np
import pytest

from repro.dr import start_session
from repro.transfer import db2darray
from repro.vertica import HashSegmentation, VerticaCluster

ROWS = 40_000
FEATURES = 6


def build_cluster(codec: str):
    rng = np.random.default_rng(31)
    columns = {"k": rng.integers(0, 1_000_000, ROWS)}
    names = []
    for j in range(FEATURES):
        names.append(f"c{j}")
        columns[f"c{j}"] = rng.normal(size=ROWS)
    cluster = VerticaCluster(node_count=3, codec=codec)
    cluster.create_table_like("bench", columns, HashSegmentation("k"))
    cluster.bulk_load("bench", columns)
    return cluster, names


@pytest.mark.parametrize("codec", ["none", "zlib"])
def test_ablation_vft_by_codec(benchmark, codec):
    cluster, names = build_cluster(codec)
    with start_session(node_count=3, instances_per_node=2) as session:
        result = benchmark.pedantic(
            lambda: db2darray(cluster, "bench", names, session),
            rounds=3, iterations=1,
        )
        assert result.nrow == ROWS
    benchmark.extra_info["wire_bytes"] = int(
        cluster.metrics.counter("vft_bytes_sent").value)


def test_ablation_zlib_shrinks_wire_bytes():
    baseline_cluster, names = build_cluster("none")
    compressed_cluster, _ = build_cluster("zlib")
    with start_session(node_count=3, instances_per_node=1) as session:
        db2darray(baseline_cluster, "bench", names, session)
        db2darray(compressed_cluster, "bench", names, session)
    raw = baseline_cluster.metrics.counter("vft_bytes_sent").value
    compressed = compressed_cluster.metrics.counter("vft_bytes_sent").value
    assert compressed < raw, "zlib must reduce bytes on the wire"


@pytest.mark.parametrize("chunk_rows", [256, 8192])
def test_ablation_vft_by_chunk_size(benchmark, chunk_rows):
    cluster, names = build_cluster("zlib")
    with start_session(node_count=3, instances_per_node=2) as session:
        result = benchmark.pedantic(
            lambda: db2darray(cluster, "bench", names, session,
                              chunk_rows=chunk_rows),
            rounds=3, iterations=1,
        )
        assert result.nrow == ROWS


def test_ablation_small_chunks_cost_more_frames():
    cluster, names = build_cluster("zlib")
    with start_session(node_count=3, instances_per_node=1) as session:
        db2darray(cluster, "bench", names, session, chunk_rows=256)
        small_bytes = cluster.metrics.counter("vft_bytes_sent").value
        cluster.metrics.reset()
        db2darray(cluster, "bench", names, session, chunk_rows=16_384)
        large_bytes = cluster.metrics.counter("vft_bytes_sent").value
    # Smaller buffers mean more frame headers and worse compression ratios.
    assert small_bytes > large_bytes
