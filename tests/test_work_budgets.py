"""Deterministic work budgets: counts a regression would move, gated exactly.

Wall time cannot tell a 15 % regression from noise on a shared machine, but
the work a seeded run does repeats exactly.  Each test here runs one flow
at a fixed shape and pins its work counters, so a change that silently
falls back to a costlier path fails here with the count it moved.
"""

from __future__ import annotations

import numpy as np

from repro.dr import start_session
from repro.transfer import db2darray, db2darray_with_response
from repro.vertica import HashSegmentation, VerticaCluster

FEATURES = [f"x{j}" for j in range(8)]


def pipeline_table(rows: int = 2_000, seed: int = 0) -> dict[str, np.ndarray]:
    """The paper pipeline's table: a key, a response and 8 FLOAT features."""
    rng = np.random.default_rng(seed)
    columns = {"k": np.arange(rows), "y": rng.normal(size=rows)}
    for name in FEATURES:
        columns[name] = rng.normal(size=rows)
    return columns


class TestVftWorkBudget:
    """VFT at the pipeline's smoke shape (2 000 rows, 4 nodes): every frame
    is one node's whole row group, shipped as the blocks the table stores;
    none is compressed afresh."""

    def test_transfers_forward_every_block(self):
        cluster = VerticaCluster(node_count=4)
        columns = pipeline_table()
        cluster.create_table_like("t", columns, HashSegmentation("k"))
        cluster.bulk_load("t", columns)
        forwarded = cluster.metrics.counter("vft_blocks_forwarded")
        reencoded = cluster.metrics.counter("vft_blocks_reencoded")
        with start_session(node_count=4, instances_per_node=1) as session:
            db2darray(cluster, "t", FEATURES, session)
            # 4 frames (one per node) x 8 feature blocks.
            assert (reencoded.value, forwarded.value) == (0, 32)
            db2darray_with_response(cluster, "t", "y", FEATURES, session)
            # 4 frames x (y + 8 features).
            assert (reencoded.value, forwarded.value - 32) == (0, 36)
            assert session.metrics.counter("vft_frames_received").value == 8


class TestStorageWorkBudget:
    """What the pipeline's smoke table stores right after ``bulk_load``.
    Every block is byte planes with only the planes zlib shrinks deflated;
    deflating the doubles' mantissa planes as well, or any change that
    inflates storage, moves the byte count."""

    def test_bulk_load_stored_bytes_and_layouts(self):
        cluster = VerticaCluster(node_count=4)
        columns = pipeline_table()
        cluster.create_table_like("t", columns, HashSegmentation("k"))
        cluster.bulk_load("t", columns)
        stats = cluster.table_stats("t")
        # 4 nodes x (k, y, 8 features, hidden row id) = 44 blocks.
        assert (stats["compressed_bytes"], stats["layouts"]) == (
            138794, {"zlib+shuffle": 44})
