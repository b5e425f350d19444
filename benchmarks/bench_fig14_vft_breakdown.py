"""Figure 14: where VFT time goes (DB part vs R part) as R instances grow.

Real layer: VFT loads with 1 vs 4 R instances per worker — more instances
must not be slower (the conversion stage parallelizes).  Paper-scale layer:
the 2-24 instance breakdown at 400 GB / 12 nodes.
"""

import pytest

from benchmarks.conftest import build_numeric_table, inflight_bytes_bound
from repro.dr import start_session
from repro.perfmodel import model_vft_transfer
from repro.transfer import db2darray

ROWS = 45_000
FEATURES = 6


@pytest.fixture(scope="module")
def cluster_and_names():
    return build_numeric_table(3, ROWS, FEATURES, seed=14)


@pytest.mark.parametrize("instances", [1, 4])
def test_fig14_vft_load_by_instances(benchmark, cluster_and_names, instances):
    cluster, names = cluster_and_names
    with start_session(node_count=3, instances_per_node=instances) as session:
        result = benchmark.pedantic(
            lambda: db2darray(cluster, "bench", names, session, chunk_rows=2048),
            rounds=3, iterations=1,
        )
        assert result.nrow == ROWS
    if instances == 4:
        benchmark.extra_info.update({
            f"paper_inst{i}_{part}_s": round(value, 1)
            for i in (2, 4, 8, 12, 16, 24)
            for part, value in (
                ("db", model_vft_transfer(400, 12, i).db_seconds),
                ("r", model_vft_transfer(400, 12, i).r_seconds),
            )
        })
        # Peak in-flight bytes for the same load on a fresh cluster: bounded
        # by the queue depth, not by the table.
        benchmark.extra_info.update(_pipeline_peak(instances))


def _pipeline_peak(instances: int) -> dict[str, int]:
    cluster, names = build_numeric_table(3, ROWS, FEATURES, seed=14)
    with start_session(node_count=3, instances_per_node=instances) as session:
        db2darray(cluster, "bench", names, session, chunk_rows=2048)
    peak = int(cluster.metrics.gauge("pipeline_inflight_bytes").peak)
    bound = inflight_bytes_bound(cluster)
    assert 0 < peak <= bound, (peak, bound)
    return {"streaming_inflight_bytes_peak": peak}


def test_fig14_shape_db_constant_r_shrinks():
    results = {i: model_vft_transfer(400, 12, i) for i in (2, 4, 8, 12, 16, 24)}
    db_parts = [r.db_seconds for r in results.values()]
    assert max(db_parts) - min(db_parts) < 1e-9, "DB part must be constant"
    assert results[2].r_seconds > 4 * results[12].r_seconds
    # "almost half of the transfer time" in R at 2 instances:
    assert results[2].r_seconds / results[2].total_seconds > 0.35
    # plateau past the physical core count:
    assert results[24].r_seconds == pytest.approx(results[12].r_seconds)
