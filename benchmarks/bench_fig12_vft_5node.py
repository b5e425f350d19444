"""Figure 12: ODBC vs Vertica Fast Transfer (5-node-cluster shape).

Real layer: the same table loaded through parallel ODBC and through VFT; the
paper's winner (VFT) must win here too, because VFT ships compressed column
blocks while ODBC round-trips delimited text.  Paper-scale layer: queueing-model
series for 50-150 GB.
"""

import pytest

from benchmarks.conftest import build_numeric_table
from repro.dr import start_session
from repro.perfmodel import model_vft_transfer, simulate_odbc_transfer
from repro.transfer import db2darray, load_via_parallel_odbc

ROWS = 45_000
FEATURES = 4


@pytest.fixture(scope="module")
def setup():
    cluster, names = build_numeric_table(3, ROWS, FEATURES, seed=12)
    session = start_session(node_count=3, instances_per_node=2)
    yield cluster, names, session
    session.shutdown()


def test_fig12_odbc_load(benchmark, setup):
    cluster, names, session = setup
    result = benchmark(
        lambda: load_via_parallel_odbc(cluster, "bench", names, session,
                                       connections=6)
    )
    assert result.nrow == ROWS


def test_fig12_vft_load(benchmark, setup):
    cluster, names, session = setup
    result = benchmark(lambda: db2darray(cluster, "bench", names, session))
    assert result.nrow == ROWS
    benchmark.extra_info.update({
        f"paper_{gb}gb_{kind}_s": round(seconds, 1)
        for gb in (50, 100, 150)
        for kind, seconds in (
            ("odbc", simulate_odbc_transfer(gb, 5, 120).total_seconds),
            ("vft", model_vft_transfer(gb, 5, 24).total_seconds),
        )
    })


def test_fig12_shape_vft_faster_functionally(setup):
    """Measured at laptop scale: one VFT load vs one parallel-ODBC load."""
    import time

    cluster, names, session = setup
    start = time.perf_counter()
    db2darray(cluster, "bench", names, session)
    vft_seconds = time.perf_counter() - start
    start = time.perf_counter()
    load_via_parallel_odbc(cluster, "bench", names, session, connections=6)
    odbc_seconds = time.perf_counter() - start
    assert vft_seconds < odbc_seconds, (
        f"VFT ({vft_seconds:.3f}s) should beat ODBC ({odbc_seconds:.3f}s)"
    )


def test_fig12_shape_6x_at_paper_scale():
    odbc = simulate_odbc_transfer(150, 5, 120).total_seconds
    vft = model_vft_transfer(150, 5, 24).total_seconds
    assert 4 <= odbc / vft <= 10
    assert vft / 60 < 6  # "VFT can load ... 150 GB in less than 6 minutes"
