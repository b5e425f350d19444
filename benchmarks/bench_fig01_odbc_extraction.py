"""Figure 1: extracting data from a database over ODBC is slow.

Real layer: load the same table through one ODBC connection vs many parallel
connections vs VFT; single-connection must be the slowest path.  Paper-scale
layer: the queueing model replays 50/100/150 GB on 5 nodes.
"""

import pytest

from benchmarks.conftest import build_numeric_table
from repro.dr import start_session
from repro.perfmodel import simulate_odbc_transfer
from repro.transfer import load_via_parallel_odbc, load_via_single_odbc

ROWS = 24_000
FEATURES = 4


@pytest.fixture(scope="module")
def setup():
    cluster, names = build_numeric_table(3, ROWS, FEATURES, seed=1)
    session = start_session(node_count=3, instances_per_node=2)
    yield cluster, names, session
    session.shutdown()


def _paper_scale_series():
    return {
        f"odbc_{conns}conn_{gb}gb_s": round(
            simulate_odbc_transfer(gb, 5, conns).total_seconds, 1
        )
        for gb in (50, 100, 150)
        for conns in (1, 120)
    }


def test_fig01_single_odbc_connection(benchmark, setup):
    cluster, names, session = setup

    def run():
        return load_via_single_odbc(cluster, "bench", names, session)

    result = benchmark(run)
    assert result.nrow == ROWS
    benchmark.extra_info.update(_paper_scale_series())


def test_fig01_parallel_odbc_connections(benchmark, setup):
    cluster, names, session = setup

    def run():
        return load_via_parallel_odbc(cluster, "bench", names, session,
                                      connections=6)

    result = benchmark(run)
    assert result.nrow == ROWS


def test_fig01_shape_single_slower_than_parallel_at_paper_scale():
    single = simulate_odbc_transfer(50, 5, 1).total_seconds
    parallel = simulate_odbc_transfer(50, 5, 120).total_seconds
    assert single > parallel
    # Figure 1's point: even 120-way parallel ODBC takes ~40 min at 150 GB.
    assert simulate_odbc_transfer(150, 5, 120).minutes > 25
