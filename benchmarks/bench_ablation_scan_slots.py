"""Ablation: the "overwhelm the database" knee — connections vs scan slots.

Sweeps the ODBC connection count through the queueing model and locates
where adding connections stops helping (the paper's motivation for VFT
issuing exactly one query).  Also sweeps the per-node scan-slot capacity to show the knee
moves with server resources.
"""

import pytest

from repro.perfmodel import SL390, scaled_profile, simulate_odbc_transfer


def sweep_connections(profile, table_gb=150, nodes=5,
                      counts=(1, 5, 20, 40, 120, 288, 480)):
    return {
        count: simulate_odbc_transfer(table_gb, nodes, count, profile).total_seconds
        for count in counts
    }


def test_ablation_connection_sweep(benchmark):
    results = benchmark(lambda: sweep_connections(SL390))
    benchmark.extra_info.update(
        {f"odbc_{count}conn_s": round(seconds, 1)
         for count, seconds in results.items()}
    )
    # The knee: a moderate number of connections is fastest; both extremes
    # lose (one connection serializes, hundreds pay per-query probes).
    best = min(results, key=results.get)
    assert 5 <= best <= 120
    assert results[1] > results[best]
    assert results[480] > results[best]


def test_ablation_more_scan_slots_shift_the_knee():
    small = scaled_profile(SL390, speed=1.0, db_scan_slots_per_node=2)
    large = scaled_profile(SL390, speed=1.0, db_scan_slots_per_node=16)
    at_high_concurrency_small = simulate_odbc_transfer(150, 5, 120, small)
    at_high_concurrency_large = simulate_odbc_transfer(150, 5, 120, large)
    # More slots absorb more concurrent scans: faster at high concurrency.
    assert (at_high_concurrency_large.total_seconds
            < at_high_concurrency_small.total_seconds)
    # And queueing depth collapses.
    assert (at_high_concurrency_large.peak_queue_depth
            < at_high_concurrency_small.peak_queue_depth)


def test_ablation_probe_cost_drives_the_overwhelm():
    """Zeroing the segment-probe cost removes the degradation at high
    connection counts — direct evidence for the mechanism."""
    no_probe = scaled_profile(SL390, speed=1.0, odbc_probe_s_per_row=0.0)
    with_probe_results = sweep_connections(SL390, counts=(40, 480))
    no_probe_results = sweep_connections(no_probe, counts=(40, 480))
    assert with_probe_results[480] > with_probe_results[40]
    assert no_probe_results[480] <= no_probe_results[40] * 1.05
