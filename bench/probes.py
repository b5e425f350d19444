"""Layer probes: one layer's public entry point timed on its own.

Each probe runs after the traced passes, on the first `probe_rows` rows of
the workload's own table, and imports its entry points lazily: when a later
refactor removes one, that probe's metrics are reported as NaN with the
reason (0 would read as collapse for a rate and as perfect for a latency)
and every other metric still comes out.  Only the import is tolerated; an
error in the probe's body is a bug and propagates.  Probes give unit costs
(MB/s, µs per statement); how much of a pass a layer takes is in the
`share.*` metrics.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable

import numpy as np

from bench.harness import Recorder, median, rate
from bench.workloads.common import Scale, feature_matrix, raw_bytes

REPEATS = 5
MB = 1e6


class Unavailable(Exception):
    """An entry point the program no longer offers."""


@contextmanager
def entry_points():
    """Around a probe's lazy imports and nothing else."""
    try:
        yield
    except ImportError as error:
        raise Unavailable(str(error)) from error


def timed(fn: Callable, repeats: int = REPEATS) -> tuple[float, object]:
    """Median seconds of `fn` over `repeats` runs, and its last result."""
    seconds = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        seconds.append(time.perf_counter() - start)
    return median(seconds), result


def run_probes(workload, rec: Recorder, scale: Scale
               ) -> tuple[dict[str, float], dict[str, str]]:
    """The probes' metrics, and for each metric a probe could not measure
    the reason why."""
    columns = {name: values[:scale.probe_rows]
               for name, values in workload.columns.items()}
    floats = [name for name, values in columns.items() if values.dtype.kind == "f"]
    matrix = feature_matrix(columns, floats)
    metrics: dict[str, float] = {}
    unavailable: dict[str, str] = {}
    for probe, names in PROBES.items():
        try:
            metrics.update(zip(names, probe(workload, rec, columns, floats, matrix),
                               strict=True))
        except Unavailable as error:
            unavailable.update(dict.fromkeys(names, f"{probe.__name__}: {error}"))
    return metrics, unavailable


def probe_storage(workload, rec, columns, floats, matrix) -> tuple[float, ...]:
    with entry_points():
        from repro.storage import ColumnSchema, RowGroup, SqlType

    schema = [ColumnSchema(name, SqlType.from_numpy(values.dtype))
              for name, values in columns.items()]
    user_mb = raw_bytes(columns) / MB
    encode_s, rowgroup = timed(lambda: RowGroup.from_arrays(schema, columns))
    decode_s, _ = timed(rowgroup.read)
    return (user_mb / encode_s, user_mb / decode_s,
            rowgroup.compressed_size / rowgroup.row_count)


def probe_sql(workload, rec, columns, floats, matrix) -> tuple[float, ...]:
    with entry_points():
        from repro.vertica.sql import parse
        from repro.vertica.sql.analyzer import ClusterProvider, analyze

    provider = ClusterProvider(workload.cluster)
    parse_s, analyze_s = [], []
    for text in workload.sql_texts:
        seconds, statement = timed(lambda: parse(text), 20)
        parse_s.append(seconds)
        analyze_s.append(timed(lambda: analyze(statement, provider), 20)[0])
    return 1e6 * float(np.mean(parse_s)), 1e6 * float(np.mean(analyze_s))


def probe_pruning(workload, rec, columns, floats, matrix) -> tuple[float, ...]:
    """Row groups the zone maps skipped ÷ row groups offered, over the calls
    tagged `band` (the workload's narrow range statements)."""
    calls = rec.tag_calls.get("band", 0)
    if not calls:
        return (0.0,)
    cluster = workload.cluster
    if not hasattr(cluster, "node_rowgroup_count"):
        raise Unavailable("VerticaCluster.node_rowgroup_count is gone")
    offered = calls * sum(cluster.node_rowgroup_count(workload.table, node)
                          for node in range(cluster.node_count))
    return (rate(rec.tag_counts["band"].get("rowgroups_pruned", 0.0), offered),)


def probe_frames(workload, rec, columns, floats, matrix) -> tuple[float, ...]:
    with entry_points():
        from repro.storage import SqlType
        from repro.transfer.streams import decode_frames, encode_frame

    batch = {name: columns[name][:8192] for name in floats}
    types = {name: SqlType.from_numpy(values.dtype) for name, values in batch.items()}
    user_mb = raw_bytes(batch) / MB
    encode_s, frame = timed(lambda: encode_frame(batch, types))
    decode_s, _ = timed(lambda: decode_frames(frame))
    return user_mb / encode_s, user_mb / decode_s


def probe_dr(workload, rec, columns, floats, matrix) -> tuple[float, ...]:
    with entry_points():
        from repro import start_session

    starts = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        with start_session(node_count=4, instances_per_node=1):
            starts.append(time.perf_counter() - start)
    with start_session(node_count=4, instances_per_node=1) as session:
        fill_s, array = timed(lambda: session.darray(npartitions=4).fill_from(matrix))
        collect_s, _ = timed(array.collect)
    return (1e3 * median(starts), matrix.nbytes / MB / fill_s,
            matrix.nbytes / MB / collect_s)


def probe_models(workload, rec, columns, floats, matrix) -> tuple[float, ...]:
    """Model kernels on an in-memory matrix, and the deploy round trip."""
    with entry_points():
        from repro import deploy_model, hpdglm, hpdkmeans, load_model, start_session
        from repro.deploy import serialize_model

    with start_session(node_count=2, instances_per_node=1) as session:
        x = session.darray(npartitions=2).fill_from(matrix[:, 1:])
        y = session.darray(npartitions=2).fill_from(matrix[:, :1])
        glm = hpdglm(y, x, family="gaussian")
        kmeans = hpdkmeans(x, 8, initial_centers=matrix[:8, 1:].copy(),
                           max_iterations=2, tolerance=0.0)
    cluster = workload.cluster
    rows = len(matrix)
    glm_s, _ = timed(lambda: glm.predict(matrix[:, 1:]))
    kmeans_s, _ = timed(lambda: kmeans.predict(matrix[:, 1:]))
    serialize_s, _ = timed(lambda: serialize_model(kmeans))
    deploys, loads = [], []
    for _ in range(REPEATS):   # each replace makes the next load a cold one
        start = time.perf_counter()
        deploy_model(cluster, kmeans, "bench_probe", replace=True)
        deploys.append(time.perf_counter() - start)
        start = time.perf_counter()
        load_model(cluster, "bench_probe")
        loads.append(time.perf_counter() - start)
    return (rows / glm_s, rows / kmeans_s, 1e3 * serialize_s,
            1e3 * median(deploys), 1e3 * median(loads))


# Each probe with the metrics it returns, in order.
PROBES = {
    probe_storage: ("storage.encode_mb_per_s", "storage.decode_mb_per_s",
                    "storage.bytes_per_row"),
    probe_sql: ("sql.parse_us", "sql.analyze_us"),
    probe_pruning: ("pruning.pruned_ratio",),
    probe_frames: ("transfer.encode_frame_mb_per_s",
                   "transfer.decode_frames_mb_per_s"),
    probe_dr: ("dr.session_start_ms", "dr.fill_mb_per_s", "dr.collect_mb_per_s"),
    probe_models: ("deploy.kernel_glm_rows_per_s", "deploy.kernel_kmeans_rows_per_s",
                   "deploy.serialize_ms", "deploy.deploy_ms", "deploy.load_model_ms"),
}

