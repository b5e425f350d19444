"""Shared fixtures: a small database cluster and a Distributed R session.

Also wires in the reprolint runtime race probe: with REPROLINT_LOCK_CHECK=1
in the environment, ``threading.Lock`` is replaced (before any engine object
is constructed) by an instrumented lock that fails the suite on lock-order
inversions.  Off by default; CI runs it as a separate race-probe job.
"""

from __future__ import annotations

import sys
from pathlib import Path

# The reprolint package lives in tools/, outside the installed src/ tree.
_TOOLS_DIR = str(Path(__file__).resolve().parent.parent / "tools")
if _TOOLS_DIR not in sys.path:
    sys.path.insert(0, _TOOLS_DIR)

from reprolint import runtime as _reprolint_runtime  # noqa: E402

# Must happen before repro imports create any module-level locks.
_reprolint_runtime.maybe_install_from_env()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.dr import start_session  # noqa: E402
from repro.vertica import HashSegmentation, VerticaCluster  # noqa: E402


@pytest.fixture
def cluster():
    """A 3-node in-memory database cluster."""
    return VerticaCluster(node_count=3)


@pytest.fixture
def data_dir():
    """The ``VerticaCluster(data_dir=...)`` of storage-mode-agnostic tests:
    ``None`` keeps read-optimized storage in memory."""
    return None


class OnDisk:
    """Mixin that reruns a test class over file-backed storage:
    ``class TestFooOnDisk(OnDisk, TestFoo)`` inherits every test of
    ``TestFoo`` with ``data_dir`` pointing at a fresh directory."""

    @pytest.fixture
    def data_dir(self, tmp_path):
        return tmp_path


@pytest.fixture
def session():
    """A 3-worker Distributed R session (2 R instances each)."""
    with start_session(node_count=3, instances_per_node=2) as s:
        yield s


@pytest.fixture
def loaded_cluster(cluster):
    """The cluster with a hash-segmented numeric table ``pts`` (900 rows)."""
    rng = np.random.default_rng(7)
    n = 900
    columns = {
        "k": rng.integers(0, 10_000, n),
        "a": rng.normal(size=n),
        "b": rng.normal(size=n),
        "y": rng.normal(size=n),
    }
    cluster.create_table_like("pts", columns, HashSegmentation("k"))
    cluster.bulk_load("pts", columns)
    return cluster
