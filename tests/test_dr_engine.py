"""Tests for the Distributed R engine: data structures and sessions."""

import numpy as np
import pytest

from repro.dr import DRSession, clone, partitionsize, start_session
from repro.errors import PartitionError, SessionError


class TestDArrayFlexible:
    def test_declaration_reserves_no_memory(self, session):
        array = session.darray(npartitions=3)
        assert array.npartitions == 3
        assert not array.is_filled
        assert session.master.total_bytes() == 0

    def test_unequal_partitions(self, session):
        array = session.darray(npartitions=3)
        array.fill_partition(0, np.ones((1, 2)))
        array.fill_partition(1, np.ones((3, 2)))
        array.fill_partition(2, np.ones((2, 2)))
        assert array.shape == (6, 2)
        assert array.partition_shapes() == [(1, 2), (3, 2), (2, 2)]

    def test_collect_preserves_row_order(self, session):
        array = session.darray(npartitions=2)
        array.fill_partition(0, np.array([[1.0], [2.0]]))
        array.fill_partition(1, np.array([[3.0]]))
        assert np.array_equal(array.collect().ravel(), [1.0, 2.0, 3.0])

    def test_column_conformability_enforced(self, session):
        array = session.darray(npartitions=2)
        array.fill_partition(0, np.ones((2, 3)))
        with pytest.raises(PartitionError, match="column"):
            array.fill_partition(1, np.ones((2, 4)))

    def test_vector_fill_becomes_column(self, session):
        array = session.darray(npartitions=1)
        array.fill_partition(0, np.arange(5.0))
        assert array.shape == (5, 1)

    def test_refill_partition_allowed(self, session):
        array = session.darray(npartitions=1)
        array.fill_partition(0, np.ones((2, 2)))
        array.fill_partition(0, np.zeros((5, 2)))
        assert array.shape == (5, 2)

    def test_nrow_unknown_until_filled(self, session):
        array = session.darray(npartitions=2)
        array.fill_partition(0, np.ones((2, 2)))
        with pytest.raises(PartitionError):
            _ = array.nrow

    def test_collect_unfilled_rejected(self, session):
        array = session.darray(npartitions=2)
        with pytest.raises(PartitionError):
            array.collect()

    def test_fill_from_splits_evenly(self, session):
        array = session.darray(npartitions=3)
        array.fill_from(np.arange(12.0).reshape(6, 2))
        assert array.shape == (6, 2)
        assert np.array_equal(array.collect(), np.arange(12.0).reshape(6, 2))

    def test_out_of_range_partition(self, session):
        array = session.darray(npartitions=2)
        with pytest.raises(PartitionError):
            array.fill_partition(5, np.ones((1, 1)))

    def test_free_releases_memory(self, session):
        array = session.darray(npartitions=2)
        array.fill_from(np.ones((10, 4)))
        assert session.master.total_bytes() > 0
        array.free()
        assert session.master.total_bytes() == 0
        assert not array.is_filled

    def test_3d_rejected(self, session):
        array = session.darray(npartitions=1)
        with pytest.raises(PartitionError):
            array.fill_partition(0, np.ones((2, 2, 2)))


class TestDArrayLegacy:
    def test_grid_blocks(self, session):
        array = session.darray(dim=(6, 4), blocks=(2, 2))
        assert array.npartitions == 6  # 3 row blocks x 2 col blocks
        assert array.is_legacy
        assert array.shape == (6, 4)

    def test_zero_filled_at_declaration(self, session):
        array = session.darray(dim=(4, 2), blocks=(2, 2))
        assert np.array_equal(array.collect(), np.zeros((4, 2)))

    def test_trailing_block_smaller(self, session):
        array = session.darray(dim=(5, 2), blocks=(2, 2))
        shapes = array.partition_shapes()
        assert shapes[-1] == (1, 2)

    def test_exact_block_shape_enforced(self, session):
        array = session.darray(dim=(4, 2), blocks=(2, 2))
        with pytest.raises(PartitionError):
            array.fill_partition(0, np.ones((3, 2)))

    def test_fill_from_roundtrip(self, session):
        data = np.arange(24.0).reshape(6, 4)
        array = session.darray(dim=(6, 4), blocks=(2, 2))
        array.fill_from(data)
        assert np.array_equal(array.collect(), data)

    def test_dim_and_npartitions_mutually_exclusive(self, session):
        with pytest.raises(PartitionError):
            session.darray(npartitions=2, dim=(4, 2), blocks=(2, 2))
        with pytest.raises(PartitionError):
            session.darray()

    def test_blocks_required_with_dim(self, session):
        with pytest.raises(PartitionError):
            session.darray(dim=(4, 2))

    def test_block_larger_than_dim_rejected(self, session):
        with pytest.raises(PartitionError):
            session.darray(dim=(2, 2), blocks=(4, 2))

    def test_clone_of_legacy_rejected(self, session):
        array = session.darray(dim=(4, 2), blocks=(2, 2))
        with pytest.raises(PartitionError):
            clone(array)


class TestTable1Helpers:
    def test_partitionsize_single(self, session):
        array = session.darray(npartitions=2)
        array.fill_partition(0, np.ones((3, 2)))
        array.fill_partition(1, np.ones((1, 2)))
        assert partitionsize(array, 0) == (3, 2)
        assert partitionsize(array, 1) == (1, 2)

    def test_partitionsize_matrix(self, session):
        array = session.darray(npartitions=2)
        array.fill_from(np.ones((4, 2)))
        sizes = partitionsize(array)
        assert sizes.shape == (2, 2)
        assert sizes.sum(axis=0)[0] == 4

    def test_partitionsize_unfilled_rejected(self, session):
        array = session.darray(npartitions=2)
        with pytest.raises(PartitionError):
            partitionsize(array)

    def test_clone_structure_and_colocation(self, session):
        array = session.darray(npartitions=3)
        array.fill_partition(0, np.ones((1, 4)))
        array.fill_partition(1, np.ones((5, 4)))
        array.fill_partition(2, np.ones((2, 4)))
        cloned = clone(array)
        assert cloned.partition_shapes() == array.partition_shapes()
        for i in range(3):
            assert cloned.worker_of(i) == array.worker_of(i)

    def test_clone_ncol_override(self, session):
        array = session.darray(npartitions=2)
        array.fill_from(np.ones((6, 4)))
        vector = clone(array, ncol=1, fill=7.0)
        assert vector.ncol == 1
        assert np.all(vector.collect() == 7.0)
        assert vector.nrow == 6

    def test_clone_unfilled_rejected(self, session):
        array = session.darray(npartitions=2)
        with pytest.raises(PartitionError):
            clone(array)


class TestDFrame:
    def test_fill_and_collect(self, session):
        frame = session.dframe(npartitions=2)
        frame.fill_partition(0, {"x": np.arange(3),
                                 "s": np.array(["a", "b", "c"], dtype=object)})
        frame.fill_partition(1, {"x": np.arange(2),
                                 "s": np.array(["d", "e"], dtype=object)})
        collected = frame.collect()
        assert list(collected["s"]) == ["a", "b", "c", "d", "e"]
        assert frame.nrow == 5

    def test_column_names_conformability(self, session):
        frame = session.dframe(npartitions=2)
        frame.fill_partition(0, {"x": np.arange(3)})
        with pytest.raises(PartitionError):
            frame.fill_partition(1, {"y": np.arange(3)})

    def test_ragged_partition_rejected(self, session):
        frame = session.dframe(npartitions=1)
        with pytest.raises(PartitionError):
            frame.fill_partition(0, {"x": np.arange(3), "y": np.arange(2)})

    def test_column_array(self, session):
        frame = session.dframe(npartitions=2)
        frame.fill_partition(0, {"x": np.arange(3)})
        frame.fill_partition(1, {"x": np.arange(3, 5)})
        assert np.array_equal(frame.column_array("x"), np.arange(5))

    def test_unknown_column_rejected(self, session):
        frame = session.dframe(npartitions=1)
        frame.fill_partition(0, {"x": np.arange(3)})
        with pytest.raises(PartitionError):
            frame.column_array("nope")


class TestDList:
    def test_fill_append_collect(self, session):
        dlist = session.dlist(npartitions=2)
        dlist.fill_partition(0, [1, 2])
        dlist.append_to_partition(0, 3)
        dlist.fill_partition(1, ["a"])
        assert dlist.collect() == [1, 2, 3, "a"]
        assert dlist.total_items == 4

    def test_append_to_empty_partition(self, session):
        dlist = session.dlist(npartitions=1)
        dlist.append_to_partition(0, "first")
        assert dlist.collect() == ["first"]

    def test_non_list_rejected(self, session):
        dlist = session.dlist(npartitions=1)
        with pytest.raises(PartitionError):
            dlist.fill_partition(0, (1, 2))

    def test_partial_collect_skips_empty(self, session):
        dlist = session.dlist(npartitions=3)
        dlist.fill_partition(1, ["only"])
        assert dlist.collect() == ["only"]


class TestExecution:
    def test_map_partitions_gathers_in_order(self, session):
        array = session.darray(npartitions=3)
        array.fill_from(np.arange(9.0).reshape(9, 1))
        sums = array.map_partitions(lambda i, part: float(part.sum()))
        assert sum(sums) == pytest.approx(36.0)
        assert len(sums) == 3

    def test_map_partitions_receives_index(self, session):
        array = session.darray(npartitions=3)
        array.fill_from(np.ones((6, 1)))
        indices = array.map_partitions(lambda i, part: i)
        assert indices == [0, 1, 2]

    def test_map_with_copartitioned_arrays(self, session):
        x = session.darray(npartitions=2)
        x.fill_from(np.ones((4, 2)))
        y = clone(x, ncol=1, fill=2.0)
        dots = x.map_partitions(lambda i, xs, ys: float((xs.sum(axis=1) * ys.ravel()).sum()), y)
        assert sum(dots) == pytest.approx(16.0)

    def test_partition_count_mismatch_rejected(self, session):
        x = session.darray(npartitions=2)
        x.fill_from(np.ones((4, 1)))
        y = session.darray(npartitions=3)
        y.fill_from(np.ones((4, 1)))
        with pytest.raises(PartitionError):
            x.map_partitions(lambda i, a, b: None, y)

    def test_update_partitions(self, session):
        array = session.darray(npartitions=2)
        array.fill_from(np.ones((4, 2)))
        array.update_partitions(lambda i, part: part * 10)
        assert np.all(array.collect() == 10.0)

    def test_exception_in_task_propagates(self, session):
        array = session.darray(npartitions=2)
        array.fill_from(np.ones((4, 1)))

        def boom(i, part):
            raise ValueError("task failed")

        with pytest.raises(ValueError, match="task failed"):
            array.map_partitions(boom)

    def test_foreach(self, session):
        result = session.foreach(range(5), lambda i: i * i)
        assert result == [0, 1, 4, 9, 16]

    def test_remote_fetch_counted(self, session):
        x = session.darray(npartitions=2, worker_assignment=[0, 1])
        x.fill_from(np.ones((4, 1)))
        y = session.darray(npartitions=2, worker_assignment=[1, 2])
        y.fill_from(np.ones((4, 1)))
        before = session.metrics.counter("dr_remote_partition_fetches").value
        x.map_partitions(lambda i, a, b: None, y)
        assert session.metrics.counter("dr_remote_partition_fetches").value > before


class TestSessionLifecycle:
    def test_start_session_shape(self):
        with start_session(node_count=2, instances_per_node=4) as session:
            assert session.node_count == 2
            assert session.total_instances == 8

    def test_memory_limit_enforced(self):
        with start_session(node_count=1, instances_per_node=1,
                           memory_limit_per_worker=1000) as session:
            array = session.darray(npartitions=1)
            with pytest.raises(MemoryError):
                array.fill_partition(0, np.ones((1000, 10)))

    def test_shutdown_rejects_new_work(self):
        session = start_session(node_count=1, instances_per_node=1)
        session.shutdown()
        with pytest.raises(SessionError):
            session.darray(npartitions=1)

    def test_double_shutdown_safe(self):
        session = start_session(node_count=1, instances_per_node=1)
        session.shutdown()
        session.shutdown()

    def test_invalid_shapes_rejected(self):
        with pytest.raises(SessionError):
            DRSession(node_count=0)
        with pytest.raises(SessionError):
            DRSession(node_count=1, instances_per_node=0)

    def test_worker_assignment_validation(self, session):
        with pytest.raises(PartitionError):
            session.darray(npartitions=2, worker_assignment=[0])
        with pytest.raises(PartitionError):
            session.darray(npartitions=1, worker_assignment=[99])

    def test_memory_manager_tracks_partition_map(self, session):
        array = session.darray(npartitions=3)
        array.fill_from(np.ones((6, 1)))
        mapping = session.master.partition_map()
        assert array.object_id in mapping
        assert len(mapping[array.object_id]) == 3
