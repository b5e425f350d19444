"""The Distributed R analog: master/worker engine with distributed arrays,
data frames, and lists supporting unequal partition sizes (paper §4)."""

from repro.dr.darray import DArray, clone, partitionsize
from repro.dr.dframe import DFrame
from repro.dr.dlist import DList
from repro.dr.dobject import DistributedObject, PartitionInfo
from repro.dr.master import Master
from repro.dr.session import DRSession, start_session
from repro.dr.worker import ShmBuffer, Worker

__all__ = [
    "DRSession",
    "start_session",
    "DArray",
    "DFrame",
    "DList",
    "DistributedObject",
    "PartitionInfo",
    "partitionsize",
    "clone",
    "Master",
    "Worker",
    "ShmBuffer",
]
