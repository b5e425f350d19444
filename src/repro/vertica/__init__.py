"""The Vertica analog: a multi-node, disk-based, columnar MPP database with
a SQL subset, transform UDFs, an internal DFS, and the R_Models catalog."""

from repro.vertica.cluster import VerticaCluster
from repro.vertica.copy_load import copy_from_csv, write_csv
from repro.vertica.dfs import DistributedFileSystem
from repro.vertica.executor import ResultSet
from repro.vertica.models import ModelRecord, Privilege, RModelsCatalog
from repro.vertica.node import DatabaseNode, NodeResources
from repro.vertica.odbc import OdbcConnection
from repro.vertica.pipeline import PipelineConfig
from repro.vertica.segmentation import (
    HashSegmentation,
    RoundRobinSegmentation,
    SegmentationScheme,
    SkewedSegmentation,
    Unsegmented,
)
from repro.vertica.table import Table
from repro.vertica.txn import EpochClock, Snapshot, TupleMover, TupleMoverConfig
from repro.vertica.udtf import FunctionBasedUdtf, TransformFunction, UdtfContext

__all__ = [
    "VerticaCluster",
    "copy_from_csv",
    "write_csv",
    "Table",
    "ResultSet",
    "OdbcConnection",
    "PipelineConfig",
    "DatabaseNode",
    "NodeResources",
    "DistributedFileSystem",
    "RModelsCatalog",
    "ModelRecord",
    "Privilege",
    "SegmentationScheme",
    "HashSegmentation",
    "RoundRobinSegmentation",
    "SkewedSegmentation",
    "Unsegmented",
    "TransformFunction",
    "FunctionBasedUdtf",
    "UdtfContext",
    "EpochClock",
    "Snapshot",
    "TupleMover",
    "TupleMoverConfig",
]
