"""Columnar storage substrate: typed encodings, compressed blocks, row
groups, and on-disk segment files."""

from repro.storage.column import ColumnBlock
from repro.storage.compression import CODECS, compress, decompress
from repro.storage.encoding import ColumnSchema, SqlType
from repro.storage.files import SegmentFile, SegmentFileWriter
from repro.storage.rowgroup import RowGroup

__all__ = [
    "SqlType",
    "ColumnSchema",
    "ColumnBlock",
    "RowGroup",
    "SegmentFile",
    "SegmentFileWriter",
    "compress",
    "decompress",
    "CODECS",
]
