"""A v5 index file taken apart and put back together under a fresh CRC32, for tests that change one part."""

import json
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from qasum import vector_index

HEADER = vector_index._HEADER
FIELDS = ("magic", "version", "dim", "count", "docs", "table_len", "vector", "doc_rows", "type_codes", "locators",
          "ordinals")
COLUMNS = FIELDS[-4:]  # in file order; all but ordinals hold one entry per document


@dataclass
class IndexFile:
    header: dict
    table: bytes
    columns: dict  # name -> np.ndarray in its file type, or None for locators kept in the table
    vectors: bytes

    @classmethod
    def parse(cls, blob: bytes) -> "IndexFile":
        header = dict(zip(FIELDS, HEADER.unpack_from(blob)))
        at = HEADER.size + header["table_len"]
        table, columns = blob[HEADER.size : at], {}
        for name in COLUMNS:
            code = header[name]
            if code == vector_index._IN_TABLE:
                columns[name] = None
                continue
            length = header["count"] if name == "ordinals" else header["docs"]
            columns[name] = np.frombuffer(blob, dtype=vector_index._COLUMN_TYPES[code], count=length, offset=at).copy()
            at += columns[name].nbytes
        return cls(header, table, columns, blob[at:-4])

    @property
    def fields(self) -> dict:
        return json.loads(self.table)

    @fields.setter
    def fields(self, value: dict) -> None:
        self.table = json.dumps(value, separators=(",", ":")).encode()

    def payload(self) -> bytes:
        """The file without its CRC32; the table length and column codes are made to fit the parts."""
        header = dict(self.header, table_len=len(self.table))
        for name, column in self.columns.items():
            header[name] = vector_index._IN_TABLE if column is None else column.dtype.str[1:].encode()
        blob = HEADER.pack(*header.values()) + self.table
        blob += b"".join(column.tobytes() for column in self.columns.values() if column is not None)
        return blob + self.vectors

    def file_bytes(self) -> bytes:
        return signed(self.payload())


def signed(payload: bytes) -> bytes:
    """payload followed by its CRC32, so that load gets past the checksum to the check under test."""
    return bytes(payload) + struct.pack("<I", zlib.crc32(payload))
