"""Exact cosine k-nearest-neighbor index with binary persistence.

Search is an exact full scan, the semantics of FAISS ``IndexFlatIP``
(Johnson, Douze & Jegou, 2017) over cosine: one matrix-vector product
scores every row, a zero norm scores 0.0, scores are clamped to [-1, 1],
the note-type filter is a boolean row mask, and ``np.partition`` picks the
candidates at or above the k-th score (ties at the k-th score included)
before an exact sort by (-score, para_id). Every result can be checked
against a brute-force oracle.

The on-disk format is little-endian: magic ``QASUMIDX``, version u16, dim
u16, entry count u64, then one record per entry (length-prefixed para_id,
doc_id and note_type, float32 vector components), and a trailing CRC32
over all preceding bytes. Vectors are float64 in memory and float32 on
disk, so reloaded scores agree within 1e-6 and rankings are preserved.
``load`` walks the records with ``struct.unpack_from`` and builds the
matrix from one ``np.frombuffer``.

Concurrency: many readers or one writer. insert/save take the internal
lock; search only reads the cached matrix (rebuilt under the lock).
"""

from __future__ import annotations

import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Collection

import numpy as np

from .errors import (
    CorruptIndexError,
    DimensionMismatchError,
    EmptyIndexError,
    IoError,
    PreconditionError,
)

MAGIC = b"QASUMIDX"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<8sHHQ")
MAX_DIM = 0xFFFF  # the header stores dim as u16
_U16 = struct.Struct("<H")
_U8 = struct.Struct("<B")
_NORM_BLOCK_ROWS = 1024

NoteFilter = Collection[str] | Callable[[str], bool] | None


@dataclass(frozen=True)
class IndexEntry:
    para_id: str
    vector: np.ndarray
    doc_id: str
    note_type: str


@dataclass(frozen=True)
class SearchHit:
    para_id: str
    score: float
    rank: int


@dataclass(frozen=True)
class _Columns:
    """The search-time view of the entries: one row per entry, in insertion order."""

    matrix: np.ndarray  # (n, dim) float64
    norms: np.ndarray  # (n,) row L2 norms
    type_names: list[str]  # distinct note types
    type_codes: np.ndarray  # (n,) row -> index into type_names

    @classmethod
    def build(cls, matrix: np.ndarray, note_types: list[str]) -> "_Columns":
        codes: dict[str, int] = {}
        type_codes = np.fromiter(
            (codes.setdefault(nt, len(codes)) for nt in note_types), dtype=np.intp, count=len(note_types)
        )
        return cls(matrix, _row_norms(matrix), list(codes), type_codes)

    def row_mask(self, note_filter: NoteFilter) -> np.ndarray:
        """Rows whose note type passes the filter; a callable runs once per distinct type."""
        if callable(note_filter):
            allowed = [bool(note_filter(name)) for name in self.type_names]
        else:
            wanted = set(note_filter)
            allowed = [name in wanted for name in self.type_names]
        return np.array(allowed, dtype=bool)[self.type_codes]


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """np.linalg.norm(matrix, axis=1), a block of rows at a time.

    Each row reduces on its own, so the result is bit-identical to the
    one-shot call, without its matrix-sized temporary.
    """
    norms = np.empty(len(matrix))
    for start in range(0, len(matrix), _NORM_BLOCK_ROWS):
        block = slice(start, start + _NORM_BLOCK_ROWS)
        norms[block] = np.linalg.norm(matrix[block], axis=1)
    return norms


class VectorIndex:
    def __init__(self, dim: int | None = None):
        self._dim = dim
        self._ids: list[str] = []
        self._pos: dict[str, int] = {}
        self._vectors: list[np.ndarray] = []
        self._doc_ids: list[str] = []
        self._note_types: list[str] = []
        self._columns: _Columns | None = None
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def dim(self) -> int | None:
        return self._dim

    def insert(self, entry: IndexEntry) -> None:
        """Add an entry; re-inserting an existing para_id replaces its vector."""
        vector = np.asarray(entry.vector, dtype=np.float64)
        if vector.ndim != 1:
            raise PreconditionError("index vectors must be 1-D")
        if vector.shape[0] > MAX_DIM:
            raise PreconditionError(f"index vectors have at most {MAX_DIM} components, got {vector.shape[0]}")
        with self._lock:
            if self._dim is None:
                self._dim = int(vector.shape[0])
            elif vector.shape[0] != self._dim:
                raise DimensionMismatchError(
                    f"entry dim {vector.shape[0]} does not match index dim {self._dim}"
                )
            if entry.para_id in self._pos:
                i = self._pos[entry.para_id]
                self._vectors[i] = vector
                self._doc_ids[i] = entry.doc_id
                self._note_types[i] = entry.note_type
            else:
                self._pos[entry.para_id] = len(self._ids)
                self._ids.append(entry.para_id)
                self._vectors.append(vector)
                self._doc_ids.append(entry.doc_id)
                self._note_types.append(entry.note_type)
            self._columns = None

    def _ensure_columns(self) -> _Columns:
        with self._lock:
            if self._columns is None:
                self._columns = _Columns.build(np.vstack(self._vectors), self._note_types)
            return self._columns

    def search(self, query: np.ndarray, k: int, note_filter: NoteFilter = None) -> list[SearchHit]:
        """Exact top-k by cosine; ties broken by para_id ascending, ranks from 1."""
        if k < 1:
            raise PreconditionError(f"k must be positive, got {k}")
        if not self._ids:
            raise EmptyIndexError("search on an empty index")
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (self._dim,):
            raise DimensionMismatchError(
                f"query dim {query.shape[0] if query.ndim == 1 else query.shape} "
                f"does not match index dim {self._dim}"
            )
        cols = self._ensure_columns()
        denom = cols.norms * float(np.linalg.norm(query))
        scores = np.zeros(len(denom))
        np.divide(cols.matrix @ query, denom, out=scores, where=denom != 0.0)
        np.clip(scores, -1.0, 1.0, out=scores)

        if note_filter is None:
            rows = np.arange(len(scores))
        else:
            rows = np.flatnonzero(cols.row_mask(note_filter))
        candidates = scores[rows]
        if k < len(rows):
            kth = np.partition(candidates, len(rows) - k)[len(rows) - k]
            at_least_kth = candidates >= kth
            rows, candidates = rows[at_least_kth], candidates[at_least_kth]
        scored = sorted(
            zip(candidates.tolist(), (self._ids[i] for i in rows.tolist())),
            key=lambda hit: (-hit[0], hit[1]),
        )
        return [
            SearchHit(para_id=pid, score=score, rank=rank)
            for rank, (score, pid) in enumerate(scored[:k], start=1)
        ]

    def entries(self) -> list[IndexEntry]:
        """Snapshot of all entries in insertion order."""
        return [
            IndexEntry(pid, self._vectors[i].copy(), self._doc_ids[i], self._note_types[i])
            for i, pid in enumerate(self._ids)
        ]

    def save(self, path: str | Path) -> None:
        with self._lock:
            dim = self._dim if self._dim is not None else 0
            parts = [_HEADER.pack(MAGIC, FORMAT_VERSION, dim, len(self._ids))]
            for i, para_id in enumerate(self._ids):
                parts.append(_pack_str16(para_id))
                parts.append(_pack_str16(self._doc_ids[i]))
                parts.append(_pack_str8(self._note_types[i]))
                parts.append(self._vectors[i].astype("<f4").tobytes())
            payload = b"".join(parts)
        blob = payload + struct.pack("<I", zlib.crc32(payload))
        try:
            Path(path).write_bytes(blob)
        except OSError as exc:
            raise IoError(f"cannot write index to {path}: {exc}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "VectorIndex":
        try:
            blob = Path(path).read_bytes()
        except OSError as exc:
            raise IoError(f"cannot read index from {path}: {exc}") from exc

        if len(blob) < _HEADER.size + 4:
            raise CorruptIndexError(f"index file {path} is truncated (too short for header)")
        magic, version, dim, count = _HEADER.unpack_from(blob, 0)
        if magic != MAGIC:
            raise CorruptIndexError(f"index file {path} has bad magic bytes {magic!r}")
        if version != FORMAT_VERSION:
            raise CorruptIndexError(f"index file {path} has unsupported version {version}")

        end = len(blob) - 4
        record_bytes = 4 * dim
        if count * (_U16.size * 2 + _U8.size + record_bytes) > end - _HEADER.size:
            raise CorruptIndexError(f"index file {path} is truncated mid-record")

        index = cls(dim=dim if dim > 0 else None)
        ids, doc_ids, note_types = index._ids, index._doc_ids, index._note_types
        vectors = bytearray(count * record_bytes)
        view = memoryview(blob)
        u16, u8 = _U16.unpack_from, _U8.unpack_from
        offset = _HEADER.size
        try:
            for row in range(count):
                # Record: u16 len, para_id, u16 len, doc_id, u8 len, note_type, vector.
                (n_para,) = u16(blob, offset)
                doc_at = offset + 2 + n_para + 2
                (n_doc,) = u16(blob, doc_at - 2)
                type_at = doc_at + n_doc + 1
                (n_type,) = u8(blob, type_at - 1)
                vector_at = type_at + n_type
                if vector_at + record_bytes > end:
                    raise CorruptIndexError(f"index file {path} is truncated mid-record")
                ids.append(blob[offset + 2 : doc_at - 2].decode("utf-8"))
                doc_ids.append(blob[doc_at : type_at - 1].decode("utf-8"))
                note_types.append(blob[type_at:vector_at].decode("utf-8"))
                vectors[row * record_bytes : (row + 1) * record_bytes] = view[vector_at : vector_at + record_bytes]
                offset = vector_at + record_bytes
        except struct.error as exc:
            raise CorruptIndexError(f"index file {path} is truncated mid-record") from exc
        except UnicodeDecodeError as exc:
            raise CorruptIndexError(f"index file {path} has a record that is not valid UTF-8: {exc}") from exc
        if offset != end:
            raise CorruptIndexError(f"index file {path} has unexpected trailing bytes")
        (stored_crc,) = struct.unpack_from("<I", blob, end)
        if zlib.crc32(view[:end]) != stored_crc:
            raise CorruptIndexError(f"index file {path} failed its checksum (CRC32 mismatch)")
        index._pos = {para_id: i for i, para_id in enumerate(ids)}
        matrix = np.frombuffer(vectors, dtype="<f4").reshape(count, dim).astype(np.float64)
        index._vectors = list(matrix)
        index._columns = _Columns.build(matrix, note_types)
        return index


def _pack_str16(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise PreconditionError(f"string too long for index record: {s[:40]!r}...")
    return struct.pack("<H", len(raw)) + raw


def _pack_str8(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFF:
        raise PreconditionError(f"string too long for index record: {s[:40]!r}...")
    return struct.pack("<B", len(raw)) + raw
