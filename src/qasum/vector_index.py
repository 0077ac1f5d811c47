"""Exact cosine k-nearest-neighbor index: an immutable column store.

Search is an exact full scan, the semantics of FAISS ``IndexFlatIP``
(Johnson, Douze & Jegou, 2017) over cosine: one matrix-vector product
scores every row, a zero norm scores 0.0, scores are clamped to [-1, 1],
the note-type filter is a boolean row mask, and ``np.partition`` picks the
candidates at or above the k-th score (ties at the k-th score included)
before an exact sort by (-score, para_id). Every result can be checked
against a brute-force oracle.

An index is made from its columns: the manifest of the corpus it indexes
(corpus digest, segmentation digest, and per document its id, note type and
locator), per row the position of its document in the manifest and its
paragraph ordinal (so row i is paragraph ``<doc_id>#<ordinal>``), the
vectors, and the identity of the embedder that made them. Rows are in
document order. A row's note type is its document's. In memory
(``VectorIndex``) the vectors are one (n, dim) float64 matrix with its row
norms. Nothing changes a built index, so concurrent searches need no lock.
``IndexWriter`` builds the file without the matrix, from batches of rows
whose float32 vectors it spools to disk.

The file (format v3) stores the same columns, little-endian: a header
(magic ``QASUMIDX``, version u16, dim u16, row count u64, string-table
byte length u64), the string table as one UTF-8 JSON object
``{"embedder": str, "corpus_sha256": str, "segmentation": str,
"doc_ids": [str], "note_types": [str], "locators": [int | str],
"doc_rows": [int], "ordinals": [int]}`` (doc_rows counts each document's
rows), one contiguous block of count x dim float32 components, and a CRC32
over all preceding bytes. Vectors are float64 in memory and float32 on
disk, so reloaded scores agree within 1e-6; hits whose scores are closer
than that can rank in another order after a reload.

``IndexWriter``, the one writer of index files, and ``load`` stream the
float32 block ``_BLOCK_ROWS`` rows at a time through one block-sized
buffer, so an index in memory costs its float64 matrix plus one block,
never a whole-file copy. ``load`` checks the header against the file size
before it allocates anything sized from the header, and parses the table
with one ``json.loads`` only after the CRC32 matches.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Collection, Iterator, Sequence

import numpy as np

from .corpus import CorpusManifest, paragraph_id
from .errors import (
    CorruptIndexError,
    DimensionMismatchError,
    EmptyIndexError,
    IoError,
    PreconditionError,
)
from .fileio import write_atomic

MAGIC = b"QASUMIDX"
FORMAT_VERSION = 3

_PREFIX = struct.Struct("<8sH")  # magic and version, laid out alike in every version
_HEADER = struct.Struct("<8sHHQQ")
_CRC = struct.Struct("<I")
MAX_DIM = 0xFFFF  # the header stores dim as u16
_BLOCK_ROWS = 1024  # rows per step when norms are computed and the float32 block is read or written


@dataclass(frozen=True)
class SearchHit:
    para_id: str
    score: float
    rank: int


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """np.linalg.norm(matrix, axis=1), a block of rows at a time.

    Each row reduces on its own, so the result is bit-identical to the
    one-shot call, without its matrix-sized temporary.
    """
    norms = np.empty(len(matrix))
    for start in range(0, len(matrix), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        norms[block] = np.linalg.norm(matrix[block], axis=1)
    return norms


class VectorIndex:
    def __init__(
        self,
        corpus: CorpusManifest,
        row_docs: Sequence[int],
        ordinals: Sequence[int],
        matrix: np.ndarray,
        embedder: str,
    ):
        """Row i is paragraph ordinals[i] of document row_docs[i] of corpus, with vector matrix[i].

        Rows are in document order: by document position, then by ordinal,
        each paragraph once. embedder names what made the vectors.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        row_docs = np.asarray(row_docs, dtype=np.intp)
        ordinals = np.asarray(ordinals, dtype=np.intp)
        if matrix.ndim != 2 or not row_docs.shape == ordinals.shape == (len(matrix),):
            raise PreconditionError(
                f"index columns disagree: {row_docs.shape} row documents, {ordinals.shape} ordinals, "
                f"vectors of shape {matrix.shape}"
            )
        if matrix.shape[1] > MAX_DIM:
            raise PreconditionError(f"index vectors have at most {MAX_DIM} components, got {matrix.shape[1]}")
        if len(row_docs):
            step_doc, step_ordinal = np.diff(row_docs), np.diff(ordinals)
            in_order = ((step_doc > 0) | ((step_doc == 0) & (step_ordinal > 0))).all()
            if not (in_order and row_docs[0] >= 0 and row_docs[-1] < len(corpus.doc_ids) and ordinals.min() >= 0):
                raise PreconditionError(
                    f"index rows must name paragraphs of the {len(corpus.doc_ids)} corpus documents, "
                    "in document order, each once"
                )
        self._corpus = corpus
        self._row_docs = row_docs
        self._ordinals = ordinals
        self._type_names = sorted(set(corpus.note_types))
        code = {name: i for i, name in enumerate(self._type_names)}
        doc_types = np.fromiter(map(code.__getitem__, corpus.note_types), dtype=np.intp, count=len(corpus.note_types))
        self._type_codes = doc_types[row_docs]
        self._matrix = matrix
        self._norms = _row_norms(matrix)
        self._embedder = embedder

    def __len__(self) -> int:
        return len(self._matrix)

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    @property
    def embedder(self) -> str:
        """The identity of the embedder that made the vectors."""
        return self._embedder

    @property
    def corpus(self) -> CorpusManifest:
        """The manifest of the corpus the index was built from."""
        return self._corpus

    def search(self, query: np.ndarray, k: int, note_filter: Collection[str] | None = None) -> list[SearchHit]:
        """Exact top-k by cosine over the rows whose note type is in note_filter (all rows for None).

        Equal scores are broken by para_id ascending; ranks count from 1. Two
        vectors with the same exact cosine can score an ulp apart, and then rank
        by score.
        """
        if k < 1:
            raise PreconditionError(f"k must be positive, got {k}")
        if not len(self):
            raise EmptyIndexError("search on an empty index")
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (self.dim,):
            raise DimensionMismatchError(
                f"query dim {query.shape[0] if query.ndim == 1 else query.shape} "
                f"does not match index dim {self.dim}"
            )
        denom = self._norms * float(np.linalg.norm(query))
        scores = np.zeros(len(denom))
        np.divide(self._matrix @ query, denom, out=scores, where=denom != 0.0)
        np.clip(scores, -1.0, 1.0, out=scores)

        if note_filter is None:
            rows = np.arange(len(scores))
        else:
            allowed = np.array([name in note_filter for name in self._type_names], dtype=bool)
            rows = np.flatnonzero(allowed[self._type_codes])
        candidates = scores[rows]
        if k < len(rows):
            kth = np.partition(candidates, len(rows) - k)[len(rows) - k]
            at_least_kth = candidates >= kth
            rows, candidates = rows[at_least_kth], candidates[at_least_kth]
        doc_ids = self._corpus.doc_ids
        para_ids = [
            paragraph_id(doc_ids[d], ordinal)
            for d, ordinal in zip(self._row_docs[rows].tolist(), self._ordinals[rows].tolist())
        ]
        scored = sorted(zip(candidates.tolist(), para_ids), key=lambda hit: (-hit[0], hit[1]))
        return [
            SearchHit(para_id=pid, score=score, rank=rank)
            for rank, (score, pid) in enumerate(scored[:k], start=1)
        ]

    @classmethod
    def load(cls, path: str | Path) -> "VectorIndex":
        """Read a v3 file; a damaged one is a CorruptIndexError and an unreadable one an IoError, naming path."""
        try:
            with open(path, "rb") as file:
                table_bytes, matrix = _read_checked(file, path)
        except OSError as exc:
            raise IoError(f"cannot read index from {path}: {exc}") from exc

        try:
            table = json.loads(table_bytes.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise CorruptIndexError(f"index file {path} has a string table that is not valid UTF-8: {exc}") from exc
        except ValueError as exc:
            raise CorruptIndexError(f"index file {path} has a string table that is not JSON: {exc}") from exc
        count = len(matrix)
        fields = table if isinstance(table, dict) else {}
        embedder, sha256, segmentation = (fields.get(key) for key in ("embedder", "corpus_sha256", "segmentation"))
        doc_ids, note_types, locators, doc_rows, ordinals = (
            fields.get(key) for key in ("doc_ids", "note_types", "locators", "doc_rows", "ordinals")
        )
        well_typed = (
            all(isinstance(value, str) for value in (embedder, sha256, segmentation))
            and _is_list_of(doc_ids, {str})
            and _is_list_of(note_types, {str})
            and _is_list_of(locators, {int, str})
            and _is_list_of(doc_rows, {int})
            and _is_list_of(ordinals, {int}, count)
            and min(doc_rows, default=0) >= 0
            and sum(doc_rows) == count
        )
        if not well_typed:
            raise CorruptIndexError(
                f"index file {path} has a malformed string table (expected an embedder name, the corpus "
                f"and segmentation digests, per-document doc_ids, note types, locators and row counts, "
                f"and {count} paragraph ordinals)"
            )
        try:
            corpus = CorpusManifest(sha256, segmentation, doc_ids, note_types, locators)
            row_docs = np.repeat(np.arange(len(doc_rows)), doc_rows)
            return cls(corpus, row_docs, ordinals, matrix, embedder)
        except (PreconditionError, ValueError, OverflowError) as exc:
            raise CorruptIndexError(f"index file {path} has a malformed string table: {exc}") from exc


class IndexWriter:
    """An index file built from batches of rows, for a corpus read one chunk of documents at a time.

    ``add`` keeps each row's document position and paragraph ordinal, and
    appends its vector as ``<f4`` to a spool: a temporary file in the
    index's directory, unnamed where the system allows (a named one is
    ``.<index name>.*.spool.tmp``, unlinked at once), so it needs the free
    space of one float32 block there. ``write`` then writes the v3 file,
    reading the spool back ``_BLOCK_ROWS`` rows at a time through one
    buffer, so the writer's memory is the row columns plus one block.
    ``close`` (or leaving the ``with`` block) removes the spool, whether or
    not ``write`` ran.
    """

    def __init__(self, path: str | Path, dim: int, embedder: str):
        self._path = Path(path)
        self._dim = dim
        self._embedder = embedder
        self._row_docs: list[int] = []
        self._ordinals: list[int] = []
        try:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._spool = tempfile.TemporaryFile(
                dir=self._path.parent, prefix=f".{self._path.name}.", suffix=".spool.tmp"
            )
        except OSError as exc:
            raise IoError(f"cannot write {self._path}: {exc}") from exc

    def __enter__(self) -> "IndexWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._spool.close()

    def add(self, row_docs: Sequence[int], ordinals: Sequence[int], vectors: np.ndarray) -> None:
        """Append rows after the rows added so far, in document order, with their vectors."""
        if not len(row_docs) == len(ordinals) == len(vectors) or np.shape(vectors)[1:] != (self._dim,):
            raise PreconditionError(
                f"index rows disagree: {len(row_docs)} row documents, {len(ordinals)} ordinals, "
                f"vectors of shape {np.shape(vectors)} for dim {self._dim}"
            )
        try:
            self._spool.write(np.ascontiguousarray(vectors, dtype="<f4"))
        except OSError as exc:
            raise IoError(f"cannot write {self._path}: {exc}") from exc
        self._row_docs += row_docs
        self._ordinals += ordinals

    def write(self, corpus: CorpusManifest) -> None:
        """Write the index of the rows added, over corpus, atomically to the path.

        The same rows over the same corpus always give the same bytes. Each
        block read back from the spool is written before the next is read.
        """
        count = len(self._ordinals)
        doc_rows = np.bincount(np.asarray(self._row_docs, dtype=np.intp), minlength=len(corpus.doc_ids))
        table = json.dumps(
            {
                "embedder": self._embedder,
                "corpus_sha256": corpus.sha256,
                "segmentation": corpus.segmentation,
                "doc_ids": list(corpus.doc_ids),
                "note_types": list(corpus.note_types),
                "locators": list(corpus.locators),
                "doc_rows": doc_rows.tolist(),
                "ordinals": self._ordinals,
            },
            separators=(",", ":"),
        ).encode("utf-8")
        header = _HEADER.pack(MAGIC, FORMAT_VERSION, self._dim, count, len(table))

        def chunks() -> Iterator[bytes | np.ndarray]:
            crc = zlib.crc32(table, zlib.crc32(header))
            yield header
            yield table
            self._spool.seek(0)  # flushes the spool, so a failed spool write fails the index write
            buffer = np.empty((min(count, _BLOCK_ROWS), self._dim), dtype="<f4")
            for start in range(0, count, _BLOCK_ROWS):
                block = buffer[: count - start]
                _read_into(self._spool, block, self._path)
                crc = zlib.crc32(block, crc)
                yield block
            yield _CRC.pack(crc)

        write_atomic(self._path, chunks())


def _read_checked(file: BinaryIO, path: str | Path) -> tuple[bytearray, np.ndarray]:
    """Check and read an open v3 file: its string table bytes and its (count, dim) float64 matrix.

    The header is checked against the file size before anything sized from
    the header is allocated. The float32 block is read a block of rows at a
    time into one reused buffer, continuing the CRC32 and promoting each
    block into the matrix; the stored CRC32 must then match.
    """
    size = os.fstat(file.fileno()).st_size
    if size < _PREFIX.size:
        raise CorruptIndexError(f"index file {path} is truncated (too short for header)")
    head = _read_exact(file, min(size, _HEADER.size), path)
    magic, version = _PREFIX.unpack_from(head)
    if magic != MAGIC:
        raise CorruptIndexError(f"index file {path} has bad magic bytes {magic!r}")
    if version in (1, 2):
        raise CorruptIndexError(
            f"index file {path} has format version {version}, which is no longer read; "
            "rebuild it with `qasum index`"
        )
    if version != FORMAT_VERSION:
        raise CorruptIndexError(f"index file {path} has unsupported version {version}")
    if size < _HEADER.size + _CRC.size:
        raise CorruptIndexError(f"index file {path} is truncated (too short for header)")
    _, _, dim, count, table_len = _HEADER.unpack(head)
    end = _HEADER.size + table_len + 4 * dim * count
    if end + _CRC.size > size:
        raise CorruptIndexError(f"index file {path} is truncated")
    if end + _CRC.size < size:
        raise CorruptIndexError(f"index file {path} has unexpected trailing bytes")

    table = _read_exact(file, table_len, path)
    crc = zlib.crc32(table, zlib.crc32(head))
    matrix = np.empty((count, dim))
    buffer = np.empty((min(count, _BLOCK_ROWS), dim), dtype="<f4")
    for start in range(0, count, _BLOCK_ROWS):
        block = buffer[: count - start]
        _read_into(file, block, path)
        crc = zlib.crc32(block, crc)
        matrix[start : start + len(block)] = block
    (stored_crc,) = _CRC.unpack(_read_exact(file, _CRC.size, path))
    if crc != stored_crc:
        raise CorruptIndexError(f"index file {path} failed its checksum (CRC32 mismatch)")
    return table, matrix


def _read_exact(file: BinaryIO, size: int, path: str | Path) -> bytearray:
    data = bytearray(size)
    _read_into(file, data, path)
    return data


def _read_into(file: BinaryIO, buffer, path: str | Path) -> None:
    """Fill the C-contiguous buffer from file; a file that ends first is truncated."""
    view = memoryview(buffer).cast("B")
    filled = 0
    while filled < len(view):
        got = file.readinto(view[filled:])
        if not got:
            raise CorruptIndexError(f"index file {path} is truncated")
        filled += got


def _is_list_of(value, types: set, count: int | None = None) -> bool:
    return isinstance(value, list) and count in (None, len(value)) and set(map(type, value)) <= types
