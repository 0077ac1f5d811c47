"""Exact cosine k-nearest-neighbor index: an immutable column store.

Search is an exact full scan, the semantics of FAISS ``IndexFlatIP``
(Johnson, Douze & Jegou, 2017) over cosine: one matrix-vector product
scores every row, a zero norm scores 0.0, scores are clamped to [-1, 1],
the note-type filter is a boolean row mask, and ``np.partition`` picks the
candidates at or above the k-th score (ties at the k-th score included)
before an exact sort by (-score, para_id). Every result can be checked
against a brute-force oracle.

An index is built once from its columns: the manifest of the corpus it
indexes (corpus digest, segmentation digest, and per document its id, note
type and locator), per row the position of its document in the manifest and
its paragraph ordinal (so row i is paragraph ``<doc_id>#<ordinal>``), one
(n, dim) float64 matrix with its row norms, and the identity of the
embedder that made the vectors. Rows are in document order. A row's note
type is its document's. Nothing changes a built index, so concurrent
searches need no lock.

The file (format v3) stores the same columns, little-endian: a header
(magic ``QASUMIDX``, version u16, dim u16, row count u64, string-table
byte length u64), the string table as one UTF-8 JSON object
``{"embedder": str, "corpus_sha256": str, "segmentation": str,
"doc_ids": [str], "note_types": [str], "locators": [int | str],
"doc_rows": [int], "ordinals": [int]}`` (doc_rows counts each document's
rows), one contiguous block of count x dim float32 components, and a CRC32
over all preceding bytes. Vectors are float64 in memory and float32 on
disk, so reloaded scores agree within 1e-6 and rankings are preserved.
``load`` parses the table with one ``json.loads`` and the block with one
``np.frombuffer``.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Sequence

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
_NORM_BLOCK_ROWS = 1024


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
    for start in range(0, len(matrix), _NORM_BLOCK_ROWS):
        block = slice(start, start + _NORM_BLOCK_ROWS)
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

        Ties are broken by para_id ascending; ranks count from 1.
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

    def save(self, path: str | Path) -> None:
        """Write the index as a v3 file, atomically; the same index always gives the same bytes."""
        corpus = self._corpus
        table = json.dumps(
            {
                "embedder": self._embedder,
                "corpus_sha256": corpus.sha256,
                "segmentation": corpus.segmentation,
                "doc_ids": list(corpus.doc_ids),
                "note_types": list(corpus.note_types),
                "locators": list(corpus.locators),
                "doc_rows": np.bincount(self._row_docs, minlength=len(corpus.doc_ids)).tolist(),
                "ordinals": self._ordinals.tolist(),
            },
            separators=(",", ":"),
        ).encode("utf-8")
        header = _HEADER.pack(MAGIC, FORMAT_VERSION, self.dim, len(self), len(table))
        vectors = self._matrix.astype("<f4")
        crc = zlib.crc32(vectors, zlib.crc32(table, zlib.crc32(header)))
        write_atomic(path, header, table, vectors, _CRC.pack(crc))

    @classmethod
    def load(cls, path: str | Path) -> "VectorIndex":
        try:
            blob = Path(path).read_bytes()
        except OSError as exc:
            raise IoError(f"cannot read index from {path}: {exc}") from exc

        if len(blob) < _PREFIX.size:
            raise CorruptIndexError(f"index file {path} is truncated (too short for header)")
        magic, version = _PREFIX.unpack_from(blob)
        if magic != MAGIC:
            raise CorruptIndexError(f"index file {path} has bad magic bytes {magic!r}")
        if version in (1, 2):
            raise CorruptIndexError(
                f"index file {path} has format version {version}, which is no longer read; "
                "rebuild it with `qasum index`"
            )
        if version != FORMAT_VERSION:
            raise CorruptIndexError(f"index file {path} has unsupported version {version}")
        if len(blob) < _HEADER.size + _CRC.size:
            raise CorruptIndexError(f"index file {path} is truncated (too short for header)")
        _, _, dim, count, table_bytes = _HEADER.unpack_from(blob)
        vectors_at = _HEADER.size + table_bytes
        end = vectors_at + 4 * dim * count
        if end + _CRC.size > len(blob):
            raise CorruptIndexError(f"index file {path} is truncated")
        if end + _CRC.size < len(blob):
            raise CorruptIndexError(f"index file {path} has unexpected trailing bytes")
        (stored_crc,) = _CRC.unpack_from(blob, end)
        if zlib.crc32(memoryview(blob)[:end]) != stored_crc:
            raise CorruptIndexError(f"index file {path} failed its checksum (CRC32 mismatch)")

        try:
            table = json.loads(blob[_HEADER.size : vectors_at].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise CorruptIndexError(f"index file {path} has a string table that is not valid UTF-8: {exc}") from exc
        except ValueError as exc:
            raise CorruptIndexError(f"index file {path} has a string table that is not JSON: {exc}") from exc
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
            vectors = np.frombuffer(blob, dtype="<f4", count=count * dim, offset=vectors_at)
            return cls(corpus, row_docs, ordinals, vectors.reshape(count, dim).astype(np.float64), embedder)
        except (PreconditionError, ValueError, OverflowError) as exc:
            raise CorruptIndexError(f"index file {path} has a malformed string table: {exc}") from exc


def _is_list_of(value, types: set, count: int | None = None) -> bool:
    return isinstance(value, list) and count in (None, len(value)) and set(map(type, value)) <= types
