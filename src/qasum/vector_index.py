"""Exact cosine k-nearest-neighbor index: an immutable column store.

Search is an exact full scan, the semantics of FAISS ``IndexFlatIP``
(Johnson, Douze & Jegou, 2017) over cosine: every row is scored, a zero row
scores 0.0, the note-type filter is a boolean row mask, and
``np.partition`` picks the candidates at or above the k-th score (ties at
the k-th score included) before an exact sort by (-score, para_id). Every
result can be checked against a brute-force oracle.

An index is made from its columns: the manifest of the corpus it indexes
(corpus digest, segmentation digest, the sorted note-type names, and per
document its id, note-type code and locator), per row the position of its
document in the manifest and its paragraph ordinal (so row i is paragraph
``<doc_id>#<ordinal>``), the vectors, and the identity of the embedder that
made them. Rows are in document order. A row's note type is its
document's. Nothing changes a built index, and a search allocates its own
scratch block, so concurrent searches need no lock. ``IndexWriter`` builds
the file without the matrix, from batches of rows that it spools to disk.

The vectors are of two kinds. Integer feature counts (the reference
embedder's rows) are kept as they are, with each row's squared norm, and
are searched with the query's integer counts (its ``embed_many`` row):
each ``_BLOCK_ROWS``-row block is cast to float32 and multiplied by the
query, and the dot products are exact integers whenever the largest row
squared norm times the query's is below 2**48, since by Cauchy-Schwarz
every partial sum is then below 2**24; past that the blocks are float64,
exact below 2**106, and past that the search is refused. So the dot
products are the same under any BLAS, blocking or batching. A row's score
is ``sign(dot) * sqrt(dot**2 / (row_sq * q_sq))`` in float64, or 0.0 for
a zero row or query. While ``row_sq * q_sq`` is below 2**53 both operands
of the division are exact, so two rows with equal exact cosines get the
same score bits and rank by para_id. Float rows (a remote embedder's unit
vectors) are one (n, dim) float64 matrix with its row norms: one
matrix-vector product scores every row, divided by the row and query
norms and clamped to [-1, 1], so their order at near-ties depends on the
BLAS summation order.

The file (format v5) is little-endian: the ``_HEADER`` fields, the string
table as one UTF-8 JSON object ``{"embedder", "corpus_sha256",
"segmentation", "doc_ids", "note_types"}`` (the sorted names) plus, for a
text-dir corpus, its file names as ``"locators"``, the integer columns of
``_COLUMNS`` (doc_rows counts each document's rows), one contiguous block
of count x dim vector components, and a CRC32 over all preceding bytes.
Each column is stored in the narrowest of ``u1``, ``u2``, ``u4`` and
``u8`` that holds its largest value; a locator type ``--`` says that the
table holds the locators. The vectors are ``i1``, ``i2`` or ``i4`` exact
integer feature counts, in the narrowest type that holds the file's
largest count, or ``f4`` float32 components (a remote embedder's rows).
No squared norm is stored: ``load`` keeps a count block in its file type
and computes each row's squared norm (``embedding.squared_norms`` of it,
exact below 2**53) as it reads the block, and promotes a float32 block to
float64.

``IndexWriter``, the one writer of index files, and ``load`` stream the
vector block ``_BLOCK_ROWS`` rows at a time: the writer through
block-sized buffers, ``load`` straight into the kept count block (summing
each block's squares through one float32 block) or through one float32
buffer into the float64 matrix, never a whole-file copy; float row norms
are taken ``_NORM_ROWS`` rows at a time. ``load`` checks the header
against the file size before it allocates anything sized from the header,
and parses the table with one ``json.loads`` only after the CRC32 matches.
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
from .embedding import squared_norms
from .errors import CorruptIndexError, DimensionMismatchError, EmptyIndexError, IoError, PreconditionError
from .fileio import write_atomic

MAGIC = b"QASUMIDX"
FORMAT_VERSION = 5

_PREFIX = struct.Struct("<8sH")  # magic and version, laid out alike in every version
# magic, version, dim u16, row count, document count, string-table length (u64 each), and as two
# ASCII bytes each the types of the vector block and of the four _COLUMNS
_HEADER = struct.Struct("<8sHHQQQ2s2s2s2s2s")
_CRC = struct.Struct("<I")
MAX_DIM = 0xFFFF  # the header stores dim as u16
_BLOCK_ROWS = 1024  # rows per step when the vector block is read, checked, searched or written
# Rows per step of _row_norms: a float64 block of 256 components is 256 KiB, so the block and
# its squares stay in a core's L2 cache between the multiply and the sum.
_NORM_ROWS = 128
# The vector block's types by their header code: float32 components, or integer counts, narrowest first.
_VECTOR_TYPES = {code: np.dtype(f"<{code.decode()}") for code in (b"f4", b"i1", b"i2", b"i4")}
_SPOOL_COUNT = np.dtype("<i4")  # how IndexWriter spools counts: the widest count type
# The integer columns' types by their header code, narrowest first.
_COLUMN_TYPES = {code: np.dtype(f"<{code.decode()}") for code in (b"u1", b"u2", b"u4", b"u8")}
_COLUMNS = ("doc_rows", "note-type code", "locator", "ordinal")  # in file order; all but ordinals per document
_IN_TABLE = b"--"  # the locator code of a text-dir index: its locators are the string table's file names
# Integer dot products are exact in float32 while every partial sum is below 2**24, and in float64
# below 2**53; by Cauchy-Schwarz that holds when the largest row squared norm times the query's is
# below the square of that, the bound paired with each type here.
_EXACT_DOTS = ((2**48, np.dtype(np.float32)), (2**106, np.dtype(np.float64)))


@dataclass(frozen=True)
class SearchHit:
    """A hit: paragraph ordinal of the document at position doc of the index's corpus manifest, named para_id."""

    para_id: str
    score: float
    rank: int
    doc: int
    ordinal: int


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """np.linalg.norm(matrix, axis=1), bit for bit, a block of rows at a time.

    np.linalg.norm takes sqrt(np.add.reduce(x * x, axis=1)); here the
    squares of each block go through one block-sized buffer, so no
    matrix-sized temporary is made.
    """
    norms = np.empty(len(matrix))
    squares = np.empty((min(len(matrix), _NORM_ROWS), matrix.shape[1]))
    for start in range(0, len(matrix), _NORM_ROWS):
        rows, out = matrix[start : start + _NORM_ROWS], norms[start : start + _NORM_ROWS]
        np.sqrt(np.add.reduce(np.multiply(rows, rows, out=squares[: len(rows)]), axis=1, out=out), out=out)
    return norms


class VectorIndex:
    def __init__(
        self,
        corpus: CorpusManifest,
        row_docs: Sequence[int],
        ordinals: Sequence[int],
        matrix: np.ndarray,
        embedder: str,
        squares: np.ndarray | None = None,
    ):
        """Row i is paragraph ordinals[i] of document row_docs[i] of corpus, with vector matrix[i].

        Rows are in document order: by document position, then by ordinal,
        each paragraph once. embedder names what made the vectors. An
        integer matrix holds feature counts, kept in its type, and squares
        their rows' squared norms (squared_norms of the matrix when None);
        any other matrix is kept as float64.
        """
        matrix = np.asarray(matrix)
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
        self._type_codes = corpus.type_codes[row_docs]
        self._dim = matrix.shape[1]
        if np.issubdtype(matrix.dtype, np.integer):
            self._counts = matrix
            self._squares = squared_norms(matrix) if squares is None else squares
            self._largest_square = int(self._squares.max(initial=0.0))
        else:
            self._matrix = np.asarray(matrix, dtype=np.float64)
            self._norms = _row_norms(self._matrix)
            self._squares = None
        self._embedder = embedder

    def __len__(self) -> int:
        return len(self._row_docs)

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

        query is the question's embed_many row: integer counts for a count
        index, a float vector for a float index. Equal scores are broken by
        para_id ascending; ranks count from 1. On a count index, equal exact
        cosines score the same bits (see the module docstring); on a float
        index two vectors with the same exact cosine can score an ulp apart,
        and then rank by score.
        """
        if k < 1:
            raise PreconditionError(f"k must be positive, got {k}")
        if not len(self):
            raise EmptyIndexError("search on an empty index")
        query = np.asarray(query)
        if query.shape != (self._dim,):
            raise DimensionMismatchError(
                f"query dim {query.shape[0] if query.ndim == 1 else query.shape} "
                f"does not match index dim {self._dim}"
            )
        if self._squares is None:
            query = query.astype(np.float64, copy=False)
            denom = self._norms * float(np.linalg.norm(query))
            scores = np.zeros(len(denom))
            np.divide(self._matrix @ query, denom, out=scores, where=denom != 0.0)
            np.clip(scores, -1.0, 1.0, out=scores)
        else:
            scores = self._count_scores(query)

        if note_filter is None:
            rows = np.arange(len(scores))
        else:
            allowed = np.array([name in note_filter for name in self._corpus.type_names], dtype=bool)
            rows = np.flatnonzero(allowed[self._type_codes])
        candidates = scores[rows]
        if k < len(rows):
            kth = np.partition(candidates, len(rows) - k)[len(rows) - k]
            at_least_kth = candidates >= kth
            rows, candidates = rows[at_least_kth], candidates[at_least_kth]
        doc_ids = self._corpus.doc_ids
        docs, ordinals = self._row_docs[rows].tolist(), self._ordinals[rows].tolist()
        para_ids = [paragraph_id(doc_ids[d], ordinal) for d, ordinal in zip(docs, ordinals)]
        scored = sorted(zip(candidates.tolist(), para_ids, docs, ordinals), key=lambda hit: (-hit[0], hit[1]))
        return [
            SearchHit(para_id=pid, score=score, rank=rank, doc=doc, ordinal=ordinal)
            for rank, (score, pid, doc, ordinal) in enumerate(scored[:k], start=1)
        ]

    def _count_scores(self, query: np.ndarray) -> np.ndarray:
        """Each count row's cosine with the integer query, from exact dot products (see the module docstring)."""
        if not np.issubdtype(query.dtype, np.integer):
            raise PreconditionError(
                f"a count index is searched with a question's integer counts, got a {query.dtype} vector"
            )
        query_square = sum(c * c for c in query.tolist())
        bound = self._largest_square * query_square
        exact = next((dtype for limit, dtype in _EXACT_DOTS if bound < limit), None)
        if exact is None:
            raise PreconditionError(
                f"the question's counts are too large to score exactly: the largest row squared norm times "
                f"the question's is {bound}, not below 2**106, the bound for exact float64 dot products"
            )
        typed_query = query.astype(exact)
        dots = np.empty(len(self), dtype=exact)
        block = np.empty((min(len(self), _BLOCK_ROWS), self._dim), dtype=exact)
        for start in range(0, len(self), _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            counts = self._counts[rows]
            np.copyto(block[: len(counts)], counts, casting="unsafe")
            np.matmul(block[: len(counts)], typed_query, out=dots[rows])
        dots = dots.astype(np.float64)
        denom = self._squares * float(query_square)
        scores = np.zeros(len(dots))
        np.divide(np.square(dots), denom, out=scores, where=denom != 0.0)
        np.sqrt(scores, out=scores)
        return np.negative(scores, out=scores, where=dots < 0.0)

    @classmethod
    def load(cls, path: str | Path) -> "VectorIndex":
        """Read a v5 file; a damaged one is a CorruptIndexError and an unreadable one an IoError, naming path."""
        try:
            with open(path, "rb") as file:
                table_bytes, (doc_rows, type_codes, locators, ordinals), vectors, squares = _read_checked(file, path)
        except OSError as exc:
            raise IoError(f"cannot read index from {path}: {exc}") from exc

        try:
            table = json.loads(table_bytes.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise CorruptIndexError(f"index file {path} has a string table that is not valid UTF-8: {exc}") from exc
        except ValueError as exc:
            raise CorruptIndexError(f"index file {path} has a string table that is not JSON: {exc}") from exc
        count = len(vectors)
        fields = table if isinstance(table, dict) else {}
        embedder, sha256, segmentation, doc_ids, type_names = (
            fields.get(key) for key in ("embedder", "corpus_sha256", "segmentation", "doc_ids", "note_types")
        )
        if locators is None:  # a text-dir corpus's file names; a JSONL corpus keeps its unsigned column
            locators = fields.get("locators")
        well_typed = (
            all(isinstance(value, str) for value in (embedder, sha256, segmentation))
            and all(isinstance(value, list) for value in (doc_ids, type_names))
            and set(map(type, doc_ids)) | set(map(type, type_names)) <= {str}
            and (isinstance(locators, np.ndarray) or isinstance(locators, list) and set(map(type, locators)) <= {str})
            and sum(doc_rows.tolist()) == count
        )
        if not well_typed:
            raise CorruptIndexError(
                f"index file {path} has a malformed string table (expected an embedder name, the corpus "
                f"and segmentation digests, per-document doc_ids, note types, locators and row counts, "
                f"and {count} paragraph ordinals)"
            )
        try:
            corpus = CorpusManifest(sha256, segmentation, doc_ids, type_names, type_codes, locators)
            row_docs = np.repeat(np.arange(len(doc_rows)), doc_rows.astype(np.intp))
            return cls(corpus, row_docs, ordinals, vectors, embedder, squares)
        except (PreconditionError, ValueError, OverflowError) as exc:
            raise CorruptIndexError(f"index file {path} has a malformed string table: {exc}") from exc


class IndexWriter:
    """An index file built from batches of rows, for a corpus read one chunk of documents at a time.

    ``add`` keeps each row's document position and paragraph ordinal, and
    appends its vector to a spool: a temporary file in the index's
    directory, unnamed where the system allows (a named one is
    ``.<index name>.*.spool.tmp``, unlinked at once), which needs 4 bytes
    of free space per vector component there. Integer rows (exact feature
    counts) are spooled as int32, and the writer keeps the largest |count|;
    float rows are spooled as float32. ``write`` then writes the v5 file,
    reading the spool back ``_BLOCK_ROWS`` rows at a time through one
    buffer and narrowing counts to the file's count type, so the writer's
    memory is the row columns plus one block. ``close`` (or leaving the
    ``with`` block) removes the spool, whether or not ``write`` ran.
    """

    def __init__(self, path: str | Path, dim: int, embedder: str):
        self._path = Path(path)
        self._dim = dim
        self._embedder = embedder
        self._row_docs: list[int] = []
        self._ordinals: list[int] = []
        self._spool_type: np.dtype | None = None  # set by the first add: int32 counts or float32 vectors
        self._largest_count = 0
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
        """Append rows after the rows added so far, in document order, with their vectors.

        Every batch holds integer counts, or every batch float vectors. A
        count beyond the int32 range is a PreconditionError.
        """
        vectors = np.asarray(vectors)
        if not len(row_docs) == len(ordinals) == len(vectors) or vectors.shape[1:] != (self._dim,):
            raise PreconditionError(
                f"index rows disagree: {len(row_docs)} row documents, {len(ordinals)} ordinals, "
                f"vectors of shape {vectors.shape} for dim {self._dim}"
            )
        spool_type = _SPOOL_COUNT if np.issubdtype(vectors.dtype, np.integer) else _VECTOR_TYPES[b"f4"]
        if self._spool_type not in (None, spool_type):
            raise PreconditionError("index rows must all be integer counts or all be float vectors")
        self._spool_type = spool_type
        if spool_type == _SPOOL_COUNT and len(vectors):
            largest = max(-int(vectors.min()), int(vectors.max()))
            if largest > np.iinfo(_SPOOL_COUNT).max:
                raise PreconditionError(
                    f"a paragraph has a feature count of magnitude {largest}, beyond the int32 range "
                    "an index file can store"
                )
            self._largest_count = max(self._largest_count, largest)
        try:
            self._spool.write(np.ascontiguousarray(vectors, dtype=spool_type))
        except OSError as exc:
            raise IoError(f"cannot write {self._path}: {exc}") from exc
        self._row_docs += row_docs
        self._ordinals += ordinals

    def _vector_code(self) -> bytes:
        """The file's vector type: the narrowest count type that holds every count, or float32."""
        return _narrowest(_VECTOR_TYPES, self._largest_count) if self._spool_type == _SPOOL_COUNT else b"f4"

    def write(self, corpus: CorpusManifest) -> None:
        """Write the index of the rows added, over corpus, atomically to the path.

        The same rows over the same corpus always give the same bytes. Each
        block read back from the spool is written before the next is read.
        """
        count = len(self._ordinals)
        docs = len(corpus.doc_ids)
        fields = {"embedder": self._embedder, "corpus_sha256": corpus.sha256, "segmentation": corpus.segmentation,
                  "doc_ids": list(corpus.doc_ids), "note_types": list(corpus.type_names)}
        file_names = bool(docs) and isinstance(corpus.locators[0], str)
        if file_names:
            fields["locators"] = list(corpus.locators)
        table = json.dumps(fields, separators=(",", ":")).encode("utf-8")
        doc_rows = np.bincount(np.asarray(self._row_docs, dtype=np.intp), minlength=docs)
        locators = (_IN_TABLE, b"") if file_names else _column(corpus.locators)
        column_codes, columns = zip(_column(doc_rows), _column(corpus.type_codes), locators, _column(self._ordinals))
        code = self._vector_code()
        header = _HEADER.pack(MAGIC, FORMAT_VERSION, self._dim, count, docs, len(table), code, *column_codes)

        def chunks() -> Iterator[bytes | np.ndarray]:
            crc = zlib.crc32(table, zlib.crc32(header))
            yield header
            yield table
            for column in columns:
                crc = zlib.crc32(column, crc)
                yield column
            self._spool.seek(0)  # flushes the spool, so a failed spool write fails the index write
            stored_type = _VECTOR_TYPES[code]
            spooled = np.empty((min(count, _BLOCK_ROWS), self._dim), dtype=self._spool_type or stored_type)
            stored = spooled if spooled.dtype == stored_type else np.empty(spooled.shape, dtype=stored_type)
            for start in range(0, count, _BLOCK_ROWS):
                rows = slice(0, count - start)
                _read_into(self._spool, spooled[rows], self._path)
                if stored is not spooled:
                    stored[rows] = spooled[rows]
                block = stored[rows]
                crc = zlib.crc32(block, crc)
                yield block
            yield _CRC.pack(crc)

        write_atomic(self._path, chunks())


def _read_checked(
    file: BinaryIO, path: str | Path
) -> tuple[bytearray, list[np.ndarray | None], np.ndarray, np.ndarray | None]:
    """Check and read an open v5 file: its string table bytes, _COLUMNS, vectors and a count file's squared norms.

    The header is checked against the file size before anything sized from
    it is allocated. Each column is in its file type; the locators are None
    when the table holds them. A count block is read a block of rows at a
    time straight into the (count, dim) array of the file's type that load
    keeps, and each block's squared norms are computed as it is read. A
    float32 block is read through one block buffer into a (count, dim)
    float64 matrix, and has no squared norms (None). Every block continues
    the CRC32, which must then match.
    """
    size = os.fstat(file.fileno()).st_size
    if size < _PREFIX.size:
        raise CorruptIndexError(f"index file {path} is truncated (too short for header)")
    head = _read_exact(file, min(size, _HEADER.size), path)
    magic, version = _PREFIX.unpack_from(head)
    if magic != MAGIC:
        raise CorruptIndexError(f"index file {path} has bad magic bytes {magic!r}")
    if version in (1, 2, 3, 4):
        raise CorruptIndexError(
            f"index file {path} has format version {version}, which is no longer read; "
            "rebuild it with `qasum index`"
        )
    if version != FORMAT_VERSION:
        raise CorruptIndexError(f"index file {path} has unsupported version {version}")
    if size < _HEADER.size + _CRC.size:
        raise CorruptIndexError(f"index file {path} is truncated (too short for header)")
    _, _, dim, count, docs, table_len, code, *column_codes = _HEADER.unpack(head)
    if code not in _VECTOR_TYPES:
        raise CorruptIndexError(f"index file {path} has unknown vector type {code!r}")
    column_types: list[np.dtype | None] = []
    for name, column_code in zip(_COLUMNS, column_codes):
        if column_code not in _COLUMN_TYPES and (name, column_code) != ("locator", _IN_TABLE):
            raise CorruptIndexError(f"index file {path} has unknown {name} column type {column_code!r}")
        column_types.append(_COLUMN_TYPES.get(column_code))
    lengths = (docs, docs, docs, count)
    end = _HEADER.size + table_len + _VECTOR_TYPES[code].itemsize * dim * count
    end += sum(n * dtype.itemsize for n, dtype in zip(lengths, column_types) if dtype is not None)
    if end + _CRC.size > size:
        raise CorruptIndexError(f"index file {path} is truncated")
    if end + _CRC.size < size:
        raise CorruptIndexError(f"index file {path} has unexpected trailing bytes")

    table = _read_exact(file, table_len, path)
    crc = zlib.crc32(table, zlib.crc32(head))
    columns = [None if dtype is None else np.empty(n, dtype=dtype) for n, dtype in zip(lengths, column_types)]
    for column in columns:
        if column is not None:
            _read_into(file, column, path)
            crc = zlib.crc32(column, crc)
    counts = code != b"f4"
    vectors = np.empty((count, dim), dtype=_VECTOR_TYPES[code] if counts else np.float64)
    squares = np.empty(count) if counts else None
    # The float32 block: the read buffer of a float32 file, the squared norms' of a count file.
    single = np.empty((min(count, _BLOCK_ROWS), dim), dtype="<f4")
    for start in range(0, count, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        n = min(count - start, _BLOCK_ROWS)
        block = vectors[rows] if counts else single[:n]
        _read_into(file, block, path)
        crc = zlib.crc32(block, crc)
        if counts:
            squares[rows] = _sums_of_squares(block, single[:n])
        else:
            vectors[rows] = block
    (stored_crc,) = _CRC.unpack(_read_exact(file, _CRC.size, path))
    if crc != stored_crc:
        raise CorruptIndexError(f"index file {path} failed its checksum (CRC32 mismatch)")
    return table, columns, vectors, squares


def _sums_of_squares(counts: np.ndarray, single: np.ndarray) -> np.ndarray:
    """Each count row's sum of squares, exactly: squared_norms of the counts, bit for bit.

    The sums are taken in float32 through single, a float32 block of the
    counts' shape: they are exact while below 2**24 and, the terms being
    squares, at least 2**24 otherwise. A block with a sum that reaches
    2**24 is summed again by squared_norms.
    """
    np.copyto(single, counts, casting="unsafe")
    sums = np.einsum("ij,ij->i", single, single)
    return sums if sums.max(initial=0.0) < 2**24 else squared_norms(counts)


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


def _narrowest(types: dict[bytes, np.dtype], largest: int) -> bytes:
    """The code of the first integer type of types that holds largest."""
    return next(code for code, dtype in types.items() if dtype.kind in "iu" and largest <= np.iinfo(dtype).max)


def _column(values: Sequence[int] | np.ndarray) -> tuple[bytes, np.ndarray]:
    """Non-negative integers as a column of the narrowest type that holds the largest, with its code."""
    values = np.asarray(values, dtype=np.uint64)
    code = _narrowest(_COLUMN_TYPES, int(values.max(initial=0)))
    return code, values.astype(_COLUMN_TYPES[code])
