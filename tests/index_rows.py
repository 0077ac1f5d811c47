"""Index rows for tests: the oracle's (para_id, vector, doc_id, note_type) tuple, with names."""

import math
from typing import NamedTuple

import numpy as np

from qasum.corpus import CorpusManifest, segmentation_digest
from qasum.vector_index import IndexWriter, VectorIndex


class Row(NamedTuple):
    para_id: str
    vector: np.ndarray
    doc_id: str
    note_type: str


def _columns(rows, dim):
    """The manifest, row documents, ordinals and (n, dim) matrix of an index over the rows.

    Each row's para_id is ``<doc_id>#<ordinal>``. Documents take the order of
    their first row and the note type of their rows; rows are stored in
    document order, which search results do not depend on. The manifest's
    corpus digest and locators stand for no real corpus.
    """
    doc_pos, note_types = {}, []
    for row in rows:
        if row.doc_id not in doc_pos:
            doc_pos[row.doc_id] = len(note_types)
            note_types.append(row.note_type)
        assert note_types[doc_pos[row.doc_id]] == row.note_type, "a document has one note type"
    names = sorted(set(note_types))
    codes = np.array([names.index(note_type) for note_type in note_types], dtype=np.intp)
    manifest = CorpusManifest("0" * 64, segmentation_digest(), list(doc_pos), names, codes, list(range(len(doc_pos))))
    located = sorted(
        ((doc_pos[row.doc_id], int(row.para_id.rpartition("#")[2]), row.vector) for row in rows),
        key=lambda entry: entry[:2],
    )
    matrix = np.vstack([vector for _, _, vector in located]) if rows else np.empty((0, dim))
    return manifest, [d for d, _, _ in located], [ordinal for _, ordinal, _ in located], matrix


def build_index(rows, dim=4, embedder="hashed-reference"):
    """A VectorIndex over the rows, in memory; dim is used only when there are no rows."""
    manifest, row_docs, ordinals, matrix = _columns(rows, dim)
    return VectorIndex(manifest, row_docs, ordinals, matrix, embedder)


def write_index(path, rows, dim=4, embedder="hashed-reference"):
    """Write the index build_index makes of the rows to path, through IndexWriter as ``qasum index`` does."""
    manifest, row_docs, ordinals, matrix = _columns(rows, dim)
    with IndexWriter(path, matrix.shape[1], embedder) as writer:
        writer.add(row_docs, ordinals, matrix)
        writer.write(manifest)


def exact_hits(counts, para_ids, query, k):
    """The exact ranking of integer count rows for an integer query, as (para_id, score) pairs.

    The dot products are int64 matmul; each score is sign(dot) * sqrt(dot**2 / (row_sq * q_sq)), the
    division of Python integers correctly rounded, or 0.0 for a zero row or query; ties rank by para_id.
    """
    counts = np.asarray(counts, dtype=np.int64)
    query = np.asarray(query, dtype=np.int64)
    q_sq = sum(c * c for c in query.tolist())
    scored = []
    for para_id, row, dot in zip(para_ids, counts.tolist(), (counts @ query).tolist()):
        row_sq = sum(c * c for c in row)
        score = math.copysign(math.sqrt(dot * dot / (row_sq * q_sq)), dot) if row_sq and q_sq else 0.0
        scored.append((para_id, score))
    return sorted(scored, key=lambda hit: (-hit[1], hit[0]))[:k]
