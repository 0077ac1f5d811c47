"""Index rows for tests: the oracle's (para_id, vector, doc_id, note_type) tuple, with names."""

from typing import NamedTuple

import numpy as np

from qasum.corpus import CorpusManifest, segmentation_digest
from qasum.vector_index import VectorIndex


class Row(NamedTuple):
    para_id: str
    vector: np.ndarray
    doc_id: str
    note_type: str


def build_index(rows, dim=4, embedder="hashed-reference"):
    """A VectorIndex over the rows; dim is used only when there are no rows.

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
    manifest = CorpusManifest("0" * 64, segmentation_digest(), list(doc_pos), note_types, list(range(len(doc_pos))))
    located = sorted(
        ((doc_pos[row.doc_id], int(row.para_id.rpartition("#")[2]), row.vector) for row in rows),
        key=lambda entry: entry[:2],
    )
    matrix = np.vstack([vector for _, _, vector in located]) if rows else np.empty((0, dim))
    return VectorIndex(
        manifest, [d for d, _, _ in located], [ordinal for _, ordinal, _ in located], matrix, embedder
    )
