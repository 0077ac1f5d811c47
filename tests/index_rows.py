"""Index rows for tests: the oracle's (para_id, vector, doc_id, note_type) tuple, with names."""

from typing import NamedTuple

import numpy as np

from qasum.vector_index import VectorIndex


class Row(NamedTuple):
    para_id: str
    vector: np.ndarray
    doc_id: str
    note_type: str


def build_index(rows, dim=4, embedder="hashed-reference"):
    """A VectorIndex over the rows, in order; dim is used only when there are no rows."""
    matrix = np.vstack([row.vector for row in rows]) if rows else np.empty((0, dim))
    return VectorIndex([row.para_id for row in rows], [row.note_type for row in rows], matrix, embedder)
