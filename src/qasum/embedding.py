"""Text embeddings and cosine similarity.

The reference embedder is a signed feature-hashing bag of unigrams and
adjacent bigrams: deterministic, dependency-free, and good enough to make
lexical-overlap retrieval meaningful offline. Its rows are exact integer
feature counts, which a count index searches as they are; ``unit_rows``
divides them by their L2 norm into the float64 unit vectors that cosine
takes. Remote embedders are reached through the gateway, which
L2-normalizes their float64 rows on receipt.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Protocol, Sequence

import numpy as np

from .errors import DimensionMismatchError, EmptyTextError, PreconditionError

DEFAULT_DIM = 256
HASH_SEED = 0x5EED_CAFE
_KEYED_HASHER = hashlib.blake2b(digest_size=8, key=HASH_SEED.to_bytes(8, "little"))
# Entries one FeatureMemo may hold: about 35 MB when features average 16 characters.
FEATURE_MEMO_CAP = 2**18
# Texts the kernel embeds together. It bounds the kernel's temporaries: on a 12k-document corpus,
# 4096 raised the peak memory of embedding by about 12% over 256, and 256 was no slower.
_EMBED_CHUNK = 256
# Texts the remote embedder sends in one request. Each reply is parsed whole, so a larger batch
# raises the peak memory of a command.
_REMOTE_BATCH = 32
# Every byte but a-z and 0-9 becomes a space. UTF-8 encodes every non-ASCII
# codepoint with bytes >= 0x80 only, so the split of the translated encoding
# is exactly the [a-z0-9]+ runs of the string.
_ALNUM = bytes(b if chr(b) in "abcdefghijklmnopqrstuvwxyz0123456789" else 0x20 for b in range(256))


class Embedder(Protocol):
    def embed_many(self, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]: ...


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokens (split on anything else)."""
    # surrogatepass: a lone surrogate (JSON allows "\ud800") is a separator like any other non-ASCII codepoint.
    return text.lower().encode("utf-8", "surrogatepass").translate(_ALNUM).decode("ascii").split()


@dataclass(frozen=True)
class EmbedderSpec:
    kind: str = "hashed-reference"
    dim: int = DEFAULT_DIM


def _feature_digest(feature: str) -> bytes:
    hasher = _KEYED_HASHER.copy()
    hasher.update(feature.encode("utf-8"))
    return hasher.digest()


class FeatureMemo(dict):
    """Feature string -> 8-byte keyed hash digest, filled on first lookup.

    Holds at most FEATURE_MEMO_CAP entries; once full, unseen features are
    hashed on every lookup but not stored, so memory stays bounded however
    many distinct features a corpus has. Only the command's main thread
    embeds, so one thread fills the memo.
    """

    def __missing__(self, feature: str) -> bytes:
        digest = _feature_digest(feature)
        if len(self) < FEATURE_MEMO_CAP:
            self[feature] = digest
        return digest


class _TokenIds(dict):
    """Token -> chunk-local id, numbered in order of first lookup."""

    def __missing__(self, token: str) -> int:
        self[token] = token_id = len(self)
        return token_id


def _feature_columns(features: list[str], digest: Callable[[str], bytes], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The bucket (hash % dim) and the sign (bit 63 of the hash) of each feature."""
    hashes = np.frombuffer(b"".join(map(digest, features)), dtype="<u8")
    return (hashes % dim).astype(np.intp), np.where(hashes.view("<i8") < 0, -1.0, 1.0)


def _embed_chunk(texts: Sequence[str], dim: int, digest: Callable[[str], bytes], out: np.ndarray) -> np.ndarray:
    """Write the counts of texts into out (zeros for a dropped text); return which texts are kept."""
    token_lists = list(map(tokenize, texts))
    lengths = list(map(len, token_lists))
    ids = _TokenIds()
    occurrences = np.fromiter(map(ids.__getitem__, chain.from_iterable(token_lists)), dtype=np.intp, count=sum(lengths))
    token_rows = np.repeat(np.arange(len(texts)), lengths)
    # A bigram joins adjacent tokens of one text, never the last token of a text to the next text's first.
    inside = token_rows[1:] == token_rows[:-1]
    pair_rows = token_rows[:-1][inside]
    vocab = len(ids)
    pairs, pair_occurrences = np.unique(occurrences[:-1][inside] * vocab + occurrences[1:][inside], return_inverse=True)
    words = list(ids)
    bigrams = [f"{words[a]} {words[b]}" for a, b in zip((pairs // vocab).tolist(), (pairs % vocab).tolist())]
    word_buckets, word_signs = _feature_columns(words, digest, dim)
    pair_buckets, pair_signs = _feature_columns(bigrams, digest, dim)
    cells = np.concatenate([
        token_rows * dim + word_buckets[occurrences],
        pair_rows * dim + pair_buckets[pair_occurrences],
    ])
    weights = np.concatenate([word_signs[occurrences], pair_signs[pair_occurrences]])
    # Sums of +-1 terms, exact in float64 below 2**53 terms.
    out[...] = np.bincount(cells, weights=weights, minlength=len(texts) * dim).reshape(len(texts), dim)
    # A text with tokens has an odd number of terms, so some count is nonzero (see reference_embedding).
    return np.array(lengths) > 0


def reference_counts(
    texts: Sequence[str], dim: int = DEFAULT_DIM, memo: FeatureMemo | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The feature counts of texts as the int64 rows of one (len(texts), dim) matrix, and which texts are kept.

    A text that is blank or has no alphanumeric tokens is not kept: its
    row is zeros. Each count is an exact integer sum of +-1 terms, so row i
    does not depend on the other texts, and unit_rows of it is
    reference_embedding(texts[i], dim) bit for bit. Texts are counted
    _EMBED_CHUNK at a time; each chunk builds each distinct unigram and
    bigram string once, and the memo, when given, supplies the hashes of
    features it has seen.
    """
    digest = _feature_digest if memo is None else memo.__getitem__
    counts = np.empty((len(texts), dim), dtype=np.int64)
    kept = np.empty(len(texts), dtype=bool)
    for start in range(0, len(texts), _EMBED_CHUNK):
        chunk = slice(start, start + _EMBED_CHUNK)
        kept[chunk] = _embed_chunk(texts[chunk], dim, digest, counts[chunk])
    return counts, kept


def squared_norms(counts: np.ndarray) -> np.ndarray:
    """Each count row's sum of squares, in float64: exact for counts below 2**18 at any dim up to 65535."""
    return np.einsum("ij,ij->i", counts, counts, dtype=np.float64)


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    """The rows of an embed_many matrix as the float64 unit vectors that cosine takes.

    Integer counts (the reference kind) are divided by their L2 norm, the
    square root of squared_norms; both steps are correctly rounded, so a
    row's vector never depends on the other rows. A zero row stays zero. A
    float matrix (the remote kind) is returned as float64, unchanged.
    """
    if not np.issubdtype(matrix.dtype, np.integer):
        return np.asarray(matrix, dtype=np.float64)
    norms = np.sqrt(squared_norms(matrix))
    return np.divide(matrix, np.where(norms > 0.0, norms, 1.0)[:, None])


def reference_embedding(text: str, dim: int = DEFAULT_DIM) -> np.ndarray:
    """Hash unigram and adjacent-bigram features into a signed, unit-norm vector.

    Each feature occurrence adds +1 or -1 (bit 63 of the 64-bit hash) to
    bucket hash % dim. n tokens add 2n - 1 such terms, an odd sum, so a
    text with tokens never hashes to a zero vector. Raises EmptyTextError
    if the text is blank or has no alphanumeric tokens.
    """
    if not text.strip():
        raise EmptyTextError("cannot embed empty text")
    counts, kept = reference_counts([text], dim)
    if not kept[0]:
        raise EmptyTextError(f"text has no alphanumeric tokens: {text[:50]!r}")
    return unit_rows(counts)[0]


class _ReferenceEmbedder:
    """The reference embedder of one command, with its own feature memo."""

    def __init__(self, dim: int):
        self._dim = dim
        self._memo = FeatureMemo()

    def embed_many(self, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        return reference_counts(texts, self._dim, self._memo)


class _RemoteEmbedder:
    """Whole-vector memo over the gateway, filled in batches of at most _REMOTE_BATCH texts.

    embed_many requests the distinct nonblank texts of its call that the
    memo does not hold, in the order they first appear, _REMOTE_BATCH at a
    time, so each request body depends only on the call's texts and on the
    earlier calls of the command. One lock covers the whole call. A batch
    that fails, or that holds a vector of the wrong length, raises and
    leaves none of its texts remembered, so a later call requests them
    again.
    """

    def __init__(self, gateway, dim: int):
        self._gateway = gateway
        self._dim = dim
        self._lock = threading.Lock()
        self._memo: dict[str, np.ndarray] = {}

    def _request(self, batch: list[str]) -> None:
        vectors = self._gateway.embed_remote(batch)
        for text, vector in zip(batch, vectors):
            if np.shape(vector) != (self._dim,):
                raise DimensionMismatchError(
                    f"remote embedder returned a vector of shape {np.shape(vector)} for {text[:50]!r}, "
                    f"expected ({self._dim},)"
                )
        self._memo.update(zip(batch, vectors))

    def embed_many(self, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        matrix = np.zeros((len(texts), self._dim))
        kept = np.zeros(len(texts), dtype=bool)
        with self._lock:
            wanted = [text for text in dict.fromkeys(texts) if text.strip() and text not in self._memo]
            for start in range(0, len(wanted), _REMOTE_BATCH):
                self._request(wanted[start:start + _REMOTE_BATCH])
            for i, text in enumerate(texts):
                if text.strip():
                    matrix[i] = self._memo[text]
                    kept[i] = True
        return matrix, kept


def build_embedder(spec: EmbedderSpec, gateway=None) -> Embedder:
    """The embedder for the spec; the remote kind embeds through the gateway.

    The embedder's one method, embed_many(texts) -> (matrix, kept), gives
    the rows of texts as a (len(texts), dim) matrix and which texts were
    embedded; a row that is not kept is zeros. unit_rows turns the matrix
    into unit vectors. Each call builds a new embedder with its own memo,
    so a memo lasts as long as the command that built the embedder. The
    reference kind memoizes feature hashes (FeatureMemo), gives exact
    int64 feature counts from the reference_counts kernel, and drops a
    text without alphanumeric tokens. The remote kind gives float64 rows;
    it memoizes whole vectors and requests each distinct text once, in
    batches of at most _REMOTE_BATCH texts in the order the call gives
    them; it drops a blank text without a request and raises
    DimensionMismatchError for a vector that is not (dim,).
    """
    if spec.kind == "hashed-reference":
        return _ReferenceEmbedder(spec.dim)
    if spec.kind == "remote":
        if gateway is None:
            raise PreconditionError("the remote embedder requires a gateway")
        return _RemoteEmbedder(gateway, spec.dim)
    raise PreconditionError(f"unknown embedder kind {spec.kind!r}")


def cosine_norms(vectors: np.ndarray) -> list[float]:
    """The norm of each row as cosine computes it, for normed_cosine; rows must be finite."""
    if not np.all(np.isfinite(vectors)):
        raise PreconditionError("cosine requires finite vectors")
    return [float(np.linalg.norm(row)) for row in vectors]


def normed_cosine(a: np.ndarray, a_norm: float, b: np.ndarray, b_norm: float) -> float:
    """cosine(a, b) from norms computed once per vector: one np.dot and a division per pair."""
    denom = a_norm * b_norm
    if denom == 0.0:
        return 0.0
    return max(-1.0, min(1.0, float(np.dot(a, b)) / denom))


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, clamped to [-1, 1] against rounding; 0.0 if either vector is zero."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise PreconditionError("cosine requires finite vectors")
    return normed_cosine(a, float(np.linalg.norm(a)), b, float(np.linalg.norm(b)))
