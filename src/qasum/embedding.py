"""Text embeddings and cosine similarity.

The reference embedder is a signed feature-hashing bag of unigrams and
adjacent bigrams: deterministic, dependency-free, and good enough to make
lexical-overlap retrieval meaningful offline. Remote embedders are reached
through the gateway and normalized on receipt. Vectors are 1-D float64
numpy arrays with unit L2 norm.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, EmptyTextError, PreconditionError

DEFAULT_DIM = 256
HASH_SEED = 0x5EED_CAFE
_KEYED_HASHER = hashlib.blake2b(digest_size=8, key=HASH_SEED.to_bytes(8, "little"))
# Entries one FeatureMemo may hold: about 35 MB when features average 16 characters.
FEATURE_MEMO_CAP = 2**18
_TOKEN_RE = re.compile(r"[a-z0-9]+")

Embedder = Callable[[str], np.ndarray]


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokens (split on anything else)."""
    return _TOKEN_RE.findall(text.lower())


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

    Holds at most FEATURE_MEMO_CAP entries (a few more if threads race at
    the cap); once full, unseen features are hashed on every lookup but
    not stored, so memory stays bounded however many distinct features a
    corpus has.
    """

    def __missing__(self, feature: str) -> bytes:
        digest = _feature_digest(feature)
        if len(self) < FEATURE_MEMO_CAP:
            self[feature] = digest
        return digest


def reference_embedding(text: str, dim: int = DEFAULT_DIM, memo: FeatureMemo | None = None) -> np.ndarray:
    """Hash unigram and adjacent-bigram features into a signed, unit-norm vector.

    Each feature occurrence adds +1 or -1 (bit 63 of the 64-bit hash) to
    bucket hash % dim. A memo, when given, supplies the hashes of the
    features it has seen; the vector does not depend on it. Raises
    EmptyTextError if the text is blank or has no alphanumeric tokens.
    """
    if not text.strip():
        raise EmptyTextError("cannot embed empty text")
    tokens = tokenize(text)
    if not tokens:
        raise EmptyTextError(f"text has no alphanumeric tokens: {text[:50]!r}")
    features = tokens + [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]
    digest = _feature_digest if memo is None else memo.__getitem__
    hashes = np.frombuffer(b"".join(map(digest, features)), dtype="<u8")
    signs = np.where(hashes.view("<i8") < 0, -1.0, 1.0)
    # Each bucket is an integer sum of +-1, so the summation order cannot change it.
    vec = np.bincount((hashes % dim).astype(np.intp), weights=signs, minlength=dim)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        # All feature contributions cancelled; vanishingly unlikely but possible.
        raise EmptyTextError(f"feature hashes cancelled to a zero vector: {text[:50]!r}")
    return vec / norm


def build_embedder(spec: EmbedderSpec, gateway=None) -> Embedder:
    """The text -> vector callable for the spec; the remote kind embeds through the gateway.

    Each call builds a new embedder with its own memo, so a memo lasts as
    long as the command that built the embedder. The reference kind
    memoizes feature hashes (FeatureMemo) and calls reference_embedding
    once per text. The remote kind memoizes whole vectors, one gateway
    request of one text per distinct text, and returns them read-only.
    Both kinds raise EmptyTextError on blank text.
    """
    if spec.kind == "hashed-reference":
        memo = FeatureMemo()
        return lambda text: reference_embedding(text, spec.dim, memo)
    if spec.kind == "remote":
        if gateway is None:
            raise PreconditionError("the remote embedder requires a gateway")
        vectors: dict[str, np.ndarray] = {}

        def remote(text: str) -> np.ndarray:
            if not text.strip():
                raise EmptyTextError("cannot embed empty text")
            vector = vectors.get(text)
            if vector is None:
                vector = gateway.embed_remote([text])[0]
                vector.setflags(write=False)
                # Two workers may request the same text at once; both get the stored vector.
                vector = vectors.setdefault(text, vector)
            return vector

        return remote
    raise PreconditionError(f"unknown embedder kind {spec.kind!r}")


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, clamped to [-1, 1] against rounding."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise PreconditionError("cosine requires finite vectors")
    denom = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return max(-1.0, min(1.0, float(np.dot(a, b)) / denom))
