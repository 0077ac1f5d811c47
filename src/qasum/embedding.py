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
_SEED_KEY = HASH_SEED.to_bytes(8, "little")
_TOKEN_RE = re.compile(r"[a-z0-9]+")

Embedder = Callable[[str], np.ndarray]


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokens (split on anything else)."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class EmbedderSpec:
    kind: str = "hashed-reference"
    dim: int = DEFAULT_DIM


def _feature_hash(feature: str) -> int:
    digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8, key=_SEED_KEY).digest()
    return int.from_bytes(digest, "little")


def reference_embedding(text: str, dim: int = DEFAULT_DIM) -> np.ndarray:
    """Hash unigram and adjacent-bigram features into a signed, unit-norm vector.

    Each feature occurrence adds +1 or -1 (bit 63 of the 64-bit hash) to
    bucket hash % dim. Raises EmptyTextError if the text is blank or has
    no alphanumeric tokens.
    """
    if not text.strip():
        raise EmptyTextError("cannot embed empty text")
    tokens = tokenize(text)
    if not tokens:
        raise EmptyTextError(f"text has no alphanumeric tokens: {text[:50]!r}")
    vec = np.zeros(dim, dtype=np.float64)
    features = tokens + [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]
    for feature in features:
        h = _feature_hash(feature)
        sign = 1.0 if (h >> 63) & 1 == 0 else -1.0
        vec[h % dim] += sign
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        # All feature contributions cancelled; vanishingly unlikely but possible.
        raise EmptyTextError(f"feature hashes cancelled to a zero vector: {text[:50]!r}")
    return vec / norm


def build_embedder(spec: EmbedderSpec, gateway=None) -> Embedder:
    """The text -> vector callable for the spec; the remote kind embeds through the gateway.

    Both kinds raise EmptyTextError on blank text.
    """
    if spec.kind == "hashed-reference":
        return lambda text: reference_embedding(text, spec.dim)
    if spec.kind == "remote":
        if gateway is None:
            raise PreconditionError("the remote embedder requires a gateway")

        def remote(text: str) -> np.ndarray:
            if not text.strip():
                raise EmptyTextError("cannot embed empty text")
            return gateway.embed_remote([text])[0]

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
