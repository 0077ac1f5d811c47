"""HTTP gateway to chat-answer and embedding endpoints.

Strict JSON reply schemas, bounded retries with jittered exponential
backoff, a concurrency cap, and a record/replay mode keyed by the SHA-256
of the request body so the test suite never touches the network. The API
key is read from an environment variable and never appears in logs or
error messages.

Wire contract: POST JSON to base_url + chat_path / embed_path with an
``Authorization: Bearer <key>`` header. Chat replies may be either the
answer object itself or an OpenAI-style envelope whose
choices[0].message.content holds the answer object as a JSON string. The
answer object is {"answer", "source_sentence", "confidence"} or
{"no_answer": true}. Embedding replies are {"data": [{"embedding": [...]}]}
or {"embeddings": [[...]]}.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    AuthError,
    GatewayHttpError,
    GatewayTimeout,
    IoError,
    PreconditionError,
    SchemaError,
    ValidationError,
)
from .fileio import write_atomic

log = logging.getLogger(__name__)

RETRYABLE_STATUSES = frozenset({500, 502, 503, 504})

JSON_REPLY_INSTRUCTION = (
    "Reply with a single JSON object: "
    '{"answer": string, "source_sentence": string, "confidence": number in [0,1]} '
    'or {"no_answer": true} if the context does not contain an answer.'
)


@dataclass(frozen=True)
class GatewayConfig:
    base_url: str
    model: str
    api_key_env: str = "QASUM_API_KEY"
    timeout_ms: int = 30000
    max_retries: int = 2
    max_in_flight: int = 4
    mode: str = "live"  # live | replay | record
    fixtures_dir: str | None = None
    chat_path: str = "/v1/chat/completions"
    embed_path: str = "/v1/embeddings"
    backoff_base_ms: int = 500


@dataclass(frozen=True)
class AnswerReply:
    answer: str
    source_sentence: str
    confidence: float
    no_answer: bool = False


def canonical_body(body: dict) -> bytes:
    """Deterministic request-body bytes; also the record/replay fixture key input."""
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _fixture_key(body_bytes: bytes) -> str:
    """The record/replay fixture name (without .json) of a canonical request body."""
    return hashlib.sha256(body_bytes).hexdigest()


def request_fingerprint(body: dict) -> str:
    return _fixture_key(canonical_body(body))


def _validate_config(cfg: GatewayConfig) -> None:
    if cfg.mode not in ("live", "replay", "record"):
        raise ValidationError(f"gateway.mode: unknown mode {cfg.mode!r}")
    if not (cfg.base_url.startswith("http://") or cfg.base_url.startswith("https://")):
        raise ValidationError(f"gateway.base_url: not a valid http(s) URL: {cfg.base_url!r}")
    if cfg.timeout_ms < 1000:
        raise ValidationError(f"gateway.timeout_ms: must be >= 1000, got {cfg.timeout_ms}")
    if cfg.max_retries < 0:
        raise ValidationError("gateway.max_retries: must be >= 0")
    if cfg.max_in_flight < 1:
        raise ValidationError("gateway.max_in_flight: must be >= 1")
    if cfg.mode in ("replay", "record") and not cfg.fixtures_dir:
        raise ValidationError(f"gateway.fixtures_dir: required for mode={cfg.mode!r}")


class Gateway:
    """A configured client; share one instance so the in-flight cap is global."""

    def __init__(self, cfg: GatewayConfig, seed: int | None = None):
        _validate_config(cfg)
        self.cfg = cfg
        if cfg.mode in ("live", "record") and not os.environ.get(cfg.api_key_env):
            raise AuthError(
                f"API key environment variable {cfg.api_key_env} is not set"
            )
        self._sem = threading.Semaphore(cfg.max_in_flight)
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()

    # -- public operations ------------------------------------------------

    def chat_answer(self, prompt: str) -> AnswerReply:
        """Ask for an extractive answer; parses the strict reply schema."""
        body = {
            "model": self.cfg.model,
            "messages": [
                {"role": "system", "content": JSON_REPLY_INSTRUCTION},
                {"role": "user", "content": prompt},
            ],
        }
        payload = self._post(self.cfg.chat_path, body)
        return _parse_answer_reply(payload)

    def embed_remote(self, texts: list[str]) -> list[np.ndarray]:
        """Embed a batch of texts; vectors are L2-normalized on receipt."""
        if not texts:
            raise PreconditionError("embed_remote requires at least one text")
        body = {"model": self.cfg.model, "input": list(texts)}
        payload = self._post(self.cfg.embed_path, body)
        vectors = _parse_embeddings(payload)
        if len(vectors) != len(texts):
            raise SchemaError(
                f"embedding reply has {len(vectors)} vectors for {len(texts)} inputs"
            )
        return vectors

    # -- transport --------------------------------------------------------

    def _post(self, path: str, body: dict):
        body_bytes = canonical_body(body)
        if self.cfg.mode == "replay":
            status, payload = self._replay(body_bytes)
        else:
            status, payload = self._live(path, body_bytes)
            if self.cfg.mode == "record":
                self._record(body_bytes, status, payload)
        return self._check_status(status, payload)

    def _replay(self, body_bytes: bytes):
        digest = _fixture_key(body_bytes)
        fixture = Path(self.cfg.fixtures_dir) / f"{digest}.json"
        if not fixture.exists():
            raise IoError(
                f"no replay fixture for request {digest} (looked in {self.cfg.fixtures_dir})"
            )
        try:
            recorded = json.loads(fixture.read_text("utf-8"))
            return int(recorded["status"]), recorded["body"]
        except (ValueError, KeyError, TypeError) as exc:
            raise SchemaError(f"replay fixture {fixture.name} is malformed: {exc}") from exc

    def _record(self, body_bytes: bytes, status: int, payload) -> None:
        digest = _fixture_key(body_bytes)
        fixture = Path(self.cfg.fixtures_dir) / f"{digest}.json"
        recording = json.dumps({"status": status, "body": payload}, indent=2).encode("utf-8")
        with contextlib.suppress(OSError):
            if fixture.read_bytes() == recording:
                return  # a repeated request got the same reply: it is recorded already
        write_atomic(fixture, recording)

    def _live(self, path: str, body_bytes: bytes):
        import requests

        url = self.cfg.base_url.rstrip("/") + path
        headers = {
            "Authorization": f"Bearer {os.environ[self.cfg.api_key_env]}",
            "Content-Type": "application/json",
        }
        timeout_s = self.cfg.timeout_ms / 1000.0
        last_error: Exception | None = None
        for attempt in range(self.cfg.max_retries + 1):
            if attempt:
                self._backoff(attempt)
            try:
                with self._sem:
                    response = requests.post(url, data=body_bytes, headers=headers, timeout=timeout_s)
            except requests.Timeout:
                last_error = GatewayTimeout(f"request to {url} timed out after {timeout_s:.1f}s")
                log.debug("gateway timeout (attempt %d) for %s", attempt + 1, path)
                continue
            except requests.ConnectionError as exc:
                last_error = GatewayHttpError(0, f"connection to {url} failed: {exc}")
                log.debug("gateway connection error (attempt %d) for %s", attempt + 1, path)
                continue
            status = response.status_code
            if status in RETRYABLE_STATUSES:
                last_error = GatewayHttpError(status, f"HTTP {status} from {url}")
                log.debug("gateway HTTP %d (attempt %d) for %s", status, attempt + 1, path)
                continue
            return status, _parse_json_body(response.text)
        assert last_error is not None
        raise last_error

    def _backoff(self, attempt: int) -> None:
        with self._rng_lock:
            jitter = self._rng.uniform(0.5, 1.5)
        delay = (self.cfg.backoff_base_ms / 1000.0) * (2 ** (attempt - 1)) * jitter
        time.sleep(delay)

    def _check_status(self, status: int, payload):
        if status in (401, 403):
            raise AuthError(f"endpoint rejected the API key (HTTP {status})")
        if status in RETRYABLE_STATUSES:
            # Reachable in replay mode only; live mode retries these away.
            raise GatewayHttpError(status, f"HTTP {status} from recorded reply")
        if not 200 <= status < 300:
            raise GatewayHttpError(status, f"HTTP {status} from endpoint")
        return payload


def _parse_json_body(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"reply body is not JSON: {text[:200]!r}") from exc


def _extract_answer_object(payload):
    """Accept the answer object directly or inside a chat-completion envelope."""
    if isinstance(payload, dict) and "choices" in payload:
        try:
            content = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise SchemaError(
                f"chat envelope missing choices[0].message.content: {str(payload)[:200]!r}"
            ) from exc
        if isinstance(content, str):
            return _parse_json_body(content)
        return content
    return payload


def _parse_answer_reply(payload) -> AnswerReply:
    obj = _extract_answer_object(payload)
    if not isinstance(obj, dict):
        raise SchemaError(f"answer reply is not a JSON object: {str(obj)[:200]!r}")
    if obj.get("no_answer") is True:
        return AnswerReply(answer="", source_sentence="", confidence=0.0, no_answer=True)
    for key in ("answer", "source_sentence"):
        if not isinstance(obj.get(key), str) or not obj[key].strip():
            raise SchemaError(f"answer reply field {key!r} missing or empty: {str(obj)[:200]!r}")
    confidence = obj.get("confidence")
    if not isinstance(confidence, (int, float)) or not 0.0 <= confidence <= 1.0:
        raise SchemaError(
            f"answer reply field 'confidence' must be a number in [0, 1], got {confidence!r}"
        )
    return AnswerReply(
        answer=obj["answer"],
        source_sentence=obj["source_sentence"],
        confidence=float(confidence),
    )


def _parse_embeddings(payload) -> list[np.ndarray]:
    if isinstance(payload, dict) and "data" in payload:
        try:
            rows = [item["embedding"] for item in payload["data"]]
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"embedding reply rows malformed: {str(payload)[:200]!r}") from exc
    elif isinstance(payload, dict) and "embeddings" in payload:
        rows = payload["embeddings"]
    else:
        raise SchemaError(f"embedding reply has no 'data' or 'embeddings': {str(payload)[:200]!r}")
    vectors = []
    for i, row in enumerate(rows):
        vector = np.asarray(row, dtype=np.float64)
        if vector.ndim != 1 or vector.size == 0 or not np.all(np.isfinite(vector)):
            raise SchemaError(f"embedding reply vector {i} is not a finite 1-D array")
        norm = float(np.linalg.norm(vector))
        if norm == 0.0:
            raise SchemaError(f"embedding reply vector {i} has zero norm")
        vectors.append(vector / norm)
    return vectors
