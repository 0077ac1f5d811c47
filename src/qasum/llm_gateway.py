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
    """A gateway's settings; construction checks each field (ValidationError naming gateway.<field>)."""

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

    def __post_init__(self):
        def require(ok: bool, name: str, what: str) -> None:
            if not ok:
                raise ValidationError(f"gateway.{name}: must be {what}, got {getattr(self, name)!r}")

        for name in ("base_url", "model", "api_key_env", "mode", "chat_path", "embed_path"):
            require(type(getattr(self, name)) is str, name, "a string")
        for name, low in (("timeout_ms", 1000), ("max_retries", 0), ("max_in_flight", 1), ("backoff_base_ms", 0)):
            value = getattr(self, name)
            require(type(value) is int and value >= low, name, f"an integer >= {low}")
        require(self.mode in ("live", "replay", "record"), "mode", "'live', 'replay' or 'record'")
        require(self.base_url.startswith(("http://", "https://")), "base_url", "an http(s) URL")
        require(self.fixtures_dir is None or type(self.fixtures_dir) is str, "fixtures_dir", "a string or null")
        require(self.mode == "live" or bool(self.fixtures_dir), "fixtures_dir", f"set for mode {self.mode!r}")


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


class Gateway:
    """A configured client; share one instance so the in-flight cap is global."""

    def __init__(self, cfg: GatewayConfig, seed: int | None = None):
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
        try:
            raw = fixture.read_bytes()
        except FileNotFoundError as exc:
            raise IoError(
                f"no replay fixture for request {digest} (looked in {self.cfg.fixtures_dir})"
            ) from exc
        except OSError as exc:
            raise IoError(f"cannot read replay fixture {fixture}: {exc.strerror or exc}") from exc
        try:
            recorded = json.loads(raw.decode("utf-8"))
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
        write_atomic(fixture, [recording])

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


_NUMBER_TYPES = frozenset({int, float})


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
    if not isinstance(rows, list):
        raise SchemaError(f"embedding reply vectors are not a list: {str(rows)[:200]!r}")
    vectors = []
    for i, row in enumerate(rows):
        # Booleans and numeric strings are not numbers here; the type test runs in C.
        if not (isinstance(row, list) and row and set(map(type, row)) <= _NUMBER_TYPES):
            raise SchemaError(f"embedding reply vector {i} is not a nonempty list of numbers")
        try:
            vector = np.asarray(row, dtype=np.float64)
            finite = np.all(np.isfinite(vector))
        except OverflowError:  # an integer beyond the float64 range
            finite = False
        if not finite:
            raise SchemaError(f"embedding reply vector {i} has a component that is not finite")
        norm = float(np.linalg.norm(vector))
        if norm == 0.0:
            raise SchemaError(f"embedding reply vector {i} has zero norm")
        vectors.append(vector / norm)
    return vectors
