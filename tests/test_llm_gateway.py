import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from qasum.errors import (
    AuthError,
    GatewayHttpError,
    GatewayTimeout,
    IoError,
    PreconditionError,
    SchemaError,
    ValidationError,
)
from qasum.llm_gateway import (
    AnswerReply,
    Gateway,
    GatewayConfig,
    canonical_body,
    request_fingerprint,
)

KEY_ENV = "QASUM_API_KEY"


def replay_cfg(fixtures_dir, **overrides):
    defaults = dict(
        base_url="https://example.invalid",
        model="test-model",
        mode="replay",
        fixtures_dir=str(fixtures_dir),
    )
    defaults.update(overrides)
    return GatewayConfig(**defaults)


def chat_body(cfg, prompt):
    from qasum.llm_gateway import JSON_REPLY_INSTRUCTION

    return {
        "model": cfg.model,
        "messages": [
            {"role": "system", "content": JSON_REPLY_INSTRUCTION},
            {"role": "user", "content": prompt},
        ],
    }


def write_fixture(fixtures_dir, body, status, reply_body):
    fixtures_dir.mkdir(parents=True, exist_ok=True)
    path = fixtures_dir / f"{request_fingerprint(body)}.json"
    path.write_text(json.dumps({"status": status, "body": reply_body}), "utf-8")
    return path


# -- fingerprinting ---------------------------------------------------------


def test_canonical_body_is_key_order_independent():
    a = {"model": "m", "input": ["x"]}
    b = {"input": ["x"], "model": "m"}
    assert canonical_body(a) == canonical_body(b)
    assert request_fingerprint(a) == request_fingerprint(b)


# -- replay mode ------------------------------------------------------------


def test_replay_chat_answer(tmp_path):
    cfg = replay_cfg(tmp_path / "fx")
    reply = {"answer": "ceftriaxone", "source_sentence": "Gave ceftriaxone.", "confidence": 0.8}
    write_fixture(tmp_path / "fx", chat_body(cfg, "prompt-1"), 200, reply)
    got = Gateway(cfg).chat_answer("prompt-1")
    assert got == AnswerReply(answer="ceftriaxone", source_sentence="Gave ceftriaxone.",
                              confidence=0.8)


def test_replay_requires_no_api_key(tmp_path, monkeypatch):
    monkeypatch.delenv(KEY_ENV, raising=False)
    cfg = replay_cfg(tmp_path / "fx")
    reply = {"no_answer": True}
    write_fixture(tmp_path / "fx", chat_body(cfg, "p"), 200, reply)
    assert Gateway(cfg).chat_answer("p").no_answer is True


def test_replay_missing_fixture_fails(tmp_path):
    cfg = replay_cfg(tmp_path / "fx")
    (tmp_path / "fx").mkdir()
    with pytest.raises(IoError, match="no replay fixture"):
        Gateway(cfg).chat_answer("never recorded")


def test_replay_out_of_range_confidence_is_schema_error(tmp_path):
    cfg = replay_cfg(tmp_path / "fx")
    reply = {"answer": "a", "source_sentence": "s", "confidence": 1.7}
    write_fixture(tmp_path / "fx", chat_body(cfg, "p"), 200, reply)
    with pytest.raises(SchemaError, match="confidence"):
        Gateway(cfg).chat_answer("p")


def test_replay_envelope_reply(tmp_path):
    cfg = replay_cfg(tmp_path / "fx")
    inner = {"answer": "a", "source_sentence": "s", "confidence": 0.5}
    envelope = {"choices": [{"message": {"content": json.dumps(inner)}}]}
    write_fixture(tmp_path / "fx", chat_body(cfg, "p"), 200, envelope)
    assert Gateway(cfg).chat_answer("p").answer == "a"


def test_replay_unparseable_content_is_schema_error(tmp_path):
    cfg = replay_cfg(tmp_path / "fx")
    envelope = {"choices": [{"message": {"content": "not json at all"}}]}
    write_fixture(tmp_path / "fx", chat_body(cfg, "p"), 200, envelope)
    with pytest.raises(SchemaError):
        Gateway(cfg).chat_answer("p")


def test_replay_missing_answer_field_is_schema_error(tmp_path):
    cfg = replay_cfg(tmp_path / "fx")
    write_fixture(tmp_path / "fx", chat_body(cfg, "p"), 200, {"answer": "a", "confidence": 0.4})
    with pytest.raises(SchemaError, match="source_sentence"):
        Gateway(cfg).chat_answer("p")


def test_replay_http_error_statuses(tmp_path):
    cfg = replay_cfg(tmp_path / "fx")
    write_fixture(tmp_path / "fx", chat_body(cfg, "p500"), 500, {})
    with pytest.raises(GatewayHttpError) as err:
        Gateway(cfg).chat_answer("p500")
    assert err.value.status == 500
    write_fixture(tmp_path / "fx", chat_body(cfg, "p401"), 401, {})
    with pytest.raises(AuthError):
        Gateway(cfg).chat_answer("p401")


def embed_body(cfg, texts):
    return {"model": cfg.model, "input": list(texts)}


def test_replay_embeddings_order_and_normalization(tmp_path):
    cfg = replay_cfg(tmp_path / "fx")
    texts = ["one", "two", "three"]
    reply = {"data": [{"embedding": [3.0, 0.0]}, {"embedding": [0.0, 5.0]}, {"embedding": [1.0, 1.0]}]}
    write_fixture(tmp_path / "fx", embed_body(cfg, texts), 200, reply)
    vectors = Gateway(cfg).embed_remote(texts)
    assert len(vectors) == 3
    for vec in vectors:
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-9
    assert vectors[0][0] == pytest.approx(1.0)
    assert vectors[1][1] == pytest.approx(1.0)


def test_replay_embeddings_plain_schema(tmp_path):
    cfg = replay_cfg(tmp_path / "fx")
    write_fixture(tmp_path / "fx", embed_body(cfg, ["a"]), 200, {"embeddings": [[0.0, 2.0]]})
    vectors = Gateway(cfg).embed_remote(["a"])
    assert vectors[0][1] == pytest.approx(1.0)


def test_embed_empty_list_rejected(tmp_path):
    with pytest.raises(PreconditionError):
        Gateway(replay_cfg(tmp_path)).embed_remote([])


def test_embed_count_mismatch_is_schema_error(tmp_path):
    cfg = replay_cfg(tmp_path / "fx")
    write_fixture(tmp_path / "fx", embed_body(cfg, ["a", "b"]), 200, {"embeddings": [[1.0]]})
    with pytest.raises(SchemaError, match="2 inputs"):
        Gateway(cfg).embed_remote(["a", "b"])


def test_embed_zero_norm_vector_is_schema_error(tmp_path):
    cfg = replay_cfg(tmp_path / "fx")
    write_fixture(tmp_path / "fx", embed_body(cfg, ["a"]), 200, {"embeddings": [[0.0, 0.0]]})
    with pytest.raises(SchemaError, match="zero norm"):
        Gateway(cfg).embed_remote(["a"])


# -- config validation ------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValidationError, match="mode"):
        Gateway(GatewayConfig(base_url="https://x", model="m", mode="offline"))
    with pytest.raises(ValidationError, match="base_url"):
        Gateway(GatewayConfig(base_url="ftp://x", model="m"))
    with pytest.raises(ValidationError, match="timeout_ms"):
        Gateway(GatewayConfig(base_url="https://x", model="m", timeout_ms=10))
    with pytest.raises(ValidationError, match="fixtures_dir"):
        Gateway(GatewayConfig(base_url="https://x", model="m", mode="replay"))


def test_live_mode_requires_api_key(monkeypatch):
    monkeypatch.delenv(KEY_ENV, raising=False)
    with pytest.raises(AuthError, match=KEY_ENV):
        Gateway(GatewayConfig(base_url="https://example.invalid", model="m"))


# -- live mode against a local stub server ----------------------------------


class _StubHandler(BaseHTTPRequestHandler):
    script = []          # list of (status, body_dict) consumed per request
    requests_seen = []
    lock = threading.Lock()

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        with _StubHandler.lock:
            _StubHandler.requests_seen.append(raw)
            status, body = (
                _StubHandler.script.pop(0) if _StubHandler.script else (200, {"no_answer": True})
            )
        payload = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubHandler.script = []
    _StubHandler.requests_seen = []
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def live_cfg(base_url, **overrides):
    defaults = dict(base_url=base_url, model="m", max_retries=2, backoff_base_ms=10)
    defaults.update(overrides)
    return GatewayConfig(**defaults)


GOOD_REPLY = {"answer": "a", "source_sentence": "s", "confidence": 0.9}


def test_retry_succeeds_after_two_5xx(stub_server, monkeypatch):
    monkeypatch.setenv(KEY_ENV, "test-key")
    _StubHandler.script = [(500, {}), (503, {}), (200, GOOD_REPLY)]
    reply = Gateway(live_cfg(stub_server), seed=1).chat_answer("p")
    assert reply.answer == "a"
    assert len(_StubHandler.requests_seen) == 3


def test_record_writes_one_fixture_and_turns_write_errors_into_io_error(stub_server, monkeypatch, tmp_path):
    monkeypatch.setenv(KEY_ENV, "test-key")
    fixtures = tmp_path / "fixtures"
    _StubHandler.script = [(200, GOOD_REPLY)]
    recorder = Gateway(live_cfg(stub_server, mode="record", fixtures_dir=str(fixtures)), seed=1)
    recorded = recorder.chat_answer("p")
    fixture = fixtures / f"{request_fingerprint(chat_body(live_cfg(stub_server), 'p'))}.json"
    assert list(fixtures.iterdir()) == [fixture]
    assert Gateway(replay_cfg(fixtures, model="m")).chat_answer("p") == recorded

    # The same reply again leaves the recording alone; a new reply replaces it.
    inode = fixture.stat().st_ino
    _StubHandler.script = [(200, GOOD_REPLY), (200, dict(GOOD_REPLY, answer="b"))]
    recorder.chat_answer("p")
    assert fixture.stat().st_ino == inode
    assert recorder.chat_answer("p").answer == "b"
    assert list(fixtures.iterdir()) == [fixture]
    assert Gateway(replay_cfg(fixtures, model="m")).chat_answer("p").answer == "b"

    blocker = tmp_path / "not-a-dir"
    blocker.write_text("", "utf-8")
    _StubHandler.script = [(200, GOOD_REPLY)]
    with pytest.raises(IoError, match="not-a-dir"):
        Gateway(live_cfg(stub_server, mode="record", fixtures_dir=str(blocker / "fixtures")), seed=1).chat_answer("p")


def test_retry_gives_up_after_three_5xx(stub_server, monkeypatch):
    monkeypatch.setenv(KEY_ENV, "test-key")
    _StubHandler.script = [(500, {}), (500, {}), (500, {})]
    with pytest.raises(GatewayHttpError) as err:
        Gateway(live_cfg(stub_server), seed=1).chat_answer("p")
    assert err.value.status == 500
    assert len(_StubHandler.requests_seen) == 3  # never exceeds max_retries + 1


def test_4xx_not_retried(stub_server, monkeypatch):
    monkeypatch.setenv(KEY_ENV, "test-key")
    _StubHandler.script = [(404, {})]
    with pytest.raises(GatewayHttpError) as err:
        Gateway(live_cfg(stub_server), seed=1).chat_answer("p")
    assert err.value.status == 404
    assert len(_StubHandler.requests_seen) == 1


def test_401_is_auth_error_without_key_leak(stub_server, monkeypatch):
    monkeypatch.setenv(KEY_ENV, "SECRET-KEY-XYZ")
    _StubHandler.script = [(401, {})]
    with pytest.raises(AuthError) as err:
        Gateway(live_cfg(stub_server), seed=1).chat_answer("p")
    assert "SECRET-KEY-XYZ" not in str(err.value)


def test_api_key_never_in_logs_or_errors(stub_server, monkeypatch, caplog):
    monkeypatch.setenv(KEY_ENV, "SECRET-KEY-XYZ")
    with caplog.at_level(logging.DEBUG):
        _StubHandler.script = [(500, {}), (200, GOOD_REPLY)]
        Gateway(live_cfg(stub_server), seed=1).chat_answer("p")
        _StubHandler.script = [(500, {}), (500, {}), (500, {})]
        try:
            Gateway(live_cfg(stub_server), seed=1).chat_answer("p")
        except GatewayHttpError as exc:
            assert "SECRET-KEY-XYZ" not in str(exc)
    assert "SECRET-KEY-XYZ" not in caplog.text


def test_timeout_raises_gateway_timeout(monkeypatch):
    monkeypatch.setenv(KEY_ENV, "test-key")

    class SlowHandler(_StubHandler):
        def do_POST(self):
            import time

            time.sleep(1.4)
            super().do_POST()

    server = ThreadingHTTPServer(("127.0.0.1", 0), SlowHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        cfg = live_cfg(
            f"http://127.0.0.1:{server.server_address[1]}", timeout_ms=1000, max_retries=0
        )
        with pytest.raises(GatewayTimeout):
            Gateway(cfg, seed=1).chat_answer("p")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_in_flight_cap_enforced(monkeypatch):
    monkeypatch.setenv(KEY_ENV, "test-key")
    import time
    from concurrent.futures import ThreadPoolExecutor

    state = {"active": 0, "max_active": 0}
    lock = threading.Lock()

    class CountingHandler(_StubHandler):
        def do_POST(self):
            with lock:
                state["active"] += 1
                state["max_active"] = max(state["max_active"], state["active"])
            time.sleep(0.1)
            try:
                super().do_POST()
            finally:
                with lock:
                    state["active"] -= 1

    server = ThreadingHTTPServer(("127.0.0.1", 0), CountingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        _StubHandler.script = [(200, GOOD_REPLY) for _ in range(8)]
        gateway = Gateway(
            live_cfg(f"http://127.0.0.1:{server.server_address[1]}", max_in_flight=2), seed=1
        )
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda _: gateway.chat_answer("p"), range(8)))
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert state["max_active"] <= 2

