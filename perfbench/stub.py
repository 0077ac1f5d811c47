"""Deterministic loopback stand-in for the remote model endpoint.

Used only while setting up the bank-replay workload, to record replay
fixtures through the program's own `record` gateway mode; it is never timed.
Every reply depends only on the request body:

- embed requests get the program's reference-embedder vector of each input;
- chat requests get the context sentence with the largest content-token
  overlap with the question, copied verbatim as the reply contract asks,
  with confidence = overlap / question content tokens, or
  {"no_answer": true} when no sentence overlaps.

The reply is verbatim on purpose: a paraphrased source_sentence raises
UnlocatableSourceError, which answer_questions does not catch, so one such
reply aborts the whole summarize.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_CONTEXT_SPLIT_RE = re.compile(r"\n\n(?=\[[^\]\n]+\] )")
_PARA_RE = re.compile(r"\[([^\]\n]+)\] (.*)", re.DOTALL)


def _answer(prompt: str) -> dict:
    from qasum.answer_engine import content_tokens
    from qasum.corpus import Paragraph, split_sentences

    head, _, context = prompt.partition("\n\nCONTEXT:\n")
    question = head.rpartition("QUESTION: ")[2]
    wanted = content_tokens(question)
    best = None
    for block in _CONTEXT_SPLIT_RE.split(context.rstrip("\n")):
        match = _PARA_RE.match(block)
        if not match:
            continue
        para = Paragraph(para_id=match[1], doc_id="", ordinal=0, char_span=(0, 0), text=match[2])
        for sent in split_sentences(para):
            overlap = len(wanted & content_tokens(sent.text))
            if overlap and (best is None or overlap > best[0]):
                best = (overlap, sent.text)
    if best is None:
        return {"no_answer": True}
    overlap, sentence = best
    return {"answer": sentence, "source_sentence": sentence, "confidence": overlap / len(wanted)}


def _embedding(text: str, dim: int) -> list[float]:
    from qasum.embedding import reference_embedding
    from qasum.errors import EmptyTextError

    try:
        return reference_embedding(text, dim).tolist()
    except EmptyTextError:
        return [1.0] + [0.0] * (dim - 1)


class _Handler(BaseHTTPRequestHandler):
    dim = 256

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        if self.path.endswith("/embeddings"):
            reply = {"data": [{"embedding": _embedding(t, self.dim)} for t in body["input"]]}
        else:
            reply = _answer(body["messages"][-1]["content"])
        payload = json.dumps(reply).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


class LoopbackStub:
    """Serve the stub on 127.0.0.1 for the life of a `with` block."""

    def __init__(self, dim: int):
        handler = type("Handler", (_Handler,), {"dim": dim})
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        # Non-daemon handler threads are joined by server_close().
        self._server.daemon_threads = False
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self._server.server_address[1]}"

    def __enter__(self) -> "LoopbackStub":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)
