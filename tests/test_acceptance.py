"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Everything here runs offline: remote behavior is exercised via replay
fixtures and a localhost stub server.
"""

import functools
import hashlib
import json
import logging
import random
import re
import threading
import time
from collections import Counter

import pytest

from index_rows import write_index
from oracles import embed_oracle, knn_oracle, metrics_oracle
from qasum import answer_engine as ae
from qasum import evaluation, summarizer
from qasum.cli import main
from qasum.corpus import segment_paragraphs, split_sentences
from qasum.embedding import reference_embedding
from qasum.errors import CorruptIndexError, GatewayHttpError
from qasum.question_bank import effective_params
from qasum.vector_index import VectorIndex


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {number} {name}: PASS")

        return wrapper

    return decorate


FIXTURE_QUERY_TEXTS = [
    "Why was the patient admitted?",
    "What was the principal discharge diagnosis?",
    "What medications were prescribed at discharge?",
    "What procedures were performed during the stay?",
    "What follow up appointments were scheduled?",
    "What dietary restrictions were recommended?",
    "fever and productive cough",
    "coronary angiography stent placement",
    "urinary tract infection sepsis",
    "follow up appointment cardiology clinic",
]


@criterion(1, "retrieval-oracle-equivalence")
def test_criterion_1_retrieval_oracle(fixture_index, fixture_entries):
    assert len(fixture_index) <= 200
    oracle_entries = [(e.para_id, list(e.vector), e.doc_id, e.note_type) for e in fixture_entries]
    started = time.perf_counter()
    for text in FIXTURE_QUERY_TEXTS:
        query = reference_embedding(text)
        expected = knn_oracle.brute_force_search(oracle_entries, list(query), 5)
        hits = fixture_index.search(query, k=5)
        assert [h.para_id for h in hits] == [pid for pid, _ in expected]
        for hit, (_, score) in zip(hits, expected):
            assert abs(hit.score - score) <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"retrieval check took {elapsed:.3f}s"


@criterion(2, "metric-oracle-equivalence")
def test_criterion_2_metric_oracles():
    words = ["the", "patient", "was", "admitted", "fever", "cough", "stable",
             "discharge", "daily", "pneumonia", "ceftriaxone", "pain", "follow", "up"]
    rng = random.Random(424242)
    for _ in range(20):
        cand = " ".join(rng.choice(words) for _ in range(rng.randint(1, 30)))
        ref = " ".join(rng.choice(words) for _ in range(rng.randint(1, 30)))
        for n in (1, 2):
            ours = evaluation.rouge_n(cand, ref, n)
            recall, precision, f1 = metrics_oracle.rouge_n(cand, ref, n)
            assert abs(ours.recall - recall) <= 1e-9
            assert abs(ours.precision - precision) <= 1e-9
            assert abs(ours.f1 - f1) <= 1e-9
        ours_l = evaluation.rouge_l(cand, ref)
        recall, precision, f1 = metrics_oracle.rouge_l(cand, ref)
        assert abs(ours_l.recall - recall) <= 1e-9
        assert abs(ours_l.precision - precision) <= 1e-9
        assert abs(ours_l.f1 - f1) <= 1e-9
        assert abs(evaluation.bleu(cand, ref) - metrics_oracle.bleu(cand, ref)) <= 1e-9

    hand = evaluation.rouge_n("the cat sat", "the cat slept on the mat", 1)
    assert hand.recall == 2 / 6
    assert hand.precision == 2 / 3
    assert evaluation.rouge_l("a b c d", "a c b d").recall == 0.75


def _write_config(tmp_path, fixtures_dir, **extra):
    config = {
        "corpus": {"path": str(fixtures_dir / "corpus.jsonl"), "format": "jsonl"},
        "embedder": {"kind": "hashed-reference", "dim": 256},
        "index_path": str(tmp_path / "index.qidx"),
        "question_bank_path": str(fixtures_dir / "question_bank.json"),
        "extractor": "mock",
        "output_dir": str(tmp_path / "out"),
        "run_timestamp": "2026-01-15T00:00:00Z",
    }
    config.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), "utf-8")
    return path


def _stopwords():
    from importlib import resources

    raw = resources.files("qasum.assets").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(l.strip() for l in raw.splitlines() if l.strip() and not l.startswith("#"))


def _oracle_expected_items(corpus_docs, fixture_paragraphs, bank):
    """Recompute every expected summary item from the stage oracles."""
    stop = _stopwords()
    tok = lambda t: re.findall(r"[a-z0-9]+", t.lower())
    content = lambda t: {w for w in tok(t) if w not in stop}

    def noun_phrases(text):
        phrases, run = [], []
        for t in tok(text):
            if t in stop:
                if run:
                    phrases.append(" ".join(run))
                    run = []
            else:
                run.append(t)
        if run:
            phrases.append(" ".join(run))
        return list(dict.fromkeys(phrases))

    doc_type = {d.doc_id: d.note_type for d in corpus_docs}
    doc_pos = {d.doc_id: i for i, d in enumerate(corpus_docs)}
    entries = [
        (p.para_id, embed_oracle.hashed_embedding(p.text), p.doc_id, doc_type[p.doc_id])
        for p in fixture_paragraphs
    ]
    expected = {}
    for question in bank.questions:
        eff = effective_params(question, bank.defaults)
        hits = knn_oracle.brute_force_search(
            entries, embed_oracle.hashed_embedding(question.text), eff.k,
            note_types=question.note_type_filter,
        )
        q_content = content(question.text)
        best = None
        for para_id, _ in hits:
            para = next(p for p in fixture_paragraphs if p.para_id == para_id)
            for sent in split_sentences(para):
                overlap = len(q_content & content(sent.text))
                if overlap == 0:
                    continue
                key = (doc_pos[para.doc_id], para.ordinal, sent.ordinal)
                if best is None or overlap > best[0] or (overlap == best[0] and key < best[1]):
                    best = (overlap, key, sent)
        if best is None:
            continue
        overlap, _, sent = best
        c = overlap / len(q_content)
        q_phrases, a_phrases = noun_phrases(question.text), noun_phrases(sent.text)
        if not q_phrases or not a_phrases:
            m = 0.0
        else:
            a_vecs = [embed_oracle.hashed_embedding(p) for p in a_phrases]
            m = sum(
                max(0.0, min(1.0, max(
                    embed_oracle.cosine(embed_oracle.hashed_embedding(p), av) for av in a_vecs
                )))
                for p in q_phrases
            ) / len(q_phrases)
        score = eff.fusion_weight * c + (1.0 - eff.fusion_weight) * m
        if score >= eff.score_threshold:
            expected[question.q_id] = (sent.sent_id, score)
    return expected


@criterion(3, "end-to-end-golden-run")
def test_criterion_3_golden_run(tmp_path, fixtures_dir, golden_dir, corpus_docs, fixture_paragraphs, bank):
    config = _write_config(tmp_path, fixtures_dir)
    golden_json = (golden_dir / "summary.json").read_bytes()
    golden_text = (golden_dir / "summary.txt").read_bytes()

    started = time.perf_counter()
    for _ in range(5):
        assert main(["index", "--config", str(config)]) == 0
        assert main(["summarize", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "summary.json").read_bytes() == golden_json
        assert (tmp_path / "out" / "summary.txt").read_bytes() == golden_text
    assert main(["summarize", "--config", str(config), "--workers", "4"]) == 0
    assert (tmp_path / "out" / "summary.json").read_bytes() == golden_json
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"golden runs took {elapsed:.3f}s"

    # The frozen golden must itself agree with the stage oracles.
    expected = _oracle_expected_items(corpus_docs, fixture_paragraphs, bank)
    summary = json.loads(golden_json)
    got = {item["q_id"]: (item["sent_id"], item["score"]) for item in summary["items"]}
    assert set(got) == set(expected)
    for q_id, (sent_id, score) in expected.items():
        assert got[q_id][0] == sent_id
        assert abs(got[q_id][1] - score) <= 1e-9


def _summaries_for_thresholds(bank, fixture_index, pinned, thresholds, ref_embedder):
    extractor = ae.MockExtractor(pinned)
    results = ae.answer_questions(bank.questions, fixture_index, ref_embedder, pinned, extractor, bank.defaults)
    answers = [r.answer for r in results if r.answer is not None]
    summaries = []
    for tau in thresholds:
        passed = [a for a in answers if a.score >= tau]
        summaries.append(
            summarizer.assemble(
                passed, bank, ref_embedder, bank.defaults,
                corpus_id="fixture", timestamp="2026-01-15T00:00:00Z",
            )
        )
    return answers, summaries


@criterion(4, "summary-diversity")
def test_criterion_4_diversity(bank, fixture_index, pinned, golden_dir, ref_embedder):
    golden = json.loads((golden_dir / "summary.json").read_text("utf-8"))
    _, summaries = _summaries_for_thresholds(
        bank, fixture_index, pinned, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], ref_embedder
    )
    checked = [[(i["sent_id"], i["sentence_text"]) for i in golden["items"]]]
    checked += [[(i.sent_id, i.sentence_text) for i in s.items] for s in summaries]
    for items in checked:
        ids = [sent_id for sent_id, _ in items]
        assert len(ids) == len(set(ids)), "repeated sent_id in summary"
        vectors = [embed_oracle.hashed_embedding(text) for _, text in items]
        for i in range(len(vectors)):
            for j in range(i + 1, len(vectors)):
                assert embed_oracle.cosine(vectors[i], vectors[j]) < 0.95


@criterion(5, "score-fusion-properties")
def test_criterion_5_fusion(bank, fixture_index, pinned, ref_embedder):
    rng = random.Random(5150)
    params_pool = []
    for _ in range(1000):
        c, m, w = rng.random(), rng.random(), rng.random()
        params_pool.append((c, m, w))
    from qasum.question_bank import RetrievalParams

    for c, m, w in params_pool:
        raw = ae.RawAnswer(answer_text="t", sentence=None, order_key=(0, 0, 0), confidence=c)
        answer = ae.fuse_and_threshold(raw, m, RetrievalParams(fusion_weight=w, score_threshold=0.5), "q")
        assert abs(answer.score - (w * c + (1.0 - w) * m)) <= 1e-12
        assert min(c, m) - 1e-12 <= answer.score <= max(c, m) + 1e-12

    answers, _ = _summaries_for_thresholds(bank, fixture_index, pinned, [], ref_embedder)
    previous = None
    for tau in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]:
        passed = {(a.q_id, a.sentence.sent_id) for a in answers if a.score >= tau}
        if previous is not None:
            assert passed <= previous, f"threshold sweep not monotone at tau={tau}"
        previous = passed


@criterion(6, "index-persistence")
def test_criterion_6_persistence(tmp_path, fixture_entries, fixture_index):
    path = tmp_path / "persist.qidx"
    write_index(path, fixture_entries)
    loaded = VectorIndex.load(path)
    for text in FIXTURE_QUERY_TEXTS:
        query = reference_embedding(text)
        before = fixture_index.search(query, k=10)
        after = loaded.search(query, k=10)
        assert [h.para_id for h in before] == [h.para_id for h in after]

    blob = path.read_bytes()
    bad_magic = tmp_path / "magic.qidx"
    bad_magic.write_bytes(b"BADMAGIC" + blob[8:])
    with pytest.raises(CorruptIndexError, match="magic"):
        VectorIndex.load(bad_magic)

    truncated = tmp_path / "trunc.qidx"
    truncated.write_bytes(blob[: len(blob) - len(blob) // 3])
    with pytest.raises(CorruptIndexError, match="truncated"):
        VectorIndex.load(truncated)

    flipped = bytearray(blob)
    flipped[len(flipped) // 2] ^= 0x01
    bad_crc = tmp_path / "crc.qidx"
    bad_crc.write_bytes(bytes(flipped))
    with pytest.raises(CorruptIndexError, match="checksum"):
        VectorIndex.load(bad_crc)


@criterion(7, "gateway-robustness-offline")
def test_criterion_7_gateway(tmp_path, monkeypatch, caplog):
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    from qasum.llm_gateway import (
        Gateway,
        GatewayConfig,
        JSON_REPLY_INSTRUCTION,
        canonical_body,
    )

    # Replay mode serves recorded fixtures without any network access.
    monkeypatch.delenv("QASUM_API_KEY", raising=False)
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    replay_cfg = GatewayConfig(base_url="https://no-network.invalid", model="m",
                               mode="replay", fixtures_dir=str(fixtures))
    body = {
        "model": "m",
        "messages": [
            {"role": "system", "content": JSON_REPLY_INSTRUCTION},
            {"role": "user", "content": "replayed prompt"},
        ],
    }
    (fixtures / f"{hashlib.sha256(canonical_body(body)).hexdigest()}.json").write_text(
        json.dumps({"status": 200, "body": {"answer": "a", "source_sentence": "s",
                                            "confidence": 0.4}}), "utf-8"
    )
    assert Gateway(replay_cfg).chat_answer("replayed prompt").confidence == 0.4

    # Retry behavior against a localhost stub: 2x5xx then success; 3x5xx fails.
    script = []
    seen = []
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            with lock:
                seen.append(raw)
                status, reply = script.pop(0)
            payload = json.dumps(reply).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    monkeypatch.setenv("QASUM_API_KEY", "SECRET-ACCEPTANCE-KEY")
    live_cfg = GatewayConfig(
        base_url=f"http://127.0.0.1:{server.server_address[1]}", model="m",
        max_retries=2, backoff_base_ms=10,
    )
    good = {"answer": "a", "source_sentence": "s", "confidence": 0.9}
    try:
        with caplog.at_level(logging.DEBUG):
            script[:] = [(500, {}), (502, {}), (200, good)]
            assert Gateway(live_cfg, seed=7).chat_answer("p").answer == "a"
            assert len(seen) == 3

            seen.clear()
            script[:] = [(500, {}), (500, {}), (500, {})]
            with pytest.raises(GatewayHttpError):
                Gateway(live_cfg, seed=7).chat_answer("p")
            assert len(seen) == 3
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert "SECRET-ACCEPTANCE-KEY" not in caplog.text


@criterion(8, "segmentation-round-trip")
def test_criterion_8_segmentation(corpus_docs):
    def nonspace(text):
        return Counter(ch for ch in text if not ch.isspace())

    for doc in corpus_docs:
        paragraphs = segment_paragraphs(doc)
        combined = Counter()
        raw = doc.text.encode("utf-8")
        last_end = 0
        for para in paragraphs:
            combined += nonspace(para.text)
            start, end = para.char_span
            assert 0 <= start < end <= len(raw)
            assert start >= last_end
            last_end = end
            assert raw[start:end].decode("utf-8") == para.text
            para_raw = para.text.encode("utf-8")
            sent_end = 0
            for sent in split_sentences(para):
                s_start, s_end = sent.char_span
                assert 0 <= s_start < s_end <= len(para_raw)
                assert s_start >= sent_end
                sent_end = s_end
                assert para_raw[s_start:s_end].decode("utf-8") == sent.text
        assert combined == nonspace(doc.text)
