import json
import os
import re

import pytest

from index_rows import Row, build_index
from oracles import embed_oracle
import qasum.cli
from qasum import answer_engine as ae
from qasum.cli import load_config, main
from qasum.corpus import SegmentedCorpus, read_corpus
from qasum.embedding import reference_embedding
from qasum.errors import ValidationError
from qasum.llm_gateway import JSON_REPLY_INSTRUCTION, AnswerReply, request_fingerprint
from qasum.question_bank import effective_params, load_question_bank


def run(argv):
    return main(argv)


def config_with(pipeline_config, **updates):
    data = json.loads(pipeline_config.read_text("utf-8"))
    data.update(updates)
    pipeline_config.write_text(json.dumps(data), "utf-8")
    return pipeline_config


# -- config loading ----------------------------------------------------------


def test_relative_paths_resolve_against_config_dir(pipeline_config, tmp_path):
    cfg = load_config(pipeline_config)
    assert cfg.index_path == tmp_path / "out" / "index.qidx"
    assert cfg.output_dir == tmp_path / "out"


def test_remote_extractor_requires_gateway(pipeline_config):
    config_with(pipeline_config, extractor="remote")
    with pytest.raises(ValidationError, match="gateway"):
        load_config(pipeline_config)


def test_embedder_dim_must_fit_the_index_header(pipeline_config, capsys):
    config_with(pipeline_config, embedder={"kind": "hashed-reference", "dim": 65535})
    assert load_config(pipeline_config).embedder.dim == 65535
    config_with(pipeline_config, embedder={"kind": "hashed-reference", "dim": 70000})
    with pytest.raises(ValidationError, match="65535"):
        load_config(pipeline_config)
    assert run(["index", "--config", str(pipeline_config)]) == 1
    assert "embedder.dim" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("seed", [1]), ("seed", True), ("seed", "7"), ("seed", 1.5),
     ("run_timestamp", 5), ("run_timestamp", ["2026-01-15"]), ("workers", True)],
)
def test_config_field_types_are_checked(pipeline_config, capsys, key, value):
    config_with(pipeline_config, **{key: value})
    with pytest.raises(ValidationError, match=f"config: {key} must be"):
        load_config(pipeline_config)
    assert run(["index", "--config", str(pipeline_config)]) == 1
    assert f"{key} must be" in capsys.readouterr().err


def test_unknown_param_key_rejected(pipeline_config):
    config_with(pipeline_config, params={"knn": 4})
    with pytest.raises(ValidationError, match="knn"):
        load_config(pipeline_config)


@pytest.mark.parametrize("key", ["endpoint", "model_name", "dims"])
def test_unknown_embedder_key_rejected(pipeline_config, key):
    config_with(pipeline_config, embedder={"kind": "hashed-reference", "dim": 256, key: "x"})
    with pytest.raises(ValidationError, match=f"embedder has unknown keys \\['{key}'\\]"):
        load_config(pipeline_config)


def test_remote_embedder_requires_gateway(pipeline_config):
    config_with(pipeline_config, embedder={"kind": "remote", "dim": 256})
    with pytest.raises(ValidationError, match="remote embedder requires a gateway"):
        load_config(pipeline_config)


# -- index -------------------------------------------------------------------


def test_cmd_index_reports_counts(pipeline_config, tmp_path, capsys):
    assert run(["index", "--config", str(pipeline_config)]) == 0
    out = capsys.readouterr().out
    assert "12 docs / 32 paragraphs" in out
    assert (tmp_path / "out" / "index.qidx").exists()


def test_cmd_index_is_byte_deterministic(pipeline_config, tmp_path):
    assert run(["index", "--config", str(pipeline_config)]) == 0
    first = (tmp_path / "out" / "index.qidx").read_bytes()
    assert run(["index", "--config", str(pipeline_config)]) == 0
    assert (tmp_path / "out" / "index.qidx").read_bytes() == first


def test_failed_replace_keeps_the_previous_artifacts(pipeline_config, tmp_path, monkeypatch, capsys):
    assert run(["index", "--config", str(pipeline_config)]) == 0
    assert run(summarize_args(pipeline_config)) == 0
    out = tmp_path / "out"
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert set(before) == {"index.qidx", "summary.json", "summary.txt"}

    def no_space(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", no_space)
    capsys.readouterr()
    assert run(["index", "--config", str(pipeline_config)]) == 1
    # A looser threshold would change both summary files.
    assert run(summarize_args(pipeline_config, "--threshold", "0.2")) == 1
    assert capsys.readouterr().err.count("No space left on device") == 2
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_cmd_index_missing_corpus(pipeline_config, tmp_path, capsys):
    data = json.loads(pipeline_config.read_text("utf-8"))
    data["corpus"]["path"] = str(tmp_path / "missing.jsonl")
    pipeline_config.write_text(json.dumps(data), "utf-8")
    assert run(["index", "--config", str(pipeline_config)]) == 1
    assert "missing.jsonl" in capsys.readouterr().err


def test_escaped_internal_error_exits_1_with_one_line(pipeline_config, monkeypatch, capsys):
    def broken(cfg):
        raise KeyError("para_7")

    monkeypatch.setattr(qasum.cli, "cmd_index", broken)
    assert run(["index", "--config", str(pipeline_config)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: internal error: KeyError: 'para_7'\n"
    assert captured.out == ""


# -- ask -----------------------------------------------------------------------


def test_cmd_ask_composes_stage_oracles(pipeline_config, fixtures_dir, capsys):
    assert run(["index", "--config", str(pipeline_config)]) == 0
    capsys.readouterr()
    assert run(["ask", "--config", str(pipeline_config),
                "What medications were prescribed at discharge?"]) == 0
    out = capsys.readouterr().out
    match = re.search(
        r"confidence=([0-9.]+) np_score=([0-9.]+) fused=([0-9.]+) threshold=([0-9.]+)", out
    )
    assert match, out
    c, m, fused, tau = (float(g) for g in match.groups())
    assert fused == pytest.approx(0.5 * c + 0.5 * m, abs=1e-5)
    assert tau == 0.6
    assert "The following medications were prescribed at discharge" in out

    # cross-check the printed scores against independently recomputed values
    docs = read_corpus(fixtures_dir / "corpus.jsonl").load()[0]
    corpus = SegmentedCorpus(docs)
    sentence = corpus.sentence("p001-discharge#2:0")
    q_text = "What medications were prescribed at discharge?"
    q_phrases = ae.extract_noun_phrases(q_text)
    a_phrases = ae.extract_noun_phrases(sentence.text)
    a_vecs = [embed_oracle.hashed_embedding(p) for p in a_phrases]
    m_oracle = sum(
        max(0.0, min(1.0, max(embed_oracle.cosine(embed_oracle.hashed_embedding(p), av)
                              for av in a_vecs)))
        for p in q_phrases
    ) / len(q_phrases)
    assert c == pytest.approx(1.0, abs=1e-5)
    assert m == pytest.approx(m_oracle, abs=1e-5)


def test_cmd_ask_segments_only_the_documents_of_its_hits(pipeline_config, capsys, monkeypatch):
    import qasum.corpus

    assert run(["index", "--config", str(pipeline_config)]) == 0
    capsys.readouterr()
    segmented = []
    original = qasum.corpus.segment_paragraphs

    def counting(doc, *args, **kwargs):
        segmented.append(doc.doc_id)
        return original(doc, *args, **kwargs)

    monkeypatch.setattr(qasum.corpus, "segment_paragraphs", counting)
    assert run(["ask", "--config", str(pipeline_config), "--k", "2",
                "What medications were prescribed at discharge?"]) == 0
    hits = re.findall(r"^  \d+\. (\S+)  score=", capsys.readouterr().out, re.MULTILINE)
    hit_docs = {para_id.rpartition("#")[0] for para_id in hits}
    assert len(hits) == 2
    assert sorted(segmented) == sorted(hit_docs)


def test_cmd_ask_no_content_tokens_exits_2(pipeline_config, capsys):
    assert run(["index", "--config", str(pipeline_config)]) == 0
    assert run(["ask", "--config", str(pipeline_config), "why was the of and?"]) == 2


def test_cmd_ask_missing_index_exits_1(pipeline_config, capsys):
    assert run(["ask", "--config", str(pipeline_config), "Why was the patient admitted?"]) == 1
    assert "index" in capsys.readouterr().err


# -- summarize -----------------------------------------------------------------


def summarize_args(pipeline_config, *extra):
    return ["summarize", "--config", str(pipeline_config),
            "--timestamp", "2026-01-15T00:00:00Z", *extra]


def test_cmd_summarize_matches_golden(pipeline_config, tmp_path, golden_dir):
    assert run(["index", "--config", str(pipeline_config)]) == 0
    assert run(summarize_args(pipeline_config)) == 0
    out = tmp_path / "out"
    assert (out / "summary.json").read_bytes() == (golden_dir / "summary.json").read_bytes()
    assert (out / "summary.txt").read_bytes() == (golden_dir / "summary.txt").read_bytes()


def test_cmd_summarize_parallel_matches_golden(pipeline_config, tmp_path, golden_dir):
    assert run(["index", "--config", str(pipeline_config)]) == 0
    assert run(summarize_args(pipeline_config, "--workers", "4")) == 0
    out = tmp_path / "out"
    assert (out / "summary.json").read_bytes() == (golden_dir / "summary.json").read_bytes()


def _write_variant_corpus(fixtures_dir, path, rewrite):
    lines = (fixtures_dir / "corpus.jsonl").read_text("utf-8").splitlines()
    records = [rewrite(json.loads(line)) for line in lines if line.strip()]
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", "utf-8")
    return str(path)


@pytest.mark.parametrize("stale", ["unknown_doc", "ordinal_past_end"])
def test_stale_index_is_a_clear_error(pipeline_config, tmp_path, fixtures_dir, capsys, stale):
    data = json.loads(pipeline_config.read_text("utf-8"))
    fixture_corpus = data["corpus"]["path"]
    if stale == "unknown_doc":
        # Index a copy whose doc_ids the fixture corpus does not have.
        data["corpus"]["path"] = _write_variant_corpus(
            fixtures_dir, tmp_path / "renamed.jsonl", lambda r: dict(r, doc_id="x-" + r["doc_id"]))
        index_corpus, query_corpus = data["corpus"]["path"], fixture_corpus
    else:
        # Query a copy whose documents keep only their first line (one paragraph each).
        index_corpus = fixture_corpus
        query_corpus = _write_variant_corpus(
            fixtures_dir, tmp_path / "short.jsonl", lambda r: dict(r, text=r["text"].split("\n")[0]))
    data["corpus"]["path"] = index_corpus
    pipeline_config.write_text(json.dumps(data), "utf-8")
    assert run(["index", "--config", str(pipeline_config)]) == 0
    data["corpus"]["path"] = query_corpus
    pipeline_config.write_text(json.dumps(data), "utf-8")
    capsys.readouterr()

    for argv in (summarize_args(pipeline_config),
                 ["ask", "--config", str(pipeline_config), "What medications were prescribed at discharge?"]):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert re.search(r"corpus \S+ is not the corpus the index was built from \(SHA-256", err), err
        assert "qasum index" in err


def _copy_corpus(fixtures_dir, tmp_path, edit):
    """A copy of the fixture corpus with edit applied to its text; the config must point at it."""
    path = tmp_path / "corpus.jsonl"
    path.write_text(edit((fixtures_dir / "corpus.jsonl").read_text("utf-8")), "utf-8")
    return str(path)


def _must_refuse(pipeline_config, capsys, cause):
    for argv in (summarize_args(pipeline_config),
                 ["ask", "--config", str(pipeline_config), "What medications were prescribed at discharge?"]):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and re.search(cause, err), err
        assert "rebuild it with `qasum index`" in err


def test_edited_corpus_with_the_same_doc_ids_is_refused(pipeline_config, tmp_path, fixtures_dir, capsys):
    corpus = _copy_corpus(fixtures_dir, tmp_path, lambda text: text)
    config_with(pipeline_config, corpus={"path": corpus, "format": "jsonl"})
    assert run(["index", "--config", str(pipeline_config)]) == 0
    original = (tmp_path / "corpus.jsonl").read_text("utf-8")
    edited = original.replace("productive cough", "productive coughs", 1)
    assert edited != original
    (tmp_path / "corpus.jsonl").write_text(edited, "utf-8")
    capsys.readouterr()
    _must_refuse(pipeline_config, capsys, r"is not the corpus the index was built from \(SHA-256")


def test_changed_abbreviation_list_is_refused(pipeline_config, capsys, monkeypatch):
    import qasum.corpus

    assert run(["index", "--config", str(pipeline_config)]) == 0
    original = qasum.corpus._abbreviations_bytes
    monkeypatch.setattr(qasum.corpus, "_abbreviations_bytes", lambda: original() + b"approx.\n")
    capsys.readouterr()
    _must_refuse(pipeline_config, capsys, r"other segmentation rules \(abbreviation list")


def _rewrite_index_table(path, change):
    """Apply change to the index file's string table, keeping its header and checksum consistent."""
    import struct
    import zlib

    header = struct.Struct("<8sHHQQ")
    blob = path.read_bytes()
    magic, version, dim, count, table_bytes = header.unpack_from(blob)
    table = json.loads(blob[header.size : header.size + table_bytes])
    change(table)
    table = json.dumps(table, separators=(",", ":")).encode()
    body = header.pack(magic, version, dim, count, len(table)) + table + blob[header.size + table_bytes : -4]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


@pytest.mark.parametrize("shift", [1, 10**9])
def test_malformed_locator_table_is_refused_before_any_search(pipeline_config, tmp_path, capsys, monkeypatch, shift):
    from qasum.vector_index import VectorIndex

    assert run(["index", "--config", str(pipeline_config)]) == 0
    _rewrite_index_table(tmp_path / "out" / "index.qidx", lambda table: table["locators"].__setitem__(
        1, table["locators"][1] + shift))
    monkeypatch.setattr(VectorIndex, "search", lambda *a, **k: pytest.fail("searched a refused index"))
    capsys.readouterr()
    _must_refuse(pipeline_config, capsys, r"locators into corpus \S+ (are not all line starts|reach outside it)")


def _summary_bytes(pipeline_config, tmp_path):
    assert run(["index", "--config", str(pipeline_config)]) == 0
    assert run(summarize_args(pipeline_config)) == 0
    return [(tmp_path / "out" / name).read_bytes() for name in ("summary.json", "summary.txt")]


@pytest.mark.parametrize("corpus_format", ["jsonl", "text-dir"])
def test_lazy_and_full_parsing_give_identical_summaries(
    pipeline_config, tmp_path, fixtures_dir, golden_dir, monkeypatch, corpus_format
):
    from qasum.corpus import CorpusFile

    if corpus_format == "text-dir":
        text_dir = tmp_path / "notes"
        text_dir.mkdir()
        for doc in read_corpus(fixtures_dir / "corpus.jsonl").load()[0]:
            (text_dir / f"{doc.note_type}_{doc.doc_id}.txt").write_text(doc.text, "utf-8")
        config_with(pipeline_config, corpus={"path": str(text_dir), "format": "text-dir"})
    lazy = _summary_bytes(pipeline_config, tmp_path)
    monkeypatch.setattr(CorpusFile, "pinned", lambda self, manifest: {d.doc_id: d for d in self.load()[0]})
    full = _summary_bytes(pipeline_config, tmp_path)
    assert lazy == full
    assert json.loads(lazy[0])["items"]
    if corpus_format == "jsonl":
        assert lazy == [(golden_dir / name).read_bytes() for name in ("summary.json", "summary.txt")]


def test_cmd_ask_json_loads_only_the_documents_of_its_hits(pipeline_config, capsys, monkeypatch):
    import types

    import qasum.corpus

    assert run(["index", "--config", str(pipeline_config)]) == 0
    capsys.readouterr()
    loaded = []

    def counting_loads(text):
        record = json.loads(text)
        loaded.append(record["doc_id"])
        return record

    monkeypatch.setattr(qasum.corpus, "json", types.SimpleNamespace(loads=counting_loads, JSONDecodeError=json.JSONDecodeError))
    assert run(["ask", "--config", str(pipeline_config), "--k", "2",
                "What medications were prescribed at discharge?"]) == 0
    hits = re.findall(r"^  \d+\. (\S+)  score=", capsys.readouterr().out, re.MULTILINE)
    assert len(hits) == 2
    assert sorted(loaded) == sorted({para_id.rpartition("#")[0] for para_id in hits})


def test_cmd_summarize_parallel_segments_each_document_once(pipeline_config, tmp_path, monkeypatch):
    from collections import Counter

    import qasum.corpus

    assert run(["index", "--config", str(pipeline_config)]) == 0
    calls = Counter()
    original = qasum.corpus.segment_paragraphs

    def counting(doc, *args, **kwargs):
        calls[doc.doc_id] += 1
        return original(doc, *args, **kwargs)

    monkeypatch.setattr(qasum.corpus, "segment_paragraphs", counting)
    assert run(summarize_args(pipeline_config, "--workers", "4")) == 0
    assert calls and set(calls.values()) == {1}


def test_cmd_summarize_threshold_sweep_adds_items(pipeline_config, tmp_path):
    assert run(["index", "--config", str(pipeline_config)]) == 0
    assert run(summarize_args(pipeline_config)) == 0
    base = json.loads((tmp_path / "out" / "summary.json").read_text("utf-8"))
    assert run(summarize_args(pipeline_config, "--threshold", "0.2")) == 0
    loose = json.loads((tmp_path / "out" / "summary.json").read_text("utf-8"))
    assert len(loose["items"]) > len(base["items"])
    assert {i["q_id"] for i in base["items"]} <= {i["q_id"] for i in loose["items"]}
    assert loose["meta"]["params"]["score_threshold"] == 0.2


def test_cmd_summarize_empty_summary_is_success(pipeline_config, tmp_path):
    assert run(["index", "--config", str(pipeline_config)]) == 0
    assert run(summarize_args(pipeline_config, "--threshold", "1.0")) == 0
    data = json.loads((tmp_path / "out" / "summary.json").read_text("utf-8"))
    assert data["meta"]["counts"]["questions_asked"] == 6


def _replay_contexts(fixtures_dir):
    """Each bank question's retrieved context, as a summarize over the fixture index sees it."""
    docs = read_corpus(fixtures_dir / "corpus.jsonl").load()[0]
    corpus = SegmentedCorpus(docs)
    doc_type = {d.doc_id: d.note_type for d in docs}
    index = build_index([Row(para.para_id, reference_embedding(para.text), para.doc_id, doc_type[para.doc_id])
                         for para in corpus.paragraphs])
    bank = load_question_bank(fixtures_dir / "question_bank.json")
    contexts = {}
    for question in bank.questions:
        eff = effective_params(question, bank.defaults)
        contexts[question.q_id] = ae.retrieve_context(question, index, reference_embedding, corpus, eff.k)
    return corpus, contexts


def _write_chat_fixture(fixtures, model, ctx, reply):
    body = {
        "model": model,
        "messages": [
            {"role": "system", "content": JSON_REPLY_INSTRUCTION},
            {"role": "user", "content": ae.build_prompt(ctx)},
        ],
    }
    (fixtures / f"{request_fingerprint(body)}.json").write_text(
        json.dumps({"status": 200, "body": reply}), "utf-8"
    )


def _verbatim_reply(corpus, ctx):
    first_sentence = corpus.sentences(ctx.hits[0].para_id)[0]
    return {"answer": first_sentence.text, "source_sentence": first_sentence.text, "confidence": 0.9}


def _use_replay_extractor(pipeline_config, model, fixtures):
    config_with(
        pipeline_config,
        extractor="remote",
        gateway={"base_url": "https://example.invalid", "model": model,
                 "mode": "replay", "fixtures_dir": str(fixtures)},
    )


def test_cmd_summarize_remote_replay_without_network(pipeline_config, tmp_path, fixtures_dir):
    # Record-style fixtures are synthesized for each question's request body,
    # then the whole run must complete with no network access.
    corpus, contexts = _replay_contexts(fixtures_dir)
    fixtures = tmp_path / "replies"
    fixtures.mkdir()
    model = "replay-model"
    for q_id, ctx in contexts.items():
        reply = {"no_answer": True} if q_id == "q-diet" else _verbatim_reply(corpus, ctx)
        _write_chat_fixture(fixtures, model, ctx, reply)

    _use_replay_extractor(pipeline_config, model, fixtures)
    assert run(["index", "--config", str(pipeline_config)]) == 0
    assert run(summarize_args(pipeline_config)) == 0
    data = json.loads((tmp_path / "out" / "summary.json").read_text("utf-8"))
    assert data["meta"]["counts"]["questions_asked"] == 6


def test_paraphrased_remote_reply_leaves_only_its_question_unanswered(
    pipeline_config, tmp_path, fixtures_dir, capsys
):
    corpus, contexts = _replay_contexts(fixtures_dir)
    fixtures = tmp_path / "replies"
    fixtures.mkdir()
    model = "replay-model"
    for ctx in contexts.values():
        _write_chat_fixture(fixtures, model, ctx, _verbatim_reply(corpus, ctx))
    _use_replay_extractor(pipeline_config, model, fixtures)
    assert run(["index", "--config", str(pipeline_config)]) == 0
    assert run(summarize_args(pipeline_config)) == 0
    verbatim = json.loads((tmp_path / "out" / "summary.json").read_text("utf-8"))
    assert "q-follow-up" in {item["q_id"] for item in verbatim["items"]}

    # The model rewords the source sentence of one question, so it cannot be located.
    ctx = contexts["q-follow-up"]
    reply = _verbatim_reply(corpus, ctx)
    reply["source_sentence"] = "In short, " + reply["source_sentence"].lower()
    _write_chat_fixture(fixtures, model, ctx, reply)
    capsys.readouterr()
    assert run(summarize_args(pipeline_config)) == 0
    paraphrased = json.loads((tmp_path / "out" / "summary.json").read_text("utf-8"))
    assert paraphrased["items"] == [i for i in verbatim["items"] if i["q_id"] != "q-follow-up"]
    answered = verbatim["meta"]["counts"]["questions_answered"]
    assert paraphrased["meta"]["counts"]["questions_answered"] == answered - 1

    # An ad-hoc ask of the same question sends the same request and gets no answer.
    assert run(["ask", "--config", str(pipeline_config), ctx.question.text]) == 2
    out = capsys.readouterr().out
    assert "no answer: source sentence not found in retrieved context" in out
    assert re.search(r"^  1\. \S+  score=", out, re.MULTILINE)


def test_one_gateway_serves_remote_embedder_and_extractor(pipeline_config, monkeypatch):
    import qasum.cli

    class CountingGateway:
        built = 0

        def __init__(self, cfg, seed=None):
            CountingGateway.built += 1

        def embed_remote(self, texts):
            return [reference_embedding(text) for text in texts]

        def chat_answer(self, prompt):
            return AnswerReply(answer="", source_sentence="", confidence=0.0, no_answer=True)

    monkeypatch.setattr(qasum.cli, "Gateway", CountingGateway)
    config_with(
        pipeline_config,
        embedder={"kind": "remote", "dim": 256},
        extractor="remote",
        gateway={"base_url": "https://example.invalid", "model": "m", "mode": "live"},
    )
    assert run(["index", "--config", str(pipeline_config)]) == 0
    CountingGateway.built = 0
    assert run(summarize_args(pipeline_config, "--workers", "2")) == 0
    assert CountingGateway.built == 1


class ReferenceGateway:
    """A gateway stand-in whose remote embeddings are the reference embedder's."""

    def __init__(self, cfg, seed=None):
        pass

    def embed_remote(self, texts):
        return [reference_embedding(text) for text in texts]


def test_index_built_by_another_embedder_is_refused(pipeline_config, monkeypatch, capsys):
    import qasum.cli

    monkeypatch.setattr(qasum.cli, "Gateway", ReferenceGateway)
    gateway = {"base_url": "https://example.invalid", "model": "m", "mode": "live"}
    ask = ["ask", "--config", str(pipeline_config), "What medications were prescribed at discharge?"]
    assert run(["index", "--config", str(pipeline_config)]) == 0
    # Same dim and, here, the very same vectors: only the recorded identity differs.
    config_with(pipeline_config, embedder={"kind": "remote", "dim": 256}, gateway=gateway)
    for argv in (summarize_args(pipeline_config), ask):
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "'hashed-reference'" in err and "'remote:m'" in err and "qasum index" in err

    assert run(["index", "--config", str(pipeline_config)]) == 0
    assert run(ask) == 0
    config_with(pipeline_config, gateway=dict(gateway, model="m2"))
    capsys.readouterr()
    assert run(ask) == 1
    err = capsys.readouterr().err
    assert "'remote:m'" in err and "'remote:m2'" in err


def test_cmd_summarize_remote_live_without_key_exits_1(pipeline_config, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("QASUM_API_KEY", raising=False)
    config_with(
        pipeline_config,
        extractor="remote",
        gateway={"base_url": "http://127.0.0.1:9", "model": "m"},
    )
    assert run(["index", "--config", str(pipeline_config)]) == 0
    assert run(summarize_args(pipeline_config)) == 1
    assert "QASUM_API_KEY" in capsys.readouterr().err


# -- evaluate -------------------------------------------------------------------


def test_cmd_evaluate_identity_is_all_ones(pipeline_config, tmp_path, capsys):
    text = tmp_path / "same.txt"
    text.write_text("the patient improved and was discharged home", "utf-8")
    source = tmp_path / "source.txt"
    source.write_text("a longer source text about the whole hospital course", "utf-8")
    assert run(["evaluate", "--config", str(pipeline_config),
                str(text), str(text), str(source)]) == 0
    report = json.loads((tmp_path / "out" / "metrics.json").read_text("utf-8"))
    assert report["rouge1_f"] == 1.0
    assert report["bleu"] == pytest.approx(1.0, abs=1e-12)
    assert report["embedding_similarity"] == pytest.approx(1.0, abs=1e-9)


def test_cmd_evaluate_matches_golden_report(pipeline_config, tmp_path, fixtures_dir, golden_dir):
    assert run(["evaluate", "--config", str(pipeline_config),
                str(golden_dir / "summary.txt"),
                str(fixtures_dir / "reference_summary.txt"),
                str(fixtures_dir / "source.txt")]) == 0
    got = (tmp_path / "out" / "metrics.json").read_bytes()
    assert got == (golden_dir / "metrics.json").read_bytes()


def test_cmd_evaluate_json_format(pipeline_config, tmp_path, capsys):
    text = tmp_path / "same.txt"
    text.write_text("alpha beta gamma delta", "utf-8")
    assert run(["evaluate", "--config", str(pipeline_config),
                str(text), str(text), str(text), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert '"rouge1_f": 1.0' in out


def test_cmd_evaluate_empty_source_exits_1(pipeline_config, tmp_path, capsys):
    cand = tmp_path / "c.txt"
    cand.write_text("text", "utf-8")
    empty = tmp_path / "empty.txt"
    empty.write_text("", "utf-8")
    assert run(["evaluate", "--config", str(pipeline_config),
                str(cand), str(cand), str(empty)]) == 1
    assert "tokens" in capsys.readouterr().err


def test_cmd_evaluate_missing_file_exits_1(pipeline_config, tmp_path):
    cand = tmp_path / "c.txt"
    cand.write_text("text", "utf-8")
    assert run(["evaluate", "--config", str(pipeline_config),
                str(cand), str(tmp_path / "missing.txt"), str(cand)]) == 1
