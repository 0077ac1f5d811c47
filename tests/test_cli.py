import errno
import hashlib
import io
import json
import math
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from index_file import IndexFile
from index_rows import Row, build_index, exact_hits
from oracles import embed_oracle
import qasum.cli
import qasum.embedding
import qasum.vector_index
from qasum import answer_engine as ae
from qasum.cli import load_config, main
from qasum.corpus import read_corpus, segment_paragraphs, split_sentences
from qasum.embedding import reference_counts, reference_embedding, unit_rows
from qasum.errors import CorruptIndexError, ValidationError
from qasum.llm_gateway import JSON_REPLY_INSTRUCTION, AnswerReply, canonical_body
from qasum.question_bank import effective_params, load_question_bank
from qasum.vector_index import VectorIndex

FIXTURES = Path(__file__).parent / "fixtures"


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


REPLAY_GATEWAY = {"base_url": "https://example.invalid", "model": "m", "mode": "replay", "fixtures_dir": "fx"}
BAD_GATEWAY_FIELDS = [
    ("base_url", 5), ("base_url", "ftp://x"), ("model", None), ("api_key_env", 1),
    ("timeout_ms", "30"), ("timeout_ms", 10), ("max_retries", 1.5), ("max_retries", -1),
    ("max_in_flight", True), ("mode", 5), ("mode", "offline"), ("fixtures_dir", 5), ("fixtures_dir", None),
    ("chat_path", ["/v1"]), ("embed_path", None), ("backoff_base_ms", "10"), ("backoff_base_ms", -1),
]


@pytest.mark.parametrize(
    "key, value",
    [("seed", [1]), ("seed", True), ("seed", "7"), ("seed", 1.5),
     ("run_timestamp", 5), ("run_timestamp", ["2026-01-15"]), ("workers", True), ("workers", 0),
     *((f"gateway.{field}", value) for field, value in BAD_GATEWAY_FIELDS)],
)
def test_config_field_types_are_checked(pipeline_config, capsys, key, value):
    if key.startswith("gateway."):
        # Checked on load even when, as here, no command uses the gateway.
        config_with(pipeline_config, gateway=dict(REPLAY_GATEWAY, **{key.partition(".")[2]: value}))
    else:
        config_with(pipeline_config, **{key: value})
    with pytest.raises(ValidationError, match=f"{re.escape(key)}:? must be"):
        load_config(pipeline_config)
    assert run(["index", "--config", str(pipeline_config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "internal error" not in err
    assert key in err


# Bad values of each retrieval param: a bool, a string, NaN, out of range, and a fraction for k.
BAD_PARAM_VALUES = {
    "k": [True, "1", math.nan, 0, 2.5],
    "fusion_weight": [False, "1", math.nan, 1.5],
    "score_threshold": [True, "1", math.nan, 1.5],
    "dedup_cosine": [True, "1", math.nan, -0.5],
}
PARAM_FLAGS = {"k": "--k", "score_threshold": "--threshold", "fusion_weight": "--weight"}


def _bad_param_cases():
    for key, values in BAD_PARAM_VALUES.items():
        for value in values:
            yield "config", key, value
            yield "defaults", key, value
            if key in ("k", "score_threshold"):
                yield "question", key, value
            if key in PARAM_FLAGS and value != "1":  # a flag value is always a string
                yield "flag", key, value
    yield "config", "knn", 4
    yield "defaults", "knn", 4


@pytest.mark.parametrize("entry, key, value", list(_bad_param_cases()))
def test_retrieval_params_keep_one_rule_at_every_entry_point(
    pipeline_config, tmp_path, fixtures_dir, capsys, entry, key, value
):
    # No index exists: the bad value must be reported before the index is read.
    updates = {"index_path": "missing/index.qidx"}
    argv = summarize_args(pipeline_config)
    if entry == "config":
        updates["params"] = {key: value}
        named = [f"params.{key}" if key != "knn" else "'knn'"]
    elif entry == "flag":
        argv += [PARAM_FLAGS[key], str(value).lower()]
        named = [f"params.{key}", f"argument {PARAM_FLAGS[key]}:"]
    else:
        bank = json.loads((fixtures_dir / "question_bank.json").read_text("utf-8"))
        if entry == "defaults":
            bank["defaults"][key] = value
            named = [f"defaults.{key}" if key != "knn" else "'knn'"]
        else:
            bank["questions"][0][key] = value
            named = [f"questions[0].{key}"]
        updates["question_bank_path"] = str(tmp_path / "bank.json")
        (tmp_path / "bank.json").write_text(json.dumps(bank), "utf-8")
    config_with(pipeline_config, **updates)
    if entry == "config":
        with pytest.raises(ValidationError, match=re.escape(named[0])):
            load_config(pipeline_config)
    elif entry != "flag":
        with pytest.raises(ValidationError, match=re.escape(named[0])):
            load_question_bank(tmp_path / "bank.json")
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "internal error" not in err
    assert any(name in err for name in named) and "index.qidx" not in err, err


@pytest.mark.parametrize(
    "argv, named",
    [(["summarize", "--k", "abc"], "argument --k: invalid int value: 'abc'"),
     (["ask"], "the following arguments are required: question"),
     (["report"], "invalid choice: 'report'"),
     (["summarize", "--workers", "0"], "config: workers must be a positive integer, got 0"),
     (["summarize", "--extractor", "remote"], "extractor 'remote' requires a gateway section")],
)
def test_usage_and_flag_errors_exit_1_with_one_line(pipeline_config, capsys, argv, named):
    assert run([*argv, "--config", str(pipeline_config)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert named in captured.err and captured.out == ""


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(["summarize", "--help"])
    assert exit_info.value.code == 0
    assert "--threshold" in capsys.readouterr().out


def test_one_parser_serves_every_command_without_leaking_flags(pipeline_config, capsys, monkeypatch):
    """main builds its parser once per process; a flag of one command never reaches the next."""
    built = []
    build_parser = qasum.cli.build_parser
    monkeypatch.setattr(qasum.cli, "build_parser", lambda: built.append(1) or build_parser())
    qasum.cli._parser.cache_clear()
    config_with(pipeline_config, params={"k": 3, "score_threshold": 0.7})
    assert run(["index", "--config", str(pipeline_config)]) == 0
    question = "What medications were prescribed at discharge?"
    outputs = []
    for flags in (["--k", "2", "--threshold", "0.9"], []):
        capsys.readouterr()
        assert run(["ask", "--config", str(pipeline_config), *flags, question]) == 0
        out = capsys.readouterr().out
        outputs.append((len(re.findall(r"^  \d+\. ", out, re.MULTILINE)), re.search(r"threshold=(\S+)", out)[1]))
    assert outputs == [(2, "0.900000"), (3, "0.700000")]
    assert built == [1]


@pytest.mark.parametrize("key", ["endpoint", "model_name", "dims"])
def test_unknown_embedder_key_rejected(pipeline_config, key):
    config_with(pipeline_config, embedder={"kind": "hashed-reference", "dim": 256, key: "x"})
    with pytest.raises(ValidationError, match=f"config: embedder: unknown keys \\['{key}'\\]"):
        load_config(pipeline_config)


def test_unknown_top_level_config_key_rejected(pipeline_config, capsys):
    # A misspelt "params" must not fall back to the defaults without a word.
    config_with(pipeline_config, parms={"k": 0})
    with pytest.raises(ValidationError, match=r"config: unknown keys \['parms'\]"):
        load_config(pipeline_config)
    assert run(["index", "--config", str(pipeline_config)]) == 1
    err = capsys.readouterr().err
    assert err == "error: config: unknown keys ['parms']\n"


def test_unknown_corpus_key_rejected(pipeline_config, capsys):
    # A misspelt "format" must not fall back to JSONL without a word.
    config_with(pipeline_config, corpus={"path": str(FIXTURES / "corpus.jsonl"), "fromat": "text-dir"})
    assert run(["index", "--config", str(pipeline_config)]) == 1
    assert capsys.readouterr().err == "error: config: corpus: unknown keys ['fromat']\n"


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


# SHA-256 of the fixture corpus's v5 index (binary columns and int8 counts) from JSONL and from text-dir.
# Each loads into the counts, squared norms, rows, manifest and search hits, bit for bit, of the v4 file
# that stored the manifest columns as JSON and the squared norms as a block.
PINNED_INDEX_SHA256 = {
    "jsonl": "3b9a84ca78b256c23a99c2d85b45e98768fe56ff983f8e3d9ed20f1df6e0b5b2",
    "text-dir": "498accfe89ea5e4d49080cfe6057130bd0c3ac5ef720ca8418934473f706c07b",
}


def test_cmd_index_bytes_are_pinned(pipeline_config, tmp_path):
    """The fixture index is byte-identical to the one the per-paragraph embedding loop wrote."""
    assert run(["index", "--config", str(pipeline_config)]) == 0
    index_bytes = (tmp_path / "out" / "index.qidx").read_bytes()
    assert hashlib.sha256(index_bytes).hexdigest() == PINNED_INDEX_SHA256["jsonl"]


def _write_text_dir_corpus(fixtures_dir, directory):
    """The fixture corpus as a text-dir corpus, one ``<note_type>_<doc_id>.txt`` per document."""
    directory.mkdir()
    for line in (fixtures_dir / "corpus.jsonl").read_text("utf-8").splitlines():
        record = json.loads(line)
        (directory / f"{record['note_type']}_{record['doc_id']}.txt").write_bytes(record["text"].encode("utf-8"))
    return str(directory)


@pytest.mark.parametrize("chunk_docs", [1, 2, 5, 100])
@pytest.mark.parametrize("corpus_format", ["jsonl", "text-dir"])
def test_cmd_index_bytes_do_not_depend_on_the_chunk_size(
    pipeline_config, tmp_path, fixtures_dir, monkeypatch, corpus_format, chunk_docs
):
    if corpus_format == "text-dir":
        config_with(pipeline_config, corpus={"path": _write_text_dir_corpus(fixtures_dir, tmp_path / "docs"),
                                             "format": "text-dir"})
    monkeypatch.setattr(qasum.cli, "_INDEX_CHUNK_DOCS", chunk_docs)
    assert run(["index", "--config", str(pipeline_config)]) == 0
    index_bytes = (tmp_path / "out" / "index.qidx").read_bytes()
    assert hashlib.sha256(index_bytes).hexdigest() == PINNED_INDEX_SHA256[corpus_format]


# Documents for the index path: every line break of str.splitlines, headers at the length bounds
# (41 letters after the capital is one too many) and after each kind of break, pieces over the
# 256-token cap, a whitespace-only document and an unembeddable paragraph.
_SEGMENTATION_TEXTS = [
    "Fever noted.\r\nCough\rworse\vat\fnight\x1cand\x1dday\x1ex\x85y\u2028z\u2029w\n\n\r\nSecond part."
    "\v\vThird\f \fFourth\x1c\x1cFifth\x85\x85Sixth\u2028\u2028Seventh\u2029\u2029Eighth\r\rNinth",
    "Intro line\nM" + "B" * 40 + ":\nheaded\nM" + "B" * 41 + ":\nnot headed\nMEDS:\r\nAspirin."
    "\nHOSPITAL COURSE:\rStable.\nPLAN:\vnot a header\nNOTE:\x85not one either\nEND:",
    "Alpha beta gamma. " * 100 + "\n\n" + " ".join(f"w{i}" for i in range(300)) + "\n \u3000\n Café İstanbul.",
    " \u3000\n\x1f\n\u00a0",
    "* * *\n\nReal words here.",
]


@pytest.mark.parametrize("chunk_docs", [1, 2, 100])
def test_cmd_index_rows_are_those_of_per_document_segmentation(pipeline_config, tmp_path, monkeypatch, chunk_docs):
    corpus = tmp_path / "corpus.jsonl"
    records = [{"doc_id": f"d{i}", "patient_id": "p", "note_type": "other", "text": text}
               for i, text in enumerate(_SEGMENTATION_TEXTS)]
    corpus.write_text("".join(json.dumps(record) + "\n" for record in records), "utf-8")
    config_with(pipeline_config, corpus={"path": str(corpus), "format": "jsonl"})
    monkeypatch.setattr(qasum.cli, "_INDEX_CHUNK_DOCS", chunk_docs)
    assert run(["index", "--config", str(pipeline_config)]) == 0
    loaded = VectorIndex.load(tmp_path / "out" / "index.qidx")

    docs = [doc for doc, _ in read_corpus(corpus).entries()]
    paragraphs = [(row, para) for row, doc in enumerate(docs) for para in segment_paragraphs(doc)]
    counts, kept = reference_counts([para.text for _, para in paragraphs])
    expected = [(row, para.ordinal) for (row, para), keep in zip(paragraphs, kept) if keep]
    assert len(expected) < len(paragraphs)  # "* * *" is left out
    assert max(len(para.text.split()) for _, para in paragraphs) == 256
    assert list(zip(loaded._row_docs.tolist(), loaded._ordinals.tolist())) == expected
    assert loaded._counts.tolist() == counts[kept].tolist()


def _vector_type(path):
    return IndexFile.parse(path.read_bytes()).header["vector"]


@pytest.mark.parametrize(
    "text, vector_type",
    [("sore throat", b"i1"), (" ".join(["a"] * 200), b"i2"), ("-".join(["a"] * 33_000), b"i4")],
    ids=["int8", "int16", "int32"],
)
def test_index_stores_counts_in_the_narrowest_type(pipeline_config, tmp_path, text, vector_type):
    # 200 tokens of one word: 200 unigrams and 199 bigrams. One whitespace word of 33,000 hyphen-joined
    # tokens: the paragraph cap counts whitespace tokens, so it stays one paragraph.
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"doc_id": "d1", "patient_id": "p", "note_type": "other", "text": text}) + "\n")
    config_with(pipeline_config, corpus={"path": str(corpus), "format": "jsonl"})
    assert run(["index", "--config", str(pipeline_config)]) == 0
    path = tmp_path / "out" / "index.qidx"
    assert _vector_type(path) == vector_type
    loaded = VectorIndex.load(path)
    counts, _ = reference_counts([text])
    assert loaded._counts.dtype == qasum.vector_index._VECTOR_TYPES[vector_type]
    assert loaded._counts.tobytes() == counts.astype(loaded._counts.dtype).tobytes()
    assert [(hit.para_id, hit.score) for hit in loaded.search(counts[0], k=1)] == [("d1#0", 1.0)]


def test_count_index_searches_as_the_exact_reference(pipeline_config, tmp_path, fixture_paragraphs, bank, ref_embedder):
    """The v4 index, searched with embed_many's counts, ranks the paragraphs as exact integer arithmetic does."""
    assert run(["index", "--config", str(pipeline_config)]) == 0
    loaded = VectorIndex.load(tmp_path / "out" / "index.qidx")
    texts = [para.text for para in fixture_paragraphs]
    para_ids = [para.para_id for para in fixture_paragraphs]
    rows, kept = ref_embedder.embed_many(texts)
    assert kept.all() and len(loaded) == len(para_ids)
    counts, kept = ref_embedder.embed_many([question.text for question in bank.questions] + texts)
    assert counts.dtype == np.int64 and kept.all()
    for query in counts:
        hits = loaded.search(query, k=len(para_ids))
        assert [(hit.para_id, hit.score) for hit in hits] == exact_hits(rows, para_ids, query, len(para_ids))


def test_ask_past_the_exact_score_bound_exits_1(pipeline_config, tmp_path, monkeypatch, capsys):
    """A question whose counts, times the index's largest, pass 2**106 cannot be scored exactly: exit 1, naming it."""

    class LargeFirstRow(qasum.vector_index.IndexWriter):
        def add(self, row_docs, ordinals, vectors):
            vectors = np.array(vectors)
            vectors[:1] = 2**31 - 1
            super().add(row_docs, ordinals, vectors)

    monkeypatch.setattr(qasum.cli, "IndexWriter", LargeFirstRow)
    assert run(["index", "--config", str(pipeline_config)]) == 0
    assert _vector_type(tmp_path / "out" / "index.qidx") == b"i4"
    question = "fever " * 190_000
    counts, _ = reference_counts([question])
    assert 256 * (2**31 - 1) ** 2 * int(counts[0] @ counts[0]) >= 2**106
    capsys.readouterr()
    assert run(["ask", "--config", str(pipeline_config), question]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "2**106" in err and err.count("\n") == 1


def _break_record(bad):
    """An edit of corpus lines: line 10 made malformed, or given line 1's doc_id."""

    def edit(text):
        lines = text.splitlines()
        if bad == "malformed":
            lines[9] = lines[9][:40]
        else:
            first_id = json.loads(lines[0])["doc_id"]
            lines[9] = json.dumps(dict(json.loads(lines[9]), doc_id=first_id))
        return "\n".join(lines) + "\n"

    return edit


@pytest.mark.parametrize(
    "bad, message",
    [
        ("malformed", r":10: invalid JSON"),
        ("duplicate", r":10: duplicate doc_id 'p001-admission' \(first seen at line 1\)"),
    ],
    ids=["malformed", "duplicate"],
)
def test_bad_record_in_a_later_chunk_keeps_the_previous_index(
    pipeline_config, tmp_path, fixtures_dir, monkeypatch, capsys, bad, message
):
    assert run(["index", "--config", str(pipeline_config)]) == 0
    out = tmp_path / "out"
    before = (out / "index.qidx").read_bytes()
    corpus = _copy_corpus(fixtures_dir, tmp_path, _break_record(bad))
    config_with(pipeline_config, corpus={"path": corpus, "format": "jsonl"})
    # Chunks of two documents: line 10 is in the fifth, after four chunks were embedded and spooled.
    monkeypatch.setattr(qasum.cli, "_INDEX_CHUNK_DOCS", 2)
    capsys.readouterr()
    assert run(["index", "--config", str(pipeline_config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {corpus}:") and err.count("\n") == 1 and re.search(message, err), err
    assert (out / "index.qidx").read_bytes() == before
    assert sorted(path.name for path in out.iterdir()) == ["index.qidx"]


def test_full_disk_while_spooling_keeps_the_previous_index(pipeline_config, tmp_path, monkeypatch, capsys):
    assert run(["index", "--config", str(pipeline_config)]) == 0
    before = (tmp_path / "out" / "index.qidx").read_bytes()

    class FullDisk(io.BytesIO):
        def write(self, data):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(qasum.vector_index.tempfile, "TemporaryFile", lambda **kwargs: FullDisk())
    capsys.readouterr()
    assert run(["index", "--config", str(pipeline_config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.endswith("No space left on device\n"), err
    assert (tmp_path / "out" / "index.qidx").read_bytes() == before


def _write_repeated_corpus(fixtures_dir, path, n_docs):
    """n_docs records that repeat the fixture documents in turn, each under a new doc_id."""
    records = [json.loads(line) for line in (fixtures_dir / "corpus.jsonl").read_text("utf-8").splitlines()]
    lines = [json.dumps(dict(records[i % len(records)], doc_id=f"d{i}")) for i in range(n_docs)]
    path.write_text("\n".join(lines) + "\n", "utf-8")
    return str(path)


def test_cmd_index_memory_does_not_grow_with_the_vectors(pipeline_config, tmp_path, fixtures_dir):
    """index's peak grows by a small share of the spooled block (4 bytes a component) when the corpus grows 4x.

    Only one chunk's rows are in memory at a time, and the corpus is read a
    line at a time; what grows with the corpus is the per-document and
    per-row columns. A wide dim makes the vectors the bulk of an index.
    """
    dim = 1024
    peaks, blocks = [], []
    for n_docs in (qasum.cli._INDEX_CHUNK_DOCS, 4 * qasum.cli._INDEX_CHUNK_DOCS):
        corpus = _write_repeated_corpus(fixtures_dir, tmp_path / f"corpus{n_docs}.jsonl", n_docs)
        config_with(pipeline_config, corpus={"path": corpus, "format": "jsonl"},
                    embedder={"kind": "hashed-reference", "dim": dim})
        tracemalloc.start()
        try:
            assert run(["index", "--config", str(pipeline_config)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        blocks.append(4 * dim * len(VectorIndex.load(tmp_path / "out" / "index.qidx")))
    assert peaks[1] - peaks[0] < 0.25 * (blocks[1] - blocks[0]), (peaks, blocks)


def test_cmd_index_leaves_out_unembeddable_paragraphs(pipeline_config, tmp_path, fixtures_dir, monkeypatch, capsys):
    corpus = _copy_corpus(fixtures_dir, tmp_path, lambda text: text.replace("\\n\\nPLAN:", "\\n\\n* * *\\n\\nPLAN:"))
    config_with(pipeline_config, corpus={"path": corpus, "format": "jsonl"})
    # Small chunks, so the skipped paragraphs fall in several of them.
    monkeypatch.setattr(qasum.cli, "_INDEX_CHUNK_DOCS", 2)
    assert run(["index", "--config", str(pipeline_config)]) == 0
    assert "12 docs / 35 paragraphs (3 unembeddable skipped)" in capsys.readouterr().out
    index = VectorIndex.load(tmp_path / "out" / "index.qidx")
    docs = (doc for doc, _ in read_corpus(corpus).entries())
    paragraphs = [p for doc in docs for p in segment_paragraphs(doc) if p.text != "* * *"]
    assert len(index) == len(paragraphs) == 32
    for para in paragraphs:
        hits = index.search(reference_counts([para.text])[0][0], k=len(index))
        own = next(hit for hit in hits if hit.para_id == para.para_id)
        assert own.score == 1.0


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


def test_lone_surrogate_in_the_corpus_exits_1(pipeline_config, tmp_path, fixtures_dir, capsys):
    corpus = _copy_corpus(fixtures_dir, tmp_path, lambda text: text.replace("productive cough", "productive \\ud800 cough", 1))
    lines = (tmp_path / "corpus.jsonl").read_text("utf-8").splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if "\\ud800" in line)
    config_with(pipeline_config, corpus={"path": corpus, "format": "jsonl"})
    assert run(["index", "--config", str(pipeline_config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {corpus}:{lineno}: field 'text' is not valid Unicode") and err.count("\n") == 1


def test_escaped_internal_error_exits_1_with_one_line(pipeline_config, monkeypatch, capsys):
    def broken(cfg):
        raise KeyError("para_7")

    monkeypatch.setattr(qasum.cli, "cmd_index", broken)
    assert run(["index", "--config", str(pipeline_config)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: internal error: KeyError: 'para_7'\n"
    assert captured.out == ""


# -- ask -----------------------------------------------------------------------


def test_cmd_ask_composes_stage_oracles(pipeline_config, fixture_paragraphs, capsys):
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
    sentence = split_sentences(next(p for p in fixture_paragraphs if p.para_id == "p001-discharge#2"))[0]
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


def test_cmd_ask_without_words_to_embed_exits_1(pipeline_config, capsys):
    assert run(["index", "--config", str(pipeline_config)]) == 0
    capsys.readouterr()
    assert run(["ask", "--config", str(pipeline_config), "???"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: question 'adhoc': '???' has no words to embed\n"
    assert "Traceback" not in captured.out + captured.err


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
    # Either way the queried corpus has other bytes than the indexed one, so both cases stop at the
    # corpus pin's SHA-256 check, before any search; test_hand_edited_ordinal_past_a_document_end_is_a_clear_error
    # reaches the check of a hit's paragraph.
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


def test_hand_edited_ordinal_past_a_document_end_is_a_clear_error(pipeline_config, tmp_path, capsys):
    """An index naming a paragraph the pinned corpus does not have fails with exit 1 and a rebuild hint."""
    assert run(["index", "--config", str(pipeline_config)]) == 0
    path = tmp_path / "out" / "index.qidx"
    parts = IndexFile.parse(path.read_bytes())
    # The follow-up question's top hit is this document's last paragraph, both in the bank and asked.
    doc = parts.fields["doc_ids"].index("p001-discharge")
    doc_rows = parts.columns["doc_rows"].tolist()
    last = sum(doc_rows[: doc + 1]) - 1
    assert parts.columns["ordinals"][last] == doc_rows[doc] - 1
    parts.columns["ordinals"][last] = doc_rows[doc]  # one past the end; rows stay in document order
    path.write_bytes(parts.file_bytes())
    capsys.readouterr()
    for argv in (summarize_args(pipeline_config),
                 ["ask", "--config", str(pipeline_config), "What follow up appointments were scheduled?"]):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"'p001-discharge#{doc_rows[doc]}'" in err and "qasum index" in err, err
        assert "internal error" not in err, err


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


def test_changed_paragraph_cap_is_refused(pipeline_config, tmp_path, capsys, monkeypatch):
    import qasum.corpus

    assert run(["index", "--config", str(pipeline_config)]) == 0
    built = VectorIndex.load(tmp_path / "out" / "index.qidx").corpus.segmentation
    monkeypatch.setattr(qasum.corpus, "MAX_PARAGRAPH_TOKENS", qasum.corpus.MAX_PARAGRAPH_TOKENS // 2)
    assert qasum.corpus.segmentation_digest() != built
    capsys.readouterr()
    _must_refuse(pipeline_config, capsys, r"other segmentation rules \(abbreviation list or paragraph token cap\)")


def _rewrite_locators(path, change):
    """Apply change to the index file's locator column, keeping its header and checksum consistent."""
    parts = IndexFile.parse(path.read_bytes())
    parts.columns["locators"] = change(parts.columns["locators"].astype("<u8"))
    path.write_bytes(parts.file_bytes())


@pytest.mark.parametrize("shift", [1, 10**9])
def test_malformed_locator_table_is_refused_before_any_search(pipeline_config, tmp_path, capsys, monkeypatch, shift):
    from qasum.vector_index import VectorIndex

    assert run(["index", "--config", str(pipeline_config)]) == 0
    def shifted(locators):
        locators[1] += shift
        return locators

    _rewrite_locators(tmp_path / "out" / "index.qidx", shifted)
    monkeypatch.setattr(VectorIndex, "search", lambda *a, **k: pytest.fail("searched a refused index"))
    capsys.readouterr()
    _must_refuse(pipeline_config, capsys, r"locators into corpus \S+ (are not all line starts|reach outside it)")


def test_locator_of_another_record_is_named_as_a_byte_offset(pipeline_config, tmp_path, capsys):
    """Locators leave the binary column as Python ints, so messages name the offset as a plain number."""
    assert run(["index", "--config", str(pipeline_config)]) == 0
    path = tmp_path / "out" / "index.qidx"
    locators = IndexFile.parse(path.read_bytes()).columns["locators"].tolist()
    _rewrite_locators(path, lambda column: np.roll(column, -1))  # each document located at the next one's record
    index, corpus, _ = qasum.cli._load_pinned(load_config(pipeline_config))
    first = index.corpus.doc_ids[0]
    with pytest.raises(CorruptIndexError) as refused:
        corpus.paragraph(0, 0)
    assert str(refused.value) == (
        f"the index locates document {first!r} at {locators[1]} in corpus {FIXTURES / 'corpus.jsonl'}, "
        "which holds no such record there; rebuild it with `qasum index`"
    )
    capsys.readouterr()
    assert run(["ask", "--config", str(pipeline_config), "What medications were prescribed at discharge?"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: the index locates document '[^']+' at \d+ in corpus .*qasum index`\n", err), err


def _summary_bytes(pipeline_config, tmp_path):
    assert run(["index", "--config", str(pipeline_config)]) == 0
    assert run(summarize_args(pipeline_config)) == 0
    return [(tmp_path / "out" / name).read_bytes() for name in ("summary.json", "summary.txt")]


@pytest.mark.parametrize("corpus_format", ["jsonl", "text-dir"])
def test_lazy_and_full_parsing_give_identical_summaries(
    pipeline_config, tmp_path, corpus_docs, golden_dir, monkeypatch, corpus_format
):
    from qasum.corpus import CorpusFile

    if corpus_format == "text-dir":
        text_dir = tmp_path / "notes"
        text_dir.mkdir()
        for doc in corpus_docs:
            (text_dir / f"{doc.note_type}_{doc.doc_id}.txt").write_text(doc.text, "utf-8")
        config_with(pipeline_config, corpus={"path": str(text_dir), "format": "text-dir"})
    lazy = _summary_bytes(pipeline_config, tmp_path)

    class Eager:
        """Every document parsed by entries() and segmented up front, looked up by position."""

        def __init__(self, source):
            self._docs = [[(p, split_sentences(p)) for p in segment_paragraphs(doc)] for doc, _ in source.entries()]

        def paragraph(self, doc, ordinal):
            return self._docs[doc][ordinal][0]

        def sentences(self, doc, ordinal):
            return self._docs[doc][ordinal][1]

    monkeypatch.setattr(CorpusFile, "pinned", lambda self, manifest: Eager(self))
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


def test_question_bank_that_is_not_utf8_exits_1_naming_it(pipeline_config, tmp_path, capsys):
    bank = tmp_path / "bank.json"
    bank.write_bytes('{"name": "caf\u00e9", "version": "1", "questions": []}'.encode("latin-1"))
    config_with(pipeline_config, question_bank_path=str(bank))
    assert run(summarize_args(pipeline_config)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bank}: not valid UTF-8: ") and err.count("\n") == 1
    assert "internal error" not in err


def _replay_contexts(fixtures_dir, index, corpus):
    """Each bank question's retrieved context, as a summarize over the fixture index sees it."""
    bank = load_question_bank(fixtures_dir / "question_bank.json")
    contexts = {}
    for question in bank.questions:
        eff = effective_params(question, bank.defaults)
        contexts[question.q_id] = ae.retrieve_context(question, index, reference_embedding(question.text), corpus, eff.k)
    return contexts


def _write_chat_fixture(fixtures, model, ctx, reply):
    body = {
        "model": model,
        "messages": [
            {"role": "system", "content": JSON_REPLY_INSTRUCTION},
            {"role": "user", "content": ae.build_prompt(ctx)},
        ],
    }
    (fixtures / f"{hashlib.sha256(canonical_body(body)).hexdigest()}.json").write_text(
        json.dumps({"status": 200, "body": reply}), "utf-8"
    )


def _verbatim_reply(corpus, ctx):
    first_sentence = corpus.sentences(ctx.hits[0].doc, ctx.hits[0].ordinal)[0]
    return {"answer": first_sentence.text, "source_sentence": first_sentence.text, "confidence": 0.9}


def _use_replay_extractor(pipeline_config, model, fixtures):
    config_with(
        pipeline_config,
        extractor="remote",
        gateway={"base_url": "https://example.invalid", "model": model,
                 "mode": "replay", "fixtures_dir": str(fixtures)},
    )


def test_cmd_summarize_remote_replay_without_network(pipeline_config, tmp_path, fixtures_dir, fixture_index, pinned):
    # Record-style fixtures are synthesized for each question's request body,
    # then the whole run must complete with no network access.
    corpus = pinned
    contexts = _replay_contexts(fixtures_dir, fixture_index, corpus)
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
    pipeline_config, tmp_path, fixtures_dir, capsys, fixture_index, pinned
):
    corpus = pinned
    contexts = _replay_contexts(fixtures_dir, fixture_index, corpus)
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


class RecordingGateway:
    """A live gateway stand-in: reference embeddings, and the first context sentence as every answer.

    Class attributes log the embed batches and count the chat requests of every instance.
    """

    paragraphs = {
        para.para_id: para
        for doc, _ in read_corpus(FIXTURES / "corpus.jsonl").entries()
        for para in segment_paragraphs(doc)
    }
    batches: list[list[str]] = []
    chats = 0

    def __init__(self, cfg, seed=None):
        pass

    def embed_remote(self, texts):
        RecordingGateway.batches.append(list(texts))
        return [reference_embedding(text) for text in texts]

    def chat_answer(self, prompt):
        RecordingGateway.chats += 1
        para_id = prompt.partition("CONTEXT:\n[")[2].partition("]")[0]
        sentence = split_sentences(self.paragraphs[para_id])[0].text
        return AnswerReply(answer=sentence, source_sentence=sentence, confidence=0.9)


def _use_recording_gateway(pipeline_config, monkeypatch, embedder="remote"):
    RecordingGateway.batches = []
    RecordingGateway.chats = 0
    monkeypatch.setattr(qasum.cli, "Gateway", RecordingGateway)
    config_with(
        pipeline_config,
        embedder={"kind": embedder, "dim": 256},
        extractor="remote",
        gateway={"base_url": "https://example.invalid", "model": "m", "mode": "live"},
    )


def test_remote_index_keeps_a_float32_block(pipeline_config, tmp_path, monkeypatch):
    assert run(["index", "--config", str(pipeline_config)]) == 0
    counts = VectorIndex.load(tmp_path / "out" / "index.qidx")
    _use_recording_gateway(pipeline_config, monkeypatch)
    assert run(["index", "--config", str(pipeline_config)]) == 0
    assert _vector_type(tmp_path / "out" / "index.qidx") == b"f4"
    # The gateway's vectors are the reference unit vectors: the block holds them as float32, and loads
    # them promoted to float64, as the count index's rows divided by their norms and rounded to float32.
    remote = VectorIndex.load(tmp_path / "out" / "index.qidx")
    assert remote.embedder == "remote:m"
    assert remote._matrix.tobytes() == unit_rows(counts._counts).astype("<f4").astype(np.float64).tobytes()


def test_remote_summarize_embeds_the_same_batches_whatever_the_workers(pipeline_config, tmp_path, monkeypatch):
    # A small batch size gives each phase several batches on the 6-question fixture bank.
    monkeypatch.setattr(qasum.embedding, "_REMOTE_BATCH", 4)
    _use_recording_gateway(pipeline_config, monkeypatch)
    assert run(["index", "--config", str(pipeline_config)]) == 0
    runs = []
    for workers in ("1", "2", "2", "2", "2", "2"):
        RecordingGateway.batches = []
        assert run(summarize_args(pipeline_config, "--workers", workers)) == 0
        out = tmp_path / "out"
        runs.append((RecordingGateway.batches, (out / "summary.json").read_bytes(), (out / "summary.txt").read_bytes()))
    batches = runs[0][0]
    assert all(run_ == runs[0] for run_ in runs[1:])
    assert len(batches) > 3 and max(map(len, batches)) == 4
    texts = [text for batch in batches for text in batch]
    assert len(texts) == len(set(texts))  # no text is requested twice in one command
    questions = [q.text for q in load_question_bank(FIXTURES / "question_bank.json").questions]
    assert texts[: len(questions)] == questions  # the question batch comes first, in bank order
    assert json.loads(runs[0][1])["items"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_summarize_question_without_words_fails_before_any_search_or_chat(
    pipeline_config, tmp_path, fixtures_dir, monkeypatch, capsys, workers
):
    bank = json.loads((fixtures_dir / "question_bank.json").read_text("utf-8"))
    bank["questions"][2]["text"] = "???"
    bank["questions"][4]["text"] = "..."
    (tmp_path / "bank.json").write_text(json.dumps(bank), "utf-8")
    _use_recording_gateway(pipeline_config, monkeypatch, embedder="hashed-reference")
    config_with(pipeline_config, question_bank_path=str(tmp_path / "bank.json"))
    assert run(["index", "--config", str(pipeline_config)]) == 0
    searches = []
    search = VectorIndex.search
    monkeypatch.setattr(VectorIndex, "search", lambda self, *a, **k: searches.append(a) or search(self, *a, **k))
    capsys.readouterr()
    assert run(summarize_args(pipeline_config, "--workers", workers)) == 1
    assert capsys.readouterr().err == "error: question 'q-discharge-meds': '???' has no words to embed\n"
    assert RecordingGateway.chats == 0 and searches == []
    assert not (tmp_path / "out" / "summary.json").exists()


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


def test_cmd_evaluate_remote_vector_of_the_wrong_length_exits_1(pipeline_config, tmp_path, monkeypatch, capsys):
    class ShortVectors(ReferenceGateway):
        def embed_remote(self, texts):
            return [reference_embedding(text, 128) for text in texts]

    monkeypatch.setattr(qasum.cli, "Gateway", ShortVectors)
    config_with(
        pipeline_config,
        embedder={"kind": "remote", "dim": 256},
        gateway={"base_url": "https://example.invalid", "model": "m", "mode": "live"},
    )
    text = tmp_path / "same.txt"
    text.write_text("the patient improved and was discharged home", "utf-8")
    assert run(["evaluate", "--config", str(pipeline_config), str(text), str(text), str(text)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "expected (256,)" in err
    assert not (tmp_path / "out" / "metrics.json").exists()


def test_unreadable_replay_fixture_exits_1_naming_it(pipeline_config, tmp_path, capsys):
    fixtures = tmp_path / "replies"
    fixtures.mkdir()
    config_with(
        pipeline_config,
        embedder={"kind": "remote", "dim": 256},
        gateway={"base_url": "https://example.invalid", "model": "m",
                 "mode": "replay", "fixtures_dir": str(fixtures)},
    )
    text = tmp_path / "same.txt"
    text.write_text("the patient improved and was discharged home", "utf-8")
    argv = ["evaluate", "--config", str(pipeline_config), str(text), str(text), str(text)]

    assert run(argv) == 1
    err = capsys.readouterr().err
    missing = re.fullmatch(r"error: no replay fixture for request ([0-9a-f]{64}) \(looked in .*\)\n", err)
    assert missing, err

    # A fixture path that cannot be read as a file is named, not an internal error.
    fixture = fixtures / f"{missing.group(1)}.json"
    fixture.mkdir()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read replay fixture {fixture}: ") and err.count("\n") == 1
    assert "internal error" not in err
    assert not (tmp_path / "out" / "metrics.json").exists()


@pytest.mark.parametrize("position", [0, 1, 2], ids=["candidate", "reference", "source"])
def test_cmd_evaluate_input_that_is_not_utf8_exits_1_naming_it(pipeline_config, tmp_path, capsys, position):
    good = tmp_path / "good.txt"
    good.write_text("the patient improved and was discharged home", "utf-8")
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("caf\u00e9 au lait".encode("latin-1"))
    inputs = [str(good)] * 3
    inputs[position] = str(bad)
    assert run(["evaluate", "--config", str(pipeline_config), *inputs]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad} is not valid UTF-8: ") and err.count("\n") == 1
    assert "internal error" not in err
    assert not (tmp_path / "out" / "metrics.json").exists()


def test_cmd_evaluate_missing_file_exits_1(pipeline_config, tmp_path):
    cand = tmp_path / "c.txt"
    cand.write_text("text", "utf-8")
    assert run(["evaluate", "--config", str(pipeline_config),
                str(cand), str(tmp_path / "missing.txt"), str(cand)]) == 1
