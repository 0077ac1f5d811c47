import dataclasses
import hashlib
import importlib
import io
import itertools
import json
import random
import re
import tracemalloc
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qasum.corpus
from oracles import segment_oracle
from qasum.corpus import (
    CorpusManifest,
    Document,
    Paragraph,
    load_abbreviations,
    read_corpus,
    segment_paragraphs,
    segmentation_digest,
    split_sentences,
    _lines,
)
from qasum.errors import CorruptIndexError, DuplicateIdError, FormatError, IoError, PreconditionError


def make_doc(text, doc_id="d1", note_type="other"):
    return Document(doc_id=doc_id, patient_id="p", note_type=note_type, timestamp=None, text=text)


# -- read_corpus ------------------------------------------------------------


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", "utf-8")


def record(doc_id, text="some text", note_type="other"):
    return {"doc_id": doc_id, "patient_id": "p1", "note_type": note_type,
            "timestamp": None, "text": text}


def read_all(source):
    """Every document of a CorpusFile, and the manifest ``qasum index`` records for them."""
    entries = list(source.entries())
    docs = [doc for doc, _ in entries]
    locators = [locator for _, locator in entries]
    return docs, source.manifest([doc.doc_id for doc in docs], [doc.note_type for doc in docs], locators)


def test_load_jsonl_in_file_order(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record("a"), record("b"), record("c")])
    docs = read_all(read_corpus(path))[0]
    assert [d.doc_id for d in docs] == ["a", "b", "c"]
    assert docs[0].text == "some text"


def test_load_empty_file(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("", "utf-8")
    assert read_all(read_corpus(path))[0] == []


def test_duplicate_doc_id_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record("dup"), record("dup")])
    with pytest.raises(DuplicateIdError) as err:
        list(read_corpus(path).entries())
    assert "dup" in str(err.value)
    assert "line 2" in str(err.value) or ":2" in str(err.value)


def test_malformed_json_names_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(record("a")) + "\n{not json\n", "utf-8")
    with pytest.raises(FormatError) as err:
        list(read_corpus(path).entries())
    assert ":2" in str(err.value)


def test_bad_note_type_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record("a", note_type="triage")])
    with pytest.raises(FormatError, match="note_type"):
        list(read_corpus(path).entries())


def test_missing_field_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    bad = record("a")
    del bad["patient_id"]
    write_jsonl(path, [bad])
    with pytest.raises(FormatError, match="patient_id"):
        list(read_corpus(path).entries())


@pytest.mark.parametrize("field", ["text", "doc_id", "patient_id", "timestamp"])
def test_lone_surrogate_is_a_format_error_on_both_paths(tmp_path, field):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record("a"), dict(record("b"), **{field: "Pain \ud800 noted."})])
    with pytest.raises(FormatError, match=rf"c\.jsonl:2: field '{field}' is not valid Unicode"):
        list(read_corpus(path).entries())

    # The query path parses a record on its first lookup, under the manifest an index records.
    source = read_corpus(path)
    offset = path.read_bytes().index(b"\n") + 1
    doc_id = "Pain \ud800 noted." if field == "doc_id" else "b"
    sha256 = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest = CorpusManifest(sha256=sha256, segmentation=segmentation_digest(), doc_ids=["a", doc_id],
                              type_names=["other"], type_codes=np.zeros(2, dtype=np.intp), locators=[0, offset])
    pinned = source.pinned(manifest)
    assert pinned.paragraph(0, 0).text == "some text"
    with pytest.raises(FormatError, match=rf"c\.jsonl@{offset}: field '{field}' is not valid Unicode"):
        pinned.paragraph(1, 0)


@pytest.mark.parametrize(
    "third, error, message",
    [
        ("{not json", FormatError, r"c\.jsonl:3: invalid JSON"),
        (json.dumps(record("a")), DuplicateIdError, r"c\.jsonl:3: duplicate doc_id 'a' \(first seen at line 1\)"),
    ],
    ids=["malformed", "duplicate"],
)
def test_entries_check_each_record_as_it_is_drawn(tmp_path, third, error, message):
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join([json.dumps(record("a")), json.dumps(record("b")), third]) + "\n", "utf-8")
    entries = read_corpus(path).entries()
    assert [next(entries)[0].doc_id for _ in range(2)] == ["a", "b"]
    with pytest.raises(error, match=message):
        next(entries)


def test_text_dir_entries_decode_each_file_as_it_is_drawn(tmp_path):
    (tmp_path / "a.txt").write_text("Alpha.", "utf-8")
    (tmp_path / "b.txt").write_bytes(b"\xff not UTF-8")
    entries = read_corpus(tmp_path, "text-dir").entries()
    doc, locator = next(entries)
    assert (doc.doc_id, doc.text, locator) == ("a", "Alpha.", "a.txt")
    with pytest.raises(FormatError, match=r"b\.txt is not valid UTF-8"):
        next(entries)


@given(st.text(alphabet="ab\n\r", max_size=30).map(str.encode))
def test_lines_are_the_lines_of_split(data):
    offsets = itertools.accumulate((len(line) + 1 for line in data.split(b"\n")), initial=0)
    digest = hashlib.sha256()
    assert list(_lines(io.BytesIO(data), digest.update)) == list(zip(offsets, data.split(b"\n")))
    assert digest.digest() == hashlib.sha256(data).digest()


def test_missing_path_is_io_error(tmp_path):
    with pytest.raises(IoError):
        read_corpus(tmp_path / "nope.jsonl")


def test_load_text_dir(tmp_path):
    (tmp_path / "admission_p9.txt").write_text("Admitted today.", "utf-8")
    (tmp_path / "discharge_p9.txt").write_text("Going home.", "utf-8")
    (tmp_path / "zz_consult.txt").write_text("Consult note.", "utf-8")
    docs = read_all(read_corpus(tmp_path, format="text-dir"))[0]
    assert [d.doc_id for d in docs] == ["admission_p9", "discharge_p9", "zz_consult"]
    assert [d.note_type for d in docs] == ["admission", "discharge", "other"]


def test_jsonl_locators_are_line_offsets_and_the_digest_covers_the_bytes(tmp_path):
    path = tmp_path / "c.jsonl"
    lines = [json.dumps(record("a")), "", json.dumps(record("b", text="caf\u00e9"), ensure_ascii=False)]
    path.write_bytes("\r\n".join(lines).encode("utf-8"))
    source = read_corpus(path)
    docs, manifest = read_all(source)
    data = path.read_bytes()
    assert [d.doc_id for d in docs] == list(manifest.doc_ids) == ["a", "b"]
    assert manifest.locators == [0, data.index(b'{"doc_id": "b"')]
    assert source.sha256 == hashlib.sha256(data).hexdigest()


def test_jsonl_entries_stream_the_file(tmp_path):
    """entries reads, hashes and parses one line at a time: its peak is far below the file's size."""
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record(f"d{i}", text="Fever and cough. " * 250) for i in range(1000)])
    size = path.stat().st_size
    tracemalloc.start()
    try:
        source = read_corpus(path)
        drawn = sum(1 for _ in source.entries())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert drawn == 1000 and peak < size / 8, (peak, size)
    # The digest of the streamed bytes is the digest the query path takes of the bytes read whole.
    assert source.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    fresh = read_corpus(path)
    fresh.pinned(source.manifest([], [], []))
    assert fresh.sha256 == source.sha256


def test_jsonl_digest_is_known_only_after_a_whole_read(tmp_path):
    """sha256 and manifest() never read the file themselves: they wait for a stream drawn to its end or pinned()."""
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record("a"), record("b")])
    source = read_corpus(path)
    with pytest.raises(PreconditionError, match="SHA-256"):
        source.sha256
    entries = source.entries()
    first = next(entries)
    with pytest.raises(PreconditionError, match="SHA-256"):
        source.manifest([first[0].doc_id], [first[0].note_type], [first[1]])
    assert len(list(entries)) == 1
    streamed = source.sha256
    assert streamed == hashlib.sha256(path.read_bytes()).hexdigest()
    # A second stream forgets the first digest until it too is drawn to its end.
    again = source.entries()
    next(again)
    with pytest.raises(PreconditionError, match="SHA-256"):
        source.sha256
    list(again)
    assert source.sha256 == streamed


def test_pinned_parses_the_bytes_it_hashed(tmp_path):
    """Bytes that change after pinned() read them are neither hashed nor parsed by the pinned corpus."""
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record("a"), record("b")])
    source = read_corpus(path)
    _, manifest = read_all(source)
    pinned = source.pinned(manifest)
    write_jsonl(path, [record("x"), record("y")])
    assert [pinned.paragraph(doc, 0).doc_id for doc in range(2)] == ["a", "b"]
    assert source.sha256 == manifest.sha256
    with pytest.raises(CorruptIndexError, match="SHA-256.*qasum index"):
        source.pinned(manifest)


def test_text_dir_reads_universal_newlines(tmp_path):
    (tmp_path / "admission_p9.txt").write_bytes(b"Line one.\r\nLine two.\rLine three.")
    docs, manifest = read_all(read_corpus(tmp_path, "text-dir"))
    assert docs[0].text == "Line one.\nLine two.\nLine three."
    assert manifest.locators == ["admission_p9.txt"]


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(FormatError, match="format"):
        read_corpus(tmp_path, format="csv")


# -- segment_paragraphs -----------------------------------------------------


def test_blank_line_split():
    paras = segment_paragraphs(make_doc("A\n\nB"))
    assert [p.text for p in paras] == ["A", "B"]
    assert [p.char_span for p in paras] == [(0, 1), (3, 4)]
    assert [p.para_id for p in paras] == ["d1#0", "d1#1"]


def test_empty_document():
    assert segment_paragraphs(make_doc("")) == []
    assert segment_paragraphs(make_doc("  \n\n \n")) == []


def test_discharge_note_with_header_line():
    # Two blank-line breaks plus one embedded header line; spans derived by
    # hand from the rules before implementation.
    text = (
        "Patient admitted with sepsis.\n"
        "\n"
        "HOSPITAL COURSE:\n"
        "Treated with IV antibiotics.\n"
        "MEDICATIONS:\n"
        "Ceftriaxone 1 g daily.\n"
        "\n"
        "Discharged home.\n"
    )
    paras = segment_paragraphs(make_doc(text, note_type="discharge"))
    assert [p.text for p in paras] == [
        "Patient admitted with sepsis.",
        "HOSPITAL COURSE:\nTreated with IV antibiotics.",
        "MEDICATIONS:\nCeftriaxone 1 g daily.",
        "Discharged home.",
    ]
    assert [p.char_span for p in paras] == [(0, 29), (31, 76), (77, 112), (114, 130)]


def test_header_must_start_line():
    # Indented pseudo-header does not split.
    paras = segment_paragraphs(make_doc("one\n MEDICATIONS:\ntwo"))
    assert len(paras) == 1


def test_token_cap_splits_at_sentence_boundaries(monkeypatch):
    monkeypatch.setattr(qasum.corpus, "MAX_PARAGRAPH_TOKENS", 50)
    sentence = "Alpha beta gamma delta epsilon. "
    doc = make_doc((sentence * 80).strip())  # 480 tokens, 80 sentences
    paras = segment_paragraphs(doc)
    assert all(len(p.text.split()) <= 50 for p in paras)
    assert all(p.text.endswith(".") for p in paras)


def test_token_cap_hard_splits_single_long_sentence():
    doc = make_doc(" ".join(f"tok{i}" for i in range(600)))
    paras = segment_paragraphs(doc)
    assert qasum.corpus.MAX_PARAGRAPH_TOKENS == 256
    assert all(len(p.text.split()) <= 256 for p in paras)
    assert sum(len(p.text.split()) for p in paras) == 600


# -- split_sentences --------------------------------------------------------


def para_of(text):
    return segment_paragraphs(make_doc(text))[0]


def test_basic_sentence_split():
    sents = split_sentences(para_of("Pt stable. Discharged home."))
    assert [s.text for s in sents] == ["Pt stable.", "Discharged home."]
    assert [s.sent_id for s in sents] == ["d1#0:0", "d1#0:1"]


def test_abbreviation_exception():
    sents = split_sentences(para_of("Dr. Smith increased dosage."))
    assert [s.text for s in sents] == ["Dr. Smith increased dosage."]


def test_unit_abbreviation_does_not_split():
    sents = split_sentences(para_of("Gave lisinopril 10 mg. Continue at home."))
    assert len(sents) == 1


def test_no_terminal_punctuation_is_one_sentence():
    para = para_of("no terminal punctuation")
    sents = split_sentences(para)
    assert [s.text for s in sents] == ["no terminal punctuation"]


def test_lowercase_after_period_does_not_split():
    sents = split_sentences(para_of("Oxygen at 2 L. min on admission."))
    assert len(sents) == 1


def test_semicolon_splits_before_uppercase():
    sents = split_sentences(para_of("Stable overnight; Plan discharge."))
    assert [s.text for s in sents] == ["Stable overnight;", "Plan discharge."]


def test_newline_alone_does_not_split():
    sents = split_sentences(para_of("HEADER:\nfirst line\nsecond line"))
    assert len(sents) == 1


def test_abbreviation_list_loads():
    abbrevs = load_abbreviations()
    assert {"dr", "mg", "q", "vs", "pt", "hx", "i.e", "e.g"} <= abbrevs


# Sentence-rule texts: units of a word, a sentence end, whitespace and the
# next word. The words cover bundled abbreviations (dotted ones like e.g.
# too), leading dots, a long letter run that ends in an abbreviation, a
# newline right before the period, and non-ASCII letters before the period,
# next to an abbreviation or not; the ends cover '.', '!', '?' and ';'.
_WORD_BEFORE_END = st.one_of(
    st.sampled_from([
        "Dr", "dr", "DR", "mg", "q", "Pt", "e.g", "E.G", "i.e", "b.i.d", "p.m", "etc",
        "..Dr", ".e.g", "..", "xdr", "patientmg", "a" * 40 + "dr",
        "Dr\n", "mg\n", "mg\n\n", "\n", "stable\n",
        "é", "Zoë", "µg", "édr", "Zoëmg", "naïveté", "stable", "10", "",
    ]),
    st.text(max_size=4),
)
_sentence_units = st.tuples(
    _WORD_BEFORE_END,
    st.sampled_from([".", ".", ".", "!", "?", ";", "..", ""]),
    st.sampled_from([" ", "  ", "\n", "\t", "\r\n", "\u00a0", "\u2028", ""]),
    st.one_of(st.sampled_from(["Smith", "The", "É", "Ünï", "A", "patient", "10"]), st.text(max_size=3)),
).map("".join)
_sentence_texts = st.lists(_sentence_units, max_size=12).map("".join)


@settings(max_examples=500, deadline=None)
@given(text=_sentence_texts)
def test_split_sentences_equals_the_segment_oracle(text):
    para = Paragraph(para_id="d1#0", doc_id="d1", ordinal=0, char_span=(0, len(text.encode("utf-8"))), text=text)
    got = [(s.text, s.char_span) for s in split_sentences(para)]
    assert got == segment_oracle.split_sentences(text)


def test_segment_oracle_reads_the_bundled_abbreviations():
    assert segment_oracle.abbreviations() == load_abbreviations()


# -- invariants -------------------------------------------------------------


def nonspace_counter(text):
    return Counter(ch for ch in text if not ch.isspace())


def random_note(rng):
    words = ["patient", "stable", "fever", "Dr", "mg", "ceftriaxone", "daily",
             "improved", "пульс", "overnight", "alert", "x-ray", "10.5", "q"]
    lines = []
    for _ in range(rng.randint(1, 12)):
        kind = rng.random()
        if kind < 0.15:
            lines.append("")
        elif kind < 0.3:
            lines.append("SECTION HEADER:")
        else:
            n = rng.randint(1, 20)
            sep = rng.choice([". ", " ", "; ", "! ", "? "])
            lines.append(sep.join(rng.choice(words) for _ in range(n)))
    return "\n".join(lines)


@pytest.fixture(scope="module")
def random_docs():
    rng = random.Random(20240601)
    return [make_doc(random_note(rng), doc_id=f"r{i}") for i in range(50)]


def assert_spans_valid(doc, paras):
    raw = doc.text.encode("utf-8")
    last_end = 0
    for ordinal, para in enumerate(paras):
        start, end = para.char_span
        assert 0 <= start < end <= len(raw)
        assert start >= last_end
        last_end = end
        sliced = raw[start:end].decode("utf-8")
        assert sliced == para.text
        assert sliced.strip() == sliced
        assert para.ordinal == ordinal
        para_raw = para.text.encode("utf-8")
        sent_last = 0
        for s_ord, sent in enumerate(split_sentences(para)):
            s_start, s_end = sent.char_span
            assert 0 <= s_start < s_end <= len(para_raw)
            assert s_start >= sent_last
            sent_last = s_end
            assert para_raw[s_start:s_end].decode("utf-8") == sent.text
            assert sent.ordinal == s_ord


def test_roundtrip_and_spans_on_fixture_corpus(corpus_docs):
    for doc in corpus_docs:
        paras = segment_paragraphs(doc)
        combined = Counter()
        for para in paras:
            combined += nonspace_counter(para.text)
        assert combined == nonspace_counter(doc.text)
        assert_spans_valid(doc, paras)


def test_roundtrip_and_spans_on_random_docs(random_docs, monkeypatch):
    monkeypatch.setattr(qasum.corpus, "MAX_PARAGRAPH_TOKENS", 30)
    for doc in random_docs:
        paras = segment_paragraphs(doc)
        combined = Counter()
        for para in paras:
            combined += nonspace_counter(para.text)
            assert len(para.text.split()) <= 30
        assert combined == nonspace_counter(doc.text)
        assert_spans_valid(doc, paras)


def test_segmentation_is_deterministic(random_docs):
    for doc in random_docs[:10]:
        first = segment_paragraphs(doc)
        second = segment_paragraphs(doc)
        assert first == second


def test_multibyte_spans_are_byte_offsets():
    doc = make_doc("émigré café.\n\nNaïve test.")
    paras = segment_paragraphs(doc)
    assert len(paras) == 2
    assert_spans_valid(doc, paras)
    start, end = paras[0].char_span
    assert end - start == len("émigré café.".encode("utf-8"))


# Fragments that drive the splitters (headers, sentence ends, abbreviations,
# blank lines) mixed with arbitrary text; ASCII-only and full-Unicode variants.
_FRAGMENTS = ["Fever. ", "She ", "MEDICATIONS:\n", "\n\n", "\r\n", "Dr. Lee; Then", "x! Y? ", "  "]


def _document_text(codec):
    piece = st.one_of(st.sampled_from(_FRAGMENTS), st.text(st.characters(codec=codec), max_size=6))
    return st.lists(piece, max_size=25).map("".join)


@settings(max_examples=300, deadline=None)
@given(
    text=st.one_of(_document_text("ascii"), _document_text("utf-8")),
    cap=st.integers(min_value=1, max_value=12),
)
def test_byte_spans_recover_text_on_arbitrary_unicode(text, cap):
    doc = make_doc(text)
    with patch.object(qasum.corpus, "MAX_PARAGRAPH_TOKENS", cap):
        paras = segment_paragraphs(doc)
    assert_spans_valid(doc, paras)


# Paragraph-rule texts: every line break of str.splitlines, whitespace that
# does not break a line, whitespace-only lines, header-like lines with 0, 1,
# 40 and 41 letters after the capital (so 1, 2, 41 and 42 letters in all),
# non-ASCII text, and pieces over the 256-token cap: a run of short
# sentences, and one sentence with no end.
_LINE_BREAKS = ["\r\n", "\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_INLINE_SPACES = [" ", "\t", "\x1f", "\u00a0", "\u3000"]
_header_like = st.builds(
    lambda first, letters, end: first + letters + end,
    st.sampled_from(["M", "m"]),
    st.sampled_from(["", "E", "B" * 40, "B" * 41, "OSPITAL COURSE", "a/b C"]),
    st.sampled_from([":", ":", ":x", ": "]),
)
_header_unit = st.tuples(
    st.sampled_from(["Fever.", "x", " "]),
    st.sampled_from(_LINE_BREAKS),
    _header_like,
    st.sampled_from(["\n", "\r\n", "\r", "\v", "\x85", ""]),
).map("".join)
_paragraph_unit = st.one_of(
    st.sampled_from(_LINE_BREAKS),
    st.sampled_from(_LINE_BREAKS).map(lambda brk: brk + brk),
    st.sampled_from(_INLINE_SPACES),
    st.tuples(st.sampled_from(_INLINE_SPACES), st.sampled_from(_LINE_BREAKS)).map("".join),
    _header_unit,
    _header_unit,
    st.sampled_from(["Fever. ", "Dr. Lee; Then ", "word ", "x", "İ", "Zoë. ", "°C", "µg ", "Hélène Dubé."]),
    st.text(st.characters(codec="utf-8"), max_size=5),
    st.just("Alpha beta gamma. " * 90),
    st.just(" ".join(f"w{i}" for i in range(300))),
)
_paragraph_texts = st.lists(_paragraph_unit, max_size=20).map("".join)


def _columns_as_oracle(texts):
    """The chunk kernel over texts, per text, as the oracle states paragraphs: (text, (start byte, end byte)).

    Spans come from paragraph_pieces over the joined texts; the text of each
    paragraph must also be paragraph_columns' text at the same place.
    """
    joined = "\n\n".join(texts)
    starts = [0]
    for text in texts:
        starts.append(starts[-1] + len(text) + 2)
    rows, ordinals, paragraphs = qasum.corpus.paragraph_columns(texts)
    pieces = list(qasum.corpus.paragraph_pieces(joined, starts))
    assert [(row, ordinal) for row, ordinal, _, _ in pieces] == list(zip(rows, ordinals))
    per_text = [[] for _ in texts]
    for (row, ordinal, start, end), paragraph in zip(pieces, paragraphs):
        assert ordinal == len(per_text[row])
        assert paragraph == joined[start:end]
        text, offset = texts[row], starts[row]
        start, end = start - offset, end - offset
        per_text[row].append((paragraph, (len(text[:start].encode("utf-8")), len(text[:end].encode("utf-8")))))
    return per_text


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(_paragraph_texts, min_size=1, max_size=4), cap=st.sampled_from([256, 256, 4]))
@example(texts=["x\r\nMEDS:\r\ny", "x\nM" + "B" * 40 + ":\ny\vMEDS:\nz"], cap=256)
@example(texts=["x\nM" + "B" * 41 + ":\ny", "x\u2028y\u2029\u2029z\x85MEDS:\x1c\x1cw\rMEDS:"], cap=256)
def test_paragraphs_equal_the_segment_oracle(texts, cap):
    with patch.object(qasum.corpus, "MAX_PARAGRAPH_TOKENS", cap):
        expected = [segment_oracle.segment_paragraphs(text, cap) for text in texts]
        assert [[(p.text, p.char_span) for p in segment_paragraphs(make_doc(text))] for text in texts] == expected
        assert _columns_as_oracle(texts) == expected


def test_segment_oracle_breaks_lines_as_splitlines():
    breaks = {chr(c) for c in range(0x110000) if len(f"a{chr(c)}b".splitlines()) == 2}
    assert breaks == set(segment_oracle.LINE_BREAKS)


def _regex_opcodes(parsed):
    """Names of every opcode in a parsed regular expression, nested ones included."""
    for item in parsed:
        if isinstance(item, tuple) and len(item) == 2 and hasattr(item[0], "name"):
            yield item[0].name
            yield from _regex_opcodes([item[1]])
        elif isinstance(item, (tuple, list)) or hasattr(item, "data"):
            yield from _regex_opcodes(item.data if hasattr(item, "data") else item)


def test_patterns_compile_on_python_3_10():
    # The package supports Python 3.10, whose re has no possessive quantifiers or atomic groups.
    parser = getattr(re, "_parser", None) or importlib.import_module("sre_parse")
    patterns = [value for value in vars(qasum.corpus).values() if isinstance(value, re.Pattern)]
    assert qasum.corpus._PIECE_RE in patterns
    for pattern in patterns:
        opcodes = set(_regex_opcodes(parser.parse(pattern.pattern, pattern.flags)))
        assert not opcodes & {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}, pattern.pattern


# -- pinned corpus ------------------------------------------------------------


def test_lazy_lookups_match_full_segmentation(pinned, corpus_docs):
    # Reverse order, so documents are cached in a different order than they are stored.
    for doc in reversed(range(len(corpus_docs))):
        for para in reversed(segment_paragraphs(corpus_docs[doc])):
            assert pinned.paragraph(doc, para.ordinal) == para
            assert pinned.sentences(doc, para.ordinal) == split_sentences(para)


@pytest.mark.parametrize("ordinal", [4, 99, -1])
def test_paragraph_past_a_document_end_is_a_corrupt_index(pinned, corpus_docs, ordinal):
    doc = [d.doc_id for d in corpus_docs].index("p001-discharge")
    assert len(segment_paragraphs(corpus_docs[doc])) == 4
    message = rf"index entry 'p001-discharge#{ordinal}' is not a paragraph of the corpus.*rebuild it with `qasum index`"
    with pytest.raises(CorruptIndexError, match=message):
        pinned.paragraph(doc, ordinal)
    with pytest.raises(CorruptIndexError, match=message):
        pinned.sentences(doc, ordinal)


def test_concurrent_lookups_segment_each_document_once(corpus_docs, pin_documents, monkeypatch):
    import sys
    import time
    from concurrent.futures import ThreadPoolExecutor

    calls = Counter()
    original = qasum.corpus.segment_paragraphs

    def counting(doc, *args, **kwargs):
        calls[doc.doc_id] += 1
        time.sleep(0.001)  # widen the window in which a second thread could segment it too
        return original(doc, *args, **kwargs)

    monkeypatch.setattr(qasum.corpus, "segment_paragraphs", counting)
    corpus = pin_documents(corpus_docs)
    docs = list(range(len(corpus_docs))) * 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(corpus.sentences, doc, 0) for doc in docs]
            firsts = [future.result(timeout=30)[0] for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert [sent.sent_id for sent in firsts] == [f"{corpus_docs[doc].doc_id}#0:0" for doc in docs]
    assert calls == Counter({doc.doc_id: 1 for doc in corpus_docs})


# -- pinned documents --------------------------------------------------------


def _jsonl_corpus(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record("a", "Alpha text."), record("b", "Beta text."), record("c", "Gamma text.")])
    return read_corpus(path)


def test_pinned_documents_parse_only_what_is_looked_up(tmp_path, monkeypatch):
    source = _jsonl_corpus(tmp_path)
    docs, manifest = read_all(source)
    parsed = []
    original = qasum.corpus._record_document

    def recording(line, where):
        parsed.append(where)
        return original(line, where)

    monkeypatch.setattr(qasum.corpus, "_record_document", recording)
    corpus = source.pinned(manifest)
    assert parsed == []
    assert corpus.paragraph(1, 0).text == "Beta text."
    assert corpus.sentences(2, 0)[0].sent_id == "c#0:0"
    assert corpus.paragraph(1, 0) == segment_paragraphs(docs[1])[0]
    assert parsed == [f"{source.path}@{manifest.locators[1]}", f"{source.path}@{manifest.locators[2]}"]


@pytest.mark.parametrize(
    "second",
    [lambda size, at: size, lambda size, at: -1, lambda size, at: 10**30, lambda size, at: "b",
     lambda size, at: at + 1],
    ids=["past_end", "negative", "huge", "not_an_offset", "not_a_line_start"],
)
def test_malformed_jsonl_locators_are_refused(tmp_path, second):
    source = _jsonl_corpus(tmp_path)
    _, manifest = read_all(source)
    locators = list(manifest.locators)
    locators[1] = second(len(source.path.read_bytes()), locators[1])
    with pytest.raises(CorruptIndexError, match="locators.*qasum index"):
        source.pinned(dataclasses.replace(manifest, locators=locators))


def test_locator_of_another_record_is_refused_on_lookup(tmp_path):
    source = _jsonl_corpus(tmp_path)
    _, manifest = read_all(source)
    swapped = dataclasses.replace(manifest, locators=[manifest.locators[1], manifest.locators[0], manifest.locators[2]])
    corpus = source.pinned(swapped)
    with pytest.raises(CorruptIndexError, match="'a'.*qasum index"):
        corpus.paragraph(0, 0)
    assert corpus.paragraph(2, 0).text == "Gamma text."


def test_unknown_text_dir_locator_is_refused(tmp_path):
    (tmp_path / "admission_p9.txt").write_text("Admitted today.", "utf-8")
    source = read_corpus(tmp_path, "text-dir")
    _, manifest = read_all(source)
    with pytest.raises(CorruptIndexError, match="'gone.txt'.*qasum index"):
        source.pinned(dataclasses.replace(manifest, locators=["gone.txt"]))


def test_pinned_refuses_other_bytes_and_rules(tmp_path):
    source = _jsonl_corpus(tmp_path)
    _, manifest = read_all(source)
    with pytest.raises(CorruptIndexError, match="SHA-256.*qasum index"):
        source.pinned(dataclasses.replace(manifest, sha256="0" * 64))
    with pytest.raises(CorruptIndexError, match="segmentation rules.*qasum index"):
        source.pinned(dataclasses.replace(manifest, segmentation="0" * 64))
