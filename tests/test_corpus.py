import dataclasses
import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qasum.corpus import (
    Document,
    Paragraph,
    SegmentedCorpus,
    load_abbreviations,
    read_corpus,
    segment_paragraphs,
    split_sentences,
)
from qasum.errors import CorruptIndexError, DuplicateIdError, FormatError, IoError


def make_doc(text, doc_id="d1", note_type="other"):
    return Document(doc_id=doc_id, patient_id="p", note_type=note_type, timestamp=None, text=text)


# -- read_corpus ------------------------------------------------------------


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", "utf-8")


def record(doc_id, text="some text", note_type="other"):
    return {"doc_id": doc_id, "patient_id": "p1", "note_type": note_type,
            "timestamp": None, "text": text}


def test_load_jsonl_in_file_order(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record("a"), record("b"), record("c")])
    docs = read_corpus(path).load()[0]
    assert [d.doc_id for d in docs] == ["a", "b", "c"]
    assert docs[0].text == "some text"


def test_load_empty_file(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("", "utf-8")
    assert read_corpus(path).load()[0] == []


def test_duplicate_doc_id_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record("dup"), record("dup")])
    with pytest.raises(DuplicateIdError) as err:
        read_corpus(path).load()
    assert "dup" in str(err.value)
    assert "line 2" in str(err.value) or ":2" in str(err.value)


def test_malformed_json_names_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(record("a")) + "\n{not json\n", "utf-8")
    with pytest.raises(FormatError) as err:
        read_corpus(path).load()
    assert ":2" in str(err.value)


def test_bad_note_type_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record("a", note_type="triage")])
    with pytest.raises(FormatError, match="note_type"):
        read_corpus(path).load()


def test_missing_field_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    bad = record("a")
    del bad["patient_id"]
    write_jsonl(path, [bad])
    with pytest.raises(FormatError, match="patient_id"):
        read_corpus(path).load()


def test_missing_path_is_io_error(tmp_path):
    with pytest.raises(IoError):
        read_corpus(tmp_path / "nope.jsonl").load()


def test_load_text_dir(tmp_path):
    (tmp_path / "admission_p9.txt").write_text("Admitted today.", "utf-8")
    (tmp_path / "discharge_p9.txt").write_text("Going home.", "utf-8")
    (tmp_path / "zz_consult.txt").write_text("Consult note.", "utf-8")
    docs = read_corpus(tmp_path, format="text-dir").load()[0]
    assert [d.doc_id for d in docs] == ["admission_p9", "discharge_p9", "zz_consult"]
    assert [d.note_type for d in docs] == ["admission", "discharge", "other"]


def test_jsonl_locators_are_line_offsets_and_the_digest_covers_the_bytes(tmp_path):
    path = tmp_path / "c.jsonl"
    lines = [json.dumps(record("a")), "", json.dumps(record("b", text="caf\u00e9"), ensure_ascii=False)]
    path.write_bytes("\r\n".join(lines).encode("utf-8"))
    source = read_corpus(path)
    docs, manifest = source.load()
    data = path.read_bytes()
    assert [d.doc_id for d in docs] == list(manifest.doc_ids) == ["a", "b"]
    assert manifest.locators == [0, data.index(b'{"doc_id": "b"')]
    assert source.sha256 == hashlib.sha256(data).hexdigest()


def test_text_dir_reads_universal_newlines(tmp_path):
    (tmp_path / "admission_p9.txt").write_bytes(b"Line one.\r\nLine two.\rLine three.")
    docs, manifest = read_corpus(tmp_path, "text-dir").load()
    assert docs[0].text == "Line one.\nLine two.\nLine three."
    assert manifest.locators == ["admission_p9.txt"]


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(FormatError, match="format"):
        read_corpus(tmp_path, format="csv").load()


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


def test_token_cap_splits_at_sentence_boundaries():
    sentence = "Alpha beta gamma delta epsilon. "
    doc = make_doc((sentence * 80).strip())  # 480 tokens, 80 sentences
    paras = segment_paragraphs(doc, max_paragraph_tokens=50)
    assert all(len(p.text.split()) <= 50 for p in paras)
    assert all(p.text.endswith(".") for p in paras)


def test_token_cap_hard_splits_single_long_sentence():
    doc = make_doc(" ".join(f"tok{i}" for i in range(600)))
    paras = segment_paragraphs(doc, max_paragraph_tokens=256)
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


def test_roundtrip_and_spans_on_random_docs(random_docs):
    for doc in random_docs:
        paras = segment_paragraphs(doc, max_paragraph_tokens=30)
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
    assert_spans_valid(doc, segment_paragraphs(doc, max_paragraph_tokens=cap))


# -- SegmentedCorpus --------------------------------------------------------


def test_segmented_corpus_lookups(segmented):
    para = segmented.paragraphs[0]
    assert segmented.paragraph(para.para_id) == para
    sents = segmented.sentences(para.para_id)
    assert sents
    first = sents[0]
    assert segmented.sentence(first.sent_id) == first
    assert segmented.order_key(first.sent_id) == (0, 0, 0)


def test_order_key_follows_document_order(segmented):
    keys = [
        segmented.order_key(sent.sent_id)
        for para in segmented.paragraphs
        for sent in segmented.sentences(para.para_id)
    ]
    assert keys == sorted(keys)


def test_lazy_lookups_match_full_segmentation(corpus_docs):
    corpus = SegmentedCorpus(corpus_docs)
    doc_pos = {doc.doc_id: i for i, doc in enumerate(corpus_docs)}
    expected = [para for doc in corpus_docs for para in segment_paragraphs(doc)]
    # Reverse order, so documents are cached in a different order than they are stored.
    for para in reversed(expected):
        assert corpus.paragraph(para.para_id) == para
        sents = split_sentences(para)
        assert corpus.sentences(para.para_id) == sents
        for sent in sents:
            assert corpus.sentence(sent.sent_id) == sent
            assert corpus.order_key(sent.sent_id) == (doc_pos[para.doc_id], para.ordinal, sent.ordinal)
    assert corpus.paragraphs == expected


@pytest.mark.parametrize(
    "para_id",
    ["missing#0", "p001-discharge#99", "p001-discharge#01", "p001-discharge#-1",
     "p001-discharge#x", "p001-discharge", ""],
)
def test_unknown_para_id_raises_key_error(segmented, para_id):
    with pytest.raises(KeyError):
        segmented.paragraph(para_id)
    with pytest.raises(KeyError):
        segmented.sentences(para_id)


@pytest.mark.parametrize("sent_id", ["p001-discharge#0:99", "p001-discharge#0", "missing#0:0", "p001-discharge#0:00"])
def test_unknown_sent_id_raises_key_error(segmented, sent_id):
    with pytest.raises(KeyError):
        segmented.sentence(sent_id)
    with pytest.raises(KeyError):
        segmented.order_key(sent_id)


def test_concurrent_lookups_segment_each_document_once(corpus_docs, monkeypatch):
    import sys
    import time
    from concurrent.futures import ThreadPoolExecutor

    import qasum.corpus

    calls = Counter()
    original = qasum.corpus.segment_paragraphs

    def counting(doc, *args, **kwargs):
        calls[doc.doc_id] += 1
        time.sleep(0.001)  # widen the window in which a second thread could segment it too
        return original(doc, *args, **kwargs)

    monkeypatch.setattr(qasum.corpus, "segment_paragraphs", counting)
    corpus = SegmentedCorpus(corpus_docs)
    sent_ids = [f"{doc.doc_id}#0:0" for doc in corpus_docs] * 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(corpus.order_key, sent_id) for sent_id in sent_ids]
            keys = [future.result(timeout=30) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert keys == [(i % len(corpus_docs), 0, 0) for i in range(len(sent_ids))]
    assert calls == Counter({doc.doc_id: 1 for doc in corpus_docs})


# -- pinned documents --------------------------------------------------------


def _jsonl_corpus(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record("a", "Alpha text."), record("b", "Beta text."), record("c", "Gamma text.")])
    return read_corpus(path)


def test_pinned_documents_parse_only_what_is_looked_up(tmp_path, monkeypatch):
    import qasum.corpus

    source = _jsonl_corpus(tmp_path)
    docs, manifest = source.load()
    parsed = []
    original = qasum.corpus._record_document

    def recording(line, where):
        parsed.append(where)
        return original(line, where)

    monkeypatch.setattr(qasum.corpus, "_record_document", recording)
    corpus = SegmentedCorpus(source.pinned(manifest))
    assert parsed == []
    assert corpus.paragraph("b#0").text == "Beta text."
    assert corpus.order_key("c#0:0") == (2, 0, 0)
    assert len(parsed) == 2
    assert corpus.paragraphs == SegmentedCorpus(docs).paragraphs


@pytest.mark.parametrize(
    "second",
    [lambda size, at: size, lambda size, at: -1, lambda size, at: 10**30, lambda size, at: "b",
     lambda size, at: at + 1],
    ids=["past_end", "negative", "huge", "not_an_offset", "not_a_line_start"],
)
def test_malformed_jsonl_locators_are_refused(tmp_path, second):
    source = _jsonl_corpus(tmp_path)
    _, manifest = source.load()
    locators = list(manifest.locators)
    locators[1] = second(len(source.path.read_bytes()), locators[1])
    with pytest.raises(CorruptIndexError, match="locators.*qasum index"):
        source.pinned(dataclasses.replace(manifest, locators=locators))


def test_locator_of_another_record_is_refused_on_lookup(tmp_path):
    source = _jsonl_corpus(tmp_path)
    _, manifest = source.load()
    swapped = dataclasses.replace(manifest, locators=[manifest.locators[1], manifest.locators[0], manifest.locators[2]])
    corpus = SegmentedCorpus(source.pinned(swapped))
    with pytest.raises(CorruptIndexError, match="'a'.*qasum index"):
        corpus.paragraph("a#0")
    assert corpus.paragraph("c#0").text == "Gamma text."


def test_unknown_text_dir_locator_is_refused(tmp_path):
    (tmp_path / "admission_p9.txt").write_text("Admitted today.", "utf-8")
    source = read_corpus(tmp_path, "text-dir")
    _, manifest = source.load()
    with pytest.raises(CorruptIndexError, match="'gone.txt'.*qasum index"):
        source.pinned(dataclasses.replace(manifest, locators=["gone.txt"]))


def test_pinned_refuses_other_bytes_and_rules(tmp_path):
    source = _jsonl_corpus(tmp_path)
    _, manifest = source.load()
    with pytest.raises(CorruptIndexError, match="SHA-256.*qasum index"):
        source.pinned(dataclasses.replace(manifest, sha256="0" * 64))
    with pytest.raises(CorruptIndexError, match="segmentation rules.*qasum index"):
        source.pinned(dataclasses.replace(manifest, segmentation="0" * 64))
