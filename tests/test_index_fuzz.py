"""Damaged v5 index files, re-signed with a valid CRC32, are refused as corrupt and never crash a command.

Each example damages one part of a small index of the fixture corpus: a header field, a node of the
string table, a value of an integer column, or the file's length. Every damage makes the file wrong
for its corpus, so ``ask`` must refuse it before any search: ``VectorIndex.load``, or the corpus pin
that checks the manifest against the corpus bytes, raises CorruptIndexError, and ``ask`` exits 1 with
a message that begins ``error: `` and is not an internal error.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qasum.cli
from index_file import FIELDS, HEADER, IndexFile, signed
from qasum.cli import load_config, main
from qasum.errors import CorruptIndexError

FIXTURES = Path(__file__).parent / "fixtures"
QUESTION = "What medications were prescribed at discharge?"
CODES = (b"u1", b"u2", b"u4", b"u8", b"i1", b"i2", b"i4", b"f4", b"--", b"\0\0")


def _text_dir(directory):
    directory.mkdir()
    for line in (FIXTURES / "corpus.jsonl").read_text("utf-8").splitlines():
        record = json.loads(line)
        (directory / f"{record['note_type']}_{record['doc_id']}.txt").write_bytes(record["text"].encode("utf-8"))
    return {"path": str(directory), "format": "text-dir"}


@pytest.fixture(scope="module", params=["jsonl", "text-dir"])
def built(request, tmp_path_factory):
    """(config path, index path, the index bytes, the corpus bytes or None) for one corpus format."""
    work = tmp_path_factory.mktemp(request.param)
    jsonl = request.param == "jsonl"
    corpus = {"path": str(FIXTURES / "corpus.jsonl"), "format": "jsonl"} if jsonl else _text_dir(work / "docs")
    config = work / "config.json"
    config.write_text(json.dumps({
        "corpus": corpus, "embedder": {"kind": "hashed-reference", "dim": 256}, "index_path": "index.qidx",
        "question_bank_path": str(FIXTURES / "question_bank.json"), "extractor": "mock", "output_dir": "out",
    }), "utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["index", "--config", str(config)]) == 0
    index = work / "index.qidx"
    return config, index, index.read_bytes(), (FIXTURES / "corpus.jsonl").read_bytes() if jsonl else None


def _other(draw, strategy, original):
    return draw(strategy.filter(lambda value: value != original))


@st.composite
def header_damage(draw, blob):
    header = dict(zip(FIELDS, HEADER.unpack_from(blob)))
    field = draw(st.sampled_from(FIELDS))
    if field == "magic":
        header[field] = _other(draw, st.binary(min_size=8, max_size=8), header[field])
    elif field in ("version", "dim"):
        header[field] = _other(draw, st.integers(0, 2**16 - 1), header[field])
    elif field in ("count", "docs", "table_len"):
        near = st.integers(-3, 3).map(lambda step: max(0, header[field] + step))
        header[field] = _other(draw, near | st.integers(0, 2**64 - 1), header[field])
    else:
        header[field] = _other(draw, st.sampled_from(CODES), header[field])
    return HEADER.pack(*header.values()) + blob[HEADER.size : -4]


def _not_a_string():
    scalars = st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats()
    return scalars | st.lists(scalars, min_size=1, max_size=2) | st.dictionaries(st.text(max_size=3), scalars, max_size=2)


@st.composite
def table_damage(draw, parts):
    fields = parts.fields
    keys = ["embedder", "corpus_sha256", "segmentation", "doc_ids", "note_types"] + ["locators"] * ("locators" in fields)
    key = draw(st.sampled_from(keys + ["garble"]))
    if key == "garble":
        # A byte that is not UTF-8, or the table cut short.
        table = bytearray(parts.table)
        if draw(st.booleans()):
            table[draw(st.integers(0, len(table) - 1))] = 0xFF
            parts.table = bytes(table)
        else:
            parts.table = bytes(table[: draw(st.integers(0, len(table) - 1))])
        return parts.payload()
    value = fields[key]
    if isinstance(value, str):
        # Gone, not a string, or another embedder, corpus digest or segmentation digest.
        changed = [st.just(None), _not_a_string(), st.text(max_size=70).filter(lambda text: text != value)]
    else:
        i, j = draw(st.lists(st.integers(0, len(value) - 1), min_size=2, max_size=2, unique=True))
        changed = [st.just(None), _not_a_string() | st.text(max_size=5),
                   _not_a_string().map(lambda wrong: value[:i] + [wrong] + value[i + 1 :]),
                   st.sampled_from([value[1:], value[:-1]])]
        if key == "doc_ids":
            changed += [st.just(value + ["zz-new"]), st.just(value[:i] + [value[j]] + value[i + 1 :])]
        elif key == "note_types":
            changed += [st.just(value + value[:1]), st.just(value[:i] + [value[j]] + value[i + 1 :]),
                        st.just(value[::-1])]
        else:  # a text-dir corpus's file names
            changed += [st.just(value + ["zz-new.txt"]), st.just(value[:i] + ["gone.txt"] + value[i + 1 :])]
    fields[key] = draw(st.one_of(changed))
    if fields[key] is None:
        del fields[key]
    parts.fields = fields
    return parts.payload()


def _set(parts, name, i, value):
    column = parts.columns[name].astype("<u8") if value >= 2**32 else parts.columns[name].astype("<u4")
    column[i] = value
    parts.columns[name] = column


@st.composite
def column_damage(draw, parts, corpus):
    doc_rows = parts.columns["doc_rows"]
    ordinals = parts.columns["ordinals"]
    names = len(parts.fields["note_types"])
    targets = ["ordinal_order", "ordinal_range", "doc_rows", "type_code"]
    if corpus is not None:
        targets += ["locator_past", "locator_mid_line"]
    target = draw(st.sampled_from(targets))
    if target == "ordinal_order":
        # A row whose ordinal is not above the previous row's of its document.
        starts = np.cumsum(doc_rows) - doc_rows
        later = [int(row) for start, n in zip(starts, doc_rows) for row in range(start + 1, start + n)]
        row = draw(st.sampled_from(later))
        _set(parts, "ordinals", row, draw(st.integers(0, int(ordinals[row - 1]))))
    elif target == "ordinal_range":
        _set(parts, "ordinals", draw(st.integers(0, len(ordinals) - 1)), draw(st.integers(2**63, 2**64 - 1)))
    elif target == "doc_rows":
        i = draw(st.integers(0, len(doc_rows) - 1))
        _set(parts, "doc_rows", i, _other(draw, st.integers(0, 2**64 - 1), int(doc_rows[i])))
    elif target == "type_code":
        _set(parts, "type_codes", draw(st.integers(0, len(doc_rows) - 1)), draw(st.integers(names, 2**64 - 1)))
    elif target == "locator_past":
        _set(parts, "locators", draw(st.integers(0, len(doc_rows) - 1)), draw(st.integers(len(corpus), 2**64 - 1)))
    else:
        mid_line = st.integers(1, len(corpus) - 1).filter(lambda at: corpus[at - 1] != ord("\n"))
        _set(parts, "locators", draw(st.integers(0, len(doc_rows) - 1)), draw(mid_line))
    return parts.payload()


@st.composite
def damaged(draw, blob, corpus):
    kind = draw(st.sampled_from(["header", "table", "column", "truncate"]))
    if kind == "header":
        return draw(header_damage(blob))
    if kind == "table":
        return draw(table_damage(IndexFile.parse(blob)))
    if kind == "column":
        return draw(column_damage(IndexFile.parse(blob), corpus))
    return blob[: draw(st.integers(0, len(blob) - 5))]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_index_is_refused_as_corrupt(built, data):
    config, index, blob, corpus = built
    index.write_bytes(signed(data.draw(damaged(blob, corpus))))
    with pytest.raises(CorruptIndexError):
        qasum.cli._load_pinned(load_config(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert main(["ask", "--config", str(config), QUESTION]) == 1
    assert err.getvalue().startswith("error: ") and "internal error" not in err.getvalue(), err.getvalue()
