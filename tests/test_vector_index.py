import errno
import io
import json
import math
import re
import struct
import tempfile
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from index_file import COLUMNS, FIELDS, HEADER, IndexFile, signed
from index_rows import Row, build_index, exact_hits, write_index
from oracles.knn_oracle import brute_force_search
from qasum.cli import load_config, main
from qasum.embedding import EmbedderSpec, build_embedder, reference_counts, reference_embedding, squared_norms
from qasum.errors import (
    CorruptIndexError,
    DimensionMismatchError,
    EmptyIndexError,
    IoError,
    PreconditionError,
)
from qasum import vector_index
from qasum.corpus import CorpusManifest
from qasum.vector_index import FORMAT_VERSION, MAGIC, VectorIndex


def unit(vec):
    vec = np.asarray(vec, dtype=np.float64)
    return vec / np.linalg.norm(vec)


def random_entries(rng, n, dim=16, note_types=("admission", "progress", "discharge")):
    return [
        Row(
            para_id=f"d{i // 4}#{i % 4}",
            vector=rng.normal(size=dim),
            doc_id=f"d{i // 4}",
            note_type=note_types[(i // 4) % len(note_types)],
        )
        for i in range(n)
    ]


def as_oracle_entries(entries):
    return [(e.para_id, list(e.vector), e.doc_id, e.note_type) for e in entries]


# -- build / search ---------------------------------------------------------


def test_self_match_scores_one():
    vec = unit([0.3, -0.2, 0.9, 0.1])
    index = build_index([Row("a#0", vec, "a", "other")])
    hits = index.search(vec, k=1)
    assert hits[0].para_id == "a#0"
    assert hits[0].score == pytest.approx(1.0, abs=1e-12)
    assert hits[0].rank == 1


def test_dimension_mismatch_on_insert(pipeline_config, monkeypatch, capsys):
    """A remote vector of the wrong length never reaches the index matrix."""
    import qasum.cli

    class ShortVectors:
        def embed_remote(self, texts):
            return [np.ones(128) for _ in texts]

    monkeypatch.setattr(
        qasum.cli, "build_embedder", lambda spec, gateway: build_embedder(EmbedderSpec("remote", 256), ShortVectors())
    )
    with pytest.raises(DimensionMismatchError, match=r"expected \(256,\)"):
        qasum.cli.cmd_index(load_config(pipeline_config))
    assert main(["index", "--config", str(pipeline_config)]) == 1
    assert "expected (256,)" in capsys.readouterr().err


def test_dimension_beyond_header_range_rejected_on_insert():
    with pytest.raises(PreconditionError, match="65535"):
        build_index([Row("a#0", np.ones(65536), "a", "other")])


def test_dimension_mismatch_on_search():
    index = build_index([Row("a#0", np.ones(8), "a", "other")])
    with pytest.raises(DimensionMismatchError):
        index.search(np.ones(4), k=1)


def test_search_empty_index():
    with pytest.raises(EmptyIndexError):
        build_index([]).search(np.ones(4), k=1)


def test_search_invalid_k():
    index = build_index([Row("a#0", np.ones(4), "a", "other")])
    with pytest.raises(PreconditionError):
        index.search(np.ones(4), k=0)


def test_k_larger_than_index_returns_all_sorted():
    rng = np.random.default_rng(7)
    entries = random_entries(rng, 5)
    index = build_index(entries)
    query = rng.normal(size=16)
    hits = index.search(query, k=50)
    assert len(hits) == 5
    assert [h.rank for h in hits] == [1, 2, 3, 4, 5]
    assert all(hits[i].score >= hits[i + 1].score for i in range(4))


def test_five_entry_search_matches_brute_force_oracle():
    rng = np.random.default_rng(8)
    entries = random_entries(rng, 5)
    index = build_index(entries)
    query = rng.normal(size=16)
    expected = brute_force_search(as_oracle_entries(entries), list(query), 3)
    hits = index.search(query, k=3)
    assert [h.para_id for h in hits] == [pid for pid, _ in expected]
    for hit, (_, score) in zip(hits, expected):
        assert hit.score == pytest.approx(score, abs=1e-9)


def test_note_type_filter():
    rng = np.random.default_rng(9)
    entries = random_entries(rng, 12)
    index = build_index(entries)
    query = rng.normal(size=16)
    hits = index.search(query, k=12, note_filter={"discharge"})
    expected_ids = {e.para_id for e in entries if e.note_type == "discharge"}
    assert {h.para_id for h in hits} == expected_ids


def test_filter_matching_nothing_returns_empty():
    rng = np.random.default_rng(11)
    index = build_index(random_entries(rng, 4))
    assert index.search(rng.normal(size=16), k=2, note_filter={"lab"}) == []


def test_ties_break_by_para_id_ascending():
    vec = unit([1.0, 1.0, 0.0])
    entries = [
        Row("z#0", vec.copy(), "z", "other"),
        Row("a#0", vec.copy(), "a", "other"),
        Row("m#0", vec.copy(), "m", "other"),
    ]
    hits = build_index(entries).search(vec, k=3)
    assert [h.para_id for h in hits] == ["a#0", "m#0", "z#0"]
    assert [h.rank for h in hits] == [1, 2, 3]


# -- properties -------------------------------------------------------------


def test_oracle_equivalence_randomized():
    rng = np.random.default_rng(12)
    for n in (50, 250, 1000):
        entries = random_entries(rng, n)
        index = build_index(entries)
        oracle_entries = as_oracle_entries(entries)
        for _ in range(5):
            query = rng.normal(size=16)
            k = int(rng.integers(1, 12))
            expected = brute_force_search(oracle_entries, list(query), k)
            hits = index.search(query, k=k)
            assert [h.para_id for h in hits] == [pid for pid, _ in expected]
            for hit, (_, score) in zip(hits, expected):
                assert hit.score == pytest.approx(score, abs=1e-9)


def test_search_k_is_prefix_of_k_plus_one():
    rng = np.random.default_rng(13)
    index = build_index(random_entries(rng, 40))
    for _ in range(10):
        query = rng.normal(size=16)
        for k in (1, 3, 7):
            smaller = index.search(query, k=k)
            larger = index.search(query, k=k + 1)
            assert [h.para_id for h in smaller] == [h.para_id for h in larger][:k]


_TYPES = ("admission", "discharge", "lab")


@st.composite
def search_cases(draw):
    """A small index with forced ties and zero vectors, a query, k and a note filter.

    Components are small integers, so the index and the oracle compute
    bit-identical scores (and float32 storage is exact).
    """
    dim = draw(st.integers(min_value=1, max_value=4))
    vector = st.lists(st.integers(-3, 3).map(float), min_size=dim, max_size=dim)
    # Rows draw from a small pool, so duplicate vectors (tied scores) are common.
    pool = draw(st.lists(vector, min_size=1, max_size=4)) + [[0.0] * dim]
    n = draw(st.integers(min_value=1, max_value=14))
    order = draw(st.permutations(range(n)))
    entries = [
        Row(f"p{order[i]:02d}#0", np.array(draw(st.sampled_from(pool))), f"p{order[i]:02d}",
                   draw(st.sampled_from(_TYPES)))
        for i in range(n)
    ]
    query = draw(st.one_of(vector, st.sampled_from(pool)))
    k = draw(st.integers(min_value=1, max_value=n + 3))
    allowed = draw(st.one_of(st.none(), st.sets(st.sampled_from(_TYPES + ("radiology",)))))
    return entries, np.array(query), k, allowed


@settings(max_examples=300, deadline=None)
@given(case=search_cases())
def test_search_matches_oracle_with_ties_zeros_and_filters(case):
    entries, query, k, allowed = case
    expected = brute_force_search(as_oracle_entries(entries), list(query), k, allowed)
    index = build_index(entries)
    with tempfile.TemporaryDirectory() as tmp:
        write_index(Path(tmp) / "index.qidx", entries)
        loaded = VectorIndex.load(Path(tmp) / "index.qidx")
    for searched in (index, loaded):
        hits = searched.search(query, k=k, note_filter=allowed)
        assert [h.para_id for h in hits] == [pid for pid, _ in expected]
        assert [h.rank for h in hits] == list(range(1, len(expected) + 1))
        for hit, (_, score) in zip(hits, expected):
            assert abs(hit.score - score) <= 1e-12


# -- persistence ------------------------------------------------------------


@pytest.fixture()
def saved_index(tmp_path, fixture_entries):
    """The file of fixture_index, written through IndexWriter."""
    path = tmp_path / "index.qidx"
    write_index(path, fixture_entries)
    return path


def fixture_queries():
    texts = [
        "Why was the patient admitted?",
        "What was the principal discharge diagnosis?",
        "What medications were prescribed at discharge?",
        "What procedures were performed during the stay?",
        "What follow up appointments were scheduled?",
        "What dietary restrictions were recommended?",
        "fever and productive cough",
        "coronary angiography stent",
        "urinary tract infection sepsis",
        "follow up appointment cardiology clinic",
    ]
    return [reference_embedding(t) for t in texts]


def test_save_load_preserves_rankings(saved_index, fixture_index):
    loaded = VectorIndex.load(saved_index)
    assert len(loaded) == len(fixture_index)
    assert loaded._dim == fixture_index._dim
    assert loaded.embedder == fixture_index.embedder == "hashed-reference"
    for query in fixture_queries():
        before = fixture_index.search(query, k=10)
        after = loaded.search(query, k=10)
        assert [h.para_id for h in before] == [h.para_id for h in after]
        for b, a in zip(before, after):
            assert a.score == pytest.approx(b.score, abs=1e-6)


def test_load_preserves_note_types(saved_index, fixture_index):
    loaded = VectorIndex.load(saved_index)
    query = reference_embedding("What was the principal discharge diagnosis?")
    hits = loaded.search(query, k=50, note_filter={"discharge"})
    expected = fixture_index.search(query, k=50, note_filter={"discharge"})
    assert [h.para_id for h in hits] == [h.para_id for h in expected]


def test_load_bad_magic(saved_index):
    blob = saved_index.read_bytes()
    saved_index.write_bytes(b"NOTMAGIC" + blob[8:])
    with pytest.raises(CorruptIndexError, match="magic"):
        VectorIndex.load(saved_index)


def test_load_truncated(saved_index):
    blob = saved_index.read_bytes()
    saved_index.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CorruptIndexError, match="truncated"):
        VectorIndex.load(saved_index)


def test_load_truncated_to_nothing(saved_index):
    saved_index.write_bytes(b"QASUM")
    with pytest.raises(CorruptIndexError, match="truncated"):
        VectorIndex.load(saved_index)


def test_load_bad_checksum(saved_index):
    blob = bytearray(saved_index.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    saved_index.write_bytes(bytes(blob))
    with pytest.raises(CorruptIndexError, match="checksum"):
        VectorIndex.load(saved_index)


def with_checksum(path, payload):
    """Write payload plus its CRC32, so load gets past the checksum to the check under test."""
    path.write_bytes(signed(payload))


def index_file(path, table, count, dim=2, version=FORMAT_VERSION, **columns):
    """An index file around the given string table (bytes), u8 columns and count x dim float32 zero vectors.

    The columns are those of one document whose rows are its paragraphs 0..count-1, with the given ones
    replaced; locators=None keeps the locators in the table.
    """
    values = {"doc_rows": [count], "type_codes": [0], "locators": [0], "ordinals": list(range(count))}
    values.update(columns)
    parts = IndexFile(
        dict(zip(FIELDS, (MAGIC, version, dim, count, len(values["doc_rows"]), 0, b"f4") + (b"",) * 4)),
        table,
        {name: None if column is None else np.array(column, dtype="<u8") for name, column in values.items()},
        bytes(4 * dim * count),
    )
    path.write_bytes(parts.file_bytes())


def v5_table(**changes):
    """A valid string table for document "a", with the given fields replaced or (None) removed."""
    table = {"embedder": "hashed-reference", "corpus_sha256": "0" * 64, "segmentation": "s", "doc_ids": ["a"],
             "note_types": ["other"]}
    table.update(changes)
    return json.dumps({key: value for key, value in table.items() if value is not None}).encode()


def test_load_invalid_utf8_record(saved_index):
    blob = bytearray(saved_index.read_bytes()[:-4])
    first_doc_id = blob.index(b'"doc_ids":["') + len(b'"doc_ids":["')
    blob[first_doc_id] = 0xFF
    with_checksum(saved_index, blob)
    with pytest.raises(CorruptIndexError, match="UTF-8"):
        VectorIndex.load(saved_index)


def test_load_unsupported_version(saved_index):
    blob = bytearray(saved_index.read_bytes()[:-4])
    struct.pack_into("<H", blob, 8, FORMAT_VERSION + 1)
    with_checksum(saved_index, blob)
    with pytest.raises(CorruptIndexError, match="version"):
        VectorIndex.load(saved_index)


def test_load_refuses_version_1_with_rebuild_hint(tmp_path):
    path = tmp_path / "v1.qidx"
    # The v1 header (magic, version, dim, count) of an empty index.
    with_checksum(path, struct.pack("<8sHHQ", MAGIC, 1, 4, 0))
    with pytest.raises(CorruptIndexError, match="version 1.*qasum index"):
        VectorIndex.load(path)


def test_load_refuses_version_2_with_rebuild_hint(tmp_path):
    path = tmp_path / "v2.qidx"
    index_file(path, b'{"embedder":"hashed-reference","para_ids":[],"note_types":[]}', count=0, version=2)
    with pytest.raises(CorruptIndexError, match="version 2.*qasum index"):
        VectorIndex.load(path)


def test_load_trailing_bytes(saved_index):
    blob = saved_index.read_bytes()
    saved_index.write_bytes(blob + b"\0")
    with pytest.raises(CorruptIndexError, match="trailing"):
        VectorIndex.load(saved_index)


@pytest.mark.parametrize(
    "table, columns",
    [
        (b"not json", {}),
        (b'["a#0"]', {}),
        (v5_table(embedder=None), {}),
        (v5_table(doc_ids=["a", "b"]), {}),
        (v5_table(doc_ids=[1]), {}),
        (v5_table(note_types=[None]), {}),
        (v5_table(corpus_sha256=None), {}),
        (v5_table(segmentation=7), {}),
        (v5_table(locators=["a.txt", "b.txt"]), {"locators": None}),
        (v5_table(locators=[0.5]), {"locators": None}),
        (v5_table(locators=[None]), {"locators": None}),
        (v5_table(), {"locators": None}),
        (v5_table(), {"doc_rows": [2]}),
        (v5_table(), {"doc_rows": [2**64 - 1]}),
        (v5_table(), {"doc_rows": [2**40]}),
        (v5_table(), {"ordinals": [2**64 - 1]}),
        (v5_table(), {"ordinals": [2**63]}),
        (v5_table(doc_ids=["a", "a"]), {"doc_rows": [1, 0], "type_codes": [0, 0], "locators": [0, 1]}),
        (v5_table(), {"type_codes": [1]}),
        (v5_table(note_types=["other", "lab"]), {}),
        (v5_table(note_types=["other", "other"]), {}),
    ],
    # Cases that were JSON list entries in format v4 keep their names as columns: negative_rows and
    # negative_ordinal hold -1's bit pattern in a u8 column, and the locator cases are text-dir file names.
    ids=["not_json", "not_object", "no_embedder", "wrong_length", "int_doc_id", "null_note_type",
         "no_corpus_digest", "int_segmentation", "locator_count", "float_locator", "null_locator", "no_file_names",
         "rows_past_count", "negative_rows", "rows_past_memory", "negative_ordinal", "huge_ordinal",
         "repeated_doc_id", "code_past_names", "unsorted_names", "repeated_name"],
)
def test_load_malformed_string_table(tmp_path, table, columns):
    path = tmp_path / "index.qidx"
    index_file(path, table, count=1, **columns)
    with pytest.raises(CorruptIndexError, match="string table"):
        VectorIndex.load(path)


def test_load_rows_out_of_document_order(tmp_path):
    path = tmp_path / "index.qidx"
    two_documents = {"doc_rows": [2, 0], "type_codes": [0, 0], "locators": [0, 9]}
    index_file(path, v5_table(doc_ids=["a", "b"]), count=2, ordinals=[1, 0], **two_documents)
    with pytest.raises(CorruptIndexError, match="document order"):
        VectorIndex.load(path)
    index_file(path, v5_table(), count=1)
    loaded = VectorIndex.load(path)
    assert [hit.para_id for hit in loaded.search(np.ones(2), k=1)] == ["a#0"]
    assert loaded.corpus.locators.tolist() == [0]


@pytest.mark.parametrize(
    "column, code",
    [(column, code) for column in COLUMNS for code in (b"u3", b"i1", b"--") if (column, code) != ("locators", b"--")],
)
def test_load_unknown_column_type(saved_index, column, code):
    blob = bytearray(saved_index.read_bytes()[:-4])
    HEADER.pack_into(blob, 0, *dict(zip(FIELDS, HEADER.unpack_from(blob)), **{column: code}).values())
    with_checksum(saved_index, blob)
    with pytest.raises(CorruptIndexError, match="column type"):
        VectorIndex.load(saved_index)


def test_empty_index_saves_and_loads(tmp_path):
    path = tmp_path / "empty.qidx"
    write_index(path, [], dim=8)
    loaded = VectorIndex.load(path)
    assert (len(loaded), loaded._dim, loaded.embedder) == (0, 8, "hashed-reference")
    with pytest.raises(EmptyIndexError):
        loaded.search(np.ones(8), k=1)


def test_load_missing_file(tmp_path):
    with pytest.raises(IoError):
        VectorIndex.load(tmp_path / "missing.qidx")


def test_concurrent_searches_are_consistent(fixture_index, monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    query = reference_embedding("fever and productive cough")
    expected = fixture_index.search(query, k=5)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: fixture_index.search(query, k=5), range(32)))
    assert all(r == expected for r in results)
    # A count index scores block by block through a scratch block of its own per search, so searches
    # with different queries on several threads each score only their own blocks.
    monkeypatch.setattr(vector_index, "_BLOCK_ROWS", 256)
    rng = np.random.default_rng(5)
    rows = 32 * 256
    index = VectorIndex(ONE_DOCUMENT, [0] * rows, range(rows), rng.integers(-3, 4, size=(rows, 128)), "hashed-reference")
    queries = rng.integers(-3, 4, size=(8, 128))
    expected = [index.search(query, k=5) for query in queries]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda i: index.search(queries[i % 8], k=5), range(256)))
    assert all(r == expected[i % 8] for i, r in enumerate(results))


# -- streaming the float32 block ---------------------------------------------


ONE_DOCUMENT = CorpusManifest("0" * 64, "s", ["d"], ["other"], np.zeros(1, dtype=np.intp), [0])


def one_document_table():
    """The string table bytes of an index over ONE_DOCUMENT."""
    return json.dumps(
        {"embedder": "hashed-reference", "corpus_sha256": "0" * 64, "segmentation": "s", "doc_ids": ["d"],
         "note_types": ["other"]},
        separators=(",", ":"),
    ).encode()


def narrowest(largest):
    """The code of the narrowest column type that holds largest."""
    return next(code for code in (b"u1", b"u2", b"u4", b"u8") if largest < 256 ** int(code[1:]))


def one_document_columns(count):
    """The column codes and bytes of an index over ONE_DOCUMENT whose rows are its paragraphs 0..count-1.

    The columns are its row count, its note-type code 0, its locator 0 and the ordinals.
    """
    columns = [[count], [0], [0], list(range(count))]
    codes = [narrowest(max(column, default=0)) for column in columns]
    blocks = [np.array(column, dtype=f"<{code.decode()}").tobytes() for code, column in zip(codes, columns)]
    return codes, b"".join(blocks)


def one_document_manifest(count):
    """The bytes that describe ONE_DOCUMENT's rows: the string table and the columns."""
    return one_document_table() + one_document_columns(count)[1]


def one_document_writer(path, matrix, batch_rows=None):
    """An IndexWriter to path holding matrix as paragraphs 0..n-1 of ONE_DOCUMENT, added batch_rows at a time."""
    writer = vector_index.IndexWriter(path, matrix.shape[1], "hashed-reference")
    batch_rows = batch_rows or max(len(matrix), 1)
    for start in range(0, len(matrix), batch_rows):
        batch = matrix[start : start + batch_rows]
        writer.add([0] * len(batch), list(range(start, start + len(batch))), batch)
    return writer


def write_one_document(path, matrix, batch_rows=None):
    with one_document_writer(path, matrix, batch_rows) as writer:
        writer.write(ONE_DOCUMENT)


def one_shot_file(vectors, vector_type=b"f4"):
    """The v5 file over ONE_DOCUMENT written in one piece: header, table, columns, the whole vector block, CRC32."""
    codes, columns = one_document_columns(len(vectors))
    table = one_document_table()
    payload = HEADER.pack(MAGIC, FORMAT_VERSION, vectors.shape[1], len(vectors), 1, len(table), vector_type, *codes)
    payload += table + columns + vectors.astype(vector_index._VECTOR_TYPES[vector_type]).tobytes()
    return payload + struct.pack("<I", zlib.crc32(payload))


BLOCK = 4


@pytest.mark.parametrize("count", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_save_and_load_stream_blocks_bit_for_bit(tmp_path, monkeypatch, count):
    monkeypatch.setattr(vector_index, "_BLOCK_ROWS", BLOCK)
    matrix = np.random.default_rng(count).normal(size=(count, 3))
    path = tmp_path / "index.qidx"
    # Batches of BLOCK - 1 rows, so the spooled batches straddle the blocks the file is written in.
    write_one_document(path, matrix, batch_rows=BLOCK - 1)
    vectors = matrix.astype("<f4")
    assert path.read_bytes() == one_shot_file(vectors)
    loaded = VectorIndex.load(path)
    promoted = vectors.astype(np.float64)
    assert loaded._matrix.tobytes() == promoted.tobytes()
    assert loaded._norms.tobytes() == np.linalg.norm(promoted, axis=1).tobytes()


class FailingFile(io.BufferedReader):
    """A file whose reads stop at byte `at`: it ends there (error None) or raises error there."""

    def __init__(self, path, at, error=None):
        super().__init__(io.FileIO(path))
        self.at, self.error = at, error

    def readinto(self, buffer):
        view = memoryview(buffer).cast("B")[: max(0, self.at - self.tell())]
        if not len(view) and self.error:
            raise self.error
        return super().readinto(view)


@pytest.mark.parametrize(
    "error, expected, message",
    [(None, CorruptIndexError, "truncated"), (OSError(errno.EIO, "Input/output error"), IoError, None)],
    ids=["short_read", "read_error"],
)
def test_load_fails_in_mid_block(tmp_path, monkeypatch, error, expected, message):
    monkeypatch.setattr(vector_index, "_BLOCK_ROWS", BLOCK)
    count = 2 * BLOCK + 1
    path = tmp_path / "index.qidx"
    write_one_document(path, np.ones((count, 3)))
    mid_second_block = HEADER.size + len(one_document_manifest(count)) + 4 * 3 * (BLOCK + BLOCK // 2) + 2
    # The file is sized whole when opened, then ends or fails while the second block is read.
    monkeypatch.setattr(vector_index, "open", lambda p, mode: FailingFile(p, mid_second_block, error), raising=False)
    with pytest.raises(expected, match=message or re.escape(str(path))):
        VectorIndex.load(path)


def traced_peak(call):
    """The peak of memory allocated by call() and not freed before it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


SLACK = 128 * 1024


@pytest.fixture()
def four_block_matrix():
    """Vectors for four blocks of rows and three more."""
    return np.random.default_rng(7).normal(size=(4 * vector_index._BLOCK_ROWS + 3, 128))


def test_load_memory_is_the_matrix_plus_two_blocks(four_block_matrix, tmp_path):
    rows, dim = four_block_matrix.shape
    path = tmp_path / "index.qidx"
    write_one_document(path, four_block_matrix)
    # A loaded index holds the matrix, its norms, the table and the columns; two float64 blocks bound
    # the transient rest (one row-norm step's temporary, the read buffer, the row columns).
    table = one_document_manifest(rows)
    bound = 8 * rows * dim + 8 * rows + len(table) + 2 * 8 * vector_index._BLOCK_ROWS * dim + SLACK
    assert traced_peak(lambda: VectorIndex.load(path)) <= bound


def test_write_memory_is_the_table_plus_one_block(four_block_matrix, tmp_path):
    rows, dim = four_block_matrix.shape
    # The spooled rows are read back through one float32 block.
    bound = len(one_document_manifest(rows)) + 4 * vector_index._BLOCK_ROWS * dim + SLACK
    with one_document_writer(tmp_path / "index.qidx", four_block_matrix) as writer:
        assert traced_peak(lambda: writer.write(ONE_DOCUMENT)) <= bound


# -- v4 count blocks ------------------------------------------------------------


def vector_type_of(path):
    """The vector type code a v5 file's header names."""
    return IndexFile.parse(path.read_bytes()).header["vector"]


PLANTED = (127, -127, 128, -128, 32767, -32767, 32768, -32768)


@st.composite
def count_matrices(draw):
    """Small count matrices: mostly small counts and zero rows, and rows with a planted count at a type bound."""
    dim = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.integers(min_value=1, max_value=2 * BLOCK + 1))
    cells = st.integers(-3, 3) | st.sampled_from(PLANTED)
    return np.array(draw(st.lists(st.lists(cells, min_size=dim, max_size=dim), min_size=rows, max_size=rows)),
                    dtype=np.int64).reshape(rows, dim)


def para_ids_of(count):
    """The para_ids of rows 0..count-1 of ONE_DOCUMENT."""
    return [f"d#{ordinal}" for ordinal in range(count)]


def hit_pairs(hits):
    return [(hit.para_id, hit.score) for hit in hits]


@settings(max_examples=200, deadline=None)
@given(counts=count_matrices(), batch_rows=st.integers(min_value=1, max_value=BLOCK + 1))
def test_count_block_loads_as_stored_bit_for_bit(counts, batch_rows):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(vector_index, "_BLOCK_ROWS", BLOCK)
        path = Path(tmp) / "index.qidx"
        write_one_document(path, counts, batch_rows)
        largest = int(np.abs(counts).max(initial=0))
        code = b"i1" if largest <= 127 else b"i2" if largest <= 32767 else b"i4"
        assert vector_type_of(path) == code
        # The block is the counts in that type, after the header, the table and the columns.
        assert path.read_bytes() == one_shot_file(counts, code)
        loaded = VectorIndex.load(path)
        # load keeps the block as the file stores it, with the squared norms it computes, and no float copy.
        assert loaded._counts.dtype == vector_index._VECTOR_TYPES[code]
        assert loaded._counts.tobytes() == counts.astype(vector_index._VECTOR_TYPES[code]).tobytes()
        assert loaded._squares.tobytes() == squared_norms(counts).tobytes()
        assert not hasattr(loaded, "_matrix")
        # Small queries keep the largest row squared norm times the query's below 2**53, where scores are exact.
        for query in np.clip(counts[:3], -3, 3):
            expected = exact_hits(counts, para_ids_of(len(counts)), query, len(counts))
            assert hit_pairs(loaded.search(query, k=len(counts))) == expected
        # Float input keeps a float32 block, loaded promoted to float64.
        write_one_document(path, counts.astype(np.float64), batch_rows)
        assert vector_type_of(path) == b"f4"
        assert VectorIndex.load(path)._matrix.tobytes() == counts.astype("<f4").astype(np.float64).tobytes()


def test_counts_beyond_int32_are_refused(tmp_path):
    with one_document_writer(tmp_path / "index.qidx", np.zeros((1, 2), dtype=np.int64)) as writer:
        with pytest.raises(PreconditionError, match="int32"):
            writer.add([0], [1], np.array([[0, -(2**31)]]))
        writer.add([0], [1], np.array([[0, 2**31 - 1]]))
        writer.write(ONE_DOCUMENT)
    assert vector_type_of(tmp_path / "index.qidx") == b"i4"


def test_count_and_float_batches_do_not_mix(tmp_path):
    with one_document_writer(tmp_path / "index.qidx", np.ones((1, 2), dtype=np.int64)) as writer:
        with pytest.raises(PreconditionError, match="integer counts"):
            writer.add([0], [1], np.ones((1, 2)))


def test_load_refuses_version_3_with_rebuild_hint(tmp_path):
    path = tmp_path / "v3.qidx"
    # The v3 header (magic, version, dim, count, table length), then its table and float32 block.
    table = v5_table()
    with_checksum(path, struct.pack("<8sHHQQ", MAGIC, 3, 2, 1, len(table)) + table + bytes(8))
    with pytest.raises(CorruptIndexError, match="version 3.*qasum index"):
        VectorIndex.load(path)


def test_load_refuses_version_4_with_rebuild_hint(tmp_path):
    path = tmp_path / "v4.qidx"
    # The v4 header (magic, version, dim, count, table length, vector type), its table, the squared norm
    # and the int8 block.
    table = v5_table(locators=[0], doc_rows=[1], ordinals=[0])
    blob = struct.pack("<8sHHQQ2s", MAGIC, 4, 2, 1, len(table), b"i1") + table + struct.pack("<d", 2.0) + bytes([1, 1])
    with_checksum(path, blob)
    with pytest.raises(CorruptIndexError, match="version 4.*qasum index"):
        VectorIndex.load(path)


@pytest.mark.parametrize("large_share", [0.0, 0.01, 0.1, 0.5, 1.0])
def test_count_decode_is_the_division_on_both_paths(tmp_path, large_share):
    """Scores are the exact division, from float32 dot products and, past 2**48, from float64 ones.

    Counts beyond 2 in magnitude make up the given share of a three-block int8 index. A small query
    takes the float32 dots; one scaled so that the largest row squared norm times its own is in
    [2**48, 2**53) takes the float64 dots, where both operands of the division are still exact.
    """
    rng = np.random.default_rng(11)
    rows, dim = 3 * vector_index._BLOCK_ROWS + 5, 64
    counts = rng.integers(-2, 3, size=(rows, dim))
    large = rng.random(size=counts.shape) < large_share
    counts[large] = rng.choice([-1, 1], size=large.sum()) * rng.integers(3, 128, size=large.sum())
    counts[rows // 2] = 0
    path = tmp_path / "index.qidx"
    write_one_document(path, counts)
    assert vector_type_of(path) == b"i1"
    loaded = VectorIndex.load(path)
    small = rng.integers(-3, 4, size=dim)
    largest = int(squared_norms(counts).max())
    large_query = small * math.isqrt(2**50 // (largest * int(small @ small)))
    assert largest * int(small @ small) < 2**48 <= largest * int(large_query @ large_query) < 2**53
    for query in (small, large_query, counts[0]):
        assert hit_pairs(loaded.search(query, k=50)) == exact_hits(counts, para_ids_of(rows), query, 50)


@pytest.mark.parametrize("code", [b"i1", b"i2", b"i4"])
def test_count_type_minimum_loads_bit_for_bit(tmp_path, code):
    """A count at its type's minimum, which np.abs leaves negative, loads as stored with its exact squared norm."""
    low = int(np.iinfo(vector_index._VECTOR_TYPES[code]).min)
    counts = np.array([[low, 1, 3], [low, 0, 0], [2, -2, 5]])
    path = tmp_path / "index.qidx"
    path.write_bytes(one_shot_file(counts, code))
    loaded = VectorIndex.load(path)
    assert loaded._counts.tobytes() == counts.astype(vector_index._VECTOR_TYPES[code]).tobytes()
    assert loaded._squares.tobytes() == squared_norms(counts).tobytes()
    query = np.array([0, 1, 1])
    hits = loaded.search(query, k=3)
    expected = exact_hits(counts, para_ids_of(3), query, 3)
    assert [hit.para_id for hit in hits] == [para_id for para_id, _ in expected]
    # Past 2**53 (int32's minimum squared) the division's operands are rounded, so scores agree to an ulp.
    assert [hit.score for hit in hits] == pytest.approx([score for _, score in expected], rel=1e-15)


def test_count_block_damage_fails_the_checksum(tmp_path):
    """A damaged count block is reported as a checksum failure."""
    path = tmp_path / "index.qidx"
    write_one_document(path, np.array([[1, 2], [3, 4]]))
    blob = bytearray(path.read_bytes())
    blob[-5] ^= 0x01  # the last count
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptIndexError, match="checksum"):
        VectorIndex.load(path)


def test_load_unknown_vector_type(saved_index):
    parts = IndexFile.parse(saved_index.read_bytes())
    parts.header["vector"] = b"i8"
    saved_index.write_bytes(parts.file_bytes())
    with pytest.raises(CorruptIndexError, match="vector type"):
        VectorIndex.load(saved_index)


@pytest.fixture()
def four_block_counts():
    """Counts for four blocks of rows and three more, in the int16 range."""
    return np.random.default_rng(7).integers(-300, 300, size=(4 * vector_index._BLOCK_ROWS + 3, 128))


def test_count_load_memory_is_the_matrix_plus_two_blocks(four_block_counts, tmp_path):
    rows, dim = four_block_counts.shape
    path = tmp_path / "index.qidx"
    write_one_document(path, four_block_counts)
    assert vector_type_of(path) == b"i2"
    # Beside the matrix, its norms, the table and the columns: the rows' squared norms (with their square
    # roots and reciprocals) and the decode buffers (the int16 read block, a float32 and a boolean block),
    # which fit in two float64 blocks.
    table = one_document_manifest(rows)
    bound = 8 * rows * dim + 2 * 8 * rows + len(table) + 2 * 8 * vector_index._BLOCK_ROWS * dim + SLACK
    assert traced_peak(lambda: VectorIndex.load(path)) <= bound


def test_count_write_memory_is_the_table_plus_two_blocks(four_block_counts, tmp_path):
    rows, dim = four_block_counts.shape
    # The spooled int32 counts are read back through one block and narrowed a block at a time.
    bound = len(one_document_manifest(rows)) + 2 * 8 * rows + (4 + 2) * vector_index._BLOCK_ROWS * dim + SLACK
    with one_document_writer(tmp_path / "index.qidx", four_block_counts) as writer:
        assert traced_peak(lambda: writer.write(ONE_DOCUMENT)) <= bound


def test_count_load_memory_is_the_count_block_plus_one_block(four_block_counts, tmp_path):
    rows, dim = four_block_counts.shape
    path = tmp_path / "index.qidx"
    write_one_document(path, four_block_counts)
    assert vector_type_of(path) == b"i2"
    # load keeps the int16 block and the squared norms, beside the table and the columns; the one float32
    # block (through which each block's squared norms are summed) bounds the transient rest.
    table = one_document_manifest(rows)
    bound = 2 * rows * dim + 8 * rows + len(table) + 4 * vector_index._BLOCK_ROWS * dim + SLACK
    assert traced_peak(lambda: VectorIndex.load(path)) <= bound


# -- exact count scores ------------------------------------------------------------

# Planted exact ties between different vectors: for the first query, 6/sqrt(117) and 2/sqrt(13)
# (the two cosines of a fixture tie); for the second, two rows of dot 26 and squared norm 119.
TIE_QUERIES = ([1, 0, 0, 0, 0], [2, 2, 1, 1, 0])
TIE_ROWS = ([6, 6, 6, 3, 0], [2, 3, 0, 0, 0], [2, 4, 7, 7, -1], [2, 5, 5, 7, -4])


@st.composite
def planted_ties(draw):
    """Count rows with planted exact ties, the para_ids of the rows (not in row order), and queries.

    Beside TIE_ROWS, each drawn row may get a scaled copy (the same cosine with every query), a copy
    with two components swapped where the first drawn query's are equal, or with one negated where
    that query's is 0 (the same dot and squared norm for it); a zero row is planted too.
    """
    vector = st.lists(st.integers(-7, 7), min_size=5, max_size=5)
    queries = [list(q) for q in TIE_QUERIES] + draw(st.lists(vector, min_size=1, max_size=3))
    query = queries[2]
    rows = [list(row) for row in TIE_ROWS] + [[0] * 5]
    for row in draw(st.lists(vector, max_size=8)):
        rows.append(row)
        plant = draw(st.sampled_from(["none", "scale", "swap"]))
        if plant == "scale":
            rows.append([draw(st.integers(2, 3)) * c for c in row])
        elif plant == "swap":
            partner = list(row)
            equal = [(i, j) for i in range(5) for j in range(i + 1, 5) if query[i] == query[j] and row[i] != row[j]]
            zeros = [i for i in range(5) if query[i] == 0 and row[i] != 0]
            if equal:
                i, j = draw(st.sampled_from(equal))
                partner[i], partner[j] = row[j], row[i]
            elif zeros:
                i = draw(st.sampled_from(zeros))
                partner[i] = -row[i]
            rows.append(partner)
    order = draw(st.permutations(range(len(rows))))
    return np.array(rows, dtype=np.int64), [f"p{order[i]:02d}#0" for i in range(len(rows))], np.array(queries)


def gemm_hits(counts, para_ids, queries, k):
    """Every query's ranking from one float32 GEMM over all queries, scored as search scores."""
    dots = (counts.astype(np.float32) @ queries.astype(np.float32).T).astype(np.float64)
    rankings = []
    for q, q_dots in zip(queries, dots.T):
        denom = squared_norms(counts) * float(q @ q)
        scores = np.zeros(len(counts))
        np.divide(np.square(q_dots), denom, out=scores, where=denom != 0.0)
        scores = np.where(q_dots < 0.0, -np.sqrt(scores), np.sqrt(scores))
        rankings.append(sorted(zip(para_ids, scores.tolist()), key=lambda hit: (-hit[1], hit[0]))[:k])
    return rankings


@settings(max_examples=150, deadline=None)
@given(case=planted_ties(), k=st.integers(min_value=1, max_value=8))
def test_count_search_ranks_planted_ties_by_para_id_under_any_blocking(case, k):
    counts, para_ids, queries = case
    rows = [Row(pid, vector, pid.partition("#")[0], "other") for pid, vector in zip(para_ids, counts)]
    oracle_entries = as_oracle_entries(rows)
    expected = [exact_hits(counts, para_ids, q, k) for q in queries]
    assert gemm_hits(counts, para_ids, queries, k) == expected
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        for block_rows in (1, 3, 7):
            patch.setattr(vector_index, "_BLOCK_ROWS", block_rows)
            write_index(Path(tmp) / "index.qidx", rows)
            loaded = VectorIndex.load(Path(tmp) / "index.qidx")
            for q, ranking in zip(queries, expected):
                hits = loaded.search(q, k=k)
                assert hit_pairs(hits) == ranking
                assert [hit.rank for hit in hits] == list(range(1, len(ranking) + 1))
                # The oracle's float scores agree within rounding; its order at exact ties can differ.
                oracle = dict(brute_force_search(oracle_entries, q.tolist(), len(rows)))
                assert all(abs(hit.score - oracle[hit.para_id]) <= 1e-12 for hit in hits)
            # Each planted pair of TIE_ROWS scores the same bits with its query.
            for q, (a, b) in zip(queries, ((0, 1), (2, 3))):
                scores = {hit.para_id: hit.score for hit in loaded.search(q, k=len(rows))}
                assert scores[para_ids[a]] == scores[para_ids[b]] > 0.0


def test_count_search_keeps_exact_dots_past_the_float32_bound(tmp_path):
    """A row and query whose squared norms multiply to just past 2**48 get float64 dots, equal to int64 matmul."""
    counts = np.array([[4096, 1, 0], [4095, 64, 3], [1, 1, 1]])
    query = np.array([4096, 3, 0])
    assert 2**48 <= int(squared_norms(counts).max()) * int(query @ query) < 2**53
    # float32 dots would round 4096 * 4096 + 3 = 2**24 + 3.
    assert (counts.astype(np.float32) @ query.astype(np.float32) != counts @ query).any()
    path = tmp_path / "index.qidx"
    write_one_document(path, counts)
    for index in (VectorIndex.load(path), VectorIndex(ONE_DOCUMENT, [0] * 3, [0, 1, 2], counts, "hashed-reference")):
        assert hit_pairs(index.search(query, k=3)) == exact_hits(counts, para_ids_of(3), query, 3)


def test_count_search_past_the_float64_bound_is_refused(tmp_path):
    counts = np.array([[2**31 - 1, 0], [1, 1]])
    path = tmp_path / "index.qidx"
    write_one_document(path, counts)
    loaded = VectorIndex.load(path)
    just_below = np.array([2**21 - 1, 0])  # (2**31 - 1)**2 * (2**21 - 1)**2 < 2**104
    assert hit_pairs(loaded.search(just_below, k=2)) == exact_hits(counts, para_ids_of(2), just_below, 2)
    with pytest.raises(PreconditionError, match=r"2\*\*106"):
        loaded.search(np.array([2**22, 2**22]), k=2)
    with pytest.raises(PreconditionError, match="integer counts"):
        loaded.search(np.array([1.0, 0.0]), k=2)
