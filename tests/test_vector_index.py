import json
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from index_rows import Row, build_index
from oracles.knn_oracle import brute_force_search
from qasum.cli import load_config, main
from qasum.embedding import reference_embedding
from qasum.errors import (
    CorruptIndexError,
    DimensionMismatchError,
    EmptyIndexError,
    IoError,
    PreconditionError,
)
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
    """An embedder vector of the wrong length never reaches the index matrix."""
    import qasum.cli

    monkeypatch.setattr(qasum.cli, "build_embedder", lambda spec, gateway: lambda text: np.ones(128))
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
        index.save(Path(tmp) / "index.qidx")
        loaded = VectorIndex.load(Path(tmp) / "index.qidx")
    for searched in (index, loaded):
        hits = searched.search(query, k=k, note_filter=allowed)
        assert [h.para_id for h in hits] == [pid for pid, _ in expected]
        assert [h.rank for h in hits] == list(range(1, len(expected) + 1))
        for hit, (_, score) in zip(hits, expected):
            assert abs(hit.score - score) <= 1e-12


# -- persistence ------------------------------------------------------------


@pytest.fixture()
def saved_index(tmp_path, fixture_index):
    path = tmp_path / "index.qidx"
    fixture_index.save(path)
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
    assert loaded.dim == fixture_index.dim
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
    payload = bytes(payload)
    path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload)))


def index_file(path, table, count, dim=2, version=FORMAT_VERSION):
    """An index file around the given string table (bytes) and count x dim zero vectors."""
    header = struct.pack("<8sHHQQ", MAGIC, version, dim, count, len(table))
    with_checksum(path, header + table + bytes(4 * dim * count))


def v3_table(**changes):
    """A valid string table for one row of document "a", with the given fields replaced or (None) removed."""
    table = {"embedder": "hashed-reference", "corpus_sha256": "0" * 64, "segmentation": "s",
             "doc_ids": ["a"], "note_types": ["other"], "locators": [0], "doc_rows": [1], "ordinals": [0]}
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
    "table",
    [
        b"not json",
        b'["a#0"]',
        v3_table(embedder=None),
        v3_table(ordinals=[0, 1]),
        v3_table(doc_ids=[1]),
        v3_table(note_types=[None]),
        v3_table(corpus_sha256=None),
        v3_table(segmentation=7),
        v3_table(locators=[0, 5]),
        v3_table(locators=[0.5]),
        v3_table(locators=[None]),
        v3_table(doc_rows=[2]),
        v3_table(doc_rows=[-1]),
        v3_table(ordinals=[-1]),
        v3_table(ordinals=[2**70]),
        v3_table(doc_ids=["a", "a"], note_types=["other"] * 2, locators=[0, 1], doc_rows=[1, 0]),
    ],
    ids=["not_json", "not_object", "no_embedder", "wrong_length", "int_doc_id", "null_note_type",
         "no_corpus_digest", "int_segmentation", "locator_count", "float_locator", "null_locator",
         "rows_past_count", "negative_rows", "negative_ordinal", "huge_ordinal", "repeated_doc_id"],
)
def test_load_malformed_string_table(tmp_path, table):
    path = tmp_path / "index.qidx"
    index_file(path, table, count=1)
    with pytest.raises(CorruptIndexError, match="string table"):
        VectorIndex.load(path)


def test_load_rows_out_of_document_order(tmp_path):
    path = tmp_path / "index.qidx"
    table = v3_table(doc_ids=["a", "b"], note_types=["other"] * 2, locators=[0, 9], doc_rows=[2, 0],
                     ordinals=[1, 0])
    index_file(path, table, count=2)
    with pytest.raises(CorruptIndexError, match="document order"):
        VectorIndex.load(path)
    index_file(path, v3_table(), count=1)
    loaded = VectorIndex.load(path)
    assert [hit.para_id for hit in loaded.search(np.ones(2), k=1)] == ["a#0"]
    assert loaded.corpus.locators == [0]


def test_empty_index_saves_and_loads(tmp_path):
    path = tmp_path / "empty.qidx"
    build_index([], dim=8).save(path)
    loaded = VectorIndex.load(path)
    assert (len(loaded), loaded.dim, loaded.embedder) == (0, 8, "hashed-reference")
    with pytest.raises(EmptyIndexError):
        loaded.search(np.ones(8), k=1)


def test_load_missing_file(tmp_path):
    with pytest.raises(IoError):
        VectorIndex.load(tmp_path / "missing.qidx")


def test_save_is_deterministic(tmp_path, fixture_index):
    p1 = tmp_path / "a.qidx"
    p2 = tmp_path / "b.qidx"
    fixture_index.save(p1)
    fixture_index.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes()[:8] == MAGIC


def test_concurrent_searches_are_consistent(fixture_index):
    from concurrent.futures import ThreadPoolExecutor

    query = reference_embedding("fever and productive cough")
    expected = fixture_index.search(query, k=5)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: fixture_index.search(query, k=5), range(32)))
    assert all(r == expected for r in results)
