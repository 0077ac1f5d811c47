import json
from pathlib import Path

import pytest

from index_rows import Row, build_index
from qasum.corpus import SegmentedCorpus, read_corpus
from qasum.embedding import reference_embedding
from qasum.question_bank import load_question_bank
from qasum.vector_index import VectorIndex

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN


@pytest.fixture(scope="session")
def corpus_docs():
    return read_corpus(FIXTURES / "corpus.jsonl").load()[0]


@pytest.fixture(scope="session")
def segmented(corpus_docs) -> SegmentedCorpus:
    return SegmentedCorpus(corpus_docs)


@pytest.fixture(scope="session")
def ref_embedder():
    return reference_embedding


@pytest.fixture(scope="session")
def fixture_entries(corpus_docs, segmented):
    doc_type = {doc.doc_id: doc.note_type for doc in corpus_docs}
    return [
        Row(
            para_id=para.para_id,
            vector=reference_embedding(para.text),
            doc_id=para.doc_id,
            note_type=doc_type[para.doc_id],
        )
        for para in segmented.paragraphs
    ]


@pytest.fixture(scope="session")
def fixture_index(fixture_entries) -> VectorIndex:
    return build_index(fixture_entries)


@pytest.fixture(scope="session")
def bank():
    return load_question_bank(FIXTURES / "question_bank.json")


@pytest.fixture()
def pipeline_config(tmp_path) -> Path:
    """A config file in tmp_path wired to the bundled fixtures."""
    config = {
        "corpus": {"path": str(FIXTURES / "corpus.jsonl"), "format": "jsonl"},
        "embedder": {"kind": "hashed-reference", "dim": 256},
        "index_path": "out/index.qidx",
        "question_bank_path": str(FIXTURES / "question_bank.json"),
        "extractor": "mock",
        "output_dir": "out",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=2), "utf-8")
    return path
