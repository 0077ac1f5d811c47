import json
from dataclasses import asdict
from pathlib import Path

import pytest

from index_rows import Row, build_index
from qasum.corpus import read_corpus, segment_paragraphs
from qasum.embedding import EmbedderSpec, build_embedder, reference_embedding
from qasum.question_bank import load_question_bank
from qasum.vector_index import VectorIndex

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"


@pytest.fixture(autouse=True)
def no_temporary_file_left(request):
    """Fail a test that leaves a ``.*.tmp`` file (an atomic-write temporary or an index spool) in its tmp_path."""
    tmp_path = request.getfixturevalue("tmp_path") if "tmp_path" in request.fixturenames else None
    yield
    left = sorted(tmp_path.rglob(".*.tmp")) if tmp_path else []
    if left:
        pytest.fail(f"temporary files left behind: {[str(path) for path in left]}")


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN


@pytest.fixture(scope="session")
def corpus_docs():
    return [doc for doc, _ in read_corpus(FIXTURES / "corpus.jsonl").entries()]


@pytest.fixture(scope="session")
def fixture_paragraphs(corpus_docs):
    """Every paragraph of the fixture corpus, in document order."""
    return [para for doc in corpus_docs for para in segment_paragraphs(doc)]


@pytest.fixture(scope="session")
def pin_documents(tmp_path_factory):
    """The one way tests make a pinned corpus: pin_documents(docs) pins them as ``ask`` and ``summarize`` do.

    The documents are written to a JSONL corpus in a fresh directory, read
    back through ``entries`` to build the manifest ``qasum index`` records,
    and pinned to it; so document i is at position i. An index built from
    the same documents' paragraphs (``index_rows.build_index``) has the same
    document positions when every document has a paragraph.
    """

    def pin(docs):
        path = tmp_path_factory.mktemp("pinned") / "corpus.jsonl"
        path.write_text("".join(json.dumps(asdict(doc)) + "\n" for doc in docs), "utf-8")
        source = read_corpus(path)
        entries = list(source.entries())
        manifest = source.manifest(
            [doc.doc_id for doc, _ in entries], [doc.note_type for doc, _ in entries], [at for _, at in entries]
        )
        return source.pinned(manifest)

    return pin


@pytest.fixture(scope="session")
def pinned(pin_documents, corpus_docs):
    """The fixture corpus, pinned."""
    return pin_documents(corpus_docs)


@pytest.fixture(scope="session")
def ref_embedder():
    """The reference embedder that ask, summarize and evaluate build from the default config."""
    return build_embedder(EmbedderSpec())


@pytest.fixture(scope="session")
def fixture_entries(corpus_docs, fixture_paragraphs):
    doc_type = {doc.doc_id: doc.note_type for doc in corpus_docs}
    return [
        Row(
            para_id=para.para_id,
            vector=reference_embedding(para.text),
            doc_id=para.doc_id,
            note_type=doc_type[para.doc_id],
        )
        for para in fixture_paragraphs
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
