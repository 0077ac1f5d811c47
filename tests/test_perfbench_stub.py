"""The benchmark's loopback stand-in imports from qasum; a refactor must keep what it uses."""

import importlib.util
import json
import sys
from pathlib import Path

from qasum.cli import main
from qasum.embedding import reference_embedding

PERFBENCH = Path(__file__).parent.parent / "perfbench"
FIXTURES = Path(__file__).parent / "fixtures"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module


def load_stub():
    return load_perfbench("stub")


def test_stub_embeds_with_the_reference_embedding():
    stub = load_stub()
    assert stub._embedding("fever", 256) == reference_embedding("fever", 256).tolist()
    # A text the reference embedder drops gets the unit fallback vector.
    assert stub._embedding(" ", 256) == [1.0] + [0.0] * 255


def test_stub_answers_with_a_context_sentence():
    prompt = "QUESTION: Was the patient afebrile?\n\nCONTEXT:\n[d#0] Admitted overnight.  The patient was afebrile."
    reply = load_stub()._answer(prompt)
    assert reply["answer"] == reply["source_sentence"] == "The patient was afebrile."


def test_parallel_replay_of_a_serial_recording_gives_the_same_bytes(tmp_path, monkeypatch):
    # The bank-replay set-up: record a serial summarize and an evaluate against the stub, then
    # replay summarize --workers 2 and evaluate. Replay is keyed by request body, so this fails if
    # any request body depends on the number of workers.
    gen = load_perfbench("gen")
    docs = gen.generate_corpus(FIXTURES, 40, 1)
    gen.write_corpus(docs, tmp_path / "corpus.jsonl")
    (tmp_path / "bank.json").write_text(json.dumps(gen.generate_bank(80, 1)), "utf-8")
    reference, source = gen.reference_and_source(docs, 1, 12)
    (tmp_path / "reference.txt").write_text(reference, "utf-8")
    (tmp_path / "source.txt").write_text(source, "utf-8")
    monkeypatch.setenv("QASUM_API_KEY", "loopback-stub-key")

    def configure(base_url, mode):
        config = {
            "corpus": {"path": "corpus.jsonl", "format": "jsonl"},
            "embedder": {"kind": "remote", "dim": 256},
            "index_path": "index.qidx",
            "question_bank_path": "bank.json",
            "extractor": "remote",
            "gateway": {"base_url": base_url, "model": "bench-stub", "mode": mode, "fixtures_dir": "fixtures"},
            "output_dir": "out",
            "run_timestamp": "2026-01-15T00:00:00Z",
        }
        (tmp_path / "config.json").write_text(json.dumps(config), "utf-8")
        return ["--config", str(tmp_path / "config.json")]

    out = tmp_path / "out"
    outputs = ("summary.json", "summary.txt", "metrics.json")
    evaluate = [str(out / "summary.txt"), str(tmp_path / "reference.txt"), str(tmp_path / "source.txt")]
    with load_stub().LoopbackStub(256) as stub:
        config = configure(stub.base_url, "record")
        assert main(["index", *config]) == 0
        assert main(["summarize", *config]) == 0
        assert main(["evaluate", *config, *evaluate]) == 0
    recorded = {name: (out / name).read_bytes() for name in outputs}
    assert json.loads(recorded["summary.json"])["items"]

    config = configure("http://127.0.0.1:9", "replay")
    for name in outputs:
        (out / name).unlink()
    assert main(["summarize", *config, "--workers", "2"]) == 0
    assert main(["evaluate", *config, *evaluate, "--format", "json"]) == 0
    assert {name: (out / name).read_bytes() for name in outputs} == recorded
