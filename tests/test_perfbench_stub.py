"""The benchmark's loopback stand-in imports from qasum; a refactor must keep what it uses."""

import importlib.util
from pathlib import Path

from qasum.embedding import reference_embedding

STUB = Path(__file__).parent.parent / "perfbench" / "stub.py"


def load_stub():
    spec = importlib.util.spec_from_file_location("perfbench_stub", STUB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stub_embeds_with_the_reference_embedding():
    stub = load_stub()
    assert stub._embedding("fever", 256) == reference_embedding("fever", 256).tolist()
    # A text the reference embedder drops gets the unit fallback vector.
    assert stub._embedding(" ", 256) == [1.0] + [0.0] * 255


def test_stub_answers_with_a_context_sentence():
    prompt = "QUESTION: Was the patient afebrile?\n\nCONTEXT:\n[d#0] Admitted overnight.  The patient was afebrile."
    reply = load_stub()._answer(prompt)
    assert reply["answer"] == reply["source_sentence"] == "The patient was afebrile."
