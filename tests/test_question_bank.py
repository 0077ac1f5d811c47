import json

import pytest

from qasum.errors import IoError, ValidationError
from qasum.question_bank import (
    Question,
    RetrievalParams,
    effective_params,
    load_question_bank,
)


def base_bank():
    return {
        "name": "test-bank",
        "version": "0.1",
        "defaults": {"k": 4, "fusion_weight": 0.5, "score_threshold": 0.6, "dedup_cosine": 0.95},
        "questions": [
            {"q_id": "q1", "text": "Why was the patient admitted?", "order": 0},
            {"q_id": "q2", "text": "What medications were given?", "order": 3, "k": 2,
             "score_threshold": 0.4, "note_type_filter": ["discharge"]},
        ],
    }


def write_bank(tmp_path, data):
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(data), "utf-8")
    return path


def test_fixture_bank_loads_in_order(bank):
    assert bank.name == "clinical-core"
    assert len(bank.questions) == 6
    assert [q.order for q in bank.questions] == [0, 1, 2, 3, 4, 5]
    assert bank.questions[0].text == "Why was the patient admitted?"
    assert bank.questions[2].k_override == 3
    assert bank.questions[2].note_type_filter == frozenset({"discharge"})
    assert bank.defaults == RetrievalParams(k=4, fusion_weight=0.5,
                                            score_threshold=0.6, dedup_cosine=0.95)


def test_overrides_parsed(tmp_path):
    loaded = load_question_bank(write_bank(tmp_path, base_bank()))
    q2 = loaded.questions[1]
    assert q2.k_override == 2
    assert q2.threshold_override == 0.4
    assert q2.note_type_filter == frozenset({"discharge"})


def test_duplicate_q_id_rejected(tmp_path):
    data = base_bank()
    data["questions"][1]["q_id"] = "q1"
    with pytest.raises(ValidationError, match="q1"):
        load_question_bank(write_bank(tmp_path, data))


def test_out_of_range_default_names_field(tmp_path):
    data = base_bank()
    data["defaults"]["dedup_cosine"] = 1.2
    with pytest.raises(ValidationError, match="defaults.dedup_cosine"):
        load_question_bank(write_bank(tmp_path, data))


def test_empty_text_rejected(tmp_path):
    data = base_bank()
    data["questions"][0]["text"] = "   "
    with pytest.raises(ValidationError, match=r"questions\[0\].text"):
        load_question_bank(write_bank(tmp_path, data))


@pytest.mark.parametrize("order", [True, -1])
def test_order_must_be_a_non_negative_integer(tmp_path, order):
    data = base_bank()
    data["questions"][0]["order"] = order
    with pytest.raises(ValidationError, match=r"questions\[0\].order: must be a non-negative integer"):
        load_question_bank(write_bank(tmp_path, data))


@pytest.mark.parametrize(
    "misspell, where",
    [(lambda bank: bank.update(defualts=bank.pop("defaults")), r"question bank: unknown keys \['defualts'\]"),
     (lambda bank: bank["questions"][1].update(score_treshold=bank["questions"][1].pop("score_threshold")),
      r"questions\[1\]: unknown keys \['score_treshold'\]")],
    ids=["bank", "question"],
)
def test_unknown_key_is_an_error(tmp_path, misspell, where):
    # A misspelt setting must not fall back to its default without a word.
    data = base_bank()
    misspell(data)
    with pytest.raises(ValidationError, match=where):
        load_question_bank(write_bank(tmp_path, data))


def test_orders_must_increase(tmp_path):
    data = base_bank()
    data["questions"][1]["order"] = 0
    with pytest.raises(ValidationError, match="order"):
        load_question_bank(write_bank(tmp_path, data))


def test_empty_question_list_rejected(tmp_path):
    data = base_bank()
    data["questions"] = []
    with pytest.raises(ValidationError, match="questions"):
        load_question_bank(write_bank(tmp_path, data))


def test_unknown_note_type_rejected(tmp_path):
    data = base_bank()
    data["questions"][1]["note_type_filter"] = ["triage"]
    with pytest.raises(ValidationError, match="triage"):
        load_question_bank(write_bank(tmp_path, data))


@pytest.mark.parametrize("element", [["discharge"], {"type": "discharge"}, 5, None])
def test_note_type_filter_element_that_is_not_a_string_is_rejected(tmp_path, element):
    data = base_bank()
    data["questions"][1]["note_type_filter"] = ["discharge", element]
    with pytest.raises(ValidationError, match=r"questions\[1\]\.note_type_filter: unknown note types"):
        load_question_bank(write_bank(tmp_path, data))


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(IoError):
        load_question_bank(tmp_path / "missing.json")


def test_effective_params_applies_overrides():
    defaults = RetrievalParams()
    q = Question(q_id="q", text="t?", order=0, k_override=2, threshold_override=0.3)
    eff = effective_params(q, defaults)
    assert eff.k == 2
    assert eff.score_threshold == 0.3
    assert eff.fusion_weight == defaults.fusion_weight
    plain = Question(q_id="p", text="t?", order=1)
    assert effective_params(plain, defaults) == defaults
