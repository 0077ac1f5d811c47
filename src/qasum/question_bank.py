"""Loading and validation of the SME-authored question bank.

A bank is a versioned JSON file: retrieval defaults plus an ordered list
of questions, each optionally overriding k, the score threshold, or the
note-type filter. Banks are immutable after load and safe to share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .corpus import NOTE_TYPES
from .errors import IoError, ValidationError


@dataclass(frozen=True)
class RetrievalParams:
    k: int = 4
    fusion_weight: float = 0.5
    score_threshold: float = 0.6
    dedup_cosine: float = 0.95


def _positive_int(value) -> bool:
    return type(value) is int and value >= 1


def _unit_number(value) -> bool:
    # NaN fails the range test; bool is not a number here.
    return type(value) in (int, float) and 0.0 <= value <= 1.0


# The one rule of each retrieval param, for bank defaults, config params and
# a question's k/score_threshold: name -> (check, what it must be).
_PARAM_RULES = {
    "k": (_positive_int, "a positive integer"),
    "fusion_weight": (_unit_number, "a number in [0, 1]"),
    "score_threshold": (_unit_number, "a number in [0, 1]"),
    "dedup_cosine": (_unit_number, "a number in [0, 1]"),
}


def check_known_keys(raw: dict, known, where: str) -> None:
    """Raise ValidationError naming where and every key of raw that is not known."""
    unknown = set(raw) - set(known)
    if unknown:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")


def check_params(raw, where: str) -> dict:
    """raw, once it is an object of retrieval params that each keep their rule.

    Otherwise raises ValidationError naming where.<key>.
    """
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: must be a JSON object")
    check_known_keys(raw, _PARAM_RULES, where)
    for key, value in raw.items():
        check, what = _PARAM_RULES[key]
        if not check(value):
            raise ValidationError(f"{where}.{key}: must be {what}, got {value!r}")
    return raw


@dataclass(frozen=True)
class Question:
    q_id: str
    text: str
    order: int
    k_override: int | None = None
    threshold_override: float | None = None
    note_type_filter: frozenset[str] | None = None


@dataclass(frozen=True)
class QuestionBank:
    name: str
    version: str
    defaults: RetrievalParams
    questions: tuple[Question, ...]


def effective_params(question: Question, defaults: RetrievalParams) -> RetrievalParams:
    """Apply a question's k/threshold overrides onto the bank defaults."""
    params = defaults
    if question.k_override is not None:
        params = replace(params, k=question.k_override)
    if question.threshold_override is not None:
        params = replace(params, score_threshold=question.threshold_override)
    return params


def load_question_bank(path: str | Path) -> QuestionBank:
    path = Path(path)
    try:
        raw = path.read_text("utf-8")
    except OSError as exc:
        raise IoError(f"cannot read question bank {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not valid UTF-8: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: top level must be a JSON object")
    return bank_from_dict(data)


def bank_from_dict(data: dict) -> QuestionBank:
    check_known_keys(data, ("name", "version", "defaults", "questions"), "question bank")
    name = data.get("name")
    version = data.get("version")
    if not isinstance(name, str) or not name:
        raise ValidationError("name: must be a nonempty string")
    if not isinstance(version, str) or not version:
        raise ValidationError("version: must be a nonempty string")

    defaults = RetrievalParams(**check_params(data.get("defaults", {}), "defaults"))

    raw_questions = data.get("questions")
    if not isinstance(raw_questions, list) or not raw_questions:
        raise ValidationError("questions: must be a nonempty list")

    questions = []
    seen: set[str] = set()
    last_order = None
    for i, raw in enumerate(raw_questions):
        where = f"questions[{i}]"
        question = _question_from_dict(raw, where)
        if question.q_id in seen:
            raise ValidationError(f"{where}.q_id: duplicate q_id {question.q_id!r}")
        seen.add(question.q_id)
        if last_order is not None and question.order <= last_order:
            raise ValidationError(f"{where}.order: orders must be strictly increasing")
        last_order = question.order
        questions.append(question)
    return QuestionBank(name=name, version=version, defaults=defaults, questions=tuple(questions))


def _question_from_dict(raw, where: str) -> Question:
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: must be a JSON object")
    check_known_keys(raw, ("q_id", "text", "order", "k", "score_threshold", "note_type_filter"), where)
    q_id = raw.get("q_id")
    text = raw.get("text")
    order = raw.get("order")
    if not isinstance(q_id, str) or not q_id:
        raise ValidationError(f"{where}.q_id: must be a nonempty string")
    if not isinstance(text, str) or not text.strip():
        raise ValidationError(f"{where}.text: must be a nonempty string")
    if not (type(order) is int and order >= 0):
        raise ValidationError(f"{where}.order: must be a non-negative integer, got {order!r}")
    overrides = {key: raw[key] for key in ("k", "score_threshold") if raw.get(key) is not None}
    check_params(overrides, where)
    note_type_filter = raw.get("note_type_filter")
    if note_type_filter is not None:
        if not isinstance(note_type_filter, list) or not note_type_filter:
            raise ValidationError(f"{where}.note_type_filter: must be a nonempty list")
        bad = [t for t in note_type_filter if not isinstance(t, str) or t not in NOTE_TYPES]
        if bad:
            raise ValidationError(f"{where}.note_type_filter: unknown note types {bad}")
        note_type_filter = frozenset(note_type_filter)

    return Question(
        q_id=q_id,
        text=text,
        order=order,
        k_override=overrides.get("k"),
        threshold_override=overrides.get("score_threshold"),
        note_type_filter=note_type_filter,
    )
