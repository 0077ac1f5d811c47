"""Summary assembly: dedupe, deterministic ordering, acronym expansion, rendering.

Candidates that passed their thresholds are pooled across questions,
deduplicated exactly (same sentence id) and by embedding near-match, ordered
by (question order, document order), and have their acronyms expanded
before emission.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from .answer_engine import ScoredAnswer
from .corpus import SegmentedCorpus
from .embedding import Embedder, cosine
from .errors import EmptyTextError
from .fileio import write_atomic
from .question_bank import QuestionBank, RetrievalParams


@dataclass(frozen=True)
class SummaryItem:
    q_id: str
    sentence_text: str
    sent_id: str
    score: float


@dataclass(frozen=True)
class Summary:
    items: tuple[SummaryItem, ...]
    meta: dict


@lru_cache(maxsize=1)
def load_acronym_table() -> dict[str, str]:
    """Bundled clinical acronym -> expansion mapping (case-sensitive keys)."""
    raw = resources.files("qasum.assets").joinpath("acronyms.txt").read_text("utf-8")
    table: dict[str, str] = {}
    for line in raw.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        token, _, expansion = line.partition("\t")
        table[token.strip()] = expansion.strip()
    return table


def expand_acronyms(text: str, table: dict[str, str]) -> str:
    """Whole-token, case-sensitive replacement in one left-to-right pass."""
    if not table:
        return text
    return _acronym_pattern(tuple(table)).sub(lambda m: table[m.group()], text)


@lru_cache(maxsize=8)
def _acronym_pattern(keys: tuple[str, ...]) -> re.Pattern:
    """One compiled alternation per key set, longest key first."""
    alternation = "|".join(re.escape(key) for key in sorted(keys, key=len, reverse=True))
    return re.compile(rf"(?<![A-Za-z0-9])(?:{alternation})(?![A-Za-z0-9])")


def dedupe(
    candidates: list[ScoredAnswer],
    params: RetrievalParams,
    embedder: Embedder,
    order_key: Callable[[str], tuple],
    question_order: dict[str, int] | None = None,
) -> list[ScoredAnswer]:
    """Drop exact and near-duplicate sentences, keeping the higher-scored instance.

    Candidates must already have passed their thresholds. Exact duplicates
    share a sent_id; near-duplicates have embedding cosine >= dedup_cosine.
    Collapse is greedy in descending-score order, ties broken by earlier
    document order (then question order). A sentence whose text cannot be
    embedded is kept and never treated as a near-duplicate.
    """
    question_order = question_order or {}
    ranked = sorted(
        candidates,
        key=lambda a: (
            -a.score,
            order_key(a.sentence.sent_id),
            question_order.get(a.q_id, 0),
        ),
    )
    survivors: list[ScoredAnswer] = []
    kept_ids: set[str] = set()
    kept_vectors: list[np.ndarray] = []
    for candidate in ranked:
        if candidate.sentence.sent_id in kept_ids:
            continue
        try:
            vector = embedder(candidate.sentence.text)
        except EmptyTextError:
            vector = None
        if vector is not None and any(
            cosine(vector, kept) >= params.dedup_cosine for kept in kept_vectors
        ):
            continue
        survivors.append(candidate)
        kept_ids.add(candidate.sentence.sent_id)
        if vector is not None:
            kept_vectors.append(vector)
    return survivors


def assemble(
    passed: list[ScoredAnswer],
    bank: QuestionBank,
    corpus: SegmentedCorpus,
    embedder: Embedder,
    params: RetrievalParams,
    corpus_id: str,
    timestamp: str,
) -> Summary:
    """Dedupe, order, expand acronyms, and attach run metadata.

    passed holds the answers that passed their thresholds, each for a bank
    question, in any order.
    """
    question_order = {q.q_id: q.order for q in bank.questions}
    survivors = dedupe(passed, params, embedder, corpus.order_key, question_order)
    survivors.sort(key=lambda a: (question_order[a.q_id], corpus.order_key(a.sentence.sent_id)))

    table = load_acronym_table()
    items = tuple(
        SummaryItem(
            q_id=a.q_id,
            sentence_text=expand_acronyms(a.sentence.text, table),
            sent_id=a.sentence.sent_id,
            score=a.score,
        )
        for a in survivors
    )
    answered = len({a.q_id for a in passed})
    meta = {
        "bank_name": bank.name,
        "bank_version": bank.version,
        "params": {
            "k": params.k,
            "fusion_weight": params.fusion_weight,
            "score_threshold": params.score_threshold,
            "dedup_cosine": params.dedup_cosine,
        },
        "corpus_id": corpus_id,
        "timestamp": timestamp,
        "counts": {
            "questions_asked": len(bank.questions),
            "questions_answered": answered,
            "sentences_emitted": len(items),
        },
    }
    return Summary(items=items, meta=meta)


def summary_to_json(summary: Summary) -> str:
    payload = {
        "meta": summary.meta,
        "items": [
            {
                "q_id": item.q_id,
                "sentence_text": item.sentence_text,
                "sent_id": item.sent_id,
                "score": item.score,
            }
            for item in summary.items
        ],
    }
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def render_text(summary: Summary, bank: QuestionBank) -> str:
    """Plain-text rendering: sentences grouped under '## <question>' headers.

    Internal whitespace runs collapse to single spaces so each sentence
    occupies exactly one line; summary.json keeps the exact text.
    """
    by_question: dict[str, list[SummaryItem]] = {}
    for item in summary.items:
        by_question.setdefault(item.q_id, []).append(item)
    blocks = []
    for question in bank.questions:
        items = by_question.get(question.q_id)
        if not items:
            continue
        lines = [f"## {question.text}"] + [" ".join(item.sentence_text.split()) for item in items]
        blocks.append("\n".join(lines))
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"


def write_summary(summary: Summary, bank: QuestionBank, output_dir: str | Path) -> tuple[Path, Path]:
    """Emit summary.json and summary.txt side by side, each atomically; returns their paths."""
    json_path = Path(output_dir) / "summary.json"
    text_path = Path(output_dir) / "summary.txt"
    write_atomic(json_path, summary_to_json(summary).encode("utf-8"))
    write_atomic(text_path, render_text(summary, bank).encode("utf-8"))
    return json_path, text_path
