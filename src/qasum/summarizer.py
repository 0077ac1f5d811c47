"""Summary assembly: dedupe, deterministic ordering, acronym expansion, rendering.

Candidates that passed their thresholds are pooled across questions,
deduplicated exactly (same sentence id) and by embedding near-match, ordered
by (question order, document order), and have their acronyms expanded
before emission. Document order is each answer's order key, which the
extractor took from its search hit, so assembly needs no corpus.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .answer_engine import ScoredAnswer
from .embedding import Embedder, cosine_norms, normed_cosine, unit_rows
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
    question_order: dict[str, int],
) -> list[ScoredAnswer]:
    """Drop exact and near-duplicate sentences, keeping the higher-scored instance.

    Candidates must already have passed their thresholds. Exact duplicates
    share a sent_id; near-duplicates have embedding cosine >= dedup_cosine.
    Collapse is greedy in descending-score order, ties broken by earlier
    document order (then question order, which question_order gives by
    q_id). A sentence whose text cannot be embedded is kept and never
    treated as a near-duplicate.
    """
    ranked = sorted(candidates, key=lambda a: (-a.score, a.order_key, question_order[a.q_id]))
    rows, embedded = embedder.embed_many([a.sentence.text for a in ranked])
    vectors = unit_rows(rows)
    survivors: list[ScoredAnswer] = []
    kept_ids: set[str] = set()
    kept_rows: list[tuple[np.ndarray, float]] = []
    for candidate, vector, norm, has_vector in zip(ranked, vectors, cosine_norms(vectors), embedded):
        if candidate.sentence.sent_id in kept_ids:
            continue
        if has_vector and any(
            normed_cosine(vector, norm, kept, kept_norm) >= params.dedup_cosine for kept, kept_norm in kept_rows
        ):
            continue
        survivors.append(candidate)
        kept_ids.add(candidate.sentence.sent_id)
        if has_vector:
            kept_rows.append((vector, norm))
    return survivors


def assemble(
    passed: list[ScoredAnswer],
    bank: QuestionBank,
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
    survivors = dedupe(passed, params, embedder, question_order)
    survivors.sort(key=lambda a: (question_order[a.q_id], a.order_key))

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
        "params": asdict(params),
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
    write_atomic(json_path, [summary_to_json(summary).encode("utf-8")])
    write_atomic(text_path, [render_text(summary, bank).encode("utf-8")])
    return json_path, text_path
