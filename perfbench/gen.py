"""Seeded input generator for the benchmark workloads.

Every input is rebuilt from the 12-document fixture corpus: each generated
document copies the section layout of a fixture document of the same note
type, fills each section with sentences drawn from every fixture section
that carries the same header, and re-draws every number. Patient ids, doc
ids and timestamps are generated too. A fixed share of documents gets one
extra sentence with non-ASCII characters, so an ASCII-only fast path in
the program is exercised but not flattered.

The same seed always gives byte-identical files. The program only ever
sees the files written here.
"""

from __future__ import annotations

import json
import random
import re
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

NON_ASCII_SHARE = 0.10
NON_ASCII_SENTENCES = (
    "Temperature peaked at {a}.{b} °C overnight.",
    "Vitamin B12 {c} µg was given by mouth.",
    "Seen by Dr. Hélène Dubé for a second opinion on day {a}.",
    "The patient's daughter Zoë was updated at the bedside.",
)

# Questions for the ad-hoc `ask` path. The last two (UNANSWERABLE_ASKS)
# share no content token with any generated document, so `ask` must answer
# them with exit code 2; the others may get 0 or 2, depending on the hits.
ASK_POOL = (
    "What was the heart rate on admission?",
    "Which antibiotics were started on admission?",
    "What did the echocardiogram show?",
    "What did the chest radiograph show?",
    "What did the urine cultures grow?",
    "Which stent was placed during coronary angiography?",
    "What was the oxygen saturation on room air?",
    "Why was the patient transferred to the medical floor?",
    "Which saxophone quartet toured Zanzibar?",
    "Whose violin recital inspired the glacier expedition?",
)
UNANSWERABLE_ASKS = frozenset(ASK_POOL[-2:])

_TOPICS = (
    "pneumonia", "ceftriaxone", "azithromycin", "troponin", "stent", "sepsis",
    "echocardiogram", "metoprolol", "heparin", "urine cultures", "blood cultures",
    "chest radiograph", "oxygen requirements", "rehabilitation", "physical therapy",
    "metformin", "lisinopril", "amlodipine", "clopidogrel", "atorvastatin",
    "chest pain", "fever", "confusion", "flank pain", "productive cough",
    "intensive care unit", "coronary angiography", "ejection fraction",
    "antibiotics", "follow up appointment", "pulmonology clinic", "cardiology clinic",
)
_ASPECTS = (
    "What was documented about {t}?",
    "What was the plan for {t}?",
    "What did the team note regarding {t}?",
    "How did {t} change during the stay?",
    "What dose of {t} was given?",
    "What result was reported for {t}?",
)
_NO_ANSWER = (
    "Which saxophone quartet toured Zanzibar in {n}?",
    "Whose violin recital inspired glacier expedition {n}?",
)
_NOTE_FILTERS = (["discharge"], ["progress"], ["admission"], ["admission", "progress"])
# No generated document has these note types, so the retrieval comes back empty.
_EMPTY_FILTERS = (["radiology"], ["lab"])

_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])(?<!Dr\.)\s+(?=[A-Z])")
_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?")


@dataclass(frozen=True)
class Template:
    doc_suffix: str
    note_type: str
    sections: tuple[tuple[str, int], ...]  # (header pattern, sentence count)


def _load_fixtures(fixtures: Path):
    """Fixture documents as section templates plus a header -> sentences pool."""
    pool: dict[str, list[str]] = defaultdict(list)
    patients: dict[str, list[Template]] = defaultdict(list)
    for line in (fixtures / "corpus.jsonl").read_text("utf-8").splitlines():
        record = json.loads(line)
        sections = []
        for block in record["text"].strip().split("\n\n"):
            header, _, body = block.partition("\n")
            pattern = _NUMBER_RE.sub("{n}", header)
            sentences = _SENTENCE_SPLIT_RE.split(body.strip())
            for sentence in sentences:
                if sentence not in pool[pattern]:
                    pool[pattern].append(sentence)
            sections.append((pattern, len(sentences)))
        suffix = record["doc_id"].split("-", 1)[1]
        patients[record["patient_id"]].append(Template(suffix, record["note_type"], tuple(sections)))
    return dict(pool), [tuple(docs) for _, docs in sorted(patients.items())]


def _vary_numbers(rng: random.Random, text: str) -> str:
    def redraw(match: re.Match) -> str:
        whole, _, frac = match.group().partition(".")
        base = int(whole)
        value = str(rng.randrange(base // 2, base * 3 // 2 + 1) if base >= 10 else rng.randrange(1, 10))
        if frac:
            value += "." + "".join(str(rng.randrange(10)) for _ in frac)
        return value

    return _NUMBER_RE.sub(redraw, text)


def _document(rng, pool, template: Template, doc_id, patient_id, when) -> dict:
    blocks = []
    for pattern, count in template.sections:
        candidates = pool[pattern]
        count = max(1, min(len(candidates), count + rng.choice((-1, 0, 0, 1))))
        sentences = [_vary_numbers(rng, s) for s in rng.sample(candidates, count)]
        header = pattern.replace("{n}", str(rng.randrange(2, 10)))
        blocks.append([header, sentences])
    if rng.random() < NON_ASCII_SHARE:
        extra = rng.choice(NON_ASCII_SENTENCES).format(
            a=rng.randrange(36, 41), b=rng.randrange(10), c=rng.randrange(100, 1000)
        )
        rng.choice(blocks)[1].append(extra)
    text = "\n\n".join(header + "\n" + " ".join(sentences) for header, sentences in blocks) + "\n"
    return {
        "doc_id": doc_id,
        "patient_id": patient_id,
        "note_type": template.note_type,
        "timestamp": when.strftime("%Y-%m-%dT%H:%M:%SZ"),
        "text": text,
    }


def generate_corpus(fixtures: Path, n_docs: int, seed: int) -> list[dict]:
    """n_docs documents, grouped by patient like the fixtures, in patient order."""
    pool, patients = _load_fixtures(fixtures)
    rng = random.Random(f"corpus:{seed}")
    base = datetime(2024, 1, 1, tzinfo=timezone.utc)
    docs: list[dict] = []
    patient = 0
    while len(docs) < n_docs:
        patient_id = f"p{patient:05d}{rng.randrange(16 ** 4):04x}"
        when = base + timedelta(minutes=rng.randrange(500_000))
        for template in rng.choice(patients):
            if len(docs) == n_docs:
                break
            doc_id = f"{patient_id}-{template.doc_suffix}"
            docs.append(_document(rng, pool, template, doc_id, patient_id, when))
            when += timedelta(hours=rng.randrange(12, 60), minutes=rng.randrange(60))
        patient += 1
    return docs


def write_corpus(docs: list[dict], path: Path) -> None:
    lines = (json.dumps(doc, ensure_ascii=False) for doc in docs)
    path.write_text("\n".join(lines) + "\n", "utf-8")


def generate_bank(n_questions: int, seed: int) -> dict:
    """A question bank from templates, with k and note-type overrides and unanswerable questions."""
    rng = random.Random(f"bank:{seed}")
    questions = []
    for i in range(n_questions):
        roll = rng.random()
        question: dict = {"q_id": f"q{i:04d}", "order": i}
        if roll < 0.06:
            question["text"] = rng.choice(_NO_ANSWER).format(n=rng.randrange(1900, 2000))
        else:
            question["text"] = rng.choice(_ASPECTS).format(t=rng.choice(_TOPICS))
            if roll < 0.08:
                question["note_type_filter"] = rng.choice(_EMPTY_FILTERS)
            elif roll < 0.30:
                question["note_type_filter"] = rng.choice(_NOTE_FILTERS)
        if rng.random() < 0.2:
            question["k"] = rng.randrange(2, 7)
        questions.append(question)
    return {
        "name": "bench-generated",
        "version": f"seed-{seed}",
        # Below the fixture bank's 0.6, so that more than half the questions
        # pass and dedupe has real work.
        "defaults": {"k": 4, "fusion_weight": 0.5, "score_threshold": 0.3, "dedup_cosine": 0.95},
        "questions": questions,
    }


def reference_and_source(docs: list[dict], seed: int, n_sentences: int) -> tuple[str, str]:
    """Reference summary (sentences sampled from discharge notes) and the source text."""
    rng = random.Random(f"reference:{seed}")
    discharge = [
        sentence
        for doc in docs
        if doc["note_type"] == "discharge"
        for block in doc["text"].strip().split("\n\n")
        for sentence in _SENTENCE_SPLIT_RE.split(block.partition("\n")[2])
    ]
    reference = "\n".join(rng.sample(discharge, min(n_sentences, len(discharge)))) + "\n"
    source = "\n".join(doc["text"] for doc in docs)
    return reference, source


def ask_question(seed: int, n: int) -> str:
    """The n-th ad-hoc question of a run."""
    return random.Random(f"ask:{seed}:{n}").choice(ASK_POOL)
