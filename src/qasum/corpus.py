"""Corpus loading and segmentation into paragraphs and sentences.

Documents are split into paragraphs (the indexing unit) on blank lines and
section-header lines, with an upper bound on paragraph length; paragraphs
are split into sentences (the answer / provenance unit) by a rule-based
splitter with an abbreviation exception list.

Spans are byte offsets into the parent text's UTF-8 encoding, and are
tight: slicing the encoded parent at the span reproduces the chunk text
exactly (so trimming the slice is a no-op).
"""

from __future__ import annotations

import json
import re
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .errors import DuplicateIdError, FormatError, IoError

NOTE_TYPES = frozenset({"admission", "progress", "discharge", "radiology", "lab", "other"})

DEFAULT_MAX_PARAGRAPH_TOKENS = 256

_HEADER_RE = re.compile(r"^[A-Z][A-Za-z /]{1,40}:$")
_PUNCT_RE = re.compile(r"[.!?;]")
_WORD_RE = re.compile(r"\S+")
_ABBREV_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z.]*$")


@dataclass(frozen=True)
class Document:
    doc_id: str
    patient_id: str
    note_type: str
    timestamp: str | None
    text: str


@dataclass(frozen=True)
class Paragraph:
    para_id: str
    doc_id: str
    ordinal: int
    char_span: tuple[int, int]
    text: str


@dataclass(frozen=True)
class Sentence:
    sent_id: str
    para_id: str
    ordinal: int
    char_span: tuple[int, int]
    text: str


@lru_cache(maxsize=1)
def load_abbreviations() -> frozenset[str]:
    """Lowercased abbreviation tokens bundled with the package."""
    raw = resources.files("qasum.assets").joinpath("abbreviations.txt").read_text("utf-8")
    return frozenset(
        line.strip().lower()
        for line in raw.splitlines()
        if line.strip() and not line.startswith("#")
    )


def load_corpus(path: str | Path, format: str = "jsonl") -> list[Document]:
    """Load a document collection from a JSONL file or a directory of .txt files.

    Returns documents in file order (sorted filename order for text-dir).
    Raises IoError for unreadable paths, FormatError for malformed records
    (with the offending line number), DuplicateIdError for repeated doc_ids.
    """
    path = Path(path)
    if format == "jsonl":
        return _load_jsonl(path)
    if format == "text-dir":
        return _load_text_dir(path)
    raise FormatError(f"unknown corpus format {format!r} (expected 'jsonl' or 'text-dir')")


def _load_jsonl(path: Path) -> list[Document]:
    try:
        raw = path.read_text("utf-8")
    except OSError as exc:
        raise IoError(f"cannot read corpus file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"corpus file {path} is not valid UTF-8: {exc}") from exc

    docs: list[Document] = []
    seen: dict[str, int] = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise FormatError(f"{path}:{lineno}: record is not a JSON object")
        docs.append(_document_from_record(record, f"{path}:{lineno}"))
        doc_id = docs[-1].doc_id
        if doc_id in seen:
            raise DuplicateIdError(
                f"{path}:{lineno}: duplicate doc_id {doc_id!r} (first seen at line {seen[doc_id]})"
            )
        seen[doc_id] = lineno
    return docs


def _document_from_record(record: dict, where: str) -> Document:
    for key in ("doc_id", "patient_id", "note_type", "text"):
        if key not in record:
            raise FormatError(f"{where}: missing field {key!r}")
        if key != "text" and not isinstance(record[key], str):
            raise FormatError(f"{where}: field {key!r} must be a string")
    if not isinstance(record["text"], str):
        raise FormatError(f"{where}: field 'text' must be a string")
    if not record["doc_id"]:
        raise FormatError(f"{where}: doc_id must be nonempty")
    if record["note_type"] not in NOTE_TYPES:
        raise FormatError(
            f"{where}: note_type {record['note_type']!r} not one of {sorted(NOTE_TYPES)}"
        )
    timestamp = record.get("timestamp")
    if timestamp is not None and not isinstance(timestamp, str):
        raise FormatError(f"{where}: timestamp must be a string or null")
    return Document(
        doc_id=record["doc_id"],
        patient_id=record["patient_id"],
        note_type=record["note_type"],
        timestamp=timestamp,
        text=record["text"],
    )


def _load_text_dir(path: Path) -> list[Document]:
    if not path.is_dir():
        raise IoError(f"corpus directory {path} does not exist or is not a directory")
    docs = []
    for file in sorted(path.glob("*.txt")):
        try:
            text = file.read_text("utf-8")
        except OSError as exc:
            raise IoError(f"cannot read {file}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise FormatError(f"{file} is not valid UTF-8: {exc}") from exc
        stem = file.stem
        note_type = "other"
        for prefix in ("admission", "progress", "discharge"):
            if stem.startswith(prefix + "_"):
                note_type = prefix
                break
        docs.append(Document(doc_id=stem, patient_id="", note_type=note_type, timestamp=None, text=text))
    return docs


def _byte_offsets(text: str) -> Sequence[int]:
    """Map codepoint index -> byte offset in the UTF-8 encoding of text."""
    if text.isascii():
        return range(len(text) + 1)
    offsets = [0] * (len(text) + 1)
    pos = 0
    for i, ch in enumerate(text):
        offsets[i] = pos
        pos += len(ch.encode("utf-8"))
    offsets[len(text)] = pos
    return offsets


def _trim_span(text: str, start: int, end: int) -> tuple[int, int]:
    while start < end and text[start].isspace():
        start += 1
    while end > start and text[end - 1].isspace():
        end -= 1
    return start, end


def _line_spans(text: str) -> list[tuple[int, int]]:
    """(start, end) codepoint spans of each line, end excluding the newline."""
    spans = []
    pos = 0
    for line in text.splitlines(keepends=True):
        content = line.rstrip("\n")
        if content.endswith("\r"):
            content = content[:-1]
        spans.append((pos, pos + len(content)))
        pos += len(line)
    return spans


def _blank_line_chunks(text: str) -> list[list[tuple[int, int]]]:
    """The line spans of each run of non-blank lines, in document order."""
    chunks = []
    current: list[tuple[int, int]] = []
    for start, end in _line_spans(text):
        if text[start:end].strip():
            current.append((start, end))
        elif current:
            chunks.append(current)
            current = []
    if current:
        chunks.append(current)
    return chunks


def _split_on_headers(text: str, lines: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Split one chunk, given as its line spans, before each section-header line."""
    pieces = []
    piece_start = lines[0][0]
    for s, e in lines:
        if s > piece_start and _HEADER_RE.match(text[s:e]):
            pieces.append((piece_start, s))
            piece_start = s
    pieces.append((piece_start, lines[-1][1]))
    return pieces


def _is_sentence_boundary(text: str, match: re.Match, abbreviations: frozenset[str]) -> bool:
    i = match.end()
    if i < len(text):
        j = i
        while j < len(text) and text[j].isspace():
            j += 1
        if j == i or j == len(text) or not text[j].isupper():
            return False
    if match.group() == ".":
        token_match = _ABBREV_TOKEN_RE.search(text, 0, match.start())
        if token_match and token_match.group().lower() in abbreviations:
            return False
    return True


def _sentence_spans(text: str) -> list[tuple[int, int]]:
    abbreviations = load_abbreviations()
    spans = []
    start = 0
    for match in _PUNCT_RE.finditer(text):
        if _is_sentence_boundary(text, match, abbreviations):
            spans.append((start, match.end()))
            start = match.end()
    if start < len(text):
        spans.append((start, len(text)))
    trimmed = []
    for s, e in spans:
        s, e = _trim_span(text, s, e)
        if s < e:
            trimmed.append((s, e))
    return trimmed


def _enforce_token_cap(text: str, span: tuple[int, int], cap: int) -> list[tuple[int, int]]:
    start, end = span
    if len(text[start:end].split()) <= cap:
        return [span]
    pieces = []
    group_start = None
    group_tokens = 0
    for s, e in _sentence_spans(text[start:end]):
        abs_s, abs_e = start + s, start + e
        n_tokens = len(text[abs_s:abs_e].split())
        if n_tokens > cap:
            if group_start is not None:
                pieces.append((group_start, abs_s))
                group_start = None
                group_tokens = 0
            pieces.extend(_hard_split(text, abs_s, abs_e, cap))
            continue
        if group_start is None:
            group_start, group_tokens = abs_s, n_tokens
        elif group_tokens + n_tokens <= cap:
            group_tokens += n_tokens
        else:
            pieces.append((group_start, abs_s))
            group_start, group_tokens = abs_s, n_tokens
    if group_start is not None:
        pieces.append((group_start, end))
    return pieces


def _hard_split(text: str, start: int, end: int, cap: int) -> list[tuple[int, int]]:
    """Last resort for a single sentence longer than the token cap."""
    words = [(m.start() + start, m.end() + start) for m in _WORD_RE.finditer(text[start:end])]
    pieces = []
    for i in range(0, len(words), cap):
        group = words[i : i + cap]
        pieces.append((group[0][0], group[-1][1]))
    return pieces


def segment_paragraphs(
    doc: Document, max_paragraph_tokens: int = DEFAULT_MAX_PARAGRAPH_TOKENS
) -> list[Paragraph]:
    """Split a document into paragraphs.

    Rules: blank-line runs separate paragraphs; a section-header line
    (e.g. "DISCHARGE MEDICATIONS:") starts a new paragraph that includes
    the header; paragraphs longer than max_paragraph_tokens are split
    at sentence boundaries (single over-long sentences at word
    boundaries). Whitespace-only chunks are dropped.
    """
    text = doc.text
    pieces: list[tuple[int, int]] = []
    for lines in _blank_line_chunks(text):
        for piece in _split_on_headers(text, lines):
            pieces.extend(_enforce_token_cap(text, piece, max_paragraph_tokens))

    byte_of = _byte_offsets(text)
    paragraphs = []
    for start, end in pieces:
        start, end = _trim_span(text, start, end)
        if start >= end:
            continue
        ordinal = len(paragraphs)
        paragraphs.append(
            Paragraph(
                para_id=f"{doc.doc_id}#{ordinal}",
                doc_id=doc.doc_id,
                ordinal=ordinal,
                char_span=(byte_of[start], byte_of[end]),
                text=text[start:end],
            )
        )
    return paragraphs


def split_sentences(para: Paragraph) -> list[Sentence]:
    """Split a paragraph into sentences.

    Boundaries are '.', '!', '?', ';' followed by whitespace and an
    uppercase letter, or end of text; a period directly after a token in
    the bundled abbreviation list does not split. Newlines alone never
    split.
    """
    text = para.text
    byte_of = _byte_offsets(text)
    sentences = []
    for start, end in _sentence_spans(text):
        ordinal = len(sentences)
        sentences.append(
            Sentence(
                sent_id=f"{para.para_id}:{ordinal}",
                para_id=para.para_id,
                ordinal=ordinal,
                char_span=(byte_of[start], byte_of[end]),
                text=text[start:end],
            )
        )
    return sentences


class SegmentedCorpus:
    """Lazy paragraph and sentence view over a loaded document list.

    Construction only indexes the documents. A document is segmented into
    paragraphs on the first lookup that touches it, and its sentences are
    split on the first sentence lookup; both are cached per document, so a
    query pays only for the documents its hits come from. Ids carry their
    document: a para_id is ``<doc_id>#<ordinal>`` and a sent_id is
    ``<para_id>:<ordinal>``. Lookups of ids the corpus does not produce raise
    KeyError with the id. The cache is filled under a lock, so concurrent
    readers (``--workers``) see each document segmented exactly once.

    ``order_key`` is a global document-order key (doc position, paragraph
    ordinal, sentence ordinal) used for deterministic tie-breaking downstream.
    """

    def __init__(
        self,
        documents: list[Document],
        max_paragraph_tokens: int = DEFAULT_MAX_PARAGRAPH_TOKENS,
    ):
        self.documents = list(documents)
        self._max_paragraph_tokens = max_paragraph_tokens
        self._doc_pos = {doc.doc_id: i for i, doc in enumerate(self.documents)}
        self._doc_by_id = {doc.doc_id: doc for doc in self.documents}
        self._paras_by_doc: dict[str, list[Paragraph]] = {}
        self._sents_by_doc: dict[str, list[list[Sentence]]] = {}
        self._all_paragraphs: list[Paragraph] | None = None
        self._lock = threading.RLock()

    def _cached(self, cache: dict, doc_id: str, compute):
        value = cache.get(doc_id)
        if value is None:
            with self._lock:
                value = cache.get(doc_id)
                if value is None:
                    value = cache[doc_id] = compute(doc_id)
        return value

    def _doc_paragraphs(self, doc_id: str) -> list[Paragraph]:
        return self._cached(
            self._paras_by_doc,
            doc_id,
            lambda d: segment_paragraphs(self._doc_by_id[d], self._max_paragraph_tokens),
        )

    def _doc_sentences(self, doc_id: str) -> list[list[Sentence]]:
        return self._cached(
            self._sents_by_doc,
            doc_id,
            lambda d: [split_sentences(para) for para in self._doc_paragraphs(d)],
        )

    def _locate(self, para_id: str) -> tuple[str, int]:
        """(doc_id, paragraph ordinal) of a para_id the corpus produces, else KeyError."""
        doc_id, i = _split_id(para_id, "#")
        if doc_id in self._doc_by_id:
            paras = self._doc_paragraphs(doc_id)
            if 0 <= i < len(paras) and paras[i].para_id == para_id:
                return doc_id, i
        raise KeyError(para_id)

    @property
    def paragraphs(self) -> list[Paragraph]:
        """Every paragraph in document order (segments the whole corpus once)."""
        if self._all_paragraphs is None:
            with self._lock:
                if self._all_paragraphs is None:
                    self._all_paragraphs = [
                        para for doc in self.documents for para in self._doc_paragraphs(doc.doc_id)
                    ]
        return self._all_paragraphs

    def document(self, doc_id: str) -> Document:
        return self._doc_by_id[doc_id]

    def paragraph(self, para_id: str) -> Paragraph:
        doc_id, i = self._locate(para_id)
        return self._doc_paragraphs(doc_id)[i]

    def sentences(self, para_id: str) -> list[Sentence]:
        doc_id, i = self._locate(para_id)
        return self._doc_sentences(doc_id)[i]

    def sentence(self, sent_id: str) -> Sentence:
        para_id, i = _split_id(sent_id, ":")
        sents = self.sentences(para_id)
        if 0 <= i < len(sents) and sents[i].sent_id == sent_id:
            return sents[i]
        raise KeyError(sent_id)

    def order_key(self, sent_id: str) -> tuple[int, int, int]:
        sent = self.sentence(sent_id)
        doc_id, para_ordinal = _split_id(sent.para_id, "#")
        return (self._doc_pos[doc_id], para_ordinal, sent.ordinal)


def _split_id(id_: str, sep: str) -> tuple[str, int]:
    """Split ``<parent><sep><ordinal>``; the ordinal is -1 unless it is plain decimal."""
    parent, _, ordinal = id_.rpartition(sep)
    return parent, int(ordinal) if ordinal.isascii() and ordinal.isdigit() else -1
