"""Corpus loading and segmentation into paragraphs and sentences.

Documents are split into paragraphs (the indexing unit) on blank lines and
section-header lines, with an upper bound on paragraph length; paragraphs
are split into sentences (the answer / provenance unit) by a rule-based
splitter with an abbreviation exception list.

Spans are byte offsets into the parent text's UTF-8 encoding, and are
tight: slicing the encoded parent at the span reproduces the chunk text
exactly (so trimming the slice is a no-op).

A corpus is read from disk once, as bytes (``read_corpus``). An index
records a manifest of those bytes; the query path checks the bytes against
it and then parses only the documents it looks up.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import CorruptIndexError, DuplicateIdError, FormatError, IoError, PreconditionError

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


@dataclass(frozen=True)
class CorpusManifest:
    """What an index records of the corpus it was built from.

    sha256 is the digest of the corpus bytes (``CorpusFile.sha256``) and
    segmentation the digest of the segmentation rules
    (``segmentation_digest``). doc_ids, note_types and locators hold one
    entry per document, in document order. A JSONL document's locator is the
    byte offset of its line (the line ends at the next ``\\n``); a text-dir
    document's locator is its file name.
    """

    sha256: str
    segmentation: str
    doc_ids: Sequence[str]
    note_types: Sequence[str]
    locators: Sequence[int | str]

    def __post_init__(self):
        if not len(self.doc_ids) == len(self.note_types) == len(self.locators):
            raise PreconditionError(
                f"corpus manifest columns disagree: {len(self.doc_ids)} doc_ids, "
                f"{len(self.note_types)} note types, {len(self.locators)} locators"
            )
        if len(set(self.doc_ids)) != len(self.doc_ids):
            raise PreconditionError("corpus manifest repeats a doc_id")


def _abbreviations_bytes() -> bytes:
    return resources.files("qasum.assets").joinpath("abbreviations.txt").read_bytes()


@lru_cache(maxsize=1)
def load_abbreviations() -> frozenset[str]:
    """Lowercased abbreviation tokens bundled with the package."""
    raw = _abbreviations_bytes().decode("utf-8")
    return frozenset(
        line.strip().lower()
        for line in raw.splitlines()
        if line.strip() and not line.startswith("#")
    )


def segmentation_digest() -> str:
    """SHA-256 of the segmentation rules: the bundled abbreviation list and the paragraph token cap."""
    digest = hashlib.sha256(_abbreviations_bytes())
    digest.update(b"\0max_paragraph_tokens=%d" % DEFAULT_MAX_PARAGRAPH_TOKENS)
    return digest.hexdigest()


def paragraph_id(doc_id: str, ordinal: int) -> str:
    """The id of paragraph ``ordinal`` of document ``doc_id``."""
    return f"{doc_id}#{ordinal}"


def read_corpus(path: str | Path, format: str = "jsonl") -> CorpusFile:
    """Read a corpus's bytes once: a JSONL file, or the ``*.txt`` files of a directory.

    ``load()`` on the result gives the documents in file order (sorted
    filename order for text-dir). Raises IoError for unreadable paths and
    FormatError for an unknown format; ``load`` raises FormatError for
    malformed records (with the offending line number) and
    DuplicateIdError for repeated doc_ids.
    """
    path = Path(path)
    if format == "jsonl":
        return _JsonlCorpus(path)
    if format == "text-dir":
        return _TextDirCorpus(path)
    raise FormatError(f"unknown corpus format {format!r} (expected 'jsonl' or 'text-dir')")


class CorpusFile:
    """A corpus as the bytes read from disk once, and their SHA-256.

    ``load`` parses and validates every document (the index path).
    ``pinned`` checks the bytes against an index's manifest and then parses
    each document the first time it is looked up, from these same bytes (the
    query path): the bytes that were hashed are the bytes that are parsed.
    """

    path: Path
    sha256: str

    def load(self) -> tuple[list[Document], CorpusManifest]:
        """Every document in corpus order, and the manifest an index built from them records."""
        entries = self._entries()
        docs = [doc for doc, _ in entries]
        manifest = CorpusManifest(
            sha256=self.sha256,
            segmentation=segmentation_digest(),
            doc_ids=[doc.doc_id for doc in docs],
            note_types=[doc.note_type for doc in docs],
            locators=[locator for _, locator in entries],
        )
        return docs, manifest

    def pinned(self, manifest: CorpusManifest) -> Mapping[str, Document]:
        """The manifest's documents, in its order, each parsed on first lookup.

        Raises CorruptIndexError, with a rebuild hint, when these bytes or the
        segmentation rules differ from those the manifest records, or when
        its locators do not fit these bytes.
        """
        if manifest.sha256 != self.sha256:
            raise CorruptIndexError(
                f"corpus {self.path} is not the corpus the index was built from (SHA-256 "
                f"{self.sha256[:12]}, the index has {manifest.sha256[:12]}); rebuild it with `qasum index`"
            )
        if manifest.segmentation != segmentation_digest():
            raise CorruptIndexError(
                "the index was built with other segmentation rules (abbreviation list or paragraph "
                "token cap); rebuild it with `qasum index`"
            )
        return _PinnedDocuments(self, manifest)

    def _entries(self) -> list[tuple[Document, int | str]]:
        """(document, locator) of every document, in corpus order, parsed and validated."""
        raise NotImplementedError

    def _check_locators(self, locators: Sequence[int | str]) -> None:
        """Raise CorruptIndexError unless every locator can name a document of these bytes."""
        raise NotImplementedError

    def _document_at(self, locator: int | str) -> Document:
        """The document a checked locator names; FormatError if it names none."""
        raise NotImplementedError


class _PinnedDocuments(Mapping):
    """doc_id -> Document over a verified manifest; a document is parsed on every lookup.

    SegmentedCorpus caches what it derives from a document, so each is
    looked up once.
    """

    def __init__(self, source: CorpusFile, manifest: CorpusManifest):
        source._check_locators(manifest.locators)
        self._source = source
        self._locators = dict(zip(manifest.doc_ids, manifest.locators))

    def __getitem__(self, doc_id: str) -> Document:
        locator = self._locators[doc_id]
        try:
            doc = self._source._document_at(locator)
        except FormatError:
            doc = None
        if doc is None or doc.doc_id != doc_id:
            raise CorruptIndexError(
                f"the index locates document {doc_id!r} at {locator!r} in corpus {self._source.path}, "
                "which holds no such record there; rebuild it with `qasum index`"
            )
        return doc

    def __contains__(self, doc_id: object) -> bool:
        return doc_id in self._locators

    def __iter__(self) -> Iterator[str]:
        return iter(self._locators)

    def __len__(self) -> int:
        return len(self._locators)


class _JsonlCorpus(CorpusFile):
    def __init__(self, path: Path):
        self.path = path
        try:
            self._data = path.read_bytes()
        except OSError as exc:
            raise IoError(f"cannot read corpus file {path}: {exc}") from exc
        self.sha256 = hashlib.sha256(self._data).hexdigest()

    def _entries(self) -> list[tuple[Document, int]]:
        entries: list[tuple[Document, int]] = []
        seen: dict[str, int] = {}
        offset = 0
        for lineno, line in enumerate(self._data.split(b"\n"), start=1):
            start, offset = offset, offset + len(line) + 1
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{self.path}:{lineno}: not valid UTF-8: {exc}") from exc
            if not text.strip():
                continue
            doc = _record_document(text, f"{self.path}:{lineno}")
            if doc.doc_id in seen:
                raise DuplicateIdError(
                    f"{self.path}:{lineno}: duplicate doc_id {doc.doc_id!r} "
                    f"(first seen at line {seen[doc.doc_id]})"
                )
            seen[doc.doc_id] = lineno
            entries.append((doc, start))
        return entries

    def _check_locators(self, locators: Sequence[int | str]) -> None:
        if not set(map(type, locators)) <= {int}:
            problem = "are not all byte offsets"
        elif locators and not 0 <= min(locators) <= max(locators) < len(self._data):
            problem = "reach outside it"
        else:
            offsets = np.array(locators, dtype=np.int64)
            before = np.frombuffer(self._data, dtype=np.uint8)[offsets[offsets > 0] - 1]
            if (before == ord("\n")).all():
                return
            problem = "are not all line starts"
        raise CorruptIndexError(
            f"the index's locators into corpus {self.path} {problem}; rebuild it with `qasum index`"
        )

    def _document_at(self, locator: int) -> Document:
        end = self._data.find(b"\n", locator)
        line = self._data[locator : end if end >= 0 else len(self._data)]
        where = f"{self.path}@{locator}"
        try:
            return _record_document(line.decode("utf-8"), where)
        except UnicodeDecodeError as exc:
            raise FormatError(f"{where}: not valid UTF-8: {exc}") from exc


class _TextDirCorpus(CorpusFile):
    def __init__(self, path: Path):
        self.path = path
        if not path.is_dir():
            raise IoError(f"corpus directory {path} does not exist or is not a directory")
        self._files: dict[str, bytes] = {}
        digest = hashlib.sha256()
        for file in sorted(path.glob("*.txt")):
            try:
                data = file.read_bytes()
            except OSError as exc:
                raise IoError(f"cannot read {file}: {exc}") from exc
            self._files[file.name] = data
            digest.update(file.name.encode("utf-8"))
            digest.update(data)
        self.sha256 = digest.hexdigest()

    def _entries(self) -> list[tuple[Document, str]]:
        return [(self._document_at(name), name) for name in self._files]

    def _check_locators(self, locators: Sequence[int | str]) -> None:
        missing = [loc for loc in locators if not (isinstance(loc, str) and loc in self._files)]
        if missing:
            raise CorruptIndexError(
                f"the index locates a document at {missing[0]!r}, which is not a .txt file of corpus "
                f"directory {self.path}; rebuild it with `qasum index`"
            )

    def _document_at(self, locator: str) -> Document:
        try:
            text = self._files[locator].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.path / locator} is not valid UTF-8: {exc}") from exc
        # Universal newlines, as text-mode reading gives them.
        text = text.replace("\r\n", "\n").replace("\r", "\n")
        stem = Path(locator).stem
        note_type = "other"
        for prefix in ("admission", "progress", "discharge"):
            if stem.startswith(prefix + "_"):
                note_type = prefix
                break
        return Document(doc_id=stem, patient_id="", note_type=note_type, timestamp=None, text=text)


def _record_document(line: str, where: str) -> Document:
    """The document of one JSONL record; FormatError, naming where, if it is not a valid record."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{where}: invalid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise FormatError(f"{where}: record is not a JSON object")
    return _document_from_record(record, where)


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
                para_id=paragraph_id(doc.doc_id, ordinal),
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
    """Lazy paragraph and sentence view over a corpus's documents.

    documents is a list of documents or an ordered doc_id -> Document
    mapping (such as ``CorpusFile.pinned``, which parses a document when it
    is looked up). Construction only indexes the doc_ids. A document is
    looked up and segmented into paragraphs on the first lookup that touches
    it, and its sentences are split on the first sentence lookup; both are
    cached per document, so a query pays only for the documents its hits
    come from. Ids carry their document: a para_id is ``<doc_id>#<ordinal>``
    and a sent_id is ``<para_id>:<ordinal>``. Lookups of ids the corpus does
    not produce raise KeyError with the id. The cache is filled under a lock,
    so concurrent readers (``--workers``) see each document looked up and
    segmented exactly once.

    ``order_key`` is a global document-order key (doc position, paragraph
    ordinal, sentence ordinal) used for deterministic tie-breaking downstream.
    """

    def __init__(
        self,
        documents: Iterable[Document] | Mapping[str, Document],
        max_paragraph_tokens: int = DEFAULT_MAX_PARAGRAPH_TOKENS,
    ):
        if not isinstance(documents, Mapping):
            documents = {doc.doc_id: doc for doc in documents}
        self._documents = documents
        self._max_paragraph_tokens = max_paragraph_tokens
        self._doc_pos = {doc_id: i for i, doc_id in enumerate(documents)}
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
            lambda d: segment_paragraphs(self._documents[d], self._max_paragraph_tokens),
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
        if doc_id in self._doc_pos:
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
                        para for doc_id in self._doc_pos for para in self._doc_paragraphs(doc_id)
                    ]
        return self._all_paragraphs

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
