"""Corpus loading and segmentation into paragraphs and sentences.

Documents are split into paragraphs (the indexing unit) on blank lines and
section-header lines, with an upper bound on paragraph length; paragraphs
are split into sentences (the answer / provenance unit) by a rule-based
splitter with an abbreviation exception list.

Spans are byte offsets into the parent text's UTF-8 encoding, and are
tight: slicing the encoded parent at the span reproduces the chunk text
exactly (so trimming the slice is a no-op).

``read_corpus`` opens a corpus. ``qasum index`` streams it a document at
a time and records a manifest of its bytes. The query path pins it: it
reads the bytes once and checks them against the manifest, and the
``PinnedCorpus`` it gets looks documents up by their position in the
manifest, parsing and segmenting only the documents it is asked for.
"""

from __future__ import annotations

import hashlib
import json
import re
import string
import threading
from bisect import bisect_right
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import accumulate, chain
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import CorruptIndexError, DuplicateIdError, FormatError, IoError, PreconditionError

NOTE_TYPES = frozenset({"admission", "progress", "discharge", "radiology", "lab", "other"})

MAX_PARAGRAPH_TOKENS = 256  # segmentation_digest pins it, so an index records it

_HEADER = r"[A-Z][A-Za-z /]{1,40}:"  # a whole line, ended by \r, \n or the end of the text
_BREAKS = r"\n\r\v\f\x1c-\x1e\x85"  # the line breaks of str.splitlines below U+0100, with \r\n as one
# One paragraph piece: a run of non-blank lines that starts at a line start and
# stops before a blank line or a header line. Group 1 is the piece trimmed of
# surrounding whitespace; a line's trailing whitespace, break and next line's
# leading whitespace are taken only together with that next line.
_PIECE_RE = re.compile(
    rf"""
    (?:\A|(?<=[{_BREAKS}]))
    [^\S{_BREAKS}]*
    (
        \S(?:[^{_BREAKS}]*\S)?
        (?:
            [^\S{_BREAKS}]*(?:\r\n|[{_BREAKS}])
            (?!{_HEADER}(?:[\r\n]|\Z))
            [^\S{_BREAKS}]*\S(?:[^{_BREAKS}]*\S)?
        )*
    )
    """,
    re.VERBOSE,
)
_PUNCT_RE = re.compile(r"[.!?;]")
_WORD_RE = re.compile(r"\S+")
_TOKEN_CHARS = frozenset(string.ascii_letters + ".")


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
    (``segmentation_digest``). type_names are the distinct note types,
    sorted. doc_ids, type_codes and locators hold one entry per document, in
    document order: a document's note type is ``type_names[type_codes[i]]``.
    A JSONL document's locator is the byte offset of its line (the line ends
    at the next ``\\n``), and its locators an integer column (``load`` gives
    the index file's unsigned column as it is); a text-dir document's
    locator is its file name.
    """

    sha256: str
    segmentation: str
    doc_ids: Sequence[str]
    type_names: Sequence[str]
    type_codes: np.ndarray
    locators: Sequence[int | str] | np.ndarray

    def __post_init__(self):
        if not len(self.doc_ids) == len(self.type_codes) == len(self.locators):
            raise PreconditionError(
                f"corpus manifest columns disagree: {len(self.doc_ids)} doc_ids, "
                f"{len(self.type_codes)} note types, {len(self.locators)} locators"
            )
        if len(set(self.doc_ids)) != len(self.doc_ids):
            raise PreconditionError("corpus manifest repeats a doc_id")
        if list(self.type_names) != sorted(set(self.type_names)) or np.any(self.type_codes >= len(self.type_names)):
            raise PreconditionError("corpus manifest note types must be sorted distinct names, each code one of them")


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
    digest.update(b"\0max_paragraph_tokens=%d" % MAX_PARAGRAPH_TOKENS)
    return digest.hexdigest()


def paragraph_id(doc_id: str, ordinal: int) -> str:
    """The id of paragraph ``ordinal`` of document ``doc_id``."""
    return f"{doc_id}#{ordinal}"


def read_corpus(path: str | Path, format: str = "jsonl") -> CorpusFile:
    """A corpus: a JSONL file, or the ``*.txt`` files of a directory, each byte read once per use.

    ``entries()`` on the result streams the documents in file order (sorted
    filename order for text-dir). Raises IoError for unreadable paths and
    FormatError for an unknown format; the stream raises FormatError for a
    malformed record (with the offending line number) and DuplicateIdError
    for a repeated doc_id (with both line numbers).
    """
    path = Path(path)
    if format == "jsonl":
        return _JsonlCorpus(path)
    if format == "text-dir":
        return _TextDirCorpus(path)
    raise FormatError(f"unknown corpus format {format!r} (expected 'jsonl' or 'text-dir')")


class CorpusFile:
    """A corpus on disk and the SHA-256 of its bytes.

    ``entries`` parses and validates one document at a time (the index
    path); a JSONL file is read, hashed and parsed a line at a time.
    ``pinned`` reads the bytes whole, checks them against an index's
    manifest and then parses each document the first time it is looked up,
    from these same bytes (the query path). Either way the bytes that were
    hashed are the bytes that are parsed, and ``sha256`` is their digest.
    """

    path: Path
    sha256: str

    def entries(self) -> Iterator[tuple[Document, int | str]]:
        """(document, locator) of every document in corpus order, each parsed and checked as it is drawn.

        A malformed record raises FormatError, and a repeated doc_id
        DuplicateIdError, when the stream reaches it: after the documents
        before it have been drawn.
        """
        raise NotImplementedError

    def manifest(
        self, doc_ids: Sequence[str], note_types: Sequence[str], locators: Sequence[int | str]
    ) -> CorpusManifest:
        """The manifest an index of these documents records: the columns, pinned to these bytes and today's rules."""
        names = sorted(set(note_types))
        codes = np.searchsorted(names, note_types)
        return CorpusManifest(self.sha256, segmentation_digest(), doc_ids, names, codes, locators)

    def pinned(self, manifest: CorpusManifest) -> PinnedCorpus:
        """The manifest's documents by position, each parsed and segmented on first lookup from the bytes read now.

        Raises CorruptIndexError, with a rebuild hint, when these bytes or the
        segmentation rules differ from those the manifest records, or when
        its locators do not fit these bytes.
        """
        sha256, data = self._read_whole()
        if manifest.sha256 != sha256:
            raise CorruptIndexError(
                f"corpus {self.path} is not the corpus the index was built from (SHA-256 "
                f"{sha256[:12]}, the index has {manifest.sha256[:12]}); rebuild it with `qasum index`"
            )
        if manifest.segmentation != segmentation_digest():
            raise CorruptIndexError(
                "the index was built with other segmentation rules (abbreviation list or paragraph "
                "token cap); rebuild it with `qasum index`"
            )
        self._check_locators(data, manifest.locators)
        return PinnedCorpus(self, data, manifest)

    def _read_whole(self) -> tuple[str, object]:
        """The SHA-256 of the corpus bytes, and those bytes in the form _document_at reads."""
        raise NotImplementedError

    def _check_locators(self, data, locators: Sequence[int | str] | np.ndarray) -> None:
        """Raise CorruptIndexError unless every locator can name a document of data."""
        raise NotImplementedError

    def _document_at(self, data, locator: int | str) -> Document:
        """The document a checked locator names in data; FormatError if it names none."""
        raise NotImplementedError


class PinnedCorpus:
    """The documents of an index's manifest, looked up by position in it, over corpus bytes checked against it.

    A document is parsed from those bytes, segmented into paragraphs and
    split into sentences on its first lookup, and cached, so a query pays
    only for the documents its hits come from. The cache is filled under a
    lock, so concurrent readers (``--workers``) see each document segmented
    exactly once.

    A lookup raises FormatError, naming the locator, when the record there
    is not a valid document, and CorruptIndexError, with a rebuild hint,
    when it is another document or has no paragraph of that ordinal.
    """

    def __init__(self, source: CorpusFile, data, manifest: CorpusManifest):
        self._source = source
        self._data = data
        self._manifest = manifest
        self._segmented: dict[int, tuple[list[Paragraph], list[list[Sentence]]]] = {}
        self._lock = threading.Lock()

    def paragraph(self, doc: int, ordinal: int) -> Paragraph:
        """Paragraph ordinal of the document at position doc of the manifest."""
        return self._located(doc, ordinal)[0][ordinal]

    def sentences(self, doc: int, ordinal: int) -> list[Sentence]:
        """The sentences of paragraph ordinal of the document at position doc."""
        return self._located(doc, ordinal)[1][ordinal]

    def _located(self, doc: int, ordinal: int) -> tuple[list[Paragraph], list[list[Sentence]]]:
        segmented = self._segmented.get(doc)
        if segmented is None:
            with self._lock:
                segmented = self._segmented.get(doc)
                if segmented is None:
                    segmented = self._segmented[doc] = self._segment(doc)
        if not 0 <= ordinal < len(segmented[0]):
            raise CorruptIndexError(
                f"index entry {paragraph_id(self._manifest.doc_ids[doc], ordinal)!r} is not a paragraph of the "
                "corpus; the index is stale, rebuild it with `qasum index`"
            )
        return segmented

    def _segment(self, doc: int) -> tuple[list[Paragraph], list[list[Sentence]]]:
        doc_id, locator = self._manifest.doc_ids[doc], self._manifest.locators[doc]
        if isinstance(locator, np.integer):
            locator = int(locator)  # a byte offset, named as a plain number
        document = self._source._document_at(self._data, locator)
        if document.doc_id != doc_id:
            raise CorruptIndexError(
                f"the index locates document {doc_id!r} at {locator!r} in corpus {self._source.path}, "
                "which holds no such record there; rebuild it with `qasum index`"
            )
        paragraphs = segment_paragraphs(document)
        return paragraphs, [split_sentences(para) for para in paragraphs]


class _JsonlCorpus(CorpusFile):
    """A JSONL corpus: ``entries`` reads, hashes and parses it a line at a time; ``pinned`` reads it whole.

    ``sha256`` is the digest of the bytes of the last finished read: an
    ``entries`` stream drawn to its end, or ``pinned``. Before one, and
    while a stream is being drawn, it is a PreconditionError.
    """

    def __init__(self, path: Path):
        self.path = path
        self._sha256: str | None = None
        try:
            open(path, "rb").close()  # an unreadable path fails here, before any command work
        except OSError as exc:
            raise self._read_error(exc) from exc

    def _read_error(self, exc: OSError) -> IoError:
        return IoError(f"cannot read corpus file {self.path}: {exc}")

    @property
    def sha256(self) -> str:
        if self._sha256 is None:
            raise PreconditionError(
                f"the SHA-256 of corpus {self.path} is known once entries() has been drawn to its end "
                "or pinned() has read it"
            )
        return self._sha256

    def entries(self) -> Iterator[tuple[Document, int]]:
        self._sha256 = None
        seen: dict[str, int] = {}
        digest = hashlib.sha256()
        try:
            with open(self.path, "rb") as file:
                for lineno, (start, line) in enumerate(_lines(file, digest.update), start=1):
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
                    yield doc, start
        except OSError as exc:
            raise self._read_error(exc) from exc
        self._sha256 = digest.hexdigest()

    def _read_whole(self) -> tuple[str, bytes]:
        try:
            data = self.path.read_bytes()
        except OSError as exc:
            raise self._read_error(exc) from exc
        self._sha256 = hashlib.sha256(data).hexdigest()
        return self._sha256, data

    def _check_locators(self, data: bytes, locators: Sequence[int | str] | np.ndarray) -> None:
        offsets = np.asarray(locators)
        if not len(offsets):
            return
        if offsets.dtype.kind not in "ui":
            problem = "are not all byte offsets"
        elif not 0 <= offsets.min() <= offsets.max() < len(data):
            problem = "reach outside it"
        elif (np.frombuffer(data, dtype=np.uint8)[offsets[offsets > 0] - 1] == ord("\n")).all():
            return
        else:
            problem = "are not all line starts"
        raise CorruptIndexError(
            f"the index's locators into corpus {self.path} {problem}; rebuild it with `qasum index`"
        )

    def _document_at(self, data: bytes, locator: int) -> Document:
        end = data.find(b"\n", locator)
        line = data[locator : end if end >= 0 else len(data)]
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

    def entries(self) -> Iterator[tuple[Document, str]]:
        for name in self._files:
            yield self._document_at(self._files, name), name

    def _read_whole(self) -> tuple[str, dict[str, bytes]]:
        return self.sha256, self._files

    def _check_locators(self, files: dict[str, bytes], locators: Sequence[int | str] | np.ndarray) -> None:
        if isinstance(locators, np.ndarray):  # a JSONL index's byte offsets, named as plain numbers
            locators = locators.tolist()
        missing = [loc for loc in locators if not (isinstance(loc, str) and loc in files)]
        if missing:
            raise CorruptIndexError(
                f"the index locates a document at {missing[0]!r}, which is not a .txt file of corpus "
                f"directory {self.path}; rebuild it with `qasum index`"
            )

    def _document_at(self, files: dict[str, bytes], locator: str) -> Document:
        try:
            text = files[locator].decode("utf-8")
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


def _lines(file: BinaryIO, update: Callable[[bytes], object]) -> Iterator[tuple[int, bytes]]:
    """(byte offset, line) of each line of ``file.read().split(b"\\n")``, read one at a time.

    Every byte read is passed to update (a hash's ``update``) first, in
    file order, so once the stream ends update has seen the whole file.
    """
    start = 0
    raw = b""
    for raw in file:
        update(raw)
        yield start, raw.removesuffix(b"\n")
        start += len(raw)
    if not raw or raw.endswith(b"\n"):
        yield start, b""


def _record_document(line: str, where: str) -> Document:
    """The document of one JSONL record; FormatError, naming where, if it is not a valid record."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{where}: invalid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise FormatError(f"{where}: record is not a JSON object")
    doc = _document_from_record(record, where)
    if "\\u" in line:  # valid UTF-8 can spell a lone surrogate only as a \u escape
        for key in ("doc_id", "patient_id", "timestamp", "text"):
            try:
                (getattr(doc, key) or "").encode("utf-8")
            except UnicodeEncodeError as exc:
                raise FormatError(f"{where}: field {key!r} is not valid Unicode: {exc}") from exc
    return doc


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


def _byte_offsets(text: str, positions: Iterable[int]) -> Mapping[int, int] | Sequence[int]:
    """Map each of the given codepoint indexes of text to its byte offset in the UTF-8 encoding of text."""
    if text.isascii():
        return range(len(text) + 1)
    offsets = {}
    pos = byte = 0
    for end in sorted(set(positions)):
        byte += len(text[pos:end].encode("utf-8"))
        offsets[end] = byte
        pos = end
    return offsets


def _trim_span(text: str, start: int, end: int) -> tuple[int, int]:
    while start < end and text[start].isspace():
        start += 1
    while end > start and text[end - 1].isspace():
        end -= 1
    return start, end


def _is_sentence_boundary(text: str, match: re.Match, abbreviations: frozenset[str]) -> bool:
    i = match.end()
    if i < len(text):
        j = i
        while j < len(text) and text[j].isspace():
            j += 1
        if j == i or j == len(text) or not text[j].isupper():
            return False
    if match.group() == "." and _token_before(text, match.start()).lower() in abbreviations:
        return False
    return True


def _token_before(text: str, end: int) -> str:
    """The ASCII letters-and-dots token that ends at end, or "" when there is none.

    The token starts with a letter (leading dots are not part of it), and a
    newline just before end is skipped first: a token ends at a line end.
    """
    if end and text[end - 1] == "\n":
        end -= 1
    start = end
    while start and text[start - 1] in _TOKEN_CHARS:
        start -= 1
    return text[start:end].lstrip(".")


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


def paragraph_pieces(joined: str, starts: Sequence[int]) -> Iterator[tuple[int, int, int, int]]:
    """(text index, ordinal, start, end) of each paragraph of texts joined with a blank line, in order.

    joined is ``"\\n\\n".join(texts)`` and starts[i] the position of text i
    in it, followed by one more entry, ``len(joined) + 2``; start and end
    are positions in joined, so ``joined[start:end]`` is the paragraph.

    Rules: lines end at the line breaks of ``str.splitlines``; blank-line
    runs separate paragraphs; a section-header line (e.g. "DISCHARGE
    MEDICATIONS:", ended by ``\\r``, ``\\n`` or the end of the text) starts a
    new paragraph that includes the header; paragraphs longer than
    MAX_PARAGRAPH_TOKENS are split at sentence boundaries (single over-long
    sentences at word boundaries). Paragraphs are trimmed of surrounding
    whitespace, and whitespace-only ones are dropped.

    The blank line between texts always ends a paragraph, so all texts are
    segmented in one pass. A piece of at most twice the cap in characters
    has at most the cap in tokens, so only longer ones are counted.
    """
    # U+2028 and U+2029 break lines as \x1c does. Scanning them as \x1c keeps
    # _PIECE_RE's classes below U+0100, which sre compiles without the 64 KiB
    # table that costs every command about 0.25 MB of peak RSS.
    scanned = joined.replace("\u2028", "\x1c").replace("\u2029", "\x1c")
    cap = MAX_PARAGRAPH_TOKENS
    row = -1
    for match in _PIECE_RE.finditer(scanned):
        start, end = match.span(1)
        if start >= starts[row + 1]:  # the first piece of a later text
            row = bisect_right(starts, start) - 1
            ordinal = 0
        if end - start <= 2 * cap:
            yield row, ordinal, start, end
            ordinal += 1
            continue
        for piece in _enforce_token_cap(joined, (start, end), cap):
            yield row, ordinal, *_trim_span(joined, *piece)
            ordinal += 1


def paragraph_columns(texts: Sequence[str]) -> tuple[list[int], list[int], list[str]]:
    """The paragraphs of every text, in order, as columns: text index, ordinal, paragraph text."""
    joined = "\n\n".join(texts)
    starts = list(accumulate((len(text) + 2 for text in texts), initial=0))
    rows: list[int] = []
    ordinals: list[int] = []
    paragraphs: list[str] = []
    for row, ordinal, start, end in paragraph_pieces(joined, starts):
        rows.append(row)
        ordinals.append(ordinal)
        paragraphs.append(joined[start:end])
    return rows, ordinals, paragraphs


def segment_paragraphs(doc: Document) -> list[Paragraph]:
    """Split a document into paragraphs by the rules of ``paragraph_pieces``."""
    text = doc.text
    spans = [(start, end) for _, _, start, end in paragraph_pieces(text, (0, len(text) + 2))]
    byte_of = _byte_offsets(text, chain.from_iterable(spans))
    return [
        Paragraph(
            para_id=paragraph_id(doc.doc_id, ordinal),
            doc_id=doc.doc_id,
            ordinal=ordinal,
            char_span=(byte_of[start], byte_of[end]),
            text=text[start:end],
        )
        for ordinal, (start, end) in enumerate(spans)
    ]


def split_sentences(para: Paragraph) -> list[Sentence]:
    """Split a paragraph into sentences.

    Boundaries are '.', '!', '?', ';' followed by whitespace and an
    uppercase letter, or end of text; a period directly after a token in
    the bundled abbreviation list does not split. Newlines alone never
    split.
    """
    text = para.text
    spans = _sentence_spans(text)
    byte_of = _byte_offsets(text, chain.from_iterable(spans))
    sentences = []
    for start, end in spans:
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
