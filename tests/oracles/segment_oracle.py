"""Independent statement of the README segmentation rules: sentences, then paragraphs.

Written from the README without importing qasum, and without regular
expressions: each rule is a plain loop over the characters of a text.
Only the abbreviation list is shared, read from the bundled asset file.

Sentence rules:
- a sentence may end at '.', '!', '?' or ';' when the rest of the paragraph
  is whitespace only (end of text), or when whitespace and then an
  uppercase letter follow it;
- a '.' does not end a sentence when the word written just before it is a
  bundled abbreviation (case-insensitive). That word is the run of ASCII
  letters and dots that reaches the period, or reaches the newline just
  before the period, with any leading dots left out;
- each sentence is trimmed of surrounding whitespace, and sentences left
  empty are dropped;
- a span is the pair of UTF-8 byte offsets of the sentence in the paragraph.
"""

from pathlib import Path

ABBREVIATIONS_FILE = Path(__file__).resolve().parents[2] / "src" / "qasum" / "assets" / "abbreviations.txt"
SENTENCE_ENDS = ".!?;"
WORD_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ."


def abbreviations():
    words = set()
    for line in ABBREVIATIONS_FILE.read_text("utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            words.add(line.strip().lower())
    return words


def word_before(text, period):
    """The word written just before text[period], read left to right."""
    end = period - 1 if period > 0 and text[period - 1] == "\n" else period
    word_start = 0
    for i in range(end):
        if text[i] not in WORD_CHARS:
            word_start = i + 1
    word = text[word_start:end]
    while word.startswith("."):
        word = word[1:]
    return word


def ends_sentence(text, i, abbrevs):
    rest = text[i + 1 :]
    if rest.strip():
        if not rest[0].isspace() or not rest.lstrip()[0].isupper():
            return False
    return not (text[i] == "." and word_before(text, i).lower() in abbrevs)


def split_sentences(text):
    """[(sentence text, (start byte, end byte))] of one paragraph's text."""
    abbrevs = abbreviations()
    cuts = [i + 1 for i, ch in enumerate(text) if ch in SENTENCE_ENDS and ends_sentence(text, i, abbrevs)]
    sentences = []
    for start, end in zip([0] + cuts, cuts + [len(text)]):
        piece = text[start:end]
        sentence = piece.strip()
        if sentence:
            first = start + len(piece) - len(piece.lstrip())
            last = first + len(sentence)
            sentences.append((sentence, (len(text[:first].encode("utf-8")), len(text[:last].encode("utf-8")))))
    return sentences


# Paragraph rules, written from the README "Segmentation" paragraph:
# - a line ends at a line break of str.splitlines: "\r\n" (one break), "\n",
#   "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028" or "\u2029";
# - a line is blank when it holds only whitespace; runs of blank lines
#   separate paragraphs;
# - a header line is an ASCII capital letter, then 1 to 40 ASCII letters,
#   spaces or slashes, then a colon, and nothing else; it must end with
#   "\r\n", "\n", "\r" or the end of the text. A header line starts a new
#   paragraph, which includes it;
# - a paragraph of more than the cap in whitespace-separated tokens is cut
#   into its sentences (split_sentences), packed in order into groups of at
#   most the cap tokens; a sentence of more than the cap tokens closes the
#   open group and is cut into runs of the cap words (the last run may be
#   shorter), each its own paragraph;
# - each paragraph is trimmed of surrounding whitespace, and empty ones are
#   dropped; a span is the pair of UTF-8 byte offsets of the paragraph in
#   the document.

LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
HEADER_ENDS = ("\r\n", "\n", "\r", "")
ASCII_CAPITALS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
HEADER_CHARS = ASCII_CAPITALS + "abcdefghijklmnopqrstuvwxyz /"


def lines(text):
    """[(start, end, line break)] of each line: its codepoint span without the break, and the break ('' at the end)."""
    found = []
    start = i = 0
    while i < len(text):
        if text[i] in LINE_BREAKS:
            line_break = "\r\n" if text[i : i + 2] == "\r\n" else text[i]
            found.append((start, i, line_break))
            i += len(line_break)
            start = i
        else:
            i += 1
    if start < len(text):
        found.append((start, len(text), ""))
    return found


def is_header(line, line_break):
    if line_break not in HEADER_ENDS or not 3 <= len(line) <= 42:
        return False
    if line[0] not in ASCII_CAPITALS or line[-1] != ":":
        return False
    return all(ch in HEADER_CHARS for ch in line[1:-1])


def pieces(text):
    """[(start, end)] codepoint spans of the runs of non-blank lines, each cut before its header lines."""
    found = []
    current = None
    for start, end, line_break in lines(text):
        line = text[start:end]
        if not line.strip():
            if current:
                found.append(current)
            current = None
        elif current and is_header(line, line_break):
            found.append(current)
            current = (start, end)
        elif current:
            current = (current[0], end)
        else:
            current = (start, end)
    if current:
        found.append(current)
    return found


def words(text):
    """[(start, end)] codepoint spans of the whitespace-separated words of text."""
    found = []
    start = None
    for i, ch in enumerate(text + " "):
        if ch.isspace():
            if start is not None:
                found.append((start, i))
            start = None
        elif start is None:
            start = i
    return found


def cap_pieces(text, cap):
    """[(start, end)] codepoint spans in text of the paragraphs that text, one trimmed piece, gives under cap."""
    if len(text.split()) <= cap:
        return [(0, len(text))]
    encoded = text.encode("utf-8")
    sentences = []
    for _, (byte_start, byte_end) in split_sentences(text):
        start = len(encoded[:byte_start].decode("utf-8"))
        end = len(encoded[:byte_end].decode("utf-8"))
        sentences.append((start, end))
    found = []
    group = None  # [start, end, tokens]
    for start, end in sentences:
        tokens = len(text[start:end].split())
        if tokens > cap:
            if group:
                found.append((group[0], group[1]))
                group = None
            sentence_words = words(text[start:end])
            for i in range(0, len(sentence_words), cap):
                run = sentence_words[i : i + cap]
                found.append((start + run[0][0], start + run[-1][1]))
        elif group and group[2] + tokens <= cap:
            group = [group[0], end, group[2] + tokens]
        else:
            if group:
                found.append((group[0], group[1]))
            group = [start, end, tokens]
    if group:
        found.append((group[0], group[1]))
    return found


def trimmed(text, start, end):
    """The span of text[start:end] without its surrounding whitespace."""
    while start < end and text[start].isspace():
        start += 1
    while end > start and text[end - 1].isspace():
        end -= 1
    return start, end


def segment_paragraphs(text, cap=256):
    """[(paragraph text, (start byte, end byte))] of one document's text."""
    paragraphs = []
    for piece_start, piece_end in pieces(text):
        first, last = trimmed(text, piece_start, piece_end)
        for s, e in cap_pieces(text[first:last], cap):
            start, end = first + s, first + e
            paragraphs.append((text[start:end], (len(text[:start].encode("utf-8")), len(text[:end].encode("utf-8")))))
    return paragraphs
