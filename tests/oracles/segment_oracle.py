"""Independent statement of the README sentence-splitting rules.

Written from the README without importing qasum, and without regular
expressions: each rule is a plain loop over the characters of a paragraph.
Only the abbreviation list is shared, read from the bundled asset file.

Rules:
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
