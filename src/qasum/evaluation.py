"""Summary scoring against references: ROUGE, BLEU, compression, embedding match.

Tokenization is lowercase split on non-alphanumerics (shared with the
embedder), stated here because every n-gram metric depends on it. BLEU
uses modified n-gram precision for n=1..4 with clipping; any n whose
clipped count is zero gets add-one smoothing, p_n = (clipped+1)/(total+1)
(so a candidate shorter than n tokens contributes p_n = 1); the score is
the geometric mean times a brevity penalty exp(1 - |ref|/|cand|) when the
candidate is shorter than the reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .embedding import Embedder, cosine, tokenize, unit_rows
from .errors import EmptyTextError, FormatError, IoError, ZeroSourceError


@dataclass(frozen=True)
class RougeScore:
    recall: float
    precision: float
    f1: float


@dataclass(frozen=True)
class MetricReport:
    rouge1: RougeScore
    rouge2: RougeScore
    rougeL: RougeScore
    bleu: float
    compression_ratio: float
    embedding_similarity: float
    token_counts: dict


def _ngram_counts(tokens: list[str], n: int) -> dict[tuple[str, ...], int]:
    counts: dict[tuple[str, ...], int] = {}
    for i in range(len(tokens) - n + 1):
        gram = tuple(tokens[i : i + n])
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def _f1(recall: float, precision: float) -> float:
    if recall + precision == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def rouge_n(candidate: str, reference: str, n: int) -> RougeScore:
    """Clipped n-gram overlap; recall over reference, precision over candidate."""
    cand = _ngram_counts(tokenize(candidate), n)
    ref = _ngram_counts(tokenize(reference), n)
    overlap = sum(min(count, ref.get(gram, 0)) for gram, count in cand.items())
    total_cand = sum(cand.values())
    total_ref = sum(ref.values())
    recall = overlap / total_ref if total_ref else 0.0
    precision = overlap / total_cand if total_cand else 0.0
    return RougeScore(recall, precision, _f1(recall, precision))


def _lcs_length(a: list[str], b: list[str]) -> int:
    """Longest common subsequence length by the bit-vector recurrence.

    Allison & Dix (1986), Hyyrö (2004): bit j of a token's mask is set
    where ``b[j]`` is that token, and after each token of ``a`` the set bits
    of ``row`` mark where the LCS of the prefix of ``a`` read so far grows
    along ``b``, so their count is the LCS length. Python ints are exact at
    any width, so this equals the dynamic programme for every input.
    """
    masks: dict[str, int] = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | (1 << j)
    row = 0
    for x in a:
        match = masks.get(x)
        if match:
            t = row | match
            row = t & ~(t - ((row << 1) | 1))
    return row.bit_count()


def rouge_l(candidate: str, reference: str) -> RougeScore:
    """Token-level longest common subsequence, scored like ROUGE."""
    cand = tokenize(candidate)
    ref = tokenize(reference)
    length = _lcs_length(cand, ref) if cand and ref else 0
    recall = length / len(ref) if ref else 0.0
    precision = length / len(cand) if cand else 0.0
    return RougeScore(recall, precision, _f1(recall, precision))


def bleu(candidate: str, reference: str) -> float:
    """BLEU-4 with add-one smoothing on zero counts and a brevity penalty."""
    cand = tokenize(candidate)
    ref = tokenize(reference)
    if not cand or not ref:
        return 0.0
    log_precision_sum = 0.0
    for n in range(1, 5):
        cand_counts = _ngram_counts(cand, n)
        ref_counts = _ngram_counts(ref, n)
        clipped = sum(min(count, ref_counts.get(gram, 0)) for gram, count in cand_counts.items())
        total = sum(cand_counts.values())
        if clipped == 0:
            precision = (clipped + 1) / (total + 1)
        else:
            precision = clipped / total
        log_precision_sum += math.log(precision) / 4.0
    brevity = 1.0 if len(cand) >= len(ref) else math.exp(1.0 - len(ref) / len(cand))
    return brevity * math.exp(log_precision_sum)


def compression_ratio(summary: str, source: str) -> float:
    """Summary tokens over source tokens; the source must have tokens."""
    source_tokens = len(tokenize(source))
    if source_tokens == 0:
        raise ZeroSourceError("source text has no tokens")
    return len(tokenize(summary)) / source_tokens


def embedding_similarity(candidate: str, reference: str, embedder: Embedder) -> float:
    """Whole-text embedding cosine with the configured embedder."""
    rows, kept = embedder.embed_many([candidate, reference])
    if not kept.all():
        raise EmptyTextError("embedding similarity requires texts the embedder can embed")
    vectors = unit_rows(rows)
    return cosine(vectors[0], vectors[1])


def evaluate(
    candidate_path: str | Path,
    reference_path: str | Path,
    source_path: str | Path,
    embedder: Embedder,
) -> MetricReport:
    """Score a candidate summary file against a reference, with the source for compression.

    A candidate or reference with no tokens yields zero metrics (embedding
    similarity included) rather than an error; an empty source is an error.
    """
    candidate = _read(candidate_path)
    reference = _read(reference_path)
    source = _read(source_path)

    cand_tokens = len(tokenize(candidate))
    ref_tokens = len(tokenize(reference))
    source_tokens = len(tokenize(source))
    if source_tokens == 0:
        raise ZeroSourceError(f"source {source_path} has no tokens")

    if cand_tokens and ref_tokens:
        similarity = embedding_similarity(candidate, reference, embedder)
    else:
        similarity = 0.0
    return MetricReport(
        rouge1=rouge_n(candidate, reference, 1),
        rouge2=rouge_n(candidate, reference, 2),
        rougeL=rouge_l(candidate, reference),
        bleu=bleu(candidate, reference),
        compression_ratio=compression_ratio(candidate, source),
        embedding_similarity=similarity,
        token_counts={"candidate": cand_tokens, "reference": ref_tokens, "source": source_tokens},
    )


def _read(path: str | Path) -> str:
    try:
        return Path(path).read_text("utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not valid UTF-8: {exc}") from exc


def report_to_dict(report: MetricReport) -> dict:
    return {
        "rouge1_r": report.rouge1.recall,
        "rouge1_p": report.rouge1.precision,
        "rouge1_f": report.rouge1.f1,
        "rouge2_r": report.rouge2.recall,
        "rouge2_p": report.rouge2.precision,
        "rouge2_f": report.rouge2.f1,
        "rougeL_r": report.rougeL.recall,
        "rougeL_p": report.rougeL.precision,
        "rougeL_f": report.rougeL.f1,
        "bleu": report.bleu,
        "compression_ratio": report.compression_ratio,
        "embedding_similarity": report.embedding_similarity,
        "token_counts": report.token_counts,
    }


def report_to_json(report: MetricReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def render_table(report: MetricReport) -> str:
    rows = report_to_dict(report)
    counts = rows.pop("token_counts")
    lines = [f"{name:<22} {value:.6f}" for name, value in rows.items()]
    lines.append(
        f"{'tokens':<22} candidate={counts['candidate']} "
        f"reference={counts['reference']} source={counts['source']}"
    )
    return "\n".join(lines) + "\n"
