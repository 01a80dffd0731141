"""ROUGE-1/2/L scoring, byte capping, the PREFIX baseline, extractive
percentage and output-length histograms.

Recall is the headline number (shared-task convention); precision and F1 are
carried along. Multiple references are handled by taking, for each field,
the maximum over per-reference scores. No stemming or stopword removal.

The 75-character PREFIX baseline's ROUGE-1 reported for large-corpus runs
is 22.43 on DUC-2004 and 23.14 on Gigaword, far beyond desk scale;
claims/run.py gates PREFIX >= short > natural at desk scale
(BENCH_claims.json).
"""

from collections import Counter
from dataclasses import dataclass

PREFIX_CHARS = 75
DUC_BYTE_CAP = 75
HISTOGRAM_BUCKET_CHARS = 5


@dataclass(frozen=True)
class RougeScore:
    recall: float
    precision: float
    f1: float

    @classmethod
    def from_counts(cls, overlap: float, ref_count: int, cand_count: int) -> "RougeScore":
        recall = overlap / ref_count if ref_count > 0 else 0.0
        precision = overlap / cand_count if cand_count > 0 else 0.0
        f1 = 0.0 if recall + precision == 0 else 2 * recall * precision / (recall + precision)
        return cls(recall, precision, f1)

    @classmethod
    def zero(cls) -> "RougeScore":
        return cls(0.0, 0.0, 0.0)


def _field_max(scores) -> RougeScore:
    return RougeScore(recall=max(s.recall for s in scores),
                      precision=max(s.precision for s in scores),
                      f1=max(s.f1 for s in scores))


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate, references, n: int) -> RougeScore:
    """Clipped n-gram overlap against one or more reference token lists."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not references:
        raise ValueError("at least one reference is required")
    cand_grams = _ngrams(candidate, n)
    cand_total = max(len(candidate) - n + 1, 0)
    scores = []
    for ref in references:
        ref_grams = _ngrams(ref, n)
        ref_total = max(len(ref) - n + 1, 0)
        if ref_total == 0:
            scores.append(RougeScore.zero())
            continue
        overlap = sum(min(count, ref_grams[g]) for g, count in cand_grams.items())
        scores.append(RougeScore.from_counts(overlap, ref_total, cand_total))
    return _field_max(scores)


def _lcs_length(a, b) -> int:
    prev = [0] * (len(b) + 1)
    for i in range(1, len(a) + 1):
        cur = [0] * (len(b) + 1)
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[len(b)]


def rouge_l(candidate, references) -> RougeScore:
    """Longest-common-subsequence recall/precision/F1 (field-max over references)."""
    if not references:
        raise ValueError("at least one reference is required")
    if not candidate:
        return RougeScore.zero()
    scores = []
    for ref in references:
        if not ref:
            scores.append(RougeScore.zero())
            continue
        lcs = _lcs_length(candidate, ref)
        scores.append(RougeScore.from_counts(lcs, len(ref), len(candidate)))
    return _field_max(scores)


def byte_cap(text: str, limit: int) -> str:
    """Longest whole-token prefix whose UTF-8 length (spaces included) fits."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    out = []
    used = 0
    for i, tok in enumerate(text.split()):
        cost = len(tok.encode("utf-8")) + (1 if i > 0 else 0)
        if used + cost > limit:
            break
        out.append(tok)
        used += cost
    return " ".join(out)


def prefix_baseline(text: str) -> str:
    """The first ``PREFIX_CHARS`` characters of the raw input sentence."""
    if not text:
        raise ValueError("prefix baseline needs a non-empty input")
    return text[:PREFIX_CHARS]


def extractive_pct(output_tokens, input_tokens):
    """Share of output tokens present in the input multiset (clipped), in %.

    Returns None for empty output (undefined).
    """
    if not output_tokens:
        return None
    out_counts = Counter(output_tokens)
    in_counts = Counter(input_tokens)
    matched = sum(min(count, in_counts[tok]) for tok, count in out_counts.items())
    return 100.0 * matched / len(output_tokens)


def length_histogram(outputs):
    """Character-length bucket counts, ``HISTOGRAM_BUCKET_CHARS`` wide: sorted
    list of (bucket_start, count)."""
    width = HISTOGRAM_BUCKET_CHARS
    counts = Counter((len(text) // width) * width for text in outputs)
    return sorted(counts.items())


def write_histogram(path, buckets) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("bucket_start,count\n")
        for start, count in buckets:
            f.write(f"{start},{count}\n")


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

@dataclass
class SystemScores:
    name: str
    rouge1: RougeScore
    rouge2: RougeScore
    rougel: RougeScore
    extractive: float | None
    n_examples: int


def _mean_scores(per_example) -> RougeScore:
    n = len(per_example)
    return RougeScore(recall=sum(s.recall for s in per_example) / n,
                      precision=sum(s.precision for s in per_example) / n,
                      f1=sum(s.f1 for s in per_example) / n)


def score_system(name: str, candidates, reference_lists, sources=None,
                 cap: int | None = DUC_BYTE_CAP) -> SystemScores:
    """Mean ROUGE-1/2/L of candidate lines against aligned references.

    ``candidates``: text lines; ``reference_lists``: per example, a list of
    reference lines; ``sources``: input lines for the extractive share.
    Candidates are byte-capped before scoring unless ``cap`` is None.
    """
    if len(candidates) != len(reference_lists):
        raise ValueError("candidates and references must align line by line")
    r1, r2, rl, ext = [], [], [], []
    for i, cand_line in enumerate(candidates):
        capped = byte_cap(cand_line, cap) if cap is not None else cand_line
        cand = capped.split()
        refs = [r.split() for r in reference_lists[i]]
        r1.append(rouge_n(cand, refs, 1))
        r2.append(rouge_n(cand, refs, 2))
        rl.append(rouge_l(cand, refs))
        if sources is not None:
            share = extractive_pct(cand, sources[i].split())
            if share is not None:
                ext.append(share)
    extractive = sum(ext) / len(ext) if ext else None
    return SystemScores(name=name, rouge1=_mean_scores(r1), rouge2=_mean_scores(r2),
                        rougel=_mean_scores(rl), extractive=extractive,
                        n_examples=len(candidates))


def render_report(systems) -> str:
    """Plain-text table: one row per system, each ROUGE recall (the headline)
    followed by its F1, scaled to 0..100."""
    lines = [f"{'system':<16} {'ROUGE-1':>8} {'R-1 F1':>8} {'ROUGE-2':>8} {'R-2 F1':>8} "
             f"{'ROUGE-L':>8} {'R-L F1':>8} {'Ext. %':>7}"]
    for s in systems:
        scores = " ".join(f"{100 * r.recall:8.2f} {100 * r.f1:8.2f}"
                          for r in (s.rouge1, s.rouge2, s.rougel))
        ext = f"{s.extractive:7.1f}" if s.extractive is not None else "      -"
        lines.append(f"{s.name:<16} {scores} {ext}")
    return "\n".join(lines) + "\n"


def report_csv(systems) -> str:
    header = ("system,rouge1_recall,rouge1_precision,rouge1_f1,"
              "rouge2_recall,rouge2_precision,rouge2_f1,"
              "rougel_recall,rougel_precision,rougel_f1,extractive_pct,n_examples")
    rows = [header]
    for s in systems:
        ext = "" if s.extractive is None else repr(s.extractive)
        rows.append(",".join([s.name] + [repr(x) for x in (
            s.rouge1.recall, s.rouge1.precision, s.rouge1.f1,
            s.rouge2.recall, s.rouge2.precision, s.rouge2.f1,
            s.rougel.recall, s.rougel.precision, s.rougel.f1)] + [ext, str(s.n_examples)]))
    return "\n".join(rows) + "\n"
