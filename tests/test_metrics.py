"""ROUGE fixtures (hand-computed), byte capping, baseline and histograms."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenvae.metrics import (
    byte_cap, extractive_pct, length_histogram, prefix_baseline, render_report,
    report_csv, rouge_l, rouge_n, score_system, write_histogram,
)

# Hand-computed scores: (candidate, references, n, recall, precision, f1).
# Overlaps are clipped counts; multi-reference takes the field-wise maximum.
ROUGE_N_FIXTURES = [
    (["a", "b", "c"], [["a", "b", "c"]], 1, 1.0, 1.0, 1.0),
    (["a", "b", "c"], [["a", "b", "c"]], 2, 1.0, 1.0, 1.0),
    (["a", "b", "c"], [["a", "x", "c"]], 1, 2 / 3, 2 / 3, 2 / 3),
    (["a", "b", "c"], [["a", "x", "c"]], 2, 0.0, 0.0, 0.0),
    (["a", "b", "c", "d"], [["a", "c", "d"]], 1, 1.0, 3 / 4, 6 / 7),
    (["a", "b", "c", "d"], [["a", "c", "d"]], 2, 1 / 2, 1 / 3, 2 / 5),
    (["a", "b", "c"], [["c", "b", "a"]], 1, 1.0, 1.0, 1.0),
    (["x", "y"], [["a", "b"]], 1, 0.0, 0.0, 0.0),
    (["a", "a", "b"], [["a", "b", "b"]], 1, 2 / 3, 2 / 3, 2 / 3),
    (["a", "a", "b"], [["a", "b", "b"]], 2, 1 / 2, 1 / 2, 1 / 2),
    (["a", "b"], [["a", "x"], ["a", "b", "c"]], 1, 2 / 3, 1.0, 4 / 5),
    (["a", "b"], [["a", "x"], ["a", "b", "c"]], 2, 1 / 2, 1.0, 2 / 3),
    (["a", "b"], [["a"]], 2, 0.0, 0.0, 0.0),  # reference shorter than n
    (["a"], [["a", "b", "c", "d"]], 1, 1 / 4, 1.0, 2 / 5),
    (["the", "cat", "sat", "on", "mat"],
     [["the", "cat", "lay", "on", "the", "mat"]], 1, 2 / 3, 4 / 5, 8 / 11),
    (["the", "cat", "sat", "on", "mat"],
     [["the", "cat", "lay", "on", "the", "mat"]], 2, 1 / 5, 1 / 4, 2 / 9),
]

ROUGE_L_FIXTURES = [
    (["a", "b", "c"], [["a", "b", "c"]], 1.0, 1.0, 1.0),
    (["a", "b", "c", "d"], [["a", "c", "d"]], 1.0, 3 / 4, 6 / 7),
    (["a", "b", "c"], [["c", "b", "a"]], 1 / 3, 1 / 3, 1 / 3),
    (["a", "b", "c"], [["a", "x", "c"]], 2 / 3, 2 / 3, 2 / 3),
    (["x", "y"], [["a", "b"]], 0.0, 0.0, 0.0),
    (["a", "a", "b"], [["a", "b", "b"]], 2 / 3, 2 / 3, 2 / 3),
    (["a", "b"], [["a", "x"], ["a", "b", "c"]], 2 / 3, 1.0, 4 / 5),
    (["a"], [["a", "b", "c", "d"]], 1 / 4, 1.0, 2 / 5),
    (["the", "cat", "sat", "on", "mat"],
     [["the", "cat", "lay", "on", "the", "mat"]], 2 / 3, 4 / 5, 8 / 11),
    (["b", "a"], [["a", "b"]], 1 / 2, 1 / 2, 1 / 2),
]


@pytest.mark.parametrize("cand,refs,n,recall,precision,f1", ROUGE_N_FIXTURES)
def test_rouge_n_fixtures(cand, refs, n, recall, precision, f1):
    score = rouge_n(cand, refs, n)
    assert score.recall == pytest.approx(recall, abs=1e-6)
    assert score.precision == pytest.approx(precision, abs=1e-6)
    assert score.f1 == pytest.approx(f1, abs=1e-6)


@pytest.mark.parametrize("cand,refs,recall,precision,f1", ROUGE_L_FIXTURES)
def test_rouge_l_fixtures(cand, refs, recall, precision, f1):
    score = rouge_l(cand, refs)
    assert score.recall == pytest.approx(recall, abs=1e-6)
    assert score.precision == pytest.approx(precision, abs=1e-6)
    assert score.f1 == pytest.approx(f1, abs=1e-6)


def test_rouge_requires_references_and_positive_n():
    with pytest.raises(ValueError):
        rouge_n(["a"], [], 1)
    with pytest.raises(ValueError):
        rouge_n(["a"], [["a"]], 0)
    with pytest.raises(ValueError):
        rouge_l(["a"], [])


def test_rouge_l_empty_candidate_scores_zero():
    score = rouge_l([], [["a", "b"]])
    assert (score.recall, score.precision, score.f1) == (0.0, 0.0, 0.0)


def test_rouge_l_against_an_empty_reference():
    # alone, an empty reference scores zero; beside a non-empty one, each
    # field takes the maximum, which the empty reference never raises
    score = rouge_l(["a", "b"], [[]])
    assert (score.recall, score.precision, score.f1) == (0.0, 0.0, 0.0)
    score = rouge_l(["a", "b", "c"], [[], ["a", "c"]])
    assert (score.recall, score.precision, score.f1) == (1.0, 2 / 3, 0.8)
    assert rouge_l(["a", "b", "c"], [["a", "c"], []]) == score


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=8),
       st.lists(st.sampled_from("abcd"), min_size=1, max_size=8))
def test_rouge_scores_bounded_and_identity(cand, ref):
    for score in (rouge_n(cand, [ref], 1), rouge_n(cand, [ref], 2), rouge_l(cand, [ref])):
        assert 0.0 <= score.recall <= 1.0
        assert 0.0 <= score.precision <= 1.0
        assert 0.0 <= score.f1 <= 1.0
    ident = rouge_n(cand, [list(cand)], 1)
    assert ident.recall == ident.precision == ident.f1 == 1.0


def _lcs(cand, ref):
    return round(rouge_l(cand, [ref]).recall * len(ref))


def _longest_common_run(a, b):
    return max((k for i in range(len(a)) for j in range(len(b))
                for k in range(1, min(len(a) - i, len(b) - j) + 1)
                if a[i:i + k] == b[j:j + k]), default=0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from("abc"), min_size=1, max_size=8),
       st.lists(st.sampled_from("abc"), min_size=1, max_size=8))
def test_lcs_between_common_run_and_unigram_overlap(cand, ref):
    lcs = _lcs(cand, ref)
    ref_counts = Counter(ref)
    assert lcs <= sum(min(c, ref_counts[w]) for w, c in Counter(cand).items())
    if set(zip(cand, cand[1:])) & set(zip(ref, ref[1:])):
        assert lcs >= 2
    assert lcs >= _longest_common_run(cand, ref)


def test_lcs_can_be_below_clipped_bigram_overlap():
    # LCS does not dominate the clipped bigram overlap: here 3 against 4
    cand, ref = list("aaabb"), list("abbaaa")
    assert _lcs(cand, ref) == 3
    assert rouge_n(cand, [ref], 2).recall * (len(ref) - 1) == 4
    assert _longest_common_run(cand, ref) == 3


# ---------------------------------------------------------------------------
# byte capping and PREFIX
# ---------------------------------------------------------------------------

def test_byte_cap_under_limit_unchanged():
    text = "short sentence under the limit"
    assert len(text.encode("utf-8")) < 75
    assert byte_cap(text, 75) == text


def test_byte_cap_whole_token_prefix():
    text = "a" * 40 + " " + "b" * 40
    assert byte_cap(text, 75) == "a" * 40  # 40+1+40 = 81 > 75
    assert byte_cap(text, 81) == text


def test_byte_cap_zero_and_oversized_first_token():
    assert byte_cap("anything at all", 0) == ""
    assert byte_cap("x" * 100 + " y", 75) == ""


def test_byte_cap_rejects_a_negative_limit():
    with pytest.raises(ValueError, match="limit must be >= 0"):
        byte_cap("any text", -1)


def test_byte_cap_counts_utf8_bytes():
    word = "半导体"  # 9 UTF-8 bytes
    assert byte_cap(f"{word} ok", 9) == word
    assert byte_cap(f"{word} ok", 8) == ""
    assert byte_cap(f"{word} ok", 12) == f"{word} ok"


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="ab é", max_size=60), st.integers(min_value=0, max_value=40))
def test_byte_cap_never_exceeds_limit(text, limit):
    assert len(byte_cap(text, limit).encode("utf-8")) <= limit


def test_prefix_baseline_cuts_characters():
    text = "x" * 100
    assert prefix_baseline(text) == "x" * 75
    assert prefix_baseline("short one") == "short one"
    with pytest.raises(ValueError):
        prefix_baseline("")


# ---------------------------------------------------------------------------
# extractive percentage and histograms
# ---------------------------------------------------------------------------

def test_extractive_pct_subset_is_hundred():
    assert extractive_pct(["a", "b"], ["b", "a", "c"]) == 100.0


def test_extractive_pct_disjoint_is_zero():
    assert extractive_pct(["x"], ["a", "b"]) == 0.0


def test_extractive_pct_multiplicity_clipping():
    assert extractive_pct(["a", "a"], ["a"]) == 50.0


def test_extractive_pct_empty_output_is_absent():
    assert extractive_pct([], ["a"]) is None


def test_length_histogram_bucketing_and_conservation():
    outputs = ["x" * 75, "y" * 3, "z" * 4, ""]
    buckets = length_histogram(outputs)  # 5-char buckets
    assert dict(buckets) == {0: 3, 75: 1}
    assert sum(count for _, count in buckets) == len(outputs)


def test_write_histogram_format(tmp_path):
    path = tmp_path / "hist.csv"
    write_histogram(path, [(0, 3), (75, 1)])
    assert path.read_text().splitlines() == ["bucket_start,count", "0,3", "75,1"]


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

def test_score_system_identity_lines():
    lines = ["the cat runs", "a dog sleeps now"]
    scores = score_system("self", lines, [[l] for l in lines], sources=lines)
    assert scores.rouge1.recall == 1.0
    assert scores.rouge2.recall == 1.0
    assert scores.rougel.recall == 1.0
    assert scores.extractive == 100.0


def test_score_system_rejects_misaligned_references():
    with pytest.raises(ValueError, match="align line by line"):
        score_system("short", ["a b", "c d"], [["a b"]])


def test_score_system_aggregates_mean():
    candidates = ["a b", "x y"]
    refs = [["a b"], ["a b"]]
    scores = score_system("mix", candidates, refs)
    assert scores.rouge1.recall == pytest.approx(0.5)


def test_render_report_contains_all_systems():
    lines = ["the cat runs"]
    s1 = score_system("prefix", lines, [[lines[0]]], sources=lines)
    s2 = score_system("model", ["the cat"], [[lines[0]]], sources=lines)
    table = render_report([s1, s2])
    assert "prefix" in table and "model" in table
    csv_text = report_csv([s1, s2])
    assert csv_text.splitlines()[0].startswith("system,rouge1_recall")
    assert len(csv_text.splitlines()) == 3
