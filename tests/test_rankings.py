"""Tests for MQM-to-relative-ranking conversion and the holdout split."""

import random

import pytest

from conftest import make_eval_set, ranking_pair_count_oracle, random_mqm_eval_set
from metricfit.rankings import (
    RelativeRanking,
    derive_rankings,
    read_rankings,
    split_holdout,
    write_rankings,
)


def _single_segment_set(system_errors, references=(("refA", "s1", "die referenz"),)):
    """One segment, one annotator; system_errors maps system -> error list."""
    segments = [("en-de", "news", "d", "s1", "the source")]
    translations = [
        (system, "s1", f"uebersetzung {system}", False) for system in system_errors
    ]
    ratings = [
        ("ann1", system, "s1", errors) for system, errors in system_errors.items()
    ]
    return make_eval_set(segments, translations, list(references), ratings)


def test_basic_pair():
    eval_set = _single_segment_set(
        {"sysA": [], "sysB": [("accuracy/mistranslation", "major")]}
    )
    result = derive_rankings(eval_set)
    assert len(result.rankings) == 1
    ranking = result.rankings[0]
    assert ranking.sys_plus_id == "sysA"
    assert ranking.sys_minus_id == "sysB"
    assert ranking.score_delta == pytest.approx(5.0)
    assert ranking.src == "the source"
    assert ranking.ref == "die referenz"
    assert ranking.sys_plus == "uebersetzung sysA"


def test_difference_of_exactly_threshold_gives_no_pair():
    # penalties 1.0 vs 1.1: not strictly above the 0.1 threshold
    eval_set = _single_segment_set(
        {
            "sysA": [("accuracy/omission", "minor")],
            "sysB": [("accuracy/omission", "minor"), ("fluency/punctuation", "minor")],
        }
    )
    assert derive_rankings(eval_set).rankings == ()


def test_sub_threshold_difference_gives_no_pair():
    eval_set = _single_segment_set(
        {"sysA": [], "sysB": [("fluency/punctuation", "minor")]}
    )
    assert derive_rankings(eval_set).rankings == ()


def test_cross_annotator_translations_never_pair():
    segments = [("en-de", "news", "d", "s1", "src")]
    translations = [("sysA", "s1", "a", False), ("sysB", "s1", "b", False)]
    ratings = [
        ("ann1", "sysA", "s1", []),
        ("ann2", "sysB", "s1", [("accuracy/mistranslation", "major")]),
    ]
    eval_set = make_eval_set(segments, translations, [("r", "s1", "ref")], ratings)
    assert derive_rankings(eval_set).rankings == ()


def test_each_annotator_pairs_independently():
    segments = [("en-de", "news", "d", "s1", "src")]
    translations = [("sysA", "s1", "a", False), ("sysB", "s1", "b", False)]
    ratings = [
        ("ann1", "sysA", "s1", []),
        ("ann1", "sysB", "s1", [("accuracy/mistranslation", "major")]),
        ("ann2", "sysA", "s1", []),
        ("ann2", "sysB", "s1", [("accuracy/omission", "minor")]),
    ]
    eval_set = make_eval_set(segments, translations, [("r", "s1", "ref")], ratings)
    result = derive_rankings(eval_set)
    assert len(result.rankings) == 2
    assert [r.annotator_id for r in result.rankings] == ["ann1", "ann2"]


def test_missing_standard_reference_skips_and_tallies():
    eval_set = _single_segment_set(
        {"sysA": [], "sysB": [("accuracy/mistranslation", "major")]},
        references=(),
    )
    result = derive_rankings(eval_set)
    assert result.rankings == ()
    assert result.skipped_segments == ("s1",)


def test_emitted_rankings_satisfy_strict_margin():
    rng = random.Random(3)
    for _ in range(50):
        eval_set = random_mqm_eval_set(rng)
        for ranking in derive_rankings(eval_set).rankings:
            assert ranking.score_delta > 0.1
            assert ranking.sys_plus != ranking.sys_minus or True  # texts may tie
            assert ranking.sys_plus_id != ranking.sys_minus_id


def test_pair_count_matches_oracle_on_random_fixtures():
    rng = random.Random(42)
    for _ in range(200):
        eval_set = random_mqm_eval_set(rng)
        result = derive_rankings(eval_set)
        assert len(result.rankings) == ranking_pair_count_oracle(eval_set)


def test_deterministic_output_order():
    rng = random.Random(9)
    eval_set = random_mqm_eval_set(rng)
    first = derive_rankings(eval_set)
    second = derive_rankings(eval_set)
    assert first == second
    keys = [
        (r.lang_pair, r.seg_id, r.annotator_id, r.sys_plus_id, r.sys_minus_id)
        for r in first.rankings
    ]
    assert keys == sorted(keys)


def test_exclude_human_translations():
    segments = [("en-de", "news", "d", "s1", "src")]
    translations = [("sysA", "s1", "a", False), ("humanX", "s1", "h", True)]
    ratings = [
        ("ann1", "sysA", "s1", [("accuracy/mistranslation", "major")]),
        ("ann1", "humanX", "s1", []),
    ]
    eval_set = make_eval_set(segments, translations, [("r", "s1", "ref")], ratings)
    assert len(derive_rankings(eval_set).rankings) == 1
    assert derive_rankings(eval_set, include_human=False).rankings == ()


def _dummy_rankings(count):
    return [
        RelativeRanking(
            lang_pair="en-de",
            seg_id=f"s{i}",
            annotator_id="ann1",
            src=f"src {i}",
            ref=f"ref {i}",
            sys_plus=f"plus {i}",
            sys_minus=f"minus {i}",
            score_delta=1.0,
        )
        for i in range(count)
    ]


def test_split_partition():
    dataset = split_holdout(_dummy_rankings(10), holdout_size=3, seed=1)
    assert len(dataset.train) == 7
    assert len(dataset.validation) == 3
    assert set(dataset.train) & set(dataset.validation) == set()
    assert set(dataset.train) | set(dataset.validation) == set(_dummy_rankings(10))


def test_split_holdout_zero():
    dataset = split_holdout(_dummy_rankings(10), holdout_size=0, seed=1)
    assert len(dataset.train) == 10
    assert dataset.validation == ()


def test_split_clamps_oversized_holdout():
    dataset = split_holdout(_dummy_rankings(10), holdout_size=20, seed=1)
    assert dataset.train == ()
    assert len(dataset.validation) == 10


def test_split_negative_holdout_rejected():
    with pytest.raises(ValueError):
        split_holdout(_dummy_rankings(3), holdout_size=-1, seed=1)


def test_split_reproducible_and_seed_sensitive():
    rankings = _dummy_rankings(120)
    first = split_holdout(rankings, holdout_size=40, seed=7)
    second = split_holdout(rankings, holdout_size=40, seed=7)
    assert first == second
    other = split_holdout(rankings, holdout_size=40, seed=8)
    assert set(other.validation) != set(first.validation)


def test_rankings_tsv_round_trip(tmp_path):
    eval_set = _single_segment_set(
        {"sysA": [], "sysB": [("accuracy/mistranslation", "major")]}
    )
    rankings = derive_rankings(eval_set).rankings
    path = tmp_path / "rankings.tsv"
    write_rankings(rankings, path)
    loaded = read_rankings(path, eval_set.segments)
    assert len(loaded) == len(rankings)
    for original, read_back in zip(rankings, loaded):
        assert read_back.lang_pair == original.lang_pair
        assert read_back.seg_id == original.seg_id
        assert read_back.annotator_id == original.annotator_id
        assert read_back.src == original.src
        assert read_back.ref == original.ref
        assert read_back.sys_plus == original.sys_plus
        assert read_back.sys_minus == original.sys_minus
        assert read_back.score_delta == original.score_delta


def test_read_rankings_stores_each_repeated_text_once(tmp_path):
    eval_set = _single_segment_set(
        {"sysA": [], "sysB": [("fluency/grammar", "minor")],
         "sysC": [("accuracy/mistranslation", "major")]}
    )
    path = tmp_path / "rankings.tsv"
    write_rankings(derive_rankings(eval_set).rankings, path)
    first, *others = read_rankings(path, eval_set.segments)
    assert len(others) == 2
    for other in others:
        assert other.ref is first.ref
        assert other.seg_id is first.seg_id


def test_negative_threshold_rejected():
    eval_set = _single_segment_set({"sysA": []})
    with pytest.raises(ValueError):
        derive_rankings(eval_set, threshold=-0.5)
