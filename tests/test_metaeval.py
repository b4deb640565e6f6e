"""Tests for meta-evaluation statistics and the MT-reference protocol."""

import hashlib
import random
from collections import Counter

import numpy as np
import pytest

from conftest import (
    kendall_tau_oracle,
    load_robustness_corpus,
    make_eval_set,
    robustness_report_oracle,
)
from metricfit import metaeval
from metricfit.corpus import error_free_translations
from metricfit.metaeval import (
    JudgmentTable,
    _hash_seed,
    MetaEvalError,
    comparable_subset,
    human_segment_scores,
    kendall_tau,
    pairwise_accuracy,
    pearson,
    perm_both_test,
    relative_change,
    robustness_report,
    sample_refs_segment_level,
    sample_refs_system_pair,
)
from metricfit.metrics import BleuMetric, ChrfMetric, MetricScore, PrismMetric, ToyScorer


def test_kendall_perfect_concordance():
    # human goodness [1, 2, 3] expressed as penalties
    assert kendall_tau([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]) == pytest.approx(1.0)


def test_kendall_perfect_discordance():
    assert kendall_tau([3.0, 2.0, 1.0], [-1.0, -2.0, -3.0]) == pytest.approx(-1.0)


def test_kendall_matches_brute_force_oracle():
    rng = random.Random(10)
    for _ in range(40):
        n = rng.randint(5, 200)
        # heavy ties via coarse quantization
        metric = [round(rng.uniform(0, 4)) / 2.0 for _ in range(n)]
        human = [round(rng.uniform(0, 6)) / 2.0 for _ in range(n)]
        expected = kendall_tau_oracle(metric, human)
        actual = kendall_tau(metric, human)
        if expected is None:
            assert actual is None
        else:
            assert actual == pytest.approx(expected, abs=1e-12)


def test_kendall_constant_input_is_undefined():
    assert kendall_tau([1.0, 1.0, 1.0], [0.0, 1.0, 2.0]) is None
    assert kendall_tau([0.0, 1.0, 2.0], [3.0, 3.0, 3.0]) is None


def test_kendall_validates_input():
    with pytest.raises(ValueError):
        kendall_tau([1.0], [2.0])
    with pytest.raises(ValueError):
        kendall_tau([1.0, 2.0], [1.0, 2.0, 3.0])


def test_kendall_antisymmetric_under_negation():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(4, 60)
        metric = [round(rng.uniform(0, 8)) for _ in range(n)]
        human = [round(rng.uniform(0, 8)) for _ in range(n)]
        tau = kendall_tau(metric, human)
        negated = kendall_tau([-m for m in metric], human)
        if tau is None:
            assert negated is None
        else:
            assert negated == -tau


def test_pearson_basics():
    assert pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(1.0)
    assert pearson([1.0, 2.0, 3.0], [6.0, 4.0, 2.0]) == pytest.approx(-1.0)
    assert pearson([1.0, 1.0], [1.0, 2.0]) is None


def test_pairwise_accuracy_identity_and_reversal():
    human = {"A": 3.0, "B": 2.0, "C": 1.0}
    assert pairwise_accuracy(human, human) == 1.0
    negated = {k: -v for k, v in human.items()}
    assert pairwise_accuracy(negated, human) == 0.0


def test_pairwise_accuracy_hand_enumerated_third():
    human = {"A": 90.0, "B": 80.0, "C": 70.0}
    metric = {"A": 1.0, "B": 3.0, "C": 2.0}
    assert pairwise_accuracy(metric, human) == pytest.approx(1.0 / 3.0)


def test_pairwise_accuracy_tie_handling():
    human = {"A": 2.0, "B": 1.0, "C": 1.0}  # B-C tied for humans: excluded
    metric = {"A": 5.0, "B": 5.0, "C": 1.0}  # A-B metric tie: incorrect
    # pairs: AB (human ordered, metric tied -> wrong), AC (concordant)
    assert pairwise_accuracy(metric, human) == pytest.approx(0.5)


def test_pairwise_accuracy_undefined_and_errors():
    assert pairwise_accuracy({"A": 1.0, "B": 2.0}, {"A": 0.0, "B": 0.0}) is None
    with pytest.raises(ValueError):
        pairwise_accuracy({"A": 1.0}, {"A": 1.0})
    with pytest.raises(ValueError):
        pairwise_accuracy({"A": 1.0, "B": 2.0}, {"A": 1.0, "C": 2.0})


def test_pairwise_accuracy_complement_without_ties():
    rng = random.Random(12)
    for _ in range(20):
        systems = [f"sys{i}" for i in range(rng.randint(2, 8))]
        human = {s: rng.random() for s in systems}
        metric = {s: rng.random() for s in systems}
        forward = pairwise_accuracy(metric, human)
        reverse = pairwise_accuracy({s: -v for s, v in metric.items()}, human)
        assert forward + reverse == pytest.approx(1.0)


def test_perm_both_identical_metrics_p_is_one():
    rng = random.Random(1)
    human = [rng.random() for _ in range(50)]
    metric = [rng.random() for _ in range(50)]
    p = perm_both_test(metric, metric, human, pearson, n_resamples=200, seed=4)
    assert p == 1.0


def test_perm_both_detects_clear_difference():
    rng = np.random.default_rng(42)
    human = rng.normal(size=500)
    metric_a = list(-human)  # equals human goodness exactly, as penalties
    metric_b = list(rng.normal(size=500))
    p = perm_both_test(
        list(metric_a), metric_b, list(human), kendall_tau,
        n_resamples=1000, seed=7,
    )
    assert p < 0.05
    assert p == pytest.approx(1.0 / 1001.0)


def test_perm_both_invariant_to_metric_relabeling():
    rng = np.random.default_rng(3)
    human = list(rng.normal(size=80))
    metric_a = list(rng.normal(size=80))
    metric_b = list(rng.normal(size=80))
    p_ab = perm_both_test(metric_a, metric_b, human, pearson, 300, seed=11)
    p_ba = perm_both_test(metric_b, metric_a, human, pearson, 300, seed=11)
    assert p_ab == p_ba


def test_perm_both_rough_null_calibration():
    rng = np.random.default_rng(17)
    rejections = 0
    trials = 100
    for trial in range(trials):
        human = rng.normal(size=100)
        quality = rng.normal(size=100)
        metric_a = list(quality + rng.normal(size=100))
        metric_b = list(quality + rng.normal(size=100))
        p = perm_both_test(
            metric_a, metric_b, list(human), pearson, n_resamples=200,
            seed=1000 + trial,
        )
        if p < 0.05:
            rejections += 1
    assert 0 <= rejections / trials <= 0.12


def test_perm_both_validates_input():
    with pytest.raises(ValueError):
        perm_both_test([1.0], [1.0, 2.0], [0.0, 1.0], pearson)
    with pytest.raises(ValueError):
        perm_both_test([1.0, 2.0], [1.0, 2.0], [0.0, 1.0], pearson, n_resamples=0)


def test_perm_both_undefined_observed_correlation():
    # constant metric_a makes the observed correlation undefined
    with pytest.raises(MetaEvalError):
        perm_both_test([1.0, 1.0], [1.0, 2.0], [0.0, 1.0], pearson, 10, seed=0)


def test_perm_both_redraw_cap():
    calls = {"count": 0}

    def flaky(x, y):
        calls["count"] += 1
        if calls["count"] <= 2:  # defined for the observed statistic only
            return pearson(x, y)
        return None

    with pytest.raises(MetaEvalError, match="attempts"):
        perm_both_test(
            [1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [0.5, 1.5, 2.5], flaky,
            n_resamples=5, seed=0,
        )


def _sampling_fixture(error_free_systems, rated_with_error=(), n_segments=1):
    segments = [("en-de", "news", "d", f"s{i}", f"src {i}") for i in range(n_segments)]
    systems = sorted(set(error_free_systems) | set(rated_with_error))
    translations = [
        (system, f"s{i}", f"text {system} {i}", False)
        for system in systems
        for i in range(n_segments)
    ]
    references = [("refA", f"s{i}", f"ref {i}") for i in range(n_segments)]
    ratings = []
    for i in range(n_segments):
        for system in error_free_systems:
            ratings.append(("ann1", system, f"s{i}", []))
        for system in rated_with_error:
            ratings.append(
                ("ann1", system, f"s{i}", [("accuracy/mistranslation", "major")])
            )
    return make_eval_set(segments, translations, references, ratings)


def test_segment_sampling_forced_choice():
    eval_set = _sampling_fixture(error_free_systems=["sysB"], rated_with_error=["sysA"])
    assignment = sample_refs_segment_level(eval_set, "sysA", seed=0)
    assert assignment.choices["s0"].source_system == "sysB"
    assert assignment.choices["s0"].origin == "machine"
    assert assignment.skipped == ()


def test_segment_sampling_skips_own_system():
    eval_set = _sampling_fixture(error_free_systems=["sysA"], rated_with_error=["sysB"])
    assignment = sample_refs_segment_level(eval_set, "sysA", seed=0)
    assert assignment.choices == {}
    assert assignment.skipped == ("s0",)


def test_segment_sampling_deterministic():
    eval_set = _sampling_fixture(
        error_free_systems=["sysB", "sysC", "sysD"], rated_with_error=["sysA"],
        n_segments=10,
    )
    first = sample_refs_segment_level(eval_set, "sysA", seed=3)
    second = sample_refs_segment_level(eval_set, "sysA", seed=3)
    assert first == second
    other_seed = sample_refs_segment_level(eval_set, "sysA", seed=4)
    sources = lambda a: [a.choices[s].source_system for s in sorted(a.choices)]
    assert sources(first) != sources(other_seed) or first.seed != other_seed.seed


def test_pair_sampling_excludes_both_systems():
    eval_set = _sampling_fixture(
        error_free_systems=["sysA", "sysB", "sysC", "sysD"], n_segments=20
    )
    assignment = sample_refs_system_pair(eval_set, "sysA", "sysB", seed=5)
    assert assignment.excluded_systems == frozenset({"sysA", "sysB"})
    for reference in assignment.choices.values():
        assert reference.source_system in {"sysC", "sysD"}


def test_pair_sampling_sole_candidate_is_excluded_system():
    eval_set = _sampling_fixture(error_free_systems=["sysB"], rated_with_error=["sysA", "sysC"])
    assignment = sample_refs_system_pair(eval_set, "sysA", "sysB", seed=5)
    assert assignment.skipped == ("s0",)


def test_pair_sampling_differs_between_pairs():
    eval_set = _sampling_fixture(
        error_free_systems=["sysA", "sysB", "sysC", "sysD", "sysE"], n_segments=30
    )
    pair_ab = sample_refs_system_pair(eval_set, "sysA", "sysB", seed=5)
    pair_ac = sample_refs_system_pair(eval_set, "sysA", "sysC", seed=5)
    sources_ab = [pair_ab.choices[s].source_system for s in sorted(pair_ab.choices)]
    sources_ac = [pair_ac.choices[s].source_system for s in sorted(pair_ac.choices)]
    assert sources_ab != sources_ac


def test_sampling_invariants_on_fixture(tmp_path):
    eval_set = load_robustness_corpus(tmp_path, n_systems=5, n_segments=20)
    error_free = error_free_translations(eval_set)
    error_free_keys = {
        (translation.system_id, seg_id)
        for seg_id, translations in error_free.items()
        for translation in translations
    }
    systems = eval_set.system_ids(include_human=False)
    # a caller-built index gives the same assignments as building it here
    assert sample_refs_system_pair(
        eval_set, *systems[:2], 9, error_free
    ) == sample_refs_system_pair(eval_set, *systems[:2], 9)
    for system in systems:
        assignment = sample_refs_segment_level(eval_set, system, seed=9)
        assert assignment == sample_refs_segment_level(
            eval_set, system, 9, error_free
        )
        for seg_id, reference in assignment.choices.items():
            assert reference.source_system != system
            assert (reference.source_system, seg_id) in error_free_keys
        assert set(assignment.choices) | set(assignment.skipped) == set(
            eval_set.seg_ids()
        )


def test_comparable_subset_full_and_partial():
    eval_set = _sampling_fixture(
        error_free_systems=["sysB", "sysC"], rated_with_error=["sysA"], n_segments=10
    )
    assignments = [
        sample_refs_segment_level(eval_set, system, seed=1)
        for system in ("sysA", "sysB", "sysC")
    ]
    assert comparable_subset(eval_set, assignments) == set(eval_set.seg_ids())


def test_comparable_subset_drops_uncovered_segments():
    # sysB is the only error-free system, so sampling for sysB covers nothing.
    eval_set = _sampling_fixture(
        error_free_systems=["sysB"], rated_with_error=["sysA"], n_segments=10
    )
    assignment_a = sample_refs_segment_level(eval_set, "sysA", seed=1)
    assignment_b = sample_refs_segment_level(eval_set, "sysB", seed=1)
    assert len(assignment_a.choices) == 10
    assert len(assignment_b.choices) == 0
    with pytest.raises(MetaEvalError):
        comparable_subset(eval_set, [assignment_a, assignment_b])
    assert comparable_subset(eval_set, [assignment_a]) == set(eval_set.seg_ids())


def test_relative_change_reproduces_reported_percentages():
    assert relative_change(24.9, 24.4) == -2.0
    assert relative_change(15.7, 12.6) == -19.7
    assert relative_change(10.0, 10.0) == 0.0
    assert relative_change(0.0, 5.0) is None


def test_human_segment_scores_average_annotators():
    segments = [("en-de", "news", "d", "s1", "src")]
    translations = [("sysA", "s1", "text", False), ("humanX", "s1", "gold", True)]
    ratings = [
        ("ann1", "sysA", "s1", [("accuracy/mistranslation", "major")]),
        ("ann2", "sysA", "s1", []),
        ("ann1", "humanX", "s1", []),
    ]
    eval_set = make_eval_set(segments, translations, [("r", "s1", "ref")], ratings)
    scores = human_segment_scores(eval_set)
    assert scores == {("sysA", "s1"): 2.5}


def test_judgment_table_statistics():
    segments = [("en-de", "news", "d", f"s{i}", f"src {i}") for i in range(3)]
    translations = [
        (system, f"s{i}", f"text {system} {i}", False)
        for system in ("sysA", "sysB")
        for i in range(3)
    ]
    ratings = []
    for i in range(3):
        ratings.append(("ann1", "sysA", f"s{i}", []))
        ratings.append(("ann1", "sysB", f"s{i}", [("accuracy/mistranslation", "major")]))
    eval_set = make_eval_set(
        segments, translations, [("r", f"s{i}", f"ref {i}") for i in range(3)], ratings
    )
    metric_scores = [
        MetricScore("m", system, f"s{i}", value)
        for system, values in (("sysA", [3.0, 2.0, 1.0]), ("sysB", [0.5, 0.2, 0.1]))
        for i, value in enumerate(values)
    ]
    table = JudgmentTable.build(eval_set, metric_scores)
    assert len(table.units("m")) == 6
    assert table.segment_tau("m") is not None
    assert table.system_pairwise_accuracy("m") == 1.0


def test_robustness_report_structure_and_determinism(tmp_path):
    eval_set = load_robustness_corpus(tmp_path, n_systems=4, n_segments=12, seed=3)
    metrics = [BleuMetric(), ChrfMetric()]
    report = robustness_report(eval_set, metrics, seed=21, n_resamples=50)
    again = robustness_report(eval_set, metrics, seed=21, n_resamples=50)
    assert report.to_dict() == again.to_dict()

    assert len(report.contexts) == 1
    context = report.contexts[0]
    assert context.segments_comparable <= context.segments_total
    for rows in (context.segment_level, context.system_level):
        assert set(rows) == {"bleu", "chrf"}
        for pair in rows.values():
            if pair.ref_std is not None and pair.ref_mt is not None:
                assert pair.relative_change_pct == relative_change(
                    pair.ref_std, pair.ref_mt
                )
    conditions = {(e.metric_a, e.metric_b, e.condition) for e in context.significance}
    assert conditions == {("bleu", "chrf", "ref_std"), ("bleu", "chrf", "ref_mt")}
    assert set(report.segment_average) == {"bleu", "chrf"}

    table = report.format_table()
    assert "ref_std" in table and "ref_mt" in table
    assert "segment-level Kendall tau" in table


def test_robustness_report_different_seed_changes_sampling(tmp_path):
    eval_set = load_robustness_corpus(tmp_path, n_systems=4, n_segments=12, seed=3)
    metrics = [BleuMetric()]
    first = robustness_report(eval_set, metrics, seed=1, n_resamples=20)
    second = robustness_report(eval_set, metrics, seed=2, n_resamples=20)
    assert first.to_dict() != second.to_dict()


class CountingMetric:
    """A metric that counts its calls per (hypothesis, reference)."""

    def __init__(self, metric):
        self.metric = metric
        self.metric_id = metric.metric_id
        self.calls = Counter()

    def segment_score(self, hypothesis, reference):
        self.calls[(hypothesis, reference)] += 1
        return self.metric.segment_score(hypothesis, reference)


def test_robustness_report_scores_each_pair_once(tmp_path):
    eval_set = load_robustness_corpus(tmp_path, n_systems=6, n_segments=30)
    assert len(eval_set.group_keys()) == 1  # one context: counts are per context
    metrics = [CountingMetric(BleuMetric()), CountingMetric(ChrfMetric())]
    robustness_report(eval_set, metrics, seed=4, n_resamples=5)
    for metric in metrics:
        assert metric.calls
        assert max(metric.calls.values()) == 1, metric.metric_id


def test_robustness_report_builds_error_free_index_once_per_context(
    tmp_path, monkeypatch
):
    eval_set = load_robustness_corpus(tmp_path, n_systems=6, n_segments=30)
    built = []

    def counting(group):
        built.append(group.group_keys())
        return error_free_translations(group)

    monkeypatch.setattr(metaeval, "error_free_translations", counting)
    robustness_report(eval_set, [BleuMetric()], seed=4, n_resamples=5)
    assert built == [[key] for key in eval_set.group_keys()]


@pytest.mark.parametrize("seed", [3, 8])
def test_robustness_report_matches_rescoring_oracle(tmp_path, seed):
    eval_set = load_robustness_corpus(tmp_path, n_systems=6, n_segments=30)
    scorer = ToyScorer.from_texts(
        [tr.text for tr in eval_set.translations.values()], theta=(2.0, 1.0, 1.0)
    )
    metrics = [BleuMetric(), ChrfMetric(), PrismMetric(scorer)]
    report = robustness_report(eval_set, metrics, seed=seed, n_resamples=40)
    assert report.to_dict() == robustness_report_oracle(
        eval_set, metrics, seed=seed, n_resamples=40
    )


def test_hash_seed_hashes_the_sampling_and_significance_keys():
    def blake(key):
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")

    assert _hash_seed(7, "segment-level|sys1", "seg003") == blake(
        "7|segment-level|sys1|seg003"
    )
    assert _hash_seed(7, "perm", "en-de|news", "ref_mt", "bleu|chrf") == blake(
        "7|perm|en-de|news|ref_mt|bleu|chrf"
    )
