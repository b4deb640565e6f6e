"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the line per
criterion even when everything passes.
"""

import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    TableScorer,
    backward_ranking_loss,
    batched_pearson,
    central_difference_gradient,
    chrf_oracle,
    combined_loss,
    corpus_bleu_oracle,
    forward_ranking_loss,
    kendall_tau_oracle,
    load_robustness_corpus,
    random_mqm_eval_set,
    ranking_pair_count_oracle,
    robustness_corpus_rows,
    segment_bleu_oracle,
    separable_ranking_examples,
    write_corpus_files,
)
from test_training import (
    ABLATION_CONFIGS,
    assert_gradient_matches,
    margin_values,
    random_gradient_draw,
)

from metricfit.cli import EXIT_OK, main
from metricfit.corpus import error_free_translations
from metricfit.metaeval import (
    comparable_subset,
    kendall_tau,
    pairwise_accuracy,
    perm_both_test,
    relative_change,
    sample_refs_segment_level,
    sample_refs_system_pair,
)
from metricfit.metrics import ToyScorer, bleu, chrf, segment_bleu
from metricfit.rankings import derive_rankings, split_holdout
from metricfit.training import (
    TrainingConfig,
    gradient,
    loss_terms,
    ranking_accuracy,
    train,
)


def check(number: int, description: str, passed: bool) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:02d}] {description}: {status}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_01_kendall_tau_matches_brute_force_oracle():
    started = time.monotonic()
    rng = random.Random(101)
    worst = 0.0
    for instance in range(100):
        n = rng.randint(5, 500)
        if instance % 2 == 0:  # heavily tied
            metric = [float(rng.randint(0, 5)) for _ in range(n)]
            human = [float(rng.randint(0, 5)) for _ in range(n)]
        else:  # continuous, untied
            metric = [rng.random() for _ in range(n)]
            human = [rng.random() for _ in range(n)]
        expected = kendall_tau_oracle(metric, human)
        actual = kendall_tau(metric, human)
        if expected is None:
            assert actual is None
            continue
        worst = max(worst, abs(actual - expected))
    elapsed = time.monotonic() - started
    check(
        1,
        f"tau-b vs O(n^2) oracle, 100 instances (max |diff| {worst:.2e}, "
        f"{elapsed:.1f}s)",
        worst <= 1e-12 and elapsed < 10.0,
    )


def test_criterion_02_pairwise_accuracy_hand_examples():
    human = {"A": 90.0, "B": 80.0, "C": 70.0}
    third = pairwise_accuracy({"A": 1.0, "B": 3.0, "C": 2.0}, human)
    identity = pairwise_accuracy(human, human)
    reversal = pairwise_accuracy({k: -v for k, v in human.items()}, human)
    check(
        2,
        "pairwise accuracy reproduces 1/3 example and identity/reversal extremes",
        third == 1.0 / 3.0 and identity == 1.0 and reversal == 0.0,
    )


def test_criterion_03_perm_both_null_calibration():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    trials = 500
    rejections = 0
    for trial in range(trials):
        human = rng.normal(size=200)
        quality = rng.normal(size=200)
        metric_a = list(quality + rng.normal(size=200))
        metric_b = list(quality + rng.normal(size=200))
        p = perm_both_test(
            metric_a, metric_b, list(human), batched_pearson,
            n_resamples=1000, seed=trial,
        )
        if p < 0.05:
            rejections += 1
    rate = rejections / trials
    elapsed = time.monotonic() - started
    check(
        3,
        f"perm-both null rejection rate {rate:.3f} over {trials} trials "
        f"({elapsed:.0f}s)",
        0.03 <= rate <= 0.08 and elapsed < 120.0,
    )


def test_criterion_04_gradients_match_finite_differences():
    rng = random.Random(404)
    _, texts = separable_ranking_examples(60, seed=2)
    base = ToyScorer.from_texts(texts)
    words = [f"gut{i}" for i in range(12)] + [f"schlecht{i}" for i in range(6)]
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 2000:
        attempts += 1
        example, theta = random_gradient_draw(rng, words)
        config = TrainingConfig(**ABLATION_CONFIGS[checked % len(ABLATION_CONFIGS)])
        scorer = base.with_theta(theta)
        if any(abs(v) < 1e-3 for v in margin_values(scorer, example, config)):
            continue  # too close to the hinge kink for finite differences
        analytic = gradient(scorer, example, config)
        numeric = central_difference_gradient(
            lambda th: combined_loss(base.with_theta(th), example, config),
            theta,
            step=1e-5,
        )
        assert_gradient_matches(analytic, numeric, rel=1e-4)
        checked += 1
    check(
        4,
        f"analytic gradient vs central differences on {checked} draws, "
        "all ablation configurations",
        checked == 100,
    )


def test_criterion_05_margin_and_combined_loss_arithmetic():
    # Hand-derived decimal values, compared at 1e-12 (the decimals are not
    # exactly representable in binary floating point).
    from metricfit.rankings import RelativeRanking

    ref, plus, minus = ("ref",), ("plus",), ("minus",)
    example = RelativeRanking(
        "xx-yy", "seg", "ann", "src", "ref", "plus", "minus", 1.0
    )
    forward_only = TrainingConfig(epsilon=0.1, enable_ce=False, enable_backward=False)
    backward_only = TrainingConfig(epsilon=0.1, enable_ce=False, enable_forward=False)

    def forward_losses(s_plus, s_minus):
        scorer = TableScorer({(plus, ref): s_plus, (minus, ref): s_minus})
        return (
            forward_ranking_loss(scorer, ref, plus, minus, 0.1),
            loss_terms(scorer, example, forward_only).forward,
        )

    satisfied, fused_satisfied = forward_losses(-1.0, -1.2)
    equal, fused_equal = forward_losses(-1.0, -1.0)
    violated, fused_violated = forward_losses(-1.0, -0.95)
    backward_scorer = TableScorer({(ref, plus): -1.5, (ref, minus): -1.0})
    backward = backward_ranking_loss(backward_scorer, ref, plus, minus, 0.1)
    fused_backward = loss_terms(backward_scorer, example, backward_only).backward

    combined_scorer = TableScorer(
        {
            (("ref",), ("src",)): -2.0,
            (("plus",), ("ref",)): -1.0,
            (("minus",), ("ref",)): -0.8,
            (("ref",), ("plus",)): -1.5,
            (("ref",), ("minus",)): -1.5,
        }
    )
    config = TrainingConfig(alpha=0.1, epsilon=0.1)
    terms = loss_terms(combined_scorer, example, config)
    combined = combined_loss(combined_scorer, example, config)

    ok = (
        satisfied == 0.0
        and abs(equal - 0.1) < 1e-12
        and abs(violated - 0.15) < 1e-12
        and abs(backward - 0.6) < 1e-12
        and (fused_satisfied, fused_equal, fused_violated, fused_backward)
        == (satisfied, equal, violated, backward)
        and abs(terms.ce - 2.0) < 1e-12
        and abs(terms.forward - 0.3) < 1e-12
        and abs(terms.backward - 0.1) < 1e-12
        and abs(combined - 0.4) < 1e-12
        and abs(terms.total - 0.4) < 1e-12
    )
    check(5, "margin losses 0 / 0.1 / 0.15 / 0.6 and combined loss 0.4", ok)


def test_criterion_06_relative_change_reproduces_reported_values():
    ok = (
        relative_change(24.9, 24.4) == -2.0
        and relative_change(15.7, 12.6) == -19.7
        and relative_change(7.5, 7.5) == 0.0
    )
    check(6, "relative change: (24.9->24.4) = -2.0%, (15.7->12.6) = -19.7%", ok)


def test_criterion_07_ranking_counts_match_combinatorial_oracle():
    rng = random.Random(707)
    mismatches = 0
    for _ in range(1000):
        eval_set = random_mqm_eval_set(rng)
        derived = len(derive_rankings(eval_set).rankings)
        expected = ranking_pair_count_oracle(eval_set)
        if derived != expected:
            mismatches += 1
    check(
        7,
        "ranking derivation equals brute-force pair enumeration on 1000 fixtures",
        mismatches == 0,
    )


def test_criterion_08_training_contract():
    examples, texts = separable_ranking_examples(240, seed=5)
    datasets = {"xx-yy": split_holdout(examples, holdout_size=40, seed=5)}
    scorer = ToyScorer.from_texts(texts)

    trained, report = train(scorer, datasets, config=TrainingConfig(seed=13))
    accuracy = report.validation[-1].forward_accuracy

    before = ranking_accuracy(scorer, datasets["xx-yy"].validation, "forward")
    frozen, frozen_report = train(
        scorer, datasets, config=TrainingConfig(seed=13, learning_rate=0.0)
    )
    unchanged = (
        np.array_equal(frozen.theta, scorer.theta)
        and frozen_report.validation[-1].forward_accuracy == before
    )

    rerun, rerun_report = train(scorer, datasets, config=TrainingConfig(seed=13))
    deterministic = (
        np.array_equal(trained.theta, rerun.theta)
        and report.to_dict() == rerun_report.to_dict()
    )
    check(
        8,
        f"one-epoch validation accuracy {accuracy:.3f} >= 0.9, lr 0 is a "
        "no-op, identical seeds give bit-identical weights",
        accuracy >= 0.9 and unchanged and deterministic,
    )


def test_criterion_09_reference_sampling_invariants(tmp_path):
    eval_set = load_robustness_corpus(tmp_path, n_systems=6, n_segments=50)
    systems = eval_set.system_ids(include_human=False)
    assert len(systems) == 6
    error_free = error_free_translations(eval_set)
    error_free_keys = {
        (translation.system_id, seg_id)
        for seg_id, translations in error_free.items()
        for translation in translations
    }

    violations = 0
    assignments = []
    for system in systems:
        assignment = sample_refs_segment_level(eval_set, system, seed=909)
        assignments.append(assignment)
        for seg_id, reference in assignment.choices.items():
            if reference.source_system == system:
                violations += 1
            if (reference.source_system, seg_id) not in error_free_keys:
                violations += 1
    for i, system_a in enumerate(systems):
        for system_b in systems[i + 1:]:
            assignment = sample_refs_system_pair(eval_set, system_a, system_b, seed=909)
            for seg_id, reference in assignment.choices.items():
                if reference.source_system in (system_a, system_b):
                    violations += 1
                if (reference.source_system, seg_id) not in error_free_keys:
                    violations += 1

    # One subset serves both reference conditions: it is contained in every
    # assignment's coverage and in the standard-reference coverage.
    subset = comparable_subset(eval_set, assignments)
    std_covered = {
        seg_id for seg_id in subset
        if eval_set.standard_reference(seg_id) is not None
    }
    mt_covered = {
        seg_id for seg_id in subset
        if all(seg_id in a.choices for a in assignments)
    }
    check(
        9,
        "sampled references: never the evaluated system, never with a marked "
        "error (6 systems x 50 segments); one comparable subset for both "
        "conditions",
        violations == 0 and std_covered == subset and mt_covered == subset,
    )


def _run_pipeline(source_dir: Path, out_root: Path) -> None:
    paths = write_corpus_files(source_dir, *robustness_corpus_rows(6, 50, seed=11))
    bundle = out_root / "corpus"
    steps = [
        ["ingest", "--segments", paths.segments, "--system-outputs",
         paths.system_outputs, "--references", paths.references,
         "--ratings", paths.ratings, "--out", bundle],
        ["rankings", "--corpus", bundle, "--out", out_root / "rankings",
         "--seed", 17, "--holdout", 300],
        ["train", "--corpus", bundle, "--rankings", out_root / "rankings",
         "--out", out_root / "model", "--seed", 17],
        ["score", "--corpus", bundle, "--out", out_root / "scores",
         "--metrics", "bleu,chrf,prism",
         "--scorer", out_root / "model" / "scorer.json"],
        ["correlate", "--corpus", bundle,
         "--scores", out_root / "scores" / "scores.tsv",
         "--out", out_root / "correlations"],
        ["robustness", "--corpus", bundle, "--out", out_root / "robustness",
         "--seed", 17, "--metrics", "bleu,chrf,prism",
         "--scorer", out_root / "model" / "scorer.json", "--resamples", 500],
    ]
    for argv in steps:
        assert main([str(part) for part in argv]) == EXIT_OK


def _tree_bytes(root: Path) -> dict:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_criterion_10_end_to_end_determinism(tmp_path, capsys):
    started = time.monotonic()
    _run_pipeline(tmp_path / "src-a", tmp_path / "run-a")
    _run_pipeline(tmp_path / "src-b", tmp_path / "run-b")
    elapsed = time.monotonic() - started
    tree_a = _tree_bytes(tmp_path / "run-a")
    tree_b = _tree_bytes(tmp_path / "run-b")
    identical = tree_a == tree_b
    capsys.readouterr()  # drop pipeline stdout
    report = json.loads((tmp_path / "run-a" / "robustness" / "robustness.json")
                        .read_text())
    has_both_columns = all(
        "ref_std" in entry and "ref_mt" in entry
        for context in report["contexts"]
        for level in ("segment_level", "system_level")
        for entry in context[level].values()
    )
    check(
        10,
        f"two pipeline runs byte-identical across {len(tree_a)} files "
        f"({elapsed:.0f}s for both)",
        identical and has_both_columns and elapsed < 300.0,
    )


def test_criterion_11_overlap_metric_identities_and_oracles():
    rng = random.Random(1111)
    vocabulary = ["the", "cat", "dog", "sat", "ran", "mat", "on", "a"]
    alphabet = "abcdef "

    identical = ["the cat sat on the mat", "a dog ran"]
    identities = (
        bleu(identical, identical) == pytest.approx(100.0)
        and segment_bleu("x y z", "x y z") == pytest.approx(100.0)
        and bleu(["aa bb"], ["cc dd"]) == 0.0
        and chrf("guten Tag", "guten Tag") == pytest.approx(100.0)
        and chrf("aaa", "bbb") == 0.0
    )

    worst = 0.0
    for _ in range(50):
        hyp = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, 12)))
        ref = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, 12)))
        worst = max(worst, abs(bleu([hyp], [ref]) - corpus_bleu_oracle([hyp], [ref])))
        worst = max(worst, abs(segment_bleu(hyp, ref) - segment_bleu_oracle(hyp, ref)))
        hyp_chars = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 25)))
        ref_chars = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 25)))
        worst = max(worst, abs(chrf(hyp_chars, ref_chars) - chrf_oracle(hyp_chars, ref_chars)))
    check(
        11,
        f"BLEU/chrF identities and oracle agreement (max |diff| {worst:.2e})",
        identities and worst <= 1e-9,
    )
