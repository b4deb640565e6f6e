"""Tests for the fine-tuning objective, gradients and the training loop."""

import dataclasses
import functools
import itertools
import math
import random
import types

import numpy as np
import pytest

from conftest import (
    FlatScorer,
    TableScorer,
    backward_ranking_loss,
    central_difference_gradient,
    combined_loss,
    cross_entropy_loss,
    forward_ranking_loss,
    load_tiny_corpus,
    loss_terms_oracle,
    scored_loss_terms_oracle,
    separable_ranking_examples,
    train_oracle,
)
from metricfit import training
from metricfit.metrics import ToyScorer, sequence_score, tokenize
from metricfit.rankings import RelativeRanking, split_holdout
from metricfit.training import (
    NumericError,
    TrainingConfig,
    TrainingError,
    batch_loss_terms,
    gradient,
    loss_terms,
    ranking_accuracy,
    train,
)


def _example(src="s1 s2", ref="r1 r2", plus="p1 p2", minus="m1 m2"):
    return RelativeRanking(
        lang_pair="xx-yy",
        seg_id="seg",
        annotator_id="ann",
        src=src,
        ref=ref,
        sys_plus=plus,
        sys_minus=minus,
        score_delta=1.0,
    )


def test_config_validation():
    with pytest.raises(TrainingError):
        TrainingConfig(epsilon=-0.1)
    with pytest.raises(TrainingError):
        TrainingConfig(alpha=-1.0)
    with pytest.raises(TrainingError):
        TrainingConfig(epochs=0)
    with pytest.raises(TrainingError):
        TrainingConfig(batch_size=0)
    with pytest.raises(TrainingError):
        TrainingConfig(enable_ce=False, enable_forward=False, enable_backward=False)
    for name in ("epsilon", "alpha", "learning_rate"):
        for value in (-1.0, math.nan, math.inf):
            with pytest.raises(TrainingError, match=name):
                TrainingConfig(**{name: value})
    assert TrainingConfig(learning_rate=0.0).learning_rate == 0.0


# Only ce, only forward, or only backward.
_CE_ONLY = TrainingConfig(enable_forward=False, enable_backward=False)
_FORWARD_ONLY = TrainingConfig(epsilon=0.1, enable_ce=False, enable_backward=False)
_BACKWARD_ONLY = TrainingConfig(epsilon=0.1, enable_ce=False, enable_forward=False)


def test_cross_entropy_uniform_vocab_of_four():
    scorer = FlatScorer(math.log2(0.25))
    assert cross_entropy_loss(scorer, ("x",), ("r", "e", "f")) == pytest.approx(2.0)
    terms = loss_terms(scorer, _example(src="x", ref="r e f"), _CE_ONLY)
    assert terms.ce == pytest.approx(2.0)


def test_cross_entropy_perfect_scorer_is_zero():
    scorer = FlatScorer(0.0)
    assert cross_entropy_loss(scorer, ("x",), ("r",)) == 0.0
    assert loss_terms(scorer, _example(src="x", ref="r"), _CE_ONLY).ce == 0.0


def test_cross_entropy_equals_negated_sequence_score():
    scorer = ToyScorer.from_texts(["r1 r2 r3", "s1 s2"], theta=(0.3, 0.8, -0.2))
    src, ref = ("s1", "s2"), ("r1", "r2", "r3")
    assert cross_entropy_loss(scorer, src, ref) == pytest.approx(
        -sequence_score(scorer, ref, src)
    )
    terms = loss_terms(scorer, _example(src="s1 s2", ref="r1 r2 r3"), _CE_ONLY)
    assert terms.ce == cross_entropy_loss(scorer, src, ref)


def _pair_scorer(s_plus, s_minus, direction="forward"):
    ref, plus, minus = ("ref",), ("plus",), ("minus",)
    if direction == "forward":
        table = {(plus, ref): s_plus, (minus, ref): s_minus}
    else:
        table = {(ref, plus): s_plus, (ref, minus): s_minus}
    return TableScorer(table), ref, plus, minus


_PAIR_EXAMPLE = _example(src="src", ref="ref", plus="plus", minus="minus")


def test_forward_margin_satisfied():
    scorer, ref, plus, minus = _pair_scorer(-1.0, -1.2)
    assert forward_ranking_loss(scorer, ref, plus, minus, 0.1) == 0.0
    assert loss_terms(scorer, _PAIR_EXAMPLE, _FORWARD_ONLY).forward == 0.0


def test_forward_equal_scores():
    scorer, ref, plus, minus = _pair_scorer(-1.0, -1.0)
    assert forward_ranking_loss(scorer, ref, plus, minus, 0.1) == pytest.approx(0.1)
    terms = loss_terms(scorer, _PAIR_EXAMPLE, _FORWARD_ONLY)
    assert terms.forward == pytest.approx(0.1)


def test_forward_violation():
    scorer, ref, plus, minus = _pair_scorer(-1.0, -0.95)
    assert forward_ranking_loss(scorer, ref, plus, minus, 0.1) == pytest.approx(0.15)
    terms = loss_terms(scorer, _PAIR_EXAMPLE, _FORWARD_ONLY)
    assert terms.forward == pytest.approx(0.15)


def test_backward_margin_satisfied():
    scorer, ref, plus, minus = _pair_scorer(-1.0, -1.2, direction="backward")
    assert backward_ranking_loss(scorer, ref, plus, minus, 0.1) == 0.0
    assert loss_terms(scorer, _PAIR_EXAMPLE, _BACKWARD_ONLY).backward == 0.0


def test_backward_equal_scores():
    scorer, ref, plus, minus = _pair_scorer(-2.0, -2.0, direction="backward")
    assert backward_ranking_loss(scorer, ref, plus, minus, 0.1) == pytest.approx(0.1)
    terms = loss_terms(scorer, _PAIR_EXAMPLE, _BACKWARD_ONLY)
    assert terms.backward == pytest.approx(0.1)


def test_backward_violation_of_half():
    scorer, ref, plus, minus = _pair_scorer(-1.5, -1.0, direction="backward")
    assert backward_ranking_loss(scorer, ref, plus, minus, 0.1) == pytest.approx(0.6)
    terms = loss_terms(scorer, _PAIR_EXAMPLE, _BACKWARD_ONLY)
    assert terms.backward == pytest.approx(0.6)


def _combined_fixture():
    # S(ref|src) = -2.0 -> ce 2.0; forward scores gap 0.2 -> hinge 0.3;
    # backward scores equal -> hinge 0.1.
    src, ref, plus, minus = ("src",), ("ref",), ("plus",), ("minus",)
    scorer = TableScorer(
        {
            (ref, src): -2.0,
            (plus, ref): -1.0,
            (minus, ref): -0.8,
            (ref, plus): -1.5,
            (ref, minus): -1.5,
        }
    )
    example = _example(src="src", ref="ref", plus="plus", minus="minus")
    return scorer, example


def test_combined_loss_weighted_sum():
    scorer, example = _combined_fixture()
    config = TrainingConfig(alpha=0.1, epsilon=0.1)
    terms = loss_terms(scorer, example, config)
    assert terms.ce == pytest.approx(2.0)
    assert terms.forward == pytest.approx(0.3)
    assert terms.backward == pytest.approx(0.1)
    assert terms.total == pytest.approx(0.4)
    assert combined_loss(scorer, example, config) == pytest.approx(0.4)


def test_combined_loss_all_terms_zero():
    src, ref, plus, minus = ("src",), ("ref",), ("plus",), ("minus",)
    scorer = TableScorer(
        {
            (ref, src): 0.0,
            (plus, ref): -0.5,
            (minus, ref): -1.0,
            (ref, plus): -0.5,
            (ref, minus): -1.0,
        }
    )
    example = _example(src="src", ref="ref", plus="plus", minus="minus")
    assert combined_loss(scorer, example, TrainingConfig()) == 0.0
    assert loss_terms(scorer, example, TrainingConfig()).total == 0.0


def test_combined_loss_ce_disabled():
    scorer, example = _combined_fixture()
    config = TrainingConfig(alpha=0.1, epsilon=0.1, enable_ce=False)
    assert combined_loss(scorer, example, config) == pytest.approx(0.2)
    assert loss_terms(scorer, example, config).total == pytest.approx(0.2)


def test_combined_loss_monotone_in_terms():
    base_scorer, example = _combined_fixture()
    config = TrainingConfig()
    base = combined_loss(base_scorer, example, config)
    worse_forward = TableScorer(
        {
            (("ref",), ("src",)): -2.0,
            (("plus",), ("ref",)): -1.0,
            (("minus",), ("ref",)): -0.5,
            (("ref",), ("plus",)): -1.5,
            (("ref",), ("minus",)): -1.5,
        }
    )
    assert combined_loss(worse_forward, example, config) > base
    assert (
        loss_terms(worse_forward, example, config).total
        > loss_terms(base_scorer, example, config).total
    )


def _training_scorer():
    _, texts = separable_ranking_examples(60, seed=2)
    return ToyScorer.from_texts(texts)


def test_gradient_zero_on_flat_region():
    examples, texts = separable_ranking_examples(5, seed=8)
    scorer = ToyScorer.from_texts(texts, theta=(6.0, 0.0, 0.0))
    config = TrainingConfig(enable_ce=False)
    for example in examples:
        assert combined_loss(scorer, example, config) == 0.0
        assert loss_terms(scorer, example, config).total == 0.0
        assert np.array_equal(gradient(scorer, example, config), np.zeros(3))


def test_hinge_flatness_under_perturbation():
    examples, texts = separable_ranking_examples(3, seed=8)
    config = TrainingConfig(enable_ce=False)
    rng = random.Random(4)
    for _ in range(10):
        theta = (6.0 + rng.uniform(-0.2, 0.2), rng.uniform(-0.1, 0.1),
                 rng.uniform(-0.1, 0.1))
        scorer = ToyScorer.from_texts(texts, theta=theta)
        for example in examples:
            assert combined_loss(scorer, example, config) == 0.0
            assert loss_terms(scorer, example, config).total == 0.0


ABLATION_CONFIGS = [
    dict(enable_ce=True, enable_forward=True, enable_backward=True),
    dict(enable_ce=False, enable_forward=True, enable_backward=True),
    dict(enable_ce=True, enable_forward=False, enable_backward=True),
    dict(enable_ce=True, enable_forward=True, enable_backward=False),
    dict(enable_ce=True, enable_forward=False, enable_backward=False),
    dict(enable_ce=False, enable_forward=True, enable_backward=False),
    dict(enable_ce=False, enable_forward=False, enable_backward=True),
]


def margin_values(scorer, example, config):
    """Signed margin slack of both ranking hinges at the current weights."""
    reference = tokenize(example.ref)
    better = tokenize(example.sys_plus)
    worse = tokenize(example.sys_minus)
    values = []
    if config.enable_forward:
        values.append(
            config.epsilon
            - sequence_score(scorer, better, reference)
            + sequence_score(scorer, worse, reference)
        )
    if config.enable_backward:
        values.append(
            config.epsilon
            - sequence_score(scorer, reference, better)
            + sequence_score(scorer, reference, worse)
        )
    return values


def assert_gradient_matches(analytic, numeric, rel=1e-4, floor=1e-8):
    # The absolute floor covers coordinates below the resolution of central
    # differences, where a relative bound is meaningless.
    for a, n in zip(analytic, numeric):
        difference = abs(a - n)
        if difference < floor:
            continue
        assert difference / max(abs(a), abs(n)) < rel, (analytic, numeric)


def random_gradient_draw(rng, words):
    def text():
        return " ".join(rng.choice(words) for _ in range(rng.randint(1, 4)))

    example = _example(src=text(), ref=text(), plus=text(), minus=text())
    theta = tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
    return example, theta


def test_gradient_matches_finite_differences():
    rng = random.Random(20)
    base = _training_scorer()
    words = [f"gut{i}" for i in range(12)] + [f"schlecht{i}" for i in range(6)]
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 2000:
        attempts += 1
        example, theta = random_gradient_draw(rng, words)
        config = TrainingConfig(**ABLATION_CONFIGS[checked % len(ABLATION_CONFIGS)])
        scorer = base.with_theta(theta)
        # Keep away from the hinge kink, where the loss is not differentiable.
        if any(abs(v) < 1e-3 for v in margin_values(scorer, example, config)):
            continue
        analytic = gradient(scorer, example, config)
        numeric = central_difference_gradient(
            lambda th: combined_loss(base.with_theta(th), example, config),
            theta,
            step=1e-5,
        )
        assert_gradient_matches(analytic, numeric)
        checked += 1
    assert checked == 100


def test_gradient_scaled_weights_still_match():
    rng = random.Random(21)
    base = _training_scorer()
    words = [f"gut{i}" for i in range(12)]
    example, theta = random_gradient_draw(rng, words)
    config = TrainingConfig()
    for scale in (0.5, 2.0, 3.0):
        scaled = tuple(scale * value for value in theta)
        scorer = base.with_theta(scaled)
        if any(abs(v) < 1e-3 for v in margin_values(scorer, example, config)):
            continue
        analytic = gradient(scorer, example, config)
        numeric = central_difference_gradient(
            lambda th: combined_loss(base.with_theta(th), example, config),
            scaled,
            step=1e-5,
        )
        assert_gradient_matches(analytic, numeric)


def test_fused_loss_terms_match_two_pass_oracle():
    rng = random.Random(23)
    base = _training_scorer()
    words = [f"gut{i}" for i in range(12)] + [f"schlecht{i}" for i in range(6)]
    extreme = list(itertools.product((-50.0, 50.0), repeat=3))
    hinges = set()
    for _ in range(10):
        example, theta = random_gradient_draw(rng, words)
        for weights in [theta] + extreme:
            scorer = base.with_theta(weights)
            for ablation in ABLATION_CONFIGS:
                config = TrainingConfig(**ablation)
                terms = loss_terms(scorer, example, config)
                values, grad = loss_terms_oracle(scorer, example, config)
                assert (terms.ce, terms.forward, terms.backward, terms.total) == values
                assert np.array_equal(terms.gradient, grad)
                assert np.array_equal(gradient(scorer, example, config), grad)
                assert combined_loss(scorer, example, config) == values[3]
                if config.enable_forward and config.enable_backward:
                    hinges.update(value > 0.0 for value in values[1:3])
    assert hinges == {True, False}  # both the active and the flat branch ran


class _GradientTableScorer(TableScorer):
    """``TableScorer`` with a fixed gradient per (target, context) pair too."""

    def __init__(self, table: dict, gradients: dict):
        super().__init__(table)
        self.gradients = gradients

    def score_batch(self, pairs, with_gradients):
        keys = [(tuple(target), tuple(context)) for target, context in pairs]
        scores = np.array([self.table[key] for key in keys], np.float64)
        return scores, np.reshape([self.gradients[key] for key in keys], (-1, 3))


def _hex_terms(values, grad):
    return [float(value).hex() for value in (*values, *grad)]


# Scores and gradient components beyond the finite: NaN, +-inf and -0.0.
_SPECIAL_SCORES = [math.nan, math.inf, -math.inf, -0.0, 0.0, -0.5, -0.4, -3.25]
_SPECIAL_GRADIENTS = [math.nan, math.inf, -math.inf, -0.0]


@pytest.mark.parametrize(
    "ablation", ABLATION_CONFIGS, ids=lambda a: "-".join(k[7:] for k in a if a[k])
)
def test_batch_loss_terms_match_the_scalar_oracle_on_special_scores(ablation):
    """The array kernel gives each example the bits of the scalar loop:
    NaN and infinite scores and gradients, signed zeros and a hinge exactly
    at its margin (scores -0.4 and -0.5 at epsilon 0.1) included."""
    rng = random.Random(31)
    config = TrainingConfig(**ablation)
    examples, table, gradients = [], {}, {}
    for i in range(80):
        example = _example(src=f"s{i}", ref=f"r{i}", plus=f"p{i}", minus=f"m{i}")
        examples.append(example)
        at_margin = i < 4  # better -0.4, worse -0.5
        for j, pair in enumerate(_enabled_pairs(example, TrainingConfig())):
            key = tuple(map(tuple, pair))
            if at_margin and j:
                table[key] = -0.4 if j % 2 else -0.5
            else:
                table[key] = rng.choice(_SPECIAL_SCORES)
            gradients[key] = np.array(
                [
                    rng.choice(_SPECIAL_GRADIENTS)
                    if rng.random() < 0.1
                    else rng.uniform(-2.0, 2.0)
                    for _ in range(3)
                ]
            )
    scorer = _GradientTableScorer(table, gradients)
    assert batch_loss_terms(scorer, [], config) == []
    terms = batch_loss_terms(scorer, examples, config)
    assert len(terms) == len(examples)

    seen = set()
    for example, term in zip(examples, terms):
        scored = scorer.score_batch(_enabled_pairs(example, config), True)
        with np.errstate(invalid="ignore", over="ignore"):
            values, grad = scored_loss_terms_oracle(zip(*scored), config)
        fields = (term.ce, term.forward, term.backward, term.total)
        assert all(type(value) is float for value in fields)
        assert _hex_terms(fields, term.gradient) == _hex_terms(values, grad)
        for name, hinge in (("forward", term.forward), ("backward", term.backward)):
            if not getattr(config, f"enable_{name}"):
                continue
            seen.add("nan" if math.isnan(hinge) else hinge > 0.0)
            if math.isnan(hinge):
                assert math.isnan(term.total)
                # the gradient of the other terms alone
                rest = types.SimpleNamespace(
                    **{**vars(config), f"enable_{name}": False}
                )
                kept = scorer.score_batch(_enabled_pairs(example, rest), True)
                with np.errstate(invalid="ignore", over="ignore"):
                    _, without = scored_loss_terms_oracle(zip(*kept), rest)
                assert _hex_terms((), term.gradient) == _hex_terms((), without)
            elif not hinge:
                assert math.copysign(1.0, hinge) == 1.0  # never -0.0
    for term in terms[:4]:  # exactly at the margin: flat
        assert [term.forward, term.backward] == [0.0, 0.0]
    if config.enable_forward or config.enable_backward:
        assert seen == {"nan", True, False}
    for one, other in itertools.pairwise(terms):  # no shared gradient arrays
        assert not np.shares_memory(one.gradient, other.gradient)


def _enabled_pairs(example, config):
    reference = tokenize(example.ref)
    better = tokenize(example.sys_plus)
    worse = tokenize(example.sys_minus)
    pairs = []
    if config.enable_ce:
        pairs.append((reference, tokenize(example.src)))
    if config.enable_forward:
        pairs += [(better, reference), (worse, reference)]
    if config.enable_backward:
        pairs += [(reference, better), (reference, worse)]
    return pairs


@pytest.mark.parametrize("batch_size", [7, 40])
def test_training_scores_each_distinct_pair_of_a_step_once(monkeypatch, batch_size):
    examples, texts = separable_ranking_examples(30, seed=5)
    examples += examples[:10]  # the same ranking twice, as from two annotators
    datasets = {"xx-yy": split_holdout(examples, holdout_size=0, seed=5)}
    config = TrainingConfig(seed=1, epochs=2, batch_size=batch_size)
    scorer = ToyScorer.from_texts(texts)

    # each step's examples, from the oracle, which samples batches as train does
    steps = []
    batch_loss_terms = training.batch_loss_terms

    def spied_terms(scorer, batch, config):
        steps.append(list(batch))
        return batch_loss_terms(scorer, batch, config)

    with monkeypatch.context() as patches:
        patches.setattr(training, "batch_loss_terms", spied_terms)
        train_oracle(scorer, datasets, config=config, batched=True)

    sizes, calls, tables = [], [], []
    loss = training._loss
    compile_pairs, evaluate = ToyScorer._compile, ToyScorer._evaluate

    def spied_loss(scores, gradients, config):
        sizes.append(len(scores))
        return loss(scores, gradients, config)

    def spied_compile(self, pairs):
        table = compile_pairs(self, pairs)
        tables.append((table, list(pairs)))
        return table

    def spied_evaluate(self, table, rows, with_gradients):
        (pairs,) = [pairs for known, pairs in tables if known is table]
        calls.append(([pairs[row] for row in rows], with_gradients))
        return evaluate(self, table, rows, with_gradients)

    monkeypatch.setattr(training, "_loss", spied_loss)
    monkeypatch.setattr(ToyScorer, "_compile", spied_compile)
    monkeypatch.setattr(ToyScorer, "_evaluate", spied_evaluate)
    _, report = train(scorer, datasets, config=config)

    assert report.final_score_magnitude is None  # no validation, no probe
    assert len(calls) == len(steps) == len(sizes) == len(report.steps)
    assert sizes == [len(batch) for batch in steps]
    [(_, compiled)] = tables  # one table per train call, of every pair
    every_pair = {pair for e in examples for pair in _enabled_pairs(e, config)}
    assert len(every_pair) < 5 * len(examples)
    for batch, (pairs, with_gradients) in zip(steps, calls):
        assert with_gradients
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == {p for e in batch for p in _enabled_pairs(e, config)}
    for epoch in (0, 1):
        scored = {
            pair
            for (pairs, _), step in zip(calls, report.steps)
            if step.epoch == epoch
            for pair in pairs
        }
        assert scored == every_pair
    assert set(compiled) == every_pair and len(compiled) == len(every_pair)


def _separable_dataset(n_examples=240, holdout=40, seed=5):
    examples, texts = separable_ranking_examples(n_examples, seed=seed)
    dataset = split_holdout(examples, holdout_size=holdout, seed=seed)
    return {"xx-yy": dataset}, ToyScorer.from_texts(texts)


def test_training_reaches_high_validation_accuracy():
    datasets, scorer = _separable_dataset()
    config = TrainingConfig(seed=13)
    trained, report = train(scorer, datasets, config=config)
    assert report.validation[-1].forward_accuracy >= 0.9
    assert report.validation[-1].backward_accuracy is not None
    assert len(report.steps) == math.ceil(200 / config.batch_size)
    assert all(step.loss_total >= 0 for step in report.steps)


def test_zero_learning_rate_is_a_no_op():
    datasets, scorer = _separable_dataset()
    before = ranking_accuracy(scorer, datasets["xx-yy"].validation, "forward")
    config = TrainingConfig(seed=13, learning_rate=0.0)
    trained, report = train(scorer, datasets, config=config)
    assert np.array_equal(trained.theta, scorer.theta)
    assert report.validation[-1].forward_accuracy == before


def test_training_is_seed_deterministic():
    datasets, scorer = _separable_dataset()
    config = TrainingConfig(seed=29)
    trained_a, report_a = train(scorer, datasets, config=config)
    trained_b, report_b = train(scorer, datasets, config=config)
    assert np.array_equal(trained_a.theta, trained_b.theta)
    assert report_a.to_dict() == report_b.to_dict()


def _two_lang_pair_datasets():
    """A large and a small language pair, so the small one is upsampled."""
    examples, texts = separable_ranking_examples(137, seed=6)
    large = [e._replace(lang_pair="aa-bb") for e in examples[:100]]
    small = [e._replace(lang_pair="cc-dd") for e in examples[100:137]]
    datasets = {
        "aa-bb": split_holdout(large, holdout_size=0, seed=1),
        "cc-dd": split_holdout(small, holdout_size=0, seed=1),
    }
    return datasets, ToyScorer.from_texts(texts)


def test_round_robin_schedule_with_upsampling():
    datasets, scorer = _two_lang_pair_datasets()
    config = TrainingConfig(seed=3, batch_size=32)
    _, report = train(scorer, datasets, config=config)

    sequence = [step.lang_pair for step in report.steps]
    assert sequence == ["aa-bb", "cc-dd"] * 4  # ceil(100/32) rounds, both pairs
    large_sizes = [s.batch_size for s in report.steps if s.lang_pair == "aa-bb"]
    small_sizes = [s.batch_size for s in report.steps if s.lang_pair == "cc-dd"]
    assert large_sizes == [32, 32, 32, 4]  # single pass, final partial batch
    assert small_sizes == [32, 32, 32, 32]  # upsampled by resampling


def _mixed_case_dataset(n_examples=40, holdout=10, seed=5, lowercase=False):
    """Separable examples, some of their words capitalised, with repeats."""
    examples, texts = separable_ranking_examples(n_examples, seed=seed)
    examples = [
        e._replace(ref=e.ref.capitalize(), sys_minus=e.sys_minus.upper())
        if i % 3 == 0
        else e
        for i, e in enumerate(examples)
    ]
    examples += examples[:5]
    dataset = split_holdout(examples, holdout_size=holdout, seed=seed)
    return {"xx-yy": dataset}, ToyScorer.from_texts(texts, lowercase=lowercase)


@pytest.mark.parametrize("batch_size", [1, 7])
@pytest.mark.parametrize("lowercase", [False, True])
@pytest.mark.parametrize(
    "ablation", ABLATION_CONFIGS, ids=lambda a: "-".join(k[7:] for k in a if a[k])
)
def test_batched_training_matches_per_example_oracle(ablation, lowercase, batch_size):
    datasets, scorer = _mixed_case_dataset(lowercase=lowercase)
    config = TrainingConfig(
        seed=3,
        epochs=2,
        batch_size=batch_size,
        epsilon=1.0,  # keeps hinges active past the first steps
        learning_rate=0.5,
        **ablation,
    )
    trained, report = train(scorer, datasets, config=config)
    expected, expected_report = train_oracle(scorer, datasets, config=config)
    assert trained.theta.tobytes() == expected.theta.tobytes()
    assert report.to_dict() == expected_report.to_dict()
    assert not np.array_equal(trained.theta, scorer.theta)


# (make the datasets and scorer, TrainingConfig settings) per case
_STEP_LOOP_CASES = {
    "ce-only": (_mixed_case_dataset, dict(enable_forward=False, enable_backward=False)),
    "forward-only": (_mixed_case_dataset, dict(enable_ce=False, enable_backward=False)),
    "backward-only": (_mixed_case_dataset, dict(enable_ce=False, enable_forward=False)),
    "lowercase": (functools.partial(_mixed_case_dataset, lowercase=True), {}),
    "two-epochs": (_mixed_case_dataset, dict(epochs=2)),
    "upsampled-lang-pair": (_two_lang_pair_datasets, dict(epochs=2)),
    "duplicate-examples": (
        functools.partial(_mixed_case_dataset, n_examples=20, holdout=4),
        dict(batch_size=9),
    ),
}


@pytest.mark.parametrize("case", sorted(_STEP_LOOP_CASES))
def test_compiled_training_matches_the_step_loop_oracle(case):
    """``train`` compiles its pairs once and evaluates each step's rows;
    it gives the bits of calling ``batch_loss_terms`` on every step."""
    make, settings = _STEP_LOOP_CASES[case]
    datasets, scorer = make()
    config = TrainingConfig(
        **{**dict(seed=3, batch_size=7, epsilon=1.0, learning_rate=0.5), **settings}
    )
    if case == "duplicate-examples":
        train_set = datasets["xx-yy"].train
        assert len(set(train_set)) < len(train_set)
    trained, report = train(scorer, datasets, config=config)
    expected, expected_report = train_oracle(
        scorer, datasets, config=config, batched=True
    )
    assert trained.theta.tobytes() == expected.theta.tobytes()
    assert report.to_dict() == expected_report.to_dict()
    assert not np.array_equal(trained.theta, scorer.theta)


def test_training_tokenizes_as_the_scorer_does():
    """A lowercasing scorer trains on mixed-case rankings exactly as on the
    same rankings lowercased beforehand."""
    datasets, scorer = _mixed_case_dataset(lowercase=True)

    def lowered(examples):
        return tuple(
            e._replace(
                src=e.src.lower(), ref=e.ref.lower(),
                sys_plus=e.sys_plus.lower(), sys_minus=e.sys_minus.lower(),
            )
            for e in examples
        )

    lowercased = {
        lang_pair: dataclasses.replace(
            dataset,
            train=lowered(dataset.train),
            validation=lowered(dataset.validation),
        )
        for lang_pair, dataset in datasets.items()
    }
    assert lowercased != datasets
    config = TrainingConfig(
        seed=3, epochs=2, batch_size=7, epsilon=1.0, learning_rate=0.5
    )
    trained, report = train(scorer, datasets, config=config)
    expected, expected_report = train(scorer, lowercased, config=config)
    assert trained.theta.tobytes() == expected.theta.tobytes()
    assert report.to_dict() == expected_report.to_dict()
    assert trained.lowercase


def test_batched_training_matches_oracle_with_upsampling_and_corpus(tmp_path):
    datasets, scorer = _two_lang_pair_datasets()
    corpus = load_tiny_corpus(tmp_path)
    config = TrainingConfig(seed=3, batch_size=32, epochs=2, learning_rate=0.5)
    for probe_corpus in (None, corpus):
        trained, report = train(scorer, datasets, corpus=probe_corpus, config=config)
        expected, expected_report = train_oracle(
            scorer, datasets, corpus=probe_corpus, config=config
        )
        assert trained.theta.tobytes() == expected.theta.tobytes()
        assert report.to_dict() == expected_report.to_dict()
    assert report.final_score_magnitude is not None


def test_ranking_accuracy_checks_direction_before_examples():
    datasets, scorer = _separable_dataset(20, holdout=5)
    for examples in ([], datasets["xx-yy"].validation):
        with pytest.raises(ValueError, match="sideways"):
            ranking_accuracy(scorer, examples, "sideways")
    assert ranking_accuracy(scorer, [], "forward") is None
    assert ranking_accuracy(scorer, [], "backward") is None


def test_training_requires_data():
    _, scorer = _separable_dataset(10, holdout=0)
    with pytest.raises(TrainingError):
        train(scorer, {"xx-yy": split_holdout([], holdout_size=0, seed=1)})


def test_non_finite_loss_aborts():
    datasets, scorer = _separable_dataset(40, holdout=0)
    bad = scorer.with_theta((float("inf"), 0.0, 0.0))
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        train(bad, datasets, config=TrainingConfig(seed=1))


@pytest.mark.parametrize(
    "theta",
    [(0.0, -math.inf, 0.0), (0.0, 0.0, math.inf), (math.nan, 1.0, 1.0)],
    ids=repr,
)
def test_non_finite_weight_aborts_training_at_its_first_step(theta):
    datasets, scorer = _separable_dataset(40, holdout=0)
    with pytest.raises(NumericError, match="non-finite loss at step 0"):
        train(scorer.with_theta(theta), datasets, config=TrainingConfig(seed=1))


def test_disabling_ce_drops_probe_score_magnitude():
    datasets, scorer = _separable_dataset()
    with_ce = TrainingConfig(seed=7, learning_rate=0.5)
    without_ce = TrainingConfig(seed=7, learning_rate=0.5, enable_ce=False)
    _, report_with = train(scorer, datasets, config=with_ce)
    _, report_without = train(scorer, datasets, config=without_ce)
    assert report_with.final_score_magnitude is not None
    assert report_without.final_score_magnitude is not None
    assert report_with.final_score_magnitude > report_without.final_score_magnitude


def test_probe_uses_corpus_when_given(tmp_path):
    corpus = load_tiny_corpus(tmp_path)
    datasets, scorer = _separable_dataset(40, holdout=10)
    _, report = train(scorer, datasets, corpus=corpus, config=TrainingConfig(seed=1))
    assert 0.0 < report.final_score_magnitude <= 1.0
