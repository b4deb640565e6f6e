"""Fine-tuning objective and training loop for the toy sequence scorer.

The objective combines a cross-entropy term (keep scoring the reference well
given the source) with a bidirectional pairwise ranking term: a margin hinge
asks the scorer to rank the better translation above the worse one, both when
scoring translations given the reference (forward) and when reconstructing
the reference from either translation (backward). Every term can be toggled
off for ablations.

The optimizer is plain batch SGD with a fixed learning rate: the scorer has
three parameters, and SGD keeps the analytic-gradient check and the
determinism contract trivial. Batches alternate between language pairs in
round-robin order, upsampling smaller pairs by seed-deterministic resampling
with replacement until the largest pair has completed its pass.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .corpus import EvaluationSet
from .metrics import (
    ToyScorer,
    score_magnitude,
    sequence_score,
    tokenize,
)
from .rankings import RankingDataset, RelativeRanking

PROBE_LIMIT = 100


class TrainingError(Exception):
    """Invalid training configuration or unusable training data."""


class NumericError(TrainingError):
    """Training produced a non-finite loss."""


@dataclass
class TrainingConfig:
    """Hyperparameters and ablation toggles for fine-tuning."""

    epsilon: float = 0.1
    alpha: float = 0.1
    learning_rate: float = 1e-4
    epochs: int = 1
    batch_size: int = 32
    seed: int = 0
    enable_ce: bool = True
    enable_forward: bool = True
    enable_backward: bool = True
    lowercase: bool = False

    def __post_init__(self):
        for name in ("epsilon", "alpha", "learning_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise TrainingError(f"{name} must be finite and nonnegative, got {value}")
        if self.epochs < 1:
            raise TrainingError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise TrainingError(f"batch_size must be at least 1, got {self.batch_size}")
        if not (self.enable_ce or self.enable_forward or self.enable_backward):
            raise TrainingError("at least one loss term must be enabled")


def _hinge(margin: float, better_score: float, worse_score: float) -> float:
    value = margin - better_score + worse_score
    if math.isnan(value):  # max(0.0, nan) would silently hide broken scores
        return value
    return max(0.0, value)


@dataclass(frozen=True)
class LossTerms:
    """Per-term loss values for one example, disabled terms zero, and the
    exact gradient of ``total`` w.r.t. the scorer weights."""

    ce: float
    forward: float
    backward: float
    total: float
    gradient: np.ndarray = field(compare=False)


def _score_with_gradient(
    scorer: ToyScorer, target: Sequence[str], context: Sequence[str]
) -> tuple[float, np.ndarray]:
    """``sequence_score`` and its gradient, from one scoring pass."""
    logprobs, gradients = scorer.token_logprob_gradients(target, context)
    return math.fsum(logprobs) / len(logprobs), gradients.mean(axis=0)


def loss_terms(scorer, example: RelativeRanking, config: TrainingConfig) -> LossTerms:
    """All loss terms of the combined objective for one ranking example and
    the gradient of their total, scoring each enabled sequence once.

    A hinge whose margin is met contributes its subgradient 0, so the
    zero-loss region is genuinely flat. A NaN hinge adds no gradient but
    makes ``total`` NaN, which ``train`` refuses.
    """
    source = tokenize(example.src, config.lowercase)
    reference = tokenize(example.ref, config.lowercase)
    better = tokenize(example.sys_plus, config.lowercase)
    worse = tokenize(example.sys_minus, config.lowercase)

    ce = forward = backward = 0.0
    grad = np.zeros(len(ToyScorer.FEATURE_NAMES))
    if config.enable_ce:
        score, ce_grad = _score_with_gradient(scorer, reference, source)
        ce = -score
        grad += config.alpha * -ce_grad
    if config.enable_forward:
        better_score, better_grad = _score_with_gradient(scorer, better, reference)
        worse_score, worse_grad = _score_with_gradient(scorer, worse, reference)
        forward = _hinge(config.epsilon, better_score, worse_score)
        if forward > 0.0:
            grad += 0.5 * (worse_grad - better_grad)
    if config.enable_backward:
        better_score, better_grad = _score_with_gradient(scorer, reference, better)
        worse_score, worse_grad = _score_with_gradient(scorer, reference, worse)
        backward = _hinge(config.epsilon, better_score, worse_score)
        if backward > 0.0:
            grad += 0.5 * (worse_grad - better_grad)
    total = config.alpha * ce + 0.5 * forward + 0.5 * backward
    return LossTerms(
        ce=ce, forward=forward, backward=backward, total=total, gradient=grad
    )


def combined_loss(scorer, example: RelativeRanking, config: TrainingConfig) -> float:
    """Weighted sum of the enabled loss terms; always >= 0."""
    return loss_terms(scorer, example, config).total


def gradient(
    scorer: ToyScorer, example: RelativeRanking, config: TrainingConfig
) -> np.ndarray:
    """Exact gradient of the combined loss w.r.t. the scorer weights; a view
    of ``loss_terms``."""
    return loss_terms(scorer, example, config).gradient


def ranking_accuracy(
    scorer,
    examples: Sequence[RelativeRanking],
    direction: str = "forward",
    lowercase: bool = False,
) -> float | None:
    """Fraction of pairs the scorer ranks like the human preference.

    ``forward`` compares the translations given the reference, ``backward``
    compares reconstructing the reference from each translation. Ties count
    as incorrect. None when there are no examples.
    """
    if not examples:
        return None
    correct = 0
    for example in examples:
        reference = tokenize(example.ref, lowercase)
        better = tokenize(example.sys_plus, lowercase)
        worse = tokenize(example.sys_minus, lowercase)
        if direction == "forward":
            better_score = sequence_score(scorer, better, reference)
            worse_score = sequence_score(scorer, worse, reference)
        elif direction == "backward":
            better_score = sequence_score(scorer, reference, better)
            worse_score = sequence_score(scorer, reference, worse)
        else:
            raise ValueError(f"unknown direction: {direction!r}")
        if better_score > worse_score:
            correct += 1
    return correct / len(examples)


@dataclass(frozen=True)
class StepRecord:
    step: int
    epoch: int
    lang_pair: str
    batch_size: int
    loss_total: float
    loss_ce: float
    loss_forward: float
    loss_backward: float


@dataclass(frozen=True)
class EpochValidation:
    epoch: int
    forward_accuracy: float | None
    backward_accuracy: float | None


@dataclass
class TrainingReport:
    """Loss traces, validation accuracy per epoch and the score magnitude probe."""

    seed: int
    steps: list[StepRecord] = field(default_factory=list)
    validation: list[EpochValidation] = field(default_factory=list)
    final_score_magnitude: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _probe_pairs(
    corpus: EvaluationSet | None, datasets: Mapping[str, RankingDataset]
) -> list[tuple[str, str]]:
    """(source, reference) pairs used for the score-magnitude probe."""
    pairs: list[tuple[str, str]] = []
    if corpus is not None:
        for seg_id in corpus.seg_ids():
            reference = corpus.standard_reference(seg_id)
            if reference is None:
                continue
            pairs.append((corpus.segments[seg_id].source_text, reference.text))
            if len(pairs) >= PROBE_LIMIT:
                return pairs
        return pairs
    for lang_pair in sorted(datasets):
        for example in datasets[lang_pair].validation:
            pairs.append((example.src, example.ref))
            if len(pairs) >= PROBE_LIMIT:
                return pairs
    return pairs


def train(
    scorer: ToyScorer,
    datasets: Mapping[str, RankingDataset],
    corpus: EvaluationSet | None = None,
    config: TrainingConfig | None = None,
) -> tuple[ToyScorer, TrainingReport]:
    """Fine-tune a scorer on relative rankings, one dataset per language pair.

    Plain SGD on the combined loss. Within each epoch the largest language
    pair makes a single sequential pass over its (seed-shuffled) training
    split; in every round each pair contributes one batch, smaller pairs
    topping up exhausted data by resampling with replacement. Identical seeds
    give bit-identical weights and reports.
    """
    if config is None:
        config = TrainingConfig()
    pairs = sorted(lp for lp, dataset in datasets.items() if dataset.train)
    if not pairs:
        raise TrainingError("no language pair has a nonempty training split")

    trained = scorer.with_theta(scorer.theta)
    rng = random.Random(config.seed)
    report = TrainingReport(seed=config.seed)
    max_len = max(len(datasets[lp].train) for lp in pairs)
    rounds = math.ceil(max_len / config.batch_size)
    validation_pool = [
        example for lp in sorted(datasets) for example in datasets[lp].validation
    ]

    step = 0
    for epoch in range(config.epochs):
        shuffled: dict[str, list[RelativeRanking]] = {}
        for lang_pair in pairs:
            items = list(datasets[lang_pair].train)
            rng.shuffle(items)
            shuffled[lang_pair] = items
        positions = {lang_pair: 0 for lang_pair in pairs}

        for _ in range(rounds):
            for lang_pair in pairs:
                items = shuffled[lang_pair]
                start = positions[lang_pair]
                batch = items[start : start + config.batch_size]
                positions[lang_pair] = start + len(batch)
                if len(batch) < config.batch_size and len(items) < max_len:
                    batch = batch + rng.choices(
                        items, k=config.batch_size - len(batch)
                    )
                if not batch:
                    continue

                batch_grad = np.zeros_like(trained.theta)
                ce_sum = forward_sum = backward_sum = total_sum = 0.0
                for example in batch:
                    terms = loss_terms(trained, example, config)
                    batch_grad += terms.gradient
                    ce_sum += terms.ce
                    forward_sum += terms.forward
                    backward_sum += terms.backward
                    total_sum += terms.total
                size = len(batch)
                mean_total = total_sum / size
                if not math.isfinite(mean_total):
                    raise NumericError(
                        f"non-finite loss at step {step} "
                        f"(epoch {epoch}, lang_pair {lang_pair})"
                    )
                trained.theta -= config.learning_rate * (batch_grad / size)
                report.steps.append(
                    StepRecord(
                        step=step,
                        epoch=epoch,
                        lang_pair=lang_pair,
                        batch_size=size,
                        loss_total=mean_total,
                        loss_ce=ce_sum / size,
                        loss_forward=forward_sum / size,
                        loss_backward=backward_sum / size,
                    )
                )
                step += 1

        report.validation.append(
            EpochValidation(
                epoch=epoch,
                forward_accuracy=ranking_accuracy(
                    trained, validation_pool, "forward", config.lowercase
                ),
                backward_accuracy=ranking_accuracy(
                    trained, validation_pool, "backward", config.lowercase
                ),
            )
        )

    probe = _probe_pairs(corpus, datasets)
    if probe:
        probe_scores = [
            sequence_score(
                trained,
                tokenize(reference, config.lowercase),
                tokenize(source, config.lowercase),
            )
            for source, reference in probe
        ]
        report.final_score_magnitude = score_magnitude(probe_scores)
    return trained, report
