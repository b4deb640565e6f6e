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
from .metrics import ToyScorer, _Table, score_magnitude, tokenize
from .rankings import RankingDataset, RelativeRanking

PROBE_LIMIT = 100


class TrainingError(Exception):
    """Invalid training configuration or unusable training data."""


class NumericError(TrainingError):
    """Training produced a non-finite loss term or score magnitude."""


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


@dataclass(frozen=True)
class LossTerms:
    """Per-term loss values for one example, disabled terms zero, and the
    exact gradient of ``total`` w.r.t. the scorer weights."""

    ce: float
    forward: float
    backward: float
    total: float
    gradient: np.ndarray = field(compare=False)


def _tokenized(
    examples: Sequence[RelativeRanking], lowercase: bool
) -> dict[str, tuple[str, ...]]:
    """Each distinct text of the examples, tokenized once."""
    texts = dict.fromkeys(
        text for e in examples for text in (e.src, e.ref, e.sys_plus, e.sys_minus)
    )
    return {text: tokenize(text, lowercase) for text in texts}


def _example_pairs(
    example: RelativeRanking, config: TrainingConfig, tokens: Mapping[str, tuple]
) -> list[tuple[tuple, tuple]]:
    """The example's enabled (target, context) pairs in turn: ce, forward,
    backward; ``tokens`` maps each of its texts to its tokens."""
    reference, better = tokens[example.ref], tokens[example.sys_plus]
    worse = tokens[example.sys_minus]
    pairs = []
    if config.enable_ce:
        pairs.append((reference, tokens[example.src]))
    if config.enable_forward:
        pairs += [(better, reference), (worse, reference)]
    if config.enable_backward:
        pairs += [(reference, better), (reference, worse)]
    return pairs


def _loss(scores, gradients, config: TrainingConfig) -> np.ndarray:
    """One row per example of ce, forward, backward, total and the gradient
    of ``total``, disabled terms zero, from the ``(examples, pairs)`` scores
    and ``(examples, pairs, features)`` gradients of its enabled pairs in
    ``_example_pairs`` order. A hinge whose margin is met adds its
    subgradient 0, so the zero-loss region is genuinely flat; a NaN hinge
    adds no gradient but makes ``total`` NaN, which ``train`` refuses."""
    loss = np.zeros((len(scores), 4 + gradients.shape[-1]))
    ce, forward, backward, total = loss[:, :4].T
    grad = loss[:, 4:]
    column = int(config.enable_ce)
    # NaN and inf are results here (train refuses a non-finite total), and
    # a discarded step may be inf - inf
    with np.errstate(invalid="ignore", over="ignore"):
        if config.enable_ce:
            ce[:] = -scores[:, 0]
            grad += config.alpha * -gradients[:, 0]
        hinges = (forward, config.enable_forward), (backward, config.enable_backward)
        for hinge, enabled in hinges:
            if enabled:
                better, worse = scores[:, column], scores[:, column + 1]
                hinge[:] = np.maximum(0.0, (config.epsilon - better) + worse)
                step = 0.5 * (gradients[:, column + 1] - gradients[:, column])
                grad += np.where(hinge[:, None] > 0.0, step, 0.0)
                column += 2
        total[:] = config.alpha * ce + 0.5 * forward + 0.5 * backward
    return loss


def batch_loss_terms(
    scorer, examples: Sequence[RelativeRanking], config: TrainingConfig
) -> list[LossTerms]:
    """All loss terms of the combined objective for each ranking example and
    the gradient of their total (see ``_loss``), from one ``score_batch``
    call over the enabled (target, context) pairs of the examples. Texts are
    tokenized as the scorer tokenizes them.
    """
    if not examples:
        return []
    tokens = _tokenized(examples, scorer.lowercase)
    pairs = [pair for e in examples for pair in _example_pairs(e, config, tokens)]
    scores, gradients = scorer.score_batch(pairs, with_gradients=True)
    shape = (len(examples), len(pairs) // len(examples), -1)
    loss = _loss(np.reshape(scores, shape[:2]), np.reshape(gradients, shape), config)
    return [LossTerms(*row[:4].tolist(), gradient=row[4:].copy()) for row in loss]


def loss_terms(scorer, example: RelativeRanking, config: TrainingConfig) -> LossTerms:
    """``batch_loss_terms`` of one example."""
    return batch_loss_terms(scorer, [example], config)[0]


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
) -> float | None:
    """Fraction of pairs the scorer ranks like the human preference.

    ``forward`` compares the translations given the reference, ``backward``
    compares reconstructing the reference from each translation, each text
    tokenized as the scorer tokenizes it. Ties count as incorrect. None when
    there are no examples.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction: {direction!r}")
    if not examples:
        return None
    forward = direction == "forward"
    config = TrainingConfig(
        enable_ce=False, enable_forward=forward, enable_backward=not forward
    )
    tokens = _tokenized(examples, scorer.lowercase)
    pairs = [pair for e in examples for pair in _example_pairs(e, config, tokens)]
    scores, _ = scorer.score_batch(pairs, with_gradients=False)
    return np.count_nonzero(scores[::2] > scores[1::2]) / len(examples)


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


def _compile_examples(
    scorer: ToyScorer,
    datasets: Mapping[str, RankingDataset],
    lang_pairs: Sequence[str],
    config: TrainingConfig,
) -> tuple[_Table, dict[str, np.ndarray]]:
    """The scorer's table of the distinct enabled pairs of every training
    example, and per language pair the table rows of each training
    example's enabled pairs, one example per row of an array, as
    ``_example_pairs`` lists them."""
    tokens = _tokenized(
        [e for lp in lang_pairs for e in datasets[lp].train], scorer.lowercase
    )
    index: dict[tuple, int] = {}  # each distinct pair's row

    def rows(example):
        pairs = _example_pairs(example, config, tokens)
        return [index.setdefault(pair, len(index)) for pair in pairs]

    example_rows = {
        lp: np.array([rows(e) for e in datasets[lp].train], np.int32)
        for lp in lang_pairs
    }
    return scorer._compile(list(index)), example_rows


# an overflow gives inf or NaN, which the loss and magnitude checks refuse
@np.errstate(over="ignore", invalid="ignore")
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
    topping up exhausted data by resampling with replacement. Texts are
    tokenized as the scorer tokenizes them (``scorer.lowercase``), so the
    trained scorer scores as it was trained. The scorer compiles the
    training pairs once per call (``ToyScorer._compile``), and each step
    evaluates its distinct pairs under the current weights. Identical seeds
    give bit-identical weights and reports.
    """
    if config is None:
        config = TrainingConfig()
    pairs = sorted(lp for lp, dataset in datasets.items() if dataset.train)
    if not pairs:
        raise TrainingError("no language pair has a nonempty training split")

    trained = scorer.with_theta(scorer.theta)
    table, example_rows = _compile_examples(trained, datasets, pairs, config)
    rng = random.Random(config.seed)
    report = TrainingReport(seed=config.seed)
    max_len = max(len(datasets[lp].train) for lp in pairs)
    rounds = math.ceil(max_len / config.batch_size)
    validation_pool = [
        example for lp in sorted(datasets) for example in datasets[lp].validation
    ]

    for epoch in range(config.epochs):
        shuffled: dict[str, list[int]] = {}  # example indices
        for lang_pair in pairs:
            items = list(range(len(datasets[lang_pair].train)))
            rng.shuffle(items)
            shuffled[lang_pair] = items

        for r in range(rounds):
            for lang_pair in pairs:
                items = shuffled[lang_pair]
                batch = items[r * config.batch_size : (r + 1) * config.batch_size]
                if len(batch) < config.batch_size and len(items) < max_len:
                    batch += rng.choices(items, k=config.batch_size - len(batch))
                if not batch:
                    continue

                scored = trained._scores(table, example_rows[lang_pair][batch], True)
                loss = _loss(*scored, config)
                # summed over the examples in turn from 0.0, as += would sum
                zero = np.zeros((1, loss.shape[1]))
                mean = np.cumsum(np.vstack([zero, loss]), axis=0)[-1] / len(batch)
                ce, forward, backward, total = terms = mean[:4].tolist()
                step = len(report.steps)
                if not all(map(math.isfinite, terms)):
                    raise NumericError(
                        f"non-finite loss at step {step} "
                        f"(epoch {epoch}, lang_pair {lang_pair})"
                    )
                trained.theta -= config.learning_rate * mean[4:]
                report.steps.append(
                    StepRecord(
                        step=step,
                        epoch=epoch,
                        lang_pair=lang_pair,
                        batch_size=len(batch),
                        loss_total=total,
                        loss_ce=ce,
                        loss_forward=forward,
                        loss_backward=backward,
                    )
                )

        report.validation.append(
            EpochValidation(
                epoch=epoch,
                forward_accuracy=ranking_accuracy(trained, validation_pool, "forward"),
                backward_accuracy=ranking_accuracy(
                    trained, validation_pool, "backward"
                ),
            )
        )

    probe = _probe_pairs(corpus, datasets)
    if probe:
        lowercase = trained.lowercase
        probe_pairs = [
            (tokenize(reference, lowercase), tokenize(source, lowercase))
            for source, reference in probe
        ]
        scores, _ = trained.score_batch(probe_pairs, False)
        report.final_score_magnitude = score_magnitude(scores.tolist())
        if not math.isfinite(report.final_score_magnitude):
            raise NumericError("non-finite score magnitude of the trained scorer")
    return trained, report
