"""Reference-based metric implementations behind one interface.

The central quantity is the sequence score: the mean base-2 log-probability
a conditional model assigns to a token sequence given a conditioning
sequence, with an end-of-sequence token always appended and scored. Log
base 2 is used throughout so that 2**score converts a score back to an
average per-token probability exactly.

Besides the paraphrase-based score this module provides word n-gram
precision (BLEU) and character n-gram F-score (chrF) baselines, and a small
trainable softmax scorer that stands in for a full translation model at desk
scale.
"""

from __future__ import annotations

import copy
import itertools
import math
import unicodedata
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Protocol, Sequence

import numpy as np

from .artefacts import (
    ArtefactError,
    parse_float,
    read_json,
    read_tsv,
    write_json,
    write_tsv,
)
from .corpus import EvaluationSet

LN2 = math.log(2.0)
_NO_SUCCESSORS = np.empty(0, dtype=np.intp)
_BLOCK_BYTES = 64 * 1024  # per ToyScorer scoring block; see its docstring

EOS_TOKEN = "</s>"
BOS_TOKEN = "<s>"
UNK_TOKEN = "<unk>"

LEVEL_CORPUS = "corpus"
LEVEL_SEGMENT = "segment"

_SCORES_COLUMNS = ["metric_id", "lang_pair", "domain", "system_id", "seg_id", "value"]


def tokenize(text: str, lowercase: bool = False) -> tuple[str, ...]:
    """Whitespace tokenization after NFC normalization."""
    text = unicodedata.normalize("NFC", text)
    if lowercase:
        text = text.lower()
    return tuple(text.split())


class SequenceScorer(Protocol):
    """Conditional model exposing per-token base-2 log-probabilities.

    ``token_logprobs(target, context)`` returns one log-probability per
    target token plus one for the appended end-of-sequence token, so the
    returned list always has ``len(target) + 1`` entries, each <= 0.
    """

    def token_logprobs(
        self, target: Sequence[str], context: Sequence[str]
    ) -> list[float]: ...


def sequence_score(
    scorer: SequenceScorer, target: Sequence[str], context: Sequence[str]
) -> float:
    """Mean per-token base-2 log-probability of target given context.

    The end-of-sequence token counts toward the length, so an empty target
    is well-defined (it scores only the end token). An empty context means
    unconditional scoring. The result is in (-inf, 0].
    """
    logprobs = scorer.token_logprobs(target, context)
    return math.fsum(logprobs) / len(logprobs)


def prism_score(
    scorer: SequenceScorer, candidate: Sequence[str], reference: Sequence[str]
) -> float:
    """Average of both paraphrasing directions between candidate and reference.

    Symmetric in its two sequence arguments by construction.
    """
    forward = sequence_score(scorer, candidate, reference)
    backward = sequence_score(scorer, reference, candidate)
    return 0.5 * forward + 0.5 * backward


class ToyScorer:
    """Tiny featurized conditional language model with analytic gradients.

    The next-token distribution is a softmax over the vocabulary of
    ``theta . f(v)`` with three features per candidate token v:

    * copy indicator: v occurs among the context tokens,
    * base-2 log unigram probability of v under add-one-smoothed training
      counts,
    * bigram indicator: (previous token, v) was seen in training.

    The vocabulary always contains the end-of-sequence and unknown tokens;
    out-of-vocabulary tokens are mapped to the unknown token both as
    prediction targets and as context.

    The bigram feature is indexed by previous token: each one maps to the
    sorted vocabulary indices of its successors, so the index takes
    O(#bigrams) memory and scoring adds no state to the scorer.

    Scoring runs a sequence's positions in blocks of at most ``_BLOCK_BYTES``
    (64 KiB) of features, at least one position each: one stacked matmul,
    max, exp and sum per block rather than per position. Each stacked call
    does, slice by slice, a per-position call's arithmetic, so results keep
    their bits. One block per sequence would pass glibc's 128 KiB mmap
    threshold at a few thousand words, and every call would then fault in
    fresh pages.
    """

    FEATURE_NAMES = ("copy_from_context", "log2_unigram_prob", "bigram_seen")
    FORMAT_VERSION = 1

    def __init__(
        self,
        unigram_counts: Mapping[str, int],
        bigrams: Iterable[tuple[str, str]],
        theta: Sequence[float] | None = None,
        lowercase: bool = False,
    ):
        self.unigram_counts = dict(unigram_counts)
        self.bigrams = frozenset(tuple(b) for b in bigrams)
        self.lowercase = lowercase
        self.vocab = tuple(sorted(set(self.unigram_counts) | {EOS_TOKEN, UNK_TOKEN}))
        self._index = {token: i for i, token in enumerate(self.vocab)}
        if theta is None:
            theta = np.zeros(len(self.FEATURE_NAMES))
        self.theta = np.asarray(theta, dtype=np.float64).copy()
        if self.theta.shape != (len(self.FEATURE_NAMES),):
            raise ValueError(f"theta must have shape (3,), got {self.theta.shape}")

        total = sum(self.unigram_counts.values())
        counts = np.array(
            [self.unigram_counts.get(token, 0) for token in self.vocab],
            dtype=np.float64,
        )
        self._unigram_feature = np.log2((counts + 1.0) / (total + len(self.vocab)))
        successors: dict[str, list[int]] = defaultdict(list)
        for previous, token in self.bigrams:
            if token in self._index:
                successors[previous].append(self._index[token])
        self._successors = {
            previous: np.array(sorted(indices), dtype=np.intp)
            for previous, indices in successors.items()
        }

    @classmethod
    def from_texts(
        cls,
        texts: Iterable[str],
        theta: Sequence[float] | None = None,
        lowercase: bool = False,
    ) -> "ToyScorer":
        """Collect unigram/bigram statistics from training texts."""
        unigram_counts: Counter[str] = Counter()
        bigrams: set[tuple[str, str]] = set()
        for text in texts:
            tokens = list(tokenize(text, lowercase)) + [EOS_TOKEN]
            unigram_counts.update(tokens)
            previous = BOS_TOKEN
            for token in tokens:
                bigrams.add((previous, token))
                previous = token
        return cls(unigram_counts, bigrams, theta=theta, lowercase=lowercase)

    def with_theta(self, theta: Sequence[float]) -> "ToyScorer":
        """A copy of this scorer sharing the count tables but with new weights."""
        clone = copy.copy(self)
        clone.theta = np.asarray(theta, dtype=np.float64).copy()
        return clone

    def _lookup(self, token: str) -> str:
        return token if token in self._index else UNK_TOKEN

    def _score(
        self,
        target: Sequence[str],
        context: Sequence[str],
        with_gradients: bool,
    ) -> tuple[list[float], np.ndarray | None]:
        targets = [self._lookup(token) for token in target] + [EOS_TOKEN]
        n_positions = len(targets)
        n_vocab, n_features = len(self.vocab), len(self.FEATURE_NAMES)
        chunk = max(1, min(n_positions, _BLOCK_BYTES // (n_vocab * n_features * 8)))

        # A block of `chunk` positions' feature rows. The copy and unigram
        # columns hold for every position; each block of positions sets its
        # bigram cells and clears them again.
        features = np.zeros((chunk, n_vocab, n_features))
        features[:, [self._index[self._lookup(token)] for token in context], 0] = 1.0
        features[:, :, 1] = self._unigram_feature
        bigram = features[:, :, 2].reshape(-1)  # a strided view, one cell per word
        # Each block's bigram cells in `bigram`: its positions' successors,
        # moved to each position's row when a block holds several positions.
        successors = [
            self._successors.get(previous, _NO_SUCCESSORS)
            for previous in [BOS_TOKEN, *targets[:-1]]
        ]
        block_cells = successors
        if chunk > 1:
            ends = list(itertools.accumulate(map(len, successors), initial=0))
            rows = np.arange(n_positions) % chunk * n_vocab
            offsets = np.concatenate(successors) + np.repeat(rows, np.diff(ends))
            block_cells = [
                offsets[ends[start] : ends[min(start + chunk, n_positions)]]
                for start in range(0, n_positions, chunk)
            ]
        target_rows = [
            position % chunk * n_vocab + self._index[token]
            for position, token in enumerate(targets)
        ]

        logprobs: list[float] = []
        gradients = np.empty((n_positions, n_features)) if with_gradients else None
        for start, cells in zip(range(0, n_positions, chunk), block_cells):
            stop = min(start + chunk, n_positions)
            block = features[: stop - start]
            block_targets = target_rows[start:stop]
            bigram[cells] = 1.0
            logits = block @ self.theta
            target_logits = list(map(logits.item, block_targets))  # before the shift
            shifts = logits.max(axis=1, keepdims=True)
            logits -= shifts
            exps = np.exp(logits, out=logits)
            sums = exps.sum(axis=1, keepdims=True)
            for logit, (shift,), (total,) in zip(
                target_logits, shifts.tolist(), sums.tolist()
            ):
                logprobs.append((logit - (shift + math.log(total))) / LN2)
            if with_gradients:
                exps /= sums
                expected = exps[:, None, :] @ block
                observed = features.reshape(-1, n_features)[block_targets]
                gradients[start:stop] = (observed - expected[:, 0]) / LN2
            bigram[cells] = 0.0
        return logprobs, gradients

    def token_logprobs(
        self, target: Sequence[str], context: Sequence[str]
    ) -> list[float]:
        logprobs, _ = self._score(target, context, with_gradients=False)
        return logprobs

    def token_logprob_gradients(
        self, target: Sequence[str], context: Sequence[str]
    ) -> tuple[list[float], np.ndarray]:
        """Per-token log-probabilities and their gradients w.r.t. theta.

        The gradient array has one row per scored token (end token included).
        """
        logprobs, gradients = self._score(target, context, with_gradients=True)
        return logprobs, gradients

    def to_dict(self) -> dict:
        return {
            "format_version": self.FORMAT_VERSION,
            "feature_names": list(self.FEATURE_NAMES),
            "theta": [float(value) for value in self.theta],
            "lowercase": self.lowercase,
            "vocabulary": list(self.vocab),
            "unigram_counts": dict(sorted(self.unigram_counts.items())),
            "bigrams": sorted(list(pair) for pair in self.bigrams),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ToyScorer":
        version = data.get("format_version")
        if version != cls.FORMAT_VERSION:
            raise ValueError(f"unsupported scorer format version: {version!r}")
        bigrams = data["bigrams"]
        for pair in bigrams:
            if not (
                isinstance(pair, list)
                and len(pair) == 2
                and isinstance(pair[0], str)
                and isinstance(pair[1], str)
            ):
                raise ValueError(f"bigram is not a pair of strings: {pair!r}")
        return cls(
            unigram_counts=data["unigram_counts"],
            bigrams=[tuple(pair) for pair in bigrams],
            theta=data["theta"],
            lowercase=data.get("lowercase", False),
        )

    def save(self, path: Path | str) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: Path | str) -> "ToyScorer":
        """Read a scorer; a NaN theta loads, and scoring with it fails later."""
        data = read_json(path)
        try:
            return cls.from_dict(data)
        except KeyError as err:
            raise ArtefactError(path, None, f"missing key {err}") from None
        except (AttributeError, TypeError, ValueError) as err:  # not a scorer object
            raise ArtefactError(path, None, f"not a scorer: {err}") from None


def _ngram_counts(tokens: Sequence[str], order: int) -> Counter:
    return Counter(
        tuple(tokens[i : i + order]) for i in range(len(tokens) - order + 1)
    )


def segment_bleu(
    hypothesis: str,
    reference: str,
    max_order: int = 4,
    lowercase: bool = False,
) -> float:
    """Sentence-level BLEU with add-one smoothing on orders >= 2.

    The unigram precision is left unsmoothed so that a hypothesis sharing no
    word with its reference still scores 0.
    """
    hyp_tokens = tokenize(hypothesis, lowercase)
    ref_tokens = tokenize(reference, lowercase)
    log_precisions = []
    for order in range(1, max_order + 1):
        hyp_counts = _ngram_counts(hyp_tokens, order)
        ref_counts = _ngram_counts(ref_tokens, order)
        matches = sum((hyp_counts & ref_counts).values())
        total = sum(hyp_counts.values())
        if order >= 2:
            matches += 1
            total += 1
        if matches == 0 or total == 0:
            return 0.0
        log_precisions.append(math.log(matches / total))
    return 100.0 * _brevity_penalty(len(hyp_tokens), len(ref_tokens)) * math.exp(
        sum(log_precisions) / max_order
    )


def _brevity_penalty(hyp_len: int, ref_len: int) -> float:
    if hyp_len == 0:
        return 0.0
    if hyp_len >= ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / hyp_len)


def bleu(
    hypotheses: Sequence[str],
    references: Sequence[str],
    level: str = LEVEL_CORPUS,
    max_order: int = 4,
    lowercase: bool = False,
) -> float:
    """BLEU in [0, 100].

    At corpus level this is the standard unsmoothed 4-gram geometric mean
    with brevity penalty over pooled counts. At segment level it is the mean
    of per-segment smoothed BLEU values (see :func:`segment_bleu`), which
    keeps segment correlations computable.
    """
    if not hypotheses:
        raise ValueError("empty hypothesis list")
    if len(hypotheses) != len(references):
        raise ValueError(
            f"hypotheses and references differ in length: "
            f"{len(hypotheses)} vs {len(references)}"
        )
    if level == LEVEL_SEGMENT:
        scores = [
            segment_bleu(hyp, ref, max_order, lowercase)
            for hyp, ref in zip(hypotheses, references)
        ]
        return math.fsum(scores) / len(scores)
    if level != LEVEL_CORPUS:
        raise ValueError(f"unknown BLEU level: {level!r}")

    matches = [0] * max_order
    totals = [0] * max_order
    hyp_len = 0
    ref_len = 0
    for hypothesis, reference in zip(hypotheses, references):
        hyp_tokens = tokenize(hypothesis, lowercase)
        ref_tokens = tokenize(reference, lowercase)
        hyp_len += len(hyp_tokens)
        ref_len += len(ref_tokens)
        for order in range(1, max_order + 1):
            hyp_counts = _ngram_counts(hyp_tokens, order)
            ref_counts = _ngram_counts(ref_tokens, order)
            matches[order - 1] += sum((hyp_counts & ref_counts).values())
            totals[order - 1] += sum(hyp_counts.values())
    if any(m == 0 or t == 0 for m, t in zip(matches, totals)):
        return 0.0
    log_mean = sum(math.log(m / t) for m, t in zip(matches, totals)) / max_order
    return 100.0 * _brevity_penalty(hyp_len, ref_len) * math.exp(log_mean)


def _char_ngram_counts(chars: str, order: int) -> Counter:
    return Counter(chars[i : i + order] for i in range(len(chars) - order + 1))


def chrf(
    hypothesis: str,
    reference: str,
    max_order: int = 6,
    beta: float = 2.0,
) -> float:
    """Character n-gram F-score in [0, 100].

    n-grams of orders 1..max_order are taken over NFC text with whitespace
    removed; the F_beta scores are averaged over the orders for which the
    reference has at least one n-gram. Two empty strings count as a perfect
    match.
    """
    hyp_chars = "".join(unicodedata.normalize("NFC", hypothesis).split())
    ref_chars = "".join(unicodedata.normalize("NFC", reference).split())
    if not hyp_chars and not ref_chars:
        return 100.0

    f_scores = []
    for order in range(1, max_order + 1):
        ref_counts = _char_ngram_counts(ref_chars, order)
        if not ref_counts:
            continue
        hyp_counts = _char_ngram_counts(hyp_chars, order)
        matched = sum((hyp_counts & ref_counts).values())
        hyp_total = sum(hyp_counts.values())
        ref_total = sum(ref_counts.values())
        precision = matched / hyp_total if hyp_total else 0.0
        recall = matched / ref_total
        denominator = beta * beta * precision + recall
        if denominator == 0.0:
            f_scores.append(0.0)
        else:
            f_scores.append((1.0 + beta * beta) * precision * recall / denominator)
    if not f_scores:
        return 0.0
    return 100.0 * math.fsum(f_scores) / len(f_scores)


def system_score(segment_scores: Sequence[float]) -> float:
    """System-level score: the arithmetic mean of segment scores."""
    if not segment_scores:
        raise ValueError("cannot average an empty list of segment scores")
    return math.fsum(segment_scores) / len(segment_scores)


def score_magnitude(segment_scores: Sequence[float]) -> float:
    """Mean of 2**score: sequence scores mapped back to probability space."""
    if not segment_scores:
        raise ValueError("cannot average an empty list of segment scores")
    return math.fsum(2.0**score for score in segment_scores) / len(segment_scores)


@dataclass(frozen=True)
class MetricScore:
    """One metric value for one system translation; higher is better."""

    metric_id: str
    system_id: str
    seg_id: str
    value: float


class Metric(Protocol):
    """A reference-based segment-level metric; higher is better."""

    metric_id: str

    def segment_score(self, hypothesis: str, reference: str) -> float: ...


@dataclass
class BleuMetric:
    metric_id: str = "bleu"
    lowercase: bool = False

    def segment_score(self, hypothesis: str, reference: str) -> float:
        return segment_bleu(hypothesis, reference, lowercase=self.lowercase)


@dataclass
class ChrfMetric:
    metric_id: str = "chrf"

    def segment_score(self, hypothesis: str, reference: str) -> float:
        return chrf(hypothesis, reference)


class PrismMetric:
    """Bidirectional paraphrase score under a sequence scorer."""

    def __init__(self, scorer: SequenceScorer, metric_id: str = "prism"):
        self.scorer = scorer
        self.metric_id = metric_id
        self._lowercase = getattr(scorer, "lowercase", False)

    def segment_score(self, hypothesis: str, reference: str) -> float:
        value = prism_score(
            self.scorer,
            tokenize(hypothesis, self._lowercase),
            tokenize(reference, self._lowercase),
        )
        if not math.isfinite(value):  # e.g. a NaN theta; it would corrupt tau
            raise FloatingPointError(f"metric {self.metric_id!r}: non-finite score")
        return value


def write_metric_scores(
    scores: Iterable[MetricScore], eval_set: EvaluationSet, path: Path | str
) -> None:
    """Serialize metric scores to TSV, annotated with lang_pair and domain."""
    write_tsv(
        path,
        _SCORES_COLUMNS,
        (
            [
                score.metric_id,
                eval_set.segments[score.seg_id].lang_pair,
                eval_set.segments[score.seg_id].domain,
                score.system_id,
                score.seg_id,
                repr(score.value),
            ]
            for score in scores
        ),
    )


def metric_score_rows(path: Path | str) -> Iterator[tuple[int, MetricScore]]:
    """Yield ``(line, score)``; rejects non-finite values and repeated keys."""
    seen: set[tuple[str, str, str]] = set()
    for line, row in read_tsv(path, _SCORES_COLUMNS):
        key = (row["metric_id"], row["system_id"], row["seg_id"])
        if key in seen:
            raise ArtefactError(path, line, f"duplicate score for {key!r}")
        seen.add(key)
        yield line, MetricScore(*key, parse_float(path, line, "value", row["value"]))
