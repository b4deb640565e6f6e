"""Shared fixture builders and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math
import random
import unicodedata
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats as scipy_stats

from metricfit import metrics
from metricfit.corpus import (
    CorpusPaths,
    EvaluationSet,
    ORIGIN_HUMAN,
    MqmError,
    MqmRating,
    ReferenceTranslation,
    Segment,
    SeverityWeights,
    SystemTranslation,
)
from metricfit.metrics import (
    BOS_TOKEN,
    EOS_TOKEN,
    LN2,
    UNK_TOKEN,
    MetricScore,
    score_magnitude,
    sequence_score,
    tokenize,
)
from metricfit.rankings import RelativeRanking

DEFAULT_WEIGHTS = SeverityWeights()

SEGMENTS_HEADER = ["lang_pair", "domain", "doc_id", "seg_id", "source_text"]
OUTPUTS_HEADER = ["lang_pair", "domain", "system_id", "seg_id", "is_human", "text"]
REFERENCES_HEADER = ["lang_pair", "domain", "ref_id", "seg_id", "text"]
RATINGS_HEADER = [
    "lang_pair",
    "domain",
    "system_id",
    "seg_id",
    "annotator_id",
    "category",
    "severity",
    "span_start",
    "span_end",
]


def write_tsv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    """Plain tab-joined lines, independent of the package's own writer."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for row in [header, *rows]:
            handle.write("\t".join(row) + "\n")


def write_corpus_files(
    directory: Path,
    segments: list[list[str]],
    outputs: list[list[str]],
    references: list[list[str]],
    ratings: list[list[str]],
) -> CorpusPaths:
    directory.mkdir(parents=True, exist_ok=True)
    paths = CorpusPaths.in_directory(directory)
    write_tsv(paths.segments, SEGMENTS_HEADER, segments)
    write_tsv(paths.system_outputs, OUTPUTS_HEADER, outputs)
    write_tsv(paths.references, REFERENCES_HEADER, references)
    write_tsv(paths.ratings, RATINGS_HEADER, ratings)
    return paths


def tiny_corpus_rows():
    """A hand-written 3-segment en-de news fixture with 2 systems + 1 human."""
    segments = [
        ["en-de", "news", "doc1", "seg1", "the cat sat on the mat"],
        ["en-de", "news", "doc1", "seg2", "it rains today"],
        ["en-de", "news", "doc2", "seg3", "good morning"],
    ]
    outputs = [
        ["en-de", "news", "sysA", "seg1", "0", "die Katze sass auf der Matte"],
        ["en-de", "news", "sysA", "seg2", "0", "es regnet heute"],
        ["en-de", "news", "sysA", "seg3", "0", "guten Morgen"],
        ["en-de", "news", "sysB", "seg1", "0", "die Katze sitzt auf Matte"],
        ["en-de", "news", "sysB", "seg2", "0", "heute regnet"],
        ["en-de", "news", "sysB", "seg3", "0", "gute Morgen"],
        ["en-de", "news", "human-A", "seg1", "1", "die Katze sass auf der Matte"],
        ["en-de", "news", "human-A", "seg2", "1", "heute regnet es"],
        ["en-de", "news", "human-A", "seg3", "1", "guten Morgen"],
    ]
    references = [
        ["en-de", "news", "refA", "seg1", "die Katze sass auf der Matte"],
        ["en-de", "news", "refA", "seg2", "heute regnet es"],
        ["en-de", "news", "refA", "seg3", "guten Morgen"],
    ]
    ratings = [
        ["en-de", "news", "sysA", "seg1", "ann1", "", "no-error", "", ""],
        ["en-de", "news", "sysA", "seg1", "ann2", "", "no-error", "", ""],
        ["en-de", "news", "sysA", "seg2", "ann1", "", "no-error", "", ""],
        ["en-de", "news", "sysA", "seg3", "ann1", "fluency/punctuation", "minor", "", ""],
        ["en-de", "news", "sysB", "seg1", "ann1", "accuracy/mistranslation", "major", "0", "9"],
        ["en-de", "news", "sysB", "seg1", "ann2", "", "no-error", "", ""],
        ["en-de", "news", "sysB", "seg2", "ann1", "accuracy/omission", "minor", "", ""],
        ["en-de", "news", "sysB", "seg3", "ann1", "fluency/grammar", "minor", "", ""],
    ]
    return segments, outputs, references, ratings


def load_tiny_corpus(tmp_path: Path) -> EvaluationSet:
    from metricfit.corpus import load_corpus

    paths = write_corpus_files(tmp_path / "tiny", *tiny_corpus_rows())
    return load_corpus(paths)


def make_eval_set(segments, translations, references, ratings=()) -> EvaluationSet:
    """Build an EvaluationSet directly for synthetic property tests.

    segments: (lang_pair, domain, doc_id, seg_id, source_text)
    translations: (system_id, seg_id, text, is_human)
    references: (ref_id, seg_id, text)
    ratings: (annotator_id, system_id, seg_id, errors) with errors a list of
             (category, severity) tuples.
    """
    return EvaluationSet(
        segments={
            seg_id: Segment(lang_pair, domain, doc_id, seg_id, source)
            for lang_pair, domain, doc_id, seg_id, source in segments
        },
        translations={
            (system_id, seg_id): SystemTranslation(system_id, seg_id, text, is_human)
            for system_id, seg_id, text, is_human in translations
        },
        references={
            (ref_id, seg_id): ReferenceTranslation(ref_id, seg_id, text)
            for ref_id, seg_id, text in references
        },
        ratings=tuple(
            MqmRating(
                annotator_id=annotator_id,
                system_id=system_id,
                seg_id=seg_id,
                errors=tuple(MqmError(category, severity) for category, severity in errors),
            )
            for annotator_id, system_id, seg_id, errors in ratings
        ),
    )


_ERROR_CHOICES = [
    [],
    [("fluency/punctuation", "minor")],
    [("accuracy/mistranslation", "minor")],
    [("accuracy/mistranslation", "major")],
    [("accuracy/omission", "minor"), ("fluency/grammar", "minor")],
    [("accuracy/mistranslation", "major"), ("fluency/punctuation", "minor")],
]


def random_mqm_eval_set(rng: random.Random) -> EvaluationSet:
    """A small random corpus for pair-count oracle checks."""
    lang_pair, domain = "en-de", "news"
    n_segments = rng.randint(1, 4)
    n_systems = rng.randint(2, 4)
    n_annotators = rng.randint(1, 3)
    segments = [
        (lang_pair, domain, "doc", f"seg{i}", f"source text {i}")
        for i in range(n_segments)
    ]
    translations = [
        (f"sys{s}", f"seg{i}", f"translation {s} {i}", False)
        for s in range(n_systems)
        for i in range(n_segments)
    ]
    references = [("refA", f"seg{i}", f"reference {i}") for i in range(n_segments)]
    ratings = []
    for annotator in range(n_annotators):
        for s in range(n_systems):
            for i in range(n_segments):
                if rng.random() < 0.7:
                    ratings.append(
                        (
                            f"ann{annotator}",
                            f"sys{s}",
                            f"seg{i}",
                            rng.choice(_ERROR_CHOICES),
                        )
                    )
    return make_eval_set(segments, translations, references, ratings)


def robustness_corpus_rows(n_systems: int = 6, n_segments: int = 50, seed: int = 11):
    """Synthetic en-de corpus with annotated error-free translations.

    Translation quality is tied to the annotated error count: each error
    corrupts one reference token, so overlap metrics genuinely correlate with
    the MQM penalties. A couple of segments get no error-free translation at
    all to exercise comparability skipping.
    """
    rng = random.Random(seed)
    lang_pair, domain = "en-de", "news"
    src_vocab = [f"src{i}" for i in range(30)]
    tgt_vocab = [f"wort{i}" for i in range(30)]
    junk_vocab = [f"junk{i}" for i in range(30)]

    segments, outputs, references, ratings = [], [], [], []
    for i in range(n_segments):
        seg_id = f"seg{i:03d}"
        source = " ".join(rng.choice(src_vocab) for _ in range(8))
        ref_tokens = [rng.choice(tgt_vocab) for _ in range(8)]
        segments.append([lang_pair, domain, f"doc{i // 10}", seg_id, source])
        references.append([lang_pair, domain, "refA", seg_id, " ".join(ref_tokens)])
        no_error_free = i % 25 == 24  # a few segments lack any error-free output
        for s in range(n_systems):
            system_id = f"sys{s + 1}"
            if no_error_free:
                n_errors = rng.randint(1, 3)
            else:
                n_errors = rng.choice([0, 0, 0, 1, 1, 2, 3])
                # higher-index systems are genuinely worse, so system-level
                # rankings carry real signal
                if rng.random() < s / (2 * n_systems) and n_errors < len(ref_tokens) - 1:
                    n_errors += 1
            tokens = ref_tokens[:]
            # benign rewording: correct alternatives, never annotated as errors
            for position in rng.sample(range(len(tokens)), rng.choice([0, 1, 1, 2])):
                tokens[position] = rng.choice(tgt_vocab)
            for position in rng.sample(range(len(tokens)), n_errors):
                tokens[position] = rng.choice(junk_vocab)
            outputs.append(
                [lang_pair, domain, system_id, seg_id, "0", " ".join(tokens)]
            )
            for annotator in ("ann1", "ann2"):
                if n_errors == 0:
                    ratings.append(
                        [lang_pair, domain, system_id, seg_id, annotator, "",
                         "no-error", "", ""]
                    )
                    continue
                for e in range(n_errors):
                    severity = "major" if (e + s + i) % 3 == 0 else "minor"
                    category = (
                        "fluency/punctuation" if (e + i) % 4 == 0
                        else "accuracy/mistranslation"
                    )
                    ratings.append(
                        [lang_pair, domain, system_id, seg_id, annotator,
                         category, severity, "", ""]
                    )
        outputs.append(
            [lang_pair, domain, "human-B", seg_id, "1", " ".join(ref_tokens[::-1])]
        )
    return segments, outputs, references, ratings


def load_robustness_corpus(tmp_path: Path, n_systems=6, n_segments=50, seed=11):
    from metricfit.corpus import load_corpus

    paths = write_corpus_files(
        tmp_path / "robustness",
        *robustness_corpus_rows(n_systems, n_segments, seed),
    )
    return load_corpus(paths)


def separable_ranking_examples(n_examples: int = 240, seed: int = 5):
    """Linearly separable pairs: sys_plus copies reference tokens, sys_minus
    never shares a token with the reference. Returns (examples, scorer_texts)."""
    rng = random.Random(seed)
    good = [f"gut{i}" for i in range(12)]
    bad = [f"schlecht{i}" for i in range(12)]
    src_vocab = [f"quelle{i}" for i in range(12)]
    examples, texts = [], []
    for i in range(n_examples):
        ref_tokens = rng.sample(good, 5)
        plus_tokens = ref_tokens[:]
        rng.shuffle(plus_tokens)
        minus_tokens = rng.sample(bad, 5)
        src_tokens = rng.sample(src_vocab, 5)
        example = RelativeRanking(
            lang_pair="xx-yy",
            seg_id=f"seg{i:04d}",
            annotator_id="ann1",
            src=" ".join(src_tokens),
            ref=" ".join(ref_tokens),
            sys_plus=" ".join(plus_tokens),
            sys_minus=" ".join(minus_tokens),
            score_delta=5.0,
        )
        examples.append(example)
        texts.extend([example.src, example.ref, example.sys_minus])
    return examples, texts


class FlatScorer:
    """Stub scorer assigning one fixed log-probability to every scored token."""

    lowercase = False

    def __init__(self, logprob: float):
        self.logprob = logprob

    def score_batch(self, pairs, with_gradients):
        gradients = np.zeros((len(pairs), 3)) if with_gradients else None
        return np.full(len(pairs), self.logprob), gradients  # weights unused


class TableScorer:
    """Stub scorer with a fixed sequence score per (target, context) pair."""

    lowercase = False

    def __init__(self, table: dict):
        self.table = {
            (tuple(target), tuple(context)): score
            for (target, context), score in table.items()
        }

    def score_batch(self, pairs, with_gradients):
        gradients = np.zeros((len(pairs), 3)) if with_gradients else None
        scores = [self.table[(tuple(t), tuple(c))] for t, c in pairs]
        return np.array(scores, np.float64), gradients  # weights unused


# ---------------------------------------------------------------------------
# Record oracles: the seven row records as the frozen dataclasses they once
# were (same fields, defaults and docstrings). Each is named as its record,
# so the two reprs compare whole.


@dataclass(frozen=True)
class SegmentOracle:
    """One source segment within a (lang_pair, domain) group."""

    __qualname__ = "Segment"
    lang_pair: str
    domain: str
    doc_id: str
    seg_id: str
    source_text: str


@dataclass(frozen=True)
class SystemTranslationOracle:
    """Output of one system (or human 'system') for one segment."""

    __qualname__ = "SystemTranslation"
    system_id: str
    seg_id: str
    text: str
    is_human: bool = False


@dataclass(frozen=True)
class ReferenceTranslationOracle:
    """A reference for one segment.

    ``origin`` is either ``human`` (loaded from the references file) or
    ``machine`` (constructed at evaluation time from an error-free system
    translation, in which case ``source_system`` records the producing
    system).
    """

    __qualname__ = "ReferenceTranslation"
    ref_id: str
    seg_id: str
    text: str
    origin: str = ORIGIN_HUMAN
    source_system: str | None = None


@dataclass(frozen=True)
class MqmErrorOracle:
    """A single annotated error: category, severity, optional char span."""

    __qualname__ = "MqmError"
    category: str
    severity: str
    span: tuple[int, int] | None = None


@dataclass(frozen=True)
class MqmRatingOracle:
    """All errors one annotator assigned to one system translation.

    An empty ``errors`` tuple is meaningful: the annotator judged the
    translation error-free.
    """

    __qualname__ = "MqmRating"
    annotator_id: str
    system_id: str
    seg_id: str
    errors: tuple[MqmErrorOracle, ...] = ()


@dataclass(frozen=True)
class RelativeRankingOracle:
    """One preference pair: the same annotator judged sys_plus better.

    ``score_delta`` is penalty(sys_minus) - penalty(sys_plus) and is always
    strictly greater than the derivation threshold. The producing system ids
    are kept for diagnostics but are not part of the serialized format.
    """

    __qualname__ = "RelativeRanking"
    lang_pair: str
    seg_id: str
    annotator_id: str
    src: str
    ref: str
    sys_plus: str
    sys_minus: str
    score_delta: float
    sys_plus_id: str | None = None
    sys_minus_id: str | None = None


@dataclass(frozen=True)
class MetricScoreOracle:
    """One metric value for one system translation; higher is better."""

    __qualname__ = "MetricScore"
    metric_id: str
    system_id: str
    seg_id: str
    value: float


RECORD_ORACLES = {
    Segment: SegmentOracle,
    SystemTranslation: SystemTranslationOracle,
    ReferenceTranslation: ReferenceTranslationOracle,
    MqmError: MqmErrorOracle,
    MqmRating: MqmRatingOracle,
    RelativeRanking: RelativeRankingOracle,
    MetricScore: MetricScoreOracle,
}


# ---------------------------------------------------------------------------
# Independent oracles


def toy_logprob_oracle(scorer, target, context) -> list[float]:
    """Recompute ToyScorer token log-probabilities with plain-python math.

    Reads the scorer's count tables and weights but redoes feature
    construction and the softmax from scratch.
    """
    vocab = list(scorer.vocab)
    total = sum(scorer.unigram_counts.values())
    theta = [float(value) for value in scorer.theta]

    def lookup(token):
        return token if token in vocab else "<unk>"

    def unigram_logprob(token):
        count = scorer.unigram_counts.get(token, 0)
        return math.log2((count + 1) / (total + len(vocab)))

    context_tokens = {lookup(token) for token in context}
    targets = [lookup(token) for token in target] + ["</s>"]
    logprobs = []
    previous = "<s>"
    for token in targets:
        unnormalized = {}
        for candidate in vocab:
            features = [
                1.0 if candidate in context_tokens else 0.0,
                unigram_logprob(candidate),
                1.0 if (previous, candidate) in scorer.bigrams else 0.0,
            ]
            logit = sum(w * f for w, f in zip(theta, features))
            unnormalized[candidate] = math.exp(logit)
        normalizer = sum(unnormalized.values())
        logprobs.append(math.log2(unnormalized[token] / normalizer))
        previous = token
    return logprobs


_BLOCK_BYTES = 64 * 1024  # features per block of toy_score_oracle


def toy_score_oracle(scorer, target, context, with_gradients):
    """ToyScorer's scoring of one sequence with dense softmax rows, as it was
    before the softmax was made sparse: the sequence's positions in blocks of
    at most ``_BLOCK_BYTES`` of features (copy, unigram and bigram column per
    vocabulary word), one stacked matmul, max, exp and sum per block.
    Returns ``(logprobs, gradients)``, gradients None unless asked for."""
    index = scorer._index
    successor_lists = {}
    for previous, token in scorer.bigrams:
        if token in index:
            successor_lists.setdefault(previous, []).append(index[token])
    targets = [token if token in index else UNK_TOKEN for token in target]
    targets.append(EOS_TOKEN)
    n_positions = len(targets)
    n_vocab, n_features = len(scorer.vocab), len(scorer.FEATURE_NAMES)
    chunk = max(1, min(n_positions, _BLOCK_BYTES // (n_vocab * n_features * 8)))

    features = np.zeros((chunk, n_vocab, n_features))
    copied = [index.get(token, index[UNK_TOKEN]) for token in context]
    features[:, copied, 0] = 1.0
    features[:, :, 1] = scorer._unigram_feature
    bigram = features[:, :, 2].reshape(-1)
    successors = [
        np.array(sorted(successor_lists.get(previous, [])), dtype=np.intp)
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
        position % chunk * n_vocab + index[token]
        for position, token in enumerate(targets)
    ]

    logprobs = []
    gradients = np.empty((n_positions, n_features)) if with_gradients else None
    for start, cells in zip(range(0, n_positions, chunk), block_cells):
        stop = min(start + chunk, n_positions)
        block = features[: stop - start]
        block_targets = target_rows[start:stop]
        bigram[cells] = 1.0
        logits = block @ scorer.theta
        target_logits = list(map(logits.item, block_targets))
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


class PerSequenceScorer:
    """A ToyScorer that scores one sequence per ``score_batch`` call; it
    reads the wrapped scorer's weights at every call."""

    def __init__(self, scorer):
        self.scorer = scorer

    @property
    def theta(self):
        return self.scorer.theta

    @property
    def lowercase(self):
        return self.scorer.lowercase

    def score_batch(self, pairs, with_gradients):
        scored = [self.scorer.score_batch([pair], with_gradients) for pair in pairs]
        scores = np.concatenate([np.zeros(0), *(score for score, _ in scored)])
        if not with_gradients:
            return scores, None
        gradients = [gradient for _, gradient in scored]
        return scores, np.concatenate([np.zeros((0, 3)), *gradients])

    def token_logprob_gradients(self, target, context):
        return self.scorer.token_logprob_gradients(target, context)


def toy_dense_score_oracle(scorer, target, context, with_gradients):
    """ToyScorer's scoring loop with dense, Python-built feature rows.

    The copy column tests every vocabulary word against the context set, and
    each bigram row tests every vocabulary word against ``scorer.bigrams``.
    The normaliser and the expected features are summed with ``math.fsum``:
    a plain sum over a few thousand words, as in :func:`toy_score_oracle`'s
    matmul, can be off by more than 1e-12.
    """

    def lookup(token):
        return token if token in scorer._index else "<unk>"

    def bigram_row(previous):
        return np.array(
            [(previous, v) in scorer.bigrams for v in scorer.vocab], dtype=np.float64
        )

    context_tokens = {lookup(token) for token in context}
    copy_row = np.array([v in context_tokens for v in scorer.vocab], dtype=np.float64)
    targets = [lookup(token) for token in target] + ["</s>"]

    logprobs = []
    gradients = np.zeros((len(targets), 3)) if with_gradients else None
    features = np.empty((len(scorer.vocab), 3))
    features[:, 0] = copy_row
    features[:, 1] = scorer._unigram_feature
    previous = "<s>"
    for position, token in enumerate(targets):
        features[:, 2] = bigram_row(previous)
        logits = features @ scorer.theta
        shift = logits.max()
        exps = np.exp(logits - shift)
        total = math.fsum(exps)
        token_index = scorer._index[token]
        logprobs.append((logits[token_index] - (shift + math.log(total))) / LN2)
        if with_gradients:
            expected = [math.fsum(exps * column) / total for column in features.T]
            gradients[position] = (features[token_index] - expected) / LN2
        previous = token
    return logprobs, gradients


class _EvaluateSoftmax:
    """The parts of ToyScorer's sparse softmax that depend on theta alone:
    with s = theta_1 u, top = max s, weights w = e^(s - top) and moments
    w u, their sums over the vocabulary and over the successors of each
    previous-token row of the bigram index, and per copy and bigram weight
    its positive part (lift) and (e^theta - 1) / e^lift (excess), which
    lies in (-1, 1) for every finite theta."""

    def __init__(
        self, theta: np.ndarray, unigram: np.ndarray, bigram_keys: np.ndarray
    ):
        self.theta0, theta1, self.theta2 = theta.tolist()
        self.lift0, self.lift2 = max(self.theta0, 0.0), max(self.theta2, 0.0)
        self.excess0, self.excess2 = (
            -math.expm1(-value) if value >= 0 else math.expm1(value)
            for value in (self.theta0, self.theta2)
        )
        self.unigram = unigram
        self.scaled = theta1 * unigram
        self.top = self.scaled.max()
        self.weights = np.exp(self.scaled - self.top)
        self.moments = self.weights * unigram
        self.w_all, self.y_all = self.weights.sum(), self.moments.sum()
        # W(S) and Y(S) of each row, summed over its successors in key order
        n_vocab = len(unigram)
        rows, successors = np.divmod(bigram_keys[:-1], n_vocab)
        self.w_successors = np.bincount(rows, self.weights[successors], n_vocab + 1)
        self.y_successors = np.bincount(rows, self.moments[successors], n_vocab + 1)


@np.errstate(over="ignore", invalid="ignore")
def toy_evaluate_oracle(scorer, table, rows, with_gradients):
    """``ToyScorer._evaluate`` as it was written with a theta-only parameter
    class and a per-block method, operation for operation: the same
    expressions, in the same order and with the same association, so its
    results must match ``_evaluate``'s bit for bit. It reads the module's
    ``_BLOCK_CELLS``, ``_CANCELLATION`` and ``_TINY`` when called."""
    rows = np.asarray(rows, np.intp)
    starts = table.ends[rows]
    lengths = table.ends[rows + 1] - starts
    ends = [0, *np.cumsum(lengths).tolist()]
    logprobs = np.full(ends[-1], math.nan)
    gradients = np.full((ends[-1], 3), math.nan) if with_gradients else None
    if not np.isfinite(scorer.theta).all():
        return logprobs, gradients, ends

    softmax = _EvaluateSoftmax(scorer.theta, scorer._unigram_feature, scorer._bigram_keys)
    # W(C) and Y(C) of each row, over its sorted context words
    context_starts = table.context_ends[rows]
    context_lengths = table.context_ends[rows + 1] - context_starts
    words = table.context_words[metrics._ranges(context_starts, context_lengths)]
    owner = np.repeat(np.arange(len(rows)), context_lengths)
    w_context = np.bincount(owner, softmax.weights[words], len(rows))
    y_context = np.bincount(owner, softmax.moments[words], len(rows))
    positions = metrics._ranges(starts, lengths)
    seq = np.repeat(np.arange(len(rows)), lengths)
    for block in metrics._blocks(context_lengths[seq]):
        at = seq[block]
        _evaluate_block_oracle(
            scorer, softmax, table, positions[block], rows[at], context_lengths[at],
            w_context[at], y_context[at], logprobs[block],
            None if gradients is None else gradients[block],
        )
    return logprobs, gradients, ends


def _evaluate_block_oracle(
    scorer, softmax, table, positions, rows, context_lengths, w_context, y_context,
    logprobs, gradients,
) -> None:
    """One block of :func:`toy_evaluate_oracle`: fill ``logprobs`` (and
    ``gradients``, unless None) at the table's ``positions``; the rest are
    each position's row, and that row's context length, W(C) and Y(C)."""
    n_vocab = len(scorer.vocab)
    theta0, theta2 = softmax.theta0, softmax.theta2
    lift0, lift2 = softmax.lift0, softmax.lift2
    excess0, excess2 = softmax.excess0, softmax.excess2
    weights, moments = softmax.weights, softmax.moments
    size = len(positions)
    target = table.targets[positions]
    prev = table.previous[positions]
    copied = table.copied[positions]
    followed = table.followed[positions]

    # W(S) of each position's previous token, and W(C & S) over its cells
    w_successors = softmax.w_successors[prev]
    y_successors = softmax.y_successors[prev]
    successor_starts = scorer._successor_starts[prev]
    successor_counts = scorer._successor_starts[prev + 1] - successor_starts
    cell_starts = table.cell_ends[positions]
    cell_counts = table.cell_ends[positions + 1] - cell_starts
    both = table.cell_words[metrics._ranges(cell_starts, cell_counts)]
    at = np.repeat(np.arange(size), cell_counts)
    w_both = np.bincount(at, weights[both], size)
    y_both = np.bincount(at, moments[both], size)

    logits = copied * theta0 + softmax.scaled[target] + followed * theta2
    has_c, has_s = context_lengths > 0, successor_counts > 0
    has_both = cell_counts > 0
    lift_c = np.where(has_both | has_c & ~(has_s & (lift2 > lift0)), lift0, 0.0)
    lift_s = np.where(has_both | has_s & ~(has_c & (lift0 >= lift2)), lift2, 0.0)

    def scale(exponent0, exponent2):  # e^(exponent0 - lift_c + exponent2 - lift_s)
        return np.exp(np.minimum((exponent0 - lift_c) + (exponent2 - lift_s), 0.0))

    k_all = scale(0.0, 0.0)
    k_context = scale(lift0, 0.0) * excess0
    k_successors = scale(0.0, lift2) * excess2
    k_both = scale(lift0, lift2) * (excess0 * excess2)
    z = k_all * softmax.w_all + k_context * w_context + k_successors * w_successors
    z += k_both * w_both
    total = k_all * softmax.w_all + abs(k_context) * w_context
    total += abs(k_successors) * w_successors + abs(k_both) * w_both
    c_own = scale(theta0, 0.0) * w_context
    c_both = scale(theta0, lift2) * excess2 * w_both
    s_own = scale(0.0, theta2) * w_successors
    s_both = scale(lift0, theta2) * excess0 * w_both
    mass_c, mass_s = c_own + c_both, s_own + s_both
    moment = k_all * softmax.y_all + k_context * y_context
    moment += k_successors * y_successors + k_both * y_both
    shift = softmax.top + lift_c + lift_s
    kept = (
        (z >= metrics._TINY)
        & (total <= metrics._CANCELLATION * z)
        & (c_own + abs(c_both) <= metrics._CANCELLATION * z)
        & (s_own + abs(s_both) <= metrics._CANCELLATION * z)
    )
    for i in np.flatnonzero(~kept):  # a dense softmax row
        row_logits = softmax.scaled.copy()
        own = table.context_words[
            table.context_ends[rows[i]] : table.context_ends[rows[i] + 1]
        ]
        row_logits[own] += theta0
        follow = scorer._bigram_keys[
            successor_starts[i] : successor_starts[i] + successor_counts[i]
        ] % n_vocab
        row_logits[follow] += theta2
        shift[i] = row_logits.max()
        exps = np.exp(row_logits - shift[i])
        z[i], mass_c[i], mass_s[i] = exps.sum(), exps[own].sum(), exps[follow].sum()
        moment[i] = exps @ softmax.unigram

    log_z = np.array(list(map(math.log, z.tolist())))
    logprobs[:] = (logits - (shift + log_z)) / LN2
    if gradients is not None:
        gradients[:, 0] = (copied - mass_c / z) / LN2
        gradients[:, 1] = (softmax.unigram[target] - moment / z) / LN2
        gradients[:, 2] = (followed - mass_s / z) / LN2


def kendall_tau_scipy_oracle(metric_scores, human_penalties) -> float | None:
    """``metaeval.kendall_tau`` as it was computed with scipy: None when a
    side is constant, else ``scipy.stats.kendalltau(variant="b")``, which
    gives NaN when any value is NaN."""
    metric = np.asarray(metric_scores, dtype=np.float64)
    human = np.asarray(human_penalties, dtype=np.float64)
    if np.all(metric == metric[0]) or np.all(human == human[0]):
        return None
    return float(scipy_stats.kendalltau(metric, -human, variant="b").statistic)


def kendall_tau_oracle(metric_scores, human_penalties) -> float | None:
    """Brute-force O(n^2) tau-b by counting concordant/discordant/tied pairs."""
    metric = np.asarray(metric_scores, dtype=np.float64)
    human = -np.asarray(human_penalties, dtype=np.float64)
    n = metric.size
    metric_sign = np.sign(metric[:, None] - metric[None, :])
    human_sign = np.sign(human[:, None] - human[None, :])
    upper = np.triu_indices(n, k=1)
    products = metric_sign[upper] * human_sign[upper]
    concordant = int(np.sum(products > 0))
    discordant = int(np.sum(products < 0))
    ties_metric = int(np.sum((metric_sign[upper] == 0) & (human_sign[upper] != 0)))
    ties_human = int(np.sum((human_sign[upper] == 0) & (metric_sign[upper] != 0)))
    denominator = math.sqrt(
        (concordant + discordant + ties_metric)
        * (concordant + discordant + ties_human)
    )
    if denominator == 0:
        return None
    return (concordant - discordant) / denominator


def pearson(x, y) -> float | None:
    """Pearson correlation; None when either side is constant."""
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"score vectors differ in length: {a.shape} vs {b.shape}")
    if a.size < 2:
        raise ValueError("need at least 2 paired observations")
    a = a - a.mean()
    b = b - b.mean()
    denominator = math.sqrt(float(a @ a) * float(b @ b))
    if denominator == 0.0:
        return None
    return float(a @ b) / denominator


def rowwise(fn):
    """A scalar statistic ``fn(x, human) -> float | None`` in the swap-batched
    form ``perm_both_test`` takes: for each swap mask row it calls ``fn`` on
    resample A, then on resample B, and gives NaN for None."""

    def statistic(a, b, human, swaps):
        rows_a, rows_b = [], []
        for swap in swaps:
            for rows, x in ((rows_a, np.where(swap, b, a)),
                            (rows_b, np.where(swap, a, b))):
                value = fn(x, human)
                rows.append(math.nan if value is None else value)
        return np.array(rows_a, dtype=np.float64), np.array(rows_b, dtype=np.float64)

    return statistic


def batched_pearson(a, b, human, swaps):
    """``rowwise(pearson)`` on the whole mask array at once: each resampled
    row is centred, then correlated with the centred human vector by one
    matmul; NaN where either side is constant."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    h = np.asarray(human, dtype=np.float64)
    h = h - h.mean()
    h_norm = float(h @ h)
    rows = []
    for x in (np.where(swaps, b, a), np.where(swaps, a, b)):
        x -= x.mean(axis=1, keepdims=True)
        denominator = np.sqrt(np.einsum("ij,ij->i", x, x) * h_norm)
        with np.errstate(divide="ignore", invalid="ignore"):
            rows.append(np.where(denominator == 0.0, np.nan, (x @ h) / denominator))
    return rows[0], rows[1]


def perm_both_oracle(metric_a, metric_b, human, correlation_fn, n_resamples, seed):
    """The scalar perm-both loop: one ``rng.random(n)`` draw and two calls of
    the scalar ``correlation_fn(x, human) -> float | None`` per attempt."""
    from metricfit.metaeval import MetaEvalError

    a = np.asarray(metric_a, dtype=np.float64)
    b = np.asarray(metric_b, dtype=np.float64)
    h = np.asarray(human, dtype=np.float64)
    corr_a = correlation_fn(a, h)
    corr_b = correlation_fn(b, h)
    if corr_a is None or corr_b is None:
        raise MetaEvalError("correlation undefined on the observed scores")
    observed = abs(corr_a - corr_b)

    rng = np.random.default_rng(seed)
    at_least_as_large = 0
    completed = 0
    attempts = 0
    max_attempts = 10 * n_resamples
    while completed < n_resamples:
        attempts += 1
        if attempts > max_attempts:
            raise MetaEvalError(
                f"exceeded {max_attempts} resampling attempts; correlations "
                "are undefined on almost all resamples"
            )
        swap = rng.random(a.size) < 0.5
        corr_ra = correlation_fn(np.where(swap, b, a), h)
        corr_rb = correlation_fn(np.where(swap, a, b), h)
        if corr_ra is None or corr_rb is None:
            continue
        if abs(corr_ra - corr_rb) >= observed:
            at_least_as_large += 1
        completed += 1
    return (1 + at_least_as_large) / (1 + n_resamples)


def ranking_pair_count_oracle(
    eval_set: EvaluationSet,
    threshold: float = 0.1,
    weights: SeverityWeights = DEFAULT_WEIGHTS,
    include_human: bool = True,
) -> int:
    """Count expected rankings by brute-force enumeration over all ratings."""
    groups: dict[tuple[str, str], dict[str, float]] = {}
    for rating in eval_set.ratings:
        translation = eval_set.translation(rating.system_id, rating.seg_id)
        if translation is None or (translation.is_human and not include_human):
            continue
        penalty = 0.0
        for error in rating.errors:
            penalty += weights.weight(error)
        groups.setdefault((rating.annotator_id, rating.seg_id), {})[
            rating.system_id
        ] = penalty
    count = 0
    for (annotator_id, seg_id), by_system in groups.items():
        if eval_set.standard_reference(seg_id) is None:
            continue
        systems = sorted(by_system)
        for i in range(len(systems)):
            for j in range(i + 1, len(systems)):
                delta = abs(by_system[systems[i]] - by_system[systems[j]])
                if delta > threshold + 1e-9:
                    count += 1
    return count


def cross_entropy_loss(scorer, source, reference) -> float:
    """Negative sequence score of the reference given the source; >= 0."""
    return -sequence_score(scorer, reference, source)


def _hinge(margin, better_score, worse_score) -> float:
    value = margin - better_score + worse_score
    return value if math.isnan(value) else max(0.0, value)


def forward_ranking_loss(scorer, reference, better, worse, margin) -> float:
    """Hinge on scoring the better translation above the worse one given the
    reference."""
    return _hinge(
        margin,
        sequence_score(scorer, better, reference),
        sequence_score(scorer, worse, reference),
    )


def backward_ranking_loss(scorer, reference, better, worse, margin) -> float:
    """Hinge on reconstructing the reference more easily from the better
    translation."""
    return _hinge(
        margin,
        sequence_score(scorer, reference, better),
        sequence_score(scorer, reference, worse),
    )


def loss_values_oracle(scorer, example, config):
    """``(ce, forward, backward, total)`` of the objective from the three
    value-only losses above, through ``token_logprobs``."""
    source = tokenize(example.src, scorer.lowercase)
    reference = tokenize(example.ref, scorer.lowercase)
    better = tokenize(example.sys_plus, scorer.lowercase)
    worse = tokenize(example.sys_minus, scorer.lowercase)

    ce = cross_entropy_loss(scorer, source, reference) if config.enable_ce else 0.0
    forward = (
        forward_ranking_loss(scorer, reference, better, worse, config.epsilon)
        if config.enable_forward
        else 0.0
    )
    backward = (
        backward_ranking_loss(scorer, reference, better, worse, config.epsilon)
        if config.enable_backward
        else 0.0
    )
    total = config.alpha * ce + 0.5 * forward + 0.5 * backward
    return ce, forward, backward, total


def combined_loss(scorer, example, config) -> float:
    """Weighted sum of the enabled value-only losses; always >= 0."""
    return loss_values_oracle(scorer, example, config)[3]


def loss_terms_oracle(scorer, example, config):
    """The objective as two scoring passes over the example: the loss values
    through ``token_logprobs`` (``loss_values_oracle``), then the gradient
    through ``token_logprob_gradients``, one sequence per call. Returns
    ``(ce, forward, backward, total)`` and the gradient."""
    source = tokenize(example.src, scorer.lowercase)
    reference = tokenize(example.ref, scorer.lowercase)
    better = tokenize(example.sys_plus, scorer.lowercase)
    worse = tokenize(example.sys_minus, scorer.lowercase)

    def score_with_gradient(target, context):
        logprobs, gradients = scorer.token_logprob_gradients(target, context)
        return math.fsum(logprobs) / len(logprobs), gradients.mean(axis=0)

    grad = np.zeros_like(scorer.theta)
    if config.enable_ce:
        _, ce_grad = score_with_gradient(reference, source)
        grad += config.alpha * -ce_grad
    if config.enable_forward:
        better_score, better_grad = score_with_gradient(better, reference)
        worse_score, worse_grad = score_with_gradient(worse, reference)
        if config.epsilon - better_score + worse_score > 0.0:
            grad += 0.5 * (worse_grad - better_grad)
    if config.enable_backward:
        better_score, better_grad = score_with_gradient(reference, better)
        worse_score, worse_grad = score_with_gradient(reference, worse)
        if config.epsilon - better_score + worse_score > 0.0:
            grad += 0.5 * (worse_grad - better_grad)
    return loss_values_oracle(scorer, example, config), grad


def scored_loss_terms_oracle(scored, config):
    """One example's ``(ce, forward, backward, total)`` and gradient from the
    ``(score, gradient)`` of its enabled pairs, in ``_example_pairs`` order,
    term by term in Python floats: a hinge whose margin is met, or that is
    NaN, adds no gradient."""
    scored = iter(scored)
    ce = 0.0
    grad = np.zeros(3)
    if config.enable_ce:
        score, ce_grad = next(scored)
        ce = -score
        grad += config.alpha * -ce_grad
    hinges = []
    for enabled in (config.enable_forward, config.enable_backward):
        value = 0.0
        if enabled:
            (better, better_grad), (worse, worse_grad) = next(scored), next(scored)
            value = _hinge(config.epsilon, better, worse)
            if value > 0.0:
                grad += 0.5 * (worse_grad - better_grad)
        hinges.append(value)
    forward, backward = hinges
    total = config.alpha * ce + 0.5 * forward + 0.5 * backward
    return (ce, forward, backward, total), grad


def ranking_accuracy_oracle(scorer, examples, direction):
    """``training.ranking_accuracy`` one example and one sequence at a time."""
    if not examples:
        return None
    correct = 0
    for example in examples:
        reference = tokenize(example.ref, scorer.lowercase)
        better = tokenize(example.sys_plus, scorer.lowercase)
        worse = tokenize(example.sys_minus, scorer.lowercase)
        if direction == "forward":
            better_score = sequence_score(scorer, better, reference)
            worse_score = sequence_score(scorer, worse, reference)
        else:
            better_score = sequence_score(scorer, reference, better)
            worse_score = sequence_score(scorer, reference, worse)
        if better_score > worse_score:
            correct += 1
    return correct / len(examples)


def train_oracle(scorer, datasets, corpus=None, config=None, batched=False):
    """``training.train`` as a loop over each step's examples: every
    sequence is scored on its own through ``PerSequenceScorer``, and each
    example's loss and gradient come from ``loss_terms_oracle``. With
    ``batched``, each step's loss terms come from one
    ``training.batch_loss_terms`` call instead, which tokenizes the step's
    texts and scores its pairs in one ``score_batch`` call. Like ``train``
    it refuses a step with a non-finite mean loss term and a non-finite
    score magnitude."""
    from metricfit.training import (
        EpochValidation,
        NumericError,
        StepRecord,
        TrainingConfig,
        TrainingReport,
        _probe_pairs,
        batch_loss_terms,
    )

    if config is None:
        config = TrainingConfig()
    pairs = sorted(lp for lp, dataset in datasets.items() if dataset.train)
    trained = scorer.with_theta(scorer.theta)
    oracle = PerSequenceScorer(trained)
    rng = random.Random(config.seed)
    report = TrainingReport(seed=config.seed)
    max_len = max(len(datasets[lp].train) for lp in pairs)
    rounds = math.ceil(max_len / config.batch_size)
    validation_pool = [
        example for lp in sorted(datasets) for example in datasets[lp].validation
    ]

    step = 0
    for epoch in range(config.epochs):
        shuffled = {}
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
                if batched:
                    step_terms = [
                        ((t.ce, t.forward, t.backward, t.total), t.gradient)
                        for t in batch_loss_terms(trained, batch, config)
                    ]
                else:
                    step_terms = [
                        loss_terms_oracle(oracle, example, config) for example in batch
                    ]
                for (ce, forward, backward, total), grad in step_terms:
                    batch_grad += grad
                    ce_sum += ce
                    forward_sum += forward
                    backward_sum += backward
                    total_sum += total
                size = len(batch)
                mean_total = total_sum / size
                sums = (total_sum, ce_sum, forward_sum, backward_sum)
                if not all(math.isfinite(value / size) for value in sums):
                    raise NumericError(f"non-finite loss at step {step}")
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
                forward_accuracy=ranking_accuracy_oracle(
                    oracle, validation_pool, "forward"
                ),
                backward_accuracy=ranking_accuracy_oracle(
                    oracle, validation_pool, "backward"
                ),
            )
        )

    probe = _probe_pairs(corpus, datasets)
    if probe:
        report.final_score_magnitude = score_magnitude(
            [
                sequence_score(
                    oracle,
                    tokenize(reference, oracle.lowercase),
                    tokenize(source, oracle.lowercase),
                )
                for source, reference in probe
            ]
        )
        if not math.isfinite(report.final_score_magnitude):
            raise NumericError("non-finite score magnitude of the trained scorer")
    return trained, report


def central_difference_gradient(fn, theta, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a weight vector."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        forward = theta.copy()
        forward[i] += step
        backward = theta.copy()
        backward[i] -= step
        grad[i] = (fn(forward) - fn(backward)) / (2.0 * step)
    return grad


def _ngram_list(tokens, order):
    return [tuple(tokens[i : i + order]) for i in range(len(tokens) - order + 1)]


def _clipped_matches(hyp_ngrams, ref_ngrams) -> int:
    matches = 0
    remaining = list(ref_ngrams)
    for ngram in hyp_ngrams:
        if ngram in remaining:
            remaining.remove(ngram)
            matches += 1
    return matches


def segment_bleu_oracle(hypothesis: str, reference: str) -> float:
    """Naive sentence BLEU: clipped counts via list removal, +1 on n >= 2."""
    hyp_tokens = hypothesis.split()
    ref_tokens = reference.split()
    product = 1.0
    for order in range(1, 5):
        hyp_ngrams = _ngram_list(hyp_tokens, order)
        ref_ngrams = _ngram_list(ref_tokens, order)
        matches = _clipped_matches(hyp_ngrams, ref_ngrams)
        total = len(hyp_ngrams)
        if order >= 2:
            matches += 1
            total += 1
        if matches == 0 or total == 0:
            return 0.0
        product *= matches / total
    if len(hyp_tokens) == 0:
        return 0.0
    brevity = (
        1.0
        if len(hyp_tokens) >= len(ref_tokens)
        else math.exp(1.0 - len(ref_tokens) / len(hyp_tokens))
    )
    return 100.0 * brevity * product ** (1.0 / 4.0)


def corpus_bleu_oracle(hypotheses, references) -> float:
    """Naive corpus BLEU over pooled clipped counts."""
    matches = [0] * 4
    totals = [0] * 4
    hyp_len = ref_len = 0
    for hypothesis, reference in zip(hypotheses, references):
        hyp_tokens = hypothesis.split()
        ref_tokens = reference.split()
        hyp_len += len(hyp_tokens)
        ref_len += len(ref_tokens)
        for order in range(1, 5):
            hyp_ngrams = _ngram_list(hyp_tokens, order)
            ref_ngrams = _ngram_list(ref_tokens, order)
            matches[order - 1] += _clipped_matches(hyp_ngrams, ref_ngrams)
            totals[order - 1] += len(hyp_ngrams)
    product = 1.0
    for m, t in zip(matches, totals):
        if m == 0 or t == 0:
            return 0.0
        product *= m / t
    if hyp_len == 0:
        return 0.0
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * product ** (1.0 / 4.0)


def chrf_oracle(hypothesis: str, reference: str, beta: float = 2.0) -> float:
    """Naive character n-gram F-score, orders 1..6, whitespace removed."""
    hyp_chars = "".join(hypothesis.split())
    ref_chars = "".join(reference.split())
    if not hyp_chars and not ref_chars:
        return 100.0
    f_scores = []
    for order in range(1, 7):
        ref_ngrams = [ref_chars[i : i + order] for i in range(len(ref_chars) - order + 1)]
        if not ref_ngrams:
            continue
        hyp_ngrams = [hyp_chars[i : i + order] for i in range(len(hyp_chars) - order + 1)]
        matches = _clipped_matches(hyp_ngrams, ref_ngrams)
        precision = matches / len(hyp_ngrams) if hyp_ngrams else 0.0
        recall = matches / len(ref_ngrams)
        if precision + recall == 0.0:
            f_scores.append(0.0)
        else:
            f_scores.append(
                (1 + beta * beta) * precision * recall / (beta * beta * precision + recall)
            )
    if not f_scores:
        return 0.0
    return 100.0 * sum(f_scores) / len(f_scores)


# Counter-based BLEU and chrF, the bit-for-bit oracles of the batched metrics:
# same integer counts, same float operations.


def _counter_ngrams(units, order) -> Counter:
    return Counter(units[i : i + order] for i in range(len(units) - order + 1))


def _counter_brevity_penalty(hyp_len: int, ref_len: int) -> float:
    if hyp_len == 0:
        return 0.0
    if hyp_len >= ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / hyp_len)


def segment_bleu_counter_oracle(
    hypothesis: str, reference: str, max_order: int = 4
) -> float:
    hyp_tokens = tokenize(hypothesis)
    ref_tokens = tokenize(reference)
    log_precisions = []
    for order in range(1, max_order + 1):
        hyp_counts = _counter_ngrams(hyp_tokens, order)
        ref_counts = _counter_ngrams(ref_tokens, order)
        matches = sum((hyp_counts & ref_counts).values())
        total = sum(hyp_counts.values())
        if order >= 2:
            matches += 1
            total += 1
        if matches == 0 or total == 0:
            return 0.0
        log_precisions.append(math.log(matches / total))
    return 100.0 * _counter_brevity_penalty(len(hyp_tokens), len(ref_tokens)) * math.exp(
        sum(log_precisions) / max_order
    )


def corpus_bleu_counter_oracle(hypotheses, references, max_order: int = 4) -> float:
    matches = [0] * max_order
    totals = [0] * max_order
    hyp_len = 0
    ref_len = 0
    for hypothesis, reference in zip(hypotheses, references):
        hyp_tokens = tokenize(hypothesis)
        ref_tokens = tokenize(reference)
        hyp_len += len(hyp_tokens)
        ref_len += len(ref_tokens)
        for order in range(1, max_order + 1):
            hyp_counts = _counter_ngrams(hyp_tokens, order)
            ref_counts = _counter_ngrams(ref_tokens, order)
            matches[order - 1] += sum((hyp_counts & ref_counts).values())
            totals[order - 1] += sum(hyp_counts.values())
    if any(m == 0 or t == 0 for m, t in zip(matches, totals)):
        return 0.0
    log_mean = sum(math.log(m / t) for m, t in zip(matches, totals)) / max_order
    return 100.0 * _counter_brevity_penalty(hyp_len, ref_len) * math.exp(log_mean)


def chrf_counter_oracle(
    hypothesis: str, reference: str, max_order: int = 6, beta: float = 2.0
) -> float:
    hyp_chars = "".join(unicodedata.normalize("NFC", hypothesis).split())
    ref_chars = "".join(unicodedata.normalize("NFC", reference).split())
    if not hyp_chars and not ref_chars:
        return 100.0

    f_scores = []
    for order in range(1, max_order + 1):
        ref_counts = _counter_ngrams(ref_chars, order)
        if not ref_counts:
            continue
        hyp_counts = _counter_ngrams(hyp_chars, order)
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


def robustness_report_oracle(
    eval_set: EvaluationSet,
    metrics,
    seed: int,
    n_resamples: int,
    alpha: float = 0.05,
    weights: SeverityWeights = DEFAULT_WEIGHTS,
) -> dict:
    """``robustness_report(...).to_dict()`` computed by rescoring: the
    oracle lists every (hypothesis, reference) pair where it is used (once
    per unit and condition at segment level, once per system pair, segment
    and condition at system level) and scores that list with one
    ``score_pairs`` call per metric and context; the seeds are hashed from
    their key strings here, and perm-both runs the scalar loop of
    :func:`perm_both_oracle`."""
    import hashlib
    from itertools import combinations

    from metricfit import metaeval

    def significance_seed(context_id, condition, pair):
        key = f"{seed}|perm|{context_id}|{condition}|{pair}"
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")

    report = metaeval.RobustnessReport(seed=seed, alpha=alpha)
    for lang_pair, domain in eval_set.group_keys():
        group = eval_set.subset(lang_pair, domain)
        human_scores = metaeval.human_segment_scores(group, weights)
        systems = sorted({system for system, _ in human_scores})
        std_refs = {
            seg_id: reference
            for seg_id in group.seg_ids()
            if (reference := group.standard_reference(seg_id)) is not None
        }
        assignments = {
            system: metaeval.sample_refs_segment_level(group, system, seed)
            for system in systems
        }
        subset = metaeval.comparable_subset(group, assignments.values())
        subset = {seg_id for seg_id in subset if seg_id in std_refs}
        units = [
            (system, seg_id)
            for system in systems
            for seg_id in sorted(subset)
            if (system, seg_id) in human_scores
            and group.translation(system, seg_id) is not None
        ]
        human_vector = [human_scores[unit] for unit in units]
        context = metaeval.ContextReport(
            lang_pair=lang_pair,
            domain=domain,
            systems=systems,
            segments_total=len(group.seg_ids()),
            segments_comparable=len(subset),
            skipped_system_pairs=0,
        )

        used = []  # every (hypothesis, reference) pair, where it is used

        def use(pairs):
            used.extend(pairs)
            return slice(len(used) - len(pairs), len(used))

        unit_slices = {
            "ref_std": use(
                [(group.translation(system, seg_id).text, std_refs[seg_id].text)
                 for system, seg_id in units]
            ),
            "ref_mt": use(
                [(group.translation(system, seg_id).text,
                  assignments[system].choices[seg_id].text)
                 for system, seg_id in units]
            ),
        }
        decided = []  # (human_a > human_b, {condition: (slice a, slice b)})
        for system_a, system_b in combinations(systems, 2):
            assignment = metaeval.sample_refs_system_pair(group, system_a, system_b, seed)
            pair_segments = sorted(
                seg_id
                for seg_id in assignment.choices
                if seg_id in std_refs
                and (system_a, seg_id) in human_scores
                and (system_b, seg_id) in human_scores
                and group.translation(system_a, seg_id) is not None
                and group.translation(system_b, seg_id) is not None
            )
            if not pair_segments:
                context.skipped_system_pairs += 1
                continue
            human_a = -math.fsum(human_scores[(system_a, s)] for s in pair_segments)
            human_b = -math.fsum(human_scores[(system_b, s)] for s in pair_segments)
            if human_a == human_b:
                continue
            decided.append((
                human_a > human_b,
                {
                    condition: tuple(
                        use([(group.translation(system, s).text, reference_text(s))
                             for s in pair_segments])
                        for system in (system_a, system_b)
                    )
                    for condition, reference_text in (
                        ("std", lambda s: std_refs[s].text),
                        ("mt", lambda s: assignment.choices[s].text),
                    )
                },
            ))

        scores = {"ref_std": {}, "ref_mt": {}}
        for metric in metrics:
            values = metric.score_pairs(used)
            std = values[unit_slices["ref_std"]]
            mt = values[unit_slices["ref_mt"]]
            scores["ref_std"][metric.metric_id] = std
            scores["ref_mt"][metric.metric_id] = mt
            tau_std = metaeval.kendall_tau(std, human_vector) if len(units) >= 2 else None
            tau_mt = metaeval.kendall_tau(mt, human_vector) if len(units) >= 2 else None
            context.segment_level[metric.metric_id] = metaeval.ConditionPair.of(
                tau_std, tau_mt
            )
            correct = {"std": 0, "mt": 0}
            for a_better, slices in decided:
                for condition, (slice_a, slice_b) in slices.items():
                    score_a = math.fsum(values[slice_a])
                    score_b = math.fsum(values[slice_b])
                    if score_a != score_b and (score_a > score_b) == a_better:
                        correct[condition] += 1
            context.system_level[metric.metric_id] = metaeval.ConditionPair.of(
                correct["std"] / len(decided) if decided else None,
                correct["mt"] / len(decided) if decided else None,
            )

        context_id = f"{lang_pair}|{domain}"
        for metric_a, metric_b in combinations(sorted(m.metric_id for m in metrics), 2):
            for condition in ("ref_std", "ref_mt"):
                try:
                    p_value = perm_both_oracle(
                        scores[condition][metric_a],
                        scores[condition][metric_b],
                        human_vector,
                        metaeval.kendall_tau,
                        n_resamples=n_resamples,
                        seed=significance_seed(
                            context_id, condition, f"{metric_a}|{metric_b}"
                        ),
                    )
                    significant = p_value < alpha
                except metaeval.MetaEvalError:
                    p_value = significant = None
                context.significance.append(
                    metaeval.SignificanceEntry(
                        metric_a, metric_b, condition, p_value, significant
                    )
                )
        report.contexts.append(context)

    report.segment_average = metaeval._average_pairs(
        [context.segment_level for context in report.contexts]
    )
    report.system_average = metaeval._average_pairs(
        [context.system_level for context in report.contexts]
    )
    return report.to_dict()
