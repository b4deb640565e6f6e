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
import operator
import unicodedata
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Protocol, Sequence

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

_BLEU_ORDER = 4
_CHRF_ORDER = 6
_CHRF_BETA = 2.0

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

    ``score_batch(pairs, with_gradients)`` scores many (target, context)
    pairs in one call: one ``(logprobs, gradients)`` per pair, in order,
    where ``logprobs`` is that pair's ``token_logprobs`` and ``gradients``
    holds one row of d logprob / d theta per entry, or is None unless asked
    for. Training scores each SGD step with one call.
    """

    def token_logprobs(
        self, target: Sequence[str], context: Sequence[str]
    ) -> list[float]: ...

    def score_batch(
        self,
        pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
        with_gradients: bool,
    ) -> list[tuple[list[float], np.ndarray | None]]: ...


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

    ``score_batch`` lays the positions of all its pairs end to end and runs
    them in blocks of at most ``_BLOCK_BYTES`` (64 KiB) of features, at
    least one position each: one stacked matmul, max, exp and sum per block
    rather than per position. A block may span several sequences, so the
    copy column is set per row; a block's copy cells are rewritten only when
    it holds another sequence than the block before it, so a lone sequence
    sets them once. Each stacked call does, slice by slice, a per-position
    call's arithmetic, so results keep their bits however pairs are
    batched. One block per batch would pass glibc's 128 KiB mmap threshold
    at a few thousand words, and every call would then fault in fresh
    pages.
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

    def score_batch(
        self,
        pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
        with_gradients: bool,
    ) -> list[tuple[list[float], np.ndarray | None]]:
        """Per-token log-probabilities of each (target, context) pair, and
        their gradients w.r.t. theta if asked for.

        One ``(logprobs, gradients)`` per pair, in order; a gradient array
        has one row per scored token (end token included), or is None.
        """
        index = self._index
        targets: list[str] = []  # every pair's positions, end to end
        previous: list[str] = []  # the token before each position
        contexts: list[np.ndarray] = []
        ends = [0]
        for target, context in pairs:
            tokens = [self._lookup(token) for token in target]
            previous += [BOS_TOKEN, *tokens]
            targets += tokens
            targets.append(EOS_TOKEN)
            contexts.append(
                np.array([index[self._lookup(token)] for token in context], np.intp)
            )
            ends.append(len(targets))
        n_positions = len(targets)
        n_vocab, n_features = len(self.vocab), len(self.FEATURE_NAMES)
        chunk = max(1, min(n_positions, _BLOCK_BYTES // (n_vocab * n_features * 8)))

        # A block of `chunk` positions' feature rows. The unigram column holds
        # for every position; each block of positions sets its bigram cells
        # and clears them again. A block that holds another sequence than the
        # block before it clears the copy column and sets each of its
        # sequences' cells on that sequence's rows.
        features = np.zeros((chunk, n_vocab, n_features))
        features[:, :, 1] = self._unigram_feature
        bigram = features[:, :, 2].reshape(-1)  # a strided view, one cell per word
        # Each position's successors: its bigram cells in `bigram`, moved to
        # the position's row when a block holds several positions. A block
        # gathers its own cells, so a batch holds no more than a block's.
        successors = [
            self._successors.get(token, _NO_SUCCESSORS) for token in previous
        ]
        row_offsets = np.arange(chunk) * n_vocab
        target_rows = [
            position % chunk * n_vocab + index[token]
            for position, token in enumerate(targets)
        ]

        logprobs: list[float] = []
        gradients = np.empty((n_positions, n_features)) if with_gradients else None
        filled_by = -1  # the sequence the last block held alone, if one did
        sequence = 0
        for start in range(0, n_positions, chunk):
            stop = min(start + chunk, n_positions)
            if chunk == 1:
                cells = successors[start]
            else:
                block_successors = successors[start:stop]
                cells = np.concatenate(block_successors) + np.repeat(
                    row_offsets[: stop - start], list(map(len, block_successors))
                )
            while ends[sequence + 1] <= start:
                sequence += 1
            if sequence != filled_by or ends[sequence + 1] < stop:
                if start:  # the first block finds the column clear
                    features[:, :, 0] = 0.0
                last = sequence
                while ends[last] < stop:
                    span = slice(max(ends[last], start) - start, ends[last + 1] - start)
                    features[span, contexts[last], 0] = 1.0
                    last += 1
                filled_by = sequence if last == sequence + 1 else -1
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
        return [
            (logprobs[start:stop], None if gradients is None else gradients[start:stop])
            for start, stop in itertools.pairwise(ends)
        ]

    def token_logprobs(
        self, target: Sequence[str], context: Sequence[str]
    ) -> list[float]:
        return self.score_batch([(target, context)], with_gradients=False)[0][0]

    def token_logprob_gradients(
        self, target: Sequence[str], context: Sequence[str]
    ) -> tuple[list[float], np.ndarray]:
        """Per-token log-probabilities and their gradients w.r.t. theta.

        The gradient array has one row per scored token (end token included).
        """
        return self.score_batch([(target, context)], with_gradients=True)[0]

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
        lowercase = data.get("lowercase", False)
        if not isinstance(lowercase, bool):
            raise ValueError(f"lowercase must be true or false, got {lowercase!r}")
        # counts up to 2**53 convert to float exactly, and their sum stays finite
        counts = dict(data["unigram_counts"])
        for token, count in counts.items():
            if type(count) is not int or not 0 <= count <= 2**53:
                raise ValueError(
                    f"unigram count of {token!r} must be an integer from 0 to "
                    f"2**53, got {count!r}"
                )
        if data["feature_names"] != list(cls.FEATURE_NAMES):
            raise ValueError(
                f"feature_names must be {list(cls.FEATURE_NAMES)}, "
                f"got {data['feature_names']!r}"
            )
        if data["vocabulary"] != sorted(set(counts) | {EOS_TOKEN, UNK_TOKEN}):
            raise ValueError(
                "vocabulary is not the unigram_counts tokens plus "
                f"{EOS_TOKEN!r} and {UNK_TOKEN!r}"
            )
        return cls(
            unigram_counts=counts,
            bigrams=[tuple(pair) for pair in bigrams],
            theta=data["theta"],
            lowercase=lowercase,
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


class _Ids(dict):
    """Interned n-gram keys: each key gets the next integer on first lookup."""

    def __missing__(self, key):
        self[key] = value = len(self)
        return value


# One order's n-grams of a text, as interned keys: each distinct n-gram once,
# and the count of each n-gram that occurs more than once. A tuple, not a
# set: a kept set of 40 keys takes about 2 KiB, the tuple about 0.4 KiB, and
# a pair builds the one set its intersection needs.
_Grams = tuple[tuple[int, ...], dict[int, int]]


class _Profile(NamedTuple):
    """The n-grams of one text, orders 1..max_order (:func:`_ngram_profile`)."""

    length: int  # characters (chrF) or tokens (BLEU)
    grams: tuple[_Grams, ...]
    totals: tuple[int, ...]  # per order: the number of n-grams in the text


def _ngram_profile(
    units: str | tuple[str, ...], max_order: int, ids: _Ids, grow: bool
) -> _Profile:
    """Profile of a character string or token tuple.

    n-grams are interned in ``ids``. With ``grow`` false, n-grams that
    ``ids`` lacks are left out: no profile built with ``grow`` holds them,
    so no match against one is lost, and ``ids`` does not grow for a text
    used once. The totals count every n-gram.
    """
    key = ids.__getitem__ if grow else ids.get
    unigrams = [units[i : i + 1] for i in range(len(units))]
    ngrams = unigrams
    grams, totals = [], []
    for order in range(1, max_order + 1):
        if order > 1:  # each (order - 1)-gram extended by the unit after it
            ngrams = list(map(operator.add, ngrams, unigrams[order - 1 :]))
        counts = Counter(map(key, ngrams))
        counts.pop(None, None)
        repeats = {}
        if len(counts) < len(ngrams):
            repeats = {gram: count for gram, count in counts.items() if count > 1}
        grams.append((tuple(counts), repeats))
        totals.append(len(ngrams))
    return _Profile(len(units), tuple(grams), tuple(totals))


def _clipped_matches(hyp: _Grams, ref: _Grams) -> int:
    """sum over n-grams g of min(hyp count of g, ref count of g): one per
    shared n-gram, plus the occurrences beyond the first that both repeat."""
    (hyp_keys, hyp_repeats), (ref_keys, ref_repeats) = hyp, ref
    matches = len(set(hyp_keys).intersection(ref_keys))
    for gram in hyp_repeats.keys() & ref_repeats.keys():
        matches += min(hyp_repeats[gram], ref_repeats[gram]) - 1
    return matches


def _bleu_profile(
    text: str, lowercase: bool, max_order: int, ids: _Ids, grow: bool
) -> _Profile:
    return _ngram_profile(tokenize(text, lowercase), max_order, ids, grow)


def _chrf_profile(text: str, max_order: int, ids: _Ids, grow: bool) -> _Profile:
    chars = "".join(unicodedata.normalize("NFC", text).split())
    return _ngram_profile(chars, max_order, ids, grow)


def segment_bleu(
    hypothesis: str,
    reference: str,
    max_order: int = _BLEU_ORDER,
    lowercase: bool = False,
) -> float:
    """Sentence-level BLEU with add-one smoothing on orders >= 2.

    The unigram precision is left unsmoothed so that a hypothesis sharing no
    word with its reference still scores 0.
    """
    ids = _Ids()
    ref = _bleu_profile(reference, lowercase, max_order, ids, True)
    hyp = _bleu_profile(hypothesis, lowercase, max_order, ids, False)
    return _segment_bleu_score(hyp, ref, max_order)


def _segment_bleu_score(hyp: _Profile, ref: _Profile, max_order: int) -> float:
    log_precisions = []
    for order, hyp_grams, ref_grams, total in zip(
        range(1, max_order + 1), hyp.grams, ref.grams, hyp.totals
    ):
        matches = _clipped_matches(hyp_grams, ref_grams)
        if order >= 2:
            matches += 1
            total += 1
        if matches == 0 or total == 0:
            return 0.0
        log_precisions.append(math.log(matches / total))
    return 100.0 * _brevity_penalty(hyp.length, ref.length) * math.exp(
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
    max_order: int = _BLEU_ORDER,
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
        ids = _Ids()
        ref = _bleu_profile(reference, lowercase, max_order, ids, True)
        hyp = _bleu_profile(hypothesis, lowercase, max_order, ids, False)
        hyp_len += hyp.length
        ref_len += ref.length
        for order in range(max_order):
            matches[order] += _clipped_matches(hyp.grams[order], ref.grams[order])
            totals[order] += hyp.totals[order]
    if any(m == 0 or t == 0 for m, t in zip(matches, totals)):
        return 0.0
    log_mean = sum(math.log(m / t) for m, t in zip(matches, totals)) / max_order
    return 100.0 * _brevity_penalty(hyp_len, ref_len) * math.exp(log_mean)


def chrf(
    hypothesis: str,
    reference: str,
    max_order: int = _CHRF_ORDER,
    beta: float = _CHRF_BETA,
) -> float:
    """Character n-gram F-score in [0, 100].

    n-grams of orders 1..max_order are taken over NFC text with whitespace
    removed; the F_beta scores are averaged over the orders for which the
    reference has at least one n-gram. Two empty strings count as a perfect
    match.
    """
    ids = _Ids()
    ref = _chrf_profile(reference, max_order, ids, True)
    hyp = _chrf_profile(hypothesis, max_order, ids, False)
    return _chrf_score(hyp, ref, beta)


def _chrf_score(hyp: _Profile, ref: _Profile, beta: float) -> float:
    if not hyp.length and not ref.length:
        return 100.0

    f_scores = []
    for hyp_grams, ref_grams, hyp_total, ref_total in zip(
        hyp.grams, ref.grams, hyp.totals, ref.totals
    ):
        if not ref_total:
            continue
        matched = _clipped_matches(hyp_grams, ref_grams)
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


@dataclass(frozen=True)
class _ProfileCache:
    """The n-gram profiles one metric object will use again, keyed by text.

    A reference text's profile is kept for the object's lifetime, and so is
    a hypothesis text's from the second time the object sees it. A text
    seen once as a hypothesis is profiled for that pair and dropped, so
    scoring many one-off hypotheses against few references holds only the
    references. Each pair then costs a clipped intersection per order.
    The metric dataclasses are frozen, as a setting changed after profiles
    were kept would leave them stale.
    """

    _ids: _Ids = field(default_factory=_Ids, init=False, repr=False, compare=False)
    _profiles: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _seen: set = field(default_factory=set, init=False, repr=False, compare=False)

    def _profile(self, text: str, grow: bool) -> _Profile:
        raise NotImplementedError

    def _pair(self, hypothesis: str, reference: str) -> tuple[_Profile, _Profile]:
        profiles = self._profiles
        # The reference first: a one-off hypothesis is built without adding
        # interned keys, so the reference's keys must be there already.
        ref = profiles.get(reference)
        if ref is None:
            ref = profiles[reference] = self._profile(reference, True)
            self._seen.discard(reference)
        hyp = profiles.get(hypothesis)
        if hyp is None:
            if hypothesis in self._seen:
                self._seen.remove(hypothesis)
                hyp = profiles[hypothesis] = self._profile(hypothesis, True)
            else:
                self._seen.add(hypothesis)
                hyp = self._profile(hypothesis, False)
        return hyp, ref


@dataclass(frozen=True)
class BleuMetric(_ProfileCache):
    metric_id: str = "bleu"
    lowercase: bool = False

    def _profile(self, text: str, grow: bool) -> _Profile:
        return _bleu_profile(text, self.lowercase, _BLEU_ORDER, self._ids, grow)

    def segment_score(self, hypothesis: str, reference: str) -> float:
        return _segment_bleu_score(*self._pair(hypothesis, reference), _BLEU_ORDER)


@dataclass(frozen=True)
class ChrfMetric(_ProfileCache):
    metric_id: str = "chrf"

    def _profile(self, text: str, grow: bool) -> _Profile:
        return _chrf_profile(text, _CHRF_ORDER, self._ids, grow)

    def segment_score(self, hypothesis: str, reference: str) -> float:
        return _chrf_score(*self._pair(hypothesis, reference), _CHRF_BETA)


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
