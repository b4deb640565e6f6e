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

import bisect
import copy
import math
import operator
import unicodedata
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain, compress, repeat
from pathlib import Path
from typing import (
    Callable, Iterable, Iterator, Mapping, NamedTuple, Protocol, Sequence,
)

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
# ToyScorer's sparse softmax: the (position, context word) cells of one block;
# the largest ratio of its terms' absolute sum to the normaliser it keeps
# (beyond it the terms cancel, and the position gets a dense row); and the
# smallest normaliser it keeps, far above the subnormal range.
_BLOCK_CELLS = 1 << 13
_CANCELLATION = 8.0
_TINY = 2.0**-960
# chrF and BLEU count the n-grams of a call's pairs in chunks whose distinct
# texts hold at most this many units (characters or tokens), or one pair's.
_CHUNK_UNITS = 1 << 13

EOS_TOKEN = "</s>"
BOS_TOKEN = "<s>"
UNK_TOKEN = "<unk>"

_BLEU_ORDER = 4
_CHRF_ORDER = 6
_CHRF_BETA = 2.0

_SCORES_COLUMNS = ["metric_id", "lang_pair", "domain", "system_id", "seg_id", "value"]


def tokenize(text: str, lowercase: bool = False) -> tuple[str, ...]:
    """Whitespace tokenization after NFC normalization."""
    text = unicodedata.normalize("NFC", text)
    if lowercase:
        text = text.lower()
    return tuple(text.split())


class SequenceScorer(Protocol):
    """Conditional model that scores target sequences given a context.

    ``lowercase`` is how the model tokenizes text (:func:`tokenize`). It is
    the one owner of that rule: training, scoring and the robustness report
    all tokenize a scorer's input with it.

    ``score_batch(pairs, with_gradients)`` scores many (target, context)
    pairs in one call and returns ``(scores, gradients)``: a float64 array
    of one score per pair, in order, and an ``(n, 3)`` array of their
    gradients, or None unless asked for. A pair's score is its sequence
    score, the mean base-2 log-probability of its target tokens and the
    appended end-of-sequence token, so it is in (-inf, 0]; its gradient is
    the mean of those tokens' d logprob / d theta rows. Each distinct pair
    is scored once per call.
    """

    lowercase: bool

    def score_batch(
        self,
        pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
        with_gradients: bool,
    ) -> tuple[np.ndarray, np.ndarray | None]: ...


def sequence_score(
    scorer: SequenceScorer, target: Sequence[str], context: Sequence[str]
) -> float:
    """Mean per-token base-2 log-probability of target given context.

    The end-of-sequence token counts toward the length, so an empty target
    is well-defined (it scores only the end token). An empty context means
    unconditional scoring. The result is in (-inf, 0].
    """
    return float(scorer.score_batch([(target, context)], False)[0][0])


def prism_score(
    scorer: SequenceScorer, candidate: Sequence[str], reference: Sequence[str]
) -> float:
    """Average of both paraphrasing directions between candidate and reference.

    Symmetric in its two sequence arguments by construction.
    """
    forward, backward = scorer.score_batch(
        [(candidate, reference), (reference, candidate)], False
    )[0].tolist()
    return 0.5 * forward + 0.5 * backward


@dataclass(frozen=True)
class _Table:
    """The theta-independent part of scoring a list of (target, context)
    pairs, built by ``ToyScorer._compile``. Pair i's positions (its target
    tokens, then the end token) are ``ends[i]:ends[i + 1]`` and its sorted
    distinct context words ``context_words[context_ends[i]:context_ends[i +
    1]]``. Per position: the vocabulary index of its token (``targets``),
    the bigram-index row of the token before it (``previous``), whether its
    token is a context word (``copied``) or follows the previous token
    (``followed``), and, as ``cell_words[cell_ends[p]:cell_ends[p + 1]]``,
    its pair's context words that follow the previous token, in context
    order. Index arrays are int32."""

    ends: np.ndarray
    context_ends: np.ndarray
    context_words: np.ndarray
    targets: np.ndarray
    previous: np.ndarray
    copied: np.ndarray
    followed: np.ndarray
    cell_ends: np.ndarray
    cell_words: np.ndarray


def _blocks(costs: np.ndarray) -> Iterator[slice]:
    """Consecutive slices of the positions, each of at most ``_BLOCK_CELLS``
    cells (position i counts ``costs[i]`` of them, at least one) or of one
    position."""
    stops = np.cumsum(np.maximum(costs, 1))
    start = 0
    while start < len(stops):
        limit = (stops[start - 1] if start else 0) + _BLOCK_CELLS
        stop = max(int(np.searchsorted(stops, limit, "right")), start + 1)
        yield slice(start, stop)
        start = stop


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of range(start, start + count) over the pairs."""
    stops = np.cumsum(counts)
    total = stops[-1] if len(stops) else 0
    return np.arange(total) + np.repeat(starts - stops + counts, counts)


def _is_key(keys: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Which needles occur in ``keys``, sorted and ending past every needle."""
    return keys[np.searchsorted(keys, needles)] == needles


def fsums(groups: Sequence[Sequence[float]]) -> tuple[list[float], int]:
    """``math.fsum`` of each group of floats, and 0; or, where one of those
    sums overflows, the fsum of each group with every term scaled by 2**-k,
    and k, which keeps each sum of finite terms finite. Either way the sums
    share one power-of-two scale, so they keep the order of the exact sums
    (where no scaled term falls below the normal range)."""
    try:
        return [math.fsum(group) for group in groups], 0
    except OverflowError:
        k = max(map(len, groups)).bit_length() + 1
        return [math.fsum(math.ldexp(x, -k) for x in group) for group in groups], k


def fsum_mean(values: Sequence[float]) -> float:
    """``math.fsum(values) / len(values)``, bit for bit where the sum stays
    in the float range; where it overflows, the same mean on the scale of
    :func:`fsums`, so the mean of finite values is finite."""
    (total,), k = fsums([values])
    return math.ldexp(total / len(values), k)


def _sequence_scores(
    logprobs: np.ndarray, gradients: np.ndarray | None, ends: Sequence[int]
) -> tuple[np.ndarray, np.ndarray | None]:
    """Each pair's score and gradient from its per-token results, pair i
    holding ``ends[i]:ends[i + 1]``: ``math.fsum`` of its log-probabilities
    over their count (:func:`fsum_mean` where a sum overflows) and, unless
    ``gradients`` is None, the mean of its gradient rows (summed in row
    order, as ``.mean(axis=0)`` sums them), one row per pair."""
    values = logprobs.tolist()
    counts = np.diff(ends)
    try:
        sums = (math.fsum(values[start:stop]) for start, stop in zip(ends, ends[1:]))
        scores = np.fromiter(sums, np.float64, len(counts)) / counts
    except OverflowError:
        scores = np.fromiter(
            (fsum_mean(values[start:stop]) for start, stop in zip(ends, ends[1:])),
            np.float64, len(counts),
        )
    means = None
    if gradients is not None:
        pair = np.repeat(np.arange(len(counts)), counts)
        columns = [np.bincount(pair, column, len(counts)) for column in gradients.T]
        means = np.stack(columns, axis=1) / counts[:, None]
    return scores, means


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

    The softmax is sparse. Only the context words C of a sequence and the
    successors S of the previous token change from one position to the
    next. With s_v = theta_1 u_v for the unigram feature u, m = max_v s_v,
    w_v = exp(s_v - m) and W(X) the sum of w over X, the normaliser is

        Z e^-m = W(vocabulary) + (e^theta_0 - 1) W(C) + (e^theta_2 - 1) W(S)
                 + (e^theta_0 - 1) (e^theta_2 - 1) W(C & S).

    Scoring has three parts. Compiling (``_compile``) turns pairs into a
    table of everything that does not depend on theta: token indices, each
    pair's context words, each position's copy and bigram flags and its
    C & S words. Evaluating (``_evaluate``) scores some of the table's
    pairs under the current theta, token by token, in one function: it
    sums the terms of theta alone once per call, then scores the positions
    block by block. ``_scores`` reduces the tokens' results to sequence
    scores. Per call, W(vocabulary) is summed once,
    W(C) once per pair, W(S) once per previous token and W(C & S) once per
    position; the expected features of the gradient split the same way.
    Each position scales these terms by its own shift, an upper bound on
    its largest logit, so no finite theta overflows. A position whose
    terms cancel most of the mass (theta_0 = -50 with the likeliest word of
    the vocabulary in the context, say) is scored with a dense softmax row
    instead. A NaN or infinite weight scores NaN everywhere.

    Log-probabilities and gradients agree with a dense softmax over the
    vocabulary to within about 1e-12 (relative, for values beyond 1). Every
    sum runs over one sequence's, token's or position's own words in a
    fixed order, so a pair's results keep their bits however pairs are
    batched or compiled. Positions are compiled and evaluated in blocks of
    at most ``_BLOCK_CELLS`` (position, context word) cells, which bounds
    the memory a call takes besides its table and results.
    """

    FEATURE_NAMES = ("copy_from_context", "log2_unigram_prob", "bigram_seen")
    FORMAT_VERSION = 1
    # the keys of ``to_dict``, the only ones ``from_dict`` accepts
    KEYS = (
        "format_version", "feature_names", "theta", "lowercase", "vocabulary",
        "unigram_counts", "bigrams",
    )

    def __init__(
        self,
        unigram_counts: Mapping[str, int],
        bigrams: Iterable[tuple[str, str]],
        theta: Sequence[float] | None = None,
        lowercase: bool = False,
    ):
        self.unigram_counts = dict(unigram_counts)
        self.lowercase = lowercase
        self.vocab = tuple(sorted(set(self.unigram_counts) | {EOS_TOKEN, UNK_TOKEN}))
        self._index = dict(zip(self.vocab, range(len(self.vocab))))
        self.theta = self._checked_theta(
            np.zeros(len(self.FEATURE_NAMES)) if theta is None else theta
        )

        total = sum(self.unigram_counts.values())
        counts = np.array(
            list(map(self.unigram_counts.get, self.vocab, repeat(0))), np.float64
        )
        self._unigram_feature = np.log2((counts + 1.0) / (total + len(self.vocab)))
        # The bigram index: one key row * V + successor per bigram, sorted,
        # so a row's successors are one slice. A previous token's row is its
        # vocabulary index; the start token's is V unless it is a word of the
        # vocabulary. A last key past every row makes every search land on an
        # entry. A bigram with a token outside the rows or the vocabulary never
        # occurs in scoring; it is dropped, so that a saved scorer loads.
        n_vocab = len(self.vocab)
        self._start_row = self._index.get(BOS_TOKEN, n_vocab)
        rows = {**self._index, BOS_TOKEN: self._start_row}
        pairs = frozenset(map(tuple, bigrams))
        previous, following = tuple(zip(*pairs)) or ((), ())
        key_rows, successors = (  # -1 for a token outside rows or the vocabulary
            np.fromiter(map(lookup.get, tokens, repeat(-1)), np.int64, len(tokens))
            for lookup, tokens in ((rows, previous), (self._index, following))
        )
        indexed = (key_rows >= 0) & (successors >= 0)
        self.bigrams = pairs if indexed.all() else frozenset(compress(pairs, indexed))
        keys = np.sort(key_rows[indexed] * n_vocab + successors[indexed])  # distinct
        self._bigram_keys = np.append(keys, (n_vocab + 2) * n_vocab)
        self._successor_starts = np.searchsorted(
            self._bigram_keys, np.arange(n_vocab + 2) * n_vocab
        )

    @classmethod
    def from_texts(
        cls,
        texts: Iterable[str],
        theta: Sequence[float] | None = None,
        lowercase: bool = False,
    ) -> "ToyScorer":
        """Collect unigram/bigram statistics from training texts."""
        sequences = [(*tokenize(text, lowercase), EOS_TOKEN) for text in texts]
        unigram_counts = Counter(chain.from_iterable(sequences))
        bigrams = set(chain.from_iterable(
            zip((BOS_TOKEN, *tokens), tokens) for tokens in sequences
        ))
        return cls(unigram_counts, bigrams, theta=theta, lowercase=lowercase)

    @classmethod
    def _checked_theta(cls, theta: Sequence[float]) -> np.ndarray:
        """A float64 copy of ``theta``, refused unless it holds one weight
        per feature."""
        weights = np.array(theta, dtype=np.float64)
        if weights.shape != (len(cls.FEATURE_NAMES),):
            raise ValueError(f"theta must have shape (3,), got {weights.shape}")
        return weights

    def with_theta(self, theta: Sequence[float]) -> "ToyScorer":
        """A copy of this scorer sharing the count tables but with new weights."""
        clone = copy.copy(self)
        clone.theta = self._checked_theta(theta)
        return clone

    def score_batch(
        self,
        pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
        with_gradients: bool,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The sequence score of each (target, context) pair and, if asked
        for, its gradient w.r.t. theta, as arrays in pair order (see
        :class:`SequenceScorer`). Each distinct pair is compiled and
        evaluated once; its results do not depend on the rest of the call.
        """
        index: dict[tuple, int] = {}  # each distinct pair's row
        rows = [index.setdefault((tuple(t), tuple(c)), len(index)) for t, c in pairs]
        table = self._compile(list(index))
        return self._scores(table, np.array(rows, np.intp), with_gradients)

    def _scores(
        self, table: _Table, rows: np.ndarray, with_gradients: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The sequence scores of the table's pairs ``rows``, an int array,
        in its shape, and their gradients with a last axis of three, or None
        unless asked for; each distinct row is evaluated once."""
        distinct, order = np.unique(rows, return_inverse=True)
        scores, gradients = _sequence_scores(
            *self._evaluate(table, distinct, with_gradients)
        )
        order = order.reshape(rows.shape)
        return scores[order], None if gradients is None else gradients[order]

    def _compile(self, pairs: Sequence[tuple[Sequence[str], Sequence[str]]]) -> _Table:
        """The theta-independent table of the pairs, in order; the C & S
        words are gathered in blocks of at most ``_BLOCK_CELLS`` cells."""
        index = self._index
        unknown, end = index[UNK_TOKEN], index[EOS_TOKEN]
        targets: list[int] = []  # every pair's positions, end to end
        previous: list[int] = []  # the row of the token before each position
        words: list[int] = []  # each pair's distinct context words, sorted
        ends, context_ends = [0], [0]
        for target, context in pairs:
            tokens = [index.get(token, unknown) for token in target]
            previous += [self._start_row, *tokens]
            targets += tokens
            targets.append(end)
            ends.append(len(targets))
            words += sorted({index.get(token, unknown) for token in context})
            context_ends.append(len(words))

        # each list is freed as soon as it is an array
        targets = np.array(targets, np.int32)
        previous = np.array(previous, np.int32)
        words = np.array(words, np.int32)
        n_vocab, n_pairs = len(self.vocab), len(ends) - 1
        context_lengths = np.diff(context_ends)
        seq = np.repeat(np.arange(n_pairs), np.diff(ends))
        # a context cell's key pair * V + word is sorted, and a last key past
        # them all makes every search land on an entry
        context_keys = np.append(
            np.repeat(np.arange(n_pairs) * n_vocab, context_lengths) + words,
            n_pairs * n_vocab,
        )
        copied = _is_key(context_keys, seq * n_vocab + targets)
        del context_keys
        key_base = previous.astype(np.int64) * n_vocab  # previous token * V
        followed = _is_key(self._bigram_keys, key_base + targets)
        context_starts = np.array(context_ends[:-1])
        cells = [np.zeros(0, np.int32)]
        cell_ends = np.zeros(len(targets) + 1, np.int32)  # counts, then their sums
        for block in _blocks(context_lengths[seq]):
            at = seq[block]
            widths = context_lengths[at]
            cell_words = words[_ranges(context_starts[at], widths)]
            cell_position = np.repeat(np.arange(len(at)), widths)
            follows = _is_key(
                self._bigram_keys, key_base[block][cell_position] + cell_words
            )
            cells.append(cell_words[follows])
            cell_ends[block.start + 1 : block.stop + 1] = np.bincount(
                cell_position[follows], minlength=len(at)
            )
        np.cumsum(cell_ends, out=cell_ends)
        return _Table(
            ends=np.array(ends, np.int32),
            context_ends=np.array(context_ends, np.int32),
            context_words=words,
            targets=targets,
            previous=previous,
            copied=copied,
            followed=followed,
            cell_ends=cell_ends,
            cell_words=np.concatenate(cells),
        )

    # an extreme weight overflows to +-inf or NaN, which callers check
    @np.errstate(over="ignore", invalid="ignore")
    def _evaluate(
        self, table: _Table, rows: Sequence[int], with_gradients: bool
    ) -> tuple[np.ndarray, np.ndarray | None, list[int]]:
        """Per-token log-probabilities of the table's pairs ``rows``, end to
        end, their gradients w.r.t. theta (one row per token, or None unless
        asked for), and the bounds: the tokens of ``rows[i]``, end token
        included, are ``ends[i]:ends[i + 1]``.

        The terms that depend on theta alone are summed once per call: with
        s = theta_1 u, top = max s, weights w = e^(s - top) and moments
        w u, their sums over the vocabulary and over the successors of each
        previous-token row of the bigram index, and per copy and bigram
        weight its positive part (lift) and (e^theta - 1) / e^lift
        (excess), which lies in (-1, 1) for every finite theta. The
        positions are then scored block by block."""
        rows = np.asarray(rows, np.intp)
        starts = table.ends[rows]
        lengths = table.ends[rows + 1] - starts
        ends = [0, *np.cumsum(lengths).tolist()]
        logprobs = np.full(ends[-1], math.nan)
        gradients = np.full((ends[-1], 3), math.nan) if with_gradients else None
        if not np.isfinite(self.theta).all():
            return logprobs, gradients, ends

        n_vocab, unigram = len(self.vocab), self._unigram_feature
        theta0, theta1, theta2 = self.theta.tolist()
        lift0, lift2 = max(theta0, 0.0), max(theta2, 0.0)
        excess0, excess2 = (
            -math.expm1(-value) if value >= 0 else math.expm1(value)
            for value in (theta0, theta2)
        )
        scaled = theta1 * unigram
        top = scaled.max()
        weights = np.exp(scaled - top)
        moments = weights * unigram
        w_all, y_all = weights.sum(), moments.sum()
        # W(S) and Y(S) of each bigram-index row, over its successors in key
        # order; the per-bigram arrays are freed so the blocks do not hold them
        key_rows, successors = np.divmod(self._bigram_keys[:-1], n_vocab)
        w_rows = np.bincount(key_rows, weights[successors], n_vocab + 1)
        y_rows = np.bincount(key_rows, moments[successors], n_vocab + 1)
        del key_rows, successors
        # W(C) and Y(C) of each pair, over its sorted context words
        context_starts = table.context_ends[rows]
        context_lengths = table.context_ends[rows + 1] - context_starts
        words = table.context_words[_ranges(context_starts, context_lengths)]
        owner = np.repeat(np.arange(len(rows)), context_lengths)
        w_pairs = np.bincount(owner, weights[words], len(rows))
        y_pairs = np.bincount(owner, moments[words], len(rows))
        positions = _ranges(starts, lengths)
        seq = np.repeat(np.arange(len(rows)), lengths)
        for block in _blocks(context_lengths[seq]):
            at = seq[block]
            position = positions[block]
            size = len(position)
            target, prev = table.targets[position], table.previous[position]
            copied, followed = table.copied[position], table.followed[position]
            w_context, y_context = w_pairs[at], y_pairs[at]
            # W(S) of each position's previous token, and W(C & S) over its cells
            w_successors, y_successors = w_rows[prev], y_rows[prev]
            successor_starts = self._successor_starts[prev]
            successor_counts = self._successor_starts[prev + 1] - successor_starts
            cell_starts = table.cell_ends[position]
            cell_counts = table.cell_ends[position + 1] - cell_starts
            both = table.cell_words[_ranges(cell_starts, cell_counts)]
            cell_owner = np.repeat(np.arange(size), cell_counts)
            w_both = np.bincount(cell_owner, weights[both], size)
            y_both = np.bincount(cell_owner, moments[both], size)
            logits = copied * theta0 + scaled[target] + followed * theta2
            # The shift above `top`, lift_c + lift_s: the largest sum of
            # positive weights that lifts a present group of words (the
            # context, the successors or both), kept in its two parts so that
            # every exponent below cancels exactly where it should.
            has_c, has_s = context_lengths[at] > 0, successor_counts > 0
            has_both = cell_counts > 0
            lift_c = np.where(has_both | has_c & ~(has_s & (lift2 > lift0)), lift0, 0.0)
            lift_s = np.where(has_both | has_s & ~(has_c & (lift0 >= lift2)), lift2, 0.0)

            def scale(exponent0, exponent2):  # e^(exponent0 - lift_c + exponent2 - lift_s)
                return np.exp(np.minimum((exponent0 - lift_c) + (exponent2 - lift_s), 0.0))

            k_all = scale(0.0, 0.0)
            k_context = scale(lift0, 0.0) * excess0
            k_successors = scale(0.0, lift2) * excess2
            k_both = scale(lift0, lift2) * (excess0 * excess2)
            z = k_all * w_all + k_context * w_context + k_successors * w_successors
            z += k_both * w_both
            total = k_all * w_all + abs(k_context) * w_context
            total += abs(k_successors) * w_successors + abs(k_both) * w_both
            # the mass of C and of S, for the expected copy and bigram features
            c_own = scale(theta0, 0.0) * w_context
            c_both = scale(theta0, lift2) * excess2 * w_both
            s_own = scale(0.0, theta2) * w_successors
            s_both = scale(lift0, theta2) * excess0 * w_both
            mass_c, mass_s = c_own + c_both, s_own + s_both
            moment = k_all * y_all + k_context * y_context
            moment += k_successors * y_successors + k_both * y_both
            shift = top + lift_c + lift_s
            kept = (
                (z >= _TINY)
                & (total <= _CANCELLATION * z)
                & (c_own + abs(c_both) <= _CANCELLATION * z)
                & (s_own + abs(s_both) <= _CANCELLATION * z)
            )
            for i in np.flatnonzero(~kept):  # a dense softmax row
                row_logits = scaled.copy()
                own = table.context_words[
                    table.context_ends[rows[at[i]]] : table.context_ends[rows[at[i]] + 1]
                ]
                row_logits[own] += theta0
                follow = self._bigram_keys[
                    successor_starts[i] : successor_starts[i] + successor_counts[i]
                ] % n_vocab
                row_logits[follow] += theta2
                shift[i] = row_logits.max()
                exps = np.exp(row_logits - shift[i])
                z[i], mass_c[i], mass_s[i] = exps.sum(), exps[own].sum(), exps[follow].sum()
                moment[i] = exps @ unigram

            log_z = np.array(list(map(math.log, z.tolist())))
            logprobs[block] = (logits - (shift + log_z)) / LN2
            if gradients is not None:
                gradients[block, 0] = (copied - mass_c / z) / LN2
                gradients[block, 1] = (unigram[target] - moment / z) / LN2
                gradients[block, 2] = (followed - mass_s / z) / LN2
        return logprobs, gradients, ends

    def token_logprobs(
        self, target: Sequence[str], context: Sequence[str]
    ) -> list[float]:
        """One base-2 log-probability per target token plus one for the
        appended end token; their mean is the pair's sequence score."""
        return self._evaluate(self._compile([(target, context)]), [0], False)[0].tolist()

    def token_logprob_gradients(
        self, target: Sequence[str], context: Sequence[str]
    ) -> tuple[list[float], np.ndarray]:
        """Per-token log-probabilities and their gradients w.r.t. theta.

        The gradient array has one row per scored token (end token included).
        """
        table = self._compile([(target, context)])
        logprobs, gradients, _ = self._evaluate(table, [0], True)
        return logprobs.tolist(), gradients

    def to_dict(self) -> dict:
        return {
            "format_version": self.FORMAT_VERSION,
            "feature_names": list(self.FEATURE_NAMES),
            "theta": [float(value) for value in self.theta],
            "lowercase": self.lowercase,
            "vocabulary": list(self.vocab),
            "unigram_counts": dict(sorted(self.unigram_counts.items())),
            "bigrams": self._sorted_bigrams(),
        }

    def _sorted_bigrams(self) -> list[list[str]]:
        """``sorted(list(pair) for pair in self.bigrams)``, read off the
        bigram index: its keys are in string order but for the start
        token's row, which moves to its place among the words."""
        starts = self._successor_starts
        start, end = starts[self._start_row], starts[self._start_row + 1]
        cut = starts[bisect.bisect_left(self.vocab, BOS_TOKEN)]
        keys = self._bigram_keys[:-1]
        keys = np.concatenate(
            (keys[:cut], keys[start:end], keys[cut:start], keys[end:])
        )
        words = np.array([*self.vocab, BOS_TOKEN], object)  # row V is <s>
        rows, successors = np.divmod(keys, len(self.vocab))
        return list(map(list, zip(words[rows].tolist(), words[successors].tolist())))

    @classmethod
    def from_dict(cls, data: dict) -> "ToyScorer":
        version = data.get("format_version")
        if type(version) is not int or version != cls.FORMAT_VERSION:
            raise ValueError(f"unsupported scorer format version: {version!r}")
        unknown = sorted(set(data) - set(cls.KEYS))
        if unknown:
            raise ValueError(f"unknown key(s): {', '.join(map(repr, unknown))}")
        lowercase = data["lowercase"]
        if not isinstance(lowercase, bool):
            raise ValueError(f"lowercase must be true or false, got {lowercase!r}")
        theta = data["theta"]
        if not isinstance(theta, list) or any(type(v) not in (int, float) for v in theta):
            raise ValueError(f"theta must be a list of numbers, got {theta!r}")
        # counts up to 2**53 convert to float exactly, and their sum stays finite
        counts = data["unigram_counts"]
        if not isinstance(counts, dict):
            raise ValueError(
                f"unigram_counts must be an object, got {type(counts).__name__}"
            )
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
        vocabulary = set(counts) | {EOS_TOKEN, UNK_TOKEN}
        if data["vocabulary"] != sorted(vocabulary):
            raise ValueError(
                "vocabulary is not the unigram_counts tokens plus "
                f"{EOS_TOKEN!r} and {UNK_TOKEN!r}"
            )
        bigrams = data["bigrams"]
        if not isinstance(bigrams, list):
            raise ValueError(f"bigrams must be a list, got {type(bigrams).__name__}")
        previous_tokens = vocabulary | {BOS_TOKEN}
        # whole columns are checked at once; only a bad one is read pair by
        # pair, to name its first bad pair
        if not _bigram_columns_valid(bigrams, previous_tokens, vocabulary):
            for pair in bigrams:
                if not (isinstance(pair, list) and len(pair) == 2
                        and all(isinstance(token, str) for token in pair)):
                    raise ValueError(f"bigram is not a pair of strings: {pair!r}")
                if pair[0] not in previous_tokens or pair[1] not in vocabulary:
                    raise ValueError(f"bigram outside the vocabulary: {pair!r}")
        return cls(
            unigram_counts=counts, bigrams=bigrams, theta=theta, lowercase=lowercase
        )

    def save(self, path: Path | str) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: Path | str) -> "ToyScorer":
        """Read a scorer; a non-finite theta loads, and scoring with it fails
        later."""
        data = read_json(path)
        try:
            return cls.from_dict(data)
        except KeyError as err:
            raise ArtefactError(path, None, f"missing key {err}") from None
        except (AttributeError, TypeError, ValueError, OverflowError) as err:
            # not a scorer object, or an integer in theta too large for a float
            raise ArtefactError(path, None, f"not a scorer: {err}") from None


def _bigram_columns_valid(
    bigrams: list, previous_tokens: set[str], vocabulary: set[str]
) -> bool:
    """Whether every bigram is a list of two strings, the first among
    ``previous_tokens`` and the second in ``vocabulary``."""
    if set(map(type, bigrams)) - {list} or set(map(len, bigrams)) - {2}:
        return False
    previous, following = tuple(zip(*bigrams)) or ((), ())
    if set(map(type, chain(previous, following))) - {str}:
        return False
    return previous_tokens.issuperset(previous) and vocabulary.issuperset(following)


def _chrf_units(text: str) -> np.ndarray:
    """chrF's units of a text: its NFC code points, whitespace removed."""
    chars = "".join(unicodedata.normalize("NFC", text).split())
    return np.frombuffer(chars.encode("utf-32-le", "surrogatepass"), np.uint32)


def _bleu_units(text: str, ids: dict[str, int]) -> np.ndarray:
    """BLEU's units of a text: its tokens, each interned in ``ids``."""
    return np.array(
        [ids.setdefault(token, len(ids)) for token in tokenize(text)], np.int64
    )


def _ngram_matches(
    units: Sequence[np.ndarray],
    hyp_index: np.ndarray,
    ref_index: np.ndarray,
    max_order: int,
) -> np.ndarray:
    """Clipped n-gram matches of text pairs, orders 1..max_order.

    ``units`` holds one int array per text; pair i is text ``hyp_index[i]``
    against text ``ref_index[i]``. Entry [i, n - 1] of the result is the
    sum over n-grams g of min(count of g in the hypothesis, count of g in
    the reference). Every count is an exact integer.

    An n-gram's id is its (n - 1)-gram's id * (distinct units) + its last
    unit's rank, below ``n_grams``; the ids are ranked anew only where the
    next order's (text, n-gram) keys could reach 2**62.
    """
    n_texts, n_pairs = len(units), len(hyp_index)
    matches = np.zeros((n_pairs, max_order), np.int64)
    lengths = np.array([len(u) for u in units], np.int64)
    flat = np.concatenate([np.zeros(0, np.int64), *units])
    text = np.repeat(np.arange(n_texts), lengths)
    # the units left in its text from each position on, itself included
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(flat))
    distinct, unigram = np.unique(flat, return_inverse=True)
    position, gram = np.arange(len(flat)), unigram  # the n-grams' starts and ids
    n_grams = len(distinct)  # a Python int, so the bound check cannot overflow
    for order in range(1, max_order + 1):
        if order > 1:  # each (order - 1)-gram with a unit after it, extended
            keep = left[position] >= order
            position, gram = position[keep], gram[keep]
            if (n_texts + 1) * n_grams * len(distinct) >= 2**62:
                ranked, gram = np.unique(gram, return_inverse=True)
                n_grams = len(ranked)
            gram = gram * len(distinct) + unigram[position + order - 1]
            n_grams *= len(distinct)
        if not len(position):
            break
        # (text, n-gram) keys with their counts, sorted, and each text's rows
        keys, counts = np.unique(text[position] * n_grams + gram, return_counts=True)
        row_starts = keys.searchsorted(np.arange(n_texts + 1) * n_grams)
        # each pair's hypothesis rows, looked up among its reference's
        first = row_starts[hyp_index]
        n_rows = row_starts[hyp_index + 1] - first
        rows = _ranges(first, n_rows)
        needles = (ref_index * n_grams).repeat(n_rows) + keys[rows] % n_grams
        found = np.minimum(keys.searchsorted(needles), len(keys) - 1)
        shared = np.minimum(counts[rows], counts[found] * (keys[found] == needles))
        sums = np.concatenate(([0], shared.cumsum()))
        ends = n_rows.cumsum()
        matches[:, order - 1] = sums[ends] - sums[ends - n_rows]
    return matches


# per pair: its hypothesis's units, its reference's, its matches of each order
_PairCounts = tuple[list[int], list[int], list[list[int]]]


def _chunks(
    pairs: Sequence[tuple[str, str]], units: Mapping[str, np.ndarray]
) -> Iterator[tuple[list[int], dict[str, int]]]:
    """The positions of the pairs, grouped by reference, in consecutive
    chunks whose distinct texts hold at most ``_CHUNK_UNITS`` units, or one
    pair's texts if those hold more; each with its texts, numbered."""
    rank = {text: i for i, text in enumerate(units)}
    chunk: list[int] = []
    members: dict[str, int] = {}
    size = 0
    for i in sorted(range(len(pairs)), key=lambda i: rank[pairs[i][1]]):
        texts = dict.fromkeys(pairs[i])
        grow = sum(len(units[text]) for text in texts if text not in members)
        if chunk and size + grow > _CHUNK_UNITS:
            yield chunk, members
            chunk, members, size = [], {}, 0
            grow = sum(len(units[text]) for text in texts)
        for text in texts:
            members.setdefault(text, len(members))
        chunk.append(i)
        size += grow
    if chunk:
        yield chunk, members


def _pair_counts(
    pairs: Sequence[tuple[str, str]],
    encode: Callable[[str], np.ndarray],
    max_order: int,
) -> _PairCounts:
    """Per (hypothesis, reference) pair: the units of its hypothesis and of
    its reference, and its clipped n-gram matches of each order.

    ``encode`` turns a text into its int units; each distinct text is
    encoded once. Each chunk of :func:`_chunks` is one
    :func:`_ngram_matches` call, which bounds the memory a call takes.
    """
    units: dict[str, np.ndarray] = {}
    for pair in pairs:
        for text in pair:
            if text not in units:
                units[text] = encode(text)
    matches = np.zeros((len(pairs), max_order), np.int64)
    for chunk, members in _chunks(pairs, units):
        index = np.array([[members[text] for text in pairs[i]] for i in chunk])
        matches[chunk] = _ngram_matches(
            [units[text] for text in members], index[:, 0], index[:, 1], max_order
        )
    return (
        [len(units[hypothesis]) for hypothesis, _ in pairs],
        [len(units[reference]) for _, reference in pairs],
        matches.tolist(),
    )


def _bleu_counts(pairs: Sequence[tuple[str, str]]) -> _PairCounts:
    ids: dict[str, int] = {}
    return _pair_counts(pairs, lambda text: _bleu_units(text, ids), _BLEU_ORDER)


def segment_bleu(hypothesis: str, reference: str) -> float:
    """Sentence-level 4-gram BLEU with add-one smoothing on orders >= 2.

    The unigram precision is left unsmoothed so that a hypothesis sharing no
    word with its reference still scores 0.
    """
    return BleuMetric().score_pairs([(hypothesis, reference)])[0]


def _segment_bleu_score(hyp_len: int, ref_len: int, matches: list[int]) -> float:
    log_precisions = []
    for order, matched in enumerate(matches, 1):
        total = max(hyp_len - order + 1, 0)
        if order >= 2:
            matched += 1
            total += 1
        if matched == 0 or total == 0:
            return 0.0
        log_precisions.append(math.log(matched / total))
    # summed left to right from 0.0: sum() compensates from Python 3.12 on
    return 100.0 * _brevity_penalty(hyp_len, ref_len) * math.exp(
        reduce(operator.add, log_precisions, 0.0) / _BLEU_ORDER
    )


def _brevity_penalty(hyp_len: int, ref_len: int) -> float:
    if hyp_len == 0:
        return 0.0
    if hyp_len >= ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / hyp_len)


def bleu(hypotheses: Sequence[str], references: Sequence[str]) -> float:
    """Corpus BLEU in [0, 100]: the standard unsmoothed 4-gram geometric mean
    of precisions over pooled counts, times the brevity penalty. Segment
    scores use the smoothed :func:`segment_bleu`."""
    if not hypotheses:
        raise ValueError("empty hypothesis list")
    if len(hypotheses) != len(references):
        raise ValueError(
            f"hypotheses and references differ in length: "
            f"{len(hypotheses)} vs {len(references)}"
        )
    hyp_lengths, ref_lengths, pair_matches = _bleu_counts(
        list(zip(hypotheses, references))
    )
    matches = [sum(column) for column in zip(*pair_matches)]
    totals = [
        sum(max(length - order + 1, 0) for length in hyp_lengths)
        for order in range(1, _BLEU_ORDER + 1)
    ]
    if any(m == 0 or t == 0 for m, t in zip(matches, totals)):
        return 0.0
    logs = (math.log(m / t) for m, t in zip(matches, totals))
    log_mean = reduce(operator.add, logs, 0.0) / _BLEU_ORDER  # see _segment_bleu_score
    hyp_len, ref_len = sum(hyp_lengths), sum(ref_lengths)
    return 100.0 * _brevity_penalty(hyp_len, ref_len) * math.exp(log_mean)


def chrf(hypothesis: str, reference: str) -> float:
    """Character n-gram F-score (chrF) in [0, 100].

    n-grams of orders 1 to 6 are taken over NFC text with whitespace
    removed; the F_2 scores (recall weighted twice as much as precision) are
    averaged over the orders for which the reference has at least one
    n-gram. Two empty strings count as a perfect match.
    """
    return ChrfMetric().score_pairs([(hypothesis, reference)])[0]


def _chrf_score(hyp_len: int, ref_len: int, matches: list[int]) -> float:
    beta = _CHRF_BETA
    if not hyp_len and not ref_len:
        return 100.0

    f_scores = []
    # the orders of which the reference has at least one n-gram
    for order, matched in enumerate(matches[:ref_len], 1):
        hyp_total = max(hyp_len - order + 1, 0)
        ref_total = ref_len - order + 1
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
    return fsum_mean(segment_scores)


def score_magnitude(segment_scores: Sequence[float]) -> float:
    """Mean of 2**score: sequence scores mapped back to probability space."""
    if not segment_scores:
        raise ValueError("cannot average an empty list of segment scores")
    return math.fsum(2.0**score for score in segment_scores) / len(segment_scores)


class MetricScore(NamedTuple):
    """One metric value for one system translation; higher is better."""

    metric_id: str
    system_id: str
    seg_id: str
    value: float


class Metric(Protocol):
    """A reference-based segment-level metric; higher is better.

    ``score_pairs`` scores many (hypothesis, reference) text pairs in one
    call, one value per pair, in order.
    """

    metric_id: str

    def score_pairs(self, pairs: Sequence[tuple[str, str]]) -> list[float]: ...


@dataclass(frozen=True)
class BleuMetric:
    """Segment-level BLEU (:func:`segment_bleu`). It keeps no state between
    calls: each ``score_pairs`` call encodes its distinct texts once and
    counts their n-grams in bounded chunks."""

    metric_id: str = "bleu"

    def score_pairs(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        """:func:`segment_bleu` of each pair, in order."""
        return list(map(_segment_bleu_score, *_bleu_counts(pairs)))

    def segment_score(self, hypothesis: str, reference: str) -> float:
        return self.score_pairs([(hypothesis, reference)])[0]


@dataclass(frozen=True)
class ChrfMetric:
    """Segment-level chrF (:func:`chrf`), stateless like :class:`BleuMetric`."""

    metric_id: str = "chrf"

    def score_pairs(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        """:func:`chrf` of each pair, in order."""
        return list(map(_chrf_score, *_pair_counts(pairs, _chrf_units, _CHRF_ORDER)))

    def segment_score(self, hypothesis: str, reference: str) -> float:
        return self.score_pairs([(hypothesis, reference)])[0]


class PrismMetric:
    """Bidirectional paraphrase score under a sequence scorer."""

    def __init__(self, scorer: SequenceScorer, metric_id: str = "prism"):
        self.scorer = scorer
        self.metric_id = metric_id

    def score_pairs(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        """:func:`prism_score` of each pair, from one ``score_batch`` call
        over both directions of every pair; each text is tokenized once, as
        the scorer tokenizes it. A scorer with a NaN theta gives NaN."""
        texts = {text for pair in pairs for text in pair}
        tokens = {text: tokenize(text, self.scorer.lowercase) for text in texts}
        directions = [
            (tokens[first], tokens[second])
            for hypothesis, reference in pairs
            for first, second in ((hypothesis, reference), (reference, hypothesis))
        ]
        scores, _ = self.scorer.score_batch(directions, with_gradients=False)
        return (0.5 * scores[::2] + 0.5 * scores[1::2]).tolist()

    def segment_score(self, hypothesis: str, reference: str) -> float:
        return self.score_pairs([(hypothesis, reference)])[0]


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


def metric_score_rows(path: Path | str) -> Iterator[tuple[int, tuple, MetricScore]]:
    """Yield ``(line, group, score)``; rejects non-finite values and repeated
    keys. Each distinct id is stored once, however many scores repeat it."""
    seen: set[tuple[str, str, str]] = set()
    share = {}.setdefault  # share(value, value): the first equal string
    for line, (metric_id, lang_pair, domain, system_id, seg_id, value) in read_tsv(
        path, _SCORES_COLUMNS
    ):
        key = (metric_id, system_id, seg_id)
        if key in seen:
            raise ArtefactError(path, line, f"duplicate score for {key!r}")
        key = tuple(map(share, key, key))
        seen.add(key)
        score = MetricScore(*key, parse_float(path, line, "value", value))
        yield line, (lang_pair, domain), score
