"""Tests for sequence scoring, the toy scorer, and the BLEU/chrF baselines."""

import collections
import contextlib
import dataclasses
import functools
import itertools
import math
import random
import string
import unittest.mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    _BLOCK_BYTES,
    FlatScorer,
    TableScorer,
    chrf_counter_oracle,
    chrf_oracle,
    corpus_bleu_counter_oracle,
    corpus_bleu_oracle,
    segment_bleu_counter_oracle,
    segment_bleu_oracle,
    separable_ranking_examples,
    load_robustness_corpus,
    load_tiny_corpus,
    toy_dense_score_oracle,
    toy_logprob_oracle,
    toy_score_oracle,
)
from metricfit import metrics as metrics_module
from metricfit.metaeval import standard_reference_scores
from metricfit.metrics import (
    LN2,
    BleuMetric,
    ChrfMetric,
    MetricScore,
    PrismMetric,
    ToyScorer,
    bleu,
    chrf,
    metric_score_rows,
    prism_score,
    score_magnitude,
    segment_bleu,
    sequence_score,
    system_score,
    tokenize,
    _sequence_scores,
    write_metric_scores,
)
from metricfit.rankings import split_holdout
from metricfit.training import NumericError, TrainingConfig, train


def _small_scorer(theta=(0.7, 0.4, -0.3)):
    texts = [
        "der hund läuft schnell",
        "die katze schläft",
        "der hund schläft gern",
        "die sonne scheint",
    ]
    return ToyScorer.from_texts(texts, theta=theta)


def test_tokenize_nfc_and_whitespace():
    assert tokenize("  der \t hund\n") == ("der", "hund")
    assert tokenize("café") == ("café",)
    assert tokenize("Der Hund", lowercase=True) == ("der", "hund")


def test_sequence_score_uniform_vocab_of_four():
    scorer = FlatScorer(math.log2(0.25))
    assert sequence_score(scorer, ("a", "b", "c"), ()) == pytest.approx(-2.0)


def test_sequence_score_single_token_half_probability():
    scorer = FlatScorer(math.log2(0.5))
    assert sequence_score(scorer, ("a",), ("x",)) == pytest.approx(-1.0)


def test_sequence_score_empty_target_scores_end_token():
    scorer = FlatScorer(-3.0)
    assert sequence_score(scorer, (), ("x",)) == pytest.approx(-3.0)


def test_toy_scorer_logprob_shape_and_range():
    scorer = _small_scorer()
    logprobs = scorer.token_logprobs(("der", "hund"), ("die", "katze"))
    assert len(logprobs) == 3
    assert all(lp <= 0.0 for lp in logprobs)


def test_toy_scorer_matches_softmax_oracle():
    scorer = _small_scorer()
    target = ("der", "hund", "schläft")
    context = ("die", "katze", "schläft")
    expected = toy_logprob_oracle(scorer, target, context)
    actual = scorer.token_logprobs(target, context)
    assert actual == pytest.approx(expected, abs=1e-9)


def test_toy_scorer_oracle_agreement_random_draws():
    rng = random.Random(17)
    words = ["der", "hund", "katze", "läuft", "schläft", "xyz", "unbekannt"]
    for _ in range(25):
        theta = [rng.uniform(-2, 2) for _ in range(3)]
        scorer = _small_scorer(theta)
        target = tuple(rng.choice(words) for _ in range(rng.randint(0, 4)))
        context = tuple(rng.choice(words) for _ in range(rng.randint(0, 4)))
        expected = toy_logprob_oracle(scorer, target, context)
        assert scorer.token_logprobs(target, context) == pytest.approx(
            expected, abs=1e-9
        )


def test_toy_scorer_distribution_sums_to_one():
    scorer = _small_scorer()
    for prefix in [(), ("der",), ("der", "hund")]:
        total = 0.0
        for candidate in scorer.vocab:
            logprobs = scorer.token_logprobs(prefix + (candidate,), ("die",))
            total += 2.0 ** logprobs[len(prefix)]
        assert total == pytest.approx(1.0, abs=1e-9)


def test_toy_scorer_unknown_tokens_map_to_unk():
    scorer = _small_scorer()
    assert scorer.token_logprobs(("qqqq",), ()) == scorer.token_logprobs(
        ("<unk>",), ()
    )


def test_toy_scorer_deterministic():
    scorer = _small_scorer()
    first = scorer.token_logprobs(("der", "hund"), ("die",))
    second = scorer.token_logprobs(("der", "hund"), ("die",))
    assert first == second


def test_with_theta_shares_tables_but_not_theta():
    scorer = _small_scorer(theta=(0.25, -1.5, 2.0))
    theta = np.array([1.0, 0.5, -0.5])
    clone = scorer.with_theta(theta)
    shared = (
        "unigram_counts", "bigrams", "vocab", "_unigram_feature", "_bigram_keys",
        "_successor_starts",
    )
    for name in shared:
        assert getattr(clone, name) is getattr(scorer, name), name
    theta[0] = 9.0
    clone.theta[1] = 7.0
    assert clone.theta.tolist() == [1.0, 7.0, -0.5]
    assert scorer.theta.tolist() == [0.25, -1.5, 2.0]
    target, context = ("der", "hund"), ("die", "sonne")
    fresh = ToyScorer(
        scorer.unigram_counts, scorer.bigrams, theta=clone.theta, lowercase=False
    )
    assert clone.token_logprobs(target, context) == fresh.token_logprobs(
        target, context
    )


def test_toy_scorer_serialization_round_trip(tmp_path):
    scorer = _small_scorer(theta=(0.25, -1.5, 2.0))
    path = tmp_path / "scorer.json"
    scorer.save(path)
    loaded = ToyScorer.load(path)
    assert loaded.vocab == scorer.vocab
    assert np.array_equal(loaded.theta, scorer.theta)
    target, context = ("der", "hund"), ("die", "sonne")
    assert loaded.token_logprobs(target, context) == scorer.token_logprobs(
        target, context
    )


def test_toy_scorer_rejects_unknown_format_version():
    scorer = _small_scorer()
    payload = scorer.to_dict()
    payload["format_version"] = 99
    with pytest.raises(ValueError):
        ToyScorer.from_dict(payload)


@pytest.mark.parametrize(
    "pair", [["ein"], ["ein", 3], ["a", "b", "c"], "ab", None], ids=repr
)
def test_toy_scorer_refuses_malformed_bigram(pair):
    payload = _small_scorer().to_dict()
    payload["bigrams"].append(pair)
    with pytest.raises(ValueError, match="bigram is not a pair of strings"):
        ToyScorer.from_dict(payload)


# Successors outside the vocabulary and an <unk> predecessor can only come
# from a scorer file; the index must leave the first out and keep the second.
_ORACLE_SCORER = _small_scorer()
_ORACLE_BIGRAMS = _ORACLE_SCORER.bigrams | {
    ("der", "fremd"),
    ("fremd", "der"),
    ("<unk>", "hund"),
    ("<unk>", "</s>"),
}
_ORACLE_WORDS = (
    "der", "hund", "katze", "schläft", "sonne", "scheint", "gern",
    "<unk>", "</s>", "<s>", "fremd", "xyz",
)
_WEIGHTS = st.one_of(
    st.floats(-50.0, 50.0), st.sampled_from([50.0, -50.0, 0.0, math.nan])
)


def _assert_close(actual, expected, slack=0.0):
    """Equal within 1e-12 * max(1, |expected|) + slack, element by element;
    NaN exactly where ``expected`` is NaN."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    assert np.array_equal(np.isnan(actual), np.isnan(expected))
    error = np.abs(actual - expected)[~np.isnan(expected)]
    bound = 1e-12 * np.maximum(1.0, np.abs(expected))[~np.isnan(expected)] + slack
    assert (error <= bound).all(), (error.max(), actual, expected)


def _matmul_error(scorer):
    """A bound on the rounding of toy_score_oracle's expected features: a
    plain sum of V products p_v f_v, each at most max |f| in size, is off by
    at most (V - 1) 2^-53 max |f|; the gradient divides it by log 2."""
    largest = max(1.0, float(np.abs(scorer._unigram_feature).max()))
    return (len(scorer.vocab) - 1) * 2.0**-53 * largest / LN2


@settings(max_examples=300, deadline=None)
@given(
    theta=st.lists(_WEIGHTS, min_size=3, max_size=3),
    target=st.lists(st.sampled_from(_ORACLE_WORDS), max_size=6),
    context=st.lists(st.sampled_from(_ORACLE_WORDS), max_size=6),
)
def test_toy_scorer_matches_dense_oracle_within_tolerance(theta, target, context):
    scorer = ToyScorer(_ORACLE_SCORER.unigram_counts, _ORACLE_BIGRAMS, theta=theta)
    _assert_matches_dense_oracle(scorer, target, context)


def _assert_matches_dense_oracle(scorer, target, context):
    with np.errstate(invalid="ignore", over="ignore"):
        logprobs = scorer.token_logprobs(target, context)
        expected_logprobs, _ = toy_dense_score_oracle(scorer, target, context, False)
        with_grad, gradients = scorer.token_logprob_gradients(target, context)
        _, expected_gradients = toy_dense_score_oracle(scorer, target, context, True)
    assert _hexes(logprobs) == _hexes(with_grad)
    _assert_close(logprobs, expected_logprobs)
    _assert_close(gradients, expected_gradients)


def _wide_oracle_scorer(n_filler):
    """The oracle scorer plus ``n_filler`` words, each with a few successors."""
    fillers = [f"f{i:04d}" for i in range(n_filler)]
    counts = dict(_ORACLE_SCORER.unigram_counts)
    counts.update({word: 1 + i % 7 for i, word in enumerate(fillers)})
    bigrams = set(_ORACLE_BIGRAMS)
    for i, word in enumerate(fillers):
        bigrams.add((word, fillers[(7 * i + 1) % n_filler]))
        bigrams.add((word, _ORACLE_WORDS[i % 7]))
        bigrams.add((_ORACLE_WORDS[i % 4], word))
    return ToyScorer(counts, bigrams), fillers[:12]


# Positions per feature block of toy_score_oracle (_BLOCK_BYTES // (8 * 3 *
# vocabulary)): 2 at about 1.2k words, so a sequence spans several blocks and
# its last one may be partial; 1 from about 2.7k words on.
_WIDE_SCORERS = {
    2: _wide_oracle_scorer(1_190),
    1: _wide_oracle_scorer(2_800),
}


@pytest.mark.parametrize("positions_per_block", sorted(_WIDE_SCORERS))
@settings(max_examples=40, deadline=None)
@given(theta=st.lists(_WEIGHTS, min_size=3, max_size=3), data=st.data())
def test_toy_scorer_matches_dense_oracle_across_feature_blocks(
    positions_per_block, theta, data
):
    base, fillers = _WIDE_SCORERS[positions_per_block]
    assert max(1, _BLOCK_BYTES // (8 * 3 * len(base.vocab))) == positions_per_block
    words = st.sampled_from(_ORACLE_WORDS + tuple(fillers))
    target = data.draw(st.lists(words, min_size=3, max_size=9), label="target")
    context = data.draw(st.lists(words, max_size=6), label="context")
    _assert_matches_dense_oracle(base.with_theta(theta), target, context)


@functools.lru_cache(maxsize=4)  # a shrinking draw keeps its vocabulary size
def _batch_scorer(n_vocab):
    """A scorer of ``n_vocab`` words, end and unknown tokens included, with a
    few successors per word; one bigram has an out-of-vocabulary successor
    and one an ``<unk>`` predecessor, as only a scorer file can hold."""
    words = [f"v{i:04d}" for i in range(n_vocab - 2)]
    counts = {word: 1 + i % 5 for i, word in enumerate(words)}
    bigrams = {("<unk>", words[-1]), (words[0], "fremd")}
    for i, word in enumerate(words):
        bigrams.add((word, words[(3 * i + 1) % len(words)]))
        if i % 3 == 0:
            bigrams.add(("<s>", word))
        if i % 4 == 0:
            bigrams.add((word, "</s>"))
    return ToyScorer(counts, bigrams)


def _hexes(values):
    return [float(value).hex() for value in np.ravel(values)]


def _key(pair):
    target, context = pair
    return tuple(target), tuple(context)


def _token_batch(scorer, pairs, with_gradients):
    """``ToyScorer._token_scores`` on ``pairs``: one ``(logprobs,
    gradients)`` per pair, gradients None unless asked for."""
    logprobs, gradients, ends = scorer._token_scores(pairs, with_gradients)
    return [
        (
            logprobs[start:stop].tolist(),
            None if gradients is None else gradients[start:stop],
        )
        for start, stop in itertools.pairwise(ends)
    ]


def _token_views(scorer, pair):
    """One pair's per-token log-probabilities, from ``token_logprobs``, and
    gradients, from ``token_logprob_gradients``."""
    return scorer.token_logprobs(*pair), scorer.token_logprob_gradients(*pair)[1]


def _assert_sequence_scores(scorer, pairs, tokens=_token_views):
    """``score_batch`` on ``pairs``, with and without gradients: each pair's
    score has the bits of ``math.fsum`` of its per-token log-probabilities
    over their count, and its gradient those of the mean of its per-token
    gradient rows, both from ``tokens(scorer, pair)``."""
    with np.errstate(invalid="ignore", over="ignore"):
        scores, none = scorer.score_batch(pairs, with_gradients=False)
        grad_scores, grads = scorer.score_batch(pairs, with_gradients=True)
        expected = [tokens(scorer, pair) for pair in pairs]
    assert scores.shape == grad_scores.shape == (len(pairs),)
    assert grads.shape == (len(pairs), 3)
    assert none is None
    for score, grad_score, gradient, (logprobs, gradients) in zip(
        scores, grad_scores, grads, expected
    ):
        assert score.hex() == grad_score.hex()
        assert score.hex() == (math.fsum(logprobs) / len(logprobs)).hex()
        assert _hexes(gradient) == _hexes(gradients.mean(axis=0))


def _assert_batch_matches_oracles(scorer, pairs):
    """``ToyScorer._token_scores`` on ``pairs``, with and without
    gradients: bit for bit the results of scoring each pair in a call of its
    own, and within tolerance of the dense and the blocked oracle (whose
    gradients may also be off by their own matmul's rounding);
    ``score_batch`` gives each pair the mean of those results
    (:func:`_assert_sequence_scores`)."""
    with np.errstate(invalid="ignore", over="ignore"):
        without = _token_batch(scorer, pairs, with_gradients=False)
        with_grad = _token_batch(scorer, pairs, with_gradients=True)
        expected = {
            key: (
                _token_batch(scorer, [key], with_gradients=True)[0],
                toy_score_oracle(scorer, *key, True),
                toy_dense_score_oracle(scorer, *key, True),
            )
            for key in map(_key, pairs)
        }
    _assert_sequence_scores(scorer, pairs, lambda _, pair: expected[_key(pair)][0])
    assert len(without) == len(with_grad) == len(pairs)
    for pair, (logprobs, none), (grad_logprobs, gradients) in zip(
        pairs, without, with_grad
    ):
        alone, blocked, dense = expected[_key(pair)]
        assert none is None
        assert _hexes(logprobs) == _hexes(grad_logprobs) == _hexes(alone[0])
        assert _hexes(gradients) == _hexes(alone[1])
        _assert_close(logprobs, dense[0])
        _assert_close(gradients, dense[1])
        _assert_close(logprobs, blocked[0])
        _assert_close(gradients, blocked[1], slack=_matmul_error(scorer))


_BATCH_EXTRA_WORDS = ("<unk>", "</s>", "<s>", "fremd", "xyz")


@settings(max_examples=100, deadline=None)
@given(
    n_vocab=st.one_of(st.integers(3, 60), st.integers(61, 3_000)),
    theta=st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3),
    data=st.data(),
)
def test_score_batch_matches_per_sequence_oracles(n_vocab, theta, data):
    scorer = _batch_scorer(n_vocab).with_theta(theta)
    words = st.one_of(
        st.integers(0, n_vocab - 3).map("v{:04d}".format),
        st.sampled_from(_BATCH_EXTRA_WORDS),
    )
    pool = data.draw(
        st.lists(
            st.tuples(st.lists(words, max_size=10), st.lists(words, max_size=8)),
            min_size=1,
            max_size=6,
        ),
        label="pool",
    )
    repeats = data.draw(
        st.lists(st.integers(0, len(pool) - 1), max_size=6), label="repeats"
    )
    pairs = data.draw(st.permutations(pool + [pool[i] for i in repeats]), label="pairs")
    _assert_batch_matches_oracles(scorer, pairs)


@pytest.mark.parametrize("n_vocab", [3, 92, 1_192, 2_802])
def test_score_batch_matches_oracles_when_sequences_cross_blocks(n_vocab, monkeypatch):
    rng = random.Random(n_vocab)
    scorer = _batch_scorer(n_vocab).with_theta((1.5, 0.5, -2.0))
    words = [f"v{i:04d}" for i in range(min(n_vocab - 2, 40))]
    words += _BATCH_EXTRA_WORDS
    pairs = [
        (
            [rng.choice(words) for _ in range(rng.randint(0, 12))],
            [rng.choice(words) for _ in range(rng.randint(0, 6))],
        )
        for _ in range(8)
    ]
    pairs += [([], []), pairs[0], ([], ["xyz"]), pairs[2]]
    _assert_batch_matches_oracles(scorer, pairs)
    expected = _token_batch(scorer, pairs, with_gradients=True)
    backwards = _token_batch(scorer, pairs[::-1], with_gradients=True)[::-1]
    for (logprobs, gradients), (again, again_gradients) in zip(expected, backwards):
        assert _hexes(again) == _hexes(logprobs)
        assert _hexes(again_gradients) == _hexes(gradients)
    cells = sum((len(t) + 1) * len(set(c)) for t, c in pairs)
    for block_cells in (1, 5, 64, cells - 1):  # blocks of one position and up
        monkeypatch.setattr(metrics_module, "_BLOCK_CELLS", block_cells)
        for (logprobs, gradients), (again, again_gradients) in zip(
            expected, _token_batch(scorer, pairs, with_gradients=True)
        ):
            assert _hexes(again) == _hexes(logprobs)
            assert _hexes(again_gradients) == _hexes(gradients)


@pytest.mark.parametrize(
    "theta",
    [(0.7, 0.4, -0.3), (50.0, -50.0, 50.0), (-50.0, 50.0, -50.0), (math.nan, 1.0, 0.5)],
    ids=repr,
)
def test_score_batch_reduces_each_pair_to_the_mean_of_its_tokens(theta):
    rng = random.Random(5)
    scorer = _batch_scorer(92).with_theta(theta)
    words = [f"v{i:04d}" for i in range(90)] + list(_BATCH_EXTRA_WORDS)
    lists = [
        ([rng.choice(words) for _ in range(rng.randint(0, 9))],
         [rng.choice(words) for _ in range(rng.randint(0, 6))])
        for _ in range(12)
    ]
    # list and tuple inputs, empty targets, and pairs repeated in either form
    empty = [([], []), ((), ("xyz",)), ((), ())]
    pairs = lists + empty + [_key(pair) for pair in lists[:4]] + lists[:3]
    _assert_sequence_scores(scorer, pairs)


def test_score_batch_of_nothing_is_empty():
    scores, gradients = _small_scorer().score_batch([], with_gradients=True)
    assert scores.shape == (0,) and gradients.shape == (0, 3)
    scores, none = _small_scorer().score_batch([], with_gradients=False)
    assert scores.shape == (0,) and none is None
    assert _token_batch(_small_scorer(), [], with_gradients=True) == []


# Weights in +-50: its ends drive some positions onto the dense softmax row.
_EVALUATE_WEIGHTS = st.one_of(
    st.floats(-50.0, 50.0), st.sampled_from([-50.0, 50.0, 0.0, math.nan])
)


@pytest.mark.parametrize("block_cells", [None, 1, 5, 64])
@settings(max_examples=40, deadline=None)
@given(
    n_vocab=st.one_of(st.integers(3, 60), st.integers(61, 3_000)),
    theta=st.lists(_EVALUATE_WEIGHTS, min_size=3, max_size=3),
    data=st.data(),
)
def test_evaluate_of_compiled_rows_matches_score_batch(
    block_cells, n_vocab, theta, data
):
    """A table compiled once scores any subset, permutation or repetition
    of its rows with the bits of ``score_batch`` on those pairs, in blocks
    of any size, token by token (``_evaluate``) and pair by pair
    (``_scores``)."""
    scorer = _batch_scorer(n_vocab).with_theta(theta)
    words = st.one_of(
        st.integers(0, n_vocab - 3).map("v{:04d}".format),
        st.sampled_from(_BATCH_EXTRA_WORDS),
    )
    pool = data.draw(
        st.lists(
            st.tuples(st.lists(words, max_size=10), st.lists(words, max_size=8)),
            min_size=1,
            max_size=8,
        ),
        label="pool",
    )
    rows = data.draw(
        st.lists(st.integers(0, len(pool) - 1), max_size=12), label="rows"
    )
    blocks = (
        contextlib.nullcontext()
        if block_cells is None
        else unittest.mock.patch.object(metrics_module, "_BLOCK_CELLS", block_cells)
    )
    with np.errstate(invalid="ignore", over="ignore"):
        expected = scorer.score_batch([pool[row] for row in rows], with_gradients=True)
        tokens = [scorer.token_logprob_gradients(*pool[row]) for row in rows]
        with blocks:
            table = scorer._compile(pool)
            logprobs, gradients, ends = scorer._evaluate(table, rows, True)
            alone, none, ends_alone = scorer._evaluate(table, rows, False)
            reduced = scorer._scores(table, np.array(rows, np.intp), True)
    assert none is None and ends == ends_alone
    assert _hexes(logprobs) == _hexes(alone)
    assert len(ends) == len(rows) + 1
    scores, means = _sequence_scores(logprobs, gradients, ends)
    assert scores.shape == (len(rows),) and means.shape == (len(rows), 3)
    assert _hexes(reduced[0]) == _hexes(scores) == _hexes(expected[0])
    assert _hexes(reduced[1]) == _hexes(means)
    for i, (start, stop) in enumerate(itertools.pairwise(ends)):
        assert scores[i].hex() == expected[0][i].hex()
        assert _hexes(means[i]) == _hexes(expected[1][i])
        assert _hexes(logprobs[start:stop]) == _hexes(tokens[i][0])
        assert _hexes(gradients[start:stop]) == _hexes(tokens[i][1])


@pytest.mark.parametrize("n_vocab", [3, 92, 2_802])
def test_zero_weights_keep_the_bits_of_the_uniform_distribution(n_vocab):
    rng = random.Random(n_vocab)
    scorer = _batch_scorer(n_vocab)
    words = [f"v{i:04d}" for i in range(n_vocab - 2)] + list(_BATCH_EXTRA_WORDS)
    pairs = [
        ([rng.choice(words) for _ in range(rng.randint(0, 9))],
         [rng.choice(words) for _ in range(rng.randint(0, 6))])
        for _ in range(20)
    ]
    uniform = (0.0 - (0.0 + math.log(n_vocab))) / LN2  # the dense softmax's bits
    for logprobs, _ in _token_batch(scorer, pairs, with_gradients=True):
        assert _hexes(logprobs) == [uniform.hex()] * len(logprobs)


# Extreme weights: a huge positive weight leaves only the words it lifts, so
# the gradient is the limit that the dense oracle reaches at a weight of
# 1000 (the dense rows lose the unigram feature in a logit of 1e300).
_EXTREME_WEIGHTS = [
    ((1e300, 1.0, 1.0), (1000.0, 1.0, 1.0)),
    ((-1e300, 1.0, 1.0), None),
    ((1.0, 1.0, 1e300), (1.0, 1.0, 1000.0)),
    ((1.0, 1.0, -1e300), None),
    ((1e300, -3.0, 1e300), (1000.0, -3.0, 1000.0)),
    ((-50.0, 50.0, 0.0), None),
    ((50.0, -50.0, -50.0), None),
]


@pytest.mark.parametrize("theta, limit", _EXTREME_WEIGHTS, ids=repr)
def test_extreme_weights_score_finite_and_match_the_dense_oracle(theta, limit):
    rng = random.Random(7)
    for n_vocab in (5, 92, 1_192):
        scorer = _batch_scorer(n_vocab).with_theta(theta)
        # v0000 is among the likeliest words: put it in most contexts
        words = [f"v{i:04d}" for i in range(min(n_vocab - 2, 30))] + ["xyz", "<s>"]
        for _ in range(15):
            target = [rng.choice(words) for _ in range(rng.randint(0, 6))]
            context = ["v0000"] * rng.randint(0, 2)
            context += [rng.choice(words) for _ in range(rng.randint(0, 5))]
            logprobs, gradients = scorer.token_logprob_gradients(target, context)
            assert np.isfinite(logprobs).all() and np.isfinite(gradients).all()
            expected, expected_gradients = toy_dense_score_oracle(
                scorer, target, context, True
            )
            _assert_close(logprobs, expected)
            if limit is not None:
                _, expected_gradients = toy_dense_score_oracle(
                    scorer.with_theta(limit), target, context, True
                )
            _assert_close(gradients, expected_gradients)


def test_cancelling_terms_fall_back_to_a_dense_row(monkeypatch):
    """theta_0 = -50 with the one dominant word in the context cancels all
    but about 1e-6 of the sparse terms' mass; the dense row keeps the
    result within tolerance, where the sparse terms alone are off by about
    1e-10."""
    counts = {f"w{i:02d}": 1 for i in range(90)}
    counts["the"] = 1000
    bigrams = {("<s>", "w01"), ("w01", "the")}
    scorer = ToyScorer(counts, bigrams, theta=(-50.0, 2.0, 0.0))
    pair = (["w01", "the", "w02"], ["the", "w03"])
    expected, _ = toy_dense_score_oracle(scorer, *pair, False)
    _assert_close(scorer.token_logprobs(*pair), expected)
    monkeypatch.setattr(metrics_module, "_CANCELLATION", math.inf)
    with pytest.raises(AssertionError):
        _assert_close(scorer.token_logprobs(*pair), expected)


def test_nan_theta_gives_nan_scores_and_stops_prism_and_training(tmp_path):
    examples, texts = separable_ranking_examples(20, seed=3)
    datasets = {"xx-yy": split_holdout(examples, holdout_size=0, seed=3)}
    scorer = ToyScorer.from_texts(texts, theta=(math.nan, 1.0, 0.5))
    pairs = [(("gut1", "gut2"), ("quelle1",)), ((), ()), (("xyz",), ("gut1", "xyz"))]
    for with_gradients in (False, True):
        for logprobs, gradients in _token_batch(scorer, pairs, with_gradients):
            assert len(logprobs) > 0 and all(math.isnan(v) for v in logprobs)
            if with_gradients:
                assert np.isnan(gradients).all()
    metric = PrismMetric(scorer)
    assert math.isnan(metric.segment_score("gut1 gut2", "gut3"))
    unit = r"non-finite score for \('sysA', 'seg1'\)"
    with pytest.raises(FloatingPointError, match=unit):
        standard_reference_scores(load_tiny_corpus(tmp_path), metric)
    with pytest.raises(NumericError):
        train(scorer, datasets, config=TrainingConfig(seed=1))


def test_scoring_a_sequence_leaves_no_feature_set_for_the_next():
    rng = random.Random(41)
    theta = (1.5, 0.5, 2.0)
    bases = [(_ORACLE_SCORER, ())] + list(_WIDE_SCORERS.values())
    for base, fillers in bases:
        words = _ORACLE_WORDS + tuple(fillers)
        for _ in range(10):
            first, second = (
                (
                    [rng.choice(words) for _ in range(rng.randint(0, 9))],
                    [rng.choice(words) for _ in range(rng.randint(0, 6))],
                )
                for _ in range(2)
            )
            scorer = ToyScorer(base.unigram_counts, base.bigrams, theta=theta)
            scorer.token_logprob_gradients(*first)
            scorer.token_logprobs(*first)
            fresh = ToyScorer(base.unigram_counts, base.bigrams, theta=theta)
            logprobs, gradients = scorer.token_logprob_gradients(*second)
            expected_logprobs, expected_gradients = fresh.token_logprob_gradients(
                *second
            )
            assert np.array(logprobs).tobytes() == np.array(expected_logprobs).tobytes()
            assert gradients.tobytes() == expected_gradients.tobytes()
            assert np.array(scorer.token_logprobs(*second)).tobytes() == (
                np.array(fresh.token_logprobs(*second)).tobytes()
            )


def test_successor_index_has_one_entry_per_bigram_and_scoring_adds_no_state():
    rng = random.Random(29)
    words = [f"w{i:05d}" for i in range(20_000)]
    rng.shuffle(words)
    texts = [" ".join(words[i : i + 10]) for i in range(0, len(words), 10)]
    texts += [" ".join(rng.choice(words) for _ in range(10)) for _ in range(500)]
    built = ToyScorer.from_texts(texts, theta=(2.0, 1.0, 1.0))
    scorer = ToyScorer(
        built.unigram_counts,
        built.bigrams | {(words[0], "unseen"), ("unseen", words[1])},
        theta=built.theta,
    )
    n_vocab = len(scorer.vocab)
    assert n_vocab == 20_002

    # every bigram but the two with an unseen word, as (row, successor) keys
    # with the start token's row after the vocabulary's, then one end key
    keys = scorer._bigram_keys
    assert len(keys) - 1 == len(scorer.bigrams) - 2
    assert keys[-1] > keys[-2] and (np.diff(keys[:-1]) > 0).all()
    rows = list(scorer.vocab) + ["<s>"]
    assert {
        (rows[key // n_vocab], scorer.vocab[key % n_vocab])
        for key in keys[:-1].tolist()
    } == scorer.bigrams - {(words[0], "unseen"), ("unseen", words[1])}
    for row in (0, 17, n_vocab):
        start, stop = scorer._successor_starts[row : row + 2]
        assert (keys[start:stop] // n_vocab == row).all()

    def state():
        return {
            name: (id(value), len(value) if hasattr(value, "__len__") else value)
            for name, value in vars(scorer).items()
        }

    before = state()
    for _ in range(50):
        target = [rng.choice(words) for _ in range(10)]
        scorer.token_logprobs(target, [rng.choice(words) for _ in range(10)])
    assert state() == before


def test_prism_average_of_directions():
    scorer = TableScorer(
        {
            (("a",), ("b",)): -1.0,
            (("b",), ("a",)): -3.0,
        }
    )
    assert prism_score(scorer, ("a",), ("b",)) == pytest.approx(-2.0)


def test_prism_scores_all_pairs_in_one_call_tokenizing_each_text_once(monkeypatch):
    scorer = _small_scorer()
    texts = ["der hund", "die katze schläft", "der hund schläft gern", "xyz der"]
    pairs = [(a, b) for a in texts for b in texts] + [(texts[0], texts[1])]
    calls, scored, tokenized = [], [], []
    score_batch, tokenize_text = scorer.score_batch, metrics_module.tokenize
    compile_pairs = scorer._compile

    def counted_batch(batch, with_gradients):
        calls.append(len(batch))
        scores, none = score_batch(batch, with_gradients)
        assert scores.shape == (len(batch),) and none is None
        return scores, none

    def counted_compile(batch):
        scored.extend(batch)
        return compile_pairs(batch)

    def counted_tokenize(text, lowercase=False):
        tokenized.append(text)
        return tokenize_text(text, lowercase)

    monkeypatch.setattr(scorer, "score_batch", counted_batch)
    monkeypatch.setattr(scorer, "_compile", counted_compile)
    monkeypatch.setattr(metrics_module, "tokenize", counted_tokenize)
    values = PrismMetric(scorer).score_pairs(pairs)
    assert calls == [2 * len(pairs)]
    assert sorted(tokenized) == sorted(texts)
    # each distinct direction once: (a, a) has one, the repeated pair none more
    directions = {(tokenize(a), tokenize(b)) for a in texts for b in texts}
    assert len(scored) == len(directions) == len(texts) ** 2
    assert set(scored) == directions
    monkeypatch.undo()
    expected = [
        prism_score(scorer, tokenize(hypothesis), tokenize(reference))
        for hypothesis, reference in pairs
    ]
    assert _hexes(values) == _hexes(expected)
    assert PrismMetric(scorer).segment_score(*pairs[5]) == expected[5]


def test_prism_identical_sequences():
    scorer = _small_scorer()
    tokens = ("der", "hund")
    assert prism_score(scorer, tokens, tokens) == pytest.approx(
        sequence_score(scorer, tokens, tokens)
    )


def test_prism_symmetry_random():
    scorer = _small_scorer()
    rng = random.Random(3)
    words = ["der", "hund", "katze", "sonne", "scheint"]
    for _ in range(20):
        a = tuple(rng.choice(words) for _ in range(rng.randint(1, 4)))
        b = tuple(rng.choice(words) for _ in range(rng.randint(1, 4)))
        assert prism_score(scorer, a, b) == prism_score(scorer, b, a)


def test_bleu_identical_is_100():
    hyps = ["the cat sat on the mat", "a quick brown fox"]
    assert bleu(hyps, hyps) == pytest.approx(100.0)
    for hyp in hyps:
        assert segment_bleu(hyp, hyp) == pytest.approx(100.0)


def test_bleu_disjoint_is_0():
    assert bleu(["aa bb cc dd"], ["xx yy zz ww"]) == 0.0
    assert segment_bleu("aa bb cc dd", "xx yy zz ww") == 0.0


def test_bleu_partial_overlap_matches_oracle():
    hyp, ref = "the cat sat", "the cat sat down"
    assert bleu([hyp], [ref]) == pytest.approx(
        corpus_bleu_oracle([hyp], [ref]), abs=1e-9
    )


def _random_sentence(rng, vocabulary, max_len=12):
    return " ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, max_len)))


def test_bleu_matches_oracle_on_random_pairs():
    rng = random.Random(99)
    vocabulary = ["the", "cat", "dog", "sat", "ran", "fast", "mat", "on"]
    hyps = [_random_sentence(rng, vocabulary) for _ in range(50)]
    refs = [_random_sentence(rng, vocabulary) for _ in range(50)]
    assert bleu(hyps, refs) == pytest.approx(
        corpus_bleu_oracle(hyps, refs), abs=1e-9
    )
    for hyp, ref in zip(hyps, refs):
        assert segment_bleu(hyp, ref) == pytest.approx(
            segment_bleu_oracle(hyp, ref), abs=1e-9
        )


def test_bleu_range_and_validation():
    rng = random.Random(5)
    vocabulary = ["a", "b", "c", "d"]
    for _ in range(30):
        hyp = _random_sentence(rng, vocabulary)
        ref = _random_sentence(rng, vocabulary)
        assert 0.0 <= segment_bleu(hyp, ref) <= 100.0
    with pytest.raises(ValueError):
        bleu([], [])
    with pytest.raises(ValueError):
        bleu(["a"], ["a", "b"])


def test_bleu_invariant_under_token_relabeling():
    hyp, ref = "the cat sat on the mat", "the cat sat down on a mat"
    mapping = {"the": "t1", "cat": "t2", "sat": "t3", "on": "t4", "mat": "t5",
               "down": "t6", "a": "t7"}
    relabel = lambda text: " ".join(mapping[token] for token in text.split())
    assert bleu([hyp], [ref]) == pytest.approx(bleu([relabel(hyp)], [relabel(ref)]))
    assert segment_bleu(hyp, ref) == pytest.approx(
        segment_bleu(relabel(hyp), relabel(ref))
    )


def test_chrf_identical_is_100():
    assert chrf("guten Morgen", "guten Morgen") == pytest.approx(100.0)


def test_chrf_disjoint_is_0():
    assert chrf("aaaa", "bbbb") == 0.0


def test_chrf_empty_cases():
    assert chrf("", "") == 100.0
    assert chrf("abc", "") == 0.0
    assert chrf("", "abc") == 0.0


def test_chrf_small_example_matches_oracle():
    assert chrf("abcd", "abce") == pytest.approx(chrf_oracle("abcd", "abce"), abs=1e-9)


def test_chrf_matches_oracle_on_random_pairs():
    rng = random.Random(123)
    alphabet = string.ascii_lowercase[:6] + " "
    for _ in range(50):
        hyp = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 20)))
        ref = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 20)))
        assert chrf(hyp, ref) == pytest.approx(chrf_oracle(hyp, ref), abs=1e-9)
        assert 0.0 <= chrf(hyp, ref) <= 100.0


def test_chrf_depends_only_on_character_profiles():
    # Whitespace is excluded from n-grams, so moving it cannot change scores.
    assert chrf("ab cd", "xyz") == chrf("abcd", "xyz")
    assert chrf("abcd", "x yz") == chrf("abcd", "xy z")


def test_chrf_invariant_under_character_relabeling():
    table = str.maketrans("abcde", "vwxyz")
    hyp, ref = "abcde abd", "abce adb"
    assert chrf(hyp, ref) == pytest.approx(
        chrf(hyp.translate(table), ref.translate(table))
    )


# Batched BLEU and chrF: the Counter oracles bit for bit, with texts that
# repeat, are empty or whitespace only, differ only in NFC form or in case,
# or hold astral characters or lone surrogates.
_ATOMS = ["der", "Der", "DER", "hund", "Hund", "ab", "ba", "a",
          "caf\u00e9", "cafe\u0301", "Caf\u00e9", "\U0001d11e", "x\ud800"]
_TEXTS = st.one_of(
    st.sampled_from(["", " ", "\t \n", "caf\u00e9", "cafe\u0301", "a  b", "a b"]),
    st.lists(st.sampled_from(_ATOMS), max_size=8).map(" ".join),
    st.lists(st.sampled_from(_ATOMS), max_size=5).map("\t".join),
)


@st.composite
def _text_pairs(draw):
    pool = draw(st.lists(_TEXTS, min_size=1, max_size=6))
    index = st.integers(0, len(pool) - 1)
    n_pairs = draw(st.integers(1, 25))
    return [(pool[draw(index)], pool[draw(index)]) for _ in range(n_pairs)]


_BATCHED = [
    (ChrfMetric(), chrf_counter_oracle),
    (BleuMetric(), segment_bleu_counter_oracle),
]


@settings(max_examples=200, deadline=None)
@given(pairs=_text_pairs(), order=st.randoms(use_true_random=False))
def test_profiled_metrics_match_counter_oracles_bit_for_bit(pairs, order):
    """Every pair gets the oracle's bits from one ``score_pairs`` call, in
    any order and from a fresh object; the one-pair views (``segment_score``,
    ``chrf``, ``segment_bleu``) agree on a few pairs of each example."""
    positions = list(range(len(pairs)))
    order.shuffle(positions)
    views = positions[:2]
    for template, oracle in _BATCHED:
        metric = dataclasses.replace(template)  # one object across all pairs
        scores = _hexes(metric.score_pairs(pairs))
        assert scores == [oracle(hyp, ref).hex() for hyp, ref in pairs]
        shuffled = dataclasses.replace(template)
        again = _hexes(shuffled.score_pairs([pairs[i] for i in positions]))
        assert again == [scores[i] for i in positions]
        fresh = _hexes(dataclasses.replace(template).score_pairs(pairs))
        assert fresh == scores
        for i in views:
            assert metric.segment_score(*pairs[i]).hex() == scores[i]
    hyps, refs = zip(*pairs)
    assert bleu(hyps, refs).hex() == corpus_bleu_counter_oracle(hyps, refs).hex()
    for hyp, ref in (pairs[i] for i in views):
        assert chrf(hyp, ref).hex() == chrf_counter_oracle(hyp, ref).hex()
        assert segment_bleu(hyp, ref).hex() == segment_bleu_counter_oracle(hyp, ref).hex()


# More characters and more tokens than the default chunk bound, on its own.
_LONG = " ".join(["der", "hund", "ab", "ba"] * 2_100)
_EDGE_PAIRS = [
    ("", ""), (" ", "\t \n"), ("", "der hund"), ("der hund", " "),
    ("der hund", "der hund"), ("a b", "ab"),
    ("\u00e9", "\u00e9"), ("\u00e9", "e\u0301"), ("e\u0301 e", "\u00e9e"),
    ("\U0001d11e ab", "ab \U0001d11e"), ("\U0001d11e", "\U0001d11e"),
    ("\ud800", "\ud800 a"), ("a\udfffb", "a\udfff b"), ("\ud800", "\udfff"),
    ("der hund ab", _LONG), (_LONG, _LONG), (_LONG, "der hund"), ("", _LONG),
]


@pytest.mark.parametrize("bound", [1, 7, metrics_module._CHUNK_UNITS])
@settings(max_examples=40, deadline=None)
@given(pairs=_text_pairs(), order=st.randoms(use_true_random=False))
@example(pairs=_EDGE_PAIRS, order=random.Random(0))
def test_batched_metrics_match_counter_oracles_at_every_chunk_bound(bound, pairs, order):
    """One ``score_pairs`` call gives each pair the oracle's bits, whatever
    the chunk bound and the order of the pairs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics_module, "_CHUNK_UNITS", bound)
        for metric, oracle in _BATCHED:
            scores = _hexes(metric.score_pairs(pairs))
            assert scores == [oracle(hyp, ref).hex() for hyp, ref in pairs]
            positions = list(range(len(pairs)))
            order.shuffle(positions)
            shuffled = _hexes(metric.score_pairs([pairs[i] for i in positions]))
            assert [scores[i] for i in positions] == shuffled
        hyps, refs = zip(*pairs)
        assert bleu(hyps, refs).hex() == corpus_bleu_counter_oracle(hyps, refs).hex()


@pytest.mark.parametrize(
    "metric, encoder", [(ChrfMetric(), "_chrf_units"), (BleuMetric(), "_bleu_units")]
)
def test_score_pairs_encodes_each_distinct_text_once(metric, encoder, monkeypatch):
    encoded = collections.Counter()
    encode = getattr(metrics_module, encoder)

    def counting(text, *args):
        encoded[text] += 1
        return encode(text, *args)

    monkeypatch.setattr(metrics_module, encoder, counting)
    monkeypatch.setattr(metrics_module, "_CHUNK_UNITS", 10)  # several chunks
    texts = ["der hund", "die katze", "der hund läuft", "", "die katze schläft"]
    pairs = [(hyp, ref) for hyp in texts for ref in texts[:3]] * 2
    metric.score_pairs(pairs)
    assert encoded == dict.fromkeys(texts, 1)


def test_metric_objects_hold_only_their_id_and_repeat_their_bits():
    pairs = [("der hund", "der hund läuft"), ("die katze", "der hund")] * 3
    for metric in (ChrfMetric(), BleuMetric()):
        first = _hexes(metric.score_pairs(pairs))
        assert vars(metric) == {"metric_id": metric.metric_id}
        assert _hexes(metric.score_pairs(pairs)) == first
        assert vars(metric) == {"metric_id": metric.metric_id}


@pytest.mark.parametrize("bound", [100, metrics_module._CHUNK_UNITS])
@pytest.mark.parametrize(
    "metric, encoder", [(ChrfMetric(), "_chrf_units"), (BleuMetric(), "_bleu_units")]
)
def test_chunks_bound_their_units_and_count_each_pair_once(
    tmp_path, monkeypatch, bound, metric, encoder
):
    eval_set = load_robustness_corpus(tmp_path, n_systems=8, n_segments=50)
    pairs = [
        (translation.text, eval_set.standard_reference(seg_id).text)
        for (_, seg_id), translation in eval_set.translations.items()
        if not translation.is_human
    ]
    encoded, chunks = {}, []
    encode, kernel = getattr(metrics_module, encoder), metrics_module._ngram_matches

    def recording(text, *args):
        encoded[text] = units = encode(text, *args)
        return units

    def spying(units, hyp_index, ref_index, max_order):
        chunks.append((units, hyp_index, ref_index))
        return kernel(units, hyp_index, ref_index, max_order)

    monkeypatch.setattr(metrics_module, encoder, recording)
    monkeypatch.setattr(metrics_module, "_ngram_matches", spying)
    monkeypatch.setattr(metrics_module, "_CHUNK_UNITS", bound)
    metric.score_pairs(pairs)

    text_of = {id(units): text for text, units in encoded.items()}
    largest = max(sum(len(encoded[text]) for text in set(pair)) for pair in pairs)
    scored = collections.Counter()
    for units, hyp_index, ref_index in chunks:
        assert sum(map(len, units)) <= max(bound, largest)
        texts = [text_of[id(array)] for array in units]
        scored.update((texts[h], texts[r]) for h, r in zip(hyp_index, ref_index))
    assert scored == collections.Counter(pairs)


def test_system_score():
    assert system_score([-2.0]) == -2.0
    assert system_score([-1.0, -3.0]) == -2.0
    with pytest.raises(ValueError):
        system_score([])


def test_system_score_matches_compensated_summation():
    rng = random.Random(1)
    values = [rng.uniform(-10, 0) for _ in range(100)]
    # Kahan compensated summation as an independent route.
    total, compensation = 0.0, 0.0
    for value in values:
        y = value - compensation
        t = total + y
        compensation = (t - total) - y
        total = t
    assert system_score(values) == pytest.approx(total / len(values), abs=1e-12)


def test_score_magnitude():
    assert score_magnitude([-1.0, -1.0]) == pytest.approx(0.5)
    assert score_magnitude([0.0, 0.0]) == pytest.approx(1.0)
    assert score_magnitude([-1.0, -2.0]) == pytest.approx(0.375)
    with pytest.raises(ValueError):
        score_magnitude([])


def test_metric_interface_ids():
    scorer = _small_scorer()
    assert BleuMetric().metric_id == "bleu"
    assert ChrfMetric().metric_id == "chrf"
    assert PrismMetric(scorer).metric_id == "prism"
    value = PrismMetric(scorer).segment_score("der hund", "die katze")
    assert value == pytest.approx(
        prism_score(scorer, ("der", "hund"), ("die", "katze"))
    )


def test_metric_scores_tsv_round_trip(tmp_path):
    from conftest import load_tiny_corpus

    eval_set = load_tiny_corpus(tmp_path)
    scores = [
        MetricScore("bleu", "sysA", "seg1", 73.25),
        MetricScore("chrf", "sysB", "seg2", 41.0),
    ]
    path = tmp_path / "scores.tsv"
    write_metric_scores(scores, eval_set, path)
    assert [(group, score) for _, group, score in metric_score_rows(path)] == [
        (("en-de", "news"), score) for score in scores
    ]
