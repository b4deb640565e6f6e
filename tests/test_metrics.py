"""Tests for sequence scoring, the toy scorer, and the BLEU/chrF baselines."""

import math
import random
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FlatScorer,
    TableScorer,
    chrf_oracle,
    corpus_bleu_oracle,
    segment_bleu_oracle,
    toy_dense_score_oracle,
    toy_logprob_oracle,
)
from metricfit.metrics import (
    _BLOCK_BYTES,
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
    write_metric_scores,
)


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
    shared = ("unigram_counts", "bigrams", "vocab", "_unigram_feature", "_successors")
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


@settings(max_examples=300, deadline=None)
@given(
    theta=st.lists(_WEIGHTS, min_size=3, max_size=3),
    target=st.lists(st.sampled_from(_ORACLE_WORDS), max_size=6),
    context=st.lists(st.sampled_from(_ORACLE_WORDS), max_size=6),
)
def test_toy_scorer_matches_dense_oracle_bit_for_bit(theta, target, context):
    scorer = ToyScorer(_ORACLE_SCORER.unigram_counts, _ORACLE_BIGRAMS, theta=theta)
    _assert_matches_dense_oracle(scorer, target, context)


def _assert_matches_dense_oracle(scorer, target, context):
    with np.errstate(invalid="ignore", over="ignore"):
        logprobs = scorer.token_logprobs(target, context)
        expected_logprobs, _ = toy_dense_score_oracle(scorer, target, context, False)
        with_grad, gradients = scorer.token_logprob_gradients(target, context)
        expected_with_grad, expected_gradients = toy_dense_score_oracle(
            scorer, target, context, True
        )
    assert np.array(logprobs).tobytes() == np.array(expected_logprobs).tobytes()
    assert np.array(with_grad).tobytes() == np.array(expected_with_grad).tobytes()
    assert gradients.tobytes() == expected_gradients.tobytes()


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


# Positions per feature block (metrics._BLOCK_BYTES // (8 * 3 * vocabulary)):
# 2 at about 1.2k words, so a sequence spans several blocks and its last one
# may be partial; 1 from about 2.7k words on.
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
    assert len(scorer.vocab) == 20_002

    def index_length():
        return sum(len(indices) for indices in scorer._successors.values())

    in_vocab = {pair for pair in scorer.bigrams if pair[1] in scorer._index}
    assert index_length() == len(in_vocab) == len(scorer.bigrams) - 1
    assert {
        (previous, scorer.vocab[i])
        for previous, indices in scorer._successors.items()
        for i in indices
    } == in_vocab

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
    assert index_length() == len(in_vocab)


def test_prism_average_of_directions():
    scorer = TableScorer(
        {
            (("a",), ("b",)): -1.0,
            (("b",), ("a",)): -3.0,
        }
    )
    assert prism_score(scorer, ("a",), ("b",)) == pytest.approx(-2.0)


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
    assert bleu(hyps, hyps, level="corpus") == pytest.approx(100.0)
    assert bleu(hyps, hyps, level="segment") == pytest.approx(100.0)


def test_bleu_disjoint_is_0():
    assert bleu(["aa bb cc dd"], ["xx yy zz ww"], level="corpus") == 0.0
    assert segment_bleu("aa bb cc dd", "xx yy zz ww") == 0.0


def test_bleu_partial_overlap_matches_oracle():
    hyp, ref = "the cat sat", "the cat sat down"
    assert bleu([hyp], [ref], level="corpus") == pytest.approx(
        corpus_bleu_oracle([hyp], [ref]), abs=1e-9
    )


def _random_sentence(rng, vocabulary, max_len=12):
    return " ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, max_len)))


def test_bleu_matches_oracle_on_random_pairs():
    rng = random.Random(99)
    vocabulary = ["the", "cat", "dog", "sat", "ran", "fast", "mat", "on"]
    hyps = [_random_sentence(rng, vocabulary) for _ in range(50)]
    refs = [_random_sentence(rng, vocabulary) for _ in range(50)]
    assert bleu(hyps, refs, level="corpus") == pytest.approx(
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
    with pytest.raises(ValueError):
        bleu(["a"], ["a"], level="document")


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
    assert [score for _, score in metric_score_rows(path)] == scores
