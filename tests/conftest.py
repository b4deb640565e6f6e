"""Shared fixture builders and independent oracles for the test suite."""

from __future__ import annotations

import math
import random
from pathlib import Path

import numpy as np

from metricfit.corpus import (
    CorpusPaths,
    EvaluationSet,
    MqmError,
    MqmRating,
    ReferenceTranslation,
    Segment,
    SeverityWeights,
    SystemTranslation,
)
from metricfit.metrics import sequence_score, tokenize
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

    def __init__(self, logprob: float):
        self.logprob = logprob

    def token_logprobs(self, target, context):
        return [self.logprob] * (len(target) + 1)

    def token_logprob_gradients(self, target, context):
        return _zero_gradients(self.token_logprobs(target, context))


class TableScorer:
    """Stub scorer with a fixed sequence score per (target, context) pair."""

    def __init__(self, table: dict):
        self.table = {
            (tuple(target), tuple(context)): score
            for (target, context), score in table.items()
        }

    def token_logprobs(self, target, context):
        score = self.table[(tuple(target), tuple(context))]
        return [score] * (len(target) + 1)

    def token_logprob_gradients(self, target, context):
        return _zero_gradients(self.token_logprobs(target, context))


def _zero_gradients(logprobs):
    """Stub scores do not depend on the weights: one zero gradient row per
    scored token, as ``ToyScorer.token_logprob_gradients`` returns."""
    return logprobs, np.zeros((len(logprobs), 3))


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


def toy_dense_score_oracle(scorer, target, context, with_gradients):
    """ToyScorer's scoring loop with dense, Python-built feature rows.

    The copy column tests every vocabulary word against the context set, and
    each bigram row tests every vocabulary word against ``scorer.bigrams``;
    the softmax and gradient use the same numpy operations as
    ``ToyScorer._score``, so its results must agree bit for bit.
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
        log_norm = shift + math.log(exps.sum())
        token_index = scorer._index[token]
        logprobs.append((logits[token_index] - log_norm) / math.log(2.0))
        if with_gradients:
            probs = exps / exps.sum()
            gradients[position] = (
                features[token_index] - probs @ features
            ) / math.log(2.0)
        previous = token
    return logprobs, gradients


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


def loss_terms_oracle(scorer, example, config):
    """The objective as two scoring passes over the example: the loss values
    through ``token_logprobs`` (the three value-only losses above), then the
    gradient through ``token_logprob_gradients``. Returns
    ``(ce, forward, backward, total)`` and the gradient."""
    source = tokenize(example.src, config.lowercase)
    reference = tokenize(example.ref, config.lowercase)
    better = tokenize(example.sys_plus, config.lowercase)
    worse = tokenize(example.sys_minus, config.lowercase)

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
    return (ce, forward, backward, total), grad


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


def robustness_report_oracle(
    eval_set: EvaluationSet,
    metrics,
    seed: int,
    n_resamples: int,
    alpha: float = 0.05,
    weights: SeverityWeights = DEFAULT_WEIGHTS,
) -> dict:
    """``robustness_report(...).to_dict()`` computed by rescoring: every
    metric value is recomputed with ``segment_score`` where it is used (once
    per unit and condition at segment level, once per system pair and
    condition at system level), and the seeds are hashed from their key
    strings here."""
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

        scores = {"ref_std": {}, "ref_mt": {}}
        for metric in metrics:
            std = [
                metric.segment_score(
                    group.translation(system, seg_id).text, std_refs[seg_id].text
                )
                for system, seg_id in units
            ]
            mt = [
                metric.segment_score(
                    group.translation(system, seg_id).text,
                    assignments[system].choices[seg_id].text,
                )
                for system, seg_id in units
            ]
            scores["ref_std"][metric.metric_id] = std
            scores["ref_mt"][metric.metric_id] = mt
            tau_std = metaeval.kendall_tau(std, human_vector) if len(units) >= 2 else None
            tau_mt = metaeval.kendall_tau(mt, human_vector) if len(units) >= 2 else None
            context.segment_level[metric.metric_id] = metaeval.ConditionPair.of(
                tau_std, tau_mt
            )

        correct = {
            condition: {metric.metric_id: 0 for metric in metrics}
            for condition in ("std", "mt")
        }
        decided = 0
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
            decided += 1
            for metric in metrics:
                for condition, reference_text in (
                    ("std", lambda s: std_refs[s].text),
                    ("mt", lambda s: assignment.choices[s].text),
                ):
                    score_a = math.fsum(
                        metric.segment_score(
                            group.translation(system_a, s).text, reference_text(s)
                        )
                        for s in pair_segments
                    )
                    score_b = math.fsum(
                        metric.segment_score(
                            group.translation(system_b, s).text, reference_text(s)
                        )
                        for s in pair_segments
                    )
                    if score_a != score_b and (score_a > score_b) == (human_a > human_b):
                        correct[condition][metric.metric_id] += 1
        for metric in metrics:
            metric_id = metric.metric_id
            context.system_level[metric_id] = metaeval.ConditionPair.of(
                correct["std"][metric_id] / decided if decided else None,
                correct["mt"][metric_id] / decided if decided else None,
            )

        context_id = f"{lang_pair}|{domain}"
        for metric_a, metric_b in combinations(sorted(m.metric_id for m in metrics), 2):
            for condition in ("ref_std", "ref_mt"):
                try:
                    p_value = metaeval.perm_both_test(
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
