"""Meta-evaluation statistics and the machine-translated-reference protocol.

Metrics are compared to human MQM judgments two ways: segment-level Kendall
tau-b pooled across all systems and segments, and system-level pairwise
accuracy (the fraction of system pairs the metric orders like the humans
did). Differences between metrics are validated with perm-both permutation
tests.

The robustness protocol re-evaluates every metric with references sampled
from error-free translations of unrelated systems instead of the standard
human references, on exactly the same segment subset for both conditions,
and reports the relative change in correlation.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .corpus import (
    DEFAULT_WEIGHTS,
    ORIGIN_MACHINE,
    EvaluationSet,
    ReferenceTranslation,
    SeverityWeights,
    SystemTranslation,
    error_free_translations,
    mqm_score,
)
from .metrics import Metric, MetricScore, fsum_mean, fsums, system_score

SwapStatistic = Callable[
    [np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    "tuple[np.ndarray, np.ndarray]",
]
TextPair = tuple[str, str]  # (hypothesis, reference) texts
ErrorFreeIndex = Mapping[str, Sequence[SystemTranslation]]

DEFAULT_RESAMPLES = 1000
DEFAULT_ALPHA = 0.05
# Cells (rows x units) in one block of perm-both's random draws and of
# kendall_tau_swaps' tie counts, and (units x columns) in one column block of
# its pair matrix, which is never held whole: beside the boolean swap masks
# and their float32 copy, this bounds the temporaries of a perm-both test
# whatever its number of units or resamples.
_CHUNK_CELLS = 1 << 18


class MetaEvalError(Exception):
    """Meta-evaluation could not be carried out on the given data."""


def kendall_tau(
    metric_scores: Sequence[float], human_penalties: Sequence[float]
) -> float | None:
    """Tie-corrected Kendall tau (tau-b) between metric and human judgments.

    Human values are penalties and are negated internally so both sides are
    oriented higher-is-better. Returns None (not 0) when either side is
    constant, where tau is undefined, and else NaN when any value is NaN.

    The pair counts are exact integers over dense ranks, with discordant
    pairs from a merge count in O(n log^2 n), and :func:`_tau_b` turns them
    into tau-b.

    Values tie only when equal as floats, so values one ulp apart are
    untied and scores that differ only by rounding can move tau: two units
    of a robustness benchmark corpus whose prism scores agree to 30 digits
    moved prism's segment tau from 0.7056743534703047 to 0.7056699316054752
    when they came out one ulp apart. A tolerance would be a setting of its
    own and would change output bytes.
    """
    metric = np.asarray(metric_scores, dtype=np.float64)
    human = np.asarray(human_penalties, dtype=np.float64)
    if metric.shape != human.shape:
        raise ValueError(
            f"score vectors differ in length: {metric.shape} vs {human.shape}"
        )
    if metric.ndim != 1:
        raise ValueError(f"score vectors must be 1-D, got shape {metric.shape}")
    n = metric.size
    if n < 2:
        raise ValueError("need at least 2 paired observations")
    if np.all(metric == metric[0]) or np.all(human == human[0]):
        return None
    if np.isnan(metric).any() or np.isnan(human).any():
        return math.nan

    rank_x = np.unique(metric, return_inverse=True)[1]
    rank_y = np.unique(-human, return_inverse=True)[1]
    order = np.lexsort((rank_y, rank_x))
    x, y = rank_x[order], rank_y[order]
    joint_start = np.ones(n, dtype=bool)
    joint_start[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
    joint = np.cumsum(joint_start) - 1
    x_ties, y_ties, joint_ties = map(int, _tied_pairs(np.stack([rank_x, rank_y, joint])))
    total = n * (n - 1) // 2
    concordant_minus_discordant = (
        total - x_ties - y_ties + joint_ties - 2 * _inversions(y)
    )
    return float(_tau_b(concordant_minus_discordant, x_ties, y_ties, total))


def _inversions(ranks: np.ndarray) -> int:
    """Pairs i < j with ranks[i] > ranks[j], for ranks below ``ranks.size``.

    A bottom-up merge count: at each level, runs of ``width`` sorted values
    are paired, one ``searchsorted`` counts the values of each left run
    above each value of its right run, and one sort merges the pair. The
    key ``pair * (n + 1) + rank`` keeps every pair's values in its own
    block, so both act on the whole array at once.
    """
    n = ranks.size
    values = ranks.astype(np.int64)
    position = np.arange(n)
    inversions = 0
    width = 1
    while width < n:
        run = position // width
        offset = (run // 2) * (n + 1)
        key = offset + values
        left = run % 2 == 0
        # a right run's left run and all before it are full, so its pair's
        # left keys end at index (run + 1) // 2 * width
        end = (run[~left] + 1) // 2 * width
        above = end - np.searchsorted(key[left], key[~left], side="right")
        inversions += int(above.sum())
        key.sort(kind="stable")
        values = key - offset
        width *= 2
    return inversions


def _tau_b(
    concordant_minus_discordant, x_ties, y_ties, total: int
) -> np.ndarray:
    """tau-b from exact pair counts (scalars or arrays), NaN where either
    side has no untied pair.

    This is the one place that fixes tau-b's bits: the counts, exact below
    2**53 in float64, go through (c - d) / sqrt(total - x_ties) /
    sqrt(total - y_ties) in that order, clipped to [-1, 1], as in the
    reference implementation the tests compare against.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.asarray(concordant_minus_discordant, dtype=np.float64)
        tau = tau / np.sqrt(np.asarray(total - x_ties, dtype=np.float64))
        tau = tau / np.sqrt(np.asarray(total - y_ties, dtype=np.float64))
    tau = np.clip(tau, -1.0, 1.0)
    return np.where((x_ties == total) | (y_ties == total), np.nan, tau)


def pairwise_accuracy(
    metric_by_system: Mapping[str, float], human_by_system: Mapping[str, float]
) -> float | None:
    """Fraction of humanly-ordered system pairs the metric orders the same way.

    Both inputs must be oriented higher-is-better and share the same key set.
    Pairs the humans tie on are excluded from the denominator; a metric tie
    on a humanly-ordered pair counts as incorrect. Returns None when every
    human pair is tied.
    """
    if set(metric_by_system) != set(human_by_system):
        raise ValueError(
            "metric and human system sets differ: "
            f"{sorted(set(metric_by_system) ^ set(human_by_system))}"
        )
    if len(metric_by_system) < 2:
        raise ValueError("need at least 2 systems")
    return _accuracy(
        _ordered_alike(
            metric_by_system[system_a], metric_by_system[system_b],
            human_by_system[system_a], human_by_system[system_b],
        )
        for system_a, system_b in combinations(sorted(metric_by_system), 2)
    )


def _ordered_alike(
    metric_a: float, metric_b: float, human_a: float, human_b: float
) -> bool | None:
    """Whether a metric orders systems a and b as the humans do: None when
    the humans tie, so the pair is left out, and False when the metric ties."""
    if human_a == human_b:
        return None
    return metric_a != metric_b and (metric_a > metric_b) == (human_a > human_b)


def _accuracy(verdicts: Iterable[bool | None]) -> float | None:
    """The fraction of :func:`_ordered_alike` verdicts that are True, over
    those that are not None; None when every verdict is None."""
    decided = [verdict for verdict in verdicts if verdict is not None]
    return sum(decided) / len(decided) if decided else None


def _sign(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sgn(p - q) elementwise, as int8."""
    sign = np.greater(p, q).view(np.int8)
    sign -= np.less(p, q).view(np.int8)
    return sign


def _tied_pairs(x: np.ndarray) -> np.ndarray:
    """Pairs of equal values in each row of the 2-D integer array ``x``,
    which is sorted in place."""
    x.sort(axis=1)
    position = np.arange(x.shape[1], dtype=x.dtype)
    run_start = np.ones(x.shape, dtype=bool)
    np.not_equal(x[:, 1:], x[:, :-1], out=run_start[:, 1:])
    first = np.where(run_start, position, 0)
    np.maximum.accumulate(first, axis=1, out=first)
    return (position - first).sum(axis=1, dtype=np.int64)


def _pair_block(
    rank_a: np.ndarray, rank_b: np.ndarray, rank_y: np.ndarray, cols: slice
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Columns ``cols`` of :func:`kendall_tau_swaps`' K as int8, and the
    column sums of G_aa, G_bb, G_ab and G_ba over them, each sign product
    built in turn and added into K in place."""
    y_sign = _sign(rank_y[:, None], rank_y[None, cols])
    block = np.zeros(y_sign.shape, dtype=np.int8)
    col_sums = []
    for add, p, q in ((np.add, rank_a, rank_a), (np.add, rank_b, rank_b),
                      (np.subtract, rank_a, rank_b), (np.subtract, rank_b, rank_a)):
        g_pq = _sign(p[:, None], q[None, cols])
        g_pq *= y_sign
        col_sums.append(g_pq.sum(axis=0))
        add(block, g_pq, out=block)
        del g_pq  # so that two products never coexist
    return block, col_sums


def kendall_tau_swaps(
    metric_a: Sequence[float],
    metric_b: Sequence[float],
    human_penalties: Sequence[float],
    swaps: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`kendall_tau` of every swap-resampled pair of metrics at once.

    ``swaps`` is a boolean (rows, n) array, one swap mask per row, which is
    only read. For each row u, this returns tau-b of ``where(u, b, a)`` and
    of ``where(u, a, b)`` against the human penalties, NaN where
    :func:`kendall_tau` returns None. Every value has the bits of
    :func:`kendall_tau`: the integer counts equal :func:`kendall_tau`'s,
    and both turn them into tau-b in :func:`_tau_b`.

    With y the negated penalties, G_pq[i, j] = sgn(p_i - q_j) * sgn(y_i - y_j)
    and K = G_aa + G_bb - G_ab - G_ba, twice the concordant-minus-discordant
    count of a row is sum(G_aa) + 2 (rowsum(G_ba) - rowsum(G_aa)) . u
    + u' K u for the first resample, and the same with a and b exchanged
    for the second; the quadratic term is shared. G_aa and G_bb are
    symmetric and G_ba is the transpose of G_ab, so the column sums of a
    column block of K's terms are the row sums the linear term needs.

    K is walked once, in column blocks of ``_CHUNK_CELLS // n`` columns.
    Each int8 block is cast to float32 once for one matmul with every mask
    row; each side's linear term is added to the product, which is then
    masked and summed by row in float64. Every float32 value is an integer
    of magnitude below 8n < 2**24 and every float64 sum one below 2**53, so
    all of it is exact.

    Memory: the boolean masks and one float32 copy of them, 5 bytes per
    mask cell, plus one block at a time: each row's x ties are counted in
    blocks of ``_CHUNK_CELLS // n`` rows, and a block of K holds at most
    ``_CHUNK_CELLS`` cells of int8 and their float32 cast, beside the rows
    x columns product. No n x n array is held. The work is O(n^2) for K
    and O(rows * n^2) for the matmuls, where per-row :func:`kendall_tau` takes O(rows * n log^2 n).
    """
    a = np.asarray(metric_a, dtype=np.float64)
    b = np.asarray(metric_b, dtype=np.float64)
    human = np.asarray(human_penalties, dtype=np.float64)
    if not (a.shape == b.shape == human.shape) or a.ndim != 1:
        raise ValueError("metric_a, metric_b and human must be aligned vectors")
    n = a.size
    if n < 2:
        raise ValueError("need at least 2 paired observations")
    if n >= 1 << 21:
        raise ValueError(f"{n} units exceed the float32-exact limit of 2**21")
    if np.isnan(a).any() or np.isnan(b).any() or np.isnan(human).any():
        raise ValueError("scores must not be NaN")

    ranks = np.unique(np.concatenate([a, b]), return_inverse=True)[1]
    ranks = ranks.astype(np.min_scalar_type(2 * n))
    rank_a, rank_b = ranks[:n], ranks[n:]
    rank_y = np.unique(-human, return_inverse=True)[1].astype(ranks.dtype)
    total = n * (n - 1) // 2
    y_ties = int(_tied_pairs(rank_y[None, :].copy())[0])

    u = np.asarray(swaps, dtype=bool)
    if u.ndim != 2 or u.shape[1] != n:
        raise ValueError(f"swap masks must have shape (rows, {n}), got {u.shape}")
    width = max(1, _CHUNK_CELLS // n)
    x_ties = np.zeros((u.shape[0], 2), dtype=np.int64)
    for start in range(0, u.shape[0], width):
        block = u[start : start + width]
        x_ties[start : start + width] = np.stack(
            [_tied_pairs(np.where(block, rank_b, rank_a)),
             _tied_pairs(np.where(block, rank_a, rank_b))], axis=1
        )
    u_float = u.astype(np.float32)
    twice_cmd = np.zeros((u_float.shape[0], 2))
    constant = np.zeros(2, dtype=np.int64)  # sum(G_aa), sum(G_bb)
    for start in range(0, n, width):
        cols = slice(start, start + width)
        pair_block, (sum_aa, sum_bb, sum_ab, sum_ba) = _pair_block(
            rank_a, rank_b, rank_y, cols
        )
        constant += [sum_aa.sum(), sum_bb.sum()]
        linear_a, linear_b = 2 * (sum_ab - sum_aa), 2 * (sum_ba - sum_bb)
        # the second step turns (quadratic + linear_a) into (quadratic + linear_b)
        steps = np.stack([linear_a, linear_b - linear_a]).astype(np.float32)
        terms = u_float @ pair_block.astype(np.float32)
        for side, step in enumerate(steps):
            terms += step
            terms *= u_float[:, cols]
            twice_cmd[:, side] += terms.sum(axis=1, dtype=np.float64)
    twice_cmd += constant
    tau = _tau_b(twice_cmd / 2, x_ties, y_ties, total)
    return tau[:, 0], tau[:, 1]


def perm_both_test(
    metric_a: Sequence[float],
    metric_b: Sequence[float],
    human: Sequence[float],
    statistic: SwapStatistic,
    n_resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> float:
    """Perm-both significance test for the correlation gap of two metrics.

    The statistic is |corr(A, human) - corr(B, human)|. Each resample swaps
    A's and B's score independently per unit with probability 1/2 and
    recomputes the statistic; the p-value uses the +1/+1 finite-sample
    correction so it can never be exactly 0. Resamples on which the
    correlation is undefined are redrawn, up to 10 * n_resamples attempts.

    ``statistic(a, b, human, swaps)`` computes the correlation of both
    resampled metrics for each row of the boolean swap mask array
    ``swaps``, NaN where it is undefined, as :func:`kendall_tau_swaps`
    does. Resamples are drawn and evaluated in batches, each one array:
    the first holds all ``n_resamples`` draws, preceded by an all-False
    row for the observed scores, and each later one the draws still
    missing after redraws. The rows are consecutive ``rng.random(n)``
    draws, made at most ``_CHUNK_CELLS`` cells at a time.
    """
    a = np.asarray(metric_a, dtype=np.float64)
    b = np.asarray(metric_b, dtype=np.float64)
    h = np.asarray(human, dtype=np.float64)
    if not (a.shape == b.shape == h.shape):
        raise ValueError("metric_a, metric_b and human must be aligned")
    if a.size == 0:
        raise ValueError("empty score vectors")
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be at least 1, got {n_resamples}")

    rng = np.random.default_rng(seed)
    observed = None
    at_least_as_large = 0
    completed = 0
    attempts = 0
    max_attempts = 10 * n_resamples
    per_block = max(1, _CHUNK_CELLS // a.size)
    while completed < n_resamples:
        rows = min(n_resamples - completed, max_attempts - attempts)
        if rows == 0:
            raise MetaEvalError(
                f"exceeded {max_attempts} resampling attempts; correlations "
                "are undefined on almost all resamples"
            )
        head = int(observed is None)  # the all-False row of the observed scores
        swaps = np.zeros((head + rows, a.size), dtype=bool)
        for start in range(head, head + rows, per_block):
            block = swaps[start : start + per_block]
            np.less(rng.random(block.shape), 0.5, out=block)
        gaps = np.abs(np.subtract(*statistic(a, b, h, swaps)))
        if observed is None:
            observed, gaps = gaps[0], gaps[1:]
            if np.isnan(observed):
                raise MetaEvalError("correlation undefined on the observed scores")
        attempts += rows
        gaps = gaps[~np.isnan(gaps)]
        completed += gaps.size
        at_least_as_large += int(np.count_nonzero(gaps >= observed))
    return (1 + at_least_as_large) / (1 + n_resamples)


def human_segment_scores(
    eval_set: EvaluationSet, weights: SeverityWeights = DEFAULT_WEIGHTS
) -> dict[tuple[str, str], float]:
    """Mean MQM penalty per annotated (system, segment), human systems excluded.

    Averaging across annotators happens only here, for pooling judgments in
    meta-evaluation; ranking derivation deliberately never does this.
    """
    scores: dict[tuple[str, str], float] = {}
    for (system_id, seg_id), translation in eval_set.translations.items():
        if translation.is_human:
            continue
        ratings = eval_set.ratings_for(system_id, seg_id)
        if not ratings:
            continue
        scores[(system_id, seg_id)] = fsum_mean(
            [mqm_score(rating, weights) for rating in ratings]
        )
    return scores


def standard_reference_scores(
    eval_set: EvaluationSet, metric: Metric
) -> dict[tuple[str, str], float]:
    """Score every non-human translation against its segment's standard
    reference, keyed by (system, segment) in corpus order, with one
    ``score_pairs`` call over the distinct (hypothesis, reference) pairs.

    Translations of segments without a standard reference are left out. A
    non-finite score raises :class:`FloatingPointError` naming the
    (system, segment).
    """
    pairs = _standard_pairs(eval_set)
    scores = _score_pairs(metric, _first_users(pairs.items()))
    return {unit: scores[pair] for unit, pair in pairs.items()}


def _standard_pairs(eval_set: EvaluationSet) -> dict[tuple[str, str], TextPair]:
    """The (hypothesis, standard reference) texts of every non-human
    translation whose segment has a standard reference, keyed by (system,
    segment) in corpus order."""
    pairs = {}
    for unit, translation in eval_set.translations.items():
        reference = eval_set.standard_reference(unit[1])
        if not translation.is_human and reference is not None:
            pairs[unit] = (translation.text, reference.text)
    return pairs


def _first_users(
    uses: Iterable[tuple[tuple[str, str], TextPair]],
) -> dict[TextPair, tuple[str, str]]:
    """Each distinct pair of the (unit, pair) uses, in order of first use,
    mapped to the first unit that uses it."""
    users: dict[TextPair, tuple[str, str]] = {}
    for unit, pair in uses:
        users.setdefault(pair, unit)
    return users


def _score_pairs(
    metric: Metric, users: Mapping[TextPair, tuple[str, str]]
) -> dict[TextPair, float]:
    """``metric``'s score of each pair of ``users``, from one ``score_pairs``
    call. A non-finite score (a NaN theta, say, which would corrupt tau)
    raises :class:`FloatingPointError` naming the first unit that uses the
    first such pair."""
    scores = dict(zip(users, metric.score_pairs(list(users))))
    for pair, unit in users.items():
        if not math.isfinite(scores[pair]):
            raise FloatingPointError(
                f"metric {metric.metric_id!r}: non-finite score for {unit!r}"
            )
    return scores


@dataclass(frozen=True)
class JudgmentTable:
    """Aligned human penalties and metric scores per (system, segment)."""

    human: Mapping[tuple[str, str], float]
    metrics: Mapping[str, Mapping[tuple[str, str], float]]

    @classmethod
    def build(
        cls,
        eval_set: EvaluationSet,
        metric_scores: Iterable[MetricScore],
        weights: SeverityWeights = DEFAULT_WEIGHTS,
    ) -> "JudgmentTable":
        by_metric: dict[str, dict[tuple[str, str], float]] = defaultdict(dict)
        for score in metric_scores:
            by_metric[score.metric_id][(score.system_id, score.seg_id)] = score.value
        return cls(human=human_segment_scores(eval_set, weights), metrics=dict(by_metric))

    def units(self, metric_id: str) -> list[tuple[str, str]]:
        """Sorted (system, segment) cells present for both human and metric."""
        metric = self.metrics.get(metric_id, {})
        return sorted(key for key in self.human if key in metric)

    def segment_tau(self, metric_id: str) -> float | None:
        units = self.units(metric_id)
        if len(units) < 2:
            return None
        metric = self.metrics[metric_id]
        return kendall_tau(
            [metric[u] for u in units], [self.human[u] for u in units]
        )

    def system_scores(self, metric_id: str) -> tuple[dict[str, float], dict[str, float]]:
        """Higher-is-better system-level metric and human scores."""
        units = self.units(metric_id)
        metric = self.metrics[metric_id]
        by_system: dict[str, list[tuple[str, str]]] = defaultdict(list)
        for unit in units:
            by_system[unit[0]].append(unit)
        metric_sys = {
            system: system_score([metric[u] for u in sys_units])
            for system, sys_units in by_system.items()
        }
        human_sys = {
            system: -system_score([self.human[u] for u in sys_units])
            for system, sys_units in by_system.items()
        }
        return metric_sys, human_sys

    def system_pairwise_accuracy(self, metric_id: str) -> float | None:
        metric_sys, human_sys = self.system_scores(metric_id)
        if len(metric_sys) < 2:
            return None
        return pairwise_accuracy(metric_sys, human_sys)


def _hash_seed(*parts: object) -> int:
    """A 64-bit seed: blake2b of the parts (master seed first) joined by "|".

    Hash-derived so that evaluation order and parallelism cannot change
    which candidate gets sampled for a segment or which swaps a
    significance test draws.
    """
    key = "|".join(str(part) for part in parts)
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class MtReferenceAssignment:
    """Per-segment choice of an error-free machine translation as reference."""

    context_id: str
    excluded_systems: frozenset[str]
    choices: Mapping[str, ReferenceTranslation]
    skipped: tuple[str, ...]


def _sample_references(
    eval_set: EvaluationSet,
    excluded_systems: frozenset[str],
    context_id: str,
    seed: int,
    error_free: ErrorFreeIndex | None,
) -> MtReferenceAssignment:
    if error_free is None:
        error_free = error_free_translations(eval_set)
    choices: dict[str, ReferenceTranslation] = {}
    skipped: list[str] = []
    for seg_id in eval_set.seg_ids():
        candidates = [
            translation
            for translation in error_free.get(seg_id, [])
            if translation.system_id not in excluded_systems
        ]
        if not candidates:
            skipped.append(seg_id)
            continue
        rng = random.Random(_hash_seed(seed, context_id, seg_id))
        chosen = candidates[rng.randrange(len(candidates))]
        choices[seg_id] = ReferenceTranslation(
            ref_id=f"mt:{chosen.system_id}",
            seg_id=seg_id,
            text=chosen.text,
            origin=ORIGIN_MACHINE,
            source_system=chosen.system_id,
        )
    return MtReferenceAssignment(
        context_id=context_id,
        excluded_systems=excluded_systems,
        choices=choices,
        skipped=tuple(skipped),
    )


def sample_refs_segment_level(
    eval_set: EvaluationSet,
    evaluated_system: str,
    seed: int,
    error_free: ErrorFreeIndex | None = None,
) -> MtReferenceAssignment:
    """Sample one error-free reference per segment from systems other than
    the evaluated one; segments without a candidate are marked skipped.

    ``error_free`` is ``error_free_translations(eval_set)``, built here when
    not given; a caller sampling many assignments builds it once.
    """
    return _sample_references(
        eval_set,
        excluded_systems=frozenset({evaluated_system}),
        context_id=f"segment-level|{evaluated_system}",
        seed=seed,
        error_free=error_free,
    )


def sample_refs_system_pair(
    eval_set: EvaluationSet,
    system_a: str,
    system_b: str,
    seed: int,
    error_free: ErrorFreeIndex | None = None,
) -> MtReferenceAssignment:
    """Sample references for comparing a pair of systems, excluding both.

    Assignments are independent per pair, so different pairs are generally
    ranked under slightly different reference sets. ``error_free`` is as
    for :func:`sample_refs_segment_level`.
    """
    first, second = sorted((system_a, system_b))
    return _sample_references(
        eval_set,
        excluded_systems=frozenset({system_a, system_b}),
        context_id=f"system-pair|{first}|{second}",
        seed=seed,
        error_free=error_free,
    )


def comparable_subset(
    eval_set: EvaluationSet, assignments: Iterable[MtReferenceAssignment]
) -> set[str]:
    """Segments evaluable under BOTH reference conditions for a context.

    The intersection of the segments every assignment could serve; using it
    for the standard-reference condition as well keeps the two conditions
    comparable. Raises when nothing survives.
    """
    assignments = list(assignments)
    subset = set(eval_set.seg_ids())
    for assignment in assignments:
        subset &= set(assignment.choices)
    if not subset:
        contexts = sorted(a.context_id for a in assignments)
        raise MetaEvalError(f"no comparable segments for context(s): {contexts}")
    return subset


def relative_change(std: float, mt: float) -> float | None:
    """Percent change from the standard- to the machine-reference value,
    rounded to one decimal; None when the standard value is 0."""
    if std == 0:
        return None
    return round(100.0 * (mt - std) / std, 1)


@dataclass(frozen=True)
class ConditionPair:
    """A statistic under both reference conditions, with relative change."""

    ref_std: float | None
    ref_mt: float | None
    relative_change_pct: float | None

    @classmethod
    def of(cls, std: float | None, mt: float | None) -> "ConditionPair":
        change = None
        if std is not None and mt is not None:
            change = relative_change(std, mt)
        return cls(ref_std=std, ref_mt=mt, relative_change_pct=change)


@dataclass(frozen=True)
class SignificanceEntry:
    metric_a: str
    metric_b: str
    condition: str
    p_value: float | None
    significant: bool | None


@dataclass
class ContextReport:
    lang_pair: str
    domain: str
    systems: list[str]
    segments_total: int
    segments_comparable: int
    skipped_system_pairs: int
    segment_level: dict[str, ConditionPair] = field(default_factory=dict)
    system_level: dict[str, ConditionPair] = field(default_factory=dict)
    significance: list[SignificanceEntry] = field(default_factory=list)

    @property
    def segments_skipped(self) -> int:
        return self.segments_total - self.segments_comparable

    def to_dict(self) -> dict:
        return {**asdict(self), "segments_skipped": self.segments_skipped}


@dataclass
class RobustnessReport:
    """Paired ref_std/ref_mt statistics per metric and context, plus averages."""

    seed: int
    alpha: float
    contexts: list[ContextReport] = field(default_factory=list)
    segment_average: dict[str, ConditionPair] = field(default_factory=dict)
    system_average: dict[str, ConditionPair] = field(default_factory=dict)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["contexts"] = [context.to_dict() for context in self.contexts]
        data["averages"] = {
            "segment_level": data.pop("segment_average"),
            "system_level": data.pop("system_average"),
        }
        return data

    def format_table(self) -> str:
        """Human-readable tables: correlations x100, one decimal."""

        def fmt(value: float | None) -> str:
            return "    -" if value is None else f"{100.0 * value:5.1f}"

        def fmt_change(value: float | None) -> str:
            return "      -" if value is None else f"{value:+6.1f}%"

        lines: list[str] = []

        def block(title: str, rows: Mapping[str, ConditionPair]) -> None:
            lines.append(title)
            lines.append(f"  {'metric':<12} {'ref_std':>7} {'ref_mt':>7} {'change':>8}")
            for metric_id in sorted(rows):
                pair = rows[metric_id]
                lines.append(
                    f"  {metric_id:<12} {fmt(pair.ref_std):>7} "
                    f"{fmt(pair.ref_mt):>7} {fmt_change(pair.relative_change_pct):>8}"
                )

        for context in self.contexts:
            lines.append(f"== {context.lang_pair} / {context.domain} ==")
            lines.append(
                f"systems: {len(context.systems)}, comparable segments: "
                f"{context.segments_comparable}/{context.segments_total} "
                f"(skipped {context.segments_skipped})"
            )
            block("segment-level Kendall tau (x100)", context.segment_level)
            block("system-level pairwise accuracy (x100)", context.system_level)
            if context.significance:
                lines.append(f"perm-both significance (alpha={self.alpha}):")
                for entry in context.significance:
                    p_text = "undefined" if entry.p_value is None else f"p={entry.p_value:.4f}"
                    marker = "*" if entry.significant else " "
                    lines.append(
                        f"  [{marker}] {entry.metric_a} vs {entry.metric_b} "
                        f"({entry.condition}): {p_text}"
                    )
            lines.append("")
        lines.append("== average across contexts ==")
        block("segment-level Kendall tau (x100)", self.segment_average)
        block("system-level pairwise accuracy (x100)", self.system_average)
        lines.append("")
        return "\n".join(lines)


def _average_pairs(
    per_context: list[dict[str, ConditionPair]]
) -> dict[str, ConditionPair]:
    metric_ids = sorted({m for rows in per_context for m in rows})
    averages: dict[str, ConditionPair] = {}
    for metric_id in metric_ids:
        std_values = [
            rows[metric_id].ref_std
            for rows in per_context
            if metric_id in rows and rows[metric_id].ref_std is not None
        ]
        mt_values = [
            rows[metric_id].ref_mt
            for rows in per_context
            if metric_id in rows and rows[metric_id].ref_mt is not None
        ]
        std = math.fsum(std_values) / len(std_values) if std_values else None
        mt = math.fsum(mt_values) / len(mt_values) if mt_values else None
        averages[metric_id] = ConditionPair.of(std, mt)
    return averages


def robustness_report(
    eval_set: EvaluationSet,
    metrics: Sequence[Metric],
    seed: int = 0,
    weights: SeverityWeights = DEFAULT_WEIGHTS,
    n_resamples: int = DEFAULT_RESAMPLES,
    alpha: float = DEFAULT_ALPHA,
) -> RobustnessReport:
    """Evaluate metrics under standard vs machine-translated references.

    For each (lang_pair, domain) context: segment-level tau pools all
    (system, segment) units over the comparable subset, with one sampled
    reference assignment per evaluated system; system-level pairwise accuracy
    draws a fresh assignment per system pair, excluding both systems of the
    pair, and compares the pair on the segments where the sampled reference,
    the standard reference and both systems' judgments all exist (a pair with
    no such segment is skipped). Both conditions always use identical units.
    Perm-both significance of segment-level gaps is annotated per metric
    pair and condition.

    A context's statistics read slices of one list of (hypothesis,
    reference) pairs: the segment-level units under the standard and then
    the sampled references, then each compared system pair's units under
    both. Each metric scores the distinct pairs once, in order of first use:
    every standard pair of the context in corpus order, then the sampled
    ones in list order, so a non-finite score names the first unit using it.
    """
    report = RobustnessReport(seed=seed, alpha=alpha)

    for lang_pair, domain in eval_set.group_keys():
        group = eval_set.subset(lang_pair, domain)
        human_scores = human_segment_scores(group, weights)
        systems = sorted({system for system, _ in human_scores})
        if not systems:
            raise MetaEvalError(f"no annotated systems in context {lang_pair}/{domain}")

        error_free = error_free_translations(group)
        assignments = {
            system: sample_refs_segment_level(group, system, seed, error_free)
            for system in systems
        }
        # the segments with a standard reference: the comparable subset and
        # every system pair keep only these
        standard = {
            seg_id for seg_id in group.segments
            if group.standard_reference(seg_id) is not None
        }
        subset = comparable_subset(group, assignments.values()) & standard
        if not subset:
            raise MetaEvalError(
                f"no comparable segments with a standard reference in context "
                f"{lang_pair}/{domain}"
            )
        ordered_segments = sorted(subset)

        units = [
            (system, seg_id)
            for system in systems
            for seg_id in ordered_segments
            if (system, seg_id) in human_scores
        ]
        human_vector = [human_scores[unit] for unit in units]
        context_report = ContextReport(
            lang_pair=lang_pair,
            domain=domain,
            systems=systems,
            segments_total=len(group.seg_ids()),
            segments_comparable=len(subset),
            skipped_system_pairs=0,
        )

        std_pairs = _standard_pairs(group)
        users = _first_users(std_pairs.items())
        pairs: list[TextPair] = []

        def listed(new_pairs: list[TextPair]) -> slice:
            pairs.extend(new_pairs)
            return slice(len(pairs) - len(new_pairs), len(pairs))

        def sampled(
            unit: tuple[str, str], choices: Mapping[str, ReferenceTranslation]
        ) -> TextPair:
            pair = (group.translation(*unit).text, choices[unit[1]].text)
            users.setdefault(pair, unit)
            return pair

        segment_level = (  # standard, sampled
            listed([std_pairs[unit] for unit in units]),
            listed([sampled(unit, assignments[unit[0]].choices) for unit in units]),
        )
        # per condition, each compared system pair's negated human penalty
        # sums (on one scale, :func:`fsums`) and the slices of its systems
        system_level: tuple[list, list] = ([], [])
        for system_a, system_b in combinations(systems, 2):
            choices = sample_refs_system_pair(
                group, system_a, system_b, seed, error_free
            ).choices
            segments = sorted(
                seg_id
                for seg_id in choices
                if seg_id in standard
                and (system_a, seg_id) in human_scores
                and (system_b, seg_id) in human_scores
            )
            if not segments:
                context_report.skipped_system_pairs += 1
                continue
            by_system = [[(system, s) for s in segments] for system in (system_a, system_b)]
            sums, _ = fsums([[human_scores[u] for u in us] for us in by_system])
            human_a, human_b = (-total for total in sums)
            std = [listed([std_pairs[u] for u in us]) for us in by_system]
            mt = [listed([sampled(u, choices) for u in us]) for us in by_system]
            system_level[0].append((human_a, human_b, *std))
            system_level[1].append((human_a, human_b, *mt))

        segment_scores: tuple[dict, dict] = ({}, {})  # metric id -> unit scores
        for metric in metrics:
            table = _score_pairs(metric, users)
            values = [table[pair] for pair in pairs]
            for by_metric, part in zip(segment_scores, segment_level):
                by_metric[metric.metric_id] = values[part]
            context_report.segment_level[metric.metric_id] = ConditionPair.of(*(
                kendall_tau(values[part], human_vector) if len(units) >= 2 else None
                for part in segment_level
            ))
            # each system pair decided as in pairwise_accuracy, on the sums
            # of its segment scores, so both conditions leave out the same pairs
            context_report.system_level[metric.metric_id] = ConditionPair.of(*(
                _accuracy(
                    _ordered_alike(*fsums([values[a], values[b]])[0], human_a, human_b)
                    for human_a, human_b, a, b in compared
                )
                for compared in system_level
            ))

        context_id = f"{lang_pair}|{domain}"
        for metric_a, metric_b in combinations(
            sorted(m.metric_id for m in metrics), 2
        ):
            for condition, scores in zip(("ref_std", "ref_mt"), segment_scores):
                entry_seed = _hash_seed(
                    seed, "perm", context_id, condition, f"{metric_a}|{metric_b}"
                )
                try:
                    p_value = perm_both_test(
                        scores[metric_a],
                        scores[metric_b],
                        human_vector,
                        kendall_tau_swaps,
                        n_resamples=n_resamples,
                        seed=entry_seed,
                    )
                    significant = p_value < alpha
                except MetaEvalError:
                    p_value = None
                    significant = None
                context_report.significance.append(
                    SignificanceEntry(
                        metric_a=metric_a,
                        metric_b=metric_b,
                        condition=condition,
                        p_value=p_value,
                        significant=significant,
                    )
                )

        report.contexts.append(context_report)

    report.segment_average = _average_pairs(
        [context.segment_level for context in report.contexts]
    )
    report.system_average = _average_pairs(
        [context.system_level for context in report.contexts]
    )
    return report
