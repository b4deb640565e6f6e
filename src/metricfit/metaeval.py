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

import functools
import hashlib
import math
import random
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy import stats as scipy_stats

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
from .metrics import Metric, MetricScore, system_score

CorrelationFn = Callable[[Sequence[float], Sequence[float]], "float | None"]
SegmentScoreFn = Callable[[str, str], float]
ErrorFreeIndex = Mapping[str, Sequence[SystemTranslation]]

DEFAULT_RESAMPLES = 1000
DEFAULT_ALPHA = 0.05


class MetaEvalError(Exception):
    """Meta-evaluation could not be carried out on the given data."""


def kendall_tau(
    metric_scores: Sequence[float], human_penalties: Sequence[float]
) -> float | None:
    """Tie-corrected Kendall tau (tau-b) between metric and human judgments.

    Human values are penalties and are negated internally so both sides are
    oriented higher-is-better. Returns None (not 0) when either side is
    constant, where tau is undefined.
    """
    metric = np.asarray(metric_scores, dtype=np.float64)
    human = np.asarray(human_penalties, dtype=np.float64)
    if metric.shape != human.shape:
        raise ValueError(
            f"score vectors differ in length: {metric.shape} vs {human.shape}"
        )
    if metric.size < 2:
        raise ValueError("need at least 2 paired observations")
    if np.all(metric == metric[0]) or np.all(human == human[0]):
        return None
    tau = scipy_stats.kendalltau(metric, -human, variant="b").statistic
    return float(tau)


def pearson(x: Sequence[float], y: Sequence[float]) -> float | None:
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
    correct = 0
    total = 0
    for system_a, system_b in combinations(sorted(metric_by_system), 2):
        human_delta = human_by_system[system_a] - human_by_system[system_b]
        if human_delta == 0:
            continue
        total += 1
        metric_delta = metric_by_system[system_a] - metric_by_system[system_b]
        if metric_delta == 0:
            continue
        if (metric_delta > 0) == (human_delta > 0):
            correct += 1
    if total == 0:
        return None
    return correct / total


def perm_both_test(
    metric_a: Sequence[float],
    metric_b: Sequence[float],
    human: Sequence[float],
    correlation_fn: CorrelationFn,
    n_resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> float:
    """Perm-both significance test for the correlation gap of two metrics.

    The statistic is |corr(A, human) - corr(B, human)|. Each resample swaps
    A's and B's score independently per unit with probability 1/2 and
    recomputes the statistic; the p-value uses the +1/+1 finite-sample
    correction so it can never be exactly 0. Resamples on which the
    correlation is undefined are redrawn, up to 10 * n_resamples attempts.
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
        resampled_a = np.where(swap, b, a)
        resampled_b = np.where(swap, a, b)
        corr_ra = correlation_fn(resampled_a, h)
        corr_rb = correlation_fn(resampled_b, h)
        if corr_ra is None or corr_rb is None:
            continue
        if abs(corr_ra - corr_rb) >= observed:
            at_least_as_large += 1
        completed += 1
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
        scores[(system_id, seg_id)] = math.fsum(
            mqm_score(rating, weights) for rating in ratings
        ) / len(ratings)
    return scores


def standard_reference_scores(
    eval_set: EvaluationSet, segment_score: SegmentScoreFn
) -> dict[tuple[str, str], float]:
    """Score every non-human translation against its segment's standard
    reference, keyed by (system, segment) in corpus order.

    Translations of segments without a standard reference are left out. A
    non-finite score raises :class:`FloatingPointError` naming the
    (system, segment).
    """
    scores: dict[tuple[str, str], float] = {}
    for (system_id, seg_id), translation in eval_set.translations.items():
        reference = eval_set.standard_reference(seg_id)
        if translation.is_human or reference is None:
            continue
        try:
            scores[(system_id, seg_id)] = segment_score(translation.text, reference.text)
        except FloatingPointError as err:
            raise FloatingPointError(f"{err} for ({system_id!r}, {seg_id!r})") from None
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
    seed: int
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
        seed=seed,
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
    contexts: Sequence[tuple[str, str]] | None = None,
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
    pair. Both conditions always use identical units. Perm-both significance
    of segment-level gaps is annotated per metric pair and condition.
    """
    if contexts is None:
        contexts = eval_set.group_keys()
    report = RobustnessReport(seed=seed, alpha=alpha)

    for lang_pair, domain in contexts:
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
        subset = comparable_subset(group, assignments.values())
        subset = {s for s in subset if group.standard_reference(s) is not None}
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

        segment_scores_std: dict[str, list[float]] = {}
        segment_scores_mt: dict[str, list[float]] = {}
        context_report = ContextReport(
            lang_pair=lang_pair,
            domain=domain,
            systems=systems,
            segments_total=len(group.seg_ids()),
            segments_comparable=len(subset),
            skipped_system_pairs=0,
        )

        # One memo per metric and context, keyed by (hypothesis, reference)
        # text: every statistic below reads its scores from it.
        memos = {
            metric.metric_id: functools.cache(metric.segment_score) for metric in metrics
        }
        std_tables = {
            metric_id: standard_reference_scores(group, memo)
            for metric_id, memo in memos.items()
        }
        for metric in metrics:
            std_scores = [std_tables[metric.metric_id][unit] for unit in units]
            mt_scores = [
                memos[metric.metric_id](
                    group.translation(system, seg_id).text,
                    assignments[system].choices[seg_id].text,
                )
                for system, seg_id in units
            ]
            segment_scores_std[metric.metric_id] = std_scores
            segment_scores_mt[metric.metric_id] = mt_scores
            tau_std = kendall_tau(std_scores, human_vector) if len(units) >= 2 else None
            tau_mt = kendall_tau(mt_scores, human_vector) if len(units) >= 2 else None
            context_report.segment_level[metric.metric_id] = ConditionPair.of(
                tau_std, tau_mt
            )

        context_report.system_level, context_report.skipped_system_pairs = (
            _system_level_accuracy(
                group, systems, human_scores, memos, std_tables, error_free, seed
            )
        )

        context_id = f"{lang_pair}|{domain}"
        for metric_a, metric_b in combinations(
            sorted(m.metric_id for m in metrics), 2
        ):
            for condition, scores in (
                ("ref_std", segment_scores_std),
                ("ref_mt", segment_scores_mt),
            ):
                entry_seed = _hash_seed(
                    seed, "perm", context_id, condition, f"{metric_a}|{metric_b}"
                )
                try:
                    p_value = perm_both_test(
                        scores[metric_a],
                        scores[metric_b],
                        human_vector,
                        kendall_tau,
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


def _system_level_accuracy(
    group: EvaluationSet,
    systems: list[str],
    human_scores: Mapping[tuple[str, str], float],
    memos: Mapping[str, SegmentScoreFn],
    std_tables: Mapping[str, Mapping[tuple[str, str], float]],
    error_free: ErrorFreeIndex,
    seed: int,
) -> tuple[dict[str, ConditionPair], int]:
    """Pairwise accuracy under both conditions with per-pair reference sets.

    For each unordered system pair, references are sampled excluding both
    systems; the pair is compared on the segments where the sampled reference,
    the standard reference and both systems' judgments all exist. Human ties
    exclude a pair from the denominator; metric ties count as incorrect. The
    denominator is shared between conditions.
    """
    correct_std: dict[str, int] = dict.fromkeys(memos, 0)
    correct_mt: dict[str, int] = dict.fromkeys(memos, 0)
    decided_pairs = 0
    skipped_pairs = 0

    for system_a, system_b in combinations(systems, 2):
        assignment = sample_refs_system_pair(
            group, system_a, system_b, seed, error_free
        )
        pair_segments = sorted(
            seg_id
            for seg_id in assignment.choices
            if group.standard_reference(seg_id) is not None
            and (system_a, seg_id) in human_scores
            and (system_b, seg_id) in human_scores
        )
        if not pair_segments:
            skipped_pairs += 1
            continue

        human_a = -math.fsum(human_scores[(system_a, s)] for s in pair_segments)
        human_b = -math.fsum(human_scores[(system_b, s)] for s in pair_segments)
        if human_a == human_b:
            continue
        decided_pairs += 1

        for metric_id, memo in memos.items():
            mt_table = {
                (system, s): memo(
                    group.translation(system, s).text, assignment.choices[s].text
                )
                for system in (system_a, system_b)
                for s in pair_segments
            }
            for correct, table in (
                (correct_std, std_tables[metric_id]),
                (correct_mt, mt_table),
            ):
                score_a = math.fsum(table[(system_a, s)] for s in pair_segments)
                score_b = math.fsum(table[(system_b, s)] for s in pair_segments)
                if score_a != score_b and (score_a > score_b) == (human_a > human_b):
                    correct[metric_id] += 1

    results: dict[str, ConditionPair] = {}
    for metric_id in memos:
        if decided_pairs == 0:
            results[metric_id] = ConditionPair.of(None, None)
            continue
        results[metric_id] = ConditionPair.of(
            correct_std[metric_id] / decided_pairs,
            correct_mt[metric_id] / decided_pairs,
        )
    return results, skipped_pairs
