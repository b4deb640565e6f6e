"""Convert MQM assessments into relative rankings of translation pairs.

MQM penalties from different annotators are never compared: pairs are built
only between translations rated by the same annotator on the same segment
(intra-annotator pairing), and only when the penalty difference strictly
exceeds a threshold, so that each emitted pair reflects a noticeable quality
difference. Rankings from different annotators are concatenated.
"""

from __future__ import annotations

import logging
import random
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .artefacts import ArtefactError, parse_float, read_tsv, write_tsv
from .corpus import (
    DEFAULT_WEIGHTS,
    EvaluationSet,
    Segment,
    SeverityWeights,
    group_mismatch,
    mqm_score,
)

logger = logging.getLogger(__name__)

DEFAULT_THRESHOLD = 0.1
DEFAULT_HOLDOUT_SIZE = 5000

# Penalties are sums of table weights, so true differences come in steps of
# the smallest weight; this guard keeps float summation noise from sneaking
# a difference of exactly one threshold past the strict comparison.
THRESHOLD_TOLERANCE = 1e-9

_RANKINGS_COLUMNS = [
    "lang_pair",
    "seg_id",
    "annotator_id",
    "src",
    "ref",
    "sys_plus",
    "sys_minus",
    "score_delta",
]


class RelativeRanking(NamedTuple):
    """One preference pair: the same annotator judged sys_plus better.

    ``score_delta`` is penalty(sys_minus) - penalty(sys_plus) and is always
    strictly greater than the derivation threshold. The producing system ids
    are kept for diagnostics but are not part of the serialized format.
    """

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
class RankingDerivation:
    """Result of deriving rankings: the pairs plus a diagnostics tally."""

    rankings: tuple[RelativeRanking, ...]
    skipped_segments: tuple[str, ...]


@dataclass(frozen=True)
class RankingDataset:
    """Train/validation partition of the relative rankings of one language
    pair; how it was split is recorded in the rankings manifest."""

    train: tuple[RelativeRanking, ...]
    validation: tuple[RelativeRanking, ...]


def derive_rankings(
    eval_set: EvaluationSet,
    threshold: float = DEFAULT_THRESHOLD,
    weights: SeverityWeights = DEFAULT_WEIGHTS,
    include_human: bool = True,
) -> RankingDerivation:
    """Build relative rankings from the MQM ratings of an evaluation set.

    For every (annotator, segment), each unordered pair of that annotator's
    rated translations whose penalty difference strictly exceeds ``threshold``
    yields one ranking, with sys_plus the lower-penalty member. Segments
    without a standard reference are skipped and tallied. Output order is
    deterministic: (lang_pair, seg_id, annotator_id, system id pair).

    ``include_human=False`` drops human translations from the pairing.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")

    # (annotator, seg_id) -> {system_id: penalty}
    penalties: dict[tuple[str, str], dict[str, float]] = defaultdict(dict)
    for rating in eval_set.ratings:
        translation = eval_set.translation(rating.system_id, rating.seg_id)
        if translation is None:
            continue
        if translation.is_human and not include_human:
            continue
        penalties[(rating.annotator_id, rating.seg_id)][rating.system_id] = mqm_score(
            rating, weights
        )

    rankings: list[RelativeRanking] = []
    skipped: set[str] = set()
    for (annotator_id, seg_id), by_system in penalties.items():
        segment = eval_set.segments[seg_id]
        reference = eval_set.standard_reference(seg_id)
        if reference is None:
            skipped.add(seg_id)
            continue
        for sys_a, sys_b in combinations(sorted(by_system), 2):
            delta = by_system[sys_b] - by_system[sys_a]
            if abs(delta) <= threshold + THRESHOLD_TOLERANCE:
                continue
            plus_id, minus_id = (sys_a, sys_b) if delta > 0 else (sys_b, sys_a)
            rankings.append(RelativeRanking(
                segment.lang_pair, seg_id, annotator_id, segment.source_text,
                reference.text, eval_set.translation(plus_id, seg_id).text,
                eval_set.translation(minus_id, seg_id).text, abs(delta), plus_id,
                minus_id,
            ))

    if skipped:
        logger.warning(
            "skipped %d segment(s) without a standard reference", len(skipped)
        )
    rankings.sort(
        key=lambda r: (r.lang_pair, r.seg_id, r.annotator_id, r.sys_plus_id or "",
                       r.sys_minus_id or "")
    )
    return RankingDerivation(
        rankings=tuple(rankings), skipped_segments=tuple(sorted(skipped))
    )


def split_holdout(
    rankings: Sequence[RelativeRanking],
    holdout_size: int = DEFAULT_HOLDOUT_SIZE,
    seed: int = 0,
) -> RankingDataset:
    """Partition rankings into train and a seed-deterministic validation split.

    The validation set is a uniform random sample of ``holdout_size``
    rankings without replacement; both splits keep the input order. A
    holdout larger than the dataset is clamped to the whole dataset (with a
    warning) rather than raising.
    """
    if holdout_size < 0:
        raise ValueError(f"holdout_size must be nonnegative, got {holdout_size}")
    if holdout_size > len(rankings):
        logger.warning(
            "holdout size %d exceeds dataset size %d; using the whole dataset "
            "as validation",
            holdout_size,
            len(rankings),
        )
        holdout_size = len(rankings)
    rng = random.Random(seed)
    validation_indices = set(rng.sample(range(len(rankings)), holdout_size))
    train = tuple(r for i, r in enumerate(rankings) if i not in validation_indices)
    validation = tuple(r for i, r in enumerate(rankings) if i in validation_indices)
    return RankingDataset(train=train, validation=validation)


def write_rankings(rankings: Iterable[RelativeRanking], path: Path | str) -> None:
    """Serialize rankings to TSV (texts must not contain tabs or newlines)."""
    write_tsv(
        path,
        _RANKINGS_COLUMNS,
        (
            [
                r.lang_pair,
                r.seg_id,
                r.annotator_id,
                r.src,
                r.ref,
                r.sys_plus,
                r.sys_minus,
                repr(r.score_delta),
            ]
            for r in rankings
        ),
    )


def read_rankings(
    path: Path | str, segments: Mapping[str, Segment]
) -> list[RelativeRanking]:
    """Read rankings back from the TSV written by :func:`write_rankings`;
    each row must name a seg_id of ``segments`` with that segment's
    lang_pair. Each distinct string of the id and text columns is stored
    once, however many rankings repeat it."""
    share = {}.setdefault  # share(value, value): the first equal string
    rankings = []
    for line, (lang_pair, seg_id, *texts, delta) in read_tsv(path, _RANKINGS_COLUMNS):
        score_delta = parse_float(path, line, "score_delta", delta)
        if score_delta <= 0:
            raise ArtefactError(path, line, f"score_delta must be positive, got {delta}")
        segment = segments.get(seg_id)
        known = None if segment is None else segment.lang_pair
        if lang_pair != known:
            raise ArtefactError(
                path, line, group_mismatch("ranking", seg_id, lang_pair, known)
            )
        rankings.append(RelativeRanking(
            share(lang_pair, lang_pair), share(seg_id, seg_id),
            *map(share, texts, texts), score_delta,
        ))
    return rankings
