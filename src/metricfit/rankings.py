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
from typing import Iterable, Sequence

from .artefacts import parse_float, read_tsv, write_tsv
from .corpus import (
    DEFAULT_WEIGHTS,
    EvaluationSet,
    SeverityWeights,
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


@dataclass(frozen=True)
class RelativeRanking:
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
    """Train/validation partition of relative rankings with its provenance."""

    train: tuple[RelativeRanking, ...]
    validation: tuple[RelativeRanking, ...]
    seed: int
    holdout_size: int
    threshold: float = DEFAULT_THRESHOLD


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
            rankings.append(
                RelativeRanking(
                    lang_pair=segment.lang_pair,
                    seg_id=seg_id,
                    annotator_id=annotator_id,
                    src=segment.source_text,
                    ref=reference.text,
                    sys_plus=eval_set.translation(plus_id, seg_id).text,
                    sys_minus=eval_set.translation(minus_id, seg_id).text,
                    score_delta=abs(delta),
                    sys_plus_id=plus_id,
                    sys_minus_id=minus_id,
                )
            )

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
    threshold: float = DEFAULT_THRESHOLD,
) -> RankingDataset:
    """Partition rankings into train and a seed-deterministic validation split.

    The validation set is a uniform random sample without replacement; both
    splits keep the input order. A holdout larger than the dataset is clamped
    to the whole dataset (with a warning) rather than raising.
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
    return RankingDataset(
        train=train,
        validation=validation,
        seed=seed,
        holdout_size=holdout_size,
        threshold=threshold,
    )


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


def read_rankings(path: Path | str) -> list[RelativeRanking]:
    """Read rankings back from the TSV written by :func:`write_rankings`."""
    return [
        RelativeRanking(
            lang_pair=row["lang_pair"],
            seg_id=row["seg_id"],
            annotator_id=row["annotator_id"],
            src=row["src"],
            ref=row["ref"],
            sys_plus=row["sys_plus"],
            sys_minus=row["sys_minus"],
            score_delta=parse_float(path, line, "score_delta", row["score_delta"]),
        )
        for line, row in read_tsv(path, _RANKINGS_COLUMNS)
    ]
