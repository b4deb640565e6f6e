"""Corpus data model and TSV ingestion.

Holds source segments, system translations, reference translations and MQM
error annotations for one or more (language pair, domain) groups. Everything
is loaded once from TSV files, NFC-normalized and cross-linked; the resulting
:class:`EvaluationSet` is treated as immutable and is safe to share between
threads.

MQM ratings are lists of categorized errors. A rating with zero errors is a
legal value and means the annotator found the translation perfect. Scores
computed from ratings are *penalties*: lower is better, zero is perfect.
"""

from __future__ import annotations

import math
import operator
import unicodedata
from collections import defaultdict
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple

from .artefacts import ArtefactError, read_tsv, write_tsv

SEVERITY_MAJOR = "major"
SEVERITY_MINOR = "minor"
SEVERITY_NO_ERROR = "no-error"

ORIGIN_HUMAN = "human"
ORIGIN_MACHINE = "machine"

_SEGMENTS_COLUMNS = ["lang_pair", "domain", "doc_id", "seg_id", "source_text"]
_OUTPUTS_COLUMNS = ["lang_pair", "domain", "system_id", "seg_id", "is_human", "text"]
_REFERENCES_COLUMNS = ["lang_pair", "domain", "ref_id", "seg_id", "text"]
_RATINGS_COLUMNS = [
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


class CorpusError(Exception):
    """Base class for corpus loading and validation failures."""


# A corpus TSV breaks its format; the error names the file and line.
CorpusFormatError = ArtefactError


class IntegrityError(CorpusError):
    """Cross-references between files do not hold; names file, line and key."""

    def __init__(self, path: Path | str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")


class UnknownSeverityError(CorpusError):
    """An MQM error carries a severity label outside the weight table."""


class PenaltyOverflowError(ArithmeticError):
    """A rating's MQM penalty overflows the float range under the weights."""


def nfc(text: str) -> str:
    """NFC-normalize a piece of text. All corpus text goes through this."""
    return unicodedata.normalize("NFC", text)


class Segment(NamedTuple):
    """One source segment within a (lang_pair, domain) group."""

    lang_pair: str
    domain: str
    doc_id: str
    seg_id: str
    source_text: str


class SystemTranslation(NamedTuple):
    """Output of one system (or human 'system') for one segment."""

    system_id: str
    seg_id: str
    text: str
    is_human: bool = False


class ReferenceTranslation(NamedTuple):
    """A reference for one segment.

    ``origin`` is either ``human`` (loaded from the references file) or
    ``machine`` (constructed at evaluation time from an error-free system
    translation, in which case ``source_system`` records the producing
    system).
    """

    ref_id: str
    seg_id: str
    text: str
    origin: str = ORIGIN_HUMAN
    source_system: str | None = None


class MqmError(NamedTuple):
    """A single annotated error: category, severity, optional char span."""

    category: str
    severity: str
    span: tuple[int, int] | None = None


class MqmRating(NamedTuple):
    """All errors one annotator assigned to one system translation.

    An empty ``errors`` tuple is meaningful: the annotator judged the
    translation error-free.
    """

    annotator_id: str
    system_id: str
    seg_id: str
    errors: tuple[MqmError, ...] = ()


@dataclass(frozen=True)
class SeverityWeights:
    """Penalty weights per error severity.

    Minor fluency/punctuation errors get their own, much smaller weight; the
    0.1 unit is the quantum the ranking threshold is expressed in. The table
    is configurable because annotation projects differ in the exact scheme.
    """

    major: float = 5.0
    minor: float = 1.0
    minor_fluency_punctuation: float = 0.1

    def __post_init__(self):
        for name, value in vars(self).items():  # a penalty is >= 0; 0 is perfect
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")

    def weight(self, error: MqmError) -> float:
        severity = error.severity.lower()
        if severity == SEVERITY_MAJOR:
            return self.major
        if severity == SEVERITY_MINOR:
            if error.category.lower().startswith("fluency/punctuation"):
                return self.minor_fluency_punctuation
            return self.minor
        raise UnknownSeverityError(f"unknown severity label: {error.severity!r}")


DEFAULT_WEIGHTS = SeverityWeights()


def mqm_score(rating: MqmRating, weights: SeverityWeights = DEFAULT_WEIGHTS) -> float:
    """Total penalty of a rating: the sum of per-error severity weights.

    Zero errors yield 0.0. Lower is better. The weights are added left to
    right from 0.0, on every Python: ``sum()`` compensates from 3.12 on. A
    sum beyond the float range raises :class:`PenaltyOverflowError` naming
    the rating's (annotator, system, segment).
    """
    penalty = reduce(operator.add, map(weights.weight, rating.errors), 0.0)
    if not math.isfinite(penalty):
        raise PenaltyOverflowError(
            f"MQM penalty of (annotator, system, segment) {rating[:3]!r} "
            f"overflows: {penalty}"
        )
    return penalty


@dataclass(frozen=True)
class EvaluationSet:
    """Immutable, cross-linked corpus for one or more (lang_pair, domain) groups.

    seg_ids are unique across the whole set, so segment-keyed maps never need
    a group qualifier. Use :meth:`subset` to narrow to a single group.
    """

    segments: Mapping[str, Segment]
    translations: Mapping[tuple[str, str], SystemTranslation]
    references: Mapping[tuple[str, str], ReferenceTranslation]
    ratings: tuple[MqmRating, ...]
    _ratings_index: dict = field(init=False, repr=False, compare=False)
    _standard_references: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index: dict[tuple[str, str], list[MqmRating]] = defaultdict(list)
        for rating in self.ratings:
            index[(rating.system_id, rating.seg_id)].append(rating)
        object.__setattr__(self, "_ratings_index", dict(index))
        standard: dict[str, ReferenceTranslation] = {}
        for (_, seg_id), reference in self.references.items():
            if reference.origin == ORIGIN_HUMAN and (
                seg_id not in standard or reference.ref_id < standard[seg_id].ref_id
            ):
                standard[seg_id] = reference
        object.__setattr__(self, "_standard_references", standard)

    def group_keys(self) -> list[tuple[str, str]]:
        """Sorted (lang_pair, domain) pairs present in the set."""
        return sorted({(s.lang_pair, s.domain) for s in self.segments.values()})

    def subset(self, lang_pair: str, domain: str) -> "EvaluationSet":
        """The sub-corpus restricted to one (lang_pair, domain) group."""
        seg_ids = {
            seg_id
            for seg_id, seg in self.segments.items()
            if seg.lang_pair == lang_pair and seg.domain == domain
        }
        return EvaluationSet(
            segments={s: seg for s, seg in self.segments.items() if s in seg_ids},
            translations={
                key: tr for key, tr in self.translations.items() if key[1] in seg_ids
            },
            references={
                key: ref for key, ref in self.references.items() if key[1] in seg_ids
            },
            ratings=tuple(r for r in self.ratings if r.seg_id in seg_ids),
        )

    def system_ids(self, include_human: bool = True) -> list[str]:
        ids = {
            tr.system_id
            for tr in self.translations.values()
            if include_human or not tr.is_human
        }
        return sorted(ids)

    def seg_ids(self) -> list[str]:
        return list(self.segments)

    def translation(self, system_id: str, seg_id: str) -> SystemTranslation | None:
        return self.translations.get((system_id, seg_id))

    def ratings_for(self, system_id: str, seg_id: str) -> list[MqmRating]:
        return list(self._ratings_index.get((system_id, seg_id), ()))

    def standard_reference(self, seg_id: str) -> ReferenceTranslation | None:
        """The standard (human) reference for a segment.

        When several human references exist the one with the smallest ref_id
        is the standard one, so the choice is deterministic.
        """
        return self._standard_references.get(seg_id)


def error_free_translations(
    eval_set: EvaluationSet,
) -> dict[str, list[SystemTranslation]]:
    """Map each seg_id to its error-free system translations.

    A translation qualifies iff it has at least one rating and *every* rating
    assigns it zero errors. Unannotated translations never qualify (absence
    of a rating is not evidence of quality), and human translations are
    excluded. Lists are sorted by system_id.
    """
    result: dict[str, list[SystemTranslation]] = defaultdict(list)
    for (system_id, seg_id), translation in eval_set.translations.items():
        if translation.is_human:
            continue
        ratings = eval_set.ratings_for(system_id, seg_id)
        if ratings and all(not rating.errors for rating in ratings):
            result[seg_id].append(translation)
    return {
        seg_id: sorted(items, key=lambda tr: tr.system_id)
        for seg_id, items in sorted(result.items())
    }


@dataclass(frozen=True)
class CorpusPaths:
    """Locations of the four corpus TSV files."""

    segments: Path
    system_outputs: Path
    references: Path
    ratings: Path

    @classmethod
    def in_directory(cls, directory: Path | str) -> "CorpusPaths":
        directory = Path(directory)
        return cls(
            segments=directory / "segments.tsv",
            system_outputs=directory / "system_outputs.tsv",
            references=directory / "references.tsv",
            ratings=directory / "mqm_ratings.tsv",
        )


def _parse_span(start: str, end: str, path: Path, line: int) -> tuple[int, int] | None:
    start, end = start.strip(), end.strip()
    if not start and not end:
        return None
    if not start or not end:
        raise CorpusFormatError(path, line, "span_start/span_end must both be set")
    try:
        span = (int(start), int(end))
    except ValueError:
        raise CorpusFormatError(path, line, f"non-integer span: {start!r}..{end!r}")
    if span[0] < 0 or span[1] < span[0]:
        raise CorpusFormatError(path, line, f"invalid span range: {span}")
    return span


def group_mismatch(
    what: str, seg_id: str, group: tuple | str, known: tuple | str | None
) -> str:
    """Why a ``what`` row of ``group`` cannot name ``seg_id`` (of group
    ``known``, or None for an unknown seg_id)."""
    if known is None:
        return f"{what} references unknown seg_id: {seg_id!r}"
    return f"{what} for seg_id {seg_id!r} disagrees on group: {group!r} vs {known!r}"


def _check_id(path: Path, line: int, column: str, value: str) -> None:
    """Refuse an id that is blank or has surrounding whitespace."""
    if not value.strip():
        raise CorpusFormatError(path, line, f"empty {column}")
    if value != value.strip():
        raise CorpusFormatError(
            path, line, f"{column} has surrounding whitespace: {value!r}"
        )


def load_corpus(paths: CorpusPaths) -> EvaluationSet:
    """Load and cross-link the four TSV files into an EvaluationSet.

    All text fields are NFC-normalized; ids are taken verbatim, and a
    ``seg_id``, ``system_id``, ``ref_id`` or ``annotator_id`` that is blank
    or has surrounding whitespace is refused. Rows referencing unknown
    segments or systems, or giving a system another ``is_human`` than its
    first row, are rejected with an :class:`IntegrityError` naming the
    offending key; malformed rows raise :class:`CorpusFormatError`. Both
    name the file and line, and a missing file raises an
    :class:`ArtefactError` naming it.

    Each distinct segment, system, reference and annotator id and error
    category is stored once, however many rows repeat it, and each severity
    is one of the ``SEVERITY_*`` constants.
    """
    share = {}.setdefault  # share(value, value): the first equal string
    severities = {label: label for label in (
        SEVERITY_MAJOR, SEVERITY_MINOR, SEVERITY_NO_ERROR
    )}

    segments: dict[str, Segment] = {}
    groups: dict[str, tuple[str, str]] = {}  # seg_id -> (lang_pair, domain)
    path = paths.segments
    for line, (lang_pair, domain, doc_id, seg_id, source_text) in read_tsv(
        path, _SEGMENTS_COLUMNS
    ):
        source_text = nfc(source_text)
        _check_id(path, line, "seg_id", seg_id)
        if not source_text:
            raise CorpusFormatError(path, line, "empty source_text")
        if seg_id in segments:
            raise IntegrityError(path, line, f"duplicate seg_id: {seg_id!r}")
        seg_id = share(seg_id, seg_id)
        segments[seg_id] = Segment(lang_pair, domain, doc_id, seg_id, source_text)
        groups[seg_id] = (lang_pair, domain)

    translations: dict[tuple[str, str], SystemTranslation] = {}
    first_rows: dict[str, tuple[str, int]] = {}  # system_id -> (is_human, line)
    path = paths.system_outputs
    for line, (lang_pair, domain, system_id, seg_id, is_human, text) in read_tsv(
        path, _OUTPUTS_COLUMNS
    ):
        _check_id(path, line, "system_id", system_id)
        if groups.get(seg_id) != (lang_pair, domain):
            raise IntegrityError(path, line, group_mismatch(
                "system output", seg_id, (lang_pair, domain), groups.get(seg_id)
            ))
        key = (share(system_id, system_id), share(seg_id, seg_id))
        if key in translations:
            raise IntegrityError(path, line, f"duplicate (system_id, seg_id): {key!r}")
        if is_human not in ("0", "1"):
            raise CorpusFormatError(
                path, line, f"is_human must be 0 or 1, got {is_human!r}"
            )
        first, first_line = first_rows.setdefault(key[0], (is_human, line))
        if is_human != first:
            raise IntegrityError(
                path, line, f"is_human of {system_id!r} disagrees with line {first_line}"
            )
        translations[key] = SystemTranslation(*key, nfc(text), is_human == "1")

    references: dict[tuple[str, str], ReferenceTranslation] = {}
    path = paths.references
    for line, (lang_pair, domain, ref_id, seg_id, text) in read_tsv(
        path, _REFERENCES_COLUMNS
    ):
        _check_id(path, line, "ref_id", ref_id)
        if groups.get(seg_id) != (lang_pair, domain):
            raise IntegrityError(path, line, group_mismatch(
                "reference", seg_id, (lang_pair, domain), groups.get(seg_id)
            ))
        key = (share(ref_id, ref_id), share(seg_id, seg_id))
        if key in references:
            raise IntegrityError(path, line, f"duplicate (ref_id, seg_id): {key!r}")
        references[key] = ReferenceTranslation(*key, nfc(text), ORIGIN_HUMAN)

    # One rating per (annotator, system, segment); error rows accumulate and
    # a single no-error row stands for a zero-error rating.
    rating_errors: dict[tuple[str, str, str], list[MqmError]] = {}
    path = paths.ratings
    for line, (
        lang_pair, domain, system_id, seg_id, annotator_id, category, label,
        span_start, span_end,
    ) in read_tsv(path, _RATINGS_COLUMNS):
        _check_id(path, line, "annotator_id", annotator_id)
        if groups.get(seg_id) != (lang_pair, domain):
            raise IntegrityError(path, line, group_mismatch(
                "rating", seg_id, (lang_pair, domain), groups.get(seg_id)
            ))
        translation = translations.get((system_id, seg_id))
        if translation is None:
            raise IntegrityError(
                path, line, "rating references unknown (system_id, seg_id): "
                f"{(system_id, seg_id)!r}"
            )
        severity = severities.get(label.strip().lower())
        if severity is None:
            raise CorpusFormatError(path, line, f"unknown severity: {label!r}")
        annotator_id = share(annotator_id, annotator_id)
        errors = rating_errors.setdefault(
            (annotator_id, translation.system_id, translation.seg_id), []
        )
        if severity == SEVERITY_NO_ERROR:
            continue
        span = _parse_span(span_start, span_end, path, line)
        if span is not None and span[1] > len(translation.text):
            raise CorpusFormatError(path, line, f"span {span} exceeds translation length")
        category = nfc(category)
        errors.append(MqmError(share(category, category), severity, span))

    ratings = tuple(
        MqmRating(*key, tuple(errors)) for key, errors in sorted(rating_errors.items())
    )

    segment_order = operator.attrgetter("lang_pair", "domain", "doc_id", "seg_id")
    return EvaluationSet(
        segments={s.seg_id: s for s in sorted(segments.values(), key=segment_order)},
        translations=dict(sorted(translations.items())),
        references=dict(sorted(references.items())),
        ratings=ratings,
    )


def write_corpus(eval_set: EvaluationSet, directory: Path | str) -> CorpusPaths:
    """Re-serialize an EvaluationSet as the four normalized TSV files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = CorpusPaths.in_directory(directory)

    write_tsv(
        paths.segments,
        _SEGMENTS_COLUMNS,
        (
            [s.lang_pair, s.domain, s.doc_id, s.seg_id, s.source_text]
            for s in eval_set.segments.values()
        ),
    )
    write_tsv(
        paths.system_outputs,
        _OUTPUTS_COLUMNS,
        (
            [
                eval_set.segments[tr.seg_id].lang_pair,
                eval_set.segments[tr.seg_id].domain,
                tr.system_id,
                tr.seg_id,
                "1" if tr.is_human else "0",
                tr.text,
            ]
            for tr in eval_set.translations.values()
        ),
    )
    write_tsv(
        paths.references,
        _REFERENCES_COLUMNS,
        (
            [
                eval_set.segments[ref.seg_id].lang_pair,
                eval_set.segments[ref.seg_id].domain,
                ref.ref_id,
                ref.seg_id,
                ref.text,
            ]
            for ref in eval_set.references.values()
        ),
    )

    def rating_rows() -> Iterator[list[str]]:
        for rating in eval_set.ratings:
            segment = eval_set.segments[rating.seg_id]
            base = [
                segment.lang_pair,
                segment.domain,
                rating.system_id,
                rating.seg_id,
                rating.annotator_id,
            ]
            if not rating.errors:
                yield base + ["", SEVERITY_NO_ERROR, "", ""]
                continue
            for error in rating.errors:
                span = ("", "") if error.span is None else tuple(map(str, error.span))
                yield base + [error.category, error.severity, span[0], span[1]]

    write_tsv(paths.ratings, _RATINGS_COLUMNS, rating_rows())
    return paths
