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

import unicodedata
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping

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
    """Cross-references between files do not hold; names the offending key."""


class UnknownSeverityError(CorpusError):
    """An MQM error carries a severity label outside the weight table."""


def nfc(text: str) -> str:
    """NFC-normalize a piece of text. All corpus text goes through this."""
    return unicodedata.normalize("NFC", text)


@dataclass(frozen=True)
class Segment:
    """One source segment within a (lang_pair, domain) group."""

    lang_pair: str
    domain: str
    doc_id: str
    seg_id: str
    source_text: str


@dataclass(frozen=True)
class SystemTranslation:
    """Output of one system (or human 'system') for one segment."""

    system_id: str
    seg_id: str
    text: str
    is_human: bool = False


@dataclass(frozen=True)
class ReferenceTranslation:
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


@dataclass(frozen=True)
class MqmError:
    """A single annotated error: category, severity, optional char span."""

    category: str
    severity: str
    span: tuple[int, int] | None = None


@dataclass(frozen=True)
class MqmRating:
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

    Zero errors yield 0.0. Lower is better.
    """
    return sum(weights.weight(error) for error in rating.errors)


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


def _parse_span(
    row: dict[str, str], path: Path, line: int
) -> tuple[int, int] | None:
    start, end = row["span_start"].strip(), row["span_end"].strip()
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


def load_corpus(paths: CorpusPaths) -> EvaluationSet:
    """Load and cross-link the four TSV files into an EvaluationSet.

    All text fields are NFC-normalized. Rows referencing unknown segments or
    systems are rejected with an :class:`IntegrityError` naming the offending
    key; malformed rows raise :class:`CorpusFormatError` with a line number.
    """
    for path in (paths.segments, paths.system_outputs, paths.references, paths.ratings):
        if not path.exists():
            raise CorpusError(f"missing corpus file: {path}")

    segments: dict[str, Segment] = {}
    for line, row in read_tsv(paths.segments, _SEGMENTS_COLUMNS):
        seg_id = row["seg_id"].strip()
        source_text = nfc(row["source_text"])
        if not seg_id:
            raise CorpusFormatError(paths.segments, line, "empty seg_id")
        if not source_text:
            raise CorpusFormatError(paths.segments, line, "empty source_text")
        if seg_id in segments:
            raise IntegrityError(f"duplicate seg_id: {seg_id!r}")
        segments[seg_id] = Segment(
            lang_pair=row["lang_pair"],
            domain=row["domain"],
            doc_id=row["doc_id"],
            seg_id=seg_id,
            source_text=source_text,
        )

    def check_segment(seg_id: str, lang_pair: str, domain: str, what: str) -> None:
        segment = segments.get(seg_id)
        if segment is None:
            raise IntegrityError(f"{what} references unknown seg_id: {seg_id!r}")
        if (segment.lang_pair, segment.domain) != (lang_pair, domain):
            raise IntegrityError(
                f"{what} for seg_id {seg_id!r} disagrees on group: "
                f"({lang_pair!r}, {domain!r}) vs "
                f"({segment.lang_pair!r}, {segment.domain!r})"
            )

    translations: dict[tuple[str, str], SystemTranslation] = {}
    for line, row in read_tsv(paths.system_outputs, _OUTPUTS_COLUMNS):
        key = (row["system_id"], row["seg_id"])
        check_segment(row["seg_id"], row["lang_pair"], row["domain"], "system output")
        if key in translations:
            raise IntegrityError(f"duplicate (system_id, seg_id): {key!r}")
        if row["is_human"] not in ("0", "1"):
            raise CorpusFormatError(
                paths.system_outputs, line, f"is_human must be 0 or 1, got {row['is_human']!r}"
            )
        translations[key] = SystemTranslation(
            system_id=row["system_id"],
            seg_id=row["seg_id"],
            text=nfc(row["text"]),
            is_human=row["is_human"] == "1",
        )

    references: dict[tuple[str, str], ReferenceTranslation] = {}
    for line, row in read_tsv(paths.references, _REFERENCES_COLUMNS):
        key = (row["ref_id"], row["seg_id"])
        check_segment(row["seg_id"], row["lang_pair"], row["domain"], "reference")
        if key in references:
            raise IntegrityError(f"duplicate (ref_id, seg_id): {key!r}")
        references[key] = ReferenceTranslation(
            ref_id=row["ref_id"],
            seg_id=row["seg_id"],
            text=nfc(row["text"]),
            origin=ORIGIN_HUMAN,
        )

    # One rating per (annotator, system, segment); error rows accumulate and
    # a single no-error row stands for a zero-error rating.
    rating_errors: dict[tuple[str, str, str], list[MqmError]] = {}
    for line, row in read_tsv(paths.ratings, _RATINGS_COLUMNS):
        check_segment(row["seg_id"], row["lang_pair"], row["domain"], "rating")
        translation_key = (row["system_id"], row["seg_id"])
        if translation_key not in translations:
            raise IntegrityError(
                f"rating references unknown (system_id, seg_id): {translation_key!r}"
            )
        severity = row["severity"].strip().lower()
        if severity not in (SEVERITY_MAJOR, SEVERITY_MINOR, SEVERITY_NO_ERROR):
            raise CorpusFormatError(
                paths.ratings, line, f"unknown severity: {row['severity']!r}"
            )
        key = (row["annotator_id"], row["system_id"], row["seg_id"])
        errors = rating_errors.setdefault(key, [])
        if severity == SEVERITY_NO_ERROR:
            continue
        span = _parse_span(row, paths.ratings, line)
        if span is not None and span[1] > len(translations[translation_key].text):
            raise CorpusFormatError(
                paths.ratings, line, f"span {span} exceeds translation length"
            )
        errors.append(MqmError(category=nfc(row["category"]), severity=severity, span=span))

    ratings = tuple(
        MqmRating(
            annotator_id=annotator_id,
            system_id=system_id,
            seg_id=seg_id,
            errors=tuple(errors),
        )
        for (annotator_id, system_id, seg_id), errors in sorted(rating_errors.items())
    )

    return EvaluationSet(
        segments=dict(sorted(segments.items(), key=lambda kv: _segment_sort_key(kv[1]))),
        translations=dict(sorted(translations.items())),
        references=dict(sorted(references.items())),
        ratings=ratings,
    )


def _segment_sort_key(segment: Segment) -> tuple[str, str, str, str]:
    return (segment.lang_pair, segment.domain, segment.doc_id, segment.seg_id)


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
