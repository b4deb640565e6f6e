"""Tests for corpus loading, MQM scoring and error-free identification."""

import math
import random

import pytest

from conftest import (
    load_tiny_corpus,
    make_eval_set,
    tiny_corpus_rows,
    write_corpus_files,
)
from metricfit.artefacts import ArtefactError
from metricfit.corpus import (
    CorpusFormatError,
    CorpusPaths,
    IntegrityError,
    MqmError,
    MqmRating,
    SeverityWeights,
    UnknownSeverityError,
    error_free_translations,
    load_corpus,
    mqm_score,
    write_corpus,
)


def test_identity_load(tmp_path):
    eval_set = load_tiny_corpus(tmp_path)
    assert len(eval_set.segments) == 3
    assert len(eval_set.translations) == 9
    assert len(eval_set.references) == 3
    assert eval_set.group_keys() == [("en-de", "news")]
    assert eval_set.system_ids() == ["human-A", "sysA", "sysB"]
    assert eval_set.system_ids(include_human=False) == ["sysA", "sysB"]


def test_unknown_seg_id_rejected(tmp_path):
    segments, outputs, references, ratings = tiny_corpus_rows()
    outputs.append(["en-de", "news", "sysA", "segX", "0", "etwas"])
    paths = write_corpus_files(tmp_path / "bad", segments, outputs, references, ratings)
    with pytest.raises(IntegrityError, match="segX"):
        load_corpus(paths)


def test_unknown_system_in_ratings_rejected(tmp_path):
    segments, outputs, references, ratings = tiny_corpus_rows()
    ratings.append(["en-de", "news", "sysZ", "seg1", "ann1", "", "no-error", "", ""])
    paths = write_corpus_files(tmp_path / "bad", segments, outputs, references, ratings)
    with pytest.raises(IntegrityError, match="sysZ"):
        load_corpus(paths)


def test_empty_ratings_file_is_valid(tmp_path):
    segments, outputs, references, _ = tiny_corpus_rows()
    paths = write_corpus_files(tmp_path / "empty", segments, outputs, references, [])
    eval_set = load_corpus(paths)
    assert eval_set.ratings == ()


def test_malformed_row_names_line(tmp_path):
    segments, outputs, references, ratings = tiny_corpus_rows()
    segments.append(["en-de", "news", "doc9"])  # too few fields, line 5
    paths = write_corpus_files(tmp_path / "bad", segments, outputs, references, ratings)
    with pytest.raises(CorpusFormatError) as excinfo:
        load_corpus(paths)
    assert excinfo.value.line == 5


def test_bad_header_rejected(tmp_path):
    paths = write_corpus_files(tmp_path / "bad", *tiny_corpus_rows())
    paths.segments.write_text("a\tb\tc\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError):
        load_corpus(paths)


def test_duplicate_seg_id_rejected(tmp_path):
    segments, outputs, references, ratings = tiny_corpus_rows()
    segments.append(["en-de", "news", "doc3", "seg1", "again"])
    paths = write_corpus_files(tmp_path / "bad", segments, outputs, references, ratings)
    with pytest.raises(IntegrityError, match="seg1"):
        load_corpus(paths)


def test_group_mismatch_rejected(tmp_path):
    segments, outputs, references, ratings = tiny_corpus_rows()
    ratings.append(["en-de", "ted", "sysA", "seg1", "ann1", "", "no-error", "", ""])
    paths = write_corpus_files(tmp_path / "bad", segments, outputs, references, ratings)
    with pytest.raises(IntegrityError, match="disagrees"):
        load_corpus(paths)


def test_span_validation(tmp_path):
    segments, outputs, references, ratings = tiny_corpus_rows()
    ratings.append(
        ["en-de", "news", "sysA", "seg2", "ann3", "accuracy/omission", "minor",
         "0", "9999"]
    )
    paths = write_corpus_files(tmp_path / "bad", segments, outputs, references, ratings)
    with pytest.raises(CorpusFormatError, match="span"):
        load_corpus(paths)


def test_unknown_severity_rejected_at_load(tmp_path):
    segments, outputs, references, ratings = tiny_corpus_rows()
    ratings.append(
        ["en-de", "news", "sysA", "seg2", "ann3", "accuracy", "catastrophic", "", ""]
    )
    paths = write_corpus_files(tmp_path / "bad", segments, outputs, references, ratings)
    with pytest.raises(CorpusFormatError, match="catastrophic"):
        load_corpus(paths)


def test_nfc_normalization_at_load(tmp_path):
    segments, outputs, references, ratings = tiny_corpus_rows()
    decomposed = "café"  # e + combining acute
    segments.append(["en-de", "news", "doc3", "seg4", decomposed])
    paths = write_corpus_files(tmp_path / "nfc", segments, outputs, references, ratings)
    eval_set = load_corpus(paths)
    assert eval_set.segments["seg4"].source_text == "café"


def test_mqm_score_zero_errors():
    rating = MqmRating("ann1", "sysA", "seg1", errors=())
    assert mqm_score(rating) == 0.0


def test_mqm_score_one_major():
    rating = MqmRating(
        "ann1", "sysA", "seg1",
        errors=(MqmError("accuracy/mistranslation", "major"),),
    )
    assert mqm_score(rating) == 5.0


def test_mqm_score_mixed_severities():
    rating = MqmRating(
        "ann1", "sysA", "seg1",
        errors=(
            MqmError("accuracy/mistranslation", "major"),
            MqmError("accuracy/omission", "minor"),
            MqmError("accuracy/addition", "minor"),
            MqmError("fluency/punctuation", "minor"),
        ),
    )
    assert mqm_score(rating) == pytest.approx(7.1, abs=1e-12)


def test_mqm_score_unknown_severity():
    rating = MqmRating(
        "ann1", "sysA", "seg1", errors=(MqmError("accuracy", "critical"),)
    )
    with pytest.raises(UnknownSeverityError):
        mqm_score(rating)


def test_mqm_score_configurable_weights():
    weights = SeverityWeights(major=10.0, minor=2.0, minor_fluency_punctuation=0.5)
    rating = MqmRating(
        "ann1", "sysA", "seg1",
        errors=(
            MqmError("accuracy/mistranslation", "major"),
            MqmError("fluency/punctuation", "minor"),
        ),
    )
    assert mqm_score(rating, weights) == 10.5


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("field", ["major", "minor", "minor_fluency_punctuation"])
def test_severity_weights_refuse_non_finite_or_negative(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite and nonnegative"):
        SeverityWeights(**{field: bad})
    assert getattr(SeverityWeights(**{field: 0.0}), field) == 0.0  # zero stays legal


def test_mqm_score_additive():
    rng = random.Random(7)
    categories = ["accuracy/mistranslation", "fluency/punctuation", "fluency/grammar"]
    for _ in range(50):
        errors_a = tuple(
            MqmError(rng.choice(categories), rng.choice(["major", "minor"]))
            for _ in range(rng.randint(0, 4))
        )
        errors_b = tuple(
            MqmError(rng.choice(categories), rng.choice(["major", "minor"]))
            for _ in range(rng.randint(0, 4))
        )
        combined = MqmRating("a", "s", "g", errors=errors_a + errors_b)
        split_sum = mqm_score(MqmRating("a", "s", "g", errors_a)) + mqm_score(
            MqmRating("a", "s", "g", errors_b)
        )
        assert math.isclose(mqm_score(combined), split_sum, abs_tol=1e-12)


def test_error_free_requires_all_annotators(tmp_path):
    eval_set = load_tiny_corpus(tmp_path)
    error_free = error_free_translations(eval_set)
    # sysA/seg1: both annotators say no-error -> included
    assert [t.system_id for t in error_free["seg1"]] == ["sysA"]
    # sysB/seg1: ann1 marked a major error, ann2 none -> excluded
    assert all(t.system_id != "sysB" for t in error_free["seg1"])


def test_error_free_excludes_unannotated_and_human():
    segments = [("en-de", "news", "d", "s1", "src")]
    translations = [
        ("sysA", "s1", "gut", False),
        ("sysB", "s1", "auch gut", False),  # never annotated
        ("humanX", "s1", "gut", True),
    ]
    ratings = [
        ("ann1", "sysA", "s1", []),
        ("ann1", "humanX", "s1", []),
    ]
    eval_set = make_eval_set(segments, translations, [("r", "s1", "ref")], ratings)
    error_free = error_free_translations(eval_set)
    assert [t.system_id for t in error_free.get("s1", [])] == ["sysA"]


def test_error_free_invariant_under_rating_permutation():
    segments = [("en-de", "news", "d", "s1", "src")]
    translations = [("sysA", "s1", "gut", False), ("sysB", "s1", "naja", False)]
    ratings = [
        ("ann1", "sysA", "s1", []),
        ("ann2", "sysA", "s1", []),
        ("ann1", "sysB", "s1", [("accuracy/omission", "minor")]),
    ]
    eval_set = make_eval_set(segments, translations, [("r", "s1", "ref")], ratings)
    shuffled = make_eval_set(
        segments, translations, [("r", "s1", "ref")], ratings[::-1]
    )
    assert error_free_translations(eval_set) == error_free_translations(shuffled)


def test_load_is_deterministic(tmp_path):
    first = load_tiny_corpus(tmp_path / "a")
    second = load_tiny_corpus(tmp_path / "b")
    assert first == second
    assert list(first.segments) == list(second.segments)
    assert list(first.translations) == list(second.translations)


def test_write_corpus_round_trip(tmp_path):
    eval_set = load_tiny_corpus(tmp_path)
    paths = write_corpus(eval_set, tmp_path / "bundle")
    assert load_corpus(paths) == eval_set


def test_subset_and_groups():
    segments = [
        ("en-de", "news", "d", "s1", "one"),
        ("en-de", "ted", "d", "s2", "two"),
        ("zh-en", "news", "d", "s3", "three"),
    ]
    translations = [("sysA", "s1", "x", False), ("sysA", "s2", "y", False),
                    ("sysA", "s3", "z", False)]
    references = [("r", "s1", "a"), ("r", "s2", "b"), ("r", "s3", "c")]
    eval_set = make_eval_set(segments, translations, references)
    assert eval_set.group_keys() == [
        ("en-de", "news"), ("en-de", "ted"), ("zh-en", "news")
    ]
    subset = eval_set.subset("en-de", "news")
    assert list(subset.segments) == ["s1"]
    assert list(subset.translations) == [("sysA", "s1")]


def test_standard_reference_prefers_lowest_ref_id():
    segments = [("en-de", "news", "d", "s1", "src")]
    references = [("refB", "s1", "zweite"), ("refA", "s1", "erste")]
    eval_set = make_eval_set(segments, [], references)
    assert eval_set.standard_reference("s1").text == "erste"
    assert eval_set.standard_reference("missing") is None


def test_no_error_row_combined_with_error_rows(tmp_path):
    # A no-error row plus real error rows for the same key leaves the errors.
    segments, outputs, references, ratings = tiny_corpus_rows()
    ratings.append(
        ["en-de", "news", "sysB", "seg2", "ann1", "", "no-error", "", ""]
    )
    paths = write_corpus_files(tmp_path / "mix", segments, outputs, references, ratings)
    eval_set = load_corpus(paths)
    (rating,) = eval_set.ratings_for("sysB", "seg2")
    assert len(rating.errors) == 1


def test_missing_file_reported(tmp_path):
    paths = CorpusPaths.in_directory(tmp_path / "nowhere")
    with pytest.raises(ArtefactError, match="missing file") as raised:
        load_corpus(paths)
    assert raised.value.path == str(paths.segments)
    assert str(raised.value) == f"{paths.segments}: missing file"


_FILES = ("segments", "system_outputs", "references", "ratings")


def _rating(seg_id="seg2", system_id="sysA", group=("en-de", "news"),
            severity="minor", span=("", "")):
    return [*group, system_id, seg_id, "ann3", "accuracy", severity, *span]


# (id, file, change, exception, message): the tiny corpus with ``change``
# made to one of its files, as rows appended to it, a function of its bytes,
# or None to delete it; ``{path}`` in the message stands for that file.
LOAD_REFUSALS = [
    ("missing-file", "ratings", None, ArtefactError, "{path}: missing file"),
    ("empty-file", "references", lambda data: b"", ArtefactError,
     "{path}:1: empty file, expected a header row"),
    ("bad-header", "system_outputs",
     lambda data: data.replace(b"is_human", b"human", 1), ArtefactError,
     "{path}:1: bad header ['lang_pair', 'domain', 'system_id', 'seg_id', "
     "'human', 'text'], expected ['lang_pair', 'domain', 'system_id', 'seg_id', "
     "'is_human', 'text']"),
    ("wrong-field-count", "segments", [["en-de", "news", "doc9"]], ArtefactError,
     "{path}:5: expected 5 fields, got 3"),
    ("non-utf8", "system_outputs",
     lambda data: data.replace(b"es regnet", b"es r\xe4gnet"), ArtefactError,
     "{path}:3: not valid UTF-8"),
    ("segment-empty-seg-id", "segments", [["en-de", "news", "doc9", " ", "hi"]],
     ArtefactError, "{path}:5: empty seg_id"),
    ("segment-empty-source", "segments", [["en-de", "news", "doc9", "seg9", ""]],
     ArtefactError, "{path}:5: empty source_text"),
    ("segment-duplicate", "segments", [["en-de", "news", "doc9", "seg1", "again"]],
     IntegrityError, "{path}:5: duplicate seg_id: 'seg1'"),
    ("output-unknown-seg-id", "system_outputs",
     [["en-de", "news", "sysA", "segX", "0", "etwas"]], IntegrityError,
     "{path}:11: system output references unknown seg_id: 'segX'"),
    ("output-group-mismatch", "system_outputs",
     [["en-de", "ted", "sysC", "seg1", "0", "etwas"]], IntegrityError,
     "{path}:11: system output for seg_id 'seg1' disagrees on group: ('en-de', 'ted') vs "
     "('en-de', 'news')"),
    ("output-duplicate", "system_outputs",
     [["en-de", "news", "sysA", "seg1", "0", "etwas"]], IntegrityError,
     "{path}:11: duplicate (system_id, seg_id): ('sysA', 'seg1')"),
    ("output-is-human-not-0-or-1", "system_outputs",
     [["en-de", "news", "sysC", "seg1", "yes", "etwas"]], ArtefactError,
     "{path}:11: is_human must be 0 or 1, got 'yes'"),
    ("reference-unknown-seg-id", "references",
     [["en-de", "news", "refB", "segX", "etwas"]], IntegrityError,
     "{path}:5: reference references unknown seg_id: 'segX'"),
    ("reference-group-mismatch", "references",
     [["de-en", "news", "refB", "seg2", "etwas"]], IntegrityError,
     "{path}:5: reference for seg_id 'seg2' disagrees on group: ('de-en', 'news') vs "
     "('en-de', 'news')"),
    ("reference-duplicate", "references",
     [["en-de", "news", "refA", "seg1", "etwas"]], IntegrityError,
     "{path}:5: duplicate (ref_id, seg_id): ('refA', 'seg1')"),
    ("rating-unknown-seg-id", "ratings", [_rating(seg_id="segX")], IntegrityError,
     "{path}:10: rating references unknown seg_id: 'segX'"),
    ("rating-group-mismatch", "ratings", [_rating(group=("en-de", "ted"))],
     IntegrityError,
     "{path}:10: rating for seg_id 'seg2' disagrees on group: ('en-de', 'ted') vs "
     "('en-de', 'news')"),
    ("rating-unknown-translation", "ratings", [_rating(system_id="sysZ")],
     IntegrityError,
     "{path}:10: rating references unknown (system_id, seg_id): ('sysZ', 'seg2')"),
    ("rating-unknown-severity", "ratings", [_rating(severity=" Catastrophic")],
     ArtefactError, "{path}:10: unknown severity: ' Catastrophic'"),
    ("rating-half-span", "ratings", [_rating(span=("3", " "))], ArtefactError,
     "{path}:10: span_start/span_end must both be set"),
    ("rating-non-integer-span", "ratings", [_rating(span=("0", "x9"))],
     ArtefactError, "{path}:10: non-integer span: '0'..'x9'"),
    ("rating-reversed-span", "ratings", [_rating(span=("5", "2"))], ArtefactError,
     "{path}:10: invalid span range: (5, 2)"),
    ("rating-span-past-text", "ratings", [_rating(span=("0", "16"))],
     ArtefactError, "{path}:10: span (0, 16) exceeds translation length"),
    # the first bad row wins, though the second fails a check made earlier
    ("first-of-two-bad-rows", "ratings",
     [_rating(span=("5", "2")), _rating(seg_id="segX")], ArtefactError,
     "{path}:10: invalid span range: (5, 2)"),
]


@pytest.mark.parametrize(
    "file, change, exception, message",
    [case[1:] for case in LOAD_REFUSALS],
    ids=[case[0] for case in LOAD_REFUSALS],
)
def test_load_corpus_refusal(tmp_path, file, change, exception, message):
    rows = dict(zip(_FILES, tiny_corpus_rows()))
    if isinstance(change, list):
        rows[file] += change
    paths = write_corpus_files(tmp_path / "bad", *rows.values())
    path = getattr(paths, file)
    if change is None:
        path.unlink()
    elif callable(change):
        path.write_bytes(change(path.read_bytes()))
    with pytest.raises(exception) as raised:
        load_corpus(paths)
    assert type(raised.value) is exception
    assert str(raised.value) == message.format(path=path)
