"""End-to-end tests for the command-line interface."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    ranking_pair_count_oracle,
    robustness_corpus_rows,
    tiny_corpus_rows,
    write_corpus_files,
)
from metricfit.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from metricfit.corpus import CorpusPaths, load_corpus


def run(*argv) -> int:
    return main([str(part) for part in argv])


def ingest(tmp_path: Path, rows, name="corpus") -> Path:
    paths = write_corpus_files(tmp_path / f"{name}-src", *rows)
    bundle = tmp_path / name
    code = run(
        "ingest",
        "--segments", paths.segments,
        "--system-outputs", paths.system_outputs,
        "--references", paths.references,
        "--ratings", paths.ratings,
        "--out", bundle,
    )
    assert code == EXIT_OK
    return bundle


def two_system_rows():
    """2 systems x 3 segments x 1 annotator, all rated."""
    segments = [
        ["en-de", "news", "d1", "seg1", "one two three"],
        ["en-de", "news", "d1", "seg2", "four five"],
        ["en-de", "news", "d2", "seg3", "six"],
    ]
    outputs = [
        ["en-de", "news", "sysA", seg, "0", f"ausgabe A {seg}"]
        for seg in ("seg1", "seg2", "seg3")
    ] + [
        ["en-de", "news", "sysB", seg, "0", f"ausgabe B {seg}"]
        for seg in ("seg1", "seg2", "seg3")
    ]
    references = [
        ["en-de", "news", "refA", seg, f"referenz {seg}"]
        for seg in ("seg1", "seg2", "seg3")
    ]
    ratings = [
        ["en-de", "news", "sysA", seg, "ann1", "", "no-error", "", ""]
        for seg in ("seg1", "seg2", "seg3")
    ] + [
        ["en-de", "news", "sysB", seg, "ann1", "accuracy/mistranslation", "major", "", ""]
        for seg in ("seg1", "seg2", "seg3")
    ]
    return segments, outputs, references, ratings


def test_ingest_counts(tmp_path):
    bundle = ingest(tmp_path, two_system_rows())
    summary = json.loads((bundle / "summary.json").read_text())
    assert summary["totals"]["segments"] == 3
    assert summary["totals"]["systems"] == 2
    (group,) = summary["groups"]
    assert group["annotated_system_translations"] == 6
    assert group["annotated_segments"] == 3


def test_ingest_malformed_tsv(tmp_path, capsys):
    paths = write_corpus_files(tmp_path / "bad", *two_system_rows())
    paths.segments.write_text(
        paths.segments.read_text() + "en-de\tnews\tshort\n", encoding="utf-8"
    )
    code = run(
        "ingest",
        "--segments", paths.segments,
        "--system-outputs", paths.system_outputs,
        "--references", paths.references,
        "--ratings", paths.ratings,
        "--out", tmp_path / "out",
    )
    assert code == EXIT_DATA
    assert ":5:" in capsys.readouterr().err


def test_ingest_missing_argument(tmp_path, capsys):
    assert run("ingest", "--out", tmp_path / "out") == EXIT_USAGE
    assert "--segments" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    assert run("frobnicate") == EXIT_USAGE


def test_rankings_requires_seed(tmp_path, capsys):
    bundle = ingest(tmp_path, tiny_corpus_rows())
    code = run("rankings", "--corpus", bundle, "--out", tmp_path / "r")
    assert code == EXIT_USAGE
    assert "--seed" in capsys.readouterr().err


def test_rankings_counts_match_oracle(tmp_path):
    bundle = ingest(tmp_path, tiny_corpus_rows())
    out = tmp_path / "r"
    assert run("rankings", "--corpus", bundle, "--out", out, "--seed", 3,
               "--holdout", 2) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    eval_set = load_corpus(CorpusPaths.in_directory(bundle))
    assert manifest["rankings"] == ranking_pair_count_oracle(eval_set)
    assert manifest["train"] + manifest["validation"] == manifest["rankings"]
    n_rows = len((out / "rankings.tsv").read_text().splitlines()) - 1
    assert n_rows == manifest["rankings"]


def test_rankings_rerun_is_byte_identical(tmp_path):
    bundle = ingest(tmp_path, tiny_corpus_rows())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run("rankings", "--corpus", bundle, "--out", out, "--seed", 5,
                   "--holdout", 2) == EXIT_OK
    for name in ("rankings.tsv", "train.tsv", "validation.tsv", "manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_rankings_empty_ratings_warns(tmp_path, capsys):
    segments, outputs, references, _ = tiny_corpus_rows()
    bundle = ingest(tmp_path, (segments, outputs, references, []))
    code = run("rankings", "--corpus", bundle, "--out", tmp_path / "r", "--seed", 1)
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "no relative rankings" in captured.err
    manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
    assert manifest["rankings"] == 0


def _prepared_pipeline(tmp_path, n_systems=4, n_segments=10, seed=3):
    bundle = ingest(tmp_path, robustness_corpus_rows(n_systems, n_segments, seed))
    rankings_dir = tmp_path / "rankings"
    assert run("rankings", "--corpus", bundle, "--out", rankings_dir,
               "--seed", 11, "--holdout", 30) == EXIT_OK
    return bundle, rankings_dir


def test_train_validation_error_when_all_terms_disabled(tmp_path, capsys):
    bundle, rankings_dir = _prepared_pipeline(tmp_path)
    code = run(
        "train", "--corpus", bundle, "--rankings", rankings_dir,
        "--out", tmp_path / "model", "--seed", 1,
        "--disable-ce", "--disable-forward", "--disable-backward",
    )
    assert code == EXIT_USAGE
    assert "loss term" in capsys.readouterr().err


def test_train_missing_rankings_artifact(tmp_path, capsys):
    bundle = ingest(tmp_path, tiny_corpus_rows())
    code = run("train", "--corpus", bundle, "--rankings", tmp_path / "nope",
               "--out", tmp_path / "model", "--seed", 1)
    assert code == EXIT_DATA
    assert "train.tsv" in capsys.readouterr().err


def test_train_writes_artifacts(tmp_path):
    bundle, rankings_dir = _prepared_pipeline(tmp_path)
    out = tmp_path / "model"
    assert run("train", "--corpus", bundle, "--rankings", rankings_dir,
               "--out", out, "--seed", 1) == EXIT_OK
    assert (out / "scorer.json").exists()
    report = json.loads((out / "training_report.json").read_text())
    assert report["steps"]
    assert report["validation"]


def test_score_with_corrupt_scorer_exits_with_numeric_failure(tmp_path, capsys):
    from metricfit.metrics import ToyScorer

    bundle = ingest(tmp_path, tiny_corpus_rows())
    scorer = ToyScorer.from_texts(["ein text"])
    payload = scorer.to_dict()
    payload["theta"] = [float("nan"), 0.0, 0.0]
    poisoned = tmp_path / "poisoned.json"
    poisoned.write_text(json.dumps(payload))
    code = run("score", "--corpus", bundle, "--out", tmp_path / "s",
               "--metrics", "prism", "--scorer", poisoned)
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert f"{poisoned}: metric 'prism': non-finite score for ('sysA', 'seg1')" in err


def test_score_requires_scorer_for_prism(tmp_path, capsys):
    bundle = ingest(tmp_path, tiny_corpus_rows())
    code = run("score", "--corpus", bundle, "--out", tmp_path / "s",
               "--metrics", "prism")
    assert code == EXIT_DATA
    assert "scorer" in capsys.readouterr().err


def test_score_unknown_metric(tmp_path, capsys):
    bundle = ingest(tmp_path, tiny_corpus_rows())
    code = run("score", "--corpus", bundle, "--out", tmp_path / "s",
               "--metrics", "meteor")
    assert code == EXIT_USAGE


def test_score_and_correlate(tmp_path):
    bundle, rankings_dir = _prepared_pipeline(tmp_path)
    model = tmp_path / "model"
    assert run("train", "--corpus", bundle, "--rankings", rankings_dir,
               "--out", model, "--seed", 1) == EXIT_OK
    scores_dir = tmp_path / "scores"
    assert run("score", "--corpus", bundle, "--out", scores_dir,
               "--metrics", "bleu,chrf,prism",
               "--scorer", model / "scorer.json") == EXIT_OK
    scores_path = scores_dir / "scores.tsv"
    assert scores_path.exists()

    correlate_dir = tmp_path / "corr"
    assert run("correlate", "--corpus", bundle, "--scores", scores_path,
               "--out", correlate_dir) == EXIT_OK
    correlations = json.loads((correlate_dir / "correlations.json").read_text())
    (context,) = correlations["contexts"]
    assert set(context["metrics"]) == {"bleu", "chrf", "prism"}
    for values in context["metrics"].values():
        assert "segment_tau" in values
        assert "pairwise_accuracy" in values


def test_correlate_missing_scores(tmp_path, capsys):
    bundle = ingest(tmp_path, tiny_corpus_rows())
    code = run("correlate", "--corpus", bundle, "--scores", tmp_path / "none.tsv",
               "--out", tmp_path / "c")
    assert code == EXIT_DATA
    assert "none.tsv" in capsys.readouterr().err


def test_robustness_report_command(tmp_path):
    bundle, _ = _prepared_pipeline(tmp_path)
    out = tmp_path / "rob"
    assert run("robustness", "--corpus", bundle, "--out", out, "--seed", 2,
               "--metrics", "bleu,chrf", "--resamples", 20) == EXIT_OK
    report = json.loads((out / "robustness.json").read_text())
    (context,) = report["contexts"]
    for metric_id in ("bleu", "chrf"):
        for level in ("segment_level", "system_level"):
            entry = context[level][metric_id]
            assert "ref_std" in entry and "ref_mt" in entry
    assert (out / "robustness.txt").read_text().startswith("==")


def test_robustness_requires_seed(tmp_path, capsys):
    bundle = ingest(tmp_path, tiny_corpus_rows())
    code = run("robustness", "--corpus", bundle, "--out", tmp_path / "rob")
    assert code == EXIT_USAGE


def test_config_file_with_flag_override(tmp_path):
    bundle = ingest(tmp_path, tiny_corpus_rows())
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "corpus": str(bundle),
        "threshold": 0.1,
        "holdout": 2,
        "seed": 9,
    }))
    out = tmp_path / "from-config"
    assert run("rankings", "--config", config, "--out", out) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["threshold"] == 0.1
    assert manifest["seed"] == 9

    out_override = tmp_path / "override"
    assert run("rankings", "--config", config, "--out", out_override,
               "--threshold", 5.0) == EXIT_OK
    manifest = json.loads((out_override / "manifest.json").read_text())
    assert manifest["threshold"] == 5.0  # flag wins over config


def test_outputs_do_not_mutate_inputs(tmp_path):
    rows = tiny_corpus_rows()
    paths = write_corpus_files(tmp_path / "src", *rows)
    before = {p: Path(p).read_bytes() for p in map(str, (
        paths.segments, paths.system_outputs, paths.references, paths.ratings))}
    bundle = tmp_path / "bundle"
    assert run("ingest", "--segments", paths.segments,
               "--system-outputs", paths.system_outputs,
               "--references", paths.references, "--ratings", paths.ratings,
               "--out", bundle) == EXIT_OK
    assert run("rankings", "--corpus", bundle, "--out", tmp_path / "r",
               "--seed", 1, "--holdout", 1) == EXIT_OK
    after = {p: Path(p).read_bytes() for p in before}
    assert before == after


# -- malformed artefacts -----------------------------------------------------


# weights whose token log-probabilities stay finite (about -1.4e308) on the
# bundle's own words, though their sums do not
EXTREME_THETA = [-1e308, 1.0, 1e308]


@pytest.fixture(scope="module")
def artefacts(tmp_path_factory):
    """A bundle, its rankings, a scorer, a NaN-theta scorer, bleu scores and
    a scorer of the bundle's texts with ``EXTREME_THETA``."""
    from metricfit.metrics import ToyScorer

    tmp = tmp_path_factory.mktemp("artefacts")
    bundle = ingest(tmp, robustness_corpus_rows(4, 10, 3))
    rankings = tmp / "rankings"
    assert run("rankings", "--corpus", bundle, "--out", rankings,
               "--seed", 11, "--holdout", 30) == EXIT_OK
    scorer = ToyScorer.from_texts(["ein text"])
    scorer.save(tmp / "scorer.json")
    payload = scorer.to_dict()
    payload["theta"] = [float("nan"), 0.0, 0.0]
    (tmp / "nan-scorer.json").write_text(json.dumps(payload), encoding="utf-8")
    assert run("score", "--corpus", bundle, "--out", tmp / "scores",
               "--metrics", "bleu") == EXIT_OK
    corpus = load_corpus(CorpusPaths.in_directory(bundle))
    texts = [segment.source_text for segment in corpus.segments.values()]
    texts += [text.text for text in (*corpus.references.values(),
                                     *corpus.translations.values())]
    ToyScorer.from_texts(texts, theta=EXTREME_THETA).save(tmp / "extreme-scorer.json")
    return {
        "bundle": bundle,
        "rankings": rankings,
        "scorer": tmp / "scorer.json",
        "nan_scorer": tmp / "nan-scorer.json",
        "scores": tmp / "scores" / "scores.tsv",
        "extreme_scorer": tmp / "extreme-scorer.json",
    }


def _append(path: Path, text: str) -> int:
    """Append ``text`` as the file's next line; return that line's number."""
    content = path.read_text(encoding="utf-8")
    path.write_text(content + text, encoding="utf-8")
    return content.count("\n") + 1


def _broken_train(tmp, art, text):
    rankings = tmp / "rankings"
    shutil.copytree(art["rankings"], rankings)
    line = _append(rankings / "train.tsv", text)
    argv = ["train", "--corpus", art["bundle"], "--rankings", rankings,
            "--out", tmp / "model", "--seed", 1]
    return argv, f"{rankings / 'train.tsv'}:{line}:"


def _train_delta(tmp, art, delta):
    """train with a ranking whose score_delta is ``delta`` appended."""
    fields = ["en-de", "seg1", "ann1", "s", "r", "p", "m", delta]
    return _broken_train(tmp, art, "\t".join(fields) + "\n")


def _broken_scorer(tmp, art, edit):
    payload = json.loads(art["scorer"].read_text(encoding="utf-8"))
    edit(payload)
    scorer = tmp / "scorer.json"
    scorer.write_text(json.dumps(payload), encoding="utf-8")
    argv = ["score", "--corpus", art["bundle"], "--out", tmp / "s",
            "--metrics", "prism", "--scorer", scorer]
    return argv, f"{scorer}:"


def _broken_scores(tmp, art, row=None, data=None):
    scores = tmp / "scores.tsv"
    shutil.copy(art["scores"], scores)
    if data is not None:
        scores.write_bytes(scores.read_bytes() + data)
        line = scores.read_bytes().count(b"\n")
    else:
        first = scores.read_text(encoding="utf-8").splitlines()[1].split("\t")
        line = _append(scores, "\t".join(row(first)) + "\n")
    argv = ["correlate", "--corpus", art["bundle"], "--scores", scores,
            "--out", tmp / "c"]
    return argv, f"{scores}:{line}:"


SEEDED_COMMANDS = ("rankings", "train", "robustness")


def _config(tmp, art, command, payload):
    config = tmp / "config.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    return _flags(tmp, art, command, "--config", config)


def _flags(tmp, art, command, *flags):
    argv = [command, "--corpus", art["bundle"], "--out", tmp / "out", *flags]
    if command in SEEDED_COMMANDS:
        argv += ["--seed", 1]
    if command == "train":
        argv += ["--rankings", art["rankings"]]
    return argv, None


def _ingest(tmp, *flags):
    paths = write_corpus_files(tmp / "raw", *tiny_corpus_rows())
    argv = ["ingest", "--segments", paths.segments,
            "--system-outputs", paths.system_outputs,
            "--references", paths.references, "--ratings", paths.ratings,
            "--out", tmp / "bundle", *flags]
    return argv, paths


def _ingest_appended(tmp, file, row):
    """ingest with ``row`` appended to one of the tiny corpus's files."""
    argv, paths = _ingest(tmp)
    path = getattr(paths, file)
    line = _append(path, "\t".join(row) + "\n")
    return argv, f"{path}:{line}:"


def _non_utf8_segments(tmp, art):
    argv, paths = _ingest(tmp)
    data = paths.segments.read_bytes().replace(b"it rains", b"it r\xe4ins")
    paths.segments.write_bytes(data)
    return argv, f"{paths.segments}:3:"


def _scorer_literal(tmp, art, edit, literal):
    """The scorer with the value that ``edit`` sets to "LITERAL" written as
    ``literal``."""
    argv, where = _broken_scorer(tmp, art, edit)
    scorer = tmp / "scorer.json"
    text = scorer.read_text(encoding="utf-8")
    scorer.write_text(text.replace('"LITERAL"', literal), encoding="utf-8")
    return argv, where


def _scorer_count(tmp, art, literal):
    """The scorer with the unigram count of 'ein' written as ``literal``."""
    return _scorer_literal(
        tmp, art, lambda p: p["unigram_counts"].update(ein="LITERAL"), literal
    )


def _not_json_scorer(tmp, art):
    scorer = tmp / "scorer.json"
    scorer.write_text('{\n  "theta": [1, 2, 3],\n  oops\n}\n', encoding="utf-8")
    argv = ["score", "--corpus", art["bundle"], "--out", tmp / "s",
            "--metrics", "prism", "--scorer", scorer]
    return argv, f"{scorer}:3:"


def _nan_robustness(tmp, art):
    argv = ["robustness", "--corpus", art["bundle"], "--out", tmp / "rob",
            "--seed", 2, "--metrics", "prism", "--scorer", art["nan_scorer"],
            "--resamples", 5]
    return argv, f"{art['nan_scorer']}:"


def _extreme_scorer(tmp, art, command, *flags):
    """``command`` with prism under the scorer of ``EXTREME_THETA``."""
    scorer = ("--metrics", "prism,bleu", "--scorer", art["extreme_scorer"])
    return _flags(tmp, art, command, *scorer, *flags)


def _huge_scores(tmp, art):
    """The bleu scores rewritten as distinct finite values near -1.5e308."""
    scores = tmp / "scores.tsv"
    header, *rows = art["scores"].read_text(encoding="utf-8").splitlines()
    lines = [header]
    for i, row in enumerate(rows):
        fields = row.split("\t")
        lines.append("\t".join([*fields[:-1], repr(-1.5e308 + i * 1e292)]))
    scores.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return _flags(tmp, art, "correlate", "--scores", scores)


def _huge_weights(tmp, art, command, *flags):
    """``command`` with severity weights whose penalties overflow when summed."""
    config = tmp / "config.json"
    weights = {"severity_weights": {"major": 1e308, "minor": 1e308}}
    config.write_text(json.dumps(weights), encoding="utf-8")
    return _flags(tmp, art, command, "--config", config, *flags)


# (id, make, exit code, message): make(tmp_path, artefacts) writes one broken
# input and returns the command line plus the "path:line:" that stderr must
# name (None where the problem has no file line). The message is in stderr,
# or for a run that succeeds in stdout.
MALFORMED = [
    ("ingest-non-utf8", _non_utf8_segments, EXIT_DATA, "not valid UTF-8"),
    ("ingest-unknown-seg-id",
     lambda t, a: _ingest_appended(
         t, "system_outputs", ["en-de", "news", "sysA", "segX", "0", "etwas"]),
     EXIT_DATA, "system output references unknown seg_id: 'segX'"),
    ("ingest-duplicate-reference",
     lambda t, a: _ingest_appended(
         t, "references", ["en-de", "news", "refA", "seg1", "etwas"]),
     EXIT_DATA, "duplicate (ref_id, seg_id): ('refA', 'seg1')"),
    ("train-4-field-row",
     lambda t, a: _broken_train(t, a, "en-de\tseg1\tann1\tsource\n"),
     EXIT_DATA, "expected 8 fields, got 4"),
    ("train-bad-delta", lambda t, a: _train_delta(t, a, "big"),
     EXIT_DATA, "score_delta is not a finite number"),
    ("train-negative-delta", lambda t, a: _train_delta(t, a, "-5"),
     EXIT_DATA, "score_delta must be positive, got -5"),
    ("train-zero-delta", lambda t, a: _train_delta(t, a, "0"),
     EXIT_DATA, "score_delta must be positive, got 0"),
    ("score-scorer-no-unigram-counts",
     lambda t, a: _broken_scorer(t, a, lambda p: p.pop("unigram_counts")),
     EXIT_DATA, "missing key 'unigram_counts'"),
    ("score-scorer-bad-version",
     lambda t, a: _broken_scorer(t, a, lambda p: p.update(format_version=99)),
     EXIT_DATA, "format version"),
    ("score-scorer-bad-theta-shape",
     lambda t, a: _broken_scorer(t, a, lambda p: p.update(theta=[1.0, 2.0])),
     EXIT_DATA, "theta must have shape"),
    ("score-scorer-not-json", _not_json_scorer, EXIT_DATA, "not JSON"),
    ("score-scorer-string-theta",
     lambda t, a: _broken_scorer(t, a, lambda p: p.update(theta=["1", "2", "3"])),
     EXIT_DATA, "not a scorer: theta must be a list of numbers, got ['1', '2', '3']"),
    ("score-scorer-boolean-theta",
     lambda t, a: _broken_scorer(t, a, lambda p: p.update(theta=[True, False, True])),
     EXIT_DATA, "not a scorer: theta must be a list of numbers, got [True, False, True]"),
    ("score-scorer-theta-not-list",
     lambda t, a: _broken_scorer(t, a, lambda p: p.update(theta=2.0)),
     EXIT_DATA, "not a scorer: theta must be a list of numbers, got 2.0"),
    ("score-scorer-huge-integer-theta",
     lambda t, a: _broken_scorer(t, a, lambda p: p.update(theta=[10**400, 1, 1])),
     EXIT_DATA, "not a scorer: int too large to convert to float"),
    ("score-scorer-theta-beyond-float",
     lambda t, a: _scorer_literal(t, a, lambda p: p.update(theta="LITERAL"),
                                  "[1e400, 1, 1]"),
     EXIT_NUMERIC, "metric 'prism': non-finite score for ('sys1', 'seg000')"),
    ("score-scorer-counts-as-pairs",
     lambda t, a: _broken_scorer(
         t, a, lambda p: p.update(unigram_counts=list(p["unigram_counts"].items()))),
     EXIT_DATA, "not a scorer: unigram_counts must be an object, got list"),
    ("score-scorer-bad-bigram",
     lambda t, a: _broken_scorer(t, a, lambda p: p["bigrams"].append(["ein", 3])),
     EXIT_DATA, "bigram is not a pair of strings: ['ein', 3]"),
    ("score-scorer-bigrams-object",
     lambda t, a: _broken_scorer(t, a, lambda p: p.update(bigrams={"a": 1})),
     EXIT_DATA, "not a scorer: bigrams must be a list, got dict"),
    ("score-scorer-bigram-unknown-token",
     lambda t, a: _broken_scorer(t, a, lambda p: p["bigrams"].append(["ein", "nosuch"])),
     EXIT_DATA, "not a scorer: bigram outside the vocabulary: ['ein', 'nosuch']"),
    ("score-scorer-bigram-unknown-previous",
     lambda t, a: _broken_scorer(t, a, lambda p: p["bigrams"].append(["nosuch", "ein"])),
     EXIT_DATA, "not a scorer: bigram outside the vocabulary: ['nosuch', 'ein']"),
    ("correlate-short-row",
     lambda t, a: _broken_scores(t, a, row=lambda r: r[:4]),
     EXIT_DATA, "expected 6 fields, got 4"),
    ("correlate-nan-value",
     lambda t, a: _broken_scores(t, a, row=lambda r: ["chrf"] + r[1:5] + ["nan"]),
     EXIT_DATA, "value is not a finite number"),
    ("correlate-duplicate-row",
     lambda t, a: _broken_scores(t, a, row=lambda r: r), EXIT_DATA, "duplicate score"),
    ("correlate-unknown-translation",
     lambda t, a: _broken_scores(t, a, row=lambda r: r[:3] + ["sysZ"] + r[4:]),
     EXIT_DATA, "is not in the corpus"),
    ("correlate-group-mismatch",
     lambda t, a: _broken_scores(t, a, row=lambda r: ["chrf", "zz-yy", "bogus"] + r[3:]),
     EXIT_DATA, "score for seg_id 'seg000' disagrees on group: ('zz-yy', 'bogus') vs "
     "('en-de', 'news')"),
    ("correlate-non-utf8",
     lambda t, a: _broken_scores(t, a, data=b"bleu\ten-de\tnews\tsys\xff\tx\t1.0\n"),
     EXIT_DATA, "not valid UTF-8"),
    ("robustness-nan-theta", _nan_robustness, EXIT_NUMERIC,
     "non-finite score for ('sys1', 'seg000')"),
    ("rankings-negative-holdout",
     lambda t, a: _flags(t, a, "rankings", "--holdout", -1),
     EXIT_USAGE, "holdout must be at least 0, got -1"),
    ("rankings-negative-threshold",
     lambda t, a: _flags(t, a, "rankings", "--threshold", -1),
     EXIT_USAGE, "threshold must be at least 0, got -1.0"),
    ("train-negative-learning-rate",
     lambda t, a: _flags(t, a, "train", "--learning-rate", -1),
     EXIT_USAGE, "learning_rate must be finite and nonnegative, got -1.0"),
    ("train-nan-epsilon",
     lambda t, a: _flags(t, a, "train", "--epsilon", "nan"),
     EXIT_USAGE, "epsilon must be finite and nonnegative, got nan"),
    ("score-repeated-metric",
     lambda t, a: _flags(t, a, "score", "--metrics", "bleu,chrf,bleu"),
     EXIT_USAGE, "metric given more than once: bleu"),
    ("robustness-repeated-metric",
     lambda t, a: _flags(t, a, "robustness", "--metrics", "chrf,chrf"),
     EXIT_USAGE, "metric given more than once: chrf"),
    ("score-empty-metric",
     lambda t, a: _flags(t, a, "score", "--metrics", "bleu,,chrf"),
     EXIT_USAGE, "metrics has an empty entry (number 2) in 'bleu,,chrf'"),
    ("score-trailing-comma-metric",
     lambda t, a: _flags(t, a, "score", "--metrics", "bleu,"),
     EXIT_USAGE, "metrics has an empty entry (number 2) in 'bleu,'"),
    ("robustness-comma-metric",
     lambda t, a: _flags(t, a, "robustness", "--metrics", ","),
     EXIT_USAGE, "metrics has an empty entry (number 1) in ','"),
    ("robustness-zero-resamples",
     lambda t, a: _flags(t, a, "robustness", "--resamples", 0),
     EXIT_USAGE, "resamples must be at least 1, got 0"),
    ("config-negative-alpha-level",
     lambda t, a: _config(t, a, "robustness", {"alpha_level": -1}),
     EXIT_USAGE, "alpha_level must be between 0 and 1, got -1.0"),
    ("config-string-boolean",
     lambda t, a: _config(t, a, "rankings", {"include_human": "false"}),
     EXIT_USAGE, "include_human must be true or false"),
    ("config-misspelt-weight",
     lambda t, a: _config(t, a, "rankings", {"severity_weights": {"majr": 50}}),
     EXIT_USAGE, "majr"),
    ("config-weights-not-object",
     lambda t, a: _config(t, a, "rankings", {"severity_weights": [1, 2]}),
     EXIT_USAGE, "bad severity_weights [1, 2]"),
    ("config-unknown-key",
     lambda t, a: _config(t, a, "rankings", {"sede": 3}), EXIT_USAGE, "sede"),
    ("config-metrics-number",
     lambda t, a: _config(t, a, "score", {"metrics": 3}),
     EXIT_USAGE, "metrics must be a string or a list of strings, got 3"),
    ("config-metrics-object",
     lambda t, a: _config(t, a, "score", {"metrics": {"bleu": 1}}),
     EXIT_USAGE, "metrics must be a string or a list of strings, got {'bleu': 1}"),
    ("config-epochs-not-number",
     lambda t, a: _config(t, a, "train", {"epochs": "two"}),
     EXIT_USAGE, "epochs must be a number"),
    ("config-infinite-epochs",
     lambda t, a: _config(t, a, "train", {"epochs": math.inf}),
     EXIT_USAGE, "epochs must be finite, got inf"),
    ("config-boolean-epochs",
     lambda t, a: _config(t, a, "train", {"epochs": True}),
     EXIT_USAGE, "epochs must be a number, got True"),
    ("config-huge-integer-threshold",
     lambda t, a: _config(t, a, "rankings", {"threshold": 10**400}),
     EXIT_USAGE, "threshold must be finite, got inf"),
    ("rankings-infinite-threshold",
     lambda t, a: _flags(t, a, "rankings", "--threshold", "inf"),
     EXIT_USAGE, "threshold must be finite, got inf"),
    ("config-scorer-not-path",
     lambda t, a: _config(t, a, "score", {"scorer": 0}),
     EXIT_USAGE, "scorer must be a path, got 0"),
    ("config-nan-severity-weight",
     lambda t, a: _config(t, a, "rankings", {"severity_weights": {"major": math.nan}}),
     EXIT_USAGE, "major must be finite and nonnegative, got nan"),
    ("config-key-of-another-command",
     lambda t, a: _config(t, a, "correlate", {"resamples": 0}),
     EXIT_USAGE, "resamples must be at least 1, got 0"),
    ("score-seed",
     lambda t, a: _flags(t, a, "score", "--seed", 7),
     EXIT_USAGE, "unrecognized arguments: --seed 7"),
    ("correlate-seed",
     lambda t, a: _flags(t, a, "correlate", "--scores", a["scores"], "--seed", 3),
     EXIT_USAGE, "unrecognized arguments: --seed 3"),
    ("ingest-seed",
     lambda t, a: (_ingest(t, "--seed", 99)[0], None),
     EXIT_USAGE, "unrecognized arguments: --seed 99"),
    ("score-scorer-string-lowercase",
     lambda t, a: _broken_scorer(t, a, lambda p: p.update(lowercase="no")),
     EXIT_DATA, "lowercase must be true or false, got 'no'"),
    ("score-scorer-negative-count", lambda t, a: _scorer_count(t, a, "-5"),
     EXIT_DATA, "unigram count of 'ein' must be an integer from 0 to 2**53, got -5"),
    ("score-scorer-infinite-count", lambda t, a: _scorer_count(t, a, "1e400"),
     EXIT_DATA, "unigram count of 'ein' must be an integer from 0 to 2**53, got inf"),
    ("score-scorer-huge-count",
     lambda t, a: _scorer_count(t, a, "100000000000000000000"),
     EXIT_DATA, "must be an integer from 0 to 2**53, got 100000000000000000000"),
    ("score-scorer-5000-digit-count", lambda t, a: _scorer_count(t, a, "9" * 5000),
     EXIT_DATA, "not JSON: Exceeds the limit (4300 digits)"),
    ("score-scorer-fractional-count", lambda t, a: _scorer_count(t, a, "2.5"),
     EXIT_DATA, "unigram count of 'ein' must be an integer from 0 to 2**53, got 2.5"),
    ("score-scorer-boolean-count", lambda t, a: _scorer_count(t, a, "true"),
     EXIT_DATA, "unigram count of 'ein' must be an integer from 0 to 2**53, got True"),
    ("score-scorer-vocabulary-disagrees",
     lambda t, a: _broken_scorer(t, a, lambda p: p["vocabulary"].remove("ein")),
     EXIT_DATA, "vocabulary is not the unigram_counts tokens plus '</s>' and '<unk>'"),
    ("score-scorer-feature-names-disagree",
     lambda t, a: _broken_scorer(t, a, lambda p: p["feature_names"].reverse()),
     EXIT_DATA, "feature_names must be ['copy_from_context', 'log2_unigram_prob', "
     "'bigram_seen'], got ['bigram_seen', 'log2_unigram_prob', 'copy_from_context']"),
    ("score-scorer-boolean-version",
     lambda t, a: _broken_scorer(t, a, lambda p: p.update(format_version=True)),
     EXIT_DATA, "not a scorer: unsupported scorer format version: True"),
    ("score-scorer-fractional-version",
     lambda t, a: _broken_scorer(t, a, lambda p: p.update(format_version=1.0)),
     EXIT_DATA, "not a scorer: unsupported scorer format version: 1.0"),
    ("score-scorer-string-version",
     lambda t, a: _broken_scorer(t, a, lambda p: p.update(format_version="1")),
     EXIT_DATA, "not a scorer: unsupported scorer format version: '1'"),
    ("score-scorer-unknown-key",
     lambda t, a: _broken_scorer(t, a, lambda p: p.update(extra=1)),
     EXIT_DATA, "not a scorer: unknown key(s): 'extra'"),
    ("score-scorer-unknown-keys",
     lambda t, a: _broken_scorer(t, a, lambda p: p.update(theta2=[], Theta=[])),
     EXIT_DATA, "not a scorer: unknown key(s): 'Theta', 'theta2'"),
    ("score-scorer-no-lowercase",
     lambda t, a: _broken_scorer(t, a, lambda p: p.pop("lowercase")),
     EXIT_DATA, "missing key 'lowercase'"),
    # sums of finite values beyond the float range: means on a power-of-two
    # scale, and a loss or magnitude that is not finite refused before writing
    ("train-overflowing-logprob-sum",
     lambda t, a: _flags(t, a, "train", "--learning-rate", 1e307, "--epochs", 2),
     EXIT_NUMERIC, "non-finite loss at step 1 (epoch 0, lang_pair en-de)"),
    ("train-overflowing-mean-term",
     lambda t, a: _flags(t, a, "train", "--learning-rate", 6e306, "--epochs", 2),
     EXIT_NUMERIC, "non-finite loss at step 1 (epoch 0, lang_pair en-de)"),
    ("train-non-finite-score-magnitude",
     lambda t, a: _flags(t, a, "train", "--learning-rate", 1e308,
                         "--batch-size", 100000),
     EXIT_NUMERIC, "non-finite score magnitude of the trained scorer"),
    ("score-scorer-extreme-theta", lambda t, a: _extreme_scorer(t, a, "score"),
     EXIT_OK, "metrics=2 scored_segments=80"),
    ("robustness-scorer-extreme-theta",
     lambda t, a: _extreme_scorer(t, a, "robustness", "--resamples", 50),
     EXIT_OK, "system-level pairwise accuracy"),
    ("correlate-huge-scores", _huge_scores, EXIT_OK, "contexts=1 metrics=1"),
    ("correlate-huge-severity-weights",
     lambda t, a: _huge_weights(t, a, "correlate", "--scores", a["scores"]),
     EXIT_OK, "contexts=1 metrics=1"),
    ("robustness-huge-severity-weights",
     lambda t, a: _huge_weights(t, a, "robustness", "--resamples", 50),
     EXIT_OK, "system-level pairwise accuracy"),
]


@pytest.mark.parametrize(
    "make, expected, message",
    [row[1:] for row in MALFORMED],
    ids=[row[0] for row in MALFORMED],
)
def test_malformed_artefact_exit_code_and_location(
    artefacts, tmp_path, capsys, make, expected, message
):
    argv, where = make(tmp_path, artefacts)
    code = run(*argv)
    captured = capsys.readouterr()
    err = captured.err
    assert code == expected, err
    assert message in (captured.out if expected == EXIT_OK else err)
    if where is not None:
        assert where in err
    assert "Traceback" not in err and "Warning" not in err
    out = Path(argv[argv.index("--out") + 1])
    if expected == EXIT_OK:
        assert not err
    elif expected == EXIT_USAGE:  # settings are checked before --out is made
        assert not out.exists()
    else:  # a failed command writes nothing
        assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["score", "robustness"])
@pytest.mark.parametrize(
    "theta",
    [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0, -math.inf)],
    ids=repr,
)
def test_non_finite_theta_exits_numeric_naming_scorer_and_unit(
    artefacts, tmp_path, capsys, command, theta
):
    payload = json.loads(artefacts["scorer"].read_text(encoding="utf-8"))
    payload["theta"] = list(theta)
    scorer = tmp_path / "scorer.json"
    scorer.write_text(json.dumps(payload), encoding="utf-8")
    argv = [command, "--corpus", artefacts["bundle"], "--out", tmp_path / "out",
            "--metrics", "bleu,prism", "--scorer", scorer]
    if command == "robustness":
        argv += ["--seed", 1, "--resamples", 5]
    code = run(*argv)
    err = capsys.readouterr().err
    assert code == EXIT_NUMERIC, err
    assert f"{scorer}: metric 'prism': non-finite score for ('sys1', 'seg000')" in err
    assert "Traceback" not in err


def test_train_exits_numeric_when_scores_overflow(artefacts, tmp_path, capsys):
    # train starts from theta = 0; one step this large leaves a weight near
    # 1e308, whose products with the features overflow
    code = run("train", "--corpus", artefacts["bundle"], "--rankings",
               artefacts["rankings"], "--seed", 1, "--learning-rate", 1e308,
               "--out", tmp_path / "out")
    err = capsys.readouterr().err
    assert code == EXIT_NUMERIC, err
    assert "non-finite loss at step 1" in err
    assert "Traceback" not in err and "Warning" not in err


# setting -> the command that reads it; seed has no lower bound
SETTING_COMMANDS = {"seed": "rankings", "threshold": "rankings", "holdout": "rankings",
                    "epochs": "train", "batch_size": "train", "resamples": "robustness"}
SETTING_CASES = [
    (name, value)
    for name in SETTING_COMMANDS
    for value in (-1, 1.9, "two", math.inf)
    if not (value == -1 and name == "seed" or value == 1.9 and name == "threshold")
]


@pytest.mark.parametrize(
    "name, value", SETTING_CASES, ids=[f"{n}={v}" for n, v in SETTING_CASES]
)
def test_flag_and_config_key_fail_alike(artefacts, tmp_path, capsys, name, value):
    command = SETTING_COMMANDS[name]
    argv = [command, "--corpus", artefacts["bundle"]]
    if command == "train":
        argv += ["--rankings", artefacts["rankings"]]
    if name != "seed":
        argv += ["--seed", 1]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({name: value}), encoding="utf-8")
    results = []
    for route, setting in (("flag", [f"--{name.replace('_', '-')}", value]),
                           ("config", ["--config", config])):
        out = tmp_path / route
        code = run(*argv, *setting, "--out", out)
        err = capsys.readouterr().err
        assert f"error: {name} must be " in err
        assert "Traceback" not in err
        assert not out.exists()
        results.append((code, err))
    assert results[0] == results[1]
    assert results[0][0] == EXIT_USAGE


def test_train_passes_only_the_given_settings(artefacts, tmp_path, monkeypatch):
    """TrainingConfig alone holds the training defaults."""
    import metricfit.cli as cli
    from metricfit.training import TrainingError

    given = {}

    def record(**kwargs):
        given.update(kwargs)
        raise TrainingError("recorded")

    monkeypatch.setattr(cli, "TrainingConfig", record)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"disable_ce": True, "lowercase": True}))
    assert run("train", "--config", config, "--corpus", artefacts["bundle"],
               "--rankings", artefacts["rankings"], "--seed", 4, "--epochs", 2,
               "--out", tmp_path / "model") == EXIT_USAGE
    assert given == {"seed": 4, "epochs": 2, "enable_ce": False}


def test_train_builds_and_records_a_lowercasing_scorer(artefacts, tmp_path):
    """The config's ``lowercase`` is the scorer's setting, kept in scorer.json."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lowercase": True}))
    for options, lowercase in (((), False), (("--config", config), True)):
        out = tmp_path / f"model-{lowercase}"
        assert run("train", *options, "--corpus", artefacts["bundle"],
                   "--rankings", artefacts["rankings"], "--seed", 4,
                   "--out", out) == EXIT_OK
        saved = json.loads((out / "scorer.json").read_text(encoding="utf-8"))
        assert saved["lowercase"] is lowercase


def test_quotes_round_trip_through_ingest_rankings_score(tmp_path):
    from metricfit.rankings import read_rankings

    segments, outputs, references, ratings = tiny_corpus_rows()
    segments[0][4] = 'the "cat" sat on the mat'
    outputs[0][5] = 'die "Katze" sass auf der Matte'
    references[0][4] = 'die Katze sass auf der "Matte"'
    bundle = ingest(tmp_path, (segments, outputs, references, ratings))
    assert 'the "cat" sat' in (bundle / "segments.tsv").read_text(encoding="utf-8")

    rankings_dir = tmp_path / "r"
    assert run("rankings", "--corpus", bundle, "--out", rankings_dir,
               "--seed", 1, "--holdout", 1) == EXIT_OK
    loaded = read_rankings(rankings_dir / "rankings.tsv")
    assert any(r.src == 'the "cat" sat on the mat' for r in loaded)
    assert any(r.ref == 'die Katze sass auf der "Matte"' for r in loaded)

    assert run("score", "--corpus", bundle, "--out", tmp_path / "s",
               "--metrics", "bleu,chrf") == EXIT_OK
    assert len((tmp_path / "s" / "scores.tsv").read_text().splitlines()) == 1 + 2 * 6


def test_crlf_corpus_ingests_to_identical_bundle(tmp_path):
    lf = write_corpus_files(tmp_path / "lf", *tiny_corpus_rows())
    crlf = write_corpus_files(tmp_path / "crlf", *tiny_corpus_rows())
    for path in (crlf.segments, crlf.system_outputs, crlf.references, crlf.ratings):
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    bundles = []
    for name, paths in (("lf-out", lf), ("crlf-out", crlf)):
        assert run("ingest", "--segments", paths.segments,
                   "--system-outputs", paths.system_outputs,
                   "--references", paths.references, "--ratings", paths.ratings,
                   "--out", tmp_path / name) == EXIT_OK
        bundles.append(tmp_path / name)
    names = sorted(p.name for p in bundles[0].iterdir())
    assert names == sorted(p.name for p in bundles[1].iterdir())
    for name in names:
        assert (bundles[0] / name).read_bytes() == (bundles[1] / name).read_bytes()


def test_benchmark_tracer_finds_every_traced_name():
    """The benchmark's tracer patches names in metricfit modules; a renamed or
    removed name must fail here rather than in a traced benchmark run."""
    root = Path(__file__).resolve().parent.parent
    script = (
        "import sys; sys.path[:0] = sys.argv[1:]; "
        "from tracer import Tracer; Tracer('t').install()"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, str(root / "src"), str(root / "perfbench")],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_benchmark_corpus_generator_matches_test_fixture():
    """The benchmark generates its corpora with a copy of
    robustness_corpus_rows; the copy must not drift from the fixture."""
    root = Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, str(root / "perfbench" / "corpus_gen.py"), "--self-check"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_no_command_loads_scipy(tmp_path):
    """tau-b is computed in-repo: importing the CLI and running each command
    in one fresh interpreter never loads scipy. The pipeline corpus rather
    than ``tiny_corpus_rows`` is used because the tiny one leaves no
    training rankings and no comparable segments."""
    paths = write_corpus_files(tmp_path / "raw", *robustness_corpus_rows(4, 10, 3))
    commands = [
        ["ingest", "--segments", paths.segments, "--system-outputs",
         paths.system_outputs, "--references", paths.references,
         "--ratings", paths.ratings, "--out", tmp_path / "corpus"],
        ["rankings", "--corpus", tmp_path / "corpus", "--out", tmp_path / "rankings",
         "--seed", 11, "--holdout", 30],
        ["train", "--corpus", tmp_path / "corpus", "--rankings", tmp_path / "rankings",
         "--out", tmp_path / "model", "--seed", 1],
        ["score", "--corpus", tmp_path / "corpus", "--out", tmp_path / "scores",
         "--metrics", "bleu,chrf,prism", "--scorer", tmp_path / "model" / "scorer.json"],
        ["correlate", "--corpus", tmp_path / "corpus", "--scores",
         tmp_path / "scores" / "scores.tsv", "--out", tmp_path / "corr"],
        ["robustness", "--corpus", tmp_path / "corpus", "--out", tmp_path / "rob",
         "--seed", 2, "--metrics", "bleu,chrf", "--resamples", 20],
    ]
    script = (
        "import json, sys; sys.path.insert(0, sys.argv[1])\n"
        "from metricfit.cli import main\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        "for argv in json.loads(sys.argv[2]):\n"
        "    assert main(argv) == 0, argv[0]\n"
        "    assert 'scipy' not in sys.modules, argv[0]\n"
    )
    argv = json.dumps([[str(part) for part in command] for command in commands])
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", script, str(src), argv],
        capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
