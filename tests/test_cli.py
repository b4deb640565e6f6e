"""End-to-end tests for the command-line interface."""

import json
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
    import numpy as np

    from metricfit.metrics import ToyScorer

    bundle = ingest(tmp_path, tiny_corpus_rows())
    scorer = ToyScorer.from_texts(["ein text"])
    payload = scorer.to_dict()
    payload["theta"] = [float("nan"), 0.0, 0.0]
    poisoned = tmp_path / "poisoned.json"
    poisoned.write_text(json.dumps(payload))
    with np.errstate(invalid="ignore"):
        code = run("score", "--corpus", bundle, "--out", tmp_path / "s",
                   "--metrics", "prism", "--scorer", poisoned)
    assert code == EXIT_NUMERIC
    assert "non-finite score for ('sysA', 'seg1')" in capsys.readouterr().err


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


@pytest.fixture(scope="module")
def artefacts(tmp_path_factory):
    """A bundle, its rankings, a scorer, a NaN-theta scorer and bleu scores."""
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
    return {
        "bundle": bundle,
        "rankings": rankings,
        "scorer": tmp / "scorer.json",
        "nan_scorer": tmp / "nan-scorer.json",
        "scores": tmp / "scores" / "scores.tsv",
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


def _config(tmp, art, command, payload):
    config = tmp / "config.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    argv = [command, "--config", config, "--corpus", art["bundle"],
            "--out", tmp / "out", "--seed", 1]
    if command == "train":
        argv += ["--rankings", art["rankings"]]
    return argv, None


def _flags(tmp, art, command, *flags):
    argv = [command, "--corpus", art["bundle"], "--out", tmp / "out", "--seed", 1,
            *flags]
    if command == "train":
        argv += ["--rankings", art["rankings"]]
    return argv, None


def _non_utf8_segments(tmp, art):
    paths = write_corpus_files(tmp / "raw", *tiny_corpus_rows())
    data = paths.segments.read_bytes().replace(b"it rains", b"it r\xe4ins")
    paths.segments.write_bytes(data)
    argv = ["ingest", "--segments", paths.segments,
            "--system-outputs", paths.system_outputs,
            "--references", paths.references, "--ratings", paths.ratings,
            "--out", tmp / "bundle"]
    return argv, f"{paths.segments}:3:"


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
    return argv, None


# (id, make, exit code, message): make(tmp_path, artefacts) writes one broken
# input and returns the command line plus the "path:line:" that stderr must
# name (None where the problem has no file line).
MALFORMED = [
    ("ingest-non-utf8", _non_utf8_segments, EXIT_DATA, "not valid UTF-8"),
    ("train-4-field-row",
     lambda t, a: _broken_train(t, a, "en-de\tseg1\tann1\tsource\n"),
     EXIT_DATA, "expected 8 fields, got 4"),
    ("train-bad-delta",
     lambda t, a: _broken_train(t, a, "\t".join(["en-de", "seg1", "ann1", "s", "r",
                                                 "p", "m", "big"]) + "\n"),
     EXIT_DATA, "score_delta is not a finite number"),
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
    ("score-scorer-bad-bigram",
     lambda t, a: _broken_scorer(t, a, lambda p: p["bigrams"].append(["ein", 3])),
     EXIT_DATA, "bigram is not a pair of strings: ['ein', 3]"),
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
]


@pytest.mark.parametrize(
    "make, expected, message",
    [row[1:] for row in MALFORMED],
    ids=[row[0] for row in MALFORMED],
)
def test_malformed_artefact_exit_code_and_location(
    artefacts, tmp_path, capsys, make, expected, message
):
    import numpy as np

    argv, where = make(tmp_path, artefacts)
    with np.errstate(invalid="ignore"):
        code = run(*argv)
    err = capsys.readouterr().err
    assert code == expected, err
    assert message in err
    if where is not None:
        assert where in err
    assert "Traceback" not in err
    if expected == EXIT_USAGE:  # settings are checked before --out is made
        assert not Path(argv[argv.index("--out") + 1]).exists()


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
