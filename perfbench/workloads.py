"""The benchmark's workloads: corpus shape, untimed set-up and timed stages.

Sizes are chosen so that one pass over the timed stages takes a few seconds
on a 2-CPU machine, which lets a run of ``run_seconds`` repeat it several
times and report medians, while each workload keeps the property it was
chosen for (see README.md):

* ``fit``: training plus the toy scorer do almost all the work;
  meta-evaluation, chrF and BLEU do none.
* ``robustness``: meta-evaluation does most of the work and scores the same
  (hypothesis, reference) pairs many times; training does none.
* ``score-wide``: each pair is scored once, at a vocabulary of about 2.6k
  tokens, where the scorer's dense per-token rows dominate.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path

from corpus_gen import corpus_rows, write_corpus_tsvs

METRICS = "bleu,chrf,prism"
# Fixed, non-trivial weights (copy, log unigram, bigram) of the scorer that
# robustness and score-wide build in set-up; zero weights would make the
# scorer's softmax uniform.
SCORER_THETA = (2.0, 1.0, 1.0)
ROBUSTNESS_RESAMPLES = 250


@dataclass(frozen=True)
class Workload:
    name: str
    n_systems: int
    n_segments: int
    words_per_class: int
    setup_ingest: bool  # ingest in set-up; otherwise ingest is a timed stage
    build_scorer: bool
    stages: tuple[str, ...]
    rankings_args: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit", 6, 150, 30, setup_ingest=False, build_scorer=False,
                 stages=("ingest", "rankings", "train"),
                 rankings_args=("--holdout", "300")),
        Workload("robustness", 8, 50, 30, setup_ingest=True, build_scorer=True,
                 stages=("score", "correlate", "robustness")),
        Workload("score-wide", 8, 200, 1000, setup_ingest=False, build_scorer=True,
                 stages=("ingest", "rankings", "score", "correlate")),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Files made by set-up, read by the timed stages."""

    raw: Path  # the four generated TSVs
    bundle: Path | None  # ingested bundle, when ingest is part of set-up
    scorer: Path | None

    @classmethod
    def in_directory(cls, directory: Path, workload: Workload) -> "Inputs":
        return cls(
            raw=directory / "raw",
            bundle=directory / "bundle" if workload.setup_ingest else None,
            scorer=directory / "scorer.json" if workload.build_scorer else None,
        )


def quiet_cli(argv: list[str]) -> int:
    """Run one CLI command in-process, discarding what it prints to stdout."""
    from metricfit.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def ingest_argv(raw: Path, out: Path) -> list[str]:
    return [
        "ingest",
        "--segments", str(raw / "segments.tsv"),
        "--system-outputs", str(raw / "system_outputs.tsv"),
        "--references", str(raw / "references.tsv"),
        "--ratings", str(raw / "mqm_ratings.tsv"),
        "--out", str(out),
    ]


def set_up(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Generate the corpus and, per workload, ingest it and build the scorer."""
    from metricfit.corpus import CorpusPaths, load_corpus
    from metricfit.metrics import ToyScorer

    inputs = Inputs.in_directory(directory, workload)
    write_corpus_tsvs(
        inputs.raw,
        corpus_rows(workload.n_systems, workload.n_segments, seed,
                    workload.words_per_class),
    )
    if inputs.bundle is not None:
        code = quiet_cli(ingest_argv(inputs.raw, inputs.bundle))
        if code != 0:
            raise RuntimeError(f"set-up ingest exited {code}")
    if inputs.scorer is not None:
        eval_set = load_corpus(CorpusPaths.in_directory(inputs.raw))
        texts = [segment.source_text for segment in eval_set.segments.values()]
        texts += [ref.text for ref in eval_set.references.values()]
        texts += [tr.text for tr in eval_set.translations.values()]
        ToyScorer.from_texts(texts, theta=SCORER_THETA).save(inputs.scorer)
    return inputs


def stage_argv(
    workload: Workload, stage: str, inputs: Inputs, out: Path, seed: int
) -> list[str]:
    """Command line of one timed stage; every stage writes under ``out/<stage>``."""
    bundle = str(out / "ingest" if inputs.bundle is None else inputs.bundle)
    target = str(out / stage)
    if stage == "ingest":
        return ingest_argv(inputs.raw, out / "ingest")
    if stage == "rankings":
        return ["rankings", "--corpus", bundle, "--seed", str(seed),
                *workload.rankings_args, "--out", target]
    if stage == "train":
        return ["train", "--corpus", bundle, "--rankings", str(out / "rankings"),
                "--seed", str(seed), "--out", target]
    if stage == "score":
        return ["score", "--corpus", bundle, "--metrics", METRICS,
                "--scorer", str(inputs.scorer), "--out", target]
    if stage == "correlate":
        return ["correlate", "--corpus", bundle,
                "--scores", str(out / "score" / "scores.tsv"), "--out", target]
    if stage == "robustness":
        return ["robustness", "--corpus", bundle, "--metrics", METRICS,
                "--scorer", str(inputs.scorer), "--seed", str(seed),
                "--resamples", str(ROBUSTNESS_RESAMPLES), "--out", target]
    raise ValueError(f"unknown stage {stage!r}")
