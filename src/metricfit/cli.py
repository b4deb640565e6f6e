"""Command-line entry point for reproducible corpus-to-report runs.

Subcommands: ``ingest``, ``rankings``, ``train``, ``score``, ``correlate``,
``robustness``. Options can come from a JSON config file (``--config``);
explicit flags win over config values. Commands that involve randomness
require an explicit ``--seed`` and are byte-for-byte reproducible given the
same inputs and seed. Outputs are only ever written under ``--out``.

Exit codes: 0 success, 1 usage or validation error, 2 data error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import operator
import sys
from collections import defaultdict
from contextlib import suppress
from functools import partial, reduce
from pathlib import Path

from .artefacts import ArtefactError, read_json, write_json
from .corpus import (
    CorpusError,
    CorpusPaths,
    EvaluationSet,
    SeverityWeights,
    group_mismatch,
    load_corpus,
    write_corpus,
)
from .metaeval import (
    DEFAULT_ALPHA,
    DEFAULT_RESAMPLES,
    JudgmentTable,
    MetaEvalError,
    robustness_report,
    standard_reference_scores,
)
from .metrics import (
    BleuMetric,
    ChrfMetric,
    Metric,
    MetricScore,
    PrismMetric,
    ToyScorer,
    metric_score_rows,
    write_metric_scores,
)
from .rankings import (
    DEFAULT_HOLDOUT_SIZE,
    DEFAULT_THRESHOLD,
    RankingDataset,
    derive_rankings,
    read_rankings,
    split_holdout,
    write_rankings,
)
from .training import NumericError, TrainingConfig, TrainingError, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

KNOWN_METRICS = ("bleu", "chrf", "prism")


class UsageError(Exception):
    """Bad command line or configuration."""


class DataError(Exception):
    """Missing or unusable input artifact."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


# A converter maps a setting's name and its flag text or config value to the
# typed value, or raises UsageError("<name> must be ..."), which argparse lets
# through: a flag and its config key fail alike.


def _path(name: str, value) -> str:
    if not isinstance(value, str):
        raise UsageError(f"{name} must be a path, got {value!r}")
    return value


def _boolean(name: str, value) -> bool:
    if not isinstance(value, bool):
        raise UsageError(f"{name} must be true or false, got {value!r}")
    return value


def _number(kind: type, test=None, rule: str = ""):
    """Converter for an int or float setting: a JSON number or a string of
    one, never a boolean, and for an int never a fraction. With ``test`` the
    value must be finite and pass it; the training settings have no test,
    because ``TrainingConfig`` checks them."""

    def convert(name: str, value):
        number = value
        if isinstance(value, str):
            with suppress(ValueError):  # "1.9" stays a float, "two" a string
                number = float(value)
                number = int(value)
        if isinstance(number, bool) or not isinstance(number, (int, float)):
            raise UsageError(f"{name} must be a number, got {value!r}")
        if kind is int and isinstance(number, float):
            must = "an integer" if math.isfinite(number) else "finite"
            raise UsageError(f"{name} must be {must}, got {number!r}")
        if kind is float:
            try:
                number = float(number)
            except OverflowError:  # an integer beyond the float range
                number = math.inf
            if test is not None and not math.isfinite(number):
                raise UsageError(f"{name} must be finite, got {number!r}")
        if test is not None and not test(number):
            raise UsageError(f"{name} must be {rule}, got {number!r}")
        return number

    return convert


def _metrics(name: str, value) -> list[str]:
    if isinstance(value, str):
        names = [part.strip() for part in value.split(",")]
        if "" in names:
            raise UsageError(
                f"{name} has an empty entry (number {names.index('') + 1}) in {value!r}"
            )
    elif isinstance(value, list) and all(isinstance(item, str) for item in value):
        names = value
    else:
        raise UsageError(f"{name} must be a string or a list of strings, got {value!r}")
    unknown = [metric for metric in names if metric not in KNOWN_METRICS]
    if unknown:
        raise UsageError(
            f"unknown metric {unknown[0]!r}; known metrics: {', '.join(KNOWN_METRICS)}"
        )
    if not names:
        raise UsageError("empty metric list")
    repeated = sorted({metric for metric in names if names.count(metric) > 1})
    if repeated:
        raise UsageError(f"metric given more than once: {', '.join(repeated)}")
    return names


def _severity_weights(name: str, table) -> SeverityWeights:
    try:
        return SeverityWeights(**{
            key: _number(float)(f"{name}.{key}", value) for key, value in table.items()
        })
    except (AttributeError, TypeError, ValueError) as err:  # not an object, a bad key
        raise UsageError(f"bad {name} {table!r}: {err}") from None


# Settings that only a config file gives: name -> (converter, default).
_CONFIG_ONLY = {
    "alpha_level": (
        _number(float, lambda v: 0 < v < 1, "between 0 and 1"), DEFAULT_ALPHA
    ),
    "lowercase": (_boolean, False),
    "severity_weights": (_severity_weights, SeverityWeights()),
}


def _read_config(path: str, converters: dict) -> dict:
    """The settings of a config file, each through its converter."""
    config = read_json(path)  # missing or not JSON: a data error
    if not isinstance(config, dict):
        raise UsageError(f"config file {path} must contain a JSON object")
    unknown = sorted(set(config) - set(converters))
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")
    return {name: converters[name](name, value) for name, value in config.items()}


def _require(args, name: str):
    value = getattr(args, name)
    if value is None:
        raise UsageError(f"--{name.replace('_', '-')} is required")
    return value


def _out_dir(args) -> Path:
    out = Path(_require(args, "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_bundle(args) -> EvaluationSet:
    return load_corpus(CorpusPaths.in_directory(_require(args, "corpus")))


def _build_metrics(names: list[str], scorer_path: str | None) -> list[Metric]:
    if "prism" in names and scorer_path is None:
        raise DataError(
            "metric 'prism' requires a trained scorer: pass --scorer "
            "pointing at the scorer.json written by the train command"
        )
    build = {
        "bleu": BleuMetric,
        "chrf": ChrfMetric,
        "prism": lambda: PrismMetric(ToyScorer.load(scorer_path)),
    }
    return [build[name]() for name in names]


def cmd_ingest(args) -> int:
    paths = CorpusPaths(
        segments=Path(_require(args, "segments")),
        system_outputs=Path(_require(args, "system_outputs")),
        references=Path(_require(args, "references")),
        ratings=Path(_require(args, "ratings")),
    )
    out = _out_dir(args)
    eval_set = load_corpus(paths)
    write_corpus(eval_set, out)

    groups = []
    for lang_pair, domain in eval_set.group_keys():
        group = eval_set.subset(lang_pair, domain)
        annotated_pairs = {(r.system_id, r.seg_id) for r in group.ratings}
        groups.append(
            {
                "lang_pair": lang_pair,
                "domain": domain,
                "segments": len(group.segments),
                "systems": len(group.system_ids()),
                "human_systems": len(group.system_ids())
                - len(group.system_ids(include_human=False)),
                "references": len(group.references),
                "annotated_segments": len({seg for _, seg in annotated_pairs}),
                "annotated_system_translations": len(annotated_pairs),
                "ratings": len(group.ratings),
            }
        )
    summary = {
        "groups": groups,
        "totals": {
            "segments": len(eval_set.segments),
            "systems": len(eval_set.system_ids()),
            "references": len(eval_set.references),
            "ratings": len(eval_set.ratings),
        },
    }
    write_json(out / "summary.json", summary)
    for group in groups:
        print(
            f"{group['lang_pair']}/{group['domain']}: "
            f"segments={group['segments']} systems={group['systems']} "
            f"annotated_segments={group['annotated_segments']} "
            f"annotated_system_translations={group['annotated_system_translations']}"
        )
    return EXIT_OK


def cmd_rankings(args) -> int:
    eval_set = _load_bundle(args)
    if not eval_set.segments:
        raise DataError("corpus is empty: no segments")
    seed = _require(args, "seed")
    out = _out_dir(args)

    derivation = derive_rankings(
        eval_set, threshold=args.threshold, weights=args.severity_weights,
        include_human=args.include_human,
    )
    if not derivation.rankings:
        print("warning: no relative rankings derived", file=sys.stderr)

    by_lang_pair: dict[str, list] = defaultdict(list)
    for ranking in derivation.rankings:
        by_lang_pair[ranking.lang_pair].append(ranking)

    train_split = []
    validation_split = []
    per_lang_pair = {}
    for lang_pair in sorted(by_lang_pair):
        dataset = split_holdout(
            by_lang_pair[lang_pair], holdout_size=args.holdout, seed=seed
        )
        train_split.extend(dataset.train)
        validation_split.extend(dataset.validation)
        per_lang_pair[lang_pair] = {
            "rankings": len(by_lang_pair[lang_pair]),
            "train": len(dataset.train),
            "validation": len(dataset.validation),
        }

    write_rankings(derivation.rankings, out / "rankings.tsv")
    write_rankings(train_split, out / "train.tsv")
    write_rankings(validation_split, out / "validation.tsv")
    write_json(
        out / "manifest.json",
        {
            "threshold": args.threshold,
            "holdout_size": args.holdout,
            "seed": seed,
            "include_human": args.include_human,
            "rankings": len(derivation.rankings),
            "train": len(train_split),
            "validation": len(validation_split),
            "skipped_segments": list(derivation.skipped_segments),
            "by_lang_pair": per_lang_pair,
        },
    )
    print(
        f"rankings={len(derivation.rankings)} train={len(train_split)} "
        f"validation={len(validation_split)} "
        f"skipped_segments={len(derivation.skipped_segments)}"
    )
    return EXIT_OK


def _scorer_training_texts(eval_set: EvaluationSet) -> list[str]:
    texts = [segment.source_text for segment in eval_set.segments.values()]
    texts.extend(ref.text for ref in eval_set.references.values())
    texts.extend(tr.text for tr in eval_set.translations.values())
    return texts


def cmd_train(args) -> int:
    eval_set = _load_bundle(args)
    seed = _require(args, "seed")
    rankings_dir = Path(_require(args, "rankings"))
    names = ("epsilon", "alpha", "learning_rate", "epochs", "batch_size")
    given = {  # only what was given: TrainingConfig holds defaults and checks
        name: getattr(args, name) for name in names if getattr(args, name) is not None
    }
    for term in ("ce", "forward", "backward"):
        if getattr(args, f"disable_{term}") is not None:
            given[f"enable_{term}"] = not getattr(args, f"disable_{term}")
    training_config = TrainingConfig(seed=seed, **given)
    out = _out_dir(args)

    train_path = rankings_dir / "train.tsv"
    validation_path = rankings_dir / "validation.tsv"
    train_by_lp: dict[str, list] = defaultdict(list)
    for ranking in read_rankings(train_path):
        train_by_lp[ranking.lang_pair].append(ranking)
    validation_by_lp: dict[str, list] = defaultdict(list)
    for ranking in read_rankings(validation_path):
        validation_by_lp[ranking.lang_pair].append(ranking)
    if not train_by_lp:
        raise DataError(f"no training rankings in {train_path}")

    datasets = {
        lang_pair: RankingDataset(
            train=tuple(train_by_lp.get(lang_pair, ())),
            validation=tuple(validation_by_lp.get(lang_pair, ())),
        )
        for lang_pair in sorted(set(train_by_lp) | set(validation_by_lp))
    }

    texts = _scorer_training_texts(eval_set)
    scorer = ToyScorer.from_texts(texts, lowercase=args.lowercase)
    trained, report = train(scorer, datasets, corpus=eval_set, config=training_config)
    trained.save(out / "scorer.json")
    write_json(out / "training_report.json", report.to_dict())
    last_validation = report.validation[-1] if report.validation else None
    forward = last_validation.forward_accuracy if last_validation else None
    print(
        f"steps={len(report.steps)} "
        f"validation_forward_accuracy={forward} "
        f"score_magnitude={report.final_score_magnitude}"
    )
    return EXIT_OK


def cmd_score(args) -> int:
    eval_set = _load_bundle(args)
    metrics = _build_metrics(args.metrics, args.scorer)
    out = _out_dir(args)

    scores = [
        MetricScore(metric.metric_id, system_id, seg_id, value)
        for metric in metrics
        for (system_id, seg_id), value in standard_reference_scores(
            eval_set, metric
        ).items()
    ]
    write_metric_scores(scores, eval_set, out / "scores.tsv")
    print(f"metrics={len(metrics)} scored_segments={len(scores)}")
    return EXIT_OK


def _mean(values: list[float] | None) -> float | None:
    # left to right from 0.0, not fsum (correlations.json keeps the bytes it
    # always had) nor sum(), which compensates from Python 3.12 on
    return reduce(operator.add, values, 0.0) / len(values) if values else None


def cmd_correlate(args) -> int:
    eval_set = _load_bundle(args)
    scores_path = Path(_require(args, "scores"))
    out = _out_dir(args)
    all_scores = []
    for line, group, score in metric_score_rows(scores_path):
        if (score.system_id, score.seg_id) not in eval_set.translations:
            raise ArtefactError(scores_path, line, f"{score} is not in the corpus")
        segment = eval_set.segments[score.seg_id]
        if group != (segment.lang_pair, segment.domain):
            raise ArtefactError(scores_path, line, group_mismatch(
                "score", score.seg_id, group, (segment.lang_pair, segment.domain)
            ))
        all_scores.append(score)

    contexts = []
    per_metric_taus: dict[str, list[float]] = defaultdict(list)
    per_metric_accuracies: dict[str, list[float]] = defaultdict(list)
    for lang_pair, domain in eval_set.group_keys():
        group = eval_set.subset(lang_pair, domain)
        group_seg_ids = set(group.segments)
        table = JudgmentTable.build(
            group,
            [s for s in all_scores if s.seg_id in group_seg_ids],
            args.severity_weights,
        )
        metrics_result = {}
        for metric_id in sorted(table.metrics):
            tau = table.segment_tau(metric_id)
            accuracy = table.system_pairwise_accuracy(metric_id)
            metrics_result[metric_id] = {
                "segment_tau": tau,
                "pairwise_accuracy": accuracy,
                "units": len(table.units(metric_id)),
            }
            if tau is not None:
                per_metric_taus[metric_id].append(tau)
            if accuracy is not None:
                per_metric_accuracies[metric_id].append(accuracy)
        contexts.append(
            {"lang_pair": lang_pair, "domain": domain, "metrics": metrics_result}
        )

    averages = {
        metric_id: {
            "segment_tau": _mean(per_metric_taus.get(metric_id)),
            "pairwise_accuracy": _mean(per_metric_accuracies.get(metric_id)),
        }
        for metric_id in sorted(set(per_metric_taus) | set(per_metric_accuracies))
    }
    write_json(
        out / "correlations.json", {"contexts": contexts, "averages": averages}
    )
    print(f"contexts={len(contexts)} metrics={len(averages)}")
    return EXIT_OK


def cmd_robustness(args) -> int:
    eval_set = _load_bundle(args)
    seed = _require(args, "seed")
    metrics = _build_metrics(args.metrics, args.scorer)
    out = _out_dir(args)

    report = robustness_report(
        eval_set,
        metrics,
        seed=seed,
        weights=args.severity_weights,
        n_resamples=args.resamples,
        alpha=args.alpha_level,
    )
    write_json(out / "robustness.json", report.to_dict())
    table = report.format_table()
    (out / "robustness.txt").write_text(table, encoding="utf-8")
    print(table, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser. ``parser.converters`` maps every config key to its
    converter, and ``parser.commands`` every subcommand to its parser."""
    parser = _ArgumentParser(
        prog="metricfit",
        description=(
            "Train a sequence-scoring MT metric on pairwise human rankings and "
            "meta-evaluate metrics against MQM judgments, including robustness "
            "to machine-translated references."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    parser.converters = {name: convert for name, (convert, _) in _CONFIG_ONLY.items()}
    parser.commands = {}

    def setting(sub, flag: str, convert, **kwargs):
        name = flag[2:].replace("-", "_")
        parser.converters[name] = convert
        if "action" not in kwargs:  # the flag takes a value
            kwargs["type"] = partial(convert, name)
        sub.add_argument(flag, dest=name, **kwargs)

    def command(name: str, func, summary: str):
        sub = subparsers.add_parser(name, help=summary)
        sub.set_defaults(
            func=func, **{key: default for key, (_, default) in _CONFIG_ONLY.items()}
        )
        parser.commands[name] = sub
        sub.add_argument("--config", help="JSON config file; flags override it")
        setting(sub, "--out", _path, help="output directory")
        return sub

    def seed_option(sub):
        setting(sub, "--seed", _number(int), help="random seed (explicit, no default)")

    def corpus_command(name: str, func, summary: str):
        sub = command(name, func, summary)
        setting(sub, "--corpus", _path, help="ingested corpus bundle directory")
        return sub

    def metric_options(sub):
        setting(sub, "--metrics", _metrics, default="bleu,chrf",
                help="comma-separated metric ids")
        setting(sub, "--scorer", _path, help="scorer.json for the prism metric")

    ingest = command("ingest", cmd_ingest, "validate and bundle a corpus")
    setting(ingest, "--segments", _path, help="segments.tsv")
    setting(ingest, "--system-outputs", _path, help="system_outputs.tsv")
    setting(ingest, "--references", _path, help="references.tsv")
    setting(ingest, "--ratings", _path, help="mqm_ratings.tsv")

    rankings = corpus_command("rankings", cmd_rankings,
                              "derive relative rankings and split off a validation set")
    seed_option(rankings)
    setting(rankings, "--threshold", _number(float, lambda v: v >= 0, "at least 0"),
            default=DEFAULT_THRESHOLD, help="minimum penalty difference (strict)")
    setting(rankings, "--holdout", _number(int, lambda v: v >= 0, "at least 0"),
            default=DEFAULT_HOLDOUT_SIZE, help="validation rankings per language pair")
    setting(rankings, "--include-human", _boolean, default=True,
            action=argparse.BooleanOptionalAction,
            help="pair human translations too (default: yes)")

    train_cmd = corpus_command("train", cmd_train, "fine-tune the toy scorer")
    seed_option(train_cmd)
    setting(train_cmd, "--rankings", _path, help="rankings artifact directory")
    setting(train_cmd, "--epsilon", _number(float), help="ranking margin")
    setting(train_cmd, "--alpha", _number(float), help="cross-entropy weight")
    setting(train_cmd, "--learning-rate", _number(float))
    setting(train_cmd, "--epochs", _number(int))
    setting(train_cmd, "--batch-size", _number(int))
    for term, label in (("ce", "cross-entropy"), ("forward", "forward ranking"),
                        ("backward", "backward ranking")):
        setting(train_cmd, f"--disable-{term}", _boolean, action="store_const",
                const=True, help=f"ablation: drop the {label} term")

    score = corpus_command("score", cmd_score,
                           "score system translations under standard references")
    metric_options(score)

    correlate = corpus_command("correlate", cmd_correlate,
                               "correlate metric scores with human judgments")
    setting(correlate, "--scores", _path, help="scores.tsv from the score command")

    robustness = corpus_command("robustness", cmd_robustness, "compare metrics under "
                                "standard vs machine-translated references")
    seed_option(robustness)
    metric_options(robustness)
    setting(robustness, "--resamples", _number(int, lambda v: v >= 1, "at least 1"),
            default=DEFAULT_RESAMPLES, help="perm-both resamples per metric pair")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:  # config values become defaults; flags win
            config = _read_config(args.config, parser.converters)
            parser.commands[args.command].set_defaults(**config)
            args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except FloatingPointError as err:  # a non-finite score: only a scorer yields one
        print(f"numeric failure: {args.scorer}: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except TrainingError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ArtefactError, CorpusError, MetaEvalError, DataError, OSError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
