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
import sys
from collections import defaultdict
from pathlib import Path

from .artefacts import ArtefactError, read_json, write_json
from .corpus import (
    CorpusError,
    CorpusPaths,
    EvaluationSet,
    SeverityWeights,
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

# Every key some subcommand reads from a config file.
CONFIG_KEYS = frozenset({
    "alpha", "alpha_level", "batch_size", "corpus", "disable_backward",
    "disable_ce", "disable_forward", "epochs", "epsilon", "holdout",
    "include_human", "learning_rate", "lowercase", "metrics", "out", "ratings",
    "rankings", "references", "resamples", "scorer", "scores", "seed",
    "segments", "severity_weights", "system_outputs", "threshold",
})


class UsageError(Exception):
    """Bad command line or configuration."""


class DataError(Exception):
    """Missing or unusable input artifact."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


def _load_config(args) -> dict:
    if getattr(args, "config", None) is None:
        return {}
    config = read_json(args.config)  # missing or not JSON: a data error
    if not isinstance(config, dict):
        raise UsageError(f"config file {args.config} must contain a JSON object")
    unknown = sorted(set(config) - CONFIG_KEYS)
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")
    return config


def _setting(args, config: dict, name: str, default=None):
    """Flag value if given, else config value, else default, typed like a
    bool, int or float default: a config boolean must be true or false."""
    value = getattr(args, name, None)
    if value is None:
        value = config.get(name)
    if value is None:
        return default
    kind = type(default)
    if kind is bool and not isinstance(value, bool):
        raise UsageError(f"{name} must be true or false, got {value!r}")
    if kind in (bool, int, float):
        try:
            return kind(value)
        except (TypeError, ValueError):
            raise UsageError(f"{name} must be a number, got {value!r}") from None
    return value


def _require(args, config: dict, name: str) -> str:
    value = _setting(args, config, name)
    if value is None:
        raise UsageError(f"--{name.replace('_', '-')} is required")
    if not isinstance(value, str):
        raise UsageError(f"{name} must be a path, got {value!r}")
    return value


def _require_seed(args, config: dict) -> int:
    if _setting(args, config, "seed") is None:
        raise UsageError("--seed is required for this command (no implicit default)")
    return _setting(args, config, "seed", 0)  # the 0 is never used; it makes seed an int


def _out_dir(args, config: dict) -> Path:
    out = Path(_require(args, config, "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _severity_weights(config: dict) -> SeverityWeights:
    table = config.get("severity_weights", {})
    try:
        return SeverityWeights(**{key: float(value) for key, value in table.items()})
    except (AttributeError, TypeError, ValueError) as err:  # not an object of numbers
        raise UsageError(f"bad severity_weights {table!r}: {err}") from None


def _load_bundle(args, config: dict) -> EvaluationSet:
    return load_corpus(CorpusPaths.in_directory(_require(args, config, "corpus")))


def _build_metrics(names, scorer_path) -> list[Metric]:
    metrics: list[Metric] = []
    for name in names:
        if name == "bleu":
            metrics.append(BleuMetric())
        elif name == "chrf":
            metrics.append(ChrfMetric())
        elif name == "prism":
            if scorer_path is None:
                raise DataError(
                    "metric 'prism' requires a trained scorer: pass --scorer "
                    "pointing at the scorer.json written by the train command"
                )
            metrics.append(PrismMetric(ToyScorer.load(scorer_path)))
        else:
            raise UsageError(
                f"unknown metric {name!r}; known metrics: {', '.join(KNOWN_METRICS)}"
            )
    if not metrics:
        raise UsageError("empty metric list")
    return metrics


def _metric_names(args, config: dict) -> list[str]:
    value = _setting(args, config, "metrics", "bleu,chrf")
    if isinstance(value, str):
        names = [name.strip() for name in value.split(",") if name.strip()]
    elif isinstance(value, list) and all(isinstance(name, str) for name in value):
        names = value
    else:
        raise UsageError(f"metrics must be a string or a list of strings, got {value!r}")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise UsageError(f"metric given more than once: {', '.join(repeated)}")
    return names


def cmd_ingest(args) -> int:
    config = _load_config(args)
    paths = CorpusPaths(
        segments=Path(_require(args, config, "segments")),
        system_outputs=Path(_require(args, config, "system_outputs")),
        references=Path(_require(args, config, "references")),
        ratings=Path(_require(args, config, "ratings")),
    )
    out = _out_dir(args, config)
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
    config = _load_config(args)
    eval_set = _load_bundle(args, config)
    if not eval_set.segments:
        raise DataError("corpus is empty: no segments")
    seed = _require_seed(args, config)
    threshold = _setting(args, config, "threshold", DEFAULT_THRESHOLD)
    if not threshold >= 0:  # NaN fails too
        raise UsageError(f"threshold must be at least 0, got {threshold!r}")
    holdout = _setting(args, config, "holdout", DEFAULT_HOLDOUT_SIZE)
    if holdout < 0:
        raise UsageError(f"holdout must be at least 0, got {holdout!r}")
    include_human = _setting(args, config, "include_human", True)
    weights = _severity_weights(config)
    out = _out_dir(args, config)

    derivation = derive_rankings(
        eval_set, threshold=threshold, weights=weights, include_human=include_human
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
            by_lang_pair[lang_pair], holdout_size=holdout, seed=seed,
            threshold=threshold,
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
            "threshold": threshold,
            "holdout_size": holdout,
            "seed": seed,
            "include_human": include_human,
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
    config = _load_config(args)
    eval_set = _load_bundle(args, config)
    seed = _require_seed(args, config)
    rankings_dir = Path(_require(args, config, "rankings"))
    training_config = TrainingConfig(
        epsilon=_setting(args, config, "epsilon", 0.1),
        alpha=_setting(args, config, "alpha", 0.1),
        learning_rate=_setting(args, config, "learning_rate", 1e-4),
        epochs=_setting(args, config, "epochs", 1),
        batch_size=_setting(args, config, "batch_size", 32),
        seed=seed,
        enable_ce=not _setting(args, config, "disable_ce", False),
        enable_forward=not _setting(args, config, "disable_forward", False),
        enable_backward=not _setting(args, config, "disable_backward", False),
        lowercase=_setting(args, config, "lowercase", False),
    )
    out = _out_dir(args, config)

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
            seed=seed,
            holdout_size=len(validation_by_lp.get(lang_pair, ())),
        )
        for lang_pair in sorted(set(train_by_lp) | set(validation_by_lp))
    }

    scorer = ToyScorer.from_texts(
        _scorer_training_texts(eval_set), lowercase=training_config.lowercase
    )
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
    config = _load_config(args)
    eval_set = _load_bundle(args, config)
    metrics = _build_metrics(
        _metric_names(args, config), _setting(args, config, "scorer")
    )
    out = _out_dir(args, config)

    scores = [
        MetricScore(metric.metric_id, system_id, seg_id, value)
        for metric in metrics
        for (system_id, seg_id), value in standard_reference_scores(
            eval_set, metric.segment_score
        ).items()
    ]
    write_metric_scores(scores, eval_set, out / "scores.tsv")
    print(f"metrics={len(metrics)} scored_segments={len(scores)}")
    return EXIT_OK


def _mean(values: list[float] | None) -> float | None:
    # sum, not fsum: correlations.json keeps the bytes it always had
    return sum(values) / len(values) if values else None


def cmd_correlate(args) -> int:
    config = _load_config(args)
    eval_set = _load_bundle(args, config)
    scores_path = Path(_require(args, config, "scores"))
    out = _out_dir(args, config)
    weights = _severity_weights(config)
    all_scores = []
    for line, score in metric_score_rows(scores_path):
        if (score.system_id, score.seg_id) not in eval_set.translations:
            raise ArtefactError(scores_path, line, f"{score} is not in the corpus")
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
            weights,
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
    config = _load_config(args)
    eval_set = _load_bundle(args, config)
    seed = _require_seed(args, config)
    n_resamples = _setting(args, config, "resamples", DEFAULT_RESAMPLES)
    if n_resamples < 1:
        raise UsageError(f"resamples must be at least 1, got {n_resamples!r}")
    alpha = _setting(args, config, "alpha_level", DEFAULT_ALPHA)
    if not 0 < alpha < 1:
        raise UsageError(f"alpha_level must be between 0 and 1, got {alpha!r}")
    weights = _severity_weights(config)
    metrics = _build_metrics(
        _metric_names(args, config), _setting(args, config, "scorer")
    )
    out = _out_dir(args, config)

    report = robustness_report(
        eval_set,
        metrics,
        seed=seed,
        weights=weights,
        n_resamples=n_resamples,
        alpha=alpha,
    )
    write_json(out / "robustness.json", report.to_dict())
    table = report.format_table()
    (out / "robustness.txt").write_text(table, encoding="utf-8")
    print(table, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="metricfit",
        description=(
            "Train a sequence-scoring MT metric on pairwise human rankings and "
            "meta-evaluate metrics against MQM judgments, including robustness "
            "to machine-translated references."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub):
        sub.add_argument("--config", help="JSON config file; flags override it")
        sub.add_argument("--seed", type=int, help="random seed (explicit, no default)")
        sub.add_argument("--out", help="output directory")

    ingest = subparsers.add_parser("ingest", help="validate and bundle a corpus")
    add_common(ingest)
    ingest.add_argument("--segments", help="segments.tsv")
    ingest.add_argument("--system-outputs", dest="system_outputs",
                        help="system_outputs.tsv")
    ingest.add_argument("--references", help="references.tsv")
    ingest.add_argument("--ratings", help="mqm_ratings.tsv")
    ingest.set_defaults(func=cmd_ingest)

    rankings = subparsers.add_parser(
        "rankings", help="derive relative rankings and split off a validation set"
    )
    add_common(rankings)
    rankings.add_argument("--corpus", help="ingested corpus bundle directory")
    rankings.add_argument("--threshold", type=float,
                          help="minimum penalty difference (strict)")
    rankings.add_argument("--holdout", type=int,
                          help="validation rankings per language pair")
    rankings.add_argument(
        "--include-human",
        dest="include_human",
        action=argparse.BooleanOptionalAction,
        help="pair human translations too (default: yes)",
    )
    rankings.set_defaults(func=cmd_rankings)

    train_cmd = subparsers.add_parser("train", help="fine-tune the toy scorer")
    add_common(train_cmd)
    train_cmd.add_argument("--corpus", help="ingested corpus bundle directory")
    train_cmd.add_argument("--rankings", help="rankings artifact directory")
    train_cmd.add_argument("--epsilon", type=float, help="ranking margin")
    train_cmd.add_argument("--alpha", type=float, help="cross-entropy weight")
    train_cmd.add_argument("--learning-rate", dest="learning_rate", type=float)
    train_cmd.add_argument("--epochs", type=int)
    train_cmd.add_argument("--batch-size", dest="batch_size", type=int)
    train_cmd.add_argument("--disable-ce", dest="disable_ce",
                           action="store_const", const=True,
                           help="ablation: drop the cross-entropy term")
    train_cmd.add_argument("--disable-forward", dest="disable_forward",
                           action="store_const", const=True,
                           help="ablation: drop the forward ranking term")
    train_cmd.add_argument("--disable-backward", dest="disable_backward",
                           action="store_const", const=True,
                           help="ablation: drop the backward ranking term")
    train_cmd.set_defaults(func=cmd_train)

    score = subparsers.add_parser(
        "score", help="score system translations under standard references"
    )
    add_common(score)
    score.add_argument("--corpus", help="ingested corpus bundle directory")
    score.add_argument("--metrics", help="comma-separated metric ids")
    score.add_argument("--scorer", help="scorer.json for the prism metric")
    score.set_defaults(func=cmd_score)

    correlate = subparsers.add_parser(
        "correlate", help="correlate metric scores with human judgments"
    )
    add_common(correlate)
    correlate.add_argument("--corpus", help="ingested corpus bundle directory")
    correlate.add_argument("--scores", help="scores.tsv from the score command")
    correlate.set_defaults(func=cmd_correlate)

    robustness = subparsers.add_parser(
        "robustness",
        help="compare metrics under standard vs machine-translated references",
    )
    add_common(robustness)
    robustness.add_argument("--corpus", help="ingested corpus bundle directory")
    robustness.add_argument("--metrics", help="comma-separated metric ids")
    robustness.add_argument("--scorer", help="scorer.json for the prism metric")
    robustness.add_argument("--resamples", type=int,
                            help="perm-both resamples per metric pair")
    robustness.set_defaults(func=cmd_robustness)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericError, FloatingPointError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except TrainingError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ArtefactError, CorpusError, MetaEvalError, DataError, OSError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
