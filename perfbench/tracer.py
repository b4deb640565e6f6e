"""Per-layer tracing for the benchmark's traced run.

The tracer wraps the public functions of each ``metricfit`` module from
outside the package: every wrapper is installed where its caller looks the
name up (``cli.load_corpus``, ``training.gradient``, ``metaeval.kendall_tau``,
class attributes for ``segment_score`` and ``token_logprobs``, ...), so no
file of the program changes. Each wrapped call is a span (name, start, end,
parent, run id). Spans stay in memory and are written out when the run
ends; the hot leaf calls (scoring, tokenizing, Kendall tau, per-example
gradients) are only aggregated, as keeping one record per call would
dominate the traced run's memory. A span's self time is its duration minus
the time covered by wrapped calls inside it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

# Aggregated only: no per-call span record.
HOT = frozenset({
    "metrics.toy.token_logprobs",
    "metrics.toy.token_logprob_gradients",
    "metrics.chrf",
    "metrics.bleu",
    "metrics.prism",
    "metrics.tokenize",
    "metaeval.kendall_tau",
    "training.gradient",
    "training.loss_terms",
    "corpus.standard_reference",
})

STAGES = ("ingest", "rankings", "train", "score", "correlate", "robustness")

BOS_TOKEN = "<s>"
UNK_TOKEN = "<unk>"


class _Frame:
    __slots__ = ("name", "span_id", "start", "covered")

    def __init__(self, name: str, span_id: int | None):
        self.name = name
        self.span_id = span_id
        self.start = time.perf_counter()
        self.covered = 0.0  # seconds spent in wrapped calls below this one


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[_Frame] = []
        self._next_id = 0
        # (metric id, id(hypothesis), id(reference)) -> the two strings, kept
        # alive so that an id is never reused for another text.
        self._pairs: dict = {}
        self._vocab_sets: dict[int, frozenset] = {}
        self._prev_tokens: dict[int, set] = {}
        self._keep = []  # vocab tuples kept alive for the same reason

    # -- spans -------------------------------------------------------------

    def _parent_span(self) -> int | None:
        for frame in reversed(self._stack):
            if frame.span_id is not None:
                return frame.span_id
        return None

    def _new_span_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _leave(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame.start
        self.calls[frame.name] += 1
        self.total_s[frame.name] += duration
        self.self_s[frame.name] += duration - frame.covered
        if frame.span_id is not None:
            self.spans.append(
                (frame.span_id, frame.name, frame.start, end, self._parent_span())
            )

    def parent_name(self) -> str | None:
        return self._stack[-1].name if self._stack else None

    def wrap(self, fn, name: str, after=None):
        """``fn`` timed as span ``name``; ``after(args, result)`` records counts.

        ``after`` runs outside the span, and its time is excluded from the
        parent's self time as well.
        """
        keep = name not in HOT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame(name, self._new_span_id() if keep else None)
            self._stack.append(frame)
            try:
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._leave(frame)
                if after is not None:
                    after(args, result)
                return result
            finally:
                if self._stack:
                    self._stack[-1].covered += time.perf_counter() - frame.start

        return wrapper

    def span(self, name: str, fn, *args):
        """Call ``fn(*args)`` as a root-level span."""
        return self.wrap(fn, name)(*args)

    # -- counters ----------------------------------------------------------

    def _count_tokens(self, name: str, args) -> None:
        scorer, target = args[0], args[1]
        self.counts[name + ".tokens"] += len(target) + 1
        key = id(scorer.vocab)
        vocab = self._vocab_sets.get(key)
        if vocab is None:
            self._keep.append(scorer.vocab)
            vocab = self._vocab_sets[key] = frozenset(scorer.vocab)
            self._prev_tokens[key] = {BOS_TOKEN}
        # every target token is the previous token of the next position;
        # the appended end token never is
        self._prev_tokens[key].update(t if t in vocab else UNK_TOKEN for t in target)

    def _count_pair(self, metric, hypothesis, reference) -> None:
        key = (metric.metric_id, id(hypothesis), id(reference))
        if key not in self._pairs:
            self._pairs[key] = (hypothesis, reference)

    def _count_hinges(self, result) -> None:
        self.counts["training.hinges"] += 2
        self.counts["training.active_hinges"] += (result.forward > 0) + (result.backward > 0)

    def _count_kendall(self) -> None:
        if self.parent_name() == "metaeval.perm_both_test":
            self.counts["metaeval.perm_both.kendall_calls"] += 1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace each traced name where its caller looks it up."""
        from metricfit import cli, corpus, metaeval, metrics, training

        def patch(owner, attr, name, after=None):
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, after))

        patch(cli, "load_corpus", "corpus.load_corpus")
        patch(cli, "write_corpus", "corpus.write_corpus")
        patch(corpus.EvaluationSet, "standard_reference", "corpus.standard_reference")
        patch(corpus.EvaluationSet, "subset", "corpus.subset")
        patch(metaeval, "error_free_translations", "corpus.error_free_translations")

        patch(cli, "derive_rankings", "rankings.derive_rankings",
              lambda a, r: self.counts.update({"rankings.derived": len(r.rankings)}))
        patch(cli, "split_holdout", "rankings.split_holdout")
        patch(cli, "write_rankings", "rankings.write_rankings")
        patch(cli, "read_rankings", "rankings.read_rankings")

        for attr in ("token_logprobs", "token_logprob_gradients"):
            name = "metrics.toy." + attr
            patch(metrics.ToyScorer, attr, name,
                  lambda a, r, name=name: self._count_tokens(name, a))
        for cls, name in ((metrics.ChrfMetric, "metrics.chrf"),
                          (metrics.BleuMetric, "metrics.bleu"),
                          (metrics.PrismMetric, "metrics.prism")):
            patch(cls, "segment_score", name, lambda a, r: self._count_pair(*a))
        patch(metrics, "tokenize", "metrics.tokenize")
        patch(training, "tokenize", "metrics.tokenize")

        patch(cli, "train", "training.train",
              lambda a, r: self.counts.update({"training.steps": len(r[1].steps)}))
        patch(training, "gradient", "training.gradient")
        patch(training, "loss_terms", "training.loss_terms",
              lambda a, r: self._count_hinges(r))
        patch(training, "ranking_accuracy", "training.ranking_accuracy")

        patch(cli, "robustness_report", "metaeval.robustness_report")
        patch(metaeval, "kendall_tau", "metaeval.kendall_tau",
              lambda a, r: self._count_kendall())
        patch(metaeval, "perm_both_test", "metaeval.perm_both_test")
        patch(metaeval, "sample_refs_segment_level", "metaeval.sample_refs_segment_level")
        patch(metaeval, "sample_refs_system_pair", "metaeval.sample_refs_system_pair")
        table = metaeval.JudgmentTable
        table.build = classmethod(
            self.wrap(table.__dict__["build"].__func__, "metaeval.judgment_table.build")
        )
        patch(table, "segment_tau", "metaeval.judgment_table.segment_tau")
        patch(table, "system_pairwise_accuracy",
              "metaeval.judgment_table.system_pairwise_accuracy")

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values by name (0 for layers the run never called)."""
        s, calls, counts = self.total_s, self.calls, self.counts

        def ratio(numerator, denominator, scale=1.0):
            return scale * numerator / denominator if denominator else 0.0

        values: dict[str, float] = {}
        for stage in STAGES:
            values[f"cli.{stage}_s"] = s[f"cli.{stage}"]
        for name in ("load_corpus", "standard_reference", "subset",
                     "error_free_translations"):
            values[f"corpus.{name}.calls"] = calls[f"corpus.{name}"]
            values[f"corpus.{name}.s"] = s[f"corpus.{name}"]
        values["corpus.write_corpus.s"] = s["corpus.write_corpus"]
        for name in ("sample_refs_segment_level", "sample_refs_system_pair"):
            values[f"metaeval.{name}.calls"] = calls[f"metaeval.{name}"]
            values[f"metaeval.{name}.s"] = s[f"metaeval.{name}"]

        values["rankings.derive_rankings.s"] = s["rankings.derive_rankings"]
        values["rankings.derived"] = counts["rankings.derived"]
        for name in ("split_holdout", "write_rankings", "read_rankings"):
            values[f"rankings.{name}.s"] = s[f"rankings.{name}"]

        for attr in ("token_logprobs", "token_logprob_gradients"):
            name = "metrics.toy." + attr
            tokens = counts[name + ".tokens"]
            values[name + ".calls"] = calls[name]
            values[name + ".tokens"] = tokens
            values[name + ".s"] = s[name]
            values[name + ".ns_per_token"] = ratio(s[name], tokens, 1e9)
        largest = max(self._prev_tokens, key=lambda k: len(self._prev_tokens[k]),
                      default=None)
        vocab_size = len(self._vocab_sets.get(largest, ()))
        distinct_prev = len(self._prev_tokens.get(largest, ()))
        values["metrics.toy.vocab_size"] = vocab_size
        values["metrics.toy.distinct_prev_tokens"] = distinct_prev
        values["metrics.toy.dense_bigram_bytes"] = distinct_prev * vocab_size * 8

        score_calls = 0
        for metric in ("chrf", "bleu", "prism"):
            name = "metrics." + metric
            score_calls += calls[name]
            values[name + ".calls"] = calls[name]
            values[name + ".s"] = s[name]
            values[name + ".us_per_pair"] = ratio(s[name], calls[name], 1e6)
        values["metrics.pairs.distinct"] = len(self._pairs)
        values["metrics.pairs.reuse_ratio"] = ratio(len(self._pairs), score_calls)
        values["metrics.tokenize.calls"] = calls["metrics.tokenize"]
        values["metrics.tokenize.s"] = s["metrics.tokenize"]

        values["training.train.s"] = s["training.train"]
        values["training.steps"] = counts["training.steps"]
        for name in ("gradient", "loss_terms"):
            values[f"training.{name}.calls"] = calls[f"training.{name}"]
            values[f"training.{name}.s"] = s[f"training.{name}"]
        values["training.ranking_accuracy.s"] = s["training.ranking_accuracy"]
        values["training.active_hinge_ratio"] = ratio(
            counts["training.active_hinges"], counts["training.hinges"]
        )

        values["metaeval.robustness_report.s"] = s["metaeval.robustness_report"]
        values["metaeval.robustness_report.self_s"] = self.self_s[
            "metaeval.robustness_report"
        ]
        kendall = "metaeval.kendall_tau"
        values[kendall + ".calls"] = calls[kendall]
        values[kendall + ".s"] = s[kendall]
        values[kendall + ".ms_per_call"] = ratio(s[kendall], calls[kendall], 1e3)
        perm = "metaeval.perm_both_test"
        values[perm + ".calls"] = calls[perm]
        values[perm + ".s"] = s[perm]
        # each test computes the observed pair of correlations, then two per attempt
        attempts = (counts["metaeval.perm_both.kendall_calls"] - 2 * calls[perm]) // 2
        values["metaeval.perm_both.attempts"] = attempts
        values["metaeval.perm_both.us_per_resample"] = ratio(s[perm], attempts, 1e6)
        values["metaeval.judgment_table.s"] = sum(
            s[f"metaeval.judgment_table.{part}"]
            for part in ("build", "segment_tau", "system_pairwise_accuracy")
        )
        return values

    def write_spans(self, path: Path) -> None:
        """Kept spans as JSON lines, then one line of per-name aggregates."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "run": self.run_id,
                }) + "\n")
            handle.write(json.dumps({
                "run": self.run_id,
                "aggregates": {
                    name: {"calls": self.calls[name], "s": self.total_s[name],
                           "self_s": self.self_s[name]}
                    for name in sorted(self.calls)
                },
            }) + "\n")
