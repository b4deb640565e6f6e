"""Toolkit for training a sequence-scoring MT evaluation metric on pairwise
human rankings and for meta-evaluating metrics against human judgments,
including robustness to machine-translated references."""

from .corpus import (
    CorpusError,
    CorpusFormatError,
    CorpusPaths,
    EvaluationSet,
    IntegrityError,
    MqmError,
    MqmRating,
    PenaltyOverflowError,
    ReferenceTranslation,
    Segment,
    SeverityWeights,
    SystemTranslation,
    error_free_translations,
    load_corpus,
    mqm_score,
)
from .metaeval import (
    JudgmentTable,
    MetaEvalError,
    MtReferenceAssignment,
    RobustnessReport,
    comparable_subset,
    kendall_tau,
    kendall_tau_swaps,
    pairwise_accuracy,
    perm_both_test,
    relative_change,
    robustness_report,
    sample_refs_segment_level,
    sample_refs_system_pair,
)
from .metrics import (
    BleuMetric,
    ChrfMetric,
    MetricScore,
    PrismMetric,
    SequenceScorer,
    ToyScorer,
    bleu,
    chrf,
    prism_score,
    score_magnitude,
    segment_bleu,
    sequence_score,
    system_score,
    tokenize,
)
from .rankings import (
    RankingDataset,
    RelativeRanking,
    derive_rankings,
    split_holdout,
)
from .training import (
    NumericError,
    TrainingConfig,
    TrainingError,
    TrainingReport,
    gradient,
    train,
)

__version__ = "0.1.0"
