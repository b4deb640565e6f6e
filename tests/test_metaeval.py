"""Tests for meta-evaluation statistics and the MT-reference protocol."""

import hashlib
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    batched_pearson,
    kendall_tau_oracle,
    kendall_tau_scipy_oracle,
    load_robustness_corpus,
    make_eval_set,
    pearson,
    perm_both_oracle,
    robustness_report_oracle,
    robustness_corpus_rows,
    rowwise,
    write_corpus_files,
)
from metricfit import metaeval
from metricfit.corpus import error_free_translations, load_corpus
from metricfit.metaeval import (
    JudgmentTable,
    _hash_seed,
    MetaEvalError,
    comparable_subset,
    human_segment_scores,
    kendall_tau,
    kendall_tau_swaps,
    pairwise_accuracy,
    perm_both_test,
    relative_change,
    robustness_report,
    sample_refs_segment_level,
    sample_refs_system_pair,
)
from metricfit.metrics import BleuMetric, ChrfMetric, MetricScore, PrismMetric, ToyScorer


def test_kendall_perfect_concordance():
    # human goodness [1, 2, 3] expressed as penalties
    assert kendall_tau([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]) == pytest.approx(1.0)


def test_kendall_perfect_discordance():
    assert kendall_tau([3.0, 2.0, 1.0], [-1.0, -2.0, -3.0]) == pytest.approx(-1.0)


def test_kendall_matches_brute_force_oracle():
    rng = random.Random(10)
    for _ in range(40):
        n = rng.randint(5, 200)
        # heavy ties via coarse quantization
        metric = [round(rng.uniform(0, 4)) / 2.0 for _ in range(n)]
        human = [round(rng.uniform(0, 6)) / 2.0 for _ in range(n)]
        expected = kendall_tau_oracle(metric, human)
        actual = kendall_tau(metric, human)
        if expected is None:
            assert actual is None
        else:
            assert actual == pytest.approx(expected, abs=1e-12)


def test_kendall_constant_input_is_undefined():
    assert kendall_tau([1.0, 1.0, 1.0], [0.0, 1.0, 2.0]) is None
    assert kendall_tau([0.0, 1.0, 2.0], [3.0, 3.0, 3.0]) is None
    # signed zeros tie; a constant side is checked before NaN
    assert kendall_tau([0.0, -0.0], [1.0, 2.0]) is None
    assert kendall_tau([1.0, 1.0, 1.0], [math.nan, 1.0, 2.0]) is None
    # then any NaN gives NaN, also where NaN != NaN keeps a side from constant
    assert math.isnan(kendall_tau([math.nan, 1.0, 2.0], [1.0, 2.0, 3.0]))
    assert math.isnan(kendall_tau([math.nan, math.nan], [1.0, 2.0]))
    assert math.isnan(kendall_tau([1.0, 2.0, 3.0], [1.0, math.nan, 2.0]))
    for metric, human in (([0.0, -0.0], [1.0, 2.0]),
                          ([1.0, 1.0, 1.0], [math.nan, 1.0, 2.0]),
                          ([math.nan, 1.0, 2.0], [1.0, 2.0, 3.0]),
                          ([math.nan, math.nan], [1.0, 2.0])):
        assert _tau_hex(kendall_tau(metric, human)) == _tau_hex(
            kendall_tau_scipy_oracle(metric, human)
        )


def test_kendall_ties_only_equal_floats():
    """Exact float equality is the tie rule: one ulp apart is untied."""
    score = -0.7056743534703047
    human = [3.0, 2.0, 1.0]  # penalties: the last unit is the best
    untied = [score, math.nextafter(score, 0.0), 0.0]
    assert kendall_tau(untied, human) == 1.0
    tied = [score, score, 0.0]  # one tied metric pair of three
    assert kendall_tau(tied, human) == pytest.approx(2.0 / math.sqrt(6.0))
    for metric in (untied, tied):
        assert _tau_hex(kendall_tau(metric, human)) == _tau_hex(
            kendall_tau_scipy_oracle(metric, human)
        )


def test_kendall_validates_input():
    with pytest.raises(ValueError):
        kendall_tau([1.0], [2.0])
    with pytest.raises(ValueError):
        kendall_tau([1.0, 2.0], [1.0, 2.0, 3.0])
    # same-shaped 2-D input is refused, not compared row by row
    with pytest.raises(ValueError, match="1-D"):
        kendall_tau([[1.0, 2.0], [1.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]])


def _tau_hex(tau):
    """A tau's exact bits (NaN as 'nan'), or None."""
    return None if tau is None else float(tau).hex()


_TAU_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1.0, -2.5, 5e-324]),
    st.floats(min_value=1e299, max_value=1e301),
    st.floats(min_value=-1e301, max_value=-1e299),
    st.floats(),
)


@st.composite
def _tau_cases(draw):
    """n from 2 to 400 units per side, picked from a pool of at most 12
    values (heavy ties) or from that pool plus n normal draws (few ties).
    Pools hold signed zeros, infinities, magnitudes near 1e300 and any other
    float, NaN included."""
    n = draw(st.integers(2, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def vector():
        pool = draw(st.lists(_TAU_VALUES, min_size=1, max_size=12))
        if draw(st.booleans()):
            pool += list(rng.normal(size=n))
        return np.array(pool)[rng.integers(0, len(pool), size=n)]

    return vector(), vector()


@settings(max_examples=300, deadline=None)
@given(_tau_cases())
@example((np.array([0.0, -0.0, 1.0, -0.0]), np.array([2.0, 1.0, 1.0, 3.0])))
@example((np.array([math.inf, -math.inf, 1e300, -1e300]),
          np.array([1e300, 1.7e300, -math.inf, 1e300])))
def test_kendall_tau_matches_scipy_bit_for_bit(case):
    metric, human = case
    assert _tau_hex(kendall_tau(metric, human)) == _tau_hex(
        kendall_tau_scipy_oracle(metric, human)
    )


@pytest.mark.parametrize("n", [2500, 20000])
def test_kendall_tau_matches_scipy_at_scale(n):
    rng = np.random.default_rng(n)
    human = rng.integers(0, 30, size=n).astype(float)
    for metric in (np.round(rng.normal(size=n), 2), rng.normal(size=n)):
        tau = kendall_tau(metric, human)
        assert tau is not None
        assert tau.hex() == kendall_tau_scipy_oracle(metric, human).hex()


def test_kendall_antisymmetric_under_negation():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(4, 60)
        metric = [round(rng.uniform(0, 8)) for _ in range(n)]
        human = [round(rng.uniform(0, 8)) for _ in range(n)]
        tau = kendall_tau(metric, human)
        negated = kendall_tau([-m for m in metric], human)
        if tau is None:
            assert negated is None
        else:
            assert negated == -tau


def test_pearson_basics():
    assert pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(1.0)
    assert pearson([1.0, 2.0, 3.0], [6.0, 4.0, 2.0]) == pytest.approx(-1.0)
    assert pearson([1.0, 1.0], [1.0, 2.0]) is None


def test_pairwise_accuracy_identity_and_reversal():
    human = {"A": 3.0, "B": 2.0, "C": 1.0}
    assert pairwise_accuracy(human, human) == 1.0
    negated = {k: -v for k, v in human.items()}
    assert pairwise_accuracy(negated, human) == 0.0


def test_pairwise_accuracy_hand_enumerated_third():
    human = {"A": 90.0, "B": 80.0, "C": 70.0}
    metric = {"A": 1.0, "B": 3.0, "C": 2.0}
    assert pairwise_accuracy(metric, human) == pytest.approx(1.0 / 3.0)


def test_pairwise_accuracy_tie_handling():
    human = {"A": 2.0, "B": 1.0, "C": 1.0}  # B-C tied for humans: excluded
    metric = {"A": 5.0, "B": 5.0, "C": 1.0}  # A-B metric tie: incorrect
    # pairs: AB (human ordered, metric tied -> wrong), AC (concordant)
    assert pairwise_accuracy(metric, human) == pytest.approx(0.5)


def test_pairwise_accuracy_undefined_and_errors():
    assert pairwise_accuracy({"A": 1.0, "B": 2.0}, {"A": 0.0, "B": 0.0}) is None
    with pytest.raises(ValueError):
        pairwise_accuracy({"A": 1.0}, {"A": 1.0})
    with pytest.raises(ValueError):
        pairwise_accuracy({"A": 1.0, "B": 2.0}, {"A": 1.0, "C": 2.0})


def test_pairwise_accuracy_complement_without_ties():
    rng = random.Random(12)
    for _ in range(20):
        systems = [f"sys{i}" for i in range(rng.randint(2, 8))]
        human = {s: rng.random() for s in systems}
        metric = {s: rng.random() for s in systems}
        forward = pairwise_accuracy(metric, human)
        reverse = pairwise_accuracy({s: -v for s, v in metric.items()}, human)
        assert forward + reverse == pytest.approx(1.0)


def test_perm_both_identical_metrics_p_is_one():
    rng = random.Random(1)
    human = [rng.random() for _ in range(50)]
    metric = [rng.random() for _ in range(50)]
    p = perm_both_test(metric, metric, human, rowwise(pearson), n_resamples=200, seed=4)
    assert p == 1.0


def test_perm_both_detects_clear_difference():
    rng = np.random.default_rng(42)
    human = rng.normal(size=500)
    metric_a = list(-human)  # equals human goodness exactly, as penalties
    metric_b = list(rng.normal(size=500))
    p = perm_both_test(
        list(metric_a), metric_b, list(human), kendall_tau_swaps,
        n_resamples=1000, seed=7,
    )
    assert p < 0.05
    assert p == pytest.approx(1.0 / 1001.0)


def test_perm_both_invariant_to_metric_relabeling():
    rng = np.random.default_rng(3)
    human = list(rng.normal(size=80))
    metric_a = list(rng.normal(size=80))
    metric_b = list(rng.normal(size=80))
    p_ab = perm_both_test(metric_a, metric_b, human, rowwise(pearson), 300, seed=11)
    p_ba = perm_both_test(metric_b, metric_a, human, rowwise(pearson), 300, seed=11)
    assert p_ab == p_ba


def test_perm_both_rough_null_calibration():
    rng = np.random.default_rng(17)
    rejections = 0
    trials = 100
    for trial in range(trials):
        human = rng.normal(size=100)
        quality = rng.normal(size=100)
        metric_a = list(quality + rng.normal(size=100))
        metric_b = list(quality + rng.normal(size=100))
        p = perm_both_test(
            metric_a, metric_b, list(human), rowwise(pearson), n_resamples=200,
            seed=1000 + trial,
        )
        if p < 0.05:
            rejections += 1
    assert 0 <= rejections / trials <= 0.12


def test_batched_pearson_gives_the_p_values_of_rowwise_pearson():
    """Criterion 3's statistic, on the first 20 of that criterion's trials."""
    rng = np.random.default_rng(2024)
    for trial in range(20):
        human = list(rng.normal(size=200))
        quality = rng.normal(size=200)
        metric_a = list(quality + rng.normal(size=200))
        metric_b = list(quality + rng.normal(size=200))
        batched, scalar = (
            perm_both_test(metric_a, metric_b, human, statistic, 1000, seed=trial)
            for statistic in (batched_pearson, rowwise(pearson))
        )
        assert batched == scalar


def test_batched_pearson_is_nan_where_pearson_is_undefined():
    a, b, human = [1.0, 1.0, 1.0], [1.0, 2.0, 4.0], [0.5, 2.0, 1.0]
    swaps = np.array([[False] * 3, [True, False, False], [False, True, True]])
    batched = batched_pearson(a, b, human, swaps)
    scalar = rowwise(pearson)(a, b, human, swaps)
    for got, want in zip(batched, scalar):
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.isnan(want).any() and not np.isnan(want).all()
        np.testing.assert_allclose(got, want, rtol=1e-12)
    flat = batched_pearson(a, b, [3.0, 3.0, 3.0], swaps)
    assert np.isnan(np.concatenate(flat)).all()


def test_perm_both_validates_input():
    with pytest.raises(ValueError):
        perm_both_test([1.0], [1.0, 2.0], [0.0, 1.0], rowwise(pearson))
    with pytest.raises(ValueError):
        perm_both_test(
            [1.0, 2.0], [1.0, 2.0], [0.0, 1.0], rowwise(pearson), n_resamples=0
        )


def test_perm_both_undefined_observed_correlation():
    # constant metric_a makes the observed correlation undefined
    with pytest.raises(MetaEvalError):
        perm_both_test([1.0, 1.0], [1.0, 2.0], [0.0, 1.0], rowwise(pearson), 10, seed=0)


def test_perm_both_redraw_cap():
    calls = {"count": 0}

    def flaky(x, y):
        calls["count"] += 1
        if calls["count"] <= 2:  # defined for the observed statistic only
            return pearson(x, y)
        return None

    with pytest.raises(MetaEvalError, match="attempts"):
        perm_both_test(
            [1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [0.5, 1.5, 2.5], rowwise(flaky),
            n_resamples=5, seed=0,
        )


@pytest.mark.parametrize("undefined_attempts, capped", [(9, False), (10, True)])
def test_perm_both_redraw_cap_is_ten_attempts_per_resample(undefined_attempts, capped):
    calls = {"count": 0}

    def undefined_at_first(x, y):
        calls["count"] += 1
        attempt = (calls["count"] - 1) // 2  # 0 for the observed scores
        return None if 1 <= attempt <= undefined_attempts else pearson(x, y)

    scores = ([1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [0.5, 1.5, 2.5])
    statistic = rowwise(undefined_at_first)
    if capped:
        with pytest.raises(MetaEvalError, match="exceeded 10 resampling attempts"):
            perm_both_test(*scores, statistic, n_resamples=1, seed=0)
    else:
        p = perm_both_test(*scores, statistic, n_resamples=1, seed=0)
        calls["count"] = 0
        assert p == perm_both_oracle(*scores, undefined_at_first, 1, 0)


def _assert_rows_match_kendall_tau(a, b, human, swaps):
    """kendall_tau_swaps equals kendall_tau on every resample, bit for bit,
    and kendall_tau equals the scipy oracle."""
    rows_a, rows_b = kendall_tau_swaps(a, b, human, swaps)
    assert rows_a.shape == rows_b.shape == (len(swaps),)
    for swap, got_a, got_b in zip(swaps, rows_a, rows_b):
        for got, x in ((got_a, np.where(swap, b, a)), (got_b, np.where(swap, a, b))):
            want = kendall_tau(x, human)
            assert _tau_hex(got) == _tau_hex(math.nan if want is None else want)
            assert _tau_hex(want) == _tau_hex(kendall_tau_scipy_oracle(x, human))


@st.composite
def _swap_cases(draw):
    """Scores from small pools, so that ties are common; a one-value pool
    makes a side constant."""
    n = draw(st.integers(2, 12))

    def vector(pool_size):
        pool = draw(st.lists(st.sampled_from([-1.5, 0.0, 0.25, 1.0, 3.0]),
                             min_size=pool_size, max_size=pool_size))
        return [draw(st.sampled_from(pool)) for _ in range(n)]

    a = vector(draw(st.integers(1, 3)))
    b = vector(draw(st.integers(1, 3)))
    human = vector(draw(st.integers(1, 4)))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                         min_size=1, max_size=12))
    return a, b, human, np.array(rows, dtype=bool)


@settings(max_examples=300, deadline=None)
@given(
    _swap_cases(),
    # 1 and 3 give one-column blocks; 4 to 144 give every width up to n = 12
    st.sampled_from([1, 3, metaeval._CHUNK_CELLS]) | st.integers(4, 144),
)
@example(  # n = 2, and rows whose chosen values tie
    ([1.0, 2.0], [2.0, 1.0], [0.0, 1.0],
     np.array([[False, False], [True, False], [False, True], [True, True]])),
    metaeval._CHUNK_CELLS,
)
@example(  # a constant human side: every row undefined
    ([1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [0.5, 0.5, 0.5],
     np.array([[False, False, False], [True, False, True]])),
    metaeval._CHUNK_CELLS,
)
def test_kendall_tau_swaps_matches_kendall_tau_bit_for_bit(case, cells):
    """Every row equals kendall_tau by float.hex, with the pair matrix cut
    into column blocks of every width."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metaeval, "_CHUNK_CELLS", cells)
        _assert_rows_match_kendall_tau(*case)


def test_kendall_tau_swaps_is_exact_at_roadmap_scale():
    """2,500 units with ties on every side, over 25 column blocks of the
    pair matrix: every float32 value stays an exact integer."""
    rng = np.random.default_rng(8)
    n = 2500
    a, b = np.round(rng.normal(size=(2, n)), 1)
    human = rng.integers(0, 30, size=n).astype(float)
    _assert_rows_match_kendall_tau(a, b, human, rng.random((6, n)) < 0.5)
    p = perm_both_test(a, b, human, kendall_tau_swaps, n_resamples=100, seed=3)
    assert p == perm_both_oracle(a, b, human, kendall_tau, n_resamples=100, seed=3)


def test_kendall_tau_swaps_holds_no_pair_matrix():
    """4,000 units with ties on every side: the rows are exact, and the
    call's traced peak stays below n**2 / 4 bytes, a quarter of an int8
    n x n matrix."""
    rng = np.random.default_rng(9)
    n = 4000
    a, b = np.round(rng.normal(size=(2, n)), 1)
    human = rng.integers(0, 30, size=n).astype(float)
    swaps = rng.random((4, n)) < 0.5
    tracemalloc.start()
    try:
        kendall_tau_swaps(a, b, human, swaps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n / 4
    _assert_rows_match_kendall_tau(a, b, human, swaps)


def test_kendall_tau_swaps_reads_its_masks_twice_alike(monkeypatch):
    """Two calls on one mask array, cut into row and column blocks, give
    the same rows bit for bit and leave the masks as they were: a paired
    test can run two statistics on the same masks."""
    monkeypatch.setattr(metaeval, "_CHUNK_CELLS", 1000)
    rng = np.random.default_rng(12)
    n = 300
    a, b = np.round(rng.normal(size=(2, n)), 1)
    human = rng.integers(0, 8, size=n).astype(float)
    swaps = rng.random((10, n)) < 0.5
    before = swaps.copy()
    first, second = (kendall_tau_swaps(a, b, human, swaps) for _ in range(2))
    for got, again in zip(first, second):
        assert list(map(_tau_hex, got)) == list(map(_tau_hex, again))
    assert np.array_equal(swaps, before)
    _assert_rows_match_kendall_tau(a, b, human, swaps)


def test_kendall_tau_swaps_of_no_rows_is_empty():
    swaps = np.zeros((0, 3), dtype=bool)
    rows = kendall_tau_swaps([1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [0.5, 1.5, 2.5], swaps)
    for row in rows:
        assert row.dtype == np.float64 and row.shape == (0,)


@pytest.mark.parametrize("seed", range(6))
def test_perm_both_kernel_matches_scalar_loop_with_redraws(seed):
    # n = 2: every resample that swaps one unit ties both units, so about half
    # of the attempts are redrawn
    cases = [([1.0, 2.0], [2.0, 1.0], [0.0, 1.0]),
             ([1.0, 1.0, 2.0], [2.0, 1.0, 1.0], [0.0, 1.0, 1.0])]
    for a, b, human in cases:
        p = perm_both_test(a, b, human, kendall_tau_swaps, n_resamples=40, seed=seed)
        assert p == perm_both_oracle(a, b, human, kendall_tau, 40, seed)


@pytest.mark.parametrize("cells", [1, 1000])
def test_perm_both_kernel_matches_scalar_loop_across_chunks(monkeypatch, cells):
    """Swap masks split into many chunks (one row each at ``cells=1``) and the
    pair matrix into many column blocks keep every draw and every count."""
    monkeypatch.setattr(metaeval, "_CHUNK_CELLS", cells)
    rng = np.random.default_rng(5)
    human = rng.integers(0, 6, size=120).astype(float)
    a = np.round(rng.normal(size=120), 1)
    b = np.round(a + rng.normal(size=120), 1)
    p = perm_both_test(a, b, human, kendall_tau_swaps, n_resamples=60, seed=2)
    assert p == perm_both_oracle(a, b, human, kendall_tau, 60, 2)
    _assert_rows_match_kendall_tau(a, b, human, rng.random((5, 120)) < 0.5)


def _sampling_fixture(error_free_systems, rated_with_error=(), n_segments=1):
    segments = [("en-de", "news", "d", f"s{i}", f"src {i}") for i in range(n_segments)]
    systems = sorted(set(error_free_systems) | set(rated_with_error))
    translations = [
        (system, f"s{i}", f"text {system} {i}", False)
        for system in systems
        for i in range(n_segments)
    ]
    references = [("refA", f"s{i}", f"ref {i}") for i in range(n_segments)]
    ratings = []
    for i in range(n_segments):
        for system in error_free_systems:
            ratings.append(("ann1", system, f"s{i}", []))
        for system in rated_with_error:
            ratings.append(
                ("ann1", system, f"s{i}", [("accuracy/mistranslation", "major")])
            )
    return make_eval_set(segments, translations, references, ratings)


def test_segment_sampling_forced_choice():
    eval_set = _sampling_fixture(error_free_systems=["sysB"], rated_with_error=["sysA"])
    assignment = sample_refs_segment_level(eval_set, "sysA", seed=0)
    assert assignment.choices["s0"].source_system == "sysB"
    assert assignment.choices["s0"].origin == "machine"
    assert assignment.skipped == ()


def test_segment_sampling_skips_own_system():
    eval_set = _sampling_fixture(error_free_systems=["sysA"], rated_with_error=["sysB"])
    assignment = sample_refs_segment_level(eval_set, "sysA", seed=0)
    assert assignment.choices == {}
    assert assignment.skipped == ("s0",)


def test_segment_sampling_deterministic():
    eval_set = _sampling_fixture(
        error_free_systems=["sysB", "sysC", "sysD"], rated_with_error=["sysA"],
        n_segments=10,
    )
    first = sample_refs_segment_level(eval_set, "sysA", seed=3)
    second = sample_refs_segment_level(eval_set, "sysA", seed=3)
    assert first == second
    other_seed = sample_refs_segment_level(eval_set, "sysA", seed=4)
    sources = lambda a: [a.choices[s].source_system for s in sorted(a.choices)]
    assert sources(first) != sources(other_seed)


def test_pair_sampling_excludes_both_systems():
    eval_set = _sampling_fixture(
        error_free_systems=["sysA", "sysB", "sysC", "sysD"], n_segments=20
    )
    assignment = sample_refs_system_pair(eval_set, "sysA", "sysB", seed=5)
    assert assignment.excluded_systems == frozenset({"sysA", "sysB"})
    for reference in assignment.choices.values():
        assert reference.source_system in {"sysC", "sysD"}


def test_pair_sampling_sole_candidate_is_excluded_system():
    eval_set = _sampling_fixture(error_free_systems=["sysB"], rated_with_error=["sysA", "sysC"])
    assignment = sample_refs_system_pair(eval_set, "sysA", "sysB", seed=5)
    assert assignment.skipped == ("s0",)


def test_pair_sampling_differs_between_pairs():
    eval_set = _sampling_fixture(
        error_free_systems=["sysA", "sysB", "sysC", "sysD", "sysE"], n_segments=30
    )
    pair_ab = sample_refs_system_pair(eval_set, "sysA", "sysB", seed=5)
    pair_ac = sample_refs_system_pair(eval_set, "sysA", "sysC", seed=5)
    sources_ab = [pair_ab.choices[s].source_system for s in sorted(pair_ab.choices)]
    sources_ac = [pair_ac.choices[s].source_system for s in sorted(pair_ac.choices)]
    assert sources_ab != sources_ac


def test_sampling_invariants_on_fixture(tmp_path):
    eval_set = load_robustness_corpus(tmp_path, n_systems=5, n_segments=20)
    error_free = error_free_translations(eval_set)
    error_free_keys = {
        (translation.system_id, seg_id)
        for seg_id, translations in error_free.items()
        for translation in translations
    }
    systems = eval_set.system_ids(include_human=False)
    # a caller-built index gives the same assignments as building it here
    assert sample_refs_system_pair(
        eval_set, *systems[:2], 9, error_free
    ) == sample_refs_system_pair(eval_set, *systems[:2], 9)
    for system in systems:
        assignment = sample_refs_segment_level(eval_set, system, seed=9)
        assert assignment == sample_refs_segment_level(
            eval_set, system, 9, error_free
        )
        for seg_id, reference in assignment.choices.items():
            assert reference.source_system != system
            assert (reference.source_system, seg_id) in error_free_keys
        assert set(assignment.choices) | set(assignment.skipped) == set(
            eval_set.seg_ids()
        )


def test_comparable_subset_full_and_partial():
    eval_set = _sampling_fixture(
        error_free_systems=["sysB", "sysC"], rated_with_error=["sysA"], n_segments=10
    )
    assignments = [
        sample_refs_segment_level(eval_set, system, seed=1)
        for system in ("sysA", "sysB", "sysC")
    ]
    assert comparable_subset(eval_set, assignments) == set(eval_set.seg_ids())


def test_comparable_subset_drops_uncovered_segments():
    # sysB is the only error-free system, so sampling for sysB covers nothing.
    eval_set = _sampling_fixture(
        error_free_systems=["sysB"], rated_with_error=["sysA"], n_segments=10
    )
    assignment_a = sample_refs_segment_level(eval_set, "sysA", seed=1)
    assignment_b = sample_refs_segment_level(eval_set, "sysB", seed=1)
    assert len(assignment_a.choices) == 10
    assert len(assignment_b.choices) == 0
    with pytest.raises(MetaEvalError):
        comparable_subset(eval_set, [assignment_a, assignment_b])
    assert comparable_subset(eval_set, [assignment_a]) == set(eval_set.seg_ids())


def test_relative_change_reproduces_reported_percentages():
    assert relative_change(24.9, 24.4) == -2.0
    assert relative_change(15.7, 12.6) == -19.7
    assert relative_change(10.0, 10.0) == 0.0
    assert relative_change(0.0, 5.0) is None


def test_human_segment_scores_average_annotators():
    segments = [("en-de", "news", "d", "s1", "src")]
    translations = [("sysA", "s1", "text", False), ("humanX", "s1", "gold", True)]
    ratings = [
        ("ann1", "sysA", "s1", [("accuracy/mistranslation", "major")]),
        ("ann2", "sysA", "s1", []),
        ("ann1", "humanX", "s1", []),
    ]
    eval_set = make_eval_set(segments, translations, [("r", "s1", "ref")], ratings)
    scores = human_segment_scores(eval_set)
    assert scores == {("sysA", "s1"): 2.5}


def test_judgment_table_statistics():
    segments = [("en-de", "news", "d", f"s{i}", f"src {i}") for i in range(3)]
    translations = [
        (system, f"s{i}", f"text {system} {i}", False)
        for system in ("sysA", "sysB")
        for i in range(3)
    ]
    ratings = []
    for i in range(3):
        ratings.append(("ann1", "sysA", f"s{i}", []))
        ratings.append(("ann1", "sysB", f"s{i}", [("accuracy/mistranslation", "major")]))
    eval_set = make_eval_set(
        segments, translations, [("r", f"s{i}", f"ref {i}") for i in range(3)], ratings
    )
    metric_scores = [
        MetricScore("m", system, f"s{i}", value)
        for system, values in (("sysA", [3.0, 2.0, 1.0]), ("sysB", [0.5, 0.2, 0.1]))
        for i, value in enumerate(values)
    ]
    table = JudgmentTable.build(eval_set, metric_scores)
    assert len(table.units("m")) == 6
    assert table.segment_tau("m") is not None
    assert table.system_pairwise_accuracy("m") == 1.0


def test_robustness_report_structure_and_determinism(tmp_path):
    eval_set = load_robustness_corpus(tmp_path, n_systems=4, n_segments=12, seed=3)
    metrics = [BleuMetric(), ChrfMetric()]
    report = robustness_report(eval_set, metrics, seed=21, n_resamples=50)
    again = robustness_report(eval_set, metrics, seed=21, n_resamples=50)
    assert report.to_dict() == again.to_dict()

    assert len(report.contexts) == 1
    context = report.contexts[0]
    assert context.segments_comparable <= context.segments_total
    for rows in (context.segment_level, context.system_level):
        assert set(rows) == {"bleu", "chrf"}
        for pair in rows.values():
            if pair.ref_std is not None and pair.ref_mt is not None:
                assert pair.relative_change_pct == relative_change(
                    pair.ref_std, pair.ref_mt
                )
    conditions = {(e.metric_a, e.metric_b, e.condition) for e in context.significance}
    assert conditions == {("bleu", "chrf", "ref_std"), ("bleu", "chrf", "ref_mt")}
    assert set(report.segment_average) == {"bleu", "chrf"}

    table = report.format_table()
    assert "ref_std" in table and "ref_mt" in table
    assert "segment-level Kendall tau" in table


def test_robustness_report_different_seed_changes_sampling(tmp_path):
    eval_set = load_robustness_corpus(tmp_path, n_systems=4, n_segments=12, seed=3)
    metrics = [BleuMetric()]
    first = robustness_report(eval_set, metrics, seed=1, n_resamples=20)
    second = robustness_report(eval_set, metrics, seed=2, n_resamples=20)
    assert first.to_dict() != second.to_dict()


class CountingMetric:
    """A metric that counts its batch calls and the pairs they score."""

    def __init__(self, metric):
        self.metric = metric
        self.metric_id = metric.metric_id
        self.batches = 0
        self.calls = Counter()

    def segment_score(self, hypothesis, reference):
        raise AssertionError("scored one pair at a time")

    def score_pairs(self, pairs):
        self.batches += 1
        self.calls.update(pairs)
        return self.metric.score_pairs(pairs)


def test_robustness_report_scores_each_pair_once(tmp_path):
    eval_set = load_robustness_corpus(tmp_path, n_systems=6, n_segments=30)
    assert len(eval_set.group_keys()) == 1  # one context: counts are per context
    metrics = [CountingMetric(BleuMetric()), CountingMetric(ChrfMetric())]
    robustness_report(eval_set, metrics, seed=4, n_resamples=5)
    for metric in metrics:
        assert metric.batches == 1, metric.metric_id
        assert metric.calls
        assert max(metric.calls.values()) == 1, metric.metric_id


def test_robustness_report_builds_error_free_index_once_per_context(
    tmp_path, monkeypatch
):
    eval_set = load_robustness_corpus(tmp_path, n_systems=6, n_segments=30)
    built = []

    def counting(group):
        built.append(group.group_keys())
        return error_free_translations(group)

    monkeypatch.setattr(metaeval, "error_free_translations", counting)
    robustness_report(eval_set, [BleuMetric()], seed=4, n_resamples=5)
    assert built == [[key] for key in eval_set.group_keys()]


@pytest.mark.parametrize("seed", [3, 8])
def test_robustness_report_matches_rescoring_oracle(tmp_path, seed):
    eval_set = load_robustness_corpus(tmp_path, n_systems=6, n_segments=30)
    scorer = ToyScorer.from_texts(
        [tr.text for tr in eval_set.translations.values()], theta=(2.0, 1.0, 1.0)
    )
    metrics = [BleuMetric(), ChrfMetric(), PrismMetric(scorer)]
    report = robustness_report(eval_set, metrics, seed=seed, n_resamples=40)
    assert report.to_dict() == robustness_report_oracle(
        eval_set, metrics, seed=seed, n_resamples=40
    )


def _two_context_corpus(tmp_path):
    """``robustness_corpus_rows(6, 30, 11)`` with seg000-seg014 relabelled
    de-en, the references of seg003 and seg020 and sys2's ratings of seg004
    and seg021 dropped, and in de-en sys5 rated only on seg001, where it is
    the one error-free translation: segments without a standard reference
    or a rating, and five skipped system pairs."""
    segments, outputs, references, ratings = robustness_corpus_rows(6, 30, 11)
    de_en = {f"seg{i:03d}" for i in range(15)}
    for row in (*segments, *outputs, *references, *ratings):
        if row[3] in de_en:  # seg_id is the fourth field of every file
            row[0] = "de-en"
    references = [row for row in references if row[3] not in ("seg003", "seg020")]
    ratings = [
        row for row in ratings
        if not (row[2] == "sys2" and row[3] in ("seg004", "seg021"))
        and not (row[2] == "sys5" and row[0] == "de-en")
    ]
    ratings.append(["de-en", "news", "sys5", "seg001", "ann1", "", "no-error", "", ""])
    ratings += [
        ["de-en", "news", system, "seg001", "ann1", "accuracy/mistranslation",
         "major", "", ""]
        for system in ("sys1", "sys2", "sys3", "sys4", "sys6")
    ]
    paths = write_corpus_files(tmp_path / "two", segments, outputs, references, ratings)
    return load_corpus(paths)


@pytest.mark.parametrize("seed", [3, 8])
def test_robustness_report_matches_oracle_with_skipped_units_and_pairs(
    tmp_path, seed
):
    eval_set = _two_context_corpus(tmp_path)
    scorer = ToyScorer.from_texts(
        [tr.text for tr in eval_set.translations.values()], theta=(2.0, 1.0, 1.0)
    )
    metrics = [BleuMetric(), ChrfMetric(), PrismMetric(scorer)]
    report = robustness_report(eval_set, metrics, seed=seed, n_resamples=40)
    assert [(c.lang_pair, c.segments_comparable, c.segments_total)
            for c in report.contexts] == [("de-en", 10, 15), ("en-de", 5, 15)]
    assert report.contexts[0].skipped_system_pairs > 0
    assert report.to_dict() == robustness_report_oracle(
        eval_set, metrics, seed=seed, n_resamples=40
    )


def test_hash_seed_hashes_the_sampling_and_significance_keys():
    def blake(key):
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")

    assert _hash_seed(7, "segment-level|sys1", "seg003") == blake(
        "7|segment-level|sys1|seg003"
    )
    assert _hash_seed(7, "perm", "en-de|news", "ref_mt", "bleu|chrf") == blake(
        "7|perm|en-de|news|ref_mt|bleu|chrf"
    )
