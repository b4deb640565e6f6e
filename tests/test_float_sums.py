"""Float sums run left to right from 0.0, on every Python.

From Python 3.12 on, builtin ``sum()`` of floats compensates its rounding
errors, so output bytes would depend on the interpreter. Each case below
is one where the sequential and the compensated sum differ (``math.fsum``
stands in for the compensated one), so each would fail under 3.12 with
``sum()``.
"""

import ast
import math
from pathlib import Path

import pytest

from metricfit import cli
from metricfit.corpus import MqmError, MqmRating, SeverityWeights, mqm_score
from metricfit.metrics import _segment_bleu_score

SOURCE = Path(__file__).resolve().parent.parent / "src" / "metricfit"


def _sequential(values):
    total = 0.0
    for value in values:
        total += value
    return total


def test_mqm_score_adds_weights_in_order():
    weights = SeverityWeights(major=1e16)
    errors = [
        MqmError("accuracy/mistranslation", "major"),
        MqmError("accuracy/omission", "minor"),
        MqmError("style/awkward", "minor"),
    ]
    rating = MqmRating("ann", "sys", "seg", tuple(errors))
    assert math.fsum([1e16, 1.0, 1.0]) != 1e16
    assert mqm_score(rating, weights).hex() == (1e16).hex()
    assert mqm_score(MqmRating("ann", "sys", "seg"), weights).hex() == (0.0).hex()


def test_cli_mean_adds_values_in_order():
    values = [0.1, 0.2, 0.3]
    assert math.fsum(values) != _sequential(values)
    assert cli._mean(values).hex() == (_sequential(values) / 3).hex()


# (hypothesis length, reference length, matches per order), drawn from
# the cases where the two sums of the log precisions differ
@pytest.mark.parametrize(
    "hyp_len, ref_len, matches",
    [(4, 4, [3, 1, 0, 0]), (4, 4, [4, 2, 1, 0]), (5, 5, [3, 1, 0, 0])],
)
def test_segment_bleu_adds_log_precisions_in_order(hyp_len, ref_len, matches):
    logs = [
        math.log((matched + (order > 1)) / (hyp_len - order + 1 + (order > 1)))
        for order, matched in enumerate(matches, 1)
    ]
    penalty = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    expected = 100.0 * penalty * math.exp(_sequential(logs) / 4)
    assert expected != 100.0 * penalty * math.exp(math.fsum(logs) / 4)
    assert _segment_bleu_score(hyp_len, ref_len, matches).hex() == expected.hex()


# Builtin sum() calls that add integers (counts, lengths, booleans), by
# (module, innermost function).
INTEGER_SUMS = {
    ("metaeval", "_accuracy"),
    ("metrics", "__init__"),
    ("metrics", "_chunks"),
    ("metrics", "bleu"),
    ("training", "ranking_accuracy"),
}


def _sum_calls(node, function=None):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
    ):
        yield function
    for child in ast.iter_child_nodes(node):
        yield from _sum_calls(child, function)


def test_builtin_sum_adds_only_integers():
    """Every builtin ``sum()`` under ``src/metricfit`` is an integer sum on
    the allowlist, and every allowlisted function still has one."""
    calls = {
        (path.stem, function)
        for path in sorted(SOURCE.glob("*.py"))
        for function in _sum_calls(ast.parse(path.read_text(), str(path)))
    }
    assert calls == INTEGER_SUMS
