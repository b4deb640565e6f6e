"""Float sums run left to right from 0.0, on every Python.

From Python 3.12 on, builtin ``sum()`` of floats compensates its rounding
errors, so output bytes would depend on the interpreter. Each case below
is one where the sequential and the compensated sum differ (``math.fsum``
stands in for the compensated one), so each would fail under 3.12 with
``sum()``.

The compensated sums of the metrics (``metrics.fsum_mean`` and ``fsums``)
keep ``math.fsum``'s bits, and where a sum of finite terms overflows they
give its exactly rounded value on a power-of-two scale.
"""

import ast
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from metricfit import cli
from metricfit.corpus import MqmError, MqmRating, SeverityWeights, mqm_score
from metricfit.metrics import _segment_bleu_score, fsum_mean, fsums

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


def _overflows(values):
    try:
        math.fsum(values)
    except OverflowError:
        return True
    return False


def _round53(value: Fraction) -> Fraction:
    """``value`` rounded to 53 significant bits, half to even, with no
    exponent limit."""
    if not value:
        return value
    exponent = abs(value.numerator).bit_length() - value.denominator.bit_length()
    if abs(value) < Fraction(2) ** exponent:
        exponent -= 1  # now 2**exponent <= |value| < 2**(exponent + 1)
    scale = Fraction(2) ** (exponent - 52)
    return round(value / scale) * scale


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# signed magnitudes of 1 and more, many near the top of the float range, so
# that every term keeps its bits on the scale of fsums
_LARGE = st.builds(
    math.copysign,
    st.one_of(st.floats(2.0**1000, sys.float_info.max), st.floats(1.0, 2.0**1000)),
    st.sampled_from([1.0, -1.0]),
)


@settings(max_examples=300)
@given(values=st.lists(_FINITE, min_size=1, max_size=30))
@example(values=[0.1, 0.2, 0.3])
@example(values=[-0.0])
def test_fsum_mean_is_fsum_over_count_where_the_sum_is_finite(values):
    assume(not _overflows(values))
    assert fsum_mean(values).hex() == (math.fsum(values) / len(values)).hex()


@settings(max_examples=300, suppress_health_check=[HealthCheck.filter_too_much])
@given(values=st.lists(_LARGE, min_size=2, max_size=30))
@example(values=[sys.float_info.max] * 3)
@example(values=[1e308, 1e308, -1e308, -1e308, 1.0])
def test_fsum_mean_of_an_overflowing_sum_is_the_rounded_mean_on_a_scale(values):
    """fsum then divide, as in a float format with a wider exponent: the
    exact sum rounded to 53 bits, over the count, rounded again."""
    assume(_overflows(values))
    exact = _round53(_round53(sum(map(Fraction, values))) / len(values))
    assert fsum_mean(values).hex() == float(exact).hex()


@settings(max_examples=300)
@given(groups=st.lists(st.lists(_LARGE, max_size=20), min_size=2, max_size=2))
@example(groups=[[1e308, 1e308], [1e308, 1e308, -1.0]])
def test_fsums_order_the_sums_as_their_exact_sums(groups):
    """Both sums of a comparison on one scale: each finite, with the order
    of the exact sums, and ``math.fsum`` itself where nothing overflows."""
    sums, k = fsums(groups)
    exact = [sum(map(Fraction, group)) for group in groups]
    assert all(map(math.isfinite, sums))
    assert [Fraction(total) for total in sums] == [
        _round53(total / 2**k) for total in exact
    ]
    if exact[0] < exact[1]:
        assert sums[0] <= sums[1]
    if not any(map(_overflows, groups)):
        assert k == 0 and sums == [math.fsum(group) for group in groups]


# Builtin sum() calls that add integers (counts, lengths, booleans), by
# (module, innermost function).
INTEGER_SUMS = {
    ("metaeval", "_accuracy"),
    ("metrics", "__init__"),
    ("metrics", "_chunks"),
    ("metrics", "bleu"),
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


def test_every_private_definition_is_used():
    """Every private function, method and class under ``src/metricfit``
    (a leading underscore, not a dunder) is named somewhere besides its own
    definition, so code that nothing calls fails the suite."""
    nodes = [
        node
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
    ]
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = {
        node.name
        for node in nodes
        if isinstance(node, definitions)
        and node.name.startswith("_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    named = {
        getattr(node, "id", None) or getattr(node, "attr", None) or node.name
        for node in nodes
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }
    assert "_evaluate" in defined
    assert sorted(defined - named) == []
