from __future__ import annotations

import json
import math
import random
import warnings

import mpmath
import numpy as np
import pytest

import oracles
from prsafety import diagnostics as dg


# --- skewness ---------------------------------------------------------------------

def test_symmetric_sample_has_zero_skewness():
    for type in (1, 2, 3):
        assert dg.skewness([-1.0, 0.0, 1.0], type=type) == pytest.approx(0.0, abs=1e-15)


def test_skewed_sample_frozen_values():
    sample = [1.0, 2.0, 10.0]
    # m2 = 438/27, m3 = 3570/81, worked out by hand from the moment definitions
    assert dg.skewness(sample, type=1) == pytest.approx(0.6745554845457661, abs=1e-14)
    assert dg.skewness(sample, type=2) == pytest.approx(1.6523167403329906, abs=1e-14)
    assert dg.skewness(sample, type=3) == pytest.approx(0.3671814978517757, abs=1e-14)


def test_skewness_matches_moment_oracle():
    rng = random.Random(2718)
    for _ in range(50):
        n = rng.randrange(3, 40)
        sample = [rng.gauss(0, 1) + rng.expovariate(1.0) for _ in range(n)]
        for type in (1, 2, 3):
            assert dg.skewness(sample, type=type) == pytest.approx(
                oracles.skewness_moments(sample, type=type), abs=1e-12
            )


def test_type1_and_type3_are_affine_invariant():
    rng = random.Random(1618)
    for _ in range(30):
        n = rng.randrange(4, 25)
        sample = [rng.gauss(0, 2) for _ in range(n)]
        shift, scale = rng.uniform(-10, 10), rng.uniform(0.1, 9)
        moved = [shift + scale * v for v in sample]
        for type in (1, 3):
            assert dg.skewness(moved, type=type) == pytest.approx(
                dg.skewness(sample, type=type), abs=1e-9
            )
        # a sign flip negates it
        assert dg.skewness([-v for v in sample]) == pytest.approx(
            -dg.skewness(sample), abs=1e-9
        )


def test_skewness_sample_size_floor():
    dg.skewness([1.0, 2.0], type=1)
    for type in (2, 3):
        with pytest.raises(ValueError, match="at least 3"):
            dg.skewness([1.0, 2.0], type=type)
    with pytest.raises(ValueError, match="at least 2"):
        dg.skewness([1.0], type=1)


def test_constant_sample_is_undefined():
    with pytest.raises(dg.UndefinedSkewnessError):
        dg.skewness([4.0, 4.0, 4.0])


@pytest.mark.parametrize(
    "sample",
    [
        [5.017304323128728e-98] * 5,  # its spread cubed would underflow
        [0.1] * 3,  # the mean rounds off 0.1, leaving spread that is not there
        [0.7] * 7,
    ],
)
def test_a_constant_sample_is_undefined_whatever_its_mean_rounds_to(sample):
    for type in (1, 2, 3):
        with pytest.raises(dg.UndefinedSkewnessError, match="variance is zero"):
            dg.skewness(sample, type=type)


def test_skewness_survives_values_near_the_ends_of_the_float_range():
    assert dg.skewness([1e-160, 2e-160, 3e-160]) == 0.0
    sample = [1.0, 2.0, 10.0]
    for factor in (1e-160, 1e-300, 1e200):
        for type in (1, 2, 3):
            assert dg.skewness([v * factor for v in sample], type=type) == pytest.approx(
                dg.skewness(sample, type=type), rel=1e-14
            )


def test_bad_type_rejected():
    with pytest.raises(ValueError, match="type"):
        dg.skewness([1.0, 2.0, 3.0], type=4)


# --- log1p transform ---------------------------------------------------------------

def test_log1p_fixed_points():
    out = dg.log1p_transform([0.0, math.e - 1.0])
    assert out[0] == 0.0
    assert out[1] == pytest.approx(1.0, abs=1e-15)


def test_log1p_rejects_negatives():
    with pytest.raises(ValueError, match="non-negative"):
        dg.log1p_transform([1.0, -0.5])


def test_log1p_monotone_and_precise():
    rng = random.Random(31337)
    values = sorted(rng.uniform(0, 1e6) for _ in range(40))
    out = dg.log1p_transform(values)
    assert all(a < b for a, b in zip(out, out[1:]))
    with mpmath.workdps(40):
        for v, got in zip(values, out):
            assert got == pytest.approx(float(mpmath.log1p(v)), abs=1e-12)


# --- screening ---------------------------------------------------------------------

def test_imbalanced_binary_excluded():
    values = [0.0] * 491 + [1.0] * 9  # minority share 1.8%
    (decision,) = dg.screen_predictors({"flag": values}, {"flag": "binary"}).variables
    assert decision.action == "excluded"
    assert decision.minority_fraction == pytest.approx(0.018)
    assert "below" in decision.reason


def test_balanced_binary_retained():
    values = [0.0] * 475 + [1.0] * 25  # exactly at the 5% default
    (decision,) = dg.screen_predictors({"flag": values}, {"flag": "binary"}).variables
    assert decision.action == "retained"


def test_binary_with_other_values_rejected():
    with pytest.raises(ValueError, match="outside"):
        dg.screen_predictors({"flag": [0.0, 1.0, 2.0]}, {"flag": "binary"})


def test_empty_binary_excluded_without_a_fraction(tmp_path):
    # A corpus without pulls: no mean is taken, so no warning and no NaN.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = dg.screen_predictors({"flag": [], "v": []}, {"flag": "binary", "v": "continuous"})
    flag, v = report.variables
    assert (flag.action, flag.reason, flag.minority_fraction) == (
        "excluded", "no observations, minority class undefined", None
    )
    assert (v.action, v.reason) == ("excluded", "skewness type 3 needs at least 3 observations, got 0")
    dg.write_screening_report(report, tmp_path / "screening_report.json")
    json.loads(
        (tmp_path / "screening_report.json").read_text("utf-8"),
        parse_constant=lambda name: pytest.fail(f"{name} is not JSON"),
    )


def test_mild_continuous_retained():
    rng = random.Random(55)
    values = [rng.gauss(10, 2) for _ in range(200)]
    (decision,) = dg.screen_predictors({"v": values}, {"v": "continuous"}).variables
    assert decision.action == "retained"
    assert abs(decision.raw_skewness) <= 3.0
    assert decision.transformed_skewness is None


def test_heavy_tail_transformed():
    rng = random.Random(314)
    values = [math.exp(rng.gauss(0, 4)) for _ in range(300)]
    (decision,) = dg.screen_predictors({"v": values}, {"v": "continuous"}).variables
    assert decision.action == "transformed"
    assert abs(decision.raw_skewness) > 3.0
    assert abs(decision.transformed_skewness) <= 3.0


def test_spike_still_skewed_after_transform_is_excluded():
    values = [0.0] * 299 + [5e8]
    (decision,) = dg.screen_predictors({"v": values}, {"v": "continuous"}).variables
    assert decision.action == "excluded"
    assert abs(decision.transformed_skewness) > 3.0
    assert "after log1p" in decision.reason


def test_zero_variance_continuous_excluded_not_fatal():
    (decision,) = dg.screen_predictors({"v": [7.0] * 10}, {"v": "continuous"}).variables
    assert decision.action == "excluded"
    assert "undefined" in decision.reason


def test_too_few_values_continuous_excluded_not_fatal():
    with pytest.raises(dg.UndefinedSkewnessError, match="at least 3 observations, got 2"):
        dg.skewness([1.0, 2.0])
    (decision,) = dg.screen_predictors({"v": [1.0, 2.0]}, {"v": "continuous"}).variables
    assert (decision.action, decision.reason) == (
        "excluded", "skewness type 3 needs at least 3 observations, got 2"
    )
    type1 = dg.ScreeningConfig(skew_type=1)
    (decision,) = dg.screen_predictors({"v": [1.0]}, {"v": "continuous"}, type1).variables
    assert decision.reason == "skewness type 1 needs at least 2 observations, got 1"
    # Two equal values are enough for type 1, so the reason is the zero variance.
    (decision,) = dg.screen_predictors({"v": [4.0, 4.0]}, {"v": "continuous"}, type1).variables
    assert decision.reason == "zero variance, skewness undefined"


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        dg.screen_predictors({"v": [1.0, 2.0]}, {"v": "ordinal"})
    with pytest.raises(ValueError, match="kind"):
        dg.screen_predictors({"v": [1.0, 2.0]}, {})


def test_decisions_do_not_depend_on_column_order():
    rng = random.Random(8)
    table = {
        "a": [rng.gauss(0, 1) for _ in range(100)],
        "b": [math.exp(rng.gauss(0, 4)) for _ in range(100)],
        "c": [0.0] * 94 + [1.0] * 6,
    }
    kinds = {"a": "continuous", "b": "continuous", "c": "binary"}
    forward = dg.screen_predictors(table, kinds)
    reversed_table = dict(reversed(list(table.items())))
    backward = dg.screen_predictors(reversed_table, kinds)
    key = lambda report: {d.name: (d.action, d.reason) for d in report.variables}
    assert key(forward) == key(backward)


def test_report_serialization(tmp_path):
    config = dg.ScreeningConfig(skew_threshold=2.5, minority_threshold=0.1)
    report = dg.screen_predictors(
        {"flag": [0.0] * 50 + [1.0] * 50}, {"flag": "binary"}, config
    )
    path = tmp_path / "screening_report.json"
    dg.write_screening_report(report, path)
    payload = json.loads(path.read_text("utf-8"))
    assert payload["config"] == {
        "skew_threshold": 2.5,
        "minority_threshold": 0.1,
        "skew_type": 3,
    }
    assert [v["name"] for v in payload["variables"]] == ["flag"]
    assert payload["variables"][0]["action"] == "retained"
    table = report.format_table()
    assert "flag" in table and "retained" in table


def test_numpy_input_accepted():
    values = np.arange(10.0)
    assert dg.skewness(values) == pytest.approx(oracles.skewness_moments(list(values)), abs=1e-12)
