from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from prsafety import glm


def _random_dataset(rng, n, p):
    X = np.column_stack(
        [np.ones(n)] + [rng.standard_normal(n) for _ in range(p - 1)]
    )
    truth = rng.uniform(-1.2, 1.2, size=p)
    prob = 1.0 / (1.0 + np.exp(-(X @ truth)))
    y = (rng.random(n) < prob).astype(float)
    if y.min() == y.max():  # degenerate draw; flip one outcome
        y[0] = 1.0 - y[0]
    return X, y


def _columns(rows):
    """Row dicts transposed into the frame encode_design reads; a key a row
    lacks reads as None there."""
    names = dict.fromkeys(name for row in rows for name in row)
    return {name: [row.get(name) for row in rows] for name in names}


def _spec(**overrides):
    kwargs = dict(name="m", outcome="y", predictors=("a", "b"))
    kwargs.update(overrides)
    return glm.ModelSpec(**kwargs)


# --- design encoding -----------------------------------------------------------

def test_encode_design_by_hand():
    rows = [
        {"y": 1, "a": 2.0, "b": "red"},
        {"y": 0, "a": 3.0, "b": "blue"},
        {"y": 1, "a": 5.0, "b": "red"},
        {"y": 0, "a": 7.0, "b": "green"},
    ]
    spec = _spec(categorical={"b": ("blue", "green", "red")})
    design = glm.encode_design(_columns(rows), spec)
    assert design.columns == ("Intercept", "a", "b (green)", "b (red)")
    assert design.n_dropped == 0
    np.testing.assert_array_equal(design.y, [1.0, 0.0, 1.0, 0.0])
    np.testing.assert_array_equal(
        design.X,
        [
            [1.0, 2.0, 0.0, 1.0],
            [1.0, 3.0, 0.0, 0.0],
            [1.0, 5.0, 0.0, 1.0],
            [1.0, 7.0, 1.0, 0.0],
        ],
    )


def test_encode_design_skips_absent_levels():
    rows = [
        {"y": 1, "a": 1.0, "b": "blue"},
        {"y": 0, "a": 2.0, "b": "red"},
    ]
    spec = _spec(categorical={"b": ("blue", "green", "red")})
    assert glm.encode_design(_columns(rows), spec).columns == ("Intercept", "a", "b (red)")


def test_encode_design_takes_the_first_observed_level_as_reference():
    # Without "small", "medium" is the reference; a dummy for each of the two
    # observed levels would sum to the intercept.
    rows = [{"y": i % 2, "a": float(i), "c": "large" if i % 3 == 0 else "medium"} for i in range(12)]
    spec = _spec(predictors=("a", "c"), categorical={"c": ("small", "medium", "large")})
    design = glm.encode_design(_columns(rows), spec)
    assert design.columns == ("Intercept", "a", "c (large)")
    np.testing.assert_array_equal(design.X[:, 2], [float(row["c"] == "large") for row in rows])
    assert glm.fit_logistic(design.X, design.y, design.columns).converged


def test_encode_design_adds_no_column_for_a_single_observed_level():
    rows = [{"y": i % 2, "a": float(i), "c": "large"} for i in range(6)]
    spec = _spec(predictors=("a", "c"), categorical={"c": ("small", "medium", "large")})
    assert glm.encode_design(_columns(rows), spec).columns == ("Intercept", "a")


def test_encode_design_drops_and_counts_missing():
    rows = [
        {"y": 1, "a": 1.0, "b": 0.0},
        {"y": None, "a": 2.0, "b": 1.0},
        {"y": 0, "a": float("nan"), "b": 1.0},
        {"y": 0, "a": 3.0},  # b absent entirely
        {"y": 0, "a": 4.0, "b": 1.0},
    ]
    design = glm.encode_design(_columns(rows), _spec())
    assert design.n_dropped == 3
    assert design.X.shape == (2, 3)


def test_encode_design_applies_log1p():
    rows = [{"y": i % 2, "a": float(i), "b": float(i * i)} for i in range(6)]
    spec = _spec(transforms={"b": "log1p"})
    design = glm.encode_design(_columns(rows), spec)
    np.testing.assert_allclose(design.X[:, 2], np.log1p([i * i for i in range(6)]))


@pytest.mark.parametrize(
    "rows,spec,match",
    [
        ([{"y": 2, "a": 1.0, "b": 2.0}, {"y": 0, "a": 2.0, "b": 1.0}], _spec(), "outside"),
        (
            [{"y": 1, "a": 1.0, "b": 5.0}, {"y": 0, "a": 2.0, "b": 5.0}],
            _spec(),
            "constant",
        ),
        (
            [{"y": 1, "a": 1.0, "b": "tiny"}, {"y": 0, "a": 2.0, "b": "big"}],
            _spec(categorical={"b": ("big",)}),
            "undeclared",
        ),
        (
            [{"y": 1, "a": 1.0, "b": 2.0}, {"y": 0, "a": 2.0, "b": 1.0}],
            _spec(transforms={"a": "sqrt"}),
            "unknown transform",
        ),
        (
            [{"y": 1, "a": 1.0, "b": -2.0}, {"y": 0, "a": 2.0, "b": 1.0}],
            _spec(transforms={"b": "log1p"}),
            "non-negative",
        ),
        (
            [{"y": 1, "a": "word", "b": 2.0}, {"y": 0, "a": "word2", "b": 1.0}],
            _spec(),
            "categorical",
        ),
        ([{"y": None, "a": 1.0, "b": 2.0}], _spec(), "no complete rows"),
    ],
)
def test_encode_design_rejections(rows, spec, match):
    with pytest.raises(glm.DesignError, match=match):
        glm.encode_design(_columns(rows), spec)


_MISSING = st.sampled_from([None, math.nan])
_NUMBER = st.integers(-3, 40) | st.floats(-3.0, 1e6, allow_nan=False) | st.booleans()
_LEVELS = ("small", "medium", "large")


def _cells(value):
    """About one cell in six is missing (a middle index, since hypothesis
    draws the first element of a sample more often than the others)."""
    return st.tuples(st.sampled_from(range(6)), value, _MISSING).map(
        lambda t: t[2] if t[0] == 3 else t[1]
    )


_CELLS = {
    "y": _cells(st.sampled_from([0, 1, 0.0, 1.0, False, True])),
    "a": _cells(_NUMBER),
    "b": _cells(_NUMBER),
    "c": _cells(st.sampled_from(_LEVELS)),
}
# A value each variable rejects: an outcome off {0, 1}, a word where a
# number belongs, an undeclared level.
_BAD = {"y": 2, "a": "word", "c": "huge"}


@st.composite
def _frames(draw):
    """A drawn frame and spec: missing cells, an absent column, float-array
    and list columns, categorical levels, transforms and bad values."""
    n = draw(st.integers(0, 10))
    frame = {name: draw(st.lists(cells, min_size=n, max_size=n)) for name, cells in _CELLS.items()}
    bad = draw(st.sampled_from([None] * 6 + list(_BAD)))
    if bad and n:
        frame[bad][draw(st.integers(0, n - 1))] = _BAD[bad]
    for name in ("a", "b"):
        if "word" not in frame[name] and draw(st.booleans()):
            frame[name] = np.array(frame[name], dtype=float)  # as the pipeline passes them
    absent = draw(st.sampled_from([None] * 12 + list(_CELLS)))
    if absent:
        del frame[absent]
    spec = glm.ModelSpec(
        name="m",
        outcome="y",
        predictors=tuple(draw(st.permutations(["a", "b", "c"]))[: draw(st.integers(1, 3))]),
        categorical={"c": _LEVELS},
        transforms=draw(
            st.fixed_dictionaries(
                {}, optional={"a": st.sampled_from(["log1p", "sqrt"]), "b": st.just("log1p")}
            )
        ),
    )
    return frame, spec


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(drawn=_frames())
def test_column_encoder_matches_the_row_oracle(drawn):
    frame, spec = drawn
    n = max(map(len, frame.values()), default=0)
    rows = [{name: column[i] for name, column in frame.items()} for i in range(n)]
    try:
        X, y, columns, n_dropped = oracles.encode_design_rows(rows, spec)
    except ValueError as exc:
        with pytest.raises(glm.DesignError) as rejected:
            glm.encode_design(frame, spec)
        assert str(rejected.value) == str(exc)
        return
    design = glm.encode_design(frame, spec)
    assert (design.X.shape, design.X.tobytes()) == (X.shape, X.tobytes())
    assert design.y.tobytes() == y.tobytes()
    assert (design.columns, design.n_dropped) == (columns, n_dropped)


# --- exact fits ------------------------------------------------------------------

def test_intercept_only_balanced_fit_is_exact():
    X = np.ones((10, 1))
    y = np.array([1.0] * 5 + [0.0] * 5)
    fit = glm.fit_logistic(X, y, ["Intercept"])
    assert fit.coefficients[0] == pytest.approx(0.0, abs=1e-10)
    assert fit.log_likelihood == pytest.approx(10 * math.log(0.5), abs=1e-10)
    assert fit.aic == pytest.approx(15.862943611198906, abs=1e-10)
    assert fit.bic == pytest.approx(16.16552870419295, abs=1e-10)
    assert fit.deviance == pytest.approx(-2 * fit.log_likelihood, abs=1e-12)
    assert fit.converged


def test_binary_predictor_matches_closed_form():
    n00, n01, n10, n11 = 40, 10, 20, 30
    x = np.array([0.0] * (n00 + n01) + [1.0] * (n10 + n11))
    y = np.array([0.0] * n00 + [1.0] * n01 + [0.0] * n10 + [1.0] * n11)
    fit = glm.fit_logistic(np.column_stack([np.ones(x.size), x]), y, ["Intercept", "x"])
    beta0, beta1, se0, se1 = oracles.two_by_two_mle(n00, n01, n10, n11)
    assert fit.coefficients == pytest.approx([beta0, beta1], abs=1e-8)
    assert fit.standard_errors == pytest.approx([se0, se1], abs=1e-8)


def test_random_fits_match_newton_oracle():
    rng = np.random.default_rng(1234)
    for _ in range(5):
        X, y = _random_dataset(rng, int(rng.integers(60, 200)), int(rng.integers(2, 5)))
        fit = glm.fit_logistic(X, y)
        beta, se = oracles.fit_newton_oracle(X, y)
        assert fit.coefficients == pytest.approx(beta, abs=1e-6)
        assert fit.standard_errors == pytest.approx(se, abs=1e-6)


def test_score_equations_hold_at_optimum():
    rng = np.random.default_rng(99)
    X, y = _random_dataset(rng, 300, 4)
    fit = glm.fit_logistic(X, y)
    score = oracles.log_likelihood_gradient(X, y, fit.coefficients)
    assert np.max(np.abs(score)) < 1e-6 * X.shape[0]
    # the intercept score equation makes fitted and observed totals agree
    prob = 1.0 / (1.0 + np.exp(-(X @ fit.coefficients)))
    assert float(prob.sum()) == pytest.approx(float(y.sum()), abs=1e-8 * X.shape[0])


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    X, y = _random_dataset(rng, 80, 3)
    for _ in range(10):
        beta = rng.uniform(-2, 2, size=3)
        grad = oracles.log_likelihood_gradient(X, y, beta)
        assert grad == pytest.approx(oracles.fd_gradient(X, y, beta), abs=1e-6)


def test_log_likelihood_matches_oracle_and_survives_extremes():
    rng = np.random.default_rng(21)
    X, y = _random_dataset(rng, 50, 3)
    for scale in (1.0, 10.0, 500.0):  # large etas must not overflow
        beta = rng.uniform(-1, 1, size=3) * scale
        assert glm.log_likelihood(X, y, beta) == pytest.approx(
            oracles.logistic_ll(X, y, beta), rel=1e-12
        )


# --- invariances -------------------------------------------------------------------

def test_column_rescaling_rescales_coefficient():
    rng = np.random.default_rng(17)
    X, y = _random_dataset(rng, 250, 3)
    fit = glm.fit_logistic(X, y)
    scaled = X.copy()
    scaled[:, 2] *= 40.0
    refit = glm.fit_logistic(scaled, y)
    assert refit.coefficients[2] == pytest.approx(fit.coefficients[2] / 40.0, abs=1e-8)
    assert refit.log_likelihood == pytest.approx(fit.log_likelihood, abs=1e-8)


def test_row_permutation_invariance():
    rng = np.random.default_rng(29)
    X, y = _random_dataset(rng, 150, 3)
    fit = glm.fit_logistic(X, y)
    order = rng.permutation(y.size)
    refit = glm.fit_logistic(X[order], y[order])
    assert refit.coefficients == pytest.approx(fit.coefficients, abs=1e-6)
    assert refit.log_likelihood == pytest.approx(fit.log_likelihood, abs=1e-8)


def test_odds_ratios_track_coefficient_signs():
    rng = np.random.default_rng(31)
    X, y = _random_dataset(rng, 200, 4)
    fit = glm.fit_logistic(X, y)
    for coefficient, odds_ratio in zip(fit.coefficients, fit.odds_ratios, strict=True):
        assert odds_ratio == pytest.approx(math.exp(coefficient), rel=1e-12)
        assert (odds_ratio > 1.0) == (coefficient > 0.0)


def test_significance_star_boundaries():
    assert glm.significance_stars(0.0009) == "***"
    assert glm.significance_stars(0.001) == "**"
    assert glm.significance_stars(0.0099) == "**"
    assert glm.significance_stars(0.01) == "*"
    assert glm.significance_stars(0.049) == "*"
    assert glm.significance_stars(0.05) == ""


def test_two_sided_p_value_definition():
    assert glm.normal_sf_two_sided(0.0) == pytest.approx(1.0)
    assert glm.normal_sf_two_sided(1.959963984540054) == pytest.approx(0.05, abs=1e-12)
    assert glm.normal_sf_two_sided(-1.959963984540054) == pytest.approx(0.05, abs=1e-12)


# --- failure modes -----------------------------------------------------------------

def test_perfect_separation_is_an_error():
    x = np.array([-2.0, -1.5, -1.0, 1.0, 1.5, 2.0])
    y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    with pytest.raises(glm.SeparationError, match="x"):
        glm.fit_logistic(np.column_stack([np.ones(6), x]), y, ["Intercept", "x"])


def test_rank_deficiency_names_columns():
    rng = np.random.default_rng(41)
    X, y = _random_dataset(rng, 100, 2)
    X = np.column_stack([X, X[:, 1]])
    with pytest.raises(glm.RankDeficiencyError) as info:
        glm.fit_logistic(X, y, ["Intercept", "a", "a_copy"])
    assert {"a", "a_copy"} <= set(info.value.columns)


def test_shape_and_coding_errors():
    y = np.array([0.0, 1.0])
    with pytest.raises(glm.DesignError, match="2-d"):
        glm.fit_logistic(np.ones(2), y)
    with pytest.raises(glm.DesignError, match="shape"):
        glm.fit_logistic(np.ones((3, 1)), y)
    with pytest.raises(glm.DesignError, match="0/1"):
        glm.fit_logistic(np.ones((2, 1)), np.array([1.0, 2.0]))
    with pytest.raises(glm.DesignError, match="column names"):
        glm.fit_logistic(np.ones((2, 1)), y, ["a", "b"])


# --- variance inflation --------------------------------------------------------------

def test_vif_orthogonal_design_is_one():
    X = np.array(
        [
            [1.0, 1.0, 1.0],
            [1.0, 1.0, -1.0],
            [1.0, -1.0, 1.0],
            [1.0, -1.0, -1.0],
        ]
    )
    out = glm.vif(X, ["Intercept", "a", "b"])
    assert out["a"] == pytest.approx(1.0, abs=1e-10)
    assert out["b"] == pytest.approx(1.0, abs=1e-10)
    assert glm.vif_gate(out)


def test_vif_duplicate_column_is_infinite():
    rng = np.random.default_rng(43)
    x = rng.standard_normal(50)
    X = np.column_stack([np.ones(50), x, x])
    out = glm.vif(X, ["Intercept", "a", "a_copy"])
    assert math.isinf(out["a"])
    assert math.isinf(out["a_copy"])
    assert not glm.vif_gate(out)


def test_vif_matches_normal_equations_oracle():
    rng = np.random.default_rng(47)
    base = rng.standard_normal((120, 3))
    correlated = base[:, 0] * 0.8 + rng.standard_normal(120) * 0.4
    X = np.column_stack([np.ones(120), base, correlated])
    names = ["Intercept", "a", "b", "c", "d"]
    out = glm.vif(X, names)
    expected = oracles.vif_normal_equations(X)
    assert [out[n] for n in names[1:]] == pytest.approx(expected, abs=1e-8)
    assert all(v >= 1.0 - 1e-10 for v in out.values())


def test_vif_name_mismatch():
    with pytest.raises(glm.DesignError, match="column names"):
        glm.vif(np.ones((4, 2)), ["only_one"])


# --- canned specifications ------------------------------------------------------------

def test_canned_model_specs_shapes():
    specs = glm.canned_model_specs({"followers": "log1p"})
    assert [s.name for s in specs] == ["model_1", "model_2", "model_3"]
    assert specs[0].outcome == "sustainedp_or_not_12"
    assert specs[1].outcome == specs[2].outcome == "recent_sustainedp_or_not"
    assert specs[0].predictors[0] == "PS_index_repository"
    assert specs[2].predictors[0] == "sustainedp_or_not_12"
    assert set(specs[2].predictors[1:]) == set(specs[0].predictors)
    for spec in specs:
        assert spec.categorical["repo_size"] == ("small", "medium", "large")
        assert spec.transforms == {"followers": "log1p"}


def _labelled_rows(n, rng):
    """Rows whose two outcomes are nested the way overlapping horizons force:
    every 12-month sustained contributor is also recently active."""
    rows = []
    for _ in range(n):
        sustained = rng.random() < 0.45
        recent = True if sustained else rng.random() < 0.3
        rows.append(
            {
                "sustainedp_or_not_12": int(sustained),
                "recent_sustainedp_or_not": int(recent),
                "PS_index_repository": rng.uniform(0, 3),
                "core_member": int(rng.random() < 0.3),
                "contrib_rate_author": rng.random(),
                "followers": rng.uniform(0, 50),
                "num_languages": rng.uniform(0, 4),
                "contrib_follow_integrator": int(rng.random() < 0.4),
                "social_strength": rng.uniform(0, 1),
                "repo_size": ("small", "medium", "large")[int(rng.random() * 3)],
            }
        )
    return rows


def test_nested_outcome_model_is_structurally_separated():
    # With one horizon inside the other, sustained rows can never have
    # recent = 0, so the third canned model has an empty margin cell and no
    # maximum-likelihood estimate on any corpus with that nesting.
    rng = random.Random(8080)
    rows = _labelled_rows(400, rng)
    assert all(
        row["recent_sustainedp_or_not"] >= row["sustainedp_or_not_12"] for row in rows
    )
    spec = glm.canned_model_specs()[2]
    design = glm.encode_design(_columns(rows), spec)
    with pytest.raises(glm.SeparationError):
        glm.fit_logistic(design.X, design.y, design.columns)


def test_first_two_canned_models_fit_nested_rows():
    rng = random.Random(9090)
    rows = _labelled_rows(400, rng)
    for spec in glm.canned_model_specs()[:2]:
        design = glm.encode_design(_columns(rows), spec)
        fit = glm.fit_logistic(design.X, design.y, design.columns)
        assert fit.converged
        assert fit.n_observations == 400
