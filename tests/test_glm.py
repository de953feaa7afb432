from __future__ import annotations

import math
import random
import re

import numpy as np
import pytest
from hypothesis import event, example, given, settings
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


@st.composite
def _sized_frames(draw):
    """A continuous predictor, repo sizes with at least two levels observed,
    and a binary outcome."""
    n = draw(st.integers(8, 40))
    sizes = draw(st.lists(st.sampled_from(_LEVELS), min_size=n - 2, max_size=n - 2))
    sizes += draw(st.permutations(_LEVELS))[:2]
    return {
        "y": draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)),
        "a": draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)),
        "repo_size": sizes,
    }


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(frame=_sized_frames(), order=st.permutations(_LEVELS))
@example(  # a finite MLE: two small-level rows overlap at a = -2.41 and pin the
    # intercept at -29; one level's |b| sd reads 17 under one order, 20.8 under another
    frame={
        "y": [1, 0, 0, 1, 0, 0, 0, 0, 1, 0],
        "a": [0.0, 0.0, 0.0, 0.75, 1.5, -2.421875, 0.0, 0.0, -2.40625, 0.0],
        "repo_size": ["large", "small", "small", "medium", "medium", "small", "small", "small", "small", "large"],
    },
    order=("medium", "small", "large"),
)
def test_the_reference_level_moves_no_fitted_probability(frame, order):
    # Which observed level is the reference reparametrizes the model: the
    # fitted probabilities, the log-likelihood and the verdict stay put.
    def fitted(levels):
        spec = _spec(predictors=("a", "repo_size"), categorical={"repo_size": levels})
        try:
            design = glm.encode_design(frame, spec)
            fit = glm.fit_logistic(design.X, design.y, design.columns)
        except glm.DesignError as exc:
            return type(exc).__name__, None, None
        except glm.SeparationError:
            return "SeparationError", None, None
        return "fit", glm._sigmoid(design.X @ fit.coefficients), fit.log_likelihood

    verdict, probabilities, ll = fitted(_LEVELS)
    event(verdict)
    permuted = fitted(tuple(order))
    assert permuted[0] == verdict
    if verdict == "fit":
        np.testing.assert_allclose(permuted[1], probabilities, rtol=0, atol=1e-8)
        assert permuted[2] == pytest.approx(ll, abs=1e-8)


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
    with pytest.raises(glm.DesignError, match="no rows"):
        glm.fit_logistic(np.ones((0, 2)), y[:0])
    with pytest.raises(glm.DesignError, match="0/1"):
        glm.fit_logistic(np.ones((2, 1)), np.array([1.0, 2.0]))
    with pytest.raises(glm.DesignError, match="column names"):
        glm.fit_logistic(np.ones((2, 1)), y, ["a", "b"])


def test_rank_check_on_r_names_what_the_svd_of_x_names():
    # The verdict and the named columns come from the p x p factor R; the
    # n x p SVD gives the same ones.
    rng = np.random.default_rng(53)
    for planted in range(4):
        X, y = _random_dataset(rng, 120, 4)
        if planted:
            X = np.column_stack([X, X[:, 1] - planted * X[:, 3]])
        names = [f"c{j}" for j in range(X.shape[1])]
        _, singular, vt = np.linalg.svd(X, full_matrices=False)
        deficient = singular <= singular[0] * max(X.shape) * np.finfo(float).eps
        expected = [names[j] for j in range(X.shape[1]) if np.any(np.abs(vt[deficient, j]) > 1e-8)]
        try:
            glm._check_rank(X, np.ones(len(X), dtype=np.int64), names)
        except glm.RankDeficiencyError as exc:
            assert sorted(exc.columns) == expected
        else:
            assert expected == []
        assert bool(expected) == bool(planted)


# --- the cell scan and runaway growth ------------------------------------------------

_SCAN_EMPTY = re.compile(r"no row has (.+) = ([01]) and outcome ([01])$")


def _scan(X, y, names):
    """The scan's verdict: None, or the (column index, v, o) of the cell it names."""
    try:
        glm._check_cells(X, y, np.ones(len(y), dtype=np.int64), names)
    except glm.SeparationError as exc:
        column, v, o = _SCAN_EMPTY.search(str(exc)).groups()
        assert column == exc.column
        return names.index(column), int(v), int(o)
    return None


def _oracle_scan(X, y):
    """The first empty cell by the row-loop counts, in column, x value, outcome
    order; x = 0 cells count only beside a column of ones."""
    tables = oracles.cell_counts(X.tolist(), y.tolist())
    has_ones = any(set(v for v, _ in table) == {1} for table in tables.values())
    for j in sorted(tables):
        for (v, o), rows in sorted(tables[j].items()):
            if rows == 0 and (v == 1 or has_ones):
                return j, v, o
    return None


def _assert_certificate(X, y, j, v, o):
    """+-e_j (x = 1 cell) or +-(ones - e_j) (x = 0 cell) quasi-separates:
    X d >= 0 on y = 1 rows, <= 0 on y = 0 rows, and X d is not all zero."""
    d = np.zeros(X.shape[1])
    d[j] = 1.0
    if v == 0:
        (ones,) = [k for k in range(X.shape[1]) if np.all(X[:, k] == 1.0)][:1]
        d = -d
        d[ones] += 1.0
    if o == 1:
        d = -d
    assert np.any(d != 0)
    margin = X @ d
    assert np.all(margin[y == 1] >= 0) and np.all(margin[y == 0] <= 0)
    assert np.any(margin != 0)


def _design(columns, y):
    return np.column_stack([np.asarray(c, dtype=float) for c in columns]), np.asarray(y, dtype=float)


_ONES, _X = [1] * 6, [0, 0, 0, 1, 1, 1]


@pytest.mark.parametrize(
    "columns,y,expected",
    [
        # separated: x = y
        ([_ONES, _X], [0, 0, 0, 1, 1, 1], (1, 0, 1)),
        # quasi-separated: every x = 1 row has outcome 1
        ([_ONES, _X], [0, 1, 0, 1, 1, 1], (1, 1, 0)),
        # quasi-separated on the x = 0 side, which the ones column certifies
        ([_ONES, _X], [1, 1, 1, 0, 1, 0], (1, 0, 0)),
        # the same x = 0 cell without a ones column is no certificate
        ([_X, [0.5, -1, 2, 0.3, 1, -2]], [1, 1, 1, 0, 1, 0], None),
        # overlapping
        ([_ONES, _X], [0, 1, 0, 1, 0, 1], None),
        # a constant outcome empties a cell of the ones column itself
        ([_ONES, [0.5, -1, 2, 0.3, 1, -2]], [1] * 6, (0, 1, 0)),
    ],
)
def test_cell_scan_on_constructed_designs(columns, y, expected):
    X, y = _design(columns, y)
    assert _scan(X, y, [f"c{j}" for j in range(X.shape[1])]) == expected == _oracle_scan(X, y)
    if expected is not None:
        _assert_certificate(X, y, *expected)


@st.composite
def _scan_designs(draw):
    """Small designs of 0/1 and continuous columns, with or without a ones
    column, whose outcomes often leave a cell empty."""
    n = draw(st.integers(1, 12))
    bits = st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)
    columns = draw(st.lists(bits | st.lists(st.floats(-3, 3), min_size=n, max_size=n), min_size=1, max_size=4))
    if draw(st.booleans()):
        columns.insert(draw(st.integers(0, len(columns))), [1.0] * n)
    return _design(columns, draw(bits))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(design=_scan_designs())
def test_cell_scan_matches_the_count_oracle(design):
    X, y = design
    found = _scan(X, y, [f"c{j}" for j in range(X.shape[1])])
    assert found == _oracle_scan(X, y)
    if found is not None:
        _assert_certificate(X, y, *found)


def test_a_fit_the_scan_passes_is_bit_identical_without_it(monkeypatch):
    rng = np.random.default_rng(59)
    designs = []
    for _ in range(4):
        X, y = _random_dataset(rng, 200, 3)
        flags = (rng.random((200, 2)) < 0.4).astype(float)
        designs.append((np.column_stack([X, flags]), y))
    fits = [glm.fit_logistic(X, y) for X, y in designs]
    monkeypatch.setattr(glm, "_check_cells", lambda X, y, w, columns: None)
    for (X, y), fit in zip(designs, fits):
        bare = glm.fit_logistic(X, y)
        for name, value in fit.to_json().items():
            assert repr(bare.to_json()[name]) == repr(value), name


def _verdict(design):
    try:
        fit = glm.fit_logistic(design.X, design.y, design.columns)
    except glm.SeparationError as exc:
        return "separated", exc.column
    return "fit", fit.converged


def test_rescaling_followers_moves_no_verdict():
    # followers has by far the largest spread of the controls; the bound
    # reads the linear predictor, so no unit change flips a fit.
    rng = random.Random(6060)
    rows = _labelled_rows(400, rng)
    for row in rows:  # an outcome that leans on followers, nesting kept
        row["sustainedp_or_not_12"] = int(rng.random() < 1 / (1 + math.exp(-(row["followers"] - 25) / 6)))
        row["recent_sustainedp_or_not"] = max(row["sustainedp_or_not_12"], row["recent_sustainedp_or_not"])
    frame = _columns(rows)
    verdicts = {}
    for factor in (1.0, 1e3, 1e-3):
        scaled = {**frame, "followers": [value * factor for value in frame["followers"]]}
        verdicts[factor] = [
            _verdict(glm.encode_design(scaled, spec)) for spec in glm.canned_model_specs()
        ]
    assert verdicts[1.0] == [("fit", True), ("fit", True), ("separated", "sustainedp_or_not_12")]
    assert verdicts[1e3] == verdicts[1.0] == verdicts[1e-3]


def test_a_separated_reference_level_is_named_after_the_fit():
    # Every row at the reference level has outcome 1.  The separating
    # direction is the ones column minus both dummies, which no single
    # column's table shows, so the scan passes and IRLS drifts.
    rng = np.random.default_rng(61)
    level = np.array([0] * 20 + list(rng.integers(1, 3, 280)))
    y = (rng.random(300) < 0.5).astype(float)
    y[level == 0] = 1.0
    X = np.column_stack([np.ones(300), rng.standard_normal(300), level == 1, level == 2]).astype(float)
    names = ["Intercept", "x", "size (medium)", "size (large)"]
    assert _scan(X, y, names) is None
    with pytest.raises(glm.SeparationError, match="still moved") as info:
        glm.fit_logistic(X, y, names)
    assert info.value.column in names[2:]


def test_an_overlapping_high_leverage_row_still_fits():
    # The row at x = 40 follows the trend, so the MLE exists; its fitted
    # p (1 - p) is numerically 0, which is no sign of separation.
    rng = np.random.default_rng(67)
    x = rng.standard_normal(200)
    y = (rng.random(200) < glm._sigmoid(x)).astype(float)
    X = np.column_stack([np.ones(201), np.append(x, 40.0)])
    y = np.append(y, 1.0)
    fit = glm.fit_logistic(X, y, ["Intercept", "x"])
    prob = glm._sigmoid(X @ fit.coefficients)
    assert fit.converged and prob[-1] * (1.0 - prob[-1]) < 1e-12
    assert 0.5 < fit.coefficients[1] < 2.0
    np.testing.assert_allclose(X.T @ (y - prob), 0.0, atol=1e-8)


# --- frequency weights ---------------------------------------------------------------

_WEIGHTED_KINDS = ("random", "binary", "reference", "collinear", "few_rows")


def _weighted_design(kind, seed):
    """A design with one row per distinct observation and integer weights 1 to 5.

    random: continuous columns; binary: sparse 0/1 columns whose cells often
    empty out; reference: a factor whose reference level often has one
    outcome only; collinear: a planted dependency; few_rows: fewer distinct
    rows than columns, but more weight than columns.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 4 if kind == "few_rows" else 40))
    columns = [np.ones(n)] + [rng.standard_normal(n) for _ in range(int(rng.integers(1, 4)))]
    if kind == "binary":
        columns += [(rng.random(n) < 0.2).astype(float) for _ in range(2)]
    if kind == "reference":
        level = rng.integers(0, 3, n)
        columns += [(level == 1).astype(float), (level == 2).astype(float)]
    if kind == "collinear":
        columns.append(columns[1] - 2.0 * columns[-1])
    if kind == "few_rows":
        columns += [rng.standard_normal(n) for _ in range(4 - n + len(columns))]
    X = np.column_stack(columns)
    y = (rng.random(n) < glm._sigmoid(X @ rng.uniform(-1.5, 1.5, X.shape[1]))).astype(float)
    if kind == "reference" and rng.random() < 0.5:
        y[level == 0] = 1.0
    return X, y, rng.integers(1, 6, n)


def _fit_or_failure(X, y, names, weights=None):
    try:
        return glm.fit_logistic(X, y, names, weights)
    except (glm.DesignError, glm.SeparationError) as exc:
        return type(exc).__name__, getattr(exc, "column", None), str(exc)


def _assert_close(actual, expected, rtol):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert np.max(np.abs(actual - expected)) <= rtol * np.max(np.abs(expected))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@example(kind="random", seed=0)  # a finite fit
@example(kind="random", seed=14)  # sd(X b) past the bound
@example(kind="binary", seed=0)  # the cell scan names a column
@example(kind="reference", seed=0)  # IRLS drifts along the reference level
@example(kind="reference", seed=184)  # two dummies tie on the drifting step
@example(kind="reference", seed=384)  # sd(X b) of a diverged fit, known to a few digits
@example(kind="collinear", seed=0)
@example(kind="few_rows", seed=0)
@given(kind=st.sampled_from(_WEIGHTED_KINDS), seed=st.integers(0, 2**32 - 1))
def test_a_weighted_fit_is_the_fit_of_the_repeated_rows(kind, seed):
    X, y, w = _weighted_design(kind, seed)
    names = [glm.INTERCEPT_NAME] + [f"x{j}" for j in range(1, X.shape[1])]
    repeated = np.repeat(X, w, axis=0), np.repeat(y, w)
    weighted, plain = _fit_or_failure(X, y, names, w), _fit_or_failure(*repeated, names)
    event(f"{kind}: {weighted[0] if isinstance(weighted, tuple) else 'fit'}")
    if isinstance(plain, tuple):
        assert weighted == plain
    else:
        assert isinstance(weighted, glm.LogisticFit), weighted
        _assert_close(weighted.coefficients, plain.coefficients, 1e-9)
        _assert_close(weighted.standard_errors, plain.standard_errors, 1e-9)
        for name in ("log_likelihood", "aic", "bic"):
            assert getattr(weighted, name) == pytest.approx(getattr(plain, name), rel=1e-12, abs=0)
        assert weighted.n_observations == plain.n_observations == int(w.sum())
    beta = np.linspace(-1.0, 1.0, X.shape[1])
    assert glm.log_likelihood(X, y, beta, w) == pytest.approx(glm.log_likelihood(*repeated, beta), rel=1e-12)
    got, expected = glm.vif(X, names, w), glm.vif(repeated[0], names)
    assert [math.isinf(v) for v in got.values()] == [math.isinf(v) for v in expected.values()]
    for name, value in expected.items():
        if not math.isinf(value):
            assert got[name] == pytest.approx(value, rel=1e-9), name


def test_the_rank_tolerance_reads_the_repeated_rows():
    # b leaves a on one light row by delta; the verdict flips where delta's
    # singular value meets the tolerance, which the weights move.
    rng = np.random.default_rng(5)
    a = rng.standard_normal(6)
    w = np.array([1, 1000, 1000, 1000, 1000, 1000])
    names = ["Intercept", "a", "b"]

    def verdict(X, weights):
        try:
            glm._check_rank(X, weights, names)
        except glm.RankDeficiencyError as exc:
            return exc.columns
        return None

    flips = set()
    for k in range(6, 17):
        X = np.column_stack([np.ones(6), a, a + np.eye(6)[0] * 10.0**-k])
        weighted = verdict(X, w)
        assert weighted == verdict(np.repeat(X, w, axis=0), np.ones(w.sum(), dtype=np.int64)), k
        assert weighted in (None, ("a", "b"))
        flips.add((weighted is None, verdict(X, np.ones(6, dtype=np.int64)) is None))
    assert flips == {(True, True), (False, True), (False, False)}


@pytest.mark.parametrize(
    "weights",
    [
        [1, 2],
        [1, 0, 2],
        [1, -1, 2],
        [1, 1.5, 2],
        [1.0, 2.0, 3.0],
        [1, float("nan"), 2],
        [True, True, True],
        ["1", "2", "3"],
    ],
)
def test_weights_must_be_one_positive_integer_per_row(weights):
    X = np.column_stack([np.ones(3), [0.5, -1.0, 2.0]])
    y = np.array([0.0, 1.0, 1.0])
    frame = {"y": y.tolist(), "a": X[:, 1].tolist(), "b": [1.0, 2.0, 4.0]}
    for call in (
        lambda: glm.encode_design(frame, _spec(), weights),
        lambda: glm.fit_logistic(X, y, None, weights),
        lambda: glm.vif(X, ["Intercept", "a"], weights),
        lambda: glm.log_likelihood(X, y, np.zeros(2), weights),
    ):
        with pytest.raises(glm.DesignError, match="weights must be 3 positive integers, one per row"):
            call()


def test_encoding_carries_the_weights_of_the_kept_rows():
    frame = {"y": [1, 0, None, 1, 0], "a": [0.5, 1.0, 2.0, None, 3.0], "b": [1.0, 2.0, 3.0, 4.0, 5.0]}
    design = glm.encode_design(frame, _spec(), np.array([2, 1, 3, 4, 1]))
    np.testing.assert_array_equal(design.weights, [2, 1, 1])
    assert design.n_dropped == 7
    assert glm.encode_design(frame, _spec()).n_dropped == 2


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
    with pytest.raises(glm.SeparationError) as info:
        glm.fit_logistic(design.X, design.y, design.columns)
    assert str(info.value).endswith("no row has sustainedp_or_not_12 = 1 and outcome 0")
    assert info.value.column == "sustainedp_or_not_12"


def test_first_two_canned_models_fit_nested_rows():
    rng = random.Random(9090)
    rows = _labelled_rows(400, rng)
    for spec in glm.canned_model_specs()[:2]:
        design = glm.encode_design(_columns(rows), spec)
        fit = glm.fit_logistic(design.X, design.y, design.columns)
        assert fit.converged
        assert fit.n_observations == 400
