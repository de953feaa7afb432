from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from prsafety import glm, reporting
from prsafety.ps_index import OUTCOME_COUPLING_NOTE, PsSummary

GOLDEN = Path(__file__).parent / "golden"


def _fit(columns, betas, ses, ll=-100.0, n=500):
    betas = np.asarray(betas, dtype=float)
    ses = np.asarray(ses, dtype=float)
    z = betas / ses
    p = np.array([glm.normal_sf_two_sided(v) for v in z])
    k = len(columns)
    return glm.LogisticFit(
        columns=tuple(columns),
        coefficients=betas,
        standard_errors=ses,
        z_values=z,
        p_values=p,
        covariance=np.diag(ses**2),
        log_likelihood=ll,
        deviance=-2.0 * ll,
        aic=2.0 * k - 2.0 * ll,
        bic=k * math.log(n) - 2.0 * ll,
        n_observations=n,
        iterations=7,
        converged=True,
    )


def _two_fits():
    first = _fit(
        ["Intercept", "PS_index_repository", "repo_size (large)"],
        [-4.96, 1.03, 3.84],
        [0.23, 0.02, 0.23],
        ll=-100.0,
        n=500,
    )
    second = _fit(
        ["Intercept", "PS_index_repository", "contrib_follow_integrator", "repo_size (large)"],
        [-5.34, 0.32, 0.03, 2.38],
        [0.26, 0.02, 0.01, 0.26],
        ll=-90.25,
        n=480,
    )
    return [first, second]


# --- cell formatting ---------------------------------------------------------------

def test_coefficient_cell_format():
    assert reporting.format_coefficient_cell(1.03, 0.02, 1e-12) == "1.03(0.02)***"
    assert reporting.format_coefficient_cell(0.03, 0.01, 0.0027) == "0.03(0.01)**"
    assert reporting.format_coefficient_cell(-0.04, 0.01, 0.03) == "-0.04(0.01)*"
    assert reporting.format_coefficient_cell(0.10, 0.09, 0.27) == "0.10(0.09)"


def test_odds_ratio_format_switches_at_ten():
    assert reporting.format_odds_ratio(2.8011) == "2.80"
    assert reporting.format_odds_ratio(9.994) == "9.99"
    assert reporting.format_odds_ratio(10.0) == "10"
    assert reporting.format_odds_ratio(10.804) == "10.8"
    assert reporting.format_odds_ratio(46.525) == "46.5"
    assert reporting.format_odds_ratio(math.exp(-4.96)) == "0.01"


def test_index_value_format():
    assert reporting.format_index_value(2.0519) == "2.052"
    assert reporting.format_index_value(0.0004) == "0.000"
    assert reporting.format_index_value(17 / 3) == "5.667"


# --- index table --------------------------------------------------------------------

def test_index_table_golden():
    table = reporting.format_index_table(
        {
            "acme/rocket": 2.0519,
            "acme/wrench": 2.045,
            "alpha/kit": 1.5,
            "beta/kit": 1.5,
            "zeta/tool": 0.0004,
        }
    )
    assert table == (GOLDEN / "index_table.txt").read_text("utf-8").rstrip("\n")
    # descending by value, ties alphabetical
    order = [line.split()[0] for line in table.splitlines()[2:]]
    assert order == ["acme/rocket", "acme/wrench", "alpha/kit", "beta/kit", "zeta/tool"]
    assert "2.052" in table


# --- models table ---------------------------------------------------------------------

def test_models_table_golden():
    text = reporting.format_models_table(dict(enumerate(_two_fits(), 1)))
    assert text == (GOLDEN / "models_table.txt").read_text("utf-8").rstrip("\n")


def test_models_table_anchor_cells():
    text = reporting.format_models_table(dict(enumerate(_two_fits(), 1)))
    assert "1.03(0.02)***" in text
    assert "0.03(0.01)**" in text
    assert "46.5" in text
    assert "10.8" in text
    assert "2.80" in text
    assert "*** p<0.001, ** p<0.01, * p<0.05" in text
    lines = text.splitlines()
    assert lines[0].startswith(" ")
    assert "Model 1 beta(SE)" in lines[0] and "OR" in lines[0]
    # Intercept leads, criteria block closes with sample sizes
    assert lines[2].split()[0] == "Intercept"
    num_obs = [line for line in lines if line.startswith("Num. obs.")]
    assert len(num_obs) == 1 and "500" in num_obs[0] and "480" in num_obs[0]


def test_models_table_requires_a_fit():
    with pytest.raises(ValueError, match="no fits"):
        reporting.format_models_table({})


def test_term_order_unions_columns_intercept_first():
    fits = _two_fits()
    assert reporting._term_order(fits) == [
        "Intercept",
        "PS_index_repository",
        "repo_size (large)",
        "contrib_follow_integrator",
    ]


def test_models_csv(tmp_path):
    path = tmp_path / "models_table.csv"
    reporting.write_models_csv(path, dict(enumerate(_two_fits(), 1)))
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["term", "Model 1 beta(SE)", "Model 1 OR", "Model 2 beta(SE)", "Model 2 OR"]
    by_term = {row[0]: row[1:] for row in rows[1:]}
    assert by_term["PS_index_repository"] == ["1.03(0.02)***", "2.80", "0.32(0.02)***", "1.38"]
    assert by_term["contrib_follow_integrator"] == ["", "", "0.03(0.01)**", "1.03"]
    assert by_term["repo_size (large)"][1] == "46.5"
    assert by_term["Num. obs."] == ["", "500", "", "480"]
    assert by_term["Deviance"] == ["", "200.00", "", "180.50"]


def test_models_csv_without_fits_keeps_header_and_criteria(tmp_path):
    # Every requested model failing still leaves a models_table.csv.
    path = tmp_path / "models_table.csv"
    reporting.write_models_csv(path, {})
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows == [["term"]] + [[row] for row in reporting.CRITERIA_ROWS]


# --- json artifacts ---------------------------------------------------------------------

def test_model_json_round_trip(tmp_path):
    fit = _two_fits()[0]
    spec = glm.ModelSpec(
        name="model_1",
        outcome="sustainedp_or_not_12",
        predictors=("PS_index_repository", "repo_size"),
        transforms={"followers": "log1p"},
    )
    path = tmp_path / "model_1.json"
    reporting.write_model_json(path, fit, spec)
    payload = json.loads(path.read_text("utf-8"))
    assert payload["model"] == "model_1"
    assert payload["outcome"] == "sustainedp_or_not_12"
    assert payload["transforms"] == {"followers": "log1p"}
    assert payload["coefficients"] == [-4.96, 1.03, 3.84]
    assert payload["odds_ratios"][1] == pytest.approx(math.exp(1.03))
    assert payload["converged"] is True
    assert "error" not in payload


def test_an_odds_ratio_past_the_float_range_is_inf_and_null_in_json(tmp_path):
    # A finite, converged fit whose coefficient exceeds log(max float), about
    # 709.78: the steep slope of x on a scale of 1e-4.
    rng = np.random.default_rng(0)
    x = rng.standard_normal(400) * 1e-4
    y = (rng.random(400) < glm._sigmoid(3e4 * x)).astype(float)
    fit = glm.fit_logistic(np.column_stack([np.ones(400), x]), y, ["Intercept", "x"])
    assert fit.converged and math.isfinite(fit.coefficients[1]) and fit.coefficients[1] > 709.79
    assert fit.odds_ratios == [pytest.approx(math.exp(fit.coefficients[0])), math.inf]
    spec = glm.ModelSpec(name="model_1", outcome="y", predictors=("x",))
    reporting.write_model_json(tmp_path / "model_1.json", fit, spec)
    text = (tmp_path / "model_1.json").read_text("utf-8")
    assert "Infinity" not in text and json.loads(text)["odds_ratios"][1] is None
    reporting.write_models_csv(tmp_path / "models_table.csv", {1: fit})
    with open(tmp_path / "models_table.csv", encoding="utf-8", newline="") as handle:
        assert dict((row[0], row[2]) for row in csv.reader(handle))["x"] == "inf"
    assert re.search(r"^x +\S+ +inf$", reporting.format_models_table({1: fit}), re.MULTILINE)


def test_model_failure_json(tmp_path):
    spec = glm.ModelSpec(
        name="model_3",
        outcome="recent_sustainedp_or_not",
        predictors=("sustainedp_or_not_12",),
    )
    path = tmp_path / "model_3.json"
    reporting.write_model_failure_json(path, spec, "quasi-separation detected on column 'x'")
    payload = json.loads(path.read_text("utf-8"))
    assert payload == {
        "model": "model_3",
        "outcome": "recent_sustainedp_or_not",
        "predictors": ["sustainedp_or_not_12"],
        "transforms": {},
        "error": "quasi-separation detected on column 'x'",
    }


# --- full report ---------------------------------------------------------------------------

def _summary():
    return PsSummary(
        scores=np.array([8], dtype=np.int8),
        contributor_index={("acme/rocket", "alice"): 4.75},
        repository_index={"acme/rocket": 2.0519, "acme/wrench": 0.5},
    )


def test_render_report_sections():
    text = reporting.render_report(
        _summary(),
        dict(enumerate(_two_fits(), 1)),
        screening_table="variable  kind  decision  reason",
        model_notes=["model_3 has no finite fit: quasi-separation detected"],
    )
    assert text.startswith("PS index by repository (0-10 scale)")
    assert "Note: " + OUTCOME_COUPLING_NOTE in text
    assert "Predictor screening" in text
    assert "Sustained participation models" in text
    assert "1.03(0.02)***" in text
    assert "2.052" in text
    assert "Note: model_3 has no finite fit: quasi-separation detected" in text
    assert text.endswith("\n")


def test_render_report_without_fits_still_reports_indices():
    text = reporting.render_report(_summary(), {}, model_notes=["nothing fit"])
    assert "2.052" in text
    assert "Sustained participation models" not in text
    assert "Note: nothing fit" in text
