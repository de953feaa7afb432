"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Each criterion prints ``PASS criterion <n>: ...`` on success; under
``pytest -v`` the per-test PASSED/FAILED status gives the same one line per
criterion.  Tolerances and time budgets are asserted inside the tests.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
import time
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

import oracles
from prsafety import cli, diagnostics, glm, reporting
from prsafety.corpus import load_corpus
from prsafety.cues import extract_all, load_emoji_table
from prsafety.participation import LabelingConfig, label_contributors, detect_gap_return, label_participation
from prsafety.ps_index import compute_thresholds, summarize
from test_reporting import _summary, _two_fits

GOLDEN = Path(__file__).parent / "golden"


def _pass(num: int, message: str) -> None:
    print(f"PASS criterion {num}: {message}")


def criterion(num: int):
    """Print an explicit FAIL line naming the criterion before re-raising."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num}: {fn.__name__}")
                raise

        return run

    return wrap


# --- criterion 1: reported odds ratios are exp(beta) -------------------------------

# An externally reported regression table reproduced as data: (term, beta,
# odds ratio) per model, with the information criteria underneath.  The check
# verifies the table's internal arithmetic.  Exactly one printed pair is
# inconsistent with exp(beta) (a transcription slip in the original); it is
# pinned as inconsistent rather than silently skipped.
REPORTED_MODELS = {
    1: [
        ("PS_index_repository", 1.03, 2.80),
        ("core_member", 0.55, 1.73),
        ("contrib_rate_author", 2.15, 8.26),  # the known inconsistent pair
        ("followers", -0.04, 0.96),
        ("num_languages", -1.60, 0.20),
        ("contrib_follow_integrator", -0.21, 0.81),
        ("social_strength", -0.08, 0.92),
        ("repo_size (medium)", 1.12, 3.08),
        ("repo_size (large)", 3.84, 46.5),
    ],
    2: [
        ("PS_index_repository", 0.32, 1.38),
        ("core_member", 1.64, 5.14),
        ("contrib_rate_author", 1.00, 2.73),
        ("followers", 0.28, 1.32),
        ("num_languages", -0.22, 0.80),
        ("contrib_follow_integrator", 0.03, 1.03),
        ("social_strength", -0.13, 0.88),
        ("repo_size (medium)", 2.15, 8.63),
        ("repo_size (large)", 2.38, 10.8),
    ],
    3: [
        ("sustainedp_or_not_12", 1.86, 6.43),
        ("PS_index_repository", 0.05, 1.05),
        ("core_member", 1.69, 5.42),
        ("contrib_rate_author", 0.34, 1.41),
        ("followers", 0.33, 1.39),
        ("num_languages", 0.20, 1.22),
        ("contrib_follow_integrator", 0.10, 1.10),
        ("social_strength", -0.10, 0.90),
        ("repo_size (medium)", 1.71, 5.56),
        ("repo_size (large)", 1.35, 3.85),
    ],
}

INCONSISTENT_PAIR = (1, "contrib_rate_author")

# per model: (aic, bic, log likelihood, deviance, n, parameter count)
REPORTED_CRITERIA = {
    1: (47059, 47150, -23519, 47039, 60684, 10),
    2: (54356, 54446, -27168, 54336, 60684, 10),
    3: (49653, 49752, -24815, 49631, 60684, 11),
}


@criterion(1)
def test_criterion_1_reported_odds_ratios_consistent():
    started = time.perf_counter()
    checked = 0
    for model, rows in REPORTED_MODELS.items():
        for term, beta, reported_or in rows:
            relative = abs(math.exp(beta) / reported_or - 1.0)
            if (model, term) == INCONSISTENT_PAIR:
                assert relative > 0.01, "the pinned inconsistent pair now matches"
                continue
            assert relative <= 0.01, (model, term, math.exp(beta), reported_or)
            checked += 1
    assert checked == 27

    for model, (aic, bic, ll, deviance, n, k) in REPORTED_CRITERIA.items():
        assert abs(deviance - (-2 * ll)) <= 2, model
        assert abs(aic - (deviance + 2 * k)) <= 2, model
        assert abs((bic - aic) - k * (math.log(n) - 2)) <= 2, model

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _pass(1, f"27/28 odds ratios match exp(beta) within 1%, 1 inconsistent pair pinned ({elapsed:.3f}s)")


# --- criterion 2: IRLS against a brute-force optimizer -------------------------------

@criterion(2)
def test_criterion_2_irls_matches_brute_force_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(20240616)
    fitted = 0
    while fitted < 25:
        n = int(rng.integers(40, 501))
        p = int(rng.integers(2, 7))
        X = np.column_stack([np.ones(n)] + [rng.standard_normal(n) for _ in range(p - 1)])
        truth = rng.uniform(-1.5, 1.5, size=p)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(X @ truth)))).astype(float)
        if y.min() == y.max():
            continue
        try:
            fit = glm.fit_logistic(X, y)
        except glm.SeparationError:
            continue  # the MLE does not exist for this draw; redraw
        beta, se = oracles.fit_newton_oracle(X, y)
        assert np.max(np.abs(fit.coefficients - beta)) < 1e-6, fitted
        assert np.max(np.abs(fit.standard_errors - se)) < 1e-6, fitted
        score = oracles.log_likelihood_gradient(X, y, fit.coefficients)
        assert np.max(np.abs(score)) < 1e-6 * n, fitted
        fitted += 1

    # balanced intercept-only model has a closed form
    X0 = np.ones((10, 1))
    y0 = np.array([1.0] * 5 + [0.0] * 5)
    fit0 = glm.fit_logistic(X0, y0, ["Intercept"])
    assert abs(fit0.coefficients[0]) < 1e-10
    assert abs(fit0.log_likelihood - 10 * math.log(0.5)) < 1e-10
    assert abs(fit0.aic - 15.862943611198906) < 1e-10
    assert abs(fit0.bic - 16.16552870419295) < 1e-10

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _pass(2, f"25 fits match the brute-force optimizer at 1e-6; intercept-only exact at 1e-10 ({elapsed:.1f}s)")


# --- criterion 3: analytic gradient -----------------------------------------------------

@criterion(3)
def test_criterion_3_gradient_matches_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(31337)
    for point in range(20):
        n = int(rng.integers(30, 120))
        p = int(rng.integers(2, 6))
        X = np.column_stack([np.ones(n)] + [rng.standard_normal(n) for _ in range(p - 1)])
        y = (rng.random(n) < 0.5).astype(float)
        beta = rng.uniform(-2.0, 2.0, size=p)
        grad = oracles.log_likelihood_gradient(X, y, beta)
        fd = oracles.fd_gradient(X, y, beta)
        assert np.max(np.abs(grad - fd)) < 1e-6, point
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _pass(3, f"gradient matches central differences at 1e-6 on 20 points ({elapsed:.2f}s)")


# --- criterion 4: hand-enumerated fixture ------------------------------------------------

FIXTURE_SCORES = {
    ("acme/rocket", 1): 8,
    ("acme/rocket", 2): 8,
    ("acme/rocket", 3): 2,
    ("acme/rocket", 4): 1,
    ("acme/rocket", 5): 0,
    ("acme/rocket", 6): 0,
    ("acme/rocket", 7): 0,
    ("acme/wrench", 1): 8,
    ("acme/wrench", 2): 2,
    ("acme/wrench", 3): 7,
}

FIXTURE_CONTRIBUTOR_INDEX = {
    ("acme/rocket", "alice"): 4.75,
    ("acme/rocket", "bob"): 0.0,
    ("acme/wrench", "carol"): 17 / 3,
}

FIXTURE_REPOSITORY_INDEX = {"acme/rocket": 2.375, "acme/wrench": 17 / 3}


@criterion(4)
def test_criterion_4_fixture_matches_hand_enumeration(corpus12_dir):
    loaded = load_corpus(corpus12_dir)
    assert loaded.errors == []
    cue_rows = extract_all(loaded.corpus.pulls, load_emoji_table())
    contributors = {(p.repo_full_name, p.author) for p in loaded.corpus.pulls}
    labeling = label_contributors(
        loaded.corpus.commits, contributors, LabelingConfig(data_end=date(2021, 6, 30))
    )
    thresholds = compute_thresholds(cue_rows)
    summary = summarize(cue_rows, labeling.labels, thresholds)

    pr_scores, skipped_prs = oracles.keyed_scores(summary, cue_rows, labeling.labels)
    assert pr_scores == FIXTURE_SCORES
    assert summary.contributor_index == FIXTURE_CONTRIBUTOR_INDEX
    assert summary.repository_index == FIXTURE_REPOSITORY_INDEX
    assert skipped_prs == {
        ("acme/wrench", 4): "excluded_gap_return",
        ("acme/wrench", 5): "excluded_gap_return",
    }

    # the non-sustained contributor scores zero on every PR
    bob_scores = [s for (repo, n), s in pr_scores.items() if repo == "acme/rocket" and n >= 5]
    assert bob_scores == [0, 0, 0]
    assert all(0 <= score <= 10 for score in pr_scores.values())
    assert all(0 <= v <= 10 for v in summary.contributor_index.values())
    assert all(0 <= v <= 10 for v in summary.repository_index.values())
    _pass(4, "twelve-PR fixture scores and indices equal the hand enumeration exactly")


# --- criterion 5: screening policy ----------------------------------------------------------

@criterion(5)
def test_criterion_5_screening_policy():
    # a binary variable with a 1.8% minority class is excluded at the 5% default
    binary = [0.0] * 491 + [1.0] * 9
    (decision,) = diagnostics.screen_predictors({"flag": binary}, {"flag": "binary"}).variables
    assert decision.action == "excluded"
    assert decision.minority_fraction == pytest.approx(0.018)

    # a heavy-tailed variable is log1p-transformed and, still skewed, excluded
    spike = [0.0] * 299 + [5e8]
    (decision,) = diagnostics.screen_predictors({"v": spike}, {"v": "continuous"}).variables
    assert decision.action == "excluded"
    assert abs(decision.raw_skewness) > 3.0
    assert abs(decision.transformed_skewness) > 3.0

    # skewness agrees with the explicit moment formulas
    rng = random.Random(299792458)
    for _ in range(100):
        n = rng.randrange(3, 60)
        sample = [rng.gauss(0, 1) + rng.expovariate(0.7) for _ in range(n)]
        for type in (1, 2, 3):
            got = diagnostics.skewness(sample, type=type)
            assert abs(got - oracles.skewness_moments(sample, type=type)) < 1e-12

    # types 1 and 3 are invariant under positive affine maps
    for _ in range(100):
        n = rng.randrange(4, 40)
        sample = [rng.gauss(0, 3) for _ in range(n)]
        shift, scale = rng.uniform(-50, 50), rng.uniform(0.05, 20)
        moved = [shift + scale * v for v in sample]
        for type in (1, 3):
            assert abs(
                diagnostics.skewness(moved, type=type) - diagnostics.skewness(sample, type=type)
            ) < 1e-9
    _pass(5, "imbalance and transform-then-exclude policies hold; skewness matches moments at 1e-12")


# --- criterion 6: labeling against a scan oracle ----------------------------------------------

@criterion(6)
def test_criterion_6_labeling_matches_scan_oracle():
    config = LabelingConfig(data_end=date(2025, 6, 30))
    assert config.recent_horizon_end >= config.window_end  # horizons nest
    rng = random.Random(60406)
    origin = date(2016, 1, 1)

    timelines = [
        tuple(
            origin + timedelta(days=rng.randrange(0, 3400))
            for _ in range(rng.randrange(1, 11))
        )
        for _ in range(1000)
    ]
    for days in timelines:
        label = label_participation(days, config)
        expected = oracles.label_scan(
            list(days),
            config.snapshot_date,
            config.window_months,
            config.data_end,
            config.censor_margin_months,
            config.recent_horizon_end,
            config.gap_months,
        )
        assert (label.status, label.sustainedp_or_not_12, label.recent_sustainedp_or_not) == expected, days
        if label.status == "sustained":
            assert label.recent_sustainedp_or_not == 1  # nesting makes sustained recent

    # translation invariance: shifting the entire problem leaves labels unchanged
    shift = timedelta(days=123)
    shifted_config = LabelingConfig(
        data_end=config.data_end + shift,
        snapshot_date=config.snapshot_date + shift,
        window_months=config.window_months,
        recent_horizon_end=config.recent_horizon_end + shift,
        censor_margin_months=config.censor_margin_months,
        gap_months=config.gap_months,
    )
    for days in timelines[:200]:
        original = label_participation(days, config)
        moved = label_participation(tuple(d + shift for d in days), shifted_config)
        assert original == moved, days

    # monotonicity: an added in-window commit promotes any non-excluded timeline
    in_window = config.snapshot_date + timedelta(days=30)
    for days in timelines[:200]:
        label = label_participation(days, config)
        if label.status == "excluded_gap_return":
            continue
        promoted = label_participation(days + (in_window,), config)
        assert promoted.status == "sustained", days
    # and gap detection is monotone in the threshold
    for _ in range(100):
        days = [origin + timedelta(days=rng.randrange(0, 1200)) for _ in range(rng.randrange(2, 7))]
        for months in (6, 12, 24):
            if not detect_gap_return(days, months):
                assert not detect_gap_return(days, months * 2), days

    # precedence: exclusion beats sustained beats censored beats not-sustained
    gap_then_active = (date(2017, 1, 1), date(2018, 6, 1), in_window)
    assert label_participation(gap_then_active, config).status == "excluded_gap_return"
    active_then_recent = (date(2019, 1, 1), in_window, date(2025, 5, 1))
    assert label_participation(active_then_recent, config).status == "sustained"
    quiet_then_recent = (date(2019, 1, 1), date(2025, 5, 1))
    assert label_participation(quiet_then_recent, config).status == "censored"
    _pass(6, "1000 random timelines match the scan oracle; invariance, monotonicity and precedence hold")


# --- criterion 7: variance inflation ------------------------------------------------------------

@criterion(7)
def test_criterion_7_variance_inflation():
    orthogonal = np.array(
        [
            [1.0, 1.0, 1.0],
            [1.0, 1.0, -1.0],
            [1.0, -1.0, 1.0],
            [1.0, -1.0, -1.0],
        ]
    )
    out = glm.vif(orthogonal, ["Intercept", "a", "b"])
    assert abs(out["a"] - 1.0) < 1e-10 and abs(out["b"] - 1.0) < 1e-10
    assert glm.vif_gate(out)

    rng = np.random.default_rng(77)
    x = rng.standard_normal(60)
    duplicated = np.column_stack([np.ones(60), x, x])
    dup = glm.vif(duplicated, ["Intercept", "a", "a_copy"])
    assert math.isinf(dup["a"]) and math.isinf(dup["a_copy"])
    assert not glm.vif_gate(dup)

    for trial in range(20):
        n = int(rng.integers(40, 200))
        k = int(rng.integers(2, 6))
        X = np.column_stack([np.ones(n), rng.standard_normal((n, k))])
        names = ["Intercept"] + [f"x{j}" for j in range(k)]
        got = glm.vif(X, names)
        expected = oracles.vif_normal_equations(X)
        assert np.max(np.abs(np.array([got[n_] for n_ in names[1:]]) - expected)) < 1e-8, trial
        assert glm.vif_gate(got)  # independent standard-normal columns sit near 1
    _pass(7, "VIF exact on orthogonal/duplicate designs and matches the oracle at 1e-8")


# --- criterion 8: large corpus run --------------------------------------------------------------

@criterion(8)
def test_criterion_8_large_corpus_run_fast_and_deterministic(scaled_corpus_dir, tmp_path):
    out = tmp_path / "out"
    argv = ["run", "--corpus", str(scaled_corpus_dir), "--out", str(out), "--data-end", "2025-06-30"]

    def checksums():
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
            if p.is_file()
        }

    first_started = time.perf_counter()
    assert cli.main(argv) == 0
    first_elapsed = time.perf_counter() - first_started
    assert first_elapsed < 60.0
    first = checksums()

    second_started = time.perf_counter()
    assert cli.main(argv) == 0
    second_elapsed = time.perf_counter() - second_started
    assert second_elapsed < 60.0
    second = checksums()

    assert first == second
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    assert manifest["row_counts"]["pulls"] == 60684
    assert list(manifest["model_failures"]) == ["3"]  # recorded, run still succeeds
    for index in (1, 2):
        payload = json.loads((out / f"model_{index}.json").read_text("utf-8"))
        assert payload["converged"] is True
    _pass(8, f"60684-PR run twice in {first_elapsed:.1f}s/{second_elapsed:.1f}s with byte-identical artifacts")


# --- criterion 9: report rendering ----------------------------------------------------------------

@criterion(9)
def test_criterion_9_report_rendering_matches_goldens():
    models_text = reporting.format_models_table(dict(enumerate(_two_fits(), 1)))
    assert models_text == (GOLDEN / "models_table.txt").read_text("utf-8").rstrip("\n")
    assert "1.03(0.02)***" in models_text

    index_text = reporting.format_index_table(
        {
            "acme/rocket": 2.0519,
            "acme/wrench": 2.045,
            "alpha/kit": 1.5,
            "beta/kit": 1.5,
            "zeta/tool": 0.0004,
        }
    )
    assert index_text == (GOLDEN / "index_table.txt").read_text("utf-8").rstrip("\n")
    assert reporting.format_index_value(2.0519) == "2.052"
    assert "2.052" in index_text

    report_text = reporting.render_report(
        _summary(),
        dict(enumerate(_two_fits(), 1)),
        screening_table="variable  kind  decision  reason",
        model_notes=["model_3 has no finite fit: quasi-separation detected"],
    )
    assert report_text == (GOLDEN / "full_report.txt").read_text("utf-8")
    _pass(9, 'rendered tables match the goldens, including "1.03(0.02)***" and 2.0519 -> "2.052"')
