"""Plain-text and CSV rendering of index tables and regression results.

Coefficient cells render as "beta(se)stars", for example "1.03(0.02)***".
Odds ratios print with two decimals below ten and three significant digits
from ten up, so 46.525 renders as "46.5".  Index tables take their three
decimals and their order, highest repository first, from ps_index.

Every table takes the finite fits keyed by model index.  The text table and
models_table.csv show the same cells, built once by _model_cells, under the
titles "Model i" in index order.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import write_csv, write_json
from .glm import INTERCEPT_NAME, LogisticFit, ModelSpec, significance_stars
from .ps_index import OUTCOME_COUPLING_NOTE, PsSummary, format_index_value, ranked

# Each criteria row's label and the LogisticFit field it shows.
CRITERIA_ROWS = {
    "AIC": "aic",
    "BIC": "bic",
    "Log Likelihood": "log_likelihood",
    "Deviance": "deviance",
    "Num. obs.": "n_observations",
}


def format_coefficient_cell(beta: float, se: float, p_value: float) -> str:
    return f"{beta:.2f}({se:.2f}){significance_stars(p_value)}"


def format_odds_ratio(value: float) -> str:
    if value < 10.0:
        return f"{value:.2f}"
    return f"{value:.3g}"


def format_index_table(repository_index: Mapping[str, float]) -> str:
    """Repository index table, three decimals, descending."""
    width = max([len("owner/repository name")] + [len(name) for name in repository_index])
    lines = [f"{'owner/repository name':<{width}}  PS Index"]
    lines.append("-" * (width + 10))
    for repo, value in ranked(repository_index):
        lines.append(f"{repo:<{width}}  {format_index_value(value):>8}")
    return "\n".join(lines)


def _term_order(fits: Sequence[LogisticFit]) -> list[str]:
    terms = dict.fromkeys(name for fit in fits for name in fit.columns)
    # Intercept always leads regardless of per-model column order; the sort
    # is stable, so the other terms keep their first-seen order.
    return sorted(terms, key=lambda name: name != INTERCEPT_NAME)


def _criteria_value(fit: LogisticFit, row: str) -> str:
    value = getattr(fit, CRITERIA_ROWS[row])
    return str(value) if row == "Num. obs." else f"{value:.2f}"


def _model_cells(fits: Mapping[int, LogisticFit]) -> tuple[list[str], list, list]:
    """The titles "Model i" in index order, then the term rows and the
    criteria rows, each a label and one (beta(se)stars, OR) pair per fit.
    A term a fit lacks has two empty cells; a criteria row shows its value
    in the OR column."""
    fits = dict(sorted(fits.items()))
    terms = _term_order(list(fits.values()))
    body: dict[str, list[tuple[str, str]]] = {term: [] for term in terms}
    for fit in fits.values():
        cells = {
            name: (format_coefficient_cell(beta, se, p), format_odds_ratio(ratio))
            for name, beta, se, p, ratio in zip(
                fit.columns, fit.coefficients, fit.standard_errors, fit.p_values, fit.odds_ratios
            )
        }
        for term in terms:
            body[term].append(cells.get(term, ("", "")))
    criteria = [(row, [("", _criteria_value(fit, row)) for fit in fits.values()]) for row in CRITERIA_ROWS]
    return [f"Model {i}" for i in fits], list(body.items()), criteria


def format_models_table(fits: Mapping[int, LogisticFit]) -> str:
    """Side-by-side regression table with beta(se)stars and OR columns."""
    if not fits:
        raise ValueError("no fits to render")
    titles, body, criteria = _model_cells(fits)
    rows = body + criteria

    name_width = max(len(label) for label, _ in rows)
    col_widths = [
        (
            max(len(f"{title} beta(SE)"), *(len(pairs[i][0]) for _, pairs in rows)),
            max(len("OR"), *(len(pairs[i][1]) for _, pairs in rows)),
        )
        for i, title in enumerate(titles)
    ]

    def line(term_label: str, pairs: Sequence[tuple[str, str]]) -> str:
        parts = [f"{term_label:<{name_width}}"]
        for (beta_cell, or_cell), (beta_w, or_w) in zip(pairs, col_widths):
            parts.append(f"{beta_cell:>{beta_w}}  {or_cell:>{or_w}}")
        return "  ".join(parts)

    header = line("", [(f"{t} beta(SE)", "OR") for t in titles])
    rule = "-" * len(header)
    footnote = "*** p<0.001, ** p<0.01, * p<0.05"
    return "\n".join(
        [header, rule, *(line(*row) for row in body), rule, *(line(*row) for row in criteria), rule, footnote]
    )


def write_models_csv(path: str | Path, fits: Mapping[int, LogisticFit]) -> None:
    """The cells of format_models_table as CSV; with no fits, the header and
    the criteria names alone."""
    titles, body, criteria = _model_cells(fits)
    header = ["term", *(f"{title} {column}" for title in titles for column in ("beta(SE)", "OR"))]
    write_csv(path, header, [[label, *chain.from_iterable(pairs)] for label, pairs in body + criteria])


def _spec_header(spec: ModelSpec) -> dict:
    return {
        "model": spec.name,
        "outcome": spec.outcome,
        "predictors": list(spec.predictors),
        "transforms": dict(spec.transforms),
    }


def write_model_json(path: str | Path, fit: LogisticFit, spec: ModelSpec) -> None:
    write_json(path, {**fit.to_json(), **_spec_header(spec)})


def write_model_failure_json(path: str | Path, spec: ModelSpec, message: str) -> None:
    """Record a model that has no finite fit, keeping the artifact set stable."""
    write_json(path, {**_spec_header(spec), "error": message})


def render_report(
    summary: PsSummary,
    fits: Mapping[int, LogisticFit],
    screening_table: str | None = None,
    model_notes: Sequence[str] = (),
) -> str:
    sections = [
        "PS index by repository (0-10 scale)",
        "",
        format_index_table(summary.repository_index),
        "",
        "Note: " + OUTCOME_COUPLING_NOTE,
    ]
    if screening_table:
        sections += ["", "Predictor screening", "", screening_table]
    if fits:
        sections += ["", "Sustained participation models", "", format_models_table(fits)]
    for note in model_notes:
        sections += ["", "Note: " + note]
    return "\n".join(sections) + "\n"
