"""Independent oracles the tests compare the package against.

Everything here is deliberately written with different algorithms than the
package (window scans instead of regex alternation, damped Newton instead
of IRLS, normal equations instead of lstsq, row dicts instead of column
masks) and imports nothing from prsafety, so agreement is evidence rather
than tautology.
"""

from __future__ import annotations

import csv
import json
import math
from datetime import date, datetime, timedelta, timezone

import numpy as np


# --- emoji -----------------------------------------------------------------

def emoji_count_window_scan(text: str, sequences: set[str]) -> int:
    """Count emojis by trying every sequence at every position, longest first."""
    by_length = sorted(sequences, key=len, reverse=True)
    count = 0
    i = 0
    while i < len(text):
        for seq in by_length:
            if text.startswith(seq, i):
                count += 1
                i += len(seq)
                break
        else:
            i += 1
    return count


# --- cues -------------------------------------------------------------------

_LOGIN_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789")

# What a case-insensitive "conflict" accepts letter by letter: the ASCII pair,
# and for "i" also the Turkish dotted capital and dotless small i.
_CONFLICT_LETTERS = [
    {ch, ch.upper()} | ({"\u0130", "\u0131"} if ch == "i" else set()) for ch in "conflict"
]


def _is_word(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def _outside_fences(text: str) -> str:
    """The text outside ``` fences, a space where each fenced part was; an
    unterminated fence runs to the end."""
    pieces, inside, start = [], False, 0
    while True:
        at = text.find("```", start)
        if not inside:
            pieces.append(text[start : len(text) if at < 0 else at])
        if at < 0:
            return " ".join(pieces)
        inside, start = not inside, at + 3


def mention_scan(text: str) -> bool:
    """An "@" outside fences, not after a word character or another "@",
    followed by an ASCII letter or digit."""
    text = _outside_fences(text)
    for k, ch in enumerate(text):
        if ch != "@" or text[k + 1 : k + 2] not in _LOGIN_START:
            continue
        if k == 0 or not (_is_word(text[k - 1]) or text[k - 1] == "@"):
            return True
    return False


def conflict_scan(text: str) -> bool:
    """"conflict" in any case at a position not preceded by a word character."""
    width = len(_CONFLICT_LETTERS)
    for k in range(len(text) - width + 1):
        if k and _is_word(text[k - 1]):
            continue
        if all(text[k + j] in letters for j, letters in enumerate(_CONFLICT_LETTERS)):
            return True
    return False


def extract_cues_rows(pull, count_emojis) -> tuple[int, ...]:
    """The thirteen cues of one pull request in column order, by separate
    passes over the thread.  count_emojis(body) is passed in, so the
    per-thread sum is checked, not the emoji scan."""
    roles = [c.role for c in pull.comments]
    bodies = [c.body for c in pull.comments]
    num_comments_con = roles.count("contributor")
    contrib_comment = int(num_comments_con > 0)
    inte_comment = int("integrator" in roles)
    return (
        int(pull.merged),
        len(pull.comments),
        pull.reopen_count,
        int(contrib_comment and inte_comment),
        int(any(conflict_scan(b) for b in bodies)),
        contrib_comment,
        num_comments_con,
        inte_comment,
        int("reviewer" in roles),
        int("other" in roles),
        len({c.author for c in pull.comments}),
        int(any(mention_scan(b) for b in bodies)),
        sum(count_emojis(b) for b in bodies),
    )


def write_cues_csv_rows(path, table) -> None:
    """cues.csv row by row through one csv.writer: the repository, the
    number and the cues of each pull, the columns in the table's order."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("repo_full_name", "pr_number", *table.columns))
        writer.writerows(zip(
            [pull.repo_full_name for pull in table.pulls],
            [pull.pr_number for pull in table.pulls],
            *(column.tolist() for column in table.columns.values()),
        ))


# --- ps index ---------------------------------------------------------------
# Row by row over (pull, vector) pairs, where the package reads columns.

def thresholds_rows(rows, cues, scope: str) -> dict:
    """{cue: median} over all rows for the global scope; {repo: {cue:
    median}} over each repository's rows, repositories sorted, otherwise."""
    if scope == "global":
        return {cue: median_sorted([getattr(v, cue) for _, v in rows]) for cue in cues}
    repos = sorted({pull.repo_full_name for pull, _ in rows})
    return {
        repo: {
            cue: median_sorted([getattr(v, cue) for pull, v in rows if pull.repo_full_name == repo])
            for cue in cues
        }
        for repo in repos
    }


def score_row(vector, label, medians: dict, merged_only: bool = False) -> int | None:
    """One PR's score: None for a censored or gap-return author, 0 for a
    not-sustained one, else the count of the ten conditions it meets, each
    read from the vector by name.  medians maps each count cue to the
    median its condition must exceed."""
    if label.status in ("censored", "excluded_gap_return"):
        return None
    if label.status == "not_sustained":
        return 0
    conditions = (
        vector.merged_or_not == 1 or not merged_only,
        vector.pr_comment_num > medians["pr_comment_num"],
        vector.has_exchange == 1,
        vector.contrib_comment == 1,
        vector.num_comments_con > medians["num_comments_con"],
        vector.inte_comment == 1,
        vector.reviewer_comment == 1,
        vector.other_comment == 1,
        vector.num_participant > medians["num_participant"],
        vector.at_tag == 1,
    )
    return sum(conditions)


def summarize_rows(
    rows, labels, medians: dict, scope: str, merged_only: bool
) -> tuple[dict, dict, dict, dict]:
    """(pr_scores, skipped_prs, contributor_index, repository_index).

    medians is thresholds_rows' result for the scope; score_row scores each
    row.  A PR of an unlabeled author is skipped as "unlabeled", one that
    scores None under its label's status."""
    pr_scores, skipped = {}, {}
    for pull, vector in rows:
        key = (pull.repo_full_name, pull.pr_number)
        label = labels.get((pull.repo_full_name, pull.author))
        if label is None:
            skipped[key] = "unlabeled"
            continue
        row_medians = medians if scope == "global" else medians[pull.repo_full_name]
        value = score_row(vector, label, row_medians, merged_only)
        if value is None:
            skipped[key] = label.status
        else:
            pr_scores[key] = value
    contributors = sorted({
        (pull.repo_full_name, pull.author)
        for pull, _ in rows
        if (pull.repo_full_name, pull.pr_number) in pr_scores
    })
    contributor_index = {}
    for repo, author in contributors:
        scores = [
            pr_scores[(pull.repo_full_name, pull.pr_number)]
            for pull, _ in rows
            if (pull.repo_full_name, pull.author) == (repo, author)
        ]
        contributor_index[(repo, author)] = sum(scores) / len(scores)
    repository_index = {}
    for repo in sorted({repo for repo, _ in contributors}):
        values = [value for (r, _), value in contributor_index.items() if r == repo]
        repository_index[repo] = sum(values) / len(values)
    return pr_scores, skipped, contributor_index, repository_index


def keyed_scores(summary) -> tuple[dict, dict]:
    """(pr_scores, skipped_prs) of a PsSummary, read from its scores beside
    its pulls in summarize_rows' form: each scored PR's score and each
    skipped PR's reason by (repository, number), in table order.  A skipped
    PR's reason is "unlabeled" without a label, else the label's status."""
    pr_scores, skipped = {}, {}
    for pull, score in zip(summary.pulls, summary.scores.tolist()):
        key = (pull.repo_full_name, pull.pr_number)
        if score >= 0:
            pr_scores[key] = score
        else:
            label = summary.labels.get((pull.repo_full_name, pull.author))
            skipped[key] = "unlabeled" if label is None else label.status
    return pr_scores, skipped


# --- ingest -----------------------------------------------------------------

_COMMENT_FIELDS = ("repo_full_name", "pr_number", "author", "role", "body", "created_at")


def _instant(text: str) -> datetime:
    return datetime.fromisoformat(text.replace("Z", "+00:00")).astimezone(timezone.utc)


def decode_line(line: str) -> dict:
    """The JSON object on one corpus line through json.loads alone; every
    way the line can fail is a ValueError carrying the ingest message."""
    if not line.isascii():
        try:
            # Lone surrogates stand for bytes that were not UTF-8.
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("line is not valid UTF-8") from None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None
    except ValueError:
        raise ValueError("invalid JSON: integer has too many digits") from None
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    return obj


def parse_record_rows(table, record_type, obj: dict):
    """The interpreted walk of a record table: each row's kind in order into
    a dict of field values (a later row of a field replaces its value), then
    the record built by keyword."""
    values = {}
    for name, kind in table:
        values[name] = kind(obj, name)
    return record_type(**values)


def comment_merge_replay(
    pulls: list[dict], comment_lines: list[str]
) -> tuple[dict[tuple[str, int], list[str]], list[int]]:
    """Merge comments.jsonl into pulls one line at a time, re-sorting the
    whole thread by timestamp after each line.

    pulls are pulls.jsonl objects whose embedded comments are valid.  A
    comment line is rejected when it is not JSON, not an object, lacks a
    field, or names no pull; every other line must be valid.  Returns the
    comment bodies of each pull in order, keyed by (repo, number), and the
    1-based numbers of the rejected lines in file order.
    """
    threads = {
        (p["repo_full_name"], p["pr_number"]): sorted(
            p["comments"], key=lambda c: _instant(c["created_at"])
        )
        for p in pulls
    }
    rejected = []
    for lineno, line in enumerate(comment_lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            rejected.append(lineno)
            continue
        if not isinstance(obj, dict) or any(obj.get(f) is None for f in _COMMENT_FIELDS):
            rejected.append(lineno)
            continue
        key = (obj["repo_full_name"], obj["pr_number"])
        if key not in threads:
            rejected.append(lineno)
            continue
        threads[key] = sorted(threads[key] + [obj], key=lambda c: _instant(c["created_at"]))
    return {key: [c["body"] for c in thread] for key, thread in threads.items()}, rejected


# --- participation ----------------------------------------------------------

def build_timeline(commits, author: str, repo_full_name: str | None = None) -> tuple[date, ...]:
    """Commit days for one author, deduplicated and sorted; with
    repo_full_name None the timeline spans all repositories."""
    days = {
        c.committed_at.date()
        for c in commits
        if c.author == author and repo_full_name in (None, c.repo_full_name)
    }
    return tuple(sorted(days))


def months_to_days_rounded(months: int) -> int:
    # months/12 of a 365-day year, halves rounded up (exact integer arithmetic)
    quotient, remainder = divmod(months * 365, 12)
    return quotient + (1 if 2 * remainder >= 12 else 0)


def gap_return_scan(days: list[date], threshold_days: int) -> bool:
    ordered = sorted(set(days))
    return any(
        (b - a).days > threshold_days for a, b in zip(ordered, ordered[1:])
    )


def label_scan(
    days: list[date],
    snapshot: date,
    window_months: int,
    data_end: date,
    censor_margin_months: int,
    horizon_end: date,
    gap_months: int,
) -> tuple[str, int | None, int | None]:
    """Re-derive one participation label by direct scanning."""
    ordered = sorted(set(days))
    assert ordered, "oracle needs a non-empty timeline"

    before = [d for d in ordered if d <= snapshot]
    if gap_return_scan(before, months_to_days_rounded(gap_months)):
        return ("excluded_gap_return", None, None)

    window_end = snapshot + timedelta(days=months_to_days_rounded(window_months))
    in_window = [d for d in ordered if snapshot < d <= window_end]
    recent = int(any(snapshot < d <= horizon_end for d in ordered))
    if in_window:
        return ("sustained", 1, recent)

    cutoff = data_end - timedelta(days=months_to_days_rounded(censor_margin_months))
    if ordered[-1] >= cutoff:
        return ("censored", None, None)
    return ("not_sustained", 0, recent)


# --- medians and moments ----------------------------------------------------

def median_sorted(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def skewness_moments(values: list[float], type: int = 3) -> float:
    """Skewness from explicitly accumulated central moments (math.fsum)."""
    n = len(values)
    mean = math.fsum(values) / n
    m2 = math.fsum((x - mean) ** 2 for x in values) / n
    m3 = math.fsum((x - mean) ** 3 for x in values) / n
    g1 = m3 / m2**1.5
    if type == 1:
        return g1
    if type == 2:
        return g1 * math.sqrt(n * (n - 1)) / (n - 2)
    return g1 * ((n - 1) / n) ** 1.5


# --- logistic regression ----------------------------------------------------

def logistic_ll(X: np.ndarray, y: np.ndarray, beta: np.ndarray) -> float:
    eta = X @ beta
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def log_likelihood_gradient(X: np.ndarray, y: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Score vector X' (y - p); zero at the maximum-likelihood estimate."""
    prob = np.exp(-np.logaddexp(0.0, -(X @ beta)))
    return X.T @ (y - prob)


def fd_gradient(X: np.ndarray, y: np.ndarray, beta: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of the log-likelihood."""
    grad = np.zeros_like(beta, dtype=float)
    for j in range(beta.size):
        step = np.zeros_like(beta, dtype=float)
        step[j] = h
        grad[j] = (logistic_ll(X, y, beta + step) - logistic_ll(X, y, beta - step)) / (2 * h)
    return grad


def fit_newton_oracle(
    X: np.ndarray, y: np.ndarray, tol: float = 1e-12, max_iter: int = 500
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton with backtracking line search, then local grid refinement.

    Returns (beta, standard errors).  This is the brute-force optimizer the
    acceptance suite trusts; it shares no update rule with the package's
    IRLS (full Hessian solve with step halving on the raw parameters).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    beta = np.zeros(p)
    ll = logistic_ll(X, y, beta)
    for _ in range(max_iter):
        prob = 1.0 / (1.0 + np.exp(-(X @ beta)))
        grad = X.T @ (y - prob)
        w = prob * (1.0 - prob)
        hess = (X.T * w) @ X
        direction = np.linalg.solve(hess, grad)
        step = 1.0
        while step > 1e-12:
            candidate = beta + step * direction
            ll_new = logistic_ll(X, y, candidate)
            if ll_new >= ll - 1e-15:
                break
            step /= 2.0
        beta = beta + step * direction
        if abs(ll_new - ll) < tol:
            ll = ll_new
            break
        ll = ll_new

    # Grid refinement: probe each coordinate on a shrinking grid and keep
    # any strict improvement, confirming the optimum is not a saddle of the
    # Newton path.
    scale = 1e-4
    for _ in range(3):
        improved = False
        for j in range(p):
            for delta in (-scale, scale):
                candidate = beta.copy()
                candidate[j] += delta
                if logistic_ll(X, y, candidate) > ll:
                    beta = candidate
                    ll = logistic_ll(X, y, candidate)
                    improved = True
        if not improved:
            scale /= 10.0

    prob = 1.0 / (1.0 + np.exp(-(X @ beta)))
    w = prob * (1.0 - prob)
    fisher = (X.T * w) @ X
    se = np.sqrt(np.diag(np.linalg.inv(fisher)))
    return beta, se


def two_by_two_mle(n00: int, n01: int, n10: int, n11: int) -> tuple[float, float, float, float]:
    """Closed-form logistic MLE for a binary predictor.

    Cell counts: n00/n01 are x=0 rows with y=0/1, n10/n11 are x=1 rows
    with y=0/1.  Returns (beta0, beta1, se0, se1).
    """
    p0 = n01 / (n00 + n01)
    p1 = n11 / (n10 + n11)
    beta0 = math.log(p0 / (1 - p0))
    beta1 = math.log(p1 / (1 - p1)) - beta0
    se0 = math.sqrt(1 / n00 + 1 / n01)
    se1 = math.sqrt(1 / n00 + 1 / n01 + 1 / n10 + 1 / n11)
    return beta0, beta1, se0, se1


def cell_counts(X, y) -> dict[int, dict[tuple[int, int], int]]:
    """The 2 x 2 table with the outcome of each column whose values are all 0 or 1.

    Maps the column's index to {(x value, outcome): rows}, with both outcome
    cells, empty or not, for each value the column takes.  One pass over the
    rows per column.
    """
    n = len(y)
    tables = {}
    for j in range(len(X[0]) if n else 0):
        column = [float(X[i][j]) for i in range(n)]
        if any(value not in (0.0, 1.0) for value in column):
            continue
        table = {(int(value), o): 0 for value in set(column) for o in (0, 1)}
        for value, outcome in zip(column, y):
            table[int(value), int(outcome)] += 1
        tables[j] = table
    return tables


def vif_normal_equations(X: np.ndarray, intercept_col: int = 0) -> list[float]:
    """VIF per non-intercept column via explicit normal equations."""
    n, p = X.shape
    out = []
    for j in range(p):
        if j == intercept_col:
            continue
        target = X[:, j]
        others = np.delete(X, j, axis=1)
        gram = others.T @ others
        try:
            coef = np.linalg.solve(gram, others.T @ target)
        except np.linalg.LinAlgError:
            out.append(math.inf)
            continue
        residual = target - others @ coef
        ss_res = float(residual @ residual)
        centered = target - target.mean()
        ss_tot = float(centered @ centered)
        if ss_tot == 0.0 or ss_res / ss_tot < 1e-12:
            out.append(math.inf)
        else:
            out.append(1.0 / (ss_res / ss_tot))
    return out


# --- model design -----------------------------------------------------------
# Row by row: one dict per PR, walked again for each model, where the
# package builds columns once and masks them.

def _is_missing(value) -> bool:
    return value is None or (isinstance(value, float) and math.isnan(value))


def model_rows(state) -> list[dict]:
    """One row dict per PR of a pipeline state that has run through the
    index stage, or per (repository, author) on its first PR when
    state.config.unit is "contributor".  Unavailable values stay None."""
    contexts = {(c.repo_full_name, c.author): c for c in state.corpus.contexts}
    metas = {m.repo_full_name: m for m in state.corpus.repos}
    rows = []
    seen: set[tuple[str, str]] = set()
    for pull in state.cue_table.pulls:
        key = (pull.repo_full_name, pull.author)
        if state.config.unit == "contributor":
            if key in seen:
                continue
            seen.add(key)
        label = state.labeling.labels.get(key)
        context = contexts.get(key)
        meta = metas.get(pull.repo_full_name)
        row = {
            "sustainedp_or_not_12": None if label is None else label.sustainedp_or_not_12,
            "recent_sustainedp_or_not": None if label is None else label.recent_sustainedp_or_not,
            "PS_index_repository": state.summary.repository_index.get(pull.repo_full_name),
            "repo_size": None if meta is None else meta.repo_size,
        }
        for name in ("contrib_rate_author", "followers", "num_languages", "social_strength"):
            row[name] = None if context is None else getattr(context, name)
        for name in ("core_member", "contrib_follow_integrator"):
            row[name] = None if context is None else int(getattr(context, name))
        rows.append(row)
    return rows


def control_transforms_rows(rows, names, skew_threshold, skew_type, skewness) -> dict[str, str]:
    """log1p for each named control whose non-None values have a defined
    skewness (enough values for the type, and nonzero variance) above the
    threshold in absolute value, and are non-negative.  skewness is passed
    in, so the rule is checked, not the moment formulas."""
    transforms: dict[str, str] = {}
    for name in names:
        values = [row[name] for row in rows if row.get(name) is not None]
        try:
            raw = skewness(values, type=skew_type)
        except ValueError:  # too few values for the type, or zero variance
            continue
        if abs(raw) > skew_threshold and min(values) >= 0:
            transforms[name] = "log1p"
    return transforms


def encode_design_rows(rows, spec) -> tuple[np.ndarray, np.ndarray, tuple[str, ...], int]:
    """(X, y, columns, n_dropped) for a model spec, read row by row.

    A row missing (None, NaN or absent) the outcome or any predictor is
    dropped and counted.  Rejections raise ValueError with the package's
    DesignError messages.
    """
    complete = []
    n_dropped = 0
    for row in rows:
        values = [row.get(spec.outcome)] + [row.get(name) for name in spec.predictors]
        if any(_is_missing(v) for v in values):
            n_dropped += 1
            continue
        complete.append(row)
    if not complete:
        raise ValueError("no complete rows left after dropping missing values")

    y = np.array([float(row[spec.outcome]) for row in complete])
    if not set(np.unique(y)) <= {0.0, 1.0}:
        bad = sorted(set(np.unique(y)) - {0.0, 1.0})
        raise ValueError(f"outcome {spec.outcome!r} takes values outside {{0, 1}}: {bad}")

    columns = ["Intercept"]
    data = [np.ones(len(complete))]
    for name in spec.predictors:
        if name in spec.categorical:
            levels = spec.categorical[name]
            observed = {row[name] for row in complete}
            unknown = observed - set(levels)
            if unknown:
                raise ValueError(f"{name!r} has undeclared levels: {sorted(unknown)}")
            # The first declared level present is the reference.
            reference = next(level for level in levels if level in observed)
            for level in levels:
                if level in observed and level != reference:
                    columns.append(f"{name} ({level})")
                    data.append(np.array([1.0 if row[name] == level else 0.0 for row in complete]))
            continue
        try:
            column = np.array([float(row[name]) for row in complete])
        except (TypeError, ValueError):
            raise ValueError(f"predictor {name!r} is not numeric; declare it categorical") from None
        transform = spec.transforms.get(name)
        if transform == "log1p":
            if column.min() < 0:
                raise ValueError(f"log1p transform on {name!r} needs non-negative values")
            column = np.log1p(column)
        elif transform is not None:
            raise ValueError(f"unknown transform {transform!r} on {name!r}")
        columns.append(name)
        data.append(column)

    X = np.column_stack(data)
    for j, name in enumerate(columns):
        if name != "Intercept" and np.all(X[:, j] == X[0, j]):
            raise ValueError(f"predictor column {name!r} is constant")
    return X, y, tuple(columns), n_dropped


# --- files ------------------------------------------------------------------

def jsonl_count(path) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(1 for line in handle if line.strip())


def jsonl_field_values(path, field: str) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line)[field] for line in handle if line.strip()]
