"""Psychological-safety index on a 0 to 10 scale.

Each pull request authored by a contributor with a known participation
outcome receives a score.  Contributors who did not sustain participation
score 0 on all their PRs.  Sustained contributors earn one point per
satisfied condition out of ten:

     1. the PR was merged or not merged (any terminal state counts; a strict
        mode credits the point only for merged PRs)
     2. comment count above the corpus median
     3. author and integrator both commented (an exchange took place)
     4. the author commented at all
     5. author comment count above the corpus median
     6. an integrator commented
     7. a reviewer commented
     8. a commenter outside the three roles appeared
     9. distinct participant count above the corpus median
    10. at least one @-mention appeared

"Above the median" is strict: ties do not earn the point.  Medians come
from the whole corpus by default, or per repository when configured.
Contributors without an outcome (censored and gap-return ones) are never
scored; their PRs carry an explicit skip marker rather than a zero so they
cannot drag aggregates.

A contributor's index is the mean of their PR scores; a repository's index
is the unweighted mean of its contributor indices.

The inputs come from the cue table:

    table = cues.extract_all(pulls, emoji_table)          # a CueTable
    thresholds = compute_thresholds(table, scope="global")
    summary = summarize(table, labels, thresholds)

Both read the table's columns.  score_prs sums the ten conditions over the
columns, one vectorised pass per cue, and summarize multiplies each PR's sum
by its author's sustainedp_or_not_12: 1 keeps the sum, 0 makes it 0, and a
label without that outcome skips the PR (skip_reason).  Labels are looked up
once per distinct (repository, author).

A PsSummary keeps one int8 score per row of the table, -1 where the PR is
skipped, beside the table's pulls; skip_reason of the author's label says
why a PR is skipped.  Medians and contributor totals are taken over Python
ints, never over a narrow dtype.

The CSVs and the report print an index with format_index_value (three
decimals) and rank repositories with ranked (highest first, ties by name).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Mapping, Sequence

import numpy as np

from .corpus import PullRequestRecord, write_csv
from .cues import CueTable
from .participation import ParticipationLabel

# Conditions 2, 5 and 9 hold strictly above the cue's median; conditions 3,
# 4, 6, 7, 8 and 10 hold when the 0/1 cue is 1.
THRESHOLD_CUES = ("pr_comment_num", "num_comments_con", "num_participant")
FLAG_CUES = (
    "has_exchange", "contrib_comment", "inte_comment", "reviewer_comment", "other_comment", "at_tag"
)

THRESHOLD_SCOPES = ("global", "per_repository")

# Methodological note surfaced in every report that carries index values.
OUTCOME_COUPLING_NOTE = (
    "Index scores are gated on the same sustained-participation labels that "
    "serve as regression outcomes: non-sustained contributors score 0 by "
    "construction. Associations between the index and participation "
    "therefore partly reflect this construction and must not be read as "
    "independent evidence."
)


@dataclass(frozen=True)
class Thresholds:
    scope: str
    global_medians: Mapping[str, float] | None = None
    per_repository: Mapping[str, Mapping[str, float]] | None = None

    def row_medians(self, pulls: Sequence[PullRequestRecord]) -> Mapping[str, float | np.ndarray]:
        """The medians score_prs compares the rows of pulls against: the
        global medians, or per cue an array of each row's repository median."""
        if self.scope == "global":
            return self.global_medians
        repos = [self.per_repository[pull.repo_full_name] for pull in pulls]
        return {cue: np.array([medians[cue] for medians in repos]) for cue in THRESHOLD_CUES}


def compute_thresholds(table: CueTable, scope: str = "global") -> Thresholds:
    """Median thresholds for the count-valued conditions.

    The medians are taken over the table's columns, or, per repository, over
    the rows of each repository's pulls.  Medians use the standard order
    statistic (mean of the two central values for even counts).
    """
    if scope not in THRESHOLD_SCOPES:
        raise ValueError(f"threshold scope must be one of {THRESHOLD_SCOPES}, got {scope!r}")
    if not len(table):
        raise ValueError("cannot compute thresholds from an empty cue table")
    # Python ints: median's (a + b) / 2 of two counts cannot wrap.
    columns = [(cue, table.columns[cue].tolist()) for cue in THRESHOLD_CUES]
    if scope == "global":
        medians = {cue: float(median(values)) for cue, values in columns}
        return Thresholds(scope="global", global_medians=medians)
    rows_of: dict[str, list[int]] = {}
    for row, pull in enumerate(table.pulls):
        rows_of.setdefault(pull.repo_full_name, []).append(row)
    per_repo = {
        repo: {cue: float(median([values[row] for row in rows_of[repo]])) for cue, values in columns}
        for repo in sorted(rows_of)
    }
    return Thresholds(scope="per_repository", per_repository=per_repo)


def score_prs(
    columns: Mapping[str, Sequence[int]],
    medians: Mapping[str, float | np.ndarray],
    merged_only: bool = False,
) -> np.ndarray:
    """The ten-condition score of each row of the cue columns, ungated.

    medians holds one number per threshold cue, or one array per cue over
    the rows (Thresholds.row_medians).  Condition 1 ("merged or not merged")
    holds for every terminal PR; merged_only credits it to merges alone.
    """
    merged = np.asarray(columns["merged_or_not"]) == 1
    score = merged.astype(int) if merged_only else np.ones(len(merged), dtype=int)
    for cue in THRESHOLD_CUES:
        score += np.asarray(columns[cue]) > medians[cue]
    for cue in FLAG_CUES:
        score += np.asarray(columns[cue]) == 1
    return score


def skip_reason(label: ParticipationLabel | None) -> str | None:
    """Why the PRs of an author with this label are not scored, or None when
    they are: "unlabeled" without a label, the label's status without an
    outcome."""
    if label is None:
        return "unlabeled"
    return label.status if label.sustainedp_or_not_12 is None else None


@dataclass
class PsSummary:
    """The index of a cue table: scores[i] is the score of pulls[i], or -1
    when that PR is skipped for the reason skip_reason gives its author's
    label in labels."""

    pulls: Sequence[PullRequestRecord]
    scores: np.ndarray
    labels: Mapping[tuple[str, str], ParticipationLabel]
    contributor_index: dict[tuple[str, str], float]
    repository_index: dict[str, float]


def summarize(
    table: CueTable,
    labels: Mapping[tuple[str, str], ParticipationLabel],
    thresholds: Thresholds,
    merged_only: bool = False,
) -> PsSummary:
    """Score all PRs and aggregate to contributor and repository indices.

    score_prs scores the table's columns once; each PR's score is then gated
    by its author's sustainedp_or_not_12.  An outcome of 0 or 1 multiplies
    the score, and a PR whose author's label has a skip_reason is skipped.
    """
    raw = score_prs(table.columns, thresholds.row_medians(table.pulls), merged_only)
    # Each row's contributor, numbered in first-PR order.
    contributors: dict[tuple[str, str], int] = {}
    rows = np.fromiter(
        (contributors.setdefault((pull.repo_full_name, pull.author), len(contributors))
         for pull in table.pulls),
        dtype=np.intp, count=len(table),
    )
    gates = np.array([
        -1 if skip_reason(label) is not None else label.sustainedp_or_not_12
        for label in map(labels.get, contributors)
    ], dtype=np.int8)[rows]
    scored = gates >= 0
    scores = np.where(scored, raw * gates, -1).astype(np.int8)

    # Each contributor's (total, count) over its scored PRs, in Python ints.
    owners = rows[scored]
    totals = np.bincount(owners, weights=scores[scored], minlength=len(contributors))
    counts = np.bincount(owners, minlength=len(contributors))
    sums = zip(totals.astype(np.int64).tolist(), counts.tolist())
    contributor_index = {
        key: total / count for key, (total, count) in sorted(zip(contributors, sums)) if count
    }

    by_repo: dict[str, list[float]] = {}
    for (repo, _), value in contributor_index.items():
        by_repo.setdefault(repo, []).append(value)
    repository_index = {
        repo: sum(values) / len(values) for repo, values in sorted(by_repo.items())
    }

    return PsSummary(table.pulls, scores, labels, contributor_index, repository_index)


def format_index_value(value: float) -> str:
    return f"{value:.3f}"


def ranked(repository_index: Mapping[str, float]) -> list[tuple[str, float]]:
    """(repository, index) pairs, highest index first, ties by name."""
    return sorted(repository_index.items(), key=lambda kv: (-kv[1], kv[0]))


def write_repository_csv(path: str | Path, summary: PsSummary) -> None:
    """Repository indices, three decimals, highest first."""
    write_csv(path, ("repo_full_name", "ps_index"), (
        (repo, format_index_value(value)) for repo, value in ranked(summary.repository_index)
    ))


def write_contributor_csv(path: str | Path, summary: PsSummary) -> None:
    write_csv(path, ("repo_full_name", "author", "ps_index"), (
        (repo, author, format_index_value(value))
        for (repo, author), value in sorted(summary.contributor_index.items())
    ))
