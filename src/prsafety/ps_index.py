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
Censored and gap-return contributors are never scored; their PRs carry an
explicit skip marker rather than a zero so they cannot drag aggregates.

A contributor's index is the mean of their PR scores; a repository's index
is the unweighted mean of its contributor indices.

The inputs come from the cue table:

    table = cues.extract_all(pulls, emoji_table)          # a CueTable
    thresholds = compute_thresholds(table, scope="global")
    summary = summarize(table, labels, thresholds)

compute_thresholds reads the table's columns; summarize reads its row view,
(pull, CueVector) pairs, and calls score_pr once per row.  CueVector is a
NamedTuple, so a vector compares equal to the plain tuple of its values.

The CSVs and the report print an index with format_index_value (three
decimals) and rank repositories with ranked (highest first, ties by name).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Mapping

from .corpus import write_csv
from .cues import CueTable, CueVector
from .participation import ParticipationLabel

THRESHOLD_CUES = ("pr_comment_num", "num_comments_con", "num_participant")

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

    def for_repo(self, repo_full_name: str) -> Mapping[str, float]:
        if self.scope == "global":
            assert self.global_medians is not None
            return self.global_medians
        assert self.per_repository is not None
        return self.per_repository[repo_full_name]


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
    columns = [(cue, table.columns[cue]) for cue in THRESHOLD_CUES]
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


def score_pr(
    vector: CueVector,
    label: ParticipationLabel,
    thresholds: Mapping[str, float],
    merged_only: bool = False,
) -> int | None:
    """Score one PR, or return None as a skip marker.

    None marks PRs of censored and gap-return contributors: they are not
    zeros and never enter aggregation.
    """
    if label.status in ("censored", "excluded_gap_return"):
        return None
    if label.status == "not_sustained":
        return 0

    score = 0
    # Condition 1 reads "merged or not merged": satisfied by construction for
    # every terminal PR. The strict variant only credits actual merges.
    if not merged_only or vector.merged_or_not == 1:
        score += 1
    if vector.pr_comment_num > thresholds["pr_comment_num"]:
        score += 1
    if vector.has_exchange == 1:
        score += 1
    if vector.contrib_comment == 1:
        score += 1
    if vector.num_comments_con > thresholds["num_comments_con"]:
        score += 1
    if vector.inte_comment == 1:
        score += 1
    if vector.reviewer_comment == 1:
        score += 1
    if vector.other_comment == 1:
        score += 1
    if vector.num_participant > thresholds["num_participant"]:
        score += 1
    if vector.at_tag == 1:
        score += 1
    return score


@dataclass
class PsSummary:
    pr_scores: dict[tuple[str, int], int]
    skipped_prs: dict[tuple[str, int], str]
    contributor_index: dict[tuple[str, str], float]
    repository_index: dict[str, float]


def summarize(
    table: CueTable,
    labels: Mapping[tuple[str, str], ParticipationLabel],
    thresholds: Thresholds,
    merged_only: bool = False,
) -> PsSummary:
    """Score all PRs and aggregate to contributor and repository indices.

    Each row of the table's row view, a pull and its CueVector, is scored
    once by score_pr.  PRs whose author has no label are skipped and
    reported, like censored and excluded ones.
    """
    pr_scores: dict[tuple[str, int], int] = {}
    skipped: dict[tuple[str, int], str] = {}
    per_contributor: dict[tuple[str, str], list[int]] = {}

    for pull, vector in table:
        repo = pull.repo_full_name
        key = (repo, pull.pr_number)
        label = labels.get((repo, pull.author))
        if label is None:
            skipped[key] = "unlabeled"
            continue
        score = score_pr(vector, label, thresholds.for_repo(repo), merged_only=merged_only)
        if score is None:
            skipped[key] = label.status
            continue
        pr_scores[key] = score
        per_contributor.setdefault((repo, pull.author), []).append(score)

    contributor_index = {
        key: sum(scores) / len(scores) for key, scores in sorted(per_contributor.items())
    }

    by_repo: dict[str, list[float]] = {}
    for (repo, _), value in contributor_index.items():
        by_repo.setdefault(repo, []).append(value)
    repository_index = {
        repo: sum(values) / len(values) for repo, values in sorted(by_repo.items())
    }

    return PsSummary(
        pr_scores=pr_scores,
        skipped_prs=skipped,
        contributor_index=contributor_index,
        repository_index=repository_index,
    )


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
