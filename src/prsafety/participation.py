"""Sustained-participation labeling from commit timelines.

A contributor's timeline is their set of commit days in a repository.
Relative to a snapshot date, each timeline resolves to one of four statuses:

    excluded_gap_return   returned after a long inactivity gap before the
                          snapshot; participation pattern is excluded
    sustained             committed within the follow-up window after the
                          snapshot (sustainedp_or_not_12 = 1)
    censored              last commit close enough to the end of the data
                          that disengagement cannot be asserted
    not_sustained         none of the above (sustainedp_or_not_12 = 0)

Precedence is exactly that order.  The binary outcome variables are defined
only for sustained and not_sustained contributors.  All month-denominated
durations use a 365-day year, so 12 months equals 365 days; calendar-month
arithmetic would make labels depend on where the window happens to fall.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import CommitEvent, write_csv

# The binary outcomes a label carries, by field name.
OUTCOMES = ("sustainedp_or_not_12", "recent_sustainedp_or_not")


class LabelingConfigError(ValueError):
    """Inconsistent labeling configuration (a config problem, not a data one)."""


class EmptyTimelineError(ValueError):
    """Raised when a contributor has no commits to label from."""


def months_to_days(months: int) -> int:
    """Convert a month count to days on a 365-day year, rounding half up."""
    if months < 1:
        raise LabelingConfigError(f"month count must be positive, got {months}")
    return (months * 365 + 6) // 12


@dataclass(frozen=True)
class LabelingConfig:
    data_end: date
    snapshot_date: date = date(2019, 6, 30)
    window_months: int = 12
    recent_horizon_end: date = date(2024, 12, 31)
    censor_margin_months: int = 12
    gap_months: int = 12

    def __post_init__(self) -> None:
        # Each message starts with a field name; config_from_dict prefixes "labeling.".
        if self.snapshot_date >= self.data_end:
            raise LabelingConfigError(
                f"snapshot_date {self.snapshot_date} must precede data_end {self.data_end}"
            )
        if self.recent_horizon_end <= self.snapshot_date:
            raise LabelingConfigError(
                f"recent_horizon_end {self.recent_horizon_end} must follow snapshot_date "
                f"{self.snapshot_date}; no commit could count as recent"
            )
        for name in ("window_months", "censor_margin_months", "gap_months"):
            if getattr(self, name) < 1:
                raise LabelingConfigError(f"{name} must be positive, got {getattr(self, name)}")
        try:
            if self.window_end > self.data_end:
                raise LabelingConfigError(
                    f"window_months ends the window on {self.window_end}, beyond data_end "
                    f"{self.data_end}; sustained status would be unobservable"
                )
            self.data_end - timedelta(days=months_to_days(self.censor_margin_months))
        except OverflowError:
            raise LabelingConfigError(
                "window_months and censor_margin_months must keep dates within years 1-9999"
            ) from None

    @property
    def window_end(self) -> date:
        return self.snapshot_date + timedelta(days=months_to_days(self.window_months))


@dataclass(frozen=True)
class ParticipationLabel:
    status: str
    sustainedp_or_not_12: int | None
    recent_sustainedp_or_not: int | None


def detect_gap_return(timeline: Sequence[date], gap_months: int = 12) -> bool:
    """True when any two consecutive commit days are more than the gap apart."""
    threshold = months_to_days(gap_months)
    return any(
        (later - earlier).days > threshold
        for earlier, later in zip(timeline, timeline[1:])
    )


def label_participation(timeline: Sequence[date], config: LabelingConfig) -> ParticipationLabel:
    """Resolve one timeline to a participation label.

    Rules, in order: a gap-return before the snapshot excludes the
    contributor; a commit inside the follow-up window marks them sustained;
    a last commit within the censor margin of data_end leaves them censored;
    otherwise they are not sustained.
    """
    ordered = tuple(sorted(set(timeline)))
    if not ordered:
        raise EmptyTimelineError("cannot label an empty timeline")

    pre_snapshot = [d for d in ordered if d <= config.snapshot_date]
    if detect_gap_return(pre_snapshot, config.gap_months):
        return ParticipationLabel("excluded_gap_return", None, None)

    def recent() -> int:
        return int(any(config.snapshot_date < d <= config.recent_horizon_end for d in ordered))

    if any(config.snapshot_date < d <= config.window_end for d in ordered):
        return ParticipationLabel("sustained", 1, recent())

    censor_cutoff = config.data_end - timedelta(days=months_to_days(config.censor_margin_months))
    if ordered[-1] >= censor_cutoff:
        return ParticipationLabel("censored", None, None)

    return ParticipationLabel("not_sustained", 0, recent())


@dataclass
class LabelingOutcome:
    labels: dict[tuple[str, str], ParticipationLabel]
    unlabeled: list[tuple[str, str]]


def label_contributors(
    commits: Sequence[CommitEvent],
    contributors: Iterable[tuple[str, str]],
    config: LabelingConfig,
    global_activity: bool = False,
) -> LabelingOutcome:
    """Label each (repo, author) pair from commit activity.

    By default timelines are scoped to the repository; with global_activity
    an author's commits across all repositories form one shared timeline.
    Contributors with no commits in scope are reported as unlabeled.
    """
    by_scope: dict[object, list[date]] = {}
    for commit in commits:
        day = commit.committed_at.date()
        by_scope.setdefault(commit.author if global_activity else (commit.repo_full_name, commit.author), []).append(day)

    labels: dict[tuple[str, str], ParticipationLabel] = {}
    unlabeled: list[tuple[str, str]] = []
    # Equal labels are one object: a corpus has thousands of contributors
    # and a handful of distinct labels.
    shared: dict[ParticipationLabel, ParticipationLabel] = {}
    for repo, author in sorted(set(contributors)):
        scope = author if global_activity else (repo, author)
        days = by_scope.get(scope)
        if not days:
            unlabeled.append((repo, author))
            continue
        label = label_participation(tuple(days), config)
        labels[(repo, author)] = shared.setdefault(label, label)
    return LabelingOutcome(labels=labels, unlabeled=unlabeled)


def write_labels_csv(
    path: str | Path, labels: Mapping[tuple[str, str], ParticipationLabel]
) -> None:
    outcomes = attrgetter(*OUTCOMES)
    write_csv(path, ("repo_full_name", "author", "status", *OUTCOMES), (
        (repo, author, label.status, *("" if value is None else value for value in outcomes(label)))
        for (repo, author), label in sorted(labels.items())
    ))
