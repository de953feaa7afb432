from __future__ import annotations

import random
from datetime import date, datetime, timedelta, timezone

import pytest

import oracles
from prsafety import participation as pp
from prsafety.corpus import CommitEvent


def _config(**overrides):
    kwargs = {"data_end": date(2025, 1, 1)}
    kwargs.update(overrides)
    return pp.LabelingConfig(**kwargs)


def _commit(repo, author, day):
    return CommitEvent(repo, author, datetime(day.year, day.month, day.day, 12, tzinfo=timezone.utc))


# --- month arithmetic -------------------------------------------------------------

@pytest.mark.parametrize("months,days", [(1, 30), (6, 183), (12, 365), (13, 395), (24, 730)])
def test_months_to_days(months, days):
    assert pp.months_to_days(months) == days
    assert pp.months_to_days(months) == oracles.months_to_days_rounded(months)


def test_months_to_days_rejects_nonpositive():
    for bad in (0, -3):
        with pytest.raises(pp.LabelingConfigError):
            pp.months_to_days(bad)


# --- configuration validation ------------------------------------------------------

def test_snapshot_must_precede_data_end():
    with pytest.raises(pp.LabelingConfigError, match="precede"):
        pp.LabelingConfig(data_end=date(2019, 6, 30))


def test_recent_horizon_must_follow_snapshot():
    # A horizon on the snapshot day leaves no day on which a commit is recent.
    with pytest.raises(pp.LabelingConfigError, match=r"^recent_horizon_end 2019-06-30 must follow"):
        _config(recent_horizon_end=date(2019, 6, 30))
    with pytest.raises(pp.LabelingConfigError, match=r"^recent_horizon_end"):
        _config(recent_horizon_end=date(2010, 1, 1))
    config = _config(recent_horizon_end=date(2019, 7, 1))
    assert pp.label_participation((date(2019, 7, 1),), config).recent_sustainedp_or_not == 1


def test_window_must_be_observable():
    # default window ends 2020-06-29; a data_end before that is unusable
    with pytest.raises(pp.LabelingConfigError, match="beyond data_end"):
        pp.LabelingConfig(data_end=date(2019, 12, 31))
    # but shrinking the window makes the same data_end valid
    pp.LabelingConfig(data_end=date(2019, 12, 31), window_months=6)


def test_window_end_is_365_days_out():
    config = _config()
    assert config.window_end == date(2019, 6, 30) + timedelta(days=365)


# --- gap detection -----------------------------------------------------------------

def test_documented_gap_example():
    timeline = (date(2017, 1, 1), date(2018, 6, 1))
    assert (timeline[1] - timeline[0]).days == 516
    assert pp.detect_gap_return(timeline) is True


def test_single_commit_has_no_gap():
    assert pp.detect_gap_return((date(2018, 1, 1),)) is False


def test_gap_threshold_is_strict():
    base = date(2017, 1, 1)
    assert pp.detect_gap_return((base, base + timedelta(days=365))) is False
    assert pp.detect_gap_return((base, base + timedelta(days=366))) is True


# --- labeling rules ----------------------------------------------------------------

def test_commit_shortly_after_snapshot_is_sustained():
    label = pp.label_participation((date(2019, 11, 1),), _config())
    assert label == pp.ParticipationLabel("sustained", 1, 1)


def test_quiet_contributor_is_not_sustained():
    label = pp.label_participation((date(2019, 5, 1),), _config())
    assert label == pp.ParticipationLabel("not_sustained", 0, 0)


def test_exclusion_wins_over_sustained():
    timeline = (date(2017, 1, 1), date(2018, 6, 1), date(2019, 8, 1))
    label = pp.label_participation(timeline, _config())
    assert label.status == "excluded_gap_return"
    assert label.sustainedp_or_not_12 is None
    assert label.recent_sustainedp_or_not is None


def test_post_snapshot_gap_does_not_exclude():
    # the long silence sits entirely after the snapshot, so it is not a return
    timeline = (date(2019, 5, 1), date(2024, 6, 1))
    assert pp.label_participation(timeline, _config()).status == "censored"


def test_censored_when_last_commit_near_data_end():
    label = pp.label_participation((date(2019, 1, 1), date(2024, 6, 1)), _config())
    assert label == pp.ParticipationLabel("censored", None, None)


def test_censor_cutoff_boundary():
    cutoff = date(2025, 1, 1) - timedelta(days=365)
    at = pp.label_participation((date(2019, 1, 1), cutoff), _config())
    below = pp.label_participation((date(2019, 1, 1), cutoff - timedelta(days=1)), _config())
    assert at.status == "censored"
    assert below.status == "not_sustained"


def test_recent_outcome_respects_horizon():
    config = _config(recent_horizon_end=date(2020, 12, 31))
    beyond = pp.label_participation((date(2019, 5, 1), date(2021, 6, 1)), config)
    assert beyond == pp.ParticipationLabel("not_sustained", 0, 0)
    inside = pp.label_participation((date(2019, 5, 1), date(2020, 6, 1)), config)
    assert inside == pp.ParticipationLabel("sustained", 1, 1)


# The window's edges, from the rules: the snapshot day belongs to the history
# before the snapshot, and the follow-up window and the recent horizon run from
# the day after it through their end days, inclusive.

def test_a_commit_on_the_snapshot_day_is_before_the_snapshot():
    snapshot = _config().snapshot_date
    assert pp.label_participation((snapshot,), _config()) == pp.ParticipationLabel("not_sustained", 0, 0)
    # It ends a gap of more than 12 months before the snapshot: a gap-return.
    returned = (snapshot - timedelta(days=366), snapshot)
    assert pp.label_participation(returned, _config()).status == "excluded_gap_return"
    assert pp.label_participation(returned[:1] + (snapshot + timedelta(days=1),), _config()).status == "sustained"


def test_the_window_ends_on_window_end_inclusive():
    config = _config()
    on_end = pp.label_participation((config.window_end,), config)
    after_end = pp.label_participation((config.window_end + timedelta(days=1),), config)
    assert on_end == pp.ParticipationLabel("sustained", 1, 1)
    assert after_end == pp.ParticipationLabel("not_sustained", 0, 1)


def test_the_recent_horizon_ends_on_recent_horizon_end_inclusive():
    # A data_end two years past the horizon keeps both commits uncensored.
    config = _config(data_end=date(2027, 1, 1))
    on_end = pp.label_participation((config.recent_horizon_end,), config)
    after_end = pp.label_participation((config.recent_horizon_end + timedelta(days=1),), config)
    assert on_end == pp.ParticipationLabel("not_sustained", 0, 1)
    assert after_end == pp.ParticipationLabel("not_sustained", 0, 0)
    # A horizon inside the window: a sustained contributor's recent outcome
    # reads the horizon's end day too.
    early = _config(recent_horizon_end=date(2019, 12, 31))
    on_early_end = pp.label_participation((early.recent_horizon_end,), early)
    after_early_end = pp.label_participation((early.recent_horizon_end + timedelta(days=1),), early)
    assert on_early_end == pp.ParticipationLabel("sustained", 1, 1)
    assert after_early_end == pp.ParticipationLabel("sustained", 1, 0)


def test_a_one_month_window_and_margins_are_accepted():
    config = _config(window_months=1, censor_margin_months=1, gap_months=1)
    assert config.window_end == config.snapshot_date + timedelta(days=30)
    assert pp.label_participation((config.window_end,), config).status == "sustained"
    assert pp.label_participation((config.window_end + timedelta(days=1),), config).status == "not_sustained"


def test_empty_timeline_rejected():
    with pytest.raises(pp.EmptyTimelineError):
        pp.label_participation((), _config())


def test_duplicate_and_unsorted_days_are_harmless():
    messy = (date(2019, 11, 1), date(2019, 2, 1), date(2019, 11, 1))
    assert pp.label_participation(messy, _config()) == pp.label_participation(
        tuple(sorted(set(messy))), _config()
    )


def test_labels_match_scan_oracle_on_random_timelines():
    rng = random.Random(90125)
    config = _config()
    origin = date(2016, 1, 1)
    for _ in range(250):
        days = [origin + timedelta(days=rng.randrange(0, 3300)) for _ in range(rng.randrange(1, 9))]
        label = pp.label_participation(tuple(days), config)
        assert (
            label.status,
            label.sustainedp_or_not_12,
            label.recent_sustainedp_or_not,
        ) == oracles.label_scan(
            days,
            config.snapshot_date,
            config.window_months,
            config.data_end,
            config.censor_margin_months,
            config.recent_horizon_end,
            config.gap_months,
        ), days


def test_sustained_implies_recent_when_horizon_contains_window():
    rng = random.Random(5150)
    config = _config()
    assert config.recent_horizon_end >= config.window_end
    origin = date(2016, 1, 1)
    for _ in range(250):
        days = [origin + timedelta(days=rng.randrange(0, 3300)) for _ in range(rng.randrange(1, 9))]
        label = pp.label_participation(tuple(days), config)
        if label.status == "sustained":
            assert label.recent_sustainedp_or_not == 1


# --- timelines from commit events ---------------------------------------------------

def test_build_timeline_deduplicates_days_and_filters():
    commits = [
        _commit("a/a", "kim", date(2019, 3, 1)),
        _commit("a/a", "kim", date(2019, 3, 1)),
        _commit("a/a", "kim", date(2019, 1, 5)),
        _commit("b/b", "kim", date(2019, 2, 2)),
        _commit("a/a", "lee", date(2019, 4, 4)),
    ]
    assert oracles.build_timeline(commits, "kim", "a/a") == (date(2019, 1, 5), date(2019, 3, 1))
    assert oracles.build_timeline(commits, "kim") == (
        date(2019, 1, 5),
        date(2019, 2, 2),
        date(2019, 3, 1),
    )
    # label_contributors labels each contributor from the same days.
    pairs = [("a/a", "kim"), ("b/b", "kim"), ("a/a", "lee")]
    for global_activity in (False, True):
        outcome = pp.label_contributors(commits, pairs, _config(), global_activity=global_activity)
        for repo, author in pairs:
            days = oracles.build_timeline(commits, author, None if global_activity else repo)
            assert outcome.labels[(repo, author)] == pp.label_participation(days, _config())


def test_label_contributors_scoping():
    # lee's only activity in b/b is pre-snapshot, but globally they returned
    commits = [
        _commit("b/b", "lee", date(2019, 5, 1)),
        _commit("c/c", "lee", date(2019, 9, 1)),
    ]
    pairs = [("b/b", "lee")]
    per_repo = pp.label_contributors(commits, pairs, _config())
    merged = pp.label_contributors(commits, pairs, _config(), global_activity=True)
    assert per_repo.labels[("b/b", "lee")].status == "not_sustained"
    assert merged.labels[("b/b", "lee")].status == "sustained"


def test_equal_labels_are_one_object():
    # Three authors with the same sustained timeline, one not sustained.
    commits = [
        _commit("a/a", author, date(2019, 9, 1)) for author in ("kim", "lee", "max")
    ] + [_commit("a/a", "ned", date(2018, 1, 1))]
    pairs = [("a/a", author) for author in ("kim", "lee", "max", "ned")]
    labels = pp.label_contributors(commits, pairs, _config()).labels
    assert len({id(label) for label in labels.values()}) == 2
    assert labels[("a/a", "kim")] is labels[("a/a", "max")]
    assert labels[("a/a", "ned")] == pp.label_participation((date(2018, 1, 1),), _config())


def test_label_contributors_reports_missing_timelines():
    outcome = pp.label_contributors([], [("a/a", "kim")], _config())
    assert outcome.labels == {}
    assert outcome.unlabeled == [("a/a", "kim")]


def test_fixture_labels(labels12):
    expected = {
        ("acme/rocket", "alice"): ("sustained", 1, 1),
        ("acme/rocket", "bob"): ("not_sustained", 0, 0),
        ("acme/wrench", "carol"): ("sustained", 1, 1),
        ("acme/wrench", "dan"): ("excluded_gap_return", None, None),
    }
    got = {
        key: (label.status, label.sustainedp_or_not_12, label.recent_sustainedp_or_not)
        for key, label in labels12.labels.items()
    }
    assert got == expected
    assert labels12.unlabeled == []


def test_labels_csv_round_trip(tmp_path, labels12):
    path = tmp_path / "labels.csv"
    pp.write_labels_csv(path, labels12.labels)
    lines = path.read_text("utf-8").strip().splitlines()
    assert lines[0] == (
        "repo_full_name,author,status,sustainedp_or_not_12,recent_sustainedp_or_not"
    )
    assert lines[1] == "acme/rocket,alice,sustained,1,1"
    # excluded contributors carry empty outcome cells, not zeros
    assert lines[4] == "acme/wrench,dan,excluded_gap_return,,"
