from __future__ import annotations

import functools
import random
from datetime import datetime, timezone
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from prsafety import corpus as cm
from prsafety import ps_index as psi
from prsafety.cues import CUE_NAMES, CueTable, Thread
from prsafety.participation import ParticipationLabel

T0 = datetime(2019, 1, 1, tzinfo=timezone.utc)
SUSTAINED = ParticipationLabel("sustained", 1, 1)
NOT_SUSTAINED = ParticipationLabel("not_sustained", 0, 0)

# Hand-computed global medians and scores for the twelve-PR fixture.
FIXTURE_MEDIANS = {"pr_comment_num": 1.5, "num_comments_con": 0.5, "num_participant": 1.5}
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


def _table(rows):
    """A CueTable of (pull, cues) rows; it casts the lists to its column dtypes.
    A pull without a number or an author is given one."""
    records = [
        cm.PullRequestRecord(pull.repo_full_name, getattr(pull, "pr_number", number),
                             getattr(pull, "author", "ann"), T0, True, None, 0)
        for number, (pull, _) in enumerate(rows, start=1)
    ]
    # No comment reaches the fold, so its threads need no emoji table.
    pulls = cm.pull_columns(records, functools.partial(Thread, None))
    return CueTable(pulls, {name: [v[name] for _, v in rows] for name in CUE_NAMES})


def _repo_table(rows):
    """A CueTable of (repo, cues) rows; each pull carries only its repository."""
    return _table([(SimpleNamespace(repo_full_name=repo), vector) for repo, vector in rows])


def _vector(**overrides):
    """One PR's {cue: value}: every cue 0 but the overrides."""
    base = dict.fromkeys(
        (
            "merged_or_not", "pr_comment_num", "reopen_num", "has_exchange",
            "comment_conflict", "contrib_comment", "num_comments_con", "inte_comment",
            "reviewer_comment", "other_comment", "num_participant", "at_tag", "emoji_count",
        ),
        0,
    )
    assert set(overrides) <= set(base)
    base.update(overrides)
    return base


# --- thresholds -------------------------------------------------------------------

def test_median_oracle_basics():
    assert oracles.median_sorted([0, 0, 1, 2, 5]) == 1
    assert oracles.median_sorted([0, 0, 0, 0]) == 0


def test_fixture_global_medians(cue_rows12):
    thresholds = psi.compute_thresholds(cue_rows12)
    assert thresholds.scope == "global"
    assert thresholds.global_medians == FIXTURE_MEDIANS
    for cue in psi.THRESHOLD_CUES:
        values = [v[cue] for _, v in oracles.cue_dicts(cue_rows12)]
        assert thresholds.global_medians[cue] == oracles.median_sorted(values)


def test_fixture_per_repository_medians(cue_rows12):
    thresholds = psi.compute_thresholds(cue_rows12, scope="per_repository")
    assert thresholds.per_repository == {
        "acme/rocket": {"pr_comment_num": 1.0, "num_comments_con": 0.0, "num_participant": 1.0},
        "acme/wrench": {"pr_comment_num": 2.0, "num_comments_con": 1.0, "num_participant": 2.0},
    }
    row_medians = thresholds.row_medians(cue_rows12.pulls)
    wrench = [
        value for pull, value in zip(cue_rows12.pulls, row_medians["pr_comment_num"])
        if pull.repo_full_name == "acme/wrench"
    ]
    assert wrench == [2.0] * 5


def test_per_repository_medians_match_oracle_on_many_repositories():
    rng = random.Random(2000)
    repos = [f"org{i:03d}/r" for i in range(300)]
    rows = [
        (rng.choice(repos), _vector(pr_comment_num=rng.randrange(20),
                                    num_comments_con=rng.randrange(5),
                                    num_participant=rng.randrange(8)))
        for _ in range(3000)
    ]
    thresholds = psi.compute_thresholds(_repo_table(rows), scope="per_repository")
    present = sorted({repo for repo, _ in rows})
    assert list(thresholds.per_repository) == present
    for repo in present:
        for cue in psi.THRESHOLD_CUES:
            values = [v[cue] for name, v in rows if name == repo]
            assert thresholds.per_repository[repo][cue] == oracles.median_sorted(values)


def test_thresholds_reject_bad_input():
    with pytest.raises(ValueError, match="scope"):
        psi.compute_thresholds(_repo_table([("a/a", _vector())]), scope="weekly")
    with pytest.raises(ValueError, match="empty"):
        psi.compute_thresholds(_repo_table([]))


# --- scoring ------------------------------------------------------------------------

def _columns(vectors):
    """The cue columns of a list of vectors, in the table's dtypes."""
    return _table([(SimpleNamespace(repo_full_name="a/a"), vector) for vector in vectors]).columns


def _summarize_one(vector, label):
    """summarize on a one-PR table whose author carries the label, and the
    summary's keyed_scores."""
    pull = SimpleNamespace(repo_full_name="a/a", pr_number=1, author="ann")
    thresholds = psi.Thresholds("global", global_medians=FIXTURE_MEDIANS)
    table, labels = _table([(pull, vector)]), {("a/a", "ann"): label}
    summary = psi.summarize(table, labels, thresholds)
    return summary, oracles.keyed_scores(summary, table, labels)


def test_tie_with_median_earns_no_point():
    columns = _columns([_vector(merged_or_not=1, pr_comment_num=2)])
    at = psi.score_prs(columns, {**FIXTURE_MEDIANS, "pr_comment_num": 2.0})
    above = psi.score_prs(columns, {**FIXTURE_MEDIANS, "pr_comment_num": 1.0})
    assert above.tolist() == [at[0] + 1]
    # Per-row medians, as under the per-repository scope, give the same two scores.
    twice = _columns([_vector(merged_or_not=1, pr_comment_num=2)] * 2)
    per_row = psi.score_prs(twice, {**FIXTURE_MEDIANS, "pr_comment_num": np.array([2.0, 1.0])})
    assert per_row.tolist() == [at[0], above[0]]


def test_not_sustained_scores_zero():
    rich = _vector(
        merged_or_not=1, pr_comment_num=9, has_exchange=1, contrib_comment=1,
        num_comments_con=4, inte_comment=1, reviewer_comment=1, other_comment=1,
        num_participant=5, at_tag=1,
    )
    _, keyed = _summarize_one(rich, NOT_SUSTAINED)
    assert keyed == ({("a/a", 1): 0}, {})


def test_censored_and_excluded_are_skip_markers():
    for status in ("censored", "excluded_gap_return"):
        summary, keyed = _summarize_one(_vector(), ParticipationLabel(status, None, None))
        assert keyed == ({}, {("a/a", 1): status})
        assert summary.contributor_index == {}


def test_sustained_score_bounds():
    rng = random.Random(64)
    vectors = [
        _vector(
            merged_or_not=rng.randrange(2), pr_comment_num=rng.randrange(8),
            has_exchange=rng.randrange(2), contrib_comment=rng.randrange(2),
            num_comments_con=rng.randrange(5), inte_comment=rng.randrange(2),
            reviewer_comment=rng.randrange(2), other_comment=rng.randrange(2),
            num_participant=rng.randrange(6), at_tag=rng.randrange(2),
        )
        for _ in range(200)
    ]
    columns = _columns(vectors)
    scores = psi.score_prs(columns, FIXTURE_MEDIANS)
    strict = psi.score_prs(columns, FIXTURE_MEDIANS, merged_only=True)
    assert all(1 <= score <= 10 for score in scores)  # the terminal-state condition is free by default
    assert all(0 <= low <= score for low, score in zip(strict, scores))


def test_raising_count_cues_never_lowers_score():
    rng = random.Random(65)
    vectors = [
        _vector(
            pr_comment_num=rng.randrange(4),
            num_comments_con=rng.randrange(3),
            num_participant=rng.randrange(4),
        )
        for _ in range(100)
    ]
    columns = _columns(vectors)
    base = psi.score_prs(columns, FIXTURE_MEDIANS)
    for cue in psi.THRESHOLD_CUES:
        raised = {**columns, cue: [value + 3 for value in columns[cue]]}
        assert all(psi.score_prs(raised, FIXTURE_MEDIANS) >= base)


# --- aggregation on the fixture -------------------------------------------------------

def test_fixture_pr_scores_exact(cue_rows12, labels12):
    thresholds = psi.compute_thresholds(cue_rows12)
    summary = psi.summarize(cue_rows12, labels12.labels, thresholds)
    pr_scores, skipped_prs = oracles.keyed_scores(summary, cue_rows12, labels12.labels)
    assert pr_scores == FIXTURE_SCORES
    assert skipped_prs == {
        ("acme/wrench", 4): "excluded_gap_return",
        ("acme/wrench", 5): "excluded_gap_return",
    }


def test_summary_keeps_one_int8_score_per_row(cue_rows12, labels12):
    summary = psi.summarize(cue_rows12, labels12.labels, psi.compute_thresholds(cue_rows12))
    assert summary.scores.dtype == np.int8
    keys = [(pull.repo_full_name, pull.pr_number) for pull in cue_rows12.pulls]
    assert summary.scores.tolist() == [FIXTURE_SCORES.get(key, -1) for key in keys]
    assert list(oracles.keyed_scores(summary, cue_rows12, labels12.labels)[0]) == [key for key in keys if key in FIXTURE_SCORES]


def test_fixture_indices_exact(cue_rows12, labels12):
    thresholds = psi.compute_thresholds(cue_rows12)
    summary = psi.summarize(cue_rows12, labels12.labels, thresholds)
    assert summary.contributor_index == {
        ("acme/rocket", "alice"): 4.75,
        ("acme/rocket", "bob"): 0.0,
        ("acme/wrench", "carol"): 17 / 3,
    }
    assert summary.repository_index == {
        "acme/rocket": 2.375,
        "acme/wrench": 17 / 3,
    }


def test_fixture_merged_only_variant(cue_rows12, labels12):
    thresholds = psi.compute_thresholds(cue_rows12)
    summary = psi.summarize(cue_rows12, labels12.labels, thresholds, merged_only=True)
    assert summary.contributor_index == {
        ("acme/rocket", "alice"): 4.5,
        ("acme/rocket", "bob"): 0.0,
        ("acme/wrench", "carol"): 16 / 3,
    }
    assert summary.repository_index == {
        "acme/rocket": 2.25,
        "acme/wrench": 16 / 3,
    }


def test_summarize_is_order_insensitive(cue_rows12, labels12):
    thresholds = psi.compute_thresholds(cue_rows12)
    direct = psi.summarize(cue_rows12, labels12.labels, thresholds)
    shuffled = oracles.cue_dicts(cue_rows12)
    random.Random(3).shuffle(shuffled)
    permuted_table = _table(shuffled)
    permuted = psi.summarize(permuted_table, labels12.labels, thresholds)
    assert (oracles.keyed_scores(permuted, permuted_table, labels12.labels)[0]
            == oracles.keyed_scores(direct, cue_rows12, labels12.labels)[0])
    assert permuted.contributor_index == direct.contributor_index
    assert permuted.repository_index == direct.repository_index


def test_repository_index_bounded_by_contributors(cue_rows12, labels12):
    thresholds = psi.compute_thresholds(cue_rows12)
    summary = psi.summarize(cue_rows12, labels12.labels, thresholds)
    for repo, value in summary.repository_index.items():
        members = [v for (r, _), v in summary.contributor_index.items() if r == repo]
        assert min(members) <= value <= max(members)


def test_unlabeled_author_is_skipped(cue_rows12, labels12):
    labels = dict(labels12.labels)
    del labels[("acme/rocket", "bob")]
    thresholds = psi.compute_thresholds(cue_rows12)
    summary = psi.summarize(cue_rows12, labels, thresholds)
    assert oracles.keyed_scores(summary, cue_rows12, labels)[1][("acme/rocket", 5)] == "unlabeled"
    assert ("acme/rocket", "bob") not in summary.contributor_index


# --- artifacts ------------------------------------------------------------------------

def test_csv_outputs(tmp_path, cue_rows12, labels12):
    thresholds = psi.compute_thresholds(cue_rows12)
    summary = psi.summarize(cue_rows12, labels12.labels, thresholds)
    repo_path = tmp_path / "ps_index_repository.csv"
    contrib_path = tmp_path / "ps_index_contributor.csv"
    psi.write_repository_csv(repo_path, summary)
    psi.write_contributor_csv(contrib_path, summary)
    assert repo_path.read_text("utf-8").splitlines() == [
        "repo_full_name,ps_index",
        "acme/wrench,5.667",
        "acme/rocket,2.375",
    ]
    assert contrib_path.read_text("utf-8").splitlines() == [
        "repo_full_name,author,ps_index",
        "acme/rocket,alice,4.750",
        "acme/rocket,bob,0.000",
        "acme/wrench,carol,5.667",
    ]
