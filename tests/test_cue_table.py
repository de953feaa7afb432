"""The column path of the cue stage against row-by-row oracles.

extract_all walks each thread once and keeps the cues as columns;
compute_thresholds, score_prs and summarize read those columns.  Each is
compared with a multi-pass, row-based oracle from tests/oracles.py.
"""

from __future__ import annotations

import functools
import statistics
from datetime import datetime, timezone

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np
import oracles
from prsafety import corpus as cm
from prsafety import cues
from prsafety import ps_index as psi
from prsafety.participation import ParticipationLabel

T0 = datetime(2019, 1, 1, tzinfo=timezone.utc)

_EXAMPLES = settings(max_examples=300, deadline=None, derandomize=True, database=None)

FENCE = "`" * 3

# Mentions inside and outside fences (an unterminated fence included),
# emails and other "@" that are no mention, conflict in several cases and
# forms (the dotless i is matched case-insensitively, "deconflict" is not a
# hit), and emoji, ZWJ sequences and non-ASCII text.
_BODY_PARTS = (
    "", " ", "\n", "ok", "@", "@alice", "cc @bob-x,", "@@carol", "@-dash", "bob@example.com",
    "a@b", "x_@y", FENCE, FENCE + "py\n@decorator\n", "conflict", "CONFLICTS", "deconflict",
    "confl\u0131ct", "re-conflict", "\U0001F44D", "\U0001F469\u200d\U0001F4BB", "\u2764\ufe0f",
    "\u200d", "\u00e9", "\u65e5\u672c\u8a9e",
)

_COMMENTS = st.builds(
    cm.CommentRecord,
    author=st.sampled_from(("ann", "kai", "lee")),
    role=st.sampled_from(cm.ROLES),
    body=st.lists(st.sampled_from(_BODY_PARTS), max_size=6).map("".join),
    created_at=st.just(T0),
)

_THREADS = st.lists(
    st.tuples(st.booleans(), st.integers(0, 3), st.lists(_COMMENTS, max_size=8)), max_size=6
)


def _pulls(threads) -> list[cm.PullRequestRecord]:
    return [
        cm.PullRequestRecord("x/y", number, "ann", T0, merged, None, reopen, tuple(comments))
        for number, (merged, reopen, comments) in enumerate(threads, start=1)
    ]


# --- extraction ---------------------------------------------------------------------

@_EXAMPLES
@given(threads=_THREADS)
def test_table_rows_match_the_multi_pass_oracle(emoji_table, threads):
    pulls = _pulls(threads)
    table = cues.extract_all(pulls, emoji_table)
    count = functools.partial(cues.count_emojis, table=emoji_table)
    assert len(table) == len(pulls)
    assert list(table.columns) == list(cues.CUE_NAMES)
    expected = [oracles.extract_cues_rows(pull, count) for pull in pulls]
    for i, (name, column) in enumerate(table.columns.items()):
        assert column.dtype == (np.int64 if name in cues.COUNT_CUES else np.uint8), name
        assert column.tolist() == [row[i] for row in expected], name
    assert [pull for pull, _ in table] == pulls
    assert [vector for _, vector in table] == expected
    # The row view yields Python ints, whatever the columns' dtypes.
    assert all(type(value) is int for _, vector in table for value in vector)


def test_scaled_corpus_columns_match_the_oracle(scaled_corpus_dir, emoji_table):
    # The 60,684-PR corpus of acceptance criterion 8, every PR and every cue.
    pulls = cm.load_corpus(scaled_corpus_dir).corpus.pulls
    table = cues.extract_all(pulls, emoji_table)
    count = functools.partial(cues.count_emojis, table=emoji_table)
    rows = [oracles.extract_cues_rows(pull, count) for pull in pulls]
    assert len(table) == len(rows) == 60_684
    for name, column in zip(cues.CUE_NAMES, zip(*rows)):
        assert table.columns[name].tolist() == list(column), name
    for scope in psi.THRESHOLD_SCOPES:
        thresholds = psi.compute_thresholds(table, scope)
        medians = thresholds.global_medians if scope == "global" else thresholds.per_repository
        assert medians == oracles.thresholds_rows(list(table), psi.THRESHOLD_CUES, scope)


# --- thresholds and scores --------------------------------------------------------

_REPOS = ("acme/a", "acme/b", "zeta/c")
_AUTHORS = ("ann", "kai", "lee")
_LABELS = {
    "sustained": ParticipationLabel("sustained", 1, 1),
    "not_sustained": ParticipationLabel("not_sustained", 0, 0),
    "censored": ParticipationLabel("censored", None, None),
    "excluded_gap_return": ParticipationLabel("excluded_gap_return", None, None),
}
_COUNT = st.integers(0, 6)
_FLAG = st.integers(0, 1)
# One value per cue in CUE_NAMES order: 0/1 for flags, small counts otherwise.
_VECTORS = st.tuples(*(_COUNT if name in cues.COUNT_CUES else _FLAG for name in cues.CUE_NAMES))


@_EXAMPLES
@given(
    drawn=st.lists(
        st.tuples(st.sampled_from(_REPOS), st.sampled_from(_AUTHORS), _VECTORS),
        min_size=1, max_size=40,
    ),
    statuses=st.dictionaries(
        st.tuples(st.sampled_from(_REPOS), st.sampled_from(_AUTHORS)),
        st.sampled_from(sorted(_LABELS)),
    ),
    scope=st.sampled_from(psi.THRESHOLD_SCOPES),
    merged_only=st.booleans(),
)
def test_thresholds_and_summary_match_the_row_oracles(drawn, statuses, scope, merged_only):
    pulls = [
        cm.PullRequestRecord(repo, number, author, T0, bool(values[0]), None, values[2])
        for number, (repo, author, values) in enumerate(drawn, start=1)
    ]
    vectors = [cues.CueVector(*values) for _, _, values in drawn]
    columns = {name: list(column) for name, column in zip(cues.CUE_NAMES, zip(*vectors))}
    table = cues.CueTable(pulls, columns)
    rows = list(zip(pulls, vectors))
    labels = {key: _LABELS[status] for key, status in statuses.items()}

    thresholds = psi.compute_thresholds(table, scope)
    medians = oracles.thresholds_rows(rows, psi.THRESHOLD_CUES, scope)
    got = thresholds.global_medians if scope == "global" else thresholds.per_repository
    assert list(got.items()) == list(medians.items())

    summary = psi.summarize(table, labels, thresholds, merged_only=merged_only)
    expected = oracles.summarize_rows(rows, labels, medians, scope, merged_only)
    got = (*oracles.keyed_scores(summary), summary.contributor_index, summary.repository_index)
    assert [list(d.items()) for d in got] == [list(d.items()) for d in expected]


def test_scaled_corpus_scores_match_the_row_scorer(scaled_corpus_dir, emoji_table):
    # Every PR of the 60,684-PR corpus, scored as if its author sustained.
    table = cues.extract_all(cm.load_corpus(scaled_corpus_dir).corpus.pulls, emoji_table)
    sustained = _LABELS["sustained"]
    for scope in psi.THRESHOLD_SCOPES:
        thresholds = psi.compute_thresholds(table, scope)
        medians = [
            thresholds.global_medians if scope == "global"
            else thresholds.per_repository[pull.repo_full_name]
            for pull in table.pulls
        ]
        for merged_only in (False, True):
            got = psi.score_prs(table.columns, thresholds.row_medians(table.pulls), merged_only)
            expected = [
                oracles.score_row(vector, sustained, row_medians, merged_only)
                for (_, vector), row_medians in zip(table, medians)
            ]
            assert got.tolist() == expected, (scope, merged_only)


def test_counts_past_uint16_keep_their_medians_and_scores(emoji_table):
    # Count cues above 255 and 65,535, and an even row count in each
    # repository and overall: a count column narrower than int64 would wrap
    # a value, or the (a + b) / 2 of a median.
    counts = {
        "acme/a": [(300, 7, 70_000), (70_000, 65_536, 2), (5, 300, 65_535), (65_535, 0, 300)],
        "acme/b": [(70_000, 70_000, 65_536), (65_536, 1, 256)],
    }
    pulls, vectors = [], []
    for repo, rows in counts.items():
        for comments, own, participants in rows:
            pulls.append(cm.PullRequestRecord(repo, len(pulls) + 1, "ann", T0, True, None, comments))
            vectors.append(cues.CueVector(
                merged_or_not=1, pr_comment_num=comments, reopen_num=comments, has_exchange=1,
                comment_conflict=0, contrib_comment=1, num_comments_con=own, inte_comment=1,
                reviewer_comment=0, other_comment=1, num_participant=participants, at_tag=0,
                emoji_count=own,
            ))
    table = cues.CueTable(pulls, dict(zip(cues.CUE_NAMES, map(list, zip(*vectors)))))
    sustained = _LABELS["sustained"]
    for scope in psi.THRESHOLD_SCOPES:
        thresholds = psi.compute_thresholds(table, scope)
        groups = {"": vectors} if scope == "global" else {
            repo: [v for pull, v in zip(pulls, vectors) if pull.repo_full_name == repo]
            for repo in counts
        }
        expected = {
            repo: {cue: float(statistics.median([getattr(v, cue) for v in rows]))
                   for cue in psi.THRESHOLD_CUES}
            for repo, rows in groups.items()
        }
        got = {"": thresholds.global_medians} if scope == "global" else thresholds.per_repository
        assert got == expected, scope
        for merged_only in (False, True):
            scores = psi.score_prs(table.columns, thresholds.row_medians(pulls), merged_only)
            assert scores.tolist() == [
                oracles.score_row(v, sustained, expected["" if scope == "global" else p.repo_full_name],
                                  merged_only)
                for p, v in zip(pulls, vectors)
            ], (scope, merged_only)
    assert [vector for _, vector in table] == vectors
    extracted = cues.extract_all(pulls, emoji_table).columns["reopen_num"]
    assert extracted.tolist() == [vector.reopen_num for vector in vectors]
