"""The column path of the cue stage against row-by-row oracles.

extract_all walks each thread once and keeps the cues as columns;
compute_thresholds reads those columns and summarize reads the table's row
view.  Each is compared with a multi-pass, row-based oracle from
tests/oracles.py.
"""

from __future__ import annotations

import functools
from datetime import datetime, timezone

from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert all(type(value) is int for column in table.columns.values() for value in column)
    assert [pull for pull, _ in table] == pulls
    expected = [oracles.extract_cues_rows(pull, count) for pull in pulls]
    assert [vector for _, vector in table] == expected
    for pull, row in zip(pulls, expected):
        assert cues.extract_cues(pull, emoji_table) == row


def test_scaled_corpus_columns_match_the_oracle(scaled_corpus_dir, emoji_table):
    # The 60,684-PR corpus of acceptance criterion 8, every PR and every cue.
    pulls = cm.load_corpus(scaled_corpus_dir).corpus.pulls
    table = cues.extract_all(pulls, emoji_table)
    count = functools.partial(cues.count_emojis, table=emoji_table)
    rows = [oracles.extract_cues_rows(pull, count) for pull in pulls]
    assert len(table) == len(rows) == 60_684
    for name, column in zip(cues.CUE_NAMES, zip(*rows)):
        assert table.columns[name] == list(column), name
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
    score = functools.partial(psi.score_pr, merged_only=merged_only)
    expected = oracles.summarize_rows(rows, labels, medians, scope, score)
    got = (summary.pr_scores, summary.skipped_prs, summary.contributor_index,
           summary.repository_index)
    assert [list(d.items()) for d in got] == [list(d.items()) for d in expected]
