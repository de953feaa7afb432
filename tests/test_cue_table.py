"""The column path of the cue stage against row-by-row oracles.

extract_all walks each thread once and keeps the cues as columns;
compute_thresholds, score_prs and summarize read those columns.  Each is
compared with a multi-pass, row-based oracle from tests/oracles.py, and a
load that folds each thread into its row is compared with the records.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import random
import statistics
import tracemalloc
from datetime import datetime, timezone

from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np
import oracles
import synth
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


def _keys(pulls) -> list[tuple]:
    return [(pull.repo_full_name, pull.pr_number, pull.author) for pull in pulls]


def _columns(pulls) -> cm.Pulls:
    """The records as Pulls, each row the record's comments."""
    return cm.pull_columns(pulls, _Recording)


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
    assert _keys(pull for pull, _ in table) == _keys(pulls)
    assert all(pull.comments == () for pull, _ in table)
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
        assert medians == oracles.thresholds_rows(oracles.cue_dicts(table), psi.THRESHOLD_CUES, scope)


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


def _drawn_table(drawn):
    """The (pull, {cue: value}) rows of drawn (repo, author, values) triples, and their CueTable."""
    pulls = [
        cm.PullRequestRecord(repo, number, author, T0, bool(values[0]), None, values[2])
        for number, (repo, author, values) in enumerate(drawn, start=1)
    ]
    rows = [(pull, dict(zip(cues.CUE_NAMES, values))) for pull, (_, _, values) in zip(pulls, drawn)]
    return rows, cues.CueTable(_columns(pulls), {name: [v[name] for _, v in rows] for name in cues.CUE_NAMES})


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
    rows, table = _drawn_table(drawn)
    labels = {key: _LABELS[status] for key, status in statuses.items()}

    thresholds = psi.compute_thresholds(table, scope)
    medians = oracles.thresholds_rows(rows, psi.THRESHOLD_CUES, scope)
    got = thresholds.global_medians if scope == "global" else thresholds.per_repository
    assert list(got.items()) == list(medians.items())

    summary = psi.summarize(table, labels, thresholds, merged_only=merged_only)
    expected = oracles.summarize_rows(rows, labels, medians, scope, merged_only)
    got = (*oracles.keyed_scores(summary, table, labels), summary.contributor_index, summary.repository_index)
    assert [list(d.items()) for d in got] == [list(d.items()) for d in expected]


# --- contributors -------------------------------------------------------------------

def _assert_contributors_number_the_pulls(table):
    keys, rows = table.contributors
    assert keys == oracles.contributor_keys(table.pulls)
    assert rows.dtype == np.intp
    assert [keys[row] for row in rows.tolist()] == [(p.repo_full_name, p.author) for p in table.pulls]
    counts = np.bincount(rows)
    assert len(counts) == len(keys)
    assert counts.sum() == len(table)
    # Cached: a second read returns the same objects.
    again = table.contributors
    assert again[0] is keys and again[1] is rows


@_EXAMPLES
@given(drawn=st.lists(st.tuples(st.sampled_from(_REPOS), st.sampled_from(_AUTHORS), _VECTORS), max_size=40))
def test_contributors_number_the_drawn_pulls_in_first_pr_order(drawn):
    _assert_contributors_number_the_pulls(_drawn_table(drawn)[1])


def test_contributors_of_a_hand_built_table():
    # One author in two repositories, two authors in one, pairs revisited.
    pairs = [("a/x", "ann"), ("b/y", "ann"), ("a/x", "kai"), ("a/x", "ann"), ("b/y", "ann"), ("b/y", "kai")]
    pulls = [cm.PullRequestRecord(repo, n, author, T0, True, None, 0) for n, (repo, author) in enumerate(pairs)]
    table = cues.CueTable(_columns(pulls), dict.fromkeys(cues.CUE_NAMES, [0] * len(pulls)))
    keys, rows = table.contributors
    assert keys == [("a/x", "ann"), ("b/y", "ann"), ("a/x", "kai"), ("b/y", "kai")]
    assert rows.tolist() == [0, 1, 2, 0, 1, 3]
    _assert_contributors_number_the_pulls(table)
    # The numbering is no field: equality and replace see pulls and columns alone.
    assert [f.name for f in dataclasses.fields(table)] == ["pulls", "columns"]


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
                oracles.score_row(row, sustained, row_medians, merged_only)
                for (_, row), row_medians in zip(oracles.cue_dicts(table), medians)
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
            vectors.append(dict(
                merged_or_not=1, pr_comment_num=comments, reopen_num=comments, has_exchange=1,
                comment_conflict=0, contrib_comment=1, num_comments_con=own, inte_comment=1,
                reviewer_comment=0, other_comment=1, num_participant=participants, at_tag=0,
                emoji_count=own,
            ))
    assert all(list(v) == list(cues.CUE_NAMES) for v in vectors)
    table = cues.CueTable(_columns(pulls), {name: [v[name] for v in vectors] for name in cues.CUE_NAMES})
    sustained = _LABELS["sustained"]
    for scope in psi.THRESHOLD_SCOPES:
        thresholds = psi.compute_thresholds(table, scope)
        groups = {"": vectors} if scope == "global" else {
            repo: [v for pull, v in zip(pulls, vectors) if pull.repo_full_name == repo]
            for repo in counts
        }
        expected = {
            repo: {cue: float(statistics.median([v[cue] for v in rows]))
                   for cue in psi.THRESHOLD_CUES}
            for repo, rows in groups.items()
        }
        got = {"": thresholds.global_medians} if scope == "global" else thresholds.per_repository
        assert got == expected, scope
        for merged_only in (False, True):
            scores = psi.score_prs(table.columns, thresholds.row_medians(table.pulls), merged_only)
            assert scores.tolist() == [
                oracles.score_row(v, sustained, expected["" if scope == "global" else p.repo_full_name],
                                  merged_only)
                for p, v in zip(pulls, vectors)
            ], (scope, merged_only)
    assert [dict(zip(cues.CUE_NAMES, row)) for _, row in table] == vectors
    extracted = cues.extract_all(pulls, emoji_table).columns["reopen_num"]
    assert extracted.tolist() == [vector["reopen_num"] for vector in vectors]


# --- the fold: a load that keeps no comment record ---------------------------------

def _assert_columns_hold_the_records(pulls, records):
    """Field by field, the Pulls of a folded load hold what the records load's pulls hold."""
    assert type(pulls) is cm.Pulls and len(pulls) == len(records)
    assert [pulls.repos[code] for code in pulls.repo.tolist()] == [p.repo_full_name for p in records]
    assert [pulls.authors[code] for code in pulls.author.tolist()] == [p.author for p in records]
    assert pulls.pr_number.tolist() == [p.pr_number for p in records]
    assert pulls.merged.tolist() == [int(p.merged) for p in records]
    assert pulls.reopen_count.tolist() == [p.reopen_count for p in records]
    assert [pulls.repo_comments[code] for code in range(len(pulls.repos))] == [
        sum(len(p.comments) for p in records if p.repo_full_name == name) for name in pulls.repos
    ]
    # Codes number the repositories in name order, each with a pull.
    assert list(pulls.repos) == sorted(pulls.repos)
    assert set(pulls.repo.tolist()) == set(range(len(pulls.repos)))
    dtypes = {"repo": np.int64, "author": np.int64, "pr_number": np.int64, "merged": np.uint8,
              "reopen_count": np.int64, "thread": np.int64, "repo_comments": np.int64}
    assert {name: getattr(pulls, name).dtype for name in dtypes} == dtypes
    # The row view: built on access, holding no comment.
    assert _keys(pulls) == _keys(records)
    assert all(pull.comments == () for pull in pulls)


def _assert_fold_agrees_with_the_records(directory, emoji_table):
    records = cm.load_corpus(directory)
    folded = cm.load_corpus(directory, fold=functools.partial(cues.Thread, emoji_table))
    assert folded.errors == records.errors
    assert folded.corpus.counts() == records.corpus.counts()
    _assert_columns_hold_the_records(folded.corpus.pulls, records.corpus.pulls)
    # A filter that drops repositories masks the columns as it drops the records.
    for top in (1, 2):
        config = cm.FilterConfig(top_n_by_stars=top)
        want = cm.filter_repositories(records.corpus, config)
        got = cm.filter_repositories(folded.corpus, config)
        assert got.counts() == want.counts()
        _assert_columns_hold_the_records(got.pulls, want.pulls)
    want = cues.extract_all(records.corpus.pulls, emoji_table)
    got = cues.extract_all(folded.corpus.pulls, emoji_table)
    assert got.pulls is folded.corpus.pulls
    for name in cues.CUE_NAMES:
        assert got.columns[name].dtype == want.columns[name].dtype, name
        assert got.columns[name].tolist() == want.columns[name].tolist(), name
    # The pulls' own arrays are two cue columns, not copies of them.
    assert got.columns["merged_or_not"] is got.pulls.merged
    assert got.columns["reopen_num"] is got.pulls.reopen_count
    # Equal rows are one entry.
    assert len(set(got.pulls.rows)) == len(got.pulls.rows)


# Faulty pull timestamps: a folded pull keeps neither, but checks both.
_BAD_PULL_STAMPS = tuple(
    (name, value)
    for name in ("created_at", "closed_at")
    for value in ("2019-02-30T10:00:00Z", "2019-01-01T10:00:60Z", "2019-01-01T24:00:00Z",
                  "2019-01-01T10:00:00", 1546336800)
) + (("created_at", None),)


def _break_pull_stamps(directory, faults):
    """Set each drawn (position, (field, value)) fault on the pull at that
    position of pulls.jsonl."""
    path = directory / "pulls.jsonl"
    pulls = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
    for position, (name, value) in faults:
        pulls[position % len(pulls)][name] = value
    path.write_text("".join(json.dumps(p) + "\n" for p in pulls), encoding="utf-8")


def _repeat_pulls(directory, positions):
    """Append to pulls.jsonl a copy of the pull at each drawn position, under
    its key but with other fields and comments."""
    path = directory / "pulls.jsonl"
    pulls = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
    for position in positions:
        pull = pulls[position % len(pulls)]
        pulls.append({**pull, "merged": not pull["merged"], "reopen_count": 7, "comments": pull["comments"][:1]})
    path.write_text("".join(json.dumps(p) + "\n" for p in pulls), encoding="utf-8")


def _split_comments(directory, rng, same_second, bad_role, bad_time, orphan, keep=0.5):
    """Keep each of a pull's comments embedded with probability keep and
    move the others to a shuffled comments.jsonl, with drawn faults:
    same-second timestamps in a thread, a role outside ROLES and an
    impossible created_at (each at a drawn comment, embedded or not), and a
    comment naming a pull the corpus lacks.  With keep 1 no comments.jsonl
    is written, so there is no orphan either."""
    pulls, separate, every = [], [], []
    for line in (directory / "pulls.jsonl").read_text("utf-8").splitlines():
        pull = json.loads(line)
        key = {"repo_full_name": pull["repo_full_name"], "pr_number": pull["pr_number"]}
        embedded = []
        for comment in pull["comments"]:
            if same_second:
                comment["created_at"] = pull["comments"][0]["created_at"]
            every.append(comment)
            if rng.random() < keep:
                embedded.append(comment)
            else:
                separate.append({**key, **comment})
        pulls.append({**pull, "comments": embedded})
    if every and bad_role is not None:
        every[bad_role % len(every)]["role"] = "owner"
    if every and bad_time is not None:
        every[bad_time % len(every)]["created_at"] = "2019-02-30T10:00:00Z"
    if orphan and keep < 1:
        separate.append({"repo_full_name": "acme/r0", "pr_number": 999, "role": "other",
                         "author": "ghost", "body": "orphan", "created_at": "2019-01-01T00:00:00Z"})
    rng.shuffle(separate)
    files = {"pulls.jsonl": pulls, **({"comments.jsonl": separate} if keep < 1 else {})}
    for name, items in files.items():
        (directory / name).write_text("".join(json.dumps(i) + "\n" for i in items), encoding="utf-8")


@settings(_EXAMPLES, max_examples=100)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
    same_second=st.booleans(),
    bad_role=st.none() | st.integers(0, 40),
    bad_time=st.none() | st.integers(0, 40),
    orphan=st.booleans(),
    bad_stamps=st.lists(st.tuples(st.integers(0, 40), st.sampled_from(_BAD_PULL_STAMPS)), max_size=2),
    repeats=st.lists(st.integers(0, 40), max_size=3),
)
@example(sizes=[6, 6], seed=3, same_second=False, bad_role=None, bad_time=None, orphan=False,
         bad_stamps=list(enumerate(_BAD_PULL_STAMPS)), repeats=[])  # every fault, each on its own pull
@example(sizes=[3, 2, 4], seed=9, same_second=False, bad_role=None, bad_time=None, orphan=True,
         bad_stamps=[], repeats=[0, 4, 4, 8])  # repeated keys in several repositories
def test_a_folded_load_gives_the_records_cues_and_errors(
    tmp_path_factory, emoji_table, sizes, seed, same_second, bad_role, bad_time, orphan, bad_stamps, repeats
):
    directory = tmp_path_factory.mktemp("fold")
    counts = tuple((f"acme/r{i}", size) for i, size in enumerate(sizes))
    synth.build_scaled_corpus(directory, counts=counts, seed=seed, prs_per_author=2)
    _break_pull_stamps(directory, bad_stamps)
    _repeat_pulls(directory, repeats)
    _assert_fold_agrees_with_the_records(directory, emoji_table)
    _split_comments(directory, random.Random(seed), same_second, bad_role, bad_time, orphan)
    _assert_fold_agrees_with_the_records(directory, emoji_table)


def test_a_folded_load_of_the_scaled_corpus_gives_the_records_cues(scaled_corpus_dir, emoji_table):
    _assert_fold_agrees_with_the_records(scaled_corpus_dir, emoji_table)


class _Recording(list):
    """A fold other than cues.Thread: it records each comment it is given,
    and closes into the records in timestamp order, ties in the order given."""

    def add(self, role, author, body, created_at):
        self.append(cm.CommentRecord(author, role, body, created_at))

    def close(self):
        return tuple(sorted(self, key=lambda comment: comment.created_at))


@settings(_EXAMPLES, max_examples=60)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
    keep=st.sampled_from((1.0, 0.5, 0.0)),  # embedded, mixed, all in comments.jsonl
    same_second=st.booleans(),
    bad_role=st.none() | st.integers(0, 40),
    bad_time=st.none() | st.integers(0, 40),
    orphan=st.booleans(),
)
@example(sizes=[6, 6], seed=5, keep=1.0, same_second=True, bad_role=3, bad_time=7, orphan=False)
@example(sizes=[6, 6], seed=5, keep=0.5, same_second=True, bad_role=3, bad_time=7, orphan=True)
@example(sizes=[6, 6], seed=5, keep=0.0, same_second=True, bad_role=3, bad_time=7, orphan=True)
def test_any_fold_is_given_the_comments_of_the_records_load(
    tmp_path_factory, sizes, seed, keep, same_second, bad_role, bad_time, orphan
):
    # The fold contract: every checked comment of a pull goes to its
    # thread's add as (role, author, body, created_at), embedded ones in line
    # order and then comments.jsonl's in file order, and close's row is the
    # pull's.  A fold that records them closes into the records' comments.
    directory = tmp_path_factory.mktemp("recording")
    counts = tuple((f"acme/r{i}", size) for i, size in enumerate(sizes))
    synth.build_scaled_corpus(directory, counts=counts, seed=seed, prs_per_author=2)
    _split_comments(directory, random.Random(seed), same_second, bad_role, bad_time, orphan, keep)
    assert (directory / "comments.jsonl").exists() == (keep < 1)
    records = cm.load_corpus(directory)
    recorded = cm.load_corpus(directory, fold=_Recording)
    assert recorded.errors == records.errors
    # The comment count is the comments the load gave, whatever the rows hold.
    assert recorded.corpus.counts() == records.corpus.counts()
    pulls = recorded.corpus.pulls
    _assert_columns_hold_the_records(pulls, records.corpus.pulls)
    assert [pulls.rows[t] for t in pulls.thread.tolist()] == [p.comments for p in records.corpus.pulls]
    for name in ("commits", "contexts", "repos"):
        assert getattr(recorded.corpus, name) == getattr(records.corpus, name), name


# --- memory: what a run's load keeps and peaks at ---------------------------------

# Bytes per pull that tracemalloc counts for a folded load of the tenth-scale
# corpus below (6,056 pulls), after a first load of it.  CPython 3.11.7 with
# numpy 2.4.6 reads 60.9 B retained after the load and 140.9 B at its peak.
# The pulls are columns, 41 B a pull; the peak adds the per-repository dicts
# from number to position, which live until the canonical sort.  Each bound
# is about 12% above that.  When the pulls were one object each, 3.10.13
# through 3.13.0 agreed within 1 B.  A change that keeps or peaks at more
# per pull on purpose moves the bound and says why, as a golden change does.
_RETAINED_PER_PULL = 68
_PEAK_PER_PULL = 158


def test_a_folded_load_keeps_and_peaks_at_a_bounded_size_per_pull(tmp_path, emoji_table):
    counts = tuple((repo, n // 10) for repo, n in synth.REPO_COUNTS)
    synth.build_scaled_corpus(tmp_path, counts=counts)
    fold = functools.partial(cues.Thread, emoji_table)
    # The first load fills the interpreter's free lists and the table's
    # compiled pattern, which no later load grows.
    cm.load_corpus(tmp_path, fold)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = cm.load_corpus(tmp_path, fold)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pulls = len(result.corpus.pulls)
    assert pulls == 6_056
    retained, peak = (after - before) / pulls, (peak - before) / pulls
    assert retained <= _RETAINED_PER_PULL, f"{retained:.1f} B retained per pull"
    assert peak <= _PEAK_PER_PULL, f"{peak:.1f} B peak per pull"
