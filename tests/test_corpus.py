from __future__ import annotations

import dataclasses
import json
import random
import re
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from prsafety import corpus as cm


def _write(path, lines):
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")


def _minimal_dir(tmp_path, pulls=(), commits=(), contexts=(), repos=()):
    _write(tmp_path / "pulls.jsonl", pulls)
    _write(tmp_path / "commits.jsonl", commits)
    _write(tmp_path / "contributor_context.jsonl", contexts)
    _write(tmp_path / "repos.jsonl", repos)
    return tmp_path


def _pull_obj(repo="a/b", number=1, author="ann", **overrides):
    obj = {
        "repo_full_name": repo,
        "pr_number": number,
        "author": author,
        "created_at": "2019-01-01T00:00:00Z",
        "merged": True,
        "closed_at": None,
        "reopen_count": 0,
        "comments": [],
    }
    obj.update(overrides)
    return obj


def _repo_obj(name="a/b", stars=10, labels=(), pr_count=1):
    return {
        "repo_full_name": name,
        "stars": stars,
        "category_labels": list(labels),
        "pr_count": pr_count,
        "repo_size": cm.repo_size_for(pr_count),
    }


# --- timestamps ---------------------------------------------------------------

def test_parse_timestamp_accepts_z_and_offsets():
    parsed = cm.parse_timestamp("2019-06-30T12:34:56Z")
    assert parsed == datetime(2019, 6, 30, 12, 34, 56, tzinfo=timezone.utc)
    shifted = cm.parse_timestamp("2019-06-30T14:34:56+02:00")
    assert shifted == parsed


def test_parse_timestamp_requires_timezone():
    with pytest.raises(Exception):
        cm.parse_timestamp("2019-06-30T12:34:56")


def test_format_timestamp_round_trip():
    text = "2019-06-30T12:34:56Z"
    assert cm.format_timestamp(cm.parse_timestamp(text)) == text


def _utc(*fields):
    return datetime(*fields, tzinfo=timezone.utc)


# RFC 3339 date-time and nothing wider, with the same verdict and value on
# every supported Python (3.10 and 3.11+ disagreed on several of these).
_TIMESTAMP_TABLE = [
    ("2019-06-30T12:34:56Z", _utc(2019, 6, 30, 12, 34, 56)),
    ("2019-06-30t12:34:56z", _utc(2019, 6, 30, 12, 34, 56)),
    ("2019-06-30T14:34:56+02:00", _utc(2019, 6, 30, 12, 34, 56)),
    ("2019-06-30T10:04:56-02:30", _utc(2019, 6, 30, 12, 34, 56)),
    ("2019-06-30T12:00:00.5Z", _utc(2019, 6, 30, 12, 0, 0, 500000)),
    ("2019-06-30T12:00:00.1234567Z", _utc(2019, 6, 30, 12, 0, 0, 123456)),
    ("2019-06-30T12:00:00.000001+00:00", _utc(2019, 6, 30, 12, 0, 0, 1)),
    ("20190630T120000Z", "invalid RFC 3339 timestamp"),
    ("2019-W26-7T12:00:00Z", "invalid RFC 3339 timestamp"),
    ("2019-06-30T12:00:00+0000", "invalid RFC 3339 timestamp"),
    ("2019-06-30T12Z", "invalid RFC 3339 timestamp"),
    ("2019-06-30T12:00Z", "invalid RFC 3339 timestamp"),
    ("2019-06-30 12:00:00Z", "invalid RFC 3339 timestamp"),
    (" 2019-06-30T12:00:00Z", "invalid RFC 3339 timestamp"),
    ("2019-06-30T12:00:00,5Z", "invalid RFC 3339 timestamp"),
    ("2019-06-30T12:00:00.Z", "invalid RFC 3339 timestamp"),
    ("2019-06-30T12:00:00+24:00", "invalid RFC 3339 timestamp"),
    ("\u0662\u0660\u0661\u0669-06-30T12:00:00Z", "invalid RFC 3339 timestamp"),
    ("2019-06-30", "invalid RFC 3339 timestamp"),
    ("2019-13-45T00:00:00Z", "invalid RFC 3339 timestamp '2019-13-45T00:00:00Z'"),
    ("2019-02-29T00:00:00Z", "invalid RFC 3339 timestamp"),
    ("2019-06-30T12:00:60Z", "invalid RFC 3339 timestamp"),
    ("0001-01-01T00:00:00+01:00", "invalid RFC 3339 timestamp"),
    ("9999-12-31T23:59:59-01:00", "invalid RFC 3339 timestamp"),
    ("2019-06-30T12:34:56", "timestamp '2019-06-30T12:34:56' is missing a UTC offset"),
    ("2019-06-30T12:34:56.5", "is missing a UTC offset"),
    (5, "timestamp must be a string, got int"),
]


@pytest.mark.parametrize("text, expected", _TIMESTAMP_TABLE)
def test_timestamp_grammar_accept_reject_table(text, expected):
    if isinstance(expected, datetime):
        parsed = cm.parse_timestamp(text)
        assert parsed == expected
        assert parsed.tzinfo == timezone.utc
    else:
        with pytest.raises(ValueError, match=re.escape(expected)):
            cm.parse_timestamp(text)


def test_format_timestamp_pads_years_and_keeps_fractions():
    assert cm.format_timestamp(_utc(999, 1, 2, 3, 4, 5)) == "0999-01-02T03:04:05Z"
    stamp = _utc(2019, 6, 30, 12, 0, 0, 7)
    assert cm.parse_timestamp(cm.format_timestamp(stamp)) == stamp


# --- size boundaries -----------------------------------------------------------

@pytest.mark.parametrize(
    "count,size",
    [(0, "small"), (100, "small"), (101, "medium"), (1000, "medium"), (1001, "large")],
)
def test_repo_size_boundaries(count, size):
    assert cm.repo_size_for(count) == size


# --- role derivation ------------------------------------------------------------

def test_derive_comment_role_precedence():
    derive = cm.derive_comment_role
    assert derive("ann", "ann", {"ann"}, {"ann"}) == "contributor"
    assert derive("kai", "ann", {"kai"}, {"kai"}) == "integrator"
    assert derive("kai", "ann", set(), {"kai"}) == "reviewer"
    assert derive("kai", "ann", set(), set()) == "other"


# --- loading ---------------------------------------------------------------------

def test_identity_load_three_pulls(tmp_path):
    directory = _minimal_dir(
        tmp_path,
        pulls=[_pull_obj(number=i) for i in (1, 2, 3)],
        repos=[_repo_obj(pr_count=3)],
    )
    result = cm.load_corpus(directory)
    assert result.errors == []
    assert len(result.corpus.pulls) == 3


def test_missing_required_file_is_fatal(tmp_path):
    _minimal_dir(tmp_path, pulls=[_pull_obj()], repos=[_repo_obj()])
    (tmp_path / "commits.jsonl").unlink()
    with pytest.raises(cm.CorpusError, match="commits.jsonl"):
        cm.load_corpus(tmp_path)


def test_missing_directory_is_fatal(tmp_path):
    with pytest.raises(cm.CorpusError, match="nowhere"):
        cm.load_corpus(tmp_path / "nowhere")


def test_line_missing_author_is_reported_and_skipped(tmp_path):
    bad = _pull_obj(number=2)
    del bad["author"]
    directory = _minimal_dir(
        tmp_path, pulls=[_pull_obj(number=1), bad], repos=[_repo_obj(pr_count=2)]
    )
    result = cm.load_corpus(directory)
    assert len(result.corpus.pulls) == 1
    assert len(result.errors) == 1
    err = result.errors[0]
    assert err.file == "pulls.jsonl"
    assert err.line == 2
    assert "author" in err.message


def test_malformed_json_line_reports_line_number(tmp_path):
    directory = _minimal_dir(tmp_path, pulls=[_pull_obj()], repos=[_repo_obj()])
    with open(tmp_path / "pulls.jsonl", "a", encoding="utf-8") as handle:
        handle.write("{this is not json\n")
    result = cm.load_corpus(directory)
    assert [(e.file, e.line) for e in result.errors] == [("pulls.jsonl", 2)]
    assert "invalid JSON" in result.errors[0].message


_BAD_LINES = {
    "not_utf8": b'\xff{"repo_full_name": "a/b"}',
    "nested_too_deeply": b"[" * 200_000,
    "fraction_past_float_range": json.dumps(
        {"repo_full_name": "a/b", "author": "ann", "core_member": False,
         "contrib_rate_author": 10**400, "followers": 1, "num_languages": 1,
         "contrib_follow_integrator": False, "social_strength": 0.5}
    ).encode(),
    "integer_past_digit_limit": b'{"pr_number": ' + b"1" * 5000 + b"}",
}


@pytest.mark.parametrize("name", sorted(_BAD_LINES))
def test_undecodable_line_is_one_error_and_load_goes_on(tmp_path, name):
    directory = _minimal_dir(
        tmp_path, pulls=[_pull_obj(number=1), _pull_obj(number=2)], repos=[_repo_obj(pr_count=2)]
    )
    target = "contributor_context.jsonl" if name.startswith("fraction") else "pulls.jsonl"
    path = directory / target
    original = path.read_bytes()
    path.write_bytes(original + _BAD_LINES[name] + b"\n" + original)
    result = cm.load_corpus(directory)
    bad_line = original.count(b"\n") + 1
    assert [(e.file, e.line) for e in result.errors if e.line == bad_line] == [(target, bad_line)]
    assert len(result.corpus.pulls) == 2
    message = {e.line: e.message for e in result.errors}[bad_line]
    assert message == {
        "not_utf8": "line is not valid UTF-8",
        "nested_too_deeply": "invalid JSON: nested too deeply",
        "fraction_past_float_range": (
            f"field 'contrib_rate_author' must lie in [0, 1], got {10**400}"
        ),
        "integer_past_digit_limit": "invalid JSON: integer has too many digits",
    }[name]


def test_comment_body_must_be_a_string(tmp_path):
    def comment(body):
        return {"author": "kai", "role": "other", "body": body,
                "created_at": "2019-01-02T00:00:00Z"}

    pulls = [_pull_obj(number=1, comments=[comment("")]), _pull_obj(number=2, comments=[comment(5)])]
    directory = _minimal_dir(tmp_path, pulls=pulls, repos=[_repo_obj(pr_count=2)])
    result = cm.load_corpus(directory)
    assert [p.pr_number for p in result.corpus.pulls] == [1]
    assert result.corpus.pulls[0].comments[0].body == ""
    assert [(e.line, e.message) for e in result.errors] == [(2, "field 'body' must be a string")]


def test_filter_config_rejects_a_non_positive_top_n():
    with pytest.raises(ValueError, match="top_n_by_stars"):
        cm.FilterConfig(top_n_by_stars=0)


def test_duplicate_pr_number_is_an_error_line(tmp_path):
    directory = _minimal_dir(
        tmp_path, pulls=[_pull_obj(), _pull_obj()], repos=[_repo_obj(pr_count=2)]
    )
    result = cm.load_corpus(directory)
    assert len(result.corpus.pulls) == 1
    assert any("duplicate pr_number" in e.message for e in result.errors)


def test_bad_comment_role_is_an_error(tmp_path):
    pull = _pull_obj(
        comments=[
            {
                "author": "kai",
                "role": "manager",
                "body": "hi",
                "created_at": "2019-01-02T00:00:00Z",
            }
        ]
    )
    directory = _minimal_dir(tmp_path, pulls=[pull], repos=[_repo_obj()])
    result = cm.load_corpus(directory)
    assert result.corpus.pulls == []
    assert any("role" in e.message for e in result.errors)


def test_repo_size_inconsistent_with_pr_count_is_an_error(tmp_path):
    repo = _repo_obj(pr_count=5)
    repo["repo_size"] = "large"
    directory = _minimal_dir(tmp_path, pulls=[_pull_obj()], repos=[repo])
    result = cm.load_corpus(directory)
    assert result.corpus.repos == []
    assert any("inconsistent" in e.message for e in result.errors)


def test_separate_comments_file_is_merged_and_sorted(tmp_path):
    directory = _minimal_dir(tmp_path, pulls=[_pull_obj()], repos=[_repo_obj()])
    _write(
        tmp_path / "comments.jsonl",
        [
            {
                "repo_full_name": "a/b",
                "pr_number": 1,
                "author": "kai",
                "role": "integrator",
                "body": "later",
                "created_at": "2019-01-03T00:00:00Z",
            },
            {
                "repo_full_name": "a/b",
                "pr_number": 1,
                "author": "ann",
                "role": "contributor",
                "body": "earlier",
                "created_at": "2019-01-02T00:00:00Z",
            },
            {
                "repo_full_name": "a/b",
                "pr_number": 99,
                "author": "kai",
                "role": "other",
                "body": "orphan",
                "created_at": "2019-01-02T00:00:00Z",
            },
        ],
    )
    result = cm.load_corpus(directory)
    (pull,) = result.corpus.pulls
    assert [c.body for c in pull.comments] == ["earlier", "later"]
    assert any("unknown pull" in e.message for e in result.errors)


def test_separate_comments_merge_like_a_resort_per_line(tmp_path):
    # Interleaved pulls, timestamps drawn from four seconds so embedded and
    # separate comments tie often (one written with an equal +01:00 offset),
    # and bad lines of each kind spread through the file.
    rng = random.Random(20190630)
    stamps = ["2019-01-02T00:00:00Z", "2019-01-02T01:00:00+01:00",
              "2019-01-02T00:00:01Z", "2019-01-03T00:00:00Z", "2019-01-01T23:59:59Z"]
    keys = [("a/b", n) for n in range(1, 5)] + [("c/d", 1), ("c/d", 2)]

    def comment(body):
        return {"author": rng.choice(["ann", "kai", "lee"]), "role": rng.choice(cm.ROLES),
                "body": body, "created_at": rng.choice(stamps)}

    pulls = [
        _pull_obj(repo, number, comments=[comment(f"e{repo}{number}-{i}") for i in range(3)])
        for repo, number in keys
    ]
    lines = []
    for i in range(240):
        repo, number = rng.choice(keys)
        obj = {"repo_full_name": repo, "pr_number": number, **comment(f"s{i}")}
        if i % 37 == 5:
            obj["pr_number"] = 99
        elif i % 41 == 7:
            del obj["author"]
        lines.append(json.dumps(obj))
        if i % 53 == 11:
            lines.append("{not json")
        if i % 59 == 13:
            lines.append("")
    (tmp_path / "comments.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    directory = _minimal_dir(
        tmp_path, pulls=pulls, repos=[_repo_obj("a/b"), _repo_obj("c/d")]
    )

    result = cm.load_corpus(directory)
    threads, rejected = oracles.comment_merge_replay(pulls, lines)
    assert {(p.repo_full_name, p.pr_number): [c.body for c in p.comments]
            for p in result.corpus.pulls} == threads
    assert [e.line for e in result.errors if e.file == "comments.jsonl"] == rejected
    assert {e.file for e in result.errors} == {"comments.jsonl"}
    assert len(rejected) >= 10


def test_unsorted_embedded_comments_are_sorted_on_load(tmp_path):
    pull = _pull_obj(
        comments=[
            {"author": "kai", "role": "other", "body": "b",
             "created_at": "2019-01-05T00:00:00Z"},
            {"author": "ann", "role": "contributor", "body": "a",
             "created_at": "2019-01-02T00:00:00Z"},
        ]
    )
    directory = _minimal_dir(tmp_path, pulls=[pull], repos=[_repo_obj()])
    result = cm.load_corpus(directory)
    assert [c.body for c in result.corpus.pulls[0].comments] == ["a", "b"]


# --- fixture corpus -----------------------------------------------------------

def test_fixture_counts_match_line_count_oracle(corpus12_dir, corpus12):
    assert len(corpus12.pulls) == oracles.jsonl_count(corpus12_dir / "pulls.jsonl") == 12
    authors = {(p.repo_full_name, p.author) for p in corpus12.pulls}
    assert len(authors) == 4
    assert len(corpus12.repos) == oracles.jsonl_count(corpus12_dir / "repos.jsonl") == 2
    commit_authors = set(
        oracles.jsonl_field_values(corpus12_dir / "commits.jsonl", "author")
    )
    assert commit_authors == {a for _, a in authors}


def test_round_trip_identity(tmp_path, corpus12):
    cm.save_corpus(corpus12, tmp_path)
    reloaded = cm.load_corpus(tmp_path)
    assert reloaded.errors == []
    assert reloaded.corpus.pulls == corpus12.pulls
    assert reloaded.corpus.commits == corpus12.commits
    assert reloaded.corpus.contexts == corpus12.contexts
    assert reloaded.corpus.repos == corpus12.repos


def test_save_is_canonical_and_stable(tmp_path, corpus12, corpus12_dir):
    cm.save_corpus(corpus12, tmp_path)
    for name in ("pulls.jsonl", "commits.jsonl", "contributor_context.jsonl", "repos.jsonl"):
        assert (tmp_path / name).read_bytes() == (corpus12_dir / name).read_bytes()


# --- filtering -----------------------------------------------------------------

def _repo_corpus(metas):
    corpus = cm.Corpus(repos=list(metas))
    for meta in metas:
        corpus.pulls.append(
            cm.PullRequestRecord(
                meta.repo_full_name, 1, "ann",
                cm.parse_timestamp("2019-01-01T00:00:00Z"), True, None, 0, (),
            )
        )
    return corpus


def _meta(name, stars, labels=()):
    return cm.RepoMeta(name, stars, frozenset(labels), 1, "small")


def test_filter_top_n_by_stars_ordering():
    corpus = _repo_corpus([_meta("r/a", 10), _meta("r/b", 20), _meta("r/c", 30)])
    kept = cm.filter_repositories(corpus, cm.FilterConfig(top_n_by_stars=2))
    assert sorted(r.stars for r in kept.repos) == [20, 30]


def test_filter_label_exclusion():
    metas = [_meta(f"r/{i}", 100 - i) for i in range(4)]
    metas.append(_meta("r/docs", 100, labels=("docs-only",)))
    kept = cm.filter_repositories(corpus := _repo_corpus(metas), cm.FilterConfig(top_n_by_stars=5))
    assert len(kept.repos) == 4
    assert "r/docs" not in {r.repo_full_name for r in kept.repos}
    # dependent records removed with the repo
    assert {p.repo_full_name for p in kept.pulls} == {r.repo_full_name for r in kept.repos}
    # original corpus untouched
    assert len(corpus.repos) == 5


def test_filter_star_ties_at_boundary_are_included():
    corpus = _repo_corpus([_meta("r/a", 30), _meta("r/b", 20), _meta("r/c", 20), _meta("r/d", 5)])
    kept = cm.filter_repositories(corpus, cm.FilterConfig(top_n_by_stars=2))
    assert {r.repo_full_name for r in kept.repos} == {"r/a", "r/b", "r/c"}


def test_filter_is_idempotent():
    metas = [_meta(f"r/{i}", i, labels=("education",) if i % 7 == 0 else ()) for i in range(40)]
    config = cm.FilterConfig(top_n_by_stars=20)
    once = cm.filter_repositories(_repo_corpus(metas), config)
    twice = cm.filter_repositories(once, config)
    assert once.repos == twice.repos
    assert once.pulls == twice.pulls


def test_filter_never_alters_surviving_records():
    metas = [_meta(f"r/{i}", 100 + i) for i in range(6)]
    corpus = _repo_corpus(metas)
    kept = cm.filter_repositories(corpus, cm.FilterConfig(top_n_by_stars=3))
    survivors = {r.repo_full_name for r in kept.repos}
    assert all(p in corpus.pulls for p in kept.pulls)
    assert {p.repo_full_name for p in kept.pulls} == survivors


def test_filter_replays_curation_to_26_of_200():
    # 210 candidates; the star cut keeps 200, category labels then remove all
    # but 26, mirroring the published selection funnel.
    excluded_cycle = ("code-learning", "resource-list", "education", "non-english", "docs-only")
    metas = []
    for i in range(210):
        labels = ()
        if i >= 200:
            labels = ()  # below the star cut anyway
        elif i % 200 >= 26:
            labels = (excluded_cycle[i % 5],)
        metas.append(_meta(f"cand/r{i:03d}", 10_000 - i, labels))
    kept = cm.filter_repositories(_repo_corpus(metas), cm.FilterConfig())
    assert len(kept.repos) == 26
    assert all(not (r.category_labels & frozenset(excluded_cycle)) for r in kept.repos)


# --- properties -------------------------------------------------------------------

_PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

_FILES = ("pulls.jsonl", "comments.jsonl", "commits.jsonl", "contributor_context.jsonl", "repos.jsonl")
_FIELDS = sorted(
    {f.name for record in (cm.PullRequestRecord, cm.CommentRecord, cm.CommitEvent,
                           cm.ContributorContext, cm.RepoMeta) for f in dataclasses.fields(record)}
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["a/b", "ann", "other", "small", "2019-01-02T00:00:00Z",
                       "2019-01-02T00:00:00", "2019-13-45T00:00:00Z", ""])
    | st.sampled_from([0, 1, 2, 0.5, 10**400]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(_FIELDS), inner, max_size=4),
    max_leaves=8,
)
# A valid record of each file, which the drawn object overrides field by field.
_VALID = {
    "pulls.jsonl": _pull_obj(number=2),
    "comments.jsonl": {"repo_full_name": "a/b", "pr_number": 1, "author": "kai", "role": "other",
                       "body": "hi", "created_at": "2019-01-02T00:00:00Z"},
    "commits.jsonl": {"repo_full_name": "a/b", "author": "ann", "committed_at": "2019-01-02T00:00:00Z"},
    "contributor_context.jsonl": {"repo_full_name": "a/b", "author": "ann", "core_member": False,
                                  "contrib_rate_author": 0.5, "followers": 1, "num_languages": 1,
                                  "contrib_follow_integrator": False, "social_strength": 0.5},
    "repos.jsonl": _repo_obj("c/d"),
}


def _record_count(corpus, filename):
    if filename == "comments.jsonl":
        return sum(len(p.comments) for p in corpus.pulls)
    attribute = {"pulls.jsonl": "pulls", "commits.jsonl": "commits",
                 "contributor_context.jsonl": "contexts", "repos.jsonl": "repos"}[filename]
    return len(getattr(corpus, attribute))


@_PROPERTY
@given(
    filename=st.sampled_from(_FILES),
    line=st.one_of(
        st.builds(lambda base, drawn: json.dumps({**base, **drawn}).encode(),
                  st.sampled_from(list(_VALID.values())),
                  st.dictionaries(st.sampled_from(_FIELDS), _JSON_VALUES, max_size=4)),
        st.dictionaries(st.sampled_from(_FIELDS), _JSON_VALUES).map(lambda d: json.dumps(d).encode()),
        _JSON_VALUES.map(lambda v: json.dumps(v).encode()),
        st.binary(max_size=40),
    ).map(lambda raw: raw.replace(b"\n", b" ").replace(b"\r", b" ")),
)
def test_any_line_is_a_record_or_exactly_one_error(tmp_path_factory, filename, line):
    directory = tmp_path_factory.mktemp("line")
    _minimal_dir(directory, pulls=[_pull_obj()], repos=[_repo_obj()])
    (directory / "comments.jsonl").write_text("", encoding="utf-8")
    before = cm.load_corpus(directory)
    with open(directory / filename, "ab") as handle:
        handle.write(line + b"\n")
    after = cm.load_corpus(directory)

    assert before.errors == []
    blank = not line.decode("utf-8", "surrogateescape").strip()
    errors = [e for e in after.errors if e.file == filename]
    added = _record_count(after.corpus, filename) - _record_count(before.corpus, filename)
    assert {e.file for e in after.errors} <= {filename}
    assert (added, len(errors)) in ([(0, 0)] if blank else [(1, 0), (0, 1)])


_NAMES = st.text(min_size=1, max_size=6)
_STAMPS = st.datetimes(
    min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30), timezones=st.just(timezone.utc)
)
_FRACTIONS = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def _corpora(draw):
    repos = draw(st.lists(_NAMES, min_size=1, max_size=3, unique=True))
    pulls = []
    for repo, number in draw(st.lists(st.tuples(st.sampled_from(repos), st.integers(1, 10**6)),
                                      max_size=5, unique=True)):
        comments = draw(st.lists(st.builds(cm.CommentRecord, _NAMES, st.sampled_from(cm.ROLES),
                                           st.text(max_size=10), _STAMPS), max_size=3))
        pulls.append(cm.PullRequestRecord(
            repo, number, draw(_NAMES), draw(_STAMPS), draw(st.booleans()),
            draw(st.none() | _STAMPS), draw(st.integers(0, 5)),
            tuple(sorted(comments, key=lambda c: c.created_at)),
        ))
    commits = draw(st.lists(st.builds(cm.CommitEvent, st.sampled_from(repos), _NAMES, _STAMPS),
                            max_size=5))
    contexts = draw(st.lists(
        st.builds(cm.ContributorContext, st.sampled_from(repos), _NAMES, st.booleans(), _FRACTIONS,
                  st.integers(0, 10**6), st.integers(1, 50), st.booleans(), _FRACTIONS),
        max_size=5, unique_by=lambda c: (c.repo_full_name, c.author)))
    metas = []
    for repo in repos:
        pr_count = draw(st.integers(0, 5000))
        labels = draw(st.frozensets(_NAMES, max_size=3))
        metas.append(cm.RepoMeta(repo, draw(st.integers(0, 10**6)), labels, pr_count,
                                 cm.repo_size_for(pr_count)))
    return cm.Corpus(pulls=pulls, commits=commits, contexts=contexts, repos=metas)


@settings(_PROPERTY, max_examples=100)
@given(corpus=_corpora())
def test_save_then_load_round_trips(tmp_path_factory, corpus):
    directory = tmp_path_factory.mktemp("round_trip")
    cm.save_corpus(corpus, directory)
    result = cm.load_corpus(directory)
    assert result.errors == []
    assert result.corpus.pulls == sorted(corpus.pulls, key=lambda p: (p.repo_full_name, p.pr_number))
    assert result.corpus.commits == sorted(
        corpus.commits, key=lambda c: (c.repo_full_name, c.author, c.committed_at)
    )
    assert result.corpus.contexts == sorted(corpus.contexts, key=lambda c: (c.repo_full_name, c.author))
    assert result.corpus.repos == sorted(corpus.repos, key=lambda r: r.repo_full_name)
