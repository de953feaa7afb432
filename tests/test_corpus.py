from __future__ import annotations

import dataclasses
import json
import random
import re
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import synth
from prsafety import corpus as cm
from prsafety import cues


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
    # Twenty characters, the length of the form the compiled parsers read inline.
    ("2019-02-30T00:00:00Z", "invalid RFC 3339 timestamp '2019-02-30T00:00:00Z'"),
    ("2019-06-30T24:00:00Z", "invalid RFC 3339 timestamp '2019-06-30T24:00:00Z'"),
    ("0000-01-01T00:00:00Z", "invalid RFC 3339 timestamp '0000-01-01T00:00:00Z'"),
    ("2019-06-30X12:00:00Z", "invalid RFC 3339 timestamp '2019-06-30X12:00:00Z'"),
    ("2019-06-30T12:00:00z", _utc(2019, 6, 30, 12)),
    ("0001-01-01T00:00:00Z", _utc(1, 1, 1)),
    ("9999-12-31T23:59:59Z", _utc(9999, 12, 31, 23, 59, 59)),
    ("2019-06-30T\u0661\u0662:00:00Z", "invalid RFC 3339 timestamp"),
    ("2019-06-30T12:00:00+", "invalid RFC 3339 timestamp"),
]


def _compiled_timestamp(value):
    """A timestamp through a compiled record parser, inline path first."""
    return cm._parse_commit({"repo_full_name": "a/b", "author": "ann", "committed_at": value}).committed_at


@pytest.mark.parametrize("text, expected", _TIMESTAMP_TABLE)
def test_timestamp_grammar_accept_reject_table(text, expected):
    for parse in (cm.parse_timestamp, _compiled_timestamp):
        if isinstance(expected, datetime):
            parsed = parse(text)
            assert parsed == expected
            assert parsed.tzinfo is timezone.utc
        else:
            with pytest.raises(cm._LineError, match=re.escape(expected)):
                parse(text)


def _timestamp_outcome(parse, value):
    try:
        parsed = parse(value)
    except cm._LineError as exc:
        return str(exc)
    assert parsed.tzinfo is timezone.utc
    return parsed


_STAMP_CHARACTERS = "0123456789-:TtZz+. X\u0661"


@st.composite
def _twenty_character_stamps(draw):
    """The inline form's layout, with fields near and past their ranges."""
    year, month, day, hour, minute, second = (
        draw(st.integers(0, top)) for top in (9999, 13, 32, 25, 60, 61)
    )
    dash, sep, colon, zone = (draw(st.sampled_from(marks)) for marks in ("--X", "TTt ", "::.", "ZZzX"))
    return f"{year:04d}{dash}{month:02d}-{day:02d}{sep}{hour:02d}:{minute:02d}{colon}{second:02d}{zone}"


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(value=st.text(_STAMP_CHARACTERS, min_size=20, max_size=20) | _twenty_character_stamps())
@example(value="2019-02-30T00:00:00Z")
@example(value="2019-06-30T23:59:60Z")
def test_inline_timestamp_form_matches_the_grammar(value):
    assert len(value) == 20
    assert _timestamp_outcome(_compiled_timestamp, value) == _timestamp_outcome(cm.parse_timestamp, value)


def test_format_timestamp_pads_years_and_keeps_fractions():
    assert cm.format_timestamp(_utc(999, 1, 2, 3, 4, 5)) == "0999-01-02T03:04:05Z"
    stamp = _utc(2019, 6, 30, 12, 0, 0, 7)
    assert cm.parse_timestamp(cm.format_timestamp(stamp)) == stamp



@dataclasses.dataclass
class _Stamps:
    at: datetime
    day: date


@dataclasses.dataclass
class _Holder:
    stamps: _Stamps
    path: Path
    labels: frozenset
    pair: tuple
    counts: np.ndarray
    values: np.ndarray
    by_model: dict


def test_json_form_gives_each_kind_of_value_its_one_form():
    plus_two = timezone(timedelta(hours=2))
    value = _Holder(
        stamps=_Stamps(datetime(2019, 1, 5, 12, 0, 0, 250000, tzinfo=plus_two), date(2019, 1, 5)),
        path=Path("out") / "model_1.json",
        labels=frozenset({"tutorial", "awesome"}),
        pair=(1, "two", (3,)),
        counts=np.array([3, 0], dtype=np.int64),
        values=np.array([0.5, -1.25]),
        by_model={2: (True, None), 1: "x"},
    )
    expected = {
        # A datetime is RFC 3339 in UTC, not str()'s "2019-01-05 12:00:00.250000+02:00".
        "stamps": {"at": "2019-01-05T10:00:00.250000Z", "day": "2019-01-05"},
        "path": "out/model_1.json",
        "labels": ["awesome", "tutorial"],
        "pair": [1, "two", [3]],
        "counts": [3, 0],
        "values": [0.5, -1.25],
        "by_model": {2: [True, None], 1: "x"},
    }
    form = cm.json_form(value)
    # repr, not ==, so that numpy scalars and tuples cannot pass for ints and lists.
    assert repr(form) == repr(expected)
    assert json.loads(json.dumps(form)) == {**expected, "by_model": {"2": [True, None], "1": "x"}}
    # No other value has a form, so json.dumps cannot pass one through unchanged.
    with pytest.raises(TypeError, match="^set has no JSON form$"):
        cm.json_form({"a": [{1}]})

def test_write_json_refuses_a_float_json_cannot_hold(tmp_path):
    with pytest.raises(ValueError):
        cm.write_json(tmp_path / "x.json", {"x": float("nan")})


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


@pytest.mark.parametrize("separate", [False, True], ids=["embedded", "comments_file"])
def test_only_kept_pulls_reach_the_fold(tmp_path, separate):
    comment = {"author": "kai", "role": "reviewer", "body": "ok", "created_at": "2019-01-02T00:00:00Z"}
    pulls = [_pull_obj(), _pull_obj(), _pull_obj(number=2, comments=[comment], created_at="2019-02-30T00:00:00Z")]
    directory = _minimal_dir(tmp_path, pulls=pulls, repos=[_repo_obj(pr_count=3)])
    if separate:
        (directory / "comments.jsonl").write_text("", encoding="utf-8")
    opened = []

    class Counting(list):
        def __init__(self):
            opened.append(self)

        def add(self, role, author, body, created_at):
            self.append(body)

        def close(self):
            return tuple(self)

    result = cm.load_corpus(directory, fold=Counting)
    assert len(opened) == len(result.corpus.pulls) == 1
    assert result.errors == [
        cm.IngestError("pulls.jsonl", 3, "invalid RFC 3339 timestamp '2019-02-30T00:00:00Z'"),
        cm.IngestError("pulls.jsonl", 2, "duplicate pr_number 1 for a/b"),
    ]


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


def _shared_fields(corpus: cm.Corpus) -> list[str]:
    """Every repository name, author, role and size the corpus holds."""
    comments = [c for p in corpus.pulls for c in p.comments]
    values = [v for p in corpus.pulls for v in (p.repo_full_name, p.author)]
    values += [v for c in comments for v in (c.author, c.role)]
    values += [v for r in corpus.commits + corpus.contexts for v in (r.repo_full_name, r.author)]
    return values + [v for r in corpus.repos for v in (r.repo_full_name, r.repo_size)]


def test_a_load_holds_each_name_once_and_forgets_it(tmp_path, monkeypatch):
    synth.build_small_corpus(tmp_path)
    pulls, separate = [], []
    for i, line in enumerate((tmp_path / "pulls.jsonl").read_text("utf-8").splitlines()):
        pull = json.loads(line)
        if i % 2:  # every other pull's comments on their own lines
            key = {"repo_full_name": pull["repo_full_name"], "pr_number": pull["pr_number"]}
            separate += [json.dumps({**key, **comment}) for comment in pull.pop("comments")]
        pulls.append(json.dumps(pull))
    (tmp_path / "pulls.jsonl").write_text("\n".join(pulls) + "\n", encoding="utf-8")
    (tmp_path / "comments.jsonl").write_text("\n".join(separate) + "\n", encoding="utf-8")

    result = cm.load_corpus(tmp_path)
    assert not result.errors
    embedded, placed = (sum(len(p.comments) for p in result.corpus.pulls[k::2]) for k in (0, 1))
    assert embedded > 100 and placed == len(separate)
    values = _shared_fields(result.corpus)
    assert len(values) > 10 * len(set(values))
    assert len({id(v) for v in values}) == len(set(values))
    assert not cm._SHARED

    # A load that raises part way empties the table as well.
    def fail(obj):
        assert cm._SHARED  # the pulls' and comments' names
        raise RuntimeError("commit parser failed")

    monkeypatch.setattr(cm, "_parse_commit", fail)
    with pytest.raises(RuntimeError, match="commit parser failed"):
        cm.load_corpus(tmp_path)
    assert not cm._SHARED


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


def test_a_folded_corpus_is_not_saved(corpus12_dir, emoji_table, tmp_path):
    folded = cm.load_corpus(corpus12_dir, fold=lambda: cues.Thread(emoji_table))
    assert folded.corpus.counts() == cm.load_corpus(corpus12_dir).corpus.counts()
    with pytest.raises(ValueError, match="holds no comments to save"):
        cm.save_corpus(folded.corpus, tmp_path / "saved")
    assert not (tmp_path / "saved").exists()


def test_a_folded_pull_keeps_only_what_the_stages_read(tmp_path, emoji_table):
    comment = {"author": "bo", "role": "reviewer", "body": "@ann ok", "created_at": "2019-01-02T00:00:00Z"}
    pulls = [_pull_obj("a/b", n, closed_at="2019-01-03T00:00:00Z", comments=[comment] * n) for n in (1, 2)]
    pulls.append(_pull_obj("c/d", 1, merged=False))
    labels = (["docs-only", "education"], [], ["education", "docs-only"], [], ["docs-only"])
    repos = [_repo_obj(f"r/{i}", labels=tags) for i, tags in enumerate(labels)]
    directory = _minimal_dir(tmp_path, pulls=pulls, repos=[*repos, _repo_obj("a/b"), _repo_obj("c/d")])
    records = cm.load_corpus(directory)
    folded = cm.load_corpus(directory, fold=lambda: cues.Thread(emoji_table))
    assert not cm._SHARED
    assert folded.errors == records.errors == []

    # Columns, with no object per pull and no timestamp: one array per field,
    # the names the codes index, and the distinct rows.
    pulls = folded.corpus.pulls
    assert type(pulls) is cm.Pulls and len(pulls) == 3
    kept = ("repos", "authors", "repo", "author", "pr_number", "merged", "reopen_count", "thread", "rows",
            "repo_comments")
    assert tuple(f.name for f in dataclasses.fields(cm.Pulls)) == kept
    assert all(type(getattr(pulls, name)) is np.ndarray for name in kept if name not in ("repos", "authors", "rows"))
    assert (pulls.repos, pulls.authors) == (("a/b", "c/d"), ("ann",))
    assert pulls.repo.tolist() == [0, 0, 1] and pulls.author.tolist() == [0, 0, 0]
    assert pulls.pr_number.tolist() == [1, 2, 1] and pulls.reopen_count.tolist() == [0, 0, 0]
    assert pulls.merged.tolist() == [int(r.merged) for r in records.corpus.pulls]
    assert [pulls.rows[t][0] for t in pulls.thread.tolist()] == [1, 2, 0]  # a Thread row's comment count
    assert pulls.repo_comments.tolist() == [3, 0] and folded.corpus.counts()["comments"] == 3
    assert not any(isinstance(value, datetime) for row in pulls.rows for value in row)
    assert not hasattr(pulls, "created_at") and not hasattr(pulls, "closed_at")
    assert [tuple(pull) for pull in pulls] == [(r.repo_full_name, r.pr_number, r.author) for r in records.corpus.pulls]
    assert all(pull.comments == () for pull in pulls)  # read by readers of either record

    for corpus in (records.corpus, folded.corpus):
        sets = [r.category_labels for r in corpus.repos]
        assert len(set(sets)) == 3 < len(sets)
        assert len({id(s) for s in sets}) == len(set(sets))

    # A folded load that raises part way empties the shared table as well.
    class Failing(cues.Thread):
        def close(self):
            assert cm._SHARED  # the first pull's names
            raise RuntimeError("thread failed")

    with pytest.raises(RuntimeError, match="thread failed"):
        cm.load_corpus(directory, fold=lambda: Failing(emoji_table))
    assert not cm._SHARED


def test_save_writes_comments_in_load_order(tmp_path):
    stamps = {"late": "2019-01-05T00:00:00Z", "tie-a": "2019-01-03T00:00:00Z",
              "early": "2019-01-02T00:00:00Z", "tie-b": "2019-01-03T00:00:00Z"}
    comments = [{"author": "kai", "role": "other", "body": body, "created_at": created}
                for body, created in stamps.items()]
    (tmp_path / "raw").mkdir()
    loaded = cm.load_corpus(_minimal_dir(tmp_path / "raw", pulls=[_pull_obj(comments=comments)],
                                         repos=[_repo_obj()]))
    assert loaded.errors == []
    pull = cm.PullRequestRecord(
        "a/b", 1, "ann", cm.parse_timestamp("2019-01-01T00:00:00Z"), True, None, 0,
        tuple(cm.CommentRecord("kai", "other", body, cm.parse_timestamp(created))
              for body, created in stamps.items()),
    )
    cm.save_corpus(cm.Corpus(pulls=[pull], repos=[_meta("a/b", 10)]), tmp_path / "first")
    (line,) = (tmp_path / "first" / "pulls.jsonl").read_text("utf-8").splitlines()
    written = [c["body"] for c in json.loads(line)["comments"]]
    # Timestamp order, as load_corpus gives it; the same-second pair keeps its input order.
    assert written == [c.body for c in loaded.corpus.pulls[0].comments]
    assert written == ["early", "tie-a", "tie-b", "late"]
    cm.save_corpus(cm.load_corpus(tmp_path / "first").corpus, tmp_path / "again")
    for name in cm.REQUIRED_FILES:
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "first" / name).read_bytes()


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


def test_the_filter_has_no_default():
    # PipelineConfig.filter = None means no filter, so None here must not
    # quietly mean the default one.
    corpus = _repo_corpus([_meta("r/a", 10)])
    with pytest.raises(TypeError):
        cm.filter_repositories(corpus)


# --- the line decoder against json.loads alone ----------------------------------

_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_DEEP = 100_000  # past the interpreter's recursion limit on every version
_ODD_BODIES = [
    '{"a": ' + "1" * 5000 + "}",
    '{"a": ' + "[" * _DEEP + "]" * _DEEP + "}",
    '{"a": "\\ud800"}',  # an escaped lone surrogate is valid JSON
    '{"a": "x\udcffy"}',  # a raw one stands for a byte that is not UTF-8
    "\udcff{}",
    "{}{}",
    "{} x",
    '{"a": 1}]',
    "[]",
    "",
]
_LINES = st.builds(
    lambda lead, body, tail, end: lead + body + tail + end,
    st.text(" \t\r\ufeff\x0b", max_size=2),
    st.one_of(
        st.builds(json.dumps, st.dictionaries(st.text(max_size=4), _ANY_JSON, max_size=4),
                  ensure_ascii=st.booleans()),
        st.builds(json.dumps, _ANY_JSON, ensure_ascii=st.booleans()),
        st.sampled_from(_ODD_BODIES),
        st.text(max_size=12),
    ),
    # JSON whitespace, and characters str.strip removes but JSON does not allow.
    st.text(" \t\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000x", max_size=3),
    st.sampled_from(["\n", ""]),
)


def _decode_outcome(decode, error, line):
    try:
        # json.dumps tells 1 from 1.0 and True, keeps key order, and writes NaN.
        return "object", json.dumps(decode(line))
    except error as exc:
        return "error", str(exc)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(line=_LINES)
@example(line='{"a": 1}\n')
@example(line='{"a": 1} \t\r\n')
@example(line='{"a": 1}\x0b\n')
@example(line='{"a": 1}\xa0')
@example(line='\ufeff{"a": 1}\n')
@example(line=' {"a": 1}\n')
def test_decoder_matches_json_loads_alone(line):
    assert _decode_outcome(cm._decode, cm._LineError, line) == _decode_outcome(
        oracles.decode_line, ValueError, line
    )


def _nested(depth: int, opener: str) -> str:
    """An object line whose arrays or objects nest `depth` levels deep."""
    if opener == "[":
        return '{"a": ' + "[" * (depth - 1) + "]" * (depth - 1) + "}\n"
    return '{"a": ' * (depth - 1) + "{}" + "}" * (depth - 1) + "\n"


def _with_frames(frames: int, call):
    return call() if frames == 0 else _with_frames(frames - 1, call)


@pytest.mark.parametrize("frames", [0, 300])
@pytest.mark.parametrize("opener", ["[", "{"])
def test_nesting_limit_does_not_depend_on_the_stack(frames, opener):
    deepest = _nested(cm.MAX_NESTING, opener)
    assert _with_frames(frames, lambda: cm._decode(deepest)) == json.loads(deepest)
    too_deep = _nested(cm.MAX_NESTING + 1, opener)
    with pytest.raises(cm._LineError, match="^invalid JSON: nested too deeply$"):
        _with_frames(frames, lambda: cm._decode(too_deep))
    # Brackets inside a string do not nest.
    quoted = json.dumps({"a": opener * (cm.MAX_NESTING + 1) + '"\\'})
    assert _with_frames(frames, lambda: cm._decode(quoted)) == json.loads(quoted)


def test_an_unclosed_line_past_the_nesting_limit_is_too_deep():
    # Unclosed, the line is shorter than twice the limit and still too deep.
    with pytest.raises(cm._LineError, match="nested too deeply"):
        cm._decode('{"a": ' + "[" * cm.MAX_NESTING + "\n")


@pytest.mark.parametrize("line", [
    "\ufeff" + _nested(cm.MAX_NESTING + 1, "["),
    '{"a": tru, "b": ' + "[" * (cm.MAX_NESTING + 1) + "\n",
    # The bracket past the limit stands where no value may start.
    '{"a": ' + "[" * (cm.MAX_NESTING - 2) + '{"k"[' + "\n",
])
def test_an_error_before_the_nesting_limit_keeps_its_message(line):
    assert _decode_outcome(cm._decode, cm._LineError, line) == _decode_outcome(
        oracles.decode_line, ValueError, line
    )


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


# --- compiled parsers against the interpreted walk ------------------------------------

def _interpreted_comment(obj, where, record_type):
    """A comment through the interpreted walk into record_type, its position
    formatted up front."""
    if not isinstance(obj, dict):
        raise cm._LineError(f"{where} must be an object")
    try:
        return oracles.parse_record_rows(cm._COMMENT, record_type, obj)
    except cm._ChoiceError as exc:
        raise cm._LineError(f"{where}: {exc}") from None


def _comment_row(**values):
    """A comment's row tuple: its values in _COMMENT order, as a fold's add takes them."""
    return tuple(values[name] for name, _ in cm._COMMENT)


def _interpreted_comments(obj, name):
    value = obj.get(name, [])
    if type(value) is not list:
        raise cm._LineError(f"field {name!r} must be a list")
    comments = [_interpreted_comment(c, f"comments[{i}]", cm.CommentRecord) for i, c in enumerate(value)]
    return tuple(sorted(comments, key=lambda c: c.created_at))


_INTERPRETED_PULL = (("comments", _interpreted_comments), *cm._PULL)

def _COMPILED_PULL(obj):
    """The pulls.jsonl parser's values, folded and made into the record as a
    load without a fold does."""
    comments, repo, number, author, created_at, merged, closed_at, reopen_count = cm._parse_pull(obj)
    thread = cm._Comments()
    for comment in comments:
        thread.add(*comment)
    return cm.PullRequestRecord(repo, number, author, created_at, merged, closed_at, reopen_count, thread.close())


# Each file's line parser, compiled and interpreted.
_PARSERS = {
    "pulls.jsonl": (
        _COMPILED_PULL,
        lambda obj: oracles.parse_record_rows(_INTERPRETED_PULL, cm.PullRequestRecord, obj),
    ),
    "comments.jsonl": (
        lambda obj: (cm._parse_pull_key(obj), cm._comment(obj, None)),
        lambda obj: (tuple(kind(obj, name) for name, kind in cm._COMMENT_KEY),
                     _interpreted_comment(obj, "comment", _comment_row)),
    ),
    "commits.jsonl": (
        cm._parse_commit,
        lambda obj: oracles.parse_record_rows(cm._COMMIT, cm.CommitEvent, obj),
    ),
    "contributor_context.jsonl": (
        cm._parse_context,
        lambda obj: oracles.parse_record_rows(cm._CONTEXT, cm.ContributorContext, obj),
    ),
    "repos.jsonl": (
        cm._parse_repo,
        lambda obj: oracles.parse_record_rows(cm._REPO, cm.RepoMeta, obj),
    ),
}

_ABSENT = object()  # a drawn field value that removes the field


def _outcome(parse, obj):
    """The record, or the error's class and message."""
    try:
        return parse(obj)
    except cm._LineError as exc:
        return type(exc), str(exc)


def _override(base: dict, drawn: dict) -> dict:
    return {k: v for k, v in {**base, **drawn}.items() if v is not _ABSENT}


_DRAWN_FIELDS = st.dictionaries(st.sampled_from(_FIELDS), _JSON_VALUES | st.just(_ABSENT), max_size=4)


@_PROPERTY
@given(filename=st.sampled_from(_FILES), drawn=_DRAWN_FIELDS, from_valid=st.booleans())
@example(filename="comments.jsonl", drawn={"role": "manager"}, from_valid=True)
@example(filename="repos.jsonl", drawn={"repo_size": "huge"}, from_valid=True)
@example(filename="contributor_context.jsonl", drawn={"contrib_rate_author": 10**400}, from_valid=True)
@example(filename="contributor_context.jsonl", drawn={"social_strength": -10**400}, from_valid=True)
@example(filename="pulls.jsonl", drawn={"author": None}, from_valid=True)
@example(filename="pulls.jsonl", drawn={"author": _ABSENT}, from_valid=True)
@example(filename="pulls.jsonl", drawn={"pr_number": True}, from_valid=True)
@example(filename="repos.jsonl", drawn={"stars": False}, from_valid=True)
@example(filename="contributor_context.jsonl", drawn={"followers": True}, from_valid=True)
@example(filename="pulls.jsonl", drawn={"pr_number": 0}, from_valid=True)
@example(filename="repos.jsonl", drawn={"repo_size": "", "pr_count": -1}, from_valid=True)
@example(filename="commits.jsonl", drawn={"author": ""}, from_valid=True)
@example(filename="pulls.jsonl", drawn={"merged": 1}, from_valid=True)
@example(filename="pulls.jsonl", drawn={"pr_number": 2**63 - 1}, from_valid=True)
@example(filename="pulls.jsonl", drawn={"reopen_count": 2**63}, from_valid=True)
@example(filename="contributor_context.jsonl", drawn={"followers": 10**400}, from_valid=True)
@example(filename="contributor_context.jsonl", drawn={"num_languages": 2**63 - 1}, from_valid=True)
@example(filename="repos.jsonl", drawn={"stars": 2**63}, from_valid=True)
@example(filename="repos.jsonl", drawn={"pr_count": 2**63 - 1, "repo_size": "large"}, from_valid=True)
def test_compiled_parsers_match_the_interpreted_walk(filename, drawn, from_valid):
    obj = _override(_VALID[filename] if from_valid else {}, drawn)
    compiled, interpreted = _PARSERS[filename]
    assert _outcome(compiled, obj) == _outcome(interpreted, obj)


_VALID_COMMENT = {"author": "kai", "role": "other", "body": "hi", "created_at": "2019-01-02T00:00:00Z"}


@_PROPERTY
@given(
    position=st.integers(0, 2),
    item=st.one_of(_DRAWN_FIELDS.map(lambda drawn: _override(_VALID_COMMENT, drawn)), _JSON_VALUES),
)
@example(position=1, item={**_VALID_COMMENT, "role": "manager"})
@example(position=2, item={**_VALID_COMMENT, "role": None})
@example(position=0, item={**_VALID_COMMENT, "created_at": 5})
@example(position=1, item=5)
@example(position=0, item={**_VALID_COMMENT, "role": ""})
@example(position=2, item={**_VALID_COMMENT, "body": None})
def test_embedded_comment_matches_the_interpreted_walk_at_any_position(position, item):
    comments = [_VALID_COMMENT, {**_VALID_COMMENT, "created_at": "2019-01-01T00:00:00Z"}]
    comments.insert(position, item)
    pull = _pull_obj(comments=comments)
    compiled, interpreted = _PARSERS["pulls.jsonl"]
    assert _outcome(compiled, pull) == _outcome(interpreted, pull)
