"""Canonical pull request corpus: record types, JSONL persistence, validation,
and repository-level filtering.

A corpus directory holds up to five JSONL files:

    pulls.jsonl                one pull request per line, comments embedded
    comments.jsonl             optional; comments on separate lines, keyed by
                               repo_full_name + pr_number
    commits.jsonl              one commit event per line
    contributor_context.jsonl  one (repository, author) context per line
    repos.jsonl                one repository metadata line each

Timestamps are RFC 3339 date-time strings on disk and timezone-aware UTC
datetimes in memory.  The grammar is RFC 3339 section 5.6 and nothing wider,
on every Python version: YYYY-MM-DD, then "T" or "t", then HH:MM:SS, an
optional fraction ("." and one or more digits, kept to the microsecond by
truncation), then "Z", "z" or an offset +HH:MM / -HH:MM.  Space separators,
missing seconds, compact or week dates and "+0000" offsets are rejected.  A
comment body must be a string; the empty string is a valid body.

Loading normalizes record order (pulls by repo and number, commits and
contexts by key, and, in a load without a fold, comments by timestamp with
ties in input order) so that save followed by load round-trips to an equal
corpus.  Every non-blank line that fails, whether it is not UTF-8, not
JSON, nested too deeply, not an object, has a field of the wrong kind,
repeats a key or names an unknown pull, becomes exactly one ingest-error
line and is skipped; the load never aborts on a line.  A missing required
file is fatal.

Each record table is compiled into one straight-line parser at import (as
dataclasses generates __init__): cheap acceptance tests run inline, and
a value that fails one, or a field whose kind transforms its value, goes to
the kind function, which states every check and message once.

Three fast paths serve the common case, and each sends every other case to
the one slow path, so none can change a record or a message.  A line is
read by one call of the C JSON scanner and kept only when it holds an
object followed by nothing but JSON whitespace, as json.loads would return
it; every other line goes to json.loads, which words the error.  A
timestamp of the form YYYY-MM-DDTHH:MM:SSZ (ASCII digits, hour 00-23, "t"
and "z" too) is read by datetime.fromisoformat after one structural match;
any other value, or one that fromisoformat rejects (February 30, second
60), goes through parse_timestamp.  A pull's comments are parsed in one
pass; a list with an item that fails is walked again item by item, so that
a role outside ROLES, or an item that is not an object, names its position
(comments[i]); every other field error of a comment keeps its plain wording.

Every load folds: each pull the load keeps opens a thread of the fold, each
checked comment of the pull is added to it (the line's own in line order,
then comments.jsonl's in file order), and the pull keeps the closed thread's
row.  A thread stays open only while comments can still arrive: to the end
of its line, or to the end of comments.jsonl when that exists.  A rejected
line opens no thread.  Each kept pull is appended to columns, one array per
field, with no object of its own: a repository code and an author code
(indices into the load's names), its number, merged flag and reopen count,
and the index of its row among the fold's distinct rows.  A repeated key is
found through one dict per repository from number to position, so no key
tuple is built per pull.  The canonical order is a stable np.lexsort over
repository codes numbered in sorted-name order, then numbers.  With a fold
(load_corpus(directory, fold)), the corpus's pulls are those columns, a
Pulls; its created_at and closed_at are checked as in any load, with the
same errors, and not kept.
Without one the fold is _Comments, whose row is the comments as
CommentRecords in timestamp order, and each pull becomes a
PullRequestRecord, timestamps and all.

Within one load, each distinct repository name, author, role and size is
one string object, shared by every record that holds it: json builds a new
string for each value, and a corpus repeats a few thousand names across
all its records.  Each distinct set of a repository's category labels (most
repositories have none) is one object in the same way, and each distinct
row of a fold is one entry of Pulls.rows.  The table behind the sharing
(_SHARED) lives only while load_corpus runs.  sys.intern would keep every
name a long-lived process ever loaded, since from Python 3.12 a string
interned at runtime is immortal.  Bodies and timestamps are nearly all
distinct and are not shared, and neither are the rows of _Comments: each
pull of a load without a fold keeps its own, never hashed.

A line is "nested too deeply" once reading it opens a level of arrays and
objects past MAX_NESTING, on every Python version and at every call depth.
A line that decodes is at least twice as long as it is deep, so most lines
cost one len() call and the longer ones two str.count() calls; only a line
with more than MAX_NESTING "[" and "{" is walked, without recursion.

write_json and write_csv give every artifact its form: indented JSON with
sorted keys, each value in its json_form, and CSV under a header row.
write_csv_text writes text that csv_row_text formatted under the same
header row, for a writer that formats each distinct row once; csv.writer
formats every field either way.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from array import array
from dataclasses import dataclass, field, fields, is_dataclass, replace
from datetime import date, datetime, timezone
from operator import attrgetter
from pathlib import Path
from typing import AbstractSet, Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

ROLES = ("contributor", "integrator", "reviewer", "other")
REPO_SIZES = ("small", "medium", "large")

# Default curation labels for repositories that are dropped from analysis
# corpora: tutorials and coursework, link collections, classroom material,
# non-English content and pure documentation trackers.
DEFAULT_EXCLUDED_LABELS = (
    "code-learning",
    "resource-list",
    "education",
    "non-english",
    "docs-only",
)

REQUIRED_FILES = (
    "pulls.jsonl",
    "commits.jsonl",
    "contributor_context.jsonl",
    "repos.jsonl",
)


class CorpusError(Exception):
    """Fatal corpus problem (missing file, unreadable directory)."""


class _LineError(ValueError):
    """Internal: single-line validation failure, caught into the report."""


class _ChoiceError(_LineError):
    """Internal: a value outside its enumeration; comments name their position."""


@dataclass(frozen=True, slots=True)
class IngestError:
    file: str
    line: int
    message: str


@dataclass(frozen=True, slots=True)
class CommentRecord:
    author: str
    role: str
    body: str
    created_at: datetime


@dataclass(frozen=True, slots=True)
class PullRequestRecord:
    repo_full_name: str
    pr_number: int
    author: str
    created_at: datetime
    merged: bool
    closed_at: datetime | None
    reopen_count: int
    comments: tuple[CommentRecord, ...] = ()


class PullView(NamedTuple):
    """One row of Pulls, built when the row is read and kept by nothing.  It
    holds no comment: `comments` reads as () for a reader written for
    PullRequestRecord."""

    repo_full_name: str
    pr_number: int
    author: str

    comments = ()


@dataclass(frozen=True, eq=False)
class Pulls:
    """Pulls as columns: entry i of each array belongs to pull i.

    repo[i] indexes repos and author[i] indexes authors; every name of repos
    has a pull.  pr_number and reopen_count are int64 and merged is uint8,
    the dtypes of the cue columns they become.  rows holds the distinct rows
    the fold gave the pulls' threads, and thread[i] indexes it.
    repo_comments[c] counts the comments the load added to the pulls of
    repository code c, whatever the fold's rows hold.
    """

    repos: tuple[str, ...]
    authors: tuple[str, ...]
    repo: np.ndarray
    author: np.ndarray
    pr_number: np.ndarray
    merged: np.ndarray
    reopen_count: np.ndarray
    thread: np.ndarray
    rows: tuple
    repo_comments: np.ndarray

    def __len__(self) -> int:
        return len(self.pr_number)

    def __iter__(self) -> Iterator[PullView]:
        """The row view: one PullView per pull, each built as it is read."""
        return map(
            PullView,
            map(self.repos.__getitem__, self.repo.tolist()),
            self.pr_number.tolist(),
            map(self.authors.__getitem__, self.author.tolist()),
        )

    def of_repositories(self, names: AbstractSet[str]) -> Pulls:
        """The pulls of the named repositories, in the same order."""
        kept = [code for code, name in enumerate(self.repos) if name in names]
        mask = np.zeros(len(self.repos), bool)
        mask[kept] = True
        return self._take(mask[self.repo], kept)

    def _take(self, rows: np.ndarray, repos: Sequence[int]) -> Pulls:
        """The pulls at rows (an index array or a mask), all of them of the
        repository codes repos, which become codes 0, 1, ... in that order."""
        code = np.zeros(len(self.repos), np.int64)
        code[repos] = np.arange(len(repos))
        columns = ("author", "pr_number", "merged", "reopen_count", "thread")
        return replace(
            self, repos=tuple(self.repos[c] for c in repos), repo=code[self.repo[rows]],
            repo_comments=self.repo_comments[repos], **{name: getattr(self, name)[rows] for name in columns},
        )


@dataclass(frozen=True, slots=True)
class CommitEvent:
    repo_full_name: str
    author: str
    committed_at: datetime


@dataclass(frozen=True, slots=True)
class ContributorContext:
    repo_full_name: str
    author: str
    core_member: bool
    contrib_rate_author: float
    followers: int
    num_languages: int
    contrib_follow_integrator: bool
    social_strength: float


@dataclass(frozen=True, slots=True)
class RepoMeta:
    repo_full_name: str
    stars: int
    category_labels: frozenset[str]
    pr_count: int
    repo_size: str


# Record keys: duplicate detection on load, and record order on load and save.
_PULL_KEY = attrgetter("repo_full_name", "pr_number")
_COMMIT_ORDER = attrgetter("repo_full_name", "author", "committed_at")
_CONTEXT_KEY = attrgetter("repo_full_name", "author")
_REPO_KEY = attrgetter("repo_full_name")


@dataclass
class Corpus:
    """A corpus's records: a load with a fold gives its pulls as Pulls, every
    other corpus as PullRequestRecords."""

    pulls: list[PullRequestRecord] | Pulls = field(default_factory=list)
    commits: list[CommitEvent] = field(default_factory=list)
    contexts: list[ContributorContext] = field(default_factory=list)
    repos: list[RepoMeta] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        pulls = self.pulls
        folded = isinstance(pulls, Pulls)
        return {
            "pulls": len(pulls),
            "comments": int(pulls.repo_comments.sum()) if folded else sum(len(p.comments) for p in pulls),
            "commits": len(self.commits),
            "contexts": len(self.contexts),
            "repos": len(self.repos),
        }


@dataclass
class LoadResult:
    corpus: Corpus
    errors: list[IngestError]


@dataclass(frozen=True)
class FilterConfig:
    top_n_by_stars: int = 200
    excluded_labels: frozenset[str] = frozenset(DEFAULT_EXCLUDED_LABELS)

    def __post_init__(self) -> None:
        if self.top_n_by_stars < 1:
            raise ValueError(f"top_n_by_stars must be >= 1, got {self.top_n_by_stars}")


# RFC 3339 date-time: full-date "T" partial-time time-offset, with the
# offset optional here only to name its absence in the error message.
# re.ASCII keeps \d to 0-9; \d\d\d\d matches faster than \d{4}.  The hour is
# checked here as well as by datetime, which on some versions reads 24:00.
_TIMESTAMP = re.compile(
    r"(\d\d\d\d-\d\d-\d\d)[Tt]((?:[01]\d|2[0-3]):\d\d:\d\d)(?:\.(\d+))?"
    r"([Zz]|[+-](?:[01]\d|2[0-3]):[0-5]\d)?",
    re.ASCII,
)

# The common form YYYY-MM-DDTHH:MM:SSZ, which the compiled parsers read
# without the general grammar (see _timestamp.reads).
_UTC_SECONDS = re.compile(r"\d\d\d\d-\d\d-\d\d[Tt](?:[01]\d|2[0-3]):\d\d:\d\d[Zz]", re.ASCII)


def parse_timestamp(value: str) -> datetime:
    """Parse an RFC 3339 date-time into an aware UTC datetime.

    The text must match the grammar in the module docstring; its fields are
    then range-checked by datetime (month 13, second 60 and a UTC value
    before year 1 or after year 9999 are invalid).  Raises ValueError.
    """
    if not isinstance(value, str):
        raise _LineError(f"timestamp must be a string, got {type(value).__name__}")
    match = _TIMESTAMP.fullmatch(value)
    if match is None:
        raise _LineError(f"invalid RFC 3339 timestamp {value!r}")
    day, time, fraction, offset = match.groups()
    if offset is None:
        raise _LineError(f"timestamp {value!r} is missing a UTC offset")
    if offset in ("Z", "z"):
        offset = "+00:00"
    # Six fraction digits: every supported Python reads that form alike.
    fraction = "" if fraction is None else "." + fraction[:6].ljust(6, "0")
    text = f"{day}T{time}{fraction}{offset}"
    try:
        return datetime.fromisoformat(text).astimezone(timezone.utc)
    except (ValueError, OverflowError):
        raise _LineError(f"invalid RFC 3339 timestamp {value!r}") from None


def format_timestamp(value: datetime) -> str:
    """RFC 3339 UTC text; the fraction is written only when there is one."""
    return value.astimezone(timezone.utc).replace(tzinfo=None).isoformat() + "Z"


def repo_size_for(pr_count: int) -> str:
    """Size category from PR volume: small <= 100, medium 101-1000, large > 1000."""
    if pr_count > 1000:
        return "large"
    if pr_count > 100:
        return "medium"
    return "small"


def derive_comment_role(
    comment_author: str,
    pr_author: str,
    integrators: AbstractSet[str],
    reviewers: AbstractSet[str],
) -> str:
    """Assign a comment role from authorship facts.

    The PR author always speaks as the contributor.  Anyone in integrators
    is the integrator: a fetched export passes the owner and member logins
    and the PR's merged_by user (the closer of an unmerged PR is not
    fetched).  Anyone in reviewers is a reviewer.  Everybody else is other.
    Precedence follows that order.
    """
    if comment_author == pr_author:
        return "contributor"
    if comment_author in integrators:
        return "integrator"
    if comment_author in reviewers:
        return "reviewer"
    return "other"


# A field kind reads one field of a line's JSON object, checks it and returns
# the value the record holds.  Required kinds report absent and null alike.
# A kind that returns the value unchanged when it passes also states that
# test as `accepts`, Python source over the value `v`, which the compiled
# parsers run inline; a value that fails it still goes to the kind.  A kind
# that converts its common form states that form as `accepts` and the
# conversion as `reads`; a ValueError from `reads` sends the value to the
# kind as well, so every message is still written once, in the kind.


def _fault(value, name: str, wanted: str) -> _LineError:
    if value is None:
        return _LineError(f"missing field {name!r}")
    return _LineError(f"field {name!r} {wanted}")


# The first object of each name, choice value and label set seen in the
# current load, which each later equal one is read as; load_corpus empties
# it when it returns.  Loads that overlap in threads
# share it, and the first to return empties it: the other's records stay
# equal, but share fewer objects.
_SHARED: dict = {}


def _name(obj: dict, name: str) -> str:
    value = obj.get(name)
    if type(value) is str and value:
        return value
    raise _fault(value, name, "must be a non-empty string")


_name.accepts = "type(v) is str and v"
_name.reads = "share(v, v)"


def _text(obj: dict, name: str) -> str:
    value = obj.get(name)
    if type(value) is str:
        return value
    raise _fault(value, name, "must be a string")


_text.accepts = "type(v) is str"


# The largest integer field: a count past int64 has no place in the numpy
# columns built from it, and one past the float range cannot be converted.
INTEGER_MAX = 2**63 - 1


def _integer(minimum: int):
    def check(obj: dict, name: str) -> int:
        value = obj.get(name)
        if type(value) is not int:
            raise _fault(value, name, "must be an integer")
        if value < minimum:
            raise _LineError(f"field {name!r} must be >= {minimum}, got {value}")
        if value > INTEGER_MAX:
            raise _LineError(f"field {name!r} must be <= {INTEGER_MAX}, got {value}")
        return value

    check.accepts = f"type(v) is int and {minimum!r} <= v <= {INTEGER_MAX!r}"
    return check


def _boolean(obj: dict, name: str) -> bool:
    value = obj.get(name)
    if value is True or value is False:
        return value
    raise _fault(value, name, "must be a boolean")


_boolean.accepts = "v is True or v is False"


def _fraction(obj: dict, name: str) -> float:
    value = obj.get(name)
    if type(value) is not float and type(value) is not int:
        raise _fault(value, name, "must be a number")
    if not 0 <= value <= 1:
        shown = float(value) if abs(value) <= sys.float_info.max else value
        raise _LineError(f"field {name!r} must lie in [0, 1], got {shown}")
    return float(value)


def _timestamp(obj: dict, name: str) -> datetime:
    value = obj.get(name)
    if value is None:
        raise _LineError(f"missing field {name!r}")
    return parse_timestamp(value)


def _optional_timestamp(obj: dict, name: str) -> datetime | None:
    value = obj.get(name)
    return None if value is None else parse_timestamp(value)


# fromisoformat gives a zero offset as the timezone.utc singleton, which is
# what parse_timestamp's astimezone returns; a day or second out of range
# raises ValueError, and parse_timestamp then words the message.
_timestamp.accepts = _optional_timestamp.accepts = "type(v) is str and utc_seconds(v)"
_timestamp.reads = _optional_timestamp.reads = "from_iso(v[:19] + '+00:00')"

_INLINE_NAMES = {
    "utc_seconds": _UTC_SECONDS.fullmatch,
    "from_iso": datetime.fromisoformat,
    "share": _SHARED.setdefault,
}


def _choice(choices: tuple[str, ...]):
    def check(obj: dict, name: str) -> str:
        value = obj.get(name)
        if value in choices:
            return value
        _name(obj, name)  # an absent, null or non-string value fails as a name
        raise _ChoiceError(f"{name} {value!r} not one of {choices}")

    check.accepts = f"v in {choices!r}"
    check.reads = "share(v, v)"
    return check


def _string_set(obj: dict, name: str) -> frozenset[str]:
    value = obj.get(name, [])
    if type(value) is not list or not all(type(s) is str for s in value):
        raise _LineError(f"field {name!r} must be a list of strings")
    labels = frozenset(value)
    return _SHARED.setdefault(labels, labels)


def _checked_comments(obj: dict, name: str) -> list:
    """The items of a pull line's comments, each as its row tuple of _COMMENT."""
    value = obj.get(name, [])
    if type(value) is not list:
        raise _LineError(f"field {name!r} must be a list")
    try:
        return [_parse_comment(c) for c in value]
    except (_LineError, AttributeError):  # AttributeError: an item that is not an object
        # Walk the list again item by item, so the error names its position.
        return [_comment(c, i) for i, c in enumerate(value)]


def _size_matches_count(obj: dict, name: str) -> str:
    """Cross-field rule: repo_size against pr_count, both checked by earlier rows."""
    size, pr_count = obj[name], obj["pr_count"]
    if repo_size_for(pr_count) != size:
        raise _LineError(f"repo_size {size!r} inconsistent with pr_count {pr_count}")
    return _SHARED.setdefault(size, size)


# Record tables, one row per check in order: a line's error is its first failing row.

_COMMENT = (
    ("role", _choice(ROLES)),
    ("author", _name),
    ("body", _text),
    ("created_at", _timestamp),
)

# A pull's rows after its comments', which _parse_pull checks first.
_PULL = (
    ("repo_full_name", _name),
    ("pr_number", _integer(1)),
    ("author", _name),
    ("created_at", _timestamp),
    ("merged", _boolean),
    ("closed_at", _optional_timestamp),
    ("reopen_count", _integer(0)),
)

# A comments.jsonl line names its pull with the pull's key fields.
_COMMENT_KEY = _PULL[:2]

_COMMIT = (
    ("repo_full_name", _name),
    ("author", _name),
    ("committed_at", _timestamp),
)

_CONTEXT = (
    ("repo_full_name", _name),
    ("author", _name),
    ("core_member", _boolean),
    ("contrib_rate_author", _fraction),
    ("followers", _integer(0)),
    ("num_languages", _integer(1)),
    ("contrib_follow_integrator", _boolean),
    ("social_strength", _fraction),
)

_REPO = (
    ("category_labels", _string_set),
    ("repo_size", _choice(REPO_SIZES)),
    ("pr_count", _integer(0)),
    ("repo_size", _size_matches_count),
    ("repo_full_name", _name),
    ("stars", _integer(0)),
)


def _compile(table, record_type=None):
    """One parser function for a record table, built once at import.

    The function checks the rows in order and builds the record from each
    field's last value, through _builder.  Without a record type it returns
    the rows' values as a tuple, in row order.  For a row whose kind has an
    `accepts` test the test runs inline and the kind is called only when it
    fails (or, for a kind that also `reads`, when the conversion raises
    ValueError); every other row calls its kind.
    """
    namespace = dict(_INLINE_NAMES)
    lines = ["def parse(obj):", "    get = obj.get"]
    for i, (name, kind) in enumerate(table):
        namespace[f"kind{i}"] = kind
        call = f"kind{i}(obj, {name!r})"
        test = getattr(kind, "accepts", None)
        read = getattr(kind, "reads", None)
        if test is None:
            lines.append(f"    f_{name} = {call}")
        elif read is None:
            lines += [f"    v = get({name!r})", f"    if not ({test}):", f"        v = {call}"]
        else:
            lines += [f"    v = get({name!r})", f"    if {test}:", "        try:",
                      f"            v = {read}", "        except ValueError:",
                      f"            v = {call}", "    else:", f"        v = {call}"]
        if test is not None:
            lines.append(f"    f_{name} = v")
    if record_type is None:
        lines.append(f"    return ({', '.join(f'f_{name}' for name, _ in table)},)")
    else:
        namespace["build"] = _builder(record_type)
        lines.append(f"    return build({', '.join(f'f_{f.name}' for f in fields(record_type))})")
    label = "row" if record_type is None else record_type.__name__
    exec(compile("\n".join(lines), f"<{label} parser>", "exec"), namespace)
    return namespace["parse"]


def _builder(record_type):
    """A function of record_type's field values, in field order, that builds
    the record.

    It sets the record's slots one by one, as the frozen dataclass __init__
    does but without its object.__setattr__ call per field, so the record
    type may have no __post_init__.
    """
    if hasattr(record_type, "__post_init__"):
        raise TypeError(f"{record_type.__name__} is built without __init__")
    names = [f.name for f in fields(record_type)]
    namespace = {"new": object.__new__, "record": record_type}
    lines = [f"def build({', '.join(names)}):", "    rec = new(record)"]
    for name in names:
        namespace[f"set_{name}"] = getattr(record_type, name).__set__
        lines.append(f"    set_{name}(rec, {name})")
    lines.append("    return rec")
    exec(compile("\n".join(lines), f"<{record_type.__name__} builder>", "exec"), namespace)
    return namespace["build"]


_parse_comment = _compile(_COMMENT)
_parse_pull = _compile((("comments", _checked_comments), *_PULL))
_parse_pull_key = _compile(_COMMENT_KEY)
_parse_commit = _compile(_COMMIT, CommitEvent)
_parse_context = _compile(_CONTEXT, ContributorContext)
_parse_repo = _compile(_REPO, RepoMeta)


def _comment(obj, index: int | None) -> tuple:
    """The row tuple of item `index` of a pull's comment list, or (None) of a
    comments.jsonl line.

    The position is formatted only into an error message.
    """
    if isinstance(obj, dict):
        try:
            return _parse_comment(obj)
        except _ChoiceError as exc:
            raise _LineError(f"{_position(index)}: {exc}") from None
    raise _LineError(f"{_position(index)} must be an object")


def _position(index: int | None) -> str:
    return "comment" if index is None else f"comments[{index}]"


_CREATED_AT = attrgetter("created_at")


def _sort_comments(comments: Iterable[CommentRecord]) -> tuple[CommentRecord, ...]:
    # Stable on timestamp so same-second comments keep their input order.
    return tuple(sorted(comments, key=_CREATED_AT))


_new_comment = _builder(CommentRecord)
_new_pull = _builder(PullRequestRecord)


class _Comments(list):
    """The fold of a load without one: its row is the comments as
    CommentRecords, in _sort_comments order."""

    def add(self, role: str, author: str, body: str, created_at: datetime) -> None:
        self.append(_new_comment(author, role, body, created_at))

    def close(self) -> tuple[CommentRecord, ...]:
        return _sort_comments(self)


class _Columns:
    """Pulls appended one at a time, one array per field, and the names,
    rows and comment counts they index (see Pulls)."""

    def __init__(self, fold) -> None:
        self.repos: dict[str, int] = {}  # each name's code, in first-seen order
        self.authors: dict[str, int] = {}
        self.repo_comments: list[int] = []
        self.repo, self.author, self.pr_number = array("q"), array("q"), array("q")
        self.merged, self.reopen_count, self.thread = array("B"), array("q"), array("q")
        self.rows: list = []
        # The rows of _Comments are nearly all distinct: each pull keeps its
        # own, where hashing it to share it would cost a hash of every comment.
        self.row_codes: dict | None = None if fold is _Comments else {}

    def code(self, repo: str) -> int:
        code = self.repos.setdefault(repo, len(self.repos))
        if code == len(self.repo_comments):
            self.repo_comments.append(0)
        return code

    def append(self, code: int, number: int, author: str, merged: bool, reopen_count: int,
               comments: int) -> None:
        """Append a pull of repository code, all but its row (add_row)."""
        self.repo_comments[code] += comments
        self.repo.append(code)
        self.author.append(self.authors.setdefault(author, len(self.authors)))
        self.pr_number.append(number)
        self.merged.append(merged)
        self.reopen_count.append(reopen_count)

    def add_row(self, row) -> None:
        """Append the next pull's row: its index among the distinct rows."""
        index = len(self.rows)
        if self.row_codes is not None:
            index = self.row_codes.setdefault(row, index)
        if index == len(self.rows):
            self.rows.append(row)
        self.thread.append(index)

    def pulls(self) -> Pulls:
        """The pulls in the order appended; the arrays are shared, not copied."""
        # Viewed as np.int64: numpy reads typecode "q" as long long, a
        # distinct dtype that np.asarray(..., np.int64) would copy.
        repo, author, pr_number, reopen_count, thread = (
            np.asarray(column).view(np.int64)
            for column in (self.repo, self.author, self.pr_number, self.reopen_count, self.thread)
        )
        return Pulls(
            tuple(self.repos), tuple(self.authors), repo, author, pr_number,
            np.asarray(self.merged).view(np.uint8), reopen_count, thread,
            tuple(self.rows), np.array(self.repo_comments, np.int64),
        )


def pull_columns(records: Iterable[PullRequestRecord], fold) -> Pulls:
    """The records as Pulls, in their order.  Each record's comments go to a
    new thread of fold, as a load gives them, and its row is that thread's
    close."""
    columns = _Columns(fold)
    for record in records:
        thread = fold()
        for comment in record.comments:
            thread.add(comment.role, comment.author, comment.body, comment.created_at)
        columns.append(
            columns.code(record.repo_full_name), record.pr_number, record.author, record.merged,
            record.reopen_count, len(record.comments),
        )
        columns.add_row(thread.close())
    return columns.pulls()


def _canonical(pulls: Pulls) -> tuple[Pulls, np.ndarray]:
    """The pulls by repository name and number, with repository codes in
    sorted-name order, and the positions they came from."""
    by_name = sorted(range(len(pulls.repos)), key=pulls.repos.__getitem__)
    rank = np.zeros(len(by_name), np.int64)
    rank[by_name] = np.arange(len(by_name))
    order = np.lexsort((pulls.pr_number, rank[pulls.repo]))
    return pulls._take(order, by_name), order


_scan = json.JSONDecoder().scan_once

# The deepest nesting of arrays and objects a line may have: well under the
# recursion limit of every supported Python, so no decoder reaches that limit.
MAX_NESTING = 256

# A JSON string (an unterminated one runs to the end of the line) or a bracket.
_STRING_OR_BRACKET = re.compile(r'"(?:[^"\\]|\\.)*"?|[][{}]')
_DEPTH_STEP = {"[": 1, "{": 1, "]": -1, "}": -1}


def _nesting_cut(line: str) -> int:
    """The end of the first bracket outside strings that opens a level past
    MAX_NESTING, or 0 when there is none."""
    if len(line) <= MAX_NESTING or line.count("[") + line.count("{") <= MAX_NESTING:
        return 0
    depth = 0
    for match in _STRING_OR_BRACKET.finditer(line):
        depth += _DEPTH_STEP.get(match[0], 0)
        if depth > MAX_NESTING:
            return match.end()
    return 0


def _decode(line: str) -> dict:
    """The JSON object on one line; every way the line can fail is a _LineError.

    A line that nests past MAX_NESTING is read only up to the bracket that
    opens the level past it, so an error before that bracket keeps its
    message and a read that runs to the cut is "nested too deeply".  The
    scanner's object is kept only when nothing but JSON whitespace follows
    it; every other line (an error of any kind, a value that is not an
    object, extra data, leading whitespace, a byte order mark) is read again
    by json.loads, which words the message.
    """
    if not line.isascii():
        try:
            # Files are read with surrogateescape, so bytes that are not
            # UTF-8 survive as lone surrogates, which do not encode.
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise _LineError("line is not valid UTF-8") from None
    # A line that decodes is at least twice as long as it is deep.
    cut = _nesting_cut(line) if len(line) > 2 * MAX_NESTING else 0
    if not cut:
        try:
            obj, end = _scan(line, 0)
        except (StopIteration, ValueError, RecursionError):
            pass
        else:
            if type(obj) is dict and not line[end:].strip(" \t\n\r"):
                return obj
        cut = _nesting_cut(line)
    try:
        obj = json.loads(line[:cut] if cut else line)
    except json.JSONDecodeError as exc:
        message = "nested too deeply" if cut and exc.pos == cut else exc.msg
        raise _LineError(f"invalid JSON: {message}") from None
    except RecursionError:
        raise _LineError("invalid JSON: nested too deeply") from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise _LineError("invalid JSON: integer has too many digits") from None
    if not isinstance(obj, dict):
        raise _LineError("line is not a JSON object")
    return obj


def load_corpus(directory: str | Path, fold=None) -> LoadResult:
    """Load and validate a corpus directory.

    Returns the corpus together with the per-line error report.  Invalid
    lines are skipped, never repaired.  A missing required file raises
    CorpusError.  Equal names, roles and label sets in the corpus are one
    object each; the table that shares them is emptied on return, also
    after a raise.

    fold() gives a new open thread for each pull the load keeps; its
    add(role, author, body, created_at) takes each checked comment of the
    pull, in the order the module docstring gives, and its close() gives the
    hashable row the pull keeps.  With a fold, the corpus's pulls are a
    Pulls, which keeps no comment record or timestamp; without one,
    PullRequestRecords.
    """
    try:
        return _load(Path(directory), _Comments if fold is None else fold)
    finally:
        _SHARED.clear()


def check_corpus_dir(directory: str | Path) -> None:
    """Raise CorpusError unless directory exists and holds every required file."""
    directory = Path(directory)
    if not directory.is_dir():
        raise CorpusError(f"corpus directory not found: {directory}")
    for name in REQUIRED_FILES:
        if not (directory / name).is_file():
            raise CorpusError(f"missing corpus file: {directory / name}")


def _load(directory: Path, fold) -> LoadResult:
    check_corpus_dir(directory)
    separate = (directory / "comments.jsonl").is_file()

    errors: list[IngestError] = []

    def read(filename: str, parse):
        """(line number, record) for each valid line of a file; each other line is one error."""
        with open(directory / filename, encoding="utf-8", errors="surrogateescape") as handle:
            for lineno, line in enumerate(handle, start=1):
                if line.isspace():  # a line from a file is never empty
                    continue
                try:
                    record = parse(_decode(line))
                except _LineError as exc:
                    errors.append(IngestError(filename, lineno, str(exc)))
                else:
                    yield lineno, record

    def unique(filename: str, parse, key, duplicate) -> dict:
        """The first record of each key; repeats are error lines after the file's others."""
        kept, repeats = {}, []
        for lineno, record in read(filename, parse):
            if kept.setdefault(key(record), record) is not record:
                repeats.append(IngestError(filename, lineno, duplicate(record)))
        errors.extend(repeats)
        return kept

    columns = _Columns(fold)
    numbers: list[dict[int, int]] = []  # per repository code: each number's position
    threads = []  # each pull's open thread, while comments.jsonl can add to it
    stamps = []  # without a fold: each pull's values that no column holds
    repeats = []
    for lineno, values in read("pulls.jsonl", _parse_pull):
        comments, repo, number, author, created_at, merged, closed_at, reopen_count = values
        code = columns.code(repo)
        if code == len(numbers):
            numbers.append({})
        position = len(columns.pr_number)
        if numbers[code].setdefault(number, position) != position:
            repeats.append(IngestError("pulls.jsonl", lineno, f"duplicate pr_number {number} for {repo}"))
            continue
        thread = fold()
        for comment in comments:
            thread.add(*comment)
        columns.append(code, number, author, merged, reopen_count, len(comments))
        if separate:
            threads.append(thread)
        else:
            columns.add_row(thread.close())
        if fold is _Comments:
            stamps.append((created_at, merged, closed_at))
    errors.extend(repeats)

    def separate_comment(obj: dict) -> tuple[int, tuple]:
        repo, number = _parse_pull_key(obj)
        comment = _comment(obj, None)
        code = columns.repos.get(repo)
        position = None if code is None else numbers[code].get(number)
        if position is None:
            raise _LineError(f"comment references unknown pull {repo}#{number}")
        return position, comment

    if separate:
        for _, (position, (role, author, body, created_at)) in read("comments.jsonl", separate_comment):
            threads[position].add(role, author, body, created_at)
            columns.repo_comments[columns.repo[position]] += 1
        for thread in threads:
            columns.add_row(thread.close())
    # Freed before the sort and the later files, so their peaks do not stack.
    del numbers, threads
    pulls, order = _canonical(columns.pulls())
    del columns
    if fold is _Comments:
        rows, repos, authors = pulls.rows, pulls.repos, pulls.authors
        pulls = [
            _new_pull(repos[r], n, authors[a], created_at, merged, closed_at, k, rows[t])
            for (created_at, merged, closed_at), r, n, a, k, t in zip(
                map(stamps.__getitem__, order.tolist()),
                *(column.tolist() for column in (pulls.repo, pulls.pr_number, pulls.author,
                                                 pulls.reopen_count, pulls.thread)),
            )
        ]

    commits = [c for _, c in read("commits.jsonl", _parse_commit)]
    contexts = unique(
        "contributor_context.jsonl",
        _parse_context,
        _CONTEXT_KEY,
        lambda c: f"duplicate context for {c.repo_full_name}:{c.author}",
    )
    repos = unique(
        "repos.jsonl",
        _parse_repo,
        _REPO_KEY,
        lambda r: f"duplicate repo {r.repo_full_name}",
    )

    corpus = Corpus(
        pulls=pulls,
        commits=sorted(commits, key=_COMMIT_ORDER),
        contexts=[contexts[k] for k in sorted(contexts)],
        repos=[repos[k] for k in sorted(repos)],
    )
    return LoadResult(corpus=corpus, errors=errors)


def json_form(value):
    """value as JSON data: the one form of every value this package writes as JSON."""
    if is_dataclass(value):
        return {f.name: json_form(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, datetime):  # before date, its base class
        return format_timestamp(value)
    if isinstance(value, (date, Path)):
        return str(value)  # a date's str is its ISO form
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [json_form(item) for item in value]
    if isinstance(value, dict):
        return {key: json_form(item) for key, item in value.items()}
    if value is None or isinstance(value, (str, int, float)):
        return value
    raise TypeError(f"{type(value).__name__} has no JSON form")


def _write_jsonl(path: Path, records: Iterable) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, default=json_form, separators=(",", ":"), allow_nan=False) + "\n")


def write_json(path: str | Path, payload) -> None:
    """A JSON artifact: payload's json_form, two-space indent, sorted keys, one
    final newline.  A NaN or infinite float raises ValueError: it is not JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, default=json_form, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A CSV artifact: the header row, then one row per item of rows."""
    with _open_csv(path, header) as handle:
        csv.writer(handle).writerows(rows)


def write_csv_text(path: str | Path, header: Sequence[str], text: Iterable[str]) -> None:
    """A CSV artifact: the header row, then the pieces of text in turn.  The
    text is whole rows whose fields csv_row_text formatted."""
    with _open_csv(path, header) as handle:
        handle.writelines(text)


def csv_row_text(row: Sequence, *, terminated: bool = True) -> str:
    """row as write_csv writes it: csv.writer's fields, then its line end,
    or no line end when not terminated.  The writer keeps its line end either
    way, since a field that holds one of its characters is quoted."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(row)
    text = buffer.getvalue()
    return text if terminated else text.removesuffix(writer.dialect.lineterminator)


def _open_csv(path: str | Path, header: Sequence[str]) -> TextIO:
    handle = open(path, "w", encoding="utf-8", newline="")
    try:
        csv.writer(handle).writerow(header)
    except BaseException:
        handle.close()
        raise
    return handle


def save_corpus(corpus: Corpus, directory: str | Path) -> None:
    """Write a corpus in canonical form: sorted records, each pull's comments
    embedded in _sort_comments order (by timestamp, ties in input order).
    A folded load's Pulls have no comments to write, so it raises ValueError."""
    if isinstance(corpus.pulls, Pulls):
        raise ValueError("a corpus loaded with a fold holds no comments to save")
    pulls = sorted(corpus.pulls, key=_PULL_KEY)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _write_jsonl(
        directory / "pulls.jsonl", (replace(p, comments=_sort_comments(p.comments)) for p in pulls)
    )
    _write_jsonl(directory / "commits.jsonl", sorted(corpus.commits, key=_COMMIT_ORDER))
    _write_jsonl(directory / "contributor_context.jsonl", sorted(corpus.contexts, key=_CONTEXT_KEY))
    _write_jsonl(directory / "repos.jsonl", sorted(corpus.repos, key=_REPO_KEY))


def write_error_report(errors: Iterable[IngestError], path: str | Path) -> None:
    _write_jsonl(Path(path), errors)


def filter_repositories(corpus: Corpus, config: FilterConfig) -> Corpus:
    """Apply star-ranked selection followed by category exclusion.

    Keeps the top N repositories by stars with boundary ties included, then
    drops any repository carrying an excluded category label.  Pulls, commits
    and contexts of dropped repositories are removed as well.  Applying the
    same filter twice is a no-op.  There is no default filter: a run whose
    PipelineConfig.filter is None does not filter and does not call this.
    A folded load's Pulls are filtered by a mask over their columns.
    """
    ranked = sorted(corpus.repos, key=lambda r: (-r.stars, r.repo_full_name))
    if len(ranked) > config.top_n_by_stars:
        cutoff = ranked[config.top_n_by_stars - 1].stars
        ranked = [r for r in ranked if r.stars >= cutoff]

    excluded = frozenset(config.excluded_labels)
    kept = [r for r in ranked if not (r.category_labels & excluded)]
    names = {r.repo_full_name for r in kept}

    pulls = corpus.pulls
    return Corpus(
        pulls=(
            pulls.of_repositories(names) if isinstance(pulls, Pulls)
            else [p for p in pulls if p.repo_full_name in names]
        ),
        commits=[c for c in corpus.commits if c.repo_full_name in names],
        contexts=[c for c in corpus.contexts if c.repo_full_name in names],
        repos=[r for r in corpus.repos if r.repo_full_name in names],
    )
