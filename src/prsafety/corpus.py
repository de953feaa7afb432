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

Loading normalizes record order (pulls by repo and number, comments by
timestamp, commits and contexts by key) so that save followed by load
round-trips to an equal corpus.  Every non-blank line that fails, whether it
is not UTF-8, not JSON, nested too deeply, not an object, has a field of the
wrong kind, repeats a key or names an unknown pull, becomes exactly one
ingest-error line and is skipped; the load never aborts on a line.  A
missing required file is fatal.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import Iterable

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


@dataclass(frozen=True)
class IngestError:
    file: str
    line: int
    message: str


@dataclass(frozen=True)
class CommentRecord:
    author: str
    role: str
    body: str
    created_at: datetime


@dataclass(frozen=True)
class PullRequestRecord:
    repo_full_name: str
    pr_number: int
    author: str
    created_at: datetime
    merged: bool
    closed_at: datetime | None
    reopen_count: int
    comments: tuple[CommentRecord, ...] = ()


@dataclass(frozen=True)
class CommitEvent:
    repo_full_name: str
    author: str
    committed_at: datetime


@dataclass(frozen=True)
class ContributorContext:
    repo_full_name: str
    author: str
    core_member: bool
    contrib_rate_author: float
    followers: int
    num_languages: int
    contrib_follow_integrator: bool
    social_strength: float


@dataclass(frozen=True)
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
    pulls: list[PullRequestRecord] = field(default_factory=list)
    commits: list[CommitEvent] = field(default_factory=list)
    contexts: list[ContributorContext] = field(default_factory=list)
    repos: list[RepoMeta] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        return {
            "pulls": len(self.pulls),
            "comments": sum(len(p.comments) for p in self.pulls),
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
# re.ASCII keeps \d to 0-9; \d\d\d\d matches faster than \d{4}.
_TIMESTAMP = re.compile(
    r"(\d\d\d\d-\d\d-\d\d)[Tt](\d\d:\d\d:\d\d)(?:\.(\d+))?([Zz]|[+-](?:[01]\d|2[0-3]):[0-5]\d)?",
    re.ASCII,
)


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
    if len(value) == 20:  # YYYY-MM-DDTHH:MM:SSZ, the common form
        text = value[:-1] + "+00:00"
    else:
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
    integrators: Iterable[str],
    reviewers: Iterable[str],
) -> str:
    """Assign a comment role from authorship facts.

    The PR author always speaks as the contributor.  Anyone who merged or
    closed the PR, or holds an owner or member association, is the
    integrator.  Anyone who submitted a formal review is a reviewer.
    Everybody else is other.  Precedence follows that order.
    """
    if comment_author == pr_author:
        return "contributor"
    if comment_author in set(integrators):
        return "integrator"
    if comment_author in set(reviewers):
        return "reviewer"
    return "other"


# A field kind reads one field of a line's JSON object, checks it and returns
# the value the record holds.  Required kinds report absent and null alike.


def _fault(value, name: str, wanted: str) -> _LineError:
    if value is None:
        return _LineError(f"missing field {name!r}")
    return _LineError(f"field {name!r} {wanted}")


def _name(obj: dict, name: str) -> str:
    value = obj.get(name)
    if type(value) is str and value:
        return value
    raise _fault(value, name, "must be a non-empty string")


def _text(obj: dict, name: str) -> str:
    value = obj.get(name)
    if type(value) is str:
        return value
    raise _fault(value, name, "must be a string")


def _integer(minimum: int):
    def check(obj: dict, name: str) -> int:
        value = obj.get(name)
        if type(value) is not int:
            raise _fault(value, name, "must be an integer")
        if value < minimum:
            raise _LineError(f"field {name!r} must be >= {minimum}, got {value}")
        return value

    return check


def _boolean(obj: dict, name: str) -> bool:
    value = obj.get(name)
    if value is True or value is False:
        return value
    raise _fault(value, name, "must be a boolean")


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


def _choice(choices: tuple[str, ...]):
    def check(obj: dict, name: str) -> str:
        value = obj.get(name)
        if value in choices:
            return value
        _name(obj, name)  # an absent, null or non-string value fails as a name
        raise _ChoiceError(f"{name} {value!r} not one of {choices}")

    return check


def _string_set(obj: dict, name: str) -> frozenset[str]:
    value = obj.get(name, [])
    if type(value) is not list or not all(type(s) is str for s in value):
        raise _LineError(f"field {name!r} must be a list of strings")
    return frozenset(value)


def _comments(obj: dict, name: str) -> tuple[CommentRecord, ...]:
    value = obj.get(name, [])
    if type(value) is not list:
        raise _LineError(f"field {name!r} must be a list")
    return _sort_comments(_comment(c, f"comments[{i}]") for i, c in enumerate(value))


def _size_matches_count(obj: dict, name: str) -> str:
    """Cross-field rule: repo_size against pr_count, both checked by earlier rows."""
    size, pr_count = obj[name], obj["pr_count"]
    if repo_size_for(pr_count) != size:
        raise _LineError(f"repo_size {size!r} inconsistent with pr_count {pr_count}")
    return size


# Record tables, one row per check in order: a line's error is its first failing row.

_COMMENT = (
    ("role", _choice(ROLES)),
    ("author", _name),
    ("body", _text),
    ("created_at", _timestamp),
)

_PULL = (
    ("comments", _comments),
    ("repo_full_name", _name),
    ("pr_number", _integer(1)),
    ("author", _name),
    ("created_at", _timestamp),
    ("merged", _boolean),
    ("closed_at", _optional_timestamp),
    ("reopen_count", _integer(0)),
)

# A comments.jsonl line names its pull with the pull's key fields.
_COMMENT_KEY = _PULL[1:3]

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


def _parse(table, record_type, obj: dict):
    """Check obj against a record table, row by row, and build the record."""
    values = {}
    for name, kind in table:
        values[name] = kind(obj, name)
    return record_type(**values)


def _comment(obj, where: str) -> CommentRecord:
    if not isinstance(obj, dict):
        raise _LineError(f"{where} must be an object")
    try:
        return _parse(_COMMENT, CommentRecord, obj)
    except _ChoiceError as exc:
        raise _LineError(f"{where}: {exc}") from None


def _sort_comments(comments: Iterable[CommentRecord]) -> tuple[CommentRecord, ...]:
    # Stable on timestamp so same-second comments keep their input order.
    return tuple(sorted(comments, key=lambda c: c.created_at))


def _decode(line: str) -> dict:
    """The JSON object on one line; every way the line can fail is a _LineError."""
    if not line.isascii():
        try:
            # Files are read with surrogateescape, so bytes that are not
            # UTF-8 survive as lone surrogates, which do not encode.
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise _LineError("line is not valid UTF-8") from None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise _LineError(f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise _LineError("invalid JSON: nested too deeply") from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise _LineError("invalid JSON: integer has too many digits") from None
    if not isinstance(obj, dict):
        raise _LineError("line is not a JSON object")
    return obj


def load_corpus(directory: str | Path) -> LoadResult:
    """Load and validate a corpus directory.

    Returns the corpus together with the per-line error report.  Invalid
    lines are skipped, never repaired.  A missing required file raises
    CorpusError.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise CorpusError(f"corpus directory not found: {directory}")
    for name in REQUIRED_FILES:
        if not (directory / name).is_file():
            raise CorpusError(f"missing corpus file: {directory / name}")

    errors: list[IngestError] = []

    def read(filename: str, parse):
        """(line number, record) for each valid line of a file; each other line is one error."""
        with open(directory / filename, encoding="utf-8", errors="surrogateescape") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
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

    pulls = unique(
        "pulls.jsonl",
        partial(_parse, _PULL, PullRequestRecord),
        _PULL_KEY,
        lambda p: f"duplicate pr_number {p.pr_number} for {p.repo_full_name}",
    )

    def separate_comment(obj: dict) -> tuple[tuple[str, int], CommentRecord]:
        key = tuple(kind(obj, name) for name, kind in _COMMENT_KEY)
        comment = _comment(obj, "comment")
        if key not in pulls:
            raise _LineError(f"comment references unknown pull {key[0]}#{key[1]}")
        return key, comment

    if (directory / "comments.jsonl").is_file():
        # Comments are gathered per pull and merged once after the file: a
        # stable sort of the embedded comments followed by the separate ones
        # in file order puts same-second comments in that same order.
        separate: dict[tuple[str, int], list[CommentRecord]] = {}
        for _, (key, comment) in read("comments.jsonl", separate_comment):
            separate.setdefault(key, []).append(comment)
        for key, comments in separate.items():
            pull = pulls[key]
            pulls[key] = replace(pull, comments=_sort_comments(pull.comments + tuple(comments)))

    commits = [c for _, c in read("commits.jsonl", partial(_parse, _COMMIT, CommitEvent))]
    contexts = unique(
        "contributor_context.jsonl",
        partial(_parse, _CONTEXT, ContributorContext),
        _CONTEXT_KEY,
        lambda c: f"duplicate context for {c.repo_full_name}:{c.author}",
    )
    repos = unique(
        "repos.jsonl",
        partial(_parse, _REPO, RepoMeta),
        _REPO_KEY,
        lambda r: f"duplicate repo {r.repo_full_name}",
    )

    corpus = Corpus(
        pulls=[pulls[k] for k in sorted(pulls)],
        commits=sorted(commits, key=_COMMIT_ORDER),
        contexts=[contexts[k] for k in sorted(contexts)],
        repos=[repos[k] for k in sorted(repos)],
    )
    return LoadResult(corpus=corpus, errors=errors)


def _to_json(value):
    """json.dumps default: a record field by field, a timestamp, a set sorted."""
    if isinstance(value, datetime):
        return format_timestamp(value)
    if isinstance(value, frozenset):
        return sorted(value)
    return {f.name: getattr(value, f.name) for f in fields(value)}


def _write_jsonl(path: Path, records: Iterable) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, default=_to_json, separators=(",", ":")) + "\n")


def save_corpus(corpus: Corpus, directory: str | Path) -> None:
    """Write a corpus in canonical form (embedded comments, sorted records)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _write_jsonl(directory / "pulls.jsonl", sorted(corpus.pulls, key=_PULL_KEY))
    _write_jsonl(directory / "commits.jsonl", sorted(corpus.commits, key=_COMMIT_ORDER))
    _write_jsonl(directory / "contributor_context.jsonl", sorted(corpus.contexts, key=_CONTEXT_KEY))
    _write_jsonl(directory / "repos.jsonl", sorted(corpus.repos, key=_REPO_KEY))


def write_error_report(errors: Iterable[IngestError], path: str | Path) -> None:
    _write_jsonl(Path(path), errors)


def filter_repositories(corpus: Corpus, config: FilterConfig | None = None) -> Corpus:
    """Apply star-ranked selection followed by category exclusion.

    Keeps the top N repositories by stars with boundary ties included, then
    drops any repository carrying an excluded category label.  Pulls, commits
    and contexts of dropped repositories are removed as well.  Applying the
    same filter twice is a no-op.
    """
    config = config or FilterConfig()

    ranked = sorted(corpus.repos, key=lambda r: (-r.stars, r.repo_full_name))
    if len(ranked) > config.top_n_by_stars:
        cutoff = ranked[config.top_n_by_stars - 1].stars
        ranked = [r for r in ranked if r.stars >= cutoff]

    excluded = frozenset(config.excluded_labels)
    kept = [r for r in ranked if not (r.category_labels & excluded)]
    names = {r.repo_full_name for r in kept}

    return Corpus(
        pulls=[p for p in corpus.pulls if p.repo_full_name in names],
        commits=[c for c in corpus.commits if c.repo_full_name in names],
        contexts=[c for c in corpus.contexts if c.repo_full_name in names],
        repos=[r for r in corpus.repos if r.repo_full_name in names],
    )
