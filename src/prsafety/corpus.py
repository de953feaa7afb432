"""Canonical pull request corpus: record types, JSONL persistence, validation,
and repository-level filtering.

A corpus directory holds up to five JSONL files:

    pulls.jsonl                one pull request per line, comments embedded
    comments.jsonl             optional; comments on separate lines, keyed by
                               repo_full_name + pr_number
    commits.jsonl              one commit event per line
    contributor_context.jsonl  one (repository, author) context per line
    repos.jsonl                one repository metadata line each

Timestamps are RFC 3339 UTC strings on disk ("2019-06-30T12:00:00Z") and
timezone-aware datetimes in memory.  Loading normalizes record order (pulls by
repo and number, comments by timestamp, commits and contexts by key) so that
save followed by load round-trips to an equal corpus.  Lines that fail
validation are collected into an error report instead of aborting the load;
a missing required file is fatal.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Mapping

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


class _LineError(Exception):
    """Internal: single-line validation failure, caught into the report."""


@dataclass(frozen=True)
class IngestError:
    file: str
    line: int
    message: str

    def to_json(self) -> dict:
        return {"file": self.file, "line": self.line, "message": self.message}


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


def parse_timestamp(value: str) -> datetime:
    """Parse an RFC 3339 timestamp into an aware UTC datetime."""
    if not isinstance(value, str):
        raise _LineError(f"timestamp must be a string, got {type(value).__name__}")
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        parsed = datetime.fromisoformat(text)
    except ValueError:
        raise _LineError(f"invalid RFC 3339 timestamp {value!r}") from None
    if parsed.tzinfo is None:
        raise _LineError(f"timestamp {value!r} is missing a UTC offset")
    return parsed.astimezone(timezone.utc)


def format_timestamp(value: datetime) -> str:
    return value.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


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


def _require(obj: Mapping, name: str):
    if name not in obj or obj[name] is None:
        raise _LineError(f"missing field {name!r}")
    return obj[name]


def _require_str(obj: Mapping, name: str) -> str:
    value = _require(obj, name)
    if not isinstance(value, str) or not value:
        raise _LineError(f"field {name!r} must be a non-empty string")
    return value


def _require_int(obj: Mapping, name: str, minimum: int | None = None) -> int:
    value = _require(obj, name)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _LineError(f"field {name!r} must be an integer")
    if minimum is not None and value < minimum:
        raise _LineError(f"field {name!r} must be >= {minimum}, got {value}")
    return value


def _require_bool(obj: Mapping, name: str) -> bool:
    value = _require(obj, name)
    if not isinstance(value, bool):
        raise _LineError(f"field {name!r} must be a boolean")
    return value


def _require_fraction(obj: Mapping, name: str) -> float:
    value = _require(obj, name)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _LineError(f"field {name!r} must be a number")
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise _LineError(f"field {name!r} must lie in [0, 1], got {value}")
    return value


def _parse_comment(obj, where: str) -> CommentRecord:
    if not isinstance(obj, dict):
        raise _LineError(f"{where} must be an object")
    role = _require_str(obj, "role")
    if role not in ROLES:
        raise _LineError(f"{where}: role {role!r} not one of {ROLES}")
    return CommentRecord(
        author=_require_str(obj, "author"),
        role=role,
        body=str(_require(obj, "body")),
        created_at=parse_timestamp(_require(obj, "created_at")),
    )


def _parse_pull(obj: Mapping) -> PullRequestRecord:
    closed_at = obj.get("closed_at")
    comments_raw = obj.get("comments", [])
    if not isinstance(comments_raw, list):
        raise _LineError("field 'comments' must be a list")
    comments = tuple(
        _parse_comment(c, f"comments[{i}]") for i, c in enumerate(comments_raw)
    )
    return PullRequestRecord(
        repo_full_name=_require_str(obj, "repo_full_name"),
        pr_number=_require_int(obj, "pr_number", minimum=1),
        author=_require_str(obj, "author"),
        created_at=parse_timestamp(_require(obj, "created_at")),
        merged=_require_bool(obj, "merged"),
        closed_at=None if closed_at is None else parse_timestamp(closed_at),
        reopen_count=_require_int(obj, "reopen_count", minimum=0),
        comments=_sort_comments(comments),
    )


def _parse_commit(obj: Mapping) -> CommitEvent:
    return CommitEvent(
        repo_full_name=_require_str(obj, "repo_full_name"),
        author=_require_str(obj, "author"),
        committed_at=parse_timestamp(_require(obj, "committed_at")),
    )


def _parse_context(obj: Mapping) -> ContributorContext:
    return ContributorContext(
        repo_full_name=_require_str(obj, "repo_full_name"),
        author=_require_str(obj, "author"),
        core_member=_require_bool(obj, "core_member"),
        contrib_rate_author=_require_fraction(obj, "contrib_rate_author"),
        followers=_require_int(obj, "followers", minimum=0),
        num_languages=_require_int(obj, "num_languages", minimum=1),
        contrib_follow_integrator=_require_bool(obj, "contrib_follow_integrator"),
        social_strength=_require_fraction(obj, "social_strength"),
    )


def _parse_repo(obj: Mapping) -> RepoMeta:
    labels = obj.get("category_labels", [])
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise _LineError("field 'category_labels' must be a list of strings")
    size = _require_str(obj, "repo_size")
    if size not in REPO_SIZES:
        raise _LineError(f"repo_size {size!r} not one of {REPO_SIZES}")
    pr_count = _require_int(obj, "pr_count", minimum=0)
    if repo_size_for(pr_count) != size:
        raise _LineError(
            f"repo_size {size!r} inconsistent with pr_count {pr_count}"
        )
    return RepoMeta(
        repo_full_name=_require_str(obj, "repo_full_name"),
        stars=_require_int(obj, "stars", minimum=0),
        category_labels=frozenset(labels),
        pr_count=pr_count,
        repo_size=size,
    )


def _sort_comments(comments: Iterable[CommentRecord]) -> tuple[CommentRecord, ...]:
    # Stable on timestamp so same-second comments keep their input order.
    return tuple(sorted(comments, key=lambda c: c.created_at))


def _iter_jsonl(path: Path):
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.strip():
                yield lineno, line


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

    def run(filename: str, parser):
        records = []
        for lineno, line in _iter_jsonl(directory / filename):
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise _LineError("line is not a JSON object")
                records.append((lineno, parser(obj)))
            except json.JSONDecodeError as exc:
                errors.append(IngestError(filename, lineno, f"invalid JSON: {exc.msg}"))
            except _LineError as exc:
                errors.append(IngestError(filename, lineno, str(exc)))
        return records

    pulls: dict[tuple[str, int], PullRequestRecord] = {}
    for lineno, pull in run("pulls.jsonl", _parse_pull):
        key = (pull.repo_full_name, pull.pr_number)
        if key in pulls:
            errors.append(
                IngestError(
                    "pulls.jsonl",
                    lineno,
                    f"duplicate pr_number {pull.pr_number} for {pull.repo_full_name}",
                )
            )
            continue
        pulls[key] = pull

    comments_path = directory / "comments.jsonl"
    if comments_path.is_file():
        # Comments are gathered per pull and merged once after the file: a
        # stable sort of the embedded comments followed by the separate ones
        # in file order puts same-second comments in that same order.
        separate: dict[tuple[str, int], list[CommentRecord]] = {}
        for lineno, line in _iter_jsonl(comments_path):
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise _LineError("line is not a JSON object")
                key = (_require_str(obj, "repo_full_name"), _require_int(obj, "pr_number", 1))
                comment = _parse_comment(obj, "comment")
                if key not in pulls:
                    raise _LineError(f"comment references unknown pull {key[0]}#{key[1]}")
                separate.setdefault(key, []).append(comment)
            except json.JSONDecodeError as exc:
                errors.append(IngestError("comments.jsonl", lineno, f"invalid JSON: {exc.msg}"))
            except _LineError as exc:
                errors.append(IngestError("comments.jsonl", lineno, str(exc)))
        for key, comments in separate.items():
            pull = pulls[key]
            pulls[key] = replace(pull, comments=_sort_comments(pull.comments + tuple(comments)))

    commits = [c for _, c in run("commits.jsonl", _parse_commit)]

    contexts: dict[tuple[str, str], ContributorContext] = {}
    for lineno, ctx in run("contributor_context.jsonl", _parse_context):
        key = (ctx.repo_full_name, ctx.author)
        if key in contexts:
            errors.append(
                IngestError(
                    "contributor_context.jsonl",
                    lineno,
                    f"duplicate context for {key[0]}:{key[1]}",
                )
            )
            continue
        contexts[key] = ctx

    repos: dict[str, RepoMeta] = {}
    for lineno, meta in run("repos.jsonl", _parse_repo):
        if meta.repo_full_name in repos:
            errors.append(
                IngestError("repos.jsonl", lineno, f"duplicate repo {meta.repo_full_name}")
            )
            continue
        repos[meta.repo_full_name] = meta

    corpus = Corpus(
        pulls=[pulls[k] for k in sorted(pulls)],
        commits=sorted(commits, key=lambda c: (c.repo_full_name, c.author, c.committed_at)),
        contexts=[contexts[k] for k in sorted(contexts)],
        repos=[repos[k] for k in sorted(repos)],
    )
    return LoadResult(corpus=corpus, errors=errors)


def _comment_to_json(comment: CommentRecord) -> dict:
    return {
        "author": comment.author,
        "role": comment.role,
        "body": comment.body,
        "created_at": format_timestamp(comment.created_at),
    }


def pull_to_json(pull: PullRequestRecord) -> dict:
    return {
        "repo_full_name": pull.repo_full_name,
        "pr_number": pull.pr_number,
        "author": pull.author,
        "created_at": format_timestamp(pull.created_at),
        "merged": pull.merged,
        "closed_at": None if pull.closed_at is None else format_timestamp(pull.closed_at),
        "reopen_count": pull.reopen_count,
        "comments": [_comment_to_json(c) for c in pull.comments],
    }


def save_corpus(corpus: Corpus, directory: str | Path) -> None:
    """Write a corpus in canonical form (embedded comments, sorted records)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    def dump(filename: str, objects: Iterable[dict]) -> None:
        with open(directory / filename, "w", encoding="utf-8") as handle:
            for obj in objects:
                handle.write(json.dumps(obj, separators=(",", ":")) + "\n")

    dump(
        "pulls.jsonl",
        (pull_to_json(p) for p in sorted(corpus.pulls, key=lambda p: (p.repo_full_name, p.pr_number))),
    )
    dump(
        "commits.jsonl",
        (
            {
                "repo_full_name": c.repo_full_name,
                "author": c.author,
                "committed_at": format_timestamp(c.committed_at),
            }
            for c in sorted(corpus.commits, key=lambda c: (c.repo_full_name, c.author, c.committed_at))
        ),
    )
    dump(
        "contributor_context.jsonl",
        (
            {
                "repo_full_name": ctx.repo_full_name,
                "author": ctx.author,
                "core_member": ctx.core_member,
                "contrib_rate_author": ctx.contrib_rate_author,
                "followers": ctx.followers,
                "num_languages": ctx.num_languages,
                "contrib_follow_integrator": ctx.contrib_follow_integrator,
                "social_strength": ctx.social_strength,
            }
            for ctx in sorted(corpus.contexts, key=lambda c: (c.repo_full_name, c.author))
        ),
    )
    dump(
        "repos.jsonl",
        (
            {
                "repo_full_name": r.repo_full_name,
                "stars": r.stars,
                "category_labels": sorted(r.category_labels),
                "pr_count": r.pr_count,
                "repo_size": r.repo_size,
            }
            for r in sorted(corpus.repos, key=lambda r: r.repo_full_name)
        ),
    )


def write_error_report(errors: Iterable[IngestError], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for err in errors:
            handle.write(json.dumps(err.to_json(), separators=(",", ":")) + "\n")


def filter_repositories(corpus: Corpus, config: FilterConfig | None = None) -> Corpus:
    """Apply star-ranked selection followed by category exclusion.

    Keeps the top N repositories by stars with boundary ties included, then
    drops any repository carrying an excluded category label.  Pulls, commits
    and contexts of dropped repositories are removed as well.  Applying the
    same filter twice is a no-op.
    """
    config = config or FilterConfig()
    if config.top_n_by_stars < 1:
        raise ValueError("top_n_by_stars must be positive")

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
