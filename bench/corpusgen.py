"""Seeded synthetic pull request corpora for the benchmark workloads.

Each workload is a Shape.  generate() writes the corpus files of one shape
for one seed and returns the row counts the pipeline must report back in
its manifest, including the number of malformed lines it injected.  The
same shape and seed always give the same bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

# Pull requests per repository of the 26-repository reference corpus,
# 60,684 in total.
REFERENCE_COUNTS = (
    12317, 12057, 7445, 7123, 4531, 3215, 2902, 2102, 1923, 1713, 1203, 715, 699,
    587, 553, 417, 397, 215, 147, 107, 83, 57, 53, 52, 37, 34,
)

SNAPSHOT = date(2019, 6, 30)
DATA_END = "2025-06-30"

# Commit histories that give every participation status: sustained (and
# therefore recent), not sustained with and without recent activity,
# censored, and gap-return exclusions.
_PATTERNS = ("sustained", "ns_quiet", "ns_recent", "censored", "excluded")
_PATTERN_WEIGHTS = (0.50, 0.25, 0.10, 0.07, 0.08)

_ROLES = ("contributor", "integrator", "reviewer", "other")
_ROLE_WEIGHTS = (0.35, 0.30, 0.15, 0.20)

# The comment bodies of the test suite's criterion-8 corpus
# (tests/synth.py), so that the reference workload is comparable with the
# ROADMAP baseline: 3 of the 10 bodies carry emoji.
REFERENCE_BODIES = (
    "Looks good to me, thanks for the quick turnaround.",
    "Could you add a regression test for the empty-input case?",
    "Rebased and fixed the lint warnings.",
    "There is a merge conflict against the release branch now.",
    "Nice work \U0001F44D",
    "Love it \u2764\ufe0f shipping this today.",
    "cc @{mention} for a second opinion",
    "The stack trace points at the cache layer:\n```\n@lru_cache wrapper re-entered\n```\nstill investigating.",
    "Closing as superseded by the newer series.",
    "Benchmarks look flat, which is what we hoped for \U0001F604",
)

# Non-ASCII bodies: accented and CJK text, Cyrillic, emoji with skin tones
# and ZWJ sequences, code fences, mentions.
NON_ASCII_BODIES = (
    "Überprüfung abgeschlossen — sieht gut aus ✅",
    "这个补丁修复了内存泄漏，谢谢！\U0001F64F",
    "Спасибо за исправление, отличная работа ❤️‍\U0001F525",
    "\U0001F469‍\U0001F4BB pairing on this tomorrow with @{mention}",
    "Le résumé du problème : la fenêtre se ferme trop tôt… \U0001F605",
    "```\n@pytest.mark.parametrize(\"naïve\", [\"café\"])\n```",
    "\U0001F44D\U0001F3FD works for me on 3.11",
    "There is a conflict in the lockfile again \U0001F62D",
    "レビューありがとうございます。修正しました \U0001F389",
    "merged upstream \U0001F680✨ thanks @{mention}",
    "Tested on ARM and x86 – no regressions ⚠️ except the flaky one",
    "\U0001F468‍\U0001F527 rebuilt the toolchain cache",
)

# Short ASCII-only bodies: no emoji can match.
ASCII_BODIES = (
    "LGTM",
    "Thanks!",
    "Please rebase.",
    "cc @{mention}",
    "Fixed the merge conflict.",
    "Ship it.",
    "Needs a changelog entry.",
)


@dataclass(frozen=True)
class Shape:
    """One workload's corpus shape and the run config it is analysed with."""

    repo_counts: tuple[int, ...]  # pull requests generated per repository
    declared_sizes: tuple[str, ...]  # repo_size cycle; "" derives it from the count
    prs_per_author: int
    thread_lengths: tuple[int, ...]  # comments per PR, drawn with thread_weights
    thread_weights: tuple[float, ...]
    bodies: tuple[str, ...]
    split_comments: bool  # comments go to a shuffled comments.jsonl
    comments_per_day: int  # a thread's comments are spread this many to a day
    config: dict | None = None  # written to config.json and passed with --config


SHAPES: dict[str, Shape] = {
    "reference": Shape(
        repo_counts=REFERENCE_COUNTS,
        declared_sizes=("",),
        prs_per_author=30,
        thread_lengths=(0, 1, 2, 3),
        thread_weights=(0.35, 0.30, 0.20, 0.15),
        bodies=REFERENCE_BODIES,
        split_comments=False,
        comments_per_day=1,  # criterion 8's thread shape
    ),
    # Ten repositories of ~25 authors each vary enough at repository level
    # for models 1 and 2 to converge on every seed.
    "long_threads": Shape(
        repo_counts=(62, 58, 55, 52, 50, 48, 46, 44, 44, 41),
        declared_sizes=("large", "medium", "small"),
        prs_per_author=2,
        thread_lengths=(80, 100, 120),
        thread_weights=(0.3, 0.4, 0.3),
        bodies=NON_ASCII_BODIES,
        split_comments=True,
        comments_per_day=8,
    ),
    # Per-repository thresholds cost O(repositories x PRs): at 2,000
    # repositories they are the largest layer.
    "many_repos": Shape(
        repo_counts=tuple(4 + (i * 7) % 13 for i in range(2000)),
        declared_sizes=("small", "medium"),
        prs_per_author=4,
        thread_lengths=(0, 1, 2),
        thread_weights=(0.4, 0.4, 0.2),
        bodies=ASCII_BODIES,
        split_comments=False,
        comments_per_day=8,
        # The filter runs but keeps every repository.
        config={"filter": {"top_n_by_stars": 100000}, "threshold_scope": "per_repository"},
    ),
    # A few hundred PRs for the benchmark's own tests; not a measured workload.
    "smoke": Shape(
        repo_counts=(80, 70, 60, 60, 50, 50, 40, 40, 35, 30),
        declared_sizes=("large", "medium", "small"),
        prs_per_author=3,
        thread_lengths=(0, 2, 5),
        thread_weights=(0.3, 0.4, 0.3),
        bodies=NON_ASCII_BODIES,
        split_comments=True,
        comments_per_day=8,
    ),
}


def _size_for(pr_count: int) -> str:
    if pr_count > 1000:
        return "large"
    if pr_count > 100:
        return "medium"
    return "small"


def _declared_pr_count(rng: random.Random, size: str, count: int) -> int:
    """A repository-wide PR volume consistent with size; the corpus holds a sample."""
    if size == "large":
        return max(count, rng.randrange(1001, 20000))
    if size == "medium":
        return max(count, rng.randrange(101, 1001))
    return count


def _iso(day: date, minute: int) -> str:
    return f"{day.isoformat()}T{minute // 60:02d}:{minute % 60:02d}:00Z"


def _commit_days(rng: random.Random, pattern: str) -> list[date]:
    snap = SNAPSHOT
    if pattern == "sustained":
        days = [snap - timedelta(days=rng.randrange(30, 300)),
                snap + timedelta(days=rng.randrange(10, 360))]
        if rng.random() < 0.5:
            days.append(date(2021, 1, 1) + timedelta(days=rng.randrange(0, 900)))
        return days
    if pattern == "ns_quiet":
        return [snap - timedelta(days=rng.randrange(200, 350)),
                snap - timedelta(days=rng.randrange(10, 190))]
    if pattern == "ns_recent":
        return [snap - timedelta(days=rng.randrange(200, 360)),
                snap - timedelta(days=rng.randrange(10, 190)),
                date(2021, 6, 1) + timedelta(days=rng.randrange(0, 800))]
    if pattern == "censored":
        return [snap - timedelta(days=rng.randrange(10, 300)),
                date(2024, 8, 1) + timedelta(days=rng.randrange(0, 200))]
    first = date(2016, 6, 1) + timedelta(days=rng.randrange(0, 100))
    return [first, first + timedelta(days=366 + rng.randrange(0, 200))]


def _dumps(obj: dict) -> str:
    # As corpus.save_corpus writes it: non-ASCII text as \\uXXXX escapes.
    return json.dumps(obj, separators=(",", ":"))


def _has_emoji(text: str) -> bool:
    """Whether text holds a code point of the main emoji blocks."""
    return any(0x2600 <= ord(ch) <= 0x27BF or 0x1F000 <= ord(ch) <= 0x1FAFF for ch in text)


def _inject(rng: random.Random, lines: list[str], bad: list[str]) -> None:
    for line in bad:
        lines.insert(rng.randrange(len(lines) + 1), line)


def generate(shape: Shape, seed: int, directory: str | Path) -> dict[str, int]:
    """Write one corpus and return the counts the manifest must report.

    The returned mapping has the keys of the manifest's row_counts that
    depend on the corpus alone: pulls, comments, commits, contexts, repos
    and ingest_errors (the malformed lines injected).  Every repository
    passes the default filter, so the counts hold with and without it.
    Two more keys describe the body mix: non_ascii_comments and
    emoji_comments count the comments whose body has any non-ASCII
    character and any emoji code point.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)

    pulls: list[str] = []
    comments: list[str] = []
    commits: list[str] = []
    contexts: list[str] = []
    repos: list[str] = []
    n_comments = n_non_ascii = n_emoji = 0

    first_day = date(2017, 1, 1).toordinal()
    last_day = date(2019, 6, 29).toordinal()
    n_repos = len(shape.repo_counts)

    for rank, count in enumerate(shape.repo_counts):
        repo = f"org{rank:04d}/project{rank:04d}"
        tag = f"{rank:04d}"
        authors = [f"dev{i}-{tag}" for i in range(max(3, count // shape.prs_per_author))]
        integrators = [f"int{i}-{tag}" for i in range(2)]
        reviewers = [f"rev{i}-{tag}" for i in range(2)]

        for author in authors:
            pattern = rng.choices(_PATTERNS, weights=_PATTERN_WEIGHTS)[0]
            for day in _commit_days(rng, pattern):
                commits.append(_dumps({
                    "repo_full_name": repo,
                    "author": author,
                    "committed_at": _iso(day, rng.randrange(1440)),
                }))
            contexts.append(_dumps({
                "repo_full_name": repo,
                "author": author,
                "core_member": rng.random() < 0.2,
                "contrib_rate_author": round(rng.random(), 4),
                "followers": rng.randrange(400),
                "num_languages": rng.randrange(1, 9),
                "contrib_follow_integrator": rng.random() < 0.4,
                "social_strength": round(rng.random(), 4),
            }))

        for pr_number in range(1, count + 1):
            author = rng.choice(authors)
            created_day = date.fromordinal(rng.randrange(first_day, last_day + 1))
            created_minute = rng.randrange(1380)
            thread = []
            for i in range(rng.choices(shape.thread_lengths, weights=shape.thread_weights)[0]):
                role = rng.choices(_ROLES, weights=_ROLE_WEIGHTS)[0]
                if role == "contributor":
                    commenter = author
                elif role == "integrator":
                    commenter = rng.choice(integrators)
                elif role == "reviewer":
                    commenter = rng.choice(reviewers)
                else:
                    commenter = f"user{rng.randrange(500)}"
                thread.append({
                    "author": commenter,
                    "role": role,
                    "body": rng.choice(shape.bodies).replace("{mention}", integrators[0]),
                    "created_at": _iso(created_day + timedelta(days=i // shape.comments_per_day),
                                       (created_minute + 17 * (i + 1)) % 1440),
                })
            n_comments += len(thread)
            n_non_ascii += sum(1 for c in thread if not c["body"].isascii())
            n_emoji += sum(1 for c in thread if _has_emoji(c["body"]))
            merged = rng.random() < 0.6
            closed = None
            if merged or rng.random() < 0.7:
                closed = _iso(created_day + timedelta(days=rng.randrange(45)), 1400)
            pull = {
                "repo_full_name": repo,
                "pr_number": pr_number,
                "author": author,
                "created_at": _iso(created_day, created_minute),
                "merged": merged,
                "closed_at": closed,
                "reopen_count": rng.choices((0, 1, 2), weights=(0.90, 0.08, 0.02))[0],
                "comments": [] if shape.split_comments else thread,
            }
            pulls.append(_dumps(pull))
            if shape.split_comments:
                comments.extend(
                    _dumps({"repo_full_name": repo, "pr_number": pr_number, **c}) for c in thread
                )

        size = shape.declared_sizes[rank % len(shape.declared_sizes)] or _size_for(count)
        repos.append(_dumps({
            "repo_full_name": repo,
            "stars": 1000 + 50 * (n_repos - rank) + rng.randrange(50),
            "category_labels": [],
            "pr_count": _declared_pr_count(rng, size, count),
            "repo_size": size,
        }))

    # Malformed lines, one per failure class the loader reports; none of
    # them may alter a valid record.
    first_repo = "org0000/project0000"
    bad = {
        "pulls.jsonl": [
            '{"repo_full_name": "org0000/project0000", "pr_num',
            _dumps({"repo_full_name": first_repo, "pr_number": 0, "author": "ghost",
                    "created_at": "2019-01-01T00:00:00Z", "merged": False,
                    "closed_at": None, "reopen_count": 0, "comments": []}),
        ],
        "commits.jsonl": [
            _dumps({"repo_full_name": first_repo, "author": "ghost",
                    "committed_at": "2019-13-45T00:00:00Z"}),
        ],
        "contributor_context.jsonl": [
            _dumps({"repo_full_name": first_repo, "author": "ghost", "core_member": False,
                    "contrib_rate_author": 1.5, "followers": 1, "num_languages": 1,
                    "contrib_follow_integrator": False, "social_strength": 0.5}),
        ],
        "repos.jsonl": [
            _dumps({"repo_full_name": "ghost/repo", "stars": -5, "category_labels": [],
                    "pr_count": 1, "repo_size": "small"}),
        ],
    }
    files = {
        "pulls.jsonl": pulls,
        "commits.jsonl": commits,
        "contributor_context.jsonl": contexts,
        "repos.jsonl": repos,
    }
    if shape.split_comments:
        rng.shuffle(comments)
        files["comments.jsonl"] = comments
        bad["comments.jsonl"] = [
            _dumps({"repo_full_name": first_repo, "pr_number": 999999, "author": "ghost",
                    "role": "other", "body": "orphan", "created_at": "2019-01-01T00:00:00Z"}),
        ]
    counts = {
        "pulls": len(pulls),
        "comments": n_comments,
        "commits": len(commits),
        "contexts": len(contexts),
        "repos": len(repos),
        "ingest_errors": sum(len(lines) for lines in bad.values()),
        "non_ascii_comments": n_non_ascii,
        "emoji_comments": n_emoji,
    }
    for name, lines in files.items():
        _inject(rng, lines, bad.get(name, []))
        (directory / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return counts
