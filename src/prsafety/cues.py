"""Observable interaction cues extracted from pull request threads.

Thirteen cues are computed per pull request:

    merged_or_not      PR ended in a merge
    pr_comment_num     number of comments on the thread
    reopen_num         times the PR was reopened
    has_exchange       both the PR author and an integrator commented
    comment_conflict   any comment mentions the token "conflict"
    contrib_comment    the PR author commented at least once
    num_comments_con   number of comments by the PR author
    inte_comment       an integrator commented
    reviewer_comment   a reviewer commented
    other_comment      a commenter outside the three roles appeared
    num_participant    distinct comment authors on the thread
    at_tag             any comment carries an @-mention outside code fences
    emoji_count        emoji occurrences across all comment bodies

Emoji are counted against a versioned reference table of Unicode codepoint
sequences shipped with the package.  Counting is non-overlapping, longest
match first, scanning left to right; the table version is recorded so runs
are reproducible when the table evolves.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import PullRequestRecord

CUE_NAMES = (
    "merged_or_not",
    "pr_comment_num",
    "reopen_num",
    "has_exchange",
    "comment_conflict",
    "contrib_comment",
    "num_comments_con",
    "inte_comment",
    "reviewer_comment",
    "other_comment",
    "num_participant",
    "at_tag",
    "emoji_count",
)

# Count-valued cues; the remaining ten-point conditions treat them against
# corpus medians, everything else is already 0/1.
COUNT_CUES = ("pr_comment_num", "reopen_num", "num_comments_con", "num_participant", "emoji_count")

# "@" followed by login characters (alphanumeric plus inner hyphens), with a
# preceding boundary so emails and code like a@b do not fire.
_MENTION_RE = re.compile(r"(?<![\w@])@[A-Za-z0-9][A-Za-z0-9-]{0,38}")

# Word-boundary anchored token: "conflict" and suffixed forms such as
# "conflicts'"/"conflicted" match, "deconflict" does not.
_CONFLICT_RE = re.compile(r"\bconflict", re.IGNORECASE)

_FENCE_SPLIT_RE = re.compile(r"```")

DEFAULT_TABLE_RESOURCE = "emoji_table_v1.txt"


class EmojiTableError(Exception):
    """Malformed emoji reference table."""


@dataclass(frozen=True)
class EmojiTable:
    version: str
    sequences: frozenset[str]

    @property
    def pattern(self) -> re.Pattern:
        return _compiled_pattern(self.sequences)


@lru_cache(maxsize=8)
def _compiled_pattern(sequences: frozenset[str]) -> re.Pattern:
    # Alternation ordered longest first: the regex engine takes the first
    # alternative that matches at a position, which yields longest-match-first
    # semantics for the whole scan.
    ordered = sorted(sequences, key=lambda s: (-len(s), s))
    return re.compile("|".join(re.escape(s) for s in ordered))


def _parse_table(text: str, origin: str) -> EmojiTable:
    version = None
    sequences = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comment = line.lstrip("#").strip()
            if comment.lower().startswith("version:"):
                version = comment.split(":", 1)[1].strip()
            continue
        try:
            sequences.append("".join(chr(int(part, 16)) for part in line.split("-")))
        except ValueError:
            raise EmojiTableError(f"{origin}:{lineno}: bad codepoint entry {line!r}") from None
    if version is None:
        raise EmojiTableError(f"{origin}: missing '# version:' header")
    if not sequences:
        raise EmojiTableError(f"{origin}: table has no entries")
    return EmojiTable(version=version, sequences=frozenset(sequences))


def load_emoji_table(path: str | Path | None = None) -> EmojiTable:
    """Load the packaged emoji table, or one from an explicit path."""
    if path is None:
        text = resources.files("prsafety.data").joinpath(DEFAULT_TABLE_RESOURCE).read_text("utf-8")
        return _parse_table(text, DEFAULT_TABLE_RESOURCE)
    return _parse_table(Path(path).read_text("utf-8"), str(path))


def count_emojis(text: str, table: EmojiTable) -> int:
    """Count non-overlapping emoji occurrences, longest match first."""
    return sum(1 for _ in table.pattern.finditer(text))


def strip_code_fences(text: str) -> str:
    """Drop fenced code blocks.  An unterminated fence swallows the rest."""
    parts = _FENCE_SPLIT_RE.split(text)
    return " ".join(parts[::2])


def has_mention(text: str) -> bool:
    return _MENTION_RE.search(strip_code_fences(text)) is not None


def mentions_conflict(text: str) -> bool:
    return _CONFLICT_RE.search(text) is not None


@dataclass(frozen=True)
class CueVector:
    merged_or_not: int
    pr_comment_num: int
    reopen_num: int
    has_exchange: int
    comment_conflict: int
    contrib_comment: int
    num_comments_con: int
    inte_comment: int
    reviewer_comment: int
    other_comment: int
    num_participant: int
    at_tag: int
    emoji_count: int


def extract_cues(pull: PullRequestRecord, table: EmojiTable) -> CueVector:
    """Compute the thirteen cues for one pull request.

    The result depends only on the multiset of comments, not their order.
    """
    roles = [c.role for c in pull.comments]
    bodies = [c.body for c in pull.comments]
    num_comments_con = roles.count("contributor")
    contrib_comment = int(num_comments_con > 0)
    inte_comment = int("integrator" in roles)
    return CueVector(
        merged_or_not=int(pull.merged),
        pr_comment_num=len(pull.comments),
        reopen_num=pull.reopen_count,
        has_exchange=int(contrib_comment and inte_comment),
        comment_conflict=int(any(mentions_conflict(b) for b in bodies)),
        contrib_comment=contrib_comment,
        num_comments_con=num_comments_con,
        inte_comment=inte_comment,
        reviewer_comment=int("reviewer" in roles),
        other_comment=int("other" in roles),
        num_participant=len({c.author for c in pull.comments}),
        at_tag=int(any(has_mention(b) for b in bodies)),
        emoji_count=sum(count_emojis(b, table) for b in bodies),
    )


def extract_all(pulls: Sequence[PullRequestRecord], table: EmojiTable) -> list[tuple[PullRequestRecord, CueVector]]:
    return [(pull, extract_cues(pull, table)) for pull in pulls]


def write_cues_csv(path: str | Path, rows: Iterable[tuple[PullRequestRecord, CueVector]]) -> None:
    """Dump one row per PR: identifying keys followed by the 13 cue columns."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("repo_full_name", "pr_number") + CUE_NAMES)
        for pull, vector in rows:
            writer.writerow(
                [pull.repo_full_name, pull.pr_number]
                + [getattr(vector, name) for name in CUE_NAMES]
            )
