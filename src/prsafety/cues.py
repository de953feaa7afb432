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

The scan is one regex alternation of the table's entries, longest first.  A
lookahead over a few codepoint ranges that cover every entry's first
codepoint comes before it, so most positions of a body are rejected by one
range test instead of by trying the alternation.  A pure-ASCII body is not
scanned at all when no entry of the table is pure ASCII, as in the packaged
table: such a body cannot contain any entry.  A custom table with a
pure-ASCII entry is always scanned.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from functools import cached_property
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


# Neighbouring first codepoints at most this far apart share one range of the
# prefilter.  The packaged table's 261 first codepoints become 6 ranges.  The
# regex engine tests a class member by member, so a class that lists the 261
# codepoints one by one is about ten times slower to scan than the 6 ranges.
_PREFILTER_GAP = 256


def _first_codepoint_ranges(sequences: frozenset[str]) -> list[list[int]]:
    ranges: list[list[int]] = []
    for code in sorted({ord(s[0]) for s in sequences}):
        if ranges and code - ranges[-1][1] <= _PREFILTER_GAP:
            ranges[-1][1] = code
        else:
            ranges.append([code, code])
    return ranges


@dataclass(frozen=True)
class EmojiTable:
    version: str
    sequences: frozenset[str]

    # Both are computed once per table: count_emojis reads them for every
    # comment body.
    @cached_property
    def pattern(self) -> re.Pattern:
        # Alternation ordered longest first: the regex engine takes the first
        # alternative that matches at a position, which yields
        # longest-match-first semantics for the whole scan.  The lookahead in
        # front admits a superset of the entries' first codepoints, so it
        # skips positions where nothing can start and never decides a match.
        ordered = sorted(self.sequences, key=lambda s: (-len(s), s))
        prefilter = "".join(
            f"{re.escape(chr(low))}-{re.escape(chr(high))}"
            for low, high in _first_codepoint_ranges(self.sequences)
        )
        alternation = "|".join(re.escape(s) for s in ordered)
        return re.compile(f"(?=[{prefilter}])(?:{alternation})")

    @cached_property
    def has_ascii_entry(self) -> bool:
        """Whether some entry is pure ASCII, so that an ASCII text can hold one."""
        return any(s.isascii() for s in self.sequences)


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
    if text.isascii() and not table.has_ascii_entry:
        return 0
    return len(table.pattern.findall(text))


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
