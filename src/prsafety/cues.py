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
range test instead of by trying the alternation.  The ranges admit ASCII
exactly (the packaged table's "#", "*" and "0"-"9"), so ASCII punctuation
in a non-ASCII body is rejected there too; above ASCII, neighbouring first
codepoints share a range.  A pure-ASCII body is not scanned at all when no
entry of the table is pure ASCII, as in the packaged table: such a body
cannot contain any entry.  A custom table with a pure-ASCII entry is always
scanned.

extract_all builds the cues of a whole corpus as a CueTable in one walk over
each thread: every comment updates all thirteen counters at once.  A body is
searched for a mention only when it contains "@", which every mention needs,
and a PR's conflict or mention search stops at its first hit; the emoji sum
reads every body.  The table keeps the pulls in corpus order as row keys and
the cues as columns in CUE_NAMES order, which screening, thresholds, the
index's scoring, cues.csv and the model frame read directly.  Iterating the
table gives the row view, (pull, CueVector) pairs, for library callers and
the benchmark's tracer; CueVector is a NamedTuple, so a row compares equal
to the plain tuple of its values, and CUE_NAMES is its field tuple.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from operator import attrgetter
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

from .corpus import PullRequestRecord, write_csv


class CueVector(NamedTuple):
    """One row of the cue table; its fields name the cues, in column order."""

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


CUE_NAMES = CueVector._fields

# Count-valued cues, screened as continuous; every other cue is 0/1.
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


# Neighbouring first codepoints above ASCII at most this far apart share one
# range of the prefilter; ASCII first codepoints are admitted exactly, since
# ASCII punctuation is common in text and a range over it would send each
# such character to the alternation.  The packaged table's 261 first
# codepoints become 8 ranges: "#", "*", "0"-"9" and 5 above ASCII.  The regex
# engine tests a class member by member, so a class that lists the 261
# codepoints one by one is about ten times slower to scan than the ranges.
_PREFILTER_GAP = 256
_ASCII_MAX = 0x7F


def _first_codepoint_ranges(sequences: frozenset[str]) -> list[list[int]]:
    ranges: list[list[int]] = []
    for code in sorted({ord(s[0]) for s in sequences}):
        gap = _PREFILTER_GAP if ranges and ranges[-1][1] >= _ASCII_MAX else 1
        if ranges and code - ranges[-1][1] <= gap:
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
class CueTable:
    """The cues of a corpus: row i holds the cues of pulls[i], and each
    column of `columns` holds one cue, keyed in CUE_NAMES order."""

    pulls: Sequence[PullRequestRecord]
    columns: dict[str, list[int]]

    def __len__(self) -> int:
        return len(self.pulls)

    def __iter__(self) -> Iterator[tuple[PullRequestRecord, CueVector]]:
        """The row view: (pull, CueVector) pairs in corpus order."""
        values = zip(*(self.columns[name] for name in CUE_NAMES))
        return zip(self.pulls, map(CueVector._make, values))


def extract_all(pulls: Sequence[PullRequestRecord], table: EmojiTable) -> CueTable:
    """The cue table of the pulls, one pass over each thread."""
    columns: dict[str, list[int]] = {name: [] for name in CUE_NAMES}
    # Appending to the columns keeps no container per row alive, so the
    # garbage collector has no per-row object to walk.
    (
        merged_or_not, pr_comment_num, reopen_num, has_exchange, comment_conflict,
        contrib_comment, num_comments_con, inte_comment, reviewer_comment, other_comment,
        num_participant, at_tag, emoji_count,
    ) = (column.append for column in columns.values())
    for pull in pulls:
        contributor = integrator = reviewer = other = conflict = mention = emoji = 0
        authors = set()
        for comment in pull.comments:
            role, body = comment.role, comment.body
            if role == "contributor":
                contributor += 1
            elif role == "integrator":
                integrator = 1
            elif role == "reviewer":
                reviewer = 1
            elif role == "other":
                other = 1
            authors.add(comment.author)
            if not conflict and mentions_conflict(body):
                conflict = 1
            if not mention and "@" in body and has_mention(body):
                mention = 1
            emoji += count_emojis(body, table)
        contributed = int(contributor > 0)
        merged_or_not(int(pull.merged))
        pr_comment_num(len(pull.comments))
        reopen_num(pull.reopen_count)
        has_exchange(contributed & integrator)
        comment_conflict(conflict)
        contrib_comment(contributed)
        num_comments_con(contributor)
        inte_comment(integrator)
        reviewer_comment(reviewer)
        other_comment(other)
        num_participant(len(authors))
        at_tag(mention)
        emoji_count(emoji)
    return CueTable(list(pulls), columns)


def write_cues_csv(path: str | Path, table: CueTable) -> None:
    """Dump one row per PR: identifying keys followed by the 13 cue columns."""
    write_csv(path, ("repo_full_name", "pr_number") + CUE_NAMES, zip(
        map(attrgetter("repo_full_name"), table.pulls),
        map(attrgetter("pr_number"), table.pulls),
        *(table.columns[name] for name in CUE_NAMES),
    ))
