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

The scan runs over the UTF-8 bytes of a body, with one bytes pattern built
from the table: the entries, encoded as UTF-8, are grouped by their first
byte, and the pattern is an alternation over the distinct first bytes, each
followed by the rest of its group's entries, longest first.  An entry's
first byte is ASCII or a UTF-8 lead byte, never a continuation byte
(0x80-0xBF), so every match starts and ends on a character boundary and is
one of the entries' matches over the text, in the same leftmost-longest
order.  Bytes, because the regex engine turns the packaged table's 14
distinct first bytes into a 256-bit set that skips every other byte in C,
and factors out each group's shared continuation bytes; over str, the
emoji's first code points lie above U+FFFF, where the engine tests a set
member by member.  Lone surrogates, which a JSON escape can put in a body,
are encoded with "surrogatepass" on both sides.  A pure-ASCII body is not
scanned at all when no entry of the table is pure ASCII, as in the packaged
table: such a body cannot contain any entry.  A custom table with a
pure-ASCII entry is always scanned.

A Thread folds in a thread's comments one at a time, each updating every
counter at once, and closes into the thread's row of the eleven
THREAD_CUES; merged_or_not and reopen_num come from the pull.  A body is
searched for a mention only when it contains "@", which every mention needs,
and for "conflict" only when its lowercased text contains "confl"; a PR's
conflict or mention search stops at its first hit, and the emoji sum reads
every body.  The conflict regex's leading \b under IGNORECASE gives the
regex engine no literal prefix to skip ahead by, so without the test it
tries every position of every body.  The test rejects no match: under
IGNORECASE, c, o, n, f and l each match only their ASCII pair (a test
checks every code point), so the five characters a match starts with
lowercase to "confl".  The "i" after them also matches U+0130, which
lowercases to two code points, so the test stops before it.

extract_all builds the cues of a whole corpus as a CueTable.  A pipeline
run loads its corpus with Thread as the fold (corpus.load_corpus(directory,
fold)), so its pulls are a corpus.Pulls whose rows are Thread rows from
ingest; a list of PullRequestRecords is first folded into the same columns
by corpus.pull_columns, through the same Thread.  The table keeps the Pulls,
whose key columns (repository and author codes, numbers) name its rows, and
the cues as columns in CUE_NAMES order, which screening, thresholds, the
index's scoring, cues.csv and the model frame read directly.  Each column is
a numpy array of the dtype COLUMN_DTYPES declares: uint8 for the eight 0/1
cues, int64 for the five COUNT_CUES, so that a sum of counts, or the
(a + b) / 2 of a median, cannot wrap.  merged_or_not and reopen_num are the
Pulls' own merged and reopen_count arrays, not copies; each thread cue is
its column of the distinct rows, taken at each pull's row index.  CueTable
casts columns given in any other form to the same dtypes.  Iterating the
table gives the row view, (pull, row) pairs, each pull a corpus.PullView and
each row a plain tuple of Python ints in CUE_NAMES order, built as they are
read, for the benchmark's tracer.  CueTable.contributors numbers the
distinct (repository, author) code pairs in first-PR order on first read;
the labels, the index and the model frame all take their contributors from
it.

write_cues_csv formats each distinct row of thirteen cues once, and each
repository's name once per chunk of rows, with csv.writer, and joins a line
from those two pieces around the PR number.  A corpus repeats few cue
rows: the reference corpus has 1,470 distinct rows in 60,684 pulls.  The
lines go to the file a chunk of rows at a time, so the writer holds neither
the whole text nor the columns as Python ints.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property, partial
from importlib import resources
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .corpus import PullRequestRecord, Pulls, PullView, csv_row_text, pull_columns, write_csv_text


CUE_NAMES = (
    "merged_or_not", "pr_comment_num", "reopen_num", "has_exchange", "comment_conflict",
    "contrib_comment", "num_comments_con", "inte_comment", "reviewer_comment", "other_comment",
    "num_participant", "at_tag", "emoji_count",
)

# Count-valued cues, screened as continuous; every other cue is 0/1.
COUNT_CUES = ("pr_comment_num", "reopen_num", "num_comments_con", "num_participant", "emoji_count")

# The cues a thread's comments give, in CUE_NAMES order: a Thread's row.
THREAD_CUES = tuple(name for name in CUE_NAMES if name not in ("merged_or_not", "reopen_num"))

# Each cue column's dtype.  Counts stay int64: they are summed and go
# through medians, and a corpus line may carry a reopen count up to
# corpus.INTEGER_MAX.
COLUMN_DTYPES = {
    name: np.dtype(np.int64 if name in COUNT_CUES else np.uint8) for name in CUE_NAMES
}

# "@" followed by login characters (alphanumeric plus inner hyphens), with a
# preceding boundary so emails and code like a@b do not fire.
_MENTION_RE = re.compile(r"(?<![\w@])@[A-Za-z0-9][A-Za-z0-9-]{0,38}")

# Word-boundary anchored token: "conflict" and suffixed forms such as
# "conflicts'"/"conflicted" match, "deconflict" does not.
_CONFLICT_RE = re.compile(r"\bconflict", re.IGNORECASE)

# What every match of _CONFLICT_RE holds once lowercased: the match's first
# five letters each match only their ASCII pair under IGNORECASE.  The "i"
# that follows also matches U+0130 and U+0131, so the prefix stops before it.
_CONFLICT_PREFIX = "confl"

_FENCE_SPLIT_RE = re.compile(r"```")

DEFAULT_TABLE_RESOURCE = "emoji_table_v1.txt"


class EmojiTableError(Exception):
    """An emoji reference table that cannot be read or is malformed."""


@dataclass(frozen=True)
class EmojiTable:
    version: str
    sequences: frozenset[str]

    # Both are computed once per table: count_emojis reads them for every
    # comment body.
    @cached_property
    def pattern(self) -> re.Pattern:
        # One branch per distinct first byte of the entries' UTF-8, each
        # followed by the rest of its group's entries, longest first: the
        # regex engine takes the first alternative that matches at a
        # position, which yields longest-match-first semantics for the whole
        # scan.
        groups: dict[bytes, list[bytes]] = {}
        for entry in self.sequences:
            encoded = entry.encode("utf-8", "surrogatepass")
            groups.setdefault(encoded[:1], []).append(encoded[1:])
        branches = []
        for lead, rests in sorted(groups.items()):
            rests.sort(key=lambda rest: (-len(rest), rest))
            branches.append(re.escape(lead) + b"(?:" + b"|".join(map(re.escape, rests)) + b")")
        return re.compile(b"|".join(branches))

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
    try:
        text = Path(path).read_text("utf-8")
    except FileNotFoundError:
        raise EmojiTableError(f"emoji table not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise EmojiTableError(f"emoji table {path} is not UTF-8 (byte {exc.start})") from None
    except OSError as exc:
        raise EmojiTableError(f"emoji table {path} cannot be read: {exc.strerror}") from None
    return _parse_table(text, str(path))


def count_emojis(text: str, table: EmojiTable) -> int:
    """Count non-overlapping emoji occurrences, longest match first.

    The table's pattern scans the text's UTF-8; a lone surrogate, which a
    JSON escape can put in a body, is encoded with "surrogatepass", as the
    table's entries are.  A pure-ASCII text is not scanned when no entry is
    pure ASCII.
    """
    if text.isascii() and not table.has_ascii_entry:
        return 0
    return len(table.pattern.findall(text.encode("utf-8", "surrogatepass")))


def strip_code_fences(text: str) -> str:
    """Drop fenced code blocks.  An unterminated fence swallows the rest."""
    parts = _FENCE_SPLIT_RE.split(text)
    return " ".join(parts[::2])


def has_mention(text: str) -> bool:
    return _MENTION_RE.search(strip_code_fences(text)) is not None


def mentions_conflict(text: str) -> bool:
    return _CONFLICT_PREFIX in text.lower() and _CONFLICT_RE.search(text) is not None


@dataclass(frozen=True)
class CueTable:
    """The cues of a corpus: row i holds the cues of pull i of pulls, and each
    column of `columns` holds one cue, keyed in CUE_NAMES order, as an array
    of its COLUMN_DTYPES dtype."""

    pulls: Pulls
    columns: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        # An array already of its dtype is kept as is; lists are cast.
        columns = {name: np.asarray(self.columns[name], dtype) for name, dtype in COLUMN_DTYPES.items()}
        object.__setattr__(self, "columns", columns)

    def __len__(self) -> int:
        return len(self.pulls)

    def __iter__(self) -> Iterator[tuple[PullView, tuple[int, ...]]]:
        """The row view: (pull, row) pairs, each row a tuple of Python ints in CUE_NAMES order."""
        # A memoryview yields Python ints and copies nothing.
        return zip(self.pulls, zip(*map(memoryview, self.columns.values())))

    @cached_property
    def contributors(self) -> tuple[list[tuple[str, str]], np.ndarray]:
        """The distinct (repository, author) pairs in first-PR order, and each row's index among them."""
        pulls = self.pulls
        width = len(pulls.authors)
        pairs: dict[int, int] = {}  # each pair's code, repository code * width + author code
        codes = (pulls.repo * width + pulls.author).tolist()
        rows = np.fromiter((pairs.setdefault(code, len(pairs)) for code in codes), np.intp, len(codes))
        return [(pulls.repos[code // width], pulls.authors[code % width]) for code in pairs], rows


class Thread:
    """The cues of one thread's comments, folded in one comment at a time.

    add takes a comment as corpus.load_corpus gives it to a fold; close
    gives the thread's row of THREAD_CUES.  Every cue is a count, an
    any-flag or the size of the set of authors, so the row does not depend
    on the comments' order or sources, and created_at is not read.
    """

    __slots__ = ("table", "comments", "contributor", "integrator", "reviewer", "other",
                 "conflict", "mention", "emoji", "authors")

    def __init__(self, table: EmojiTable) -> None:
        self.table = table
        self.comments = self.contributor = self.integrator = self.reviewer = self.other = 0
        self.conflict = self.mention = self.emoji = 0
        self.authors: set[str] = set()

    def add(self, role: str, author: str, body: str, created_at: datetime) -> None:
        self.comments += 1
        if role == "contributor":
            self.contributor += 1
        elif role == "integrator":
            self.integrator = 1
        elif role == "reviewer":
            self.reviewer = 1
        elif role == "other":
            self.other = 1
        self.authors.add(author)
        if not self.conflict and mentions_conflict(body):
            self.conflict = 1
        if not self.mention and "@" in body and has_mention(body):
            self.mention = 1
        self.emoji += count_emojis(body, self.table)

    def close(self) -> tuple[int, ...]:
        contributed = int(self.contributor > 0)
        return (
            self.comments, contributed & self.integrator, self.conflict, contributed,
            self.contributor, self.integrator, self.reviewer, self.other, len(self.authors),
            self.mention, self.emoji,
        )


def extract_all(pulls: Pulls | Sequence[PullRequestRecord], table: EmojiTable) -> CueTable:
    """The cue table of the pulls.  Pulls bring their threads' rows from the
    load; the comments of PullRequestRecords are folded here, by the same
    Thread, into the same columns."""
    if not isinstance(pulls, Pulls):
        pulls = pull_columns(pulls, partial(Thread, table))
    rows = np.array(pulls.rows, np.int64).reshape(len(pulls.rows), len(THREAD_CUES))
    columns = {"merged_or_not": pulls.merged, "reopen_num": pulls.reopen_count}
    for name, values in zip(THREAD_CUES, rows.T):
        columns[name] = values.astype(COLUMN_DTYPES[name])[pulls.thread]
    return CueTable(pulls, columns)


# Rows per piece of cues.csv text.  The write runs near the run's peak
# memory, so all a chunk holds (its rows as tuples of Python ints, its
# repositories' heads, its text) adds to that peak; at 256 rows that is
# about 0.1 MB.
_WRITE_CHUNK = 256


def write_cues_csv(path: str | Path, table: CueTable) -> None:
    """Dump one row per PR: identifying keys followed by the 13 cue columns."""
    write_csv_text(path, ("repo_full_name", "pr_number") + CUE_NAMES, _cue_rows_text(table))


def _cue_rows_text(table: CueTable) -> Iterator[str]:
    # csv.writer formats each field on its own and joins the fields with
    # commas, so a row is the text of (repo, "") unterminated, then the
    # number, then the text of ("", *cues): an empty field adds nothing to a
    # row of two fields or more.  Each distinct tail is formatted once, and
    # each chunk's distinct heads once for the chunk: a repository's pulls
    # are adjacent, so few heads are formatted twice.
    tails: dict[tuple[int, ...], str] = {}
    pulls = table.pulls
    for start in range(0, len(table), _WRITE_CHUNK):
        stop = start + _WRITE_CHUNK
        repos = pulls.repo[start:stop].tolist()
        rows = list(zip(*(table.columns[name][start:stop].tolist() for name in CUE_NAMES)))
        heads = {code: csv_row_text((pulls.repos[code], ""), terminated=False) for code in set(repos)}
        for row in set(rows).difference(tails):
            tails[row] = csv_row_text(("", *row))
        yield "".join(map(
            "{}{}{}".format, map(heads.__getitem__, repos), pulls.pr_number[start:stop].tolist(),
            map(tails.__getitem__, rows),
        ))
