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

extract_all builds the cues of a whole corpus as a CueTable in one walk over
each thread: every comment updates all thirteen counters at once.  A body is
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

The table keeps the pulls in corpus order as row keys and the cues as
columns in CUE_NAMES order, which screening, thresholds, the index's
scoring, cues.csv and the model frame read directly.  Each column is
a numpy array of the dtype COLUMN_DTYPES declares: uint8 for the eight 0/1
cues, int64 for the five COUNT_CUES, so that a sum of counts, or the
(a + b) / 2 of a median, cannot wrap.  A column takes 1 or 8 bytes a row,
where a list of ints takes 8 bytes a row for the pointer alone; extract_all
turns each list into its array as soon as the walk ends and drops the list,
and CueTable casts columns given in any other form to the same dtypes.
Iterating the table gives the row view, (pull, CueVector) pairs of Python
ints, for library callers and the benchmark's tracer; CueVector is a
NamedTuple, so a row compares equal to the plain tuple of its values, and
CUE_NAMES is its field tuple.

write_cues_csv formats each distinct row of thirteen cues once, and each
repository name once per chunk of rows, with csv.writer, and joins a line
from those two pieces around the PR number.  A corpus repeats few cue
rows: the reference corpus has 1,470 distinct rows in 60,684 pulls.  The
lines go to the file a chunk of rows at a time, so the writer holds neither
the whole text nor the columns as Python ints.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from operator import attrgetter
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import PullRequestRecord, csv_row_text, write_csv_text


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
    """The cues of a corpus: row i holds the cues of pulls[i], and each
    column of `columns` holds one cue, keyed in CUE_NAMES order, as an array
    of its COLUMN_DTYPES dtype."""

    pulls: Sequence[PullRequestRecord]
    columns: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        # An array already of its dtype is kept as is; lists are cast.
        columns = {name: np.asarray(self.columns[name], dtype) for name, dtype in COLUMN_DTYPES.items()}
        object.__setattr__(self, "columns", columns)

    def __len__(self) -> int:
        return len(self.pulls)

    def __iter__(self) -> Iterator[tuple[PullRequestRecord, CueVector]]:
        """The row view: (pull, CueVector) pairs in corpus order."""
        return zip(self.pulls, map(CueVector._make, zip(*_int_columns(self))))


def _int_columns(table: CueTable) -> list[memoryview]:
    # A memoryview yields Python ints and copies nothing.
    return [memoryview(table.columns[name]) for name in CUE_NAMES]


def _cue_lists(pulls: Sequence[PullRequestRecord], table: EmojiTable) -> dict[str, list[int]]:
    """The cue columns of the pulls as lists, one pass over each thread."""
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
    return columns


def _array(values: list[int], dtype: np.dtype) -> np.ndarray:
    if dtype == np.uint8:
        return np.frombuffer(bytes(values), dtype)  # three times as fast as fromiter
    return np.fromiter(values, dtype, count=len(values))


def extract_all(pulls: Sequence[PullRequestRecord], table: EmojiTable) -> CueTable:
    """The cue table of the pulls, one pass over each thread."""
    columns = _cue_lists(pulls, table)
    for name, dtype in COLUMN_DTYPES.items():
        # The list goes as soon as its array exists, so at most one column
        # is held twice.
        columns[name] = _array(columns[name], dtype)
    return CueTable(list(pulls), columns)


# Rows per piece of cues.csv text.  The write runs near the run's peak
# memory, so all a chunk holds (its rows as tuples of Python ints, its
# repositories' heads, its text) adds to that peak; at 256 rows that is
# about 0.1 MB.
_WRITE_CHUNK = 256

_REPO = attrgetter("repo_full_name")
_NUMBER = attrgetter("pr_number")


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
    for start in range(0, len(table), _WRITE_CHUNK):
        stop = start + _WRITE_CHUNK
        pulls = table.pulls[start:stop]
        repos = list(map(_REPO, pulls))
        rows = list(zip(*(table.columns[name][start:stop].tolist() for name in CUE_NAMES)))
        heads = {repo: csv_row_text((repo, ""), terminated=False) for repo in set(repos)}
        for row in set(rows).difference(tails):
            tails[row] = csv_row_text(("", *row))
        yield "".join(map(
            "{}{}{}".format, map(heads.__getitem__, repos), map(_NUMBER, pulls), map(tails.__getitem__, rows),
        ))
